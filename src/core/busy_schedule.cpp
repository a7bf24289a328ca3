#include "core/busy_schedule.hpp"

#include <algorithm>
#include <cmath>
#include <functional>

#include "core/assert.hpp"
#include "core/scratch.hpp"
#include "core/sweep.hpp"

namespace abt::core {

namespace {

bool fail(std::string* why, std::string reason) {
  if (why != nullptr) *why = std::move(reason);
  return false;
}

/// A schedule's runs in machine-major order (sort_machine_major), carved
/// from `arena`: job j runs [start, start + p_j - eps), and runs left
/// empty are dropped. With eps = 0 the run is the job's execution
/// interval to the bit, since x - 0.0 == x.
struct MachineMajorRuns {
  std::span<const MachineRun> runs;
  std::span<const std::size_t> first;  ///< As sort_machine_major's.
};

MachineMajorRuns machine_major_runs(const ContinuousInstance& inst,
                                    const BusySchedule& sched, RealTime eps,
                                    MonotonicArena& arena) {
  const auto n = static_cast<std::size_t>(inst.size());
  const std::span<MachineRun> runs = arena.alloc<MachineRun>(n);
  std::size_t live = 0;
  for (std::size_t j = 0; j < n; ++j) {
    const Placement& p = sched.placements[j];
    ABT_ASSERT(p.machine >= 0, "every job must be on a machine");
    RealTime hi = p.start + inst.job(static_cast<JobId>(j)).length;
    hi -= eps;
    if (hi <= p.start) continue;
    runs[live++] = {p.start, hi, p.machine, 1};
  }
  const std::span<MachineRun> sorted = arena.alloc<MachineRun>(live);
  const std::span<std::size_t> first = arena.alloc<std::size_t>(
      static_cast<std::size_t>(sched.machine_count()) + 1);
  sort_machine_major(runs.first(live), sorted, first);
  return {sorted, first};
}

}  // namespace

int BusySchedule::machine_count() const {
  int count = 0;
  for (const Placement& p : placements) count = std::max(count, p.machine + 1);
  return count;
}

void sort_machine_major(std::span<const MachineRun> runs,
                        std::span<MachineRun> out,
                        std::span<std::size_t> first) {
  ABT_ASSERT(!first.empty() && out.size() >= runs.size(),
             "sort_machine_major needs an end sentinel and room for every run");
  const std::size_t machines = first.size() - 1;
  std::fill(first.begin(), first.end(), std::size_t{0});
  for (const MachineRun& run : runs) {
    ++first[static_cast<std::size_t>(run.machine)];
  }
  std::size_t sum = 0;
  for (std::size_t m = 0; m <= machines; ++m) {
    const std::size_t count = first[m];
    first[m] = sum;
    sum += count;
  }
  // Scattering bumps first[m] to the end of machine m's runs, which is
  // where machine m + 1's begin; shift them back into place.
  for (const MachineRun& run : runs) {
    out[first[static_cast<std::size_t>(run.machine)]++] = run;
  }
  for (std::size_t m = machines; m > 0; --m) first[m] = first[m - 1];
  first[0] = 0;
  const auto by_lo = [](const MachineRun& a, const MachineRun& b) {
    return a.lo < b.lo;
  };
  for (std::size_t m = 0; m < machines; ++m) {
    std::sort(out.begin() + static_cast<std::ptrdiff_t>(first[m]),
              out.begin() + static_cast<std::ptrdiff_t>(first[m + 1]), by_lo);
  }
}

RealTime busy_cost(const ContinuousInstance& inst, const BusySchedule& sched) {
  // interval_union's rule per machine, on the machine-major order: a run
  // within 1e-12 of the current piece extends it, and each machine's
  // pieces are summed from 0 before the machine is added to the total, in
  // machine order, so the double equals the per-machine span_of sum. Runs
  // with equal lo merge into the same piece whatever their order, and
  // empty runs are dropped on both sides.
  constexpr RealTime kMergeEps = 1e-12;
  MonotonicArena& arena = thread_arena();
  const ArenaScope scope(arena);
  const auto [sorted, first] = machine_major_runs(inst, sched, 0.0, arena);
  RealTime total = 0.0;
  for (std::size_t m = 0; m + 1 < first.size(); ++m) {
    RealTime machine_total = 0.0;
    if (first[m] < first[m + 1]) {
      RealTime lo = sorted[first[m]].lo;
      RealTime hi = sorted[first[m]].hi;
      for (std::size_t k = first[m] + 1; k < first[m + 1]; ++k) {
        if (sorted[k].lo <= hi + kMergeEps) {
          hi = std::max(hi, sorted[k].hi);
        } else {
          machine_total += hi - lo;
          lo = sorted[k].lo;
          hi = sorted[k].hi;
        }
      }
      machine_total += hi - lo;
    }
    total += machine_total;
  }
  return total;
}

RealTime machine_busy_time(const ContinuousInstance& inst,
                           const BusySchedule& sched, int machine) {
  std::vector<Interval> ivs;
  for (JobId j = 0; j < inst.size(); ++j) {
    const Placement& p = sched.placements[static_cast<std::size_t>(j)];
    if (p.machine == machine) {
      ivs.push_back({p.start, p.start + inst.job(j).length});
    }
  }
  return span_of(ivs);
}

bool check_busy_schedule(const ContinuousInstance& inst,
                         const BusySchedule& sched, std::string* why,
                         RealTime eps) {
  if (static_cast<int>(sched.placements.size()) != inst.size()) {
    return fail(why, "placement count mismatch");
  }
  for (JobId j = 0; j < inst.size(); ++j) {
    const ContinuousJob& job = inst.job(j);
    const Placement& p = sched.placements[static_cast<std::size_t>(j)];
    if (p.machine < 0) {
      return fail(why, "job " + std::to_string(j) + " unassigned");
    }
    if (p.start < job.release - eps || p.start > job.latest_start() + eps) {
      return fail(why, "job " + std::to_string(j) + " start " +
                           std::to_string(p.start) + " outside [" +
                           std::to_string(job.release) + ", " +
                           std::to_string(job.latest_start()) + "]");
    }
  }
  // Capacity on the machine-major order of the runs, each shrunk by eps
  // at its right end so that chains of jobs with floating-point-adjacent
  // endpoints do not report spurious overlap (runs left empty are
  // dropped). Per machine, a min-heap holds the ends of the running runs;
  // a run first retires every end at or before its start (half-open runs
  // close before others open), so the heap's largest size is the
  // machine's peak, max_concurrency of its shrunk runs.
  MonotonicArena& arena = thread_arena();
  const ArenaScope scope(arena);
  const auto [sorted, first] = machine_major_runs(inst, sched, eps, arena);
  const std::span<RealTime> ends = arena.alloc<RealTime>(sorted.size());
  const std::greater<> later_first;  // makes the heap a min-heap
  for (std::size_t m = 0; m + 1 < first.size(); ++m) {
    RealTime* heap = ends.data();
    std::size_t running = 0;
    std::size_t peak = 0;
    for (std::size_t k = first[m]; k < first[m + 1]; ++k) {
      while (running > 0 && heap[0] <= sorted[k].lo) {
        std::pop_heap(heap, heap + running--, later_first);
      }
      heap[running++] = sorted[k].hi;
      std::push_heap(heap, heap + running, later_first);
      peak = std::max(peak, running);
    }
    if (peak > static_cast<std::size_t>(inst.capacity())) {
      return fail(why, "machine " + std::to_string(m) + " runs " +
                           std::to_string(peak) + " jobs > g=" +
                           std::to_string(inst.capacity()));
    }
  }
  return true;
}

int PreemptiveBusySchedule::machine_count() const {
  int count = 0;
  for (const Piece& piece : pieces.all) {
    count = std::max(count, piece.machine + 1);
  }
  return count;
}

RealTime busy_cost(const ContinuousInstance& /*inst*/,
                   const PreemptiveBusySchedule& sched) {
  // Group pieces per machine, then sum spans.
  std::vector<std::vector<Interval>> per_machine(
      static_cast<std::size_t>(sched.machine_count()));
  for (const auto& piece : sched.pieces.all) {
    per_machine[static_cast<std::size_t>(piece.machine)].push_back(piece.run);
  }
  RealTime total = 0.0;
  for (const auto& ivs : per_machine) total += span_of(ivs);
  return total;
}

bool check_preemptive_schedule(const ContinuousInstance& inst,
                               const PreemptiveBusySchedule& sched,
                               std::string* why, RealTime eps) {
  if (static_cast<int>(sched.pieces.size()) != inst.size()) {
    return fail(why, "pieces count mismatch");
  }
  // The job ranges tile the piece array: offsets ascend from 0 to its size
  // (with no jobs there are no offsets, and must be no pieces).
  const std::vector<std::size_t>& first = sched.pieces.first;
  if (first.empty() ? !sched.pieces.all.empty()
                    : first.front() != 0 ||
                          first.back() != sched.pieces.all.size() ||
                          !std::is_sorted(first.begin(), first.end())) {
    return fail(why, "piece offsets out of order");
  }
  int machines = 0;
  std::vector<Interval> runs;  // one job's runs, when they need a sort
  for (JobId j = 0; j < inst.size(); ++j) {
    const ContinuousJob& job = inst.job(j);
    const std::span<const PreemptiveBusySchedule::Piece> pieces =
        sched.pieces_of(j);
    RealTime total = 0.0;
    // Runs strictly ascending by lo are already in the order the sort
    // below would give them, so they are checked in place.
    bool ascending = true;
    bool overlap = false;
    for (std::size_t k = 0; k < pieces.size(); ++k) {
      const Interval& run = pieces[k].run;
      if (pieces[k].machine < 0) return fail(why, "piece with no machine");
      machines = std::max(machines, pieces[k].machine + 1);
      if (run.empty()) return fail(why, "empty piece");
      if (run.lo < job.release - eps || run.hi > job.deadline + eps) {
        return fail(why, "job " + std::to_string(j) + " piece outside window");
      }
      total += run.length();
      if (k > 0) {
        ascending = ascending && pieces[k - 1].run.lo < run.lo;
        overlap = overlap || run.lo < pieces[k - 1].run.hi - eps;
      }
    }
    if (std::abs(total - job.length) > eps) {
      return fail(why, "job " + std::to_string(j) + " scheduled " +
                           std::to_string(total) + " units, needs " +
                           std::to_string(job.length));
    }
    // Pieces of one job must not overlap (at most one machine at a time).
    if (!ascending) {
      runs.clear();
      for (const auto& piece : pieces) runs.push_back(piece.run);
      std::sort(runs.begin(), runs.end(),
                [](const Interval& a, const Interval& b) { return a.lo < b.lo; });
      overlap = false;
      for (std::size_t i = 1; i < runs.size(); ++i) {
        overlap = overlap || runs[i].lo < runs[i - 1].hi - eps;
      }
    }
    if (overlap) {
      return fail(why, "job " + std::to_string(j) + " overlapping pieces");
    }
  }

  // Capacity per machine, as one flat sweep: every run shrunk by eps at its
  // right end (runs left empty are dropped), its lo ends and its hi ends
  // each radix-sorted by time, then walked together in time order, a run
  // closing before one opens at the same time (half-open runs). Restricted
  // to one machine, that walk is the machine's own sweep, so each
  // machine's peak is the concurrency an event sort per machine would find.
  struct End {
    std::uint64_t key;
    std::size_t machine;
  };
  MonotonicArena& arena = thread_arena();
  const ArenaScope scope(arena);
  const std::span<End> los = arena.alloc<End>(sched.pieces.all.size());
  const std::span<End> his = arena.alloc<End>(sched.pieces.all.size());
  std::size_t live = 0;
  for (const auto& piece : sched.pieces.all) {
    const Interval shrunk{piece.run.lo, piece.run.hi - eps};
    if (shrunk.empty()) continue;
    const auto m = static_cast<std::size_t>(piece.machine);
    los[live] = {radix_key(shrunk.lo), m};
    his[live] = {radix_key(shrunk.hi), m};
    ++live;
  }
  const std::span<End> scratch = arena.alloc<End>(live);
  const auto by_key = [](const End& end) { return end.key; };
  radix_sort(los.first(live), scratch, by_key);
  radix_sort(his.first(live), scratch, by_key);
  const auto m_count = static_cast<std::size_t>(machines);
  const std::span<int> cur = arena.alloc<int>(m_count);
  const std::span<int> peak = arena.alloc<int>(m_count);
  std::fill(cur.begin(), cur.end(), 0);
  std::fill(peak.begin(), peak.end(), 0);
  // Every run ends after it starts, so h stays below l.
  for (std::size_t l = 0, h = 0; l < live;) {
    if (his[h].key <= los[l].key) {
      --cur[his[h++].machine];
    } else {
      const std::size_t m = los[l++].machine;
      peak[m] = std::max(peak[m], ++cur[m]);
    }
  }
  for (std::size_t m = 0; m < m_count; ++m) {
    if (peak[m] > inst.capacity()) {
      return fail(why, "machine " + std::to_string(m) + " concurrency " +
                           std::to_string(peak[m]) + " > g");
    }
  }
  return true;
}

}  // namespace abt::core
