#include "core/busy_schedule.hpp"

#include <algorithm>
#include <cmath>

#include "core/scratch.hpp"
#include "core/sweep.hpp"

namespace abt::core {

namespace {

bool fail(std::string* why, std::string reason) {
  if (why != nullptr) *why = std::move(reason);
  return false;
}

}  // namespace

int BusySchedule::machine_count() const {
  int count = 0;
  for (const Placement& p : placements) count = std::max(count, p.machine + 1);
  return count;
}

std::vector<std::vector<Interval>> machine_intervals(
    const ContinuousInstance& inst, const BusySchedule& sched) {
  std::vector<std::vector<Interval>> per_machine(
      static_cast<std::size_t>(sched.machine_count()));
  for (JobId j = 0; j < inst.size(); ++j) {
    const Placement& p = sched.placements[static_cast<std::size_t>(j)];
    per_machine[static_cast<std::size_t>(p.machine)].push_back(
        {p.start, p.start + inst.job(j).length});
  }
  return per_machine;
}

RealTime busy_cost(const ContinuousInstance& inst, const BusySchedule& sched) {
  RealTime total = 0.0;
  for (const auto& ivs : machine_intervals(inst, sched)) {
    total += span_of(ivs);
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
  const auto per_machine = machine_intervals(inst, sched);
  for (std::size_t m = 0; m < per_machine.size(); ++m) {
    // Shrink each interval by eps at the right end so that chains of jobs
    // with floating-point-adjacent endpoints do not report spurious overlap.
    std::vector<Interval> shrunk = per_machine[m];
    for (Interval& iv : shrunk) iv.hi -= eps;
    const int conc = max_concurrency(shrunk);
    if (conc > inst.capacity()) {
      return fail(why, "machine " + std::to_string(m) + " runs " +
                           std::to_string(conc) + " jobs > g=" +
                           std::to_string(inst.capacity()));
    }
  }
  return true;
}

RealTime busy_cost(const ContinuousInstance& inst,
                   const PreemptiveBusySchedule& sched) {
  // Group pieces per machine, then sum spans.
  int machines = 0;
  for (const auto& pieces : sched.pieces) {
    for (const auto& piece : pieces) {
      machines = std::max(machines, piece.machine + 1);
    }
  }
  std::vector<std::vector<Interval>> per_machine(
      static_cast<std::size_t>(machines));
  for (JobId j = 0; j < inst.size(); ++j) {
    for (const auto& piece : sched.pieces[static_cast<std::size_t>(j)]) {
      per_machine[static_cast<std::size_t>(piece.machine)].push_back(piece.run);
    }
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
  int machines = 0;
  std::size_t num_pieces = 0;
  std::vector<Interval> runs;  // one job's runs, when they need a sort
  for (JobId j = 0; j < inst.size(); ++j) {
    const ContinuousJob& job = inst.job(j);
    const auto& pieces = sched.pieces[static_cast<std::size_t>(j)];
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
    num_pieces += pieces.size();
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
  const std::span<End> los = arena.alloc<End>(num_pieces);
  const std::span<End> his = arena.alloc<End>(num_pieces);
  std::size_t live = 0;
  for (const auto& pieces : sched.pieces) {
    for (const auto& piece : pieces) {
      const Interval shrunk{piece.run.lo, piece.run.hi - eps};
      if (shrunk.empty()) continue;
      const auto m = static_cast<std::size_t>(piece.machine);
      los[live] = {radix_key(shrunk.lo), m};
      his[live] = {radix_key(shrunk.hi), m};
      ++live;
    }
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
