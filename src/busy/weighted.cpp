#include "busy/weighted.hpp"

#include <algorithm>
#include <limits>
#include <numeric>
#include <span>

#include "busy/dp_unbounded.hpp"
#include "busy/first_fit.hpp"
#include "core/assert.hpp"
#include "core/busy_schedule.hpp"
#include "core/scratch.hpp"

namespace abt::busy {

using core::BusySchedule;
using core::ContinuousJob;
using core::Interval;
using core::JobId;

namespace {

/// One run committed to a machine, with the width it draws.
struct WeightedRun {
  Interval run;
  int width;
};

/// Peak cumulative width on one machine by a quadratic rescan of its runs.
/// Only the exact search uses it: the checker has its own sweep, so it
/// shares code neither with the search nor with the index-backed
/// heuristics it validates.
int peak_width(const std::vector<WeightedRun>& runs) {
  int best = 0;
  for (const WeightedRun& probe : runs) {
    int at = 0;
    for (const WeightedRun& other : runs) {
      if (other.run.lo <= probe.run.lo && probe.run.lo < other.run.hi) {
        at += other.width;
      }
    }
    best = std::max(best, at);
  }
  return best;
}

/// Width-aware first fit over the given job order on the shared driver;
/// `cap` is the machine budget (g for the full model; the wide lane packs
/// with cap 1 and every width replaced by 1). Returns the machines used,
/// placed from index `machine_base` on.
int first_fit_into(const WeightedInstance& inst,
                   const std::vector<JobId>& order, int cap, bool unit_widths,
                   int machine_base, BusySchedule& sched) {
  std::vector<detail::FitJob> jobs;
  jobs.reserve(order.size());
  for (JobId j : order) {
    const WeightedJob& wj = inst.job(j);
    jobs.push_back({j,
                    {wj.job.release, wj.job.release + wj.job.length},
                    unit_widths ? 1 : wj.width});
  }
  return detail::first_fit_runs(jobs, cap, machine_base, sched);
}

std::vector<JobId> by_length_desc(const WeightedInstance& inst,
                                  const std::vector<JobId>& ids) {
  std::vector<JobId> order = ids;
  std::stable_sort(order.begin(), order.end(), [&](JobId a, JobId b) {
    return inst.job(a).job.length > inst.job(b).job.length;
  });
  return order;
}

}  // namespace

bool check_weighted_schedule(const WeightedInstance& inst,
                             const BusySchedule& sched, std::string* why,
                             double eps) {
  auto fail = [&](std::string reason) {
    if (why != nullptr) *why = std::move(reason);
    return false;
  };
  if (static_cast<int>(sched.placements.size()) != inst.size()) {
    return fail("placement count mismatch");
  }
  for (JobId j = 0; j < inst.size(); ++j) {
    const auto& p = sched.placements[static_cast<std::size_t>(j)];
    const ContinuousJob& job = inst.job(j).job;
    if (p.machine < 0) return fail("job " + std::to_string(j) + " unassigned");
    if (p.start < job.release - eps || p.start > job.latest_start() + eps) {
      return fail("job " + std::to_string(j) + " start outside window");
    }
  }
  // The runs in machine-major order (core::sort_machine_major), then one
  // sweep per machine with a min-heap of the running runs' ends. A run is
  // [start, start + p_j - eps). At each distinct start t the runs ending
  // at or before t close first, then every run starting at t opens, so
  // the width held after them is the width running at t on that machine,
  // and a machine's peak width is attained at some run's start. An empty
  // run (p_j <= eps) adds no width, only that probe.
  struct End {
    double t;
    int width;
  };
  core::MonotonicArena& arena = core::thread_arena();
  const core::ArenaScope scope(arena);
  const auto n = static_cast<std::size_t>(inst.size());
  const std::span<core::MachineRun> runs = arena.alloc<core::MachineRun>(n);
  for (std::size_t j = 0; j < n; ++j) {
    const auto& p = sched.placements[j];
    const WeightedJob& wj = inst.job(static_cast<JobId>(j));
    const double hi = p.start + wj.job.length - eps;
    runs[j] = {p.start, hi, p.machine, hi <= p.start ? 0 : wj.width};
  }
  const std::span<core::MachineRun> sorted =
      arena.alloc<core::MachineRun>(n);
  const std::span<std::size_t> first = arena.alloc<std::size_t>(
      static_cast<std::size_t>(sched.machine_count()) + 1);
  core::sort_machine_major(runs, sorted, first);
  const std::span<End> ends = arena.alloc<End>(n);
  const auto later_first = [](const End& a, const End& b) { return a.t > b.t; };
  for (std::size_t m = 0; m + 1 < first.size(); ++m) {
    End* heap = ends.data();
    std::size_t running = 0;
    int width = 0;
    for (std::size_t k = first[m]; k < first[m + 1]; ++k) {
      const core::MachineRun& run = sorted[k];
      while (running > 0 && heap[0].t <= run.lo) {
        width -= heap[0].width;
        std::pop_heap(heap, heap + running--, later_first);
      }
      if (run.width > 0) {
        width += run.width;
        heap[running++] = {run.hi, run.width};
        std::push_heap(heap, heap + running, later_first);
      }
      const bool batch_end =
          k + 1 == first[m + 1] || sorted[k + 1].lo != run.lo;
      if (batch_end && width > inst.capacity()) {
        return fail("machine " + std::to_string(m) +
                    " exceeds width capacity");
      }
    }
  }
  return true;
}

BusySchedule weighted_first_fit(const WeightedInstance& inst) {
  ABT_ASSERT(inst.all_interval_jobs(1e-6),
             "weighted FIRSTFIT expects interval jobs");
  BusySchedule sched;
  sched.placements.assign(static_cast<std::size_t>(inst.size()), {});
  std::vector<JobId> all(static_cast<std::size_t>(inst.size()));
  std::iota(all.begin(), all.end(), JobId{0});
  first_fit_into(inst, by_length_desc(inst, all), inst.capacity(),
                 /*unit_widths=*/false, /*machine_base=*/0, sched);
  return sched;
}

BusySchedule narrow_wide_split(const WeightedInstance& inst) {
  ABT_ASSERT(inst.all_interval_jobs(1e-6),
             "narrow/wide split expects interval jobs");
  BusySchedule sched;
  sched.placements.assign(static_cast<std::size_t>(inst.size()), {});

  std::vector<JobId> narrow;
  std::vector<JobId> wide;
  for (JobId j = 0; j < inst.size(); ++j) {
    (2 * inst.job(j).width > inst.capacity() ? wide : narrow).push_back(j);
  }
  // Wide jobs: at most one can share capacity with another wide job, so
  // pack them as a unit-capacity FIRSTFIT (disjoint wide jobs share a
  // machine).
  const int wide_machines =
      first_fit_into(inst, by_length_desc(inst, wide), /*cap=*/1,
                     /*unit_widths=*/true, /*machine_base=*/0, sched);
  // Narrow jobs: width-aware FIRSTFIT on fresh machines.
  first_fit_into(inst, by_length_desc(inst, narrow), inst.capacity(),
                 /*unit_widths=*/false, /*machine_base=*/wide_machines, sched);
  return sched;
}

namespace {

class PartitionSearch {
 public:
  PartitionSearch(const WeightedInstance& inst, const core::RunContext* context)
      : inst_(inst),
        context_(context),
        order_(static_cast<std::size_t>(inst.size())),
        assignment_(static_cast<std::size_t>(inst.size()), -1),
        best_assignment_(assignment_),
        machines_(static_cast<std::size_t>(inst.size())),
        spans_(static_cast<std::size_t>(inst.size()), 0.0) {
    // Assign longer jobs first: better pruning.
    std::iota(order_.begin(), order_.end(), JobId{0});
    std::stable_sort(order_.begin(), order_.end(), [&](JobId a, JobId b) {
      return inst_.job(a).job.length > inst_.job(b).job.length;
    });
  }

  ExactBusyResult run() {
    dfs(0, 0, 0.0);
    ExactBusyResult result;
    result.proven_optimal = !stopped_;
    result.nodes = nodes_;
    result.schedule.placements.assign(static_cast<std::size_t>(inst_.size()),
                                      {});
    for (JobId j = 0; j < inst_.size(); ++j) {
      result.schedule.placements[static_cast<std::size_t>(j)] = {
          best_assignment_[static_cast<std::size_t>(j)],
          inst_.job(j).job.release};
    }
    return result;
  }

 private:
  void dfs(std::size_t index, int used, double cost) {
    if (stopped_) return;
    // Poll the context on a node counter, but only once an incumbent
    // exists: the first depth-first descent always completes, so even an
    // instantly-expired budget yields a feasible schedule.
    if ((++nodes_ & 1023) == 0 && context_ != nullptr &&
        best_cost_ < std::numeric_limits<double>::infinity() &&
        context_->should_stop()) {
      stopped_ = true;
      return;
    }
    if (cost >= best_cost_ - 1e-12) return;
    if (index == order_.size()) {
      best_cost_ = cost;
      best_assignment_ = assignment_;
      if (context_ != nullptr) {
        // The render is lazy: only a context with an incumbent hook attached
        // (service `progress` frames) pays for the partition string.
        context_->report_incumbent(best_cost_, [&] {
          return core::render_partition("machine", best_assignment_);
        });
      }
      return;
    }
    const JobId j = order_[index];
    const core::ContinuousJob& job = inst_.job(j).job;
    // Existing machines plus one fresh machine (symmetry-broken).
    for (int m = 0; m <= used; ++m) {
      std::vector<WeightedRun>& runs = machines_[static_cast<std::size_t>(m)];
      runs.push_back({{job.release, job.release + job.length},
                      inst_.job(j).width});
      if (peak_width(runs) <= inst_.capacity()) {
        double& span = spans_[static_cast<std::size_t>(m)];
        const double before = span;
        span = span_of(runs);
        assignment_[static_cast<std::size_t>(j)] = m;
        dfs(index + 1, std::max(used, m + 1), cost - before + span);
        assignment_[static_cast<std::size_t>(j)] = -1;
        span = before;
      }
      runs.pop_back();
    }
  }

  /// Busy time of one machine: the measure of the union of its runs.
  static double span_of(const std::vector<WeightedRun>& runs) {
    std::vector<Interval> ivs;
    ivs.reserve(runs.size());
    for (const WeightedRun& r : runs) ivs.push_back(r.run);
    return core::span_of(ivs);
  }

  const WeightedInstance& inst_;
  const core::RunContext* context_;
  std::vector<JobId> order_;
  std::vector<int> assignment_;
  std::vector<int> best_assignment_;
  /// Per machine: the runs assigned on the current path and their span.
  std::vector<std::vector<WeightedRun>> machines_;
  std::vector<double> spans_;
  double best_cost_ = std::numeric_limits<double>::infinity();
  long nodes_ = 0;
  bool stopped_ = false;
};

}  // namespace

ExactBusyResult solve_exact_busy(const WeightedInstance& inst,
                                 ExactBusyOptions options) {
  ABT_ASSERT(inst.all_interval_jobs(1e-6), "exact expects interval jobs");
  return PartitionSearch(inst, options.context).run();
}

BusySchedule schedule_weighted_flexible(const WeightedInstance& inst) {
  return schedule_weighted_flexible(inst, solve_unbounded(inst.unweighted()));
}

BusySchedule schedule_weighted_flexible(const WeightedInstance& inst,
                                        const UnboundedSolution& dp) {
  std::vector<WeightedJob> frozen;
  frozen.reserve(static_cast<std::size_t>(inst.size()));
  for (JobId j = 0; j < inst.size(); ++j) {
    const double s = dp.starts[static_cast<std::size_t>(j)];
    frozen.push_back(
        {{s, s + inst.job(j).job.length, inst.job(j).job.length},
         inst.job(j).width});
  }
  const WeightedInstance frozen_inst(std::move(frozen), inst.capacity());
  BusySchedule sched = narrow_wide_split(frozen_inst);
  // Report starts of the original (flexible) jobs.
  for (JobId j = 0; j < inst.size(); ++j) {
    sched.placements[static_cast<std::size_t>(j)].start =
        dp.starts[static_cast<std::size_t>(j)];
  }
  return sched;
}

}  // namespace abt::busy
