#include "busy/weighted.hpp"

#include <algorithm>
#include <functional>
#include <limits>
#include <numeric>

#include "busy/dp_unbounded.hpp"
#include "busy/first_fit.hpp"
#include "core/assert.hpp"

namespace abt::busy {

using core::BusySchedule;
using core::ContinuousJob;
using core::Interval;
using core::JobId;

WeightedInstance::WeightedInstance(std::vector<WeightedJob> jobs, int capacity)
    : jobs_(std::move(jobs)), capacity_(capacity) {
  ABT_ASSERT(capacity_ >= 1, "capacity must be positive");
}

double WeightedInstance::mass_lower_bound() const {
  double total = 0.0;
  for (const WeightedJob& wj : jobs_) total += wj.width * wj.job.length;
  return total / capacity_;
}

double WeightedInstance::span_lower_bound() const {
  std::vector<Interval> runs;
  runs.reserve(jobs_.size());
  for (const WeightedJob& wj : jobs_) {
    runs.push_back({wj.job.release, wj.job.release + wj.job.length});
  }
  return core::span_of(runs);
}

bool WeightedInstance::all_interval_jobs(double eps) const {
  for (const WeightedJob& wj : jobs_) {
    if (!wj.job.is_interval_job(eps)) return false;
  }
  return true;
}

bool WeightedInstance::structurally_valid(std::string* why) const {
  for (std::size_t i = 0; i < jobs_.size(); ++i) {
    const WeightedJob& wj = jobs_[i];
    auto fail = [&](const char* reason) {
      if (why != nullptr) *why = "job " + std::to_string(i) + ": " + reason;
      return false;
    };
    if (!wj.job.window_fits()) return fail("window shorter than length");
    if (wj.width < 1) return fail("width must be >= 1");
    if (wj.width > capacity_) return fail("width exceeds capacity g");
  }
  return true;
}

core::ContinuousInstance WeightedInstance::unweighted() const {
  std::vector<ContinuousJob> jobs;
  jobs.reserve(jobs_.size());
  for (const WeightedJob& wj : jobs_) jobs.push_back(wj.job);
  return core::ContinuousInstance(std::move(jobs), capacity_);
}

namespace {

/// One run committed to a machine, with the width it draws.
struct WeightedRun {
  Interval run;
  int width;
};

/// Peak cumulative width on one machine by a quadratic rescan of its runs.
/// Only the independent checker and the exact search use it, so neither
/// shares code with the index-backed heuristics the checker validates.
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
  int machines = 0;
  for (JobId j = 0; j < inst.size(); ++j) {
    const auto& p = sched.placements[static_cast<std::size_t>(j)];
    const ContinuousJob& job = inst.job(j).job;
    if (p.machine < 0) return fail("job " + std::to_string(j) + " unassigned");
    machines = std::max(machines, p.machine + 1);
    if (p.start < job.release - eps || p.start > job.latest_start() + eps) {
      return fail("job " + std::to_string(j) + " start outside window");
    }
  }
  for (int m = 0; m < machines; ++m) {
    std::vector<WeightedRun> runs;
    for (JobId j = 0; j < inst.size(); ++j) {
      const auto& p = sched.placements[static_cast<std::size_t>(j)];
      if (p.machine != m) continue;
      runs.push_back({{p.start, p.start + inst.job(j).job.length - eps},
                      inst.job(j).width});
    }
    if (peak_width(runs) > inst.capacity()) {
      return fail("machine " + std::to_string(m) + " exceeds width capacity");
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

std::optional<WeightedExactResult> solve_exact_weighted_anytime(
    const WeightedInstance& inst, WeightedExactOptions options) {
  if (inst.size() > options.max_jobs) return std::nullopt;
  ABT_ASSERT(inst.all_interval_jobs(1e-6), "exact expects interval jobs");

  std::vector<JobId> order(static_cast<std::size_t>(inst.size()));
  std::iota(order.begin(), order.end(), JobId{0});
  std::stable_sort(order.begin(), order.end(), [&](JobId a, JobId b) {
    return inst.job(a).job.length > inst.job(b).job.length;
  });

  std::vector<int> assignment(static_cast<std::size_t>(inst.size()), -1);
  std::vector<int> best_assignment = assignment;
  double best_cost = std::numeric_limits<double>::infinity();
  const core::RunContext* context = options.context;
  long nodes = 0;
  bool stopped = false;

  auto machine_runs = [&](int m) {
    std::vector<WeightedRun> runs;
    for (JobId j = 0; j < inst.size(); ++j) {
      if (assignment[static_cast<std::size_t>(j)] == m) {
        runs.push_back({{inst.job(j).job.release,
                         inst.job(j).job.release + inst.job(j).job.length},
                        inst.job(j).width});
      }
    }
    return runs;
  };
  auto machine_span = [&](int m) {
    std::vector<Interval> ivs;
    for (const WeightedRun& r : machine_runs(m)) ivs.push_back(r.run);
    return core::span_of(ivs);
  };

  std::function<void(std::size_t, int, double)> dfs = [&](std::size_t index,
                                                          int used,
                                                          double cost) {
    if (stopped) return;
    // Context poll on a node counter, only once an incumbent exists — the
    // first depth-first descent always completes, so even an
    // instantly-expired budget yields a feasible schedule.
    if ((++nodes & 1023) == 0 && context != nullptr &&
        best_cost < std::numeric_limits<double>::infinity() &&
        context->should_stop()) {
      stopped = true;
      return;
    }
    if (cost >= best_cost - 1e-12) return;
    if (index == order.size()) {
      best_cost = cost;
      best_assignment = assignment;
      if (context != nullptr) {
        // Snapshot render is lazy: the partition string is only built when
        // a schedule ring is attached (service `progress` events).
        context->report_incumbent(best_cost, [&] {
          return core::render_partition("machine", best_assignment);
        });
      }
      return;
    }
    const JobId j = order[index];
    for (int m = 0; m <= used; ++m) {
      std::vector<WeightedRun> trial = machine_runs(m);
      trial.push_back({{inst.job(j).job.release,
                        inst.job(j).job.release + inst.job(j).job.length},
                       inst.job(j).width});
      if (peak_width(trial) > inst.capacity()) continue;
      const double before = machine_span(m);
      assignment[static_cast<std::size_t>(j)] = m;
      const double after = machine_span(m);
      dfs(index + 1, std::max(used, m + 1), cost - before + after);
      assignment[static_cast<std::size_t>(j)] = -1;
    }
  };
  dfs(0, 0, 0.0);

  WeightedExactResult result;
  result.proven_optimal = !stopped;
  result.nodes = nodes;
  result.schedule.placements.assign(static_cast<std::size_t>(inst.size()), {});
  for (JobId j = 0; j < inst.size(); ++j) {
    result.schedule.placements[static_cast<std::size_t>(j)] = {
        best_assignment[static_cast<std::size_t>(j)], inst.job(j).job.release};
  }
  return result;
}

std::optional<BusySchedule> solve_exact_weighted(const WeightedInstance& inst,
                                                 WeightedExactOptions options) {
  auto result = solve_exact_weighted_anytime(inst, options);
  if (!result.has_value()) return std::nullopt;
  return std::move(result->schedule);
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
