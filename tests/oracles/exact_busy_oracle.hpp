#pragma once

// The unit-width partition search that busy/exact ran before it moved onto
// the one width-aware search in busy/weighted.cpp (solve_exact_busy), kept
// verbatim as the reference for the equivalence suite in
// tests/test_exact_busy.cpp. Test-side only, never linked into the library.
// Do not optimize this header; its value is staying frozen.

#include <algorithm>
#include <limits>
#include <numeric>
#include <vector>

#include "core/assert.hpp"
#include "core/busy_schedule.hpp"
#include "core/continuous_instance.hpp"
#include "core/interval.hpp"
#include "core/run_context.hpp"

namespace abt::busy::oracle {

using core::ContinuousInstance;
using core::Interval;
using core::JobId;

struct ExactResult {
  core::BusySchedule schedule;
  bool proven_optimal = true;  ///< False when the context stopped the search.
  long nodes = 0;              ///< Search nodes expanded.
};

class PartitionSearch {
 public:
  PartitionSearch(const ContinuousInstance& inst,
                  const core::RunContext* context)
      : inst_(inst), context_(context) {
    runs_ = inst.forced_intervals();
    // Assign longer jobs first: better pruning.
    order_.resize(static_cast<std::size_t>(inst.size()));
    std::iota(order_.begin(), order_.end(), JobId{0});
    std::sort(order_.begin(), order_.end(), [&](JobId a, JobId b) {
      return inst_.job(a).length > inst_.job(b).length;
    });
    assignment_.assign(static_cast<std::size_t>(inst.size()), -1);
    best_assignment_ = assignment_;
  }

  ExactResult run() {
    dfs(0, 0, 0.0);
    ExactResult result;
    result.proven_optimal = !stopped_;
    result.nodes = nodes_;
    result.schedule.placements.assign(static_cast<std::size_t>(inst_.size()),
                                      {});
    for (JobId j = 0; j < inst_.size(); ++j) {
      result.schedule.placements[static_cast<std::size_t>(j)] = {
          best_assignment_[static_cast<std::size_t>(j)],
          inst_.job(j).release};
    }
    return result;
  }

 private:
  /// Busy time of bundle `b` under the current partial assignment.
  double bundle_span(int b) const {
    std::vector<Interval> ivs;
    for (JobId j = 0; j < inst_.size(); ++j) {
      if (assignment_[static_cast<std::size_t>(j)] == b) {
        ivs.push_back(runs_[static_cast<std::size_t>(j)]);
      }
    }
    return core::span_of(ivs);
  }

  bool fits(int b, JobId candidate) const {
    // Max concurrency check at candidate's start and at starts of bundle
    // members inside the candidate.
    const Interval& run = runs_[static_cast<std::size_t>(candidate)];
    std::vector<Interval> members;
    for (JobId j = 0; j < inst_.size(); ++j) {
      if (assignment_[static_cast<std::size_t>(j)] == b) {
        members.push_back(runs_[static_cast<std::size_t>(j)]);
      }
    }
    std::vector<double> probes = {run.lo};
    for (const Interval& iv : members) {
      if (iv.lo > run.lo && iv.lo < run.hi) probes.push_back(iv.lo);
    }
    for (double p : probes) {
      int overlap = 1;
      for (const Interval& iv : members) {
        if (iv.lo <= p && p < iv.hi) ++overlap;
      }
      if (overlap > inst_.capacity()) return false;
    }
    return true;
  }

  void dfs(std::size_t index, int bundles_used, double cost_so_far) {
    if (stopped_) return;
    // Poll the context on a node counter, but only once an incumbent
    // exists: the first depth-first descent always completes (n fresh
    // bundles worst case), so even an instantly-expired budget yields a
    // feasible schedule.
    if ((++nodes_ & 1023) == 0 && context_ != nullptr &&
        best_cost_ < std::numeric_limits<double>::infinity() &&
        context_->should_stop()) {
      stopped_ = true;
      return;
    }
    if (cost_so_far >= best_cost_ - 1e-12) return;
    if (index == order_.size()) {
      best_cost_ = cost_so_far;
      best_assignment_ = assignment_;
      if (context_ != nullptr) {
        // The render is lazy — only a context with a schedule ring
        // attached pays for the partition string.
        context_->report_incumbent(best_cost_, [&] {
          return core::render_partition("bundle", best_assignment_);
        });
      }
      return;
    }
    const JobId j = order_[index];
    // Existing bundles plus one fresh bundle (symmetry-broken).
    for (int b = 0; b <= bundles_used; ++b) {
      if (!fits(b, j)) continue;
      const double before = bundle_span(b);
      assignment_[static_cast<std::size_t>(j)] = b;
      const double after = bundle_span(b);
      dfs(index + 1, std::max(bundles_used, b + 1),
          cost_so_far - before + after);
      assignment_[static_cast<std::size_t>(j)] = -1;
    }
  }

  const ContinuousInstance& inst_;
  const core::RunContext* context_;
  std::vector<Interval> runs_;
  std::vector<JobId> order_;
  std::vector<int> assignment_;
  std::vector<int> best_assignment_;
  double best_cost_ = std::numeric_limits<double>::infinity();
  long nodes_ = 0;
  bool stopped_ = false;
};

/// The frozen entry point (the old gate is left to the caller).
inline ExactResult exact_interval_search(
    const ContinuousInstance& inst,
    const core::RunContext* context = nullptr) {
  ABT_ASSERT(inst.all_interval_jobs(1e-6),
             "exact busy solver expects interval jobs");
  PartitionSearch search(inst, context);
  return search.run();
}

}  // namespace abt::busy::oracle
