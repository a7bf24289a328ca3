#include "gen/random_instances.hpp"

#include <algorithm>
#include <functional>

#include "active/feasibility.hpp"
#include "core/assert.hpp"

namespace abt::gen {

using core::ContinuousInstance;
using core::ContinuousJob;
using core::Rng;
using core::SlotTime;
using core::SlottedInstance;
using core::SlottedJob;

namespace {

SlottedJob random_slotted_job(Rng& rng, const SlottedParams& params) {
  const SlotTime length =
      params.unit_jobs ? 1 : rng.uniform_int(1, params.max_length);
  const SlotTime slack = rng.uniform_int(0, params.max_slack);
  const SlotTime window = std::min(length + slack, params.horizon);
  const SlotTime release = rng.uniform_int(0, params.horizon - window);
  return {release, release + window, length};
}

}  // namespace

SlottedInstance random_slotted(Rng& rng, const SlottedParams& params) {
  ABT_ASSERT(params.horizon >= params.max_length, "horizon too small");
  std::vector<SlottedJob> jobs;
  jobs.reserve(static_cast<std::size_t>(params.num_jobs));
  for (int i = 0; i < params.num_jobs; ++i) {
    jobs.push_back(random_slotted_job(rng, params));
  }
  return SlottedInstance(std::move(jobs), params.capacity);
}

SlottedInstance random_feasible_slotted(Rng& rng,
                                        const SlottedParams& params) {
  std::vector<SlottedJob> jobs;
  jobs.reserve(static_cast<std::size_t>(params.num_jobs));
  // Add jobs one at a time; drop any job that makes the prefix infeasible.
  // When the machine's total capacity g * horizon is nearly exhausted no
  // further job may fit, so the loop also stops after a fixed attempt
  // budget and returns the (feasible) prefix built so far.
  abt::active::FeasibleJobSet kept(params.num_jobs, params.horizon,
                                   params.capacity);
  int attempts = 0;
  const int attempt_budget = 60 * params.num_jobs + 200;
  while (static_cast<int>(jobs.size()) < params.num_jobs &&
         attempts < attempt_budget) {
    SlottedJob job = random_slotted_job(rng, params);
    if (++attempts > 40 * params.num_jobs) {
      job = {0, params.horizon, 1};  // low-impact filler
    }
    if (kept.try_add(job)) jobs.push_back(job);
  }
  return SlottedInstance(std::move(jobs), params.capacity);
}

ContinuousInstance random_continuous(Rng& rng,
                                     const ContinuousParams& params) {
  std::vector<ContinuousJob> jobs;
  jobs.reserve(static_cast<std::size_t>(params.num_jobs));
  for (int i = 0; i < params.num_jobs; ++i) {
    const double length =
        rng.uniform_real(params.min_length, params.max_length);
    const double window =
        length * (1.0 + (params.max_slack > 0.0
                             ? rng.uniform_real(0.0, params.max_slack)
                             : 0.0));
    const double release =
        rng.uniform_real(0.0, std::max(1e-9, params.horizon - window));
    jobs.push_back({release, release + window, length});
  }
  return ContinuousInstance(std::move(jobs), params.capacity);
}

ContinuousInstance random_clique(Rng& rng, const ContinuousParams& params) {
  const double focus = params.horizon / 2;
  std::vector<ContinuousJob> jobs;
  jobs.reserve(static_cast<std::size_t>(params.num_jobs));
  for (int i = 0; i < params.num_jobs; ++i) {
    const double length =
        rng.uniform_real(params.min_length, params.max_length);
    // Interval must contain `focus`: start in (focus - length, focus].
    const double lo = std::max(0.0, focus - length + 1e-6);
    const double release = rng.uniform_real(lo, focus);
    jobs.push_back({release, release + length, length});
  }
  return ContinuousInstance(std::move(jobs), params.capacity);
}

ContinuousInstance random_proper(Rng& rng, const ContinuousParams& params) {
  // Draw starts, sort; draw lengths; fix containments by forcing ends to be
  // increasing as well.
  std::vector<double> starts;
  starts.reserve(static_cast<std::size_t>(params.num_jobs));
  for (int i = 0; i < params.num_jobs; ++i) {
    starts.push_back(rng.uniform_real(0.0, params.horizon));
  }
  std::sort(starts.begin(), starts.end());
  std::vector<ContinuousJob> jobs;
  double prev_end = 0.0;
  for (double s : starts) {
    double length = rng.uniform_real(params.min_length, params.max_length);
    if (s + length <= prev_end) length = prev_end - s + params.min_length / 2;
    prev_end = s + length;
    jobs.push_back({s, s + length, length});
  }
  return ContinuousInstance(std::move(jobs), params.capacity);
}

ContinuousInstance random_laminar(Rng& rng, const ContinuousParams& params) {
  // Recursively split a segment: either nest a smaller job inside the
  // current one or place siblings side by side.
  std::vector<ContinuousJob> jobs;
  std::function<void(double, double, int)> build = [&](double lo, double hi,
                                                       int depth) {
    if (static_cast<int>(jobs.size()) >= params.num_jobs || hi - lo < 0.25) {
      return;
    }
    const double length = hi - lo;
    jobs.push_back({lo, hi, length});
    if (depth > 6) return;
    if (rng.flip(0.5)) {
      // Nest one child strictly inside.
      const double margin = length * 0.15;
      build(lo + margin, hi - margin, depth + 1);
    } else {
      // Two disjoint children.
      const double mid = lo + length * rng.uniform_real(0.3, 0.7);
      const double pad = length * 0.05;
      build(lo + pad, mid - pad, depth + 1);
      build(mid + pad, hi - pad, depth + 1);
    }
  };
  while (static_cast<int>(jobs.size()) < params.num_jobs) {
    const double width =
        rng.uniform_real(params.horizon * 0.3, params.horizon * 0.9);
    const double lo = rng.uniform_real(0.0, params.horizon - width);
    build(lo, lo + width, 0);
  }
  jobs.resize(static_cast<std::size_t>(params.num_jobs));
  return ContinuousInstance(std::move(jobs), params.capacity);
}

ContinuousInstance random_proper_clique(Rng& rng,
                                        const ContinuousParams& params) {
  // Sample starts left of the focus and matching ends right of it; sorting
  // both coordinates identically yields a proper set, and the shared focus
  // point makes it a clique.
  const double focus = params.horizon / 2;
  std::vector<double> starts;
  std::vector<double> ends;
  for (int i = 0; i < params.num_jobs; ++i) {
    starts.push_back(focus - rng.uniform_real(0.01, params.max_length));
    ends.push_back(focus + rng.uniform_real(0.01, params.max_length));
  }
  std::sort(starts.begin(), starts.end());
  std::sort(ends.begin(), ends.end());
  std::vector<ContinuousJob> jobs;
  for (int i = 0; i < params.num_jobs; ++i) {
    const double lo = starts[static_cast<std::size_t>(i)];
    const double hi = ends[static_cast<std::size_t>(i)];
    jobs.push_back({lo, hi, hi - lo});
  }
  return ContinuousInstance(std::move(jobs), params.capacity);
}

ContinuousInstance random_bursty(Rng& rng, const BurstyParams& params) {
  ABT_ASSERT(params.bursts >= 1, "need at least one burst");
  const ContinuousParams& base = params.base;
  std::vector<double> centers;
  centers.reserve(static_cast<std::size_t>(params.bursts));
  for (int b = 0; b < params.bursts; ++b) {
    centers.push_back(rng.uniform_real(0.0, base.horizon));
  }
  const double half_width = std::max(1e-6, params.spread * base.horizon);
  std::vector<ContinuousJob> jobs;
  jobs.reserve(static_cast<std::size_t>(base.num_jobs));
  for (int i = 0; i < base.num_jobs; ++i) {
    const double length = rng.uniform_real(base.min_length, base.max_length);
    const double window =
        length * (1.0 + (base.max_slack > 0.0
                             ? rng.uniform_real(0.0, base.max_slack)
                             : 0.0));
    const double center = centers[static_cast<std::size_t>(
        rng.uniform_int(0, params.bursts - 1))];
    double release = center + rng.uniform_real(-half_width, half_width);
    release = std::clamp(release, 0.0, std::max(0.0, base.horizon - window));
    jobs.push_back({release, release + window, length});
  }
  return ContinuousInstance(std::move(jobs), base.capacity);
}

}  // namespace abt::gen
