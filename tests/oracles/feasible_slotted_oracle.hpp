#pragma once

// The generator gen::random_feasible_slotted shipped before it moved onto
// one warm G_feas (active::FeasibleJobSet), kept verbatim as the reference
// for (a) the equivalence suite in tests/test_gen.cpp and (b)
// BM_RandomFeasibleSlottedNaive in bench/bench_perf.cpp. Every candidate
// job copies the accepted prefix into a new SlottedInstance and runs a full
// max-flow from zero. Test- and bench-side only, never linked into the
// library. Do not optimize this header; its value is staying frozen.

#include <algorithm>
#include <utility>
#include <vector>

#include "active/feasibility.hpp"
#include "core/rng.hpp"
#include "core/slotted_instance.hpp"
#include "gen/random_instances.hpp"

namespace abt::gen::oracle {

inline core::SlottedJob random_slotted_job(core::Rng& rng,
                                           const SlottedParams& params) {
  const core::SlotTime length =
      params.unit_jobs ? 1 : rng.uniform_int(1, params.max_length);
  const core::SlotTime slack = rng.uniform_int(0, params.max_slack);
  const core::SlotTime window = std::min(length + slack, params.horizon);
  const core::SlotTime release = rng.uniform_int(0, params.horizon - window);
  return {release, release + window, length};
}

inline core::SlottedInstance random_feasible_slotted(
    core::Rng& rng, const SlottedParams& params) {
  std::vector<core::SlottedJob> jobs;
  jobs.reserve(static_cast<std::size_t>(params.num_jobs));
  // Add jobs one at a time; drop any job that makes the prefix infeasible.
  // When the machine's total capacity g * horizon is nearly exhausted no
  // further job may fit, so the loop also stops after a fixed attempt
  // budget and returns the (feasible) prefix built so far.
  int attempts = 0;
  const int attempt_budget = 60 * params.num_jobs + 200;
  while (static_cast<int>(jobs.size()) < params.num_jobs &&
         attempts < attempt_budget) {
    core::SlottedJob job = random_slotted_job(rng, params);
    if (++attempts > 40 * params.num_jobs) {
      job = {0, params.horizon, 1};  // low-impact filler
    }
    jobs.push_back(job);
    const core::SlottedInstance trial(jobs, params.capacity);
    if (!abt::active::is_feasible(trial)) jobs.pop_back();
  }
  return core::SlottedInstance(std::move(jobs), params.capacity);
}

}  // namespace abt::gen::oracle
