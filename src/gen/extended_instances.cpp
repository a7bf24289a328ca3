#include "gen/extended_instances.hpp"

#include <algorithm>
#include <utility>
#include <vector>

#include "core/assert.hpp"

namespace abt::gen {

using core::Rng;
using core::SlotTime;

core::WeightedInstance random_weighted(Rng& rng,
                                       const WeightedParams& params) {
  ABT_ASSERT(params.capacity >= 1, "capacity must be positive");
  const int width_cap = params.max_width > 0
                            ? std::min(params.max_width, params.capacity)
                            : params.capacity;
  std::vector<core::WeightedJob> jobs;
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
    jobs.push_back({{release, release + window, length},
                    static_cast<int>(rng.uniform_int(1, width_cap))});
  }
  return core::WeightedInstance(std::move(jobs), params.capacity);
}

core::MultiWindowInstance random_multi_window(
    Rng& rng, const MultiWindowParams& params) {
  ABT_ASSERT(params.capacity >= 1, "capacity must be positive");
  ABT_ASSERT(params.max_windows >= 1, "need at least one window per job");

  // Draw the work first so the horizon can be sized to admit everything.
  std::vector<SlotTime> lengths;
  SlotTime total = 0;
  for (int i = 0; i < params.num_jobs; ++i) {
    lengths.push_back(rng.uniform_int(1, params.max_length));
    total += lengths.back();
  }
  const SlotTime horizon = std::max<SlotTime>(
      params.horizon, 2 * ((total + params.capacity - 1) / params.capacity) +
                          params.max_length + 4);

  // Seed a feasible assignment: per job, scatter its units over available
  // slots (load < g) in up to max_windows consecutive runs, then grow the
  // job's windows around the assigned runs. Feasibility is by construction.
  std::vector<int> load(static_cast<std::size_t>(horizon) + 1, 0);

  std::vector<core::MultiWindowJob> jobs;
  for (int i = 0; i < params.num_jobs; ++i) {
    const SlotTime length = lengths[static_cast<std::size_t>(i)];
    std::vector<SlotTime> assigned;
    const auto taken = [&](SlotTime t) {
      return std::find(assigned.begin(), assigned.end(), t) != assigned.end();
    };
    const auto run_fits = [&](SlotTime start, SlotTime len) {
      if (start < 1 || start + len - 1 > horizon) return false;
      for (SlotTime t = start; t < start + len; ++t) {
        if (load[static_cast<std::size_t>(t)] >= params.capacity ||
            taken(t)) {
          return false;
        }
      }
      return true;
    };

    // Split the length into fragments and place each as a consecutive run.
    SlotTime remaining = length;
    SlotTime fragments =
        rng.uniform_int(1, std::min<SlotTime>(params.max_windows, length));
    while (remaining > 0) {
      SlotTime piece =
          fragments > 1 ? rng.uniform_int(1, remaining - fragments + 1)
                        : remaining;
      fragments = std::max<SlotTime>(1, fragments - 1);
      bool placed = false;
      for (int attempt = 0; attempt < 64 && !placed; ++attempt) {
        const SlotTime start = rng.uniform_int(1, horizon - piece + 1);
        if (!run_fits(start, piece)) continue;
        for (SlotTime t = start; t < start + piece; ++t) {
          ++load[static_cast<std::size_t>(t)];
          assigned.push_back(t);
        }
        placed = true;
      }
      if (!placed) {
        // Dense region: fall back to unit placements anywhere available
        // (always possible because horizon * g >= 2 * total work).
        for (SlotTime t = 1; t <= horizon && piece > 0; ++t) {
          if (load[static_cast<std::size_t>(t)] >= params.capacity ||
              taken(t)) {
            continue;
          }
          ++load[static_cast<std::size_t>(t)];
          assigned.push_back(t);
          --piece;
        }
        ABT_ASSERT(piece == 0, "horizon cannot absorb the drawn work");
      }
      remaining = length - static_cast<SlotTime>(assigned.size());
    }
    std::sort(assigned.begin(), assigned.end());
    ABT_ASSERT(static_cast<SlotTime>(assigned.size()) == length,
               "assignment lost units");

    // Windows: one per maximal run of assigned slots, padded by random
    // slack and merged when the padding makes them collide.
    core::MultiWindowJob job;
    job.length = length;
    std::size_t k = 0;
    while (k < assigned.size()) {
      std::size_t end = k;
      while (end + 1 < assigned.size() &&
             assigned[end + 1] == assigned[end] + 1) {
        ++end;
      }
      SlotTime lo = assigned[k] - 1 - rng.uniform_int(0, params.window_slack);
      SlotTime hi = assigned[end] + rng.uniform_int(0, params.window_slack);
      lo = std::max<SlotTime>(0, lo);
      hi = std::min(horizon, hi);
      if (!job.windows.empty() && job.windows.back().second >= lo) {
        job.windows.back().second =
            std::max(job.windows.back().second, hi);
      } else {
        job.windows.emplace_back(lo, hi);
      }
      k = end + 1;
    }
    jobs.push_back(std::move(job));
  }
  core::MultiWindowInstance inst(std::move(jobs), params.capacity);
  ABT_ASSERT(inst.structurally_valid(), "generator produced invalid windows");
  return inst;
}

}  // namespace abt::gen
