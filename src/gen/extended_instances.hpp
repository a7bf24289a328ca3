#pragma once

// Random generators for the extended instance kinds (width-weighted busy
// time, multi-window active time), next to the standard families. Like
// them they produce core instance types and depend on core alone.

#include "core/multi_window_instance.hpp"
#include "core/rng.hpp"
#include "core/weighted_instance.hpp"

namespace abt::gen {

/// Parameters for random weighted (cumulative-width) busy-time instances.
struct WeightedParams {
  int num_jobs = 12;
  int capacity = 4;
  double horizon = 20.0;
  double min_length = 0.5;
  double max_length = 4.0;
  /// Window size is length * (1 + slack); 0 gives interval jobs.
  double max_slack = 0.0;
  /// Widths are uniform in [1, min(max_width, capacity)]; 0 = capacity.
  int max_width = 0;
};

/// Random weighted instance; always structurally valid (widths in [1, g]).
[[nodiscard]] core::WeightedInstance random_weighted(
    core::Rng& rng, const WeightedParams& params);

/// Parameters for random multi-window active-time instances.
struct MultiWindowParams {
  int num_jobs = 10;
  int capacity = 3;
  /// 0 = derived from the drawn work (2 * total / g + 4).
  core::SlotTime horizon = 0;
  core::SlotTime max_length = 4;
  /// Upper bound on the window fragments *seeded* per job (at least 1).
  /// Under very dense load the unit-by-unit fallback placement may
  /// fragment a job further, so treat this as typical, not a hard cap.
  int max_windows = 3;
  /// Random per-window slack slots added around the seeded runs.
  core::SlotTime window_slack = 2;
};

/// Random multi-window instance, feasible by construction: a concrete
/// capacity-respecting assignment is sampled first and each job's windows
/// are grown around its assigned slots, so the flow check always succeeds.
[[nodiscard]] core::MultiWindowInstance random_multi_window(
    core::Rng& rng, const MultiWindowParams& params);

}  // namespace abt::gen
