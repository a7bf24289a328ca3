#pragma once

#include <vector>

#include "core/continuous_instance.hpp"
#include "core/scratch.hpp"

namespace abt::busy {

/// Weighted interval scheduling over a subset of interval jobs: finds a
/// *track* (Definition 14: pairwise-disjoint jobs) maximizing total weight.
/// GreedyTracking uses weight = length so that each extracted track is a
/// longest track (Algorithm 1, step 3).
///
/// `candidates` are job ids into `inst`; `weight[i]` corresponds to
/// `candidates[i]`. Jobs are treated as their forced execution intervals
/// [r_j, r_j + p_j) — callers must pass interval jobs.
///
/// Classic O(m log m) dynamic program: sort by end, binary-search the latest
/// compatible predecessor.
[[nodiscard]] std::vector<core::JobId> max_weight_track(
    const core::ContinuousInstance& inst,
    const std::vector<core::JobId>& candidates,
    const std::vector<double>& weights);

/// Convenience: maximum *length* track (weights = lengths).
[[nodiscard]] std::vector<core::JobId> longest_track(
    const core::ContinuousInstance& inst,
    const std::vector<core::JobId>& candidates);

/// Incremental peeler for repeated track extraction over a shrinking pool
/// (GreedyTracking's loop): sorts the candidates by end and binary-searches
/// every item's latest compatible predecessor once at construction. Each
/// peel compacts the survivors in end order and remaps their predecessors
/// through the survivor prefix counts, so every extraction after the first
/// is one linear pass — no per-track re-sort or re-search.
class TrackPeeler {
 public:
  /// `weights[i]` corresponds to `candidates[i]`; jobs are treated as their
  /// forced execution intervals, so callers must pass interval jobs.
  TrackPeeler(const core::ContinuousInstance& inst,
              const std::vector<core::JobId>& candidates,
              const std::vector<double>& weights);

  [[nodiscard]] bool empty() const { return items_.empty(); }
  [[nodiscard]] std::size_t remaining() const { return items_.size(); }

  /// Extracts a max-weight track and removes its jobs from the pool.
  /// Returns the track's job ids in increasing end order.
  std::vector<core::JobId> extract_max_weight_track();

 private:
  struct Item {
    double start;
    double end;
    double weight;
    core::JobId job;
  };
  std::vector<Item> items_;  ///< Alive candidates, sorted by end.
  /// pred_[i]: largest k < i with items_[k].end <= items_[i].start, or -1.
  std::vector<int> pred_;
  // Scratch buffers reused across peels to keep extraction allocation-light.
  // The marker arrays use O(1) epoch resets instead of a full refill per
  // peel (the refill dominated shallow peels over large pools).
  std::vector<int> kept_;
  std::vector<double> best_;
  core::FastResetVector<char> take_;
  core::FastResetVector<char> chosen_;
};

}  // namespace abt::busy
