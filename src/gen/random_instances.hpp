#pragma once

#include "core/continuous_instance.hpp"
#include "core/rng.hpp"
#include "core/slotted_instance.hpp"

namespace abt::gen {

/// Parameters for random slotted (active-time) instances.
struct SlottedParams {
  int num_jobs = 10;
  core::SlotTime horizon = 20;   ///< Deadlines at most this.
  int capacity = 3;              ///< g.
  core::SlotTime max_length = 4;
  core::SlotTime max_slack = 6;  ///< Window size at most length + slack.
  bool unit_jobs = false;        ///< Force p_j = 1.
};

/// Uniformly random slotted instance; may be infeasible.
[[nodiscard]] core::SlottedInstance random_slotted(core::Rng& rng,
                                                   const SlottedParams& params);

/// Random slotted instance that is guaranteed feasible. Draws candidate
/// jobs one at a time and keeps those that leave the kept set feasible;
/// after 40 * num_jobs draws the candidates become unit fillers with the
/// whole horizon as window, and after 60 * num_jobs + 200 draws it stops,
/// so on a nearly full machine it may return fewer than num_jobs jobs.
/// Each candidate costs at most p_j augmenting paths on one warm G_feas
/// (active::FeasibleJobSet); at the campaign's shape (n = 128,
/// horizon 256, g = 4) one instance takes well under a millisecond.
[[nodiscard]] core::SlottedInstance random_feasible_slotted(
    core::Rng& rng, const SlottedParams& params);

/// Parameters for random continuous (busy-time) instances.
struct ContinuousParams {
  int num_jobs = 20;
  double horizon = 30.0;
  int capacity = 3;
  double min_length = 0.5;
  double max_length = 4.0;
  /// Window size is length * (1 + slack); slack = 0 gives interval jobs.
  double max_slack = 0.0;
};

/// Random continuous instance (interval jobs when max_slack == 0).
[[nodiscard]] core::ContinuousInstance random_continuous(
    core::Rng& rng, const ContinuousParams& params);

/// Clique instance: every job's interval contains `focus` (defaults to the
/// middle of the horizon) — the special case studied by Khandekar et al.
[[nodiscard]] core::ContinuousInstance random_clique(
    core::Rng& rng, const ContinuousParams& params);

/// Proper instance: no job's interval is contained in another's (releases
/// and deadlines are sorted consistently) — Flammini et al.'s special case.
[[nodiscard]] core::ContinuousInstance random_proper(
    core::Rng& rng, const ContinuousParams& params);

/// Laminar instance: any two windows are disjoint or nested.
[[nodiscard]] core::ContinuousInstance random_laminar(
    core::Rng& rng, const ContinuousParams& params);

/// Proper clique instance: all intervals share a point and none contains
/// another — the case solved exactly by the DP of Mertzios et al. [12]
/// (paper footnote 1, implemented in busy/special_cases).
[[nodiscard]] core::ContinuousInstance random_proper_clique(
    core::Rng& rng, const ContinuousParams& params);

/// Parameters for bursty arrivals layered on a continuous family.
struct BurstyParams {
  ContinuousParams base;
  int bursts = 3;             ///< Arrival cluster count (>= 1).
  double spread = 0.06;       ///< Cluster half-width, fraction of horizon.
};

/// Bursty-arrival continuous instance: releases cluster around `bursts`
/// random centers instead of spreading uniformly, producing the deep
/// demand spikes that stress the packing algorithms (interval jobs when
/// base.max_slack == 0).
[[nodiscard]] core::ContinuousInstance random_bursty(
    core::Rng& rng, const BurstyParams& params);

}  // namespace abt::gen
