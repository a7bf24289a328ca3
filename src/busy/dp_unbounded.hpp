#pragma once

#include <vector>

#include "core/continuous_instance.hpp"
#include "core/run_context.hpp"

namespace abt::busy {

/// Solution of the busy-time problem with unbounded capacity (g = infinity):
/// a set of disjoint busy windows plus one start time per job. The busy time
/// equals OPT_inf, the span lower bound of Observation 3.
struct UnboundedSolution {
  double busy_time = 0.0;
  std::vector<double> starts;            ///< Per job.
  std::vector<core::Interval> windows;   ///< Disjoint busy components.
  bool exact = true;                     ///< False if a limit/deadline hit.
  bool timed_out = false;                ///< The RunContext stopped the DP.
  long nodes = 0;                        ///< Search states expanded.
  /// Distinct pending-set vectors hash-consed by the memo. States share
  /// interned sets by id, so memo memory is O(nodes + interned * set size)
  /// instead of O(nodes * set size); the gap between `nodes` and `interned`
  /// is the sharing factor. Surfaced as dp_* stats in core::Solution.
  long interned = 0;
};

struct UnboundedOptions {
  /// Upper bound on memoized states; when exceeded the solver returns the
  /// push-left upper bound (every job at its release) with exact = false.
  /// The paper's workloads stay far below this.
  long state_limit = 2'000'000;
  /// Deadline / cancellation (nullptr = free run), polled once per anchor
  /// a state tries and every 1024th state. A stop takes the same
  /// push-left fallback as the state limit, with `timed_out = true` so
  /// callers can tell the two apart.
  const core::RunContext* context = nullptr;
};

/// Computes an optimal g = infinity schedule. This is the subroutine the
/// paper cites as Khandekar et al.'s dynamic program (Theorem 4): it fixes
/// every flexible job's position; the busy time of the output lower-bounds
/// OPT for any finite g, and freezing the positions turns the instance into
/// interval jobs (section 4.3).
///
/// Implementation: memoized search over states (t, pending) where t is the
/// next admissible window start and `pending` the unsatisfied jobs released
/// before t. Candidate window starts are {r_j} union {d_j - p_j} (an
/// exchange argument shows binding constraints are releases and latest
/// starts); a window [x, y] ends at the obligation e_j(x) = max(r_j, x) +
/// p_j of one of the jobs it satisfies. Jobs are pushed left within their
/// window. Identical jobs collapse in the state key, which keeps the state
/// space polynomial on the paper's gadget families; exactness is
/// cross-checked against brute force in the test suite.
[[nodiscard]] UnboundedSolution solve_unbounded(
    const core::ContinuousInstance& inst, UnboundedOptions options = {});

/// Freezes the starts of `solution` into an interval-job instance with the
/// same capacity (r'_j = start, d'_j = start + p_j) — the conversion step
/// of section 4.3.
[[nodiscard]] core::ContinuousInstance freeze_to_interval_instance(
    const core::ContinuousInstance& inst, const UnboundedSolution& solution);

}  // namespace abt::busy
