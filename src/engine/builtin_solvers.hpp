#pragma once

#include "core/solver.hpp"

namespace abt::engine {

/// Free-run size gate of `busy/exact` (a budget lifts it: the search runs
/// anytime to the deadline). Measured, not guessed: worst wall time on one
/// core, g = 3, random interval and adversarial clique instances, was
/// 0.2 / 4.2 / 4.5 / 25 / 83 / 554 / 715 ms at n = 10 / 12 / ... / 22, so
/// n = 18 stays near 100 ms and n = 20 already risks 0.5 s.
inline constexpr int kExactFreeRunMaxJobs = 18;

/// Free-run size gate of `busy/weighted-exact`, measured the same way by
/// bench_weighted_gate (worst of g in {2, 3, 4, 6}, moderate-density and
/// near-clique weighted interval instances, 12 seeds each): 0.2 / 1.5 /
/// 15 / 240 / 4686 / 59742 ms at n = 8 / 10 / ... / 18. Widths weaken the
/// capacity prune, so the gate sits below the unit-width one.
inline constexpr int kWeightedExactFreeRunMaxJobs = 14;

/// Builds a registry holding every algorithm the library implements, busy
/// and active family alike: the direct interval-job algorithms, the
/// section-4.3 flexible pipelines, the preemptive and online variants, the
/// exact/special-case oracles, and the active-time approximations. Each
/// entry carries its paper guarantee (and worst-case factor where one is
/// proven) so runners and tests can validate costs uniformly.
[[nodiscard]] core::SolverRegistry builtin_registry();

/// Process-wide shared instance of builtin_registry().
[[nodiscard]] const core::SolverRegistry& shared_registry();

}  // namespace abt::engine
