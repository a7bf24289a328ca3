#pragma once

#include "core/solver.hpp"

namespace abt::engine {

/// Free-run size gate of `busy/exact` at capacity g (a budget lifts it:
/// the search runs anytime to the deadline). The search prunes on capacity,
/// so small g is the hard end and the gate depends on g as well as n.
/// Measured by bench_exact_gate (Release, one core of a 4-CPU x86-64 VM):
/// worst wall time over the `--gen interval` and `--gen clique` scenarios,
/// seeds 1-8, at n = 10 / 12 / 14 / 16 / 18 / 20 / 22:
///   g = 1:  13 / 119 / >2000 ms
///   g = 2:  0.4 / 4.2 / 34 / 315 / 1426 ms
///   g = 3:  0.2 / 1.0 / 4.6 / 17 / 37 / 662 / >2000 ms
///   g = 4:  0.2 / 0.2 / 2.0 / 4.7 / 29 / 151 / 1420 ms
///   g = 6:  0.1 / 0.2 / 1.1 / 1.0 / 1.3 / 38 / 233 ms
/// so each gate is the largest n whose worst case stays near 100 ms.
[[nodiscard]] constexpr int exact_free_run_max_jobs(int capacity) {
  return capacity <= 1 ? 12 : capacity == 2 ? 14 : 18;
}

/// Free-run size gate of `busy/weighted-exact`, measured the same way over
/// the `--gen weighted` scenario (seeds 1-8) and moderate-density and
/// near-clique weighted interval instances (12 seeds each), at n = 10 / 12
/// / 14 / 16:
///   g = 1:  1.7 / 44 / 685 / >2000 ms
///   g = 2:  0.8 / 7.5 / 103 / >2000 ms
///   g = 3:  1.2 / 17 / 117 / >2000 ms
///   g = 4:  0.7 / 4.9 / 59 / 1930 ms
///   g = 6:  0.8 / 2.1 / 20 / 420 ms
/// Widths weaken the capacity prune, so the gate sits below the unit-width
/// one.
[[nodiscard]] constexpr int weighted_exact_free_run_max_jobs(int capacity) {
  return capacity <= 1 ? 12 : 14;
}

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
