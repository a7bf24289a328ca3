// Gate-measurement harness for busy/weighted-exact: reproduces the
// docs/ALGORITHMS.md worst-case table (single core, Release build) by
// sweeping n past the registered gate over the two density profiles that
// bracket the search's behavior — moderate density (horizon 6 + n/4, the
// observed worst case) and near-clique (horizon 4, the easy end: widths
// saturate g quickly, so the capacity prune bites early). Rerun after any
// change to the partition search before trusting the gate in
// engine::kWeightedExactFreeRunMaxJobs.
#include <algorithm>
#include <chrono>
#include <cstdio>

#include "busy/weighted.hpp"
#include "core/rng.hpp"
#include "engine/builtin_solvers.hpp"
#include "gen/extended_instances.hpp"

namespace {

using namespace abt;

double worst_ms_at(int n, double horizon) {
  double worst = 0.0;
  for (const int g : {2, 3, 4, 6}) {
    for (std::uint64_t seed = 1; seed <= 12; ++seed) {
      core::Rng rng(seed * 7919ULL + static_cast<std::uint64_t>(g));
      gen::WeightedParams params;
      params.num_jobs = n;
      params.capacity = g;
      params.horizon = horizon;
      const busy::WeightedInstance inst = gen::random_weighted(rng, params);
      const auto t0 = std::chrono::steady_clock::now();
      static_cast<void>(busy::solve_exact_busy(inst));
      const double ms = std::chrono::duration<double, std::milli>(
                            std::chrono::steady_clock::now() - t0)
                            .count();
      worst = std::max(worst, ms);
    }
  }
  return worst;
}

}  // namespace

int main() {
  std::printf("busy/weighted-exact gate sweep (worst over g in {2,3,4,6}, "
              "12 seeds each)\n");
  std::printf("%4s  %16s  %16s\n", "n", "moderate (ms)", "near-clique (ms)");
  // The n = 18 row takes ~minutes (docs table: ~60 s worst per instance).
  for (int n = 8; n <= 18; n += 2) {
    const double moderate = worst_ms_at(n, 6.0 + n / 4.0);
    const double clique = worst_ms_at(n, 4.0);
    std::printf("%4d  %16.1f  %16.1f\n", n, moderate, clique);
    std::fflush(stdout);
    if (std::max(moderate, clique) > 10000.0) break;  // runaway guard
  }
  std::printf("\nregistered gate: n <= %d (kWeightedExactFreeRunMaxJobs)\n",
              engine::kWeightedExactFreeRunMaxJobs);
  return 0;
}
