// Gate-measurement harness for the free-run gates of busy/exact and
// busy/weighted-exact (engine::exact_free_run_max_jobs and
// engine::weighted_exact_free_run_max_jobs). For every capacity g it sweeps
// n upward and prints the worst single-core wall time of the partition
// search over a seed set:
//   - unit widths: the `--gen interval` and `--gen clique` scenarios, seeds
//     1..8, exactly the instances `abt_solve --gen ... --n N --g G` builds;
//   - widths: the `--gen weighted` scenario (horizon 10 + n/4), seeds
//     1..8, and random weighted interval instances at moderate density
//     (horizon 6 + n/4) and near-clique (horizon 4), 12 seeds each.
// Every search runs under a 2 s budget, so a runaway cell prints ">2000"
// instead of hanging; a g row stops once its worst time passes 1 s. Rerun
// after any change to the partition search before trusting the gates.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>

#include "busy/weighted.hpp"
#include "core/rng.hpp"
#include "engine/builtin_solvers.hpp"
#include "engine/runner.hpp"
#include "gen/extended_instances.hpp"

namespace {

using namespace abt;

constexpr double kBudgetMs = 2000.0;
constexpr double kRowStopMs = 1000.0;

/// Wall time of one budgeted search; kBudgetMs when the budget stopped it.
double search_ms(const core::WeightedInstance& inst) {
  const core::RunContext ctx =
      core::RunContext::with_budget_ms(kBudgetMs).restarted();
  const auto t0 = std::chrono::steady_clock::now();
  const busy::ExactBusyResult result = busy::solve_exact_busy(inst, {&ctx});
  const double ms = std::chrono::duration<double, std::milli>(
                        std::chrono::steady_clock::now() - t0)
                        .count();
  return result.proven_optimal ? ms : kBudgetMs;
}

/// Worst over seeds 1..8 of the `abt_solve --gen <scenario>` instances.
double scenario_worst_ms(const std::string& scenario, int n, int g) {
  double worst = 0.0;
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    engine::ScenarioSpec spec;
    spec.name = scenario;
    spec.n = n;
    spec.g = g;
    spec.seed = seed;
    const auto inst = engine::make_scenario(spec);
    worst = std::max(
        worst, search_ms(inst->kind == core::InstanceKind::kWeighted
                             ? inst->weighted
                             : core::WeightedInstance::with_unit_widths(
                                   inst->continuous)));
  }
  return worst;
}

double weighted_worst_ms(int n, int g, double horizon) {
  double worst = 0.0;
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    core::Rng rng(seed * 7919ULL + static_cast<std::uint64_t>(g));
    gen::WeightedParams params;
    params.num_jobs = n;
    params.capacity = g;
    params.horizon = horizon;
    worst = std::max(worst, search_ms(gen::random_weighted(rng, params)));
  }
  return worst;
}

void print_cell(double ms) {
  if (ms >= kBudgetMs) {
    std::printf("  %14s", ">2000");
  } else {
    std::printf("  %14.1f", ms);
  }
}

}  // namespace

int main() {
  std::printf("busy/exact (unit widths): worst ms over seeds 1..8\n");
  std::printf("%3s %4s  %14s  %14s  %5s\n", "g", "n", "interval", "clique",
              "gate");
  for (const int g : {1, 2, 3, 4, 6}) {
    for (int n = 8; n <= 24; n += 2) {
      const double interval = scenario_worst_ms("interval", n, g);
      const double clique = scenario_worst_ms("clique", n, g);
      std::printf("%3d %4d", g, n);
      print_cell(interval);
      print_cell(clique);
      std::printf("  %5s\n",
                  n <= engine::exact_free_run_max_jobs(g) ? "free" : "-");
      std::fflush(stdout);
      if (std::max(interval, clique) > kRowStopMs) break;
    }
  }

  std::printf("\nbusy/weighted-exact: worst ms over the seeds\n");
  std::printf("%3s %4s  %14s  %14s  %14s  %5s\n", "g", "n", "weighted",
              "moderate", "near-clique", "gate");
  for (const int g : {1, 2, 3, 4, 6}) {
    for (int n = 8; n <= 20; n += 2) {
      const double scenario = scenario_worst_ms("weighted", n, g);
      const double moderate = weighted_worst_ms(n, g, 6.0 + n / 4.0);
      const double clique = weighted_worst_ms(n, g, 4.0);
      std::printf("%3d %4d", g, n);
      print_cell(scenario);
      print_cell(moderate);
      print_cell(clique);
      std::printf(
          "  %5s\n",
          n <= engine::weighted_exact_free_run_max_jobs(g) ? "free" : "-");
      std::fflush(stdout);
      if (std::max({scenario, moderate, clique}) > kRowStopMs) break;
    }
  }
  return 0;
}
