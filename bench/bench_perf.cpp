// E11 — substrate performance scaling (google-benchmark): max-flow
// feasibility checks, simplex LP solves, track extraction, the g=infinity
// DP and the end-to-end algorithms. Not a paper artifact (the paper has no
// running-time evaluation); establishes that the library scales to
// realistic instance sizes.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <deque>
#include <mutex>
#include <numeric>
#include <thread>
#include <vector>

#include "active/feasibility.hpp"
#include "active/lp_model.hpp"
#include "active/lp_rounding.hpp"
#include "active/minimal_feasible.hpp"
#include "busy/demand_profile.hpp"
#include "busy/dp_unbounded.hpp"
#include "busy/first_fit.hpp"
#include "preemptive_layout.hpp"
#include "busy/greedy_tracking.hpp"
#include "busy/online.hpp"
#include "busy/preemptive.hpp"
#include "busy/proper_cover.hpp"
#include "busy/two_track_peeling.hpp"
#include "busy/weighted.hpp"
#include "core/rng.hpp"
#include "core/run_context.hpp"
#include "engine/builtin_solvers.hpp"
#include "engine/parallel.hpp"
#include "engine/portfolio.hpp"
#include "engine/runner.hpp"
#include "engine/scratch.hpp"
#include "gen/extended_instances.hpp"
#include "gen/random_instances.hpp"
#include "service/protocol.hpp"
#include "service/server.hpp"
#include "busy_oracle.hpp"
#include "dense_simplex_oracle.hpp"
#include "dp_unbounded_oracle.hpp"
#include "feasible_slotted_oracle.hpp"
#include "minimal_feasible_oracle.hpp"
#include "preemptive_oracle.hpp"
#include "weighted_oracle.hpp"

namespace {

using namespace abt;

core::SlottedInstance make_slotted(int n, int seed) {
  core::Rng rng(static_cast<std::uint64_t>(seed));
  gen::SlottedParams params;
  params.num_jobs = n;
  params.horizon = 4 * n;
  params.capacity = 4;
  params.max_length = 5;
  params.max_slack = 8;
  return gen::random_feasible_slotted(rng, params);
}

core::ContinuousInstance make_interval(int n, int seed, double slack = 0.0) {
  core::Rng rng(static_cast<std::uint64_t>(seed));
  gen::ContinuousParams params;
  params.num_jobs = n;
  params.capacity = 4;
  params.horizon = n / 2.0 + 10;
  params.max_slack = slack;
  return gen::random_continuous(rng, params);
}

void BM_FlowFeasibility(benchmark::State& state) {
  const auto inst = make_slotted(static_cast<int>(state.range(0)), 1);
  const auto slots = active::candidate_slots(inst);
  for (auto _ : state) {
    benchmark::DoNotOptimize(active::is_feasible_with_slots(inst, slots));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_FlowFeasibility)->Range(8, 256)->Complexity();

// The closing pass on one warm SlotNetwork (one flow, then at most g
// unit reroutes per trial) against the frozen rebuild-per-trial loop it
// replaced (tests/oracles/minimal_feasible_oracle.hpp), which built G_feas
// and ran a full max-flow for every candidate slot.
void BM_MinimalFeasible(benchmark::State& state) {
  const auto inst = make_slotted(static_cast<int>(state.range(0)), 2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(active::solve_minimal_feasible(inst));
  }
}
BENCHMARK(BM_MinimalFeasible)->Range(8, 256)->Unit(benchmark::kMicrosecond);

void BM_MinimalFeasibleNaive(benchmark::State& state) {
  const auto inst = make_slotted(static_cast<int>(state.range(0)), 2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(active::oracle::solve_minimal_feasible(inst));
  }
}
BENCHMARK(BM_MinimalFeasibleNaive)
    ->Range(8, 256)
    ->Unit(benchmark::kMicrosecond);

// Feasible instance generation on one warm G_feas (at most p_j augmenting
// paths per candidate) against the frozen generator it replaced
// (tests/oracles/feasible_slotted_oracle.hpp), which copied the prefix and
// ran a fresh max-flow per candidate. Args: n, horizon, g. The campaign's
// shape (128, 256, 4) and a refusal-heavy one (64, 20, 2) where most
// candidates are refused and rolled back; seed 1 every iteration.
gen::SlottedParams feasible_params(const benchmark::State& state) {
  gen::SlottedParams params;
  params.num_jobs = static_cast<int>(state.range(0));
  params.horizon = state.range(1);
  params.capacity = static_cast<int>(state.range(2));
  return params;
}

void BM_RandomFeasibleSlotted(benchmark::State& state) {
  const gen::SlottedParams params = feasible_params(state);
  for (auto _ : state) {
    core::Rng rng(1);
    benchmark::DoNotOptimize(gen::random_feasible_slotted(rng, params));
  }
}
BENCHMARK(BM_RandomFeasibleSlotted)
    ->Args({128, 256, 4})
    ->Args({64, 20, 2})
    ->Unit(benchmark::kMicrosecond);

void BM_RandomFeasibleSlottedNaive(benchmark::State& state) {
  const gen::SlottedParams params = feasible_params(state);
  for (auto _ : state) {
    core::Rng rng(1);
    benchmark::DoNotOptimize(gen::oracle::random_feasible_slotted(rng, params));
  }
}
BENCHMARK(BM_RandomFeasibleSlottedNaive)
    ->Args({128, 256, 4})
    ->Args({64, 20, 2})
    ->Unit(benchmark::kMicrosecond);

// LP1 instances: the historical random ones up to n = 32, the campaign's
// shape (slotted, g = 4) at n = 128.
core::SlottedInstance lp_instance(int n) {
  if (n <= 32) return make_slotted(n, 3);
  engine::ScenarioSpec spec;
  spec.name = "slotted";
  spec.n = n;
  spec.g = 4;
  return engine::make_scenario(spec)->slotted;
}

// LP1 the way lp-rounding solves it: build the model, run the feasibility
// flow and start the revised simplex from its crash basis.
void BM_ActiveLpSolve(benchmark::State& state) {
  const auto inst = lp_instance(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    const active::ActiveTimeLp model(inst);
    const auto flow =
        active::extract_assignment(inst, active::candidate_slots(inst));
    const lp::StartBasis start = model.crash_basis(flow->job_slots);
    benchmark::DoNotOptimize(active::solve_active_lp(model, nullptr, &start));
  }
}
BENCHMARK(BM_ActiveLpSolve)
    ->Range(4, 32)
    ->Arg(128)
    ->Unit(benchmark::kMicrosecond);

// The frozen dense two-phase tableau on the same models.
void BM_ActiveLpSolveNaive(benchmark::State& state) {
  const auto inst = lp_instance(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    const active::ActiveTimeLp model(inst);
    benchmark::DoNotOptimize(lp::oracle::solve_dense(model.problem()));
  }
}
BENCHMARK(BM_ActiveLpSolveNaive)
    ->Range(4, 32)
    ->Arg(128)
    ->Unit(benchmark::kMicrosecond);

void BM_LpRounding(benchmark::State& state) {
  const auto inst = make_slotted(static_cast<int>(state.range(0)), 4);
  for (auto _ : state) {
    benchmark::DoNotOptimize(active::solve_lp_rounding(inst));
  }
}
BENCHMARK(BM_LpRounding)->Range(4, 32);

void BM_GreedyTracking(benchmark::State& state) {
  const auto inst = make_interval(static_cast<int>(state.range(0)), 5);
  for (auto _ : state) {
    benchmark::DoNotOptimize(busy::greedy_tracking(inst));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_GreedyTracking)->Range(16, 8192)->Complexity();

void BM_TwoTrackPeeling(benchmark::State& state) {
  const auto inst = make_interval(static_cast<int>(state.range(0)), 6);
  for (auto _ : state) {
    benchmark::DoNotOptimize(busy::two_track_peeling(inst));
  }
  state.SetComplexityN(state.range(0));
}
// Range extended to 8192 in PR 2: the LevelPeeler removed the per-level
// re-sort, so the peel loop now scales with the other sweep-backed paths.
BENCHMARK(BM_TwoTrackPeeling)->Range(16, 8192)->Complexity();

void BM_FirstFit(benchmark::State& state) {
  const auto inst = make_interval(static_cast<int>(state.range(0)), 7);
  for (auto _ : state) {
    benchmark::DoNotOptimize(busy::first_fit(inst));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_FirstFit)->Range(16, 8192)->Complexity();

void BM_DemandProfile(benchmark::State& state) {
  const auto inst = make_interval(static_cast<int>(state.range(0)), 10);
  for (auto _ : state) {
    benchmark::DoNotOptimize(busy::DemandProfile(inst));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_DemandProfile)->Range(16, 8192)->Complexity();

// --------------------------------------------------------------------------
// Pre-sweep quadratic baselines (tests/oracles/naive_baselines.hpp, shared
// with the equivalence suite) so bench_perf reports the speedup of the
// sweep engine against the original hot paths.

void BM_FirstFitNaive(benchmark::State& state) {
  const auto inst = make_interval(static_cast<int>(state.range(0)), 7);
  for (auto _ : state) {
    benchmark::DoNotOptimize(busy::naive::first_fit(inst));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_FirstFitNaive)->Range(16, 4096)->Complexity();

// The pre-PR-2 two_track_peeling inner loop: re-run the one-shot
// proper_cover (fresh sort + rescan) on the remaining pool per level.
void BM_LevelPeelNaive(benchmark::State& state) {
  const auto inst = make_interval(static_cast<int>(state.range(0)), 6);
  for (auto _ : state) {
    std::vector<core::JobId> remaining(static_cast<std::size_t>(inst.size()));
    std::iota(remaining.begin(), remaining.end(), core::JobId{0});
    while (!remaining.empty()) {
      const std::vector<core::JobId> level = busy::proper_cover(inst, remaining);
      std::vector<char> taken(static_cast<std::size_t>(inst.size()), 0);
      for (core::JobId j : level) taken[static_cast<std::size_t>(j)] = 1;
      std::erase_if(remaining, [&](core::JobId j) {
        return taken[static_cast<std::size_t>(j)] != 0;
      });
      benchmark::DoNotOptimize(level);
    }
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_LevelPeelNaive)->Range(16, 4096)->Complexity();

// The PR-2 replacement: LevelPeeler sorts once and peels linearly.
void BM_LevelPeel(benchmark::State& state) {
  const auto inst = make_interval(static_cast<int>(state.range(0)), 6);
  std::vector<core::JobId> all(static_cast<std::size_t>(inst.size()));
  std::iota(all.begin(), all.end(), core::JobId{0});
  for (auto _ : state) {
    busy::LevelPeeler peeler(inst, all);
    while (!peeler.empty()) {
      benchmark::DoNotOptimize(peeler.extract_level());
    }
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_LevelPeel)->Range(16, 4096)->Complexity();

void BM_DemandProfileNaive(benchmark::State& state) {
  const auto inst = make_interval(static_cast<int>(state.range(0)), 10);
  for (auto _ : state) {
    benchmark::DoNotOptimize(busy::naive::demand_profile(inst));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_DemandProfileNaive)->Range(16, 4096)->Complexity();

// --------------------------------------------------------------------------
// The online and preemptive paths off their quadratic scans (one
// release-order frontier sweep; OpenSet + per-piece cell lookup).
// The frozen originals stay as BM_*Naive so bench_perf reports the
// speedup, like the other sweep-backed paths.

void BM_OnlineFirstFit(benchmark::State& state) {
  const auto inst = make_interval(static_cast<int>(state.range(0)), 11);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        busy::schedule_online(inst, busy::OnlinePolicy::kFirstFit));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_OnlineFirstFit)->Range(16, 8192)->Complexity();

void BM_OnlineBestFit(benchmark::State& state) {
  const auto inst = make_interval(static_cast<int>(state.range(0)), 11);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        busy::schedule_online(inst, busy::OnlinePolicy::kBestFit));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_OnlineBestFit)->Range(16, 8192)->Complexity();

void BM_OnlineFirstFitNaive(benchmark::State& state) {
  const auto inst = make_interval(static_cast<int>(state.range(0)), 11);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        busy::naive::schedule_online(inst, busy::OnlinePolicy::kFirstFit));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_OnlineFirstFitNaive)->Range(16, 4096)->Complexity();

void BM_OnlineBestFitNaive(benchmark::State& state) {
  const auto inst = make_interval(static_cast<int>(state.range(0)), 11);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        busy::naive::schedule_online(inst, busy::OnlinePolicy::kBestFit));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_OnlineBestFitNaive)->Range(16, 2048)->Complexity();

// The campaign's shape for the preemptive benchmarks: its bursty family
// at g = 8 (range = n).
core::ContinuousInstance bursty_instance(int n) {
  engine::ScenarioSpec spec;
  spec.name = "bursty";
  spec.n = n;
  spec.g = 8;
  return engine::make_scenario(spec)->continuous;
}

void BM_PreemptiveBoundedNaive(benchmark::State& state) {
  const auto inst = make_interval(static_cast<int>(state.range(0)), 9, 2.0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(busy::naive::solve_preemptive_bounded(inst));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_PreemptiveBoundedNaive)->Range(16, 2048)->Complexity();

void BM_PreemptiveBoundedNaiveBursty(benchmark::State& state) {
  const auto inst = bursty_instance(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(busy::naive::solve_preemptive_bounded(inst));
  }
}
BENCHMARK(BM_PreemptiveBoundedNaiveBursty)
    ->Name("BM_PreemptiveBoundedNaive/bursty_g8")
    ->Arg(1024)
    ->Unit(benchmark::kMicrosecond);

// The GREEDYTRACKING pipeline's shape: the bursty family at g = 8, frozen
// into interval jobs by the g = infinity DP (range = n).
core::ContinuousInstance frozen_bursty_instance(int n) {
  const auto inst = bursty_instance(n);
  return busy::freeze_to_interval_instance(inst, busy::solve_unbounded(inst));
}

void BM_GreedyTrackingBursty(benchmark::State& state) {
  const auto inst = frozen_bursty_instance(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(busy::greedy_tracking(inst));
  }
}
BENCHMARK(BM_GreedyTrackingBursty)
    ->Name("BM_GreedyTracking/bursty_g8")
    ->Arg(1024)
    ->Unit(benchmark::kMicrosecond);

// The frozen re-sorting peel loop on the same instances.
void BM_GreedyTrackingNaive(benchmark::State& state) {
  const auto inst = make_interval(static_cast<int>(state.range(0)), 5);
  for (auto _ : state) {
    benchmark::DoNotOptimize(busy::naive::greedy_tracking(inst));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_GreedyTrackingNaive)->Range(16, 2048)->Complexity();

void BM_GreedyTrackingNaiveBursty(benchmark::State& state) {
  const auto inst = frozen_bursty_instance(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(busy::naive::greedy_tracking(inst));
  }
}
BENCHMARK(BM_GreedyTrackingNaiveBursty)
    ->Name("BM_GreedyTrackingNaive/bursty_g8")
    ->Arg(1024)
    ->Unit(benchmark::kMicrosecond);

// g = infinity DP instances: the historical slack-1 random jobs up to
// n = 32, the campaign's flexible family (g = 8) from n = 256 on.
core::ContinuousInstance dp_instance(int n) {
  if (n <= 32) return make_interval(n, 8, 1.0);
  engine::ScenarioSpec spec;
  spec.name = "flexible";
  spec.n = n;
  spec.g = 8;
  return engine::make_scenario(spec)->continuous;
}

void BM_UnboundedDp(benchmark::State& state) {
  const auto inst = dp_instance(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(busy::solve_unbounded(inst));
  }
}
BENCHMARK(BM_UnboundedDp)
    ->Range(4, 32)
    ->Arg(256)
    ->Arg(1024)
    ->Unit(benchmark::kMicrosecond);

// The frozen rescan DP on the same instances.
void BM_UnboundedDpNaive(benchmark::State& state) {
  const auto inst = dp_instance(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(busy::oracle::solve_unbounded(inst));
  }
}
BENCHMARK(BM_UnboundedDpNaive)
    ->Range(4, 32)
    ->Arg(256)
    ->Arg(1024)
    ->Unit(benchmark::kMicrosecond);

void BM_PreemptiveBounded(benchmark::State& state) {
  const auto inst = make_interval(static_cast<int>(state.range(0)), 9, 2.0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(busy::solve_preemptive_bounded(inst));
  }
  state.SetComplexityN(state.range(0));
}
// Range extended from 256 to 8192 in PR 4: the OpenSet removed the
// per-job full-scan/re-union, so the path now scales with the others.
BENCHMARK(BM_PreemptiveBounded)->Range(16, 8192)->Complexity();

void BM_PreemptiveBoundedBursty(benchmark::State& state) {
  const auto inst = bursty_instance(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(busy::solve_preemptive_bounded(inst));
  }
}
BENCHMARK(BM_PreemptiveBoundedBursty)
    ->Name("BM_PreemptiveBounded/bursty_g8")
    ->Arg(1024)
    ->Unit(benchmark::kMicrosecond);

// The checker on the bounded algorithm's bursty schedule (range = n), and
// the frozen per-machine checker on the same schedule.
void BM_CheckPreemptive(benchmark::State& state) {
  const auto inst = bursty_instance(static_cast<int>(state.range(0)));
  const auto sched = busy::solve_preemptive_bounded(inst).schedule;
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::check_preemptive_schedule(inst, sched));
  }
}
BENCHMARK(BM_CheckPreemptive)
    ->Name("BM_CheckPreemptive/bursty_g8")
    ->Arg(1024)
    ->Unit(benchmark::kMicrosecond);

void BM_CheckPreemptiveNaive(benchmark::State& state) {
  const auto inst = bursty_instance(static_cast<int>(state.range(0)));
  const auto sched = busy::solve_preemptive_bounded(inst).schedule;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        busy::oracle::check_preemptive_schedule(inst, sched));
  }
}
BENCHMARK(BM_CheckPreemptiveNaive)
    ->Name("BM_CheckPreemptiveNaive/bursty_g8")
    ->Arg(1024)
    ->Unit(benchmark::kMicrosecond);

// The busy-schedule checker and the busy-time measure on the greedy
// tracking pipeline's bursty schedule (range = n), and the frozen
// per-machine versions on the same schedule.
core::BusySchedule bursty_busy_schedule(const core::ContinuousInstance& inst) {
  const auto sched =
      engine::shared_registry()
          .run("busy/pipeline-greedy-tracking", core::make_instance(inst))
          .busy;
  return sched.value_or(core::BusySchedule{});
}

void BM_CheckBusy(benchmark::State& state) {
  const auto inst = bursty_instance(static_cast<int>(state.range(0)));
  const auto sched = bursty_busy_schedule(inst);
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::check_busy_schedule(inst, sched));
  }
}
BENCHMARK(BM_CheckBusy)
    ->Name("BM_CheckBusy/bursty_g8")
    ->Arg(1024)
    ->Unit(benchmark::kMicrosecond);

void BM_CheckBusyNaive(benchmark::State& state) {
  const auto inst = bursty_instance(static_cast<int>(state.range(0)));
  const auto sched = bursty_busy_schedule(inst);
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::oracle::check_busy_schedule(inst, sched));
  }
}
BENCHMARK(BM_CheckBusyNaive)
    ->Name("BM_CheckBusyNaive/bursty_g8")
    ->Arg(1024)
    ->Unit(benchmark::kMicrosecond);

void BM_BusyCost(benchmark::State& state) {
  const auto inst = bursty_instance(static_cast<int>(state.range(0)));
  const auto sched = bursty_busy_schedule(inst);
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::busy_cost(inst, sched));
  }
}
BENCHMARK(BM_BusyCost)
    ->Name("BM_BusyCost/bursty_g8")
    ->Arg(1024)
    ->Unit(benchmark::kMicrosecond);

void BM_BusyCostNaive(benchmark::State& state) {
  const auto inst = bursty_instance(static_cast<int>(state.range(0)));
  const auto sched = bursty_busy_schedule(inst);
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::oracle::busy_cost(inst, sched));
  }
}
BENCHMARK(BM_BusyCostNaive)
    ->Name("BM_BusyCostNaive/bursty_g8")
    ->Arg(1024)
    ->Unit(benchmark::kMicrosecond);

void BM_WeightedExactBudget(benchmark::State& state) {
  // Anytime incumbent quality vs budget: one fixed weighted instance past
  // the measured exact gate (n = 22 vs gate 14), solved repeatedly under
  // the budget given as the range argument (ms). The interesting output
  // is the counters — the incumbent's cost and its certified gap against
  // the mass/span bound shrink as the budget grows — while the measured
  // time simply tracks the budget.
  core::Rng rng(7);
  gen::WeightedParams params;
  params.num_jobs = 22;
  params.capacity = 3;
  params.horizon = 6.0 + 22 / 4.0;  // the gate sweep's moderate density
  const busy::WeightedInstance inst = gen::random_weighted(rng, params);
  const double budget_ms = static_cast<double>(state.range(0));
  const core::ContinuousInstance unweighted = inst.unweighted();
  double cost = 0.0;
  double proven = 0.0;
  for (auto _ : state) {
    const core::RunContext ctx =
        core::RunContext::with_budget_ms(budget_ms).restarted();
    const busy::ExactBusyResult result = busy::solve_exact_busy(inst, {&ctx});
    cost = core::busy_cost(unweighted, result.schedule);
    proven = result.proven_optimal ? 1.0 : 0.0;
    benchmark::DoNotOptimize(result);
  }
  const double lb = std::max(inst.mass_lower_bound(), inst.span_lower_bound());
  state.counters["incumbent_cost"] = cost;
  state.counters["gap"] = lb > 0.0 ? (cost - lb) / lb : 0.0;
  state.counters["proven_optimal"] = proven;
}
BENCHMARK(BM_WeightedExactBudget)
    ->Arg(5)
    ->Arg(20)
    ->Arg(80)
    ->Arg(320)
    ->Unit(benchmark::kMillisecond);

/// The campaign's `weighted` scenario shape: g = 8, horizon 10 + n/4.
busy::WeightedInstance make_weighted(int n) {
  core::Rng rng(7);
  gen::WeightedParams params;
  params.num_jobs = n;
  params.capacity = 8;
  params.horizon = 10.0 + n / 4.0;
  return gen::random_weighted(rng, params);
}

// Width-aware FIRSTFIT on the shared first-fit driver (O(log k) index probe
// per machine tried, idle machines skipped) against the frozen
// copy-and-rescan loop it replaced (tests/oracles/weighted_oracle.hpp), which
// copied every tried machine's runs and rescanned them in O(k^2).
void BM_WeightedFirstFit(benchmark::State& state) {
  const auto inst = make_weighted(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(busy::weighted_first_fit(inst));
  }
}
BENCHMARK(BM_WeightedFirstFit)
    ->Arg(256)
    ->Arg(1024)
    ->Unit(benchmark::kMicrosecond);

void BM_WeightedFirstFitNaive(benchmark::State& state) {
  const auto inst = make_weighted(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(busy::oracle::weighted_first_fit(inst));
  }
}
BENCHMARK(BM_WeightedFirstFitNaive)
    ->Arg(256)
    ->Arg(1024)
    ->Unit(benchmark::kMillisecond);

// --- Scheduler overhead: persistent work-stealing pool vs the frozen ---
// --- PR 6 spawn-per-call engine (the naive denominator).              ---

namespace naive_sched {

// The PR 6 engine, frozen verbatim so the scheduler curve keeps an honest
// denominator: a pool is constructed PER parallel_for call, every cell is
// a heap-allocated closure pushed through one mutex-guarded queue, and the
// workers are joined when the call ends.
class SpawnPool {
 public:
  explicit SpawnPool(int threads) {
    const int count = std::max(1, threads);
    workers_.reserve(static_cast<std::size_t>(count));
    for (int i = 0; i < count; ++i) {
      workers_.emplace_back([this] { worker_loop(); });
    }
  }

  ~SpawnPool() {
    {
      std::unique_lock<std::mutex> lock(mutex_);
      stopping_ = true;
    }
    work_ready_.notify_all();
    for (std::thread& worker : workers_) worker.join();
  }

  void submit(std::function<void()> task) {
    {
      std::unique_lock<std::mutex> lock(mutex_);
      queue_.push_back(std::move(task));
    }
    work_ready_.notify_one();
  }

  void wait_idle() {
    std::unique_lock<std::mutex> lock(mutex_);
    all_idle_.wait(lock, [this] { return queue_.empty() && busy_ == 0; });
  }

 private:
  void worker_loop() {
    for (;;) {
      std::function<void()> task;
      {
        std::unique_lock<std::mutex> lock(mutex_);
        work_ready_.wait(lock,
                         [this] { return stopping_ || !queue_.empty(); });
        if (queue_.empty()) return;
        task = std::move(queue_.front());
        queue_.pop_front();
        ++busy_;
      }
      task();
      {
        std::unique_lock<std::mutex> lock(mutex_);
        --busy_;
        if (queue_.empty() && busy_ == 0) all_idle_.notify_all();
      }
    }
  }

  std::mutex mutex_;
  std::condition_variable work_ready_;
  std::condition_variable all_idle_;
  std::deque<std::function<void()>> queue_;
  std::vector<std::thread> workers_;
  std::size_t busy_ = 0;
  bool stopping_ = false;
};

void parallel_for(int threads, std::size_t items,
                  const std::function<void(std::size_t)>& fn) {
  if (threads <= 1 || items <= 1) {
    for (std::size_t i = 0; i < items; ++i) {
      engine::begin_cell();
      fn(i);
    }
    return;
  }
  SpawnPool pool(static_cast<int>(
      std::min<std::size_t>(static_cast<std::size_t>(threads), items)));
  for (std::size_t i = 0; i < items; ++i) {
    pool.submit([&fn, i] {
      engine::begin_cell();
      fn(i);
    });
  }
  pool.wait_idle();
}

}  // namespace naive_sched

/// The many-small-cell workload both scheduler benchmarks dispatch: cell i
/// mixes its index through a few dozen integer rounds and stores the
/// result into slot i. The cell body is ~100 ns on purpose — this
/// benchmark isolates dispatch cost (spawn, wakeup, queue traffic,
/// per-cell allocation), which is what the two engines differ in; the
/// end-to-end view with real solver cells is BM_CampaignThroughput.
struct SmallCellWorkload {
  explicit SmallCellWorkload(std::size_t cells) : results(cells, 0) {}

  std::vector<std::uint64_t> results;

  [[nodiscard]] std::function<void(std::size_t)> fn() {
    return [this](std::size_t i) {
      std::uint64_t h = static_cast<std::uint64_t>(i) * 0x9E3779B97F4A7C15ULL;
      for (int round = 0; round < 32; ++round) {
        h ^= h >> 33;
        h *= 0xFF51AFD7ED558CCDULL;
      }
      results[i] = h;
      benchmark::DoNotOptimize(results[i]);
    };
  }
};

constexpr std::size_t kSchedulerCells = 1024;

void BM_SchedulerOverhead(benchmark::State& state) {
  // Persistent work-stealing pool (PR 7): workers are spawned once and
  // reused across every iteration; cells are claimed as index ranges off
  // per-thread deques, no per-cell allocation. The calling thread runs
  // one range, so `threads` threads need threads - 1 workers.
  const int threads = static_cast<int>(state.range(0));
  engine::ThreadPool::shared().resize(engine::resolve_threads(threads) - 1);
  SmallCellWorkload workload(kSchedulerCells);
  const auto fn = workload.fn();
  for (auto _ : state) {
    engine::parallel_for(threads, kSchedulerCells, fn);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kSchedulerCells));
}
BENCHMARK(BM_SchedulerOverhead)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

void BM_SchedulerOverheadNaive(benchmark::State& state) {
  // Frozen PR 6 engine on the identical workload: thread spawn + join per
  // call, one heap closure per cell through a single locked queue.
  const int threads = static_cast<int>(state.range(0));
  SmallCellWorkload workload(kSchedulerCells);
  const auto fn = workload.fn();
  for (auto _ : state) {
    naive_sched::parallel_for(threads, kSchedulerCells, fn);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kSchedulerCells));
}
BENCHMARK(BM_SchedulerOverheadNaive)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

void BM_CampaignThroughput(benchmark::State& state) {
  // End-to-end sweep through the real engine (registry dispatch, scratch
  // arenas, aggregation) at the given thread count — the macro view of
  // what the scheduler rebuild buys a sweep of cheap cells.
  const int threads = static_cast<int>(state.range(0));
  engine::ScenarioSpec spec;
  spec.name = "interval";
  spec.n = 12;
  spec.g = 3;
  spec.seed = 7;
  engine::SweepOptions options;
  options.trials = 32;
  options.threads = threads;
  options.run.solvers = {"busy/first-fit", "busy/greedy-tracking"};
  const core::SolverRegistry& registry = engine::shared_registry();
  std::size_t cells = 0;
  for (auto _ : state) {
    std::string error;
    const auto report = engine::run_sweep(registry, spec, options, &error);
    if (!report.has_value()) state.SkipWithError(error.c_str());
    cells = static_cast<std::size_t>(options.trials) *
            report->aggregates.size();
    benchmark::DoNotOptimize(report);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(cells));
}
BENCHMARK(BM_CampaignThroughput)
    ->Arg(1)
    ->Arg(4)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

// --- Portfolio racing (PR 8): race wall clock vs the contestants run ---
// --- standalone. Two regimes, each measuring the claim where it holds. ---

/// The pair-A instance: weighted n=14 (the measured exact gate), where the
/// exact solver completes in tens of ms and the greedies answer in
/// microseconds but cannot certify the acceptance gap — so the exact run
/// IS the best single contestant, and the race must not cost measurably
/// more than it.
core::ProblemInstance race_gate_instance() {
  engine::ScenarioSpec spec;
  spec.name = "weighted";
  spec.n = 14;
  spec.g = 3;
  spec.seed = 7;
  return *engine::make_scenario(spec);
}

/// The pair-B instance: weighted n=24, past the gate — the exact solver
/// burns its whole budget while narrow/wide answers in microseconds, so
/// under checker-only acceptance the race ends as fast as its quickest
/// contestant and the budget-bound exact run is the worst single.
core::ProblemInstance race_budget_instance() {
  engine::ScenarioSpec spec;
  spec.name = "weighted";
  spec.n = 24;
  spec.g = 3;
  spec.seed = 7;
  return *engine::make_scenario(spec);
}

void BM_PortfolioRace(benchmark::State& state) {
  // Certified-gap acceptance: only the exact contestant can win (the
  // greedies' gaps against the combinatorial bound exceed 2%), so the
  // race's wall clock must track the exact solver's standalone wall
  // clock — the claim is race <= 1.15x best single contestant.
  const core::ProblemInstance inst = race_gate_instance();
  const core::SolverRegistry& registry = engine::shared_registry();
  const std::vector<std::string> entries = {"busy/weighted-exact",
                                            "busy/weighted-narrow-wide",
                                            "busy/weighted-first-fit"};
  engine::RaceOptions options;
  options.threads = static_cast<int>(state.range(0));
  options.accept_gap = 0.02;
  double winner_is_exact = 0.0;
  for (auto _ : state) {
    const engine::RaceReport report =
        engine::race(registry, inst, entries, core::RunContext(), options);
    if (report.winner < 0) state.SkipWithError("race had no winner");
    winner_is_exact =
        report.rows[static_cast<std::size_t>(report.winner)].exact ? 1.0
                                                                   : 0.0;
    benchmark::DoNotOptimize(report);
  }
  state.counters["winner_is_exact"] = winner_is_exact;
}
BENCHMARK(BM_PortfolioRace)
    ->Arg(2)
    ->Arg(4)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

void BM_PortfolioBestSingle(benchmark::State& state) {
  // The denominator for BM_PortfolioRace: the winning contestant
  // standalone (the exact solver, completed, no race around it).
  const core::ProblemInstance inst = race_gate_instance();
  const core::SolverRegistry& registry = engine::shared_registry();
  for (auto _ : state) {
    const core::Solution sol =
        registry.run("busy/weighted-exact", inst, core::RunContext());
    if (!sol.exact) state.SkipWithError("exact run did not complete");
    benchmark::DoNotOptimize(sol);
  }
}
BENCHMARK(BM_PortfolioBestSingle)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

void BM_PortfolioRaceFirstAcceptable(benchmark::State& state) {
  // Checker-only acceptance on the past-the-gate instance: the greedy
  // answers in microseconds, wins, and the race retires the budget-bound
  // exact contestant at its next poll — wall clock far below the worst
  // single contestant (BM_PortfolioWorstSingle's full budget).
  const core::ProblemInstance inst = race_budget_instance();
  const core::SolverRegistry& registry = engine::shared_registry();
  const std::vector<std::string> entries = {"busy/weighted-narrow-wide",
                                            "busy/weighted-exact"};
  engine::RunOptions run_options;
  run_options.budget_ms = 200.0;
  engine::RaceOptions options;
  options.threads = static_cast<int>(state.range(0));
  for (auto _ : state) {
    const core::RunContext parent =
        engine::make_run_context(run_options).restarted();
    const engine::RaceReport report =
        engine::race(registry, inst, entries, parent, options);
    if (report.winner < 0) state.SkipWithError("race had no winner");
    benchmark::DoNotOptimize(report);
  }
}
BENCHMARK(BM_PortfolioRaceFirstAcceptable)
    ->Arg(2)
    ->Arg(4)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

void BM_PortfolioWorstSingle(benchmark::State& state) {
  // The contrast for BM_PortfolioRaceFirstAcceptable: the slowest
  // contestant standalone — the exact solver running its entire 200 ms
  // budget on the past-the-gate instance.
  const core::ProblemInstance inst = race_budget_instance();
  const core::SolverRegistry& registry = engine::shared_registry();
  engine::RunOptions run_options;
  run_options.budget_ms = 200.0;
  for (auto _ : state) {
    const core::RunContext ctx =
        engine::make_run_context(run_options).restarted();
    const core::Solution sol =
        registry.run("busy/weighted-exact", inst, ctx);
    benchmark::DoNotOptimize(sol);
  }
}
BENCHMARK(BM_PortfolioWorstSingle)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

// --- abtd service (PR 10): loopback daemon roundtrips against the same ---
// --- solve run directly in-process, and the cache replay hit path.     ---

/// One weighted instance per seed, shared by the daemon and the direct
/// denominator so both sides solve identical work.
core::ProblemInstance service_instance(int seed) {
  engine::ScenarioSpec spec;
  spec.name = "weighted";
  spec.n = 24;
  spec.g = 3;
  spec.seed = seed;
  return *engine::make_scenario(spec);
}

/// A ready-to-send solve frame for service_instance(seed): one cheap
/// greedy solver, JSON response, generous budget so admission control
/// never shrinks it mid-benchmark.
service::Frame service_frame(int seed) {
  service::SolveRequest request;
  request.solvers = {"busy/weighted-first-fit"};
  request.budget_ms = 1000.0;
  request.instance = service_instance(seed);
  service::Frame frame;
  frame.type = service::FrameType::kSolve;
  std::string error;
  service::write_solve_payload(frame.payload, request, &error);
  return frame;
}

constexpr int kServiceFrames = 64;

void BM_ServiceThroughput(benchmark::State& state) {
  // Full daemon roundtrip per request: connect, frame, admission, queue,
  // dispatcher solve through the engine, JSON render, response frame.
  // The cache is sized to one entry while kServiceFrames distinct
  // requests cycle, so every iteration takes the compute path — the
  // cache replay path is BM_CacheHitLatency.
  service::ServiceConfig config;
  config.tcp_port = 0;
  config.threads = 1;
  config.queue_soft = 64;
  config.queue_cap = 128;
  config.cache_entries = 1;
  service::Server server(engine::shared_registry(), config);
  std::string error;
  if (!server.start(&error)) {
    state.SkipWithError(error.c_str());
    return;
  }
  std::vector<service::Frame> frames;
  frames.reserve(kServiceFrames);
  for (int seed = 0; seed < kServiceFrames; ++seed) {
    frames.push_back(service_frame(seed));
  }
  const service::Address address = server.address();
  std::size_t next = 0;
  for (auto _ : state) {
    const auto exchange =
        service::client_roundtrip(address, frames[next], &error);
    next = (next + 1) % kServiceFrames;
    if (!exchange.has_value() ||
        exchange->final.type != service::FrameType::kOk) {
      state.SkipWithError("daemon roundtrip failed");
      break;
    }
    benchmark::DoNotOptimize(exchange->final.payload);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
  server.stop();
}
BENCHMARK(BM_ServiceThroughput)->Unit(benchmark::kMicrosecond)->UseRealTime();

void BM_ServiceDirectSolve(benchmark::State& state) {
  // The in-process denominator for BM_ServiceThroughput: the identical
  // solver on the identical instance cycle, no socket, no framing, no
  // response rendering. The ratio is the daemon's per-request overhead.
  const core::SolverRegistry& registry = engine::shared_registry();
  std::vector<core::ProblemInstance> instances;
  instances.reserve(kServiceFrames);
  for (int seed = 0; seed < kServiceFrames; ++seed) {
    instances.push_back(service_instance(seed));
  }
  std::size_t next = 0;
  for (auto _ : state) {
    const core::Solution sol = registry.run(
        "busy/weighted-first-fit", instances[next], core::RunContext());
    next = (next + 1) % kServiceFrames;
    benchmark::DoNotOptimize(sol);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_ServiceDirectSolve)->Unit(benchmark::kMicrosecond)->UseRealTime();

void BM_CacheHitLatency(benchmark::State& state) {
  // The replay path: one request primed once, then served bit-identically
  // from the SolutionCache on every iteration — connect, frame, raw-alias
  // lookup, cached payload write-back. The first timed request hits the
  // canonical key and installs the alias; every later one is answered
  // without a parse. No solver runs after the prime.
  service::ServiceConfig config;
  config.tcp_port = 0;
  config.threads = 1;
  service::Server server(engine::shared_registry(), config);
  std::string error;
  if (!server.start(&error)) {
    state.SkipWithError(error.c_str());
    return;
  }
  const service::Frame frame = service_frame(7);
  const service::Address address = server.address();
  const auto primed = service::client_roundtrip(address, frame, &error);
  if (!primed.has_value() ||
      primed->final.type != service::FrameType::kOk) {
    state.SkipWithError("cache prime failed");
    server.stop();
    return;
  }
  for (auto _ : state) {
    const auto exchange = service::client_roundtrip(address, frame, &error);
    if (!exchange.has_value() || !exchange->final.has_flag("cached")) {
      state.SkipWithError("expected a cache replay");
      break;
    }
    benchmark::DoNotOptimize(exchange->final.payload);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
  server.stop();
}
BENCHMARK(BM_CacheHitLatency)->Unit(benchmark::kMicrosecond)->UseRealTime();

void BM_ParseSolvePayload(benchmark::State& state, const char* scenario,
                          int n) {
  // The payload codec alone — request directives, instance parse and the
  // canonical re-write that keys the cache — on the end-to-end
  // benchmark's two request shapes: weighted n=24 with one solver named,
  // interval n=48 with none. abtd pays this on every request its
  // raw-payload alias does not answer: misses, and the first canonical
  // hit of each distinct payload spelling.
  constexpr int kPayloads = 32;
  std::vector<std::string> payloads;
  for (int seed = 0; seed < kPayloads; ++seed) {
    engine::ScenarioSpec spec;
    spec.name = scenario;
    spec.n = n;
    spec.g = 3;
    spec.seed = static_cast<std::uint64_t>(seed + 1);
    service::SolveRequest request;
    if (std::string_view(scenario) == "weighted") {
      request.solvers = {"busy/weighted-first-fit"};
    }
    request.instance = *engine::make_scenario(spec);
    std::string error;
    payloads.emplace_back();
    service::write_solve_payload(payloads.back(), request, &error);
  }
  std::size_t next = 0;
  std::size_t bytes = 0;
  service::SolveRequest parsed;
  for (auto _ : state) {
    std::string error;
    if (!service::parse_solve_payload(payloads[next], &parsed, &error)) {
      state.SkipWithError(error.c_str());
      break;
    }
    bytes += payloads[next].size();
    benchmark::DoNotOptimize(parsed.canonical.data());
    next = (next + 1) % payloads.size();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
  state.SetBytesProcessed(static_cast<std::int64_t>(bytes));
}
BENCHMARK_CAPTURE(BM_ParseSolvePayload, weighted24, "weighted", 24)
    ->Unit(benchmark::kMicrosecond);
BENCHMARK_CAPTURE(BM_ParseSolvePayload, interval48, "interval", 48)
    ->Unit(benchmark::kMicrosecond);

}  // namespace

BENCHMARK_MAIN();
