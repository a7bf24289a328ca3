// The trial-sweep engine: the thread pool itself, and the invariant the
// whole design hangs on — aggregated cost/verdict statistics are a pure
// function of (scenario, seeds, solver subset), identical for every worker
// count.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <limits>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "busy/dp_unbounded.hpp"
#include "core/run_context.hpp"
#include "engine/builtin_solvers.hpp"
#include "engine/campaign.hpp"
#include "engine/parallel.hpp"
#include "engine/runner.hpp"
#include "engine/scratch.hpp"

namespace abt {
namespace {

using core::Solution;

TEST(Parallel, ResolveThreads) {
  EXPECT_EQ(engine::resolve_threads(1), 1);
  EXPECT_EQ(engine::resolve_threads(7), 7);
  EXPECT_GE(engine::resolve_threads(0), 1);
  EXPECT_GE(engine::resolve_threads(-3), 1);
}

TEST(Parallel, ThreadPoolDrainsEveryBatchAndSurvivesResize) {
  std::atomic<int> done{0};
  {
    engine::ThreadPool pool(4);
    EXPECT_EQ(pool.thread_count(), 4);
    pool.parallel_for(100, [&done](std::size_t) { done.fetch_add(1); });
    EXPECT_EQ(done.load(), 100);
    // A second batch reuses the same (still parked) workers.
    pool.parallel_for(50, [&done](std::size_t) { done.fetch_add(1); });
    EXPECT_EQ(done.load(), 150);
    // Shrinking joins surplus workers; the survivors keep serving.
    pool.resize(2);
    EXPECT_EQ(pool.thread_count(), 2);
    pool.parallel_for(50, [&done](std::size_t) { done.fetch_add(1); });
    // Regrowing rebinds the parked slots rather than minting new ones:
    // four worker slots, then the caller slot.
    pool.resize(4);
    EXPECT_EQ(pool.thread_count(), 4);
    EXPECT_EQ(pool.worker_stats().size(), 4u + 1u);
    pool.parallel_for(50, [&done](std::size_t) { done.fetch_add(1); });
  }
  EXPECT_EQ(done.load(), 250);
}

TEST(Parallel, TinyBatchesRunInlineWithCellSemantics) {
  // Satellite fix: batches under the chunk threshold take the serial path
  // WITH begin_cell() per index — identical cell semantics, no pool wakeup.
  const std::size_t before = engine::worker_scratch().cells_served;
  int done = 0;
  engine::parallel_for(
      8, engine::kSerialBatchThreshold - 1,
      [&done](std::size_t) { ++done; });
  EXPECT_EQ(done, static_cast<int>(engine::kSerialBatchThreshold) - 1);
  EXPECT_EQ(engine::worker_scratch().cells_served,
            before + engine::kSerialBatchThreshold - 1)
      << "serial path must run begin_cell() for every index";
}

TEST(Parallel, CancelledBatchDrainsEveryRemainingIndexThroughCallback) {
  core::CancelSource source;
  source.cancel();  // tripped before the batch starts
  std::vector<int> visited(96, 0);
  std::atomic<int> drained{0};
  engine::ParallelOptions options;
  options.cancel = source.token();
  options.on_cancelled = [&](std::size_t i) {
    visited[i] += 1;
    drained.fetch_add(1);
  };
  engine::parallel_for(
      4, visited.size(),
      [&visited](std::size_t i) { visited[i] += 100; }, options);
  for (std::size_t i = 0; i < visited.size(); ++i) {
    EXPECT_EQ(visited[i], 1) << "index " << i
                             << ": drained exactly once, never dispatched";
  }
  EXPECT_EQ(drained.load(), 96);
}

TEST(Parallel, WorkerSlotArenasAreReusedAcrossBatches) {
  // The footprint contract of the persistent pool: per-cell allocations are
  // carved from slot-owned arenas that rewind between cells, so capacity is
  // bounded by the largest single cell — not by how many cells ever ran.
  constexpr std::size_t kCellBytes = std::size_t{32} << 10;
  engine::ThreadPool pool(4);
  const auto run_batch = [&pool] {
    pool.parallel_for(64, [](std::size_t) {
      core::MonotonicArena& arena = core::thread_arena();
      core::ArenaScope scope(arena);
      const std::span<std::byte> bytes =
          arena.alloc<std::byte>(kCellBytes);
      bytes[0] = std::byte{1};  // touch it so the alloc cannot be elided
    });
  };
  for (int i = 0; i < 20; ++i) run_batch();
  // Four worker slots, then the caller slot the calling thread runs its
  // range on; the caller's arena is bounded like a worker's.
  const std::vector<engine::WorkerStats> stats = pool.worker_stats();
  ASSERT_EQ(stats.size(), 4u + 1u);
  std::size_t cells = 0;
  std::uint64_t chunks = 0;
  for (const engine::WorkerStats& s : stats) {
    cells += s.cells_served;
    chunks += s.chunks_claimed;
    EXPECT_LE(s.arena_capacity, std::size_t{256} << 10)
        << "slot arena must stay near one cell's worth, not accumulate";
  }
  EXPECT_EQ(cells, 20u * 64u)
      << "every cell ran on a pool slot, the caller's included";
  EXPECT_GT(stats.back().cells_served, 0u) << "the caller ran no cell";
  EXPECT_GT(stats.back().arena_capacity, 0u);
  EXPECT_GT(chunks, 0u);
}

/// Caller-side cells spin on this (for at most 10 s) until a worker has
/// run a cell, so a test batch provably has both threads taking part.
void wait_for_worker(const std::atomic<bool>& worker_ran) {
  const auto give_up =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (!worker_ran.load() && std::chrono::steady_clock::now() < give_up) {
    std::this_thread::yield();
  }
}

TEST(Parallel, TwoThreadBatchRunsOnTheCallerAndExactlyOneWorker) {
  engine::ThreadPool pool(4);
  const std::vector<engine::WorkerStats> before = pool.worker_stats();
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<std::thread::id> ran_on(64);
  std::atomic<bool> worker_ran{false};
  pool.parallel_for(
      ran_on.size(),
      [&](std::size_t i) {
        ran_on[i] = std::this_thread::get_id();
        if (ran_on[i] != caller) {
          worker_ran.store(true);
        } else {
          wait_for_worker(worker_ran);
        }
      },
      2);
  const std::set<std::thread::id> threads(ran_on.begin(), ran_on.end());
  EXPECT_EQ(threads.size(), 2u) << "the caller and one worker";
  EXPECT_EQ(threads.count(caller), 1u)
      << "the calling thread runs its share";
  // Only the first worker slot took part; the other three were not in
  // the batch, and the caller's cells are counted on the caller slot.
  const std::vector<engine::WorkerStats> after = pool.worker_stats();
  ASSERT_EQ(after.size(), 4u + 1u);
  EXPECT_GT(after[0].cells_served, before[0].cells_served);
  for (std::size_t w = 1; w < 4; ++w) {
    EXPECT_EQ(after[w].cells_served, before[w].cells_served) << "slot " << w;
    EXPECT_EQ(after[w].chunks_claimed, before[w].chunks_claimed)
        << "slot " << w;
  }
  EXPECT_GT(after.back().cells_served, before.back().cells_served);
  EXPECT_EQ(after[0].cells_served + after.back().cells_served -
                before[0].cells_served - before.back().cells_served,
            64u);
}

TEST(Parallel, TwoThreadBatchCutsOnlyBetweenGroups) {
  // 24 groups of 3..7 cells; the even split (59) falls inside group 12,
  // cells 57..61. Both threads run cells at the same pace once the worker
  // has started, so each walks its initial range and steals at the end.
  // The caller's range starts at a group start, and only a tail steal
  // inside the one group left may split a group.
  std::vector<std::size_t> starts;
  std::vector<std::size_t> group_of;
  for (std::size_t g = 0; g < 24; ++g) {
    starts.push_back(group_of.size());
    group_of.insert(group_of.end(), 3 + g % 5, g);
  }
  engine::ThreadPool pool(1);
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<std::thread::id> ran_on(group_of.size());
  std::atomic<bool> worker_ran{false};
  std::size_t caller_first = ran_on.size();  // written by the caller only
  engine::ParallelOptions options;
  options.group_starts = starts;
  pool.parallel_for(
      ran_on.size(),
      [&](std::size_t i) {
        ran_on[i] = std::this_thread::get_id();
        if (ran_on[i] != caller) {
          worker_ran.store(true);
        } else {
          if (caller_first == ran_on.size()) caller_first = i;
          wait_for_worker(worker_ran);
        }
        std::this_thread::sleep_for(std::chrono::microseconds(100));
      },
      2, options);
  EXPECT_TRUE(caller_first == 57 || caller_first == 62)
      << "the caller's range starts at cell " << caller_first;
  std::vector<std::set<std::thread::id>> threads_of(starts.size());
  for (std::size_t i = 0; i < ran_on.size(); ++i) {
    threads_of[group_of[i]].insert(ran_on[i]);
  }
  const auto split = std::count_if(
      threads_of.begin(), threads_of.end(),
      [](const std::set<std::thread::id>& t) { return t.size() > 1; });
  EXPECT_LE(split, 1) << "a cut fell inside a group";
}

TEST(Parallel, NestedCallFromTheCallersShareRunsInline) {
  engine::ThreadPool pool(2);
  const std::thread::id caller = std::this_thread::get_id();
  std::atomic<int> nested_on_caller{0};
  std::atomic<int> nested_elsewhere{0};
  pool.parallel_for(
      16,
      [&](std::size_t) {
        if (std::this_thread::get_id() != caller) return;
        const std::thread::id outer = std::this_thread::get_id();
        const auto inner = [&](std::size_t) {
          (std::this_thread::get_id() == outer ? nested_on_caller
                                               : nested_elsewhere)
              .fetch_add(1);
        };
        pool.parallel_for(8, inner);
        engine::parallel_for(4, 8, inner);
      },
      2);
  EXPECT_GT(nested_on_caller.load(), 0) << "the caller ran no cell";
  EXPECT_EQ(nested_on_caller.load() % 16, 0);
  EXPECT_EQ(nested_elsewhere.load(), 0)
      << "a nested call from the caller's share must run inline";
}

TEST(Parallel, ParallelForVisitsEachIndexExactlyOnce) {
  for (const int threads : {1, 3, 8}) {
    std::vector<std::atomic<int>> hits(257);
    for (auto& h : hits) h.store(0);
    engine::parallel_for(threads, hits.size(), [&](std::size_t i) {
      hits[i].fetch_add(1);
    });
    for (std::size_t i = 0; i < hits.size(); ++i) {
      EXPECT_EQ(hits[i].load(), 1) << "index " << i << ", " << threads
                                   << " threads";
    }
  }
}

engine::SweepReport sweep_with_threads(const std::string& scenario, int n,
                                       int g, int trials, int threads) {
  engine::ScenarioSpec spec;
  spec.name = scenario;
  spec.n = n;
  spec.g = g;
  spec.seed = 42;
  spec.slack = 1.2;
  engine::SweepOptions options;
  options.trials = trials;
  options.threads = threads;
  std::string error;
  const auto report = engine::run_sweep(engine::shared_registry(), spec,
                                        options, &error);
  EXPECT_TRUE(report.has_value()) << error;
  return *report;
}

/// The satellite requirement verbatim: same seeds => identical aggregates,
/// --threads 1 vs --threads 8. Wall-clock fields are exempt (they measure
/// the machine, not the algorithms).
TEST(TrialSweep, AggregatesAreDeterministicAcrossThreadCounts) {
  for (const char* scenario : {"interval", "flexible", "weighted"}) {
    const engine::SweepReport one = sweep_with_threads(scenario, 10, 3, 8, 1);
    const engine::SweepReport eight =
        sweep_with_threads(scenario, 10, 3, 8, 8);

    ASSERT_EQ(one.cells.size(), eight.cells.size()) << scenario;
    for (std::size_t t = 0; t < one.cells.size(); ++t) {
      EXPECT_EQ(one.cells[t].lower_bound.value,
                eight.cells[t].lower_bound.value);
      EXPECT_EQ(one.cells[t].lower_bound.kind,
                eight.cells[t].lower_bound.kind);
      ASSERT_EQ(one.cells[t].solutions.size(),
                eight.cells[t].solutions.size());
      for (std::size_t s = 0; s < one.cells[t].solutions.size(); ++s) {
        const Solution& a = one.cells[t].solutions[s];
        const Solution& b = eight.cells[t].solutions[s];
        EXPECT_EQ(a.solver, b.solver);
        EXPECT_EQ(a.ok, b.ok);
        EXPECT_EQ(a.feasible, b.feasible);
        EXPECT_EQ(a.exact, b.exact);
        EXPECT_EQ(a.cost, b.cost) << scenario << " " << a.solver
                                  << ": costs must match bit for bit";
      }
    }

    ASSERT_EQ(one.aggregates.size(), eight.aggregates.size()) << scenario;
    for (std::size_t i = 0; i < one.aggregates.size(); ++i) {
      const engine::SolverAggregate& a = one.aggregates[i];
      const engine::SolverAggregate& b = eight.aggregates[i];
      EXPECT_EQ(a.solver, b.solver);
      EXPECT_EQ(a.runs, b.runs);
      EXPECT_EQ(a.ok, b.ok);
      EXPECT_EQ(a.feasible, b.feasible);
      EXPECT_EQ(a.exact_runs, b.exact_runs);
      EXPECT_EQ(a.declined, b.declined);
      EXPECT_EQ(a.timed_out, b.timed_out);
      EXPECT_EQ(a.runs, a.ok + a.declined) << a.solver;
      EXPECT_EQ(a.ratio_count, b.ratio_count);
      EXPECT_EQ(a.ratio_mean, b.ratio_mean) << scenario << " " << a.solver;
      EXPECT_EQ(a.ratio_median, b.ratio_median);
      EXPECT_EQ(a.ratio_p95, b.ratio_p95);
      EXPECT_EQ(a.ratio_max, b.ratio_max);
    }
  }
}

/// PR 7 steal-order suite: an irregular workload (un-budgeted exact cells
/// costing milliseconds next to greedy cells costing microseconds) is
/// exactly where work stealing reshuffles execution order the most. Any
/// thread count, any steal order, repeated runs — one fingerprint.
TEST(TrialSweep, StealOrderCannotPerturbAggregates) {
  const auto fingerprint = [](const engine::SweepReport& report) {
    std::vector<double> out;
    for (const engine::RunReport& cell : report.cells) {
      out.push_back(cell.lower_bound.value);
      for (const Solution& sol : cell.solutions) {
        out.push_back(sol.cost);
        out.push_back(sol.ok ? 1.0 : 0.0);
        out.push_back(sol.exact ? 1.0 : 0.0);
      }
    }
    for (const engine::SolverAggregate& agg : report.aggregates) {
      out.push_back(agg.ratio_mean);
      out.push_back(agg.ratio_max);
    }
    return out;
  };
  const auto run = [&fingerprint](int threads) {
    engine::ScenarioSpec spec;
    spec.name = "weighted";
    spec.n = 11;  // inside the exact gate: no budget, so cells are exact
    spec.g = 3;
    spec.seed = 29;
    spec.slack = 1.2;
    engine::SweepOptions options;
    options.trials = 10;
    options.threads = threads;
    options.run.solvers = {"busy/weighted-exact", "busy/weighted-flexible"};
    std::string error;
    const auto report = engine::run_sweep(engine::shared_registry(), spec,
                                          options, &error);
    EXPECT_TRUE(report.has_value()) << error;
    return fingerprint(*report);
  };
  const std::vector<double> base = run(1);
  ASSERT_FALSE(base.empty());
  for (const int threads : {1, 2, 8}) {
    // Repeats at one thread count exercise different steal interleavings
    // on the warm pool; across thread counts the partition itself changes.
    const int reps = threads == 8 ? 3 : 1;
    for (int rep = 0; rep < reps; ++rep) {
      EXPECT_EQ(run(threads), base)
          << threads << " threads, repetition " << rep;
    }
  }
}

/// Back-to-back sweeps go through the shared persistent pool: no new
/// worker slots appear, and the warm slots' arena footprint stops growing.
TEST(TrialSweep, BackToBackSweepsReuseTheSharedPool) {
  const auto footprint = [] {
    std::size_t total = 0;
    for (const engine::WorkerStats& s :
         engine::ThreadPool::shared().worker_stats()) {
      total += s.arena_capacity;
    }
    return total;
  };
  const auto cells_served = [] {
    std::size_t total = 0;
    for (const engine::WorkerStats& s :
         engine::ThreadPool::shared().worker_stats()) {
      total += s.cells_served;
    }
    return total;
  };
  // Two warm-up sweeps so every slot has seen this workload's cells.
  sweep_with_threads("interval", 10, 3, 6, 4);
  sweep_with_threads("interval", 10, 3, 6, 4);
  const std::size_t slots = engine::ThreadPool::shared().worker_stats().size();
  EXPECT_GE(slots, 4u);
  const std::size_t warm_footprint = footprint();
  const std::size_t warm_cells = cells_served();
  EXPECT_GT(warm_cells, 0u) << "sweep cells must run on pool worker slots";
  for (int i = 0; i < 3; ++i) sweep_with_threads("interval", 10, 3, 6, 4);
  EXPECT_EQ(engine::ThreadPool::shared().worker_stats().size(), slots)
      << "no new worker slots for a repeat of the same sweep";
  EXPECT_GT(cells_served(), warm_cells);
  EXPECT_LE(footprint(), warm_footprint + (std::size_t{64} << 10))
      << "warm worker arenas must be reused, not regrown per sweep";
}

TEST(TrialSweep, EveryCellIsCheckerValidated) {
  const engine::SweepReport report =
      sweep_with_threads("interval", 10, 3, 6, 4);
  EXPECT_EQ(report.trials, 6);
  int ok_cells = 0;
  for (const engine::RunReport& cell : report.cells) {
    EXPECT_GT(cell.lower_bound.value, 0.0);
    for (const Solution& sol : cell.solutions) {
      if (!sol.ok) continue;
      ++ok_cells;
      EXPECT_TRUE(sol.feasible) << sol.solver << ": " << sol.message;
    }
  }
  EXPECT_GT(ok_cells, 0);
  // Ratios are measured against per-trial lower bounds: never below 1 for
  // non-preemptive solvers, and the aggregate reflects that.
  for (const engine::SolverAggregate& agg : report.aggregates) {
    if (agg.ratio_count == 0 || agg.solver == "busy/preemptive") continue;
    EXPECT_GE(agg.ratio_mean, 1.0 - 1e-9) << agg.solver;
    EXPECT_LE(agg.ratio_median, agg.ratio_p95 + 1e-12) << agg.solver;
    EXPECT_LE(agg.ratio_p95, agg.ratio_max + 1e-12) << agg.solver;
  }
}

TEST(TrialSweep, ExplicitSubsetAndUnknownNamesGetRowsInEveryCell) {
  engine::ScenarioSpec spec;
  spec.name = "slotted";
  spec.n = 8;
  spec.g = 2;
  spec.seed = 5;
  engine::SweepOptions options;
  options.trials = 4;
  options.threads = 2;
  options.run.solvers = {"active/lp-rounding", "active/no-such-solver"};
  std::string error;
  const auto report = engine::run_sweep(engine::shared_registry(), spec,
                                        options, &error);
  ASSERT_TRUE(report.has_value()) << error;
  for (const engine::RunReport& cell : report->cells) {
    ASSERT_EQ(cell.solutions.size(), 2u);
    EXPECT_EQ(cell.solutions[0].solver, "active/lp-rounding");
    EXPECT_EQ(cell.solutions[1].solver, "active/no-such-solver");
    EXPECT_FALSE(cell.solutions[1].ok);
    EXPECT_EQ(cell.solutions[1].message, "unknown solver");
  }
  ASSERT_EQ(report->aggregates.size(), 2u);
  EXPECT_EQ(report->aggregates[1].runs, 4);
  EXPECT_EQ(report->aggregates[1].ok, 0);
}

/// The cancellation contract: a cancelled sweep declines every cell
/// promptly ("cancelled" rows, no solver work), instead of grinding
/// through the remaining grid.
TEST(TrialSweep, CancellationStopsASweepPromptly) {
  core::CancelSource source;
  source.cancel();  // cancelled before any cell runs
  engine::ScenarioSpec spec;
  spec.name = "weighted";
  spec.n = 13;  // inside the exact gate: a full sweep would be seconds
  spec.g = 3;
  spec.seed = 3;
  engine::SweepOptions options;
  options.trials = 8;
  options.threads = 2;
  options.run.cancel = source.token();
  std::string error;
  const auto report = engine::run_sweep(engine::shared_registry(), spec,
                                        options, &error);
  ASSERT_TRUE(report.has_value()) << error;
  for (const engine::RunReport& cell : report->cells) {
    for (const Solution& sol : cell.solutions) {
      EXPECT_FALSE(sol.ok);
      EXPECT_EQ(sol.message, "cancelled");
      EXPECT_TRUE(sol.timed_out);
    }
  }
  for (const engine::SolverAggregate& agg : report->aggregates) {
    EXPECT_EQ(agg.ok, 0) << agg.solver;
    EXPECT_EQ(agg.declined, agg.runs) << agg.solver;
  }
}

/// A budgeted sweep past the measured gate: every weighted-exact cell
/// reports (completed or timed out with an incumbent), none refuses.
TEST(TrialSweep, BudgetedSweepRunsExactPastTheGate) {
  engine::ScenarioSpec spec;
  spec.name = "weighted";
  spec.n = 18;  // past the free-run gate of 14
  spec.g = 3;
  spec.seed = 5;
  engine::SweepOptions options;
  options.trials = 3;
  options.threads = 2;
  options.run.solvers = {"busy/weighted-exact"};
  options.run.budget_ms = 40;
  std::string error;
  const auto report = engine::run_sweep(engine::shared_registry(), spec,
                                        options, &error);
  ASSERT_TRUE(report.has_value()) << error;
  EXPECT_EQ(report->budget_ms, 40.0);
  ASSERT_EQ(report->aggregates.size(), 1u);
  const engine::SolverAggregate& agg = report->aggregates[0];
  EXPECT_EQ(agg.ok, 3);
  EXPECT_EQ(agg.feasible, 3) << "incumbents must pass the checker";
  EXPECT_EQ(agg.declined, 0);
  EXPECT_EQ(agg.exact_runs + agg.timed_out, 3)
      << "every cell either proves optimality or times out";
  for (const engine::RunReport& cell : report->cells) {
    for (const Solution& sol : cell.solutions) {
      ASSERT_TRUE(sol.ok) << sol.message;
      if (sol.timed_out) {
        EXPECT_GT(sol.best_bound, 0.0);
        EXPECT_GE(sol.cost, sol.best_bound - 1e-9);
      }
    }
  }
}

TEST(TrialSweep, UnknownScenarioFailsWithError) {
  engine::ScenarioSpec spec;
  spec.name = "no-such-scenario";
  std::string error;
  EXPECT_FALSE(engine::run_sweep(engine::shared_registry(), spec, {}, &error)
                   .has_value());
  EXPECT_FALSE(error.empty());
}

TEST(TrialSweep, WritersCarryTheAggregates) {
  const engine::SweepReport report =
      sweep_with_threads("multi-window", 6, 2, 4, 2);

  std::ostringstream table;
  engine::print_sweep(table, report);
  EXPECT_NE(table.str().find("active/multi-window-minimal"),
            std::string::npos);
  EXPECT_NE(table.str().find("4 trials"), std::string::npos);

  std::ostringstream csv;
  engine::write_sweep_csv(csv, report);
  EXPECT_NE(csv.str().find("solver,runs,ok,feasible"), std::string::npos);

  std::ostringstream json;
  engine::write_sweep_json(json, report);
  EXPECT_NE(json.str().find("\"aggregates\""), std::string::npos);
  EXPECT_NE(json.str().find("\"cells\""), std::string::npos);
  EXPECT_NE(json.str().find("\"scenario\": \"multi-window\""),
            std::string::npos);
}

// ---------------------------------------------------------------------------
// Campaigns: a scenario grid through one shared pool.

TEST(Campaign, ExpandGridIsScenarioMajorCrossProduct) {
  engine::CampaignGrid grid;
  grid.scenarios = {"interval", "flexible"};
  grid.ns = {8, 12};
  grid.gs = {2, 3};
  grid.base.seed = 9;
  const auto points = engine::expand_grid(grid);
  ASSERT_EQ(points.size(), 8u);
  EXPECT_EQ(points[0].name, "interval");
  EXPECT_EQ(points[0].n, 8);
  EXPECT_EQ(points[0].g, 2);
  EXPECT_EQ(points[1].g, 3);
  EXPECT_EQ(points[4].name, "flexible");
  for (const engine::ScenarioSpec& spec : points) EXPECT_EQ(spec.seed, 9u);
}

TEST(Campaign, ParseFileFormatAndRejectBadDirectives) {
  std::istringstream good(
      "# tiny grid\n"
      "scenario interval weighted\n"
      "n 8 10\n"
      "g 3\n"
      "trials 2\n"
      "seed 21\n");
  std::string error;
  const auto grid = engine::parse_campaign(good, &error);
  ASSERT_TRUE(grid.has_value()) << error;
  EXPECT_EQ(grid->scenarios.size(), 2u);
  EXPECT_EQ(grid->ns.size(), 2u);
  EXPECT_EQ(grid->trials, 2);
  EXPECT_EQ(grid->base.seed, 21u);
  EXPECT_EQ(engine::expand_grid(*grid).size(), 4u);

  // A CLI-provided base seeds the shared knobs; file directives override.
  engine::ScenarioSpec base;
  base.seed = 99;
  base.slack = 2.5;
  std::istringstream with_base("scenario interval\nseed 3\n");
  const auto seeded = engine::parse_campaign(with_base, &error, base);
  ASSERT_TRUE(seeded.has_value()) << error;
  EXPECT_EQ(seeded->base.seed, 3u) << "file directive wins";
  EXPECT_EQ(seeded->base.slack, 2.5) << "base knob carries when file silent";

  std::istringstream unknown("scenario interval\nbogus 3\n");
  EXPECT_FALSE(engine::parse_campaign(unknown, &error).has_value());
  EXPECT_NE(error.find("line 2"), std::string::npos) << error;

  std::istringstream empty("n 8\n");
  EXPECT_FALSE(engine::parse_campaign(empty, &error).has_value());
}

TEST(Campaign, ExpandGridCrossesSlackAndHorizonAxes) {
  engine::CampaignGrid grid;
  grid.scenarios = {"flexible"};
  grid.ns = {8};
  grid.gs = {3};
  grid.slacks = {0.5, 1.5};
  grid.horizons = {12.0, 18.0};
  const auto points = engine::expand_grid(grid);
  ASSERT_EQ(points.size(), 4u);
  // slack-major over horizon: (0.5,12), (0.5,18), (1.5,12), (1.5,18).
  EXPECT_EQ(points[0].slack, 0.5);
  EXPECT_EQ(points[0].horizon, 12.0);
  EXPECT_EQ(points[1].slack, 0.5);
  EXPECT_EQ(points[1].horizon, 18.0);
  EXPECT_EQ(points[2].slack, 1.5);
  EXPECT_EQ(points[3].horizon, 18.0);

  // Empty axes still borrow the base knobs.
  grid.slacks.clear();
  grid.horizons.clear();
  grid.base.slack = 2.5;
  grid.base.horizon = 7.0;
  const auto borrowed = engine::expand_grid(grid);
  ASSERT_EQ(borrowed.size(), 1u);
  EXPECT_EQ(borrowed[0].slack, 2.5);
  EXPECT_EQ(borrowed[0].horizon, 7.0);
}

TEST(Campaign, ParseSolverSubsetsAndAxisDirectives) {
  std::istringstream good(
      "scenario interval flexible\n"
      "n 8\n"
      "slack 0.5 1.5\n"
      "horizon 12 18\n"
      "solvers busy/first-fit busy/greedy-tracking\n"
      "solvers:flexible busy/greedy-tracking\n");
  std::string error;
  const auto grid = engine::parse_campaign(good, &error);
  ASSERT_TRUE(grid.has_value()) << error;
  EXPECT_EQ(grid->slacks, (std::vector<double>{0.5, 1.5}));
  EXPECT_EQ(grid->horizons, (std::vector<double>{12.0, 18.0}));
  ASSERT_EQ(grid->solvers.size(), 2u);
  EXPECT_EQ(grid->solvers[0], "busy/first-fit");
  // The per-scenario override wins for its scenario, the grid-wide list
  // serves everything else.
  EXPECT_EQ(engine::grid_solvers(*grid, "flexible"),
            (std::vector<std::string>{"busy/greedy-tracking"}));
  EXPECT_EQ(engine::grid_solvers(*grid, "interval"), grid->solvers);
  EXPECT_EQ(engine::expand_grid(*grid).size(), 8u);

  std::istringstream stray(
      "scenario interval\nsolvers:weighted busy/weighted-first-fit\n");
  EXPECT_FALSE(engine::parse_campaign(stray, &error).has_value());
  EXPECT_NE(error.find("names no scenario"), std::string::npos) << error;

  std::istringstream nameless("scenario interval\nsolvers:\n");
  EXPECT_FALSE(engine::parse_campaign(nameless, &error).has_value());
  EXPECT_NE(error.find("line 2"), std::string::npos) << error;

  std::istringstream bare("scenario interval\nsolvers\n");
  EXPECT_FALSE(engine::parse_campaign(bare, &error).has_value());
  EXPECT_NE(error.find("line 2"), std::string::npos) << error;

  std::istringstream twice(
      "scenario interval\nsolvers busy/first-fit\nsolvers busy/exact\n");
  EXPECT_FALSE(engine::parse_campaign(twice, &error).has_value());
  EXPECT_NE(error.find("duplicate"), std::string::npos) << error;

  std::istringstream negative("scenario interval\nslack -1\n");
  EXPECT_FALSE(engine::parse_campaign(negative, &error).has_value());
  EXPECT_NE(error.find(">= 0"), std::string::npos) << error;
}

TEST(Campaign, GridSolverSubsetsRestrictEachPointsPlan) {
  engine::CampaignGrid grid;
  grid.scenarios = {"interval", "weighted"};
  grid.ns = {8};
  grid.gs = {3};
  grid.base.seed = 5;
  grid.solvers = {"busy/first-fit"};
  grid.scenario_solvers["weighted"] = {"busy/weighted-first-fit"};
  engine::CampaignOptions options;
  options.trials = 2;
  std::string error;
  const auto report = engine::run_campaign(engine::shared_registry(), grid,
                                           options, &error);
  ASSERT_TRUE(report.has_value()) << error;
  ASSERT_EQ(report->points.size(), 2u);
  for (const engine::CampaignPoint& point : report->points) {
    const std::string expected = point.spec.name == "weighted"
                                     ? "busy/weighted-first-fit"
                                     : "busy/first-fit";
    EXPECT_EQ(point.solvers, std::vector<std::string>{expected});
    ASSERT_EQ(point.aggregates.size(), 1u) << point.spec.name;
    EXPECT_EQ(point.aggregates[0].solver, expected);
  }

  // The writers carry the new point fields.
  std::ostringstream csv;
  engine::write_campaign_csv(csv, *report);
  EXPECT_NE(csv.str().find("slack"), std::string::npos);
  EXPECT_NE(csv.str().find("horizon"), std::string::npos);
  std::ostringstream json;
  engine::write_campaign_json(json, *report);
  EXPECT_NE(json.str().find("\"slack\""), std::string::npos);
  EXPECT_NE(json.str().find("\"solvers\": [\"busy/first-fit\"]"),
            std::string::npos);
}

TEST(Campaign, ExactFrontierPresetDeclaresAxesAndSubsets) {
  const auto grid = engine::campaign_preset("exact-frontier");
  ASSERT_TRUE(grid.has_value());
  EXPECT_FALSE(grid->horizons.empty());
  EXPECT_FALSE(grid->solvers.empty());
  ASSERT_TRUE(grid->scenario_solvers.count("weighted-flexible") == 1);
  // Every named solver must exist in the builtin registry.
  const auto& registry = engine::shared_registry();
  for (const std::string& name : grid->solvers) {
    EXPECT_NE(registry.find(name), nullptr) << name;
  }
  for (const auto& [scenario, subset] : grid->scenario_solvers) {
    for (const std::string& name : subset) {
      EXPECT_NE(registry.find(name), nullptr) << scenario << ": " << name;
    }
  }
}

TEST(Campaign, PresetsResolveAndUnknownNamesDoNot) {
  EXPECT_FALSE(engine::campaign_presets().empty());
  for (const engine::CampaignPresetInfo& info : engine::campaign_presets()) {
    const auto grid = engine::campaign_preset(info.name);
    ASSERT_TRUE(grid.has_value()) << info.name;
    EXPECT_GE(engine::expand_grid(*grid).size(), 4u) << info.name;
  }
  EXPECT_FALSE(engine::campaign_preset("no-such-preset").has_value());
}

engine::CampaignReport campaign_with_threads(int threads) {
  engine::CampaignGrid grid;
  grid.scenarios = {"interval", "weighted"};
  grid.ns = {8, 10};
  grid.gs = {3};
  grid.base.seed = 17;
  engine::CampaignOptions options;
  options.trials = 3;
  options.threads = threads;
  std::string error;
  const auto report = engine::run_campaign(engine::shared_registry(), grid,
                                           options, &error);
  EXPECT_TRUE(report.has_value()) << error;
  return *report;
}

/// The satellite requirement for campaigns: identical grids => identical
/// per-point cost/verdict aggregates for any worker count (no budget in
/// play), because every cell writes only its own slot of the shared pool's
/// fan-out.
TEST(Campaign, AggregatesDeterministicAcrossThreadCounts) {
  const engine::CampaignReport one = campaign_with_threads(1);
  const engine::CampaignReport four = campaign_with_threads(4);
  ASSERT_EQ(one.points.size(), 4u);
  ASSERT_EQ(one.points.size(), four.points.size());
  for (std::size_t p = 0; p < one.points.size(); ++p) {
    const engine::CampaignPoint& a = one.points[p];
    const engine::CampaignPoint& b = four.points[p];
    EXPECT_EQ(a.spec.name, b.spec.name);
    EXPECT_EQ(a.cells, b.cells);
    EXPECT_EQ(a.ok_cells, b.ok_cells);
    EXPECT_EQ(a.infeasible_cells, 0);
    ASSERT_EQ(a.aggregates.size(), b.aggregates.size()) << a.spec.name;
    for (std::size_t i = 0; i < a.aggregates.size(); ++i) {
      const engine::SolverAggregate& x = a.aggregates[i];
      const engine::SolverAggregate& y = b.aggregates[i];
      EXPECT_EQ(x.solver, y.solver);
      EXPECT_EQ(x.runs, y.runs);
      EXPECT_EQ(x.ok, y.ok);
      EXPECT_EQ(x.feasible, y.feasible);
      EXPECT_EQ(x.exact_runs, y.exact_runs);
      EXPECT_EQ(x.declined, y.declined);
      EXPECT_EQ(x.timed_out, y.timed_out);
      EXPECT_EQ(x.ratio_mean, y.ratio_mean)
          << a.spec.name << " " << x.solver << ": bit-identical or bust";
      EXPECT_EQ(x.ratio_median, y.ratio_median);
      EXPECT_EQ(x.ratio_p95, y.ratio_p95);
      EXPECT_EQ(x.ratio_max, y.ratio_max);
    }
  }
}

/// A campaign point must report exactly what a standalone sweep of the
/// same spec reports — the aggregation path is shared, not parallel.
TEST(Campaign, PointMatchesStandaloneSweep) {
  const engine::CampaignReport campaign = campaign_with_threads(2);
  const engine::CampaignPoint& point = campaign.points.front();

  engine::SweepOptions options;
  options.trials = campaign.trials;
  options.threads = 1;
  std::string error;
  const auto sweep = engine::run_sweep(engine::shared_registry(), point.spec,
                                       options, &error);
  ASSERT_TRUE(sweep.has_value()) << error;
  ASSERT_EQ(sweep->aggregates.size(), point.aggregates.size());
  for (std::size_t i = 0; i < point.aggregates.size(); ++i) {
    EXPECT_EQ(point.aggregates[i].solver, sweep->aggregates[i].solver);
    EXPECT_EQ(point.aggregates[i].feasible, sweep->aggregates[i].feasible);
    EXPECT_EQ(point.aggregates[i].ratio_mean,
              sweep->aggregates[i].ratio_mean)
        << point.aggregates[i].solver;
  }
}

TEST(Campaign, CancelledCampaignDeclinesAllCells) {
  core::CancelSource source;
  source.cancel();
  engine::CampaignGrid grid;
  grid.scenarios = {"interval", "flexible"};
  grid.ns = {8, 12};
  grid.gs = {3};
  engine::CampaignOptions options;
  options.trials = 2;
  options.threads = 2;
  options.run.cancel = source.token();
  std::string error;
  const auto report = engine::run_campaign(engine::shared_registry(), grid,
                                           options, &error);
  ASSERT_TRUE(report.has_value()) << error;
  for (const engine::CampaignPoint& point : report->points) {
    EXPECT_EQ(point.ok_cells, 0);
    EXPECT_GT(point.cells, 0);
  }
}

TEST(Campaign, BadGridPointFailsUpFrontWithContext) {
  engine::CampaignGrid grid;
  grid.scenarios = {"fig3"};
  grid.ns = {8};
  grid.gs = {2};  // fig3 requires g >= 3
  std::string error;
  EXPECT_FALSE(engine::run_campaign(engine::shared_registry(), grid, {},
                                    &error)
                   .has_value());
  EXPECT_NE(error.find("fig3"), std::string::npos) << error;
}

TEST(Campaign, OutOfRangeEpsFailsWithThePointsError) {
  std::istringstream file(
      "scenario fig6\n"
      "n 8\n"
      "g 3\n"
      "eps 3\n");
  std::string error;
  const auto grid = engine::parse_campaign(file, &error);
  ASSERT_TRUE(grid.has_value()) << error;
  EXPECT_FALSE(engine::run_campaign(engine::shared_registry(), *grid, {},
                                    &error)
                   .has_value());
  EXPECT_EQ(error, "point fig6 n=8 g=3: fig6 requires 0 < eps < 1/2 (got 3)");
}

TEST(Campaign, WritersCarryThePoints) {
  const engine::CampaignReport report = campaign_with_threads(2);

  std::ostringstream table;
  engine::print_campaign(table, report);
  EXPECT_NE(table.str().find("4 grid points"), std::string::npos);
  EXPECT_NE(table.str().find("weighted"), std::string::npos);

  std::ostringstream csv;
  engine::write_campaign_csv(csv, report);
  EXPECT_NE(csv.str().find("scenario,n,g,seed,slack,horizon,solver"),
            std::string::npos);

  std::ostringstream json;
  engine::write_campaign_json(json, report);
  EXPECT_NE(json.str().find("\"campaign\""), std::string::npos);
  EXPECT_NE(json.str().find("\"points\""), std::string::npos);
  EXPECT_NE(json.str().find("\"declined\""), std::string::npos);
}

TEST(Campaign, ReportsGenerationTimeInsideTheWallClock) {
  const engine::CampaignReport report = campaign_with_threads(2);
  EXPECT_GT(report.generate_ms, 0.0);
  EXPECT_LE(report.generate_ms, report.wall_ms);

  std::ostringstream table;
  engine::print_campaign(table, report);
  EXPECT_NE(table.str().find(" ms total (generation "), std::string::npos)
      << table.str();
  std::ostringstream json;
  engine::write_campaign_json(json, report);
  EXPECT_NE(json.str().find("\"generate_ms\": "), std::string::npos)
      << json.str();
}

// ---------------------------------------------------------------------------
// The one cell fan-out and the one request path.

void expect_same_rows(const std::vector<Solution>& a,
                      const std::vector<Solution>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].solver, b[i].solver);
    EXPECT_EQ(a[i].ok, b[i].ok) << a[i].solver;
    EXPECT_EQ(a[i].feasible, b[i].feasible) << a[i].solver;
    EXPECT_EQ(a[i].cost, b[i].cost) << a[i].solver;
    EXPECT_EQ(a[i].machines, b[i].machines) << a[i].solver;
    EXPECT_EQ(a[i].message, b[i].message) << a[i].solver;
  }
}

TEST(RunCells, OneReportPerInputMatchingStandaloneRuns) {
  const core::SolverRegistry& registry = engine::shared_registry();
  std::vector<engine::CellInput> inputs;
  for (const char* name : {"interval", "slotted", "weighted"}) {
    engine::ScenarioSpec spec;
    spec.name = name;
    spec.n = 8;
    spec.seed = 4;
    auto inst = engine::make_scenario(spec);
    ASSERT_TRUE(inst.has_value()) << name;
    inputs.push_back({std::move(*inst), {}});
  }
  inputs[1].solvers = {"active/minimal-feasible", "no-such-solver"};

  // Mixed families and solver lists in one batch over four workers: each
  // report equals a serial standalone run of its input.
  const std::vector<engine::RunReport> reports =
      engine::run_cells(registry, inputs, {}, 4);
  ASSERT_EQ(reports.size(), inputs.size());
  ASSERT_EQ(reports[1].solutions.size(), 2u);
  EXPECT_EQ(reports[1].solutions[1].message, "unknown solver");
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    engine::RunOptions options;
    options.solvers = inputs[i].solvers;
    const engine::RunReport alone =
        engine::run_instance(registry, inputs[i].instance, options);
    EXPECT_EQ(reports[i].instance.kind, inputs[i].instance.kind);
    EXPECT_EQ(reports[i].lower_bound.value, alone.lower_bound.value);
    EXPECT_EQ(reports[i].lower_bound.kind, alone.lower_bound.kind);
    expect_same_rows(reports[i].solutions, alone.solutions);
  }
}

TEST(Execute, SolveRowsAreIdenticalForEveryThreadCount) {
  engine::ScenarioSpec spec;
  spec.name = "flexible";
  spec.n = 16;
  spec.seed = 9;
  auto inst = engine::make_scenario(spec);
  ASSERT_TRUE(inst.has_value());
  engine::Request request;
  request.instance = std::move(*inst);

  const engine::Response serial =
      engine::execute(engine::shared_registry(), request, {}, 1);
  ASSERT_FALSE(serial.rows.empty());
  EXPECT_EQ(serial.exit, 0);
  for (const int threads : {2, 4}) {
    const engine::Response fanned =
        engine::execute(engine::shared_registry(), request, {}, threads);
    expect_same_rows(fanned.rows, serial.rows);
    EXPECT_EQ(fanned.exit, serial.exit);
  }

  // The payload is the report rendered in the requested format.
  request.format = engine::Format::kCsv;
  const engine::Response csv =
      engine::execute(engine::shared_registry(), request, {}, 1);
  EXPECT_EQ(csv.payload.rfind("solver,cost,", 0), 0u) << csv.payload;
}

TEST(Execute, RaceAtOneThreadCrownsTheFirstAcceptableEntry) {
  engine::ScenarioSpec spec;
  spec.name = "interval";
  spec.n = 12;
  auto inst = engine::make_scenario(spec);
  ASSERT_TRUE(inst.has_value());
  engine::Request request;
  request.instance = std::move(*inst);
  request.race = true;
  request.solvers = {"busy/greedy-tracking", "busy/first-fit"};
  const engine::Response response =
      engine::execute(engine::shared_registry(), request, {}, 1);
  ASSERT_EQ(response.rows.size(), 2u);
  EXPECT_TRUE(response.rows[0].ok && response.rows[0].feasible);
  EXPECT_EQ(response.exit, 0);
  EXPECT_NE(response.payload.find(
                "\"winner_solver\": \"busy/greedy-tracking\""),
            std::string::npos)
      << response.payload;
}

TEST(Execute, ExitContract) {
  Solution fine;
  fine.ok = fine.feasible = true;
  Solution broken;
  broken.ok = true;  // produced a schedule the checker rejected
  Solution declined;
  EXPECT_EQ(engine::exit_code({fine, declined}, true), 0);
  EXPECT_EQ(engine::exit_code({declined}, false), 1);
  EXPECT_EQ(engine::exit_code({fine, broken}, true), 2);
  EXPECT_EQ(engine::exit_code({broken}, false), 2);

  // Nothing solved: an infeasible instance declines every solver.
  engine::Request request;
  request.instance =
      core::make_instance(core::SlottedInstance({{0, 2, 2}, {0, 2, 2}}, 1));
  const engine::Response response =
      engine::execute(engine::shared_registry(), request, {}, 1);
  ASSERT_FALSE(response.rows.empty());
  EXPECT_EQ(response.exit, 1);
}

// ----------------------------------------------------------------------
// The shared g = infinity DP: one memo entry per worker, keyed on the
// instance's bytes, serving the pipelines, dp-unbounded and the span bound.

core::ProblemInstance scenario_instance(const std::string& name, int n, int g,
                                        std::uint64_t seed) {
  engine::ScenarioSpec spec;
  spec.name = name;
  spec.n = n;
  spec.g = g;
  spec.seed = seed;
  auto inst = engine::make_scenario(spec);
  EXPECT_TRUE(inst.has_value()) << name;
  return std::move(*inst);
}

/// Overwrites the calling thread's memo with an unrelated instance.
void chill_memo() {
  const core::ProblemInstance other = scenario_instance("interval", 3, 2, 99);
  ASSERT_TRUE(
      engine::shared_unbounded(other.continuous, core::RunContext{}).exact);
}

void expect_same_row(const Solution& a, const Solution& b,
                     const std::string& label) {
  EXPECT_EQ(a.ok, b.ok) << label;
  EXPECT_EQ(a.feasible, b.feasible) << label;
  EXPECT_EQ(a.exact, b.exact) << label;
  EXPECT_EQ(a.timed_out, b.timed_out) << label;
  EXPECT_EQ(a.message, b.message) << label;
  EXPECT_EQ(a.cost, b.cost) << label;
  EXPECT_EQ(a.machines, b.machines) << label;
  EXPECT_EQ(a.stats, b.stats) << label;
  ASSERT_EQ(a.busy.has_value(), b.busy.has_value()) << label;
  if (!a.busy.has_value()) return;
  ASSERT_EQ(a.busy->placements.size(), b.busy->placements.size()) << label;
  for (std::size_t j = 0; j < a.busy->placements.size(); ++j) {
    EXPECT_EQ(a.busy->placements[j].machine, b.busy->placements[j].machine)
        << label << " job " << j;
    EXPECT_EQ(a.busy->placements[j].start, b.busy->placements[j].start)
        << label << " job " << j;
  }
}

TEST(SharedDp, RowsIdenticalWhetherTheMemoWasColdOrWarm) {
  const auto& registry = engine::shared_registry();
  std::vector<core::ProblemInstance> instances;
  for (const char* name : {"flexible", "bursty"}) {
    for (const int n : {8, 33, 256, 1024}) {
      instances.push_back(scenario_instance(name, n, 8, 11));
    }
  }
  for (const int g : {2, 3, 5}) {
    instances.push_back(scenario_instance("fig6", 0, g, 1));
    instances.push_back(scenario_instance("fig10", 0, g, 1));
  }
  for (std::size_t i = 0; i < instances.size(); ++i) {
    const core::ProblemInstance& inst = instances[i];
    for (const char* name :
         {"busy/pipeline-greedy-tracking", "busy/pipeline-two-track-peeling",
          "busy/pipeline-first-fit", "busy/dp-unbounded"}) {
      const core::Solver* solver = registry.find(name);
      ASSERT_NE(solver, nullptr) << name;
      const std::string label = "instance " + std::to_string(i) + " " + name;
      chill_memo();
      const engine::WorkerScratch& scratch = engine::worker_scratch();
      const std::size_t misses = scratch.dp_misses;
      const std::size_t hits = scratch.dp_hits;
      const Solution cold = registry.run(*solver, inst, core::RunContext{});
      const Solution warm = registry.run(*solver, inst, core::RunContext{});
      expect_same_row(cold, warm, label);
      if (cold.ok || cold.stat("dp_states", 0.0) > 0.0) {
        // The solver consumed the DP: one solve, then one hit.
        EXPECT_EQ(scratch.dp_misses, misses + 1) << label;
        EXPECT_EQ(scratch.dp_hits, hits + 1) << label;
      }
    }
  }
}

TEST(SharedDp, OneUlpDeadlineChangeMisses) {
  const core::ProblemInstance inst = scenario_instance("flexible", 64, 4, 3);
  std::vector<core::ContinuousJob> jobs = inst.continuous.jobs();
  jobs[17].deadline = std::nextafter(jobs[17].deadline,
                                     std::numeric_limits<double>::infinity());
  const core::ContinuousInstance nudged(std::move(jobs),
                                        inst.continuous.capacity());
  const core::RunContext free_run;
  const engine::WorkerScratch& scratch = engine::worker_scratch();

  (void)engine::shared_unbounded(inst.continuous, free_run);
  const std::size_t misses = scratch.dp_misses;
  const std::size_t hits = scratch.dp_hits;
  (void)engine::shared_unbounded(inst.continuous, free_run);
  EXPECT_EQ(scratch.dp_hits, hits + 1);
  const busy::UnboundedSolution& got =
      engine::shared_unbounded(nudged, free_run);
  EXPECT_EQ(scratch.dp_misses, misses + 1) << "a one-ulp change must miss";
  const busy::UnboundedSolution want = busy::solve_unbounded(nudged);
  EXPECT_EQ(got.starts, want.starts);
  EXPECT_EQ(got.busy_time, want.busy_time);
}

TEST(SharedDp, TimedOutSolveIsNotPublished) {
  const core::ProblemInstance inst = scenario_instance("flexible", 1024, 8, 4);
  chill_memo();
  core::CancelSource source;
  source.cancel();
  core::RunContext cancelled;
  cancelled.set_cancel_token(source.token());
  const engine::WorkerScratch& scratch = engine::worker_scratch();
  const std::size_t misses = scratch.dp_misses;

  const busy::UnboundedSolution& stopped =
      engine::shared_unbounded(inst.continuous, cancelled);
  EXPECT_TRUE(stopped.timed_out);
  EXPECT_FALSE(stopped.exact);
  const busy::UnboundedSolution& free_run =
      engine::shared_unbounded(inst.continuous, core::RunContext{});
  EXPECT_TRUE(free_run.exact) << "a timed-out solve was served";
  EXPECT_FALSE(free_run.timed_out);
  EXPECT_EQ(scratch.dp_misses, misses + 2);
  EXPECT_EQ(free_run.starts, busy::solve_unbounded(inst.continuous).starts);
}

TEST(SharedDp, SerialRunInstanceSolvesTheDpOnce) {
  // n <= the span-bound cap (48), so the runner's span bound would want the
  // DP as well when no row reports it.
  const core::ProblemInstance inst = scenario_instance("flexible", 40, 8, 6);
  chill_memo();
  const engine::WorkerScratch& scratch = engine::worker_scratch();
  const std::size_t misses = scratch.dp_misses;
  const std::size_t hits = scratch.dp_hits;
  const engine::RunReport report =
      engine::run_instance(engine::shared_registry(), inst, {});
  // Three pipelines and dp-unbounded consume it; the span bound is
  // harvested from their rows.
  int consumers = 0;
  for (const Solution& sol : report.solutions) {
    if (sol.solver.find("pipeline") != std::string::npos ||
        sol.solver == "busy/dp-unbounded") {
      ++consumers;
    }
  }
  EXPECT_EQ(consumers, 4);
  EXPECT_EQ(scratch.dp_misses, misses + 1);
  EXPECT_EQ(scratch.dp_hits, hits + 3);

  // A run whose rows report no opt_inf computes the span bound itself,
  // from the same memo.
  engine::RunOptions options;
  options.solvers = {"busy/first-fit"};
  const engine::RunReport bound_only =
      engine::run_instance(engine::shared_registry(), inst, options);
  EXPECT_EQ(scratch.dp_misses, misses + 1);
  EXPECT_EQ(scratch.dp_hits, hits + 4);
  EXPECT_EQ(bound_only.lower_bound.value, report.lower_bound.value);
  EXPECT_EQ(bound_only.lower_bound.kind, report.lower_bound.kind);
}

engine::CampaignReport flexible_campaign_with_threads(int threads) {
  engine::CampaignGrid grid;
  grid.scenarios = {"flexible", "bursty"};
  grid.ns = {64, 256};
  grid.gs = {3, 8};
  grid.base.seed = 23;
  engine::CampaignOptions options;
  options.trials = 3;
  options.threads = threads;
  std::string error;
  const auto report = engine::run_campaign(engine::shared_registry(), grid,
                                           options, &error);
  EXPECT_TRUE(report.has_value()) << error;
  return *report;
}

/// With the DP shared per worker, which consumer pays for it depends on
/// the schedule, but no row may: aggregates stay bit-identical.
TEST(Campaign, SharedDpAggregatesDeterministicAcrossThreadCounts) {
  const engine::CampaignReport one = flexible_campaign_with_threads(1);
  for (const int threads : {2, 4}) {
    const engine::CampaignReport many = flexible_campaign_with_threads(threads);
    ASSERT_EQ(one.points.size(), 8u);
    ASSERT_EQ(one.points.size(), many.points.size());
    for (std::size_t p = 0; p < one.points.size(); ++p) {
      const engine::CampaignPoint& a = one.points[p];
      const engine::CampaignPoint& b = many.points[p];
      EXPECT_EQ(a.spec.name, b.spec.name);
      EXPECT_EQ(a.cells, b.cells);
      EXPECT_EQ(a.ok_cells, b.ok_cells);
      EXPECT_EQ(a.infeasible_cells, 0);
      ASSERT_EQ(a.aggregates.size(), b.aggregates.size()) << a.spec.name;
      for (std::size_t i = 0; i < a.aggregates.size(); ++i) {
        const engine::SolverAggregate& x = a.aggregates[i];
        const engine::SolverAggregate& y = b.aggregates[i];
        EXPECT_EQ(x.solver, y.solver);
        EXPECT_EQ(x.runs, y.runs);
        EXPECT_EQ(x.ok, y.ok);
        EXPECT_EQ(x.feasible, y.feasible);
        EXPECT_EQ(x.exact_runs, y.exact_runs);
        EXPECT_EQ(x.declined, y.declined);
        EXPECT_EQ(x.timed_out, y.timed_out);
        EXPECT_EQ(x.ratio_mean, y.ratio_mean)
            << a.spec.name << " " << x.solver << " threads=" << threads;
        EXPECT_EQ(x.ratio_median, y.ratio_median);
        EXPECT_EQ(x.ratio_p95, y.ratio_p95);
        EXPECT_EQ(x.ratio_max, y.ratio_max);
      }
    }
  }
}

/// The scheduler cuts between instances, so a 2-thread run_cells pays the
/// g = infinity DP about once per instance: a split inside an instance
/// costs its second thread a solve, and only a tail steal inside the last
/// instance may do that.
TEST(SharedDp, TwoThreadRunCellsSplitsOnlyBetweenInstances) {
  const auto misses = [] {
    std::size_t total = 0;
    for (const engine::WorkerStats& s :
         engine::ThreadPool::shared().worker_stats()) {
      total += s.dp_misses;
    }
    return total;
  };
  std::vector<engine::CellInput> inputs;
  for (std::uint64_t seed = 0; seed < 12; ++seed) {
    inputs.push_back({scenario_instance("flexible", 40, 4, 700 + seed), {}});
  }
  const std::size_t instances = inputs.size();
  const std::size_t before = misses();
  const std::vector<engine::RunReport> reports =
      engine::run_cells(engine::shared_registry(), std::move(inputs),
                        core::RunContext{}, 2);
  ASSERT_EQ(reports.size(), instances);
  EXPECT_LE(misses() - before, instances + 1)
      << "the DP ran more than once per instance";
}

}  // namespace
}  // namespace abt
