// Portfolio racing: the determinism contract (which contestant wins is
// timing-dependent, everything reported about the winner is not), the
// cancellation-storm stability of the shared pool underneath back-to-back
// races, and the campaign integration. The race-equivalence property —
// winner cost == a standalone run of that solver, all-exact races report a
// bit-identical fingerprint for every thread count and repetition — is
// what makes racing safe to put in front of users: faster, never
// different.
#include <gtest/gtest.h>

#include <limits>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "core/run_context.hpp"
#include "core/solver.hpp"
#include "engine/builtin_solvers.hpp"
#include "engine/campaign.hpp"
#include "engine/parallel.hpp"
#include "engine/portfolio.hpp"
#include "engine/runner.hpp"

namespace abt {
namespace {

using core::ProblemInstance;
using core::RunContext;
using core::Solution;
using engine::RaceOptions;
using engine::RaceReport;

ProblemInstance scenario_instance(const std::string& name, int n, int g,
                                  std::uint64_t seed = 7) {
  engine::ScenarioSpec spec;
  spec.name = name;
  spec.n = n;
  spec.g = g;
  spec.seed = seed;
  std::string error;
  const auto inst = engine::make_scenario(spec, &error);
  EXPECT_TRUE(inst.has_value()) << name << ": " << error;
  return *inst;
}

/// One representative (scenario, size, exact solver) per instance kind —
/// small enough that every exact solver is inside its ungated size range.
struct KindCase {
  const char* scenario;
  int n;
  int g;
  const char* exact_solver;
};

const std::vector<KindCase>& kind_cases() {
  static const std::vector<KindCase> kCases = {
      {"interval", 10, 3, "busy/exact"},
      {"slotted", 8, 2, "active/exact"},
      {"weighted", 10, 3, "busy/weighted-exact"},
      {"multi-window", 6, 2, "active/multi-window-exact"},
  };
  return kCases;
}

TEST(Portfolio, WinnerIsCheckerVerifiedAndMatchesStandaloneRun) {
  const core::SolverRegistry& registry = engine::shared_registry();
  for (const KindCase& kind : kind_cases()) {
    const ProblemInstance inst =
        scenario_instance(kind.scenario, kind.n, kind.g);
    const std::vector<std::string> entries =
        engine::auto_entries(registry, inst);
    ASSERT_FALSE(entries.empty()) << kind.scenario;
    // 0 is the CLI's default (resolved to hardware concurrency), not a
    // synonym for the serial path.
    for (const int threads : {0, 1, 2, 8}) {
      RaceOptions options;
      options.threads = threads;
      const RaceReport report =
          engine::race(registry, inst, entries, RunContext(), options);
      ASSERT_EQ(report.rows.size(), entries.size());
      ASSERT_GE(report.winner, 0)
          << kind.scenario << " at " << threads << " threads";
      const Solution& winner =
          report.rows[static_cast<std::size_t>(report.winner)];
      EXPECT_TRUE(winner.ok);
      EXPECT_TRUE(winner.feasible) << winner.solver << ": " << winner.message;
      EXPECT_FALSE(winner.timed_out);
      // Race equivalence: the winner's cost is exactly what a standalone
      // run of that solver reports — racing changes the wall clock, never
      // the answer attributed to a solver.
      engine::RunOptions standalone;
      standalone.solvers = {winner.solver};
      const engine::RunReport ref =
          engine::run_instance(registry, inst, standalone);
      ASSERT_EQ(ref.solutions.size(), 1u);
      EXPECT_TRUE(ref.solutions[0].feasible);
      EXPECT_EQ(winner.cost, ref.solutions[0].cost)
          << winner.solver << " raced vs standalone, " << threads
          << " threads";
    }
  }
}

TEST(Portfolio, AllExactRaceFingerprintIsThreadAndRepetitionInvariant) {
  // Duplicate entries of the kind's exact solver: WHICH copy wins depends
  // on timing, but every copy that completes proves the same optimum, so
  // the reported (cost, exact, best_bound, feasible) fingerprint must be
  // bit-identical across thread counts and repetitions.
  const core::SolverRegistry& registry = engine::shared_registry();
  for (const KindCase& kind : kind_cases()) {
    const ProblemInstance inst =
        scenario_instance(kind.scenario, kind.n, kind.g);
    const std::vector<std::string> entries(3, kind.exact_solver);
    std::set<std::tuple<double, bool, bool, double>> fingerprints;
    for (const int threads : {0, 1, 2, 8}) {
      const int reps = threads == 8 ? 3 : 1;
      for (int rep = 0; rep < reps; ++rep) {
        RaceOptions options;
        options.threads = threads;
        const RaceReport report =
            engine::race(registry, inst, entries, RunContext(), options);
        ASSERT_GE(report.winner, 0) << kind.scenario;
        const Solution& winner =
            report.rows[static_cast<std::size_t>(report.winner)];
        EXPECT_TRUE(winner.exact) << kind.scenario;
        fingerprints.insert({winner.cost, winner.feasible, winner.exact,
                             report.best_bound});
      }
    }
    EXPECT_EQ(fingerprints.size(), 1u)
        << kind.scenario << ": all-exact races must agree bit-for-bit";
  }
}

TEST(Portfolio, SingleThreadRaceIsFirstAcceptableInEntryOrder) {
  // At one thread the race runs inline and sequentially: the first entry
  // that passes acceptance wins, deterministically, and later entries are
  // drained as cancelled without running.
  const core::SolverRegistry& registry = engine::shared_registry();
  const ProblemInstance inst = scenario_instance("weighted", 10, 3);
  const std::vector<std::string> entries = {"busy/weighted-narrow-wide",
                                            "busy/weighted-first-fit"};
  RaceOptions options;
  options.threads = 1;
  for (int rep = 0; rep < 3; ++rep) {
    const RaceReport report =
        engine::race(registry, inst, entries, RunContext(), options);
    EXPECT_EQ(report.winner, 0);
    EXPECT_EQ(report.rows[1].message, "cancelled");
    EXPECT_TRUE(report.rows[1].timed_out);
    EXPECT_EQ(report.cancelled, 1);
  }
}

TEST(Portfolio, DefaultThreadsRaceRunsContestantsConcurrently) {
  // Regression: threads = 0 (the CLI default for --race without
  // --threads) must fan out over the pool, not fall into parallel_for's
  // serial path. With the slow exact solver listed FIRST and no budget, a
  // sequential race deterministically runs it to completion, crowns it,
  // and drains the greedy without ever running it; a concurrent race lets
  // the microsecond greedy finish (and almost always win) while the exact
  // search is still working.
  if (std::thread::hardware_concurrency() < 2) {
    GTEST_SKIP() << "needs >= 2 pool workers to observe concurrency";
  }
  const core::SolverRegistry& registry = engine::shared_registry();
  const ProblemInstance inst = scenario_instance("weighted", 12, 3);
  const std::vector<std::string> entries = {"busy/weighted-exact",
                                            "busy/weighted-first-fit"};
  bool greedy_ran = false;
  for (int rep = 0; rep < 5 && !greedy_ran; ++rep) {
    const RaceReport report =
        engine::race(registry, inst, entries, RunContext(), {});
    ASSERT_GE(report.winner, 0);
    const Solution& winner =
        report.rows[static_cast<std::size_t>(report.winner)];
    EXPECT_TRUE(winner.feasible) << winner.solver << ": " << winner.message;
    // Serial would leave the greedy drained (ok = false, "cancelled") in
    // every rep; concurrency means it actually ran in at least one.
    greedy_ran = report.winner == 1 || report.rows[1].ok;
  }
  EXPECT_TRUE(greedy_ran)
      << "threads = 0 raced sequentially: the greedy entry never ran";
}

TEST(Portfolio, OwnBudgetExpiryIsNotCountedAsCancelled) {
  // Contestants that exhaust the caller's budget were not interrupted by
  // the race: with an unattainable acceptance gap nobody wins, the race
  // source never trips, and `cancelled` must stay 0 even though every row
  // is timed out.
  const core::SolverRegistry& registry = engine::shared_registry();
  const ProblemInstance inst = scenario_instance("weighted", 22, 3);
  const std::vector<std::string> entries = {"busy/weighted-exact",
                                            "busy/weighted-exact"};
  RaceOptions options;
  options.accept_gap = 1e-9;
  const RaceReport report = engine::race(
      registry, inst, entries, RunContext::with_budget_ms(10).restarted(),
      options);
  EXPECT_EQ(report.winner, -1);
  for (const Solution& sol : report.rows) {
    ASSERT_TRUE(sol.ok) << sol.solver << ": " << sol.message;
    EXPECT_TRUE(sol.timed_out) << sol.solver;
  }
  EXPECT_EQ(report.cancelled, 0)
      << "budget expiry misreported as race cancellation";
}

TEST(Portfolio, CallerAbortedRaceDeclaresNoWinner) {
  // The caller cancels mid-run (here: from the incumbent hook, which the
  // child context inherits, so the abort lands while the contestant is
  // working). The interrupted contestant still returns a checker-verified
  // incumbent — which must surface as best effort, never as WINNER: an
  // externally aborted race did not finish.
  const core::SolverRegistry& registry = engine::shared_registry();
  const ProblemInstance inst = scenario_instance("weighted", 12, 3);
  core::CancelSource source;
  RunContext parent;
  parent.set_cancel_token(source.token());
  parent.set_incumbent_hook(
      [&source](const core::Incumbent&) { source.cancel(); });
  RaceOptions options;
  options.threads = 1;
  const RaceReport report = engine::race(
      registry, inst, {"busy/weighted-exact"}, parent, options);
  EXPECT_EQ(report.winner, -1)
      << "a race the caller aborted must not report a winner";
  ASSERT_EQ(report.rows.size(), 1u);
  EXPECT_TRUE(report.rows[0].ok);
  EXPECT_TRUE(report.rows[0].feasible) << report.rows[0].message;
  EXPECT_EQ(report.best, 0);  // the incumbent stays visible as best effort
}

TEST(Portfolio, ReportsTightestCertifiedBound) {
  const core::SolverRegistry& registry = engine::shared_registry();
  const ProblemInstance inst = scenario_instance("weighted", 10, 3);
  // Reference bound alone (greedy-only race, no certificates beyond the
  // combinatorial reference):
  const RaceReport greedy = engine::race(
      registry, inst, {"busy/weighted-first-fit"}, RunContext(), {});
  EXPECT_GT(greedy.reference.value, 0.0);
  EXPECT_GE(greedy.best_bound, greedy.reference.value);
  // An exact completion certifies OPT: the race's bound must tighten to
  // exactly the winner's cost.
  RaceOptions serial;
  serial.threads = 1;
  const RaceReport exact =
      engine::race(registry, inst, {"busy/weighted-exact"},
                   RunContext(), serial);
  ASSERT_GE(exact.winner, 0);
  const Solution& winner =
      exact.rows[static_cast<std::size_t>(exact.winner)];
  ASSERT_TRUE(winner.exact);
  EXPECT_EQ(exact.best_bound, winner.cost);
  EXPECT_GE(exact.best_bound, greedy.best_bound);
}

/// The JSON string a double is written as inside write_race_json.
std::string json_number(double value) {
  std::ostringstream os;
  os.precision(std::numeric_limits<double>::max_digits10);
  os << value;
  return os.str();
}

TEST(Portfolio, RaceJsonSummarizesTheWinnersCostAndGap) {
  const core::SolverRegistry& registry = engine::shared_registry();
  const ProblemInstance inst = scenario_instance("weighted", 10, 3);
  RaceOptions serial;
  serial.threads = 1;
  // A greedy winner: gap against the race's tightest bound.
  const RaceReport greedy =
      engine::race(registry, inst, {"busy/weighted-first-fit"},
                   RunContext(), serial);
  ASSERT_EQ(greedy.winner, 0);
  ASSERT_GT(greedy.best_bound, 0.0);
  std::ostringstream greedy_json;
  engine::write_race_json(greedy_json, inst, greedy);
  const double cost = greedy.rows[0].cost;
  const std::string gap = json_number(cost / greedy.best_bound - 1.0);
  EXPECT_NE(greedy_json.str().find("\"winner_cost\": " + json_number(cost) +
                                   ", \"winner_gap\": " + gap + ","),
            std::string::npos)
      << greedy_json.str();
  // An exact winner certifies its own cost: the gap is exactly zero.
  const RaceReport exact = engine::race(
      registry, inst, {"busy/weighted-exact"}, RunContext(), serial);
  ASSERT_EQ(exact.winner, 0);
  std::ostringstream exact_json;
  engine::write_race_json(exact_json, inst, exact);
  EXPECT_NE(exact_json.str().find("\"winner_cost\": " +
                                  json_number(exact.rows[0].cost) +
                                  ", \"winner_gap\": 0,"),
            std::string::npos)
      << exact_json.str();
  // No winner: both fields are null, not absent.
  RaceOptions strict = serial;
  strict.accept_gap = 1e-9;
  const RaceReport none =
      engine::race(registry, inst, {"busy/weighted-first-fit"},
                   RunContext(), strict);
  ASSERT_EQ(none.winner, -1);
  std::ostringstream none_json;
  engine::write_race_json(none_json, inst, none);
  EXPECT_NE(none_json.str().find("\"winner_solver\": null, \"winner_cost\": "
                                 "null, \"winner_gap\": null,"),
            std::string::npos)
      << none_json.str();
}

TEST(Portfolio, NoAcceptableWinnerFallsBackToBestEffort) {
  // An acceptance gap no greedy can certify: nobody wins, nobody is
  // cancelled (the race runs out of contestants, not patience), and
  // `best` still points at the cheapest checker-verified row.
  const core::SolverRegistry& registry = engine::shared_registry();
  const ProblemInstance inst = scenario_instance("weighted", 16, 3);
  const std::vector<std::string> entries = {"busy/weighted-first-fit",
                                            "busy/weighted-narrow-wide"};
  RaceOptions options;
  options.accept_gap = 1e-9;
  const RaceReport report =
      engine::race(registry, inst, entries, RunContext(), options);
  EXPECT_EQ(report.winner, -1);
  EXPECT_EQ(report.cancelled, 0);
  ASSERT_GE(report.best, 0);
  const Solution& best = report.rows[static_cast<std::size_t>(report.best)];
  EXPECT_TRUE(best.feasible);
  for (const Solution& sol : report.rows) {
    EXPECT_TRUE(sol.ok) << sol.solver;
    if (sol.feasible) {
      EXPECT_GE(sol.cost, best.cost);
    }
  }
}

TEST(Portfolio, UnknownEntriesGetRefusalRowsWithoutKillingTheRace) {
  const core::SolverRegistry& registry = engine::shared_registry();
  const ProblemInstance inst = scenario_instance("interval", 8, 2);
  const RaceReport report = engine::race(
      registry, inst, {"no/such-solver", "busy/first-fit"},
      RunContext(), {});
  ASSERT_EQ(report.rows.size(), 2u);
  EXPECT_FALSE(report.rows[0].ok);
  EXPECT_EQ(report.rows[0].message, "unknown solver");
  EXPECT_EQ(report.winner, 1);
  // All-unknown: no winner, no best, but still one stamped row per entry.
  const RaceReport none = engine::race(
      registry, inst, {"no/such-solver"}, RunContext(), {});
  EXPECT_EQ(none.winner, -1);
  EXPECT_EQ(none.best, -1);
}

TEST(Portfolio, PreCancelledParentDrainsEveryContestant) {
  const core::SolverRegistry& registry = engine::shared_registry();
  const ProblemInstance inst = scenario_instance("interval", 10, 3);
  core::CancelSource source;
  source.cancel();
  const RunContext parent = RunContext().set_cancel_token(source.token());
  const std::vector<std::string> entries = {"busy/first-fit",
                                            "busy/greedy-tracking",
                                            "busy/exact"};
  const RaceReport report =
      engine::race(registry, inst, entries, parent, {});
  EXPECT_EQ(report.winner, -1);
  for (const Solution& sol : report.rows) {
    EXPECT_FALSE(sol.ok) << sol.solver;
    EXPECT_EQ(sol.message, "cancelled") << sol.solver;
  }
}

TEST(Portfolio, AutoEntriesCoverApplicableSolversPerKind) {
  const core::SolverRegistry& registry = engine::shared_registry();
  for (const KindCase& kind : kind_cases()) {
    const ProblemInstance inst =
        scenario_instance(kind.scenario, kind.n, kind.g);
    const std::vector<std::string> entries =
        engine::auto_entries(registry, inst);
    ASSERT_FALSE(entries.empty()) << kind.scenario;
    std::set<std::string> seen;
    for (const std::string& entry : entries) {
      const core::Solver* solver = registry.find(entry);
      ASSERT_NE(solver, nullptr) << entry;
      EXPECT_EQ(solver->family, inst.family) << entry;
      EXPECT_EQ(solver->kind, inst.kind) << entry;
      EXPECT_TRUE(seen.insert(entry).second)
          << entry << " listed twice";
    }
    // The auto pick is exactly the applicable set, in registration order.
    std::vector<std::string> names;
    for (const std::string& entry : entries) names.push_back(entry);
    std::vector<std::string> expected;
    for (const core::Solver* solver : registry.selection(inst, {}, {})) {
      expected.push_back(solver->name);
    }
    EXPECT_EQ(names, expected) << kind.scenario;
  }
}

/// 200 back-to-back race/cancel cycles on the shared pool: every cycle
/// trips the race-local CancelSource (the winner finishes in microseconds
/// while the exact contestant is still working), so this hammers the
/// wakeup/drain path. Extends the PR 7 pool assertions: no lost wakeups
/// (every cycle terminates with all rows stamped exactly once), no new
/// worker slots, and the warm slots' arena footprint stops growing.
TEST(Portfolio, CancellationStormKeepsThePoolStable) {
  const core::SolverRegistry& registry = engine::shared_registry();
  const ProblemInstance inst = scenario_instance("weighted", 12, 3);
  const std::vector<std::string> entries = {"busy/weighted-narrow-wide",
                                            "busy/weighted-first-fit",
                                            "busy/weighted-exact"};
  RaceOptions options;
  options.threads = 4;
  const auto run_once = [&] {
    const RaceReport report =
        engine::race(registry, inst, entries, RunContext(), options);
    ASSERT_EQ(report.rows.size(), entries.size());
    ASSERT_GE(report.winner, 0);
    int stamped = 0;
    for (const Solution& sol : report.rows) {
      // Exactly-once slot writes: every row names its solver (run,
      // drained, or refused) — an unstamped default row would be empty.
      EXPECT_FALSE(sol.solver.empty());
      ++stamped;
    }
    EXPECT_EQ(stamped, static_cast<int>(entries.size()));
  };
  const auto footprint = [] {
    std::size_t total = 0;
    for (const engine::WorkerStats& s :
         engine::ThreadPool::shared().worker_stats()) {
      total += s.arena_capacity;
    }
    return total;
  };
  // Warm the pool so the arena high-water marks reflect this workload.
  for (int i = 0; i < 8; ++i) run_once();
  const std::size_t slots = engine::ThreadPool::shared().worker_stats().size();
  const std::size_t warm_footprint = footprint();
  for (int cycle = 0; cycle < 200; ++cycle) {
    run_once();
    if (HasFatalFailure()) {
      FAIL() << "storm aborted at cycle " << cycle;
    }
  }
  EXPECT_EQ(engine::ThreadPool::shared().worker_stats().size(), slots)
      << "no new worker slots under a cancellation storm";
  EXPECT_LE(footprint(), warm_footprint + (std::size_t{64} << 10))
      << "warm worker arenas must be reused, not regrown per race";
}

TEST(Portfolio, CampaignRacesEveryCellAndTalliesWinners) {
  const core::SolverRegistry& registry = engine::shared_registry();
  engine::CampaignGrid grid;
  grid.scenarios = {"interval", "weighted"};
  grid.ns = {8, 10};
  grid.gs = {3};
  engine::CampaignOptions options;
  options.trials = 3;
  options.threads = 2;
  options.race.enabled = true;
  std::string error;
  const auto report = engine::run_campaign(registry, grid, options, &error);
  ASSERT_TRUE(report.has_value()) << error;
  EXPECT_TRUE(report->raced);
  ASSERT_EQ(report->points.size(), 4u);
  for (const engine::CampaignPoint& point : report->points) {
    EXPECT_EQ(point.races, 3);
    int wins = 0;
    for (const auto& [solver, count] : point.race_wins) {
      EXPECT_NE(registry.find(solver), nullptr) << solver;
      wins += count;
    }
    EXPECT_EQ(wins + point.races_unwon, point.races);
    EXPECT_GT(point.ok_cells, 0) << point.spec.name;
    EXPECT_EQ(point.infeasible_cells, 0) << point.spec.name;
    EXPECT_FALSE(point.aggregates.empty());
  }
}

TEST(Portfolio, CampaignRaceHonoursExplicitEntriesAndCancellation) {
  const core::SolverRegistry& registry = engine::shared_registry();
  engine::CampaignGrid grid;
  grid.scenarios = {"weighted"};
  grid.ns = {10};
  grid.gs = {3};
  engine::CampaignOptions options;
  options.trials = 2;
  options.threads = 1;
  options.race.enabled = true;
  options.race.entries = {"busy/weighted-narrow-wide",
                          "busy/weighted-exact"};
  std::string error;
  const auto report = engine::run_campaign(registry, grid, options, &error);
  ASSERT_TRUE(report.has_value()) << error;
  ASSERT_EQ(report->points.size(), 1u);
  // Serial races: the first entry wins each trial.
  ASSERT_EQ(report->points[0].race_wins.size(), 1u);
  EXPECT_EQ(report->points[0].race_wins[0].first,
            "busy/weighted-narrow-wide");
  EXPECT_EQ(report->points[0].race_wins[0].second, 2);

  // A campaign cancelled before it starts drains every race cell.
  core::CancelSource source;
  source.cancel();
  options.run.cancel = source.token();
  const auto drained = engine::run_campaign(registry, grid, options, &error);
  ASSERT_TRUE(drained.has_value()) << error;
  EXPECT_EQ(drained->points[0].races_unwon, 2);
  EXPECT_EQ(drained->points[0].ok_cells, 0);
}

}  // namespace
}  // namespace abt
