#pragma once

// Portfolio racing: run several registered solvers on the SAME instance
// concurrently over the shared work-stealing pool; the first contestant
// returning an acceptable solution (checker-pass, plus an optional
// certified-gap threshold) wins and trips a race-local CancelSource, so
// losers drain through the PR 7 protocol — running anytime solvers return
// their incumbent at the next poll, unstarted cells are stamped in
// O(workers) without ever entering the registry. Every contestant runs in
// a child RunContext derived from the caller's budget
// (core::RunContext::child), so the race can never outlive its caller and
// the caller's own cancellation reaches every contestant.
//
// Determinism contract (pinned by tests/test_portfolio.cpp): WHICH
// contestant wins is timing-dependent by design; everything reported
// about the winner is not. The winning row is always checker-verified,
// its cost equals a standalone run of that solver (completed runs are
// deterministic), the reference bound is a pure function of the instance,
// and `best_bound` only tightens monotonically over certified bounds — so
// an all-exact race reports a bit-identical (cost, verdict, bound)
// fingerprint for every thread count, steal order and repetition. At one
// thread the race degenerates to "first acceptable entry in order wins",
// bitwise-reproducibly.

#include <iosfwd>
#include <string>
#include <vector>

#include "core/solver.hpp"
#include "engine/runner.hpp"

namespace abt::engine {

struct RaceOptions {
  /// Pool workers racing (0 = resolved to hardware concurrency, i.e.
  /// every worker of the shared pool). At 1 the race runs inline and
  /// sequentially in entry order.
  int threads = 0;
  /// Acceptance: a finisher wins iff its schedule passed the checker AND
  /// (accept_gap < 0, or it is exact, or its cost is within (1 +
  /// accept_gap) of the tightest certified lower bound known for it —
  /// max(its own best_bound, the race's reference bound)). accept_gap < 0
  /// means any checker-verified schedule wins.
  double accept_gap = -1.0;
};

/// Outcome of one race. rows[i] is contestant i's Solution and is written
/// by exactly one cell: the winner's completed run, a loser's drained or
/// incumbent row, or a refusal row for unknown names.
struct RaceReport {
  std::vector<std::string> entries;  ///< Contestants' solver names.
  std::vector<core::Solution> rows;
  /// Row index of the acceptance-passing winner; -1 = none. A race whose
  /// CALLER cancelled never declares a winner, even when an interrupted
  /// contestant returned an acceptable incumbent (it stays visible as
  /// `best`).
  int winner = -1;
  /// Lowest-cost checker-verified row (== winner when someone won under
  /// accept_gap < 0; the best-effort answer when nobody met acceptance).
  int best = -1;
  LowerBound reference;     ///< Combinatorial bound acceptance was judged by.
  double best_bound = 0.0;  ///< Tightest certified bound: reference + rows.
  double accept_gap = -1.0;
  double wall_ms = 0.0;
  /// Contestants the race (or its caller) interrupted — drained unstarted
  /// or observed cancelled at return. A contestant that merely exhausted
  /// the caller's budget is timed out, not cancelled.
  int cancelled = 0;
};

/// Races the solvers named in `entries` on `inst` (a name may repeat).
/// Each contestant gets parent.child(token): the caller's remaining
/// budget, the caller's token chained with the race's own source, a fresh
/// clock. Unknown names become refusal rows without occupying a worker
/// beyond stamping.
[[nodiscard]] RaceReport race(const core::SolverRegistry& registry,
                              const core::ProblemInstance& inst,
                              const std::vector<std::string>& entries,
                              const core::RunContext& parent = {},
                              const RaceOptions& options = {});

/// Entries for `--race auto`: every solver applicable under `ctx`, in
/// registration order.
[[nodiscard]] std::vector<std::string> auto_entries(
    const core::SolverRegistry& registry, const core::ProblemInstance& inst,
    const core::RunContext& ctx = {});

/// The exit contract over the race rows; solved = a winner or a
/// best-effort feasible row exists.
[[nodiscard]] int exit_code(const RaceReport& report);

/// The format dispatch over the writers below (JSON names the instance's
/// family and kind).
void render(std::ostream& os, Format format, const core::ProblemInstance& inst,
            const RaceReport& report);

/// Aligned text table of the race (one row per contestant + winner line).
void print_race(std::ostream& os, const RaceReport& report);

/// CSV rows: solver,cost,wall_ms,feasible,exact,timed_out,best_bound,
/// winner,message.
void write_race_csv(std::ostream& os, const RaceReport& report);

/// Machine-readable JSON: a "race" object (winner, bounds, acceptance,
/// wall) plus one row object per contestant. The race object repeats the
/// winner row's `winner_cost` and its `winner_gap` = cost / best_bound - 1
/// against the race's tightest bound; both are null without a winner, and
/// the gap is null when no positive bound exists.
void write_race_json(std::ostream& os, const core::ProblemInstance& inst,
                     const RaceReport& report);

}  // namespace abt::engine
