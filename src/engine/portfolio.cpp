#include "engine/portfolio.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <limits>
#include <ostream>

#include "engine/parallel.hpp"
#include "report/table.hpp"

namespace abt::engine {

RaceReport race(const core::SolverRegistry& registry,
                const core::ProblemInstance& inst,
                const std::vector<std::string>& entries,
                const core::RunContext& parent, const RaceOptions& options) {
  const auto t0 = std::chrono::steady_clock::now();
  RaceReport report;
  report.entries = entries;
  report.accept_gap = options.accept_gap;
  report.reference = derive_lower_bound(inst, {}, RunOptions{});
  report.rows.resize(entries.size());
  if (entries.empty()) return report;

  // The race's own source: tripped exactly once, by the winning cell.
  // Contestants observe it chained BEHIND the caller's token (via
  // RunContext::child), so the caller aborting the whole race and the
  // race retiring its losers drain through the same protocol.
  core::CancelSource stop;
  std::atomic<int> winner{-1};

  const double reference = report.reference.value;
  const double accept_gap = options.accept_gap;
  const auto acceptable = [reference, accept_gap](const core::Solution& sol) {
    if (!sol.ok || !sol.feasible) return false;
    if (accept_gap < 0.0 || sol.exact) return sol.ok && sol.feasible;
    const double bound = std::max(sol.best_bound, reference);
    if (bound <= 0.0) return false;
    return sol.cost <= (1.0 + accept_gap) * bound + 1e-9;
  };

  // Written by exactly one cell each (like rows), read after the join:
  // whether entry i's interruption was a cancellation (the race's trip or
  // the caller's token) rather than its own budget running dry.
  std::vector<unsigned char> cancel_interrupted(entries.size(), 0);

  ParallelOptions parallel_options;
  parallel_options.eager_dispatch = true;  // 2 contestants must still race
  parallel_options.cancel = stop.token().chained(parent.cancel_token());
  parallel_options.on_cancelled = [&](std::size_t i) {
    const core::Solver* solver = registry.find(entries[i]);
    report.rows[i] = solver != nullptr
                         ? cancelled_cell_row(*solver, parent.budget_ms())
                         : unknown_solver_row(entries[i], inst.family);
    cancel_interrupted[i] = 1;
  };

  parallel_for(
      resolve_threads(options.threads), entries.size(),
      [&](std::size_t i) {
        const core::Solver* solver = registry.find(entries[i]);
        if (solver == nullptr) {
          report.rows[i] = unknown_solver_row(entries[i], inst.family);
          return;
        }
        const core::RunContext ctx = parent.child(stop.token());
        report.rows[i] = registry.run(*solver, inst, ctx);
        if (report.rows[i].timed_out && ctx.cancelled()) {
          cancel_interrupted[i] = 1;
        }
        // An externally aborted race never crowns a winner: a contestant
        // the caller interrupted may still return a feasible incumbent,
        // which stays visible as `best` but must not read as "the race
        // finished".
        if (acceptable(report.rows[i]) && !parent.cancel_token().cancelled()) {
          // First acceptable completion wins; exactly one CAS succeeds,
          // and only the winner cancels — losers that still finish
          // acceptably after the trip simply fail the exchange.
          int expected = -1;
          if (winner.compare_exchange_strong(expected, static_cast<int>(i),
                                             std::memory_order_relaxed)) {
            stop.cancel();
          }
        }
      },
      parallel_options);

  report.winner = winner.load(std::memory_order_relaxed);
  report.best_bound = reference;
  double best_cost = std::numeric_limits<double>::infinity();
  for (std::size_t i = 0; i < report.rows.size(); ++i) {
    const core::Solution& sol = report.rows[i];
    report.best_bound = std::max(report.best_bound, sol.best_bound);
    if (cancel_interrupted[i] && static_cast<int>(i) != report.winner) {
      report.cancelled += 1;
    }
    if (sol.ok && sol.feasible && sol.cost < best_cost) {
      best_cost = sol.cost;
      report.best = static_cast<int>(i);
    }
  }
  if (report.winner >= 0 && accept_gap < 0.0) {
    // Under checker-only acceptance the winner IS the answer; `best` may
    // differ only when a cancelled loser's incumbent happened to be
    // cheaper, which reporting keeps visible but does not promote.
    report.best = report.winner;
  }
  report.wall_ms = std::chrono::duration<double, std::milli>(
                       std::chrono::steady_clock::now() - t0)
                       .count();
  return report;
}

std::vector<std::string> auto_entries(const core::SolverRegistry& registry,
                                      const core::ProblemInstance& inst,
                                      const core::RunContext& ctx) {
  std::vector<std::string> entries;
  for (const core::Solver* solver : registry.selection(inst, {}, ctx)) {
    entries.push_back(solver->name);
  }
  return entries;
}

namespace {

std::string race_verdict(const RaceReport& report, std::size_t i) {
  const core::Solution& sol = report.rows[i];
  if (static_cast<int>(i) == report.winner) return "WINNER";
  if (!sol.ok) {
    return sol.message == "cancelled" ? "cancelled" : "declined";
  }
  if (!sol.feasible) return "INFEASIBLE";
  return sol.timed_out ? "interrupted" : "lost";
}

}  // namespace

int exit_code(const RaceReport& report) {
  return exit_code(report.rows, report.winner >= 0 || report.best >= 0);
}

void render(std::ostream& os, Format format, const core::ProblemInstance& inst,
            const RaceReport& report) {
  switch (format) {
    case Format::kJson: write_race_json(os, inst, report); return;
    case Format::kCsv: write_race_csv(os, report); return;
    case Format::kTable: print_race(os, report); return;
  }
}

void print_race(std::ostream& os, const RaceReport& report) {
  os << "race: " << report.entries.size() << " contestants, "
     << report::Table::num(report.wall_ms) << " ms";
  if (report.accept_gap >= 0.0) {
    os << ", accept gap <= " << report::Table::num(report.accept_gap);
  }
  os << "\n";
  if (report.winner >= 0) {
    os << "winner: " << report.rows[static_cast<std::size_t>(report.winner)]
                            .solver
       << "\n";
  } else if (report.best >= 0) {
    os << "no contestant met acceptance; best effort: "
       << report.rows[static_cast<std::size_t>(report.best)].solver << "\n";
  } else {
    os << "no contestant produced a feasible schedule\n";
  }
  os << "tightest bound: " << report::Table::num(report.best_bound) << " ("
     << (report.best_bound > report.reference.value ? "contestant"
                                                    : report.reference.kind)
     << ")\n\n";
  report::Table table({"solver", "verdict", "cost", "wall_ms", "best_bound",
                       "gap", "guarantee"});
  for (std::size_t i = 0; i < report.rows.size(); ++i) {
    const core::Solution& sol = report.rows[i];
    table.add_row(
        {sol.solver, race_verdict(report, i),
         sol.ok ? report::Table::num(sol.cost) : "-",
         report::Table::num(sol.wall_ms),
         sol.best_bound > 0.0 ? report::Table::num(sol.best_bound) : "-",
         sol.ok && sol.best_bound > 0.0 ? report::Table::num(sol.gap()) : "-",
         sol.ok ? sol.guarantee : sol.message});
  }
  table.print(os);
}

void write_race_csv(std::ostream& os, const RaceReport& report) {
  report::Table table({"solver", "verdict", "cost", "wall_ms", "feasible",
                       "exact", "timed_out", "best_bound", "winner",
                       "message"});
  for (std::size_t i = 0; i < report.rows.size(); ++i) {
    const core::Solution& sol = report.rows[i];
    table.add_row({sol.solver, race_verdict(report, i),
                   sol.ok ? report::Table::num(sol.cost, 6) : "",
                   report::Table::num(sol.wall_ms, 6),
                   sol.feasible ? "1" : "0", sol.exact ? "1" : "0",
                   sol.timed_out ? "1" : "0",
                   sol.best_bound > 0.0 ? report::Table::num(sol.best_bound, 6)
                                        : "",
                   static_cast<int>(i) == report.winner ? "1" : "0",
                   sol.message});
  }
  table.write_csv(os);
}

void write_race_json(std::ostream& os, const core::ProblemInstance& inst,
                     const RaceReport& report) {
  const std::streamsize old_precision =
      os.precision(std::numeric_limits<double>::max_digits10);
  os << "{\n  \"family\": \"" << core::family_name(inst.family)
     << "\",\n  \"kind\": \"" << core::instance_kind_name(inst.kind)
     << "\",\n  \"race\": {\"contestants\": " << report.entries.size()
     << ", \"winner\": " << report.winner << ", \"winner_solver\": ";
  // The winner row's name, cost and gap against the race's tightest bound,
  // so callers need not dig through `rows`.
  const core::Solution* won =
      report.winner >= 0
          ? &report.rows[static_cast<std::size_t>(report.winner)]
          : nullptr;
  if (won != nullptr) {
    write_json_string(os, won->solver);
    os << ", \"winner_cost\": " << won->cost << ", \"winner_gap\": ";
    if (report.best_bound > 0.0) {
      os << won->cost / report.best_bound - 1.0;
    } else {
      os << "null";
    }
  } else {
    os << "null, \"winner_cost\": null, \"winner_gap\": null";
  }
  os << ", \"best\": " << report.best << ", \"accept_gap\": ";
  if (report.accept_gap >= 0.0) {
    os << report.accept_gap;
  } else {
    os << "null";
  }
  os << ", \"best_bound\": " << report.best_bound
     << ", \"reference\": {\"value\": " << report.reference.value
     << ", \"kind\": ";
  write_json_string(os, report.reference.kind);
  os << "}, \"cancelled\": " << report.cancelled
     << ", \"wall_ms\": " << report.wall_ms << "},\n  \"rows\": [";
  for (std::size_t i = 0; i < report.rows.size(); ++i) {
    const core::Solution& sol = report.rows[i];
    os << (i == 0 ? "\n" : ",\n") << "    {\"solver\": ";
    write_json_string(os, sol.solver);
    os << ", \"verdict\": ";
    write_json_string(os, race_verdict(report, i));
    os << ", \"ok\": " << (sol.ok ? "true" : "false")
       << ", \"feasible\": " << (sol.feasible ? "true" : "false");
    if (sol.ok) {
      os << ", \"cost\": " << sol.cost
         << ", \"exact\": " << (sol.exact ? "true" : "false");
      if (sol.best_bound > 0.0) {
        os << ", \"best_bound\": " << sol.best_bound
           << ", \"gap\": " << sol.gap();
      }
    }
    if (sol.timed_out) os << ", \"timed_out\": true";
    if (sol.budget_ms > 0.0) os << ", \"budget_ms\": " << sol.budget_ms;
    os << ", \"wall_ms\": " << sol.wall_ms;
    if (!sol.message.empty()) {
      os << ", \"message\": ";
      write_json_string(os, sol.message);
    }
    os << "}";
  }
  os << "\n  ]\n}\n";
  os.precision(old_precision);
}

}  // namespace abt::engine
