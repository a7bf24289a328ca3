#include "engine/campaign.hpp"

#include <algorithm>
#include <chrono>
#include <iterator>
#include <limits>
#include <ostream>
#include <sstream>

#include "engine/parallel.hpp"
#include "report/table.hpp"

namespace abt::engine {

std::vector<ScenarioSpec> expand_grid(const CampaignGrid& grid) {
  const std::vector<int> ns = grid.ns.empty()
                                  ? std::vector<int>{grid.base.n}
                                  : grid.ns;
  const std::vector<int> gs = grid.gs.empty()
                                  ? std::vector<int>{grid.base.g}
                                  : grid.gs;
  const std::vector<double> slacks = grid.slacks.empty()
                                         ? std::vector<double>{grid.base.slack}
                                         : grid.slacks;
  const std::vector<double> horizons =
      grid.horizons.empty() ? std::vector<double>{grid.base.horizon}
                            : grid.horizons;
  std::vector<ScenarioSpec> points;
  points.reserve(grid.scenarios.size() * ns.size() * gs.size() *
                 slacks.size() * horizons.size());
  for (const std::string& scenario : grid.scenarios) {
    for (const int n : ns) {
      for (const int g : gs) {
        for (const double slack : slacks) {
          for (const double horizon : horizons) {
            ScenarioSpec spec = grid.base;
            spec.name = scenario;
            spec.n = n;
            spec.g = g;
            spec.slack = slack;
            spec.horizon = horizon;
            points.push_back(std::move(spec));
          }
        }
      }
    }
  }
  return points;
}

const std::vector<std::string>& grid_solvers(const CampaignGrid& grid,
                                             const std::string& scenario) {
  const auto it = grid.scenario_solvers.find(scenario);
  return it != grid.scenario_solvers.end() ? it->second : grid.solvers;
}

std::optional<CampaignGrid> parse_campaign(std::istream& in,
                                           std::string* error,
                                           const ScenarioSpec& base) {
  const auto fail = [error](int line, const std::string& why) {
    if (error != nullptr) {
      *error = "line " + std::to_string(line) + ": " + why;
    }
    return std::nullopt;
  };
  CampaignGrid grid;
  grid.base = base;
  std::string line;
  int line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    if (const auto hash = line.find('#'); hash != std::string::npos) {
      line.erase(hash);
    }
    std::istringstream tokens(line);
    std::string directive;
    if (!(tokens >> directive)) continue;  // blank / comment-only line

    if (directive == "scenario") {
      std::string name;
      while (tokens >> name) grid.scenarios.push_back(name);
      if (grid.scenarios.empty()) {
        return fail(line_no, "scenario needs at least one name");
      }
      continue;
    }
    if (directive == "n" || directive == "g") {
      auto& axis = directive == "n" ? grid.ns : grid.gs;
      int value = 0;
      while (tokens >> value) {
        if (value < 1) return fail(line_no, directive + " must be >= 1");
        axis.push_back(value);
      }
      if (!tokens.eof()) return fail(line_no, "bad value for " + directive);
      if (axis.empty()) return fail(line_no, directive + " needs values");
      continue;
    }
    // A one-value slack/horizon line is the historic scalar knob: a
    // single-point axis expands to exactly what the old base override did.
    if (directive == "slack" || directive == "horizon") {
      auto& axis = directive == "slack" ? grid.slacks : grid.horizons;
      double value = 0.0;
      while (tokens >> value) {
        if (value < 0.0) return fail(line_no, directive + " must be >= 0");
        axis.push_back(value);
      }
      if (!tokens.eof()) return fail(line_no, "bad value for " + directive);
      if (axis.empty()) return fail(line_no, directive + " needs values");
      continue;
    }
    if (directive == "solvers" || directive.rfind("solvers:", 0) == 0) {
      std::vector<std::string>* subset = nullptr;
      if (directive == "solvers") {
        subset = &grid.solvers;
      } else {
        const std::string scenario = directive.substr(8);
        if (scenario.empty()) {
          return fail(line_no, "solvers: needs a scenario name");
        }
        subset = &grid.scenario_solvers[scenario];
      }
      if (!subset->empty()) {
        return fail(line_no, "duplicate directive '" + directive + "'");
      }
      std::string name;
      while (tokens >> name) subset->push_back(name);
      if (subset->empty()) {
        return fail(line_no, directive + " needs at least one solver name");
      }
      continue;
    }
    // Scalar knobs shared by every grid point.
    const auto scalar = [&](auto& out) -> bool {
      return static_cast<bool>(tokens >> out) && (tokens >> std::ws).eof();
    };
    bool parsed = false;
    if (directive == "trials") {
      parsed = scalar(grid.trials) && grid.trials >= 1;
    } else if (directive == "seed") {
      parsed = scalar(grid.base.seed);
    } else if (directive == "eps") {
      parsed = scalar(grid.base.eps);
    } else {
      return fail(line_no, "unknown directive '" + directive + "'");
    }
    if (!parsed) return fail(line_no, "bad value for " + directive);
  }
  if (grid.scenarios.empty()) {
    if (error != nullptr) *error = "campaign names no scenario";
    return std::nullopt;
  }
  for (const auto& [scenario, subset] : grid.scenario_solvers) {
    (void)subset;
    if (std::find(grid.scenarios.begin(), grid.scenarios.end(), scenario) ==
        grid.scenarios.end()) {
      if (error != nullptr) {
        *error = "solvers:" + scenario + " names no scenario in the grid";
      }
      return std::nullopt;
    }
  }
  return grid;
}

const std::vector<CampaignPresetInfo>& campaign_presets() {
  static const std::vector<CampaignPresetInfo> kPresets = {
      {"smoke", "interval+flexible x n {8,12}, g 3 — tiny CI grid"},
      {"families",
       "interval+flexible+bursty+weighted x n {12,24}, g {3} — one point "
       "per random family at two sizes"},
      {"exact-frontier",
       "weighted+weighted-flexible x n {12,16,20,24}, g 3, horizon {12,18} "
       "— per-scenario solver subsets pit busy/weighted-exact against the "
       "approximation baselines; pair with --budget-ms to chart incumbent "
       "quality past the measured gate"},
  };
  return kPresets;
}

std::optional<CampaignGrid> campaign_preset(std::string_view name) {
  CampaignGrid grid;
  if (name == "smoke") {
    grid.scenarios = {"interval", "flexible"};
    grid.ns = {8, 12};
    grid.gs = {3};
    return grid;
  }
  if (name == "families") {
    grid.scenarios = {"interval", "flexible", "bursty", "weighted"};
    grid.ns = {12, 24};
    grid.gs = {3};
    return grid;
  }
  if (name == "exact-frontier") {
    grid.scenarios = {"weighted", "weighted-flexible"};
    grid.ns = {12, 16, 20, 24};
    grid.gs = {3};
    // Two horizons: the derived-density default neighbourhood, tight and
    // loose, so the exact oracle's frontier shows up at both regimes.
    grid.horizons = {12.0, 18.0};
    // The frontier race: the exact oracle against its approximation
    // baselines on interval jobs; the flexible points can only run the
    // freeze pipeline (the interval algorithms decline windowed jobs).
    grid.solvers = {"busy/weighted-exact", "busy/weighted-narrow-wide",
                    "busy/weighted-first-fit"};
    grid.scenario_solvers["weighted-flexible"] = {"busy/weighted-flexible"};
    return grid;
  }
  return std::nullopt;
}

namespace {

/// The solver names a point actually runs: the grid's (per-scenario or
/// grid-wide) subset when one was declared, else the campaign-wide
/// RunOptions::solvers (empty = every applicable solver).
const std::vector<std::string>& point_solver_names(
    const CampaignGrid& grid, const CampaignOptions& options,
    const std::string& scenario) {
  const std::vector<std::string>& subset = grid_solvers(grid, scenario);
  return subset.empty() ? options.run.solvers : subset;
}

/// Races every cell over one shared pool, returning the race reports in
/// input order. Races nested inside pool workers execute their contestants
/// inline (PR 7 nesting rule), so cross-cell parallelism comes from the
/// campaign fan-out and each race still terminates early on first
/// acceptance.
std::vector<RaceReport> run_races(const core::SolverRegistry& registry,
                                  const std::vector<CellInput>& inputs,
                                  const CampaignOptions& options,
                                  const core::RunContext& base_ctx,
                                  int threads) {
  // Resolve every cell's contestant list up front — auto picks depend on
  // the instance, explicit lists are shared verbatim. Explicit race
  // entries win over a grid solver subset, which wins over the auto pick.
  std::vector<std::vector<std::string>> entries(inputs.size());
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    if (!options.race.entries.empty()) {
      entries[i] = options.race.entries;
    } else if (!inputs[i].solvers.empty()) {
      entries[i] = inputs[i].solvers;
    } else {
      entries[i] = auto_entries(registry, inputs[i].instance, base_ctx);
    }
  }

  RaceOptions race_options;
  // The campaign already fans its race CELLS out over the pool; each
  // cell's race runs inline in its worker (nested parallel_for is serial
  // anyway), so pin threads = 1 rather than letting 0 resolve to the
  // whole pool when the campaign itself runs serially.
  race_options.threads = 1;
  race_options.accept_gap = options.race.accept_gap;

  std::vector<RaceReport> races(inputs.size());
  ParallelOptions parallel_options;
  parallel_options.cancel = options.run.cancel;
  parallel_options.on_cancelled = [&](std::size_t i) {
    races[i].entries = entries[i];
    for (const std::string& name : entries[i]) {
      const core::Solver* solver = registry.find(name);
      races[i].rows.push_back(
          solver != nullptr
              ? cancelled_cell_row(*solver, base_ctx.budget_ms())
              : unknown_solver_row(name, inputs[i].instance.family));
    }
  };
  parallel_for(
      threads, inputs.size(),
      [&](std::size_t i) {
        races[i] = race(registry, inputs[i].instance, entries[i],
                        base_ctx.restarted(), race_options);
      },
      parallel_options);
  return races;
}

}  // namespace

std::optional<CampaignReport> run_campaign(
    const core::SolverRegistry& registry, const CampaignGrid& grid,
    const CampaignOptions& options, std::string* error) {
  CampaignReport report;
  report.trials = std::max(1, grid.trials > 0 ? grid.trials : options.trials);
  report.threads = resolve_threads(options.threads);
  report.budget_ms = options.run.budget_ms;
  report.raced = options.race.enabled;
  const auto t0 = std::chrono::steady_clock::now();
  const core::RunContext base_ctx = make_run_context(options.run);

  const std::vector<ScenarioSpec> specs = expand_grid(grid);
  if (specs.empty()) {
    if (error != nullptr) *error = "campaign grid is empty";
    return std::nullopt;
  }

  // Generate every point's trial instances up front, as one pool batch
  // over the (point, trial) inputs, so a bad grid fails before any cell
  // runs. One flat input list across ALL points, point-major: the whole
  // campaign shares one pool, so a short point's threads immediately pick
  // up the next point's cells instead of idling at a per-point barrier.
  const auto generate_start = std::chrono::steady_clock::now();
  const auto trials = static_cast<std::size_t>(report.trials);
  std::vector<CellInput> inputs(specs.size() * trials);
  std::vector<std::string> why(inputs.size());
  std::vector<unsigned char> made(inputs.size(), 0);
  parallel_for(report.threads, inputs.size(), [&](std::size_t i) {
    const ScenarioSpec& point = specs[i / trials];
    ScenarioSpec spec = point;
    spec.seed = point.seed + i % trials;
    auto inst = make_scenario(spec, &why[i]);
    if (!inst.has_value()) return;
    inputs[i] = {std::move(*inst),
                 point_solver_names(grid, options, point.name)};
    made[i] = 1;
  });
  // The first bad input in grid order names its point.
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    if (made[i] != 0) continue;
    const ScenarioSpec& point = specs[i / trials];
    if (error != nullptr) {
      *error = "point " + point.name + " n=" + std::to_string(point.n) +
               " g=" + std::to_string(point.g) + ": " + why[i];
    }
    return std::nullopt;
  }
  report.generate_ms = std::chrono::duration<double, std::milli>(
                           std::chrono::steady_clock::now() - generate_start)
                           .count();

  // Racing mode keeps the full race rows: losers show up in the aggregates
  // as interrupted/cancelled runs, and their incumbents still tighten the
  // per-trial lower bound.
  std::vector<RaceReport> races;
  std::vector<RunReport> cells;
  if (report.raced) {
    races = run_races(registry, inputs, options, base_ctx, report.threads);
    cells.resize(inputs.size());
    parallel_for(report.threads, inputs.size(), [&](std::size_t i) {
      cells[i].instance = std::move(inputs[i].instance);
      cells[i].solutions = std::move(races[i].rows);
      cells[i].lower_bound = derive_lower_bound(
          cells[i].instance, cells[i].solutions, options.run);
    });
  } else {
    cells = run_cells(registry, std::move(inputs), base_ctx, report.threads,
                      options.run);
  }

  // Per-point assembly: verdict counters, race tallies, then the shared
  // sweep aggregation over the point's trials.
  report.points.reserve(specs.size());
  for (std::size_t p = 0; p < specs.size(); ++p) {
    CampaignPoint point;
    point.spec = specs[p];
    point.solvers = point_solver_names(grid, options, specs[p].name);
    const auto first = cells.begin() + static_cast<std::ptrdiff_t>(p * trials);
    std::vector<RunReport> trial_reports(
        std::make_move_iterator(first),
        std::make_move_iterator(first + static_cast<std::ptrdiff_t>(trials)));
    for (std::size_t t = 0; t < trials; ++t) {
      const RunReport& cell = trial_reports[t];
      for (const core::Solution& sol : cell.solutions) {
        point.cells += 1;
        if (sol.ok) point.ok_cells += 1;
        if (sol.ok && !sol.feasible) point.infeasible_cells += 1;
      }
      if (!report.raced) continue;
      point.races += 1;
      const int winner = races[p * trials + t].winner;
      if (winner < 0) {
        point.races_unwon += 1;
        continue;
      }
      const std::string& name =
          cell.solutions[static_cast<std::size_t>(winner)].solver;
      auto it = std::find_if(point.race_wins.begin(), point.race_wins.end(),
                             [&](const auto& w) { return w.first == name; });
      if (it == point.race_wins.end()) {
        it = point.race_wins.emplace(it, name, 0);
      }
      it->second += 1;
    }
    point.aggregates = aggregate_cells(trial_reports);
    report.points.push_back(std::move(point));
  }

  report.wall_ms = std::chrono::duration<double, std::milli>(
                       std::chrono::steady_clock::now() - t0)
                       .count();
  return report;
}

int exit_code(const CampaignReport& report) {
  // The points' verdict counters summarize the same rows exit_code(rows)
  // would scan; the campaign keeps no per-cell rows.
  int infeasible = 0;
  int ok = 0;
  for (const CampaignPoint& point : report.points) {
    infeasible += point.infeasible_cells;
    ok += point.ok_cells;
  }
  return infeasible > 0 ? 2 : ok > 0 ? 0 : 1;
}

void render(std::ostream& os, Format format, const CampaignReport& report) {
  switch (format) {
    case Format::kJson: write_campaign_json(os, report); return;
    case Format::kCsv: write_campaign_csv(os, report); return;
    case Format::kTable: print_campaign(os, report); return;
  }
}

void print_campaign(std::ostream& os, const CampaignReport& report) {
  os << "campaign: " << report.points.size() << " grid points x "
     << report.trials << " trials, " << report.threads << " thread"
     << (report.threads == 1 ? "" : "s") << " (shared pool), "
     << report::Table::num(report.wall_ms) << " ms total (generation "
     << report::Table::num(report.generate_ms) << " ms)";
  if (report.budget_ms > 0.0) {
    os << ", budget " << report::Table::num(report.budget_ms) << " ms/cell";
  }
  if (report.raced) os << ", portfolio race per cell";
  os << "\n\n";
  report::Table table({"scenario", "n", "g", "solver", "runs", "ok",
                       "feasible", "exact", "t/o", "ratio med", "ms med"});
  for (const CampaignPoint& point : report.points) {
    for (const SolverAggregate& agg : point.aggregates) {
      table.add_row(
          {point.spec.name, std::to_string(point.spec.n),
           std::to_string(point.spec.g), agg.solver,
           std::to_string(agg.runs), std::to_string(agg.ok),
           std::to_string(agg.feasible), std::to_string(agg.exact_runs),
           std::to_string(agg.timed_out),
           agg.ratio_count > 0 ? report::Table::num(agg.ratio_median) : "-",
           agg.feasible > 0 ? report::Table::num(agg.wall_median_ms) : "-"});
    }
  }
  table.print(os);
  if (!report.raced) return;

  os << "\n";
  report::Table wins({"scenario", "n", "g", "races", "winner", "wins"});
  for (const CampaignPoint& point : report.points) {
    for (const auto& [solver, count] : point.race_wins) {
      wins.add_row({point.spec.name, std::to_string(point.spec.n),
                    std::to_string(point.spec.g),
                    std::to_string(point.races), solver,
                    std::to_string(count)});
    }
    if (point.races_unwon > 0) {
      wins.add_row({point.spec.name, std::to_string(point.spec.n),
                    std::to_string(point.spec.g),
                    std::to_string(point.races), "(no winner)",
                    std::to_string(point.races_unwon)});
    }
  }
  wins.print(os);
}

void write_campaign_csv(std::ostream& os, const CampaignReport& report) {
  report::Table table({"scenario", "n", "g", "seed", "slack", "horizon",
                       "solver", "runs", "ok", "feasible", "exact",
                       "declined", "timed_out", "ratio_mean", "ratio_median",
                       "ratio_p95", "ratio_max", "wall_median_ms",
                       "wall_total_ms"});
  for (const CampaignPoint& point : report.points) {
    for (const SolverAggregate& agg : point.aggregates) {
      const bool has_ratio = agg.ratio_count > 0;
      table.add_row(
          {point.spec.name, std::to_string(point.spec.n),
           std::to_string(point.spec.g), std::to_string(point.spec.seed),
           report::Table::num(point.spec.slack, 6),
           report::Table::num(point.spec.horizon, 6),
           agg.solver, std::to_string(agg.runs), std::to_string(agg.ok),
           std::to_string(agg.feasible), std::to_string(agg.exact_runs),
           std::to_string(agg.declined), std::to_string(agg.timed_out),
           has_ratio ? report::Table::num(agg.ratio_mean, 6) : "",
           has_ratio ? report::Table::num(agg.ratio_median, 6) : "",
           has_ratio ? report::Table::num(agg.ratio_p95, 6) : "",
           has_ratio ? report::Table::num(agg.ratio_max, 6) : "",
           agg.feasible > 0 ? report::Table::num(agg.wall_median_ms, 6) : "",
           report::Table::num(agg.wall_total_ms, 6)});
    }
  }
  table.write_csv(os);
}

void write_campaign_json(std::ostream& os, const CampaignReport& report) {
  const std::streamsize old_precision =
      os.precision(std::numeric_limits<double>::max_digits10);
  os << "{\n  \"campaign\": {\"points\": " << report.points.size()
     << ", \"trials\": " << report.trials
     << ", \"threads\": " << report.threads
     << ", \"raced\": " << (report.raced ? "true" : "false")
     << ", \"budget_ms\": " << report.budget_ms
     << ", \"wall_ms\": " << report.wall_ms
     << ", \"generate_ms\": " << report.generate_ms
     << "},\n  \"points\": [";
  for (std::size_t p = 0; p < report.points.size(); ++p) {
    const CampaignPoint& point = report.points[p];
    os << (p == 0 ? "\n" : ",\n") << "    {\"scenario\": ";
    write_json_string(os, point.spec.name);
    os << ", \"n\": " << point.spec.n << ", \"g\": " << point.spec.g
       << ", \"seed\": " << point.spec.seed
       << ", \"slack\": " << point.spec.slack
       << ", \"horizon\": " << point.spec.horizon
       << ", \"cells\": " << point.cells
       << ", \"ok_cells\": " << point.ok_cells
       << ", \"infeasible_cells\": " << point.infeasible_cells;
    if (!point.solvers.empty()) {
      os << ",\n     \"solvers\": [";
      for (std::size_t i = 0; i < point.solvers.size(); ++i) {
        os << (i == 0 ? "" : ", ");
        write_json_string(os, point.solvers[i]);
      }
      os << "]";
    }
    if (report.raced) {
      os << ",\n     \"race\": {\"races\": " << point.races
         << ", \"unwon\": " << point.races_unwon << ", \"wins\": {";
      for (std::size_t i = 0; i < point.race_wins.size(); ++i) {
        os << (i == 0 ? "" : ", ");
        write_json_string(os, point.race_wins[i].first);
        os << ": " << point.race_wins[i].second;
      }
      os << "}}";
    }
    os << ",\n     \"aggregates\": [";
    for (std::size_t i = 0; i < point.aggregates.size(); ++i) {
      os << (i == 0 ? "\n" : ",\n") << "      ";
      write_aggregate_json(os, point.aggregates[i]);
    }
    os << "\n     ]}";
  }
  os << "\n  ]\n}\n";
  os.precision(old_precision);
}

}  // namespace abt::engine
