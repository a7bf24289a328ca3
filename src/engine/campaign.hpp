#pragma once

// Multi-scenario campaigns: sweep a grid of ScenarioSpecs (scenario × n ×
// g) through ONE shared thread pool in a single invocation — the
// fleet-style batch mode layered on top of the budget-aware RunContext
// API. Every (point, trial, solver) cell runs with a freshly armed
// per-cell budget and the campaign-wide cancel token; per-point
// aggregates reuse the trial sweep's statistics so a campaign point and a
// standalone sweep of the same spec report identical numbers.

#include <iosfwd>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "engine/portfolio.hpp"
#include "engine/runner.hpp"

namespace abt::engine {

/// A campaign grid: the cross product scenarios × ns × gs × slacks ×
/// horizons, every point sharing the remaining knobs (seed, eps) of
/// `base`. Empty axes borrow the base value, so a file may fix any
/// subset. A grid may also restrict which solvers run: `solvers` applies
/// to every point, `scenario_solvers` overrides it for one scenario's
/// points (empty = no restriction, i.e. the campaign-wide solver list).
struct CampaignGrid {
  std::vector<std::string> scenarios;
  std::vector<int> ns;
  std::vector<int> gs;
  std::vector<double> slacks;    ///< Window-slack axis (empty = base.slack).
  std::vector<double> horizons;  ///< Horizon axis (empty = base.horizon).
  std::vector<std::string> solvers;  ///< Grid-wide subset ({} = no limit).
  /// Per-scenario solver subsets; a named scenario's points use this
  /// instead of `solvers`.
  std::map<std::string, std::vector<std::string>> scenario_solvers;
  ScenarioSpec base;
  int trials = 0;  ///< 0 = take CampaignOptions::trials.
};

/// The grid's points in scenario-major, then n, g, slack, horizon order.
[[nodiscard]] std::vector<ScenarioSpec> expand_grid(const CampaignGrid& grid);

/// The solver subset a point of `scenario` runs: the per-scenario
/// override when one exists, else the grid-wide `solvers` list. An empty
/// result means "no grid restriction" (run_campaign then falls back to
/// CampaignOptions::run.solvers).
[[nodiscard]] const std::vector<std::string>& grid_solvers(
    const CampaignGrid& grid, const std::string& scenario);

/// Parses the campaign file format (one directive per line, `#` comments):
///
///   scenario interval flexible   # grid axis: scenario names
///   n 8 16 24                    # grid axis: job counts
///   g 3                          # grid axis: capacities
///   slack 0.5 1.5                # grid axis: window slacks
///   horizon 12 18                # grid axis: horizons (0 = derived)
///   solvers busy/first-fit busy/greedy-tracking   # grid-wide subset
///   solvers:flexible busy/greedy-tracking         # per-scenario subset
///   trials 4                     # optional: per-point trials
///   seed 7                       # optional shared knobs: seed, eps
///
/// A one-value `slack`/`horizon` line behaves exactly like the historic
/// scalar knob (a single-point axis). Nullopt (with a line-numbered
/// `error`) on unknown directives or malformed values; a campaign must
/// name at least one scenario, and every `solvers:<scenario>` override
/// must name a scenario the grid declares. `base` seeds the grid's shared
/// knobs (and any axis the file fixes none of) — the CLI passes its
/// scenario flags here, so `--seed 99` applies to a campaign file unless
/// the file's own `seed` directive overrides it.
[[nodiscard]] std::optional<CampaignGrid> parse_campaign(
    std::istream& in, std::string* error, const ScenarioSpec& base = {});

struct CampaignPresetInfo {
  std::string name;
  std::string description;
};

/// Built-in preset grids (usable as `abt_solve --campaign <name>`).
[[nodiscard]] const std::vector<CampaignPresetInfo>& campaign_presets();
[[nodiscard]] std::optional<CampaignGrid> campaign_preset(
    std::string_view name);

/// Per-point portfolio racing: instead of running every selected solver to
/// completion, each (point, trial) cell races `entries` (or the
/// applicability auto pick) under engine::race and keeps the full race
/// rows — losers show up in the aggregates as interrupted/cancelled runs,
/// and their incumbents still tighten the per-trial lower bound.
struct CampaignRace {
  bool enabled = false;
  std::vector<std::string> entries;  ///< Explicit contestants; empty = auto.
  double accept_gap = -1.0;          ///< RaceOptions::accept_gap per cell.
};

struct CampaignOptions {
  int trials = 4;     ///< Per-point trials (grid `trials` directive wins).
  int threads = 1;    ///< One pool for the whole campaign; 0 = hardware.
  RunOptions run;     ///< Solver subset, per-cell budget, cancel token.
  CampaignRace race;  ///< Per-cell portfolio racing (off by default).
};

/// One grid point's outcome: the spec it ran and the same per-solver
/// aggregates a standalone sweep of that spec would report.
struct CampaignPoint {
  ScenarioSpec spec;
  /// The solver subset this point ran under (grid subset when one was
  /// declared, else the campaign-wide RunOptions::solvers; empty = every
  /// applicable solver).
  std::vector<std::string> solvers;
  std::vector<SolverAggregate> aggregates;
  int cells = 0;             ///< (trial, solver) cells fanned out.
  int ok_cells = 0;          ///< Cells that produced a schedule.
  int infeasible_cells = 0;  ///< Cells whose schedule FAILED its checker.
  // Racing mode only:
  int races = 0;        ///< Trials raced at this point.
  int races_unwon = 0;  ///< Races where no contestant met acceptance.
  /// Winner tallies in first-win order: (solver, races won).
  std::vector<std::pair<std::string, int>> race_wins;
};

struct CampaignReport {
  int trials = 0;
  int threads = 1;
  bool raced = false;      ///< Cells were portfolio races, not full sweeps.
  double budget_ms = 0.0;  ///< Per-cell budget every point ran under.
  double wall_ms = 0.0;    ///< Whole-campaign wall clock.
  /// Part of wall_ms spent generating the instances, before any cell
  /// runs. A timing field like wall_ms: mask both when comparing outputs.
  double generate_ms = 0.0;
  std::vector<CampaignPoint> points;
};

/// Runs every (point, trial, solver) cell of the expanded grid through one
/// shared pool. Nullopt (with `error`) when any point's scenario cannot be
/// instantiated — the grid is validated up front, before any cell runs.
[[nodiscard]] std::optional<CampaignReport> run_campaign(
    const core::SolverRegistry& registry, const CampaignGrid& grid,
    const CampaignOptions& options, std::string* error = nullptr);

/// The exit contract over the points' verdict counters: 2 when any cell's
/// schedule failed its checker, else 0 when any cell solved, else 1.
[[nodiscard]] int exit_code(const CampaignReport& report);

/// The format dispatch over the writers below.
void render(std::ostream& os, Format format, const CampaignReport& report);

/// Aligned text table: one row per (point, solver) aggregate.
void print_campaign(std::ostream& os, const CampaignReport& report);

/// CSV rows: scenario,n,g,seed,slack,horizon,solver,runs,ok,feasible,
/// exact,declined,timed_out,ratio_*,wall_median_ms,wall_total_ms.
void write_campaign_csv(std::ostream& os, const CampaignReport& report);

/// Machine-readable JSON: campaign parameters plus one object per grid
/// point with its per-solver aggregates.
void write_campaign_json(std::ostream& os, const CampaignReport& report);

}  // namespace abt::engine
