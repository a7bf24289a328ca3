// abt_solve — registry-driven command-line front end: drive any instance
// (parsed file, stdin, or generator scenario) through any subset of the
// registered solvers, with shared checker validation, timing, lower bounds
// and table/CSV/JSON reporting.
//
//   abt_solve --list                          list registered solvers
//   abt_solve --scenarios                     list generator scenarios
//   abt_solve <instance-file|-> [options]     solve a file ('-' = stdin)
//   abt_solve --gen <scenario> [options]      solve a generated instance
//   abt_solve --campaign <file|preset>        sweep a scenario grid
//   abt_solve --demo-slotted | --demo-continuous
//
// options:
//   --solvers a,b,c   registry names (default: every applicable solver)
//   --n K --g G --seed N --slack S --horizon H --eps E   scenario knobs
//   --trials N        sweep N seeded trials of the scenario (needs --gen)
//   --threads K       threads that run cells, the caller included, for the
//                     solvers of one instance, a sweep or a campaign
//                     (0 = hardware concurrency)
//   --budget-ms B     per-cell time budget; lifts the exact solvers' size
//                     gates (anytime mode: incumbent + gap on timeout)
//   --race a,b|auto   portfolio-race solvers on the shared pool ('auto' =
//                     every applicable solver); first acceptable finisher
//                     wins, losers are cancelled
//   --accept-gap G    race acceptance: winner must be within (1+G) of the
//                     tightest certified bound (default: any checker pass)
//   --json | --csv    machine-readable report instead of the text table
//   --emit            print the generated instance (core/io format) and exit
//   --gantt           append a Gantt chart of the best feasible schedule
//
// Exit code: 0 on success, 1 on bad usage/unreadable input, 2 when any
// solver produced an infeasible schedule (checker verdict).
// Full reference: docs/CLI.md.
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/io.hpp"
#include "core/solver.hpp"
#include "core/text.hpp"
#include "engine/builtin_solvers.hpp"
#include "engine/campaign.hpp"
#include "engine/parallel.hpp"
#include "engine/runner.hpp"
#include "report/gantt.hpp"
#include "report/table.hpp"
#include "service/protocol.hpp"

namespace {

using namespace abt;

constexpr const char* kUsage =
    "usage: abt_solve --list | --scenarios\n"
    "       abt_solve <instance-file|-> [options]\n"
    "       abt_solve --gen <scenario> [options]\n"
    "       abt_solve --campaign <file|preset> [options]\n"
    "       abt_solve --demo-slotted | --demo-continuous\n"
    "options: --solvers a,b,c  --n K --g G --seed N --slack S --horizon H\n"
    "         --eps E  --trials N --threads K  --budget-ms B\n"
    "         --race a,b|auto  --accept-gap G  --json | --csv  --emit\n"
    "         --gantt\n"
    "         --connect <socket|host:port>  --progress K  --id NAME   "
    "(abtd client)\n";

constexpr const char* kDemoSlotted =
    "model slotted\n"
    "capacity 2\n"
    "job 0 4 2\n"
    "job 1 5 3\n"
    "job 0 3 1\n"
    "job 2 6 2\n";

constexpr const char* kDemoContinuous =
    "model continuous\n"
    "capacity 2\n"
    "job 0.0 3.0 3.0\n"
    "job 0.0 6.0 2.0\n"
    "job 2.5 7.0 2.0\n"
    "job 4.0 9.0 3.0\n";

struct CliOptions {
  std::string input;             ///< File path, "-", or empty when --gen.
  std::string scenario;          ///< Non-empty when --gen.
  std::string campaign;          ///< File or preset name when --campaign.
  engine::ScenarioSpec spec;
  std::vector<std::string> solvers;
  std::string race;              ///< "auto" or a solver list; empty = off.
  std::string connect;           ///< abtd address; empty = solve locally.
  std::string request_id;        ///< Daemon request id (cancel target).
  int progress = 0;              ///< Daemon progress events wanted.
  double accept_gap = -1.0;      ///< Race acceptance gap (< 0 = checker only).
  int trials = 1;
  bool trials_given = false;     ///< Campaigns default to 4 unless set.
  int threads = 1;
  bool threads_given = false;    ///< Races default to hardware unless set.
  double budget_ms = 0.0;        ///< Per-cell budget (0 = unlimited).
  bool list = false;
  bool list_scenarios = false;
  bool json = false;
  bool csv = false;
  bool emit = false;
  bool gantt = false;
};

std::vector<std::string> split_csv(const std::string& text) {
  std::vector<std::string> out;
  std::stringstream stream(text);
  std::string item;
  while (std::getline(stream, item, ',')) {
    if (!item.empty()) out.push_back(item);
  }
  return out;
}

bool parse_args(int argc, char** argv, CliOptions& options,
                std::string& error) {
  const auto need_value = [&](int i, const std::string& flag) {
    if (i + 1 >= argc) {
      error = flag + " needs a value";
      return false;
    }
    return true;
  };
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--list") {
      options.list = true;
    } else if (arg == "--scenarios") {
      options.list_scenarios = true;
    } else if (arg == "--json") {
      options.json = true;
    } else if (arg == "--csv") {
      options.csv = true;
    } else if (arg == "--emit") {
      options.emit = true;
    } else if (arg == "--gantt") {
      options.gantt = true;
    } else if (arg == "--gen") {
      if (!need_value(i, arg)) return false;
      options.scenario = argv[++i];
      options.spec.name = options.scenario;
    } else if (arg == "--campaign") {
      if (!need_value(i, arg)) return false;
      options.campaign = argv[++i];
    } else if (arg == "--solvers") {
      if (!need_value(i, arg)) return false;
      options.solvers = split_csv(argv[++i]);
    } else if (arg == "--race") {
      if (!need_value(i, arg)) return false;
      options.race = argv[++i];
      if (options.race.empty()) {
        error = "--race needs 'auto' or a solver list";
        return false;
      }
    } else if (arg == "--connect") {
      if (!need_value(i, arg)) return false;
      options.connect = argv[++i];
    } else if (arg == "--id") {
      if (!need_value(i, arg)) return false;
      options.request_id = argv[++i];
    } else if (arg == "--progress") {
      if (!need_value(i, arg)) return false;
      const std::string value = argv[++i];
      if (!core::parse_number(value, &options.progress) ||
          options.progress < 0) {
        error = "bad value for --progress: '" + value + "'";
        return false;
      }
    } else if (arg == "--accept-gap") {
      if (!need_value(i, arg)) return false;
      const std::string value = argv[++i];
      if (!core::parse_number(value, &options.accept_gap) ||
          options.accept_gap < 0.0) {
        error = "bad value for --accept-gap: '" + value + "'";
        return false;
      }
    } else if (arg == "--n" || arg == "--g" || arg == "--seed" ||
               arg == "--slack" || arg == "--horizon" || arg == "--eps" ||
               arg == "--trials" || arg == "--threads" ||
               arg == "--budget-ms") {
      if (!need_value(i, arg)) return false;
      const std::string value = argv[++i];
      bool parsed = false;
      if (arg == "--n") {
        parsed = core::parse_number(value, &options.spec.n);
      } else if (arg == "--g") {
        parsed = core::parse_number(value, &options.spec.g);
      } else if (arg == "--seed") {
        parsed = core::parse_number(value, &options.spec.seed);
      } else if (arg == "--slack") {
        parsed = core::parse_number(value, &options.spec.slack);
      } else if (arg == "--horizon") {
        parsed = core::parse_number(value, &options.spec.horizon);
      } else if (arg == "--trials") {
        parsed =
            core::parse_number(value, &options.trials) && options.trials >= 1;
        options.trials_given = parsed;
      } else if (arg == "--threads") {
        parsed = core::parse_number(value, &options.threads) &&
                 options.threads >= 0;
        options.threads_given = parsed;
      } else if (arg == "--budget-ms") {
        parsed = core::parse_number(value, &options.budget_ms) &&
                 options.budget_ms > 0.0;
      } else {
        parsed = core::parse_number(value, &options.spec.eps);
      }
      if (!parsed) {
        error = "bad value for " + arg + ": '" + value + "'";
        return false;
      }
    } else if (!arg.empty() && arg[0] == '-' && arg != "-") {
      error = "unknown flag '" + arg + "'";
      return false;
    } else if (options.input.empty()) {
      options.input = arg;
    } else {
      error = "multiple input files";
      return false;
    }
  }
  return true;
}

void list_solvers(const core::SolverRegistry& registry) {
  report::Table table({"solver", "family", "kind", "guarantee", "exact"});
  for (const core::Solver& solver : registry.all()) {
    table.add_row({solver.name, std::string(core::family_name(solver.family)),
                   std::string(core::instance_kind_name(solver.kind)),
                   solver.guarantee, solver.exact ? "yes" : ""});
  }
  table.print(std::cout);
  std::cout << "\n" << registry.size() << " solvers registered\n";
}

void list_scenarios() {
  report::Table table({"scenario", "family", "description"});
  for (const engine::ScenarioInfo& info : engine::scenarios()) {
    table.add_row({info.name, std::string(core::family_name(info.family)),
                   info.description});
  }
  table.print(std::cout);
  std::cout << "\nknobs: --n --g --seed --slack --horizon --eps\n";
}


/// Unknown solver names are a usage error, not a silent no-op (the library
/// would stamp refusal rows, but the CLI treats a typo as a typo).
bool known_solvers(const core::SolverRegistry& registry,
                   const std::vector<std::string>& names) {
  for (const std::string& name : names) {
    if (registry.find(name) == nullptr) {
      std::cerr << "unknown solver '" << name << "' (see --list)\n";
      return false;
    }
  }
  return true;
}

/// Explicit `--race a,b,c` contestants, validated like --solvers.
std::optional<std::vector<std::string>> race_names(
    const core::SolverRegistry& registry, const std::string& list) {
  std::vector<std::string> names = split_csv(list);
  if (!known_solvers(registry, names)) return std::nullopt;
  if (names.empty()) {
    std::cerr << "--race needs 'auto' or at least one solver name\n";
    return std::nullopt;
  }
  return names;
}

/// Client mode: the request shipped to abtd, same payload schema and exit
/// contract as the local path (docs/SERVICE.md). Progress frames (printed
/// as they arrive) and service notes go to stderr so stdout stays exactly
/// the report the local mode would print.
int solve_remote(const CliOptions& options, const engine::Request& local) {
  std::string error;
  const auto address = service::parse_address(options.connect, &error);
  if (!address.has_value()) {
    std::cerr << "--connect: " << error << "\n";
    return 1;
  }
  service::SolveRequest request;
  request.race = local.race;
  request.id = options.request_id;
  request.solvers = local.solvers;
  request.budget_ms = options.budget_ms;
  request.accept_gap = local.accept_gap;
  request.progress = options.progress;
  request.format = local.format;
  request.instance = local.instance;
  service::Frame frame;
  frame.type =
      request.race ? service::FrameType::kRace : service::FrameType::kSolve;
  service::write_solve_payload(frame.payload, request, &error);
  const auto exchange = service::client_roundtrip(
      *address, frame, &error, [](const service::Frame& event) {
        std::cerr << "progress: " << event.payload;
      });
  if (!exchange.has_value()) {
    std::cerr << "connect " << address->describe() << ": " << error << "\n";
    return 1;
  }
  const service::Frame& final = exchange->final;
  if (final.type == service::FrameType::kOverloaded) {
    std::cerr << "server overloaded, request shed: " << final.payload;
    return 3;
  }
  if (final.type != service::FrameType::kOk) {
    std::cerr << "server error: " << final.payload;
    return 1;
  }
  if (final.has_flag("cached")) std::cerr << "served from cache\n";
  if (final.has_flag("budget-ms")) {
    std::cerr << "budget shrunk to " << final.flag("budget-ms")
              << " ms by admission control\n";
  }
  std::cout << final.payload;
  int exit_code = 0;
  if (!core::parse_number(final.flag("exit", "0"), &exit_code)) exit_code = 0;
  return exit_code;
}

void append_gantt(std::ostream& os, const core::ProblemInstance& inst,
                  const std::vector<core::Solution>& rows) {
  // The charts draw the standard models' jobs only.
  if (inst.kind != core::InstanceKind::kStandard) return;
  const core::Solution* best = nullptr;
  for (const core::Solution& sol : rows) {
    if (!sol.ok || !sol.feasible || sol.preemptive.has_value()) continue;
    if (best == nullptr || sol.cost < best->cost) best = &sol;
  }
  if (best == nullptr) return;
  os << "\nbest feasible schedule (" << best->solver << "):\n";
  if (best->active.has_value()) {
    os << report::render_active_gantt(inst.slotted, *best->active);
  } else if (best->busy.has_value()) {
    os << report::render_busy_gantt(inst.continuous, *best->busy, 96);
  }
}

}  // namespace

int main(int argc, char** argv) {
  CliOptions options;
  std::string error;
  if (argc < 2) {
    std::cerr << kUsage;
    return 1;
  }
  const std::string first = argv[1];
  if (first == "--demo-slotted") {
    std::cout << kDemoSlotted;
    return 0;
  }
  if (first == "--demo-continuous") {
    std::cout << kDemoContinuous;
    return 0;
  }
  if (!parse_args(argc, argv, options, error)) {
    std::cerr << error << "\n" << kUsage;
    return 1;
  }

  const core::SolverRegistry& registry = engine::shared_registry();

  // Client mode is a single-instance solve/race shipped to a daemon; the
  // batch modes and local-only rendering stay local on purpose.
  if (!options.connect.empty() &&
      (!options.campaign.empty() || options.trials > 1 || options.gantt)) {
    std::cerr << "--connect supports single-instance solve/race only "
                 "(--campaign, --trials and --gantt are local-mode flags)\n";
    return 1;
  }

  // A race wants real concurrency: unless the user pinned --threads, use
  // every hardware worker so contestants actually overlap.
  if (!options.race.empty() && !options.threads_given) options.threads = 0;

  // Size the shared persistent pool once, up front: every sweep/campaign
  // this process runs (including back-to-back invocations in one session)
  // reuses these workers and their warm scratch arenas. The calling thread
  // runs cells too, so K threads need K - 1 workers.
  if (options.threads != 1 && options.connect.empty()) {
    engine::ThreadPool::shared().resize(
        engine::resolve_threads(options.threads) - 1);
  }

  if (options.list) {
    list_solvers(registry);
    return 0;
  }
  if (options.list_scenarios) {
    list_scenarios();
    return 0;
  }

  if (!known_solvers(registry, options.solvers)) return 1;
  const engine::Format format = options.json  ? engine::Format::kJson
                                : options.csv ? engine::Format::kCsv
                                              : engine::Format::kTable;

  // Campaign mode: a scenario grid (file or preset) through one shared
  // pool, reported as per-point aggregates.
  if (!options.campaign.empty()) {
    engine::CampaignGrid grid;
    if (std::ifstream file(options.campaign); file) {
      // The CLI scenario knobs seed the grid's base; the file's own
      // directives override them where present.
      const auto parsed = engine::parse_campaign(file, &error, options.spec);
      if (!parsed.has_value()) {
        std::cerr << "campaign parse error: " << error << "\n";
        return 1;
      }
      grid = *parsed;
    } else if (const auto preset = engine::campaign_preset(options.campaign);
               preset.has_value()) {
      grid = *preset;
      // Presets fix only the grid axes; every shared knob comes from the
      // CLI (so `--campaign smoke --seed 99` does what it says).
      grid.base.seed = options.spec.seed;
      grid.base.slack = options.spec.slack;
      grid.base.horizon = options.spec.horizon;
      grid.base.eps = options.spec.eps;
    } else {
      std::cerr << "'" << options.campaign
                << "' is neither a readable campaign file nor a preset\n"
                << "presets:\n";
      for (const engine::CampaignPresetInfo& info :
           engine::campaign_presets()) {
        std::cerr << "  " << info.name << " — " << info.description << "\n";
      }
      return 1;
    }
    engine::CampaignOptions campaign_options;
    campaign_options.trials = options.trials_given ? options.trials : 4;
    campaign_options.threads = options.threads;
    campaign_options.run.solvers = options.solvers;
    campaign_options.run.budget_ms = options.budget_ms;
    if (!options.race.empty()) {
      campaign_options.race.enabled = true;
      campaign_options.race.accept_gap = options.accept_gap;
      if (options.race != "auto") {
        auto names = race_names(registry, options.race);
        if (!names.has_value()) return 1;
        campaign_options.race.entries = std::move(*names);
      }
    }
    const auto report =
        engine::run_campaign(registry, grid, campaign_options, &error);
    if (!report.has_value()) {
      std::cerr << error << "\n";
      return 1;
    }
    engine::render(std::cout, format, *report);
    const int code = engine::exit_code(*report);
    if (code == 1) {
      std::cerr << "no solver produced a schedule at any grid point\n";
    }
    return code;
  }

  // Trial-sweep mode: many seeds of one generated scenario through the
  // thread-pool engine, reported as per-solver aggregates.
  if (options.trials > 1) {
    if (!options.race.empty()) {
      std::cerr << "--trials with --race is not supported; use --campaign "
                   "for raced sweeps\n";
      return 1;
    }
    if (options.scenario.empty()) {
      std::cerr << "--trials needs --gen (sweeps regenerate the scenario "
                   "with seeds seed..seed+N-1)\n";
      return 1;
    }
    engine::SweepOptions sweep_options;
    sweep_options.trials = options.trials;
    sweep_options.threads = options.threads;
    sweep_options.run.solvers = options.solvers;
    sweep_options.run.budget_ms = options.budget_ms;
    const auto sweep =
        engine::run_sweep(registry, options.spec, sweep_options, &error);
    if (!sweep.has_value()) {
      std::cerr << error << "\n";
      return 1;
    }
    engine::render(std::cout, format, *sweep);
    const int code = engine::exit_code(*sweep);
    if (code == 1) std::cerr << "no solver produced a schedule in any trial\n";
    return code;
  }

  // Resolve the instance: generator scenario, stdin, or file.
  engine::Request request;
  if (!options.scenario.empty()) {
    auto generated = engine::make_scenario(options.spec, &error);
    if (!generated.has_value()) {
      std::cerr << error << "\n";
      return 1;
    }
    request.instance = std::move(*generated);
  } else if (!options.input.empty()) {
    // parse_instance returns the uniform carrier directly: extended-kind
    // files (model weighted / multi-window) flow through the same registry
    // path as the standard models.
    std::optional<core::ProblemInstance> parsed;
    if (options.input == "-") {
      parsed = core::parse_instance(std::cin, &error);
    } else {
      std::ifstream file(options.input);
      if (!file) {
        std::cerr << "cannot open '" << options.input << "'\n";
        return 1;
      }
      parsed = core::parse_instance(file, &error);
    }
    if (!parsed.has_value()) {
      std::cerr << "parse error: " << error << "\n";
      return 1;
    }
    request.instance = std::move(*parsed);
  } else {
    std::cerr << "no instance given (file, '-', or --gen)\n" << kUsage;
    return 1;
  }

  if (options.emit) {
    core::write_instance(std::cout, request.instance);
    return 0;
  }

  // A solve, or a portfolio race: contestants share the instance and the
  // pool; the first acceptable finisher wins and the rest drain.
  request.race = !options.race.empty();
  if (request.race && options.race != "auto") {
    auto names = race_names(registry, options.race);
    if (!names.has_value()) return 1;
    request.solvers = std::move(*names);
  } else if (!request.race) {
    request.solvers = options.solvers;
  }
  request.accept_gap = options.accept_gap;
  request.format = format;
  if (!options.connect.empty()) return solve_remote(options, request);

  const engine::Response response = engine::execute(
      registry, request, core::RunContext::with_budget_ms(options.budget_ms),
      options.threads);
  if (response.rows.empty()) {
    std::cerr << "no applicable solver for this instance\n";
    return 1;
  }
  std::cout << response.payload;
  if (options.gantt && !request.race && format == engine::Format::kTable) {
    append_gantt(std::cout, request.instance, response.rows);
  }
  if (response.exit == 1) {
    std::cerr << (request.race ? "no contestant produced a schedule\n"
                       : "no solver produced a schedule (infeasible "
                         "instance?)\n");
  }
  return response.exit;
}
