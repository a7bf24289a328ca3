// abtbench: the end-to-end benchmark driver. One process runs one workload
// for a fixed number of seconds, checks every output, and prints one JSON
// result line (end-to-end metrics, or per-layer metrics with --trace 1).
//
//   abtbench --workload svc-miss|svc-hit|campaign --seed N --seconds S
//            --trace 0|1 --abtd PATH --grids DIR --run-dir DIR
//            [--segment K] [--tamper response|miss]
//
// run.py splits one benchmark run into several segments, each a fresh
// driver process (and a fresh abtd); --segment K picks segment K's
// request seeds.
//
// svc-miss / svc-hit drive a real abtd child over a Unix socket, client
// and daemon pinned to one shared CPU, abtd at --threads 1. campaign calls
// engine::run_campaign in-process with two pool workers. Timed metrics are
// reported in units of the reference kernel (reference.hpp), probed on the
// same CPUs between every kProbeEvery requests or every grid. --tamper exists
// for the benchmark's own tests: it corrupts one response, or sends one
// unprimed request in svc-hit, so the output checks must fail.

#include <sys/resource.h>
#include <unistd.h>

#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <limits>
#include <map>
#include <numeric>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench_stats.hpp"
#include "core/io.hpp"
#include "daemon.hpp"
#include "engine/builtin_solvers.hpp"
#include "engine/campaign.hpp"
#include "engine/parallel.hpp"
#include "engine/runner.hpp"
#include "reference.hpp"
#include "service/cache.hpp"
#include "service/protocol.hpp"
#include "trace.hpp"

namespace {

using abt::core::ProblemInstance;
using abt::core::Solution;
using abt::core::Solver;
using abtbench::Span;
using abtbench::Tracer;

constexpr int kServiceWarmup = 800;  ///< untimed requests per service set-up
constexpr int kHitKeys = 32;         ///< svc-hit working set
constexpr int kMinPasses = 2;        ///< timed campaign passes, at least
constexpr int kCampaignWorkers = 2;
constexpr int kProbeEvery = 96;      ///< service requests per host-speed window
constexpr int kProbeReps = 5;        ///< reference runs per CPU per campaign probe

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  std::uint64_t segment = 0;
  double seconds = 10.0;
  bool trace = false;
  std::string abtd;
  std::string grids;
  std::string run_dir = ".";
  std::string tamper;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Per-layer metrics of the traced run, in BENCHMARK.json order. Layers a
/// workload never enters report 0.
const std::vector<std::pair<std::string, std::string>>& layer_metrics() {
  static const std::vector<std::pair<std::string, std::string>> kLayers = {
      {"svc.connect_us", "us"},          {"svc.transport_us", "us"},
      {"svc.request_bytes", "bytes"},    {"svc.response_bytes", "bytes"},
      {"protocol.frame_us", "us"},       {"protocol.parse_payload_us", "us"},
      {"io.parse_instance_us", "us"},    {"io.write_instance_us", "us"},
      {"protocol.cache_key_us", "us"},   {"cache.lookup_us", "us"},
      {"cache.insert_us", "us"},         {"cache.hit_share", "share"},
      {"cache.evictions", "count"},      {"registry.selection_us", "us"},
      {"registry.solvers_per_req", "count"},
      {"solver.run_us", "us"},           {"solver.check_us", "us"},
      {"runner.lower_bound_us", "us"},   {"runner.render_us", "us"},
      {"server.error_share", "share"},   {"server.shed_share", "share"},
      {"server.shrunk_share", "share"},  {"gen.make_scenario_us", "us"},
      {"solver.busy_us", "us"},          {"solver.busy_cells", "count"},
      {"solver.weighted_us", "us"},      {"solver.weighted_cells", "count"},
      {"solver.active_flow_us", "us"},   {"solver.active_flow_cells", "count"},
      {"solver.active_lp_us", "us"},     {"solver.active_lp_cells", "count"},
      {"solver.declined_share", "share"},{"solver.declined_us", "us"},
      {"pool.busy_share", "share"},      {"pool.steals", "count"},
      {"pool.chunks", "count"},          {"runner.aggregate_us", "us"},
      {"trace.overhead_share", "share"},
  };
  return kLayers;
}

std::string json_number(double value) {
  if (!std::isfinite(value)) return "0";
  std::ostringstream os;
  os.precision(std::numeric_limits<double>::max_digits10);
  os << value;
  return os.str();
}

void print_result(bool correct, const abtbench::OkTally& tally,
                  const std::vector<Metric>& metrics) {
  std::ostringstream os;
  os << "{\"correct\": " << (correct ? "true" : "false")
     << ", \"attempted\": " << tally.attempted
     << ", \"failed\": " << tally.failed() << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    os << (i == 0 ? "" : ", ") << "\"" << metrics[i].name
       << "\": {\"value\": " << json_number(metrics[i].value)
       << ", \"unit\": \"" << metrics[i].unit << "\"}";
  }
  os << "}}";
  std::cout << os.str() << std::endl;
}

void print_diagnostics(const std::vector<std::pair<std::string, double>>& d) {
  std::ostringstream os;
  os << "{\"diagnostics\": {";
  for (std::size_t i = 0; i < d.size(); ++i) {
    os << (i == 0 ? "" : ", ") << "\"" << d[i].first
       << "\": " << json_number(d[i].second);
  }
  os << "}}";
  std::cout << os.str() << std::endl;
}

/// Layer metrics from named values; every layer not named reports 0.
std::vector<Metric> layer_result(const std::map<std::string, double>& values) {
  std::vector<Metric> out;
  for (const auto& [name, unit] : layer_metrics()) {
    const auto it = values.find(name);
    out.push_back({name, it != values.end() ? it->second : 0.0, unit});
  }
  return out;
}

/// Scenario seed of request `i` of one phase (0 = svc-hit working set,
/// 1 = warm-up, 2 = timed) of one segment of a run: distinct for every
/// (seed, phase, segment, i), so no two payloads repeat by accident.
std::uint64_t request_seed(const Args& args, std::uint64_t phase,
                           std::int64_t i) {
  return (args.seed << 32) | (phase << 30) | (args.segment << 24) |
         static_cast<std::uint64_t>(i);
}

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

// ---------------------------------------------------------------------------
// Solver calls split into their layers (the registry's run() with the
// checker timed apart from the solve).

/// The trace layer a solver's run belongs to.
std::string solver_layer(const Solver& solver) {
  if (solver.kind == abt::core::InstanceKind::kWeighted) return "solver.weighted";
  if (solver.family == abt::core::Family::kBusy) return "solver.busy";
  if (solver.name == "active/lp-rounding") return "solver.active_lp";
  return "solver.active_flow";
}

const std::vector<std::string>& solver_layers() {
  static const std::vector<std::string> kNames = {
      "solver.busy", "solver.weighted", "solver.active_flow",
      "solver.active_lp", "solver.declined"};
  return kNames;
}

/// Self time (µs) and span count per layer of a finished traced run.
class LayerTotals {
 public:
  explicit LayerTotals(const Tracer& tracer) : totals_(tracer.totals()) {}

  [[nodiscard]] double self_us(const std::string& name) const {
    const auto it = totals_.find(name);
    return it == totals_.end() ? 0.0
                               : static_cast<double>(it->second.self_ns) / 1e3;
  }
  [[nodiscard]] double count(const std::string& name) const {
    const auto it = totals_.find(name);
    return it == totals_.end() ? 0.0 : static_cast<double>(it->second.count);
  }

  /// Adds the per-solver-layer metrics (self time per call, calls per
  /// operation) and the declined share; returns {run self µs, runs} over
  /// every solver layer.
  std::pair<double, double> add_solver_layers(
      double ops, std::map<std::string, double>* values) const {
    double run_us = 0.0;
    double runs = 0.0;
    for (const std::string& layer : solver_layers()) {
      run_us += self_us(layer);
      runs += count(layer);
      if (layer == "solver.declined") continue;
      (*values)[layer + "_us"] = abtbench::share(self_us(layer), count(layer));
      (*values)[layer + "_cells"] = count(layer) / ops;
    }
    (*values)["solver.declined_us"] =
        abtbench::share(self_us("solver.declined"), count("solver.declined"));
    (*values)["solver.declined_share"] =
        abtbench::share(count("solver.declined"), runs);
    return {run_us, runs};
  }

 private:
  std::map<std::string, Tracer::Totals> totals_;
};

/// Writes the spans out and prints the per-layer result line.
void finish_traced(const Args& args, const Tracer& tracer, bool correct,
                   const abtbench::OkTally& tally,
                   const std::map<std::string, double>& values) {
  std::ofstream spans(args.run_dir + "/spans-" + args.workload + "-" +
                      std::to_string(args.segment) + ".jsonl");
  tracer.write_jsonl(spans);
  print_result(correct, tally, layer_result(values));
}

/// SolverRegistry::run, field for field, with the gate + solve and the
/// checker recorded as separate spans. A run that produces no schedule is
/// recorded as "solver.declined".
Solution run_split(const Solver& solver, const ProblemInstance& inst,
                   Tracer* tracer, int parent, std::int64_t request) {
  const abt::core::RunContext ctx;
  Solution produced;
  {
    Span run(tracer, solver_layer(solver), parent, request);
    std::string why;
    const bool applicable =
        solver.family == inst.family && solver.kind == inst.kind &&
        (!solver.applicable || solver.applicable(inst, ctx, &why));
    const auto t0 = std::chrono::steady_clock::now();
    if (applicable) {
      produced = solver.run(inst, ctx);
    } else {
      produced.message = why.empty() ? "not applicable" : why;
    }
    produced.wall_ms = std::chrono::duration<double, std::milli>(
                           std::chrono::steady_clock::now() - t0)
                           .count();
    if (!produced.ok) run.rename("solver.declined");
  }
  produced.solver = solver.name;
  produced.family = solver.family;
  if (produced.guarantee.empty()) produced.guarantee = solver.guarantee;
  if (produced.ok && produced.exact && produced.best_bound <= 0.0) {
    produced.best_bound = produced.cost;
  }
  if (!produced.ok) {
    produced.feasible = false;
    return produced;
  }
  Span check(tracer, "solver.check", parent, request);
  std::string why;
  produced.feasible =
      solver.check ? solver.check(inst, produced, &why)
                   : abt::core::check_standard_solution(inst, produced, &why);
  if (produced.busy.has_value()) {
    produced.machines = produced.busy->machine_count();
  } else if (produced.preemptive.has_value()) {
    for (const auto& pieces : produced.preemptive->pieces) {
      for (const auto& piece : pieces) {
        produced.machines = std::max(produced.machines, piece.machine + 1);
      }
    }
  }
  if (!produced.feasible) produced.message = why;
  return produced;
}

// ---------------------------------------------------------------------------
// Service requests.

struct Shape {
  const char* scenario;
  int n;
  int g;
  std::vector<std::string> solvers;  ///< {} = every applicable solver
};

/// The two request shapes: the typical weighted request solved by one
/// greedy, and an interval request fanned out over every applicable busy
/// solver.
const std::vector<Shape>& shapes() {
  static const std::vector<Shape> kShapes = {
      {"weighted", 24, 3, {"busy/weighted-first-fit"}},
      {"interval", 48, 3, {}},
  };
  return kShapes;
}

/// Request i's shape: weighted, weighted, interval, repeating. With two
/// latency modes, a 1:1 mix would put the median in the gap between them
/// and make it jump; at 2:1 the median falls inside the weighted mode and
/// the 90th percentile inside the interval mode.
std::size_t shape_of(std::int64_t i) { return i % 3 == 2 ? 1 : 0; }

struct Request {
  ProblemInstance instance;
  std::vector<std::string> solvers;
  abt::service::Frame frame;
};

std::optional<Request> make_request(std::size_t shape,
                                    std::uint64_t scenario_seed) {
  const Shape& s = shapes()[shape];
  abt::engine::ScenarioSpec spec;
  spec.name = s.scenario;
  spec.n = s.n;
  spec.g = s.g;
  spec.seed = scenario_seed;
  std::string error;
  auto inst = abt::engine::make_scenario(spec, &error);
  if (!inst.has_value()) return std::nullopt;
  abt::service::SolveRequest solve;
  solve.solvers = s.solvers;
  solve.instance = *inst;
  std::ostringstream payload;
  if (!abt::service::write_solve_payload(payload, solve, &error)) {
    return std::nullopt;
  }
  Request out;
  out.instance = std::move(*inst);
  out.solvers = s.solvers;
  out.frame.type = abt::service::FrameType::kSolve;
  out.frame.payload = payload.str();
  return out;
}

/// The rows of a JSON solve response that the checks compare.
struct ResponseRows {
  bool parsed = false;
  double lower_bound = 0.0;
  struct Row {
    std::string solver;
    bool ok = false;
    bool feasible = false;
    double cost = 0.0;
  };
  std::vector<Row> rows;
};

ResponseRows parse_response(const std::string& payload) {
  ResponseRows out;
  const std::string lb_key = "\"lower_bound\": {\"value\": ";
  const std::size_t lb = payload.find(lb_key);
  if (lb == std::string::npos) return out;
  out.lower_bound = std::strtod(payload.c_str() + lb + lb_key.size(), nullptr);
  std::istringstream lines(payload);
  std::string line;
  const std::string solver_key = "{\"solver\": \"";
  while (std::getline(lines, line)) {
    const std::size_t at = line.find(solver_key);
    if (at == std::string::npos) continue;
    ResponseRows::Row row;
    const std::size_t name_begin = at + solver_key.size();
    const std::size_t name_end = line.find('"', name_begin);
    if (name_end == std::string::npos) return out;
    row.solver = line.substr(name_begin, name_end - name_begin);
    row.ok = line.find("\"ok\": true") != std::string::npos;
    row.feasible = line.find("\"feasible\": true") != std::string::npos;
    const std::size_t cost = line.find("\"cost\": ");
    if (row.ok && cost == std::string::npos) return out;
    if (cost != std::string::npos) {
      row.cost = std::strtod(line.c_str() + cost + 8, nullptr);
    }
    out.rows.push_back(std::move(row));
  }
  out.parsed = !out.rows.empty();
  return out;
}

/// The rows an untimed in-process SolverRegistry::run of the request
/// produces (the solvers are deterministic without a budget).
std::vector<Solution> expected_rows(const Request& request) {
  const abt::core::SolverRegistry& registry = abt::engine::shared_registry();
  std::vector<Solution> rows;
  for (const Solver* solver :
       registry.selection(request.instance, request.solvers)) {
    rows.push_back(registry.run(*solver, request.instance));
  }
  return rows;
}

bool rows_match(const ResponseRows& got, const std::vector<Solution>& want) {
  if (!got.parsed || got.rows.size() != want.size()) return false;
  for (std::size_t i = 0; i < want.size(); ++i) {
    const ResponseRows::Row& row = got.rows[i];
    if (row.solver != want[i].solver || row.ok != want[i].ok ||
        row.feasible != want[i].feasible) {
      return false;
    }
    if (row.ok && row.cost != want[i].cost) return false;
  }
  return true;
}

/// Accumulates cost / lower bound over the checker-verified rows.
void add_cost_ratios(const ResponseRows& rows, double* sum,
                     std::uint64_t* count) {
  if (rows.lower_bound <= 0.0) return;
  for (const ResponseRows::Row& row : rows.rows) {
    if (row.ok && row.feasible) {
      *sum += row.cost / rows.lower_bound;
      *count += 1;
    }
  }
}

std::string wire_bytes(const abt::service::Frame& frame) {
  return abt::service::frame_header(frame) + '\n' + frame.payload;
}

// ---------------------------------------------------------------------------
// Client side of one exchange against the daemon.

struct Timed {
  bool ok = false;  ///< A final frame arrived.
  abt::service::Frame final;
  double latency_us = 0.0;  ///< connect start .. final frame read
  std::size_t response_bytes = 0;
};

Timed timed_roundtrip(const abt::service::Address& address,
                      const abt::service::Frame& request, Tracer* tracer,
                      std::int64_t request_id) {
  Timed out;
  const std::int64_t t0 = abtbench::now_ns();
  Span root(tracer, "svc.request", -1, request_id);
  std::string error;
  abt::service::Connection conn;
  {
    Span connect(tracer, "svc.connect", root.id(), request_id);
    conn = abt::service::connect_to(address, &error);
  }
  if (!conn.valid()) return out;
  {
    Span write(tracer, "svc.write", root.id(), request_id);
    if (!conn.write_frame(request, &error)) return out;
  }
  Span read(tracer, "svc.read", root.id(), request_id);
  while (true) {
    abt::service::Frame frame;
    if (!conn.read_frame(&frame, &error)) return out;
    out.response_bytes += wire_bytes(frame).size();
    if (frame.type == abt::service::FrameType::kProgress) continue;
    out.final = std::move(frame);
    break;
  }
  out.ok = true;
  out.latency_us = static_cast<double>(abtbench::now_ns() - t0) / 1e3;
  return out;
}

/// The daemon's `stats` counters as a flat name -> value map (cache
/// counters keep their own names: hits, misses, evictions, ...).
std::optional<std::map<std::string, double>> daemon_stats(
    const abt::service::Address& address) {
  abt::service::Frame request;
  request.type = abt::service::FrameType::kStats;
  std::string error;
  const auto exchange = abt::service::client_roundtrip(address, request, &error);
  if (!exchange.has_value() ||
      exchange->final.type != abt::service::FrameType::kOk) {
    return std::nullopt;
  }
  std::map<std::string, double> out;
  const std::string& text = exchange->final.payload;
  std::size_t pos = 0;
  while ((pos = text.find('"', pos)) != std::string::npos) {
    const std::size_t end = text.find('"', pos + 1);
    if (end == std::string::npos) break;
    const std::string key = text.substr(pos + 1, end - pos - 1);
    std::size_t value = end + 1;
    while (value < text.size() && (text[value] == ':' || text[value] == ' ')) {
      ++value;
    }
    char* parsed_end = nullptr;
    const double number = std::strtod(text.c_str() + value, &parsed_end);
    if (parsed_end != text.c_str() + value) out[key] = number;
    pos = end + 1;
  }
  return out;
}

// ---------------------------------------------------------------------------
// In-process replay of the daemon's request path (Server::serve and
// handle_solve), through the same public functions, one span per layer.

/// Replays one request; returns its wall time in ns and adds the number
/// of solvers run to *solvers (when given).
std::int64_t replay_request(const std::string& wire,
                            abt::service::SolutionCache& cache, Tracer* tracer,
                            std::int64_t request_id,
                            std::size_t* solvers = nullptr) {
  const abt::core::SolverRegistry& registry = abt::engine::shared_registry();
  const std::int64_t t0 = abtbench::now_ns();
  Span root(tracer, "replay.request", -1, request_id);
  const int parent = root.id();
  abt::service::Frame request;
  std::string error;
  {
    Span frame(tracer, "protocol.frame", parent, request_id);
    std::istringstream in(wire);
    if (!abt::service::read_frame(in, &request, &error)) return 0;
  }
  abt::service::SolveRequest parsed;
  {
    Span parse(tracer, "protocol.parse_payload", parent, request_id);
    if (!abt::service::parse_solve_payload(request.payload, &parsed, &error)) {
      return 0;
    }
  }
  std::string key;
  {
    Span span(tracer, "protocol.cache_key", parent, request_id);
    key = abt::service::cache_key(parsed);
  }
  abt::service::Frame reply;
  reply.type = abt::service::FrameType::kOk;
  std::optional<abt::service::SolutionCache::Entry> hit;
  {
    Span span(tracer, "cache.lookup", parent, request_id);
    hit = cache.lookup(key);
  }
  if (hit.has_value()) {
    reply.flags.emplace_back("exit", std::to_string(hit->exit_code));
    reply.flags.emplace_back("cached", "1");
    reply.payload = std::move(hit->payload);
  } else {
    std::vector<const Solver*> plan;
    {
      Span span(tracer, "registry.selection", parent, request_id);
      plan = registry.selection(parsed.instance, parsed.solvers);
    }
    if (solvers != nullptr) *solvers += plan.size();
    abt::engine::RunReport report;
    for (const Solver* solver : plan) {
      report.solutions.push_back(
          run_split(*solver, parsed.instance, tracer, parent, request_id));
    }
    {
      Span span(tracer, "runner.lower_bound", parent, request_id);
      abt::engine::append_unknown_solver_rows(registry, parsed.solvers, report);
      report.lower_bound = abt::engine::derive_lower_bound(
          parsed.instance, report.solutions, abt::engine::RunOptions{});
    }
    int exit_code = 0;
    {
      Span span(tracer, "runner.render", parent, request_id);
      report.instance = parsed.instance;
      std::ostringstream body;
      abt::engine::write_json(body, report);
      bool any_ok = false;
      for (const Solution& sol : report.solutions) {
        if (sol.ok && !sol.feasible) exit_code = 2;
        any_ok = any_ok || sol.ok;
      }
      if (exit_code == 0 && !any_ok) exit_code = 1;
      reply.flags.emplace_back("exit", std::to_string(exit_code));
      reply.payload = body.str();
    }
    Span span(tracer, "cache.insert", parent, request_id);
    cache.insert(key, {reply.payload, exit_code});
  }
  {
    Span frame(tracer, "protocol.frame", parent, request_id);
    std::ostringstream out;
    abt::service::write_frame(out, reply);
  }
  return abtbench::now_ns() - t0;
}

/// The instance parse and canonical re-write inside parse_solve_payload,
/// timed on their own (the split of protocol.parse_payload).
void replay_instance_io(const std::string& payload, Tracer* tracer,
                        std::int64_t request_id) {
  const std::size_t at = payload.find("instance\n");
  if (at == std::string::npos) return;
  std::optional<ProblemInstance> inst;
  {
    Span span(tracer, "io.parse_instance", -1, request_id);
    std::istringstream in(payload.substr(at + 9));
    inst = abt::core::parse_instance(in);
  }
  if (!inst.has_value()) return;
  Span span(tracer, "io.write_instance", -1, request_id);
  std::ostringstream out;
  (void)abt::core::write_instance(out, *inst);
}

// ---------------------------------------------------------------------------
// Service workloads.

bool wait_ready(abtbench::Daemon& daemon,
                const abt::service::Address& address) {
  const auto t0 = std::chrono::steady_clock::now();
  while (seconds_since(t0) < 30.0) {
    if (!daemon.alive()) return false;
    if (daemon_stats(address).has_value()) return true;
    std::this_thread::sleep_for(std::chrono::microseconds(500));
  }
  return false;
}

int run_service(const Args& args, bool hit) {
  const std::vector<int> cpus = abtbench::allowed_cpus();
  if (cpus.empty()) {
    std::cerr << "abtbench: no CPU in the affinity mask\n";
    return 1;
  }
  const std::vector<int> pinned = {cpus.back()};
  if (!abtbench::pin_to(pinned)) {
    std::cerr << "abtbench: cannot pin to CPU " << pinned[0] << "\n";
    return 1;
  }
  (void)abt::engine::shared_registry();  // client-side checks need it

  abtbench::Daemon daemon;
  abt::service::Address address;
  const std::string tag = std::to_string(::getpid());
  address.socket_path = args.run_dir + "/abtd-" + tag + ".sock";
  const std::string log_path = args.run_dir + "/abtd-" + tag + ".log";

  // svc-hit's working set and the rows an in-process run gives for each
  // (computed before any set-up is timed).
  std::vector<Request> table;
  std::vector<std::vector<Solution>> table_rows;
  if (hit) {
    for (int k = 0; k < kHitKeys; ++k) {
      auto request = make_request(shape_of(k), request_seed(args, 0, k));
      if (!request.has_value()) return 1;
      table_rows.push_back(expected_rows(*request));
      table.push_back(std::move(*request));
    }
  }
  std::vector<abt::service::Frame> primed(table.size());

  // Set-up: daemon exec until the first stats reply, then the warm-up
  // pass (svc-miss: seeds the timed pass never uses; svc-hit: priming the
  // working set, then an untimed replay of it).
  const auto setup_start = std::chrono::steady_clock::now();
  std::string error;
  if (!daemon.start({args.abtd, "--socket", address.socket_path, "--threads",
                     "1"},
                    log_path, &error)) {
    std::cerr << "abtbench: " << error << "\n";
    return 1;
  }
  if (!wait_ready(daemon, address)) {
    std::cerr << "abtbench: abtd did not answer stats (log: " << log_path
              << ")\n";
    return 1;
  }
  if (hit) {
    for (std::size_t k = 0; k < table.size(); ++k) {
      const Timed got = timed_roundtrip(address, table[k].frame, nullptr, 0);
      if (!got.ok || got.final.type != abt::service::FrameType::kOk ||
          got.final.has_flag("cached") || got.final.flag("exit") != "0" ||
          !rows_match(parse_response(got.final.payload), table_rows[k])) {
        std::cerr << "abtbench: priming request " << k << " failed\n";
        return 1;
      }
      primed[k] = got.final;
    }
  }
  for (int i = 0; i < kServiceWarmup; ++i) {
    std::optional<Request> fresh;
    if (!hit) {
      fresh = make_request(shape_of(i), request_seed(args, 1, i));
      if (!fresh.has_value()) return 1;
    }
    const abt::service::Frame& frame =
        hit ? table[static_cast<std::size_t>(i) % table.size()].frame
            : fresh->frame;
    const Timed got = timed_roundtrip(address, frame, nullptr, 0);
    if (!got.ok || got.final.type != abt::service::FrameType::kOk ||
        got.final.has_flag("cached") != hit) {
      std::cerr << "abtbench: warm-up request " << i << " failed\n";
      return 1;
    }
  }
  const double setup_s = seconds_since(setup_start);

  // Traced runs replay every request in-process twice, through caches of
  // their own that start in the daemon's state (svc-hit: primed).
  Tracer tracer;
  abt::service::SolutionCache replay_cache_plain(512, std::size_t{16} << 20);
  abt::service::SolutionCache replay_cache_traced(512, std::size_t{16} << 20);
  for (const Request& request : table) {
    if (!args.trace) break;
    const std::string wire = wire_bytes(request.frame);
    (void)replay_request(wire, replay_cache_plain, nullptr, 0);
    (void)replay_request(wire, replay_cache_traced, nullptr, 0);
  }

  const auto stats0 = daemon_stats(address);
  const double cpu0 = abtbench::process_cpu_s(daemon.pid());
  const abtbench::ContextSwitches ctx0 =
      abtbench::context_switches(daemon.pid());
  const abtbench::CpuJiffies jiffies0 = abtbench::cpu_jiffies(pinned);

  abtbench::OkTally tally;
  std::vector<double> latencies;
  std::vector<std::vector<double>> shape_latencies(shapes().size());
  double ratio_sum = 0.0;
  std::uint64_t ratio_count = 0;
  double request_bytes = 0.0;
  double response_bytes = 0.0;
  double latency_sum_us = 0.0;
  std::int64_t replay_plain_ns = 0;
  std::int64_t replay_traced_ns = 0;
  std::size_t solvers_run = 0;
  // Host-speed probes every kProbeEvery requests, on the pinned CPU while
  // abtd idles: the reference kernel's time, abtd's CPU clock and the
  // number of latencies so far. The run ends on a probe, so every window
  // holds kProbeEvery requests.
  std::vector<double> probe_ref_us;
  std::vector<double> probe_cpu_us;
  std::vector<std::size_t> probe_latencies;

  const auto start = std::chrono::steady_clock::now();
  for (std::int64_t i = 0;; ++i) {
    if (i % kProbeEvery == 0) {
      probe_cpu_us.push_back(abtbench::process_cpu_s(daemon.pid()) * 1e6);
      probe_ref_us.push_back(abtbench::reference_us());
      probe_latencies.push_back(latencies.size());
      if (seconds_since(start) >= args.seconds) break;
    }
    std::optional<Request> fresh;
    std::size_t key = 0;
    const bool force_miss = hit && args.tamper == "miss" && i == 7;
    if (!hit || force_miss) {
      fresh = make_request(shape_of(i), request_seed(args, 2, i));
      if (!fresh.has_value()) return 1;
    } else {
      key = static_cast<std::size_t>(i) % table.size();
    }
    const abt::service::Frame& frame = fresh ? fresh->frame : table[key].frame;
    Timed got = timed_roundtrip(address, frame,
                                args.trace ? &tracer : nullptr, i);
    if (args.tamper == "response" && i == 7) {
      // A wrong answer: the first digit of the first reported cost.
      const std::size_t at = got.final.payload.find("\"cost\": ");
      if (at != std::string::npos) {
        char& digit = got.final.payload[at + 8];
        digit = digit == '9' ? '1' : static_cast<char>(digit + 1);
      }
    }

    bool ok = got.ok && got.final.type == abt::service::FrameType::kOk &&
              !got.final.has_flag("budget-ms");
    if (ok && !hit) {
      const ResponseRows rows = parse_response(got.final.payload);
      ok = got.final.flag("exit") == "0" && !got.final.has_flag("cached") &&
           rows_match(rows, expected_rows(*fresh));
      if (ok) add_cost_ratios(rows, &ratio_sum, &ratio_count);
    } else if (ok) {
      ok = !force_miss && got.final.flag("cached") == "1" &&
           got.final.flag("exit") == primed[key].flag("exit") &&
           got.final.payload == primed[key].payload;
    }
    tally.record(ok);
    if (ok) {
      latencies.push_back(got.latency_us);
      shape_latencies[shape_of(hit ? static_cast<std::int64_t>(key) : i)]
          .push_back(got.latency_us);
    }

    if (args.trace) {
      const std::string wire = wire_bytes(frame);
      request_bytes += static_cast<double>(wire.size());
      response_bytes += static_cast<double>(got.response_bytes);
      latency_sum_us += got.latency_us;
      // Alternate which replay runs first so neither always finds the
      // other's warm caches.
      std::size_t solvers = 0;
      const auto plain = [&] {
        replay_plain_ns += replay_request(wire, replay_cache_plain, nullptr, i);
      };
      if (i % 2 == 0) plain();
      replay_traced_ns +=
          replay_request(wire, replay_cache_traced, &tracer, i, &solvers);
      if (i % 2 != 0) plain();
      solvers_run += solvers;
      replay_instance_io(frame.payload, &tracer, i);
    }
  }

  const double cpu1 = abtbench::process_cpu_s(daemon.pid());
  const abtbench::ContextSwitches ctx1 =
      abtbench::context_switches(daemon.pid());
  const abtbench::CpuJiffies jiffies1 = abtbench::cpu_jiffies(pinned);
  const auto stats1 = daemon_stats(address);
  const double rss_kb = abtbench::peak_rss_kb(daemon.pid());
  daemon.stop();
  std::remove(log_path.c_str());  // kept only when a run fails
  if (!stats0.has_value() || !stats1.has_value()) {
    std::cerr << "abtbench: stats verb failed\n";
    return 1;
  }
  const auto delta = [&](const std::string& key) {
    return stats1->at(key) - stats0->at(key);
  };

  if (hit) {
    for (const abt::service::Frame& frame : primed) {
      add_cost_ratios(parse_response(frame.payload), &ratio_sum, &ratio_count);
    }
  }
  const double n = static_cast<double>(tally.attempted);

  // Latencies and abtd CPU per request in units of their window's
  // reference time.
  const std::vector<double> refs = abtbench::window_refs(probe_ref_us);
  std::vector<double> latencies_ref;
  std::vector<double> cpu_ref;
  for (std::size_t j = 0; j < refs.size(); ++j) {
    for (std::size_t k = probe_latencies[j]; k < probe_latencies[j + 1]; ++k) {
      latencies_ref.push_back(latencies[k] / refs[j]);
    }
    cpu_ref.push_back((probe_cpu_us[j + 1] - probe_cpu_us[j]) / kProbeEvery /
                      refs[j]);
  }

  print_diagnostics({
      {"lat_p50_us", abtbench::percentile(latencies, 0.50)},
      {"lat_p90_us", abtbench::percentile(latencies, 0.90)},
      {"cpu_us_per_op", abtbench::share((cpu1 - cpu0) * 1e6, n)},
      {"ref_us", abtbench::median(probe_ref_us)},
      {"lat_p99_us", abtbench::percentile(latencies, 0.99)},
      {"weighted_p50_us", abtbench::percentile(shape_latencies[0], 0.5)},
      {"weighted_p90_us", abtbench::percentile(shape_latencies[0], 0.9)},
      {"interval_p50_us", abtbench::percentile(shape_latencies[1], 0.5)},
      {"interval_p90_us", abtbench::percentile(shape_latencies[1], 0.9)},
      {"requests", n},
      {"steal_share", abtbench::share(
                          static_cast<double>(jiffies1.steal - jiffies0.steal),
                          static_cast<double>(jiffies1.total - jiffies0.total))},
      {"abtd_voluntary_ctxt_switches",
       static_cast<double>(ctx1.voluntary - ctx0.voluntary)},
      {"abtd_involuntary_ctxt_switches",
       static_cast<double>(ctx1.involuntary - ctx0.involuntary)},
      {"stats_accepted", stats1->at("accepted")},
      {"stats_served", stats1->at("served")},
      {"stats_errors", stats1->at("errors")},
      {"stats_shed", stats1->at("shed")},
      {"stats_shrunk", stats1->at("shrunk")},
      {"stats_cache_hits", stats1->at("hits")},
      {"stats_cache_misses", stats1->at("misses")},
      {"pinned_cpu", static_cast<double>(pinned[0])},
  });

  const bool correct = tally.failed() == 0 && ratio_count > 0;
  if (!args.trace) {
    print_result(
        correct, tally,
        {{"lat_p50_ref", abtbench::percentile(latencies_ref, 0.50), "ref"},
         {"lat_p90_ref", abtbench::percentile(latencies_ref, 0.90), "ref"},
         {"cpu_per_op_ref", abtbench::median(cpu_ref), "ref"},
         {"cost_ratio",
          abtbench::share(ratio_sum, static_cast<double>(ratio_count)),
          "ratio"},
         {"ok_share", tally.ok_share(), "share"},
         {"peak_rss_mb", rss_kb / 1024.0, "MB"},
         {"setup_s", setup_s, "s"}});
    return 0;
  }

  const LayerTotals layers(tracer);
  std::map<std::string, double> values;
  values["solver.run_us"] = layers.add_solver_layers(n, &values).first / n;
  values["svc.connect_us"] = layers.self_us("svc.connect") / n;
  // Client and daemon share one CPU, so the daemon mostly runs while the
  // client is still inside write(): what is not the request path itself
  // (the in-process replay) is transport — syscalls, wakeups, context
  // switches and the dispatcher hand-off.
  values["svc.transport_us"] =
      (latency_sum_us - static_cast<double>(replay_plain_ns) / 1e3) / n;
  values["svc.request_bytes"] = request_bytes / n;
  values["svc.response_bytes"] = response_bytes / n;
  for (const char* layer :
       {"protocol.frame", "protocol.parse_payload", "io.parse_instance",
        "io.write_instance", "protocol.cache_key", "cache.lookup",
        "cache.insert", "registry.selection", "solver.check",
        "runner.lower_bound", "runner.render"}) {
    values[std::string(layer) + "_us"] = layers.self_us(layer) / n;
  }
  values["registry.solvers_per_req"] = static_cast<double>(solvers_run) / n;
  values["cache.hit_share"] =
      abtbench::share(delta("hits"), delta("hits") + delta("misses"));
  values["cache.evictions"] = delta("evictions");
  values["server.error_share"] = abtbench::share(delta("errors"), delta("accepted"));
  values["server.shed_share"] = abtbench::share(delta("shed"), delta("accepted"));
  values["server.shrunk_share"] =
      abtbench::share(delta("shrunk"), delta("accepted"));
  values["trace.overhead_share"] = abtbench::share(
      static_cast<double>(replay_traced_ns - replay_plain_ns),
      static_cast<double>(replay_plain_ns));
  finish_traced(args, tracer, correct, tally, values);
  return 0;
}

// ---------------------------------------------------------------------------
// The campaign workload.

struct PassResult {
  double wall_s = 0.0;
  std::vector<double> grid_wall_us;  ///< per grid, in grid order
  std::vector<double> grid_cpu_us;   ///< process CPU per grid
  std::uint64_t cells = 0;
  std::uint64_t infeasible = 0;
  double ratio_sum = 0.0;
  std::uint64_t ratio_count = 0;
  [[nodiscard]] double cost_ratio() const {
    return abtbench::share(ratio_sum, static_cast<double>(ratio_count));
  }
};

void add_points(const std::vector<abt::engine::CampaignPoint>& points,
                PassResult* out) {
  for (const abt::engine::CampaignPoint& point : points) {
    out->cells += static_cast<std::uint64_t>(point.cells);
    out->infeasible += static_cast<std::uint64_t>(point.infeasible_cells);
    for (const abt::engine::SolverAggregate& agg : point.aggregates) {
      out->ratio_sum += agg.ratio_mean * agg.ratio_count;
      out->ratio_count += static_cast<std::uint64_t>(agg.ratio_count);
    }
  }
}

abt::engine::CampaignOptions campaign_options() {
  abt::engine::CampaignOptions options;
  options.threads = kCampaignWorkers;
  return options;
}

double process_cpu_self_s() {
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_utime.tv_sec + usage.ru_stime.tv_sec) +
         static_cast<double>(usage.ru_utime.tv_usec + usage.ru_stime.tv_usec) /
             1e6;
}

/// One pass: run_campaign over every grid. With `probe_cpus`, a host-speed
/// probe on those CPUs follows every grid, appended to *probes_us; its
/// time is not part of the pass.
std::optional<PassResult> campaign_pass(
    const std::vector<abt::engine::CampaignGrid>& grids,
    const std::vector<int>* probe_cpus = nullptr,
    std::vector<double>* probes_us = nullptr) {
  PassResult out;
  for (const abt::engine::CampaignGrid& grid : grids) {
    const auto t0 = std::chrono::steady_clock::now();
    const double cpu0 = process_cpu_self_s();
    std::string error;
    const auto report = abt::engine::run_campaign(
        abt::engine::shared_registry(), grid, campaign_options(), &error);
    if (!report.has_value()) {
      std::cerr << "abtbench: run_campaign: " << error << "\n";
      return std::nullopt;
    }
    out.grid_cpu_us.push_back((process_cpu_self_s() - cpu0) * 1e6);
    out.grid_wall_us.push_back(seconds_since(t0) * 1e6);
    out.wall_s += out.grid_wall_us.back() / 1e6;
    add_points(report->points, &out);
    if (probe_cpus != nullptr) {
      probes_us->push_back(abtbench::reference_on_us(*probe_cpus, kProbeReps));
    }
  }
  return out;
}

struct PoolCounters {
  std::uint64_t steals = 0;
  std::uint64_t chunks = 0;
};

PoolCounters pool_counters() {
  PoolCounters out;
  for (const abt::engine::WorkerStats& stats :
       abt::engine::ThreadPool::shared().worker_stats()) {
    out.steals += stats.steals;
    out.chunks += stats.chunks_claimed;
  }
  return out;
}

/// One pass replayed through run_campaign's own steps — make_scenario,
/// selection, parallel_for over the cells, the solver and checker calls,
/// derive_lower_bound, aggregate_cells — with a span around each call.
std::optional<PassResult> traced_pass(
    const std::vector<abt::engine::CampaignGrid>& grids, Tracer* tracer,
    std::int64_t pass_id, double* cell_ns, double* pool_ns) {
  const abt::core::SolverRegistry& registry = abt::engine::shared_registry();
  const abt::engine::CampaignOptions options = campaign_options();
  PassResult out;
  const auto t0 = std::chrono::steady_clock::now();
  for (const abt::engine::CampaignGrid& grid : grids) {
    const int trials = grid.trials > 0 ? grid.trials : options.trials;
    const std::vector<abt::engine::ScenarioSpec> specs =
        abt::engine::expand_grid(grid);
    std::vector<std::vector<ProblemInstance>> instances(specs.size());
    std::vector<std::vector<std::vector<const Solver*>>> plans(specs.size());
    for (std::size_t p = 0; p < specs.size(); ++p) {
      const std::vector<std::string>& subset =
          abt::engine::grid_solvers(grid, specs[p].name);
      for (int t = 0; t < trials; ++t) {
        abt::engine::ScenarioSpec spec = specs[p];
        spec.seed = specs[p].seed + static_cast<std::uint64_t>(t);
        std::optional<ProblemInstance> inst;
        {
          Span span(tracer, "gen.make_scenario", -1, pass_id);
          inst = abt::engine::make_scenario(spec);
        }
        if (!inst.has_value()) return std::nullopt;
        Span span(tracer, "registry.selection", -1, pass_id);
        plans[p].push_back(registry.selection(*inst, subset));
        instances[p].push_back(std::move(*inst));
      }
    }
    struct Cell {
      std::size_t point, trial, slot;
    };
    std::vector<Cell> cells;
    std::vector<std::vector<std::vector<Solution>>> grid_out(specs.size());
    for (std::size_t p = 0; p < specs.size(); ++p) {
      grid_out[p].resize(plans[p].size());
      for (std::size_t t = 0; t < plans[p].size(); ++t) {
        grid_out[p][t].resize(plans[p][t].size());
        for (std::size_t s = 0; s < plans[p][t].size(); ++s) {
          cells.push_back({p, t, s});
        }
      }
    }
    std::vector<std::int64_t> cell_durations(cells.size(), 0);
    const std::int64_t pool0 = abtbench::now_ns();
    {
      Span pool(tracer, "pool.parallel_for", -1, pass_id);
      abt::engine::parallel_for(
          options.threads, cells.size(), [&](std::size_t i) {
            const std::int64_t c0 = abtbench::now_ns();
            {
              Span cell(tracer, "pool.cell", pool.id(), pass_id);
              const auto [p, t, s] = cells[i];
              grid_out[p][t][s] = run_split(*plans[p][t][s], instances[p][t],
                                            tracer, cell.id(), pass_id);
            }
            cell_durations[i] = abtbench::now_ns() - c0;
          });
    }
    *pool_ns += static_cast<double>(abtbench::now_ns() - pool0);
    for (const std::int64_t ns : cell_durations) {
      *cell_ns += static_cast<double>(ns);
    }
    std::vector<abt::engine::CampaignPoint> points(specs.size());
    for (std::size_t p = 0; p < specs.size(); ++p) {
      std::vector<abt::engine::RunReport> reports;
      for (std::size_t t = 0; t < instances[p].size(); ++t) {
        abt::engine::RunReport cell;
        cell.instance = std::move(instances[p][t]);
        cell.solutions = std::move(grid_out[p][t]);
        Span span(tracer, "runner.lower_bound", -1, pass_id);
        abt::engine::append_unknown_solver_rows(
            registry, abt::engine::grid_solvers(grid, specs[p].name), cell);
        cell.lower_bound = abt::engine::derive_lower_bound(
            cell.instance, cell.solutions, options.run);
        for (const Solution& sol : cell.solutions) {
          points[p].cells += 1;
          if (sol.ok && !sol.feasible) points[p].infeasible_cells += 1;
        }
        reports.push_back(std::move(cell));
      }
      Span span(tracer, "runner.aggregate", -1, pass_id);
      points[p].aggregates = abt::engine::aggregate_cells(reports);
    }
    add_points(points, &out);
  }
  out.wall_s = seconds_since(t0);
  return out;
}

std::optional<std::vector<abt::engine::CampaignGrid>> load_grids(
    const Args& args) {
  std::vector<abt::engine::CampaignGrid> grids;
  for (const char* name : {"busy.grid", "weighted.grid", "active.grid"}) {
    const std::string path = args.grids + "/" + name;
    std::ifstream in(path);
    if (!in) {
      std::cerr << "abtbench: cannot read " << path << "\n";
      return std::nullopt;
    }
    abt::engine::ScenarioSpec base;
    base.seed = 1000 * (64 * args.seed + args.segment) + 1;
    std::string error;
    auto grid = abt::engine::parse_campaign(in, &error, base);
    if (!grid.has_value()) {
      std::cerr << "abtbench: " << path << ": " << error << "\n";
      return std::nullopt;
    }
    grids.push_back(std::move(*grid));
  }
  return grids;
}

int run_campaign_workload(const Args& args) {
  std::vector<int> cpus = abtbench::allowed_cpus();
  if (cpus.size() > static_cast<std::size_t>(kCampaignWorkers)) {
    cpus.erase(cpus.begin(), cpus.end() - kCampaignWorkers);
  }
  // Pin before the pool exists: its workers inherit the mask.
  if (cpus.empty() || !abtbench::pin_to(cpus)) {
    std::cerr << "abtbench: cannot pin the campaign\n";
    return 1;
  }
  const auto grids = load_grids(args);
  if (!grids.has_value()) return 1;

  // Set-up: registry build, pool start and one untimed pass, whose
  // cost_ratio every timed pass must repeat exactly.
  const auto setup_start = std::chrono::steady_clock::now();
  (void)abt::engine::shared_registry();
  abt::engine::ThreadPool::shared().ensure_workers(kCampaignWorkers);
  const auto setup_pass = campaign_pass(*grids);
  if (!setup_pass.has_value() || setup_pass->infeasible != 0) return 1;
  const double setup_s = seconds_since(setup_start);
  const double reference_ratio = setup_pass->cost_ratio();
  abtbench::OkTally tally;

  const abtbench::CpuJiffies jiffies0 = abtbench::cpu_jiffies(cpus);
  const PoolCounters pool0 = pool_counters();
  std::vector<PassResult> passes;
  std::vector<double> rates;
  // Host-speed probes on each pinned CPU before the first grid and after
  // every grid of the timed passes, while the pool idles.
  std::vector<double> probe_ref_us = {
      abtbench::reference_on_us(cpus, kProbeReps)};
  Tracer tracer;
  std::vector<double> traced_walls_us;
  double cell_ns = 0.0;
  double pool_ns = 0.0;
  std::int64_t traced_passes = 0;
  const auto check_pass = [&](const PassResult& pass) {
    const bool same = pass.cost_ratio() == reference_ratio;
    for (std::uint64_t c = 0; c < pass.cells; ++c) {
      tally.record(same && c >= pass.infeasible);
    }
  };

  const auto start = std::chrono::steady_clock::now();
  for (int i = 0; i < kMinPasses || seconds_since(start) < args.seconds; ++i) {
    auto pass = campaign_pass(*grids, &cpus, &probe_ref_us);
    if (!pass.has_value()) return 1;
    check_pass(*pass);
    rates.push_back(static_cast<double>(pass->cells) / pass->wall_s);
    passes.push_back(std::move(*pass));
    if (args.trace) {
      const auto traced = traced_pass(*grids, &tracer, traced_passes, &cell_ns,
                                      &pool_ns);
      if (!traced.has_value()) return 1;
      check_pass(*traced);
      traced_walls_us.push_back(traced->wall_s * 1e6);
      traced_passes += 1;
    }
  }
  const PoolCounters pool1 = pool_counters();
  const abtbench::CpuJiffies jiffies1 = abtbench::cpu_jiffies(cpus);
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);

  // Pass times and CPU per cell, each grid in units of its own window's
  // reference time; the windows are the grids in the order they ran.
  const std::vector<double> refs = abtbench::window_refs(probe_ref_us);
  std::vector<double> walls_us;
  std::vector<double> cpu_us_per_cell;
  std::vector<double> walls_ref;
  std::vector<double> cpu_ref;
  std::size_t window = 0;
  for (const PassResult& pass : passes) {
    const auto cells = static_cast<double>(pass.cells);
    double wall = 0.0;
    double cpu = 0.0;
    for (std::size_t g = 0; g < pass.grid_wall_us.size(); ++g, ++window) {
      wall += pass.grid_wall_us[g] / refs[window];
      cpu += pass.grid_cpu_us[g] / refs[window];
    }
    walls_us.push_back(pass.wall_s * 1e6);
    cpu_us_per_cell.push_back(abtbench::share(
        std::accumulate(pass.grid_cpu_us.begin(), pass.grid_cpu_us.end(), 0.0),
        cells));
    walls_ref.push_back(wall);
    cpu_ref.push_back(abtbench::share(cpu, cells));
  }

  print_diagnostics({
      {"lat_p50_us", abtbench::percentile(walls_us, 0.50)},
      {"lat_p90_us", abtbench::percentile(walls_us, 0.90)},
      {"cpu_us_per_op", abtbench::median(cpu_us_per_cell)},
      {"ref_us", abtbench::median(probe_ref_us)},
      {"passes", static_cast<double>(walls_us.size())},
      {"cells_per_s", abtbench::median(rates)},
      {"steal_share", abtbench::share(
                          static_cast<double>(jiffies1.steal - jiffies0.steal),
                          static_cast<double>(jiffies1.total - jiffies0.total))},
      {"pinned_cpus", static_cast<double>(cpus.size())},
  });

  const bool correct = tally.failed() == 0;
  if (!args.trace) {
    print_result(
        correct, tally,
        {{"lat_p50_ref", abtbench::percentile(walls_ref, 0.50), "ref"},
         {"lat_p90_ref", abtbench::percentile(walls_ref, 0.90), "ref"},
         {"cpu_per_op_ref", abtbench::median(cpu_ref), "ref"},
         {"cost_ratio", reference_ratio, "ratio"},
         {"ok_share", tally.ok_share(), "share"},
         {"peak_rss_mb", static_cast<double>(usage.ru_maxrss) / 1024.0, "MB"},
         {"setup_s", setup_s, "s"}});
    return 0;
  }

  const LayerTotals layers(tracer);
  std::map<std::string, double> values;
  const auto [run_us, runs] =
      layers.add_solver_layers(static_cast<double>(traced_passes), &values);
  values["solver.run_us"] = abtbench::share(run_us, runs);
  for (const char* layer : {"gen.make_scenario", "registry.selection",
                            "solver.check", "runner.lower_bound",
                            "runner.aggregate"}) {
    values[std::string(layer) + "_us"] =
        abtbench::share(layers.self_us(layer), layers.count(layer));
  }
  values["pool.busy_share"] =
      abtbench::share(cell_ns, kCampaignWorkers * pool_ns);
  values["pool.steals"] = static_cast<double>(pool1.steals - pool0.steals) /
                          static_cast<double>(walls_us.size() + traced_passes);
  values["pool.chunks"] = static_cast<double>(pool1.chunks - pool0.chunks) /
                          static_cast<double>(walls_us.size() + traced_passes);
  const double plain_us = abtbench::median(walls_us);
  values["trace.overhead_share"] = abtbench::share(
      abtbench::median(traced_walls_us) - plain_us, plain_us);
  finish_traced(args, tracer, correct, tally, values);
  return 0;
}

bool parse_args(int argc, char** argv, Args* out) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      out->workload = value;
    } else if (flag == "--seed") {
      out->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--segment") {
      out->segment = std::strtoull(value.c_str(), nullptr, 10) % 64;
    } else if (flag == "--seconds") {
      out->seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      out->trace = value == "1";
    } else if (flag == "--abtd") {
      out->abtd = value;
    } else if (flag == "--grids") {
      out->grids = value;
    } else if (flag == "--run-dir") {
      out->run_dir = value;
    } else if (flag == "--tamper") {
      out->tamper = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && out->seconds > 0.0;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse_args(argc, argv, &args)) {
    std::cerr << "usage: abtbench --workload svc-miss|svc-hit|campaign "
                 "--seed N --seconds S --trace 0|1 --abtd PATH --grids DIR "
                 "--run-dir DIR [--segment K] [--tamper response|miss]\n";
    return 64;
  }
  abtbench::install_signal_cleanup();
  try {
    if (args.workload == "svc-miss") return run_service(args, false);
    if (args.workload == "svc-hit") return run_service(args, true);
    if (args.workload == "campaign") return run_campaign_workload(args);
  } catch (const std::exception& e) {
    std::cerr << "abtbench: " << e.what() << "\n";
    return 1;
  }
  std::cerr << "abtbench: unknown workload '" << args.workload << "'\n";
  return 64;
}
