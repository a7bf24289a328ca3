// abtd: the persistent solver daemon over the full builtin registry.
// Listens on a Unix-domain socket (--socket PATH) and/or loopback TCP
// (--port N; 0 picks an ephemeral port, printed on startup), serves the
// service protocol (docs/SERVICE.md) until SIGINT/SIGTERM, then drains
// and prints a stats summary. `abt_solve --connect <addr>` is the
// matching client.

#include <chrono>
#include <csignal>
#include <cstdlib>
#include <iostream>
#include <string>
#include <thread>

#include "core/text.hpp"
#include "engine/builtin_solvers.hpp"
#include "service/server.hpp"

namespace {

using abt::core::parse_number;

volatile std::sig_atomic_t g_stop_requested = 0;

void handle_signal(int /*signum*/) { g_stop_requested = 1; }

void usage(std::ostream& os) {
  os << "usage: abtd (--socket PATH | --port N) [options]\n"
        "  --socket PATH          Unix-domain listener\n"
        "  --port N               loopback TCP listener (0 = ephemeral)\n"
        "  --dispatchers N        request worker threads (default 2)\n"
        "  --threads N            threads that run a request's cells, the\n"
        "                         dispatcher included (0 = hardware)\n"
        "  --queue-soft N         load beyond which budgets shrink "
        "(default 4)\n"
        "  --queue-cap N          queued beyond which requests are shed "
        "(default 16)\n"
        "  --default-budget-ms X  budget an unlimited request shrinks from "
        "(default 500)\n"
        "  --min-budget-factor X  admission shrink floor (default 0.1)\n"
        "  --max-progress N       cap on per-request progress events "
        "(default 16)\n"
        "  --cache-entries N      solution cache entries (default 512)\n"
        "  --cache-bytes N        solution cache bytes (default 16777216)\n";
}

}  // namespace

int main(int argc, char** argv) {
  abt::service::ServiceConfig config;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto need_value = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::cerr << flag << " needs a value\n";
        return nullptr;
      }
      return argv[++i];
    };
    if (arg == "--help" || arg == "-h") {
      usage(std::cout);
      return 0;
    }
    const char* value = nullptr;
    if (arg == "--socket") {
      if ((value = need_value("--socket")) == nullptr) return 64;
      config.socket_path = value;
    } else if (arg == "--port") {
      if ((value = need_value("--port")) == nullptr) return 64;
      if (!parse_number(value, &config.tcp_port) || config.tcp_port < 0 ||
          config.tcp_port > 65535) {
        std::cerr << "--port needs 0..65535\n";
        return 64;
      }
    } else if (arg == "--dispatchers") {
      if ((value = need_value("--dispatchers")) == nullptr) return 64;
      if (!parse_number(value, &config.dispatchers) || config.dispatchers < 1) {
        std::cerr << "--dispatchers needs a positive integer\n";
        return 64;
      }
    } else if (arg == "--threads") {
      if ((value = need_value("--threads")) == nullptr) return 64;
      if (!parse_number(value, &config.threads) || config.threads < 0) {
        std::cerr << "--threads needs a non-negative integer\n";
        return 64;
      }
    } else if (arg == "--queue-soft") {
      if ((value = need_value("--queue-soft")) == nullptr) return 64;
      if (!parse_number(value, &config.queue_soft) || config.queue_soft < 0) {
        std::cerr << "--queue-soft needs a non-negative integer\n";
        return 64;
      }
    } else if (arg == "--queue-cap") {
      if ((value = need_value("--queue-cap")) == nullptr) return 64;
      if (!parse_number(value, &config.queue_cap) || config.queue_cap < 1) {
        std::cerr << "--queue-cap needs a positive integer\n";
        return 64;
      }
    } else if (arg == "--default-budget-ms") {
      if ((value = need_value("--default-budget-ms")) == nullptr) return 64;
      if (!parse_number(value, &config.default_budget_ms) ||
          config.default_budget_ms <= 0.0) {
        std::cerr << "--default-budget-ms needs a positive number\n";
        return 64;
      }
    } else if (arg == "--min-budget-factor") {
      if ((value = need_value("--min-budget-factor")) == nullptr) return 64;
      if (!parse_number(value, &config.min_budget_factor) ||
          config.min_budget_factor <= 0.0 || config.min_budget_factor > 1.0) {
        std::cerr << "--min-budget-factor needs a number in (0, 1]\n";
        return 64;
      }
    } else if (arg == "--max-progress") {
      if ((value = need_value("--max-progress")) == nullptr) return 64;
      if (!parse_number(value, &config.max_progress) ||
          config.max_progress < 1) {
        std::cerr << "--max-progress needs a positive integer\n";
        return 64;
      }
    } else if (arg == "--cache-entries") {
      int entries = 0;
      if ((value = need_value("--cache-entries")) == nullptr) return 64;
      if (!parse_number(value, &entries) || entries < 1) {
        std::cerr << "--cache-entries needs a positive integer\n";
        return 64;
      }
      config.cache_entries = static_cast<std::size_t>(entries);
    } else if (arg == "--cache-bytes") {
      int bytes = 0;
      if ((value = need_value("--cache-bytes")) == nullptr) return 64;
      if (!parse_number(value, &bytes) || bytes < 1) {
        std::cerr << "--cache-bytes needs a positive integer\n";
        return 64;
      }
      config.cache_bytes = static_cast<std::size_t>(bytes);
    } else {
      std::cerr << "unknown option '" << arg << "'\n";
      usage(std::cerr);
      return 64;
    }
  }
  if (config.socket_path.empty() && config.tcp_port < 0) {
    usage(std::cerr);
    return 64;
  }

  const abt::core::SolverRegistry& registry = abt::engine::shared_registry();

  abt::service::Server server(registry, config);
  std::string error;
  if (!server.start(&error)) {
    std::cerr << "abtd: " << error << "\n";
    return 1;
  }
  if (!config.socket_path.empty()) {
    std::cout << "abtd listening on " << config.socket_path << "\n";
  }
  if (config.tcp_port >= 0) {
    std::cout << "abtd listening on 127.0.0.1:" << server.tcp_port() << "\n";
  }
  std::cout.flush();

  std::signal(SIGINT, handle_signal);
  std::signal(SIGTERM, handle_signal);
  while (g_stop_requested == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  std::cerr << "abtd: shutting down\n";
  server.stop();

  const abt::service::ServiceStats stats = server.stats();
  std::cerr << "abtd: accepted " << stats.accepted << ", served "
            << stats.served << ", errors " << stats.errors << ", shed "
            << stats.shed << ", shrunk " << stats.shrunk << ", cache hits "
            << stats.cache.hits << "/" << stats.cache.hits + stats.cache.misses
            << " (alias " << stats.cache.alias_hits << ")\n";
  return 0;
}
