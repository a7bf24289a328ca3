// abtd service tests: protocol framing and payload parsing (line-numbered
// errors over the whole payload), canonical cache keys, the cache's
// byte-cap refusal, and the live daemon behaviours — bit-identical cache
// replay through the canonical key and the raw-payload alias,
// admission-control budget shrink with anytime gap rows, concurrent-client
// determinism for exact solvers, and the cancel verb reaching an
// in-flight solve.
#include <gtest/gtest.h>
#include <unistd.h>

#include <cctype>
#include <chrono>
#include <limits>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/io.hpp"
#include "core/rng.hpp"
#include "engine/builtin_solvers.hpp"
#include "gen/extended_instances.hpp"
#include "gen/random_instances.hpp"
#include "service/protocol.hpp"
#include "service/server.hpp"

namespace abt {
namespace {

using service::Frame;
using service::FrameType;
using service::SolveRequest;

core::ProblemInstance weighted_instance(int n, std::uint64_t seed,
                                        double slack = 0.0) {
  core::Rng rng(seed);
  gen::WeightedParams params;
  params.num_jobs = n;
  params.capacity = 4;
  params.max_slack = slack;
  return core::make_instance(gen::random_weighted(rng, params));
}

std::string canonical_of(const core::ProblemInstance& inst) {
  std::string text;
  core::write_instance(text, inst);
  return text;
}

Frame solve_frame(const SolveRequest& request) {
  Frame frame;
  frame.type = request.race ? FrameType::kRace : FrameType::kSolve;
  std::ostringstream os;
  std::string error;
  EXPECT_TRUE(service::write_solve_payload(os, request, &error)) << error;
  frame.payload = os.str();
  return frame;
}

/// Extracts the first `"key": <number>` occurrence, "" when absent.
std::string json_number_after(const std::string& text, const std::string& key) {
  const std::string needle = "\"" + key + "\": ";
  const auto at = text.find(needle);
  if (at == std::string::npos) return "";
  auto end = at + needle.size();
  while (end < text.size() && text[end] != ',' && text[end] != '}' &&
         text[end] != '\n') {
    ++end;
  }
  return text.substr(at + needle.size(), end - at - needle.size());
}

// ---------------------------------------------------------------------------
// Frame codec.

TEST(ServiceProtocol, FramesRoundTripOverAStream) {
  Frame frame;
  frame.type = FrameType::kOk;
  frame.flags = {{"exit", "0"}, {"cached", "1"}};
  frame.payload = "{\"hello\": 1}\n";

  std::stringstream wire;
  service::write_frame(wire, frame);
  Frame progress;
  progress.type = FrameType::kProgress;
  progress.payload = "{\"cost\": 3}\n";
  service::write_frame(wire, progress);

  Frame back;
  std::string error;
  ASSERT_TRUE(service::read_frame(wire, &back, &error)) << error;
  EXPECT_EQ(back.type, FrameType::kOk);
  EXPECT_EQ(back.flag("exit"), "0");
  EXPECT_TRUE(back.has_flag("cached"));
  EXPECT_EQ(back.payload, frame.payload);
  ASSERT_TRUE(service::read_frame(wire, &back, &error)) << error;
  EXPECT_EQ(back.type, FrameType::kProgress);

  // A flag value may hold '=' (the reader splits at the first one), and
  // what the reader accepts the writer writes back unchanged.
  std::stringstream relay("abt1 solve 2 note=a=b\nhi");
  ASSERT_TRUE(service::read_frame(relay, &back, &error)) << error;
  EXPECT_EQ(back.flag("note"), "a=b");
  service::write_frame(wire, back);
  Frame again;
  ASSERT_TRUE(service::read_frame(wire, &again, &error)) << error;
  EXPECT_EQ(again.type, FrameType::kSolve);
  EXPECT_EQ(again.flags, back.flags);
  EXPECT_EQ(again.payload, "hi");

  // Clean EOF at a frame boundary: false with an EMPTY error.
  error = "sentinel";
  EXPECT_FALSE(service::read_frame(wire, &back, &error));
  EXPECT_TRUE(error.empty()) << error;
}

TEST(ServiceProtocol, HeaderRejectsMalformedLines) {
  FrameType type;
  std::size_t bytes = 0;
  std::vector<std::pair<std::string, std::string>> flags;
  std::string error;
  const auto rejects = [&](const std::string& line) {
    return !service::parse_frame_header(line, &type, &bytes, &flags, &error);
  };
  EXPECT_TRUE(rejects("abtX solve 0"));
  EXPECT_TRUE(rejects("abt1 bogus 0"));
  EXPECT_TRUE(rejects("abt1 solve"));
  EXPECT_TRUE(rejects("abt1 solve -1"));
  EXPECT_TRUE(rejects("abt1 solve nope"));
  EXPECT_TRUE(rejects("abt1 solve 0 ="));
  EXPECT_TRUE(rejects("abt1 solve 99999999999999999999"));
  EXPECT_FALSE(rejects("abt1 solve 12 exit=0"));
  EXPECT_EQ(type, FrameType::kSolve);
  EXPECT_EQ(bytes, 12u);
  ASSERT_EQ(flags.size(), 1u);
  EXPECT_EQ(flags[0].first, "exit");
}

// ---------------------------------------------------------------------------
// Solve payload: round trip per instance kind.

void expect_payload_round_trip(const core::ProblemInstance& inst) {
  SolveRequest request;
  request.id = "req-1";
  request.solvers = {"busy/first-fit", "busy/weighted-exact"};
  request.budget_ms = 125.5;
  request.accept_gap = 0.02;
  request.progress = 3;
  request.format = engine::Format::kCsv;
  request.instance = inst;

  std::ostringstream os;
  std::string error;
  ASSERT_TRUE(service::write_solve_payload(os, request, &error)) << error;
  SolveRequest back;
  ASSERT_TRUE(service::parse_solve_payload(os.str(), &back, &error))
      << error << "\n--- payload:\n"
      << os.str();
  EXPECT_EQ(back.id, request.id);
  EXPECT_EQ(back.solvers, request.solvers);
  EXPECT_EQ(back.budget_ms, request.budget_ms);
  EXPECT_EQ(back.accept_gap, request.accept_gap);
  EXPECT_EQ(back.progress, request.progress);
  EXPECT_EQ(back.format, request.format);
  EXPECT_EQ(back.canonical, canonical_of(inst));
  EXPECT_EQ(back.instance.kind, inst.kind);
  EXPECT_EQ(back.instance.family, inst.family);
}

TEST(ServiceProtocol, SolvePayloadRoundTripsEveryInstanceKind) {
  core::Rng rng(77);
  {
    gen::SlottedParams params;
    params.num_jobs = 9;
    params.capacity = 3;
    expect_payload_round_trip(
        core::make_instance(gen::random_slotted(rng, params)));
  }
  {
    gen::ContinuousParams params;
    params.num_jobs = 11;
    params.capacity = 2;
    params.max_slack = 1.3;
    expect_payload_round_trip(
        core::make_instance(gen::random_continuous(rng, params)));
  }
  expect_payload_round_trip(weighted_instance(10, 5, 0.8));
  {
    gen::MultiWindowParams params;
    params.num_jobs = 8;
    params.capacity = 3;
    expect_payload_round_trip(
        core::make_instance(gen::random_multi_window(rng, params)));
  }
}

// ---------------------------------------------------------------------------
// Malformed payloads: every diagnostic is line-numbered over the WHOLE
// payload, instance lines included.

TEST(ServiceProtocol, MalformedPayloadsAreLineNumbered) {
  struct Case {
    const char* payload;
    const char* line_prefix;  ///< Expected "line N:" prefix.
    const char* mentions;     ///< Substring the diagnostic must carry.
  };
  const Case cases[] = {
      {"bogus 1\n", "line 1:", "unknown request directive"},
      {"id\n", "line 1:", "id needs a token"},
      {"id a\nid b\n", "line 2:", "duplicate id"},
      {"budget-ms nope\n", "line 1:", "budget-ms"},
      {"budget-ms -5\n", "line 1:", "non-negative"},
      {"accept-gap x\n", "line 1:", "accept-gap"},
      {"progress -1\n", "line 1:", "progress"},
      {"format yaml\n", "line 1:", "format"},
      {"solvers\n", "line 1:", "at least one"},
      {"id a b\n", "line 1:", "trailing tokens"},
      {"instance extra\n", "line 1:", "takes no arguments"},
      {"id a\nformat json\n", "line 3:", "missing instance"},
      {"", "line 1:", "missing instance"},
      // Instance parse errors are re-numbered over the whole payload:
      // the bad model line is payload line 3.
      {"id a\ninstance\nmodel bogus\n", "line 3:", ""},
      // ... and a bad job line deeper into the instance text keeps its
      // offset: payload line 5.
      {"id a\ninstance\nmodel continuous\ncapacity 2\njob 1 2\n", "line 5:",
       ""},
  };
  for (const Case& c : cases) {
    SolveRequest out;
    std::string error;
    EXPECT_FALSE(service::parse_solve_payload(c.payload, &out, &error))
        << c.payload;
    EXPECT_EQ(error.rfind(c.line_prefix, 0), 0u)
        << "payload <" << c.payload << "> produced: " << error;
    EXPECT_NE(error.find(c.mentions), std::string::npos)
        << "payload <" << c.payload << "> produced: " << error;
  }
}

// ---------------------------------------------------------------------------
// Cache keys: spelling-insensitive, parameter-sensitive.

TEST(ServiceProtocol, CacheKeyCanonicalizesTextualSpellings) {
  const core::ProblemInstance inst = weighted_instance(10, 5);
  const std::string canonical = canonical_of(inst);

  // The same request spelled three different ways: comments, blank
  // lines, scientific notation, a different id and progress count.
  const std::string spelling_a =
      "id first\nsolvers busy/weighted-exact\nbudget-ms 200\n"
      "format json\ninstance\n" + canonical;
  const std::string spelling_b =
      "# a comment\n\nid second\nprogress 7\n"
      "solvers busy/weighted-exact\nbudget-ms 2e2\n"
      "format json\ninstance\n# another comment\n" + canonical;
  SolveRequest a, b;
  std::string error;
  ASSERT_TRUE(service::parse_solve_payload(spelling_a, &a, &error)) << error;
  ASSERT_TRUE(service::parse_solve_payload(spelling_b, &b, &error)) << error;
  EXPECT_EQ(service::cache_key(a), service::cache_key(b));

  // Changing any response-relevant parameter changes the key.
  SolveRequest c = a;
  c.budget_ms = 300.0;
  EXPECT_NE(service::cache_key(a), service::cache_key(c));
  SolveRequest d = a;
  d.race = true;
  EXPECT_NE(service::cache_key(a), service::cache_key(d));
  SolveRequest e = a;
  e.format = engine::Format::kCsv;
  EXPECT_NE(service::cache_key(a), service::cache_key(e));
  SolveRequest f = a;
  f.solvers = {"busy/weighted-first-fit"};
  EXPECT_NE(service::cache_key(a), service::cache_key(f));
}

// ---------------------------------------------------------------------------
// SolutionCache directly: byte caps and alias counters.

TEST(ServiceCache, OversizedEntryIsRefusedAndLeavesTheShardUntouched) {
  // 16 entries and 800 bytes over 8 shards: 2 entries, 100 bytes each.
  service::SolutionCache cache(16, 800);
  for (int i = 0; i < 16; ++i) {
    cache.insert("key" + std::to_string(i), {"payload", i});
  }
  const service::CacheStats before = cache.stats();
  ASSERT_GT(before.entries, 0u);

  const std::string huge(200, 'x');
  cache.insert("new-key", {huge, 1});
  EXPECT_FALSE(cache.lookup("new-key").has_value());
  int refreshed = 0;
  for (int i = 0; i < 16; ++i) {
    const std::string key = "key" + std::to_string(i);
    if (!cache.lookup(key).has_value()) continue;  // evicted by shard-mates
    cache.insert(key, {huge, 99});
    ++refreshed;
    const auto kept = cache.lookup(key);
    ASSERT_TRUE(kept.has_value()) << key;
    EXPECT_EQ(kept->payload, "payload") << key;
    EXPECT_EQ(kept->exit_code, i) << key;
  }
  EXPECT_EQ(refreshed, static_cast<int>(before.entries));
  const service::CacheStats after = cache.stats();
  EXPECT_EQ(after.entries, before.entries);
  EXPECT_EQ(after.bytes, before.bytes);
  EXPECT_EQ(after.insertions, before.insertions);
  EXPECT_EQ(after.evictions, before.evictions);
  cache.audit_invariants();
}

TEST(ServiceCache, AliasLookupsCountHitsButNeverMisses) {
  service::SolutionCache cache(16, 1u << 16);
  EXPECT_FALSE(cache.lookup_alias("alias").has_value());
  cache.insert("alias", {"payload", 2});
  const auto hit = cache.lookup_alias("alias");
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->payload, "payload");
  EXPECT_EQ(hit->exit_code, 2);
  EXPECT_FALSE(cache.lookup("canonical").has_value());
  const service::CacheStats stats = cache.stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.alias_hits, 1u);
  EXPECT_EQ(stats.misses, 1u);  // the canonical lookup's alone
}

/// Strict RFC 8259 validation of a complete JSON text (one value, then
/// only whitespace): raw control bytes inside strings are rejected, as a
/// conforming parser would.
class JsonValidator {
 public:
  explicit JsonValidator(const std::string& text) : text_(text) {}

  bool valid() {
    skip_ws();
    if (!value()) return false;
    skip_ws();
    return at_ == text_.size();
  }

 private:
  void skip_ws() {
    while (at_ < text_.size() && (text_[at_] == ' ' || text_[at_] == '\t' ||
                                  text_[at_] == '\n' || text_[at_] == '\r')) {
      ++at_;
    }
  }
  bool eat(char c) {
    skip_ws();
    if (at_ < text_.size() && text_[at_] == c) {
      ++at_;
      return true;
    }
    return false;
  }
  bool literal(const char* word) {
    const std::string w(word);
    if (text_.compare(at_, w.size(), w) != 0) return false;
    at_ += w.size();
    return true;
  }
  bool string() {
    if (!eat('"')) return false;
    while (at_ < text_.size()) {
      const auto c = static_cast<unsigned char>(text_[at_++]);
      if (c == '"') return true;
      if (c < 0x20) return false;
      if (c != '\\') continue;
      if (at_ >= text_.size()) return false;
      const char e = text_[at_++];
      if (e == 'u') {
        for (int i = 0; i < 4; ++i) {
          if (at_ >= text_.size() || !std::isxdigit(static_cast<unsigned char>(
                                         text_[at_++]))) {
            return false;
          }
        }
      } else if (std::string("\"\\/bfnrt").find(e) == std::string::npos) {
        return false;
      }
    }
    return false;
  }
  bool number() {
    const std::size_t begin = at_;
    const std::string number_chars = "+-0123456789.eE";
    while (at_ < text_.size() &&
           number_chars.find(text_[at_]) != std::string::npos) {
      ++at_;
    }
    return at_ > begin;
  }
  bool value() {
    skip_ws();
    if (at_ >= text_.size()) return false;
    switch (text_[at_]) {
      case '{':
        ++at_;
        if (eat('}')) return true;
        do {
          skip_ws();
          if (!string() || !eat(':') || !value()) return false;
        } while (eat(','));
        return eat('}');
      case '[':
        ++at_;
        if (eat(']')) return true;
        do {
          if (!value()) return false;
        } while (eat(','));
        return eat(']');
      case '"': return string();
      case 't': return literal("true");
      case 'f': return literal("false");
      case 'n': return literal("null");
      default: return number();
    }
  }

  const std::string& text_;
  std::size_t at_ = 0;
};

bool is_json(const std::string& text) { return JsonValidator(text).valid(); }

TEST(ServiceProtocol, JsonValidatorRejectsRawControlBytes) {
  EXPECT_TRUE(is_json("{\"a\": [1, -2.5e3, true, null, \"x\\u0001\"]}\n"));
  EXPECT_FALSE(is_json("{\"a\": \"x\x01\"}"));
  EXPECT_FALSE(is_json("{\"id\": \"a\"b\\c\"}"));
}

// ---------------------------------------------------------------------------
// Live daemon behaviours (loopback TCP on an ephemeral port).

class ServiceFixture : public ::testing::Test {
 protected:
  void start(service::ServiceConfig config) {
    config.tcp_port = 0;  // ephemeral loopback listener
    server_ = std::make_unique<service::Server>(engine::shared_registry(),
                                                std::move(config));
    std::string error;
    ASSERT_TRUE(server_->start(&error)) << error;
    address_ = server_->address();
  }

  void TearDown() override {
    if (server_) server_->stop();
  }

  service::Exchange roundtrip(const Frame& frame) {
    std::string error;
    auto exchange = service::client_roundtrip(address_, frame, &error);
    EXPECT_TRUE(exchange.has_value()) << error;
    return exchange.value_or(service::Exchange{});
  }

  /// Polls the stats verb until `in_flight` (which counts the stats
  /// request itself) reaches `want`, i.e. want-1 solves are executing.
  bool wait_for_in_flight(int want) {
    for (int i = 0; i < 500; ++i) {
      Frame stats;
      stats.type = FrameType::kStats;
      const service::Exchange exchange = roundtrip(stats);
      const std::string depth =
          json_number_after(exchange.final.payload, "in_flight");
      if (!depth.empty() && std::stoi(depth) >= want) return true;
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    return false;
  }

  /// The `stats` verb's payload.
  std::string stats_payload() {
    Frame stats;
    stats.type = FrameType::kStats;
    return roundtrip(stats).final.payload;
  }

  std::unique_ptr<service::Server> server_;
  service::Address address_;
};

TEST_F(ServiceFixture, SolveIsServedThenReplayedBitIdenticallyFromCache) {
  start({});
  SolveRequest request;
  request.solvers = {"busy/weighted-first-fit"};
  request.instance = weighted_instance(12, 3);
  const Frame frame = solve_frame(request);

  const service::Exchange first = roundtrip(frame);
  ASSERT_EQ(first.final.type, FrameType::kOk) << first.final.payload;
  EXPECT_EQ(first.final.flag("exit"), "0");
  EXPECT_FALSE(first.final.has_flag("cached"));
  EXPECT_NE(first.final.payload.find("\"solver\": \"busy/weighted-first-fit\""),
            std::string::npos)
      << first.final.payload;

  const service::Exchange second = roundtrip(frame);
  ASSERT_EQ(second.final.type, FrameType::kOk);
  EXPECT_TRUE(second.final.has_flag("cached"));
  EXPECT_EQ(second.final.flag("exit"), "0");
  // The acceptance criterion: byte-for-byte identical payloads.
  EXPECT_EQ(first.final.payload, second.final.payload);

  Frame stats;
  stats.type = FrameType::kStats;
  const service::Exchange after = roundtrip(stats);
  EXPECT_NE(after.final.payload.find("\"hits\": 1"), std::string::npos)
      << after.final.payload;
}

TEST_F(ServiceFixture, OverloadShrinksBudgetAndKeepsAnytimeGapRows) {
  service::ServiceConfig config;
  config.dispatchers = 2;
  config.threads = 1;
  config.queue_soft = 0;  // any in-flight load shrinks the next request
  config.queue_cap = 2;
  config.min_budget_factor = 0.25;
  start(config);

  // Occupy one dispatcher with a long-budget exact solve.
  SolveRequest victim;
  victim.id = "victim";
  victim.solvers = {"busy/weighted-exact"};
  victim.budget_ms = 60000.0;
  victim.instance = weighted_instance(26, 11);
  const Frame victim_frame = solve_frame(victim);
  std::thread occupant([&] {
    std::string error;
    (void)service::client_roundtrip(address_, victim_frame, &error);
  });
  ASSERT_TRUE(wait_for_in_flight(2));

  // The next request is admitted with a shrunk budget: the victim alone
  // gives load = 1 over a soft limit of 0 with cap 2, factor 1 - 1/2 =
  // 0.5 (100 ms). The wait_for_in_flight stats connection may still be
  // counted at the accept instant, making load = 2 and flooring the
  // factor at 0.25 (50 ms) — both are correct admission outcomes.
  SolveRequest squeezed;
  squeezed.solvers = {"busy/weighted-exact"};
  squeezed.budget_ms = 200.0;
  squeezed.instance = weighted_instance(26, 12);
  const service::Exchange exchange = roundtrip(solve_frame(squeezed));
  ASSERT_EQ(exchange.final.type, FrameType::kOk) << exchange.final.payload;
  const std::string granted = exchange.final.flag("budget-ms");
  ASSERT_FALSE(granted.empty()) << "expected a shrunk-budget flag";
  EXPECT_LT(std::stod(granted), squeezed.budget_ms);
  EXPECT_TRUE(std::stod(granted) == 100.0 || std::stod(granted) == 50.0)
      << "budget-ms flag: " << granted;
  // The response rows are anytime incumbents with a certified gap.
  EXPECT_NE(exchange.final.payload.find("\"timed_out\": true"),
            std::string::npos)
      << exchange.final.payload;
  EXPECT_NE(exchange.final.payload.find("\"gap\": "), std::string::npos)
      << exchange.final.payload;
  // Shrunk responses are never inserted into the cache.
  const service::Exchange again = roundtrip(solve_frame(squeezed));
  EXPECT_FALSE(again.final.has_flag("cached"));

  // Free the occupied dispatcher.
  Frame cancel;
  cancel.type = FrameType::kCancel;
  cancel.payload = "id victim\n";
  const service::Exchange cancelled = roundtrip(cancel);
  EXPECT_NE(cancelled.final.payload.find("\"cancelled\": true"),
            std::string::npos)
      << cancelled.final.payload;
  occupant.join();
}

TEST_F(ServiceFixture, ConcurrentClientsGetDeterministicExactAnswers) {
  service::ServiceConfig config;
  config.dispatchers = 4;
  config.threads = 1;
  config.queue_soft = 64;  // never shrink in this test
  config.queue_cap = 64;
  start(config);

  SolveRequest request;
  request.solvers = {"busy/weighted-exact"};
  request.budget_ms = 10000.0;
  request.instance = weighted_instance(10, 21);
  const Frame frame = solve_frame(request);

  constexpr int kClients = 6;
  std::vector<std::string> payloads(kClients);
  std::vector<std::string> exits(kClients);
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int i = 0; i < kClients; ++i) {
    clients.emplace_back([&, i] {
      std::string error;
      auto exchange = service::client_roundtrip(address_, frame, &error);
      ASSERT_TRUE(exchange.has_value()) << error;
      ASSERT_EQ(exchange->final.type, FrameType::kOk)
          << exchange->final.payload;
      payloads[i] = exchange->final.payload;
      exits[i] = exchange->final.flag("exit");
    });
  }
  for (std::thread& t : clients) t.join();

  // Identical requests to exact solvers answer identically: same exit,
  // same proven-optimal cost, regardless of which clients raced the
  // cache and which replayed it.
  const std::string cost = json_number_after(payloads[0], "cost");
  ASSERT_FALSE(cost.empty()) << payloads[0];
  for (int i = 0; i < kClients; ++i) {
    EXPECT_EQ(exits[i], "0");
    EXPECT_EQ(json_number_after(payloads[i], "cost"), cost) << payloads[i];
    EXPECT_NE(payloads[i].find("\"exact\": true"), std::string::npos)
        << payloads[i];
  }
}

TEST_F(ServiceFixture, CancelVerbAbortsAnInFlightSolve) {
  service::ServiceConfig config;
  config.dispatchers = 2;
  config.threads = 1;
  config.queue_soft = 8;
  config.queue_cap = 8;
  start(config);

  SolveRequest victim;
  victim.id = "doomed";
  victim.solvers = {"busy/weighted-exact"};
  victim.budget_ms = 60000.0;
  victim.instance = weighted_instance(26, 31);
  const Frame victim_frame = solve_frame(victim);

  service::Exchange victim_exchange;
  std::thread runner([&] {
    std::string error;
    auto exchange =
        service::client_roundtrip(address_, victim_frame, &error);
    ASSERT_TRUE(exchange.has_value()) << error;
    victim_exchange = std::move(*exchange);
  });
  ASSERT_TRUE(wait_for_in_flight(2));

  // Cancelling a bogus id finds nothing and says so.
  Frame miss;
  miss.type = FrameType::kCancel;
  miss.payload = "id nobody\n";
  EXPECT_NE(roundtrip(miss).final.payload.find("\"cancelled\": false"),
            std::string::npos);

  Frame cancel;
  cancel.type = FrameType::kCancel;
  cancel.payload = "id doomed\n";
  const service::Exchange reply = roundtrip(cancel);
  EXPECT_NE(reply.final.payload.find("\"cancelled\": true"),
            std::string::npos)
      << reply.final.payload;

  // The solve returns promptly with its anytime incumbent instead of
  // burning the rest of its 60 s budget.
  runner.join();
  ASSERT_EQ(victim_exchange.final.type, FrameType::kOk)
      << victim_exchange.final.payload;
  EXPECT_NE(victim_exchange.final.payload.find("\"timed_out\": true"),
            std::string::npos)
      << victim_exchange.final.payload;
}

}  // namespace
}  // namespace abt

namespace abt {
namespace {

TEST_F(ServiceFixture, VanishingLengthPayloadGetsAnErrorAndTheDaemonServesOn) {
  start({});
  // A job whose length rounds away at its release used to crash the g =
  // infinity DP, and with it the daemon.
  Frame solve;
  solve.type = FrameType::kSolve;
  solve.payload =
      "instance\nmodel continuous\ncapacity 2\njob 0 1 1\n"
      "job 1 1.0000001 1e-20\n";
  const service::Exchange reply = roundtrip(solve);
  ASSERT_EQ(reply.final.type, FrameType::kError) << reply.final.payload;
  EXPECT_NE(reply.final.payload.find("length vanishes"), std::string::npos)
      << reply.final.payload;

  Frame stats;
  stats.type = FrameType::kStats;
  const service::Exchange after = roundtrip(stats);
  ASSERT_EQ(after.final.type, FrameType::kOk) << after.final.payload;
  EXPECT_TRUE(is_json(after.final.payload)) << after.final.payload;
}

TEST_F(ServiceFixture, SliverGapPreemptiveRequestIsAnsweredAndServesOn) {
  start({});
  // The second job's last 1e-9 fits only in a free gap no longer than the
  // preemptive greedy's sliver threshold; the greedy used to abort on it,
  // and with it the daemon.
  Frame solve;
  solve.type = FrameType::kSolve;
  solve.payload =
      "solvers busy/preemptive\ninstance\nmodel continuous\ncapacity 2\n"
      "job 0 0.5 0.5\njob 1e-9 0.500000001 0.5\n";
  const service::Exchange reply = roundtrip(solve);
  ASSERT_EQ(reply.final.type, FrameType::kOk) << reply.final.payload;
  EXPECT_NE(reply.final.payload.find("\"feasible\": true"), std::string::npos)
      << reply.final.payload;

  Frame stats;
  stats.type = FrameType::kStats;
  const service::Exchange after = roundtrip(stats);
  ASSERT_EQ(after.final.type, FrameType::kOk) << after.final.payload;
  EXPECT_TRUE(is_json(after.final.payload)) << after.final.payload;
}

TEST_F(ServiceFixture, CancelReplyEscapesTheId) {
  start({});
  Frame cancel;
  cancel.type = FrameType::kCancel;
  cancel.payload = "id a\"b\\c\x01\n";
  const service::Exchange reply = roundtrip(cancel);
  ASSERT_EQ(reply.final.type, FrameType::kOk) << reply.final.payload;
  EXPECT_TRUE(is_json(reply.final.payload)) << reply.final.payload;
  EXPECT_EQ(reply.final.payload,
            "{\"cancelled\": false, \"id\": \"a\\\"b\\\\c\\u0001\"}\n");
}

TEST_F(ServiceFixture, ControlBytesInSolverNamesStayValidJson) {
  start({});
  for (const bool race : {false, true}) {
    SolveRequest request;
    request.race = race;
    request.solvers = {"busy/weighted-first-fit", "bogus\x01\x1fname"};
    request.instance = weighted_instance(8, 5);
    const service::Exchange exchange = roundtrip(solve_frame(request));
    ASSERT_EQ(exchange.final.type, FrameType::kOk) << exchange.final.payload;
    EXPECT_TRUE(is_json(exchange.final.payload))
        << (race ? "race" : "solve") << ": " << exchange.final.payload;
    EXPECT_NE(exchange.final.payload.find("bogus\\u0001\\u001fname"),
              std::string::npos)
        << exchange.final.payload;
  }
}

// ---------------------------------------------------------------------------
// Raw-payload aliases: checked before any parse, installed on a canonical
// hit, never changing a response byte or the hit/miss counters.

Frame solve_text_frame(const std::string& payload) {
  Frame frame;
  frame.type = FrameType::kSolve;
  frame.payload = payload;
  return frame;
}

TEST_F(ServiceFixture, SameBytesMissThenHitCanonicallyThenByAlias) {
  start({});
  SolveRequest request;
  request.solvers = {"busy/weighted-first-fit"};
  request.instance = weighted_instance(12, 3);
  const Frame frame = solve_frame(request);

  std::vector<service::Exchange> replies;
  std::vector<std::string> alias_hits;
  for (int i = 0; i < 3; ++i) {
    replies.push_back(roundtrip(frame));
    ASSERT_EQ(replies.back().final.type, FrameType::kOk)
        << replies.back().final.payload;
    alias_hits.push_back(json_number_after(stats_payload(), "alias_hits"));
  }
  EXPECT_FALSE(replies[0].final.has_flag("cached"));
  EXPECT_EQ(replies[1].final.flag("cached"), "1");
  EXPECT_EQ(replies[2].final.flags, replies[1].final.flags);
  EXPECT_EQ(replies[1].final.flag("exit"), replies[0].final.flag("exit"));
  EXPECT_EQ(replies[1].final.payload, replies[0].final.payload);
  EXPECT_EQ(replies[2].final.payload, replies[0].final.payload);
  EXPECT_EQ(alias_hits, (std::vector<std::string>{"0", "0", "1"}));

  const std::string stats = stats_payload();
  EXPECT_EQ(json_number_after(stats, "hits"), "2") << stats;
  EXPECT_EQ(json_number_after(stats, "misses"), "1") << stats;
  EXPECT_EQ(json_number_after(stats, "alias_hits"), "1") << stats;
  EXPECT_EQ(json_number_after(stats, "entries"), "2") << stats;
}

TEST_F(ServiceFixture, RespelledRequestsStillHitThroughTheCanonicalKey) {
  start({});
  const std::string canonical = canonical_of(weighted_instance(10, 5));
  const std::string base =
      "solvers busy/weighted-first-fit\nbudget-ms 200\nformat json\n"
      "instance\n" + canonical;
  const service::Exchange first = roundtrip(solve_text_frame(base));
  ASSERT_EQ(first.final.type, FrameType::kOk) << first.final.payload;
  // The base spelling's own alias is in place before the variants come.
  ASSERT_TRUE(roundtrip(solve_text_frame(base)).final.has_flag("cached"));

  const std::vector<std::string> variants = {
      "# a comment\n\n" + base,
      "id other\n" + base,
      "progress 3\n" + base,
      "solvers busy/weighted-first-fit\nbudget-ms 2e2\nformat json\n"
      "instance\n# an instance comment\n" + canonical,
  };
  for (const std::string& payload : variants) {
    for (int i = 0; i < 2; ++i) {  // canonical hit, then its own alias
      const service::Exchange reply = roundtrip(solve_text_frame(payload));
      ASSERT_EQ(reply.final.type, FrameType::kOk) << reply.final.payload;
      EXPECT_EQ(reply.final.flag("cached"), "1") << payload;
      EXPECT_EQ(reply.final.flag("exit"), first.final.flag("exit"));
      EXPECT_EQ(reply.final.payload, first.final.payload) << payload;
      EXPECT_TRUE(reply.progress.empty()) << payload;
    }
  }
  const std::string stats = stats_payload();
  EXPECT_EQ(json_number_after(stats, "hits"), "9") << stats;
  EXPECT_EQ(json_number_after(stats, "misses"), "1") << stats;
  EXPECT_EQ(json_number_after(stats, "alias_hits"), "4") << stats;
}

TEST_F(ServiceFixture, AliasesAreKeyedOnTheVerbAndHeaderFlags) {
  start({});
  SolveRequest request;
  request.solvers = {"busy/weighted-first-fit"};
  request.instance = weighted_instance(12, 4);
  const Frame solve = solve_frame(request);
  const service::Exchange first = roundtrip(solve);
  ASSERT_EQ(first.final.type, FrameType::kOk) << first.final.payload;
  ASSERT_TRUE(roundtrip(solve).final.has_flag("cached"));  // alias in place

  // The same payload bytes under the race verb are a different request.
  Frame race = solve;
  race.type = FrameType::kRace;
  const service::Exchange raced = roundtrip(race);
  ASSERT_EQ(raced.final.type, FrameType::kOk) << raced.final.payload;
  EXPECT_FALSE(raced.final.has_flag("cached"));
  std::string stats = stats_payload();
  EXPECT_EQ(json_number_after(stats, "misses"), "2") << stats;
  EXPECT_EQ(json_number_after(stats, "alias_hits"), "0") << stats;

  // A header flag the server does not read still gets its own alias; the
  // request hits through the canonical key first.
  Frame flagged = solve;
  flagged.flags = {{"note", "x"}};
  for (const char* want : {"0", "1"}) {
    const service::Exchange reply = roundtrip(flagged);
    ASSERT_EQ(reply.final.type, FrameType::kOk) << reply.final.payload;
    EXPECT_EQ(reply.final.flag("cached"), "1");
    EXPECT_EQ(reply.final.payload, first.final.payload);
    stats = stats_payload();
    EXPECT_EQ(json_number_after(stats, "alias_hits"), want) << stats;
  }
  EXPECT_EQ(json_number_after(stats, "hits"), "3") << stats;
}

TEST_F(ServiceFixture, FlagValueWithAnEqualsSignIsAliasedNotFatal) {
  start({});
  SolveRequest request;
  request.solvers = {"busy/weighted-first-fit"};
  request.instance = weighted_instance(10, 6);
  const std::string payload = solve_frame(request).payload;
  // The header parser splits a flag at its first '=', so `note=a=b` is
  // legal on the wire although frame_header would refuse to write it.
  const std::string wire = "abt1 solve " + std::to_string(payload.size()) +
                           " note=a=b\n" + payload;
  std::vector<Frame> replies;
  for (int i = 0; i < 3; ++i) {
    std::string error;
    service::Connection conn = service::connect_to(address_, &error);
    ASSERT_TRUE(conn.valid()) << error;
    ASSERT_EQ(::write(conn.fd(), wire.data(), wire.size()),
              static_cast<ssize_t>(wire.size()));
    replies.emplace_back();
    ASSERT_TRUE(conn.read_frame(&replies.back(), &error)) << error;
    ASSERT_EQ(replies.back().type, FrameType::kOk) << replies.back().payload;
  }
  EXPECT_FALSE(replies[0].has_flag("cached"));
  EXPECT_EQ(replies[2].flag("cached"), "1");
  EXPECT_EQ(replies[2].payload, replies[0].payload);
  const std::string stats = stats_payload();
  EXPECT_EQ(json_number_after(stats, "alias_hits"), "1") << stats;
}

TEST_F(ServiceFixture, MalformedPayloadIsNeverAliasedOrCounted) {
  start({});
  const Frame bad = solve_text_frame(
      "solvers busy/weighted-first-fit\nbudget-ms soon\ninstance\n");
  const service::Exchange first = roundtrip(bad);
  const service::Exchange second = roundtrip(bad);
  ASSERT_EQ(first.final.type, FrameType::kError) << first.final.payload;
  ASSERT_EQ(second.final.type, FrameType::kError) << second.final.payload;
  EXPECT_EQ(first.final.payload.rfind("line 2: ", 0), 0u)
      << first.final.payload;
  EXPECT_EQ(second.final.payload, first.final.payload);

  const std::string stats = stats_payload();
  EXPECT_EQ(json_number_after(stats, "errors"), "2") << stats;
  for (const char* counter :
       {"entries", "hits", "misses", "alias_hits", "insertions"}) {
    EXPECT_EQ(json_number_after(stats, counter), "0") << counter << stats;
  }
}

/// The error counter moves before the error frame is written, so `stats`
/// read right after each reply already counts it.
TEST_F(ServiceFixture, ErrorIsCountedBeforeItsReply) {
  start({});
  const Frame bad = solve_text_frame(
      "solvers busy/weighted-first-fit\nbudget-ms soon\ninstance\n");
  for (int i = 1; i <= 50; ++i) {
    const service::Exchange reply = roundtrip(bad);
    ASSERT_EQ(reply.final.type, FrameType::kError) << reply.final.payload;
    const std::string stats = stats_payload();
    ASSERT_EQ(json_number_after(stats, "errors"), std::to_string(i))
        << "request " << i << ": " << stats;
  }
}

TEST_F(ServiceFixture, TinyCacheEvictsAliasesAndCanonicalEntriesAlike) {
  service::ServiceConfig config;
  config.cache_entries = 8;  // one entry per shard
  config.cache_bytes = 8 * 4096;
  start(config);

  constexpr int kRequests = 6;
  std::vector<Frame> frames;
  for (int r = 0; r < kRequests; ++r) {
    SolveRequest request;
    request.solvers = {"busy/weighted-first-fit"};
    request.instance = weighted_instance(12, 100 + r);
    frames.push_back(solve_frame(request));
  }
  // Exact repeats only: a request recomputes only once its canonical
  // entry and its alias are both gone, so every cached reply must equal
  // the last payload computed for it.
  std::vector<std::string> computed(kRequests);
  int served = 0;
  for (int round = 0; round < 4; ++round) {
    for (int r = 0; r < kRequests; ++r) {
      const service::Exchange reply = roundtrip(frames[r]);
      ASSERT_EQ(reply.final.type, FrameType::kOk) << reply.final.payload;
      ++served;
      if (reply.final.has_flag("cached")) {
        EXPECT_EQ(reply.final.payload, computed[r]) << "request " << r;
      } else {
        computed[r] = reply.final.payload;
      }
      server_->audit_invariants();
    }
  }
  const service::ServiceStats stats = server_->stats();
  EXPECT_LE(stats.cache.entries, 8u);
  EXPECT_LE(stats.cache.bytes, std::size_t{8 * 4096});
  EXPECT_GT(stats.cache.evictions, 0u);
  EXPECT_EQ(stats.cache.hits + stats.cache.misses,
            static_cast<std::size_t>(served));
  EXPECT_LE(stats.cache.alias_hits, stats.cache.hits);
}

TEST_F(ServiceFixture, ConcurrentIdenticalBytesAllGetTheCachedPayload) {
  service::ServiceConfig config;
  config.dispatchers = 4;
  config.threads = 1;
  config.queue_soft = 64;  // never shrink in this test
  config.queue_cap = 64;
  start(config);

  SolveRequest request;
  request.solvers = {"busy/weighted-first-fit"};
  request.instance = weighted_instance(16, 31);
  const Frame frame = solve_frame(request);
  const service::Exchange primed = roundtrip(frame);
  ASSERT_EQ(primed.final.type, FrameType::kOk) << primed.final.payload;

  // No alias yet: the clients race the canonical hit and the alias
  // install against each other's alias probes.
  constexpr int kClients = 8;
  std::vector<service::Exchange> replies(kClients);
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int i = 0; i < kClients; ++i) {
    clients.emplace_back([&, i] { replies[i] = roundtrip(frame); });
  }
  for (std::thread& t : clients) t.join();
  for (const service::Exchange& reply : replies) {
    ASSERT_EQ(reply.final.type, FrameType::kOk) << reply.final.payload;
    EXPECT_EQ(reply.final.flag("cached"), "1");
    EXPECT_EQ(reply.final.payload, primed.final.payload);
  }
  const service::ServiceStats stats = server_->stats();
  EXPECT_EQ(stats.cache.hits, static_cast<std::size_t>(kClients));
  EXPECT_EQ(stats.cache.misses, 1u);
  EXPECT_LE(stats.cache.alias_hits, stats.cache.hits);
  server_->audit_invariants();
}

TEST_F(ServiceFixture, IdReuseKeepsTheLaterRequestCancellable) {
  service::ServiceConfig config;
  config.dispatchers = 3;
  config.threads = 1;
  config.queue_soft = 8;
  config.queue_cap = 8;
  start(config);

  // Two solves under one id: a short one, then a long one that takes the
  // id over (last writer wins). The short one finishing must not retire
  // the long one's entry.
  SolveRequest short_run;
  short_run.id = "shared";
  short_run.solvers = {"busy/weighted-exact"};
  short_run.budget_ms = 1500.0;
  short_run.instance = weighted_instance(26, 41);
  SolveRequest long_run = short_run;
  long_run.budget_ms = 60000.0;
  long_run.instance = weighted_instance(26, 42);

  service::Exchange short_exchange;
  std::thread short_client(
      [&] { short_exchange = roundtrip(solve_frame(short_run)); });
  ASSERT_TRUE(wait_for_in_flight(2));
  service::Exchange long_exchange;
  std::thread long_client(
      [&] { long_exchange = roundtrip(solve_frame(long_run)); });
  ASSERT_TRUE(wait_for_in_flight(3));
  short_client.join();
  ASSERT_EQ(short_exchange.final.type, FrameType::kOk)
      << short_exchange.final.payload;

  Frame cancel;
  cancel.type = FrameType::kCancel;
  cancel.payload = "id shared\n";
  const service::Exchange reply = roundtrip(cancel);
  EXPECT_NE(reply.final.payload.find("\"cancelled\": true"), std::string::npos)
      << reply.final.payload;
  long_client.join();
  ASSERT_EQ(long_exchange.final.type, FrameType::kOk)
      << long_exchange.final.payload;
  EXPECT_NE(long_exchange.final.payload.find("\"timed_out\": true"),
            std::string::npos)
      << long_exchange.final.payload;
}

/// The `--gen weighted --n <n> --g <g> --seed <seed>` instance.
core::ProblemInstance weighted_scenario(int n, int g, std::uint64_t seed) {
  engine::ScenarioSpec spec;
  spec.name = "weighted";
  spec.n = n;
  spec.g = g;
  spec.seed = seed;
  std::string error;
  auto inst = engine::make_scenario(spec, &error);
  EXPECT_TRUE(inst.has_value()) << error;
  return inst.value_or(core::ProblemInstance{});
}

/// Strictly decreasing `cost` fields over a run's progress frames.
void expect_strictly_improving(const std::vector<Frame>& progress) {
  double last = std::numeric_limits<double>::infinity();
  for (const Frame& event : progress) {
    EXPECT_TRUE(is_json(event.payload)) << event.payload;
    const double cost = std::stod(json_number_after(event.payload, "cost"));
    EXPECT_LT(cost, last) << event.payload;
    last = cost;
  }
}

TEST_F(ServiceFixture, ProgressFramesArriveWhileTheSolveRuns) {
  service::ServiceConfig config;
  config.threads = 1;
  start(config);
  SolveRequest request;
  request.solvers = {"busy/weighted-exact"};
  request.budget_ms = 2000.0;
  request.progress = 8;
  request.instance = weighted_scenario(20, 3, 1);

  std::string error;
  service::Connection conn = service::connect_to(address_, &error);
  ASSERT_TRUE(conn.valid()) << error;
  ASSERT_TRUE(conn.write_frame(solve_frame(request), &error)) << error;
  using Clock = std::chrono::steady_clock;
  std::vector<Frame> progress;
  Clock::time_point first_arrival;
  std::string in_flight;
  Frame final;
  while (true) {
    Frame next;
    ASSERT_TRUE(conn.read_frame(&next, &error)) << error;
    if (next.type != FrameType::kProgress) {
      final = std::move(next);
      break;
    }
    if (progress.empty()) {
      first_arrival = Clock::now();
      in_flight = json_number_after(stats_payload(), "in_flight");
    }
    progress.push_back(std::move(next));
  }
  const Clock::time_point final_arrival = Clock::now();
  ASSERT_EQ(final.type, FrameType::kOk) << final.payload;
  Frame after_final;
  EXPECT_FALSE(conn.read_frame(&after_final, &error));
  EXPECT_TRUE(error.empty()) << "nothing may follow the final frame: "
                             << error;

  ASSERT_FALSE(progress.empty());
  EXPECT_LE(progress.size(), 8u);
  // The stats request counts itself, so 2 = it plus the running solve.
  EXPECT_EQ(in_flight, "2");
  EXPECT_GE(final_arrival - first_arrival, std::chrono::milliseconds(500));
  expect_strictly_improving(progress);

  // Progress never touches the final payload: without it the same
  // request hits the cache entry the streamed run left.
  request.progress = 0;
  const service::Exchange plain = roundtrip(solve_frame(request));
  EXPECT_TRUE(plain.progress.empty());
  EXPECT_EQ(plain.final.flag("cached"), "1");
  EXPECT_EQ(plain.final.payload, final.payload);
}

TEST_F(ServiceFixture, RaceContestantsStreamProgressFromPoolWorkers) {
  service::ServiceConfig config;
  config.threads = 2;
  config.max_progress = 2;
  start(config);
  SolveRequest request;
  request.race = true;
  request.solvers = {"busy/weighted-exact", "busy/weighted-exact"};
  request.budget_ms = 300.0;
  request.progress = 8;
  // Each contestant finds three improving incumbents within 300 ms in a
  // Release build, so the cap below binds.
  request.instance = weighted_scenario(20, 3, 1);

  std::vector<std::string> delivered;
  std::string error;
  const auto exchange = service::client_roundtrip(
      address_, solve_frame(request), &error,
      [&delivered](const Frame& event) { delivered.push_back(event.payload); });
  ASSERT_TRUE(exchange.has_value()) << error;
  ASSERT_EQ(exchange->final.type, FrameType::kOk) << exchange->final.payload;
  ASSERT_FALSE(exchange->progress.empty());
  EXPECT_LE(exchange->progress.size(), 2u) << "capped by max_progress";
  expect_strictly_improving(exchange->progress);
  ASSERT_EQ(delivered.size(), exchange->progress.size());
  for (std::size_t i = 0; i < delivered.size(); ++i) {
    EXPECT_EQ(delivered[i], exchange->progress[i].payload);
  }
}

}  // namespace
}  // namespace abt
