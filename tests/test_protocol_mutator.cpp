// Deterministic protocol mutator: seeded byte flips, truncations, line
// drops and duplications, and token swaps over valid frame headers and
// solve payloads. Every mutant must either be refused with a diagnostic
// (payload errors are "line N: ...") or be a parse∘write fixed point: a
// header re-reads to the same type, length and flags, and a payload
// re-parses from write_solve_payload to the same cache key, id and
// progress. Runs under the sanitizer build like every other suite.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "core/rng.hpp"
#include "core/text.hpp"
#include "gen/extended_instances.hpp"
#include "gen/random_instances.hpp"
#include "service/protocol.hpp"

namespace abt {
namespace {

using service::Frame;
using service::FrameType;
using service::SolveRequest;

/// Applies 1-3 seeded edits to a copy of its input.
class Mutator {
 public:
  explicit Mutator(std::uint64_t seed) : rng_(seed) {}

  std::string operator()(std::string text) {
    const int edits = pick(1, 3);
    for (int e = 0; e < edits && !text.empty(); ++e) {
      switch (pick(0, 4)) {
        case 0:
          flip_byte(text);
          break;
        case 1:  // truncate
          text.resize(static_cast<std::size_t>(pick(0, size(text) - 1)));
          break;
        case 2:
          edit_line(text, /*duplicate=*/false);
          break;
        case 3:
          edit_line(text, /*duplicate=*/true);
          break;
        default:
          swap_tokens(text);
          break;
      }
    }
    return text;
  }

 private:
  static int size(const std::string& text) {
    return static_cast<int>(text.size());
  }

  int pick(int lo, int hi) {
    return static_cast<int>(rng_.uniform_int(lo, hi));
  }

  /// Half the time a byte the grammar cares about, else one random bit.
  void flip_byte(std::string& text) {
    static constexpr char kInteresting[] = {
        ' ', '\t', '\r', '\n', '=', '#', '-', '+', '.', 'e',
        '0', '1',  '9',  'x',  '\0', '\x7f', '\xff'};
    char& c = text[static_cast<std::size_t>(pick(0, size(text) - 1))];
    if (rng_.flip(0.5)) {
      c = kInteresting[pick(0, static_cast<int>(sizeof kInteresting) - 1)];
    } else {
      c = static_cast<char>(c ^ (1 << pick(0, 7)));
    }
  }

  /// Drops or duplicates one '\n'-terminated line (the unterminated tail
  /// counts as a line too).
  void edit_line(std::string& text, bool duplicate) {
    std::vector<std::pair<std::size_t, std::size_t>> lines;
    for (std::size_t at = 0; at < text.size();) {
      const std::size_t nl = text.find('\n', at);
      const std::size_t end = nl == std::string::npos ? text.size() : nl + 1;
      lines.emplace_back(at, end - at);
      at = end;
    }
    const int last = static_cast<int>(lines.size()) - 1;
    const auto [at, len] = lines[static_cast<std::size_t>(pick(0, last))];
    if (duplicate) {
      text.insert(at, text.substr(at, len));
    } else {
      text.erase(at, len);
    }
  }

  /// Swaps two whitespace-separated tokens (possibly on different lines).
  void swap_tokens(std::string& text) {
    std::vector<std::pair<std::size_t, std::size_t>> tokens;
    for (std::size_t i = 0; i < text.size();) {
      while (i < text.size() && core::is_blank(text[i])) ++i;
      const std::size_t start = i;
      while (i < text.size() && !core::is_blank(text[i])) ++i;
      if (i > start) tokens.emplace_back(start, i - start);
    }
    if (tokens.size() < 2) return;
    const int last = static_cast<int>(tokens.size()) - 1;
    auto a = tokens[static_cast<std::size_t>(pick(0, last))];
    auto b = tokens[static_cast<std::size_t>(pick(0, last))];
    if (a.first == b.first) return;
    if (a.first > b.first) std::swap(a, b);
    const std::string first = text.substr(a.first, a.second);
    const std::string second = text.substr(b.first, b.second);
    text.replace(b.first, b.second, first);  // back one first: a stays put
    text.replace(a.first, a.second, second);
  }

  core::Rng rng_;
};

struct Header {
  FrameType type = FrameType::kError;
  std::size_t bytes = 0;
  std::vector<std::pair<std::string, std::string>> flags;
};

bool read_header(const std::string& line, Header* out, std::string* error) {
  return service::parse_frame_header(line, &out->type, &out->bytes,
                                     &out->flags, error);
}

TEST(ProtocolMutator, HeaderMutantsAreRefusedOrRoundTrip) {
  const std::vector<std::string> seeds = {
      "abt1 solve 412",
      "abt1 race 96 note=x",
      "abt1 cancel 9",
      "abt1 stats 0",
      "abt1 ok 1835 exit=0 cached=1",
      "abt1 ok 77 exit=2 budget-ms=12.5",
      "abt1 error 40",
      "abt1 overloaded 38",
      "abt1 progress 120 note=a=b",
  };
  Mutator mutate(20250101);
  constexpr int kMutants = 100000;
  int accepted = 0;
  for (int i = 0; i < kMutants; ++i) {
    const std::string line =
        mutate(seeds[static_cast<std::size_t>(i) % seeds.size()]);
    Header first;
    std::string error;
    if (!read_header(line, &first, &error)) {
      ASSERT_FALSE(error.empty()) << "silent refusal of <" << line << ">";
      continue;
    }
    ++accepted;
    // Every header the reader accepts, the writer can write back.
    Frame frame;
    frame.type = first.type;
    frame.flags = first.flags;
    frame.payload.assign(first.bytes, 'x');
    const std::string rewritten = service::frame_header(frame);
    Header second;
    ASSERT_TRUE(read_header(rewritten, &second, &error))
        << "<" << line << "> rewrote to <" << rewritten << ">: " << error;
    ASSERT_EQ(second.type, first.type) << line;
    ASSERT_EQ(second.bytes, first.bytes) << line;
    ASSERT_EQ(second.flags, first.flags) << line;
  }
  // The campaign must reach both outcomes, or it proves little.
  EXPECT_GT(accepted, kMutants / 100);
  EXPECT_LT(accepted, kMutants - kMutants / 100);
}

std::string payload_of(SolveRequest request) {
  std::string out;
  std::string error;
  EXPECT_TRUE(service::write_solve_payload(out, request, &error)) << error;
  return out;
}

std::vector<std::string> payload_seeds() {
  core::Rng rng(91);
  std::vector<core::ProblemInstance> instances;
  {
    gen::SlottedParams params;
    params.num_jobs = 6;
    params.capacity = 2;
    instances.push_back(core::make_instance(gen::random_slotted(rng, params)));
  }
  {
    gen::ContinuousParams params;
    params.num_jobs = 6;
    params.capacity = 2;
    params.max_slack = 1.5;
    instances.push_back(
        core::make_instance(gen::random_continuous(rng, params)));
  }
  {
    gen::WeightedParams params;
    params.num_jobs = 6;
    params.capacity = 4;
    params.max_slack = 0.8;
    instances.push_back(core::make_instance(gen::random_weighted(rng, params)));
  }
  {
    gen::MultiWindowParams params;
    params.num_jobs = 5;
    params.capacity = 2;
    instances.push_back(
        core::make_instance(gen::random_multi_window(rng, params)));
  }
  std::vector<std::string> seeds;
  for (std::size_t i = 0; i < instances.size(); ++i) {
    SolveRequest request;
    request.instance = instances[i];
    seeds.push_back(payload_of(request));  // directives at their defaults
    request.id = "req-" + std::to_string(i);
    request.solvers = {"busy/first-fit", "busy/weighted-exact"};
    request.budget_ms = 125.5;
    request.accept_gap = 0.02;
    request.progress = 3;
    request.format = i % 2 == 0 ? engine::Format::kCsv : engine::Format::kTable;
    seeds.push_back(payload_of(request));
  }
  // Any negative gap means "accept any"; the writer never spells one out.
  seeds.push_back("accept-gap -0.5\n" + seeds.front());
  return seeds;
}

/// "line N: ..." with N >= 1.
bool is_line_numbered(const std::string& error) {
  if (error.rfind("line ", 0) != 0) return false;
  std::size_t i = 5;
  while (i < error.size() && error[i] >= '0' && error[i] <= '9') ++i;
  return i > 5 && error[5] != '0' && error.compare(i, 2, ": ") == 0;
}

TEST(ProtocolMutator, PayloadMutantsAreLineNumberedOrRoundTrip) {
  const std::vector<std::string> seeds = payload_seeds();
  Mutator mutate(20250102);
  constexpr int kMutants = 10000;
  int accepted = 0;
  for (int i = 0; i < kMutants; ++i) {
    const std::string payload =
        mutate(seeds[static_cast<std::size_t>(i) % seeds.size()]);
    SolveRequest first;
    std::string error;
    if (!service::parse_solve_payload(payload, &first, &error)) {
      ASSERT_TRUE(is_line_numbered(error))
          << "diagnostic <" << error << "> for payload:\n"
          << payload;
      continue;
    }
    ++accepted;
    const std::string rewritten = payload_of(first);
    SolveRequest second;
    ASSERT_TRUE(service::parse_solve_payload(rewritten, &second, &error))
        << error << "\n--- mutant:\n"
        << payload << "--- rewritten:\n"
        << rewritten;
    ASSERT_EQ(service::cache_key(second), service::cache_key(first))
        << "--- mutant:\n"
        << payload;
    ASSERT_EQ(second.id, first.id) << payload;
    ASSERT_EQ(second.progress, first.progress) << payload;
  }
  EXPECT_GT(accepted, kMutants / 100);
  EXPECT_LT(accepted, kMutants - kMutants / 100);
}

}  // namespace
}  // namespace abt
