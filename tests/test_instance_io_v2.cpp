// Instance I/O v2: write_instance ∘ parse_instance must be the identity
// for ALL FOUR instance kinds, and malformed input must fail with
// line-numbered errors instead of producing a partial instance.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <limits>
#include <sstream>
#include <vector>

#include "core/io.hpp"
#include "core/rng.hpp"
#include "gen/extended_instances.hpp"
#include "gen/random_instances.hpp"
#include "service/protocol.hpp"

namespace abt {
namespace {

using core::ProblemInstance;

ProblemInstance round_trip(const ProblemInstance& inst) {
  std::ostringstream out;
  core::write_instance(out, inst);
  std::istringstream in(out.str());
  std::string error;
  const auto parsed = core::parse_instance(in, &error);
  EXPECT_TRUE(parsed.has_value()) << error << "\n--- emitted:\n" << out.str();
  return parsed.value_or(ProblemInstance{});
}

// ---------------------------------------------------------------------------
// parse(write(x)) == x, randomized over every kind.

TEST(InstanceIoV2, RoundTripsRandomSlottedInstances) {
  core::Rng rng(4242);
  for (int trial = 0; trial < 25; ++trial) {
    gen::SlottedParams params;
    params.num_jobs = static_cast<int>(rng.uniform_int(1, 30));
    params.capacity = static_cast<int>(rng.uniform_int(1, 5));
    const auto original = gen::random_slotted(rng, params);
    const ProblemInstance back = round_trip(core::make_instance(original));
    ASSERT_EQ(back.family, core::Family::kActive);
    ASSERT_EQ(back.kind, core::InstanceKind::kStandard);
    EXPECT_EQ(back.slotted.capacity(), original.capacity());
    EXPECT_EQ(back.slotted.jobs(), original.jobs());
  }
}

TEST(InstanceIoV2, RoundTripsRandomContinuousInstances) {
  core::Rng rng(4243);
  for (int trial = 0; trial < 25; ++trial) {
    gen::ContinuousParams params;
    params.num_jobs = static_cast<int>(rng.uniform_int(1, 30));
    params.capacity = static_cast<int>(rng.uniform_int(1, 5));
    params.max_slack = trial % 2 == 0 ? 0.0 : 1.7;
    const auto original = gen::random_continuous(rng, params);
    const ProblemInstance back = round_trip(core::make_instance(original));
    ASSERT_EQ(back.family, core::Family::kBusy);
    ASSERT_EQ(back.kind, core::InstanceKind::kStandard);
    EXPECT_EQ(back.continuous.capacity(), original.capacity());
    EXPECT_EQ(back.continuous.jobs(), original.jobs())
        << "precision-17 round trip must be exact";
  }
}

TEST(InstanceIoV2, RoundTripsRandomWeightedInstances) {
  core::Rng rng(4244);
  for (int trial = 0; trial < 25; ++trial) {
    gen::WeightedParams params;
    params.num_jobs = static_cast<int>(rng.uniform_int(1, 20));
    params.capacity = static_cast<int>(rng.uniform_int(1, 6));
    params.max_slack = trial % 2 == 0 ? 0.0 : 1.1;
    const auto original = gen::random_weighted(rng, params);
    const ProblemInstance back =
        round_trip(core::make_instance(original));
    ASSERT_EQ(back.family, core::Family::kBusy);
    ASSERT_EQ(back.kind, core::InstanceKind::kWeighted);
    const core::WeightedInstance& parsed = back.weighted;
    EXPECT_EQ(parsed.capacity(), original.capacity());
    EXPECT_EQ(parsed.jobs(), original.jobs())
        << "weights and precision-17 doubles must survive the round trip";
  }
}

TEST(InstanceIoV2, RoundTripsRandomMultiWindowInstances) {
  core::Rng rng(4245);
  for (int trial = 0; trial < 25; ++trial) {
    gen::MultiWindowParams params;
    params.num_jobs = static_cast<int>(rng.uniform_int(1, 14));
    params.capacity = static_cast<int>(rng.uniform_int(1, 4));
    const auto original = gen::random_multi_window(rng, params);
    const ProblemInstance back =
        round_trip(core::make_instance(original));
    ASSERT_EQ(back.family, core::Family::kActive);
    ASSERT_EQ(back.kind, core::InstanceKind::kMultiWindow);
    const core::MultiWindowInstance& parsed = back.multi_window;
    EXPECT_EQ(parsed.capacity(), original.capacity());
    EXPECT_EQ(parsed.jobs(), original.jobs())
        << "window unions must survive the round trip";
  }
}

// ---------------------------------------------------------------------------
// Extended-model parsing specifics.

TEST(InstanceIoV2, WeightDefaultsToOne) {
  std::istringstream in(
      "model weighted\n"
      "capacity 3\n"
      "job 0 2 2\n"          // no weight line -> width 1
      "job 1 4 3\n"
      "weight 2\n");
  const auto parsed = core::parse_instance(in);
  ASSERT_TRUE(parsed.has_value());
  const core::WeightedInstance& inst = parsed->weighted;
  EXPECT_EQ(inst.job(0).width, 1);
  EXPECT_EQ(inst.job(1).width, 2);
}

TEST(InstanceIoV2, ParsesMultiWindowUnions) {
  std::istringstream in(
      "model multi-window\n"
      "capacity 2\n"
      "job 3\n"
      "window 0 2\n"
      "window 4 7   # second fragment\n"
      "job 1\n"
      "window 1 2\n");
  const auto parsed = core::parse_instance(in);
  ASSERT_TRUE(parsed.has_value());
  const core::MultiWindowInstance& inst = parsed->multi_window;
  ASSERT_EQ(inst.size(), 2);
  EXPECT_EQ(inst.job(0).windows.size(), 2u);
  EXPECT_EQ(inst.job(0).window_slots(), 5);
  EXPECT_EQ(inst.horizon(), 7);
}

// ---------------------------------------------------------------------------
// Malformed input: line-numbered errors, never a partial instance.

struct MalformedCase {
  const char* text;
  const char* expect_line;     ///< "line N" substring.
  const char* expect_message;  ///< Diagnostic substring.
};

class InstanceIoV2Malformed
    : public ::testing::TestWithParam<MalformedCase> {};

TEST_P(InstanceIoV2Malformed, FailsWithLineNumberedError) {
  std::istringstream in(GetParam().text);
  std::string error;
  EXPECT_FALSE(core::parse_instance(in, &error).has_value());
  EXPECT_NE(error.find(GetParam().expect_line), std::string::npos) << error;
  EXPECT_NE(error.find(GetParam().expect_message), std::string::npos)
      << error;
}

INSTANTIATE_TEST_SUITE_P(
    Cases, InstanceIoV2Malformed,
    ::testing::Values(
        MalformedCase{"model weighted\ncapacity 3\nweight 2\n", "line 3",
                      "weight before any job"},
        MalformedCase{"model weighted\ncapacity 3\njob 0 2 2\nweight 0\n",
                      "line 4", "weight needs a positive integer"},
        MalformedCase{"model weighted\ncapacity 3\njob 0 2\n", "line 3",
                      "job needs: release deadline length"},
        MalformedCase{"model weighted\ncapacity 3\nwindow 0 2\n", "line 3",
                      "unknown directive 'window' in model weighted"},
        // Structural validation happens at end of file: width 5 > g = 3.
        MalformedCase{"model weighted\ncapacity 3\njob 0 2 2\nweight 5\n",
                      "line 5", "width exceeds capacity"},
        MalformedCase{"model multi-window\ncapacity 2\nwindow 0 2\n",
                      "line 3", "window before any job"},
        MalformedCase{"model multi-window\ncapacity 2\njob x\n", "line 3",
                      "job needs: length"},
        MalformedCase{"model multi-window\ncapacity 2\njob 2\nwindow 3\n",
                      "line 4", "window needs: release deadline"},
        // Overlapping windows are a structural error, reported at EOF.
        MalformedCase{
            "model multi-window\ncapacity 2\njob 2\nwindow 0 3\nwindow 2 5\n",
            "line 6", "windows overlap"},
        MalformedCase{"model multi-window\ncapacity 2\njob 4\nwindow 0 2\n",
                      "line 5", "windows too small"},
        MalformedCase{"model weighted\njob 0 2 2\n", "line 3", "capacity"},
        MalformedCase{"model slotted\nmodel weighted\n", "line 2",
                      "duplicate model"},
        MalformedCase{"model slotted\ncapacity 3\njob 0 4 2\ncapacity 2\n",
                      "line 4", "duplicate capacity"},
        MalformedCase{"model teleport\n", "line 1", "unknown model"}));

// The unknown-model diagnostic names every model the format knows.
TEST(InstanceIoV2, UnknownModelListsRegisteredModels) {
  std::istringstream in("model teleport\n");
  std::string error;
  EXPECT_FALSE(core::parse_instance(in, &error).has_value());
  EXPECT_NE(error.find("weighted"), std::string::npos) << error;
  EXPECT_NE(error.find("multi-window"), std::string::npos) << error;
}

// ---------------------------------------------------------------------------
// Number and token rules (core/text.hpp): what the parser accepts and what
// it rejects, with the exact line the error names.

struct TokenCase {
  const char* name;
  const char* text;
  int error_line;  ///< 0 = must parse.
};

void PrintTo(const TokenCase& c, std::ostream* os) { *os << c.name; }

class InstanceIoV2Tokens : public ::testing::TestWithParam<TokenCase> {};

TEST_P(InstanceIoV2Tokens, AcceptsOrRejectsWithExactLine) {
  const TokenCase& c = GetParam();
  std::string error;
  const auto parsed = core::parse_instance(std::string_view(c.text), &error);
  if (c.error_line == 0) {
    EXPECT_TRUE(parsed.has_value()) << error;
    return;
  }
  ASSERT_FALSE(parsed.has_value());
  const std::string prefix = "line " + std::to_string(c.error_line) + ": ";
  EXPECT_EQ(error.rfind(prefix, 0), 0u) << error;
}

INSTANTIATE_TEST_SUITE_P(
    Cases, InstanceIoV2Tokens,
    ::testing::Values(
        // Accepted spellings.
        TokenCase{"LeadingPlus", "model slotted\ncapacity +3\njob +0 +5 +2\n",
                  0},
        TokenCase{"Tabs", "model\tslotted\ncapacity\t3\njob\t0 5\t2\t\n", 0},
        TokenCase{"Crlf",
                  "model continuous\r\ncapacity 2\r\njob 0 1.5 1\r\n", 0},
        TokenCase{"Comments",
                  "# head\nmodel slotted # m\ncapacity 3#c\njob 0 5 2#j\n", 0},
        TokenCase{"Subnormal",
                  "model continuous\ncapacity 1\njob 0 1 1e-320\n", 0},
        TokenCase{"NoFinalNewline", "model slotted\ncapacity 3\njob 0 5 2", 0},
        TokenCase{"WeightedCrlf",
                  "model weighted\r\ncapacity 3\r\njob 0 2 2\r\nweight +2\r\n",
                  0},
        // Numbers that used to be truncated silently.
        TokenCase{"FractionalCapacity", "model slotted\ncapacity 3.5\n", 2},
        TokenCase{"NumberWithSuffix", "model slotted\ncapacity 3\njob 0 5 2x\n",
                  3},
        TokenCase{"TrailingToken",
                  "model slotted\ncapacity 3\njob 0 5 2 extra\n", 3},
        TokenCase{"FractionalSlot", "model slotted\ncapacity 3\njob 0 5.5 2\n",
                  3},
        TokenCase{"FractionalWeight",
                  "model weighted\ncapacity 3\njob 0 2 2\nweight 2.5\n", 4},
        TokenCase{"TrailingWeightToken",
                  "model weighted\ncapacity 3\njob 0 2 2\nweight 2 3\n", 4},
        TokenCase{"TrailingWindowToken",
                  "model multi-window\ncapacity 2\njob 2\nwindow 0 2 9\n", 4},
        TokenCase{"MultiWindowLengthSuffix",
                  "model multi-window\ncapacity 2\njob 2x\n", 3},
        TokenCase{"TrailingModelToken", "model slotted extra\n", 1},
        TokenCase{"TrailingCapacityToken", "model slotted\ncapacity 3 4\n", 2},
        // Values that are never numbers.
        TokenCase{"Inf", "model continuous\ncapacity 2\njob 0 inf 1\n", 3},
        TokenCase{"NegativeInf", "model continuous\ncapacity 2\njob -inf 1 1\n",
                  3},
        TokenCase{"Nan", "model continuous\ncapacity 2\njob 0 2 nan\n", 3},
        TokenCase{"WeightedInf",
                  "model weighted\ncapacity 2\njob 0 infinity 1\n", 3},
        TokenCase{"Hex", "model slotted\ncapacity 3\njob 0 0x10 2\n", 3},
        TokenCase{"HexReal", "model continuous\ncapacity 3\njob 0 0x10 2\n", 3},
        TokenCase{"Overflow", "model continuous\ncapacity 2\njob 0 1e400 1\n",
                  3},
        TokenCase{"Underflow", "model continuous\ncapacity 2\njob 0 2 1e-400\n",
                  3},
        TokenCase{"IntOverflow",
                  "model slotted\ncapacity 3\njob 0 99999999999999999999 2\n",
                  3},
        TokenCase{"CapacityOverflow", "model slotted\ncapacity 4294967297\n",
                  2},
        TokenCase{"PlusMinus", "model slotted\ncapacity +-3\n", 2},
        TokenCase{"CrlfError", "model slotted\r\ncapacity 3\r\njob 0 5 2x\r\n",
                  3}),
    [](const ::testing::TestParamInfo<TokenCase>& info) {
      return std::string(info.param.name);
    });

TEST(InstanceIoV2, AcceptedSpellingsKeepTheirValues) {
  const auto slotted = core::parse_instance(
      std::string_view("model\tslotted\r\ncapacity +3\r\njob +1\t5 +2\r\n"));
  ASSERT_TRUE(slotted.has_value());
  EXPECT_EQ(slotted->slotted.capacity(), 3);
  EXPECT_EQ(slotted->slotted.job(0), (core::SlottedJob{1, 5, 2}));

  const auto continuous = core::parse_instance(
      std::string_view("model continuous\ncapacity 1\njob 0 1 1e-320\n"));
  ASSERT_TRUE(continuous.has_value());
  EXPECT_EQ(continuous->continuous.job(0).length, 1e-320);
}

// The payload parser reads the instance in place: CRLF and tab spellings
// work there too, and instance errors keep whole-payload line numbers.
TEST(InstanceIoV2, PayloadInstanceUsesTheSameTokenizer) {
  service::SolveRequest request;
  std::string error;
  ASSERT_TRUE(service::parse_solve_payload(
      "budget-ms\t+2.5\r\ninstance\r\nmodel slotted\r\ncapacity 2\r\n"
      "job 0 4 2\r\n",
      &request, &error))
      << error;
  EXPECT_EQ(request.budget_ms, 2.5);
  EXPECT_EQ(request.canonical, "model slotted\ncapacity 2\njob 0 4 2\n");

  EXPECT_FALSE(service::parse_solve_payload(
      "id a\ninstance\nmodel slotted\ncapacity 2\njob 0 4 2x\n", &request,
      &error));
  EXPECT_EQ(error.rfind("line 5: ", 0), 0u) << error;
  EXPECT_FALSE(service::parse_solve_payload("budget-ms inf\ninstance\n",
                                            &request, &error));
  EXPECT_EQ(error.rfind("line 1: ", 0), 0u) << error;
}

// ---------------------------------------------------------------------------
// Byte identity. The writer must produce exactly the bytes of the iostream
// writer it replaced (precision-17 doubles, i.e. %.17g): canonical text,
// cache keys, --emit output and the golden files in data/ are all defined
// by them. `reference_text` is that iostream writer, kept here as the
// oracle.

std::string reference_text(const ProblemInstance& inst) {
  std::ostringstream os;
  os.precision(17);
  switch (inst.kind) {
    case core::InstanceKind::kStandard:
      if (inst.family == core::Family::kActive) {
        os << "model slotted\ncapacity " << inst.slotted.capacity() << "\n";
        for (const core::SlottedJob& j : inst.slotted.jobs()) {
          os << "job " << j.release << ' ' << j.deadline << ' ' << j.length
             << "\n";
        }
      } else {
        os << "model continuous\ncapacity " << inst.continuous.capacity()
           << "\n";
        for (const core::ContinuousJob& j : inst.continuous.jobs()) {
          os << "job " << j.release << ' ' << j.deadline << ' ' << j.length
             << "\n";
        }
      }
      break;
    case core::InstanceKind::kWeighted: {
      const core::WeightedInstance& w = inst.weighted;
      os << "model weighted\ncapacity " << w.capacity() << "\n";
      for (const core::WeightedJob& wj : w.jobs()) {
        os << "job " << wj.job.release << ' ' << wj.job.deadline << ' '
           << wj.job.length << "\nweight " << wj.width << "\n";
      }
      break;
    }
    case core::InstanceKind::kMultiWindow: {
      const core::MultiWindowInstance& m = inst.multi_window;
      os << "model multi-window\ncapacity " << m.capacity() << "\n";
      for (const core::MultiWindowJob& job : m.jobs()) {
        os << "job " << job.length << "\n";
        for (const auto& [r, d] : job.windows) {
          os << "window " << r << ' ' << d << "\n";
        }
      }
      break;
    }
  }
  return os.str();
}

/// Generated instances of all four kinds, plus a continuous one carrying
/// the awkward doubles (subnormal, -0, huge, long mantissas).
std::vector<ProblemInstance> generated_instances() {
  std::vector<ProblemInstance> out;
  core::Rng rng(9090);
  for (int trial = 0; trial < 20; ++trial) {
    gen::SlottedParams sp;
    sp.num_jobs = static_cast<int>(rng.uniform_int(1, 40));
    sp.capacity = static_cast<int>(rng.uniform_int(1, 5));
    out.push_back(core::make_instance(gen::random_slotted(rng, sp)));
    gen::ContinuousParams cp;
    cp.num_jobs = static_cast<int>(rng.uniform_int(1, 40));
    cp.max_slack = trial % 2 == 0 ? 0.0 : 1.3;
    out.push_back(core::make_instance(gen::random_continuous(rng, cp)));
    gen::WeightedParams wp;
    wp.num_jobs = static_cast<int>(rng.uniform_int(1, 30));
    wp.capacity = static_cast<int>(rng.uniform_int(1, 6));
    wp.max_slack = trial % 2 == 0 ? 0.0 : 0.9;
    out.push_back(core::make_instance(gen::random_weighted(rng, wp)));
    gen::MultiWindowParams mp;
    mp.num_jobs = static_cast<int>(rng.uniform_int(1, 14));
    mp.capacity = static_cast<int>(rng.uniform_int(1, 4));
    out.push_back(core::make_instance(gen::random_multi_window(rng, mp)));
  }
  const double denorm = std::numeric_limits<double>::denorm_min();
  out.push_back(core::make_instance(core::ContinuousInstance(
      {{-0.0, 1e22, 0.1},
       {1.0 / 3.0, 1.7976931348623157e308, 1e-320},
       {denorm, 2.2250738585072014e-308, 123456789.125}},
      2)));
  return out;
}

TEST(InstanceIoV2, WriterMatchesTheIostreamBytesAndIsAFixedPoint) {
  for (const ProblemInstance& inst : generated_instances()) {
    std::string first;
    core::write_instance(first, inst);
    EXPECT_EQ(first, reference_text(inst));
    std::string error;
    const auto back = core::parse_instance(first, &error);
    if (inst.kind == core::InstanceKind::kStandard &&
        inst.family == core::Family::kBusy &&
        !inst.continuous.structurally_valid()) {
      continue;  // the awkward-doubles instance is only a byte-level probe
    }
    ASSERT_TRUE(back.has_value()) << error << "\n" << first;
    std::string second;
    core::write_instance(second, *back);
    EXPECT_EQ(second, first) << "second write must be byte-identical";
  }
}

TEST(InstanceIoV2, CacheKeyMatchesTheIostreamBytes) {
  for (const ProblemInstance& inst : generated_instances()) {
    service::SolveRequest request;
    request.solvers = {"busy/first-fit", "active/minimal-feasible"};
    request.budget_ms = 1.0 / 7.0;
    request.accept_gap = 0.02;
    request.instance = inst;
    std::string payload;
    std::string error;
    ASSERT_TRUE(service::write_solve_payload(payload, request, &error))
        << error;
    service::SolveRequest parsed;
    if (!service::parse_solve_payload(payload, &parsed, &error)) {
      continue;  // structurally invalid probe instance
    }
    std::ostringstream key;
    key.precision(17);
    key << "verb solve\nformat json\nsolvers busy/first-fit "
           "active/minimal-feasible\nbudget-ms "
        << request.budget_ms << "\naccept-gap " << request.accept_gap
        << "\ninstance\n"
        << reference_text(inst);
    EXPECT_EQ(service::cache_key(parsed), key.str());
  }
}

// ---------------------------------------------------------------------------
// Seeded mutation test over the committed corpus: every mutant either
// fails with "line N: " (N inside the text, or one past its end for
// end-of-file checks) or parses to an instance whose canonical text is a
// parse∘write fixed point.

std::vector<std::string> corpus() {
  std::vector<std::filesystem::path> paths;
  for (const char* dir : {ABT_DATA_DIR, ABT_DATA_DIR "/malformed"}) {
    for (const auto& entry : std::filesystem::directory_iterator(dir)) {
      if (entry.path().extension() == ".txt") paths.push_back(entry.path());
    }
  }
  std::sort(paths.begin(), paths.end());
  std::vector<std::string> out;
  for (const auto& path : paths) {
    std::ifstream in(path, std::ios::binary);
    out.emplace_back(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
  }
  return out;
}

int line_count(const std::string& text) {
  const auto newlines = std::count(text.begin(), text.end(), '\n');
  return static_cast<int>(newlines) +
         (!text.empty() && text.back() != '\n' ? 1 : 0);
}

std::vector<std::string> split_lines(const std::string& text) {
  std::vector<std::string> lines;
  std::size_t pos = 0;
  while (pos < text.size()) {
    const std::size_t nl = text.find('\n', pos);
    const std::size_t end = nl == std::string::npos ? text.size() : nl + 1;
    lines.push_back(text.substr(pos, end - pos));
    pos = end;
  }
  return lines;
}

std::string join(const std::vector<std::string>& lines) {
  std::string out;
  for (const std::string& line : lines) out += line;
  return out;
}

std::string mutate(core::Rng& rng, std::string text) {
  static const std::string kAlphabet =
      "0123456789+-.eExX \t\r\n#abcdjknowy";
  static const char* const kTokens[] = {
      "inf", "nan", "-0", "1e400", "1e-400", "1e-320", "0x10", "+3", "-3",
      "3.5", "2x", "99999999999999999999", "1e308", "-1", "0", "extra",
      "job", "weight", "window", "capacity", "model", "instance"};
  auto pick = [&](std::size_t n) {
    return static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(n) - 1));
  };
  const int rounds = static_cast<int>(rng.uniform_int(1, 3));
  for (int round = 0; round < rounds; ++round) {
    const auto op = rng.uniform_int(0, 8);
    if (text.empty()) text = "model slotted\n";
    const std::size_t at = pick(text.size());
    switch (op) {
      case 0:
        text[at] = kAlphabet[pick(kAlphabet.size())];
        break;
      case 1:
        text.insert(at, 1, kAlphabet[pick(kAlphabet.size())]);
        break;
      case 2:
        text.erase(at, 1);
        break;
      case 3: {  // replace the token around `at`
        std::size_t b = at;
        while (b > 0 && !core::is_blank(text[b - 1])) --b;
        std::size_t e = at;
        while (e < text.size() && !core::is_blank(text[e])) ++e;
        text.replace(b, e - b, kTokens[pick(std::size(kTokens))]);
        break;
      }
      case 4:
        text.resize(at);
        break;
      default: {  // line-level edits
        std::vector<std::string> lines = split_lines(text);
        const std::size_t i = pick(lines.size());
        const std::size_t j = pick(lines.size());
        if (op == 5) {
          lines.insert(lines.begin() + static_cast<std::ptrdiff_t>(i),
                       lines[j]);
        } else if (op == 6) {
          lines.erase(lines.begin() + static_cast<std::ptrdiff_t>(i));
        } else if (op == 7) {
          std::swap(lines[i], lines[j]);
        } else {
          std::string& line = lines[i];
          const bool newline = !line.empty() && line.back() == '\n';
          if (newline) line.pop_back();
          line += std::string(" ") + kTokens[pick(std::size(kTokens))];
          if (newline) line += '\n';
        }
        text = join(lines);
        break;
      }
    }
  }
  return text;
}

TEST(InstanceIoV2, MutatedCorpusFailsWithALineOrReachesAFixedPoint) {
  const std::vector<std::string> seeds = corpus();
  ASSERT_GE(seeds.size(), 20u);
  core::Rng rng(20261017);
  constexpr int kMutants = 12000;
  int accepted = 0;
  for (int i = 0; i < kMutants; ++i) {
    const std::string text =
        mutate(rng, seeds[static_cast<std::size_t>(i) % seeds.size()]);
    std::string error;
    const auto parsed = core::parse_instance(text, &error);
    if (!parsed.has_value()) {
      int line = 0;
      const std::size_t colon = error.find(": ");
      ASSERT_EQ(error.rfind("line ", 0), 0u) << error << "\n" << text;
      ASSERT_NE(colon, std::string::npos) << error;
      ASSERT_TRUE(core::parse_number(
          std::string_view(error).substr(5, colon - 5), &line))
          << error;
      EXPECT_GE(line, 1) << error << "\n" << text;
      EXPECT_LE(line, line_count(text) + 1) << error << "\n" << text;
      continue;
    }
    ++accepted;
    std::string first;
    core::write_instance(first, *parsed);
    const auto again = core::parse_instance(first, &error);
    ASSERT_TRUE(again.has_value()) << error << "\n" << first;
    std::string second;
    core::write_instance(second, *again);
    ASSERT_EQ(first, second) << "input:\n" << text;
  }
  // Both outcomes must be exercised, or the mutator is broken.
  EXPECT_GT(accepted, kMutants / 20);
  EXPECT_LT(accepted, kMutants - kMutants / 20);
}

}  // namespace
}  // namespace abt
