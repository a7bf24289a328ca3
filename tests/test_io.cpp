#include "core/io.hpp"

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "core/rng.hpp"
#include "gen/random_instances.hpp"

namespace abt::core {
namespace {

TEST(InstanceIo, ParsesSlotted) {
  std::istringstream in(
      "# a comment\n"
      "model slotted\n"
      "capacity 3\n"
      "job 0 5 2\n"
      "job 1 4 1  # trailing comment\n");
  const auto parsed = parse_instance(in);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->family, Family::kActive);
  EXPECT_EQ(parsed->kind, InstanceKind::kStandard);
  EXPECT_EQ(parsed->slotted.size(), 2);
  EXPECT_EQ(parsed->slotted.capacity(), 3);
  EXPECT_EQ(parsed->slotted.job(0).length, 2);
}

TEST(InstanceIo, ParsesContinuous) {
  std::istringstream in(
      "model continuous\ncapacity 2\njob 0.5 3.25 1.75\n");
  const auto parsed = parse_instance(in);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->family, Family::kBusy);
  EXPECT_EQ(parsed->kind, InstanceKind::kStandard);
  EXPECT_DOUBLE_EQ(parsed->continuous.job(0).release, 0.5);
}

TEST(InstanceIo, ErrorsCarryLineNumbers) {
  std::string error;
  {
    std::istringstream in("model slotted\ncapacity 2\njob 0 5\n");
    EXPECT_FALSE(parse_instance(in, &error).has_value());
    EXPECT_NE(error.find("line 3"), std::string::npos) << error;
  }
  {
    std::istringstream in("job 0 5 1\n");
    EXPECT_FALSE(parse_instance(in, &error).has_value());
    EXPECT_NE(error.find("before model"), std::string::npos) << error;
  }
  {
    std::istringstream in("model teleport\n");
    EXPECT_FALSE(parse_instance(in, &error).has_value());
    EXPECT_NE(error.find("unknown model"), std::string::npos) << error;
  }
  {
    std::istringstream in("model slotted\njob 0 5 1\n");
    EXPECT_FALSE(parse_instance(in, &error).has_value());
    EXPECT_NE(error.find("capacity"), std::string::npos) << error;
  }
  {
    std::istringstream in("model slotted\ncapacity 1\nfrobnicate\n");
    EXPECT_FALSE(parse_instance(in, &error).has_value());
    EXPECT_NE(error.find("unknown directive"), std::string::npos) << error;
  }
}

TEST(InstanceIo, RejectsStructurallyInvalidInstances) {
  std::string error;
  std::istringstream in("model slotted\ncapacity 1\njob 0 1 5\n");
  EXPECT_FALSE(parse_instance(in, &error).has_value());
  EXPECT_NE(error.find("window"), std::string::npos) << error;
}

TEST(InstanceIo, SlottedRoundTrip) {
  Rng rng(5150);
  gen::SlottedParams params;
  params.num_jobs = 12;
  const auto original = gen::random_slotted(rng, params);
  std::ostringstream out;
  write_instance(out, make_instance(original));
  std::istringstream in(out.str());
  const auto parsed = parse_instance(in);
  ASSERT_TRUE(parsed.has_value());
  ASSERT_EQ(parsed->slotted.size(), original.size());
  for (int j = 0; j < original.size(); ++j) {
    EXPECT_EQ(parsed->slotted.job(j), original.job(j));
  }
  EXPECT_EQ(parsed->slotted.capacity(), original.capacity());
}

TEST(InstanceIo, ContinuousRoundTripPreservesDoubles) {
  Rng rng(6160);
  gen::ContinuousParams params;
  params.num_jobs = 12;
  params.max_slack = 1.3;
  const auto original = gen::random_continuous(rng, params);
  std::ostringstream out;
  write_instance(out, make_instance(original));
  std::istringstream in(out.str());
  const auto parsed = parse_instance(in);
  ASSERT_TRUE(parsed.has_value());
  for (int j = 0; j < original.size(); ++j) {
    EXPECT_EQ(parsed->continuous.job(j), original.job(j))
        << "precision-17 round trip must be exact";
  }
}

// This binary references nothing above core/io and gen/: all four models
// parse and re-emit through the library alone, with no setup call.
TEST(InstanceIo, ExtendedModelsRoundTripWithNoSetup) {
  const std::string weighted =
      "model weighted\n"
      "capacity 4\n"
      "job 0 2.5 2.5\n"
      "weight 3\n"
      "job 1 4.25 3.25\n"
      "weight 1\n";
  std::string error;
  const auto w = parse_instance(weighted, &error);
  ASSERT_TRUE(w.has_value()) << error;
  EXPECT_EQ(w->family, Family::kBusy);
  EXPECT_EQ(w->kind, InstanceKind::kWeighted);
  EXPECT_EQ(w->weighted.size(), 2);
  EXPECT_EQ(w->weighted.job(0).width, 3);
  std::string out;
  write_instance(out, *w);
  EXPECT_EQ(out, weighted);

  const std::string multi_window =
      "model multi-window\n"
      "capacity 2\n"
      "job 3\n"
      "window 0 4\n"
      "window 6 9\n"
      "job 1\n"
      "window 2 3\n";
  const auto m = parse_instance(multi_window, &error);
  ASSERT_TRUE(m.has_value()) << error;
  EXPECT_EQ(m->family, Family::kActive);
  EXPECT_EQ(m->kind, InstanceKind::kMultiWindow);
  EXPECT_EQ(m->multi_window.size(), 2);
  EXPECT_EQ(m->multi_window.horizon(), 9);
  out.clear();
  write_instance(out, *m);
  EXPECT_EQ(out, multi_window);

  EXPECT_FALSE(parse_instance(std::string_view("model teleport\n"), &error)
                   .has_value());
  EXPECT_EQ(error,
            "line 1: unknown model 'teleport' (known: slotted, continuous, "
            "weighted, multi-window)");
}

}  // namespace
}  // namespace abt::core
