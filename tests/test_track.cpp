#include "busy/track.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <string>

#include "busy/dp_unbounded.hpp"
#include "core/rng.hpp"
#include "engine/runner.hpp"
#include "gen/random_instances.hpp"

namespace abt::busy {
namespace {

using core::ContinuousInstance;
using core::JobId;

ContinuousInstance intervals(std::vector<std::pair<double, double>> spans,
                             int g = 1) {
  std::vector<core::ContinuousJob> jobs;
  for (auto [lo, hi] : spans) jobs.push_back({lo, hi, hi - lo});
  return ContinuousInstance(std::move(jobs), g);
}

double track_length(const ContinuousInstance& inst,
                    const std::vector<JobId>& track) {
  double total = 0;
  for (JobId j : track) total += inst.job(j).length;
  return total;
}

bool is_disjoint(const ContinuousInstance& inst,
                 const std::vector<JobId>& track) {
  for (std::size_t a = 0; a < track.size(); ++a) {
    for (std::size_t b = a + 1; b < track.size(); ++b) {
      const auto& ja = inst.job(track[a]);
      const auto& jb = inst.job(track[b]);
      const core::Interval ia{ja.release, ja.release + ja.length};
      const core::Interval ib{jb.release, jb.release + jb.length};
      if (ia.overlaps(ib)) return false;
    }
  }
  return true;
}

TEST(Track, EmptyInput) {
  const auto inst = intervals({});
  EXPECT_TRUE(longest_track(inst, {}).empty());
}

TEST(Track, SingleJob) {
  const auto inst = intervals({{0, 2}});
  const auto track = longest_track(inst, {0});
  EXPECT_EQ(track.size(), 1u);
}

TEST(Track, PicksLongerOfTwoOverlapping) {
  const auto inst = intervals({{0, 2}, {1, 5}});
  const auto track = longest_track(inst, {0, 1});
  ASSERT_EQ(track.size(), 1u);
  EXPECT_EQ(track[0], 1);
}

TEST(Track, ChainsDisjointJobs) {
  const auto inst = intervals({{0, 2}, {2, 4}, {4, 6}});
  const auto track = longest_track(inst, {0, 1, 2});
  EXPECT_EQ(track.size(), 3u) << "touching intervals are compatible";
}

TEST(Track, ClassicWeightedExample) {
  // Jobs: [0,3) w3, [2,5) w3, [4,7) w3: best = {0,2} weight 6.
  const auto inst = intervals({{0, 3}, {2, 5}, {4, 7}});
  const auto track = longest_track(inst, {0, 1, 2});
  EXPECT_DOUBLE_EQ(track_length(inst, track), 6.0);
  EXPECT_TRUE(is_disjoint(inst, track));
}

TEST(Track, RespectsCandidateSubset) {
  const auto inst = intervals({{0, 3}, {2, 5}, {4, 7}});
  const auto track = longest_track(inst, {1});
  ASSERT_EQ(track.size(), 1u);
  EXPECT_EQ(track[0], 1);
}

TEST(Track, CustomWeightsOverrideLengths) {
  // Short middle job with huge weight wins over the two long ones.
  const auto inst = intervals({{0, 3}, {2.5, 3.5}, {3, 6}});
  const auto track = max_weight_track(inst, {0, 1, 2}, {1.0, 100.0, 1.0});
  ASSERT_EQ(track.size(), 1u);
  EXPECT_EQ(track[0], 1);
}

/// Property: DP result matches bitmask brute force on random sets.
class TrackRandom : public ::testing::TestWithParam<int> {};

TEST_P(TrackRandom, MatchesBruteForce) {
  core::Rng rng(static_cast<std::uint64_t>(GetParam()) * 99991ULL);
  for (int trial = 0; trial < 25; ++trial) {
    gen::ContinuousParams params;
    params.num_jobs = static_cast<int>(rng.uniform_int(1, 12));
    params.horizon = 15;
    params.max_slack = 0.0;
    const ContinuousInstance inst = gen::random_continuous(rng, params);
    std::vector<JobId> all(static_cast<std::size_t>(inst.size()));
    std::iota(all.begin(), all.end(), JobId{0});

    double brute = 0;
    for (std::uint32_t mask = 0; mask < (1U << inst.size()); ++mask) {
      std::vector<JobId> subset;
      for (int j = 0; j < inst.size(); ++j) {
        if ((mask >> j) & 1U) subset.push_back(j);
      }
      if (!is_disjoint(inst, subset)) continue;
      brute = std::max(brute, track_length(inst, subset));
    }
    const auto track = longest_track(inst, all);
    EXPECT_TRUE(is_disjoint(inst, track));
    EXPECT_NEAR(track_length(inst, track), brute, 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TrackRandom, ::testing::Range(1, 7));

/// Peels `inst` to exhaustion and checks every peel against a fresh
/// max_weight_track over the survivors (in id order, as the peeler keeps
/// them): the remapped predecessors must pick the very same track.
void expect_peels_match_fresh_tracks(const ContinuousInstance& inst,
                                     const std::string& label) {
  std::vector<JobId> survivors(static_cast<std::size_t>(inst.size()));
  std::iota(survivors.begin(), survivors.end(), JobId{0});
  std::vector<double> lengths;
  for (JobId j : survivors) lengths.push_back(inst.job(j).length);
  TrackPeeler peeler(inst, survivors, lengths);
  int peel = 0;
  while (!peeler.empty()) {
    std::vector<double> weights;
    for (JobId j : survivors) weights.push_back(inst.job(j).length);
    const std::vector<JobId> fresh =
        max_weight_track(inst, survivors, weights);
    const std::vector<JobId> track = peeler.extract_max_weight_track();
    ASSERT_EQ(track, fresh) << label << " peel " << peel;
    ASSERT_FALSE(track.empty()) << label << " peel " << peel;
    std::erase_if(survivors, [&](JobId j) {
      return std::find(track.begin(), track.end(), j) != track.end();
    });
    ASSERT_EQ(peeler.remaining(), survivors.size()) << label;
    ++peel;
  }
  EXPECT_TRUE(survivors.empty()) << label;
}

TEST(TrackPeeler, EveryPeelMatchesAFreshTrackOnRandomIntervals) {
  core::Rng rng(4242);
  for (int trial = 0; trial < 40; ++trial) {
    gen::ContinuousParams params;
    params.num_jobs = static_cast<int>(rng.uniform_int(1, 200));
    params.capacity = 3;
    params.horizon = params.num_jobs / 4.0 + 5.0;
    params.max_slack = 0.0;
    expect_peels_match_fresh_tracks(gen::random_continuous(rng, params),
                                    "random trial " + std::to_string(trial));
  }
}

/// GREEDYTRACKING's pipeline input: the campaign's flexible and bursty
/// families frozen by the g = infinity DP.
TEST(TrackPeeler, EveryPeelMatchesAFreshTrackOnFrozenScenarios) {
  for (const char* scenario : {"flexible", "bursty"}) {
    for (const int n : {8, 64, 1024}) {
      engine::ScenarioSpec spec;
      spec.name = scenario;
      spec.n = n;
      spec.g = 8;
      const auto inst = engine::make_scenario(spec);
      ASSERT_TRUE(inst.has_value()) << scenario;
      const ContinuousInstance frozen = freeze_to_interval_instance(
          inst->continuous, solve_unbounded(inst->continuous));
      expect_peels_match_fresh_tracks(
          frozen, std::string(scenario) + " n=" + std::to_string(n));
    }
  }
}

/// Integer endpoints on a short horizon: many jobs share an end, a start,
/// or both, so ties decide both the end order and the predecessors.
TEST(TrackPeeler, EveryPeelMatchesAFreshTrackWithTiedEnds) {
  core::Rng rng(77);
  for (int trial = 0; trial < 40; ++trial) {
    std::vector<std::pair<double, double>> spans;
    const auto n = rng.uniform_int(1, 60);
    for (std::int64_t i = 0; i < n; ++i) {
      const auto lo = static_cast<double>(rng.uniform_int(0, 8));
      spans.emplace_back(lo, lo + static_cast<double>(rng.uniform_int(1, 3)));
    }
    expect_peels_match_fresh_tracks(intervals(std::move(spans)),
                                    "tied trial " + std::to_string(trial));
  }
}

}  // namespace
}  // namespace abt::busy
