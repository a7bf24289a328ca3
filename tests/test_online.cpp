#include "busy/online.hpp"

#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "busy/lower_bounds.hpp"
#include "busy/weighted.hpp"
#include "preemptive_layout.hpp"
#include "core/rng.hpp"
#include "gen/random_instances.hpp"

namespace abt::busy {
namespace {

using core::ContinuousInstance;

ContinuousInstance intervals(std::vector<std::pair<double, double>> spans,
                             int g) {
  std::vector<core::ContinuousJob> jobs;
  for (auto [lo, hi] : spans) jobs.push_back({lo, hi, hi - lo});
  return ContinuousInstance(std::move(jobs), g);
}

TEST(Online, AllPoliciesHandleSingleJob) {
  const auto inst = intervals({{0, 2}}, 1);
  for (const auto policy : {OnlinePolicy::kFirstFit, OnlinePolicy::kBestFit,
                            OnlinePolicy::kNextFit}) {
    const auto s = schedule_online(inst, policy);
    std::string why;
    EXPECT_TRUE(core::check_busy_schedule(inst, s, &why)) << why;
    EXPECT_NEAR(core::busy_cost(inst, s), 2.0, 1e-9);
  }
}

TEST(Online, NextFitOpensMoreMachinesThanFirstFit) {
  // Alternating short/long jobs: next-fit loses track of earlier machines.
  const auto inst =
      intervals({{0, 1}, {0, 1}, {2, 3}, {0, 1}, {2, 3}, {2, 3}}, 1);
  const auto ff = schedule_online(inst, OnlinePolicy::kFirstFit);
  const auto nf = schedule_online(inst, OnlinePolicy::kNextFit);
  EXPECT_LE(core::busy_cost(inst, ff), core::busy_cost(inst, nf) + 1e-9);
}

TEST(Online, ProcessesInReleaseOrderNotIdOrder) {
  // Two overlapping long jobs released late, short one first; capacity 1.
  const auto inst = intervals({{5, 8}, {0, 4}, {5, 8}}, 1);
  const auto s = schedule_online(inst, OnlinePolicy::kFirstFit);
  std::string why;
  EXPECT_TRUE(core::check_busy_schedule(inst, s, &why)) << why;
  // Job 1 (released 0) shares a machine with one of the late jobs.
  EXPECT_EQ(s.machine_count(), 2);
}

/// Property: every policy yields feasible schedules, and the measured
/// competitive ratio against the exact optimum never exceeds the general
/// deterministic lower-bound territory on these small instances (sanity:
/// always >= 1, finite).
class OnlineRandom : public ::testing::TestWithParam<int> {};

TEST_P(OnlineRandom, FeasibleAndAboveOptimum) {
  core::Rng rng(static_cast<std::uint64_t>(GetParam()) * 883ULL);
  for (int trial = 0; trial < 10; ++trial) {
    gen::ContinuousParams params;
    params.num_jobs = static_cast<int>(rng.uniform_int(2, 9));
    params.capacity = static_cast<int>(rng.uniform_int(1, 3));
    params.horizon = 12;
    const ContinuousInstance inst = gen::random_continuous(rng, params);
    const core::BusySchedule exact =
        solve_exact_busy(WeightedInstance::with_unit_widths(inst)).schedule;
    const double opt = core::busy_cost(inst, exact);
    for (const auto policy : {OnlinePolicy::kFirstFit, OnlinePolicy::kBestFit,
                              OnlinePolicy::kNextFit}) {
      const auto s = schedule_online(inst, policy);
      std::string why;
      EXPECT_TRUE(core::check_busy_schedule(inst, s, &why)) << why;
      EXPECT_GE(core::busy_cost(inst, s), opt - 1e-9);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, OnlineRandom, ::testing::Range(1, 7));

/// Integer releases and lengths: runs touch (one ending exactly at a
/// release no longer occupies its machine) and coincide (equal releases
/// keep id order).
ContinuousInstance lattice_intervals(core::Rng& rng, int n, int g) {
  std::vector<std::pair<double, double>> spans;
  for (int j = 0; j < n; ++j) {
    const auto lo = static_cast<double>(rng.uniform_int(0, n / 3));
    spans.emplace_back(lo, lo + static_cast<double>(rng.uniform_int(1, 4)));
  }
  return intervals(std::move(spans), g);
}

/// The frontier placer must reproduce the frozen quadratic originals
/// placement-for-placement, for every policy, on every interval family
/// (random, clique, proper, laminar, bursty, integer lattice) at default
/// scales and sizes well past anything the unit tests above touch.
TEST(Online, MatchesNaiveBaselinePlacementForPlacement) {
  for (const std::uint64_t seed : {11ULL, 12ULL, 13ULL, 14ULL}) {
    core::Rng rng(seed * 977ULL);
    gen::ContinuousParams params;
    params.num_jobs = static_cast<int>(rng.uniform_int(50, 400));
    params.capacity = static_cast<int>(rng.uniform_int(1, 5));
    params.horizon = params.num_jobs / 8.0 + 10.0;
    gen::BurstyParams bursty;
    bursty.base = params;
    const std::vector<std::pair<const char*, ContinuousInstance>> families = {
        {"random", gen::random_continuous(rng, params)},
        {"clique", gen::random_clique(rng, params)},
        {"proper", gen::random_proper(rng, params)},
        {"laminar", gen::random_laminar(rng, params)},
        {"bursty", gen::random_bursty(rng, bursty)},
        {"lattice",
         lattice_intervals(rng, params.num_jobs, params.capacity)},
    };
    for (const auto& [family, inst] : families) {
      ASSERT_TRUE(inst.all_interval_jobs(1e-6)) << family;
      for (const auto policy : {OnlinePolicy::kFirstFit,
                                OnlinePolicy::kBestFit,
                                OnlinePolicy::kNextFit}) {
        const auto fast = schedule_online(inst, policy);
        const auto slow = naive::schedule_online(inst, policy);
        ASSERT_EQ(fast.placements.size(), slow.placements.size());
        for (std::size_t j = 0; j < fast.placements.size(); ++j) {
          EXPECT_EQ(fast.placements[j].machine, slow.placements[j].machine)
              << family << " seed " << seed << " job " << j << ", policy "
              << static_cast<int>(policy);
          EXPECT_EQ(fast.placements[j].start, slow.placements[j].start);
        }
      }
    }
  }
}

}  // namespace
}  // namespace abt::busy
