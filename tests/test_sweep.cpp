#include "core/sweep.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <numeric>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "busy/first_fit.hpp"
#include "busy/greedy_tracking.hpp"
#include "busy/online.hpp"
#include "preemptive_layout.hpp"
#include "core/rng.hpp"
#include "gen/random_instances.hpp"
#include "test_util.hpp"

namespace abt::core {
namespace {

std::vector<Interval> random_intervals(Rng& rng, int n, double horizon) {
  std::vector<Interval> out;
  out.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    const double lo = rng.uniform_real(0.0, horizon);
    const double len = rng.uniform_real(0.1, horizon / 4);
    out.push_back({lo, lo + len});
  }
  return out;
}

TEST(CoverageProfile, EmptyAndDegenerate) {
  const std::vector<Interval> none;
  EXPECT_TRUE(CoverageProfile(none).segments().empty());
  const std::vector<Interval> only_empty = {{2.0, 2.0}, {5.0, 3.0}};
  EXPECT_TRUE(CoverageProfile(only_empty).segments().empty());
  EXPECT_EQ(CoverageProfile(none).max(), 0);
  EXPECT_DOUBLE_EQ(CoverageProfile(none).cost(), 0.0);
}

TEST(CoverageProfile, HandBuiltStepFunction) {
  //   [0,4) and [1,2): counts 1,2,1 over [0,1), [1,2), [2,4).
  const std::vector<Interval> ivs = {{0, 4}, {1, 2}};
  const CoverageProfile profile(ivs);
  ASSERT_EQ(profile.segments().size(), 3u);
  EXPECT_EQ(profile.segments()[0], (CoverageSegment{{0, 1}, 1}));
  EXPECT_EQ(profile.segments()[1], (CoverageSegment{{1, 2}, 2}));
  EXPECT_EQ(profile.segments()[2], (CoverageSegment{{2, 4}, 1}));
  EXPECT_EQ(profile.max(), 2);
  EXPECT_DOUBLE_EQ(profile.cost(), 5.0) << "integral equals total mass";
  EXPECT_EQ(profile.coverage_at(0.5), 1);
  EXPECT_EQ(profile.coverage_at(1.0), 2);
  EXPECT_EQ(profile.coverage_at(2.0), 1) << "half-open: [1,2) closed at 2";
  EXPECT_EQ(profile.coverage_at(4.0), 0);
  EXPECT_EQ(profile.coverage_at(-1.0), 0);
  EXPECT_EQ(profile.max_coverage_in(0.0, 1.0), 1);
  EXPECT_EQ(profile.max_coverage_in(0.0, 4.0), 2);
  EXPECT_EQ(profile.max_coverage_in(2.0, 4.0), 1);
  EXPECT_EQ(profile.max_coverage_in(5.0, 6.0), 0);
  EXPECT_EQ(profile.max_coverage_in(3.0, 3.0), 0) << "empty query range";
}

TEST(CoverageProfile, SkipsZeroCoverageGaps) {
  const std::vector<Interval> ivs = {{0, 1}, {3, 4}};
  const CoverageProfile profile(ivs);
  ASSERT_EQ(profile.segments().size(), 2u);
  EXPECT_EQ(profile.coverage_at(2.0), 0);
  EXPECT_EQ(profile.max_coverage_in(1.0, 3.0), 0);
  EXPECT_EQ(profile.max_coverage_in(1.0, 3.5), 1);
}

/// Property: every segment's count matches the naive midpoint count, the
/// segment boundaries are exactly the event points, and the aggregates
/// match their independent definitions.
TEST(CoverageProfile, MatchesNaiveCoverageOnRandomSets) {
  Rng rng(20140623);
  for (int trial = 0; trial < 50; ++trial) {
    const int n = static_cast<int>(rng.uniform_int(1, 60));
    const std::vector<Interval> ivs = random_intervals(rng, n, 20.0);
    const CoverageProfile profile(ivs);

    // Reference: the pre-sweep construction, one naive O(n) count per
    // event-point gap.
    const std::vector<RealTime> points = event_points(ivs);
    std::vector<CoverageSegment> expected;
    for (std::size_t i = 0; i + 1 < points.size(); ++i) {
      const int raw = coverage_at(ivs, points[i], points[i + 1]);
      if (raw > 0) expected.push_back({{points[i], points[i + 1]}, raw});
    }
    EXPECT_EQ(profile.segments(), expected);

    EXPECT_NEAR(profile.cost(), mass_of(ivs), 1e-9);
    EXPECT_EQ(profile.max(), testutil::max_overlap(ivs));

    for (int q = 0; q < 20; ++q) {
      const double t = rng.uniform_real(-1.0, 21.0);
      int naive = 0;
      for (const Interval& iv : ivs) {
        if (iv.contains(t)) ++naive;
      }
      EXPECT_EQ(profile.coverage_at(t), naive) << "t=" << t;
    }
  }
}

TEST(MaxConcurrency, MatchesReferenceSweep) {
  Rng rng(7);
  for (int trial = 0; trial < 30; ++trial) {
    const int n = static_cast<int>(rng.uniform_int(0, 40));
    const std::vector<Interval> ivs = random_intervals(rng, n, 10.0);
    EXPECT_EQ(max_concurrency(ivs), testutil::max_overlap(ivs));
  }
  const std::vector<Interval> touching = {{0, 1}, {1, 2}, {2, 3}};
  EXPECT_EQ(max_concurrency(touching), 1) << "half-open endpoints never meet";
}

/// Reference for OccupancyIndex queries: max coverage over [lo, hi) of a
/// plain interval list, probing every event point inside the range.
int naive_range_max(const std::vector<Interval>& ivs, double lo, double hi) {
  if (hi <= lo) return 0;
  std::vector<double> probes = {lo};
  for (const Interval& iv : ivs) {
    if (iv.lo > lo && iv.lo < hi) probes.push_back(iv.lo);
    if (iv.hi > lo && iv.hi < hi) probes.push_back(iv.hi);
  }
  int best = 0;
  for (double p : probes) {
    int count = 0;
    for (const Interval& iv : ivs) {
      if (iv.contains(p)) ++count;
    }
    best = std::max(best, count);
  }
  return best;
}

TEST(RadixSort, KeysOrderDoublesAsTheyCompare) {
  const std::vector<double> ascending = {-1e300, -2.5, -1.0, -1e-300, 0.0,
                                         1e-300, 1e-9, 0.5, 1.0, 3.0, 1e300};
  for (std::size_t i = 1; i < ascending.size(); ++i) {
    EXPECT_LT(radix_key(ascending[i - 1]), radix_key(ascending[i])) << i;
  }
  EXPECT_EQ(radix_key(-0.0), radix_key(0.0));
}

TEST(RadixSort, MatchesStableSortOnRandomKeys) {
  struct Item {
    std::uint64_t key;
    int id;
  };
  Rng rng(4099);
  for (int trial = 0; trial < 60; ++trial) {
    const auto n = static_cast<std::size_t>(rng.uniform_int(0, 600));
    // Narrow ranges (shared high bytes, skipped passes), quarter grids
    // (constant low bytes, many ties), signed wide ranges, and values a
    // few thousand ulps apart (keys that differ in their low bytes only).
    const int shape = trial % 4;
    std::vector<Item> items;
    for (std::size_t i = 0; i < n; ++i) {
      double x = rng.uniform_real(0.0, 1024.0);
      if (shape == 1) x = std::round(x * 4.0) / 4.0;
      if (shape == 2) x = rng.uniform_real(-1e6, 1e6);
      if (shape == 3) {
        x = 1.0 + static_cast<double>(rng.uniform_int(0, 4000)) *
                      std::ldexp(1.0, -52);
      }
      items.push_back({radix_key(x), static_cast<int>(i)});
    }
    std::vector<Item> expect = items;
    std::stable_sort(expect.begin(), expect.end(),
                     [](const Item& a, const Item& b) { return a.key < b.key; });
    std::vector<Item> scratch(n);
    radix_sort(std::span<Item>(items), std::span<Item>(scratch),
               [](const Item& item) { return item.key; });
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_EQ(items[i].key, expect[i].key) << "trial " << trial;
      ASSERT_EQ(items[i].id, expect[i].id) << "trial " << trial;
    }
  }
}

/// Both sides of kRadixCutover: the merge path and the radix passes give
/// std::stable_sort's order, many ties included.
TEST(RadixSort, SmallInputsMatchStableSort) {
  struct Item {
    std::uint64_t key;
    int id;
  };
  Rng rng(7727);
  for (const std::size_t n :
       {std::size_t{0}, std::size_t{1}, std::size_t{2}, std::size_t{15},
        std::size_t{16}, std::size_t{17}, std::size_t{48}, std::size_t{255},
        kRadixCutover - 1, kRadixCutover, kRadixCutover + 1,
        2 * kRadixCutover}) {
    for (int t = 0; t < 6; ++t) {
      std::vector<Item> items;
      for (std::size_t i = 0; i < n; ++i) {
        // Odd trials draw from eight values, so most keys tie.
        const double x = t % 2 == 0
                             ? rng.uniform_real(-50.0, 50.0)
                             : static_cast<double>(rng.uniform_int(0, 7));
        items.push_back({radix_key(x), static_cast<int>(i)});
      }
      if (t == 2) {  // descending: every insertion walks its whole run
        std::sort(items.begin(), items.end(), [](const Item& a, const Item& b) {
          return a.key > b.key;
        });
      }
      std::vector<Item> expect = items;
      std::stable_sort(
          expect.begin(), expect.end(),
          [](const Item& a, const Item& b) { return a.key < b.key; });
      std::vector<Item> scratch(n);
      radix_sort(std::span<Item>(items), std::span<Item>(scratch),
                 [](const Item& item) { return item.key; });
      for (std::size_t i = 0; i < n; ++i) {
        ASSERT_EQ(items[i].key, expect[i].key) << "n " << n << " trial " << t;
        ASSERT_EQ(items[i].id, expect[i].id) << "n " << n << " trial " << t;
      }
    }
  }
}

TEST(OccupancyIndex, EmptyIndexAndEmptyRanges) {
  OccupancyIndex occ;
  EXPECT_EQ(occ.size(), 0);
  EXPECT_EQ(occ.max_coverage_in(0.0, 10.0), 0);
  occ.insert({1.0, 1.0});
  EXPECT_EQ(occ.size(), 0) << "empty intervals are ignored";
  occ.insert({1.0, 3.0});
  EXPECT_EQ(occ.size(), 1);
  EXPECT_EQ(occ.max_coverage_in(2.0, 2.0), 0);
}

TEST(OccupancyIndex, HalfOpenBoundaries) {
  OccupancyIndex occ;
  occ.insert({0.0, 2.0});
  occ.insert({2.0, 4.0});
  EXPECT_EQ(occ.max_coverage_in(0.0, 4.0), 1) << "touching jobs never stack";
  EXPECT_EQ(occ.max_coverage_in(4.0, 9.0), 0) << "query starting at last end";
  occ.insert({1.0, 3.0});
  EXPECT_EQ(occ.max_coverage_in(0.0, 4.0), 2);
  EXPECT_EQ(occ.max_coverage_in(3.0, 4.0), 1);
  EXPECT_EQ(occ.max_coverage_in(1.5, 1.6), 2) << "query inside one step";
}

/// Property: after every insert, range-max queries agree with the naive
/// probe-every-event reference on random ranges.
TEST(OccupancyIndex, MatchesNaiveRangeMaxOnRandomWorkloads) {
  Rng rng(424242);
  for (int trial = 0; trial < 25; ++trial) {
    OccupancyIndex occ;
    std::vector<Interval> inserted;
    const int ops = static_cast<int>(rng.uniform_int(1, 60));
    for (int op = 0; op < ops; ++op) {
      const double lo = rng.uniform_real(0.0, 10.0);
      const Interval iv{lo, lo + rng.uniform_real(0.1, 3.0)};
      occ.insert(iv);
      inserted.push_back(iv);
      for (int q = 0; q < 5; ++q) {
        const double qlo = rng.uniform_real(-1.0, 11.0);
        const double qhi = qlo + rng.uniform_real(0.0, 4.0);
        EXPECT_EQ(occ.max_coverage_in(qlo, qhi),
                  naive_range_max(inserted, qlo, qhi))
            << "range [" << qlo << ", " << qhi << ") after " << op + 1
            << " inserts";
      }
    }
    EXPECT_EQ(occ.size(), static_cast<int>(inserted.size()));
  }
}

/// One weighted insert for the brute-force step function below.
struct WeightedIv {
  Interval iv;
  int weight;
};

/// Cumulative weight covering point t.
int weighted_coverage_at(const std::vector<WeightedIv>& ivs, double t) {
  int total = 0;
  for (const WeightedIv& w : ivs) {
    if (w.iv.contains(t)) total += w.weight;
  }
  return total;
}

/// Brute-force max cumulative weight over [lo, hi): the step function is
/// constant between consecutive endpoints, so evaluate it at the left end
/// of every elementary piece of the query range.
int weighted_reference(const std::vector<WeightedIv>& ivs, double lo,
                       double hi) {
  if (hi <= lo) return 0;
  std::vector<double> cuts = {lo, hi};
  for (const WeightedIv& w : ivs) {
    for (const double t : {w.iv.lo, w.iv.hi}) {
      if (t > lo && t < hi) cuts.push_back(t);
    }
  }
  std::sort(cuts.begin(), cuts.end());
  cuts.erase(std::unique(cuts.begin(), cuts.end()), cuts.end());
  int best = 0;
  for (std::size_t i = 0; i + 1 < cuts.size(); ++i) {
    best = std::max(best, weighted_coverage_at(ivs, cuts[i]));
  }
  return best;
}

/// Property: with weighted inserts the levels are cumulative widths —
/// max_coverage_in agrees with the brute-force step function after every
/// insert, past the block size (so
/// block splits and the max-tree are exercised), on real and on integer
/// coordinates (touching and duplicate endpoints). The audit walk runs
/// after every insert under -DABT_AUDIT=ON.
TEST(OccupancyIndex, WeightedInsertsMatchBruteForceStepFunction) {
  Rng rng(1357);
  // Real coordinates, or integers (touching and duplicate endpoints).
  auto coord = [&rng](bool lattice, double lo, double hi) {
    return lattice ? static_cast<double>(rng.uniform_int(
                         static_cast<std::int64_t>(lo),
                         static_cast<std::int64_t>(hi)))
                   : rng.uniform_real(lo, hi);
  };
  for (int trial = 0; trial < 12; ++trial) {
    const bool lattice = trial % 2 == 1;
    OccupancyIndex occ;
    std::vector<WeightedIv> inserted;
    const int ops = static_cast<int>(rng.uniform_int(40, 200));
    for (int op = 0; op < ops; ++op) {
      const double lo = coord(lattice, 0.0, 150.0);
      const WeightedIv w{{lo, lo + coord(lattice, 1.0, 6.0)},
                         static_cast<int>(rng.uniform_int(1, 8))};
      occ.insert(w.iv, w.weight);
      occ.audit_invariants();
      inserted.push_back(w);
      for (int q = 0; q < 4; ++q) {
        const double qlo = coord(lattice, -2.0, 156.0);
        const double qhi = qlo + coord(lattice, 0.0, 30.0);
        const int want_max = weighted_reference(inserted, qlo, qhi);
        SCOPED_TRACE("range [" + std::to_string(qlo) + ", " +
                     std::to_string(qhi) + ") after " +
                     std::to_string(op + 1) + " inserts");
        EXPECT_EQ(occ.max_coverage_in(qlo, qhi), want_max);
      }
    }
    EXPECT_EQ(occ.size(), static_cast<int>(inserted.size()));
  }
}

// ---------------------------------------------------------------------------
// Equivalence: the sweep-backed algorithms must reproduce the pre-refactor
// quadratic implementations (kept verbatim in
// tests/oracles/naive_baselines.hpp) placement-for-placement.

bool same_schedule(const BusySchedule& a, const BusySchedule& b) {
  if (a.placements.size() != b.placements.size()) return false;
  for (std::size_t i = 0; i < a.placements.size(); ++i) {
    if (a.placements[i].machine != b.placements[i].machine ||
        a.placements[i].start != b.placements[i].start) {
      return false;
    }
  }
  return true;
}

class SweepEquivalence : public ::testing::TestWithParam<int> {};

TEST_P(SweepEquivalence, FirstFitIdenticalToNaive) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 1000003ULL);
  for (int trial = 0; trial < 8; ++trial) {
    gen::ContinuousParams params;
    params.num_jobs = static_cast<int>(rng.uniform_int(1, 120));
    params.capacity = static_cast<int>(rng.uniform_int(1, 5));
    params.horizon = params.num_jobs / 2.0 + 10;
    const ContinuousInstance inst = gen::random_continuous(rng, params);
    EXPECT_TRUE(
        same_schedule(busy::first_fit(inst), busy::naive::first_fit(inst)));
    std::string why;
    EXPECT_TRUE(check_busy_schedule(inst, busy::first_fit(inst), &why)) << why;
  }
}

TEST_P(SweepEquivalence, GreedyTrackingIdenticalToNaive) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 7919ULL);
  for (int trial = 0; trial < 8; ++trial) {
    gen::ContinuousParams params;
    params.num_jobs = static_cast<int>(rng.uniform_int(1, 120));
    params.capacity = static_cast<int>(rng.uniform_int(1, 5));
    params.horizon = params.num_jobs / 2.0 + 10;
    const ContinuousInstance inst = gen::random_continuous(rng, params);
    EXPECT_TRUE(same_schedule(busy::greedy_tracking(inst),
                              busy::naive::greedy_tracking(inst)));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SweepEquivalence, ::testing::Range(1, 6));

// ---------------------------------------------------------------------------
// MachineFreeIndex: the positional first-fit index.

TEST(MachineFreeIndex, EmptyAndSingle) {
  MachineFreeIndex index;
  EXPECT_EQ(index.first_at_most(100.0), -1);
  EXPECT_EQ(index.push_back(5.0), 0);
  EXPECT_EQ(index.first_at_most(4.9), -1);
  EXPECT_EQ(index.first_at_most(5.0), 0);
}

TEST(MachineFreeIndex, ReturnsSmallestIndexNotSmallestKey) {
  MachineFreeIndex index;
  index.push_back(10.0);
  index.push_back(3.0);
  index.push_back(1.0);
  // Keys 3 and 1 both qualify at x=4; the smaller *index* wins.
  EXPECT_EQ(index.first_at_most(4.0), 1);
  index.set(0, 2.0);
  EXPECT_EQ(index.first_at_most(4.0), 0);
}

TEST(MachineFreeIndex, MatchesLinearScanOnRandomWorkloads) {
  Rng rng(424243);
  MachineFreeIndex index;
  std::vector<double> keys;
  for (int step = 0; step < 400; ++step) {
    if (keys.empty() || rng.flip(0.3)) {
      const double key = rng.uniform_real(0.0, 50.0);
      index.push_back(key);
      keys.push_back(key);
    } else {
      const auto i = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(keys.size()) - 1));
      keys[i] = rng.uniform_real(0.0, 50.0);
      index.set(static_cast<int>(i), keys[i]);
    }
    const double x = rng.uniform_real(-5.0, 55.0);
    int expected = -1;
    for (std::size_t i = 0; i < keys.size(); ++i) {
      if (keys[i] <= x) {
        expected = static_cast<int>(i);
        break;
      }
    }
    ASSERT_EQ(index.first_at_most(x), expected) << "step " << step;
  }
}

// Release-ordered FIRSTFIT (online first fit) collapses the per-machine
// probe to a frontier live-run counter; placements must still match the
// plain probing scan.
BusySchedule reference_first_fit_by_release(const ContinuousInstance& inst) {
  std::vector<JobId> order(static_cast<std::size_t>(inst.size()));
  std::iota(order.begin(), order.end(), JobId{0});
  std::stable_sort(order.begin(), order.end(), [&](JobId a, JobId b) {
    return inst.job(a).release < inst.job(b).release;
  });
  BusySchedule sched;
  sched.placements.assign(static_cast<std::size_t>(inst.size()), {});
  std::vector<OccupancyIndex> machines;
  for (JobId j : order) {
    const ContinuousJob& job = inst.job(j);
    const Interval run{job.release, job.release + job.length};
    int chosen = -1;
    for (std::size_t m = 0; m < machines.size(); ++m) {
      if (machines[m].max_coverage_in(run.lo, run.hi) + 1 <=
          inst.capacity()) {
        chosen = static_cast<int>(m);
        break;
      }
    }
    if (chosen < 0) {
      machines.emplace_back();
      chosen = static_cast<int>(machines.size()) - 1;
    }
    machines[static_cast<std::size_t>(chosen)].insert(run);
    sched.placements[static_cast<std::size_t>(j)] = {chosen, job.release};
  }
  return sched;
}

TEST_P(SweepEquivalence, FirstFitByReleaseIdenticalToProbingScan) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 104729ULL);
  for (int trial = 0; trial < 8; ++trial) {
    gen::ContinuousParams params;
    params.num_jobs = static_cast<int>(rng.uniform_int(1, 120));
    params.capacity = static_cast<int>(rng.uniform_int(1, 5));
    params.horizon = params.num_jobs / 2.0 + 10;
    const ContinuousInstance inst = gen::random_continuous(rng, params);
    const BusySchedule sched =
        busy::schedule_online(inst, busy::OnlinePolicy::kFirstFit);
    EXPECT_TRUE(same_schedule(sched, reference_first_fit_by_release(inst)));
    std::string why;
    EXPECT_TRUE(check_busy_schedule(inst, sched, &why)) << why;
  }
}

}  // namespace
}  // namespace abt::core
