// PR 6 flat data-layout equivalence suite: the rewritten sweep structures
// (core::FlatOccupancyIndex, core::FlatIntervalSet) must be bit-exact
// against their frozen std::map predecessors under randomized insert/query
// fuzzing, the drivers built on them must reproduce the frozen solvers
// placement for placement over the replay corpus in data/, and the simplex
// cancellation hook must stop an LP solve mid-iteration.
#include <gtest/gtest.h>

#include <fstream>
#include <string>
#include <vector>

#include "active/lp_rounding.hpp"
#include "busy/first_fit.hpp"
#include "preemptive_layout.hpp"
#include "busy/online.hpp"
#include "busy/preemptive.hpp"
#include "core/io.hpp"
#include "core/rng.hpp"
#include "core/run_context.hpp"
#include "core/sweep.hpp"
#include "gen/random_instances.hpp"
#include "lp/simplex.hpp"

namespace abt {
namespace {

using core::Interval;
using core::JobId;
using core::RealTime;

// ---------------------------------------------------------------------------
// FlatOccupancyIndex vs the frozen MapOccupancyIndex.

/// Random query endpoints: mostly near the occupied region, sometimes far
/// outside it, sometimes exactly on a previously used coordinate.
double random_point(core::Rng& rng, const std::vector<double>& used) {
  const auto pick = rng.uniform_int(0, 9);
  if (pick < 3 && !used.empty()) {
    return used[static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(used.size()) - 1))];
  }
  if (pick < 5) {
    // Grid coordinates force exact-equality splits on both structures.
    return 0.25 * static_cast<double>(rng.uniform_int(-8, 168));
  }
  return rng.uniform_real(-2.0, 42.0);
}

TEST(FlatOccupancyIndex, FuzzMatchesFrozenMapBitExact) {
  core::Rng rng(20260806);
  // One flat index reused across trials through clear() — this is the
  // machine-pool recycling path, and it deliberately leaves stale leaves
  // in the max-tree that the next trial must never observe.
  core::FlatOccupancyIndex flat;
  for (int trial = 0; trial < 120; ++trial) {
    flat.clear();
    busy::naive::MapOccupancyIndex map;
    std::vector<double> used;
    // Every eighth trial goes deep enough (several hundred breakpoints)
    // to force repeated block splits, a multi-block directory, and tree
    // range-max queries spanning whole interior blocks.
    const int inserts = (trial % 8 == 0)
                            ? static_cast<int>(rng.uniform_int(150, 400))
                            : static_cast<int>(rng.uniform_int(1, 60));
    for (int k = 0; k < inserts; ++k) {
      double lo = random_point(rng, used);
      double hi = random_point(rng, used);
      if (hi < lo) std::swap(lo, hi);
      if (hi == lo) hi = lo + rng.uniform_real(0.01, 3.0);
      used.push_back(lo);
      used.push_back(hi);
      flat.insert({lo, hi});
      map.insert({lo, hi});
      ASSERT_EQ(flat.size(), map.size());
      ASSERT_EQ(flat.steps(), map.steps()) << "trial " << trial << " insert "
                                           << k;

      for (int q = 0; q < 8; ++q) {
        double qlo = random_point(rng, used);
        double qhi = random_point(rng, used);
        if (rng.uniform_int(0, 7) != 0 && qhi < qlo) std::swap(qlo, qhi);
        ASSERT_EQ(flat.max_coverage_in(qlo, qhi),
                  map.max_coverage_in(qlo, qhi))
            << "trial " << trial << " query [" << qlo << ", " << qhi << ")";
      }
    }
  }
}

TEST(FlatOccupancyIndex, EmptyAndDegenerateQueries) {
  core::FlatOccupancyIndex flat;
  EXPECT_EQ(flat.max_coverage_in(0.0, 10.0), 0);
  flat.insert({1.0, 2.0});
  EXPECT_EQ(flat.max_coverage_in(5.0, 5.0), 0);   // empty range
  EXPECT_EQ(flat.max_coverage_in(2.0, 1.0), 0);   // inverted range
  EXPECT_EQ(flat.max_coverage_in(1.5, 1.5), 0);   // empty inside coverage
  flat.insert({});                                 // empty interval: no-op
  EXPECT_EQ(flat.size(), 1);
}

// ---------------------------------------------------------------------------
// FlatIntervalSet vs the frozen MapOpenSet.

TEST(FlatIntervalSet, FuzzMatchesFrozenMapBitExact) {
  core::Rng rng(20260807);
  core::FlatIntervalSet flat;
  for (int trial = 0; trial < 120; ++trial) {
    flat.clear();
    busy::naive::MapOpenSet map;
    std::vector<double> used;
    const int inserts = static_cast<int>(rng.uniform_int(1, 50));
    for (int k = 0; k < inserts; ++k) {
      double lo = random_point(rng, used);
      double hi = random_point(rng, used);
      if (hi < lo) std::swap(lo, hi);
      if (hi == lo) hi = lo + rng.uniform_real(0.01, 2.0);
      // Occasionally butt-joint against an existing endpoint to exercise
      // the kMergeEps coalescing on both sides.
      if (rng.uniform_int(0, 3) == 0 && !flat.intervals().empty()) {
        const auto& ivs = flat.intervals();
        const Interval& base = ivs[static_cast<std::size_t>(rng.uniform_int(
            0, static_cast<std::int64_t>(ivs.size()) - 1))];
        lo = base.hi;
        hi = lo + rng.uniform_real(0.01, 2.0);
      }
      used.push_back(lo);
      used.push_back(hi);
      flat.insert({lo, hi});
      map.insert({lo, hi});
      ASSERT_EQ(flat.intervals(), map.intervals())
          << "trial " << trial << " insert " << k;

      std::vector<Interval> flat_out;  // reused across queries
      for (int q = 0; q < 6; ++q) {
        double qlo = random_point(rng, used);
        double qhi = random_point(rng, used);
        if (qhi < qlo) std::swap(qlo, qhi);
        const Interval w{qlo, qhi};
        ASSERT_EQ(flat.measure_in(w), map.measure_in(w));
        flat.covered_in(w, flat_out);
        ASSERT_EQ(flat_out, map.covered_in(w));
        flat.free_in(w, flat_out);
        ASSERT_EQ(flat_out, map.free_in(w));
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Replay corpus: drivers on flat structures vs frozen full solvers, over
// every committed continuous instance in data/.

std::vector<core::ProblemInstance> corpus_continuous_instances() {
  const std::vector<std::string> files = {
      "continuous_interval.txt", "fig6_tracking_tight.txt",
      "weighted_interval.txt",   "weighted_flexible.txt",
      "multi_window.txt",        "slotted_small.txt",
      "fig3_minimal_tight.txt",
  };
  std::vector<core::ProblemInstance> out;
  for (const std::string& name : files) {
    std::ifstream in(std::string(ABT_DATA_DIR) + "/" + name);
    if (!in.is_open()) continue;  // not every kind lives in the corpus
    std::string error;
    auto parsed = core::parse_instance(in, &error);
    EXPECT_TRUE(parsed.has_value()) << name << ": " << error;
    if (!parsed.has_value()) continue;
    if (parsed->family == core::Family::kBusy &&
        parsed->kind == core::InstanceKind::kStandard) {
      out.push_back(std::move(*parsed));
    }
  }
  return out;
}

void expect_same_schedule(const core::BusySchedule& a,
                          const core::BusySchedule& b,
                          const std::string& what) {
  ASSERT_EQ(a.placements.size(), b.placements.size()) << what;
  for (std::size_t i = 0; i < a.placements.size(); ++i) {
    EXPECT_EQ(a.placements[i].machine, b.placements[i].machine)
        << what << " job " << i;
    EXPECT_EQ(a.placements[i].start, b.placements[i].start)
        << what << " job " << i;
  }
}

TEST(ReplayCorpus, FlatDriversMatchFrozenSolvers) {
  const auto instances = corpus_continuous_instances();
  ASSERT_FALSE(instances.empty())
      << "no continuous standard instances under " << ABT_DATA_DIR;
  for (const auto& pi : instances) {
    const core::ContinuousInstance& inst = pi.continuous;
    if (inst.all_interval_jobs(1e-6)) {
      expect_same_schedule(busy::first_fit(inst), busy::naive::first_fit(inst),
                           "first_fit");
      for (const auto policy :
           {busy::OnlinePolicy::kFirstFit, busy::OnlinePolicy::kBestFit,
            busy::OnlinePolicy::kNextFit}) {
        expect_same_schedule(busy::schedule_online(inst, policy),
                             busy::naive::schedule_online(inst, policy),
                             "online");
      }
    }
    if (inst.structurally_valid()) {
      const auto fast = busy::solve_preemptive_bounded(inst);
      const auto slow = busy::naive::solve_preemptive_bounded(inst);
      EXPECT_EQ(fast.busy_time, slow.busy_time);
      ASSERT_EQ(fast.schedule.pieces.size(), slow.schedule.pieces.size());
      for (std::size_t j = 0; j < fast.schedule.pieces.size(); ++j) {
        ASSERT_EQ(fast.schedule.pieces[j].size(),
                  slow.schedule.pieces[j].size())
            << "job " << j;
        for (std::size_t k = 0; k < fast.schedule.pieces[j].size(); ++k) {
          EXPECT_EQ(fast.schedule.pieces[j][k].machine,
                    slow.schedule.pieces[j][k].machine);
          EXPECT_EQ(fast.schedule.pieces[j][k].run,
                    slow.schedule.pieces[j][k].run);
        }
      }
    }
  }
}

TEST(ReplayCorpus, RandomizedDriversMatchFrozenSolvers) {
  core::Rng rng(6061);
  for (int trial = 0; trial < 20; ++trial) {
    gen::ContinuousParams params;
    params.num_jobs = static_cast<int>(rng.uniform_int(5, 120));
    params.capacity = static_cast<int>(rng.uniform_int(1, 4));
    const auto inst = gen::random_continuous(rng, params);
    expect_same_schedule(busy::first_fit(inst), busy::naive::first_fit(inst),
                         "first_fit");
    for (const auto policy :
         {busy::OnlinePolicy::kFirstFit, busy::OnlinePolicy::kBestFit,
          busy::OnlinePolicy::kNextFit}) {
      expect_same_schedule(busy::schedule_online(inst, policy),
                           busy::naive::schedule_online(inst, policy),
                           "online");
    }
  }
}

// ---------------------------------------------------------------------------
// LP cancellation: the simplex poll and its RunContext plumbing.

/// An LP whose phase 1 needs one pivot per row — enough iterations that the
/// every-64 poll is guaranteed to fire.
lp::LinearProblem long_phase1_lp(int n) {
  lp::LinearProblem problem;
  for (int i = 0; i < n; ++i) {
    const int v = problem.add_variable(1.0);
    problem.add_row({{v, 1.0}}, lp::Sense::kEqual, 1.0);
  }
  return problem;
}

TEST(LpCancellation, SimplexStopsWhenShouldStopTrips) {
  const lp::LinearProblem problem = long_phase1_lp(128);

  lp::SimplexSolver::Options options;
  options.should_stop = [] { return true; };
  const lp::Solution cancelled = lp::SimplexSolver(options).solve(problem);
  EXPECT_EQ(cancelled.status, lp::SolveStatus::kCancelled);

  const lp::Solution normal = lp::SimplexSolver().solve(problem);
  ASSERT_EQ(normal.status, lp::SolveStatus::kOptimal);
  EXPECT_NEAR(normal.objective, 128.0, 1e-6);
}

TEST(LpCancellation, LpRoundingSurfacesCancelledContext) {
  // 80 unit jobs with tight unit windows: feasible, and LP1's phase 1 must
  // drive one artificial per demand row out of the basis, so the solve
  // runs long enough to hit the cancellation poll.
  std::vector<core::SlottedJob> jobs;
  for (int j = 0; j < 80; ++j) {
    jobs.push_back({/*release=*/j, /*deadline=*/j + 1, /*length=*/1});
  }
  const core::SlottedInstance inst(jobs, /*capacity=*/1);

  core::CancelSource source;
  source.cancel();
  core::RunContext ctx;
  ctx.set_cancel_token(source.token());
  const auto result = active::solve_lp_rounding(inst, &ctx);
  ASSERT_TRUE(result.has_value()) << "cancelled is an engaged result";
  EXPECT_TRUE(result->cancelled);

  core::RunContext unlimited;
  const auto full = active::solve_lp_rounding(inst, &unlimited);
  ASSERT_TRUE(full.has_value());
  EXPECT_FALSE(full->cancelled);
  EXPECT_EQ(full->schedule.cost(), 80);
}

}  // namespace
}  // namespace abt
