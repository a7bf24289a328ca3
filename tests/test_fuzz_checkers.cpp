// Failure injection: take schedules produced by the real algorithms,
// corrupt them in targeted ways, and require the independent checkers to
// reject every corruption. This guards the guarantee that "checker accepts"
// is a meaningful oracle in all other tests.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "active/minimal_feasible.hpp"
#include "busy/greedy_tracking.hpp"
#include "busy/preemptive.hpp"
#include "busy/weighted.hpp"
#include "core/active_schedule.hpp"
#include "core/busy_schedule.hpp"
#include "core/solver.hpp"
#include "engine/builtin_solvers.hpp"
#include "core/rng.hpp"
#include "gen/extended_instances.hpp"
#include "gen/random_instances.hpp"
#include "busy_oracle.hpp"
#include "preemptive_layout.hpp"
#include "preemptive_oracle.hpp"
#include "weighted_oracle.hpp"

namespace abt {
namespace {

class ActiveFuzz : public ::testing::TestWithParam<int> {};

/// Corrupts the minimal-feasible schedule of `inst` in targeted ways and
/// requires core::check_active_schedule to reject every corruption, in
/// either job model.
template <typename Instance>
void expect_corruptions_rejected(const Instance& inst) {
  const auto base = active::solve_minimal_feasible(inst);
  ASSERT_TRUE(base.has_value());
  ASSERT_TRUE(core::check_active_schedule(inst, *base));

  // Corruption 1: deactivate an active slot that is in use.
  {
    core::ActiveSchedule bad = *base;
    ASSERT_FALSE(bad.active_slots.empty());
    bad.active_slots.erase(bad.active_slots.begin());
    EXPECT_FALSE(core::check_active_schedule(inst, bad));
  }
  // Corruption 2: drop one unit of some job.
  {
    core::ActiveSchedule bad = *base;
    for (auto& slots : bad.job_slots) {
      if (!slots.empty()) {
        slots.pop_back();
        break;
      }
    }
    EXPECT_FALSE(core::check_active_schedule(inst, bad));
  }
  // Corruption 3: push a unit past the job's last window.
  {
    core::ActiveSchedule bad = *base;
    for (core::JobId j = 0; j < inst.size(); ++j) {
      auto& slots = bad.job_slots[static_cast<std::size_t>(j)];
      if (slots.empty()) continue;
      inst.job(j).for_each_window(
          [&](core::SlotTime, core::SlotTime d) { slots.back() = d + 1; });
      std::sort(slots.begin(), slots.end());
      break;
    }
    EXPECT_FALSE(core::check_active_schedule(inst, bad));
  }
  // Corruption 4: duplicate a unit in the same slot.
  {
    core::ActiveSchedule bad = *base;
    for (auto& slots : bad.job_slots) {
      if (!slots.empty()) {
        slots.push_back(slots.back());
        break;
      }
    }
    EXPECT_FALSE(core::check_active_schedule(inst, bad));
  }
  // Corruption 5: the unit count holds, but one unit is replaced by a copy
  // of a later unit of the same job and the slots are left unsorted, so
  // the job runs twice in one slot. The copied unit sits in the least
  // loaded slot available, so the capacity check alone rarely catches it.
  {
    core::ActiveSchedule bad = *base;
    std::size_t best_job = bad.job_slots.size();
    std::size_t best_unit = 0;
    int best_load = inst.capacity() + 1;
    for (std::size_t j = 0; j < bad.job_slots.size(); ++j) {
      const auto& slots = bad.job_slots[j];
      for (std::size_t u = 1; u < slots.size(); ++u) {
        const int load = static_cast<int>(std::count_if(
            bad.job_slots.begin(), bad.job_slots.end(), [&](const auto& s) {
              return std::binary_search(s.begin(), s.end(), slots[u]);
            }));
        if (load < best_load) {
          best_load = load;
          best_job = j;
          best_unit = u;
        }
      }
    }
    if (best_job < bad.job_slots.size()) {
      auto& slots = bad.job_slots[best_job];
      slots.front() = slots[best_unit];
      EXPECT_FALSE(core::check_active_schedule(inst, bad));
    }
  }
  // Corruption 6: active slots out of order.
  if (base->active_slots.size() >= 2) {
    core::ActiveSchedule bad = *base;
    std::reverse(bad.active_slots.begin(), bad.active_slots.end());
    EXPECT_FALSE(core::check_active_schedule(inst, bad));
  }
  // Corruption 7: an active slot listed twice, which inflates the cost.
  {
    core::ActiveSchedule bad = *base;
    bad.active_slots.push_back(bad.active_slots.back());
    EXPECT_FALSE(core::check_active_schedule(inst, bad));
  }
}

TEST_P(ActiveFuzz, CorruptedActiveSchedulesAreRejected) {
  core::Rng rng(static_cast<std::uint64_t>(GetParam()) * 7919ULL);
  gen::SlottedParams params;
  params.num_jobs = 8;
  params.horizon = 12;
  params.capacity = 2;
  expect_corruptions_rejected(gen::random_feasible_slotted(rng, params));
  gen::MultiWindowParams mw_params;
  mw_params.num_jobs = 8;
  mw_params.capacity = 2;
  expect_corruptions_rejected(gen::random_multi_window(rng, mw_params));
}

INSTANTIATE_TEST_SUITE_P(Seeds, ActiveFuzz, ::testing::Range(1, 9));

class BusyFuzz : public ::testing::TestWithParam<int> {};

TEST_P(BusyFuzz, CorruptedBusySchedulesAreRejected) {
  core::Rng rng(static_cast<std::uint64_t>(GetParam()) * 104729ULL);
  gen::ContinuousParams params;
  params.num_jobs = 12;
  params.capacity = 2;
  params.horizon = 10;
  const auto inst = gen::random_continuous(rng, params);
  const auto base = busy::greedy_tracking(inst);
  ASSERT_TRUE(core::check_busy_schedule(inst, base));

  // Corruption 1: start a job before its release.
  {
    core::BusySchedule bad = base;
    bad.placements[0].start = inst.job(0).release - 0.5;
    EXPECT_FALSE(core::check_busy_schedule(inst, bad));
  }
  // Corruption 2: start a job too late for its deadline.
  {
    core::BusySchedule bad = base;
    bad.placements[0].start = inst.job(0).latest_start() + 0.5;
    EXPECT_FALSE(core::check_busy_schedule(inst, bad));
  }
  // Corruption 3: unassign a job.
  {
    core::BusySchedule bad = base;
    bad.placements[0].machine = -1;
    EXPECT_FALSE(core::check_busy_schedule(inst, bad));
  }
  // Corruption 4: dump every job on machine 0 (overload with capacity 2 is
  // near-certain for 12 random jobs; skip the rare trial where it stays
  // feasible).
  {
    core::BusySchedule bad = base;
    for (auto& p : bad.placements) p.machine = 0;
    std::string why;
    const bool ok = core::check_busy_schedule(inst, bad, &why);
    if (ok) {
      GTEST_SKIP() << "random instance happened to fit one machine";
    }
    EXPECT_NE(why.find("machine 0"), std::string::npos) << why;
  }
}

/// The machine-major checker against the frozen per-machine checker: the
/// same verdict and the same reason on every applicable registered busy
/// solver's schedule and on corruptions of them, at eps 0 (runs touching
/// at exactly hi == lo), the default 1e-6 and 0.25, the quarter grid's
/// step, where a shrunk run's hi lands on the lo of a run that starts a
/// grid step before the first one ends.
TEST_P(BusyFuzz, SweepCheckerMatchesFrozenChecker) {
  const core::SolverRegistry& registry = engine::shared_registry();
  core::Rng rng(static_cast<std::uint64_t>(GetParam()) * 2750159ULL);
  int accepted = 0;
  int rejected = 0;
  const auto snap = [](double t) { return std::round(t * 4.0) / 4.0; };
  for (int trial = 0; trial < 12; ++trial) {
    gen::ContinuousParams params;
    params.num_jobs = static_cast<int>(rng.uniform_int(1, 40));
    params.capacity = static_cast<int>(rng.uniform_int(1, 4));
    params.horizon = static_cast<double>(rng.uniform_int(4, 30));
    params.max_slack = rng.uniform_int(0, 1) == 0 ? 0.0 : 2.0;
    const core::ContinuousInstance inst = gen::random_continuous(rng, params);
    const auto n = static_cast<std::size_t>(inst.size());
    const auto expect_same = [&](const core::BusySchedule& sched,
                                 const std::string& what) {
      for (const double eps : {0.0, 1e-6, 0.25}) {
        std::string fast_why;
        std::string slow_why;
        const bool fast =
            core::check_busy_schedule(inst, sched, &fast_why, eps);
        const bool slow =
            core::oracle::check_busy_schedule(inst, sched, &slow_why, eps);
        EXPECT_EQ(fast, slow) << what << " trial " << trial << " eps " << eps;
        EXPECT_EQ(fast_why, slow_why)
            << what << " trial " << trial << " eps " << eps;
        ++(fast ? accepted : rejected);
      }
    };

    // Random placements on a few machines, starts snapped to the quarter
    // grid so runs often abut exactly. An interval job's latest start can
    // round to just below its release.
    core::BusySchedule random;
    const auto machines = rng.uniform_int(1, 4);
    for (std::size_t j = 0; j < n; ++j) {
      const core::ContinuousJob& job = inst.job(static_cast<int>(j));
      const double latest = std::max(job.release, job.latest_start());
      const double start = std::clamp(
          snap(rng.uniform_real(job.release, latest)), job.release, latest);
      random.placements.push_back(
          {static_cast<int>(rng.uniform_int(0, machines - 1)), start});
    }
    expect_same(random, "random");

    const core::ProblemInstance problem = core::make_instance(inst);
    for (const core::Solver* solver : registry.selection(problem)) {
      const core::Solution sol = registry.run(*solver, problem);
      if (!sol.busy.has_value()) continue;
      const core::BusySchedule& valid = *sol.busy;
      expect_same(valid, solver->name);
      const auto victim =
          static_cast<std::size_t>(rng.uniform_int(0, inst.size() - 1));
      {
        core::BusySchedule bad = valid;
        bad.placements[victim].machine = -1;
        expect_same(bad, solver->name + " unassigned");
      }
      {
        core::BusySchedule bad = valid;
        bad.placements[victim].start =
            inst.job(static_cast<int>(victim)).release - 0.5;
        expect_same(bad, solver->name + " early");
        bad.placements[victim].start =
            inst.job(static_cast<int>(victim)).latest_start() + 0.5;
        expect_same(bad, solver->name + " late");
      }
      {
        core::BusySchedule bad = valid;
        bad.placements.pop_back();
        expect_same(bad, solver->name + " short placement list");
      }
      {
        core::BusySchedule bad = valid;
        for (auto& p : bad.placements) p.machine = 0;
        expect_same(bad, solver->name + " one machine");
      }
      {
        core::BusySchedule bad = valid;
        for (std::size_t j = 0; j < n; ++j) {
          bad.placements[j].machine = static_cast<int>(j);
        }
        expect_same(bad, solver->name + " n machines");
      }
      {
        // Moved onto the machine after the victim's: later machines are
        // reported only when every earlier one fits.
        core::BusySchedule bad = valid;
        auto& p = bad.placements[victim];
        p.machine = (p.machine + 1) % (valid.machine_count() + 1);
        expect_same(bad, solver->name + " moved");
      }
    }
  }

  // g + 1 overlapping runs, and chains touching at exactly hi == lo: one
  // machine holds g + 1 copies of [0, 1) next to a chain [k, k + 1).
  for (int g = 1; g <= 4; ++g) {
    std::vector<core::ContinuousJob> jobs;
    core::BusySchedule sched;
    for (int k = 0; k <= g; ++k) {
      jobs.push_back({0.0, 1.0, 1.0});
      sched.placements.push_back({1, 0.0});
    }
    for (int k = 0; k < 6; ++k) {
      jobs.push_back({static_cast<double>(k), static_cast<double>(k + 1), 1.0});
      sched.placements.push_back({0, static_cast<double>(k)});
    }
    // A zero-length job, and one a quarter long that the 0.25 shrink
    // empties, both on the chain.
    jobs.push_back({2.0, 2.0, 0.0});
    sched.placements.push_back({0, 2.0});
    jobs.push_back({3.0, 3.25, 0.25});
    sched.placements.push_back({0, 3.0});
    const core::ContinuousInstance inst(jobs, g);
    for (const double eps : {0.0, 1e-6, 0.25}) {
      std::string fast_why;
      std::string slow_why;
      const bool fast = core::check_busy_schedule(inst, sched, &fast_why, eps);
      const bool slow =
          core::oracle::check_busy_schedule(inst, sched, &slow_why, eps);
      EXPECT_FALSE(fast) << "g " << g << " eps " << eps;
      EXPECT_EQ(fast, slow) << "g " << g << " eps " << eps;
      EXPECT_EQ(fast_why, slow_why) << "g " << g << " eps " << eps;
      // The copies spread over machines of their own: the chain machine
      // decides, where the quarter job overlaps the chain unless the
      // shrink empties it.
      core::BusySchedule chain = sched;
      for (int k = 0; k <= g; ++k) {
        chain.placements[static_cast<std::size_t>(k)].machine = 2 + k;
      }
      fast_why.clear();
      slow_why.clear();
      EXPECT_EQ(core::check_busy_schedule(inst, chain, &fast_why, eps),
                core::oracle::check_busy_schedule(inst, chain, &slow_why, eps))
          << "g " << g << " eps " << eps;
      EXPECT_EQ(fast_why, slow_why) << "g " << g << " eps " << eps;
    }
  }
  EXPECT_GT(accepted, 0) << "the fuzz must reach valid schedules";
  EXPECT_GT(rejected, 0) << "the fuzz must reach rejections";
}

INSTANTIATE_TEST_SUITE_P(Seeds, BusyFuzz, ::testing::Range(1, 9));

class WeightedFuzz : public ::testing::TestWithParam<int> {};

/// The sweep checker against the frozen quadratic rescan: the same verdict
/// and the same reason on valid schedules, on random placements (mostly
/// over capacity) and on targeted corruptions of a valid one, at eps 0
/// (runs touching at exactly hi == lo), the default 1e-9 and 0.25.
TEST_P(WeightedFuzz, SweepCheckerMatchesQuadraticRescan) {
  core::Rng rng(static_cast<std::uint64_t>(GetParam()) * 7919ULL);
  int rejected = 0;
  for (int trial = 0; trial < 60; ++trial) {
    gen::WeightedParams params;
    params.num_jobs = static_cast<int>(rng.uniform_int(1, 40));
    params.capacity = static_cast<int>(rng.uniform_int(1, 6));
    params.horizon = static_cast<double>(rng.uniform_int(4, 30));
    params.max_slack = rng.uniform_int(0, 1) == 0 ? 0.0 : 1.5;
    const busy::WeightedInstance inst = gen::random_weighted(rng, params);
    const auto expect_same = [&](const core::BusySchedule& sched,
                                 const char* what) {
      for (const double eps : {0.0, 1e-9, 0.25}) {
        std::string fast_why;
        std::string slow_why;
        const bool fast =
            busy::check_weighted_schedule(inst, sched, &fast_why, eps);
        const bool slow = busy::oracle::check_weighted_schedule(
            inst, sched, &slow_why, eps);
        EXPECT_EQ(fast, slow) << what << " trial " << trial << " eps " << eps;
        EXPECT_EQ(fast_why, slow_why)
            << what << " trial " << trial << " eps " << eps;
        if (!fast) ++rejected;
      }
    };

    // Random placements: a random machine among a few, a random start in
    // the window, snapped to a coarse grid so runs often abut exactly. An
    // interval job's latest start can round to just below its release.
    const auto machines = rng.uniform_int(1, 4);
    core::BusySchedule random;
    for (int j = 0; j < inst.size(); ++j) {
      const core::ContinuousJob& job = inst.job(j).job;
      const double latest = std::max(job.release, job.latest_start());
      double start = rng.uniform_real(job.release, latest);
      if (rng.uniform_int(0, 1) == 0) {
        start = std::clamp(std::round(start * 2.0) / 2.0, job.release, latest);
      }
      random.placements.push_back(
          {static_cast<int>(rng.uniform_int(0, machines - 1)), start});
    }
    expect_same(random, "random");

    if (!inst.all_interval_jobs(1e-6)) continue;
    const core::BusySchedule valid = busy::weighted_first_fit(inst);
    expect_same(valid, "first-fit");
    // Move one job onto another machine; unassign one; start one outside
    // its window; pile everything onto machine 0.
    {
      core::BusySchedule bad = valid;
      auto& p = bad.placements[static_cast<std::size_t>(
          rng.uniform_int(0, inst.size() - 1))];
      p.machine = (p.machine + 1) % (valid.machine_count() + 1);
      expect_same(bad, "moved");
    }
    {
      core::BusySchedule bad = valid;
      bad.placements[static_cast<std::size_t>(inst.size() - 1)].machine = -1;
      expect_same(bad, "unassigned");
    }
    {
      core::BusySchedule bad = valid;
      bad.placements[0].start = inst.job(0).job.latest_start() + 0.5;
      expect_same(bad, "late");
    }
    {
      core::BusySchedule bad = valid;
      for (auto& p : bad.placements) p.machine = 0;
      expect_same(bad, "one machine");
    }
  }
  EXPECT_GT(rejected, 0) << "the fuzz must reach rejections";

  // Full-width runs chained on one machine, touching at exactly hi == lo
  // under eps 0: valid at every eps, so a run that ends where the next one
  // starts must close before that one opens.
  for (int g = 1; g <= 4; ++g) {
    std::vector<core::WeightedJob> jobs;
    core::BusySchedule chain;
    for (int k = 0; k < 6; ++k) {
      const auto t = static_cast<double>(k);
      jobs.push_back({{t, t + 1.0, 1.0}, g});
      chain.placements.push_back({0, t});
    }
    const core::WeightedInstance inst(std::move(jobs), g);
    for (const double eps : {0.0, 1e-9, 0.25}) {
      std::string fast_why;
      std::string slow_why;
      EXPECT_TRUE(busy::check_weighted_schedule(inst, chain, &fast_why, eps))
          << "g " << g << " eps " << eps << ": " << fast_why;
      EXPECT_TRUE(busy::oracle::check_weighted_schedule(inst, chain,
                                                        &slow_why, eps))
          << "g " << g << " eps " << eps << ": " << slow_why;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, WeightedFuzz, ::testing::Range(1, 9));

class PreemptiveFuzz : public ::testing::TestWithParam<int> {};

/// The flat sweep checker against the frozen per-machine checker: the same
/// verdict and the same reason on the bounded algorithm's schedules, on
/// random piece sets (snapped to a coarse grid so runs often abut) and on
/// targeted corruptions of a valid schedule — at the default eps and at
/// eps = 0.25, the grid step, where a shrunk run's hi lands exactly on the
/// lo of a run that starts a grid step before the first one ends.
TEST_P(PreemptiveFuzz, SweepCheckerMatchesFrozenChecker) {
  // Schedules are built and corrupted in the nested layout, one piece
  // list per job, and checked in the flat one.
  using Schedule = testutil::NestedPieces;
  core::Rng rng(static_cast<std::uint64_t>(GetParam()) * 15485863ULL);
  int accepted = 0;
  int rejected = 0;
  for (int trial = 0; trial < 40; ++trial) {
    gen::ContinuousParams params;
    params.num_jobs = static_cast<int>(rng.uniform_int(1, 60));
    params.capacity = static_cast<int>(rng.uniform_int(1, 4));
    params.horizon = static_cast<double>(rng.uniform_int(4, 30));
    params.max_slack = rng.uniform_int(0, 1) == 0 ? 0.0 : 2.0;
    const core::ContinuousInstance inst = gen::random_continuous(rng, params);
    const auto expect_same = [&](const Schedule& nested, const char* what) {
      const core::PreemptiveBusySchedule sched = testutil::to_flat(nested);
      for (const double eps : {1e-6, 0.25}) {
        std::string fast_why;
        std::string slow_why;
        const bool fast =
            core::check_preemptive_schedule(inst, sched, &fast_why, eps);
        const bool slow =
            busy::oracle::check_preemptive_schedule(inst, sched, &slow_why,
                                                    eps);
        EXPECT_EQ(fast, slow) << what << " trial " << trial << " eps " << eps;
        EXPECT_EQ(fast_why, slow_why)
            << what << " trial " << trial << " eps " << eps;
        ++(fast ? accepted : rejected);
      }
    };
    const auto snap = [](double t) { return std::round(t * 4.0) / 4.0; };

    // Random piece sets: each job cut into up to three pieces inside its
    // window, on a random machine among a few, listed in random order. An
    // interval job's latest start can round to just below its release.
    Schedule random;
    random.resize(static_cast<std::size_t>(inst.size()));
    const auto machines = rng.uniform_int(1, 3);
    for (int j = 0; j < inst.size(); ++j) {
      const core::ContinuousJob& job = inst.job(j);
      const double latest = std::max(job.release, job.latest_start());
      const double start = std::clamp(
          snap(rng.uniform_real(job.release, latest)), job.release, latest);
      const double end = start + job.length;
      const double cut = snap(rng.uniform_real(start, end));
      auto& pieces = random[static_cast<std::size_t>(j)];
      for (const core::Interval run : {core::Interval{start, cut},
                                       core::Interval{cut, end}}) {
        if (run.empty()) continue;
        pieces.push_back(
            {static_cast<int>(rng.uniform_int(0, machines - 1)), run});
      }
      if (rng.uniform_int(0, 1) == 0) {
        std::reverse(pieces.begin(), pieces.end());
      }
    }
    expect_same(random, "random");

    const Schedule valid =
        testutil::to_nested(busy::solve_preemptive_bounded(inst).schedule);
    expect_same(valid, "bounded");
    // The job whose first piece the corruptions below touch.
    const auto victim = static_cast<std::size_t>(
        rng.uniform_int(0, inst.size() - 1));
    const core::ContinuousJob& job = inst.job(static_cast<int>(victim));
    if (valid[victim].empty()) continue;
    const core::Interval run = valid[victim][0].run;
    {
      Schedule bad = valid;
      bad[victim][0].run = {job.release - 0.5,
                            job.release - 0.5 + run.length()};
      expect_same(bad, "outside window");
    }
    {
      // Same total, but the second half slides back over the first; the
      // later piece is listed first.
      Schedule bad = valid;
      const double mid = run.lo + run.length() / 2;
      const double back = run.length() / 4;
      auto& pieces = bad[victim];
      pieces[0].run = {mid - back, run.hi - back};
      pieces.insert(pieces.begin() + 1, {pieces[0].machine, {run.lo, mid}});
      expect_same(bad, "overlapping");
    }
    {
      // Onto machine 0, which the deal fills first.
      Schedule bad = valid;
      for (auto& pieces : bad) {
        for (auto& piece : pieces) {
          if (piece.machine != 0 && rng.uniform_int(0, 2) == 0) {
            piece.machine = 0;
          }
        }
      }
      expect_same(bad, "onto machine 0");
    }
    {
      Schedule bad = valid;
      bad[victim][0].run.hi -= run.length() / 4;
      expect_same(bad, "short");
    }
    {
      // A sliver no longer than eps split off the end: the total holds,
      // the shrunk sliver is empty. A zero-length piece is rejected.
      Schedule bad = valid;
      auto& pieces = bad[victim];
      pieces[0].run.hi -= 5e-7;
      pieces.insert(pieces.begin() + 1,
                    {pieces[0].machine, {run.hi - 5e-7, run.hi}});
      expect_same(bad, "sliver");
      pieces.push_back({pieces[0].machine, {run.hi, run.hi}});
      expect_same(bad, "zero-length");
    }
    {
      // Every piece on one machine: its peak, counted with the touching
      // ends closed first, decides.
      Schedule all = valid;
      for (auto& pieces : all) {
        for (auto& piece : pieces) piece.machine = 0;
      }
      expect_same(all, "one machine");
    }
  }
  EXPECT_GT(accepted, 0) << "the fuzz must reach valid schedules";
  EXPECT_GT(rejected, 0) << "the fuzz must reach rejections";
}

INSTANTIATE_TEST_SUITE_P(Seeds, PreemptiveFuzz, ::testing::Range(1, 9));

}  // namespace
}  // namespace abt
