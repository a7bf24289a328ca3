// Sanity checks for the paper-gadget generators: sizes, structure and the
// claimed optimal costs (verified with exact solvers where tractable).
#include "gen/gadgets.hpp"

#include <gtest/gtest.h>

#include "active/feasibility.hpp"
#include "busy/demand_profile.hpp"
#include "busy/weighted.hpp"
#include "core/busy_schedule.hpp"

namespace abt::gen {
namespace {

TEST(Gadgets, Fig1HasSevenJobsCapacityThree) {
  const auto inst = fig1_example();
  EXPECT_EQ(inst.size(), 7);
  EXPECT_EQ(inst.capacity(), 3);
  EXPECT_TRUE(inst.all_interval_jobs());
  const core::BusySchedule exact =
      busy::solve_exact_busy(busy::WeightedInstance::with_unit_widths(inst))
          .schedule;
  EXPECT_NEAR(core::busy_cost(inst, exact), 6.0, 1e-9);
  EXPECT_EQ(exact.machine_count(), 2);
}

TEST(Gadgets, Fig3JobCountAndFeasibility) {
  for (int g = 3; g <= 6; ++g) {
    const auto inst = fig3_instance(g);
    EXPECT_EQ(inst.size(), 2 + 3 * (g - 2));
    EXPECT_EQ(inst.capacity(), g);
    std::string why;
    EXPECT_TRUE(inst.structurally_valid(&why)) << why;
    EXPECT_TRUE(abt::active::is_feasible(inst));
    EXPECT_TRUE(
        abt::active::is_feasible_with_slots(inst, fig3_optimal_slots(g)));
    EXPECT_TRUE(
        abt::active::is_feasible_with_slots(inst, fig3_adversarial_slots(g)));
    EXPECT_EQ(static_cast<int>(fig3_optimal_slots(g).size()), g);
  }
}

TEST(Gadgets, LpGapInstanceShape) {
  const int g = 3;
  const auto inst = lp_gap_instance(g);
  EXPECT_EQ(inst.size(), g * (g + 1));
  EXPECT_TRUE(abt::active::is_feasible(inst));
}

TEST(Gadgets, Fig6CountsAndOptimalCost) {
  const int g = 3;
  const double eps = 0.1;
  const auto inst = fig6_instance(g, eps);
  EXPECT_EQ(inst.size(), 2 * g * g + 2 * g);
  EXPECT_FALSE(inst.all_interval_jobs()) << "flexible jobs present";
  EXPECT_NEAR(fig6_optimal_cost(g, eps), 2.0 * g + 2 - eps, 1e-12);

  const auto frozen = fig7_adversarial_freeze(g, eps);
  EXPECT_EQ(frozen.size(), inst.size());
  EXPECT_TRUE(frozen.all_interval_jobs());
}

TEST(Gadgets, Fig8DemandIsTwoEverywhere) {
  const auto inst = fig8_instance(0.1, 0.04);
  EXPECT_EQ(inst.size(), 5);
  EXPECT_EQ(inst.capacity(), 2);
  const abt::busy::DemandProfile prof(inst);
  for (const auto& seg : prof.segments()) {
    EXPECT_EQ(seg.raw_demand, 2) << "at [" << seg.interval.lo << ", "
                                 << seg.interval.hi << ")";
  }
  EXPECT_NEAR(prof.cost(), 1.1, 1e-9);
}

TEST(Gadgets, Fig9FreezesShareSpanStructure) {
  const int g = 3;
  const double eps = 0.05;
  const auto flexible = fig9_instance(g, eps);
  const auto adversarial = fig9_adversarial_freeze(g, eps);
  const auto optimal = fig9_optimal_freeze(g, eps);
  EXPECT_EQ(flexible.size(), 1 + g * (g - 1) + (g - 1));
  EXPECT_EQ(adversarial.size(), flexible.size());
  EXPECT_EQ(optimal.size(), flexible.size());
  EXPECT_TRUE(adversarial.all_interval_jobs());
  EXPECT_TRUE(optimal.all_interval_jobs());
  // The adversarial freeze hides flexible jobs inside blocks: its span is
  // strictly smaller.
  EXPECT_LT(core::span_of(adversarial.forced_intervals()),
            core::span_of(optimal.forced_intervals()));
}

TEST(Gadgets, Fig9ProfileRatioApproachesTwo) {
  const int g = 5;
  const double eps = 0.01;
  const double adv =
      abt::busy::DemandProfile(fig9_adversarial_freeze(g, eps)).cost();
  const double opt =
      abt::busy::DemandProfile(fig9_optimal_freeze(g, eps)).cost();
  EXPECT_GT(adv / opt, 1.7) << "Lemma 7's factor approaches 2";
  EXPECT_LE(adv / opt, 2.0 + 1e-9);
}

TEST(Gadgets, Fig10SideDemandExactlyG) {
  const int g = 3;
  const auto frozen = fig10_adversarial_freeze(g, 0.1, 0.04);
  const abt::busy::DemandProfile prof(frozen);
  for (const auto& seg : prof.segments()) {
    const double len = seg.interval.length();
    if (len < 0.2) {  // flank segments
      EXPECT_EQ(seg.raw_demand % g, 0)
          << "flank demand must be exactly g at [" << seg.interval.lo << ")";
    }
  }
}

TEST(Gadgets, Fig7PaperPackingFeasibleAndCostsSixG) {
  for (int g = 2; g <= 5; ++g) {
    const double eps = 0.5 / g;
    const PackedInstance fig7 = fig7_paper_packing(g, eps);
    std::string why;
    ASSERT_TRUE(core::check_busy_schedule(fig7.instance, fig7.schedule, &why))
        << why;
    const double cost = core::busy_cost(fig7.instance, fig7.schedule);
    // 2 bundles of span (2 - eps) per gadget + 2 flexible bundles of
    // span (1 - eps/2) per gadget = (6 - 3 eps) g.
    EXPECT_NEAR(cost, (6.0 - 3 * eps) * g, 1e-9);
    // A valid greedy outcome never violates Theorem 5.
    EXPECT_LE(cost, 3 * fig6_optimal_cost(g, eps) + 1e-9);
  }
}

TEST(Gadgets, Fig12PaperPackingFeasibleAndApproachesFour) {
  for (int g = 3; g <= 6; ++g) {
    const double eps = 0.05 / g;
    const PackedInstance fig12 = fig12_paper_packing(g, eps, eps / 3);
    std::string why;
    ASSERT_TRUE(core::check_busy_schedule(fig12.instance, fig12.schedule, &why))
        << why;
    const double cost = core::busy_cost(fig12.instance, fig12.schedule);
    const double opt = 1.0 + (g - 1) * (1.0 + 2 * eps);
    EXPECT_GT(cost / opt, 4.0 * (g - 1.0) / g - 0.35)
        << "pair-opening run approaches 1 + 4(g-1) vs OPT ~ g";
    EXPECT_LE(cost / opt, 4.0 + 1e-9) << "Theorem 10's ceiling";
  }
}

TEST(Gadgets, Fig10JobCounts) {
  const int g = 4;
  const auto inst = fig10_instance(g, 0.1, 0.04);
  // 1 standalone + (g-1) gadgets * (g units + 2(g-1) eps + 2 eps' + ...)
  const int per_gadget = g + 2 * (g - 1) + 4;
  EXPECT_EQ(inst.size(), 1 + (g - 1) * per_gadget + (g - 1));
}

}  // namespace
}  // namespace abt::gen
