#include "lp/simplex.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <string>

#include "core/rng.hpp"
#include "dense_simplex_oracle.hpp"

namespace abt::lp {
namespace {

// Each hand-written case is a named builder, so the equivalence test below
// runs the dense oracle on exactly the problems the unit tests pin down.

/// min -x - 2y st x + y <= 4, x <= 3, y <= 2  -> x=2, y=2, obj=-6.
LinearProblem two_variable_min() {
  LinearProblem p;
  const int x = p.add_variable(-1.0);
  const int y = p.add_variable(-2.0);
  p.add_row({{x, 1.0}, {y, 1.0}}, Sense::kLessEqual, 4.0);
  p.add_row({{x, 1.0}}, Sense::kLessEqual, 3.0);
  p.add_row({{y, 1.0}}, Sense::kLessEqual, 2.0);
  return p;
}

/// min x + y st x + 2y >= 4, 3x + y >= 6 -> (1.6, 1.2), obj 2.8.
LinearProblem greater_equal_rows() {
  LinearProblem p;
  const int x = p.add_variable(1.0);
  const int y = p.add_variable(1.0);
  p.add_row({{x, 1.0}, {y, 2.0}}, Sense::kGreaterEqual, 4.0);
  p.add_row({{x, 3.0}, {y, 1.0}}, Sense::kGreaterEqual, 6.0);
  return p;
}

/// min x + 3y st x + y = 5, y >= 2 -> x=3, y=2, obj=9.
LinearProblem equality_row() {
  LinearProblem p;
  const int x = p.add_variable(1.0);
  const int y = p.add_variable(3.0);
  p.add_row({{x, 1.0}, {y, 1.0}}, Sense::kEqual, 5.0);
  p.add_row({{y, 1.0}}, Sense::kGreaterEqual, 2.0);
  return p;
}

LinearProblem infeasible_rows() {
  LinearProblem p;
  const int x = p.add_variable(1.0);
  p.add_row({{x, 1.0}}, Sense::kLessEqual, 1.0);
  p.add_row({{x, 1.0}}, Sense::kGreaterEqual, 2.0);
  return p;
}

LinearProblem unbounded_ray() {
  LinearProblem p;
  const int x = p.add_variable(-1.0);
  p.add_row({{x, -1.0}}, Sense::kLessEqual, 0.0);  // x >= 0 only
  return p;
}

/// min x st -x <= -3  (x >= 3).
LinearProblem negative_rhs() {
  LinearProblem p;
  const int x = p.add_variable(1.0);
  p.add_row({{x, -1.0}}, Sense::kLessEqual, -3.0);
  return p;
}

/// min x st x + x >= 4 -> x = 2.
LinearProblem duplicate_coefficients() {
  LinearProblem p;
  const int x = p.add_variable(1.0);
  p.add_row({{x, 1.0}, {x, 1.0}}, Sense::kGreaterEqual, 4.0);
  return p;
}

/// Klee-Minty-flavoured degeneracy: many redundant rows.
LinearProblem degenerate_rows() {
  LinearProblem p;
  const int x = p.add_variable(-1.0);
  const int y = p.add_variable(-1.0);
  for (int i = 0; i < 30; ++i) {
    p.add_row({{x, 1.0}, {y, 1.0}}, Sense::kLessEqual, 1.0);
  }
  p.add_row({{x, 1.0}}, Sense::kLessEqual, 1.0);
  return p;
}

/// max x + y with 0 <= x <= 2, 0 <= y <= 3 as bounds and x + y <= 4:
/// one variable flips to its bound, the row binds the other.
LinearProblem bounded_variables() {
  LinearProblem p;
  const int x = p.add_variable(-1.0, 2.0);
  const int y = p.add_variable(-1.0, 3.0);
  p.add_row({{x, 1.0}, {y, 1.0}}, Sense::kLessEqual, 4.0);
  return p;
}

/// Only bounds: min -x - y with x <= 1.5, y <= 0.5 and a slack row.
LinearProblem bounds_only_optimum() {
  LinearProblem p;
  const int x = p.add_variable(-1.0, 1.5);
  const int y = p.add_variable(-1.0, 0.5);
  p.add_row({{x, 1.0}, {y, 1.0}}, Sense::kLessEqual, 10.0);
  return p;
}

/// A bound the rows cannot meet: x <= 1 but x >= 2.
LinearProblem bound_conflicts_with_row() {
  LinearProblem p;
  const int x = p.add_variable(1.0, 1.0);
  p.add_row({{x, 1.0}}, Sense::kGreaterEqual, 2.0);
  return p;
}

/// No rows at all: min -x - y with x <= 2 and y free above (unbounded),
/// or with both bounded (optimum at the bounds).
LinearProblem no_rows(bool bounded) {
  LinearProblem p;
  p.add_variable(-1.0, 2.0);
  p.add_variable(-1.0, bounded ? 3.0 : kInfinity);
  return p;
}

struct NamedCase {
  std::string name;
  LinearProblem problem;
};

std::vector<NamedCase> hand_cases() {
  return {
      {"two_variable_min", two_variable_min()},
      {"greater_equal_rows", greater_equal_rows()},
      {"equality_row", equality_row()},
      {"infeasible_rows", infeasible_rows()},
      {"unbounded_ray", unbounded_ray()},
      {"negative_rhs", negative_rhs()},
      {"empty", LinearProblem{}},
      {"duplicate_coefficients", duplicate_coefficients()},
      {"degenerate_rows", degenerate_rows()},
      {"bounded_variables", bounded_variables()},
      {"bounds_only_optimum", bounds_only_optimum()},
      {"bound_conflicts_with_row", bound_conflicts_with_row()},
      {"no_rows_bounded", no_rows(true)},
      {"no_rows_unbounded", no_rows(false)},
  };
}

TEST(Simplex, SimpleTwoVariableMin) {
  const Solution s = SimplexSolver().solve(two_variable_min());
  ASSERT_EQ(s.status, SolveStatus::kOptimal);
  EXPECT_NEAR(s.objective, -6.0, 1e-8);
  EXPECT_NEAR(s.x[0], 2.0, 1e-8);
  EXPECT_NEAR(s.x[1], 2.0, 1e-8);
}

TEST(Simplex, GreaterEqualNeedsPhaseOne) {
  const Solution s = SimplexSolver().solve(greater_equal_rows());
  ASSERT_EQ(s.status, SolveStatus::kOptimal);
  EXPECT_NEAR(s.objective, 2.8, 1e-8);
  EXPECT_FALSE(s.warm_start);
  EXPECT_GT(s.pivots, 0);
}

TEST(Simplex, EqualityConstraint) {
  const Solution s = SimplexSolver().solve(equality_row());
  ASSERT_EQ(s.status, SolveStatus::kOptimal);
  EXPECT_NEAR(s.objective, 9.0, 1e-8);
}

TEST(Simplex, DetectsInfeasible) {
  EXPECT_EQ(SimplexSolver().solve(infeasible_rows()).status,
            SolveStatus::kInfeasible);
}

TEST(Simplex, DetectsUnbounded) {
  EXPECT_EQ(SimplexSolver().solve(unbounded_ray()).status,
            SolveStatus::kUnbounded);
}

TEST(Simplex, NegativeRhsNormalization) {
  const Solution s = SimplexSolver().solve(negative_rhs());
  ASSERT_EQ(s.status, SolveStatus::kOptimal);
  EXPECT_NEAR(s.objective, 3.0, 1e-8);
}

TEST(Simplex, EmptyProblemIsOptimal) {
  LinearProblem p;
  EXPECT_EQ(SimplexSolver().solve(p).status, SolveStatus::kOptimal);
}

TEST(Simplex, DuplicateCoefficientsAccumulate) {
  const Solution s = SimplexSolver().solve(duplicate_coefficients());
  ASSERT_EQ(s.status, SolveStatus::kOptimal);
  EXPECT_NEAR(s.objective, 2.0, 1e-8);
}

TEST(Simplex, DegenerateProblemTerminates) {
  const Solution s = SimplexSolver().solve(degenerate_rows());
  ASSERT_EQ(s.status, SolveStatus::kOptimal);
  EXPECT_NEAR(s.objective, -1.0, 1e-8);
}

TEST(Simplex, UpperBoundsAreVariableBounds) {
  const LinearProblem p = bounded_variables();
  EXPECT_EQ(p.num_rows(), 1) << "bounds add no rows";
  const Solution s = SimplexSolver().solve(p);
  ASSERT_EQ(s.status, SolveStatus::kOptimal);
  EXPECT_NEAR(s.objective, -4.0, 1e-8);
  EXPECT_LE(s.x[0], 2.0 + 1e-9);
  EXPECT_LE(s.x[1], 3.0 + 1e-9);
  EXPECT_TRUE(is_feasible(p, s.x));
}

TEST(Simplex, BoundFlipsReachTheOptimum) {
  // Neither row binds: both variables move straight to their upper bounds.
  const Solution s = SimplexSolver().solve(bounds_only_optimum());
  ASSERT_EQ(s.status, SolveStatus::kOptimal);
  EXPECT_NEAR(s.x[0], 1.5, 1e-9);
  EXPECT_NEAR(s.x[1], 0.5, 1e-9);
  EXPECT_EQ(s.pivots, 2) << "two bound flips, no basis change";
}

TEST(Simplex, ProblemsWithoutRows) {
  const Solution bounded = SimplexSolver().solve(no_rows(true));
  ASSERT_EQ(bounded.status, SolveStatus::kOptimal);
  EXPECT_NEAR(bounded.objective, -5.0, 1e-12);
  EXPECT_EQ(SimplexSolver().solve(no_rows(false)).status,
            SolveStatus::kUnbounded);
}

TEST(Simplex, BoundConflictIsInfeasible) {
  EXPECT_EQ(SimplexSolver().solve(bound_conflicts_with_row()).status,
            SolveStatus::kInfeasible);
}

TEST(Simplex, IsFeasibleChecksUpperBounds) {
  const LinearProblem p = bounded_variables();
  std::string why;
  EXPECT_FALSE(is_feasible(p, {2.5, 0.0}, 1e-6, &why));
  EXPECT_NE(why.find("upper bound"), std::string::npos) << why;
  EXPECT_TRUE(is_feasible(p, {2.0, 2.0}));
}

// ---------------------------------------------------------------------------
// Starting bases.

TEST(SimplexStart, FeasibleStartSkipsPhaseOne) {
  // min x + y st x + 2y >= 4, 3x + y >= 6 from the basis {x, y}: the
  // vertex (1.6, 1.2) is feasible (and optimal), so no pivot is needed.
  const LinearProblem p = greater_equal_rows();
  StartBasis start;
  start.vars = {VarStatus::kBasic, VarStatus::kBasic};
  start.rows = {VarStatus::kAtUpper, VarStatus::kAtUpper};
  const Solution s = SimplexSolver().solve(p, &start);
  ASSERT_EQ(s.status, SolveStatus::kOptimal);
  EXPECT_TRUE(s.warm_start);
  EXPECT_EQ(s.pivots, 0);
  EXPECT_NEAR(s.objective, 2.8, 1e-9);
}

TEST(SimplexStart, UnusableStartsFallBackToTwoPhases) {
  const LinearProblem p = greater_equal_rows();
  std::vector<StartBasis> bad(4);
  // Infeasible vertex: both logicals basic means x = y = 0.
  bad[0].vars = {VarStatus::kAtLower, VarStatus::kAtLower};
  bad[0].rows = {VarStatus::kBasic, VarStatus::kBasic};
  // Wrong basic count.
  bad[1].vars = {VarStatus::kBasic, VarStatus::kBasic};
  bad[1].rows = {VarStatus::kBasic, VarStatus::kAtUpper};
  // Upper bound that does not exist.
  bad[2].vars = {VarStatus::kAtUpper, VarStatus::kBasic};
  bad[2].rows = {VarStatus::kBasic, VarStatus::kAtUpper};
  // Wrong sizes.
  bad[3].vars = {VarStatus::kBasic};
  for (std::size_t i = 0; i < bad.size(); ++i) {
    const Solution s = SimplexSolver().solve(p, &bad[i]);
    ASSERT_EQ(s.status, SolveStatus::kOptimal) << "start " << i;
    EXPECT_FALSE(s.warm_start) << "start " << i;
    EXPECT_NEAR(s.objective, 2.8, 1e-9) << "start " << i;
  }
}

TEST(SimplexStart, SingularStartFallsBack) {
  LinearProblem p;
  const int x = p.add_variable(1.0);
  const int y = p.add_variable(1.0);
  p.add_row({{x, 1.0}}, Sense::kGreaterEqual, 1.0);
  p.add_row({{x, 2.0}}, Sense::kGreaterEqual, 1.0);
  p.add_row({{y, 1.0}}, Sense::kGreaterEqual, 1.0);
  StartBasis start;
  start.vars = {VarStatus::kBasic, VarStatus::kBasic};
  start.rows = {VarStatus::kAtUpper, VarStatus::kAtUpper, VarStatus::kBasic};
  // Basic columns x = (1, 2, 0), y = (0, 0, 1) and the third row's
  // logical (0, 0, 1): the last two are equal, so the basis is singular.
  const Solution s = SimplexSolver().solve(p, &start);
  ASSERT_EQ(s.status, SolveStatus::kOptimal);
  EXPECT_FALSE(s.warm_start);
  EXPECT_NEAR(s.objective, 2.0, 1e-9);
}

/// Property: on random feasible-by-construction LPs, the returned solution
/// satisfies every constraint and its objective is no worse than a sample of
/// random feasible points.
class SimplexRandom : public ::testing::TestWithParam<int> {};

LinearProblem random_box_problem(core::Rng& rng, bool bounds_as_rows) {
  const int nvars = static_cast<int>(rng.uniform_int(1, 5));
  LinearProblem p;
  for (int v = 0; v < nvars; ++v) {
    p.add_variable(rng.uniform_real(-2.0, 2.0));
  }
  // Rows of the form a'x <= b with a >= 0 and b >= 0: x = 0 is feasible,
  // and adding box rows keeps it bounded.
  const int rows = static_cast<int>(rng.uniform_int(1, 6));
  for (int r = 0; r < rows; ++r) {
    std::vector<std::pair<int, double>> coeffs;
    for (int v = 0; v < nvars; ++v) {
      coeffs.emplace_back(v, rng.uniform_real(0.0, 3.0));
    }
    p.add_row(std::move(coeffs), Sense::kLessEqual,
              rng.uniform_real(0.0, 10.0));
  }
  for (int v = 0; v < nvars; ++v) {
    const double u = rng.uniform_real(0.5, 5.0);
    if (bounds_as_rows) {
      p.add_row({{v, 1.0}}, Sense::kLessEqual, u);
    } else {
      p.upper[static_cast<std::size_t>(v)] = u;
    }
  }
  return p;
}

TEST_P(SimplexRandom, OptimalDominatesRandomFeasiblePoints) {
  core::Rng rng(static_cast<std::uint64_t>(GetParam()) * 1000003ULL);
  for (int trial = 0; trial < 25; ++trial) {
    const LinearProblem p = random_box_problem(rng, /*bounds_as_rows=*/true);
    const int nvars = p.num_vars;
    const Solution s = SimplexSolver().solve(p);
    ASSERT_EQ(s.status, SolveStatus::kOptimal);
    std::string why;
    EXPECT_TRUE(is_feasible(p, s.x, 1e-6, &why)) << why;

    // Random feasible points (rejection sampling) cannot beat the optimum.
    for (int probe = 0; probe < 50; ++probe) {
      std::vector<double> x(static_cast<std::size_t>(nvars));
      for (auto& xi : x) xi = rng.uniform_real(0.0, 5.0);
      if (!is_feasible(p, x, 1e-9)) continue;
      EXPECT_GE(objective_value(p, x), s.objective - 1e-6);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SimplexRandom, ::testing::Range(1, 7));

// ---------------------------------------------------------------------------
// Equivalence with the dense tableau the library shipped before
// (tests/oracles/dense_simplex_oracle.hpp): same status on every case, the
// same optimum within 1e-9 (relative), and a feasible x, bounds included.

void expect_matches_dense(const LinearProblem& p, const std::string& what) {
  const Solution got = SimplexSolver().solve(p);
  const Solution want = oracle::solve_dense(p);
  ASSERT_EQ(got.status, want.status) << what;
  if (got.status != SolveStatus::kOptimal) return;
  EXPECT_NEAR(got.objective, want.objective,
              1e-9 * std::max(1.0, std::abs(want.objective)))
      << what;
  std::string why;
  EXPECT_TRUE(is_feasible(p, got.x, 1e-6, &why)) << what << ": " << why;
}

TEST(SimplexOracle, HandCasesMatchTheDenseTableau) {
  for (const NamedCase& c : hand_cases()) expect_matches_dense(c.problem, c.name);
}

TEST(SimplexOracle, RandomProblemsMatchTheDenseTableau) {
  core::Rng rng(77);
  for (int trial = 0; trial < 200; ++trial) {
    expect_matches_dense(random_box_problem(rng, trial % 2 == 0),
                         "trial " + std::to_string(trial));
  }
}

}  // namespace
}  // namespace abt::lp
