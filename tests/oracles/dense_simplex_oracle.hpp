#pragma once

// The dense two-phase tableau simplex that lp/simplex.cpp shipped before it
// became a revised simplex over a sparse LU, kept verbatim as the
// reference for (a) the LP equivalence suites in tests/test_simplex.cpp and
// tests/test_lp_rounding.cpp and (b) BM_ActiveLpSolveNaive in
// bench/bench_perf.cpp. It predates variable bounds: solve_dense() turns
// every finite upper bound back into a row, which is how LP1 carried its
// y_t <= 1 before. Test- and bench-side only, never linked into the
// library. Do not optimize this header; its value is staying frozen.

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "core/assert.hpp"
#include "lp/simplex.hpp"

namespace abt::lp::oracle {

namespace detail {


/// Dense simplex tableau. Column layout: [structural | slack/surplus |
/// artificial]; the last entry of each row is the rhs.
class Tableau {
 public:
  Tableau(const LinearProblem& problem, double eps) : eps_(eps) {
    const int m = problem.num_rows();
    num_structural_ = problem.num_vars;

    // One slack/surplus column per inequality row; one artificial per row
    // that needs one (>= rows and = rows, and <= rows with negative rhs
    // after normalization -- handled uniformly below by normalizing rhs
    // to be nonnegative first).
    struct RowPlan {
      std::vector<std::pair<int, double>> coeffs;
      double rhs;
      Sense sense;
    };
    std::vector<RowPlan> plan;
    plan.reserve(static_cast<std::size_t>(m));
    for (int r = 0; r < m; ++r) {
      const auto row = problem.row(r);
      RowPlan rp{{row.begin(), row.end()},
                 problem.rhs[static_cast<std::size_t>(r)],
                 problem.sense[static_cast<std::size_t>(r)]};
      if (rp.rhs < 0) {  // normalize to rhs >= 0 by negating the row
        rp.rhs = -rp.rhs;
        for (auto& [var, coeff] : rp.coeffs) {
          (void)var;
          coeff = -coeff;
        }
        if (rp.sense == Sense::kLessEqual) {
          rp.sense = Sense::kGreaterEqual;
        } else if (rp.sense == Sense::kGreaterEqual) {
          rp.sense = Sense::kLessEqual;
        }
      }
      plan.push_back(std::move(rp));
    }

    int num_slack = 0;
    int num_artificial = 0;
    for (const auto& rp : plan) {
      if (rp.sense != Sense::kEqual) ++num_slack;
      if (rp.sense != Sense::kLessEqual) ++num_artificial;
    }
    num_cols_ = num_structural_ + num_slack + num_artificial;
    stride_ = num_cols_ + 1;  // + rhs
    data_.assign(static_cast<std::size_t>(m) * static_cast<std::size_t>(stride_),
                 0.0);
    basis_.assign(static_cast<std::size_t>(m), -1);
    artificial_start_ = num_structural_ + num_slack;

    int next_slack = num_structural_;
    int next_artificial = artificial_start_;
    for (int i = 0; i < m; ++i) {
      const RowPlan& rp = plan[static_cast<std::size_t>(i)];
      double* row = row_ptr(i);
      for (const auto& [var, coeff] : rp.coeffs) {
        row[var] += coeff;  // accumulate duplicated variable entries
      }
      row[num_cols_] = rp.rhs;
      switch (rp.sense) {
        case Sense::kLessEqual:
          row[next_slack] = 1.0;
          basis_[static_cast<std::size_t>(i)] = next_slack++;
          break;
        case Sense::kGreaterEqual:
          row[next_slack++] = -1.0;
          row[next_artificial] = 1.0;
          basis_[static_cast<std::size_t>(i)] = next_artificial++;
          break;
        case Sense::kEqual:
          row[next_artificial] = 1.0;
          basis_[static_cast<std::size_t>(i)] = next_artificial++;
          break;
      }
    }
    num_rows_ = m;
  }

  [[nodiscard]] int num_rows() const { return num_rows_; }
  [[nodiscard]] int num_cols() const { return num_cols_; }
  [[nodiscard]] int artificial_start() const { return artificial_start_; }
  [[nodiscard]] int num_structural() const { return num_structural_; }
  [[nodiscard]] const std::vector<int>& basis() const { return basis_; }

  [[nodiscard]] double* row_ptr(int i) {
    return data_.data() +
           static_cast<std::size_t>(i) * static_cast<std::size_t>(stride_);
  }
  [[nodiscard]] const double* row_ptr(int i) const {
    return data_.data() +
           static_cast<std::size_t>(i) * static_cast<std::size_t>(stride_);
  }
  [[nodiscard]] double rhs(int i) const { return row_ptr(i)[num_cols_]; }

  /// Gauss pivot on (row, col): row scaled so pivot element becomes 1 and
  /// eliminated from every other row and from the objective row `z`.
  void pivot(int prow, int pcol, std::vector<double>& z) {
    double* pr = row_ptr(prow);
    const double pivot_value = pr[pcol];
    ABT_ASSERT(std::abs(pivot_value) > eps_, "pivot on (near-)zero element");
    const double inv = 1.0 / pivot_value;
    for (int c = 0; c <= num_cols_; ++c) pr[c] *= inv;
    pr[pcol] = 1.0;  // avoid drift

    for (int i = 0; i < num_rows_; ++i) {
      if (i == prow) continue;
      double* row = row_ptr(i);
      const double factor = row[pcol];
      if (std::abs(factor) <= eps_ * 1e-3) continue;
      for (int c = 0; c <= num_cols_; ++c) row[c] -= factor * pr[c];
      row[pcol] = 0.0;
    }
    const double zfactor = z[static_cast<std::size_t>(pcol)];
    if (std::abs(zfactor) > 0.0) {
      for (int c = 0; c <= num_cols_; ++c) {
        z[static_cast<std::size_t>(c)] -= zfactor * pr[c];
      }
      z[static_cast<std::size_t>(pcol)] = 0.0;
    }
    basis_[static_cast<std::size_t>(prow)] = pcol;
  }

  [[nodiscard]] std::vector<double> extract_structural() const {
    std::vector<double> x(static_cast<std::size_t>(num_structural_), 0.0);
    for (int i = 0; i < num_rows_; ++i) {
      const int b = basis_[static_cast<std::size_t>(i)];
      if (b < num_structural_) x[static_cast<std::size_t>(b)] = rhs(i);
    }
    return x;
  }

 private:
  double eps_;
  int num_rows_ = 0;
  int num_cols_ = 0;
  int stride_ = 0;
  int num_structural_ = 0;
  int artificial_start_ = 0;
  std::vector<double> data_;
  std::vector<int> basis_;
};

/// Ratio test: the leaving row for entering column `col`, or -1 when the
/// column is unbounded. Ties broken by smallest basis index (Bland-safe).
inline int ratio_test(const Tableau& tab, int col, double eps) {
  int best_row = -1;
  double best_ratio = std::numeric_limits<double>::infinity();
  int best_basis = std::numeric_limits<int>::max();
  for (int i = 0; i < tab.num_rows(); ++i) {
    const double a = tab.row_ptr(i)[col];
    if (a <= eps) continue;
    const double ratio = tab.rhs(i) / a;
    const int b = tab.basis()[static_cast<std::size_t>(i)];
    if (ratio < best_ratio - eps ||
        (ratio < best_ratio + eps && b < best_basis)) {
      best_ratio = ratio;
      best_row = i;
      best_basis = b;
    }
  }
  return best_row;
}

enum class PhaseResult { kOptimal, kUnbounded, kIterLimit, kCancelled };

/// Runs simplex iterations on `tab` minimizing the objective encoded in the
/// reduced-cost row `z` (z[num_cols] holds minus the objective value).
/// `allowed_cols` restricts entering columns (phase 2 forbids artificials).
inline PhaseResult run_phase(Tableau& tab, std::vector<double>& z, int allowed_cols,
                      const SimplexSolver::Options& options,
                      long& iterations_left) {
  const double eps = options.eps;
  int stall = 0;
  double last_obj = std::numeric_limits<double>::infinity();
  while (iterations_left-- > 0) {
    if ((iterations_left & 63) == 0 && options.should_stop &&
        options.should_stop()) {
      return PhaseResult::kCancelled;
    }
    const bool bland = stall >= options.degeneracy_patience;
    int entering = -1;
    double most_negative = -eps;
    for (int c = 0; c < allowed_cols; ++c) {
      const double rc = z[static_cast<std::size_t>(c)];
      if (rc < -eps) {
        if (bland) {
          entering = c;  // first (smallest-index) negative column
          break;
        }
        if (rc < most_negative) {
          most_negative = rc;
          entering = c;
        }
      }
    }
    if (entering < 0) return PhaseResult::kOptimal;

    const int leaving = ratio_test(tab, entering, eps);
    if (leaving < 0) return PhaseResult::kUnbounded;
    tab.pivot(leaving, entering, z);

    const double obj = -z[static_cast<std::size_t>(tab.num_cols())];
    if (obj < last_obj - eps) {
      last_obj = obj;
      stall = 0;
    } else {
      ++stall;
    }
  }
  return PhaseResult::kIterLimit;
}

/// Builds the reduced-cost row for objective `cost` (size num_cols) given
/// the current basis: z = cost - sum over basic rows of cost[basic] * row.
inline std::vector<double> reduced_costs(const Tableau& tab,
                                  const std::vector<double>& cost) {
  std::vector<double> z(static_cast<std::size_t>(tab.num_cols()) + 1, 0.0);
  std::copy(cost.begin(), cost.end(), z.begin());
  for (int i = 0; i < tab.num_rows(); ++i) {
    const int b = tab.basis()[static_cast<std::size_t>(i)];
    const double cb = cost[static_cast<std::size_t>(b)];
    if (cb == 0.0) continue;
    const double* row = tab.row_ptr(i);
    for (int c = 0; c <= tab.num_cols(); ++c) {
      z[static_cast<std::size_t>(c)] -= cb * row[c];
    }
  }
  return z;
}

}  // namespace detail

/// Dantzig pricing with a Bland fallback for degeneracy, over the rows of
/// `problem` only (its `upper` bounds are ignored).
inline Solution solve_dense_rows(const LinearProblem& problem,
                                 const SimplexSolver::Options& options_) {
  ABT_ASSERT(static_cast<int>(problem.objective.size()) == problem.num_vars,
             "objective size mismatch");
  Solution result;
  if (problem.num_vars == 0) {
    // Vacuous problem: feasible iff every row with no variables is satisfied
    // by zero.
    for (int r = 0; r < problem.num_rows(); ++r) {
      const Sense sense = problem.sense[static_cast<std::size_t>(r)];
      const double rhs = problem.rhs[static_cast<std::size_t>(r)];
      const bool ok = (sense == Sense::kLessEqual && 0.0 <= rhs) ||
                      (sense == Sense::kGreaterEqual && 0.0 >= rhs) ||
                      (sense == Sense::kEqual && rhs == 0.0);
      if (!ok) {
        result.status = SolveStatus::kInfeasible;
        return result;
      }
    }
    result.status = SolveStatus::kOptimal;
    return result;
  }

  detail::Tableau tab(problem, options_.eps);
  long iterations_left = options_.max_iterations;

  // Phase 1: minimize the sum of artificial variables.
  const int total_cols = tab.num_cols();
  const bool has_artificials = tab.artificial_start() < total_cols;
  if (has_artificials) {
    std::vector<double> phase1_cost(static_cast<std::size_t>(total_cols), 0.0);
    for (int c = tab.artificial_start(); c < total_cols; ++c) {
      phase1_cost[static_cast<std::size_t>(c)] = 1.0;
    }
    std::vector<double> z = detail::reduced_costs(tab, phase1_cost);
    const detail::PhaseResult pr =
        detail::run_phase(tab, z, total_cols, options_, iterations_left);
    if (pr == detail::PhaseResult::kIterLimit) {
      result.status = SolveStatus::kIterLimit;
      return result;
    }
    if (pr == detail::PhaseResult::kCancelled) {
      result.status = SolveStatus::kCancelled;
      return result;
    }
    ABT_ASSERT(pr != detail::PhaseResult::kUnbounded,
               "phase-1 objective is bounded below by zero");
    const double phase1_obj = -z[static_cast<std::size_t>(total_cols)];
    if (phase1_obj > 1e-6) {
      result.status = SolveStatus::kInfeasible;
      return result;
    }
    // Drive any residual basic artificials out of the basis when possible.
    for (int i = 0; i < tab.num_rows(); ++i) {
      if (tab.basis()[static_cast<std::size_t>(i)] < tab.artificial_start()) {
        continue;
      }
      const double* row = tab.row_ptr(i);
      int pivot_col = -1;
      for (int c = 0; c < tab.artificial_start(); ++c) {
        if (std::abs(row[c]) > 1e-7) {
          pivot_col = c;
          break;
        }
      }
      if (pivot_col >= 0) tab.pivot(i, pivot_col, z);
      // Otherwise the row is redundant (all-zero over real columns); the
      // artificial stays basic at value ~0, which is harmless in phase 2 as
      // artificial columns are excluded from entering.
    }
  }

  // Phase 2: minimize the real objective over non-artificial columns.
  std::vector<double> phase2_cost(static_cast<std::size_t>(total_cols), 0.0);
  std::copy(problem.objective.begin(), problem.objective.end(),
            phase2_cost.begin());
  std::vector<double> z = detail::reduced_costs(tab, phase2_cost);
  const detail::PhaseResult pr =
      detail::run_phase(tab, z, tab.artificial_start(), options_, iterations_left);
  if (pr == detail::PhaseResult::kIterLimit) {
    result.status = SolveStatus::kIterLimit;
    return result;
  }
  if (pr == detail::PhaseResult::kCancelled) {
    result.status = SolveStatus::kCancelled;
    return result;
  }
  if (pr == detail::PhaseResult::kUnbounded) {
    result.status = SolveStatus::kUnbounded;
    return result;
  }

  result.status = SolveStatus::kOptimal;
  result.x = tab.extract_structural();
  result.objective = objective_value(problem, result.x);
  return result;
}

/// Solves `problem` on the dense tableau, with each finite upper bound
/// x_v <= u_v appended as a row.
inline Solution solve_dense(const LinearProblem& problem,
                            const SimplexSolver::Options& options = {}) {
  LinearProblem rows_only = problem;
  for (int v = 0; v < problem.num_vars; ++v) {
    const double u = problem.upper[static_cast<std::size_t>(v)];
    if (u != kInfinity) rows_only.add_row({{v, 1.0}}, Sense::kLessEqual, u);
  }
  return solve_dense_rows(rows_only, options);
}

}  // namespace abt::lp::oracle
