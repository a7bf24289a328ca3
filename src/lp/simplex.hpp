#pragma once

#include <functional>
#include <initializer_list>
#include <limits>
#include <span>
#include <string>
#include <utility>
#include <vector>

namespace abt::lp {

inline constexpr double kInfinity = std::numeric_limits<double>::infinity();

/// Row sense of a linear constraint.
enum class Sense { kLessEqual, kGreaterEqual, kEqual };

/// A linear program in the natural form used by the paper's IP/LP1:
///   minimize  c'x   subject to   rows,  0 <= x <= upper.
/// A finite upper bound (e.g. y_t <= 1) is a variable bound, not a row.
/// The rows live in one flat entry array, so a model of thousands of rows
/// costs a handful of allocations rather than one per row.
struct LinearProblem {
  using Entry = std::pair<int, double>;  ///< (variable, coefficient)

  int num_vars = 0;
  std::vector<double> objective;  ///< size num_vars, minimized
  std::vector<double> upper;      ///< size num_vars, +infinity when free above
  /// Row i's entries are entries[row_start[i] .. row_start[i + 1]).
  std::vector<Entry> entries;
  std::vector<int> row_start{0};
  std::vector<Sense> sense;  ///< per row
  std::vector<double> rhs;   ///< per row

  [[nodiscard]] int num_rows() const { return static_cast<int>(rhs.size()); }
  [[nodiscard]] std::span<const Entry> row(int i) const {
    const auto at = static_cast<std::size_t>(i);
    return std::span<const Entry>(entries).subspan(
        static_cast<std::size_t>(row_start[at]),
        static_cast<std::size_t>(row_start[at + 1] - row_start[at]));
  }

  /// Adds a variable with objective coefficient `cost` and bounds
  /// [0, upper]; returns its index.
  int add_variable(double cost, double upper = kInfinity);
  /// Adds a constraint; returns its row index.
  int add_row(std::span<const Entry> coeffs, Sense row_sense, double row_rhs);
  int add_row(std::initializer_list<Entry> coeffs, Sense row_sense,
              double row_rhs) {
    return add_row(std::span<const Entry>(coeffs.begin(), coeffs.size()),
                   row_sense, row_rhs);
  }
};

/// Where a variable sits in a simplex basis. Each row owns one logical
/// variable s_i (row_i + s_i = rhs_i, s_i >= 0 for <=, s_i <= 0 for >=,
/// s_i = 0 for =), so a basis names m basic variables among structurals
/// and logicals; the rest sit at a bound.
enum class VarStatus { kBasic, kAtLower, kAtUpper };

/// A starting basis for SimplexSolver::solve: one status per structural
/// variable and one per row's logical. Exactly num_rows entries must be
/// kBasic. kAtUpper on a variable without a finite upper bound, a
/// singular basis or a primal-infeasible start makes the solver fall back
/// to its cold two-phase start, so a start only ever saves work.
struct StartBasis {
  std::vector<VarStatus> vars;
  std::vector<VarStatus> rows;
};

enum class SolveStatus {
  kOptimal,
  kInfeasible,
  kUnbounded,
  kIterLimit,
  /// options.should_stop returned true mid-solve (budget exhausted or an
  /// external cancel); the basis state is abandoned.
  kCancelled,
};

struct Solution {
  SolveStatus status = SolveStatus::kIterLimit;
  double objective = 0.0;
  std::vector<double> x;  ///< Values of the original variables.
  /// Simplex iterations (basis changes and bound flips, both phases).
  long pivots = 0;
  /// True when the supplied StartBasis was accepted (phase 1 skipped).
  bool warm_start = false;
};

/// Revised primal simplex with bounded variables. GLPK/CBC are not
/// available, so the library carries its own solver (docs/ALGORITHMS.md,
/// active/lp-rounding).
///
/// The basis is kept as a sparse LU (column and row singletons peeled off
/// first, the remaining kernel eliminated with threshold Markowitz
/// pivoting), refactored every 256 basis changes, with product-form eta
/// updates in between; FTRAN and BTRAN visit only the pivots a sparse
/// right-hand side reaches. Pricing is Devex over the dual-infeasible
/// columns, with reduced costs and weights updated from the pivot row; the
/// ratio test is Harris's two-pass test, and an entering variable that
/// reaches its own opposite bound first flips instead of pivoting. A cold
/// start is the all-logical basis plus one artificial per row it leaves
/// infeasible (phase 1 minimizes their sum); a StartBasis that factors and
/// is primal feasible skips phase 1.
class SimplexSolver {
 public:
  struct Options {
    long max_iterations = 500000;
    double eps = 1e-9;
    /// Switch to Bland's rule after this many non-improving iterations.
    int degeneracy_patience = 256;
    /// Cooperative cancellation hook, polled before the first iteration
    /// and then once every 64 (cheap relative to a pivot, responsive
    /// relative to the half-second solves budget-capped campaigns
    /// interrupt). Kept as a plain callable so the lp layer stays free of
    /// core:: types; callers typically wrap core::RunContext::should_stop.
    std::function<bool()> should_stop;
  };

  SimplexSolver() : options_() {}
  explicit SimplexSolver(Options options) : options_(std::move(options)) {}

  /// Solves `problem`, starting from `start` when it is given and usable.
  [[nodiscard]] Solution solve(const LinearProblem& problem,
                               const StartBasis* start = nullptr) const;

 private:
  Options options_;
};

/// Checks x against all rows and bounds of `problem` within `tol`;
/// explains the first violation in `why` when provided. Test helper and
/// post-solve guard.
[[nodiscard]] bool is_feasible(const LinearProblem& problem,
                               const std::vector<double>& x, double tol = 1e-6,
                               std::string* why = nullptr);

/// Objective value c'x.
[[nodiscard]] double objective_value(const LinearProblem& problem,
                                     const std::vector<double>& x);

}  // namespace abt::lp
