#pragma once

#include <functional>
#include <string>
#include <utility>
#include <vector>

namespace abt::lp {

/// Row sense of a linear constraint.
enum class Sense { kLessEqual, kGreaterEqual, kEqual };

/// A linear program in the natural form used by the paper's IP/LP1:
///   minimize  c'x   subject to   rows,  x >= 0.
/// Upper bounds (e.g. y_t <= 1) are expressed as ordinary rows.
struct LinearProblem {
  struct Row {
    std::vector<std::pair<int, double>> coeffs;  ///< (variable, coefficient)
    Sense sense = Sense::kLessEqual;
    double rhs = 0.0;
  };

  int num_vars = 0;
  std::vector<double> objective;  ///< size num_vars, minimized
  std::vector<Row> rows;

  /// Adds a variable with objective coefficient `cost`; returns its index.
  int add_variable(double cost);
  /// Adds a constraint; returns its row index.
  int add_row(std::vector<std::pair<int, double>> coeffs, Sense sense,
              double rhs);
};

enum class SolveStatus {
  kOptimal,
  kInfeasible,
  kUnbounded,
  kIterLimit,
  /// options.should_stop returned true mid-solve (budget exhausted or an
  /// external cancel); the tableau state is abandoned.
  kCancelled,
};

struct Solution {
  SolveStatus status = SolveStatus::kIterLimit;
  double objective = 0.0;
  std::vector<double> x;  ///< Values of the original variables.
};

/// Dense two-phase primal simplex. GLPK/CBC are not available in this
/// environment, so the library carries its own solver (see DESIGN.md,
/// substitutions). Dantzig pricing with a Bland fallback for degeneracy.
class SimplexSolver {
 public:
  struct Options {
    long max_iterations = 500000;
    double eps = 1e-9;
    /// Switch to Bland's rule after this many non-improving iterations.
    int degeneracy_patience = 256;
    /// Cooperative cancellation hook, polled once every 64 simplex
    /// iterations (cheap relative to a pivot, responsive relative to the
    /// half-second solves budget-capped campaigns interrupt). Kept as a
    /// plain callable so the lp layer stays free of core:: types; callers
    /// typically wrap core::RunContext::should_stop.
    std::function<bool()> should_stop;
  };

  SimplexSolver() : options_() {}
  explicit SimplexSolver(Options options) : options_(options) {}

  [[nodiscard]] Solution solve(const LinearProblem& problem) const;

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
