#pragma once

#include <string>
#include <vector>

#include "core/continuous_instance.hpp"
#include "core/job.hpp"

namespace abt::core {

/// The width generalization of busy time studied by Khandekar et al. [9]
/// and discussed in the paper's introduction: every job carries a demand
/// ("width") w_j and a machine may run any set of jobs whose *cumulative*
/// demand is at most g at every time. Unit widths recover the standard
/// model.
struct WeightedJob {
  ContinuousJob job;
  int width = 1;

  friend bool operator==(const WeightedJob&, const WeightedJob&) = default;
};

class WeightedInstance {
 public:
  WeightedInstance() = default;
  WeightedInstance(std::vector<WeightedJob> jobs, int capacity);

  [[nodiscard]] const std::vector<WeightedJob>& jobs() const { return jobs_; }
  [[nodiscard]] const WeightedJob& job(JobId j) const {
    return jobs_[static_cast<std::size_t>(j)];
  }
  [[nodiscard]] int size() const { return static_cast<int>(jobs_.size()); }
  [[nodiscard]] int capacity() const { return capacity_; }

  /// The standard model as a weighted instance: every width is 1.
  [[nodiscard]] static WeightedInstance with_unit_widths(
      const ContinuousInstance& inst);

  /// Width-weighted mass lower bound: sum_j w_j p_j / g.
  [[nodiscard]] double mass_lower_bound() const;
  /// Span lower bound for interval jobs: projection of the forced runs.
  [[nodiscard]] double span_lower_bound() const;

  [[nodiscard]] bool all_interval_jobs(double eps = 1e-9) const;
  [[nodiscard]] bool structurally_valid(std::string* why = nullptr) const;

  /// The width-forgetting view (used by the g = infinity DP, where widths
  /// are irrelevant because capacity is unbounded).
  [[nodiscard]] ContinuousInstance unweighted() const;

 private:
  std::vector<WeightedJob> jobs_;
  int capacity_ = 1;
};

}  // namespace abt::core
