#pragma once

#include <string>
#include <vector>

#include "core/interval.hpp"
#include "core/job.hpp"

namespace abt::core {

/// A busy-time instance (paper section 1.1): jobs with real-valued release
/// times, deadlines and lengths; an unbounded pool of machines, each able to
/// run up to g jobs simultaneously; jobs are non-preemptive.
class ContinuousInstance {
 public:
  ContinuousInstance() = default;
  ContinuousInstance(std::vector<ContinuousJob> jobs, int capacity);

  [[nodiscard]] const std::vector<ContinuousJob>& jobs() const { return jobs_; }
  [[nodiscard]] const ContinuousJob& job(JobId j) const { return jobs_[static_cast<std::size_t>(j)]; }
  [[nodiscard]] int size() const { return static_cast<int>(jobs_.size()); }
  [[nodiscard]] int capacity() const { return capacity_; }

  /// Total processing mass l(J) = sum of lengths (Definition 10).
  [[nodiscard]] RealTime total_mass() const { return total_mass_; }

  /// Mass lower bound l(J)/g on optimal busy time (Observation 2).
  [[nodiscard]] RealTime mass_lower_bound() const {
    return total_mass_ / capacity_;
  }

  /// True when every job is individually schedulable (length > 0 and not
  /// rounded away at its release, window >= length). Busy-time instances
  /// are always globally feasible.
  [[nodiscard]] bool structurally_valid(std::string* why = nullptr) const;

  /// True when every job is an interval job (deadline == release + length).
  [[nodiscard]] bool all_interval_jobs(RealTime eps = 1e-9) const;

  /// The interval [release, deadline) of each job — the job's *window*.
  [[nodiscard]] std::vector<Interval> windows() const;

  /// For an instance of interval jobs: each job's (forced) execution
  /// interval [r_j, r_j + p_j).
  [[nodiscard]] std::vector<Interval> forced_intervals() const;

 private:
  std::vector<ContinuousJob> jobs_;
  int capacity_ = 1;
  RealTime total_mass_ = 0.0;
};

}  // namespace abt::core
