#include "core/weighted_instance.hpp"

#include <utility>

#include "core/assert.hpp"
#include "core/interval.hpp"

namespace abt::core {

WeightedInstance::WeightedInstance(std::vector<WeightedJob> jobs, int capacity)
    : jobs_(std::move(jobs)), capacity_(capacity) {
  ABT_ASSERT(capacity_ >= 1, "capacity must be positive");
}

double WeightedInstance::mass_lower_bound() const {
  double total = 0.0;
  for (const WeightedJob& wj : jobs_) total += wj.width * wj.job.length;
  return total / capacity_;
}

double WeightedInstance::span_lower_bound() const {
  std::vector<Interval> runs;
  runs.reserve(jobs_.size());
  for (const WeightedJob& wj : jobs_) {
    runs.push_back({wj.job.release, wj.job.release + wj.job.length});
  }
  return span_of(runs);
}

bool WeightedInstance::all_interval_jobs(double eps) const {
  for (const WeightedJob& wj : jobs_) {
    if (!wj.job.is_interval_job(eps)) return false;
  }
  return true;
}

bool WeightedInstance::structurally_valid(std::string* why) const {
  for (std::size_t i = 0; i < jobs_.size(); ++i) {
    const WeightedJob& wj = jobs_[i];
    auto fail = [&](const char* reason) {
      if (why != nullptr) *why = "job " + std::to_string(i) + ": " + reason;
      return false;
    };
    if (!wj.job.window_fits()) return fail("window shorter than length");
    if (wj.job.release + wj.job.length <= wj.job.release) {
      return fail("length vanishes at its release (release + length == "
                  "release)");
    }
    if (wj.width < 1) return fail("width must be >= 1");
    if (wj.width > capacity_) return fail("width exceeds capacity g");
  }
  return true;
}

WeightedInstance WeightedInstance::with_unit_widths(
    const ContinuousInstance& inst) {
  std::vector<WeightedJob> jobs;
  jobs.reserve(static_cast<std::size_t>(inst.size()));
  for (const ContinuousJob& job : inst.jobs()) jobs.push_back({job, 1});
  return WeightedInstance(std::move(jobs), inst.capacity());
}

ContinuousInstance WeightedInstance::unweighted() const {
  std::vector<ContinuousJob> jobs;
  jobs.reserve(jobs_.size());
  for (const WeightedJob& wj : jobs_) jobs.push_back(wj.job);
  return ContinuousInstance(std::move(jobs), capacity_);
}

}  // namespace abt::core
