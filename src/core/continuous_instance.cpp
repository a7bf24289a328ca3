#include "core/continuous_instance.hpp"

#include "core/assert.hpp"

namespace abt::core {

ContinuousInstance::ContinuousInstance(std::vector<ContinuousJob> jobs,
                                       int capacity)
    : jobs_(std::move(jobs)), capacity_(capacity) {
  ABT_ASSERT(capacity_ >= 1, "machine capacity g must be at least 1");
  for (const ContinuousJob& j : jobs_) total_mass_ += j.length;
}

bool ContinuousInstance::structurally_valid(std::string* why) const {
  for (std::size_t i = 0; i < jobs_.size(); ++i) {
    const ContinuousJob& j = jobs_[i];
    auto fail = [&](const char* reason) {
      if (why != nullptr) *why = "job " + std::to_string(i) + ": " + reason;
      return false;
    };
    if (!(j.length > 0.0)) return fail("length must be positive");
    // The g = infinity DP would re-enter its own state on such a job.
    if (j.release + j.length <= j.release) {
      return fail("length vanishes at its release (release + length == "
                  "release)");
    }
    if (!j.window_fits()) return fail("window shorter than length");
  }
  return true;
}

bool ContinuousInstance::all_interval_jobs(RealTime eps) const {
  for (const ContinuousJob& j : jobs_) {
    if (!j.is_interval_job(eps)) return false;
  }
  return true;
}

std::vector<Interval> ContinuousInstance::windows() const {
  std::vector<Interval> out;
  out.reserve(jobs_.size());
  for (const ContinuousJob& j : jobs_) out.push_back({j.release, j.deadline});
  return out;
}

std::vector<Interval> ContinuousInstance::forced_intervals() const {
  std::vector<Interval> out;
  out.reserve(jobs_.size());
  for (const ContinuousJob& j : jobs_) {
    out.push_back({j.release, j.release + j.length});
  }
  return out;
}

}  // namespace abt::core
