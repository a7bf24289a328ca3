#include "core/multi_window_instance.hpp"

#include <algorithm>

#include "core/assert.hpp"

namespace abt::core {

MultiWindowInstance::MultiWindowInstance(std::vector<MultiWindowJob> jobs,
                                         int capacity)
    : jobs_(std::move(jobs)), capacity_(capacity) {
  ABT_ASSERT(capacity_ >= 1, "capacity must be positive");
  for (const MultiWindowJob& job : jobs_) {
    total_work_ += job.length;
    for (const auto& [r, d] : job.windows) {
      horizon_ = std::max(horizon_, d);
    }
  }
}

bool MultiWindowInstance::structurally_valid(std::string* why) const {
  for (std::size_t i = 0; i < jobs_.size(); ++i) {
    const MultiWindowJob& job = jobs_[i];
    auto fail = [&](const char* reason) {
      if (why != nullptr) *why = "job " + std::to_string(i) + ": " + reason;
      return false;
    };
    if (job.length < 1) return fail("length must be >= 1");
    if (job.windows.empty()) return fail("no windows");
    SlotTime prev_end = -1;
    for (const auto& [r, d] : job.windows) {
      if (r < 0) return fail("negative release");
      if (d <= r) return fail("empty window");
      if (r < prev_end) return fail("windows overlap or unsorted");
      prev_end = d;
    }
    if (job.window_slots() < job.length) return fail("windows too small");
  }
  return true;
}

}  // namespace abt::core
