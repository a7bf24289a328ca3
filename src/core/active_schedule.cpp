#include "core/active_schedule.hpp"

#include <algorithm>
#include <map>

namespace abt::core {

namespace {

bool fail(std::string* why, std::string reason) {
  if (why != nullptr) *why = std::move(reason);
  return false;
}

}  // namespace

template <ActiveInstance Instance>
bool check_active_schedule(const Instance& inst, const ActiveSchedule& sched,
                           std::string* why) {
  if (!std::is_sorted(sched.active_slots.begin(), sched.active_slots.end())) {
    return fail(why, "active slots not sorted");
  }
  if (std::adjacent_find(sched.active_slots.begin(),
                         sched.active_slots.end()) !=
      sched.active_slots.end()) {
    return fail(why, "duplicate active slot");
  }
  if (static_cast<int>(sched.job_slots.size()) != inst.size()) {
    return fail(why, "job_slots size mismatch");
  }

  std::map<SlotTime, int> load;
  for (JobId j = 0; j < inst.size(); ++j) {
    const auto& job = inst.job(j);
    const auto& slots = sched.job_slots[static_cast<std::size_t>(j)];
    if (static_cast<SlotTime>(slots.size()) != job.length) {
      return fail(why, "job " + std::to_string(j) + " got " +
                           std::to_string(slots.size()) + " units, needs " +
                           std::to_string(job.length));
    }
    SlotTime prev = -1;
    for (SlotTime t : slots) {
      if (t == prev) {
        return fail(why,
                    "job " + std::to_string(j) + " scheduled twice in slot " +
                        std::to_string(t));
      }
      if (t < prev) return fail(why, "job slots not sorted");
      prev = t;
      if (!job.live_in_slot(t)) {
        return fail(why, "job " + std::to_string(j) + " outside window at " +
                             std::to_string(t));
      }
      if (!std::binary_search(sched.active_slots.begin(),
                              sched.active_slots.end(), t)) {
        return fail(why, "job " + std::to_string(j) +
                             " scheduled in inactive slot " +
                             std::to_string(t));
      }
      ++load[t];
    }
  }
  for (const auto& [t, count] : load) {
    if (count > inst.capacity()) {
      return fail(why, "slot " + std::to_string(t) + " holds " +
                           std::to_string(count) + " jobs > g=" +
                           std::to_string(inst.capacity()));
    }
  }
  return true;
}

template bool check_active_schedule(const SlottedInstance&,
                                    const ActiveSchedule&, std::string*);
template bool check_active_schedule(const MultiWindowInstance&,
                                    const ActiveSchedule&, std::string*);

std::vector<int> slot_loads(const SlottedInstance& inst,
                            const ActiveSchedule& sched) {
  std::vector<int> loads(sched.active_slots.size(), 0);
  for (JobId j = 0; j < inst.size(); ++j) {
    for (SlotTime t : sched.job_slots[static_cast<std::size_t>(j)]) {
      const auto it = std::lower_bound(sched.active_slots.begin(),
                                       sched.active_slots.end(), t);
      if (it != sched.active_slots.end() && *it == t) {
        ++loads[static_cast<std::size_t>(it - sched.active_slots.begin())];
      }
    }
  }
  return loads;
}

}  // namespace abt::core
