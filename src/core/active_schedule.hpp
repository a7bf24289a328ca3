#pragma once

#include <concepts>
#include <string>
#include <vector>

#include "core/multi_window_instance.hpp"
#include "core/slotted_instance.hpp"

namespace abt::core {

/// A feasible solution to the active-time problem: the set A of active slots
/// plus an assignment of each unit of work to a slot (paper section 2).
struct ActiveSchedule {
  /// Sorted, distinct active slots.
  std::vector<SlotTime> active_slots;
  /// job_slots[j] = sorted, distinct slots in which one unit of job j runs.
  std::vector<std::vector<SlotTime>> job_slots;

  /// Active-time cost |A|.
  [[nodiscard]] SlotTime cost() const {
    return static_cast<SlotTime>(active_slots.size());
  }
};

/// The two active-time job models: one window (r, d] per job, or a list
/// of them (Chang, Gabow and Khuller [2]). Their jobs expose
/// `for_each_window` and `live_in_slot`, so the checker and G_feas
/// (active/feasibility) are written once for both, and explicitly
/// instantiated for exactly these two.
template <typename Instance>
concept ActiveInstance = std::same_as<Instance, SlottedInstance> ||
                         std::same_as<Instance, MultiWindowInstance>;

/// Verifies all feasibility conditions of an active-time schedule:
///  * active slots sorted and distinct,
///  * every assigned slot is active,
///  * each job's slots sorted and distinct, within the job's window(s),
///  * job j receives exactly p_j units,
///  * at most g jobs share any slot.
/// On failure returns false and (optionally) explains in `why`.
template <ActiveInstance Instance>
[[nodiscard]] bool check_active_schedule(const Instance& inst,
                                         const ActiveSchedule& sched,
                                         std::string* why = nullptr);

/// Number of jobs assigned to each active slot, indexed like
/// `sched.active_slots`.
[[nodiscard]] std::vector<int> slot_loads(const SlottedInstance& inst,
                                          const ActiveSchedule& sched);

}  // namespace abt::core
