#pragma once

#include "core/busy_schedule.hpp"
#include "core/continuous_instance.hpp"

namespace abt::busy {

/// Online busy-time scheduling of interval jobs (the setting of Shalom et
/// al. [13], discussed in the paper's related work): jobs arrive in release
/// order and must be assigned to a machine immediately and irrevocably.
/// Deterministic algorithms cannot beat Omega(g)-competitive in general;
/// these are the natural baselines an offline improvement is measured
/// against. First fit in release order is also FIRSTFIT ordered by release
/// (`busy/first-fit-release`, 2-approximate on proper instances; Flammini
/// et al., footnote 1 of the paper).
enum class OnlinePolicy {
  kFirstFit,  ///< First machine whose capacity survives.
  kBestFit,   ///< Machine whose busy time grows the least (ties: first).
  kNextFit,   ///< Last opened machine, else a new one.
};

/// Runs the online simulation: jobs are presented sorted by release time
/// (ties by id) and placed according to `policy`. Output is feasible for
/// every policy; cost varies.
///
/// One frontier sweep serves all three policies: in release order a
/// machine fits iff fewer than g of its runs are live at the release, and
/// its busy time grows by the part of the run past its latest end. Live
/// counts sit in a core::MachineFreeIndex, so first fit costs O(log m) per
/// job, next fit O(1) and best fit O(m).
[[nodiscard]] core::BusySchedule schedule_online(
    const core::ContinuousInstance& inst, OnlinePolicy policy);

}  // namespace abt::busy
