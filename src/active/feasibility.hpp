#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "core/active_schedule.hpp"
#include "core/slotted_instance.hpp"

namespace abt::active {

class SlotNetwork;

/// Tri-state verdict of a cancellable feasibility check. The third state
/// exists so an abandoned flow computation can never be misread as
/// "infeasible" — Dinic returns only a lower bound on the max flow when
/// stopped early.
enum class FeasStatus {
  kFeasible,
  kInfeasible,
  kCancelled,
};

/// Flow-based feasibility for the active-time model (the network G_feas of
/// Fig 2): source -> job (cap p_j), job -> live active slot (cap 1),
/// active slot -> sink (cap g). The instance restricted to `active_slots`
/// is feasible iff max-flow == total work. These wrappers serve both job
/// models (core::ActiveInstance): a multi-window job gets one job -> slot
/// edge per live (job, slot) pair, window by window.
///
/// `should_stop` (may be empty) is polled inside the max-flow — per BFS
/// phase and every Dinic::kStopPollPaths augmenting paths; when it trips
/// the check returns kCancelled. A plain callback (the simplex / Dinic
/// pattern) so callers decide whether "stop" means cancellation only
/// (polynomial solvers, whose output a budget must not change) or
/// cancellation + budget (budgeted exact search).
template <core::ActiveInstance Instance>
[[nodiscard]] FeasStatus feasibility_with_slots(
    const Instance& inst, const std::vector<core::SlotTime>& active_slots,
    const std::function<bool()>& should_stop);

/// Boolean convenience wrapper (no cancellation): kFeasible => true.
template <core::ActiveInstance Instance>
[[nodiscard]] bool is_feasible_with_slots(
    const Instance& inst, const std::vector<core::SlotTime>& active_slots);

/// True when the instance is feasible with every slot 1..T active.
[[nodiscard]] bool is_feasible(const core::SlottedInstance& inst);

/// Computes an integral assignment of all jobs into `active_slots` via
/// max-flow (integrality of flow gives an integral schedule, paper sec. 2).
/// Returns nullopt when infeasible — or when `should_stop` tripped, in
/// which case `*cancelled` (when non-null) is set so the caller can tell
/// the two apart.
template <core::ActiveInstance Instance>
[[nodiscard]] std::optional<core::ActiveSchedule> extract_assignment(
    const Instance& inst, std::vector<core::SlotTime> active_slots,
    const std::function<bool()>& should_stop = {}, bool* cancelled = nullptr);

/// Grows a job set that stays feasible, one candidate at a time, on one
/// G_feas over slots 1..horizon at capacity g (the generator behind
/// gen::random_feasible_slotted). Each test routes at most p_j augmenting
/// paths on top of the kept jobs' flow instead of a fresh max-flow, and a
/// refused candidate's edges are taken back out. The verdict is exact: it
/// matches is_feasible on the kept jobs plus the candidate.
class FeasibleJobSet {
 public:
  /// Keeps at most `max_jobs` jobs.
  FeasibleJobSet(int max_jobs, core::SlotTime horizon, int capacity);
  ~FeasibleJobSet();

  /// Keeps `job` and returns true when the kept jobs plus it are feasible;
  /// otherwise keeps the set as it was and returns false. The job's
  /// window must lie inside [0, horizon].
  [[nodiscard]] bool try_add(const core::SlottedJob& job);

 private:
  std::unique_ptr<SlotNetwork> network_;
};

/// Slots in which at least one job is live — the only candidates worth
/// opening. Sorted ascending.
template <core::ActiveInstance Instance>
[[nodiscard]] std::vector<core::SlotTime> candidate_slots(const Instance& inst);

}  // namespace abt::active
