#include "active/multi_window.hpp"

#include <algorithm>
#include <map>
#include <numeric>

#include "active/slot_network.hpp"
#include "core/assert.hpp"
#include "flow/dinic.hpp"

namespace abt::active {

using core::ActiveSchedule;
using core::JobId;
using core::SlotTime;

std::vector<SlotTime> mw_candidate_slots(const MultiWindowInstance& inst) {
  std::vector<char> live(static_cast<std::size_t>(inst.horizon()) + 1, 0);
  for (const MultiWindowJob& job : inst.jobs()) {
    for (const auto& [r, d] : job.windows) {
      for (SlotTime t = r + 1; t <= d; ++t) {
        live[static_cast<std::size_t>(t)] = 1;
      }
    }
  }
  std::vector<SlotTime> out;
  for (SlotTime t = 1; t <= inst.horizon(); ++t) {
    if (live[static_cast<std::size_t>(t)] != 0) out.push_back(t);
  }
  return out;
}

namespace {

/// G_feas over the sorted `slots`: one job -> slot edge per live
/// (job, slot) pair, window by window.
SlotNetwork mw_slot_network(const MultiWindowInstance& inst,
                            const std::vector<SlotTime>& slots) {
  SlotNetwork network(inst.size(), static_cast<int>(slots.size()),
                      inst.capacity());
  for (const MultiWindowJob& job : inst.jobs()) {
    network.add_job(job.length);
    for (const auto& [r, d] : job.windows) {
      const auto lo = std::lower_bound(slots.begin(), slots.end(), r + 1);
      for (auto it = lo; it != slots.end() && *it <= d; ++it) {
        network.add_job_slot(static_cast<int>(it - slots.begin()));
      }
    }
  }
  return network;
}

/// Deficit (total work minus max flow) of G_feas over the given slots.
/// `should_stop` is forwarded into the max-flow; when it trips the
/// returned deficit is meaningless (`*cancelled` is set) and no
/// assignment is extracted.
flow::Dinic::Cap mw_flow_deficit(
    const MultiWindowInstance& inst, const std::vector<SlotTime>& slots,
    std::vector<std::vector<SlotTime>>* assignment_out,
    const std::function<bool()>& should_stop, bool* cancelled) {
  SlotNetwork network = mw_slot_network(inst, slots);
  const auto deficit = network.solve(should_stop, cancelled);
  if (*cancelled) return deficit;
  if (assignment_out != nullptr && deficit == 0) {
    network.routed_slots(slots, *assignment_out);
  }
  return deficit;
}

}  // namespace

bool mw_is_feasible_with_slots(const MultiWindowInstance& inst,
                               const std::vector<SlotTime>& active_slots) {
  return mw_feasibility_with_slots(inst, active_slots, {}) ==
         FeasStatus::kFeasible;
}

FeasStatus mw_feasibility_with_slots(const MultiWindowInstance& inst,
                                     const std::vector<SlotTime>& active_slots,
                                     const std::function<bool()>& should_stop) {
  bool cancelled = false;
  const auto deficit =
      mw_flow_deficit(inst, active_slots, nullptr, should_stop, &cancelled);
  if (cancelled) return FeasStatus::kCancelled;
  return deficit == 0 ? FeasStatus::kFeasible : FeasStatus::kInfeasible;
}

std::optional<ActiveSchedule> mw_extract_assignment(
    const MultiWindowInstance& inst, std::vector<SlotTime> active_slots) {
  std::vector<std::vector<SlotTime>> assignment;
  bool cancelled = false;
  if (mw_flow_deficit(inst, active_slots, &assignment, {}, &cancelled) != 0) {
    return std::nullopt;
  }
  ActiveSchedule sched;
  sched.active_slots = std::move(active_slots);
  sched.job_slots = std::move(assignment);
  for (auto& s : sched.job_slots) std::sort(s.begin(), s.end());
  return sched;
}

bool mw_check_schedule(const MultiWindowInstance& inst,
                       const ActiveSchedule& sched, std::string* why) {
  auto fail = [&](std::string reason) {
    if (why != nullptr) *why = std::move(reason);
    return false;
  };
  if (static_cast<int>(sched.job_slots.size()) != inst.size()) {
    return fail("job_slots size mismatch");
  }
  std::map<SlotTime, int> load;
  for (JobId j = 0; j < inst.size(); ++j) {
    const MultiWindowJob& job = inst.job(j);
    const auto& slots = sched.job_slots[static_cast<std::size_t>(j)];
    if (static_cast<SlotTime>(slots.size()) != job.length) {
      return fail("job " + std::to_string(j) + " wrong unit count");
    }
    SlotTime prev = -1;
    for (SlotTime t : slots) {
      if (t == prev) return fail("duplicate slot for job " + std::to_string(j));
      prev = t;
      if (!job.live_in_slot(t)) {
        return fail("job " + std::to_string(j) + " outside windows at " +
                    std::to_string(t));
      }
      if (!std::binary_search(sched.active_slots.begin(),
                              sched.active_slots.end(), t)) {
        return fail("inactive slot used");
      }
      ++load[t];
    }
  }
  for (const auto& [t, count] : load) {
    if (count > inst.capacity()) {
      return fail("slot " + std::to_string(t) + " over capacity");
    }
  }
  return true;
}

std::optional<ActiveSchedule> mw_solve_minimal_feasible(
    const MultiWindowInstance& inst, const core::RunContext* context,
    bool* cancelled) {
  const std::vector<SlotTime> slots = mw_candidate_slots(inst);
  SlotNetwork network = mw_slot_network(inst, slots);
  std::vector<std::size_t> left_to_right(slots.size());
  std::iota(left_to_right.begin(), left_to_right.end(), std::size_t{0});
  auto kept = close_slots(network, slots, left_to_right, context, cancelled);
  if (!kept.has_value()) return std::nullopt;
  return mw_extract_assignment(inst, std::move(*kept));
}

namespace {

struct SubsetSearchResult {
  std::vector<SlotTime> open;
  bool proven_optimal = true;
};

/// Best (fewest-bits) feasible candidate-slot subset, or nullopt when
/// infeasible. With a context, seeds the incumbent from the
/// minimal-feasible solution and polls every 4096 masks; an interrupted
/// enumeration returns the best subset seen with proven_optimal = false.
std::optional<SubsetSearchResult> mw_best_slot_subset(
    const MultiWindowInstance& inst,
    const core::RunContext* context = nullptr) {
  const std::vector<SlotTime> candidates = mw_candidate_slots(inst);
  const std::size_t m = candidates.size();
  ABT_ASSERT(m <= 22, "brute force limited to 22 candidate slots");
  SubsetSearchResult result;
  long best = -1;
  if (context != nullptr) {
    // Anytime seed: a feasible (if non-minimal-cost) incumbent before the
    // enumeration starts, so even an instantly-expired budget returns one.
    // No seed means the FULL candidate set is infeasible, which proves
    // every subset infeasible — conclude immediately instead of letting
    // the enumeration run past the budget with nothing to return.
    auto minimal = mw_solve_minimal_feasible(inst);
    if (!minimal.has_value()) return std::nullopt;
    best = static_cast<long>(minimal->active_slots.size());
    result.open = std::move(minimal->active_slots);
    context->report_incumbent(static_cast<double>(best),
                              [&] { return core::render_slots(result.open); });
  }
  // Per-flow stop predicate: only armed once a feasible incumbent exists,
  // so an interrupted flow never leaves the search with nothing to return.
  const std::function<bool()> stop =
      context == nullptr ? std::function<bool()>{}
                         : [context] { return context->should_stop(); };
  for (std::uint64_t mask = 0; mask < (1ULL << m); ++mask) {
    if ((mask & 4095ULL) == 0 && context != nullptr && best >= 0 &&
        context->should_stop()) {
      result.proven_optimal = false;
      break;
    }
    const int bits = __builtin_popcountll(mask);
    if (best >= 0 && bits >= best) continue;
    std::vector<SlotTime> open;
    for (std::size_t i = 0; i < m; ++i) {
      if ((mask >> i) & 1ULL) open.push_back(candidates[i]);
    }
    const FeasStatus status = mw_feasibility_with_slots(
        inst, open, best >= 0 ? stop : std::function<bool()>{});
    if (status == FeasStatus::kCancelled) {
      // An abandoned flow proves nothing about this mask — keep the
      // incumbent and stop enumerating instead of misreading it.
      result.proven_optimal = false;
      break;
    }
    if (status == FeasStatus::kFeasible) {
      best = bits;
      result.open = std::move(open);
      if (context != nullptr) {
        context->report_incumbent(
            static_cast<double>(best),
            [&] { return core::render_slots(result.open); });
      }
    }
  }
  if (best < 0) return std::nullopt;
  return result;
}

}  // namespace

long mw_brute_force_opt(const MultiWindowInstance& inst) {
  const auto best = mw_best_slot_subset(inst);
  return best.has_value() ? static_cast<long>(best->open.size()) : -1;
}

std::optional<MultiWindowExactResult> mw_solve_exact_anytime(
    const MultiWindowInstance& inst, MultiWindowExactOptions options) {
  auto best = mw_best_slot_subset(inst, options.context);
  if (!best.has_value()) return std::nullopt;
  MultiWindowExactResult result;
  result.proven_optimal = best->proven_optimal;
  auto schedule = mw_extract_assignment(inst, std::move(best->open));
  if (!schedule.has_value()) return std::nullopt;
  result.schedule = std::move(*schedule);
  return result;
}

}  // namespace abt::active
