#include "active/multi_window.hpp"

#include <functional>

#include "active/feasibility.hpp"
#include "active/minimal_feasible.hpp"
#include "core/assert.hpp"

namespace abt::active {

using core::SlotTime;

namespace {

struct SubsetSearchResult {
  std::vector<SlotTime> open;
  bool proven_optimal = true;
};

/// Best (fewest-bits) feasible candidate-slot subset, or nullopt when
/// infeasible. With a context, seeds the incumbent from the
/// minimal-feasible solution and polls every 4096 masks; an interrupted
/// enumeration returns the best subset seen with proven_optimal = false.
/// A mask with fewer bits than the mass bound ceil(P / g) has too little
/// room to be feasible, so it is skipped, and an incumbent that meets the
/// bound ends the search: neither changes the subset returned.
std::optional<SubsetSearchResult> mw_best_slot_subset(
    const MultiWindowInstance& inst,
    const core::RunContext* context = nullptr) {
  const std::vector<SlotTime> candidates = candidate_slots(inst);
  const std::size_t m = candidates.size();
  ABT_ASSERT(m <= 22, "brute force limited to 22 candidate slots");
  const long mass_bound = static_cast<long>(inst.mass_lower_bound());
  SubsetSearchResult result;
  long best = -1;
  if (context != nullptr) {
    // Anytime seed: a feasible (if non-minimal-cost) incumbent before the
    // enumeration starts, so even an instantly-expired budget returns one.
    // No seed means the FULL candidate set is infeasible, which proves
    // every subset infeasible — conclude immediately instead of letting
    // the enumeration run past the budget with nothing to return.
    auto minimal = solve_minimal_feasible(inst);
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
  for (std::uint64_t mask = 0; mask < (1ULL << m) && best != mass_bound;
       ++mask) {
    if ((mask & 4095ULL) == 0 && context != nullptr && best >= 0 &&
        context->should_stop()) {
      result.proven_optimal = false;
      break;
    }
    const int bits = __builtin_popcountll(mask);
    if (bits < mass_bound || (best >= 0 && bits >= best)) continue;
    std::vector<SlotTime> open;
    for (std::size_t i = 0; i < m; ++i) {
      if ((mask >> i) & 1ULL) open.push_back(candidates[i]);
    }
    const FeasStatus status = feasibility_with_slots(
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
  auto schedule = extract_assignment(inst, std::move(best->open));
  if (!schedule.has_value()) return std::nullopt;
  result.schedule = std::move(*schedule);
  return result;
}

}  // namespace abt::active
