#include "active/minimal_feasible.hpp"

#include <algorithm>
#include <numeric>

#include "active/feasibility.hpp"
#include "active/slot_network.hpp"
#include "core/rng.hpp"

namespace abt::active {

using core::ActiveSchedule;
using core::SlotTime;
using core::SlottedInstance;

namespace {

std::vector<std::size_t> closing_order(const SlottedInstance& inst,
                                       const std::vector<SlotTime>& slots,
                                       const MinimalFeasibleOptions& options) {
  std::vector<std::size_t> order(slots.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  switch (options.order) {
    case CloseOrder::kLeftToRight:
      break;  // already ascending
    case CloseOrder::kRightToLeft:
      std::reverse(order.begin(), order.end());
      break;
    case CloseOrder::kSparsestFirst:
    case CloseOrder::kDensestFirst: {
      // Live jobs per slot time from one difference array over the
      // windows (release, deadline], then read off at each slot.
      std::vector<int> live_at(static_cast<std::size_t>(inst.horizon()) + 2,
                               0);
      for (const core::SlottedJob& job : inst.jobs()) {
        ++live_at[static_cast<std::size_t>(job.release) + 1];
        --live_at[static_cast<std::size_t>(job.deadline) + 1];
      }
      std::partial_sum(live_at.begin(), live_at.end(), live_at.begin());
      std::vector<int> live_count(slots.size(), 0);
      for (std::size_t i = 0; i < slots.size(); ++i) {
        live_count[i] = live_at[static_cast<std::size_t>(slots[i])];
      }
      std::stable_sort(order.begin(), order.end(),
                       [&](std::size_t a, std::size_t b) {
                         return options.order == CloseOrder::kSparsestFirst
                                    ? live_count[a] < live_count[b]
                                    : live_count[a] > live_count[b];
                       });
      break;
    }
    case CloseOrder::kRandom: {
      core::Rng rng(options.seed);
      std::shuffle(order.begin(), order.end(), rng.engine());
      break;
    }
  }
  return order;
}

}  // namespace

std::optional<ActiveSchedule> solve_minimal_feasible(
    const SlottedInstance& inst, MinimalFeasibleOptions options,
    bool* cancelled) {
  // Cancellation only — never the budget. A deadline must not change what
  // this polynomial solver returns; a hard cancel may stop the closing
  // pass early because any prefix of it leaves a feasible set.
  const std::vector<SlotTime> slots = candidate_slots(inst);
  SlotNetwork network = slot_network(inst, slots);
  auto kept = close_slots(network, slots, closing_order(inst, slots, options),
                          options.context, cancelled);
  if (!kept.has_value()) return std::nullopt;
  // The final extraction must complete to return anything at all — it is
  // one flow on an already-feasible set, so it is not worth interrupting.
  return extract_assignment(inst, std::move(*kept));
}

}  // namespace abt::active
