#include "active/minimal_feasible.hpp"

#include <algorithm>
#include <functional>
#include <numeric>

#include "active/feasibility.hpp"
#include "active/slot_network.hpp"
#include "core/rng.hpp"

namespace abt::active {

using core::ActiveSchedule;
using core::SlotTime;
using core::SlottedInstance;

namespace {

template <core::ActiveInstance Instance>
std::vector<std::size_t> closing_order(const Instance& inst,
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
      for (const auto& job : inst.jobs()) {
        job.for_each_window([&](SlotTime release, SlotTime deadline) {
          ++live_at[static_cast<std::size_t>(release) + 1];
          --live_at[static_cast<std::size_t>(deadline) + 1];
        });
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

template <core::ActiveInstance Instance>
std::optional<ActiveSchedule> solve_minimal_feasible(
    const Instance& inst, MinimalFeasibleOptions options, bool* cancelled) {
  // Cancellation only — never the budget. A deadline must not change what
  // this polynomial solver returns; a hard cancel may stop the closing
  // pass early because any prefix of it leaves a feasible set. It is
  // polled inside the first flow and once per trial.
  const core::RunContext* context = options.context;
  const std::function<bool()> cancel =
      context == nullptr ? std::function<bool()>{}
                         : [context] { return context->cancelled(); };
  const std::vector<SlotTime> slots = candidate_slots(inst);
  const std::vector<std::size_t> order = closing_order(inst, slots, options);
  SlotNetwork network = slot_network(inst, slots);
  bool flow_cancelled = false;
  const auto deficit = network.solve(cancel, &flow_cancelled);
  if (cancelled != nullptr) *cancelled = flow_cancelled;
  if (flow_cancelled || deficit != 0) return std::nullopt;
  // One pass suffices: closing slots only shrinks the feasible set, so a
  // slot that could not be closed earlier can never be closed later. A
  // cancel mid-pass leaves the untried slots open, which is still feasible.
  std::vector<char> open(slots.size(), 1);
  for (std::size_t slot : order) {
    if (cancel && cancel()) break;
    if (network.try_close(static_cast<int>(slot))) open[slot] = 0;
  }
  std::vector<SlotTime> kept;
  for (std::size_t i = 0; i < slots.size(); ++i) {
    if (open[i] != 0) kept.push_back(slots[i]);
  }
  // The final extraction must complete to return anything at all — it is
  // one flow on an already-feasible set, so it is not worth interrupting.
  return extract_assignment(inst, std::move(kept));
}

template std::optional<ActiveSchedule> solve_minimal_feasible(
    const SlottedInstance&, MinimalFeasibleOptions, bool*);
template std::optional<ActiveSchedule> solve_minimal_feasible(
    const core::MultiWindowInstance&, MinimalFeasibleOptions, bool*);

}  // namespace abt::active
