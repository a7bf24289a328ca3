#pragma once

// The rebuild-per-trial closing passes that active/minimal_feasible.cpp and
// active/multi_window.cpp shipped before both moved onto one warm
// SlotNetwork, kept verbatim as the reference for (a) the equivalence suite
// in tests/test_minimal_feasible.cpp and (b) BM_MinimalFeasibleNaive in
// bench/bench_perf.cpp. Every trial builds a fresh G_feas and runs a full
// max-flow from zero. Test- and bench-side only, never linked into the
// library. Do not optimize this header; its value is staying frozen.

#include <algorithm>
#include <functional>
#include <numeric>
#include <optional>
#include <vector>

#include "active/feasibility.hpp"
#include "active/minimal_feasible.hpp"
#include "active/multi_window.hpp"
#include "core/active_schedule.hpp"
#include "core/rng.hpp"
#include "core/slotted_instance.hpp"

namespace abt::active::oracle {

inline std::vector<std::size_t> closing_order(
    const core::SlottedInstance& inst,
    const std::vector<core::SlotTime>& slots,
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
      std::vector<int> live_count(slots.size(), 0);
      for (std::size_t i = 0; i < slots.size(); ++i) {
        live_count[i] = static_cast<int>(inst.live_jobs(slots[i]).size());
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

inline std::optional<core::ActiveSchedule> solve_minimal_feasible(
    const core::SlottedInstance& inst, MinimalFeasibleOptions options = {},
    bool* cancelled = nullptr) {
  if (cancelled != nullptr) *cancelled = false;
  const std::function<bool()> cancel_poll =
      options.context == nullptr
          ? std::function<bool()>{}
          : [ctx = options.context] { return ctx->cancelled(); };

  std::vector<core::SlotTime> slots = candidate_slots(inst);
  switch (feasibility_with_slots(inst, slots, cancel_poll)) {
    case FeasStatus::kInfeasible:
      return std::nullopt;
    case FeasStatus::kCancelled:
      if (cancelled != nullptr) *cancelled = true;
      return std::nullopt;
    case FeasStatus::kFeasible:
      break;
  }

  const std::vector<std::size_t> order = closing_order(inst, slots, options);
  std::vector<char> open(slots.size(), 1);

  for (std::size_t idx : order) {
    open[idx] = 0;
    std::vector<core::SlotTime> trial;
    trial.reserve(slots.size());
    for (std::size_t i = 0; i < slots.size(); ++i) {
      if (open[i] != 0) trial.push_back(slots[i]);
    }
    const FeasStatus status = feasibility_with_slots(inst, trial, cancel_poll);
    if (status != FeasStatus::kFeasible) open[idx] = 1;
    if (status == FeasStatus::kCancelled) break;  // keep the feasible set
  }

  std::vector<core::SlotTime> final_slots;
  for (std::size_t i = 0; i < slots.size(); ++i) {
    if (open[i] != 0) final_slots.push_back(slots[i]);
  }
  return extract_assignment(inst, std::move(final_slots));
}

inline std::optional<core::ActiveSchedule> mw_solve_minimal_feasible(
    const MultiWindowInstance& inst) {
  std::vector<core::SlotTime> slots = candidate_slots(inst);
  if (!is_feasible_with_slots(inst, slots)) return std::nullopt;
  for (std::size_t i = 0; i < slots.size();) {
    std::vector<core::SlotTime> trial = slots;
    trial.erase(trial.begin() + static_cast<std::ptrdiff_t>(i));
    if (is_feasible_with_slots(inst, trial)) {
      slots = std::move(trial);
    } else {
      ++i;
    }
  }
  return extract_assignment(inst, std::move(slots));
}

}  // namespace abt::active::oracle
