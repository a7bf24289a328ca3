#include "active/lp_rounding.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "active/feasibility.hpp"
#include "active/lp_model.hpp"
#include "active/slot_network.hpp"
#include "core/assert.hpp"

namespace abt::active {

using core::ActiveSchedule;
using core::JobId;
using core::SlotTime;
using core::SlottedInstance;

RightShiftedLp right_shift(const SlottedInstance& inst,
                           const std::vector<SlotTime>& slots,
                           const std::vector<double>& y) {
  RightShiftedLp out;
  out.deadlines.reserve(static_cast<std::size_t>(inst.size()));
  for (const core::SlottedJob& job : inst.jobs()) {
    out.deadlines.push_back(job.deadline);
  }
  std::sort(out.deadlines.begin(), out.deadlines.end());
  out.deadlines.erase(std::unique(out.deadlines.begin(), out.deadlines.end()),
                      out.deadlines.end());
  out.segment_mass.assign(out.deadlines.size(), 0.0);

  // Y_i = sum of y_t over slots in (td_{i-1}, td_i]. Right-shifting within a
  // segment preserves feasibility (Lemma 3): every job live strictly inside
  // segment i has deadline >= td_i, so its mass can move right.
  std::size_t seg = 0;
  for (std::size_t i = 0; i < slots.size(); ++i) {
    while (seg < out.deadlines.size() && slots[i] > out.deadlines[seg]) ++seg;
    if (seg >= out.deadlines.size()) break;  // slots past last deadline: y=0
    out.segment_mass[seg] += y[i];
    out.objective += y[i];
  }
  return out;
}

namespace {

/// Bookkeeping for the rounding pass: candidate slots with an open/closed
/// bit, supporting "open the latest closed candidate slot <= limit".
class SlotLedger {
 public:
  explicit SlotLedger(std::vector<SlotTime> slots)
      : slots_(std::move(slots)), open_(slots_.size(), 0) {}

  /// Opens up to `count` latest closed slots in (lo, hi]; returns how many
  /// were opened.
  int open_latest(int count, SlotTime lo, SlotTime hi) {
    int opened = 0;
    for (auto i = static_cast<std::ptrdiff_t>(slots_.size()) - 1;
         i >= 0 && opened < count; --i) {
      const auto idx = static_cast<std::size_t>(i);
      if (slots_[idx] > hi || open_[idx] != 0) continue;
      if (slots_[idx] <= lo) break;
      open_[idx] = 1;
      ++opened;
    }
    return opened;
  }

  [[nodiscard]] std::vector<SlotTime> open_slots() const {
    std::vector<SlotTime> out;
    for (std::size_t i = 0; i < slots_.size(); ++i) {
      if (open_[i] != 0) out.push_back(slots_[i]);
    }
    return out;
  }

  [[nodiscard]] int open_count() const {
    return static_cast<int>(
        std::count(open_.begin(), open_.end(), char{1}));
  }

  [[nodiscard]] std::size_t size() const { return slots_.size(); }
  [[nodiscard]] bool is_open(std::size_t i) const { return open_[i] != 0; }

 private:
  std::vector<SlotTime> slots_;
  std::vector<char> open_;
};

/// The rounding pass's prefix check, "do all jobs due by td fit in the
/// slots opened so far?", asked once or twice per deadline. Both the job
/// prefix and the open slots only grow, so one SlotNetwork over every job
/// and candidate slot grows with them (SlotNetwork::start_empty): each
/// check admits the newly due jobs, opens the newly opened slots and
/// routes only the work not yet routed.
class PrefixFlow {
 public:
  PrefixFlow(const SlottedInstance& inst, const std::vector<SlotTime>& slots)
      : inst_(inst),
        network_(slot_network(inst, slots)),
        by_deadline_(static_cast<std::size_t>(inst.size())) {
    network_.start_empty();
    std::iota(by_deadline_.begin(), by_deadline_.end(), JobId{0});
    std::stable_sort(by_deadline_.begin(), by_deadline_.end(),
                     [&inst](JobId a, JobId b) {
                       return inst.job(a).deadline < inst.job(b).deadline;
                     });
  }

  FeasStatus check(SlotTime td, const SlotLedger& ledger,
                   const std::function<bool()>& stop) {
    for (; admitted_ < by_deadline_.size() &&
           inst_.job(by_deadline_[admitted_]).deadline <= td;
         ++admitted_) {
      network_.admit_job(by_deadline_[admitted_]);
    }
    for (std::size_t i = 0; i < ledger.size(); ++i) {
      if (ledger.is_open(i)) network_.open_slot(static_cast<int>(i));
    }
    bool cancelled = false;
    const SlotNetwork::Cap deficit = network_.route(stop, &cancelled);
    if (cancelled) return FeasStatus::kCancelled;
    return deficit == 0 ? FeasStatus::kFeasible : FeasStatus::kInfeasible;
  }

 private:
  const SlottedInstance& inst_;
  SlotNetwork network_;
  std::vector<JobId> by_deadline_;
  std::size_t admitted_ = 0;  // prefix of by_deadline_ admitted
};

}  // namespace

std::optional<LpRoundingResult> solve_lp_rounding(const SlottedInstance& inst,
                                                  const core::RunContext* ctx) {
  // Same stop predicate the LP solve uses, now also polled inside every
  // feasibility max-flow — the rounding's flow checks used to be the one
  // place a cancelled cell could keep grinding.
  const std::function<bool()> stop =
      ctx == nullptr ? std::function<bool()>{}
                     : [ctx] { return ctx->should_stop(); };
  const auto cancelled_result = [] {
    LpRoundingResult cancelled;
    cancelled.cancelled = true;
    return cancelled;
  };

  // The feasibility flow over every candidate slot doubles as LP1's
  // starting point: its integral assignment is a primal-feasible basis.
  std::vector<SlotTime> candidates = candidate_slots(inst);
  std::optional<SlotNetwork> all_open = slot_network(inst, candidates);
  bool flow_cancelled = false;
  const SlotNetwork::Cap deficit = all_open->solve(stop, &flow_cancelled);
  if (flow_cancelled) return cancelled_result();
  if (deficit != 0) return std::nullopt;

  const ActiveTimeLp model(inst, ctx);
  if (model.build_cancelled()) return cancelled_result();
  const lp::StartBasis start = model.crash_basis(*all_open, candidates);
  all_open.reset();  // its flow buffers serve the prefix checks below
  const ActiveLpSolution lp = solve_active_lp(model, ctx, &start);
  if (lp.status == lp::SolveStatus::kCancelled) return cancelled_result();
  ABT_ASSERT(lp.status == lp::SolveStatus::kOptimal,
             "LP must be solvable for a feasible instance");

  const RightShiftedLp rs = right_shift(inst, model.slots(), lp.y);

  SlotLedger ledger(candidates);
  PrefixFlow prefix(inst, candidates);
  LpRoundingResult result;
  result.lp_objective = lp.objective;
  result.lp_pivots = lp.pivots;

  constexpr double kEps = 1e-7;
  double carry = 0.0;  // the paper's proxy value, always < 1/2
  SlotTime prev_deadline = 0;

  for (std::size_t i = 0; i < rs.deadlines.size(); ++i) {
    const SlotTime td = rs.deadlines[i];
    const double total = rs.segment_mass[i] + carry;
    carry = 0.0;
    auto full = static_cast<int>(std::floor(total + kEps));
    double frac = total - full;
    if (frac < kEps) frac = 0.0;

    // Can everything due by td run in the slots opened so far?
    bool prefix_cancelled = false;
    auto prefix_feasible = [&]() {
      const FeasStatus status = prefix.check(td, ledger, stop);
      if (status == FeasStatus::kCancelled) prefix_cancelled = true;
      return status == FeasStatus::kFeasible;
    };

    // Fully open slots: the last floor(total) slots of the segment; overflow
    // (possible when the carried proxy tips the sum past the segment size)
    // spills into the latest closed slots of earlier segments, which is
    // where the proxy's actual slot lives.
    const int in_segment = ledger.open_latest(full, prev_deadline, td);
    if (in_segment < full) {
      const int spilled = ledger.open_latest(full - in_segment, 0, td);
      ABT_ASSERT(in_segment + spilled == full,
                 "LP mass exceeds available candidate slots");
    }

    if (frac >= 0.5 - kEps && frac > 0.0) {
      // Half-open slot: round up unconditionally (charges itself twice).
      if (ledger.open_latest(1, prev_deadline, td) == 0) {
        ledger.open_latest(1, 0, td);
      }
    } else if (frac > 0.0) {
      // Barely open slot: close it when the prefix stays feasible and carry
      // its value as a proxy; otherwise open it.
      if (prefix_feasible()) {
        carry = frac;
      } else if (prefix_cancelled) {
        return cancelled_result();
      } else {
        if (ledger.open_latest(1, prev_deadline, td) == 0) {
          ledger.open_latest(1, 0, td);
        }
      }
    }

    // Defensive repair: the paper's Lemmas 4-6 prove this never fires; it
    // keeps the implementation safe against numerical edge cases and is
    // reported so tests can assert it stayed at zero.
    while (!prefix_feasible()) {
      if (prefix_cancelled) return cancelled_result();
      if (ledger.open_latest(1, 0, td) == 0) {
        ABT_ASSERT(false,
                   "prefix infeasible with all candidate slots open; "
                   "instance feasibility was checked earlier");
      }
      ++result.repair_opens;
    }

    prev_deadline = td;
  }

  bool extract_cancelled = false;
  auto schedule =
      extract_assignment(inst, ledger.open_slots(), stop, &extract_cancelled);
  if (extract_cancelled) return cancelled_result();
  ABT_ASSERT(schedule.has_value(), "final rounded slot set must be feasible");
  result.schedule = std::move(*schedule);
  return result;
}

}  // namespace abt::active
