#include "active/exact.hpp"

#include <algorithm>

#include "active/feasibility.hpp"
#include "active/minimal_feasible.hpp"
#include "core/assert.hpp"

namespace abt::active {

using core::ActiveSchedule;
using core::SlotTime;
using core::SlottedInstance;

namespace {

/// Hall-style lower bound helper: work(a, b) = total length of jobs whose
/// window lies inside [a, b]; any feasible solution opens at least
/// ceil(work / g) slots there.
class WindowWork {
 public:
  explicit WindowWork(const SlottedInstance& inst) : inst_(&inst) {
    windows_.reserve(static_cast<std::size_t>(inst.size()));
    for (const core::SlottedJob& job : inst.jobs()) {
      windows_.push_back({job.release + 1, job.deadline, job.length});
    }
  }

  /// Lower bound on extra open slots needed, given per-slot state:
  /// state[t] in {kOpen, kClosed, kUndecided}. The deficit of window (a,b)
  /// is ceil(work/g) - open_in(a,b); it must be paid by undecided slots in
  /// (a,b), each of which also adds 1 to the final cost.
  struct Deficit {
    int extra = 0;       ///< max window deficit (extra slots beyond open)
    bool infeasible = false;  ///< deficit exceeds undecided capacity
  };

  enum class SlotState : char { kOpen, kClosed, kUndecided };

  [[nodiscard]] Deficit deficit(const std::vector<SlotState>& state,
                                const std::vector<SlotTime>& slots) const {
    // Enumerate windows by distinct (a, b) pairs from job windows.
    Deficit out;
    for (const Window& wa : windows_) {
      for (const Window& wb : windows_) {
        const SlotTime a = wa.begin;
        const SlotTime b = wb.end;
        if (a > b) continue;
        std::int64_t work = 0;
        for (const Window& w : windows_) {
          if (w.begin >= a && w.end <= b) work += w.length;
        }
        const auto need = static_cast<int>(
            (work + inst_->capacity() - 1) / inst_->capacity());
        int open = 0;
        int undecided = 0;
        for (std::size_t i = 0; i < slots.size(); ++i) {
          if (slots[i] < a || slots[i] > b) continue;
          if (state[i] == SlotState::kOpen) ++open;
          if (state[i] == SlotState::kUndecided) ++undecided;
        }
        const int deficit = need - open;
        if (deficit > undecided) {
          out.infeasible = true;
          return out;
        }
        out.extra = std::max(out.extra, deficit);
      }
    }
    return out;
  }

 private:
  struct Window {
    SlotTime begin;
    SlotTime end;
    SlotTime length;
  };
  const SlottedInstance* inst_;
  std::vector<Window> windows_;
};

class BranchAndBound {
 public:
  BranchAndBound(const SlottedInstance& inst, const ExactOptions& options)
      : inst_(inst),
        options_(options),
        slots_(candidate_slots(inst)),
        work_(inst) {}

  std::optional<ExactResult> run() {
    // The root check polls CANCELLATION only: completing it (and the
    // incumbent seed below) even on an expired budget is what makes the
    // search anytime — a budgeted cell always gets a feasible schedule.
    switch (feasibility_with_slots(inst_, slots_, cancel_poll())) {
      case FeasStatus::kInfeasible:
        return std::nullopt;
      case FeasStatus::kCancelled: {
        ExactResult cancelled;
        cancelled.proven_optimal = false;
        cancelled.timed_out = true;
        cancelled.cancelled = true;
        return cancelled;
      }
      case FeasStatus::kFeasible:
        break;
    }

    // Incumbent: a minimal feasible solution (3-approx) seeds the bound,
    // which is also what makes the search anytime — any interruption
    // still has this (or better) to return.
    MinimalFeasibleOptions minimal_options;
    minimal_options.context = options_.context;
    bool seed_cancelled = false;
    auto incumbent =
        solve_minimal_feasible(inst_, minimal_options, &seed_cancelled);
    if (!incumbent.has_value()) {
      // The root check above proved feasibility, so a missing incumbent
      // can only mean cancellation struck during the seeding pass.
      ABT_ASSERT(seed_cancelled, "feasible instance has minimal solution");
      ExactResult cancelled;
      cancelled.proven_optimal = false;
      cancelled.timed_out = true;
      cancelled.cancelled = true;
      return cancelled;
    }
    best_cost_ = static_cast<int>(incumbent->active_slots.size());
    best_slots_ = incumbent->active_slots;
    if (options_.context != nullptr) {
      options_.context->report_incumbent(
          static_cast<double>(best_cost_),
          [&] { return core::render_slots(best_slots_); });
    }

    state_.assign(slots_.size(), WindowWork::SlotState::kUndecided);
    aborted_ = false;
    dfs(0, 0);

    ExactResult result;
    auto schedule = extract_assignment(inst_, best_slots_);
    ABT_ASSERT(schedule.has_value(), "incumbent must stay feasible");
    result.schedule = std::move(*schedule);
    result.proven_optimal = !aborted_;
    result.timed_out = timed_out_;
    result.nodes_explored = nodes_;
    return result;
  }

 private:
  /// Stop predicate for the flow checks INSIDE the search: budget and
  /// cancellation both count, since aborting mid-search still returns the
  /// incumbent.
  [[nodiscard]] std::function<bool()> stop_poll() const {
    if (options_.context == nullptr) return {};
    return [ctx = options_.context] { return ctx->should_stop(); };
  }

  /// Stop predicate for the pre-search phase: cancellation only, so an
  /// expired budget cannot rob the run of its incumbent.
  [[nodiscard]] std::function<bool()> cancel_poll() const {
    if (options_.context == nullptr) return {};
    return [ctx = options_.context] { return ctx->cancelled(); };
  }

  void dfs(std::size_t index, int open_count) {
    if (aborted_) return;
    ++nodes_;
    if (options_.node_limit > 0 && nodes_ > options_.node_limit) {
      aborted_ = true;
      return;
    }
    // Every node pays a Hall-deficit scan and possibly a max-flow check,
    // so an amortized clock poll every 64 nodes is noise.
    if ((nodes_ & 63) == 0 && options_.context != nullptr &&
        options_.context->should_stop()) {
      aborted_ = true;
      timed_out_ = true;
      return;
    }
    if (open_count >= best_cost_) return;  // cannot strictly improve

    const auto deficit = work_.deficit(state_, slots_);
    if (deficit.infeasible) return;
    if (open_count + deficit.extra >= best_cost_) return;

    if (index == slots_.size()) {
      // All decided; verify with the flow check (Hall bound on single
      // windows is necessary but not sufficient).
      std::vector<SlotTime> open;
      for (std::size_t i = 0; i < slots_.size(); ++i) {
        if (state_[i] == WindowWork::SlotState::kOpen) open.push_back(slots_[i]);
      }
      switch (feasibility_with_slots(inst_, open, stop_poll())) {
        case FeasStatus::kFeasible:
          best_cost_ = open_count;
          best_slots_ = std::move(open);
          if (options_.context != nullptr) {
            options_.context->report_incumbent(
                static_cast<double>(best_cost_),
                [&] { return core::render_slots(best_slots_); });
          }
          break;
        case FeasStatus::kCancelled:
          // An abandoned flow proves nothing — do not accept, stop search.
          aborted_ = true;
          timed_out_ = true;
          break;
        case FeasStatus::kInfeasible:
          break;
      }
      return;
    }

    // Quick feasibility pruning: treat undecided as open; if even that is
    // infeasible, the subtree is dead.
    {
      std::vector<SlotTime> optimistic;
      for (std::size_t i = 0; i < slots_.size(); ++i) {
        if (state_[i] != WindowWork::SlotState::kClosed) {
          optimistic.push_back(slots_[i]);
        }
      }
      switch (feasibility_with_slots(inst_, optimistic, stop_poll())) {
        case FeasStatus::kInfeasible:
          return;  // subtree is dead
        case FeasStatus::kCancelled:
          aborted_ = true;
          timed_out_ = true;
          return;
        case FeasStatus::kFeasible:
          break;
      }
    }

    // Try closing first: finds cheap solutions early.
    state_[index] = WindowWork::SlotState::kClosed;
    dfs(index + 1, open_count);
    state_[index] = WindowWork::SlotState::kOpen;
    dfs(index + 1, open_count + 1);
    state_[index] = WindowWork::SlotState::kUndecided;
  }

  const SlottedInstance& inst_;
  ExactOptions options_;
  std::vector<SlotTime> slots_;
  WindowWork work_;
  std::vector<WindowWork::SlotState> state_;
  int best_cost_ = 0;
  std::vector<SlotTime> best_slots_;
  long nodes_ = 0;
  bool aborted_ = false;
  bool timed_out_ = false;
};

}  // namespace

std::optional<ExactResult> solve_exact(const SlottedInstance& inst,
                                       ExactOptions options) {
  BranchAndBound bnb(inst, options);
  return bnb.run();
}

}  // namespace abt::active
