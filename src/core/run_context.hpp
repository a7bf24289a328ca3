#pragma once

#include <atomic>
#include <chrono>
#include <functional>
#include <limits>
#include <memory>
#include <string>
#include <utility>
#include <vector>

namespace abt::core {

/// Polled cancellation: a CancelSource owns the flag, every CancelToken
/// copied from it observes the same flag. A default-constructed token is
/// never cancelled, so "no cancellation" costs one null check per poll.
/// Thread-safe: cancel() may race with cancelled() from any worker.
///
/// Tokens compose: `a.chained(b)` observes a's flag OR b's (transitively),
/// which is the derivation primitive for child scopes — a portfolio race
/// trips its own source without touching the caller's, while the caller's
/// cancellation still reaches every contestant through the chain.
class CancelToken {
 public:
  CancelToken() = default;

  [[nodiscard]] bool cancelled() const {
    for (const CancelToken* t = this; t != nullptr; t = t->upstream_.get()) {
      if (t->flag_ != nullptr && t->flag_->load(std::memory_order_relaxed)) {
        return true;
      }
    }
    return false;
  }

  [[nodiscard]] bool empty() const {
    return flag_ == nullptr && upstream_ == nullptr;
  }

  /// A token that is cancelled as soon as EITHER this token or `upstream`
  /// is. Chains stay short (races nest a couple of levels at most), so
  /// cancelled() walks them with relaxed loads — no extra allocation on
  /// the poll path, one node per chained() call.
  [[nodiscard]] CancelToken chained(const CancelToken& upstream) const {
    if (upstream.empty()) return *this;
    if (empty()) return upstream;
    CancelToken out;
    out.flag_ = flag_;
    out.upstream_ = std::make_shared<const CancelToken>(
        upstream_ == nullptr ? upstream : upstream_->chained(upstream));
    return out;
  }

 private:
  friend class CancelSource;
  explicit CancelToken(std::shared_ptr<const std::atomic<bool>> flag)
      : flag_(std::move(flag)) {}

  std::shared_ptr<const std::atomic<bool>> flag_;
  std::shared_ptr<const CancelToken> upstream_;
};

class CancelSource {
 public:
  CancelSource() : flag_(std::make_shared<std::atomic<bool>>(false)) {}

  void cancel() { flag_->store(true, std::memory_order_relaxed); }
  [[nodiscard]] bool cancelled() const {
    return flag_->load(std::memory_order_relaxed);
  }
  [[nodiscard]] CancelToken token() const { return CancelToken(flag_); }

 private:
  std::shared_ptr<std::atomic<bool>> flag_;
};

/// A strictly improving incumbent reported by an anytime solver mid-run.
/// `cost` is the solver's own bookkeeping (the final schedule still goes
/// through the registry checker); `elapsed_ms` is measured against the
/// context's start; `schedule` is the solver's compact one-line render of
/// the incumbent (the service's `progress` frames carry it).
struct Incumbent {
  double cost = 0.0;
  double elapsed_ms = 0.0;
  std::string schedule;
};

/// Called from whichever thread found the incumbent — pool workers report
/// concurrently during races and multi-threaded runs, so a hook that
/// keeps state must lock it.
using IncumbentHook = std::function<void(const Incumbent&)>;

/// Compact one-line incumbent renders, shared by the anytime searches so
/// the service's `progress` frames speak one dialect: a job -> group
/// partition ("machine 0: 1 3 | machine 1: 0 2"; jobs with no group yet
/// are omitted) and a slot list ("slots 1 3 5").
[[nodiscard]] inline std::string render_partition(
    const char* label, const std::vector<int>& assignment) {
  int groups = 0;
  for (const int a : assignment) groups = a >= groups ? a + 1 : groups;
  std::string out;
  for (int g = 0; g < groups; ++g) {
    if (!out.empty()) out += " | ";
    out += label;
    out += ' ';
    out += std::to_string(g);
    out += ':';
    for (std::size_t j = 0; j < assignment.size(); ++j) {
      if (assignment[j] == g) {
        out += ' ';
        out += std::to_string(j);
      }
    }
  }
  return out.empty() ? std::string("(empty)") : out;
}

template <typename SlotT>
[[nodiscard]] inline std::string render_slots(const std::vector<SlotT>& open) {
  std::string out = "slots";
  for (const SlotT& s : open) {
    out += ' ';
    out += std::to_string(s);
  }
  return out;
}

/// The per-run invocation context every registered solver receives: a
/// monotonic time budget, a polled cancellation token and an
/// incumbent-reporting hook. Polynomial solvers ignore it entirely; the
/// branch-and-bound / enumeration solvers poll `should_stop()` on a node
/// counter and return their best incumbent (with `Solution::timed_out =
/// true` and `exact = false`) instead of running to completion.
///
/// The clock starts at construction. Drivers that reuse one configured
/// context for many runs (the sweep/campaign engines) call `restarted()`
/// to re-arm the deadline per cell; the budget, token and hook carry over.
///
/// A default-constructed context is unlimited and never cancelled — the
/// legacy "run to completion or refuse" behavior.
class RunContext {
 public:
  RunContext() = default;

  /// Context with a wall-clock budget in milliseconds (<= 0 = unlimited).
  [[nodiscard]] static RunContext with_budget_ms(double budget_ms) {
    RunContext ctx;
    ctx.budget_ms_ = budget_ms > 0.0 ? budget_ms : 0.0;
    return ctx;
  }

  RunContext& set_cancel_token(CancelToken token) {
    cancel_ = std::move(token);
    return *this;
  }
  RunContext& set_incumbent_hook(IncumbentHook hook) {
    hook_ = std::move(hook);
    return *this;
  }

  /// Copy with the clock (and therefore the deadline) re-armed at now.
  [[nodiscard]] RunContext restarted() const {
    RunContext ctx = *this;
    ctx.start_ = std::chrono::steady_clock::now();
    return ctx;
  }

  /// Derives the context a raced / nested sub-run gets: budget = whatever
  /// remains of this context's budget, with a fresh clock; cancellation =
  /// this context's token chained with `extra`, so either side stops the
  /// child but the child's source can never stop the parent; the
  /// incumbent hook carries over. A parent already out of budget yields an
  /// immediately-expiring child (1 microsecond), never an accidentally
  /// unlimited one.
  [[nodiscard]] RunContext child(CancelToken extra = {}) const {
    RunContext ctx;
    ctx.budget_ms_ = has_budget() ? std::max(remaining_ms(), 1e-3) : 0.0;
    ctx.cancel_ = extra.chained(cancel_);
    ctx.hook_ = hook_;
    return ctx;
  }

  [[nodiscard]] const CancelToken& cancel_token() const { return cancel_; }

  [[nodiscard]] double budget_ms() const { return budget_ms_; }
  [[nodiscard]] bool has_budget() const { return budget_ms_ > 0.0; }

  [[nodiscard]] double elapsed_ms() const {
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - start_)
        .count();
  }
  /// Milliseconds left on the budget; +infinity when unlimited.
  [[nodiscard]] double remaining_ms() const {
    if (!has_budget()) return std::numeric_limits<double>::infinity();
    return budget_ms_ - elapsed_ms();
  }
  [[nodiscard]] bool out_of_budget() const {
    return has_budget() && elapsed_ms() >= budget_ms_;
  }
  [[nodiscard]] bool cancelled() const { return cancel_.cancelled(); }

  /// The one predicate search loops poll (amortize over a node counter —
  /// each call reads the monotonic clock).
  [[nodiscard]] bool should_stop() const {
    return cancelled() || out_of_budget();
  }

  /// Reports a strictly improving incumbent to the hook (if any). `render`
  /// (any callable returning a std::string) is invoked ONLY when a hook
  /// is attached, so solvers pass it unconditionally without paying for
  /// the string on ordinary runs. Safe to call from any solver thread;
  /// `const` because solvers only see a read-only context.
  template <typename Render>
  void report_incumbent(double cost, Render&& render) const {
    if (hook_) hook_({cost, elapsed_ms(), std::forward<Render>(render)()});
  }

 private:
  std::chrono::steady_clock::time_point start_ =
      std::chrono::steady_clock::now();
  double budget_ms_ = 0.0;  ///< 0 = unlimited.
  CancelToken cancel_;
  IncumbentHook hook_;
};

}  // namespace abt::core
