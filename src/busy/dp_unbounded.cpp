#include "busy/dp_unbounded.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <span>
#include <unordered_map>
#include <utility>

#include "core/assert.hpp"
#include "core/scratch.hpp"

namespace abt::busy {

using core::ContinuousInstance;
using core::Interval;
using core::JobId;

namespace {

/// Search key: (position, interned id of the unsatisfied stragglers in
/// canonical (release, id) order). Positions come from a finite derived
/// set, so exact double equality is safe. Pending sets are hash-consed into
/// a pool — many states share the same straggler set, so the memo key is 16
/// bytes and each distinct set is stored (and hashed) once.
struct StateKey {
  double t;
  int pending_id;

  bool operator==(const StateKey& o) const = default;
};

struct StateKeyHash {
  std::size_t operator()(const StateKey& key) const {
    std::uint64_t h = 1469598103934665603ULL;
    auto mix = [&h](std::uint64_t v) {
      h ^= v;
      h *= 1099511628211ULL;
    };
    std::uint64_t bits = 0;
    static_assert(sizeof(bits) == sizeof(key.t));
    std::memcpy(&bits, &key.t, sizeof(bits));
    mix(bits);
    mix(static_cast<std::uint64_t>(key.pending_id) + 0x9e3779b9ULL);
    return static_cast<std::size_t>(h);
  }
};

struct PendingVecHash {
  std::size_t operator()(const std::vector<JobId>& v) const {
    std::uint64_t h = 1469598103934665603ULL;
    for (JobId j : v) {
      h ^= static_cast<std::uint64_t>(j) + 0x9e3779b9ULL;
      h *= 1099511628211ULL;
    }
    return static_cast<std::size_t>(h);
  }
};

struct StateValue {
  double cost = std::numeric_limits<double>::infinity();
  double chosen_x = 0.0;
  double chosen_y = 0.0;
  bool terminal = false;
};

class UnboundedSolver {
 public:
  UnboundedSolver(const ContinuousInstance& inst,
                  const UnboundedOptions& options)
      : inst_(inst), options_(options) {
    const int n = inst_.size();
    r_.resize(static_cast<std::size_t>(n));
    p_.resize(static_cast<std::size_t>(n));
    k_.resize(static_cast<std::size_t>(n));
    for (JobId j = 0; j < n; ++j) {
      const core::ContinuousJob& job = inst_.job(j);
      r_[static_cast<std::size_t>(j)] = job.release;
      p_[static_cast<std::size_t>(j)] = job.length;
      k_[static_cast<std::size_t>(j)] = job.latest_start();
    }
    expiry_.resize(static_cast<std::size_t>(n));
    for (std::size_t j = 0; j < expiry_.size(); ++j) {
      expiry_[j] = std::max(r_[j], k_[j]);
    }
    // Candidate window starts: releases and latest starts. An exchange
    // argument (push each window's anchor right, merging on collision)
    // shows some optimal solution anchors every window at one of these.
    anchors_.reserve(2 * r_.size());
    anchors_.insert(anchors_.end(), r_.begin(), r_.end());
    anchors_.insert(anchors_.end(), k_.begin(), k_.end());
    std::sort(anchors_.begin(), anchors_.end());
    anchors_.erase(std::unique(anchors_.begin(), anchors_.end()),
                   anchors_.end());
    // Jobs indexed by release once, so unsatisfied_at binary-searches the
    // released-at-or-after-t suffix instead of scanning and sorting all n
    // jobs per memoized state.
    by_release_.reserve(static_cast<std::size_t>(n));
    for (JobId j = 0; j < n; ++j) {
      by_release_.emplace_back(r_[static_cast<std::size_t>(j)], j);
    }
    std::sort(by_release_.begin(), by_release_.end());
    // The end (r_j + p_j) and expiry orders, sorted once so that no state
    // sorts its unsatisfied jobs. Filled in release order: on interval jobs
    // both are then (nearly) sorted already.
    by_end_.reserve(static_cast<std::size_t>(n));
    by_expiry_.reserve(static_cast<std::size_t>(n));
    for (const auto& [r, id] : by_release_) {
      const auto j = static_cast<std::size_t>(id);
      by_end_.emplace_back(r + p_[j], r);
      by_expiry_.emplace_back(expiry_[j], id);
    }
    std::sort(by_end_.begin(), by_end_.end());
    std::sort(by_expiry_.begin(), by_expiry_.end());
  }

  UnboundedSolution run() {
    UnboundedSolution out;
    const int n = inst_.size();
    out.starts.assign(static_cast<std::size_t>(n), 0.0);
    if (n == 0) return out;

    const double t0 = -std::numeric_limits<double>::infinity();
    const int empty_id = intern({});
    const double best = solve(t0, empty_id);
    if (exploded_) {
      // Fallback: push-left at release (valid upper bound; never triggered
      // by the test/bench workloads, which assert `exact`).
      for (JobId j = 0; j < n; ++j) {
        out.starts[static_cast<std::size_t>(j)] = r_[static_cast<std::size_t>(j)];
      }
      out.exact = false;
      out.timed_out = timed_out_;
    } else {
      reconstruct(t0, empty_id, out.starts);
      out.exact = true;
      (void)best;
    }
    std::vector<Interval> runs;
    runs.reserve(static_cast<std::size_t>(n));
    for (JobId j = 0; j < n; ++j) {
      const double s = out.starts[static_cast<std::size_t>(j)];
      runs.push_back({s, s + p_[static_cast<std::size_t>(j)]});
    }
    out.windows = core::interval_union(runs);
    out.busy_time = core::span_of(out.windows);
    out.nodes = static_cast<long>(memo_.size());
    out.interned = static_cast<long>(interner_.size());
    return out;
  }

 private:
  /// Obligation of job j for a window anchored at x: the earliest end a
  /// window starting at x must have to satisfy j (push-left position).
  [[nodiscard]] double obligation(JobId j, double x) const {
    return std::max(r_[static_cast<std::size_t>(j)], x) +
           p_[static_cast<std::size_t>(j)];
  }

  /// All jobs not yet satisfied at state (t, pending): the carried
  /// stragglers plus every job released at or after t. Pending jobs are all
  /// released strictly before t and kept in (release, id) order, and the
  /// suffix of `by_release_` from the binary-searched cut is in the same
  /// order, so concatenation yields the canonical ordering with no sort.
  /// The list lives on `arena`, under the caller's scope.
  [[nodiscard]] std::span<const JobId> unsatisfied_at(
      double t, const std::vector<JobId>& pending,
      core::MonotonicArena& arena) const {
    auto first = std::lower_bound(
        by_release_.begin(), by_release_.end(), t,
        [](const std::pair<double, JobId>& job, double v) {
          return job.first < v;
        });
    const std::span<JobId> out = arena.alloc<JobId>(
        pending.size() + static_cast<std::size_t>(by_release_.end() - first));
    auto it = std::copy(pending.begin(), pending.end(), out.begin());
    for (; first != by_release_.end(); ++first) *it++ = first->second;
    return out;
  }

  /// Interns a pending vector, returning its pool id (hash-consing: equal
  /// vectors share one id and one stored copy). Lookup-first: the common
  /// hit path allocates nothing — emplace would build and discard a map
  /// node per call.
  int intern(std::vector<JobId> pending) {
    if (const auto it = interner_.find(pending); it != interner_.end()) {
      return it->second;
    }
    const auto it =
        interner_.emplace(std::move(pending), static_cast<int>(pool_.size()))
            .first;
    pool_.push_back(&it->first);
    return it->second;
  }

  [[nodiscard]] const std::vector<JobId>& pending_set(int id) const {
    return *pool_[static_cast<std::size_t>(id)];
  }

  double solve(double t, int pending_id) {
    if (exploded_) return std::numeric_limits<double>::infinity();
    StateKey key{t, pending_id};
    if (const auto it = memo_.find(key); it != memo_.end()) {
      return it->second.cost;
    }
    if (static_cast<long>(memo_.size()) >= options_.state_limit) {
      exploded_ = true;
      return std::numeric_limits<double>::infinity();
    }
    if ((++polls_ & 1023) == 0 && options_.context != nullptr &&
        options_.context->should_stop()) {
      exploded_ = true;
      timed_out_ = true;
      return std::numeric_limits<double>::infinity();
    }

    // Per-state scratch lives on the thread arena; a child state's scope
    // opens and closes inside this one, so the spans stay valid across the
    // recursive calls below.
    core::MonotonicArena& arena = core::thread_arena();
    const core::ArenaScope scope(arena);
    const std::span<const JobId> todo =
        unsatisfied_at(t, pending_set(pending_id), arena);
    StateValue value;
    if (todo.empty()) {
      value.cost = 0.0;
      value.terminal = true;
      memo_.emplace(std::move(key), value);
      return 0.0;
    }

    // The next window is the earliest remaining, so it must start no later
    // than every unsatisfied job's latest start.
    double limit = std::numeric_limits<double>::infinity();
    for (JobId j : todo) {
      limit = std::min(limit, k_[static_cast<std::size_t>(j)]);
    }

    const std::size_t m = todo.size();

    // A window [x, y] is dead when it leaves unsatisfied (obligation > y)
    // a job that is released (r_j < y) and past its latest start
    // (k_j < y): that straggler has expired. Both tests are expiry_j < y,
    // so listing todo by expiry once lets each anchor sweep its ascending
    // ends with a running max of obligations over the expired jobs: one
    // O(1) test per (x, y) instead of a rescan of todo. The list merges the
    // jobs released at or after t, filtered from the global expiry order,
    // with the few sorted stragglers — no per-state sort of todo.
    const std::vector<JobId>& pending = pending_set(pending_id);
    const std::span<JobId> stragglers = arena.alloc<JobId>(pending.size());
    std::copy(pending.begin(), pending.end(), stragglers.begin());
    std::sort(stragglers.begin(), stragglers.end(), [this](JobId a, JobId b) {
      return expiry_[static_cast<std::size_t>(a)] <
             expiry_[static_cast<std::size_t>(b)];
    });
    const std::span<JobId> by_expiry = arena.alloc<JobId>(m);
    {
      std::size_t out = 0;
      auto straggler = stragglers.begin();
      for (const auto& [expiry, j] : by_expiry_) {
        if (r_[static_cast<std::size_t>(j)] < t) continue;
        for (; straggler != stragglers.end() &&
               expiry_[static_cast<std::size_t>(*straggler)] < expiry;
             ++straggler) {
          by_expiry[out++] = *straggler;
        }
        by_expiry[out++] = j;
      }
      for (; straggler != stragglers.end(); ++straggler) {
        by_expiry[out++] = *straggler;
      }
      ABT_DBG_ASSERT(out == m, "expiry order must list every todo job");
    }

    // Candidate ends of a window anchored at x are the obligations
    // max(r_j, x) + p_j: x + p_j for the few jobs released by x (a prefix
    // of todo, which is in release order), r_j + p_j for the rest — the
    // global (r_j + p_j) order filtered to r_j > x. Merging the two sorted
    // lists replaces a per-anchor sort of every obligation.
    const std::span<double> ends = arena.alloc<double>(m);
    const std::span<double> released = arena.alloc<double>(m);
    for (auto anchor = std::lower_bound(anchors_.begin(), anchors_.end(), t);
         anchor != anchors_.end() && *anchor <= limit + 1e-12; ++anchor) {
      const double x = *anchor;
      if (options_.context != nullptr && options_.context->should_stop()) {
        exploded_ = true;
        timed_out_ = true;
        return std::numeric_limits<double>::infinity();
      }
      std::size_t num_released = 0;
      while (num_released < m &&
             r_[static_cast<std::size_t>(todo[num_released])] <= x) {
        released[num_released] =
            x + p_[static_cast<std::size_t>(todo[num_released])];
        ++num_released;
      }
      std::sort(released.begin(), released.begin() + num_released);
      std::size_t num_ends = 0;
      const auto add_end = [&](double y) {
        if (num_ends == 0 || ends[num_ends - 1] != y) ends[num_ends++] = y;
      };
      std::size_t next_released = 0;
      for (const auto& [end, r] : by_end_) {
        if (r <= x) continue;
        for (; next_released < num_released && released[next_released] <= end;
             ++next_released) {
          add_end(released[next_released]);
        }
        add_end(end);
      }
      for (; next_released < num_released; ++next_released) {
        add_end(released[next_released]);
      }
      std::size_t expired = 0;
      double expired_max = -std::numeric_limits<double>::infinity();
      for (const double y : ends.first(num_ends)) {
        while (expired < m &&
               expiry_[static_cast<std::size_t>(by_expiry[expired])] < y) {
          expired_max =
              std::max(expired_max, obligation(by_expiry[expired], x));
          ++expired;
        }
        if (expired_max > y + 1e-12) continue;  // a longer window may save it
        // Jobs satisfied by window [x, y]; the rest roll forward.
        std::vector<JobId> next_pending;
        next_pending.reserve(todo.size());
        for (JobId j : todo) {
          if (r_[static_cast<std::size_t>(j)] >= y) break;  // future
          if (obligation(j, x) <= y + 1e-12) continue;  // satisfied
          next_pending.push_back(j);
        }
        const double sub = solve(y, intern(std::move(next_pending)));
        if (exploded_) return std::numeric_limits<double>::infinity();
        const double total = (y - x) + sub;
        if (total < value.cost - 1e-12) {
          value.cost = total;
          value.chosen_x = x;
          value.chosen_y = y;
        }
      }
    }
    ABT_ASSERT(value.cost < std::numeric_limits<double>::infinity(),
               "structurally valid instance always has a schedule");
    const double cost = value.cost;
    memo_.emplace(std::move(key), value);
    return cost;
  }

  void reconstruct(double t, int pending_id, std::vector<double>& starts) {
    while (true) {
      const auto it = memo_.find(StateKey{t, pending_id});
      ABT_ASSERT(it != memo_.end(), "state missing during reconstruction");
      const StateValue& value = it->second;
      if (value.terminal) return;
      const double x = value.chosen_x;
      const double y = value.chosen_y;
      const core::ArenaScope scope(core::thread_arena());
      const std::span<const JobId> todo =
          unsatisfied_at(t, pending_set(pending_id), core::thread_arena());
      std::vector<JobId> next_pending;
      for (JobId j : todo) {
        if (obligation(j, x) <= y + 1e-12) {
          starts[static_cast<std::size_t>(j)] =
              std::max(r_[static_cast<std::size_t>(j)], x);
        } else if (r_[static_cast<std::size_t>(j)] < y) {
          next_pending.push_back(j);
        }
      }
      t = y;
      pending_id = intern(std::move(next_pending));
    }
  }

  const ContinuousInstance& inst_;
  UnboundedOptions options_;
  std::vector<double> r_;
  std::vector<double> p_;
  std::vector<double> k_;
  std::vector<double> expiry_;  ///< max(r_j, k_j): past it j must be done.
  std::vector<double> anchors_;
  std::vector<std::pair<double, JobId>> by_release_;  ///< (r_j, j) sorted.
  std::vector<std::pair<double, double>> by_end_;  ///< (r_j + p_j, r_j).
  std::vector<std::pair<double, JobId>> by_expiry_;  ///< (expiry_j, j).
  std::unordered_map<StateKey, StateValue, StateKeyHash> memo_;
  /// Hash-consing pool: content -> id, plus id -> content pointers (stable
  /// across rehash because unordered_map nodes never move).
  std::unordered_map<std::vector<JobId>, int, PendingVecHash> interner_;
  std::vector<const std::vector<JobId>*> pool_;
  long polls_ = 0;
  bool exploded_ = false;
  bool timed_out_ = false;
};

}  // namespace

UnboundedSolution solve_unbounded(const ContinuousInstance& inst,
                                  UnboundedOptions options) {
  ABT_ASSERT(inst.structurally_valid(), "invalid instance");
  UnboundedSolver solver(inst, options);
  return solver.run();
}

ContinuousInstance freeze_to_interval_instance(
    const ContinuousInstance& inst, const UnboundedSolution& solution) {
  std::vector<core::ContinuousJob> jobs;
  jobs.reserve(static_cast<std::size_t>(inst.size()));
  for (JobId j = 0; j < inst.size(); ++j) {
    const double s = solution.starts[static_cast<std::size_t>(j)];
    const double p = inst.job(j).length;
    jobs.push_back({s, s + p, p});
  }
  return ContinuousInstance(std::move(jobs), inst.capacity());
}

}  // namespace abt::busy
