#pragma once

// The g = infinity DP that busy/dp_unbounded.cpp shipped before its
// transition rejected dead (anchor, end) pairs with a running maximum,
// kept verbatim as the reference for (a) the equivalence suite in
// tests/test_dp_unbounded.cpp and (b) BM_UnboundedDpNaive in
// bench/bench_perf.cpp. Each candidate end rescans every unsatisfied job.
// Test- and bench-side only, never linked into the library. Do not
// optimize this header; its value is staying frozen.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <numeric>
#include <unordered_map>
#include <vector>

#include "busy/dp_unbounded.hpp"
#include "core/assert.hpp"
#include "core/continuous_instance.hpp"
#include "core/interval.hpp"

namespace abt::busy::oracle {

using core::ContinuousInstance;
using core::Interval;
using core::JobId;

namespace detail {


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
    // Candidate window starts: releases and latest starts. An exchange
    // argument (push each window's anchor right, merging on collision)
    // shows some optimal solution anchors every window at one of these.
    anchors_ = r_;
    anchors_.insert(anchors_.end(), k_.begin(), k_.end());
    std::sort(anchors_.begin(), anchors_.end());
    anchors_.erase(std::unique(anchors_.begin(), anchors_.end()),
                   anchors_.end());
    // Jobs indexed by release once, so unsatisfied_at binary-searches the
    // released-at-or-after-t suffix instead of scanning and sorting all n
    // jobs per memoized state.
    by_release_.resize(static_cast<std::size_t>(n));
    std::iota(by_release_.begin(), by_release_.end(), JobId{0});
    std::sort(by_release_.begin(), by_release_.end(), [this](JobId a, JobId b) {
      const double ra = r_[static_cast<std::size_t>(a)];
      const double rb = r_[static_cast<std::size_t>(b)];
      return ra < rb || (ra == rb && a < b);
    });
    release_sorted_.reserve(by_release_.size());
    for (JobId j : by_release_) {
      release_sorted_.push_back(r_[static_cast<std::size_t>(j)]);
    }
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
  [[nodiscard]] std::vector<JobId> unsatisfied_at(
      double t, const std::vector<JobId>& pending) const {
    const auto cut =
        std::lower_bound(release_sorted_.begin(), release_sorted_.end(), t);
    const auto first =
        by_release_.begin() + (cut - release_sorted_.begin());
    std::vector<JobId> out;
    out.reserve(pending.size() +
                static_cast<std::size_t>(by_release_.end() - first));
    out.insert(out.end(), pending.begin(), pending.end());
    out.insert(out.end(), first, by_release_.end());
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

    const std::vector<JobId> todo = unsatisfied_at(t, pending_set(pending_id));
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

    for (double x : anchors_) {
      if (x < t || x > limit + 1e-12) continue;
      // Candidate ends: obligations of the unsatisfied jobs.
      std::vector<double> ends;
      ends.reserve(todo.size());
      for (JobId j : todo) ends.push_back(obligation(j, x));
      std::sort(ends.begin(), ends.end());
      ends.erase(std::unique(ends.begin(), ends.end()), ends.end());
      for (double y : ends) {
        // Jobs satisfied by window [x, y]; the rest roll forward.
        std::vector<JobId> next_pending;
        next_pending.reserve(todo.size());
        bool dead = false;
        for (JobId j : todo) {
          if (obligation(j, x) <= y + 1e-12) continue;  // satisfied
          if (r_[static_cast<std::size_t>(j)] >= y) continue;  // future
          if (k_[static_cast<std::size_t>(j)] < y) {
            dead = true;  // straggler expired; a longer window may save it
            break;
          }
          next_pending.push_back(j);
        }
        if (dead) continue;
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
      const std::vector<JobId> todo = unsatisfied_at(t, pending_set(pending_id));
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
  std::vector<double> anchors_;
  std::vector<JobId> by_release_;        ///< Ids in (release, id) order.
  std::vector<double> release_sorted_;   ///< r_ values along by_release_.
  std::unordered_map<StateKey, StateValue, StateKeyHash> memo_;
  /// Hash-consing pool: content -> id, plus id -> content pointers (stable
  /// across rehash because unordered_map nodes never move).
  std::unordered_map<std::vector<JobId>, int, PendingVecHash> interner_;
  std::vector<const std::vector<JobId>*> pool_;
  long polls_ = 0;
  bool exploded_ = false;
  bool timed_out_ = false;
};

}  // namespace detail

inline UnboundedSolution solve_unbounded(const ContinuousInstance& inst,
                                         UnboundedOptions options = {}) {
  ABT_ASSERT(inst.structurally_valid(), "invalid instance");
  detail::UnboundedSolver solver(inst, options);
  return solver.run();
}

}  // namespace abt::busy::oracle
