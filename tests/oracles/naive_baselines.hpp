#pragma once

// Pre-optimization implementations of the busy-time hot paths (first_fit /
// demand_profile / track peeling from PR 1, online / preemptive from
// PR 4, the std::map-backed OccupancyIndex / OpenSet from PR 6's flat
// data-layout pass), kept verbatim as the single source of truth for
// (a) the equivalence suites (tests/test_sweep.cpp, tests/test_online.cpp,
// tests/test_preemptive.cpp, tests/test_flat_layout.cpp), which assert the
// optimized algorithms reproduce these placement-for-placement, and
// (b) the BM_*Naive baselines in bench/bench_perf.cpp, the denominators
// of every optimized curve there. Do not optimize this header; its
// value is staying frozen.

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <numeric>
#include <vector>

#include "busy/demand_profile.hpp"
#include "busy/online.hpp"
#include "busy/preemptive.hpp"
#include "core/busy_schedule.hpp"
#include "core/continuous_instance.hpp"

namespace abt::busy::naive {

/// core/sweep's original (PR 1 - PR 5) OccupancyIndex: a std::map endpoint
/// map from coordinate to coverage level on [key, next key). Node-based,
/// so every probe chases allocator pointers; frozen here as the bit-exact
/// reference for core::FlatOccupancyIndex (tests/test_flat_layout.cpp).
class MapOccupancyIndex {
 public:
  [[nodiscard]] int max_coverage_in(core::RealTime lo,
                                    core::RealTime hi) const {
    if (hi <= lo || steps_.empty()) return 0;
    auto it = steps_.upper_bound(lo);
    int best = (it == steps_.begin()) ? 0 : std::prev(it)->second;
    for (; it != steps_.end() && it->first < hi; ++it) {
      best = std::max(best, it->second);
    }
    return best;
  }

  void insert(const core::Interval& iv) {
    if (iv.empty()) return;
    const auto split = [this](core::RealTime t) {
      auto it = steps_.lower_bound(t);
      if (it == steps_.end() || it->first != t) {
        const int level = (it == steps_.begin()) ? 0 : std::prev(it)->second;
        it = steps_.emplace_hint(it, t, level);
      }
      return it;
    };
    const auto it_hi = split(iv.hi);
    for (auto it = split(iv.lo); it != it_hi; ++it) ++it->second;
    ++count_;
  }

  [[nodiscard]] int size() const { return count_; }

  /// The (coordinate, level) steps, ascending — lets the equivalence suite
  /// compare internal state, not just query answers.
  [[nodiscard]] std::vector<std::pair<core::RealTime, int>> steps() const {
    return {steps_.begin(), steps_.end()};
  }

 private:
  std::map<core::RealTime, int> steps_;
  int count_ = 0;
};

/// busy/preemptive's original (PR 4 - PR 5) OpenSet: a std::map from lo to
/// hi over disjoint open intervals. Frozen as the bit-exact reference for
/// core::FlatIntervalSet (tests/test_flat_layout.cpp).
class MapOpenSet {
 public:
  static constexpr double kMergeEps = 1e-12;
  static constexpr double kSliverEps = 1e-9;

  [[nodiscard]] double measure_in(const core::Interval& window) const {
    double total = 0.0;
    for (auto it = first_overlapping(window);
         it != set_.end() && it->first < window.hi; ++it) {
      const double lo = std::max(it->first, window.lo);
      const double hi = std::min(it->second, window.hi);
      if (hi > lo) total += hi - lo;
    }
    return total;
  }

  [[nodiscard]] std::vector<core::Interval> covered_in(
      const core::Interval& window) const {
    std::vector<core::Interval> out;
    for (auto it = first_overlapping(window);
         it != set_.end() && it->first < window.hi; ++it) {
      const double lo = std::max(it->first, window.lo);
      const double hi = std::min(it->second, window.hi);
      if (hi > lo + kSliverEps) out.push_back({lo, hi});
    }
    return out;
  }

  [[nodiscard]] std::vector<core::Interval> free_in(
      const core::Interval& window) const {
    std::vector<core::Interval> out;
    double cursor = window.lo;
    for (auto it = first_overlapping(window);
         it != set_.end() && it->first < window.hi; ++it) {
      if (it->first > cursor) {
        out.push_back({cursor, std::min(it->first, window.hi)});
      }
      cursor = std::max(cursor, it->second);
      if (cursor >= window.hi) break;
    }
    if (cursor < window.hi) out.push_back({cursor, window.hi});
    std::erase_if(out, [](const core::Interval& iv) {
      return iv.length() <= kSliverEps;
    });
    return out;
  }

  void insert(core::Interval iv) {
    auto it = set_.upper_bound(iv.lo);
    if (it != set_.begin()) {
      const auto prev = std::prev(it);
      if (iv.lo <= prev->second + kMergeEps) {
        iv.lo = prev->first;
        iv.hi = std::max(iv.hi, prev->second);
        it = set_.erase(prev);
      }
    }
    while (it != set_.end() && it->first <= iv.hi + kMergeEps) {
      iv.hi = std::max(iv.hi, it->second);
      it = set_.erase(it);
    }
    set_.emplace(iv.lo, iv.hi);
  }

  [[nodiscard]] std::vector<core::Interval> intervals() const {
    std::vector<core::Interval> out;
    out.reserve(set_.size());
    for (const auto& [lo, hi] : set_) out.push_back({lo, hi});
    return out;
  }

 private:
  [[nodiscard]] std::map<double, double>::const_iterator first_overlapping(
      const core::Interval& w) const {
    auto it = set_.upper_bound(w.lo);
    if (it != set_.begin()) {
      const auto prev = std::prev(it);
      if (prev->second > w.lo) return prev;
    }
    return it;
  }

  std::map<double, double> set_;
};

/// busy/first_fit's original MachineState: per-job interval list with an
/// O(k^2) probe per candidate (rescan all k jobs at every event point).
class NaiveMachineState {
 public:
  explicit NaiveMachineState(int capacity) : capacity_(capacity) {}

  [[nodiscard]] bool fits(const core::Interval& candidate) const {
    int max_overlap = 0;
    std::vector<double> probes = {candidate.lo};
    for (const core::Interval& iv : jobs_) {
      if (iv.lo > candidate.lo && iv.lo < candidate.hi) probes.push_back(iv.lo);
    }
    for (double p : probes) {
      int overlap = 0;
      for (const core::Interval& iv : jobs_) {
        if (iv.lo <= p && p < iv.hi) ++overlap;
      }
      max_overlap = std::max(max_overlap, overlap);
    }
    return max_overlap + 1 <= capacity_;
  }

  void add(const core::Interval& iv) { jobs_.push_back(iv); }

 private:
  int capacity_;
  std::vector<core::Interval> jobs_;
};

/// busy/first_fit's original driver (non-increasing length order).
inline core::BusySchedule first_fit(const core::ContinuousInstance& inst) {
  std::vector<core::JobId> order(static_cast<std::size_t>(inst.size()));
  std::iota(order.begin(), order.end(), core::JobId{0});
  std::stable_sort(order.begin(), order.end(),
                   [&](core::JobId a, core::JobId b) {
                     return inst.job(a).length > inst.job(b).length;
                   });
  core::BusySchedule sched;
  sched.placements.assign(static_cast<std::size_t>(inst.size()), {});
  std::vector<NaiveMachineState> machines;
  for (core::JobId j : order) {
    const core::ContinuousJob& job = inst.job(j);
    const core::Interval run{job.release, job.release + job.length};
    int chosen = -1;
    for (std::size_t m = 0; m < machines.size(); ++m) {
      if (machines[m].fits(run)) {
        chosen = static_cast<int>(m);
        break;
      }
    }
    if (chosen < 0) {
      machines.emplace_back(inst.capacity());
      chosen = static_cast<int>(machines.size()) - 1;
    }
    machines[static_cast<std::size_t>(chosen)].add(run);
    sched.placements[static_cast<std::size_t>(j)] = {chosen, job.release};
  }
  return sched;
}

/// busy/demand_profile's original constructor body: one naive O(n)
/// coverage count per event-point gap.
inline std::vector<ProfileSegment> demand_profile(
    const core::ContinuousInstance& inst) {
  const std::vector<core::Interval> runs = inst.forced_intervals();
  const std::vector<core::RealTime> points = core::event_points(runs);
  std::vector<ProfileSegment> segments;
  for (std::size_t i = 0; i + 1 < points.size(); ++i) {
    const int raw = core::coverage_at(runs, points[i], points[i + 1]);
    if (raw == 0) continue;
    const int demand = (raw + inst.capacity() - 1) / inst.capacity();
    segments.push_back({{points[i], points[i + 1]}, raw, demand});
  }
  return segments;
}

/// busy/track's original one-shot max-weight track: sorts the candidates
/// by end on every call (the per-peel re-sort TrackPeeler eliminates).
inline std::vector<core::JobId> max_weight_track(
    const core::ContinuousInstance& inst,
    const std::vector<core::JobId>& candidates,
    const std::vector<double>& weights) {
  const auto m = candidates.size();
  if (m == 0) return {};

  struct Item {
    double start;
    double end;
    double weight;
    core::JobId job;
  };
  std::vector<Item> items;
  items.reserve(m);
  for (std::size_t i = 0; i < m; ++i) {
    const core::ContinuousJob& job = inst.job(candidates[i]);
    items.push_back(
        {job.release, job.release + job.length, weights[i], candidates[i]});
  }
  // The original used std::sort, leaving tie order among equal ends
  // unspecified; the frozen reference pins it stably (candidate order) so
  // placement-for-placement equivalence with TrackPeeler — which also
  // stable-sorts its initial pool — is well-defined even under ties.
  std::stable_sort(items.begin(), items.end(),
                   [](const Item& a, const Item& b) { return a.end < b.end; });

  std::vector<int> pred(m, -1);
  std::vector<double> ends(m);
  for (std::size_t i = 0; i < m; ++i) ends[i] = items[i].end;
  for (std::size_t i = 0; i < m; ++i) {
    const auto it = std::upper_bound(
        ends.begin(), ends.begin() + static_cast<std::ptrdiff_t>(i),
        items[i].start + 1e-12);
    pred[i] = static_cast<int>(it - ends.begin()) - 1;
  }

  std::vector<double> best(m + 1, 0.0);
  std::vector<char> take(m, 0);
  for (std::size_t i = 0; i < m; ++i) {
    const double with_item =
        items[i].weight + best[static_cast<std::size_t>(pred[i] + 1)];
    if (with_item > best[i]) {
      best[i + 1] = with_item;
      take[i] = 1;
    } else {
      best[i + 1] = best[i];
    }
  }

  std::vector<core::JobId> out;
  for (auto i = static_cast<std::ptrdiff_t>(m) - 1; i >= 0;) {
    if (take[static_cast<std::size_t>(i)] != 0) {
      out.push_back(items[static_cast<std::size_t>(i)].job);
      i = pred[static_cast<std::size_t>(i)];
    } else {
      --i;
    }
  }
  std::reverse(out.begin(), out.end());
  return out;
}

/// busy/greedy_tracking's original loop: re-extract a longest track from
/// the remaining pool with a fresh sort per peel.
inline core::BusySchedule greedy_tracking(
    const core::ContinuousInstance& inst) {
  core::BusySchedule sched;
  sched.placements.assign(static_cast<std::size_t>(inst.size()), {});
  std::vector<core::JobId> remaining(static_cast<std::size_t>(inst.size()));
  std::iota(remaining.begin(), remaining.end(), core::JobId{0});
  int track_index = 0;
  while (!remaining.empty()) {
    std::vector<double> weights;
    weights.reserve(remaining.size());
    for (core::JobId j : remaining) weights.push_back(inst.job(j).length);
    const std::vector<core::JobId> track =
        max_weight_track(inst, remaining, weights);
    const int bundle = track_index / inst.capacity();
    for (core::JobId j : track) {
      sched.placements[static_cast<std::size_t>(j)] = {bundle,
                                                       inst.job(j).release};
    }
    std::vector<char> in_track(static_cast<std::size_t>(inst.size()), 0);
    for (core::JobId j : track) in_track[static_cast<std::size_t>(j)] = 1;
    std::erase_if(remaining, [&](core::JobId j) {
      return in_track[static_cast<std::size_t>(j)] != 0;
    });
    ++track_index;
  }
  return sched;
}

/// busy/online's original (PR 4) machine view: flat interval list with an
/// O(k^2) capacity probe, an O(k log k) union re-span per best-fit growth
/// probe and another per commit.
class NaiveOnlineMachine {
 public:
  explicit NaiveOnlineMachine(int capacity) : capacity_(capacity) {}

  [[nodiscard]] bool fits(const core::Interval& candidate) const {
    std::vector<double> probes = {candidate.lo};
    for (const core::Interval& iv : jobs_) {
      if (iv.lo > candidate.lo && iv.lo < candidate.hi) probes.push_back(iv.lo);
    }
    for (double p : probes) {
      int overlap = 1;
      for (const core::Interval& iv : jobs_) {
        if (iv.lo <= p && p < iv.hi) ++overlap;
      }
      if (overlap > capacity_) return false;
    }
    return true;
  }

  [[nodiscard]] double growth(const core::Interval& candidate) const {
    std::vector<core::Interval> with = jobs_;
    with.push_back(candidate);
    return core::span_of(with) - busy_;
  }

  void add(const core::Interval& iv) {
    jobs_.push_back(iv);
    busy_ = core::span_of(jobs_);
  }

 private:
  int capacity_;
  std::vector<core::Interval> jobs_;
  double busy_ = 0.0;
};

/// busy/online's original driver (identical placement logic; only the
/// machine probes changed in the sweep-backed version).
inline core::BusySchedule schedule_online(const core::ContinuousInstance& inst,
                                          OnlinePolicy policy) {
  std::vector<core::JobId> order(static_cast<std::size_t>(inst.size()));
  std::iota(order.begin(), order.end(), core::JobId{0});
  std::stable_sort(order.begin(), order.end(),
                   [&](core::JobId a, core::JobId b) {
                     return inst.job(a).release < inst.job(b).release;
                   });

  core::BusySchedule sched;
  sched.placements.assign(static_cast<std::size_t>(inst.size()), {});
  std::vector<NaiveOnlineMachine> machines;

  for (core::JobId j : order) {
    const core::ContinuousJob& job = inst.job(j);
    const core::Interval run{job.release, job.release + job.length};
    int chosen = -1;
    switch (policy) {
      case OnlinePolicy::kFirstFit:
        for (std::size_t m = 0; m < machines.size(); ++m) {
          if (machines[m].fits(run)) {
            chosen = static_cast<int>(m);
            break;
          }
        }
        break;
      case OnlinePolicy::kBestFit: {
        double best_growth = std::numeric_limits<double>::infinity();
        for (std::size_t m = 0; m < machines.size(); ++m) {
          if (!machines[m].fits(run)) continue;
          const double g = machines[m].growth(run);
          if (g < best_growth - 1e-12) {
            best_growth = g;
            chosen = static_cast<int>(m);
          }
        }
        break;
      }
      case OnlinePolicy::kNextFit:
        if (!machines.empty() && machines.back().fits(run)) {
          chosen = static_cast<int>(machines.size()) - 1;
        }
        break;
    }
    if (chosen < 0) {
      machines.emplace_back(inst.capacity());
      chosen = static_cast<int>(machines.size()) - 1;
    }
    machines[static_cast<std::size_t>(chosen)].add(run);
    sched.placements[static_cast<std::size_t>(j)] = {chosen, job.release};
  }
  return sched;
}

/// busy/preemptive's original helpers: full scans over the open set.
inline double preemptive_measure_in(const std::vector<core::Interval>& open,
                                    const core::Interval& window) {
  double total = 0.0;
  for (const core::Interval& iv : open) {
    const double lo = std::max(iv.lo, window.lo);
    const double hi = std::min(iv.hi, window.hi);
    if (hi > lo) total += hi - lo;
  }
  return total;
}

inline std::vector<core::Interval> preemptive_free_in(
    const std::vector<core::Interval>& open, const core::Interval& window) {
  constexpr double kEps = 1e-9;
  std::vector<core::Interval> out;
  double cursor = window.lo;
  for (const core::Interval& iv : open) {
    if (iv.hi <= window.lo || iv.lo >= window.hi) continue;
    if (iv.lo > cursor) out.push_back({cursor, std::min(iv.lo, window.hi)});
    cursor = std::max(cursor, iv.hi);
    if (cursor >= window.hi) break;
  }
  if (cursor < window.hi) out.push_back({cursor, window.hi});
  std::erase_if(out, [](const core::Interval& iv) {
    return iv.length() <= kEps;
  });
  return out;
}

/// busy/preemptive's original unbounded algorithm: flat open vector with a
/// full re-union per job (O(n^2 log n) end to end).
inline PreemptiveUnboundedSolution solve_preemptive_unbounded(
    const core::ContinuousInstance& inst) {
  constexpr double kEps = 1e-9;
  PreemptiveUnboundedSolution out;

  std::vector<core::JobId> order(static_cast<std::size_t>(inst.size()));
  std::iota(order.begin(), order.end(), core::JobId{0});
  std::sort(order.begin(), order.end(), [&](core::JobId a, core::JobId b) {
    return inst.job(a).deadline < inst.job(b).deadline;
  });

  std::vector<core::Interval> open;
  for (core::JobId j : order) {
    const core::ContinuousJob& job = inst.job(j);
    const core::Interval window{job.release, job.deadline};
    double deficit = job.length - preemptive_measure_in(open, window);
    if (deficit <= kEps) continue;
    std::vector<core::Interval> gaps = preemptive_free_in(open, window);
    for (auto it = gaps.rbegin(); it != gaps.rend() && deficit > kEps; ++it) {
      const double take = std::min(deficit, it->length());
      open.push_back({it->hi - take, it->hi});
      deficit -= take;
    }
    open = core::interval_union(std::move(open));
  }

  out.open = open;
  out.busy_time = core::span_of(open);

  out.schedule.pieces.assign(static_cast<std::size_t>(inst.size()), {});
  for (core::JobId j = 0; j < inst.size(); ++j) {
    const core::ContinuousJob& job = inst.job(j);
    double need = job.length;
    std::vector<core::Interval> available;
    for (const core::Interval& iv : open) {
      const double lo = std::max(iv.lo, job.release);
      const double hi = std::min(iv.hi, job.deadline);
      if (hi > lo + kEps) available.push_back({lo, hi});
    }
    for (auto it = available.rbegin(); it != available.rend() && need > kEps;
         ++it) {
      const double take = std::min(need, it->length());
      out.schedule.pieces[static_cast<std::size_t>(j)].push_back(
          {0, {it->hi - take, it->hi}});
      need -= take;
    }
    std::reverse(out.schedule.pieces[static_cast<std::size_t>(j)].begin(),
                 out.schedule.pieces[static_cast<std::size_t>(j)].end());
  }
  return out;
}

/// busy/preemptive's original bounded algorithm: rescans every job's piece
/// list for each interesting interval (O(cells * pieces)).
inline PreemptiveBoundedSolution solve_preemptive_bounded(
    const core::ContinuousInstance& inst) {
  constexpr double kEps = 1e-9;
  const PreemptiveUnboundedSolution unbounded =
      solve_preemptive_unbounded(inst);

  PreemptiveBoundedSolution out;
  out.opt_infinity = unbounded.busy_time;
  out.schedule.pieces.assign(static_cast<std::size_t>(inst.size()), {});

  std::vector<double> points;
  for (core::JobId j = 0; j < inst.size(); ++j) {
    for (const auto& piece :
         unbounded.schedule.pieces[static_cast<std::size_t>(j)]) {
      points.push_back(piece.run.lo);
      points.push_back(piece.run.hi);
    }
  }
  std::sort(points.begin(), points.end());
  points.erase(
      std::unique(points.begin(), points.end(),
                  [](double a, double b) { return std::abs(a - b) < kEps; }),
      points.end());

  for (std::size_t c = 0; c + 1 < points.size(); ++c) {
    const core::Interval cell{points[c], points[c + 1]};
    if (cell.length() <= kEps) continue;
    const double mid = cell.lo + cell.length() / 2;
    std::vector<core::JobId> running;
    for (core::JobId j = 0; j < inst.size(); ++j) {
      for (const auto& piece :
           unbounded.schedule.pieces[static_cast<std::size_t>(j)]) {
        if (piece.run.lo <= mid && mid < piece.run.hi) {
          running.push_back(j);
          break;
        }
      }
    }
    if (running.empty()) continue;
    for (std::size_t idx = 0; idx < running.size(); ++idx) {
      const int machine = static_cast<int>(idx) / inst.capacity();
      out.schedule.pieces[static_cast<std::size_t>(running[idx])].push_back(
          {machine, cell});
    }
  }

  for (core::JobId j = 0; j < inst.size(); ++j) {
    auto& pieces = out.schedule.pieces[static_cast<std::size_t>(j)];
    std::sort(pieces.begin(), pieces.end(),
              [](const core::PreemptiveBusySchedule::Piece& a,
                 const core::PreemptiveBusySchedule::Piece& b) {
                return a.run.lo < b.run.lo;
              });
    std::vector<core::PreemptiveBusySchedule::Piece> merged;
    for (const auto& piece : pieces) {
      if (!merged.empty() && merged.back().machine == piece.machine &&
          std::abs(merged.back().run.hi - piece.run.lo) < kEps) {
        merged.back().run.hi = piece.run.hi;
      } else {
        merged.push_back(piece);
      }
    }
    pieces = std::move(merged);
  }

  out.busy_time = core::busy_cost(inst, out.schedule);
  return out;
}

}  // namespace abt::busy::naive
