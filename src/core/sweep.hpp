#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "core/interval.hpp"

namespace abt::core {

/// Lower bound over a sorted flat array: index of the first element >= x.
/// The halving loop carries no data-dependent branches (both updates are
/// conditional moves), so probes into the flat sweep structures never pay
/// a mispredict on random query positions.
[[nodiscard]] inline std::size_t flat_lower_bound(const RealTime* data,
                                                  std::size_t n, RealTime x) {
  std::size_t lo = 0;
  while (n > 0) {
    const std::size_t half = n / 2;
    const bool right = data[lo + half] < x;
    lo = right ? lo + half + 1 : lo;
    n = right ? n - half - 1 : half;
  }
  return lo;
}

/// Order-preserving image of a double in the 64-bit unsigned integers:
/// for non-NaN a and b, a < b exactly when radix_key(a) < radix_key(b), and
/// a == b exactly when the keys are equal (-0.0 is keyed as +0.0).
[[nodiscard]] inline std::uint64_t radix_key(RealTime x) {
  const auto bits = std::bit_cast<std::uint64_t>(x + 0.0);
  return (bits >> 63) != 0 ? ~bits : bits | (std::uint64_t{1} << 63);
}

/// Below this many items radix_sort takes its stable comparison path: the
/// eight histograms and up to eight scatter passes cost more than they
/// save. Measured in isolation (4-CPU x86-64 VM, 16-byte records keyed by
/// radix_key of random doubles, best of 9 rounds, two runs): the merge
/// path took 2.2-3.3 us at n = 256 and 5.5-8.4 us at n = 512, where the
/// radix passes took 10-15 us and 18-19 us; the two tie at n = 1024
/// (21 us against 22-24 us), and at n = 2048 the radix passes win, 50-57
/// us against 85-102 us.
inline constexpr std::size_t kRadixCutover = 1024;

namespace detail {

/// Stable merge sort of `items` by `key(item)`, ping-ponging through
/// `scratch`: insertion-sorted runs of 16, then bottom-up merges that take
/// the left run's item on ties. Each merge step computes only the key of
/// the item that moved. No heap allocation.
template <typename T, typename Key>
void merge_sort_by_key(std::span<T> items, std::span<T> scratch, Key key) {
  constexpr std::size_t kRun = 16;
  const std::size_t n = items.size();
  T* data = items.data();
  for (std::size_t lo = 0; lo < n; lo += kRun) {
    const std::size_t hi = std::min(n, lo + kRun);
    for (std::size_t i = lo + 1; i < hi; ++i) {
      const T item = data[i];
      const std::uint64_t k = key(item);
      std::size_t j = i;
      for (; j > lo && k < key(data[j - 1]); --j) data[j] = data[j - 1];
      data[j] = item;
    }
  }
  T* src = data;
  T* dst = scratch.data();
  for (std::size_t width = kRun; width < n; width *= 2) {
    for (std::size_t lo = 0; lo < n; lo += 2 * width) {
      const std::size_t mid = std::min(n, lo + width);
      const std::size_t hi = std::min(n, lo + 2 * width);
      std::size_t a = lo;
      std::size_t b = mid;
      std::size_t out = lo;
      if (a < mid && b < hi) {
        std::uint64_t ka = key(src[a]);
        std::uint64_t kb = key(src[b]);
        for (;;) {
          if (kb < ka) {
            dst[out++] = src[b++];
            if (b == hi) break;
            kb = key(src[b]);
          } else {
            dst[out++] = src[a++];
            if (a == mid) break;
            ka = key(src[a]);
          }
        }
      }
      while (a < mid) dst[out++] = src[a++];
      while (b < hi) dst[out++] = src[b++];
    }
    std::swap(src, dst);
  }
  if (src != data) std::copy(src, src + n, data);
}

}  // namespace detail

/// Stable sort of `items` by the std::uint64_t `key(item)`. From
/// kRadixCutover items up it is an LSD radix sort, one byte per pass. All
/// eight byte histograms come from one read of the keys, and a pass whose
/// byte is the same in every key is skipped, so keys drawn from a narrow
/// range pay only the passes their low bytes need. Smaller inputs take a
/// stable merge sort on the same keys, so the order never depends on the
/// path. `scratch` holds at least items.size() (< 2^32) elements; the
/// sorted result is left in `items`.
template <typename T, typename Key>
void radix_sort(std::span<T> items, std::span<T> scratch, Key key) {
  const std::size_t n = items.size();
  if (n < 2) return;
  if (n < kRadixCutover) {
    detail::merge_sort_by_key(items, scratch, key);
    return;
  }
  std::array<std::array<std::uint32_t, 256>, 8> counts{};
  for (const T& item : items) {
    const std::uint64_t k = key(item);
    for (std::size_t b = 0; b < 8; ++b) ++counts[b][(k >> (8 * b)) & 0xff];
  }
  T* src = items.data();
  T* dst = scratch.data();
  for (std::size_t b = 0; b < 8; ++b) {
    std::array<std::uint32_t, 256>& count = counts[b];
    if (count[(key(src[0]) >> (8 * b)) & 0xff] == n) continue;
    std::uint32_t sum = 0;
    for (std::uint32_t& c : count) {
      const std::uint32_t here = c;
      c = sum;
      sum += here;
    }
    for (std::size_t i = 0; i < n; ++i) {
      dst[count[(key(src[i]) >> (8 * b)) & 0xff]++] = src[i];
    }
    std::swap(src, dst);
  }
  if (src != items.data()) std::copy(src, src + n, items.data());
}

/// Upper bound over a sorted flat array: index of the first element > x.
[[nodiscard]] inline std::size_t flat_upper_bound(const RealTime* data,
                                                  std::size_t n, RealTime x) {
  std::size_t lo = 0;
  while (n > 0) {
    const std::size_t half = n / 2;
    const bool right = !(x < data[lo + half]);
    lo = right ? lo + half + 1 : lo;
    n = right ? n - half - 1 : half;
  }
  return lo;
}

/// One maximal piece of a coverage step function: exactly `count` of the
/// input intervals cover every point of `interval`.
struct CoverageSegment {
  Interval interval;
  int count = 0;

  friend bool operator==(const CoverageSegment&, const CoverageSegment&) =
      default;
};

/// Coordinate-compressed coverage step function of a set of intervals, built
/// in one O(n log n) sweep. Segment boundaries are the event points of the
/// input (endpoints merged within `eps`, exactly as `event_points`), so a
/// segment is one of the paper's "interesting intervals" (Definition 12) and
/// its `count` is the raw demand |A(t)| (Definition 11). Segments with zero
/// coverage are not stored; adjacent equal-count segments are kept separate
/// so that each segment spans exactly one interesting interval.
///
/// Construction works on flat arena-backed event arrays: one sort of
/// (coordinate, +-1) events, a linear cluster-and-accumulate pass that
/// folds event_points' eps merging and the endpoint snapping into the same
/// sweep, then a tight prefix-sum loop over flat int arrays. No per-element
/// binary searches, no per-call heap allocation beyond the output.
class CoverageProfile {
 public:
  CoverageProfile() = default;
  explicit CoverageProfile(std::span<const Interval> ivs, RealTime eps = 1e-12);

  [[nodiscard]] const std::vector<CoverageSegment>& segments() const {
    return segments_;
  }

  /// Integral of the step function = total mass of the input intervals.
  [[nodiscard]] RealTime cost() const;

  /// Height of the step function = max concurrency of the input.
  [[nodiscard]] int max() const;

  /// Coverage at point t (0 outside every stored segment). O(log n).
  [[nodiscard]] int coverage_at(RealTime t) const;

  /// Max coverage over [lo, hi). O(log n + segments intersected).
  [[nodiscard]] int max_coverage_in(RealTime lo, RealTime hi) const;

 private:
  std::vector<CoverageSegment> segments_;  ///< Sorted, disjoint, count > 0.
};

/// Max number of intervals simultaneously overlapping (intervals are
/// half-open, so [a,b) and [b,c) never overlap). One O(n log n) sweep with
/// no profile materialization — the lean form of CoverageProfile::max().
[[nodiscard]] int max_concurrency(std::span<const Interval> ivs);

/// Incremental occupancy structure for one machine on blocked flat storage:
/// the sorted breakpoint sequence (coordinate, coverage level on
/// [coordinate, next coordinate)) lives in fixed-capacity blocks of
/// kBlockCap parallel (coords, levels) arrays, each block carrying its own
/// level maximum, with an implicit binary max-tree over the block maxima.
/// `max_coverage_in` is two branch-free probes (block directory + in-block)
/// plus at most two partial-block scans and one tree range-max — worst-case
/// O(log k) for constant block size, which retires the "steps spanned" term
/// the endpoint-map predecessor paid (frozen as naive::MapOccupancyIndex).
/// `insert` shifts within one block (a bounded memmove) instead of the
/// whole array, so it costs O(kBlockCap + span + log k) amortized rather
/// than the O(k) a single flat vector pays — the difference dominates once
/// a machine accumulates thousands of breakpoints.
///
/// Levels are cumulative widths: every insert adds its weight (1 for the
/// standard model) over its interval, so with weighted inserts
/// `max_coverage_in` is the peak cumulative width over the query range.
class FlatOccupancyIndex {
 public:
  /// Max coverage (cumulative inserted weight) over [lo, hi); 0 for empty
  /// ranges or an empty index. Worst-case O(log k) (block size is a
  /// compile-time constant).
  [[nodiscard]] int max_coverage_in(RealTime lo, RealTime hi) const;

  /// Adds one covering interval of the given weight (>= 1) over `iv`
  /// (no-op when empty).
  void insert(const Interval& iv, int weight = 1);

  /// Number of intervals inserted so far.
  [[nodiscard]] int size() const { return count_; }

  /// Logical reset that keeps every capacity — the machine-pool reuse hook
  /// for per-worker scratch (the first-fit driver).
  void clear() {
    blocks_.clear();
    firsts_.clear();
    count_ = 0;
  }

  /// Full structural self-check: block occupancy bounds, strictly
  /// ascending coordinates (within and across blocks), firsts_ mirror,
  /// per-block maxima consistent with their entries, implicit max-tree
  /// valid over every live leaf, non-negative levels. Trips ABT_DBG_ASSERT
  /// on violation; compiled to a no-op unless ABT_AUDIT is on, so the
  /// state-mutation seams call it unconditionally.
  void audit_invariants() const;

#if defined(ABT_AUDIT) && ABT_AUDIT
  /// Test-only corruption hook (audit builds): deliberately breaks one
  /// block maximum so the audit suite can prove audit_invariants()
  /// actually trips instead of passing vacuously.
  void corrupt_block_max_for_test(std::size_t block, int value) {
    blocks_[block].max_level = value;
  }
#endif

  /// The (coordinate, level) steps, ascending. Equivalence-suite hook.
  [[nodiscard]] std::vector<std::pair<RealTime, int>> steps() const {
    std::vector<std::pair<RealTime, int>> out;
    for (const Block& blk : blocks_) {
      for (std::size_t i = 0; i < blk.n; ++i) {
        out.emplace_back(blk.coords[i], blk.levels[i]);
      }
    }
    return out;
  }

 private:
  /// Entries per block. Inserts memmove at most this many entries; probes
  /// scan at most two partial blocks. Constant, so O(kBlockCap) = O(1).
  static constexpr std::size_t kBlockCap = 64;

  struct Block {
    std::array<RealTime, kBlockCap> coords;  ///< Ascending breakpoints.
    std::array<int, kBlockCap> levels;  ///< Level on [coords[i], next).
    std::size_t n = 0;                  ///< Live entries in [0, kBlockCap].
    int max_level = 0;                  ///< max(levels[0..n)).
  };

  /// Position of one breakpoint: (block index, offset within block). The
  /// one-past-the-end position is canonically (blocks_.size(), 0).
  struct Pos {
    std::size_t block;
    std::size_t off;
  };

  /// First position with coordinate >= t (canonical form). O(log k).
  [[nodiscard]] Pos locate_lower(RealTime t) const;

  /// First position with coordinate > t (canonical form). O(log k).
  [[nodiscard]] Pos locate_upper(RealTime t) const;

  /// Level of the breakpoint immediately before p, or 0 when p is first.
  [[nodiscard]] int pred_level(Pos p) const;

  /// Ensures a breakpoint at t (carrying the incumbent level); returns its
  /// position and reports whether a new breakpoint was created. May split
  /// a full block (which shifts positions at and after that block).
  Pos split(RealTime t, bool* created);

  /// Halves full block b into blocks b and b+1 (B-tree leaf split).
  void split_block(std::size_t b);

  /// Raises every level in [a, b) by `delta` and repairs block maxima +
  /// tree.
  void increment_range(Pos a, Pos b, int delta);

  /// Regrows or repairs the block max-tree after blocks_[from..] changed.
  void on_blocks_changed(std::size_t from_block);

  /// Recomputes tree leaves [first, last) from block maxima and repairs
  /// parents. O((last - first) + log): the touched range halves per level.
  void patch_tree(std::size_t first, std::size_t last);

  /// Max level over positions [i, j): two partial-block scans plus a tree
  /// range-max over the whole blocks strictly between them.
  [[nodiscard]] int range_max(Pos i, Pos j) const;

  /// Max of block maxima over blocks [first, last) via the implicit tree.
  [[nodiscard]] int tree_range_max(std::size_t first, std::size_t last) const;

  std::vector<Block> blocks_;     ///< Breakpoints, ascending across blocks.
  std::vector<RealTime> firsts_;  ///< firsts_[b] == blocks_[b].coords[0].
  std::vector<int> tree_;         ///< 1-based max-tree over cap_ blocks.
  std::size_t cap_ = 0;           ///< Power-of-two leaf (block) count.
  int count_ = 0;
};

/// The flat index is a drop-in swap behind the name the first-fit driver
/// and the tests use.
using OccupancyIndex = FlatOccupancyIndex;

/// Sorted disjoint set of open intervals on one flat vector — the
/// incremental form of core::interval_union. Neighbours closer than
/// `kMergeEps` coalesce on insert, exactly as the batch union would merge
/// them. Queries are one branch-free lower-bound probe plus one step per
/// intersected interval; insert is a contiguous splice. Bit-exact against
/// the std::map predecessor (frozen as naive::MapOpenSet) — every compare
/// and every double op happens in the same order on the same values.
class FlatIntervalSet {
 public:
  /// interval_union's merge tolerance (treats touching as merged).
  static constexpr double kMergeEps = 1e-12;
  /// Default sliver threshold for covered_in / free_in output filtering.
  static constexpr double kSliverEps = 1e-9;

  /// Measure of window ∩ union(set).
  [[nodiscard]] double measure_in(const Interval& window) const;

  /// Clipped covered sub-intervals of `window` (sorted, disjoint, slivers
  /// <= sliver_eps dropped) — union(set) ∩ window — into `out`, which is
  /// cleared first, so a loop of queries reuses one buffer.
  void covered_in(const Interval& window, std::vector<Interval>& out,
                  double sliver_eps = kSliverEps) const;

  /// Free sub-intervals of `window` not covered by the set (sorted,
  /// disjoint, slivers <= sliver_eps dropped) into `out`, cleared first.
  void free_in(const Interval& window, std::vector<Interval>& out,
               double sliver_eps = kSliverEps) const;

  /// Adds one interval, coalescing with every neighbour within kMergeEps.
  void insert(Interval iv);

  [[nodiscard]] const std::vector<Interval>& intervals() const {
    return set_;
  }

  void clear() { set_.clear(); }

  /// Structural self-check: intervals non-empty, strictly ascending, and
  /// pairwise separated by more than kMergeEps (anything closer must have
  /// coalesced on insert). No-op unless ABT_AUDIT is on.
  void audit_invariants() const;

 private:
  /// Index of the first stored interval intersecting `w` (or of the first
  /// starting past it). O(log n), branch-free probe.
  [[nodiscard]] std::size_t first_overlapping(const Interval& w) const;

  std::vector<Interval> set_;  ///< Ascending, disjoint, gaps > kMergeEps.
};

/// Positional first-fit index over a dynamic sequence of machines, each
/// summarized by one scalar key (its earliest-free time, or its coverage at
/// the current sweep frontier). A min-segment tree answers
/// `first_at_most(x)` — the smallest machine index whose key is <= x — in
/// O(log m), which lets first-fit drivers jump straight past hopeless
/// machines instead of scanning them linearly per job.
class MachineFreeIndex {
 public:
  /// Appends a machine with the given key; returns its index.
  int push_back(RealTime key);

  /// Updates machine i's key.
  void set(int i, RealTime key);

  [[nodiscard]] RealTime key(int i) const {
    return keys_[static_cast<std::size_t>(i)];
  }

  /// Smallest index with key <= x, or -1 when every key exceeds x.
  [[nodiscard]] int first_at_most(RealTime x) const;

  [[nodiscard]] int size() const { return static_cast<int>(keys_.size()); }

  /// Pre-sizes the tree for at least `machines` leaves (rounded up to a
  /// power of two) and reserves the backing storage, so a driver that can
  /// bound its machine count pays one allocation and zero mid-run
  /// rebuilds.
  void reserve(std::size_t machines);

 private:
  void rebuild(std::size_t capacity);

  std::vector<RealTime> keys_;
  std::vector<RealTime> tree_;  ///< 1-based min-tree over `cap_` leaves.
  std::size_t cap_ = 0;         ///< Power-of-two leaf count.
};

}  // namespace abt::core
