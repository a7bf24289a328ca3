#include "core/sweep.hpp"

#include <algorithm>
#include <limits>

#include "core/assert.hpp"
#include "core/scratch.hpp"

namespace abt::core {

namespace {

/// One endpoint event of the coverage sweep: +1 opens an interval at t,
/// -1 closes one.
struct SweepEvent {
  RealTime t;
  int delta;
};

}  // namespace

CoverageProfile::CoverageProfile(std::span<const Interval> ivs, RealTime eps) {
  if (ivs.empty()) return;
  MonotonicArena& arena = thread_arena();
  const ArenaScope scope(arena);

  // Event sort into one flat arena span: (coordinate, +-1) per endpoint.
  const std::span<SweepEvent> events = arena.alloc<SweepEvent>(2 * ivs.size());
  std::size_t ne = 0;
  for (const Interval& iv : ivs) {
    if (iv.empty()) continue;
    events[ne++] = {iv.lo, +1};
    events[ne++] = {iv.hi, -1};
  }
  if (ne == 0) return;
  std::sort(events.begin(), events.begin() + static_cast<std::ptrdiff_t>(ne),
            [](const SweepEvent& a, const SweepEvent& b) { return a.t < b.t; });

  // Cluster representatives (event_points' eps merge) and per-cluster
  // deltas fall out of the same linear pass: a sorted event within eps of
  // the current representative snaps to it — the greatest boundary <= the
  // endpoint, exactly what the per-endpoint upper_bound recovered before.
  const std::span<RealTime> points = arena.alloc<RealTime>(ne);
  const std::span<int> delta = arena.alloc<int>(ne);
  std::size_t np = 0;
  for (std::size_t i = 0; i < ne; ++i) {
    if (np == 0 || events[i].t > points[np - 1] + eps) {
      points[np] = events[i].t;
      delta[np] = 0;
      ++np;
    }
    delta[np - 1] += events[i].delta;
  }
  if (np < 2) return;

  // Prefix-sum the deltas into coverage counts — one tight loop over flat
  // int arrays — then emit the positive segments into exactly-sized output.
  const std::span<int> counts = arena.alloc<int>(np - 1);
  int run = 0;
  for (std::size_t i = 0; i + 1 < np; ++i) {
    run += delta[i];
    counts[i] = run;
  }
  std::size_t kept = 0;
  for (std::size_t i = 0; i + 1 < np; ++i) {
    kept += counts[i] > 0 ? std::size_t{1} : std::size_t{0};
  }
  segments_.reserve(kept);
  for (std::size_t i = 0; i + 1 < np; ++i) {
    if (counts[i] > 0) {
      segments_.push_back({{points[i], points[i + 1]}, counts[i]});
    }
  }
}

RealTime CoverageProfile::cost() const {
  RealTime total = 0.0;
  for (const CoverageSegment& s : segments_) {
    total += s.count * s.interval.length();
  }
  return total;
}

int CoverageProfile::max() const {
  int best = 0;
  for (const CoverageSegment& s : segments_) best = std::max(best, s.count);
  return best;
}

int CoverageProfile::coverage_at(RealTime t) const {
  const auto it = std::upper_bound(
      segments_.begin(), segments_.end(), t,
      [](RealTime v, const CoverageSegment& s) { return v < s.interval.lo; });
  if (it == segments_.begin()) return 0;
  const CoverageSegment& s = *std::prev(it);
  return s.interval.contains(t) ? s.count : 0;
}

int CoverageProfile::max_coverage_in(RealTime lo, RealTime hi) const {
  if (hi <= lo) return 0;
  auto it = std::upper_bound(
      segments_.begin(), segments_.end(), lo,
      [](RealTime v, const CoverageSegment& s) { return v < s.interval.lo; });
  int best = 0;
  if (it != segments_.begin() && std::prev(it)->interval.contains(lo)) {
    best = std::prev(it)->count;
  }
  for (; it != segments_.end() && it->interval.lo < hi; ++it) {
    best = std::max(best, it->count);
  }
  return best;
}

int max_concurrency(std::span<const Interval> ivs) {
  if (ivs.empty()) return 0;
  MonotonicArena& arena = thread_arena();
  const ArenaScope scope(arena);
  const std::span<SweepEvent> events = arena.alloc<SweepEvent>(2 * ivs.size());
  std::size_t ne = 0;
  for (const Interval& iv : ivs) {
    if (iv.empty()) continue;
    events[ne++] = {iv.lo, +1};
    events[ne++] = {iv.hi, -1};
  }
  std::sort(events.begin(), events.begin() + static_cast<std::ptrdiff_t>(ne),
            [](const SweepEvent& a, const SweepEvent& b) {
              // Closings before openings at the same coordinate: half-open
              // intervals [a,b) and [b,c) do not overlap.
              return a.t < b.t || (a.t == b.t && a.delta < b.delta);
            });
  int cur = 0;
  int best = 0;
  for (std::size_t i = 0; i < ne; ++i) {
    cur += events[i].delta;
    best = std::max(best, cur);
  }
  return best;
}

FlatOccupancyIndex::Pos FlatOccupancyIndex::locate_lower(RealTime t) const {
  const std::size_t nb = blocks_.size();
  // Last-block fast path: a probe or insert past the first coordinate of
  // the last block (on a one-block machine, past its first breakpoint)
  // costs one compare instead of the block-directory search. Its caller is
  // the length-ordered first-fit driver (busy::detail::first_fit_runs,
  // behind busy/first-fit and the weighted heuristics): on one pinned core
  // of a 4-CPU x86-64 VM, BM_WeightedFirstFit/256 ran ~14% faster with it
  // (14 of 16 alternating runs) and BM_FirstFit was unchanged.
  const std::size_t fb = (firsts_[nb - 1] < t)
                             ? nb
                             : flat_lower_bound(firsts_.data(), nb, t);
  if (fb == 0) return {0, 0};
  // First block whose first coordinate is >= t; the answer lives in the
  // block before it (or at the very front when there is none).
  const std::size_t b = fb - 1;
  const Block& blk = blocks_[b];
  if (blk.coords[blk.n - 1] < t) return {b + 1, 0};
  const std::size_t off = flat_lower_bound(blk.coords.data(), blk.n, t);
  return {b, off};
}

FlatOccupancyIndex::Pos FlatOccupancyIndex::locate_upper(RealTime t) const {
  const std::size_t nb = blocks_.size();
  const std::size_t fb = (!(t < firsts_[nb - 1]))
                             ? nb
                             : flat_upper_bound(firsts_.data(), nb, t);
  if (fb == 0) return {0, 0};
  const std::size_t b = fb - 1;
  const Block& blk = blocks_[b];
  if (!(t < blk.coords[blk.n - 1])) return {b + 1, 0};
  const std::size_t off = flat_upper_bound(blk.coords.data(), blk.n, t);
  return {b, off};
}

int FlatOccupancyIndex::pred_level(Pos p) const {
  if (p.off > 0) return blocks_[p.block].levels[p.off - 1];
  if (p.block > 0) {
    const Block& prev = blocks_[p.block - 1];
    return prev.levels[prev.n - 1];
  }
  return 0;
}

int FlatOccupancyIndex::max_coverage_in(RealTime lo, RealTime hi) const {
  if (hi <= lo || blocks_.empty()) return 0;
  const Pos i = locate_upper(lo);
  int best = pred_level(i);
  const Pos j = locate_lower(hi);
  if (i.block < j.block || (i.block == j.block && i.off < j.off)) {
    best = std::max(best, range_max(i, j));
  }
  return best;
}

void FlatOccupancyIndex::split_block(std::size_t b) {
  constexpr std::size_t kHalf = kBlockCap / 2;
  blocks_.insert(blocks_.begin() + static_cast<std::ptrdiff_t>(b) + 1,
                 Block{});
  Block& lo = blocks_[b];
  Block& hi = blocks_[b + 1];
  std::copy(lo.coords.begin() + kHalf, lo.coords.end(), hi.coords.begin());
  std::copy(lo.levels.begin() + kHalf, lo.levels.end(), hi.levels.begin());
  lo.n = kHalf;
  hi.n = kBlockCap - kHalf;
  lo.max_level = *std::max_element(lo.levels.begin(),
                                   lo.levels.begin() + static_cast<std::ptrdiff_t>(lo.n));
  hi.max_level = *std::max_element(hi.levels.begin(),
                                   hi.levels.begin() + static_cast<std::ptrdiff_t>(hi.n));
  firsts_.insert(firsts_.begin() + static_cast<std::ptrdiff_t>(b) + 1,
                 hi.coords[0]);
  on_blocks_changed(b);
}

FlatOccupancyIndex::Pos FlatOccupancyIndex::split(RealTime t, bool* created) {
  if (blocks_.empty()) {
    blocks_.emplace_back();
    Block& blk = blocks_.back();
    blk.coords[0] = t;
    blk.levels[0] = 0;
    blk.n = 1;
    blk.max_level = 0;
    firsts_.push_back(t);
    on_blocks_changed(0);
    *created = true;
    return {0, 0};
  }
  const Pos p = locate_lower(t);
  if (p.block < blocks_.size() && blocks_[p.block].coords[p.off] == t) {
    *created = false;
    return p;
  }
  const int level = pred_level(p);
  std::size_t b = p.block;
  std::size_t off = p.off;
  if (b == blocks_.size()) {  // global append: extend the last block
    b = blocks_.size() - 1;
    off = blocks_[b].n;
  }
  if (blocks_[b].n == kBlockCap) {
    split_block(b);
    constexpr std::size_t kHalf = kBlockCap / 2;
    if (off > kHalf) {
      ++b;
      off -= kHalf;
    }
  }
  Block& blk = blocks_[b];
  std::copy_backward(
      blk.coords.begin() + static_cast<std::ptrdiff_t>(off),
      blk.coords.begin() + static_cast<std::ptrdiff_t>(blk.n),
      blk.coords.begin() + static_cast<std::ptrdiff_t>(blk.n) + 1);
  std::copy_backward(
      blk.levels.begin() + static_cast<std::ptrdiff_t>(off),
      blk.levels.begin() + static_cast<std::ptrdiff_t>(blk.n),
      blk.levels.begin() + static_cast<std::ptrdiff_t>(blk.n) + 1);
  blk.coords[off] = t;
  blk.levels[off] = level;
  ++blk.n;
  if (off == 0) firsts_[b] = t;
  if (level > blk.max_level) {
    // The incumbent level came from the previous block and exceeds this
    // block's own maximum (all of whose steps it now precedes).
    blk.max_level = level;
    patch_tree(b, b + 1);
  }
  *created = true;
  return {b, off};
}

void FlatOccupancyIndex::increment_range(Pos a, Pos b, int delta) {
  const std::size_t nb = blocks_.size();
  for (std::size_t bi = a.block; bi < nb && bi <= b.block; ++bi) {
    Block& blk = blocks_[bi];
    const std::size_t x0 = (bi == a.block) ? a.off : 0;
    const std::size_t x1 = (bi == b.block) ? b.off : blk.n;
    for (std::size_t x = x0; x < x1; ++x) {
      blk.levels[x] += delta;
      if (blk.levels[x] > blk.max_level) blk.max_level = blk.levels[x];
    }
  }
  patch_tree(a.block, std::min(nb, b.block + 1));
}

void FlatOccupancyIndex::on_blocks_changed(std::size_t from_block) {
  const std::size_t nb = blocks_.size();
  if (nb > cap_) {
    std::size_t cap = cap_ == 0 ? 1 : cap_;
    while (cap < nb) cap *= 2;
    cap_ = cap;
    tree_.assign(2 * cap_, 0);
    patch_tree(0, nb);
  } else {
    patch_tree(from_block, nb);
  }
}

void FlatOccupancyIndex::patch_tree(std::size_t first, std::size_t last) {
  if (first >= last) return;
  std::size_t a = cap_ + first;
  std::size_t b = cap_ + last - 1;  // inclusive node range per level
  for (std::size_t i = a; i <= b; ++i) tree_[i] = blocks_[i - cap_].max_level;
  while (a > 1) {
    a >>= 1;
    b >>= 1;
    for (std::size_t i = a; i <= b; ++i) {
      tree_[i] = std::max(tree_[2 * i], tree_[2 * i + 1]);
    }
  }
}

int FlatOccupancyIndex::range_max(Pos i, Pos j) const {
  if (i.block == j.block) {
    const Block& blk = blocks_[i.block];
    int best = 0;
    for (std::size_t x = i.off; x < j.off; ++x) {
      best = std::max(best, blk.levels[x]);
    }
    return best;
  }
  const Block& head = blocks_[i.block];
  int best = 0;
  for (std::size_t x = i.off; x < head.n; ++x) {
    best = std::max(best, head.levels[x]);
  }
  if (j.block < blocks_.size() && j.off > 0) {
    const Block& tail = blocks_[j.block];
    for (std::size_t x = 0; x < j.off; ++x) {
      best = std::max(best, tail.levels[x]);
    }
  }
  return std::max(best, tree_range_max(i.block + 1, j.block));
}

int FlatOccupancyIndex::tree_range_max(std::size_t first,
                                       std::size_t last) const {
  // Bottom-up decomposition: only nodes whose whole subtree lies inside
  // [first, last) are aggregated, so leaves past blocks_.size() — stale
  // after a clear() — are never read.
  int best = 0;
  std::size_t a = cap_ + first;
  std::size_t b = cap_ + last;
  while (a < b) {
    if ((a & 1) != 0) best = std::max(best, tree_[a++]);
    if ((b & 1) != 0) best = std::max(best, tree_[--b]);
    a >>= 1;
    b >>= 1;
  }
  return best;
}

void FlatOccupancyIndex::insert(const Interval& iv, int weight) {
  ABT_ASSERT(weight >= 1, "occupancy weight must be at least 1");
  if (iv.empty()) return;
  // Split a breakpoint at each endpoint (carrying the incumbent level),
  // then raise every step inside [lo, hi) by `weight` — the same splice the
  // map predecessor performed, now as bounded in-block moves. The hi
  // split sits strictly after lo, so it can only move lo's position by
  // splitting a block — re-locate only in that (1-in-kBlockCap/2) case.
  bool created_lo = false;
  bool created_hi = false;
  Pos lo = split(iv.lo, &created_lo);
  const std::size_t blocks_before = blocks_.size();
  const Pos hi = split(iv.hi, &created_hi);
  if (blocks_.size() != blocks_before) lo = locate_lower(iv.lo);
  increment_range(lo, hi, weight);
  ++count_;
  if constexpr (kAuditEnabled) audit_invariants();
}

void FlatOccupancyIndex::audit_invariants() const {
  if constexpr (!kAuditEnabled) return;
  ABT_DBG_ASSERT(blocks_.size() == firsts_.size(),
                 "block directory out of sync with block storage");
  ABT_DBG_ASSERT(count_ >= 0, "negative insert count");
  RealTime prev = -std::numeric_limits<RealTime>::infinity();
  for (std::size_t b = 0; b < blocks_.size(); ++b) {
    const Block& blk = blocks_[b];
    ABT_DBG_ASSERT(blk.n >= 1 && blk.n <= kBlockCap,
                   "block occupancy outside [1, kBlockCap]");
    ABT_DBG_ASSERT(firsts_[b] == blk.coords[0],
                   "firsts_ does not mirror its block's first coordinate");
    int max_seen = 0;
    for (std::size_t x = 0; x < blk.n; ++x) {
      ABT_DBG_ASSERT(blk.coords[x] > prev,
                     "breakpoint coordinates not strictly ascending");
      prev = blk.coords[x];
      ABT_DBG_ASSERT(blk.levels[x] >= 0, "negative coverage level");
      max_seen = std::max(max_seen, blk.levels[x]);
    }
    ABT_DBG_ASSERT(blk.max_level == max_seen,
                   "block maximum inconsistent with its entries");
  }
  // Implicit max-tree: every live leaf mirrors its block's maximum, and
  // every internal node whose subtree is entirely live aggregates its
  // children (stale leaves past blocks_.size() are never read by queries,
  // so they carry no invariant).
  if (!blocks_.empty()) {
    ABT_DBG_ASSERT(cap_ >= blocks_.size() && tree_.size() == 2 * cap_,
                   "max-tree smaller than the live block range");
    for (std::size_t b = 0; b < blocks_.size(); ++b) {
      ABT_DBG_ASSERT(tree_[cap_ + b] == blocks_[b].max_level,
                     "max-tree leaf does not mirror its block maximum");
    }
    for (std::size_t i = 1; i < cap_; ++i) {
      // Subtree of node i covers leaves [lo, hi): fully live <=> hi <= nb.
      std::size_t span = 1;
      std::size_t node = i;
      while (node < cap_) {
        node *= 2;
        span *= 2;
      }
      const std::size_t leaf_lo = node - cap_;
      if (leaf_lo + span <= blocks_.size()) {
        ABT_DBG_ASSERT(tree_[i] == std::max(tree_[2 * i], tree_[2 * i + 1]),
                       "max-tree internal node out of date");
      }
    }
  }
}

double FlatIntervalSet::measure_in(const Interval& window) const {
  double total = 0.0;
  const std::size_t n = set_.size();
  for (std::size_t i = first_overlapping(window);
       i < n && set_[i].lo < window.hi; ++i) {
    const double lo = std::max(set_[i].lo, window.lo);
    const double hi = std::min(set_[i].hi, window.hi);
    if (hi > lo) total += hi - lo;
  }
  return total;
}

void FlatIntervalSet::covered_in(const Interval& window,
                                 std::vector<Interval>& out,
                                 double sliver_eps) const {
  out.clear();
  const std::size_t n = set_.size();
  for (std::size_t i = first_overlapping(window);
       i < n && set_[i].lo < window.hi; ++i) {
    const double lo = std::max(set_[i].lo, window.lo);
    const double hi = std::min(set_[i].hi, window.hi);
    if (hi > lo + sliver_eps) out.push_back({lo, hi});
  }
}

void FlatIntervalSet::free_in(const Interval& window,
                              std::vector<Interval>& out,
                              double sliver_eps) const {
  out.clear();
  const auto keep = [&out, sliver_eps](const Interval& gap) {
    if (gap.length() > sliver_eps) out.push_back(gap);
  };
  double cursor = window.lo;
  const std::size_t n = set_.size();
  for (std::size_t i = first_overlapping(window);
       i < n && set_[i].lo < window.hi; ++i) {
    if (set_[i].lo > cursor) keep({cursor, std::min(set_[i].lo, window.hi)});
    cursor = std::max(cursor, set_[i].hi);
    if (cursor >= window.hi) break;
  }
  if (cursor < window.hi) keep({cursor, window.hi});
}

void FlatIntervalSet::insert(Interval iv) {
  // First stored lo > iv.lo, mirroring the map's upper_bound on the lo key.
  const Interval* base = set_.data();
  std::size_t idx = 0;
  {
    std::size_t len = set_.size();
    while (len > 0) {
      const std::size_t half = len / 2;
      const bool right = !(iv.lo < base[idx + half].lo);
      idx = right ? idx + half + 1 : idx;
      len = right ? len - half - 1 : half;
    }
  }
  std::size_t erase_begin = idx;
  std::size_t erase_end = idx;
  if (idx > 0 && iv.lo <= set_[idx - 1].hi + kMergeEps) {
    iv.lo = set_[idx - 1].lo;
    iv.hi = std::max(iv.hi, set_[idx - 1].hi);
    --erase_begin;
  }
  while (erase_end < set_.size() && set_[erase_end].lo <= iv.hi + kMergeEps) {
    iv.hi = std::max(iv.hi, set_[erase_end].hi);
    ++erase_end;
  }
  if (erase_begin < erase_end) {
    set_[erase_begin] = iv;
    set_.erase(set_.begin() + static_cast<std::ptrdiff_t>(erase_begin) + 1,
               set_.begin() + static_cast<std::ptrdiff_t>(erase_end));
  } else {
    set_.insert(set_.begin() + static_cast<std::ptrdiff_t>(erase_begin), iv);
  }
  if constexpr (kAuditEnabled) audit_invariants();
}

void FlatIntervalSet::audit_invariants() const {
  if constexpr (!kAuditEnabled) return;
  for (std::size_t i = 0; i < set_.size(); ++i) {
    ABT_DBG_ASSERT(set_[i].hi > set_[i].lo, "empty stored interval");
    if (i > 0) {
      ABT_DBG_ASSERT(set_[i].lo > set_[i - 1].hi + kMergeEps,
                     "adjacent intervals within merge tolerance (should "
                     "have coalesced on insert)");
    }
  }
}

std::size_t FlatIntervalSet::first_overlapping(const Interval& w) const {
  const Interval* base = set_.data();
  std::size_t idx = 0;
  std::size_t len = set_.size();
  while (len > 0) {
    const std::size_t half = len / 2;
    const bool right = !(w.lo < base[idx + half].lo);
    idx = right ? idx + half + 1 : idx;
    len = right ? len - half - 1 : half;
  }
  if (idx > 0 && set_[idx - 1].hi > w.lo) return idx - 1;
  return idx;
}

namespace {
constexpr RealTime kNoMachine = std::numeric_limits<RealTime>::infinity();
}  // namespace

void MachineFreeIndex::rebuild(std::size_t capacity) {
  cap_ = capacity;
  tree_.assign(2 * cap_, kNoMachine);
  for (std::size_t i = 0; i < keys_.size(); ++i) tree_[cap_ + i] = keys_[i];
  for (std::size_t i = cap_ - 1; i >= 1; --i) {
    tree_[i] = std::min(tree_[2 * i], tree_[2 * i + 1]);
  }
}

void MachineFreeIndex::reserve(std::size_t machines) {
  std::size_t cap = cap_ == 0 ? 1 : cap_;
  while (cap < machines) cap *= 2;
  if (cap <= cap_) return;
  // Reserve one doubling ahead so the next growth's assign() reuses the
  // allocation instead of reallocating and re-copying the whole tree.
  keys_.reserve(2 * cap);
  tree_.reserve(4 * cap);
  rebuild(cap);
}

int MachineFreeIndex::push_back(RealTime key) {
  keys_.push_back(key);
  if (keys_.size() > cap_) {
    reserve(keys_.size());  // geometric: rounds up to the next power of two
  } else {
    set(static_cast<int>(keys_.size()) - 1, key);
  }
  return static_cast<int>(keys_.size()) - 1;
}

void MachineFreeIndex::set(int i, RealTime key) {
  keys_[static_cast<std::size_t>(i)] = key;
  std::size_t node = cap_ + static_cast<std::size_t>(i);
  tree_[node] = key;
  for (node /= 2; node >= 1; node /= 2) {
    tree_[node] = std::min(tree_[2 * node], tree_[2 * node + 1]);
  }
}

int MachineFreeIndex::first_at_most(RealTime x) const {
  if (cap_ == 0 || tree_[1] > x) return -1;
  std::size_t node = 1;
  while (node < cap_) {
    node = (tree_[2 * node] <= x) ? 2 * node : 2 * node + 1;
  }
  const int index = static_cast<int>(node - cap_);
  return index < size() ? index : -1;
}

}  // namespace abt::core
