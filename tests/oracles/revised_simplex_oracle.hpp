#pragma once

// lp::SimplexSolver::solve as it was before its buffers moved into a
// per-thread spare pool and its eta index became one flat list: the
// revised simplex over a sparse LU, copied here (only the reading of the
// LinearProblem rows adapted to their flat layout) so that the reference
// does not move with the library. The reference of LpEquivalence in
// tests/test_lp_rounding.cpp, which requires the library's pivot count,
// objective and every variable to equal this copy's bit for bit. Test-side
// only, never linked into the library. Do not optimize this header; its
// value is staying frozen.

#include <algorithm>
#include <cmath>
#include <numeric>
#include <vector>

#include "core/assert.hpp"
#include "lp/simplex.hpp"

namespace abt::lp::oracle::revised {

inline constexpr std::size_t ix(int i) { return static_cast<std::size_t>(i); }

/// Below this magnitude a pivot counts as zero (singular basis).
constexpr double kSingularTol = 1e-11;
/// Smallest |alpha| the ratio test pivots on.
constexpr double kPivotTol = 1e-9;
/// Entries below this are dropped from eta columns.
constexpr double kDropTol = 1e-14;
/// A kernel pivot must be at least this fraction of its column's largest
/// entry; among those, the sparsest row wins (threshold Markowitz).
constexpr double kKernelThreshold = 0.1;
/// Basis changes between LU refactorizations. On LP1 (n = 128) anything
/// from 256 to 1024 measured alike, 64-128 slower: refactoring costs more
/// than the longer eta file saves.
constexpr int kRefactorInterval = 256;

/// Compressed sparse vectors: entries [start[k], start[k + 1]) of
/// (index, value).
struct SparseList {
  std::vector<int> start{0};
  std::vector<int> index;
  std::vector<double> value;

  void clear() {
    start.assign(1, 0);
    index.clear();
    value.clear();
  }
  void push(int i, double v) {
    index.push_back(i);
    value.push_back(v);
  }
  void close() { start.push_back(static_cast<int>(index.size())); }
  [[nodiscard]] int size() const { return static_cast<int>(start.size()) - 1; }
};

/// B = L U of an m x m basis matrix, plus product-form etas for the basis
/// changes since the last factorization. Columns of B are indexed by basis
/// position, rows by constraint row.
///
/// factor() eliminates in a pivot sequence (row r_k, position c_k): column
/// singletons first (no L entries), then row singletons (no U entries
/// beyond the pivot), then the remaining kernel with threshold Markowitz
/// pivoting. Neither singleton step fills the kernel.
class BasisFactor {
 public:
  /// Factors the basis whose column p is `columns` list p (row, value).
  /// Returns false when the basis is (numerically) singular.
  bool factor(int m, const SparseList& columns);

  /// Solves B out = rhs for `rhs` (row space) nonzero only at rows
  /// `rhs_nz` (no repeats), into an `out` (position space) that is zero on
  /// entry, listing out's nonzero positions in `out_nz`. `rhs` is left
  /// zeroed and `rhs_nz` is clobbered. Visits only the pivots the rhs
  /// reaches (a depth-first search over U, Gilbert-Peierls), so a simplex
  /// column costs its fill, not m. Measured on LP1 (n = 128, crash start
  /// included): 2.9 ms per solve, against 4.5 ms with full-sweep triangular
  /// solves and a plain eta file (docs/ALGORITHMS.md).
  void ftran(std::vector<double>& rhs, std::vector<int>& rhs_nz,
             std::vector<double>& out, std::vector<int>& out_nz);
  /// Solves B' out = rhs, the same way: `rhs` (position space) nonzero
  /// only at `rhs_nz`, `out` (row space) zero on entry, out's nonzero rows
  /// listed in `out_nz`.
  void btran(std::vector<double>& rhs, std::vector<int>& rhs_nz,
             std::vector<double>& out, std::vector<int>& out_nz);

  /// Records that position `pos` now holds the column whose FTRAN image
  /// (before this update) is `column`, nonzero at `nonzeros`.
  void add_eta(int pos, const std::vector<double>& column,
               const std::vector<int>& nonzeros);
  [[nodiscard]] int num_etas() const { return etas_.size(); }

 private:
  struct Pivot {
    int row = 0;
    int pos = 0;
    double inv = 0.0;  // 1 / pivot value
  };

  void add_pivot(int row, int pos, double value) {
    pivots_.push_back({row, pos, 1.0 / value});
    l_.close();
    u_.close();
  }
  bool factor_kernel(const SparseList& columns);

  int m_ = 0;
  std::vector<Pivot> pivots_;
  SparseList l_;                  // per pivot: (row, multiplier)
  SparseList u_;                  // per pivot: off-diagonal (position, value)
  std::vector<int> l_pivots_;     // pivots with a nonempty L column
  SparseList uc_;                 // U by position: (row of the pivot, value)
  SparseList etas_;               // per eta: off-pivot (position, value)
  std::vector<int> eta_pos_;
  std::vector<double> eta_inv_;
  // The same entries by position: (eta, value), etas ascending.
  std::vector<std::vector<std::pair<int, double>>> eta_by_pos_;
  std::vector<double> eta_dot_;   // btran scratch, per eta
  // Scratch reused across factorizations.
  SparseList rows_;               // B row-wise: (position, value)
  std::vector<char> row_done_;
  std::vector<char> col_done_;
  std::vector<int> count_;
  std::vector<int> stack_;
  // Kernel elimination scratch.
  std::vector<int> kernel_rows_;
  std::vector<int> kernel_cols_;
  std::vector<std::vector<std::pair<int, double>>> active_rows_;
  std::vector<std::vector<int>> active_cols_;
  std::vector<int> col_count_;
  std::vector<std::vector<int>> buckets_;
  std::vector<char> row_used_;
  std::vector<char> col_used_;
  std::vector<double> work_;
  std::vector<char> in_work_;
  // Hypersparse solves: pivot lookups, DFS scratch and nonzero marks.
  std::vector<int> pivot_of_row_;
  std::vector<int> pivot_of_pos_;
  std::vector<int> topo_;                    // reached pivots, postorder
  std::vector<std::pair<int, int>> dfs_;     // (pivot, next edge)
  std::vector<char> pivot_mark_;
  std::vector<char> row_mark_;
  std::vector<char> pos_mark_;

  /// Fills topo_ with the pivots reachable from `roots`, in postorder (a
  /// pivot after everything it reaches). Pivot k's edges are the entries
  /// [begin(k), end(k)) of a factor list; target(e) is the pivot entry e
  /// leads to.
  template <typename Begin, typename End, typename Target>
  void reach(const std::vector<int>& roots, Begin begin, End end,
             Target target);
};

inline bool BasisFactor::factor(int m, const SparseList& columns) {
  m_ = m;
  const std::size_t um = ix(m);
  pivots_.clear();
  l_.clear();
  u_.clear();
  etas_.clear();
  eta_pos_.clear();
  eta_inv_.clear();
  eta_by_pos_.resize(um);
  for (auto& list : eta_by_pos_) list.clear();

  // Row-wise copy of B.
  rows_.start.assign(um + 1, 0);
  for (const int r : columns.index) ++rows_.start[ix(r) + 1];
  std::partial_sum(rows_.start.begin(), rows_.start.end(),
                   rows_.start.begin());
  rows_.index.resize(columns.index.size());
  rows_.value.resize(columns.index.size());
  stack_.assign(rows_.start.begin(), rows_.start.end() - 1);
  for (int p = 0; p < m; ++p) {
    for (int e = columns.start[ix(p)]; e < columns.start[ix(p) + 1]; ++e) {
      const std::size_t at = ix(stack_[ix(columns.index[ix(e)])]++);
      rows_.index[at] = p;
      rows_.value[at] = columns.value[ix(e)];
    }
  }
  const auto row_begin = [this](int r) { return rows_.start[ix(r)]; };
  const auto row_end = [this](int r) { return rows_.start[ix(r) + 1]; };
  const auto col_begin = [&columns](int p) { return columns.start[ix(p)]; };
  const auto col_end = [&columns](int p) { return columns.start[ix(p) + 1]; };

  row_done_.assign(um, 0);
  col_done_.assign(um, 0);
  count_.assign(um, 0);
  stack_.clear();

  // Column singletons: the pivot row's other active entries become U.
  for (int p = 0; p < m; ++p) {
    count_[ix(p)] = col_end(p) - col_begin(p);
    if (count_[ix(p)] == 0) return false;
    if (count_[ix(p)] == 1) stack_.push_back(p);
  }
  while (!stack_.empty()) {
    const int p = stack_.back();
    stack_.pop_back();
    if (col_done_[ix(p)] != 0) continue;
    if (count_[ix(p)] == 0) return false;
    int r = -1;
    double pivot = 0.0;
    for (int e = col_begin(p); e < col_end(p); ++e) {
      if (row_done_[ix(columns.index[ix(e)])] == 0) {
        r = columns.index[ix(e)];
        pivot = columns.value[ix(e)];
        break;
      }
    }
    if (std::abs(pivot) <= kSingularTol) return false;
    row_done_[ix(r)] = 1;
    col_done_[ix(p)] = 1;
    for (int e = row_begin(r); e < row_end(r); ++e) {
      const int q = rows_.index[ix(e)];
      if (col_done_[ix(q)] != 0) continue;
      u_.push(q, rows_.value[ix(e)]);
      if (--count_[ix(q)] == 1) stack_.push_back(q);
    }
    add_pivot(r, p, pivot);
  }

  // Row singletons: the pivot column's other active entries become L.
  for (int r = 0; r < m; ++r) {
    if (row_done_[ix(r)] != 0) continue;
    count_[ix(r)] = 0;
    for (int e = row_begin(r); e < row_end(r); ++e) {
      if (col_done_[ix(rows_.index[ix(e)])] == 0) ++count_[ix(r)];
    }
    if (count_[ix(r)] == 0) return false;
    if (count_[ix(r)] == 1) stack_.push_back(r);
  }
  while (!stack_.empty()) {
    const int r = stack_.back();
    stack_.pop_back();
    if (row_done_[ix(r)] != 0) continue;
    if (count_[ix(r)] == 0) return false;
    int p = -1;
    double pivot = 0.0;
    for (int e = row_begin(r); e < row_end(r); ++e) {
      if (col_done_[ix(rows_.index[ix(e)])] == 0) {
        p = rows_.index[ix(e)];
        pivot = rows_.value[ix(e)];
        break;
      }
    }
    if (std::abs(pivot) <= kSingularTol) return false;
    row_done_[ix(r)] = 1;
    col_done_[ix(p)] = 1;
    for (int e = col_begin(p); e < col_end(p); ++e) {
      const int i = columns.index[ix(e)];
      if (row_done_[ix(i)] != 0) continue;
      l_.push(i, columns.value[ix(e)] / pivot);
      if (--count_[ix(i)] == 1) stack_.push_back(i);
    }
    add_pivot(r, p, pivot);
  }

  if (!factor_kernel(columns)) return false;

  l_pivots_.clear();
  pivot_of_row_.resize(um);
  pivot_of_pos_.resize(um);
  for (int k = 0; k < m; ++k) {
    if (l_.start[ix(k)] < l_.start[ix(k) + 1]) l_pivots_.push_back(k);
    pivot_of_row_[ix(pivots_[ix(k)].row)] = k;
    pivot_of_pos_[ix(pivots_[ix(k)].pos)] = k;
  }
  pivot_mark_.assign(um, 0);
  row_mark_.assign(um, 0);
  pos_mark_.assign(um, 0);
  // Column-wise U for FTRAN's back substitution.
  uc_.start.assign(um + 1, 0);
  for (const int p : u_.index) ++uc_.start[ix(p) + 1];
  std::partial_sum(uc_.start.begin(), uc_.start.end(), uc_.start.begin());
  uc_.index.resize(u_.index.size());
  uc_.value.resize(u_.index.size());
  stack_.assign(uc_.start.begin(), uc_.start.end() - 1);
  for (std::size_t k = 0; k < um; ++k) {
    for (int e = u_.start[k]; e < u_.start[k + 1]; ++e) {
      const std::size_t at = ix(stack_[ix(u_.index[ix(e)])]++);
      uc_.index[at] = pivots_[k].row;
      uc_.value[at] = u_.value[ix(e)];
    }
  }
  return true;
}

inline bool BasisFactor::factor_kernel(const SparseList& columns) {
  // The rows and positions no singleton took: square, and on LP1 sparse
  // (about two entries per column) with little fill, so it is eliminated
  // sparsely. Each step pivots on a column of fewest active entries (lazy
  // buckets by count), choosing among that column's rows within
  // kKernelThreshold of its largest the shortest one.
  std::vector<int>& krows = kernel_rows_;
  std::vector<int>& kcols = kernel_cols_;
  krows.clear();
  kcols.clear();
  for (int i = 0; i < m_; ++i) {
    if (row_done_[ix(i)] == 0) krows.push_back(i);
    if (col_done_[ix(i)] == 0) kcols.push_back(i);
  }
  if (krows.size() != kcols.size()) return false;
  const std::size_t k = krows.size();
  if (k == 0) return true;

  // count_ maps an original row to its kernel row.
  for (std::size_t i = 0; i < k; ++i) count_[ix(krows[i])] = static_cast<int>(i);
  // Active entries row-wise (values) and column-wise (row pattern; rows
  // retired as pivots stay listed and are skipped).
  if (active_rows_.size() < k) {
    active_rows_.resize(k);
    active_cols_.resize(k);
  }
  col_count_.assign(k, 0);
  for (std::size_t i = 0; i < k; ++i) {
    active_rows_[i].clear();
    active_cols_[i].clear();
  }
  for (std::size_t j = 0; j < k; ++j) {
    const int p = kcols[j];
    for (int e = columns.start[ix(p)]; e < columns.start[ix(p) + 1]; ++e) {
      const int r = columns.index[ix(e)];
      if (row_done_[ix(r)] != 0) continue;
      const int i = count_[ix(r)];
      active_rows_[ix(i)].emplace_back(static_cast<int>(j), columns.value[ix(e)]);
      active_cols_[j].push_back(i);
    }
    col_count_[j] = static_cast<int>(active_cols_[j].size());
  }
  if (buckets_.size() < k + 1) buckets_.resize(k + 1);
  for (std::size_t c = 0; c <= k; ++c) buckets_[c].clear();
  for (std::size_t j = 0; j < k; ++j) {
    buckets_[ix(col_count_[j])].push_back(static_cast<int>(j));
  }
  const auto value_at = [this](int i, int j) {
    for (const auto& [c, v] : active_rows_[ix(i)]) {
      if (c == j) return v;
    }
    return 0.0;
  };

  row_used_.assign(k, 0);
  col_used_.assign(k, 0);
  work_.assign(k, 0.0);
  in_work_.assign(k, 0);
  std::size_t lowest = 0;  // no bucket below this holds a live column
  for (std::size_t step = 0; step < k; ++step) {
    int s = -1;
    for (std::size_t c = lowest; c <= k && s < 0; ++c) {
      auto& bucket = buckets_[c];
      while (!bucket.empty()) {
        const int j = bucket.back();
        bucket.pop_back();
        if (col_used_[ix(j)] == 0 && ix(col_count_[ix(j)]) == c) {
          s = j;
          lowest = c;
          break;
        }
      }
    }
    if (s < 0) return false;
    double col_max = 0.0;
    for (const int i : active_cols_[ix(s)]) {
      if (row_used_[ix(i)] == 0) {
        col_max = std::max(col_max, std::abs(value_at(i, s)));
      }
    }
    if (col_max <= kSingularTol) return false;
    int best = -1;
    for (const int i : active_cols_[ix(s)]) {
      if (row_used_[ix(i)] != 0 ||
          std::abs(value_at(i, s)) < kKernelThreshold * col_max) {
        continue;
      }
      const std::size_t len = active_rows_[ix(i)].size();
      if (best < 0 || len < active_rows_[ix(best)].size() ||
          (len == active_rows_[ix(best)].size() && i < best)) {
        best = i;
      }
    }
    const double pivot = value_at(best, s);
    row_used_[ix(best)] = 1;
    col_used_[ix(s)] = 1;
    const auto& prow = active_rows_[ix(best)];
    const auto requeue = [this, &lowest](int j) {
      buckets_[ix(col_count_[ix(j)])].push_back(j);
      lowest = std::min(lowest, ix(col_count_[ix(j)]));
    };
    for (const auto& [j, v] : prow) {
      if (j == s) continue;
      u_.push(kcols[ix(j)], v);
      --col_count_[ix(j)];
      requeue(j);
    }
    for (const int i : active_cols_[ix(s)]) {
      if (row_used_[ix(i)] != 0) continue;
      auto& irow = active_rows_[ix(i)];
      const double a = value_at(i, s);
      if (a != 0.0) {
        const double l = a / pivot;
        l_.push(krows[ix(i)], l);
        // row_i -= l * row_p, through a scatter over the kernel columns.
        for (const auto& [j, v] : irow) {
          work_[ix(j)] = v;
          in_work_[ix(j)] = 1;
        }
        for (const auto& [j, v] : prow) {
          if (j == s) continue;
          if (in_work_[ix(j)] == 0) {
            in_work_[ix(j)] = 1;
            work_[ix(j)] = 0.0;
            irow.emplace_back(j, 0.0);
            active_cols_[ix(j)].push_back(i);
            ++col_count_[ix(j)];
            requeue(j);
          }
          work_[ix(j)] -= l * v;
        }
      }
      // Drop column s from row i (a cancelled entry is dropped as well).
      std::size_t kept = 0;
      for (const auto& [j, v] : irow) {
        in_work_[ix(j)] = 0;
        if (j != s) irow[kept++] = {j, a != 0.0 ? work_[ix(j)] : v};
      }
      irow.resize(kept);
    }
    add_pivot(krows[ix(best)], kcols[ix(s)], pivot);
  }
  return true;
}

template <typename Begin, typename End, typename Target>
inline void BasisFactor::reach(const std::vector<int>& roots, Begin begin,
                               End end, Target target) {
  topo_.clear();
  for (const int root : roots) {
    if (pivot_mark_[ix(root)] != 0) continue;
    pivot_mark_[ix(root)] = 1;
    dfs_.emplace_back(root, begin(root));
    while (!dfs_.empty()) {
      const int k = dfs_.back().first;
      const int e = dfs_.back().second;
      if (e == end(k)) {
        topo_.push_back(k);
        dfs_.pop_back();
        continue;
      }
      ++dfs_.back().second;
      const int next = target(e);
      if (pivot_mark_[ix(next)] == 0) {
        pivot_mark_[ix(next)] = 1;
        dfs_.emplace_back(next, begin(next));
      }
    }
  }
  for (const int k : topo_) pivot_mark_[ix(k)] = 0;
}

inline void BasisFactor::ftran(std::vector<double>& rhs,
                               std::vector<int>& rhs_nz,
                               std::vector<double>& out,
                               std::vector<int>& out_nz) {
  out_nz.clear();
  for (const int r : rhs_nz) row_mark_[ix(r)] = 1;
  for (const int k : l_pivots_) {
    const double v = rhs[ix(pivots_[ix(k)].row)];
    if (v == 0.0) continue;
    for (int e = l_.start[ix(k)]; e < l_.start[ix(k) + 1]; ++e) {
      const int i = l_.index[ix(e)];
      if (row_mark_[ix(i)] == 0) {
        row_mark_[ix(i)] = 1;
        rhs_nz.push_back(i);
      }
      rhs[ix(i)] -= l_.value[ix(e)] * v;
    }
  }
  for (const int r : rhs_nz) row_mark_[ix(r)] = 0;
  for (int& r : rhs_nz) r = pivot_of_row_[ix(r)];  // roots: their pivots
  reach(rhs_nz, [this](int k) { return uc_.start[ix(pivots_[ix(k)].pos)]; },
        [this](int k) { return uc_.start[ix(pivots_[ix(k)].pos) + 1]; },
        [this](int e) { return pivot_of_row_[ix(uc_.index[ix(e)])]; });
  rhs_nz.clear();
  // Reverse postorder: each pivot before the earlier ones it updates.
  for (auto it = topo_.rbegin(); it != topo_.rend(); ++it) {
    const Pivot& piv = pivots_[ix(*it)];
    const double a = rhs[ix(piv.row)];
    if (a == 0.0) continue;
    rhs[ix(piv.row)] = 0.0;
    const double v = a * piv.inv;
    out[ix(piv.pos)] = v;
    out_nz.push_back(piv.pos);
    for (int e = uc_.start[ix(piv.pos)]; e < uc_.start[ix(piv.pos) + 1]; ++e) {
      rhs[ix(uc_.index[ix(e)])] -= uc_.value[ix(e)] * v;
    }
  }
  for (const int p : out_nz) pos_mark_[ix(p)] = 1;
  for (std::size_t t = 0; t < eta_pos_.size(); ++t) {
    const std::size_t p = ix(eta_pos_[t]);
    if (out[p] == 0.0) continue;
    const double v = out[p] * eta_inv_[t];
    out[p] = v;
    for (int e = etas_.start[t]; e < etas_.start[t + 1]; ++e) {
      const int i = etas_.index[ix(e)];
      if (pos_mark_[ix(i)] == 0) {
        pos_mark_[ix(i)] = 1;
        out_nz.push_back(i);
      }
      out[ix(i)] -= etas_.value[ix(e)] * v;
    }
  }
  for (const int p : out_nz) pos_mark_[ix(p)] = 0;
}

inline void BasisFactor::btran(std::vector<double>& rhs,
                               std::vector<int>& rhs_nz,
                               std::vector<double>& out,
                               std::vector<int>& out_nz) {
  out_nz.clear();
  // Etas, newest first, through per-eta dot products kept up to date from
  // the position-wise eta index: only etas that share a position with a
  // nonzero of rhs cost anything.
  eta_dot_.assign(eta_pos_.size(), 0.0);
  for (const int p : rhs_nz) {
    pos_mark_[ix(p)] = 1;
    for (const auto& [t, v] : eta_by_pos_[ix(p)]) {
      eta_dot_[ix(t)] += v * rhs[ix(p)];
    }
  }
  for (std::size_t t = eta_pos_.size(); t-- > 0;) {
    const std::size_t p = ix(eta_pos_[t]);
    const double old = rhs[p];
    const double now = (old - eta_dot_[t]) * eta_inv_[t];
    if (now == old) continue;
    rhs[p] = now;
    if (pos_mark_[p] == 0) {
      pos_mark_[p] = 1;
      rhs_nz.push_back(static_cast<int>(p));
    }
    for (const auto& [u, v] : eta_by_pos_[p]) {
      if (ix(u) >= t) break;
      eta_dot_[ix(u)] += v * (now - old);
    }
  }
  for (const int p : rhs_nz) pos_mark_[ix(p)] = 0;
  for (int& p : rhs_nz) p = pivot_of_pos_[ix(p)];  // roots: their pivots
  reach(rhs_nz, [this](int k) { return u_.start[ix(k)]; },
        [this](int k) { return u_.start[ix(k) + 1]; },
        [this](int e) { return pivot_of_pos_[ix(u_.index[ix(e)])]; });
  rhs_nz.clear();
  // Reverse postorder: each pivot before the later ones it updates.
  for (auto it = topo_.rbegin(); it != topo_.rend(); ++it) {
    const Pivot& piv = pivots_[ix(*it)];
    const double a = rhs[ix(piv.pos)];
    if (a == 0.0) continue;
    rhs[ix(piv.pos)] = 0.0;
    const double w = a * piv.inv;
    out[ix(piv.row)] = w;
    out_nz.push_back(piv.row);
    for (int e = u_.start[ix(*it)]; e < u_.start[ix(*it) + 1]; ++e) {
      rhs[ix(u_.index[ix(e)])] -= u_.value[ix(e)] * w;
    }
  }
  for (const int r : out_nz) row_mark_[ix(r)] = 1;
  for (auto it = l_pivots_.rbegin(); it != l_pivots_.rend(); ++it) {
    double dot = 0.0;
    for (int e = l_.start[ix(*it)]; e < l_.start[ix(*it) + 1]; ++e) {
      dot += l_.value[ix(e)] * out[ix(l_.index[ix(e)])];
    }
    if (dot == 0.0) continue;
    const int r = pivots_[ix(*it)].row;
    out[ix(r)] -= dot;
    if (row_mark_[ix(r)] == 0) {
      row_mark_[ix(r)] = 1;
      out_nz.push_back(r);
    }
  }
  for (const int r : out_nz) row_mark_[ix(r)] = 0;
}

inline void BasisFactor::add_eta(int pos, const std::vector<double>& column,
                          const std::vector<int>& nonzeros) {
  eta_pos_.push_back(pos);
  eta_inv_.push_back(1.0 / column[ix(pos)]);
  const int t = etas_.size();
  for (const int p : nonzeros) {
    if (p != pos && std::abs(column[ix(p)]) > kDropTol) {
      etas_.push(p, column[ix(p)]);
      eta_by_pos_[ix(p)].emplace_back(t, column[ix(p)]);
    }
  }
  etas_.close();
}

enum class PhaseResult { kOptimal, kUnbounded, kIterLimit, kCancelled };

/// One solve. Variables are the n structurals, then one logical per row
/// (column e_i), then the artificials of a cold start (column +-e_i).
class RevisedSimplex {
 public:
  RevisedSimplex(const LinearProblem& problem,
                 const SimplexSolver::Options& options);

  Solution run(const StartBasis* start);

 private:
  [[nodiscard]] int num_cols() const { return static_cast<int>(lower_.size()); }
  [[nodiscard]] double nonbasic_value(int j) const {
    return at_upper_[ix(j)] != 0 ? upper_[ix(j)] : lower_[ix(j)];
  }
  void add_column(int row, double value, double lower, double upper) {
    cols_.push(row, value);
    cols_.close();
    lower_.push_back(lower);
    upper_.push_back(upper);
  }

  bool try_start(const StartBasis& start);
  void cold_start();
  void build_rows();
  bool refactor();
  void compute_primal();
  void compute_duals();
  /// Adds j to, or drops it from, the pricing candidates (the nonbasic,
  /// non-fixed columns whose reduced cost says "enter").
  void reprice(int j);
  PhaseResult run_phase();

  const LinearProblem& problem_;
  const SimplexSolver::Options& options_;
  int m_ = 0;
  int n_ = 0;
  long iterations_ = 0;

  SparseList cols_;  // every variable's column
  SparseList rows_;  // the same matrix row-wise: (variable, value)

  std::vector<double> rhs_;
  std::vector<double> lower_;
  std::vector<double> upper_;
  std::vector<double> cost_;
  std::vector<double> x_;
  std::vector<double> d_;        // reduced costs
  std::vector<double> weight_;   // Devex reference weights
  std::vector<char> at_upper_;   // nonbasic position
  std::vector<int> where_;       // basis position, -1 when nonbasic
  std::vector<int> head_;        // variable at each basis position
  std::vector<int> candidates_;  // columns eligible to enter
  std::vector<int> candidate_at_;  // index in candidates_, -1 when absent
  int first_artificial_ = 0;

  BasisFactor factor_;
  SparseList basis_cols_;
  std::vector<double> work_rows_;
  std::vector<double> work_pos_;
  std::vector<double> alpha_;      // FTRAN image of the entering column
  std::vector<int> alpha_nz_;      // its nonzero positions
  std::vector<double> rho_;        // row r of B^-1, zero between pivots
  std::vector<int> rho_nz_;        // its nonzero rows
  std::vector<int> work_nz_;       // nonzeros of a solve's input
  std::vector<int> solve_nz_;      // nonzeros of compute_*'s solve
  std::vector<double> row_alpha_;  // pivot row over the columns it touches
  std::vector<int> touched_;
  std::vector<char> touched_mark_;
};

inline RevisedSimplex::RevisedSimplex(const LinearProblem& problem,
                               const SimplexSolver::Options& options)
    : problem_(problem), options_(options) {
  m_ = problem.num_rows();
  n_ = problem.num_vars;

  // Structural columns by a counting pass over the rows, so each column
  // lists its rows in order; duplicate (row, var) entries are merged and
  // zeros dropped.
  std::vector<int> start(ix(n_) + 1, 0);
  for (int i = 0; i < m_; ++i) {
    for (const auto& [var, coeff] : problem.row(i)) ++start[ix(var) + 1];
  }
  std::partial_sum(start.begin(), start.end(), start.begin());
  std::vector<int> fill(start.begin(), start.end() - 1);
  std::vector<int> entry_row(ix(start.back()));
  std::vector<double> entry_value(entry_row.size());
  for (int i = 0; i < m_; ++i) {
    for (const auto& [var, coeff] : problem.row(i)) {
      const std::size_t at = ix(fill[ix(var)]++);
      entry_row[at] = i;
      entry_value[at] = coeff;
    }
  }
  for (int j = 0; j < n_; ++j) {
    for (int e = start[ix(j)]; e < start[ix(j) + 1]; ++e) {
      const int i = entry_row[ix(e)];
      double sum = entry_value[ix(e)];
      while (e + 1 < start[ix(j) + 1] && entry_row[ix(e) + 1] == i) {
        sum += entry_value[ix(++e)];
      }
      if (sum != 0.0) cols_.push(i, sum);
    }
    cols_.close();
    lower_.push_back(0.0);
    upper_.push_back(problem.upper[ix(j)]);
  }
  // Logicals: row_i + s_i = rhs_i.
  for (int i = 0; i < m_; ++i) {
    const Sense sense = problem.sense[ix(i)];
    rhs_.push_back(problem.rhs[ix(i)]);
    add_column(i, 1.0, sense == Sense::kGreaterEqual ? -kInfinity : 0.0,
               sense == Sense::kLessEqual ? kInfinity : 0.0);
  }
  first_artificial_ = num_cols();
  head_.assign(ix(m_), -1);
  for (auto* v : {&work_rows_, &work_pos_, &alpha_, &rho_}) {
    v->assign(ix(m_), 0.0);
  }
}

inline bool RevisedSimplex::try_start(const StartBasis& start) {
  if (start.vars.size() != ix(n_) || start.rows.size() != ix(m_)) return false;
  where_.assign(ix(num_cols()), -1);
  at_upper_.assign(ix(num_cols()), 0);
  int basic = 0;
  for (int j = 0; j < num_cols(); ++j) {
    const VarStatus status = j < n_ ? start.vars[ix(j)] : start.rows[ix(j - n_)];
    if (status == VarStatus::kBasic) {
      if (basic == m_) return false;
      head_[ix(basic)] = j;
      where_[ix(j)] = basic++;
    } else if (status == VarStatus::kAtUpper) {
      if (upper_[ix(j)] == kInfinity) return false;
      at_upper_[ix(j)] = 1;
    } else if (lower_[ix(j)] == -kInfinity) {
      return false;
    }
  }
  if (basic != m_) return false;
  x_.assign(ix(num_cols()), 0.0);
  if (!refactor()) return false;
  compute_primal();
  for (const int j : head_) {
    if (x_[ix(j)] < lower_[ix(j)] - options_.eps ||
        x_[ix(j)] > upper_[ix(j)] + options_.eps) {
      return false;
    }
  }
  return true;
}

inline void RevisedSimplex::cold_start() {
  // All-logical basis with every structural at 0; a row whose logical
  // would leave its bounds keeps the logical at 0 and takes an artificial
  // instead, basic at |rhs|.
  for (int i = 0; i < m_; ++i) {
    const int s = n_ + i;
    head_[ix(i)] = s;
    const double b = rhs_[ix(i)];
    if (b < lower_[ix(s)] || b > upper_[ix(s)]) {
      head_[ix(i)] = num_cols();
      add_column(i, b > 0.0 ? 1.0 : -1.0, 0.0, kInfinity);
    }
  }
  where_.assign(ix(num_cols()), -1);
  at_upper_.assign(ix(num_cols()), 0);
  x_.assign(ix(num_cols()), 0.0);
  for (int j = n_; j < first_artificial_; ++j) {
    if (lower_[ix(j)] == -kInfinity) at_upper_[ix(j)] = 1;
  }
  for (int p = 0; p < m_; ++p) where_[ix(head_[ix(p)])] = p;
  const bool ok = refactor();
  ABT_ASSERT(ok, "the cold-start basis is a signed identity");
  compute_primal();
}

inline void RevisedSimplex::build_rows() {
  rows_.start.assign(ix(m_) + 1, 0);
  for (const int i : cols_.index) ++rows_.start[ix(i) + 1];
  std::partial_sum(rows_.start.begin(), rows_.start.end(), rows_.start.begin());
  rows_.index.resize(cols_.index.size());
  rows_.value.resize(cols_.index.size());
  std::vector<int> fill(rows_.start.begin(), rows_.start.end() - 1);
  for (int j = 0; j < num_cols(); ++j) {
    for (int e = cols_.start[ix(j)]; e < cols_.start[ix(j) + 1]; ++e) {
      const std::size_t at = ix(fill[ix(cols_.index[ix(e)])]++);
      rows_.index[at] = j;
      rows_.value[at] = cols_.value[ix(e)];
    }
  }
  const std::size_t cols = ix(num_cols());
  row_alpha_.assign(cols, 0.0);
  touched_mark_.assign(cols, 0);
  d_.assign(cols, 0.0);
  weight_.assign(cols, 1.0);
  candidate_at_.assign(cols, -1);
}

inline bool RevisedSimplex::refactor() {
  basis_cols_.clear();
  for (const int j : head_) {
    for (int e = cols_.start[ix(j)]; e < cols_.start[ix(j) + 1]; ++e) {
      basis_cols_.push(cols_.index[ix(e)], cols_.value[ix(e)]);
    }
    basis_cols_.close();
  }
  return factor_.factor(m_, basis_cols_);
}

inline void RevisedSimplex::compute_primal() {
  std::copy(rhs_.begin(), rhs_.end(), work_rows_.begin());
  for (int j = 0; j < num_cols(); ++j) {
    if (where_[ix(j)] >= 0) continue;
    const double xj = x_[ix(j)] = nonbasic_value(j);
    if (xj == 0.0) continue;
    for (int e = cols_.start[ix(j)]; e < cols_.start[ix(j) + 1]; ++e) {
      work_rows_[ix(cols_.index[ix(e)])] -= cols_.value[ix(e)] * xj;
    }
  }
  work_nz_.clear();
  for (int i = 0; i < m_; ++i) {
    if (work_rows_[ix(i)] != 0.0) work_nz_.push_back(i);
  }
  factor_.ftran(work_rows_, work_nz_, work_pos_, solve_nz_);
  for (int p = 0; p < m_; ++p) x_[ix(head_[ix(p)])] = work_pos_[ix(p)];
  for (const int p : solve_nz_) work_pos_[ix(p)] = 0.0;
}

inline void RevisedSimplex::compute_duals() {
  work_nz_.clear();
  for (int p = 0; p < m_; ++p) {
    work_pos_[ix(p)] = cost_[ix(head_[ix(p)])];
    if (work_pos_[ix(p)] != 0.0) work_nz_.push_back(p);
  }
  factor_.btran(work_pos_, work_nz_, work_rows_, solve_nz_);  // duals
  for (int j = 0; j < num_cols(); ++j) {
    double dj = 0.0;
    if (where_[ix(j)] < 0) {
      dj = cost_[ix(j)];
      for (int e = cols_.start[ix(j)]; e < cols_.start[ix(j) + 1]; ++e) {
        dj -= cols_.value[ix(e)] * work_rows_[ix(cols_.index[ix(e)])];
      }
    }
    d_[ix(j)] = dj;
    reprice(j);
  }
  for (const int i : solve_nz_) work_rows_[ix(i)] = 0.0;
}

inline void RevisedSimplex::reprice(int j) {
  const std::size_t uj = ix(j);
  const bool eligible =
      where_[uj] < 0 && lower_[uj] != upper_[uj] &&
      (at_upper_[uj] != 0 ? d_[uj] > options_.eps : d_[uj] < -options_.eps);
  const int at = candidate_at_[uj];
  if (eligible && at < 0) {
    candidate_at_[uj] = static_cast<int>(candidates_.size());
    candidates_.push_back(j);
  } else if (!eligible && at >= 0) {
    const int last = candidates_.back();
    candidates_[ix(at)] = last;
    candidate_at_[ix(last)] = at;
    candidates_.pop_back();
    candidate_at_[uj] = -1;
  }
}

inline PhaseResult RevisedSimplex::run_phase() {
  const double eps = options_.eps;
  std::fill(weight_.begin(), weight_.end(), 1.0);
  compute_duals();
  double objective = 0.0;
  for (int j = 0; j < num_cols(); ++j) objective += cost_[ix(j)] * x_[ix(j)];
  double last_objective = kInfinity;
  int stall = 0;
  bool recomputed = true;  // x and d were just computed from scratch
  while (true) {
    if (iterations_ >= options_.max_iterations) return PhaseResult::kIterLimit;
    if ((iterations_ & 63) == 0 && options_.should_stop &&
        options_.should_stop()) {
      return PhaseResult::kCancelled;
    }
    const bool bland = stall >= options_.degeneracy_patience;

    // Pricing: Devex (largest d_j^2 / w_j), or Bland's smallest index.
    int q = -1;
    double best = 0.0;
    for (const int j : candidates_) {
      if (bland) {
        if (q < 0 || j < q) q = j;
        continue;
      }
      const double score = d_[ix(j)] * d_[ix(j)] / weight_[ix(j)];
      if (score > best) {
        best = score;
        q = j;
      }
    }
    if (q < 0) {
      // Confirm with values recomputed from the factors, not the updated
      // ones, before declaring optimality.
      if (recomputed) return PhaseResult::kOptimal;
      compute_primal();
      compute_duals();
      recomputed = true;
      continue;
    }
    recomputed = false;
    ++iterations_;
    const std::size_t uq = ix(q);
    const double dir = d_[uq] < 0.0 ? 1.0 : -1.0;
    for (const int p : alpha_nz_) alpha_[ix(p)] = 0.0;
    work_nz_.clear();
    for (int e = cols_.start[uq]; e < cols_.start[uq + 1]; ++e) {
      work_rows_[ix(cols_.index[ix(e)])] = cols_.value[ix(e)];
      work_nz_.push_back(cols_.index[ix(e)]);
    }
    factor_.ftran(work_rows_, work_nz_, alpha_, alpha_nz_);

    // Ratio test. Basic p moves at rate -dir * alpha_p per unit step.
    const auto limit = [&](int p, double slack) {
      const double rate = -dir * alpha_[ix(p)];
      const std::size_t j = ix(head_[ix(p)]);
      if (rate < 0.0) {
        return lower_[j] == -kInfinity ? kInfinity
                                       : (x_[j] - lower_[j] + slack) / -rate;
      }
      return upper_[j] == kInfinity ? kInfinity
                                    : (upper_[j] - x_[j] + slack) / rate;
    };
    int leave = -1;
    double step = kInfinity;
    if (bland) {
      // Textbook minimum ratio, ties to the smallest variable index.
      for (const int p : alpha_nz_) {
        if (std::abs(alpha_[ix(p)]) <= kPivotTol) continue;
        const double lim = std::max(limit(p, 0.0), 0.0);
        if (lim < step - eps ||
            (lim < step + eps && leave >= 0 && head_[ix(p)] < head_[ix(leave)])) {
          step = std::min(step, lim);
          leave = p;
        }
      }
    } else {
      // Harris: bound the step with tolerance-relaxed limits, then pivot
      // on the largest |alpha| whose exact limit fits under that bound.
      double relaxed = kInfinity;
      for (const int p : alpha_nz_) {
        if (std::abs(alpha_[ix(p)]) <= kPivotTol) continue;
        relaxed = std::min(relaxed, std::max(limit(p, eps), 0.0));
      }
      double best_abs = 0.0;
      for (const int p : alpha_nz_) {
        const double a = std::abs(alpha_[ix(p)]);
        if (a <= kPivotTol || a <= best_abs) continue;
        const double lim = limit(p, 0.0);
        if (lim <= relaxed) {
          best_abs = a;
          leave = p;
          step = std::max(lim, 0.0);
        }
      }
    }
    const bool flip = upper_[uq] - lower_[uq] <= step;
    if (flip) step = upper_[uq] - lower_[uq];
    if (step == kInfinity) return PhaseResult::kUnbounded;

    // Move: entering by dir * step, basics against their alpha.
    if (step > 0.0) {
      x_[uq] += dir * step;
      for (const int p : alpha_nz_) {
        x_[ix(head_[ix(p)])] -= dir * step * alpha_[ix(p)];
      }
      objective += d_[uq] * dir * step;
    }
    if (objective < last_objective - eps) {
      last_objective = objective;
      stall = 0;
    } else {
      ++stall;
    }
    if (flip) {
      at_upper_[uq] = static_cast<char>(at_upper_[uq] == 0);
      x_[uq] = nonbasic_value(q);
      reprice(q);
      continue;
    }

    // Basis change: the leaving variable settles on the bound it hit.
    const std::size_t ur = ix(leave);
    const int l = head_[ur];
    const std::size_t ul = ix(l);
    at_upper_[ul] = static_cast<char>(-dir * alpha_[ur] > 0.0);
    x_[ul] = nonbasic_value(l);

    // Pivot row r of B^-1 A, over the nonbasic columns it touches.
    work_pos_[ur] = 1.0;
    work_nz_.assign(1, leave);
    factor_.btran(work_pos_, work_nz_, rho_, rho_nz_);
    touched_.clear();
    for (const int i : rho_nz_) {
      const double ri = rho_[ix(i)];
      rho_[ix(i)] = 0.0;
      for (int e = rows_.start[ix(i)]; e < rows_.start[ix(i) + 1]; ++e) {
        const std::size_t j = ix(rows_.index[ix(e)]);
        if (where_[j] >= 0) continue;
        if (touched_mark_[j] == 0) {
          touched_mark_[j] = 1;
          touched_.push_back(static_cast<int>(j));
        }
        row_alpha_[j] += ri * rows_.value[ix(e)];
      }
    }
    const double alpha_r = alpha_[ur];
    const double dual_step = d_[uq] / alpha_r;
    const double wq = weight_[uq];
    // The pivot element seen from the row and from the column must agree;
    // when they drift apart, refactor right after this pivot.
    const bool drifted =
        std::abs(row_alpha_[uq] - alpha_r) > 1e-7 * (1.0 + std::abs(alpha_r));
    head_[ur] = q;
    where_[uq] = leave;
    where_[ul] = -1;
    for (const int j : touched_) {
      const double arj = row_alpha_[ix(j)];
      row_alpha_[ix(j)] = 0.0;
      touched_mark_[ix(j)] = 0;
      if (j == q) continue;
      d_[ix(j)] -= dual_step * arj;
      const double ratio = arj / alpha_r;
      weight_[ix(j)] = std::max(weight_[ix(j)], ratio * ratio * wq);
      reprice(j);
    }
    d_[ul] = -dual_step;
    weight_[ul] = std::max(wq / (alpha_r * alpha_r), 1.0);
    d_[uq] = 0.0;
    reprice(q);
    reprice(l);

    factor_.add_eta(leave, alpha_, alpha_nz_);
    if (drifted || factor_.num_etas() >= kRefactorInterval) {
      const bool ok = refactor();
      ABT_ASSERT(ok, "a basis reached by pivoting stays nonsingular");
      compute_primal();
      compute_duals();
    }
  }
}

inline Solution RevisedSimplex::run(const StartBasis* start) {
  Solution result;
  result.warm_start = start != nullptr && try_start(*start);
  if (!result.warm_start) cold_start();
  build_rows();

  // False (with result.status set) unless the phase reached optimality.
  const auto optimal = [&](PhaseResult pr) {
    result.pivots = iterations_;
    switch (pr) {
      case PhaseResult::kOptimal:
        return true;
      case PhaseResult::kIterLimit:
        result.status = SolveStatus::kIterLimit;
        break;
      case PhaseResult::kCancelled:
        result.status = SolveStatus::kCancelled;
        break;
      case PhaseResult::kUnbounded:
        result.status = SolveStatus::kUnbounded;
        break;
    }
    return false;
  };

  if (first_artificial_ < num_cols()) {
    // Phase 1: minimize the sum of the artificials.
    cost_.assign(ix(num_cols()), 0.0);
    std::fill(cost_.begin() + first_artificial_, cost_.end(), 1.0);
    const PhaseResult pr = run_phase();
    ABT_ASSERT(pr != PhaseResult::kUnbounded,
               "phase-1 objective is bounded below by zero");
    if (!optimal(pr)) return result;
    double infeasibility = 0.0;
    for (int j = first_artificial_; j < num_cols(); ++j) {
      infeasibility += x_[ix(j)];
    }
    if (infeasibility > 1e-6) {
      result.status = SolveStatus::kInfeasible;
      return result;
    }
    // Artificials are fixed at zero from here on; a basic one leaves on
    // the first pivot that would move it.
    std::fill(upper_.begin() + first_artificial_, upper_.end(), 0.0);
  }

  // Phase 2: the real objective.
  cost_.assign(ix(num_cols()), 0.0);
  std::copy(problem_.objective.begin(), problem_.objective.end(),
            cost_.begin());
  if (!optimal(run_phase())) return result;

  result.status = SolveStatus::kOptimal;
  result.x.assign(x_.begin(), x_.begin() + n_);
  result.objective = objective_value(problem_, result.x);
  return result;
}

inline Solution solve_revised(const LinearProblem& problem,
                              const SimplexSolver::Options& options_,
                              const StartBasis* start = nullptr) {
  ABT_ASSERT(static_cast<int>(problem.objective.size()) == problem.num_vars &&
                 static_cast<int>(problem.upper.size()) == problem.num_vars,
             "objective or bound size mismatch");
  if (problem.num_vars == 0) {
    // Vacuous problem: feasible iff every row with no variables is satisfied
    // by zero.
    Solution result;
    for (int r = 0; r < problem.num_rows(); ++r) {
      const Sense sense = problem.sense[static_cast<std::size_t>(r)];
      const double rhs = problem.rhs[static_cast<std::size_t>(r)];
      const bool ok = (sense == Sense::kLessEqual && 0.0 <= rhs) ||
                      (sense == Sense::kGreaterEqual && 0.0 >= rhs) ||
                      (sense == Sense::kEqual && rhs == 0.0);
      if (!ok) {
        result.status = SolveStatus::kInfeasible;
        return result;
      }
    }
    result.status = SolveStatus::kOptimal;
    return result;
  }
  RevisedSimplex simplex(problem, options_);
  return simplex.run(start);
}

}  // namespace abt::lp::oracle::revised
