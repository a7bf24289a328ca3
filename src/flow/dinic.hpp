#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

namespace abt::flow {

/// Integer max-flow via Dinic's algorithm (O(V^2 E), much faster on the
/// unit-capacity-heavy bipartite networks the active-time feasibility check
/// produces — Fig 2 of the paper).
///
/// Usage:
///   Dinic d(n);
///   auto e = d.add_edge(u, v, cap);
///   d.max_flow(s, t);
///   d.flow_on(e);  // flow routed through that edge
///
/// Warm restarts: after a max_flow the network can be edited in place —
/// cancel_flow() lowers an edge's flow, set_capacity() changes its bound —
/// and augment() (or max_flow()) then routes more flow on top of what is
/// already there instead of recomputing from zero. A batch of edges added
/// last can also be taken back out with truncate(), once its flow is
/// cancelled.
///
/// Storage: the adjacency lists, the edge handles and the search scratch
/// come from a per-thread spare pool and go back to it when the network is
/// destroyed, keeping their capacity. A thread that builds network after
/// network (the feasibility checks, the LP rounding's three networks per
/// solve) allocates only when a network outgrows every earlier one.
class Dinic {
 public:
  using Cap = std::int64_t;

  /// Handle to an edge, stable across max_flow calls.
  struct EdgeRef {
    std::int32_t index = -1;
  };

  explicit Dinic(int num_nodes);

  /// Adds a directed edge u -> v with capacity `cap`; returns a handle that
  /// can be queried for the routed flow after max_flow().
  EdgeRef add_edge(int u, int v, Cap cap);

  /// Cooperative-stop knobs for long flow computations. A plain callback
  /// (same pattern as lp::SimplexSolver::Options::should_stop) keeps the
  /// flow layer free of engine/core types.
  struct Options {
    /// Polled once per BFS phase and every kStopPollPaths augmenting
    /// paths; returning true abandons the computation.
    std::function<bool()> should_stop;
  };

  /// How many augmenting paths run between should_stop polls inside one
  /// phase. Phases on the feasibility networks route many unit paths, so
  /// phase-boundary polling alone could let a cancelled budget run for a
  /// whole phase.
  static constexpr int kStopPollPaths = 64;

  /// Routes a maximum s-t flow on top of the flow already in the network
  /// and returns the amount it added: the full max flow on a fresh
  /// network, 0 when called again with nothing edited, and the increment
  /// after cancel_flow()/set_capacity() edits. Add no edges after the
  /// first call.
  Cap max_flow(int s, int t);

  /// Cancellable variant: polls `options.should_stop` and, when it trips,
  /// stops early, sets `*cancelled` (when non-null) and returns the flow
  /// routed so far — a LOWER bound on the max flow. Callers must not read
  /// a cancelled value as "the max flow is this small" (in particular, a
  /// cancelled feasibility check is not "infeasible").
  Cap max_flow(int s, int t, const Options& options,
               bool* cancelled = nullptr);

  /// Routes up to `limit` more units from `s` to `t` on top of the current
  /// flow, one shortest augmenting path at a time; each path search is a
  /// BFS that stops as soon as it reaches `t`. Returns the units routed:
  /// less than `limit` only when no augmenting path is left (the flow is
  /// then maximum) or when `options.should_stop` — polled before every
  /// path search — tripped, which sets `*cancelled` (when non-null).
  /// Cheaper than max_flow when only a few units are missing, since it
  /// never builds a full level graph.
  Cap augment(int s, int t, Cap limit, const Options& options = {},
              bool* cancelled = nullptr);

  /// Lowers the flow on edge `e` by `units` (the edge must carry at least
  /// that much). The caller restores conservation, typically by cancelling
  /// the same units along the rest of their path.
  void cancel_flow(EdgeRef e, Cap units);

  /// Sets edge `e`'s capacity to `cap`, keeping its flow (which must not
  /// exceed `cap`).
  void set_capacity(EdgeRef e, Cap cap);

  /// Removes edge `first` and every edge added after it, newest first.
  /// Each removed edge (and its reverse) must be the last entry of its
  /// node's adjacency list, which holds for a batch added last and popped
  /// whole, and must carry no flow: cancel it first. Handles of the
  /// removed edges become invalid; the next add_edge reuses them.
  void truncate(EdgeRef first);

  /// Flow currently routed on edge `e` (meaningful after max_flow).
  [[nodiscard]] Cap flow_on(EdgeRef e) const;

  /// Remaining capacity of edge `e`.
  [[nodiscard]] Cap residual_on(EdgeRef e) const;

  [[nodiscard]] int num_nodes() const { return num_nodes_; }

  /// Nodes reachable from `s` in the residual graph (the min-cut's source
  /// side after max_flow).
  [[nodiscard]] std::vector<bool> min_cut_side(int s) const;

 private:
  struct Edge {
    int to;
    Cap cap;        // remaining capacity
    Cap original;   // current capacity bound (flow = original - cap)
    std::int32_t rev;  // index of the reverse edge in adj(to)
  };

  /// Everything a network owns. Only the first num_nodes_ adjacency lists
  /// are in use; a recycled Storage may hold more, cleared but kept.
  struct Storage {
    std::vector<std::vector<Edge>> graph;
    // EdgeRef -> (node, index in its adjacency list)
    std::vector<std::pair<int, std::int32_t>> edge_locator;
    std::vector<int> level;
    std::vector<std::size_t> iter;
    std::vector<std::pair<int, std::int32_t>> parent;  // find_path's tree
    std::vector<int> queue;                            // bfs / find_path queue
  };
  /// Hands a Storage back to the calling thread's spare pool.
  struct Recycle {
    void operator()(Storage* storage) const;
  };
  /// The calling thread's spare Storages; null once the thread is exiting
  /// and the pool is gone.
  static std::vector<std::unique_ptr<Storage>>* spares();

  bool bfs(int s, int t);
  Cap dfs(int u, int t, Cap pushed);
  /// BFS from s that stops on reaching t, recording each reached node's
  /// entering edge in parent. True when t was reached.
  bool find_path(int s, int t);
  Edge& edge_at(EdgeRef e);
  [[nodiscard]] const Edge& edge_at(EdgeRef e) const;

  [[nodiscard]] std::vector<Edge>& adj(int u) {
    return storage_->graph[static_cast<std::size_t>(u)];
  }
  [[nodiscard]] const std::vector<Edge>& adj(int u) const {
    return storage_->graph[static_cast<std::size_t>(u)];
  }

  int num_nodes_;
  std::unique_ptr<Storage, Recycle> storage_;
};

}  // namespace abt::flow
