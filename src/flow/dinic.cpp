#include "flow/dinic.hpp"

#include <algorithm>
#include <limits>
#include <queue>

#include "core/assert.hpp"

namespace abt::flow {

Dinic::Dinic(int num_nodes)
    : graph_(static_cast<std::size_t>(num_nodes)),
      level_(static_cast<std::size_t>(num_nodes)),
      iter_(static_cast<std::size_t>(num_nodes)) {
  ABT_ASSERT(num_nodes >= 0, "negative node count");
}

Dinic::EdgeRef Dinic::add_edge(int u, int v, Cap cap) {
  ABT_ASSERT(u >= 0 && u < num_nodes() && v >= 0 && v < num_nodes(),
             "edge endpoint out of range");
  ABT_ASSERT(cap >= 0, "negative capacity");
  auto& fwd_list = graph_[static_cast<std::size_t>(u)];
  auto& rev_list = graph_[static_cast<std::size_t>(v)];
  const auto fwd_idx = static_cast<std::int32_t>(fwd_list.size());
  auto rev_idx = static_cast<std::int32_t>(rev_list.size());
  if (u == v) ++rev_idx;  // self loop: the two edges share the list
  fwd_list.push_back({v, cap, cap, rev_idx});
  graph_[static_cast<std::size_t>(v)].push_back({u, 0, 0, fwd_idx});
  edge_locator_.emplace_back(u, fwd_idx);
  return EdgeRef{static_cast<std::int32_t>(edge_locator_.size()) - 1};
}

bool Dinic::bfs(int s, int t) {
  std::fill(level_.begin(), level_.end(), -1);
  std::queue<int> queue;
  level_[static_cast<std::size_t>(s)] = 0;
  queue.push(s);
  while (!queue.empty()) {
    const int u = queue.front();
    queue.pop();
    for (const Edge& e : graph_[static_cast<std::size_t>(u)]) {
      if (e.cap > 0 && level_[static_cast<std::size_t>(e.to)] < 0) {
        level_[static_cast<std::size_t>(e.to)] =
            level_[static_cast<std::size_t>(u)] + 1;
        queue.push(e.to);
      }
    }
  }
  return level_[static_cast<std::size_t>(t)] >= 0;
}

Dinic::Cap Dinic::dfs(int u, int t, Cap pushed) {
  if (u == t) return pushed;
  for (std::size_t& i = iter_[static_cast<std::size_t>(u)];
       i < graph_[static_cast<std::size_t>(u)].size(); ++i) {
    Edge& e = graph_[static_cast<std::size_t>(u)][i];
    if (e.cap <= 0 || level_[static_cast<std::size_t>(e.to)] !=
                          level_[static_cast<std::size_t>(u)] + 1) {
      continue;
    }
    const Cap got = dfs(e.to, t, std::min(pushed, e.cap));
    if (got > 0) {
      e.cap -= got;
      graph_[static_cast<std::size_t>(e.to)][static_cast<std::size_t>(e.rev)]
          .cap += got;
      return got;
    }
  }
  return 0;
}

Dinic::Cap Dinic::max_flow(int s, int t) { return max_flow(s, t, {}); }

Dinic::Cap Dinic::max_flow(int s, int t, const Options& options,
                           bool* cancelled) {
  ABT_ASSERT(s != t, "source equals sink");
  if (cancelled != nullptr) *cancelled = false;
  const auto stopped = [&options] {
    return options.should_stop && options.should_stop();
  };
  Cap total = 0;
  int paths_since_poll = 0;
  for (;;) {
    if (stopped()) {  // per-phase poll: before paying the next BFS
      if (cancelled != nullptr) *cancelled = true;
      return total;
    }
    if (!bfs(s, t)) break;
    std::fill(iter_.begin(), iter_.end(), 0);
    while (true) {
      if (++paths_since_poll >= kStopPollPaths) {
        paths_since_poll = 0;
        if (stopped()) {
          if (cancelled != nullptr) *cancelled = true;
          return total;
        }
      }
      const Cap got = dfs(s, t, std::numeric_limits<Cap>::max());
      if (got == 0) break;
      total += got;
    }
  }
  return total;
}

bool Dinic::find_path(int s, int t) {
  parent_.resize(graph_.size());  // sized on first use: one-shot flows skip it
  std::fill(level_.begin(), level_.end(), -1);  // -1 = not reached yet
  queue_.clear();
  level_[static_cast<std::size_t>(s)] = 0;
  queue_.push_back(s);
  for (std::size_t head = 0; head < queue_.size(); ++head) {
    const int u = queue_[head];
    const auto& edges = graph_[static_cast<std::size_t>(u)];
    for (std::size_t i = 0; i < edges.size(); ++i) {
      const Edge& e = edges[i];
      if (e.cap <= 0 || level_[static_cast<std::size_t>(e.to)] >= 0) continue;
      level_[static_cast<std::size_t>(e.to)] =
          level_[static_cast<std::size_t>(u)] + 1;
      parent_[static_cast<std::size_t>(e.to)] = {u,
                                                 static_cast<std::int32_t>(i)};
      if (e.to == t) return true;
      queue_.push_back(e.to);
    }
  }
  return false;
}

Dinic::Cap Dinic::augment(int s, int t, Cap limit, const Options& options,
                          bool* cancelled) {
  ABT_ASSERT(s != t, "source equals sink");
  ABT_ASSERT(limit >= 0, "negative augment limit");
  if (cancelled != nullptr) *cancelled = false;
  Cap total = 0;
  while (total < limit) {
    if (options.should_stop && options.should_stop()) {
      if (cancelled != nullptr) *cancelled = true;
      break;
    }
    if (!find_path(s, t)) break;
    const auto entering = [this](int v) -> Edge& {
      const auto [u, idx] = parent_[static_cast<std::size_t>(v)];
      return graph_[static_cast<std::size_t>(u)][static_cast<std::size_t>(idx)];
    };
    Cap pushed = limit - total;
    for (int v = t; v != s; v = parent_[static_cast<std::size_t>(v)].first) {
      pushed = std::min(pushed, entering(v).cap);
    }
    for (int v = t; v != s; v = parent_[static_cast<std::size_t>(v)].first) {
      Edge& e = entering(v);
      e.cap -= pushed;
      graph_[static_cast<std::size_t>(v)][static_cast<std::size_t>(e.rev)]
          .cap += pushed;
    }
    total += pushed;
  }
  return total;
}

Dinic::Edge& Dinic::edge_at(EdgeRef e) {
  ABT_ASSERT(e.index >= 0 &&
                 static_cast<std::size_t>(e.index) < edge_locator_.size(),
             "edge handle out of range");
  const auto& [node, idx] = edge_locator_[static_cast<std::size_t>(e.index)];
  return graph_[static_cast<std::size_t>(node)][static_cast<std::size_t>(idx)];
}

void Dinic::cancel_flow(EdgeRef e, Cap units) {
  Edge& edge = edge_at(e);
  ABT_ASSERT(units >= 0 && edge.original - edge.cap >= units,
             "cancelling more flow than the edge carries");
  edge.cap += units;
  graph_[static_cast<std::size_t>(edge.to)][static_cast<std::size_t>(edge.rev)]
      .cap -= units;
}

void Dinic::set_capacity(EdgeRef e, Cap cap) {
  Edge& edge = edge_at(e);
  const Cap flow = edge.original - edge.cap;
  ABT_ASSERT(flow <= cap, "new capacity below the edge's current flow");
  edge.original = cap;
  edge.cap = cap - flow;
}

void Dinic::truncate(EdgeRef first) {
  ABT_ASSERT(first.index >= 0 &&
                 static_cast<std::size_t>(first.index) <= edge_locator_.size(),
             "edge handle out of range");
  while (edge_locator_.size() > static_cast<std::size_t>(first.index)) {
    const auto [u, idx] = edge_locator_.back();
    auto& out = graph_[static_cast<std::size_t>(u)];
    const Edge& fwd = out[static_cast<std::size_t>(idx)];
    ABT_ASSERT(fwd.cap == fwd.original, "truncating an edge that carries flow");
    auto& in = graph_[static_cast<std::size_t>(fwd.to)];
    ABT_ASSERT(static_cast<std::size_t>(fwd.rev) + 1 == in.size() &&
                   static_cast<std::size_t>(idx) + 1 + (fwd.to == u ? 1 : 0) ==
                       out.size(),
               "truncated edges must be the last in their adjacency lists");
    in.pop_back();  // the reverse edge (for a self loop, the later entry)
    out.pop_back();
    edge_locator_.pop_back();
  }
}

Dinic::Cap Dinic::flow_on(EdgeRef e) const {
  const auto& [node, idx] = edge_locator_[static_cast<std::size_t>(e.index)];
  const Edge& edge =
      graph_[static_cast<std::size_t>(node)][static_cast<std::size_t>(idx)];
  return edge.original - edge.cap;
}

Dinic::Cap Dinic::residual_on(EdgeRef e) const {
  const auto& [node, idx] = edge_locator_[static_cast<std::size_t>(e.index)];
  return graph_[static_cast<std::size_t>(node)][static_cast<std::size_t>(idx)]
      .cap;
}

std::vector<bool> Dinic::min_cut_side(int s) const {
  std::vector<bool> seen(graph_.size(), false);
  std::queue<int> queue;
  seen[static_cast<std::size_t>(s)] = true;
  queue.push(s);
  while (!queue.empty()) {
    const int u = queue.front();
    queue.pop();
    for (const Edge& e : graph_[static_cast<std::size_t>(u)]) {
      if (e.cap > 0 && !seen[static_cast<std::size_t>(e.to)]) {
        seen[static_cast<std::size_t>(e.to)] = true;
        queue.push(e.to);
      }
    }
  }
  return seen;
}

}  // namespace abt::flow
