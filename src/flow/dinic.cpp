#include "flow/dinic.hpp"

#include <algorithm>
#include <limits>
#include <utility>

#include "core/assert.hpp"

namespace abt::flow {

namespace {

/// Networks built and destroyed on one thread take turns with a few
/// Storages instead of allocating their own. The flag is trivially
/// destructible, so a network destroyed after its thread's pool (during
/// thread exit) can still tell, and frees its Storage instead.
constexpr std::size_t kMaxSpares = 8;
thread_local bool tl_pool_gone = false;

}  // namespace

std::vector<std::unique_ptr<Dinic::Storage>>* Dinic::spares() {
  struct Pool {
    std::vector<std::unique_ptr<Storage>> spares;
    Pool() = default;
    Pool(const Pool&) = delete;
    Pool& operator=(const Pool&) = delete;
    ~Pool() { tl_pool_gone = true; }
  };
  if (tl_pool_gone) return nullptr;
  thread_local Pool pool;
  return &pool.spares;
}

void Dinic::Recycle::operator()(Storage* storage) const {
  std::unique_ptr<Storage> owned(storage);
  auto* pool = spares();
  if (pool != nullptr && pool->size() < kMaxSpares) {
    pool->push_back(std::move(owned));
  }
}

Dinic::Dinic(int num_nodes) : num_nodes_(num_nodes) {
  ABT_ASSERT(num_nodes >= 0, "negative node count");
  auto* pool = spares();
  if (pool == nullptr || pool->empty()) {
    storage_.reset(new Storage);
  } else {
    storage_.reset(pool->back().release());
    pool->pop_back();
  }
  const auto n = static_cast<std::size_t>(num_nodes);
  Storage& s = *storage_;
  if (s.graph.size() < n) s.graph.resize(n);
  for (std::size_t u = 0; u < n; ++u) s.graph[u].clear();
  s.edge_locator.clear();
  s.level.resize(n);
  s.iter.resize(n);
  s.parent.clear();
}

Dinic::EdgeRef Dinic::add_edge(int u, int v, Cap cap) {
  ABT_ASSERT(u >= 0 && u < num_nodes() && v >= 0 && v < num_nodes(),
             "edge endpoint out of range");
  ABT_ASSERT(cap >= 0, "negative capacity");
  auto& fwd_list = adj(u);
  auto& rev_list = adj(v);
  const auto fwd_idx = static_cast<std::int32_t>(fwd_list.size());
  auto rev_idx = static_cast<std::int32_t>(rev_list.size());
  if (u == v) ++rev_idx;  // self loop: the two edges share the list
  fwd_list.push_back({v, cap, cap, rev_idx});
  rev_list.push_back({u, 0, 0, fwd_idx});
  auto& locator = storage_->edge_locator;
  locator.emplace_back(u, fwd_idx);
  return EdgeRef{static_cast<std::int32_t>(locator.size()) - 1};
}

bool Dinic::bfs(int s, int t) {
  std::vector<int>& level = storage_->level;
  std::vector<int>& queue = storage_->queue;
  std::fill(level.begin(), level.end(), -1);
  queue.clear();
  level[static_cast<std::size_t>(s)] = 0;
  queue.push_back(s);
  for (std::size_t head = 0; head < queue.size(); ++head) {
    const int u = queue[head];
    for (const Edge& e : adj(u)) {
      if (e.cap > 0 && level[static_cast<std::size_t>(e.to)] < 0) {
        level[static_cast<std::size_t>(e.to)] =
            level[static_cast<std::size_t>(u)] + 1;
        queue.push_back(e.to);
      }
    }
  }
  return level[static_cast<std::size_t>(t)] >= 0;
}

Dinic::Cap Dinic::dfs(int u, int t, Cap pushed) {
  if (u == t) return pushed;
  const std::vector<int>& level = storage_->level;
  std::vector<Edge>& edges = adj(u);
  for (std::size_t& i = storage_->iter[static_cast<std::size_t>(u)];
       i < edges.size(); ++i) {
    Edge& e = edges[i];
    if (e.cap <= 0 || level[static_cast<std::size_t>(e.to)] !=
                          level[static_cast<std::size_t>(u)] + 1) {
      continue;
    }
    const Cap got = dfs(e.to, t, std::min(pushed, e.cap));
    if (got > 0) {
      e.cap -= got;
      adj(e.to)[static_cast<std::size_t>(e.rev)].cap += got;
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
    std::fill(storage_->iter.begin(), storage_->iter.end(), 0);
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
  std::vector<int>& level = storage_->level;
  std::vector<int>& queue = storage_->queue;
  auto& parent = storage_->parent;
  // Sized on first use: one-shot flows skip it.
  parent.resize(static_cast<std::size_t>(num_nodes_));
  std::fill(level.begin(), level.end(), -1);  // -1 = not reached yet
  queue.clear();
  level[static_cast<std::size_t>(s)] = 0;
  queue.push_back(s);
  for (std::size_t head = 0; head < queue.size(); ++head) {
    const int u = queue[head];
    const auto& edges = adj(u);
    for (std::size_t i = 0; i < edges.size(); ++i) {
      const Edge& e = edges[i];
      if (e.cap <= 0 || level[static_cast<std::size_t>(e.to)] >= 0) continue;
      level[static_cast<std::size_t>(e.to)] =
          level[static_cast<std::size_t>(u)] + 1;
      parent[static_cast<std::size_t>(e.to)] = {u,
                                                static_cast<std::int32_t>(i)};
      if (e.to == t) return true;
      queue.push_back(e.to);
    }
  }
  return false;
}

Dinic::Cap Dinic::augment(int s, int t, Cap limit, const Options& options,
                          bool* cancelled) {
  ABT_ASSERT(s != t, "source equals sink");
  ABT_ASSERT(limit >= 0, "negative augment limit");
  if (cancelled != nullptr) *cancelled = false;
  const auto& parent = storage_->parent;
  Cap total = 0;
  while (total < limit) {
    if (options.should_stop && options.should_stop()) {
      if (cancelled != nullptr) *cancelled = true;
      break;
    }
    if (!find_path(s, t)) break;
    const auto entering = [this, &parent](int v) -> Edge& {
      const auto [u, idx] = parent[static_cast<std::size_t>(v)];
      return adj(u)[static_cast<std::size_t>(idx)];
    };
    Cap pushed = limit - total;
    for (int v = t; v != s; v = parent[static_cast<std::size_t>(v)].first) {
      pushed = std::min(pushed, entering(v).cap);
    }
    for (int v = t; v != s; v = parent[static_cast<std::size_t>(v)].first) {
      Edge& e = entering(v);
      e.cap -= pushed;
      adj(v)[static_cast<std::size_t>(e.rev)].cap += pushed;
    }
    total += pushed;
  }
  return total;
}

Dinic::Edge& Dinic::edge_at(EdgeRef e) {
  return const_cast<Edge&>(std::as_const(*this).edge_at(e));
}

const Dinic::Edge& Dinic::edge_at(EdgeRef e) const {
  const auto& locator = storage_->edge_locator;
  ABT_ASSERT(e.index >= 0 && static_cast<std::size_t>(e.index) < locator.size(),
             "edge handle out of range");
  const auto& [node, idx] = locator[static_cast<std::size_t>(e.index)];
  return adj(node)[static_cast<std::size_t>(idx)];
}

void Dinic::cancel_flow(EdgeRef e, Cap units) {
  Edge& edge = edge_at(e);
  ABT_ASSERT(units >= 0 && edge.original - edge.cap >= units,
             "cancelling more flow than the edge carries");
  edge.cap += units;
  adj(edge.to)[static_cast<std::size_t>(edge.rev)].cap -= units;
}

void Dinic::set_capacity(EdgeRef e, Cap cap) {
  Edge& edge = edge_at(e);
  const Cap flow = edge.original - edge.cap;
  ABT_ASSERT(flow <= cap, "new capacity below the edge's current flow");
  edge.original = cap;
  edge.cap = cap - flow;
}

void Dinic::truncate(EdgeRef first) {
  auto& locator = storage_->edge_locator;
  ABT_ASSERT(first.index >= 0 &&
                 static_cast<std::size_t>(first.index) <= locator.size(),
             "edge handle out of range");
  while (locator.size() > static_cast<std::size_t>(first.index)) {
    const auto [u, idx] = locator.back();
    auto& out = adj(u);
    const Edge& fwd = out[static_cast<std::size_t>(idx)];
    ABT_ASSERT(fwd.cap == fwd.original, "truncating an edge that carries flow");
    auto& in = adj(fwd.to);
    ABT_ASSERT(static_cast<std::size_t>(fwd.rev) + 1 == in.size() &&
                   static_cast<std::size_t>(idx) + 1 + (fwd.to == u ? 1 : 0) ==
                       out.size(),
               "truncated edges must be the last in their adjacency lists");
    in.pop_back();  // the reverse edge (for a self loop, the later entry)
    out.pop_back();
    locator.pop_back();
  }
}

Dinic::Cap Dinic::flow_on(EdgeRef e) const {
  const Edge& edge = edge_at(e);
  return edge.original - edge.cap;
}

Dinic::Cap Dinic::residual_on(EdgeRef e) const { return edge_at(e).cap; }

std::vector<bool> Dinic::min_cut_side(int s) const {
  std::vector<bool> seen(static_cast<std::size_t>(num_nodes_), false);
  std::vector<int> queue;
  seen[static_cast<std::size_t>(s)] = true;
  queue.push_back(s);
  for (std::size_t head = 0; head < queue.size(); ++head) {
    for (const Edge& e : adj(queue[head])) {
      if (e.cap > 0 && !seen[static_cast<std::size_t>(e.to)]) {
        seen[static_cast<std::size_t>(e.to)] = true;
        queue.push_back(e.to);
      }
    }
  }
  return seen;
}

}  // namespace abt::flow
