#include "flow/dinic.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <vector>

#include "core/rng.hpp"
#include "test_util.hpp"

namespace abt::flow {
namespace {

TEST(Dinic, TextbookNetwork) {
  Dinic d(6);
  d.add_edge(0, 1, 16);
  d.add_edge(0, 2, 13);
  d.add_edge(1, 2, 10);
  d.add_edge(2, 1, 4);
  d.add_edge(1, 3, 12);
  d.add_edge(3, 2, 9);
  d.add_edge(2, 4, 14);
  d.add_edge(4, 3, 7);
  d.add_edge(3, 5, 20);
  d.add_edge(4, 5, 4);
  EXPECT_EQ(d.max_flow(0, 5), 23);  // CLRS example
}

TEST(Dinic, DisconnectedIsZero) {
  Dinic d(4);
  d.add_edge(0, 1, 5);
  d.add_edge(2, 3, 5);
  EXPECT_EQ(d.max_flow(0, 3), 0);
}

TEST(Dinic, ParallelEdgesAccumulate) {
  Dinic d(2);
  d.add_edge(0, 1, 3);
  d.add_edge(0, 1, 4);
  EXPECT_EQ(d.max_flow(0, 1), 7);
}

TEST(Dinic, FlowOnEdgeReporting) {
  Dinic d(3);
  const auto a = d.add_edge(0, 1, 5);
  const auto b = d.add_edge(1, 2, 3);
  EXPECT_EQ(d.max_flow(0, 2), 3);
  EXPECT_EQ(d.flow_on(a), 3);
  EXPECT_EQ(d.flow_on(b), 3);
  EXPECT_EQ(d.residual_on(a), 2);
}

TEST(Dinic, MinCutSideSeparatesSourceFromSink) {
  Dinic d(4);
  d.add_edge(0, 1, 10);
  d.add_edge(1, 2, 1);  // bottleneck
  d.add_edge(2, 3, 10);
  EXPECT_EQ(d.max_flow(0, 3), 1);
  const auto side = d.min_cut_side(0);
  EXPECT_TRUE(side[0]);
  EXPECT_TRUE(side[1]);
  EXPECT_FALSE(side[2]);
  EXPECT_FALSE(side[3]);
}

TEST(Dinic, ZeroCapacityEdgeCarriesNothing) {
  Dinic d(2);
  const auto e = d.add_edge(0, 1, 0);
  EXPECT_EQ(d.max_flow(0, 1), 0);
  EXPECT_EQ(d.flow_on(e), 0);
}

TEST(Dinic, StopBeforeFirstPhaseReturnsZeroAndSetsFlag) {
  Dinic d(3);
  d.add_edge(0, 1, 5);
  d.add_edge(1, 2, 5);
  Dinic::Options options;
  options.should_stop = [] { return true; };
  bool cancelled = false;
  EXPECT_EQ(d.max_flow(0, 2, options, &cancelled), 0);
  EXPECT_TRUE(cancelled);
}

TEST(Dinic, EmptyStopPredicateMatchesPlainMaxFlow) {
  Dinic plain(4);
  Dinic guarded(4);
  for (Dinic* d : {&plain, &guarded}) {
    d->add_edge(0, 1, 7);
    d->add_edge(0, 2, 3);
    d->add_edge(1, 3, 5);
    d->add_edge(2, 3, 6);
    d->add_edge(1, 2, 2);
  }
  bool cancelled = true;  // must be cleared even when never tripped
  EXPECT_EQ(guarded.max_flow(0, 3, Dinic::Options{}, &cancelled),
            plain.max_flow(0, 3));
  EXPECT_FALSE(cancelled);
}

TEST(Dinic, MidSearchStopYieldsLowerBoundOnMaxFlow) {
  // A wide bipartite network needs several augmenting paths; stopping
  // after the first few polls must return a value <= the true max flow
  // and flag the run, never fabricate extra flow.
  // Wide enough that one phase augments > kStopPollPaths times, so the
  // amortized per-path poll (not just the per-phase poll) gets exercised.
  constexpr int kPairs = 3 * Dinic::kStopPollPaths;
  Dinic full(2 + 2 * kPairs);
  Dinic stopped(2 + 2 * kPairs);
  const int sink = 1 + 2 * kPairs;
  for (Dinic* d : {&full, &stopped}) {
    for (int i = 0; i < kPairs; ++i) {
      d->add_edge(0, 1 + i, 1);
      d->add_edge(1 + i, 1 + kPairs + i, 1);
      d->add_edge(1 + kPairs + i, sink, 1);
    }
  }
  const auto exact = full.max_flow(0, sink);
  ASSERT_EQ(exact, kPairs);

  int polls = 0;
  Dinic::Options options;
  options.should_stop = [&polls] { return ++polls > 2; };
  bool cancelled = false;
  const auto partial = stopped.max_flow(0, sink, options, &cancelled);
  EXPECT_TRUE(cancelled);
  EXPECT_LE(partial, exact);
}

/// Property: Dinic matches an independent Ford-Fulkerson on random graphs.
class DinicRandom : public ::testing::TestWithParam<int> {};

TEST_P(DinicRandom, MatchesReferenceFlow) {
  core::Rng rng(static_cast<std::uint64_t>(GetParam()));
  for (int trial = 0; trial < 40; ++trial) {
    const int n = static_cast<int>(rng.uniform_int(2, 8));
    Dinic dinic(n);
    testutil::RefFlow ref(n);
    const int edges = static_cast<int>(rng.uniform_int(0, 20));
    for (int e = 0; e < edges; ++e) {
      const int u = static_cast<int>(rng.uniform_int(0, n - 1));
      const int v = static_cast<int>(rng.uniform_int(0, n - 1));
      if (u == v) continue;
      const long c = rng.uniform_int(0, 12);
      dinic.add_edge(u, v, c);
      ref.add(u, v, c);
    }
    EXPECT_EQ(dinic.max_flow(0, n - 1), ref.max_flow(0, n - 1));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DinicRandom, ::testing::Range(1, 9));

// --- Warm restarts: cancel_flow / set_capacity / augment -------------

struct EdgeSpec {
  int u;
  int v;
  Dinic::Cap cap;
  Dinic::EdgeRef ref;
};

/// Net flow out of `s`.
Dinic::Cap flow_value(const Dinic& d, const std::vector<EdgeSpec>& edges,
                      int s) {
  Dinic::Cap value = 0;
  for (const EdgeSpec& e : edges) {
    if (e.u == s) value += d.flow_on(e.ref);
    if (e.v == s) value -= d.flow_on(e.ref);
  }
  return value;
}

/// Capacity bounds on every edge and conservation at every inner node.
void expect_valid_flow(const Dinic& d, const std::vector<EdgeSpec>& edges,
                       int s, int t) {
  std::vector<Dinic::Cap> excess(static_cast<std::size_t>(d.num_nodes()), 0);
  for (const EdgeSpec& e : edges) {
    const Dinic::Cap f = d.flow_on(e.ref);
    EXPECT_GE(f, 0);
    EXPECT_LE(f, e.cap);
    EXPECT_EQ(d.residual_on(e.ref), e.cap - f);
    excess[static_cast<std::size_t>(e.v)] += f;
    excess[static_cast<std::size_t>(e.u)] -= f;
  }
  for (int v = 0; v < d.num_nodes(); ++v) {
    if (v != s && v != t) {
      EXPECT_EQ(excess[static_cast<std::size_t>(v)], 0) << "node " << v;
    }
  }
}

/// Withdraws one unit of s-t flow along a path of flow-carrying edges;
/// false when no flow leaves s.
bool cancel_one_unit(Dinic& d, const std::vector<EdgeSpec>& edges, int s,
                     int t) {
  std::vector<int> via(static_cast<std::size_t>(d.num_nodes()), -1);
  std::vector<int> stack = {s};
  std::vector<bool> seen(static_cast<std::size_t>(d.num_nodes()), false);
  seen[static_cast<std::size_t>(s)] = true;
  while (!stack.empty() && !seen[static_cast<std::size_t>(t)]) {
    const int u = stack.back();
    stack.pop_back();
    for (std::size_t i = 0; i < edges.size(); ++i) {
      const EdgeSpec& e = edges[i];
      if (e.u != u || seen[static_cast<std::size_t>(e.v)] ||
          d.flow_on(e.ref) == 0) {
        continue;
      }
      seen[static_cast<std::size_t>(e.v)] = true;
      via[static_cast<std::size_t>(e.v)] = static_cast<int>(i);
      stack.push_back(e.v);
    }
  }
  if (!seen[static_cast<std::size_t>(t)]) return false;
  for (int v = t; v != s;) {
    const EdgeSpec& e = edges[static_cast<std::size_t>(
        via[static_cast<std::size_t>(v)])];
    d.cancel_flow(e.ref, 1);
    v = e.u;
  }
  return true;
}

class DinicWarmRestart : public ::testing::TestWithParam<int> {};

TEST_P(DinicWarmRestart, EditsThenAugmentMatchFreshMaxFlow) {
  core::Rng rng(static_cast<std::uint64_t>(GetParam()) * 7919ULL);
  for (int trial = 0; trial < 40; ++trial) {
    const int n = static_cast<int>(rng.uniform_int(2, 9));
    const int s = 0;
    const int t = n - 1;
    Dinic d(n);
    std::vector<EdgeSpec> edges;
    const int num_edges = static_cast<int>(rng.uniform_int(0, 24));
    for (int k = 0; k < num_edges; ++k) {
      const int u = static_cast<int>(rng.uniform_int(0, n - 1));
      const int v = static_cast<int>(rng.uniform_int(0, n - 1));
      if (u == v) continue;
      const Dinic::Cap cap = rng.uniform_int(0, 6);
      edges.push_back({u, v, cap, d.add_edge(u, v, cap)});
    }
    Dinic::Cap value = d.max_flow(s, t);
    for (int round = 0; round < 6; ++round) {
      // Withdraw some units, re-bound some edges, then route a bounded
      // amount back.
      const int cancels = static_cast<int>(rng.uniform_int(0, 3));
      for (int c = 0; c < cancels && cancel_one_unit(d, edges, s, t); ++c) {
        --value;
      }
      ASSERT_EQ(flow_value(d, edges, s), value);
      for (EdgeSpec& e : edges) {
        if (rng.uniform_int(0, 3) != 0) continue;
        e.cap = d.flow_on(e.ref) + rng.uniform_int(0, 4);
        d.set_capacity(e.ref, e.cap);
      }
      expect_valid_flow(d, edges, s, t);
      const Dinic::Cap limit = rng.uniform_int(0, 5);
      const Dinic::Cap routed = d.augment(s, t, limit);
      EXPECT_GE(routed, 0);
      EXPECT_LE(routed, limit);
      value += routed;
      ASSERT_EQ(flow_value(d, edges, s), value);
      expect_valid_flow(d, edges, s, t);
      // Finish the sequence: an unbounded augment reaches the max flow of
      // the edited capacities.
      value += d.augment(s, t, std::numeric_limits<Dinic::Cap>::max());
      Dinic fresh(n);
      for (const EdgeSpec& e : edges) fresh.add_edge(e.u, e.v, e.cap);
      EXPECT_EQ(value, fresh.max_flow(s, t)) << "trial " << trial;
      EXPECT_EQ(flow_value(d, edges, s), value);
      expect_valid_flow(d, edges, s, t);
      // Nothing left to route, by either primitive.
      EXPECT_EQ(d.augment(s, t, 1), 0);
      EXPECT_EQ(d.max_flow(s, t), 0);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DinicWarmRestart, ::testing::Range(1, 9));

TEST(DinicWarmRestart, MaxFlowContinuesFromEditedFlow) {
  Dinic d(4);
  const auto a = d.add_edge(0, 1, 2);
  const auto b = d.add_edge(1, 3, 2);
  const auto c = d.add_edge(0, 2, 1);
  const auto e = d.add_edge(2, 3, 1);
  ASSERT_EQ(d.max_flow(0, 3), 3);
  d.cancel_flow(a, 2);
  d.cancel_flow(b, 2);
  d.set_capacity(b, 1);
  EXPECT_EQ(d.flow_on(b), 0);
  EXPECT_EQ(d.residual_on(b), 1);
  EXPECT_EQ(d.max_flow(0, 3), 1);  // only the increment
  EXPECT_EQ(d.flow_on(a), 1);
  EXPECT_EQ(d.flow_on(c), 1);
  EXPECT_EQ(d.flow_on(e), 1);
}

TEST(DinicWarmRestart, AugmentStopsAtLimit) {
  constexpr int kPaths = 10;
  Dinic d(2 + kPaths);
  const int sink = 1 + kPaths;
  for (int i = 0; i < kPaths; ++i) {
    d.add_edge(0, 1 + i, 1);
    d.add_edge(1 + i, sink, 1);
  }
  EXPECT_EQ(d.augment(0, sink, 3), 3);
  EXPECT_EQ(d.augment(0, sink, 0), 0);
  EXPECT_EQ(d.augment(0, sink, 100), kPaths - 3);
}

TEST(DinicWarmRestart, TrippedStopSetsCancelled) {
  constexpr int kPaths = 10;
  Dinic d(2 + kPaths);
  const int sink = 1 + kPaths;
  for (int i = 0; i < kPaths; ++i) {
    d.add_edge(0, 1 + i, 1);
    d.add_edge(1 + i, sink, 1);
  }
  Dinic::Options always;
  always.should_stop = [] { return true; };
  bool cancelled = false;
  EXPECT_EQ(d.augment(0, sink, kPaths, always, &cancelled), 0);
  EXPECT_TRUE(cancelled);

  int polls = 0;
  Dinic::Options later;
  later.should_stop = [&polls] { return ++polls > 4; };
  cancelled = false;
  const Dinic::Cap partial = d.augment(0, sink, kPaths, later, &cancelled);
  EXPECT_TRUE(cancelled);
  EXPECT_EQ(partial, 4);  // polled once per path search

  cancelled = true;  // cleared when the predicate never trips
  EXPECT_EQ(d.augment(0, sink, kPaths, Dinic::Options{}, &cancelled),
            kPaths - partial);
  EXPECT_FALSE(cancelled);
}

// --- truncate: taking a refused batch of edges back out ----------------

class DinicTruncate : public ::testing::TestWithParam<int> {};

// G_feas-shaped networks grown one job at a time, the way
// active::FeasibleJobSet grows them: slot -> sink edges first, then per
// candidate a source edge and unit job -> slot edges, at most p_j
// augmenting paths, and on a refusal a rollback through truncate().
TEST_P(DinicTruncate, RolledBackCandidateLeavesAValidMaximumFlow) {
  core::Rng rng(static_cast<std::uint64_t>(GetParam()) * 104729ULL);
  const int jobs = 12;
  const int slots = static_cast<int>(rng.uniform_int(2, 8));
  const int capacity = static_cast<int>(rng.uniform_int(1, 3));
  const int source = 0;
  const int sink = 1 + jobs + slots;
  const auto slot_node = [jobs](int slot) { return 1 + jobs + slot; };
  Dinic d(sink + 1);
  std::vector<EdgeSpec> edges;
  std::vector<Dinic::EdgeRef> sink_edges;
  for (int slot = 0; slot < slots; ++slot) {
    sink_edges.push_back(d.add_edge(slot_node(slot), sink, capacity));
    edges.push_back({slot_node(slot), sink, capacity, sink_edges.back()});
  }
  Dinic::Cap value = 0;
  int kept = 0;
  int refused = 0;
  for (int attempt = 0; attempt < 40 && kept < jobs; ++attempt) {
    const int job = 1 + kept;
    const Dinic::Cap length = rng.uniform_int(1, 3);
    const std::size_t first = edges.size();
    edges.push_back({source, job, length, d.add_edge(source, job, length)});
    for (int slot = 0; slot < slots; ++slot) {
      if (rng.uniform_int(0, 2) == 0) continue;
      edges.push_back(
          {job, slot_node(slot), 1, d.add_edge(job, slot_node(slot), 1)});
    }
    const Dinic::Cap routed = d.augment(source, sink, length);
    if (routed == length) {
      value += length;
      ++kept;
      continue;
    }
    ++refused;
    for (std::size_t k = first + 1; k < edges.size(); ++k) {
      if (d.flow_on(edges[k].ref) == 0) continue;
      d.cancel_flow(edges[k].ref, 1);
      const int slot = edges[k].v - slot_node(0);
      d.cancel_flow(sink_edges[static_cast<std::size_t>(slot)], 1);
    }
    d.cancel_flow(edges[first].ref, routed);
    d.truncate(edges[first].ref);
    edges.resize(first);
    ASSERT_EQ(flow_value(d, edges, source), value);
    expect_valid_flow(d, edges, source, sink);
    // Every kept job is still saturated, and nothing more can be routed.
    Dinic fresh(sink + 1);
    for (const EdgeSpec& e : edges) fresh.add_edge(e.u, e.v, e.cap);
    EXPECT_EQ(fresh.max_flow(source, sink), value);
    EXPECT_EQ(d.augment(source, sink, 1), 0);
  }
  EXPECT_GT(kept, 0);
  EXPECT_GT(refused, 0) << "seed " << GetParam() << " never refused";
}

INSTANTIATE_TEST_SUITE_P(Seeds, DinicTruncate, ::testing::Range(1, 9));

TEST(DinicTruncate, ReusedHandlesAndFurtherAugmentsMatchAFreshNetwork) {
  Dinic d(4);
  const auto a = d.add_edge(0, 1, 2);
  d.add_edge(1, 3, 1);
  ASSERT_EQ(d.max_flow(0, 3), 1);
  const auto b = d.add_edge(0, 2, 5);
  d.add_edge(2, 2, 3);  // a self loop pops cleanly too
  d.truncate(b);
  EXPECT_EQ(d.flow_on(a), 1);
  const auto c = d.add_edge(0, 2, 4);
  EXPECT_EQ(c.index, b.index);  // the freed handle is reused
  d.add_edge(2, 3, 3);
  EXPECT_EQ(d.augment(0, 3, 10), 3);
  Dinic fresh(4);
  fresh.add_edge(0, 1, 2);
  fresh.add_edge(1, 3, 1);
  fresh.add_edge(0, 2, 4);
  fresh.add_edge(2, 3, 3);
  EXPECT_EQ(fresh.max_flow(0, 3), 4);
  EXPECT_EQ(d.flow_on(a) + d.flow_on(c), 4);
}

}  // namespace
}  // namespace abt::flow
