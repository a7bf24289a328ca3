// Heap traffic of the active-time flow and LP paths. This binary replaces
// the global operator new with a counting one, so every allocation made
// between two reads of the counter is seen. After one warm-up call, which
// fills the per-thread spare pools of flow::Dinic and the simplex,
// repeated solves on the same instance may allocate only what their
// results own.
#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <cstdlib>
#include <new>
#include <string>
#include <utility>

#include "active/lp_rounding.hpp"
#include "active/minimal_feasible.hpp"
#include "busy/preemptive.hpp"
#include "engine/runner.hpp"

namespace {

std::atomic<long> g_allocations{0};

void* counted_alloc(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}

}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size == 0 ? 1 : size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size == 0 ? 1 : size);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace abt {
namespace {

/// The campaign's active-grid shape: a random feasible slotted instance,
/// n = 128, g = 4.
core::SlottedInstance campaign_instance(const char* family) {
  engine::ScenarioSpec spec;
  spec.name = family;
  spec.n = 128;
  spec.g = 4;
  spec.seed = 3;
  return engine::make_scenario(spec)->slotted;
}

/// Allocations per call of `solve`, averaged over a few calls after one
/// warm-up call.
template <typename Solve>
long allocations_per_call(Solve solve) {
  solve();
  constexpr int kCalls = 3;
  const long before = g_allocations.load(std::memory_order_relaxed);
  for (int i = 0; i < kCalls; ++i) solve();
  return (g_allocations.load(std::memory_order_relaxed) - before) / kCalls;
}

// Before the spare pools and the flat LP rows, one n = 128 slotted solve
// made about 11.9k allocations in LP rounding and 3.1k in the minimal
// feasible pass. A tenth of that leaves room for the result itself (one
// slot list per job) and nothing per node, row or pivot.
TEST(AllocationCounts, LpRoundingAllocatesATenthOfBefore) {
  for (const char* family : {"slotted", "slotted-unit"}) {
    const core::SlottedInstance inst = campaign_instance(family);
    const long per_call = allocations_per_call([&inst] {
      const auto result = active::solve_lp_rounding(inst);
      ASSERT_TRUE(result.has_value());
    });
    EXPECT_LE(per_call, 1190) << family;
    RecordProperty(std::string(family) + "_lp_rounding_allocations",
                   static_cast<int>(per_call));
  }
}

TEST(AllocationCounts, MinimalFeasibleAllocatesATenthOfBefore) {
  for (const char* family : {"slotted", "slotted-unit"}) {
    const core::SlottedInstance inst = campaign_instance(family);
    for (const auto& [order, name] :
         {std::pair{active::CloseOrder::kLeftToRight, "left_to_right"},
          std::pair{active::CloseOrder::kDensestFirst, "densest"}}) {
      active::MinimalFeasibleOptions options;
      options.order = order;
      const long per_call = allocations_per_call([&inst, &options] {
        const auto sched = active::solve_minimal_feasible(inst, options);
        ASSERT_TRUE(sched.has_value());
      });
      EXPECT_LE(per_call, 310) << family << " " << name;
      RecordProperty(std::string(family) + "_minimal_feasible_" + name +
                         "_allocations",
                     static_cast<int>(per_call));
    }
  }
}

// Before the flat piece array, one busy/preemptive solve at the campaign's
// busy shape (n = 1024, g = 8) made about 2.9k allocations: a piece vector
// per job, and its growth. The deal now works in the thread arena and
// hands back two flat arrays, so only the g = infinity greedy's own
// buffers are left.
TEST(AllocationCounts, PreemptiveBoundedAllocatesAHandful) {
  for (const char* family : {"interval", "flexible", "bursty"}) {
    engine::ScenarioSpec spec;
    spec.name = family;
    spec.n = 1024;
    spec.g = 8;
    spec.seed = 3;
    const core::ContinuousInstance inst =
        engine::make_scenario(spec)->continuous;
    const long per_call = allocations_per_call([&inst] {
      const auto result = busy::solve_preemptive_bounded(inst);
      ASSERT_EQ(result.schedule.pieces.size(), 1024u);
    });
    EXPECT_LE(per_call, 1000) << family;
    RecordProperty(std::string(family) + "_preemptive_allocations",
                   static_cast<int>(per_call));
  }
}

}  // namespace
}  // namespace abt
