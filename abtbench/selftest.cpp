// Tests of the benchmark's own arithmetic: percentiles, shares, host-speed
// windows and the self time of spans whose children overlap. Exits non-zero on the first
// failed check.

#include <cmath>
#include <cstdlib>
#include <iostream>
#include <vector>

#include "bench_stats.hpp"

namespace {

int g_failures = 0;

void expect_near(double got, double want, const char* what) {
  if (std::fabs(got - want) > 1e-9) {
    std::cerr << "FAIL " << what << ": got " << got << ", want " << want
              << "\n";
    ++g_failures;
  }
}

void test_percentiles() {
  using abtbench::percentile;
  expect_near(percentile({}, 0.5), 0.0, "empty sample");
  expect_near(percentile({7.0}, 0.9), 7.0, "single sample");
  // Unsorted input; position q * (n - 1) with linear interpolation.
  const std::vector<double> v = {40.0, 10.0, 30.0, 20.0, 50.0};
  expect_near(percentile(v, 0.0), 10.0, "p0");
  expect_near(percentile(v, 0.5), 30.0, "p50 odd");
  expect_near(percentile(v, 0.9), 46.0, "p90 interpolated");
  expect_near(percentile(v, 1.0), 50.0, "p100");
  expect_near(abtbench::median({1.0, 2.0, 3.0, 4.0}), 2.5, "median even");
}

void test_shares() {
  expect_near(abtbench::share(3.0, 4.0), 0.75, "share");
  expect_near(abtbench::share(1.0, 0.0), 0.0, "share of nothing");
  abtbench::OkTally tally;
  tally.record(true);
  tally.record(true);
  tally.record(false);
  tally.record(true);
  expect_near(static_cast<double>(tally.failed()), 1.0, "failed count");
  expect_near(tally.ok_share(), 0.75, "ok_share with one failure");
  abtbench::OkTally clean;
  for (int i = 0; i < 10; ++i) clean.record(true);
  expect_near(clean.ok_share(), 1.0, "ok_share clean");
}

void test_window_refs() {
  // Window j is timed against the mean of the probes at its two ends.
  const std::vector<double> refs = abtbench::window_refs({100.0, 300.0, 200.0});
  expect_near(static_cast<double>(refs.size()), 2.0, "one window per gap");
  expect_near(refs[0], 200.0, "first window");
  expect_near(refs[1], 250.0, "second window");
  expect_near(static_cast<double>(abtbench::window_refs({100.0}).size()), 0.0,
              "a single probe opens no window");
}

void test_self_times() {
  using abtbench::SpanRecord;
  // root [0, 100): two overlapping children [10, 40) and [30, 60) cover
  // [10, 60) = 50; a third child [90, 120) sticks out and counts 10.
  // child 1 has a grandchild [15, 25) that does not reduce the root.
  const std::vector<SpanRecord> spans = {
      {"root", 0, 100, -1, 1},  {"a", 10, 40, 0, 1}, {"b", 30, 60, 0, 1},
      {"c", 90, 120, 0, 1},     {"a.inner", 15, 25, 1, 1},
  };
  const std::vector<std::int64_t> self = abtbench::self_times(spans);
  expect_near(static_cast<double>(self[0]), 100.0 - 60.0, "root self");
  expect_near(static_cast<double>(self[1]), 30.0 - 10.0, "child with grandchild");
  expect_near(static_cast<double>(self[2]), 30.0, "leaf b");
  expect_near(static_cast<double>(self[3]), 30.0, "leaf c");
  expect_near(static_cast<double>(self[4]), 10.0, "grandchild");
  // Children that fully cover the parent leave no self time.
  const std::vector<SpanRecord> covered = {
      {"p", 0, 10, -1, 2}, {"x", 0, 6, 0, 2}, {"y", 4, 10, 0, 2}};
  expect_near(static_cast<double>(abtbench::self_times(covered)[0]), 0.0,
              "fully covered parent");
  expect_near(static_cast<double>(abtbench::union_length(
                  {{5, 9}, {0, 2}, {1, 3}, {9, 9}})),
              7.0, "union of unsorted intervals");
}

}  // namespace

int main() {
  test_percentiles();
  test_shares();
  test_window_refs();
  test_self_times();
  if (g_failures != 0) {
    std::cerr << g_failures << " check(s) failed\n";
    return 1;
  }
  std::cout << "abtbench selftest: all checks passed\n";
  return 0;
}
