#pragma once

// The reference kernel: a fixed piece of CPU work that uses nothing of
// abt. The host under the benchmark changes speed by 15% and more over
// seconds and minutes, and every timing moves with it. Timed next to the
// program on the same CPU, the kernel measures that speed, and the timed
// metrics are reported in units of it ("ref": one run of the kernel).

#include <vector>

namespace abtbench {

/// Runs the reference kernel once on the calling thread and returns the
/// thread's CPU time for it, in µs (about 200 µs on a 2.1 GHz Xeon VM).
[[nodiscard]] double reference_us();

/// The median of `reps` runs of the kernel on each of `cpus` in turn,
/// averaged over the CPUs. Pins the calling thread to each CPU and
/// leaves it pinned to all of them.
[[nodiscard]] double reference_on_us(const std::vector<int>& cpus, int reps);

}  // namespace abtbench
