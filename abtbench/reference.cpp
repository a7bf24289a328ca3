#include "reference.hpp"

#include <time.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <regex>
#include <sstream>
#include <string>
#include <unordered_map>

#include "bench_stats.hpp"
#include "daemon.hpp"

namespace abtbench {
namespace {

double thread_cpu_us() {
  timespec t{};
  ::clock_gettime(CLOCK_THREAD_CPUTIME_ID, &t);
  return static_cast<double>(t.tv_sec) * 1e6 +
         static_cast<double>(t.tv_nsec) / 1e3;
}

/// Keeps the kernel's results alive so the compiler cannot drop the work.
volatile std::uint64_t g_sink = 0;

/// Sorting and hashing of integers.
std::uint64_t sort_and_hash() {
  std::uint32_t x = 0x9e3779b9u;
  std::vector<std::uint32_t> values(1024);
  for (std::uint32_t& v : values) {
    x = x * 1664525u + 1013904223u;
    v = x;
  }
  std::sort(values.begin(), values.end());
  std::unordered_map<std::uint32_t, std::uint32_t> counts;
  for (std::size_t i = 0; i < 256; ++i) counts[values[i * 4] >> 12] += 1;
  return counts.size() + values[512];
}

/// Number formatting and parsing, through stdio and through iostreams.
std::uint64_t format_and_parse() {
  std::string text;
  char line[32];
  for (int i = 0; i < 100; ++i) {
    const int n = std::snprintf(line, sizeof line, "%d %d\n",
                                (i * 7919) % 100000, i % 977);
    text.append(line, static_cast<std::size_t>(n));
  }
  std::uint64_t sum = 0;
  const char* at = text.c_str();
  while (*at != '\0') {
    char* end = nullptr;
    sum += std::strtoul(at, &end, 10);
    at = end;
    while (*at == ' ' || *at == '\n') ++at;
  }
  std::ostringstream out;
  for (int i = 0; i < 150; ++i) out << (i * 1.37) << ' ' << i << '\n';
  std::istringstream in(out.str());
  double d = 0.0;
  int k = 0;
  while (in >> d >> k) {
    sum += static_cast<std::uint64_t>(d) + static_cast<std::uint64_t>(k);
  }
  return sum;
}

/// Pattern matching and an ordered map of string keys.
std::uint64_t match_and_map() {
  std::string text;
  for (int i = 0; i < 60; ++i) {
    text += "key";
    text += static_cast<char>('a' + i % 26);
    text += '=';
    text += std::to_string(i * 37);
    text += ' ';
  }
  const std::regex pattern("([a-z]+)=([0-9]+)");
  std::map<std::string, int> fields;
  for (auto it = std::sregex_iterator(text.begin(), text.end(), pattern);
       it != std::sregex_iterator(); ++it) {
    fields[(*it)[1].str()] += std::stoi((*it)[2].str());
  }
  for (int i = 0; i < 200; ++i) {
    fields["item-" + std::to_string((i * 7919) % 1000)] += i;
  }
  std::uint64_t sum = 0;
  for (int i = 0; i < 200; ++i) {
    const auto it = fields.find("item-" + std::to_string(i));
    if (it != fields.end()) sum += static_cast<std::uint64_t>(it->second);
  }
  return sum + fields.size();
}

}  // namespace

double reference_us() {
  const double t0 = thread_cpu_us();
  g_sink = g_sink + sort_and_hash() + format_and_parse() + match_and_map();
  return thread_cpu_us() - t0;
}

double reference_on_us(const std::vector<int>& cpus, int reps) {
  double total = 0.0;
  for (const int cpu : cpus) {
    (void)pin_to({cpu});
    std::vector<double> runs;
    for (int r = 0; r < reps; ++r) runs.push_back(reference_us());
    total += median(std::move(runs));
  }
  (void)pin_to(cpus);
  return share(total, static_cast<double>(cpus.size()));
}

}  // namespace abtbench
