// Order statistics and clocks shared by perfbench.cpp and the ledger.
#pragma once

#include <algorithm>
#include <chrono>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Linear-interpolated quantile (q in [0, 1]); 0 for an empty sample.
inline double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

inline double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

/// Median over `reps` repeats of the wall time of `calls` calls of
/// `fn`, in nanoseconds per call. One untimed repeat warms up first.
template <typename Fn>
double ns_per_call(int reps, int calls, Fn&& fn) {
  std::vector<double> per_call;
  for (int r = -1; r < reps; ++r) {
    const auto t0 = Clock::now();
    for (int i = 0; i < calls; ++i) fn(i);
    const double ns = seconds_between(t0, Clock::now()) * 1e9 / calls;
    if (r >= 0) per_call.push_back(ns);
  }
  return median(std::move(per_call));
}

}  // namespace perfbench
