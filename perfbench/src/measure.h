// The benchmark's own arithmetic: percentiles with their sample-count rule,
// host-steal correction, an order-independent output digest, span self
// times, and the reconciliation of layer self times against the end-to-end
// latency.
//
// Header-only and free of lakefuzz types so tests/measure_test.cc can check
// every rule in isolation.
#ifndef PERFBENCH_MEASURE_H_
#define PERFBENCH_MEASURE_H_

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

// ------------------------------------------------------------ percentiles

/// Samples that lie strictly beyond the nearest-rank q-quantile of n
/// samples: n - ceil(q * n).
inline size_t SamplesBeyond(size_t n, double q) {
  const double rank = std::ceil(q * static_cast<double>(n) - 1e-9);
  const size_t r = rank <= 0.0 ? 0 : static_cast<size_t>(rank);
  return n > r ? n - r : 0;
}

/// A percentile is reported only when at least `min_beyond` samples lie
/// beyond it (ten, for p90 that means at least 100 samples).
inline bool PercentileSupported(size_t n, double q, size_t min_beyond = 10) {
  return SamplesBeyond(n, q) >= min_beyond;
}

/// Fewest samples for which PercentileSupported(n, q, min_beyond) holds.
inline size_t MinSamplesFor(double q, size_t min_beyond = 10) {
  size_t n = 1;
  while (!PercentileSupported(n, q, min_beyond)) ++n;
  return n;
}

/// Nearest-rank q-quantile (q in (0, 1]); 0 for no samples.
inline double NearestRank(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  double rank = std::ceil(q * static_cast<double>(samples.size()) - 1e-9);
  size_t idx = rank < 1.0 ? 0 : static_cast<size_t>(rank) - 1;
  return samples[std::min(idx, samples.size() - 1)];
}

/// Median (mean of the two middle samples for even n); 0 for no samples.
inline double Median(std::vector<double> samples) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const size_t n = samples.size();
  return n % 2 == 1 ? samples[n / 2]
                    : 0.5 * (samples[n / 2 - 1] + samples[n / 2]);
}

// ------------------------------------------------------------ host steal

/// The steal counter of /proc/stat's aggregate "cpu" line (its 8th value:
/// ticks during which the hypervisor ran something else while one of this
/// guest's vCPUs wanted to run, summed over vCPUs); -1 when `line` is not
/// such a line or is too short.
inline long long StealTicks(const std::string& line) {
  if (line.compare(0, 4, "cpu ") != 0) return -1;
  const char* p = line.c_str() + 4;
  long long value = -1;
  for (int field = 0; field < 8; ++field) {
    char* end = nullptr;
    value = std::strtoll(p, &end, 10);
    if (end == p) return -1;
    p = end;
  }
  return value;
}

/// An interval's time as the program had it: its wall time less the host
/// steal that fell on its critical path. Steal is summed over vCPUs, so
/// the interval's steal is divided by the process's mean parallelism
/// p = (CPU time + steal) / wall, at least 1: a process that kept p vCPUs
/// wanting to run lost about 1/p of their summed steal on its longest
/// thread. Never below 0.
inline double StealFreeMs(double wall_ms, double steal_ms, double cpu_ms) {
  if (wall_ms <= 0.0) return 0.0;
  const double steal = std::max(0.0, steal_ms);
  const double p = std::max(1.0, (std::max(0.0, cpu_ms) + steal) / wall_ms);
  return std::max(0.0, wall_ms - steal / p);
}

// ----------------------------------------------------------------- digest

/// 64-bit finalizer (splitmix64).
inline uint64_t Mix(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Digest of one row from its per-cell hashes, position-sensitive (the
/// same values in other columns give another row digest).
inline uint64_t RowDigest(const std::vector<uint64_t>& cell_hashes) {
  uint64_t h = Mix(cell_hashes.size());
  for (uint64_t c : cell_hashes) h = Mix(h ^ Mix(c));
  return h;
}

/// Order-independent digest of a multiset of rows: the wrapping sum of the
/// row digests plus the row count. Two outputs with the same rows in any
/// order compare equal; a changed, missing or duplicated row does not.
struct OutputDigest {
  uint64_t sum = 0;
  size_t rows = 0;

  void Add(uint64_t row_digest) {
    sum += row_digest;
    ++rows;
  }
  bool operator==(const OutputDigest& o) const {
    return sum == o.sum && rows == o.rows;
  }
  bool operator!=(const OutputDigest& o) const { return !(*this == o); }
};

// ------------------------------------------------------------------ spans

/// One timed interval recorded around a call into a layer.
struct Span {
  uint64_t id = 0;
  uint64_t parent = 0;  ///< 0 = root
  uint64_t request = 0;
  std::string name;
  int64_t start_ns = 0;
  int64_t end_ns = 0;

  int64_t duration_ns() const { return end_ns - start_ns; }
};

/// Length of the union of `intervals` clipped to [lo, hi].
inline int64_t CoveredNs(std::vector<std::pair<int64_t, int64_t>> intervals,
                         int64_t lo, int64_t hi) {
  std::sort(intervals.begin(), intervals.end());
  int64_t covered = 0;
  int64_t cursor = lo;
  for (auto [s, e] : intervals) {
    s = std::max(s, cursor);
    e = std::min(e, hi);
    if (e > s) {
      covered += e - s;
      cursor = e;
    }
  }
  return covered;
}

/// Self time of every span: its duration minus the part of its interval
/// that its direct children cover (overlapping children count once).
/// Returned in the order of `spans`.
inline std::vector<int64_t> SelfTimesNs(const std::vector<Span>& spans) {
  std::map<uint64_t, std::vector<std::pair<int64_t, int64_t>>> children;
  for (const Span& s : spans) {
    if (s.parent != 0) children[s.parent].push_back({s.start_ns, s.end_ns});
  }
  std::vector<int64_t> out;
  out.reserve(spans.size());
  for (const Span& s : spans) {
    auto it = children.find(s.id);
    const int64_t covered =
        it == children.end() ? 0 : CoveredNs(it->second, s.start_ns, s.end_ns);
    out.push_back(std::max<int64_t>(0, s.duration_ns() - covered));
  }
  return out;
}

/// Per request: Σ self time (ms) by span name.
inline std::map<uint64_t, std::map<std::string, double>> SelfMsByRequest(
    const std::vector<Span>& spans) {
  const std::vector<int64_t> self = SelfTimesNs(spans);
  std::map<uint64_t, std::map<std::string, double>> out;
  for (size_t i = 0; i < spans.size(); ++i) {
    out[spans[i].request][spans[i].name] += static_cast<double>(self[i]) / 1e6;
  }
  return out;
}

/// End-to-end time no layer accounts for: the end-to-end median minus the
/// sum of the layers' self times. Negative when the traced replay spent
/// more inside the layers than the untraced engine spent in total.
inline double UnattributedMs(double end_to_end_ms,
                             const std::map<std::string, double>& layer_ms) {
  double sum = 0.0;
  for (const auto& kv : layer_ms) sum += kv.second;
  return end_to_end_ms - sum;
}

/// Tracing overhead: the median of the traced replay's per-request times,
/// each less that request's replay plumbing (work the engine does not do),
/// minus the untraced end-to-end median. `traced_ms` and `plumbing_ms` are
/// per request, in the same order.
inline double TraceOverheadMs(const std::vector<double>& traced_ms,
                              const std::vector<double>& plumbing_ms,
                              double untraced_ms) {
  std::vector<double> own;
  for (size_t i = 0; i < traced_ms.size(); ++i) {
    own.push_back(traced_ms[i] -
                  (i < plumbing_ms.size() ? plumbing_ms[i] : 0.0));
  }
  return Median(own) - untraced_ms;
}

}  // namespace perfbench

#endif  // PERFBENCH_MEASURE_H_
