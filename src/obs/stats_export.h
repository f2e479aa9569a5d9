// One mapping from FD execution stats to named numbers.
//
// The FD executors fill FdStats (task profile, pool counters, arena and RSS
// peaks); the engine's metrics registry and the benchmark JSON artifacts
// both report those numbers. Before this helper each bench binary hand-built
// its own key list and the engine wired fields separately, so the two could
// silently diverge. Now FdStats is the single source and this is the single
// field→name mapping: the bench `extra` keys below correspond 1:1 to the
// engine metrics of the same meaning (task_busy_s ↔
// lakefuzz_fd_task_busy_ns_total, intra_tasks ↔
// lakefuzz_fd_intra_tasks_total, peak_rss_mb ↔
// lakefuzz_process_peak_rss_bytes, ...), differing only in unit.
#ifndef LAKEFUZZ_OBS_STATS_EXPORT_H_
#define LAKEFUZZ_OBS_STATS_EXPORT_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "fd/full_disjunction.h"

namespace lakefuzz {

/// One FD kernel counter: the FdStats field, its bench `extra` key, and its
/// engine metric. Bench artifacts and /metrics both read this table, so the
/// two names cannot drift apart.
struct FdKernelCounter {
  const char* extra_key;    ///< key in FdExecutionExtras / bench JSON
  const char* metric_name;  ///< Prometheus counter (summed per request)
  const char* help;
  uint64_t FdStats::*field;
};

inline constexpr FdKernelCounter kFdKernelCounters[] = {
    {"posting_visits", "lakefuzz_fd_posting_visits_total",
     "candidate tuples streamed by the FD extension-set scans",
     &FdStats::posting_visits},
    {"selective_seeds", "lakefuzz_fd_selective_seeds_total",
     "FD seeds scanned through one column's posting and null list",
     &FdStats::selective_seeds},
};

/// Process peak RSS in MiB — the one rounding rule every artifact uses
/// (wraps util/rss.h's PeakRssBytes()).
double PeakRssMb();

/// The FD execution profile as ordered (key, value) pairs, ready for
/// BenchJsonWriter::AddFromStats `extra` (or any other flat export):
/// task-grain evidence (mean/min/max nodes per subtree task, busy vs.
/// dequeue-wait vs. replay time), pool-level busy vs. wall, merge cost,
/// arena peak, process peak RSS, and the kFdKernelCounters.
std::vector<std::pair<std::string, double>> FdExecutionExtras(
    const FdStats& stats);

}  // namespace lakefuzz

#endif  // LAKEFUZZ_OBS_STATS_EXPORT_H_
