// The benchmark's workloads: their seeded inputs, engine settings and
// the requests each closed loop cycles through.
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "table/table.h"

namespace perfbench {

/// One request of a closed loop: an Integrate over `names`, or (when
/// `query` is set) a DiscoverAndIntegrate seeded by that table.
struct Request {
  std::vector<std::string> names;
  std::string query;
  /// Planted partners of `query` (discovery recall ground truth).
  std::vector<std::string> partners;
};

struct Workload {
  std::string name;
  std::string shape;   ///< one-line description of the generated inputs
  std::string reason;  ///< why the workload is in the benchmark
  uint64_t generator_seed = 0;
  size_t engine_threads = 1;
  bool holistic_alignment = false;
  /// DiscoverAndIntegrate top-k (0 = plain Integrate workload).
  size_t discover_k = 0;
  /// Registered table names, in registration order, with either the
  /// in-memory snapshots to register or the CSV files to read (same order).
  std::vector<std::string> table_names;
  std::vector<std::shared_ptr<const lakefuzz::Table>> tables;
  std::vector<std::string> csv_paths;
  /// Distinct requests; the closed loop cycles through them in order.
  std::vector<Request> requests;
  /// Row count every response must have at the default seed (0 = none).
  size_t expected_rows_at_default_seed = 0;
  /// Input tuples in the registered lake.
  size_t total_tuples = 0;
};

/// Every workload the benchmark runs (the ones BENCHMARK.json lists).
const std::vector<std::string>& WorkloadNames();

/// Builds workload `name` from `seed` (0 = the default seed, at which the
/// committed expected values apply). CSV inputs are written under
/// `work_dir`. Returns false for an unknown name.
bool MakeWorkload(const std::string& name, uint64_t seed,
                  const std::string& work_dir, Workload* out);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
