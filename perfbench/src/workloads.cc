#include "workloads.h"

#include <cstdio>
#include <filesystem>
#include <utility>

#include "datagen/corruption.h"
#include "datagen/lake.h"
#include "table/csv.h"
#include "util/rng.h"
#include "util/str.h"

namespace perfbench {
namespace {

using lakefuzz::Table;

/// Generator seeds at --seed 0; any other seed s uses base + s.
constexpr uint64_t kSkewBaseSeed = 20260730;
constexpr uint64_t kLakeBaseSeed = 20260730;

/// Committed output sizes at the default seed (fresh serial engine).
constexpr size_t kSkewExpectedRows = 4915;

/// Distinct DiscoverAndIntegrate queries of lake_session: one planted
/// member per group, round-robin over the groups. 100 timed requests are
/// five whole cycles.
constexpr size_t kLakeQueries = 20;

void AddTables(std::vector<Table> tables, Workload* w) {
  for (Table& t : tables) {
    w->total_tuples += t.NumRows();
    w->table_names.push_back(t.name());
    w->tables.push_back(std::make_shared<const Table>(std::move(t)));
  }
}

/// bench_fd_skew's shape: every tuple carries the hub value, so the whole
/// lake is one join-graph component; seeded typos on the key cells give
/// the value matcher real rewrites.
void MakeHubSkew(uint64_t seed, Workload* w) {
  constexpr size_t kTables = 4, kKeys = 500, kRowsPerKey = 2;
  constexpr double kTypoP = 0.15;
  w->generator_seed = kSkewBaseSeed + seed;
  w->engine_threads = 4;
  w->holistic_alignment = false;
  lakefuzz::Rng rng(w->generator_seed);
  lakefuzz::CorruptionConfig typo;
  typo.typo = 1.0;
  std::vector<Table> tables;
  for (size_t l = 0; l < kTables; ++l) {
    const std::string payload = "p" + std::to_string(l);
    Table t("t" + std::to_string(l),
            lakefuzz::Schema::FromNames({"key", "hub", payload}));
    for (size_t k = 0; k < kKeys; ++k) {
      for (size_t r = 0; r < kRowsPerKey; ++r) {
        std::string key = lakefuzz::StrFormat("key_%05zu", k);
        if (rng.Bernoulli(kTypoP)) key = lakefuzz::Corrupt(&rng, key, typo);
        lakefuzz::Status s = t.AppendRow(
            {lakefuzz::Value::String(std::move(key)),
             lakefuzz::Value::String("hub"),
             lakefuzz::Value::String(
                 lakefuzz::StrFormat("v%zu_%zu_%zu", l, k, r))});
        if (!s.ok()) {
          std::fprintf(stderr, "perfbench: %s\n", s.ToString().c_str());
          std::exit(1);
        }
      }
    }
    tables.push_back(std::move(t));
  }
  AddTables(std::move(tables), w);
  w->shape = lakefuzz::StrFormat(
      "%zu tables x %zu keys x %zu rows (%zu tuples), hub value in every "
      "tuple, %.0f%% key typos",
      kTables, kKeys, kRowsPerKey, w->total_tuples, kTypoP * 100);
  w->reason =
      "one 4,000-tuple component whose hub posting every tuple shares: "
      "posting scans, the intra-component split and the session pool do "
      "the work";
  w->requests.push_back(Request{w->table_names, "", {}});
  if (seed == 0) w->expected_rows_at_default_seed = kSkewExpectedRows;
}

bool MakeLakeSession(uint64_t seed, const std::string& work_dir,
                     Workload* w) {
  lakefuzz::LakeOptions opts;
  opts.num_tables = 240;
  opts.num_groups = 24;
  opts.group_size = 5;
  opts.rows_per_table = 800;
  opts.columns_per_table = 6;
  opts.seed = kLakeBaseSeed + seed;
  w->generator_seed = opts.seed;
  w->engine_threads = 2;
  w->holistic_alignment = true;
  w->discover_k = opts.group_size - 1;
  lakefuzz::GeneratedLake lake = lakefuzz::GenerateLake(opts);

  const std::filesystem::path dir =
      std::filesystem::path(work_dir) / "lake_csv";
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
  std::filesystem::create_directories(dir, ec);
  if (ec) {
    std::fprintf(stderr, "perfbench: cannot create %s\n", dir.c_str());
    return false;
  }
  for (const Table& t : lake.tables) {
    const std::string path = (dir / (t.name() + ".csv")).string();
    lakefuzz::Status s = lakefuzz::WriteCsvFile(t, path);
    if (!s.ok()) {
      std::fprintf(stderr, "perfbench: %s\n", s.ToString().c_str());
      return false;
    }
    w->csv_paths.push_back(path);
    w->table_names.push_back(t.name());
    w->total_tuples += t.NumRows();
  }

  for (size_t i = 0; i < kLakeQueries; ++i) {
    const auto& group = lake.groups[i % lake.groups.size()];
    const std::string& member =
        group[(i / lake.groups.size()) % group.size()];
    Request req;
    req.query = member;
    for (const std::string& partner : group) {
      if (partner != member) req.partners.push_back(partner);
    }
    w->requests.push_back(std::move(req));
  }
  w->shape = lakefuzz::StrFormat(
      "240-table planted lake (24 groups x 5 + 120 noise), 800 x 6 cells "
      "each, from CSV; %zu DiscoverAndIntegrate queries at k=%zu, holistic "
      "alignment",
      w->requests.size(), w->discover_k);
  w->reason =
      "the only workload where CSV ingest, discovery, holistic alignment, "
      "value matching and the catalog all do real work";
  return true;
}

}  // namespace

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> names = {"hub_skew", "lake_session"};
  return names;
}

bool MakeWorkload(const std::string& name, uint64_t seed,
                  const std::string& work_dir, Workload* out) {
  *out = Workload();
  out->name = name;
  if (name == "hub_skew") {
    MakeHubSkew(seed, out);
    return true;
  }
  if (name == "lake_session") return MakeLakeSession(seed, work_dir, out);
  return false;
}

}  // namespace perfbench
