// perfbench: the repository benchmark.
//
//   perfbench --workload <hub_skew|lake_session> --seed <n>
//             --seconds <s> --trace <0|1> --work_dir <dir>
//
// Each workload runs as one closed-loop client against a LakeEngine, driven
// only through its public API. Every response is checked against a fresh
// engine running the serial FD executor (order-independent digest + row
// count). --trace 0 prints the end-to-end metrics; --trace 1 replays the
// requests layer by layer with spans and prints the per-layer metrics. The
// last stdout line is one JSON object {correct, attempted, failed,
// metrics}; any output or premise mismatch exits 1.
#include <sched.h>
#include <sys/wait.h>
#include <time.h>
#include <unistd.h>

#include <cerrno>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/engine.h"
#include "measure.h"
#include "replay.h"
#include "table/csv.h"
#include "util/rss.h"
#include "util/str.h"
#include "workloads.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

using lakefuzz::FuzzyFdReport;
using lakefuzz::LakeEngine;
using lakefuzz::Result;
using lakefuzz::Status;
using lakefuzz::Table;

/// Set-ups per run (setup_s is their median): fewer where one set-up
/// includes a warm-up pass over many distinct requests.
size_t SetupReps(const Workload& w) { return w.discover_k > 0 ? 3 : 9; }
/// p90 needs ten samples beyond it.
const size_t kMinTimedRequests = MinSamplesFor(0.9);
/// Loops stop here (seconds since start) whatever their sample count, so
/// a run always ends well inside its time limit.
constexpr double kHardStopS = 140.0;

struct Args {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 20.0;
  bool trace = false;
  std::string work_dir = ".";
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      args->workload = value;
    } else if (key == "--seed") {
      args->seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0') return false;
    } else if (key == "--seconds") {
      args->seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || args->seconds <= 0) return false;
    } else if (key == "--trace") {
      if (value != "0" && value != "1") return false;
      args->trace = value == "1";
    } else if (key == "--work_dir") {
      args->work_dir = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !args->workload.empty();
}

double SecondsSince(int64_t start_ns) {
  return static_cast<double>(NowNs() - start_ns) / 1e9;
}

/// Host steal so far, in ms: time the hypervisor ran something else while
/// one of this guest's vCPUs wanted to run (summed over vCPUs). 0 where
/// /proc/stat does not report it.
double HostStealMs() {
  std::FILE* f = std::fopen("/proc/stat", "r");
  if (f == nullptr) return 0.0;
  char line[512];
  const bool got = std::fgets(line, sizeof(line), f) != nullptr;
  std::fclose(f);
  const long long ticks = got ? StealTicks(line) : -1;
  static const double kMsPerTick =
      1e3 / static_cast<double>(sysconf(_SC_CLK_TCK));
  return ticks < 0 ? 0.0 : static_cast<double>(ticks) * kMsPerTick;
}

/// A point in time on three clocks: wall, host steal, process CPU.
struct Mark {
  int64_t wall_ns;
  double steal_ms;
  int64_t cpu_ns;
};

Mark Now() {
  timespec cpu;
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &cpu);
  return {NowNs(), HostStealMs(),
          static_cast<int64_t>(cpu.tv_sec) * 1000000000 + cpu.tv_nsec};
}

/// The time since a mark. ms() is what the end-to-end metrics report:
/// wall time less the host steal on the process's critical path. On a
/// shared VM host the hypervisor takes vCPUs away in phases of minutes;
/// one lake_session seed read a p50 of 135 ms and 268 ms minutes apart on
/// the same code, and most of the difference was steal, not the program.
struct Interval {
  double wall_ms;
  double steal_ms;
  double cpu_ms;
  double ms() const { return StealFreeMs(wall_ms, steal_ms, cpu_ms); }
};

Interval Since(const Mark& m) {
  const Mark now = Now();
  return {static_cast<double>(now.wall_ns - m.wall_ns) / 1e6,
          now.steal_ms - m.steal_ms,
          static_cast<double>(now.cpu_ns - m.cpu_ns) / 1e6};
}

/// One line of requests_<workload>.csv: when a request (or a set-up's
/// registration) ran, its wall time, the host steal within it and the CPU
/// time the process spent on it. Lets a reader tell the host's swings
/// (steal rising, CPU per request moving on a fixed request) apart from
/// the program's own state (one request or one phase drifting).
struct RequestLogEntry {
  const char* phase;
  size_t rep;
  size_t request;
  double at_s;
  Interval time;
};

[[noreturn]] void Fatal(const std::string& msg) {
  std::fprintf(stderr, "perfbench: %s\n", msg.c_str());
  std::exit(1);
}

void WriteFile(const std::string& path, const std::string& body) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) Fatal("cannot write " + path);
  const bool wrote = std::fwrite(body.data(), 1, body.size(), f) == body.size();
  if (std::fclose(f) != 0 || !wrote) Fatal("short write to " + path);
}

void WriteRequestLog(const std::string& path,
                     const std::vector<RequestLogEntry>& log) {
  std::string body = "phase,rep,request,at_s,wall_ms,steal_ms,cpu_ms\n";
  for (const RequestLogEntry& e : log) {
    body += lakefuzz::StrFormat("%s,%zu,%zu,%.3f,%.3f,%.0f,%.3f\n", e.phase,
                                e.rep, e.request, e.at_s, e.time.wall_ms,
                                e.time.steal_ms, e.time.cpu_ms);
  }
  WriteFile(path, body);
}

std::unique_ptr<LakeEngine> NewEngine(const Workload& w) {
  auto engine = LakeEngine::Create(
      lakefuzz::EngineOptions().SetNumThreads(w.engine_threads));
  if (!engine.ok()) Fatal(engine.status().ToString());
  return std::move(engine).value();
}

/// Registration as a user does it: RegisterCsv for CSV lakes, else the
/// generated snapshots.
void LoadTables(LakeEngine* engine, const Workload& w) {
  for (size_t i = 0; i < w.table_names.size(); ++i) {
    Status s = w.csv_paths.empty()
                   ? engine->RegisterTable(w.table_names[i], w.tables[i])
                   : engine->RegisterCsv(w.table_names[i], w.csv_paths[i]);
    if (!s.ok()) Fatal(s.ToString());
  }
}

class DigestSink : public lakefuzz::RowSink {
 public:
  Status OnBatch(const std::vector<lakefuzz::FdResultTuple>& batch) override {
    for (const auto& t : batch) digest.Add(ValuesDigest(t.values));
    return Status::OK();
  }
  OutputDigest digest;
};

struct Reply {
  OutputDigest digest;
  FuzzyFdReport report;
  std::vector<std::string> discovered;
};

Result<Reply> Serve(const LakeEngine& engine, const Workload& w,
                    const Request& req, bool parallel_fd = true) {
  lakefuzz::RequestOptions ro;
  ro.holistic_alignment = w.holistic_alignment;
  ro.fuzzy = true;
  ro.parallel_fd = parallel_fd;
  Reply reply;
  if (!req.query.empty()) {
    DigestSink sink;
    std::vector<lakefuzz::DiscoveryCandidate> found;
    auto report = engine.DiscoverAndIntegrate(req.query, w.discover_k, &sink,
                                              ro, &found);
    if (!report.ok()) return report.status();
    reply.report = std::move(report).value();
    reply.digest = sink.digest;
    for (const auto& c : found) reply.discovered.push_back(c.name);
    return reply;
  }
  auto result = engine.Integrate(req.names, ro);
  if (!result.ok()) return result.status();
  const Table& t = result->integrated;
  std::vector<lakefuzz::Value> row;
  for (size_t r = 0; r < t.NumRows(); ++r) {
    row.clear();
    for (size_t c = 0; c < t.NumColumns(); ++c) row.push_back(t.At(r, c));
    reply.digest.Add(ValuesDigest(row));
  }
  reply.report = std::move(result->report);
  return reply;
}

/// Counts attempted/failed responses against the serial references and
/// collects premise violations.
struct Checker {
  std::vector<OutputDigest> reference;
  size_t attempted = 0;
  size_t failed = 0;
  std::vector<std::string> problems;

  void Problem(const std::string& msg) {
    if (problems.size() < 20) problems.push_back(msg);
  }
  /// Returns true when `digest` matches request `index`'s reference.
  bool Check(const Result<OutputDigest>& digest, size_t index,
             const char* what) {
    ++attempted;
    if (!digest.ok()) {
      ++failed;
      Problem(std::string(what) + ": " + digest.status().ToString());
      return false;
    }
    if (*digest != reference[index]) {
      ++failed;
      Problem(lakefuzz::StrFormat(
          "%s: request %zu returned %zu rows (digest %016llx), reference "
          "%zu rows (%016llx)",
          what, index, digest->rows,
          static_cast<unsigned long long>(digest->sum),
          reference[index].rows,
          static_cast<unsigned long long>(reference[index].sum)));
      return false;
    }
    return true;
  }
  /// Same, for any response carrying a `digest` (engine or replay).
  template <typename T>
  bool Check(const Result<T>& response, size_t index, const char* what) {
    return Check(response.ok() ? Result<OutputDigest>(response->digest)
                               : Result<OutputDigest>(response.status()),
                 index, what);
  }
};

/// Reference digests from a fresh engine on the serial FD executor. The
/// engine runs in a child process, so its memory does not count towards
/// this process's peak_rss_mb; call it while this process has one thread.
void ComputeReference(const Workload& w, Checker* chk) {
  int fds[2];
  if (pipe(fds) != 0) Fatal("pipe failed");
  const pid_t pid = fork();
  if (pid < 0) Fatal("fork failed");
  if (pid == 0) {
    close(fds[0]);
    std::string body;
    {
      auto engine = NewEngine(w);
      LoadTables(engine.get(), w);
      for (const Request& req : w.requests) {
        auto reply = Serve(*engine, w, req, /*parallel_fd=*/false);
        if (!reply.ok()) {
          std::fprintf(stderr, "perfbench: reference: %s\n",
                       reply.status().ToString().c_str());
          _exit(1);
        }
        body += lakefuzz::StrFormat(
            "%llu %zu\n", static_cast<unsigned long long>(reply->digest.sum),
            reply->digest.rows);
      }
    }
    for (size_t done = 0; done < body.size();) {
      const ssize_t n = write(fds[1], body.data() + done, body.size() - done);
      if (n <= 0) _exit(1);
      done += static_cast<size_t>(n);
    }
    _exit(0);
  }
  close(fds[1]);
  std::string body;
  char buf[4096];
  for (ssize_t n; (n = read(fds[0], buf, sizeof(buf))) != 0;) {
    if (n < 0) {
      if (errno == EINTR) continue;
      break;
    }
    body.append(buf, static_cast<size_t>(n));
  }
  close(fds[0]);
  int status = 0;
  while (waitpid(pid, &status, 0) < 0 && errno == EINTR) {
  }
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    Fatal("reference process failed");
  }
  std::istringstream in(body);
  unsigned long long sum = 0;
  size_t rows = 0;
  while (in >> sum >> rows) {
    OutputDigest d;
    d.sum = sum;
    d.rows = rows;
    chk->reference.push_back(d);
  }
  if (chk->reference.size() != w.requests.size()) {
    Fatal("reference process returned no digest for some requests");
  }
  if (w.expected_rows_at_default_seed != 0) {
    for (const OutputDigest& d : chk->reference) {
      if (d.rows != w.expected_rows_at_default_seed) {
        chk->Problem(lakefuzz::StrFormat(
            "default seed: reference has %zu rows, committed value is %zu",
            d.rows, w.expected_rows_at_default_seed));
      }
    }
  }
}

/// Share of planted partners found, where `discovered[i]` lists the
/// tables discovery returned for request i. Records the premise (the
/// 0.9 gate of bench_discovery) in `chk`.
double Recall(const Workload& w,
              const std::vector<std::vector<std::string>>& discovered,
              Checker* chk) {
  size_t expected = 0, found = 0;
  for (size_t i = 0; i < w.requests.size() && i < discovered.size(); ++i) {
    const auto& d = discovered[i];
    for (const std::string& p : w.requests[i].partners) {
      ++expected;
      found += std::count(d.begin(), d.end(), p) > 0 ? 1 : 0;
    }
  }
  const double recall =
      expected == 0 ? 0.0 : static_cast<double>(found) / expected;
  if (recall < 0.9) {
    chk->Problem(lakefuzz::StrFormat(
        "premise: discovery recall %.3f below 0.9", recall));
  }
  return recall;
}

size_t WarmupPasses(const Workload& w) { return w.discover_k > 0 ? 1 : 2; }

/// The workload's premises on one timed response.
void CheckPremises(const Workload& w, const FuzzyFdReport& r, Checker* chk) {
  if (w.name == "hub_skew") {
    const auto& fd = r.fd_stats;
    if (fd.num_components != 1 || fd.largest_component != w.total_tuples) {
      chk->Problem(lakefuzz::StrFormat(
          "premise: hub_skew has %zu components, largest %zu (want one of "
          "%zu)",
          fd.num_components, fd.largest_component, w.total_tuples));
    }
    if (r.values_rewritten == 0) chk->Problem("premise: 0 values rewritten");
    if (fd.intra_tasks == 0) chk->Problem("premise: 0 intra-component tasks");
  }
}

struct Host {
  size_t nproc = 0;
  size_t cores_granted = 0;
};

Host QueryHost() {
  Host h;
  h.nproc = std::thread::hardware_concurrency();
  h.cores_granted = h.nproc;
  cpu_set_t mask;
  if (sched_getaffinity(0, sizeof(mask), &mask) == 0) {
    h.cores_granted = static_cast<size_t>(CPU_COUNT(&mask));
  }
  return h;
}

/// Ordered (name, value, unit) triples for the final JSON line.
struct Metrics {
  struct Entry {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Entry> entries;

  void Add(const std::string& name, double value, const std::string& unit,
           const std::string& note = "") {
    entries.push_back({name, value, unit});
    std::printf("  %-28s %16.6f %-8s %s\n", name.c_str(), value, unit.c_str(),
                note.c_str());
  }
};

void PrintResult(const Checker& chk, const Metrics& m, bool correct) {
  std::string json = lakefuzz::StrFormat(
      "{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, \"metrics\": {",
      correct ? "true" : "false", chk.attempted, chk.failed);
  for (size_t i = 0; i < m.entries.size(); ++i) {
    json += lakefuzz::StrFormat(
        "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i == 0 ? "" : ", ",
        m.entries[i].name.c_str(), m.entries[i].value,
        m.entries[i].unit.c_str());
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
}

/// Save, open into a fresh engine, first query: the session tail. With a
/// span log, the save and the open are recorded as catalog spans.
struct Tail {
  double save_s = 0, open_s = 0, first_query_ms = 0;
  lakefuzz::CatalogSaveReport save;
  lakefuzz::CatalogOpenReport open;
};

Tail RunTail(LakeEngine* serving, const Workload& w,
             const std::string& work_dir, Checker* chk,
             SpanLog* log = nullptr) {
  Tail tail;
  const std::string dir = work_dir + "/catalog";
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
  std::optional<SpanScope> span;
  if (log != nullptr) span.emplace(log, "catalog.save", 0, 0);
  Mark t0 = Now();
  auto saved = serving->SaveCatalog(dir);
  tail.save_s = Since(t0).ms() / 1e3;
  span.reset();
  if (!saved.ok()) Fatal("SaveCatalog: " + saved.status().ToString());
  tail.save = *saved;
  auto fresh = NewEngine(w);
  if (log != nullptr) span.emplace(log, "catalog.open", 0, 0);
  t0 = Now();
  auto opened = fresh->OpenCatalog(dir);
  tail.open_s = Since(t0).ms() / 1e3;
  span.reset();
  if (!opened.ok()) Fatal("OpenCatalog: " + opened.status().ToString());
  tail.open = *opened;
  if (opened->columns_resketched != 0) {
    chk->Problem(lakefuzz::StrFormat(
        "premise: open re-sketched %zu columns", opened->columns_resketched));
  }
  t0 = Now();
  auto first = Serve(*fresh, w, w.requests[0]);
  tail.first_query_ms = Since(t0).ms();
  chk->Check(first, 0, "first query after open");
  std::filesystem::remove_all(dir, ec);
  return tail;
}

int RunUntraced(const Workload& w, const Args& args, int64_t start_ns) {
  Checker chk;
  ComputeReference(w, &chk);

  std::vector<RequestLogEntry> log;
  auto record = [&](const char* phase, size_t rep, size_t idx,
                    const Mark& from) {
    log.push_back({phase, rep, idx,
                   static_cast<double>(from.wall_ns - start_ns) / 1e9,
                   Since(from)});
    return log.back().time;
  };

  // Set-up: engine creation → registration → warm-up requests, several
  // times; the last engine serves the timed loop.
  std::vector<double> setup_s;
  std::unique_ptr<LakeEngine> engine;
  std::vector<std::vector<std::string>> discovered;
  for (size_t rep = 0; rep < SetupReps(w); ++rep) {
    engine.reset();
    discovered.clear();
    const Mark setup_start = Now();
    engine = NewEngine(w);
    LoadTables(engine.get(), w);
    record("register", rep, 0, setup_start);
    for (size_t pass = 0; pass < WarmupPasses(w); ++pass) {
      for (size_t i = 0; i < w.requests.size(); ++i) {
        const Mark t0 = Now();
        auto reply = Serve(*engine, w, w.requests[i]);
        record("warmup", rep, i, t0);
        chk.Check(reply, i, "warm-up");
        if (pass == 0 && reply.ok()) discovered.push_back(reply->discovered);
      }
    }
    setup_s.push_back(Since(setup_start).ms() / 1e3);
  }

  // Timed closed loop.
  std::vector<double> ms;
  uint64_t tuples = 0;
  const Mark loop_start = Now();
  for (size_t i = 0;; ++i) {
    const double elapsed = SecondsSince(loop_start.wall_ns);
    // Stop on whole cycles, so each distinct request weighs the same.
    if ((elapsed >= args.seconds && ms.size() >= kMinTimedRequests &&
         ms.size() % w.requests.size() == 0) ||
        SecondsSince(start_ns) >= kHardStopS) {
      break;
    }
    const size_t idx = i % w.requests.size();
    const Mark t0 = Now();
    auto reply = Serve(*engine, w, w.requests[idx]);
    const Interval req = record("timed", i, idx, t0);
    if (chk.Check(reply, idx, "timed")) {
      ms.push_back(req.ms());
      tuples += reply->report.fd_stats.num_input_tuples;
      CheckPremises(w, reply->report, &chk);
    }
  }
  const Interval loop = Since(loop_start);

  Tail tail;
  double recall = 0.0;
  if (w.discover_k > 0) {
    tail = RunTail(engine.get(), w, args.work_dir, &chk);
    recall = Recall(w, discovered, &chk);
  }

  const size_t n = ms.size();
  WriteRequestLog(args.work_dir + "/requests_" + w.name + ".csv", log);
  std::printf("end-to-end metrics (closed loop, 1 client, tracing off):\n");
  Metrics m;
  m.Add("latency_p50_ms", Median(ms), "ms",
        lakefuzz::StrFormat("n=%zu", n));
  m.Add("latency_p90_ms", NearestRank(ms, 0.9), "ms",
        lakefuzz::StrFormat("n=%zu, %zu beyond%s", n, SamplesBeyond(n, 0.9),
                            PercentileSupported(n, 0.9)
                                ? ""
                                : " (UNSUPPORTED: fewer than 10 beyond)"));
  const double loop_s = loop.ms() / 1e3;
  m.Add("throughput_tuples_per_s",
        loop_s > 0 ? static_cast<double>(tuples) / loop_s : 0.0, "1/s",
        lakefuzz::StrFormat("n=%zu over %.2f s", n, loop_s));
  m.Add("setup_s", Median(setup_s), "s",
        lakefuzz::StrFormat("median of %zu", setup_s.size()));
  m.Add("peak_rss_mb",
        static_cast<double>(lakefuzz::PeakRssBytes()) / (1024.0 * 1024.0),
        "MB");
  std::printf("  %-28s %16.6f %-8s n=%zu\n", "error_rate",
              chk.attempted == 0
                  ? 0.0
                  : static_cast<double>(chk.failed) / chk.attempted,
              "ratio", chk.attempted);
  if (w.discover_k > 0) {
    std::printf("  %-28s %16.6f %-8s n=1\n", "save_s", tail.save_s, "s");
    std::printf("  %-28s %16.6f %-8s n=1\n", "open_s", tail.open_s, "s");
    std::printf("  %-28s %16.6f %-8s n=1\n", "first_query_ms",
                tail.first_query_ms, "ms");
    std::printf("  %-28s %16.6f %-8s n=%zu queries\n", "discovery_recall",
                recall, "ratio", w.requests.size());
  }
  const double steal_share =
      loop.wall_ms > 0 ? loop.steal_ms / loop.wall_ms : 0.0;
  std::printf(
      "host during the timed loop: wall %.2f s, steal %.2f s (%.1f%%; its "
      "critical-path share is out of every time above), process CPU / "
      "wall %.2f; per request: %s%s\n",
      loop.wall_ms / 1e3, loop.steal_ms / 1e3, 100 * steal_share,
      loop.wall_ms > 0 ? loop.cpu_ms / loop.wall_ms : 0.0,
      (args.work_dir + "/requests_" + w.name + ".csv").c_str(),
      steal_share > 0.1 ? "  FLAG: heavy host steal" : "");
  for (const std::string& p : chk.problems) std::printf("FAIL %s\n", p.c_str());
  const bool correct =
      chk.failed == 0 && chk.problems.empty() && PercentileSupported(n, 0.9);
  PrintResult(chk, m, correct);
  return correct ? 0 : 1;
}

double MedianOf(const std::vector<std::map<std::string, double>>& rows,
                const std::string& key) {
  std::vector<double> v;
  for (const auto& row : rows) {
    auto it = row.find(key);
    v.push_back(it == row.end() ? 0.0 : it->second);
  }
  return Median(v);
}

int RunTraced(const Workload& w, const Args& args, int64_t start_ns) {
  Checker chk;
  ComputeReference(w, &chk);
  SpanLog log;

  // Traced set-up: RegisterCsv split into its two public layer calls.
  auto engine = NewEngine(w);
  std::vector<std::shared_ptr<const Table>> tables;
  size_t rows_read = 0;
  for (size_t i = 0; i < w.table_names.size(); ++i) {
    std::shared_ptr<const Table> table;
    if (w.csv_paths.empty()) {
      table = w.tables[i];
    } else {
      SpanScope span(&log, "table.csv_read", 0, 0);
      auto read = lakefuzz::ReadCsvFile(w.csv_paths[i]);
      if (!read.ok()) Fatal(read.status().ToString());
      read->set_name(w.table_names[i]);
      rows_read += read->NumRows();
      table = std::make_shared<const Table>(std::move(read).value());
    }
    SpanScope span(&log, "core.register", 0, 0);
    Status s = engine->RegisterTable(w.table_names[i], table);
    if (!s.ok()) Fatal(s.ToString());
    tables.push_back(std::move(table));
  }
  Replayer replayer(engine.get(), w, tables, &log);

  uint64_t next_id = 1;
  std::vector<std::vector<std::string>> discovered;
  for (size_t pass = 0; pass < WarmupPasses(w); ++pass) {
    for (size_t i = 0; i < w.requests.size(); ++i) {
      chk.Check(Serve(*engine, w, w.requests[i]), i, "warm-up");
      auto replay = replayer.Run(w.requests[i], next_id++);
      chk.Check(replay, i, "warm-up replay");
      if (pass == 0 && replay.ok()) discovered.push_back(replay->discovered);
    }
  }
  const uint64_t first_timed_id = next_id;

  // Interleaved: untraced engine request, then its traced replay.
  std::vector<double> untraced_ms;
  std::vector<ReplayResult> replays;
  const int64_t loop_start = NowNs();
  for (size_t i = 0; SecondsSince(loop_start) < args.seconds &&
                     SecondsSince(start_ns) < kHardStopS;
       ++i) {
    const size_t idx = i % w.requests.size();
    const int64_t t0 = NowNs();
    auto reply = Serve(*engine, w, w.requests[idx]);
    const double req_ms = static_cast<double>(NowNs() - t0) / 1e6;
    if (chk.Check(reply, idx, "timed")) {
      untraced_ms.push_back(req_ms);
      CheckPremises(w, reply->report, &chk);
    }
    auto replay = replayer.Run(w.requests[idx], next_id++);
    if (chk.Check(replay, idx, "replay")) {
      replays.push_back(std::move(replay).value());
    }
  }

  Tail tail;
  if (w.discover_k > 0) {
    tail = RunTail(engine.get(), w, args.work_dir, &chk, &log);
  }

  // Self times: set-up/tail spans live under request 0.
  auto self = SelfMsByRequest(log.spans());
  std::map<std::string, double> setup = self[0];
  std::vector<std::map<std::string, double>> timed, first_pass;
  std::vector<double> replay_total_ms, plumbing_ms;
  for (const Span& s : log.spans()) {
    if (s.parent != 0 || s.request == 0) continue;
    if (s.request >= first_timed_id) {
      timed.push_back(self[s.request]);
      replay_total_ms.push_back(static_cast<double>(s.duration_ns()) / 1e6);
      plumbing_ms.push_back(self[s.request]["replay.plumbing"]);
    } else if (s.request <= w.requests.size()) {
      first_pass.push_back(self[s.request]);
    }
  }
  static const char* kLayers[] = {"discovery.query", "match.align",
                                  "core.match_rewrite", "fd.build",
                                  "fd.run", "fd.emit"};
  std::map<std::string, double> layer_ms;
  for (const char* layer : kLayers) layer_ms[layer] = MedianOf(timed, layer);
  const double e2e_ms = Median(untraced_ms);

  // Counters read from the replayed layer results.
  std::vector<std::map<std::string, double>> counts;
  double cost = 0, pruned = 0, hits = 0, misses = 0, nodes = 0, enum_ns = 0;
  double kept = 0, before = 0;
  for (const ReplayResult& r : replays) {
    const auto& fd = r.fd;
    const auto& ms = r.report.match_stats;
    counts.push_back({
        {"match_ms", r.report.match_seconds * 1e3},
        {"rewrite_ms", r.report.rewrite_seconds * 1e3},
        {"rewritten", static_cast<double>(r.report.values_rewritten)},
        {"cost", static_cast<double>(ms.cost_evaluations)},
        {"nodes", static_cast<double>(fd.search_nodes)},
        {"components", static_cast<double>(fd.num_components)},
        {"largest", static_cast<double>(fd.largest_component)},
        {"postings", static_cast<double>(fd.posting_entries)},
        {"index_ms", fd.index_seconds * 1e3},
        {"enum_ms", fd.enumeration_seconds * 1e3},
        {"subsume_ms", fd.subsumption_seconds * 1e3},
        {"tasks", static_cast<double>(fd.intra_tasks)},
        {"busy_ms", fd.pool_busy_seconds * 1e3},
        {"wait_ms", fd.pool_wait_seconds * 1e3},
    });
    cost += static_cast<double>(ms.cost_evaluations);
    pruned += static_cast<double>(ms.pruned_evaluations);
    hits += static_cast<double>(ms.embedding_cache_hits);
    misses += static_cast<double>(ms.embedding_cache_misses);
    nodes += static_cast<double>(fd.search_nodes);
    enum_ns += fd.enumeration_seconds * 1e9;
    kept += static_cast<double>(fd.results);
    before += static_cast<double>(fd.results_before_subsumption);
  }
  auto ratio = [](double a, double b) { return b > 0 ? a / b : 0.0; };

  std::printf(
      "per-layer metrics (traced replay, %zu timed requests, %zu untraced "
      "interleaved):\n",
      replays.size(), untraced_ms.size());
  Metrics m;
  m.Add("table.csv_read_ms", setup["table.csv_read"], "ms", "set-up total");
  m.Add("table.rows_read", static_cast<double>(rows_read), "count");
  m.Add("core.register_ms", setup["core.register"], "ms", "set-up total");
  m.Add("discovery.query_ms", layer_ms["discovery.query"], "ms");
  m.Add("discovery.recall",
        w.discover_k > 0 ? Recall(w, discovered, &chk) : 0.0, "ratio");
  m.Add("match.align_ms", MedianOf(first_pass, "match.align"), "ms",
        "uncached (first pass)");
  m.Add("core.value_match_ms", MedianOf(counts, "match_ms"), "ms");
  m.Add("core.rewrite_ms", MedianOf(counts, "rewrite_ms"), "ms");
  m.Add("core.values_rewritten", MedianOf(counts, "rewritten"), "count");
  m.Add("core.cost_evaluations", MedianOf(counts, "cost"), "count");
  m.Add("core.pruned_ratio", ratio(pruned, cost), "ratio");
  m.Add("embedding.cache_hit_ratio", ratio(hits, hits + misses), "ratio");
  m.Add("fd.build_ms", layer_ms["fd.build"], "ms");
  m.Add("fd.run_ms", layer_ms["fd.run"], "ms");
  m.Add("fd.emit_ms", layer_ms["fd.emit"], "ms");
  m.Add("fd.search_nodes", MedianOf(counts, "nodes"), "count");
  m.Add("fd.ns_per_node", ratio(enum_ns, nodes), "ns");
  m.Add("fd.components", MedianOf(counts, "components"), "count");
  m.Add("fd.largest_component", MedianOf(counts, "largest"), "count");
  m.Add("fd.posting_entries", MedianOf(counts, "postings"), "count");
  m.Add("fd.keep_ratio", ratio(kept, before), "ratio");
  m.Add("fd.index_ms", MedianOf(counts, "index_ms"), "ms");
  m.Add("fd.enumerate_ms", MedianOf(counts, "enum_ms"), "ms");
  m.Add("fd.subsume_ms", MedianOf(counts, "subsume_ms"), "ms");
  m.Add("fd.intra_tasks", MedianOf(counts, "tasks"), "count");
  m.Add("fd.pool_busy_ms", MedianOf(counts, "busy_ms"), "ms");
  m.Add("fd.pool_wait_ms", MedianOf(counts, "wait_ms"), "ms");
  m.Add("catalog.save_ms", setup["catalog.save"], "ms");
  m.Add("catalog.bytes_written", static_cast<double>(tail.save.bytes_written),
        "bytes");
  m.Add("catalog.open_ms", setup["catalog.open"], "ms");
  m.Add("catalog.mmap_bytes", static_cast<double>(tail.open.mapped_bytes),
        "bytes");
  m.Add("catalog.columns_resketched",
        static_cast<double>(tail.open.columns_resketched), "count");
  m.Add("catalog.first_query_ms", tail.first_query_ms, "ms");
  m.Add("core.unattributed_ms", UnattributedMs(e2e_ms, layer_ms), "ms",
        lakefuzz::StrFormat("end-to-end p50 %.3f ms", e2e_ms));
  m.Add("trace.overhead_ms",
        TraceOverheadMs(replay_total_ms, plumbing_ms, e2e_ms), "ms",
        lakefuzz::StrFormat("traced replay p50 less replay plumbing (p50 "
                            "%.3f ms) - untraced p50",
                            Median(plumbing_ms)));

  const std::string spans_path =
      args.work_dir + "/spans_" + w.name + ".json";
  WriteFile(spans_path, log.ToJson());
  std::printf("spans: %zu written to %s\n", log.spans().size(),
              spans_path.c_str());

  for (const std::string& p : chk.problems) std::printf("FAIL %s\n", p.c_str());
  const bool correct = chk.failed == 0 && chk.problems.empty();
  PrintResult(chk, m, correct);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  const int64_t start_ns = NowNs();
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload <name> --seed <n> --seconds <s> "
                 "--trace <0|1> [--work_dir <dir>]\n");
    return 2;
  }
  const auto& names = WorkloadNames();
  if (std::find(names.begin(), names.end(), args.workload) == names.end()) {
    std::fprintf(stderr, "perfbench: unknown workload %s\n",
                 args.workload.c_str());
    return 2;
  }
  std::error_code ec;
  std::filesystem::create_directories(args.work_dir, ec);
  Workload w;
  if (!MakeWorkload(args.workload, args.seed, args.work_dir, &w)) return 1;

  const Host host = QueryHost();
  std::printf("workload %s: %s\n", w.name.c_str(), w.shape.c_str());
  std::printf("  why: %s\n", w.reason.c_str());
  std::printf(
      "  seed %llu (generator seed %llu), engine threads %zu, %zu distinct "
      "request(s), closed loop with 1 client\n",
      static_cast<unsigned long long>(args.seed),
      static_cast<unsigned long long>(w.generator_seed), w.engine_threads,
      w.requests.size());
  std::printf(
      "host: nproc %zu, cores granted %zu, build %s, engine threads %zu%s\n",
      host.nproc, host.cores_granted, PERFBENCH_BUILD_TYPE, w.engine_threads,
      host.cores_granted < w.engine_threads
          ? "  FLAG: fewer cores granted than engine threads"
          : "");
  std::fflush(stdout);
  const int rc = args.trace ? RunTraced(w, args, start_ns)
                            : RunUntraced(w, args, start_ns);
  if (!w.csv_paths.empty()) {
    std::filesystem::remove_all(
        std::filesystem::path(w.csv_paths[0]).parent_path(), ec);
  }
  return rc;
}
