// Traced replay: one request re-run outside the engine as the chain of
// public layer calls the engine makes (align → value match + rewrite →
// FdProblem::BuildInterned → FD RunCodes → decode), with a span recorded
// around each call by the benchmark's own code.
#ifndef PERFBENCH_REPLAY_H_
#define PERFBENCH_REPLAY_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/engine.h"
#include "fd/session_dict.h"
#include "measure.h"
#include "util/thread_pool.h"
#include "workloads.h"

namespace perfbench {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// In-memory span store; written out once, when the benchmark ends.
class SpanLog {
 public:
  uint64_t Open(const std::string& name, uint64_t parent, uint64_t request) {
    Span s;
    s.id = spans_.size() + 1;
    s.parent = parent;
    s.request = request;
    s.name = name;
    s.start_ns = NowNs();
    spans_.push_back(std::move(s));
    return spans_.back().id;
  }
  void Close(uint64_t id) { spans_[id - 1].end_ns = NowNs(); }
  /// Records an interval already known, e.g. the tail of a call that a
  /// layer's own stopwatches show was spent outside that layer.
  uint64_t Add(const std::string& name, uint64_t parent, uint64_t request,
               int64_t start_ns, int64_t end_ns) {
    spans_.push_back({spans_.size() + 1, parent, request, name, start_ns,
                      end_ns});
    return spans_.back().id;
  }
  const std::vector<Span>& spans() const { return spans_; }

  /// Chrome trace_event JSON ("X" events; pid = request id).
  std::string ToJson() const;

 private:
  std::vector<Span> spans_;
};

/// Closes its span when it leaves scope.
class SpanScope {
 public:
  SpanScope(SpanLog* log, const std::string& name, uint64_t parent,
            uint64_t request)
      : log_(log), id_(log->Open(name, parent, request)) {}
  ~SpanScope() { log_->Close(id_); }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;
  uint64_t id() const { return id_; }

 private:
  SpanLog* log_;
  uint64_t id_;
};

/// Counters one replayed request returns, read from the layer results.
struct ReplayResult {
  OutputDigest digest;
  std::vector<std::string> discovered;
  lakefuzz::FuzzyFdReport report;  ///< match/rewrite stats (RewriteTables)
  lakefuzz::FdStats fd;            ///< from FD RunCodes
};

/// Session state of the replay: the engine's model, its own embedding
/// cache, pool and session dictionary over the same table snapshots the
/// engine registered, mirroring what LakeEngine owns.
class Replayer {
 public:
  Replayer(const lakefuzz::LakeEngine* engine, const Workload& workload,
           std::vector<std::shared_ptr<const lakefuzz::Table>> tables,
           SpanLog* log);

  /// Replays `request` under span request id `request_id`. DiscoverUnion-
  /// able goes through `engine`; every later layer is called directly.
  lakefuzz::Result<ReplayResult> Run(const Request& request,
                                     uint64_t request_id);

 private:
  const lakefuzz::LakeEngine* engine_;
  const Workload& workload_;
  SpanLog* log_;
  std::shared_ptr<lakefuzz::EmbeddingCache> cache_;
  std::unique_ptr<lakefuzz::ThreadPool> pool_;
  lakefuzz::SessionDict dict_;
  std::map<std::string, std::shared_ptr<const lakefuzz::Table>> tables_;
  /// Alignment per ordered name set, as the engine caches it.
  std::map<std::vector<std::string>, lakefuzz::AlignedSchema> aligned_;
};

/// Row digest of decoded values (shared with the engine-side digests).
uint64_t ValuesDigest(const std::vector<lakefuzz::Value>& values);

}  // namespace perfbench

#endif  // PERFBENCH_REPLAY_H_
