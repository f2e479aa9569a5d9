#include "replay.h"

#include <utility>

#include "core/fuzzy_fd.h"
#include "fd/aligned_schema.h"
#include "fd/full_disjunction.h"
#include "fd/parallel.h"
#include "fd/problem.h"
#include "match/schema_matcher.h"
#include "util/str.h"

namespace perfbench {

using lakefuzz::Result;
using lakefuzz::Status;
using lakefuzz::Table;
using lakefuzz::TableList;

std::string SpanLog::ToJson() const {
  std::string out = "{\"traceEvents\": [\n";
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out += lakefuzz::StrFormat(
        "  {\"name\": \"%s\", \"ph\": \"X\", \"pid\": %llu, \"tid\": 1, "
        "\"ts\": %.3f, \"dur\": %.3f, \"args\": {\"id\": %llu, "
        "\"parent\": %llu}}%s\n",
        s.name.c_str(), static_cast<unsigned long long>(s.request),
        static_cast<double>(s.start_ns) / 1e3,
        static_cast<double>(s.duration_ns()) / 1e3,
        static_cast<unsigned long long>(s.id),
        static_cast<unsigned long long>(s.parent),
        i + 1 < spans_.size() ? "," : "");
  }
  out += "]}\n";
  return out;
}

uint64_t ValuesDigest(const std::vector<lakefuzz::Value>& values) {
  std::vector<uint64_t> cells;
  cells.reserve(values.size());
  for (const lakefuzz::Value& v : values) cells.push_back(v.Hash());
  return RowDigest(cells);
}

namespace {

/// True when `a` holds the same cells as `b` (the rewrite left it alone).
bool SameCells(const Table& a, const Table& b) {
  if (a.NumRows() != b.NumRows() || a.NumColumns() != b.NumColumns()) {
    return false;
  }
  for (size_t r = 0; r < a.NumRows(); ++r) {
    for (size_t c = 0; c < a.NumColumns(); ++c) {
      if (!(a.At(r, c) == b.At(r, c))) return false;
    }
  }
  return true;
}

}  // namespace

Replayer::Replayer(const lakefuzz::LakeEngine* engine,
                   const Workload& workload,
                   std::vector<std::shared_ptr<const Table>> tables,
                   SpanLog* log)
    : engine_(engine),
      workload_(workload),
      log_(log),
      cache_(std::make_shared<lakefuzz::EmbeddingCache>(engine->model())) {
  if (workload.engine_threads > 1) {
    pool_ = std::make_unique<lakefuzz::ThreadPool>(workload.engine_threads);
  }
  for (size_t i = 0; i < tables.size(); ++i) {
    dict_.PinTable(tables[i]);
    tables_[workload.table_names[i]] = std::move(tables[i]);
  }
}

Result<ReplayResult> Replayer::Run(const Request& request,
                                   uint64_t request_id) {
  ReplayResult out;
  SpanScope root(log_, "request", 0, request_id);
  const uint64_t parent = root.id();

  std::vector<std::string> names = request.names;
  if (!request.query.empty()) {
    SpanScope span(log_, "discovery.query", parent, request_id);
    auto found = engine_->DiscoverUnionable(request.query,
                                            workload_.discover_k);
    if (!found.ok()) return found.status();
    names = {request.query};
    for (const auto& c : *found) {
      names.push_back(c.name);
      out.discovered.push_back(c.name);
    }
  }
  TableList tables;
  for (const std::string& name : names) {
    auto it = tables_.find(name);
    if (it == tables_.end()) {
      return Status::NotFound("replay: unknown table " + name);
    }
    tables.push_back(it->second.get());
  }

  lakefuzz::AlignedSchema aligned;
  {
    SpanScope span(log_, "match.align", parent, request_id);
    auto cached = aligned_.find(names);
    if (cached != aligned_.end()) {
      aligned = cached->second;
    } else {
      auto result =
          workload_.holistic_alignment
              ? lakefuzz::HolisticSchemaMatcher(engine_->model()).Align(tables)
              : lakefuzz::AlignByName(tables);
      if (!result.ok()) return result.status();
      aligned = std::move(result).value();
      aligned_.emplace(names, aligned);
    }
  }

  // The engine's request plumbing: session model, cache and pool.
  lakefuzz::FuzzyFdOptions options;
  options.matcher.model = engine_->model();
  options.matcher.shared_cache = cache_;
  options.pool = pool_.get();
  options.matcher.pool = pool_.get();
  if (pool_ != nullptr) options.matcher.num_threads = pool_->num_threads();
  std::vector<Table> rewritten;
  uint64_t rewrite_span = 0;
  {
    SpanScope span(log_, "core.match_rewrite", parent, request_id);
    rewrite_span = span.id();
    auto result = lakefuzz::FuzzyFullDisjunction(options).RewriteTables(
        tables, aligned, &out.report);
    if (!result.ok()) return result.status();
    rewritten = std::move(result).value();
  }
  // The public RewriteTables deep-copies every table the rewrite left
  // alone, after its match and rewrite stopwatches stop; the engine
  // borrows those tables instead. That tail is replay plumbing, not the
  // layer's work.
  const Span call = log_->spans()[rewrite_span - 1];
  const int64_t layer_ns = static_cast<int64_t>(
      (out.report.match_seconds + out.report.rewrite_seconds) * 1e9);
  if (call.duration_ns() > layer_ns) {
    log_->Add("replay.plumbing", rewrite_span, request_id,
              call.end_ns - (call.duration_ns() - layer_ns), call.end_ns);
  }
  // Like the engine, feed FD the registered snapshot of every table the
  // rewrite left untouched, so its memoized column codes are used.
  TableList fd_tables;
  {
    SpanScope span(log_, "replay.plumbing", parent, request_id);
    for (size_t l = 0; l < tables.size(); ++l) {
      const bool untouched = out.report.values_rewritten == 0 ||
                             SameCells(rewritten[l], *tables[l]);
      fd_tables.push_back(untouched ? tables[l] : &rewritten[l]);
    }
  }

  Result<lakefuzz::FdProblem> built = Status::Internal("unreachable");
  {
    SpanScope span(log_, "fd.build", parent, request_id);
    built = lakefuzz::FdProblem::BuildInterned(fd_tables, aligned, &dict_);
  }
  if (!built.ok()) return built.status();
  lakefuzz::FdProblem problem = std::move(built).value();

  Result<std::vector<lakefuzz::FdCodeTuple>> codes =
      Status::Internal("unreachable");
  {
    SpanScope span(log_, "fd.run", parent, request_id);
    if (pool_ != nullptr) {
      lakefuzz::ParallelFdOptions popts;
      popts.num_threads = pool_->num_threads();
      popts.pool = pool_.get();
      codes = lakefuzz::ParallelFullDisjunction(popts).RunCodes(&problem,
                                                                &out.fd);
    } else {
      codes = lakefuzz::FullDisjunction().RunCodes(&problem, &out.fd);
    }
  }
  if (!codes.ok()) return codes.status();

  {
    SpanScope span(log_, "fd.emit", parent, request_id);
    std::vector<uint64_t> rows(codes->size());
    lakefuzz::MaybeParallelFor(pool_.get(), codes->size(), [&](size_t i) {
      rows[i] = ValuesDigest(
          lakefuzz::DecodeCodeTuple((*codes)[i], problem.dict()).values);
    });
    for (uint64_t row : rows) out.digest.Add(row);
  }
  return out;
}

}  // namespace perfbench
