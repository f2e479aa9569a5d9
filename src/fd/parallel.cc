#include "fd/parallel.h"

#include <algorithm>
#include <memory>
#include <mutex>
#include <thread>

#include "obs/trace.h"
#include "util/stopwatch.h"
#include "util/rss.h"
#include "util/thread_pool.h"

namespace lakefuzz {
namespace {

/// Components below this tuple count skip their per-component trace span
/// (mirrors the serial executor's gate): the singleton tail dominates by
/// count, not by time, and would flood the trace.
constexpr size_t kComponentSpanMinTuples = 64;

/// Session pools (LakeEngine) are reused across calls; otherwise spawn a
/// pool for this run. The one pool-resolution rule for RunCodes and Run.
ThreadPool* ResolvePool(const ParallelFdOptions& options,
                        std::unique_ptr<ThreadPool>* owned) {
  if (options.pool != nullptr) return options.pool;
  size_t threads = options.num_threads;
  if (threads == 0) {
    threads = std::max(1u, std::thread::hardware_concurrency());
  }
  *owned = std::make_unique<ThreadPool>(threads);
  return owned->get();
}

}  // namespace

Result<std::vector<FdCodeTuple>> ParallelFullDisjunction::RunCodes(
    FdProblem* problem, FdStats* stats, const RequestContext& ctx,
    const ProgressFn& progress) const {
  std::unique_ptr<ThreadPool> owned_pool;
  ThreadPool* pool = ResolvePool(options_, &owned_pool);
  const PoolStats pool_before = pool->stats();

  ScopedSpan index_span(ctx, "fd_index");
  Stopwatch index_watch;
  problem->BuildIndex(pool);
  index_span.AddAttr("distinct_values",
                     static_cast<int64_t>(problem->index_stats().distinct_values));
  index_span.End();
  stats->index_seconds = index_watch.ElapsedSeconds();
  stats->num_input_tuples = problem->num_tuples();
  stats->num_components = problem->Components().size();
  stats->distinct_values = problem->index_stats().distinct_values;
  stats->posting_lists = problem->index_stats().posting_lists;
  stats->posting_entries = problem->index_stats().posting_entries;
  stats->value_copies = problem->index_stats().value_copies;

  // Largest components first: they dominate runtime, so schedule them before
  // the long tail of singletons.
  std::vector<const std::vector<uint32_t>*> comps;
  comps.reserve(problem->Components().size());
  for (const auto& c : problem->Components()) {
    comps.push_back(&c);
    stats->largest_component =
        std::max(stats->largest_component, c.size());
  }
  std::stable_sort(comps.begin(), comps.end(),
                   [](const auto* a, const auto* b) {
                     return a->size() > b->size();
                   });

  ReportProgress(progress, Stage::kFdEnumerate, 0, 1);
  ScopedSpan enum_span(ctx, "fd_enumerate");
  const RequestContext enum_ctx = ctx.WithSpan(enum_span.id());
  Stopwatch enum_watch;
  int64_t node_cap = static_cast<int64_t>(options_.fd.max_search_nodes);
  if (ctx.budget.max_fd_nodes > 0) {
    node_cap =
        std::min(node_cap, static_cast<int64_t>(ctx.budget.max_fd_nodes));
  }
  std::atomic<int64_t> budget{node_cap};
  std::vector<std::vector<FdCodeTuple>> per_comp(comps.size());
  std::mutex err_mu;
  Status first_error = Status::OK();   // guarded by err_mu
  Status trunc_stop = Status::OK();    // guarded by err_mu (kTruncate stops)
  std::atomic<uint64_t> total_nodes{0};

  // Intra-component parallelism: with a multi-worker pool, the biggest
  // components (a skewed lake often collapses into one giant component)
  // have their branch-and-exclude trees split across the whole pool instead
  // of serializing one worker. They sit at the front of the size-sorted
  // order, so the giants run first — one at a time, all workers inside —
  // and the long tail then fans out component-per-worker as before. Output
  // is byte-identical either way.
  size_t intra_workers =
      options_.fd.intra_component_threads == 0
          ? pool->num_threads()
          : std::min(options_.fd.intra_component_threads,
                     pool->num_threads());
  if (pool->num_threads() <= 1) intra_workers = 1;

  // One scratch per work lane: enumeration state is O(num_tuples) to zero,
  // so it is allocated once here, not once per component. The intra phase
  // reuses the same scratches (the two phases never overlap).
  const size_t lanes = std::max<size_t>(
      1, std::min(std::max(comps.size(), intra_workers),
                  pool->num_threads()));
  std::vector<FdScratch> scratches;
  scratches.reserve(lanes);
  for (size_t i = 0; i < lanes; ++i) {
    scratches.emplace_back(*problem);
    scratches.back().arena_enabled = options_.fd.scratch_arena;
  }

  // A component is "giant" when it is both absolutely large and a big
  // enough share of the total that component-level parallelism would starve
  // — at least 1/(2·workers) of all tuples. Lakes of many mid-size
  // components keep the cheaper component-per-worker path, where subtree
  // bookkeeping would only add overhead.
  size_t num_intra = 0;
  if (intra_workers > 1) {
    const size_t total = problem->num_tuples();
    while (num_intra < comps.size()) {
      const size_t size = comps[num_intra]->size();
      if (size < options_.fd.intra_component_min_size ||
          size * 2 * intra_workers < total) {
        break;
      }
      ++num_intra;
    }
  }
  uint64_t intra_tasks = 0;
  FdTaskProfile task_profile;
  std::atomic<size_t> completed{0};
  Status stop = Status::OK();
  size_t intra_done = 0;
  for (size_t i = 0; i < num_intra; ++i) {
    stop = ctx.CheckStop("full disjunction");
    if (stop.ok() && ctx.budget.max_scratch_bytes > 0) {
      size_t reserved = 0;
      for (const FdScratch& s : scratches) {
        reserved += s.arena.bytes_reserved();
      }
      if (reserved > ctx.budget.max_scratch_bytes) {
        stop = Status::ResourceExhausted(
            "full disjunction scratch budget exhausted "
            "(ResourceBudget::max_scratch_bytes)");
      }
    }
    if (!stop.ok()) break;
    ScopedSpan comp_span(enum_ctx, "fd_component");
    comp_span.AddAttr("tuples", static_cast<int64_t>(comps[i]->size()));
    comp_span.AddAttr("intra", int64_t{1});
    const RequestContext comp_ctx = enum_ctx.WithSpan(comp_span.id());
    uint64_t nodes = 0;
    auto res = FullDisjunction::RunComponentCodesParallel(
        *problem, *comps[i], options_.fd, pool, intra_workers, &scratches,
        &budget, &nodes, &intra_tasks, &comp_ctx, &task_profile);
    comp_span.AddAttr("nodes", static_cast<int64_t>(nodes));
    total_nodes.fetch_add(nodes, std::memory_order_relaxed);
    if (!res.ok()) {
      stop = res.status();
      break;
    }
    per_comp[i] = std::move(res).value();
    ++intra_done;
  }
  stats->intra_tasks = intra_tasks;
  stats->task_profile = task_profile;
  completed.fetch_add(intra_done, std::memory_order_relaxed);
  if (!stop.ok() && !ctx.ShouldTruncate(stop.code())) return stop;

  if (stop.ok()) {
    pool->ParallelForWithLane(comps.size() - num_intra, [&](size_t lane,
                                                            size_t idx) {
      const size_t i = num_intra + idx;
      // Per-component checkpoint: once the token fires or the deadline
      // passes, the remaining scheduled components become no-ops instead of
      // enumerating. Under kTruncate they count as skipped; otherwise the
      // stop is the request's error.
      Status cs = ctx.CheckStop("full disjunction");
      uint64_t nodes = 0;
      if (cs.ok()) {
        ScopedSpan comp_span(
            comps[i]->size() >= kComponentSpanMinTuples ? enum_ctx.tracer
                                                        : nullptr,
            "fd_component", enum_ctx.trace_parent);
        comp_span.AddAttr("tuples", static_cast<int64_t>(comps[i]->size()));
        auto res = FullDisjunction::RunComponentCodes(
            *problem, *comps[i], &budget, &nodes, &scratches[lane],
            &enum_ctx);
        comp_span.AddAttr("nodes", static_cast<int64_t>(nodes));
        total_nodes.fetch_add(nodes, std::memory_order_relaxed);
        if (res.ok()) {
          per_comp[i] = std::move(res).value();
          completed.fetch_add(1, std::memory_order_relaxed);
          return;
        }
        cs = res.status();  // mid-component stop: the partial is discarded
      }
      std::lock_guard<std::mutex> lock(err_mu);
      if (ctx.ShouldTruncate(cs.code())) {
        if (trunc_stop.ok()) trunc_stop = cs;
      } else if (first_error.ok()) {
        first_error = cs;
      }
    });
    if (!first_error.ok()) return first_error;
    {
      std::lock_guard<std::mutex> lock(err_mu);
      if (!trunc_stop.ok()) stop = trunc_stop;
    }
  }
  if (!stop.ok()) {
    stats->truncation.truncated = true;
    stats->truncation.stage = Stage::kFdEnumerate;
    stats->truncation.reason = stop.message();
    stats->truncation.components_completed =
        completed.load(std::memory_order_relaxed);
    stats->truncation.components_skipped =
        comps.size() - stats->truncation.components_completed;
  }
  stats->search_nodes = total_nodes.load();
  for (const FdScratch& s : scratches) {
    stats->posting_visits += s.posting_visits;
    stats->selective_seeds += s.selective_seeds;
    stats->arena_bytes_reserved += s.arena.bytes_reserved();
    stats->arena_peak_bytes += s.arena.peak_bytes();
  }
  stats->peak_rss_bytes = PeakRssBytes();

  // Zero-copy flatten into final component order: one exact reservation,
  // then pure moves.
  const uint64_t merge_start = ThreadPool::NowNs();
  std::vector<FdCodeTuple> code_tuples;
  size_t total_tuples = 0;
  for (const auto& tuples : per_comp) total_tuples += tuples.size();
  code_tuples.reserve(total_tuples);
  for (auto& tuples : per_comp) {
    for (auto& t : tuples) code_tuples.push_back(std::move(t));
  }
  stats->task_profile.merge_ns += ThreadPool::NowNs() - merge_start;
  stats->merge_seconds =
      static_cast<double>(stats->task_profile.merge_ns) * 1e-9;
  enum_span.AddAttr("components", static_cast<int64_t>(comps.size()));
  enum_span.AddAttr("search_nodes",
                    static_cast<int64_t>(stats->search_nodes));
  enum_span.AddAttr("posting_visits",
                    static_cast<int64_t>(stats->posting_visits));
  enum_span.End();
  stats->enumeration_seconds = enum_watch.ElapsedSeconds();
  ReportProgress(progress, Stage::kFdEnumerate, 1, 1);
  stats->results_before_subsumption = code_tuples.size();

  // Subsuming an already-truncated partial result is cleanup: it still
  // honors cancellation but is not re-aborted by the expired deadline.
  const RequestContext subsume_ctx =
      stats->truncation.truncated ? ctx.CancelOnly() : ctx;
  LAKEFUZZ_RETURN_IF_ERROR(subsume_ctx.CheckStop("full disjunction"));
  ReportProgress(progress, Stage::kFdSubsume, 0, 1);
  ScopedSpan subsume_span(subsume_ctx, "fd_subsume");
  subsume_span.AddAttr("input_tuples",
                       static_cast<int64_t>(code_tuples.size()));
  Stopwatch subsume_watch;
  LAKEFUZZ_ASSIGN_OR_RETURN(
      code_tuples,
      EliminateSubsumedCodes(std::move(code_tuples), pool, &subsume_ctx));
  subsume_span.AddAttr("results", static_cast<int64_t>(code_tuples.size()));
  subsume_span.End();
  stats->subsumption_seconds = subsume_watch.ElapsedSeconds();
  stats->results = code_tuples.size();
  if (stats->truncation.truncated) {
    stats->truncation.tuples_emitted = code_tuples.size();
  }
  ReportProgress(progress, Stage::kFdSubsume, 1, 1);
  const PoolStats pool_delta = pool->stats() - pool_before;
  stats->pool_tasks = pool_delta.tasks;
  stats->pool_busy_seconds = static_cast<double>(pool_delta.busy_ns) * 1e-9;
  stats->pool_wait_seconds =
      static_cast<double>(pool_delta.queue_wait_ns) * 1e-9;
  return code_tuples;
}

Result<FdResult> ParallelFullDisjunction::Run(FdProblem* problem) const {
  // One pool for both RunCodes and the decode below (RunCodes would
  // otherwise spawn and join its own).
  std::unique_ptr<ThreadPool> owned_pool;
  ParallelFdOptions opts = options_;
  opts.pool = ResolvePool(options_, &owned_pool);
  FdResult out;
  LAKEFUZZ_ASSIGN_OR_RETURN(
      std::vector<FdCodeTuple> code_tuples,
      ParallelFullDisjunction(opts).RunCodes(problem, &out.stats));
  // Decode on the pool, timed into subsumption_seconds as before the
  // RunCodes split.
  Stopwatch decode_watch;
  out.tuples.resize(code_tuples.size());
  opts.pool->ParallelFor(code_tuples.size(), [&](size_t i) {
    out.tuples[i] = DecodeCodeTuple(code_tuples[i], problem->dict());
  });
  out.stats.subsumption_seconds += decode_watch.ElapsedSeconds();
  return out;
}

}  // namespace lakefuzz
