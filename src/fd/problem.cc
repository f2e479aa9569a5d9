#include "fd/problem.h"

#include <algorithm>
#include <functional>
#include <unordered_map>

#include "fd/posting_shards.h"
#include "fd/session_dict.h"
#include "util/hash.h"
#include "util/str.h"
#include "util/thread_pool.h"
#include "util/union_find.h"

namespace lakefuzz {

Result<FdProblem> FdProblem::Build(const TableList& tables,
                                   const AlignedSchema& aligned) {
  LAKEFUZZ_RETURN_IF_ERROR(ValidateAlignedSchema(aligned, tables));
  FdProblem problem(aligned.NumUniversal(), aligned.universal_names);
  for (size_t l = 0; l < tables.size(); ++l) {
    const Table& t = *tables[l];
    for (size_t r = 0; r < t.NumRows(); ++r) {
      std::vector<Value> padded(aligned.NumUniversal());
      for (size_t c = 0; c < t.NumColumns(); ++c) {
        padded[aligned.column_map[l][c]] = t.At(r, c);
      }
      problem.value_copies_ += t.NumColumns();
      LAKEFUZZ_RETURN_IF_ERROR(
          problem.AddTuple(static_cast<uint32_t>(l), std::move(padded)));
    }
  }
  return problem;
}

Result<FdProblem> FdProblem::Build(const std::vector<Table>& tables,
                                   const AlignedSchema& aligned) {
  return Build(BorrowTables(tables), aligned);
}

Result<FdProblem> FdProblem::BuildInterned(const TableList& tables,
                                           const AlignedSchema& aligned,
                                           SessionDict* dict) {
  if (dict == nullptr) {
    return Status::InvalidArgument("BuildInterned requires a SessionDict");
  }
  LAKEFUZZ_RETURN_IF_ERROR(ValidateAlignedSchema(aligned, tables));
  FdProblem problem(aligned.NumUniversal(), aligned.universal_names);
  const size_t cols = aligned.NumUniversal();
  size_t total_rows = 0;
  for (const Table* t : tables) total_rows += t->NumRows();
  problem.codes_.assign(total_rows * cols, kNullCode);
  problem.table_ids_.reserve(total_rows);

  const uint64_t interned_before = dict->stats().values_interned;
  size_t base = 0;
  for (size_t l = 0; l < tables.size(); ++l) {
    const Table& t = *tables[l];
    const size_t rows = t.NumRows();
    for (size_t c = 0; c < t.NumColumns(); ++c) {
      auto column = dict->ColumnCodes(t, c);
      const uint32_t* src = column->data();
      uint32_t* dst = problem.codes_.data() + base * cols +
                      aligned.column_map[l][c];
      for (size_t r = 0; r < rows; ++r) dst[r * cols] = src[r];
    }
    for (size_t r = 0; r < rows; ++r) {
      problem.table_ids_.push_back(static_cast<uint32_t>(l));
    }
    problem.num_tables_ =
        std::max(problem.num_tables_, static_cast<uint32_t>(l) + 1);
    base += rows;
  }
  problem.value_copies_ = dict->stats().values_interned - interned_before;
  problem.external_dict_ = &dict->dict();
  problem.codes_ready_ = true;
  return problem;
}

Status FdProblem::AddTuple(uint32_t table_id, std::vector<Value> values) {
  if (external_dict_ != nullptr) {
    return Status::InvalidArgument(
        "cannot AddTuple into a BuildInterned problem");
  }
  if (values.size() != num_columns_) {
    return Status::InvalidArgument(
        StrFormat("tuple has %zu values, problem has %zu columns",
                  values.size(), num_columns_));
  }
  tuples_.push_back(FdInputTuple{table_id, std::move(values)});
  table_ids_.push_back(table_id);
  num_tables_ = std::max(num_tables_, table_id + 1);
  index_built_ = false;
  codes_ready_ = false;
  return Status::OK();
}

std::vector<uint32_t> FdProblem::Neighbors(uint32_t tid) const {
  assert(index_built_);
  std::vector<uint32_t> out;
  for (uint32_t p : PostingsOf(tid)) {
    for (uint32_t other : Posting(p)) {
      if (other != tid) out.push_back(other);
    }
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

const std::vector<std::vector<uint32_t>>& FdProblem::Components() const {
  assert(index_built_);
  return components_;
}

void FdProblem::BuildIndex(ThreadPool* pool) {
  if (index_built_) return;
  const uint32_t n = static_cast<uint32_t>(num_tuples());
  const size_t cols = num_columns_;
  const size_t cells = static_cast<size_t>(n) * cols;

  if (!codes_ready_) {
    // ---- Phase 1: hash every non-null cell (pure per tuple → parallel).
    std::vector<uint64_t> cell_hash(cells, 0);
    MaybeParallelFor(pool, n, [&](size_t tid) {
      const auto& vals = tuples_[tid].values;
      uint64_t* out = cell_hash.data() + tid * cols;
      for (size_t c = 0; c < cols; ++c) {
        if (!vals[c].is_null()) out[c] = vals[c].Hash();
      }
    });

    // ---- Phase 2: intern cells into flat code rows. Serial on purpose: the
    // first-occurrence order defines codes, so the dictionary is identical on
    // every run; the string hashing already happened in phase 1.
    dict_ = ValueDict();
    dict_.Reserve(cells / 4 + 16);
    codes_.assign(cells, kNullCode);
    for (uint32_t tid = 0; tid < n; ++tid) {
      const auto& vals = tuples_[tid].values;
      const uint64_t* h = cell_hash.data() + static_cast<size_t>(tid) * cols;
      uint32_t* out = codes_.data() + static_cast<size_t>(tid) * cols;
      for (size_t c = 0; c < cols; ++c) {
        if (!vals[c].is_null()) out[c] = dict_.InternHashed(vals[c], h[c]);
      }
    }
    value_copies_ += dict_.NumDistinct();
    codes_ready_ = true;
  }

  // ---- Phase 3: sharded posting maps over (column, code) integer keys
  // (fd/posting_shards.h). The key → list-id map is inverted into each
  // list's column before it is dropped; singleton lists are then dropped
  // too — they induce no join edges.
  std::vector<PostingShard> shard = BuildPostingShards(
      pool, n, cols,
      [this, cols](uint32_t tid) {
        return codes_.data() + static_cast<size_t>(tid) * cols;
      });
  const size_t shards = shard.size();
  std::vector<std::vector<uint32_t>> shard_columns(shards);
  MaybeParallelFor(pool, shards, [&](size_t s) {
    auto& lists = shard[s].lists;
    auto& columns = shard_columns[s];
    columns.resize(lists.size());
    for (const auto& [key, id] : shard[s].index) {
      columns[id] = static_cast<uint32_t>(key >> 32);
    }
    shard[s].index.clear();
    size_t kept = 0;
    for (size_t i = 0; i < lists.size(); ++i) {
      if (lists[i].size() < 2) continue;
      if (kept != i) {
        lists[kept] = std::move(lists[i]);
        columns[kept] = columns[i];
      }
      ++kept;
    }
    lists.resize(kept);
    columns.resize(kept);
  });

  // ---- Phase 4: CSR posting arrays + union-find component merge. Shards
  // write disjoint ranges; the parallel path merges through a lock-free
  // union-find, the serial path through an iterative union-by-rank one.
  std::vector<size_t> posting_base(shards + 1, 0);
  std::vector<size_t> entry_base(shards + 1, 0);
  for (size_t s = 0; s < shards; ++s) {
    size_t entries = 0;
    for (const auto& lst : shard[s].lists) entries += lst.size();
    posting_base[s + 1] = posting_base[s] + shard[s].lists.size();
    entry_base[s + 1] = entry_base[s] + entries;
  }
  const size_t num_postings = posting_base[shards];
  const size_t num_entries = entry_base[shards];
  posting_offsets_.assign(num_postings + 1, 0);
  posting_offsets_[num_postings] = num_entries;
  posting_tids_.assign(num_entries, 0);
  posting_columns_.assign(num_postings, 0);
  posting_cross_table_.assign(num_postings, 0);

  auto fill_shard = [&](size_t s, auto& union_find) {
    size_t p = posting_base[s];
    size_t e = entry_base[s];
    std::copy(shard_columns[s].begin(), shard_columns[s].end(),
              posting_columns_.begin() + p);
    for (const auto& lst : shard[s].lists) {
      const uint32_t first_table = table_ids_[lst[0]];
      bool cross_table = false;
      posting_offsets_[p] = e;
      for (size_t i = 0; i < lst.size(); ++i) {
        posting_tids_[e++] = lst[i];
        cross_table |= table_ids_[lst[i]] != first_table;
        if (i > 0) union_find.Union(lst[0], lst[i]);
      }
      posting_cross_table_[p++] = cross_table ? 1 : 0;
    }
  };
  std::vector<uint32_t> root(n);
  if (pool != nullptr && shards > 1) {
    AtomicUnionFind uf(n);
    pool->ParallelFor(shards, [&](size_t s) { fill_shard(s, uf); });
    for (uint32_t i = 0; i < n; ++i) root[i] = uf.Find(i);
  } else {
    UnionFind uf(n);
    for (size_t s = 0; s < shards; ++s) fill_shard(s, uf);
    for (uint32_t i = 0; i < n; ++i) root[i] = uf.Find(i);
  }
  shard.clear();
  shard_columns.clear();

  // ---- Phase 5: tuple → posting-list CSR (counting sort over the flat
  // posting entries; deterministic and O(entries)). Postings are visited in
  // ascending column order (a counting sort of posting ids by column), so
  // every tuple's list comes out sorted by column.
  tuple_offsets_.assign(n + 1, 0);
  for (size_t e = 0; e < num_entries; ++e) {
    ++tuple_offsets_[posting_tids_[e] + 1];
  }
  for (size_t i = 0; i < n; ++i) tuple_offsets_[i + 1] += tuple_offsets_[i];
  std::vector<uint32_t> column_start(cols + 1, 0);
  for (uint32_t c : posting_columns_) ++column_start[c + 1];
  for (size_t c = 0; c < cols; ++c) column_start[c + 1] += column_start[c];
  std::vector<uint32_t> by_column(num_postings);
  for (size_t p = 0; p < num_postings; ++p) {
    by_column[column_start[posting_columns_[p]]++] = static_cast<uint32_t>(p);
  }
  tuple_postings_.assign(num_entries, 0);
  std::vector<uint64_t> cursor(tuple_offsets_.begin(),
                               tuple_offsets_.end() - 1);
  for (uint32_t p : by_column) {
    for (uint64_t e = posting_offsets_[p]; e < posting_offsets_[p + 1]; ++e) {
      tuple_postings_[cursor[posting_tids_[e]]++] = p;
    }
  }

  // ---- Phase 5b: column → null-TID CSR, TIDs ascending per column.
  null_offsets_.assign(cols + 1, 0);
  for (uint32_t tid = 0; tid < n; ++tid) {
    const uint32_t* row = codes_.data() + static_cast<size_t>(tid) * cols;
    for (size_t c = 0; c < cols; ++c) {
      if (row[c] == kNullCode) ++null_offsets_[c + 1];
    }
  }
  for (size_t c = 0; c < cols; ++c) null_offsets_[c + 1] += null_offsets_[c];
  null_tids_.assign(null_offsets_[cols], 0);
  cursor.assign(null_offsets_.begin(), null_offsets_.end() - 1);
  for (uint32_t tid = 0; tid < n; ++tid) {
    const uint32_t* row = codes_.data() + static_cast<size_t>(tid) * cols;
    for (size_t c = 0; c < cols; ++c) {
      if (row[c] == kNullCode) null_tids_[cursor[c]++] = tid;
    }
  }

  // ---- Phase 6: components, grouped by union-find root. Iterating TIDs in
  // order makes every component sorted and the component list ordered by
  // smallest member, independent of shard count or thread schedule.
  components_.clear();
  std::vector<uint32_t> comp_of_root(n, UINT32_MAX);
  for (uint32_t tid = 0; tid < n; ++tid) {
    uint32_t& slot = comp_of_root[root[tid]];
    if (slot == UINT32_MAX) {
      slot = static_cast<uint32_t>(components_.size());
      components_.emplace_back();
    }
    components_[slot].push_back(tid);
  }

  if (external_dict_ == nullptr) {
    index_stats_.distinct_values = dict_.NumDistinct();
  } else {
    // Session dictionary: its size covers the whole session, not this
    // problem. Count the codes actually present so the stat keeps
    // describing the problem it is attached to.
    std::vector<char> seen(external_dict_->NumDistinct() + 1, 0);
    size_t distinct = 0;
    for (uint32_t code : codes_) {
      if (code == kNullCode || seen[code]) continue;
      seen[code] = 1;
      ++distinct;
    }
    index_stats_.distinct_values = distinct;
  }
  index_stats_.posting_lists = num_postings;
  index_stats_.posting_entries = num_entries;
  index_stats_.value_copies = value_copies_;
  index_built_ = true;
}

}  // namespace lakefuzz
