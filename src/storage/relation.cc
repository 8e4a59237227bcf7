#include "storage/relation.h"

#include <algorithm>

#include "storage/segment/segment.h"
#include "util/failpoint.h"

namespace seprec {

void MemoryAccountant::Charge(size_t bytes) {
  if (Failpoints::Hit("governor.charge")) {
    // Simulated allocation spike: large enough to trip any realistic
    // max_bytes limit at the next governor poll.
    bytes_.fetch_add(size_t{1} << 40, std::memory_order_relaxed);
  }
  bytes_.fetch_add(bytes, std::memory_order_relaxed);
}

void MemoryAccountant::Release(size_t bytes) {
  // CAS loop so concurrent releases clamp at zero instead of wrapping.
  size_t current = bytes_.load(std::memory_order_relaxed);
  while (!bytes_.compare_exchange_weak(
      current, current > bytes ? current - bytes : 0,
      std::memory_order_relaxed)) {
  }
}

Index::Index(const Relation* relation, ColumnList columns)
    : relation_(relation), columns_(std::move(columns)) {
  for (uint32_t c : columns_) {
    SEPREC_CHECK(c < relation_->arity());
  }
  buckets_.reserve(relation_->size());
  for (uint32_t slot = 0; slot < relation_->slots(); ++slot) {
    if (relation_->IsLive(slot)) Add(slot);
  }
}

void Index::Add(uint32_t row_id) {
  buckets_.emplace(KeyHashOfRow(row_id), row_id);
}

uint64_t Index::KeyHashOfRow(uint32_t row_id) const {
  // The indexed columns are non-contiguous, so this can't span a Row into
  // HashRow; the seed and combine step must stay identical to HashRow so
  // bucket hashes match the ForEach probe's HashRow(key).
  Row r = relation_->row(row_id);
  uint64_t h = 0xcbf29ce484222325ULL;
  for (uint32_t c : columns_) h = HashCombine(h, r[c].bits());
  return h;
}

bool Index::RowMatchesKey(uint32_t row_id, Row key) const {
  Row r = relation_->row(row_id);
  for (size_t i = 0; i < columns_.size(); ++i) {
    if (r[columns_[i]] != key[i]) return false;
  }
  return true;
}

size_t Index::CountMatches(Row key) const {
  size_t n = 0;
  ForEach(key, [&n](uint32_t) { ++n; });
  return n;
}

Relation::Relation(std::string name, size_t arity)
    : name_(std::move(name)),
      arity_(arity),
      row_set_(/*bucket_count=*/16, RowIdHash{this}, RowIdEq{this}) {}

Relation::~Relation() { SetAccountant(nullptr); }

void Relation::SetAccountant(MemoryAccountant* accountant) {
  if (accountant_ == accountant) return;
  // Only the heap-resident delta layer is accounted; base-segment rows are
  // mmap-backed file cache, outside the byte budget by design.
  const size_t delta_slots = num_slots_ - base_slots_;
  if (accountant_ != nullptr && delta_slots > 0) {
    accountant_->Release(delta_slots * RowBytes());
  }
  accountant_ = accountant;
  if (accountant_ != nullptr && delta_slots > 0) {
    accountant_->Charge(delta_slots * RowBytes());
  }
}

bool Relation::Insert(Row row) {
  SEPREC_CHECK(row.size() == arity_);
  const bool counting = counters_ != nullptr && counters_->active;
  if (counting) {
    counters_->attempts.fetch_add(1, std::memory_order_relaxed);
  }
  // Base dedup by binary search (the row-set below covers only the delta
  // layer — populating it with the whole base would decode every page).
  if (base_ != nullptr) {
    uint64_t idx = base_->Find(row.data(), row.size());
    if (idx < base_->rows() && !dead_[idx]) return false;
  }
  // Tentatively append so the row-set functors (which hash by slot) can
  // see the candidate row; roll back on duplicate.
  data_.insert(data_.end(), row.begin(), row.end());
  dead_.push_back(false);
  uint32_t slot = static_cast<uint32_t>(num_slots_);
  ++num_slots_;
  auto [it, inserted] = row_set_.insert(slot);
  (void)it;
  if (!inserted) {
    --num_slots_;
    dead_.pop_back();
    data_.resize(data_.size() - arity_);
    return false;
  }
  ++num_rows_;
  if (counting) {
    counters_->novel.fetch_add(1, std::memory_order_relaxed);
  }
  if (accountant_ != nullptr) accountant_->Charge(RowBytes());
  for (auto& [cols, index] : indexes_) {
    index->Add(slot);
  }
  return true;
}

bool Relation::Contains(Row row) const {
  SEPREC_CHECK(row.size() == arity_);
  // Same tentative-append trick, const_cast-free: use a throwaway probe via
  // the first index on all columns if rows exist, else linear check.
  // Cheapest correct approach: append+lookup+rollback on a mutable copy is
  // not possible here, so probe through an index over all columns.
  if (num_rows_ == 0) return false;
  ColumnList all(arity_);
  for (size_t i = 0; i < arity_; ++i) all[i] = static_cast<uint32_t>(i);
  if (arity_ == 0) return num_rows_ > 0;
  const Index& index = GetIndex(all);
  bool found = false;
  index.ForEach(row, [&found](uint32_t) { found = true; });
  return found;
}

const Index& Relation::GetIndex(const ColumnList& columns) const {
  // Concurrent readers may race to build the same index; the lock makes
  // one of them win and the rest wait for the finished build. Map nodes
  // are stable, so the returned reference outlives the lock.
  std::lock_guard<std::mutex> lock(index_mu_);
  auto it = indexes_.find(columns);
  if (it == indexes_.end()) {
    it = indexes_.emplace(columns, std::make_unique<Index>(this, columns))
             .first;
  }
  return *it->second;
}

void Relation::Clear() {
  const size_t delta_slots = num_slots_ - base_slots_;
  if (accountant_ != nullptr && delta_slots > 0) {
    accountant_->Release(delta_slots * RowBytes());
  }
  if (num_slots_ > 0) ++mutation_epoch_;
  data_.clear();
  dead_.clear();
  num_rows_ = 0;
  num_slots_ = 0;
  row_set_.clear();
  indexes_.clear();
  base_.reset();
  base_slots_ = 0;
  base_dead_ = 0;
}

size_t Relation::InsertAll(const Relation& other) {
  SEPREC_CHECK(other.arity() == arity_);
  size_t added = 0;
  other.ForEachRow([this, &added](Row r) {
    if (Insert(r)) ++added;
  });
  return added;
}

size_t Relation::EraseRows(const Relation& to_remove) {
  SEPREC_CHECK(to_remove.arity() == arity_);
  if (to_remove.empty() || num_rows_ == 0) return 0;
  if (arity_ == 0) {
    // At most the single empty tuple.
    if (num_rows_ == 1) {
      dead_[*row_set_.begin()] = true;
      row_set_.clear();
      num_rows_ = 0;
      ++mutation_epoch_;
      return 1;
    }
    return 0;
  }
  ColumnList all(arity_);
  for (size_t i = 0; i < arity_; ++i) all[i] = static_cast<uint32_t>(i);
  const Index& index = GetIndex(all);
  size_t removed = 0;
  to_remove.ForEachRow([&](Row r) {
    // Find the (single, live) slot holding r, if any.
    uint32_t victim = 0;
    bool found = false;
    index.ForEach(r, [&victim, &found](uint32_t slot) {
      victim = slot;
      found = true;
    });
    if (found) {
      row_set_.erase(victim);  // no-op for base slots (delta-only set)
      dead_[victim] = true;
      if (victim < base_slots_) ++base_dead_;
      --num_rows_;
      ++removed;
    }
  });
  if (removed > 0) ++mutation_epoch_;
  return removed;
}

Row Relation::BaseRow(size_t slot) const {
  return Row(base_->row(slot), arity_);
}

void Relation::AttachBaseSegment(
    std::shared_ptr<const RelationSegment> base) {
  SEPREC_CHECK(base != nullptr);
  SEPREC_CHECK(num_slots_ == 0);
  SEPREC_CHECK(arity_ > 0);
  SEPREC_CHECK(base->arity() == arity_);
  base_ = std::move(base);
  base_slots_ = static_cast<size_t>(base_->rows());
  base_dead_ = 0;
  num_slots_ = base_slots_;
  num_rows_ = base_slots_;
  dead_.assign(base_slots_, false);
  indexes_.clear();
  if (base_slots_ > 0) ++mutation_epoch_;
  // No accountant charge — see the header comment on AttachBaseSegment.
}

namespace {

// Canonical raw-bits lexicographic order over two rows of one relation.
bool RowBitsLess(Row a, Row b) {
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].bits() != b[i].bits()) return a[i].bits() < b[i].bits();
  }
  return false;
}

// a's leading key.size() columns < key, raw-bits order.
bool PrefixBitsLess(Row a, Row key) {
  for (size_t i = 0; i < key.size(); ++i) {
    if (a[i].bits() != key[i].bits()) return a[i].bits() < key[i].bits();
  }
  return false;
}

}  // namespace

OrderedCursor::OrderedCursor(const Relation* rel) : rel_(rel) {
  const size_t base = rel_->base_slots();
  delta_.reserve(rel_->slots() - base);
  for (size_t slot = base; slot < rel_->slots(); ++slot) {
    if (rel_->IsLive(slot)) delta_.push_back(static_cast<uint32_t>(slot));
  }
  std::sort(delta_.begin(), delta_.end(), [rel](uint32_t a, uint32_t b) {
    return RowBitsLess(rel->row(a), rel->row(b));
  });
  Settle();
}

void OrderedCursor::Settle() {
  const uint64_t base_rows = rel_->base_slots();
  while (base_idx_ < base_rows &&
         !rel_->IsLive(static_cast<size_t>(base_idx_))) {
    ++base_idx_;
  }
  const bool have_base = base_idx_ < base_rows;
  const bool have_delta = delta_idx_ < delta_.size();
  at_end_ = !have_base && !have_delta;
  if (at_end_) return;
  if (!have_delta) {
    on_base_ = true;
  } else if (!have_base) {
    on_base_ = false;
  } else {
    // Never equal: a live delta row never duplicates a live base row
    // (Insert checks the base first), so the comparison is strict.
    on_base_ = RowBitsLess(rel_->row(static_cast<size_t>(base_idx_)),
                           rel_->row(delta_[delta_idx_]));
  }
}

void OrderedCursor::Next() {
  SEPREC_DCHECK(!at_end_);
  if (on_base_) {
    ++base_idx_;
  } else {
    ++delta_idx_;
  }
  Settle();
}

void OrderedCursor::SeekGE(Row key) {
  const RelationSegment* seg = rel_->base_segment().get();
  base_idx_ = seg != nullptr ? seg->LowerBound(key.data(), key.size()) : 0;
  delta_idx_ = static_cast<size_t>(
      std::lower_bound(delta_.begin(), delta_.end(), key,
                       [this](uint32_t slot, Row k) {
                         return PrefixBitsLess(rel_->row(slot), k);
                       }) -
      delta_.begin());
  Settle();
}

ShardedSink::ShardedSink(size_t arity, size_t num_shards) : arity_(arity) {
  if (num_shards == 0) num_shards = 1;
  shards_.reserve(num_shards);
  for (size_t i = 0; i < num_shards; ++i) {
    shards_.push_back(std::make_unique<Shard>(&arity_));
  }
}

void ShardedSink::SetAccountant(MemoryAccountant* accountant) {
  accountant_ = accountant;
}

bool ShardedSink::Insert(Row row) {
  SEPREC_DCHECK(row.size() == arity_);
  Shard& shard = *shards_[HashRow(row) % shards_.size()];

  std::lock_guard<std::mutex> lock(shard.mu);
  // Tentative append so the set's functors can address the candidate row;
  // rolled back on duplicate (same scheme as Relation::Insert — and like
  // there, the accountant is charged only for NOVEL rows, after dedupe).
  uint32_t id = static_cast<uint32_t>(shard.rows.size());
  shard.data.insert(shard.data.end(), row.begin(), row.end());
  auto [it, inserted] = shard.rows.insert(id);
  (void)it;
  if (!inserted) {
    shard.data.resize(shard.data.size() - arity_);
    return false;
  }
  if (accountant_ != nullptr) accountant_->Charge(RowBytes());
  return true;
}

size_t ShardedSink::size() const {
  size_t total = 0;
  for (const std::unique_ptr<Shard>& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    total += shard->rows.size();
  }
  return total;
}

size_t ShardedSink::MergeInto(Relation* out, Relation* delta,
                              size_t* staged_count) {
  SEPREC_CHECK(out->arity() == arity_);
  // Collect every staged row, then sort lexicographically by Value bits:
  // the canonical merge order that makes the target's slot sequence
  // independent of how workers and shards interleaved.
  std::vector<std::vector<Value>> staged;
  size_t released = 0;
  for (std::unique_ptr<Shard>& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    const size_t rows = shard->rows.size();
    staged.reserve(staged.size() + rows);
    for (size_t r = 0; r < rows; ++r) {
      staged.emplace_back(shard->data.begin() + r * arity_,
                          shard->data.begin() + (r + 1) * arity_);
    }
    released += shard->rows.size();
    shard->data.clear();
    shard->rows.clear();
  }
  std::sort(staged.begin(), staged.end(),
            [](const std::vector<Value>& a, const std::vector<Value>& b) {
              for (size_t i = 0; i < a.size(); ++i) {
                if (a[i].bits() != b[i].bits()) {
                  return a[i].bits() < b[i].bits();
                }
              }
              return false;
            });
  size_t new_rows = 0;
  for (const std::vector<Value>& row : staged) {
    if (out->Insert(Row(row.data(), row.size()))) {
      ++new_rows;
      if (delta != nullptr) delta->Insert(Row(row.data(), row.size()));
    }
  }
  if (accountant_ != nullptr) accountant_->Release(released * RowBytes());
  if (staged_count != nullptr) *staged_count += released;
  return new_rows;
}

void ShardedSink::Clear() {
  size_t released = 0;
  for (std::unique_ptr<Shard>& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    released += shard->rows.size();
    shard->data.clear();
    shard->rows.clear();
  }
  if (accountant_ != nullptr) accountant_->Release(released * RowBytes());
}

std::string Relation::DebugString(const SymbolTable& symbols) const {
  std::vector<std::string> lines;
  lines.reserve(num_rows_);
  ForEachRow([this, &symbols, &lines](Row r) {
    std::string line = name_ + "(";
    for (size_t c = 0; c < r.size(); ++c) {
      if (c > 0) line += ", ";
      line += symbols.ToString(r[c]);
    }
    line += ")";
    lines.push_back(std::move(line));
  });
  std::sort(lines.begin(), lines.end());
  std::string out;
  for (const std::string& line : lines) {
    out += line;
    out += '\n';
  }
  return out;
}

}  // namespace seprec
