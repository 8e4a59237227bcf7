// Relation: an in-memory set of fixed-arity tuples with hash indexes.
//
// Storage is row-major and append-mostly; duplicate rows are rejected on
// insert. Deletion (used by DRed incremental maintenance) tombstones the
// slot: `size()` reports LIVE rows while slots()/IsLive() expose the
// underlying slot space; iteration uses ForEachRow / explicit slot loops
// with IsLive checks. For relations that are never erased, slots() ==
// size() and row(i) enumerates exactly the live rows in insertion order.
// Secondary hash indexes on arbitrary column subsets are built lazily and
// maintained incrementally, which is what the fixpoint engines need: they
// interleave index lookups with inserts every iteration.
//
// Thread model: mutation (Insert/Clear/EraseRows) is
// single-threaded, but concurrent READ access — including the lazy index
// build in GetIndex, which is serialised by an internal mutex — is safe
// while no mutator runs. The parallel evaluation paths rely on exactly
// this split: pool workers share read-only relations for the duration of
// a fixpoint round and stage their output through a ShardedSink; the
// driving thread is the only mutator, between rounds.
#ifndef SEPREC_STORAGE_RELATION_H_
#define SEPREC_STORAGE_RELATION_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "storage/symbol_table.h"
#include "storage/value.h"
#include "util/hash.h"
#include "util/logging.h"

namespace seprec {

using Row = std::span<const Value>;
// Column positions, 0-based, in probe order (not necessarily sorted).
using ColumnList = std::vector<uint32_t>;

class Relation;
class RelationSegment;

// Byte-level accounting of relation storage. A Database shares one
// accountant across all of its relations (and the engines attach it to
// their scratch relations), so the execution governor can enforce
// ExecutionLimits::max_bytes by reading one running total. Charges are
// approximate — Value payload plus a flat per-row overhead standing in for
// the dedup-set and index entries — the goal being a cheap measure that
// moves with real allocation, not malloc-accurate bytes. The running total
// is a relaxed atomic so pool workers can charge their staged rows and the
// governor can read one number from any thread; charges are only ever
// counted for NOVEL rows (dedup rejects never charge — see
// Relation::Insert and ShardedSink::Insert), so duplicate derivations
// cannot inflate the byte budget.
class MemoryAccountant {
 public:
  // Flat per-row overhead charged on top of the Value payload.
  static constexpr size_t kRowOverheadBytes = 48;

  // Adds `bytes` to the running total. Carries the "governor.charge"
  // failpoint, which injects a simulated allocation spike so tests can
  // trip the byte budget deterministically.
  void Charge(size_t bytes);

  // Subtracts `bytes`, clamping at zero rather than wrapping.
  void Release(size_t bytes);

  size_t bytes() const { return bytes_.load(std::memory_order_relaxed); }

 private:
  std::atomic<size_t> bytes_{0};
};

// Running insert counters shared across a database's relations, read by
// the trace layer (engine_finish events report the delta over an engine
// run). `attempts` counts Relation::Insert calls, `novel` the ones that
// stored a new row; the gap is duplicate derivations rejected by dedup.
// Relaxed atomics: pool workers never insert into counted relations
// directly (they stage through ShardedSink), but the governor's observers
// may read from other threads.
//
// Counting costs two atomic adds per insert, so it stays off until an
// engine attaches a trace sink (the counters' only consumer). `active` is
// flipped on the driver thread before any worker is handed tasks; workers
// only read it, so plain bool is safe.
struct StorageCounters {
  std::atomic<uint64_t> attempts{0};
  std::atomic<uint64_t> novel{0};
  bool active = false;
};

// Hash index over a subset of a relation's columns. Owned by the relation;
// kept up to date as rows are inserted.
class Index {
 public:
  Index(const Relation* relation, ColumnList columns);

  // Invokes fn(row_id) for every row whose `columns` equal `key` (same
  // order). `key.size()` must equal the column count.
  template <typename Fn>
  void ForEach(Row key, Fn&& fn) const;

  // Number of rows matching `key`.
  size_t CountMatches(Row key) const;

  const ColumnList& columns() const { return columns_; }

 private:
  friend class Relation;

  // Adds `row_id` (must reference an existing row of the parent relation).
  void Add(uint32_t row_id);

  uint64_t KeyHashOfRow(uint32_t row_id) const;
  bool RowMatchesKey(uint32_t row_id, Row key) const;

  const Relation* relation_;
  ColumnList columns_;
  std::unordered_multimap<uint64_t, uint32_t> buckets_;
};

class Relation {
 public:
  Relation(std::string name, size_t arity);
  ~Relation();
  Relation(const Relation&) = delete;
  Relation& operator=(const Relation&) = delete;

  // Attaches (or, with nullptr, detaches) a memory accountant. The current
  // footprint transfers: released from the old accountant, charged to the
  // new one. The accountant must outlive the relation (Database guarantees
  // this by declaring its accountant before the relation map).
  void SetAccountant(MemoryAccountant* accountant);

  // Attaches (or detaches) shared insert counters; unlike the accountant
  // there is no footprint to transfer, only future inserts are counted.
  // The counters must outlive the relation.
  void SetCounters(StorageCounters* counters) { counters_ = counters; }

  const std::string& name() const { return name_; }
  size_t arity() const { return arity_; }
  // Number of LIVE rows.
  size_t size() const { return num_rows_; }
  bool empty() const { return num_rows_ == 0; }
  // Number of storage slots (live + tombstoned). Equal to size() unless
  // EraseRows was used.
  size_t slots() const { return num_slots_; }
  // Counts content mutations that can alias a (size, slots) fingerprint:
  // erases and non-empty Clears. StatsCatalog folds it into its entry
  // fingerprint so an erase/clear followed by inserts restoring the same
  // extent cannot serve stale per-column statistics.
  uint64_t mutation_epoch() const { return mutation_epoch_; }
  bool IsLive(size_t slot) const {
    SEPREC_DCHECK(slot < num_slots_);
    return !dead_[slot];
  }

  // Inserts `row` (length must equal arity). Returns true if the row was new.
  bool Insert(Row row);
  bool Insert(std::initializer_list<Value> row) {
    return Insert(Row(row.begin(), row.size()));
  }

  bool Contains(Row row) const;

  // Slot access; callers iterating [0, slots()) must skip dead slots (see
  // ForEachRow). With a base segment attached, slots [0, base_slots())
  // resolve into the segment (decoding its page on first touch) and the
  // delta rows occupy slots from base_slots() up.
  Row row(size_t slot) const {
    SEPREC_DCHECK(slot < num_slots_);
    if (slot >= base_slots_) {
      return Row(data_.data() + (slot - base_slots_) * arity_, arity_);
    }
    return BaseRow(slot);
  }

  // Invokes fn(Row) for every live row, in insertion order.
  template <typename Fn>
  void ForEachRow(Fn&& fn) const {
    for (size_t slot = 0; slot < num_slots_; ++slot) {
      if (!dead_[slot]) fn(row(slot));
    }
  }

  // Returns an index on `columns`, building it on first request. The result
  // stays valid (and current) for the relation's lifetime. Safe to call
  // from concurrent readers: the lazy build is serialised by an internal
  // mutex (pool workers probing the same relation may race to be first).
  const Index& GetIndex(const ColumnList& columns) const;

  // Removes all rows (indexes are dropped too).
  void Clear();

  // Inserts every row of `other` (arities must match). Returns the number of
  // new rows.
  size_t InsertAll(const Relation& other);

  // Removes every row that appears in `to_remove` (arities must match) by
  // tombstoning its slot — O(|to_remove|) with an index probe per row.
  // Slot ids remain stable; indexes skip dead slots. Returns the number
  // of rows removed.
  size_t EraseRows(const Relation& to_remove);

  // Seats an immutable, mmap-backed segment as this relation's base
  // extent. The relation must be empty (slots() == 0) and of matching
  // non-zero arity. Base rows occupy slots [0, base->rows()) in the
  // segment's canonical sorted order; later Inserts land in an in-memory
  // delta layer above them, and EraseRows tombstones base slots like any
  // other. The base is deliberately NOT charged to the accountant: its
  // bytes are file-backed page cache, not query heap, so only the delta
  // counts against ExecutionLimits::max_bytes. Bumps mutation_epoch_.
  void AttachBaseSegment(std::shared_ptr<const RelationSegment> base);

  // The attached base segment, or nullptr. Shared so compaction can hand
  // the same segment to diagnostics while the relation still serves it.
  const std::shared_ptr<const RelationSegment>& base_segment() const {
    return base_;
  }
  // Number of slots served by the base segment (0 without one).
  size_t base_slots() const { return base_slots_; }
  // Tombstoned base slots — compaction triggers when this is non-zero.
  size_t base_dead() const { return base_dead_; }
  // Live rows held by the in-memory delta layer (all rows without a base).
  size_t delta_rows() const {
    return num_rows_ - (base_slots_ - base_dead_);
  }

  // Invokes fn(Row) for every live row in canonical (raw Value bits,
  // lexicographic) order — the order segments are stored in and ShardedSink
  // merges in. Single-threaded with respect to mutators, like ForEachRow.
  template <typename Fn>
  void ForEachRowOrdered(Fn&& fn) const;

  // One line per row, rows sorted, for tests and diagnostics.
  std::string DebugString(const SymbolTable& symbols) const;

 private:
  friend class Index;

  // Out-of-line so this header needs only a RelationSegment declaration.
  Row BaseRow(size_t slot) const;

  struct RowIdHash {
    const Relation* rel;
    size_t operator()(uint32_t row_id) const {
      return static_cast<size_t>(HashRow(rel->row(row_id)));
    }
  };
  struct RowIdEq {
    const Relation* rel;
    bool operator()(uint32_t a, uint32_t b) const {
      Row ra = rel->row(a);
      Row rb = rel->row(b);
      for (size_t i = 0; i < ra.size(); ++i) {
        if (ra[i] != rb[i]) return false;
      }
      return true;
    }
  };

  std::string name_;
  size_t arity_;
  size_t num_rows_ = 0;   // live rows
  size_t num_slots_ = 0;  // live + tombstoned
  uint64_t mutation_epoch_ = 0;  // erases + non-empty Clears
  std::vector<Value> data_;  // row-major, num_slots_ * arity_ values
  std::vector<bool> dead_;   // per slot
  // Approximate bytes a stored row costs, for the accountant.
  size_t RowBytes() const {
    return arity_ * sizeof(Value) + MemoryAccountant::kRowOverheadBytes;
  }

  std::unordered_set<uint32_t, RowIdHash, RowIdEq> row_set_;  // live slots
  // std::map: ColumnList has operator< for free; index count is tiny.
  // Node pointers are stable, so a built Index& survives later GetIndex
  // calls inserting new entries. Guarded by index_mu_ for concurrent
  // readers; mutators run single-threaded and also take the lock for
  // uniformity.
  mutable std::map<ColumnList, std::unique_ptr<Index>> indexes_;
  mutable std::mutex index_mu_;
  MemoryAccountant* accountant_ = nullptr;  // not owned; may be null
  StorageCounters* counters_ = nullptr;     // not owned; may be null

  // Mmap-backed base extent (see AttachBaseSegment); null for relations
  // living entirely on the heap.
  std::shared_ptr<const RelationSegment> base_;
  size_t base_slots_ = 0;  // rows served by base_, == base_->rows()
  size_t base_dead_ = 0;   // tombstoned base slots
};

// Merged in-order iteration over a relation's base segment and delta
// layer: yields live rows in canonical raw-bits order, the foundation of
// ordered range scans and the merge-join operator. Construction sorts the
// live delta slots (cheap — the delta is small between compactions); the
// base side streams straight out of the segment. Valid only while no
// mutator runs, like every other reader.
class OrderedCursor {
 public:
  explicit OrderedCursor(const Relation* rel);

  bool AtEnd() const { return at_end_; }
  Row Current() const {
    SEPREC_DCHECK(!at_end_);
    return rel_->row(on_base_ ? static_cast<size_t>(base_idx_)
                              : delta_[delta_idx_]);
  }
  void Next();

  // Positions the cursor at the first live row whose key.size() leading
  // columns are >= `key` under raw-bits order (AtEnd when none is).
  void SeekGE(Row key);

 private:
  void Settle();

  const Relation* rel_;
  uint64_t base_idx_ = 0;  // next base slot to consider
  std::vector<uint32_t> delta_;  // live delta slots, canonical order
  size_t delta_idx_ = 0;
  bool on_base_ = false;
  bool at_end_ = false;
};

template <typename Fn>
void Relation::ForEachRowOrdered(Fn&& fn) const {
  for (OrderedCursor c(this); !c.AtEnd(); c.Next()) fn(c.Current());
}

// ShardedSink: the concurrent-insert staging area the parallel engines
// emit into. Rows are deduplicated into S shards, each an independent
// (mutex, hash set, row buffer) triple selected by row hash, so workers
// contend only when they derive rows landing in the same shard —
// "per-relation shard lock" granularity rather than one big lock.
//
// Drain(MergeInto) runs on the driving thread between rounds. It merges
// the staged rows in CANONICAL order — sorted lexicographically by Value
// bits — which is the determinism keystone of the parallel evaluator:
// however rows were distributed over workers and shards, the target
// relation receives them in one thread-count-independent order, so a
// --threads 8 run is bit-identical (same slots, same iteration counts) to
// a --threads 1 run that merges through the same sink.
class ShardedSink {
 public:
  static constexpr size_t kDefaultShards = 16;

  explicit ShardedSink(size_t arity, size_t num_shards = kDefaultShards);

  // Attach an accountant so staged rows count against the byte budget
  // while they sit in the sink (MergeInto releases the staging charge;
  // the target relation re-charges what it keeps).
  void SetAccountant(MemoryAccountant* accountant);

  size_t arity() const { return arity_; }

  // Stages `row` unless this sink already holds it. Returns true when the
  // row was new to the sink. Thread-safe.
  bool Insert(Row row);

  // Rows staged so far (exact only while no Insert runs concurrently).
  size_t size() const;

  // Moves every staged row into `out` (and, for the rows genuinely new in
  // `out`, into `delta` when non-null) in canonical sorted order, then
  // clears the sink. Returns the number of rows new in `out`; when
  // `staged` is non-null it receives the number of rows the sink held
  // (post worker-side dedup, pre merge dedup — the trace layer's merge
  // statistic). Driving thread only.
  size_t MergeInto(Relation* out, Relation* delta = nullptr,
                   size_t* staged = nullptr);

  // Discards staged rows (releasing their accountant charge).
  void Clear();

 private:
  // One shard: a row buffer plus a dedupe set of row ids hashing into the
  // buffer (the same slot-id scheme Relation uses, minus tombstones).
  // Non-movable because the set's functors capture `this`.
  struct Shard {
    explicit Shard(const size_t* arity)
        : arity(arity), rows(16, RowHash{this}, RowEq{this}) {}
    Shard(const Shard&) = delete;
    Shard& operator=(const Shard&) = delete;

    Row row(uint32_t id) const {
      return Row(data.data() + size_t{id} * *arity, *arity);
    }

    struct RowHash {
      const Shard* shard;
      size_t operator()(uint32_t id) const {
        return static_cast<size_t>(HashRow(shard->row(id)));
      }
    };
    struct RowEq {
      const Shard* shard;
      bool operator()(uint32_t a, uint32_t b) const {
        Row ra = shard->row(a);
        Row rb = shard->row(b);
        for (size_t i = 0; i < ra.size(); ++i) {
          if (ra[i] != rb[i]) return false;
        }
        return true;
      }
    };

    const size_t* arity;
    std::mutex mu;
    std::vector<Value> data;  // staged rows, arity Values each
    std::unordered_set<uint32_t, RowHash, RowEq> rows;
  };

  size_t RowBytes() const {
    return arity_ * sizeof(Value) + MemoryAccountant::kRowOverheadBytes;
  }

  size_t arity_;
  std::vector<std::unique_ptr<Shard>> shards_;
  MemoryAccountant* accountant_ = nullptr;  // not owned; may be null
};

template <typename Fn>
void Index::ForEach(Row key, Fn&& fn) const {
  SEPREC_DCHECK(key.size() == columns_.size());
  auto [begin, end] = buckets_.equal_range(HashRow(key));
  for (auto it = begin; it != end; ++it) {
    if (relation_->IsLive(it->second) && RowMatchesKey(it->second, key)) {
      fn(it->second);
    }
  }
}

}  // namespace seprec

#endif  // SEPREC_STORAGE_RELATION_H_
