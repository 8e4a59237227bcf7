// Database: the catalog of named relations plus the shared symbol table.
//
// A database is either a root or an overlay. A root owns everything its
// relations share: the symbol table, the byte accountant, the insert
// counters, the data generation and the planner statistics. An overlay
// (Database(base)) is a private relation map over a base database: reads
// fall through to the base, writes land in relations the overlay owns,
// and destroying it discards them. Evaluations that must not change the
// caller's data — every governed query attempt, a compiled schema's
// scratch, a cached closure's maintenance state — run inside one, so
// isolation holds by construction rather than by undoing writes.
#ifndef SEPREC_STORAGE_DATABASE_H_
#define SEPREC_STORAGE_DATABASE_H_

#include <atomic>
#include <cstdint>
#include <initializer_list>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "storage/relation.h"
#include "storage/symbol_table.h"
#include "util/status.h"

namespace seprec {

class StatsCatalog;

class Database {
 public:
  // A root database. Out-of-line: the shared state holds a
  // forward-declared type, so the compiler needs the .cc's complete view
  // to generate construction/destruction.
  Database();
  // An overlay over `base`, which must outlive it. symbols(),
  // accountant(), counters(), stats() and generation() are the root's, so
  // budgets and statistics behave exactly as if the overlay's relations
  // lived in the root. Destroying the overlay forgets its relations in
  // the shared statistics catalog, as Drop does.
  explicit Database(Database* base);
  ~Database();
  Database(const Database&) = delete;
  Database& operator=(const Database&) = delete;

  SymbolTable& symbols() { return shared_->symbols; }
  const SymbolTable& symbols() const { return shared_->symbols; }

  // Creates relation `name` with the given arity, or returns the existing
  // local one (whose arity must match; mismatch is an error). An overlay
  // always creates locally: when its base already holds `name`, the base
  // rows are copied up first, because a program may derive into a stored
  // relation.
  StatusOr<Relation*> CreateRelation(std::string_view name, size_t arity);

  // Returns the relation or nullptr. An overlay checks its own relations,
  // then its base's.
  Relation* Find(std::string_view name);
  const Relation* Find(std::string_view name) const;

  // The relation a rule body reads as `name`: Find's result, else a new
  // empty relation created in the ROOT database — an EDB predicate with
  // no rows yet, so a plan bound now still sees later loads. The arity
  // must match.
  StatusOr<Relation*> Bind(std::string_view name, size_t arity);

  // Overlay only: empties every local relation. With `reload`, a relation
  // that shadows a base relation is refilled with the base's current rows
  // — the state CreateRelation leaves it in.
  void ClearLocal(bool reload);

  // Overlay only: moves every local relation not named '$...' into the
  // base. A relation the base already holds receives the local rows
  // instead (its copied-up prefix dedups away), so Relation pointers into
  // the base stay valid. Does not bump the generation: derived tuples are
  // not stored data.
  void CommitToBase();

  // Convenience: ensures the relation exists and inserts a row of symbol
  // constants, interning them. Example: AddFact("edge", {"a", "b"}).
  Status AddFact(std::string_view relation,
                 std::initializer_list<std::string_view> symbols);
  Status AddFact(std::string_view relation,
                 const std::vector<std::string>& symbols);

  // Removes a local relation if present (used to drop $-prefixed scratch
  // relations created during evaluation). Any Relation*/Index references
  // become invalid. Dropping a non-scratch relation bumps the data
  // generation unless `bump_generation` is false (callers discarding
  // derived relations they created themselves).
  void Drop(std::string_view name, bool bump_generation = true);

  // Names of all relations, sorted (stable output for tests / tools). An
  // overlay lists only its local relations.
  std::vector<std::string> RelationNames() const;

  // Total number of stored tuples across all (local) relations.
  size_t TotalTuples() const;

  // The shared byte accountant every relation of this database charges.
  // The execution governor reads it to enforce max_bytes limits.
  MemoryAccountant& accountant() { return shared_->accountant; }
  const MemoryAccountant& accountant() const { return shared_->accountant; }

  // Shared insert counters every relation of this database feeds; the
  // trace layer snapshots them around engine runs.
  StorageCounters& counters() { return shared_->counters; }
  const StorageCounters& counters() const { return shared_->counters; }

  // Data generation: a counter bumped by every EDB mutation (AddFact, the
  // TSV/snapshot loaders, incremental updates, dropping a non-scratch
  // relation). Caches of evaluation artifacts derived from the stored data
  // — notably the query service's phase-1 closure cache — key their entries
  // by this value, so a mutation invalidates them without bookkeeping.
  // Evaluation-internal writes deliberately do NOT bump it: engines append
  // derived tuples and drop '$'-prefixed scratch constantly, and governed
  // queries write only into overlays, so none of those change what a
  // cached artifact was computed from.
  uint64_t generation() const {
    return shared_->generation.load(std::memory_order_acquire);
  }
  void BumpGeneration() {
    shared_->generation.fetch_add(1, std::memory_order_acq_rel);
  }
  // Recovery only: re-seats the counter at the value the manifest recorded
  // for the snapshot, so replaying the WAL's per-batch bumps reproduces the
  // exact pre-crash generation (closure-cache keys embed it — a restarted
  // server must not alias a stale cache line onto different data).
  void SetGeneration(uint64_t g) {
    shared_->generation.store(g, std::memory_order_release);
  }

  // Per-relation statistics for the cost-based planner (entries refresh
  // themselves when a relation's extent changes and are dropped when its
  // relation is dropped). Thread-safe.
  StatsCatalog& stats();

 private:
  // What a root owns and its overlays share.
  struct Shared {
    SymbolTable symbols;
    MemoryAccountant accountant;
    StorageCounters counters;
    std::atomic<uint64_t> generation{0};
    // unique_ptr: keeps storage/ headers free of a plan/ include; the
    // catalog holds no Relation references across calls, only cache
    // entries keyed by pointer that Drop() and overlay destruction
    // explicitly forget. Built with the root and never reseated, so
    // overlays may be destroyed on any thread.
    std::unique_ptr<StatsCatalog> stats;
  };

  Database* base_ = nullptr;  // null for a root
  // A root's shared state. Declared before relations_ so it outlives them
  // during destruction (relations release their footprint from their
  // destructor).
  std::unique_ptr<Shared> owned_;
  Shared* shared_;  // owned_, or the root's
  std::unordered_map<std::string, std::unique_ptr<Relation>> relations_;
};

}  // namespace seprec

#endif  // SEPREC_STORAGE_DATABASE_H_
