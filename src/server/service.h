// QueryService: the paper's compile-once/evaluate-many split as a
// long-lived service (DESIGN.md section 10).
//
// The service owns nothing but caches: the Database is the caller's, and
// no request writes to it. Each evaluation reads the shared relations
// through a private overlay — the attempt's own, or the one a compiled
// schema or a cached closure owns — so one program's derived tuples never
// leak into another's evaluation. What a request pays for is therefore
// parse + detection + plan compilation + phase 1 + phase 2; the three
// cache layers peel those costs off front to back:
//
//   processor cache   program-text fingerprint -> parsed + analysed
//                     QueryProcessor (detection runs once per program)
//   prepared cache    (program, predicate, bound-position set, strategy)
//                     -> PreparedQuery with the compiled Figure-2 schema
//                     (rectification + plan compilation run once per
//                     selection shape)
//   closure cache     the prepared key + the selection constants + the
//                     database generation -> the phase-1 closure (a
//                     repeated selection skips straight to phase 2)
//
// Invalidation is by generation: every real EDB mutation bumps
// Database::generation(), which is part of the closure key, so stale
// closures simply stop matching (and are swept). Processor and prepared
// entries are database-INDEPENDENT by the paper's argument — detection and
// schema instantiation never look at the data — so they survive mutations.
//
// Thread model: Execute may be called from any number of session threads
// concurrently. Parsing and cache probes run concurrently (cache_mu_,
// reader/writer); evaluation, schema compilation, and Load serialise on
// db_mu_ (the storage layer has one-mutator/many-reader semantics); answer
// rendering runs after db_mu_ is released (SymbolTable has its own
// reader/writer guard). Cached plans and closures may be released on any
// thread without db_mu_: their relations live in their own overlays and
// never in the shared catalog. Per-request ExecutionLimits build a private
// governor per request, so one request tripping its budget cannot degrade
// another.
#ifndef SEPREC_SERVER_SERVICE_H_
#define SEPREC_SERVER_SERVICE_H_

#include <cstdint>
#include <iosfwd>
#include <map>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <string_view>
#include <vector>

#include "core/compiler.h"
#include "eval/trace.h"
#include "storage/database.h"
#include "storage/io.h"
#include "storage/recovery.h"
#include "util/status.h"

namespace seprec {

struct ServiceOptions {
  // Cache capacities (entries, LRU-evicted). Zero disables the layer.
  size_t max_processors = 32;
  size_t max_prepared = 64;
  size_t max_closures = 256;

  // Baked into every compiled plan at Prepare time; per-request limits
  // cannot change it (they CAN still set budgets/deadlines).
  ParallelPolicy parallel;

  // Limits applied when a request carries none (Unlimited() by default).
  ExecutionLimits default_limits;

  // Optional sink observing every request: cache events, session events,
  // and the engines' own evaluation events. Must outlive the service.
  TraceSink* trace = nullptr;

  // Optional durability layer (borrowed, must outlive the service). When
  // set, LoadTsv appends each parsed batch to the WAL BEFORE applying it
  // (write-ahead: an acknowledged load is durable), and a load that grows
  // the WAL past its threshold triggers an automatic checkpoint.
  DurableStorage* storage = nullptr;

  // Largest mutation batch the incremental closure-maintenance path will
  // patch through DRed / semi-naive deltas. Past this, the update falls
  // back to wholesale closure invalidation: overdeletion can provisionally
  // touch far more tuples than it ends up deleting, and for a large-enough
  // delta a fresh phase-1 run is cheaper than patching. Zero disables
  // incremental maintenance entirely (every effective mutation purges).
  size_t max_incremental_delta = 4096;
};

// One query request: a program, one query atom (text), and per-request
// execution limits.
struct ServiceRequest {
  std::string program;            // full Datalog source text
  std::string query;              // query atom, e.g. "t(1, X)"; empty =>
                                  // run every ?- query in the program
  Strategy strategy = Strategy::kAuto;
  ExecutionLimits limits;         // per-request governor bounds
  bool use_cache = true;          // false bypasses prepared+closure caches
                                  // (control runs, benches)
  bool optimize = true;           // false skips the static-analysis pass
                                  // pipeline at Prepare time (ablation /
                                  // bit-identity control runs); optimized
                                  // and unoptimized plans cache separately
};

// The outcome of one query of a request.
struct QueryOutcome {
  std::string query_text;         // the query as parsed
  QueryResult result;             // answer (raw Values), stats, strategy...
  std::vector<std::string> tuples;  // rendered "(a, b)" rows, sorted
  bool plan_cache_hit = false;    // prepared entry served (no re-compile)
  bool closure_cache_hit = false; // phase 1 skipped from a cached closure
  bool closure_stored = false;    // this run's closure entered the cache
  uint64_t detection_passes = 0;  // AnalyzeSeparable runs this query cost
  uint64_t generation = 0;        // database generation it ran against
  double seconds = 0.0;           // wall time inside the service
  std::string pass_summary;       // per-pass verdicts of the plan's pipeline
                                  // run ("dead-rules=proved,..."), empty
                                  // when the pipeline did not run
};

// Aggregate cache counters; monotonic over the service's lifetime except
// the entry counts and generation, which are current values.
struct ServiceStats {
  uint64_t requests = 0;
  uint64_t processor_hits = 0;
  uint64_t processor_misses = 0;
  uint64_t plan_hits = 0;
  uint64_t plan_misses = 0;
  uint64_t closure_hits = 0;
  uint64_t closure_misses = 0;
  uint64_t closure_stores = 0;
  uint64_t closure_patches = 0;  // entries kept exact through an EDB
                                 // mutation by incremental maintenance
  uint64_t closure_drops = 0;    // entries invalidated by a mutation
                                 // (non-maintainable or fallback purge)
  size_t processors = 0;  // current entry count
  size_t plans = 0;       // current entry count
  size_t closures = 0;    // current entry count
  uint64_t generation = 0;
};

class QueryService {
 public:
  // `db` is borrowed and must outlive the service. The service is the
  // database's single mutation path while it lives (callers must not write
  // to `db` concurrently with Execute/Load).
  explicit QueryService(Database* db, ServiceOptions options = {});
  ~QueryService();
  QueryService(const QueryService&) = delete;
  QueryService& operator=(const QueryService&) = delete;

  // Executes every query of `request` (the one in request.query, or every
  // ?- query in the program text). Parse and analysis errors fail the
  // whole request; per-query evaluation errors fail with the first
  // erroring query's status. Thread-safe.
  StatusOr<std::vector<QueryOutcome>> Execute(const ServiceRequest& request);

  // Loads TSV tuples into `relation` (created on demand). Returns the
  // number of NEW tuples. Thread-safe (serialises with Execute).
  // Equivalent to ApplyTsv with BatchOp::kInsert.
  StatusOr<size_t> LoadTsv(std::string_view relation, std::istream& in);
  StatusOr<size_t> LoadTsvFile(std::string_view relation,
                               const std::string& path);

  // Parses TSV tuples and applies them as `op`: kInsert appends (LoadTsv),
  // kDelete erases matching rows. Returns the number of rows that actually
  // changed the relation. Thread-safe (serialises with Execute).
  StatusOr<size_t> ApplyTsv(std::string_view relation, BatchOp op,
                            std::istream& in);
  StatusOr<size_t> ApplyTsvFile(std::string_view relation, BatchOp op,
                                const std::string& path);

  // Applies an already-built mutation batch (the row-level entry point the
  // server's insert/delete load modes use). The whole batch is validated,
  // WAL-logged (when durability is attached), then applied; cached phase-1
  // closures are PATCHED in place where their selection shape admits
  // incremental maintenance (see ClosureMaintainability) and invalidated
  // otherwise. A no-op batch (all duplicates / all misses) leaves the
  // generation and every cached closure untouched. Returns the number of
  // rows that actually changed the relation.
  StatusOr<size_t> Apply(const TupleBatch& batch);

  // Snapshots the database and retires the WAL through the attached
  // DurableStorage; FAILED_PRECONDITION when the service has none.
  // Thread-safe (serialises with Execute/LoadTsv).
  StatusOr<CheckpointInfo> Checkpoint();

  ServiceStats stats() const;

  // Drops every closure entry (bench hook: isolates plan-cache-hit cost
  // from closure-cache-hit cost).
  void PurgeClosures();
  // Drops every cached artifact (processors, prepared plans, closures).
  void PurgeAll();

  Database* db() { return db_; }
  TraceSink* trace() const { return options_.trace; }

 private:
  struct ProcessorEntry;
  struct PlanEntry;
  struct ClosureEntry;

  // Returns the cached (or freshly parsed + analysed) processor for
  // `program_text`, setting *was_cached; a hit refreshes the LRU tick and
  // the hit/miss counters so callers need no second racy probe.
  StatusOr<std::shared_ptr<ProcessorEntry>> GetProcessor(
      std::string_view program_text, bool* was_cached);
  void TraceCache(std::string_view cache, std::string_view what,
                  std::string_view key);
  // Checkpoint body; caller holds db_mu_.
  StatusOr<CheckpointInfo> CheckpointLocked();
  // Apply body; caller holds db_mu_. WAL-logs, applies, and patches or
  // invalidates the cached closures.
  StatusOr<size_t> ApplyLocked(const TupleBatch& batch);
  // Classifies the freshly captured closure `entry` for incremental
  // maintenance and, when maintainable, builds its DRed engine and
  // fast-initialises the maintained relations from the captured rows.
  // Caller holds db_mu_.
  void AttachMaintenance(const PreparedQuery& prepared, const Atom& query,
                         ClosureEntry* entry);

  Database* db_;
  ServiceOptions options_;

  // Serialises evaluation, schema compilation, and loads (the storage
  // layer's single-mutator model, and the cached plans and closures that
  // are driven against it). NOT held while rendering answers.
  std::mutex db_mu_;

  // Guards the three cache maps and the stats counters.
  mutable std::shared_mutex cache_mu_;
  std::map<uint64_t, std::shared_ptr<ProcessorEntry>> processors_;
  std::map<std::string, std::shared_ptr<PlanEntry>> plans_;
  std::map<std::string, std::shared_ptr<ClosureEntry>> closures_;
  uint64_t lru_tick_ = 0;
  ServiceStats stats_;
};

}  // namespace seprec

#endif  // SEPREC_SERVER_SERVICE_H_
