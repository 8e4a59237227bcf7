#include "server/service.h"

#include <fstream>
#include <istream>
#include <utility>

#include "core/query.h"
#include "datalog/parser.h"
#include "eval/incremental.h"
#include "separable/detection.h"
#include "separable/engine.h"
#include "storage/io.h"
#include "storage/segment/snapshot_v3.h"
#include "util/hash.h"
#include "util/string_util.h"
#include "util/timer.h"

namespace seprec {

namespace {

// FNV-1a over the raw program text: the program fingerprint. The entry
// stores the full text and compares it on every hit, so a hash collision
// costs a false miss-path, never a wrong answer.
uint64_t FingerprintText(std::string_view text) {
  uint64_t h = 0xcbf29ce484222325ULL;
  for (char c : text) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

std::string BoundMaskString(const std::vector<bool>& bound) {
  std::string s;
  s.reserve(bound.size());
  for (bool b : bound) s.push_back(b ? 'b' : 'f');
  return s;
}

// The selection constants in canonical form: every bound argument's
// spelling, position-ordered. Variable NAMES are deliberately excluded —
// t(1, X) and t(1, Y) are the same selection.
std::string ConstantsString(const Atom& query) {
  std::string s;
  for (const Term& t : query.args) {
    if (t.IsConstant()) {
      s += t.ToString();
    }
    s.push_back('|');
  }
  return s;
}

}  // namespace

struct QueryService::ProcessorEntry {
  std::string text;             // exact program source (collision check)
  QueryProcessor qp;
  std::vector<Atom> queries;    // the ?- queries of the unit
  uint64_t detections = 0;      // detection passes spent building this
  uint64_t tick = 0;            // LRU

  ProcessorEntry(std::string t, QueryProcessor p, std::vector<Atom> q)
      : text(std::move(t)), qp(std::move(p)), queries(std::move(q)) {}
};

struct QueryService::PlanEntry {
  // Keeps the processor alive while this plan exists: PreparedQuery holds
  // a raw pointer into it.
  std::shared_ptr<ProcessorEntry> owner;
  PreparedQuery prepared;
  uint64_t tick = 0;

  PlanEntry(std::shared_ptr<ProcessorEntry> o, PreparedQuery p)
      : owner(std::move(o)), prepared(std::move(p)) {}
};

struct QueryService::ClosureEntry {
  explicit ClosureEntry(Database* db) : scratch(db) {}

  Phase1Closure closure;
  uint64_t tick = 0;

  // How this entry survives EDB mutation: kConstant entries are
  // data-independent and always kept; kMaintainable entries are patched by
  // `engine`; kNone entries are swept on the first effective mutation.
  ClosureMaintainability kind = ClosureMaintainability::kNone;
  // "<plan_key>|<constants>|g" — appending the current generation yields
  // the entry's cache key, so a surviving entry is re-keyed after a
  // mutation by rebuilding the map.
  std::string base_key;
  // The closure program's relations ($dred_c, the maintained seen_1
  // extent; $dred_seed; the engine's deltas), private to this entry.
  // Declared before `engine`, whose plans bind them, so the engine is
  // destroyed first.
  Database scratch;
  std::unique_ptr<IncrementalEngine> engine;  // kMaintainable only
  std::vector<std::string> base_relations;  // what the closure reads

  bool maintainable() const { return engine != nullptr; }
  bool Reads(std::string_view relation) const {
    for (const std::string& r : base_relations) {
      if (r == relation) return true;
    }
    return false;
  }
};

QueryService::QueryService(Database* db, ServiceOptions options)
    : db_(db), options_(std::move(options)) {}

QueryService::~QueryService() = default;

void QueryService::TraceCache(std::string_view cache, std::string_view what,
                              std::string_view key) {
  if (options_.trace == nullptr) return;
  TraceEvent ev;
  ev.kind = TraceEventKind::kCache;
  ev.phase = std::string(cache);
  ev.cause = std::string(what);
  ev.detail = std::string(key);
  options_.trace->Emit(ev);
}

StatusOr<std::shared_ptr<QueryService::ProcessorEntry>>
QueryService::GetProcessor(std::string_view program_text, bool* was_cached) {
  uint64_t fp = FingerprintText(program_text);
  {
    // Unique (not shared) lock: a hit refreshes the entry's LRU tick and
    // the hit counter — without the tick bump eviction degenerates to
    // FIFO and a continuously-hot program gets evicted.
    std::unique_lock<std::shared_mutex> lock(cache_mu_);
    auto it = processors_.find(fp);
    if (it != processors_.end() && it->second->text == program_text) {
      it->second->tick = ++lru_tick_;
      ++stats_.processor_hits;
      *was_cached = true;
      return it->second;
    }
  }
  *was_cached = false;

  // Miss: parse and analyse outside every lock (pure computation).
  uint64_t detect_before = DetectionPassCount();
  SEPREC_ASSIGN_OR_RETURN(ParsedUnit unit,
                          ParseUnit(std::string(program_text)));
  SEPREC_ASSIGN_OR_RETURN(QueryProcessor qp,
                          QueryProcessor::Create(unit.program));
  auto entry = std::make_shared<ProcessorEntry>(
      std::string(program_text), std::move(qp), std::move(unit.queries));
  entry->detections = DetectionPassCount() - detect_before;

  std::unique_lock<std::shared_mutex> lock(cache_mu_);
  ++stats_.processor_misses;
  entry->tick = ++lru_tick_;
  if (options_.max_processors == 0) return entry;  // layer disabled
  while (processors_.size() >= options_.max_processors) {
    auto victim = processors_.begin();
    for (auto it = processors_.begin(); it != processors_.end(); ++it) {
      if (it->second->tick < victim->second->tick) victim = it;
    }
    // Plan entries keep their processor alive via shared_ptr; eviction
    // only stops NEW requests from finding it.
    processors_.erase(victim);
  }
  processors_[fp] = entry;
  return entry;
}

StatusOr<std::vector<QueryOutcome>> QueryService::Execute(
    const ServiceRequest& request) {
  if (options_.trace != nullptr) {
    TraceEvent ev;
    ev.kind = TraceEventKind::kSession;
    ev.cause = "request";
    ev.detail = request.query.empty() ? "(program queries)" : request.query;
    options_.trace->Emit(ev);
  }
  {
    std::unique_lock<std::shared_mutex> lock(cache_mu_);
    ++stats_.requests;
  }

  uint64_t fp = FingerprintText(request.program);
  bool processor_was_cached = false;
  SEPREC_ASSIGN_OR_RETURN(std::shared_ptr<ProcessorEntry> entry,
                          GetProcessor(request.program,
                                       &processor_was_cached));
  TraceCache("processor", processor_was_cached ? "hit" : "miss",
             StrCat("fp", fp));

  std::vector<Atom> queries;
  if (!request.query.empty()) {
    SEPREC_ASSIGN_OR_RETURN(Atom q, ParseAtom(request.query));
    queries.push_back(std::move(q));
  } else {
    queries = entry->queries;
  }
  if (queries.empty()) {
    return InvalidArgumentError(
        "request has no query: pass one explicitly or include '?- q.' "
        "lines in the program");
  }

  ExecutionLimits limits =
      request.limits.Unlimited() && request.limits.parallel.num_threads == 0
          ? options_.default_limits
          : request.limits;
  // The parallel policy is baked into compiled plans at Prepare time; a
  // request cannot change it without poisoning the shared plan cache.
  limits.parallel = options_.parallel;

  std::vector<QueryOutcome> outcomes;
  outcomes.reserve(queries.size());
  for (const Atom& query : queries) {
    WallTimer timer;
    QueryOutcome out;
    out.query_text = query.ToString();
    out.detection_passes = processor_was_cached ? 0 : entry->detections;
    processor_was_cached = true;  // later queries reuse the same entry

    // Optimized and unoptimized plans are distinct cache entries: an
    // ablation control run must not serve (or poison) the optimized plan.
    const std::string plan_key =
        StrCat("fp", fp, "|", query.predicate, "|",
               BoundMaskString(BoundPositions(query)), "|",
               StrategyToString(request.strategy),
               request.optimize ? "" : "|no-opt");

    // Plan-cache probe.
    std::shared_ptr<PlanEntry> plan;
    if (request.use_cache && options_.max_prepared > 0) {
      std::unique_lock<std::shared_mutex> lock(cache_mu_);
      auto it = plans_.find(plan_key);
      if (it != plans_.end()) {
        plan = it->second;
        plan->tick = ++lru_tick_;
        out.plan_cache_hit = true;
        ++stats_.plan_hits;
      } else {
        ++stats_.plan_misses;
      }
    }
    TraceCache("plan", out.plan_cache_hit ? "hit" : "miss", plan_key);

    Phase1Closure captured;
    bool try_capture = false;
    std::shared_ptr<ClosureEntry> reuse_entry;
    {
      std::lock_guard<std::mutex> db_lock(db_mu_);
      Status run = [&]() -> Status {
        if (plan == nullptr) {
          // Compile: the per-shape cost. Prepare binds rule plans to the
          // shared relations (creating an empty one for an EDB predicate
          // not loaded yet), so it runs under the database mutex.
          StatusOr<PreparedQuery> prepared = entry->qp.Prepare(
              query, db_, request.strategy, options_.parallel,
              /*run_pipeline=*/request.optimize);
          if (!prepared.ok()) return prepared.status();
          plan =
              std::make_shared<PlanEntry>(entry, std::move(prepared).value());
          // The pipeline runs once per prepared plan; its verdicts and the
          // recorded strategy selection trace here, at compile time, not on
          // every cache hit.
          if (options_.trace != nullptr &&
              plan->prepared.pass_report() != nullptr) {
            const PassReport& report = *plan->prepared.pass_report();
            for (const PassOutcome& po : report.outcomes) {
              TraceEvent ev;
              ev.kind = TraceEventKind::kPass;
              ev.phase = po.pass;
              ev.cause = PassVerdictToString(po.verdict);
              ev.detail = po.detail;
              options_.trace->Emit(ev);
            }
            TraceEvent ev;
            ev.kind = TraceEventKind::kPass;
            ev.phase = "strategy";
            ev.cause = std::string(StrategyToString(report.strategy));
            ev.detail = report.reason;
            options_.trace->Emit(ev);
            for (const PlanNote& pn : report.plans) {
              TraceEvent pe;
              pe.kind = TraceEventKind::kPlan;
              pe.phase = "prepare";
              pe.rule = pn.rule;
              pe.cause = pn.mode;
              pe.detail = pn.order;
              pe.algo = pn.algo;
              pe.cost = pn.cost;
              pe.est_rows = pn.est_rows;
              options_.trace->Emit(pe);
            }
          }
          if (request.use_cache && options_.max_prepared > 0) {
            std::unique_lock<std::shared_mutex> lock(cache_mu_);
            plan->tick = ++lru_tick_;
            while (plans_.size() >= options_.max_prepared) {
              auto victim = plans_.begin();
              for (auto it = plans_.begin(); it != plans_.end(); ++it) {
                if (it->second->tick < victim->second->tick) victim = it;
              }
              TraceCache("plan", "evict", victim->first);
              plans_.erase(victim);
            }
            plans_[plan_key] = plan;
          }
        }

        // Hit or miss, the cached plan remembers its pipeline verdicts —
        // the strategy-recording contract is server-visible on every reuse.
        if (plan->prepared.pass_report() != nullptr) {
          out.pass_summary = plan->prepared.pass_report()->Summary();
        }

        out.generation = db_->generation();
        // The generation is the key's LAST component so an incremental
        // apply can re-key a surviving entry by appending the new value to
        // its base_key (see ApplyLocked).
        const std::string closure_base =
            StrCat(plan_key, "|", ConstantsString(query), "|g");
        const std::string closure_key =
            StrCat(closure_base, out.generation);
        const bool closure_layer = request.use_cache &&
                                   options_.max_closures > 0 &&
                                   plan->prepared.has_compiled_schema();
        if (closure_layer) {
          std::unique_lock<std::shared_mutex> lock(cache_mu_);
          auto it = closures_.find(closure_key);
          if (it != closures_.end()) {
            reuse_entry = it->second;
            reuse_entry->tick = ++lru_tick_;
            out.closure_cache_hit = true;
            ++stats_.closure_hits;
          } else {
            ++stats_.closure_misses;
            try_capture = true;
          }
        }
        if (plan->prepared.has_compiled_schema()) {
          TraceCache("closure", out.closure_cache_hit ? "hit" : "miss",
                     closure_key);
        }

        FixpointOptions fo;
        fo.limits = limits;
        fo.trace = options_.trace;
        StatusOr<QueryResult> result = plan->prepared.Execute(
            query, db_, fo,
            reuse_entry != nullptr ? &reuse_entry->closure : nullptr,
            try_capture ? &captured : nullptr,
            /*commit=*/false);
        if (!result.ok()) return result.status();
        out.result = std::move(result).value();

        // A closure is cacheable only when it is provably the FULL phase-1
        // result: the separable strategy itself answered (no fallback), the
        // run was not truncated, and the engine actually captured (it only
        // does when the phase-1 loop drained without a governor stop).
        if (try_capture && !captured.rows.empty() && !out.result.partial &&
            out.result.strategy == Strategy::kSeparable) {
          auto centry = std::make_shared<ClosureEntry>(db_);
          centry->closure = std::move(captured);
          captured = Phase1Closure();
          centry->base_key = closure_base;
          // Classify the entry for incremental maintenance while we still
          // hold db_mu_ (its plans bind the shared EDB relations).
          AttachMaintenance(plan->prepared, query, centry.get());
          std::unique_lock<std::shared_mutex> lock(cache_mu_);
          centry->tick = ++lru_tick_;
          while (closures_.size() >= options_.max_closures) {
            auto victim = closures_.begin();
            for (auto it = closures_.begin(); it != closures_.end(); ++it) {
              if (it->second->tick < victim->second->tick) victim = it;
            }
            TraceCache("closure", "evict", victim->first);
            closures_.erase(victim);
          }
          closures_[closure_key] = centry;
          ++stats_.closure_stores;
          out.closure_stored = true;
          TraceCache("closure", "store", closure_key);
        }
        return Status::OK();
      }();
      if (!run.ok()) return run;
    }  // db_mu_ released

    // Rendering reads only the answer's Values and the symbol table (its
    // own reader/writer guard) — deliberately outside db_mu_ so result
    // streaming of one session overlaps evaluation of another.
    out.tuples = out.result.answer.ToStrings(db_->symbols());
    out.seconds = timer.Seconds();
    outcomes.push_back(std::move(out));
  }
  return outcomes;
}

StatusOr<size_t> QueryService::LoadTsv(std::string_view relation,
                                       std::istream& in) {
  return ApplyTsv(relation, BatchOp::kInsert, in);
}

StatusOr<size_t> QueryService::LoadTsvFile(std::string_view relation,
                                           const std::string& path) {
  return ApplyTsvFile(relation, BatchOp::kInsert, path);
}

StatusOr<size_t> QueryService::ApplyTsv(std::string_view relation,
                                        BatchOp op, std::istream& in) {
  std::lock_guard<std::mutex> db_lock(db_mu_);
  // Two-phase load: every line is validated before anything is applied,
  // so a malformed middle line fails the whole request instead of leaving
  // a silent partial prefix — and the WAL never holds a record whose
  // apply could fail.
  SEPREC_ASSIGN_OR_RETURN(TupleBatch batch,
                          ParseRelationTsv(*db_, relation, in));
  batch.op = op;
  return ApplyLocked(batch);
}

StatusOr<size_t> QueryService::ApplyTsvFile(std::string_view relation,
                                            BatchOp op,
                                            const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    return NotFoundError(StrCat("cannot open '", path, "'"));
  }
  return ApplyTsv(relation, op, in);
}

StatusOr<size_t> QueryService::Apply(const TupleBatch& batch) {
  std::lock_guard<std::mutex> db_lock(db_mu_);
  // Server-built batches bypass ParseRelationTsv, so re-validate here:
  // once the WAL holds the record its apply must not be able to fail.
  if (const Relation* rel = db_->Find(batch.relation);
      rel != nullptr && rel->arity() != batch.arity) {
    return InvalidArgumentError(
        StrCat("relation '", batch.relation, "' has arity ", rel->arity(),
               ", batch has arity ", batch.arity));
  }
  if (batch.arity == 0) {
    return InvalidArgumentError("batch arity must be positive");
  }
  for (const std::vector<TypedCell>& row : batch.rows) {
    if (row.size() != batch.arity) {
      return InvalidArgumentError(
          StrCat("batch row has ", row.size(), " columns, expected ",
                 batch.arity));
    }
  }
  return ApplyLocked(batch);
}

StatusOr<size_t> QueryService::ApplyLocked(const TupleBatch& batch) {
  const bool deleting = batch.op == BatchOp::kDelete;
  if (options_.storage != nullptr) {
    // Write-ahead: the batch must be durable before any row changes in
    // the database. Under fsync=always a client that sees this mutation
    // acknowledged will see the same rows after kill -9 + recovery.
    SEPREC_RETURN_IF_ERROR(options_.storage->LogBatch(batch));
  }

  WallTimer timer;
  // Incremental maintenance is bounded: DRed's overdelete provisionally
  // touches every tuple with a derivation through a deleted one, so past
  // a point a fresh phase-1 run beats patching. Oversized batches fall
  // back to invalidation wholesale.
  const bool incremental =
      batch.rows.size() <= options_.max_incremental_delta;

  // Engines that must see this delta. Driving them needs db_mu_ (held);
  // the map probe needs cache_mu_. Entries whose closures do not read the
  // mutated relation are untouched by definition of base_relations.
  std::vector<std::shared_ptr<ClosureEntry>> patching;
  if (incremental) {
    std::shared_lock<std::shared_mutex> lock(cache_mu_);
    for (const auto& [key, entry] : closures_) {
      if (entry->maintainable() && entry->Reads(batch.relation)) {
        patching.push_back(entry);
      }
    }
  }

  // Entries whose engine errored: their maintained state is suspect, so
  // they are dropped below instead of re-keyed. The EDB apply itself must
  // still happen — the WAL already holds the record, and recovery will
  // replay it — so engine failures degrade to invalidation, never to a
  // failed mutation.
  std::vector<const ClosureEntry*> broken;
  std::vector<std::vector<Value>> changed;
  size_t applied = 0;

  if (deleting) {
    // DRed phase 1 (overdelete) must observe the PRE-deletion state, so
    // every engine prepares before the rows are erased.
    std::vector<std::vector<Value>> rows;
    if (!patching.empty()) {
      rows.reserve(batch.rows.size());
      std::vector<Value> row;
      for (const std::vector<TypedCell>& cells : batch.rows) {
        row.clear();
        row.reserve(cells.size());
        for (const TypedCell& cell : cells) {
          row.push_back(cell.is_int ? Value::Int(cell.int_value)
                                    : db_->symbols().Intern(cell.symbol));
        }
        rows.push_back(row);
      }
    }
    for (const std::shared_ptr<ClosureEntry>& entry : patching) {
      if (Status s = entry->engine->PrepareRemoval(batch.relation, rows);
          !s.ok()) {
        broken.push_back(entry.get());
      }
    }
    SEPREC_ASSIGN_OR_RETURN(applied, ApplyTupleBatch(db_, batch, &changed));
    for (const std::shared_ptr<ClosureEntry>& entry : patching) {
      if (Status s = entry->engine->FinishRemoval(); !s.ok()) {
        broken.push_back(entry.get());
      }
    }
  } else {
    SEPREC_ASSIGN_OR_RETURN(applied, ApplyTupleBatch(db_, batch, &changed));
    if (!changed.empty()) {
      for (const std::shared_ptr<ClosureEntry>& entry : patching) {
        if (Status s =
                entry->engine->PropagateInserted(batch.relation, changed);
            !s.ok()) {
          broken.push_back(entry.get());
        }
      }
    }
  }

  size_t patched = 0;
  size_t dropped = 0;
  if (applied > 0) {
    // The apply bumped the generation: every cached key is stale. Rebuild
    // the map — surviving entries (data-independent kConstant, patched
    // kMaintainable) re-key onto the new generation; everything else is
    // swept.
    const uint64_t gen = db_->generation();
    std::unique_lock<std::shared_mutex> lock(cache_mu_);
    std::map<std::string, std::shared_ptr<ClosureEntry>> survivors;
    for (auto& [key, entry] : closures_) {
      bool keep = false;
      if (incremental) {
        if (entry->kind == ClosureMaintainability::kConstant) {
          keep = true;
        } else if (entry->maintainable()) {
          keep = true;
          for (const ClosureEntry* b : broken) {
            if (b == entry.get()) keep = false;
          }
        }
      }
      if (!keep) {
        ++dropped;
        continue;
      }
      if (entry->maintainable() && entry->Reads(batch.relation)) {
        // The engine patched $dred_c in place; refresh the cached row
        // vector that Execute seeds phase 1 from.
        entry->closure.rows.clear();
        const Relation* c =
            entry->scratch.Find(ClosureMaintenance::kClosureName);
        c->ForEachRow([&](Row r) {
          entry->closure.rows.emplace_back(r.begin(), r.end());
        });
        ++patched;
      }
      survivors[StrCat(entry->base_key, gen)] = std::move(entry);
    }
    closures_ = std::move(survivors);
    stats_.closure_patches += patched;
    stats_.closure_drops += dropped;
  }

  if (options_.trace != nullptr) {
    TraceEvent ev;
    ev.kind = TraceEventKind::kDelta;
    ev.phase = deleting ? "delete" : "insert";
    ev.detail = batch.relation;
    ev.delta = applied;
    ev.inserted = patched;
    ev.emitted = dropped;
    ev.seconds = timer.Seconds();
    options_.trace->Emit(ev);
  }

  if (options_.storage != nullptr && options_.storage->ShouldCheckpoint()) {
    // Auto-checkpoint bounds WAL growth (and so recovery time). A failure
    // here must not fail the mutation — the WAL still holds everything —
    // but it is reported to the trace sink rather than swallowed.
    if (StatusOr<CheckpointInfo> ck = CheckpointLocked(); !ck.ok()) {
      if (options_.trace != nullptr) {
        TraceEvent ev;
        ev.kind = TraceEventKind::kSession;
        ev.cause = "checkpoint-error";
        ev.detail = ck.status().ToString();
        options_.trace->Emit(ev);
      }
    }
  }
  return applied;
}

void QueryService::AttachMaintenance(const PreparedQuery& prepared,
                                     const Atom& query,
                                     ClosureEntry* entry) {
  const PreparedSeparable* schema = prepared.compiled_schema();
  if (schema == nullptr) return;  // kind stays kNone

  ClosureMaintenance m = schema->MaintenanceFor(query);
  entry->kind = m.kind;
  if (m.kind != ClosureMaintainability::kMaintainable) return;

  // The seed relation is the closure program's only non-IDB predicate
  // that is not stored data: create it in the entry's overlay before the
  // engine binds the base relations.
  Relation* seed = *entry->scratch.CreateRelation(
      ClosureMaintenance::kSeedName, m.seed_row.size());
  StatusOr<IncrementalEngine> engine =
      IncrementalEngine::Create(std::move(m.program), &entry->scratch);
  if (!engine.ok()) {
    // Defensive: an unmaintainable closure program degrades the entry to
    // invalidation-on-mutation, never fails the request.
    entry->kind = ClosureMaintainability::kNone;
    return;
  }
  // Fast initialisation: the captured closure IS the program's least
  // fixpoint for seed = {seed_row} (phase 1 of the Figure-2 schema runs
  // exactly these rules), so populate the relations directly instead of
  // re-deriving them with Initialize().
  seed->Insert(Row(m.seed_row.data(), m.seed_row.size()));
  Relation* closure = entry->scratch.Find(ClosureMaintenance::kClosureName);
  for (const std::vector<Value>& row : entry->closure.rows) {
    closure->Insert(Row(row.data(), row.size()));
  }
  entry->engine =
      std::make_unique<IncrementalEngine>(std::move(engine).value());
  entry->base_relations = std::move(m.base_relations);
}

StatusOr<CheckpointInfo> QueryService::Checkpoint() {
  std::lock_guard<std::mutex> db_lock(db_mu_);
  return CheckpointLocked();
}

StatusOr<CheckpointInfo> QueryService::CheckpointLocked() {
  if (options_.storage == nullptr) {
    return FailedPreconditionError(
        "no data directory attached (start the server with --data-dir)");
  }
  SEPREC_ASSIGN_OR_RETURN(CheckpointInfo info,
                          options_.storage->Checkpoint(*db_));
  // The snapshot just written is the database's exact current contents,
  // so fold the in-memory delta layers into it: every relation re-bases
  // onto the fresh mmap-backed segments and the resident heap rows are
  // released. Compiled plans survive (Relation pointers are stable) and
  // the generation does not move — the data did not change.
  SEPREC_RETURN_IF_ERROR(CompactToSnapshotSegments(
      db_, StrCat(options_.storage->dir(), "/", info.snapshot_file)));
  if (options_.trace != nullptr) {
    TraceEvent ev;
    ev.kind = TraceEventKind::kSession;
    ev.cause = "checkpoint";
    ev.detail = StrCat(info.snapshot_file, " g", info.generation);
    options_.trace->Emit(ev);
  }
  return info;
}

ServiceStats QueryService::stats() const {
  std::shared_lock<std::shared_mutex> lock(cache_mu_);
  ServiceStats s = stats_;
  s.processors = processors_.size();
  s.plans = plans_.size();
  s.closures = closures_.size();
  s.generation = db_->generation();
  return s;
}

void QueryService::PurgeClosures() {
  std::unique_lock<std::shared_mutex> lock(cache_mu_);
  closures_.clear();
  TraceCache("closure", "purge", "explicit");
}

void QueryService::PurgeAll() {
  std::unique_lock<std::shared_mutex> lock(cache_mu_);
  closures_.clear();
  plans_.clear();
  processors_.clear();
  TraceCache("all", "purge", "explicit");
}

}  // namespace seprec
