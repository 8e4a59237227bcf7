#include "eval/incremental.h"

#include <atomic>

#include "eval/fixpoint.h"
#include "eval/trace.h"
#include "util/string_util.h"
#include "util/timer.h"

namespace seprec {

std::string UpdateStats::ToString() const {
  return StrCat("inserted: ", inserted, ", overdeleted: ", overdeleted,
                ", rederived: ", rederived, ", iterations: ", iterations,
                ", seconds: ", seconds);
}

namespace {

// Runs one AddFacts/RemoveFacts update in an engine span: `update` is reset
// first, and its seconds and the span's totals are filled in however `body`
// returns. The engine runs no governor context, so the span reports 0
// polls.
template <typename Body>
Status TracedUpdate(TraceSink* trace, Database* db, UpdateStats* update,
                    Body body) {
  EngineSpan span("incremental", trace, db, /*ctx=*/nullptr);
  *update = UpdateStats();
  Status status = body();
  update->seconds = span.Seconds();
  span.AddIterations(update->iterations);
  span.AddTuples(update->inserted + update->rederived);
  return status;
}

void EmitRoundStart(TraceSink* trace, const char* phase, size_t round,
                    uint64_t delta) {
  if (trace == nullptr) return;
  TraceEvent e;
  e.kind = TraceEventKind::kRoundStart;
  e.engine = "incremental";
  e.phase = phase;
  e.round = round;
  e.delta = delta;
  trace->Emit(e);
}

void EmitRoundEnd(TraceSink* trace, const char* phase, size_t round,
                  uint64_t emitted, uint64_t inserted, uint64_t delta) {
  if (trace == nullptr) return;
  TraceEvent e;
  e.kind = TraceEventKind::kRoundEnd;
  e.engine = "incremental";
  e.phase = phase;
  e.round = round;
  e.emitted = emitted;
  e.inserted = inserted;
  e.delta = delta;
  trace->Emit(e);
}

}  // namespace

std::string IncrementalEngine::NewDeltaName(std::string_view pred) const {
  return StrCat(delta_prefix_, "_new_", pred);
}

std::string IncrementalEngine::DelDeltaName(std::string_view pred) const {
  return StrCat(delta_prefix_, "_del_", pred);
}

StatusOr<IncrementalEngine> IncrementalEngine::Create(Program program,
                                                      Database* db) {
  // Engines share EDB relations but never deltas, so several maintained
  // programs can watch the same database: each instance gets a unique
  // process-wide prefix for its delta relations.
  static std::atomic<uint64_t> next_engine_id{0};
  IncrementalEngine engine;
  engine.db_ = db;
  engine.delta_prefix_ =
      StrCat("$inc", next_engine_id.fetch_add(1, std::memory_order_relaxed));
  SEPREC_ASSIGN_OR_RETURN(engine.info_, ProgramInfo::Analyze(program));

  for (const Rule& rule : program.rules) {
    if (rule.aggregate.has_value()) {
      return FailedPreconditionError(
          StrCat("DRed maintenance requires a positive program; aggregate "
                 "rule: ",
                 rule.ToString()));
    }
    for (const Literal& lit : rule.body) {
      if (lit.kind == Literal::Kind::kAtom && lit.negated) {
        return FailedPreconditionError(
            StrCat("DRed maintenance requires a positive program; negated "
                   "literal in: ",
                   rule.ToString()));
      }
    }
  }

  for (const auto& [name, pred] : engine.info_.predicates()) {
    engine.predicates_.insert(name);
    // The maintained IDB is the engine's own (local to an overlay `db`);
    // base relations are read wherever they live.
    if (pred.is_idb) {
      engine.idb_.insert(name);
      SEPREC_RETURN_IF_ERROR(db->CreateRelation(name, pred.arity).status());
    } else {
      SEPREC_RETURN_IF_ERROR(db->Bind(name, pred.arity).status());
    }
    SEPREC_RETURN_IF_ERROR(
        db->CreateRelation(engine.NewDeltaName(name), pred.arity).status());
    SEPREC_RETURN_IF_ERROR(
        db->CreateRelation(engine.DelDeltaName(name), pred.arity).status());
  }

  // Per-occurrence variant plans for insertion and overdeletion, and the
  // del-filtered rederivation plan per rule.
  for (const Rule& rule : program.rules) {
    for (size_t i = 0; i < rule.body.size(); ++i) {
      const Literal& lit = rule.body[i];
      if (lit.kind != Literal::Kind::kAtom) continue;
      PlanOptions new_opts;
      new_opts.relation_overrides[i] =
          engine.NewDeltaName(lit.atom.predicate);
      SEPREC_ASSIGN_OR_RETURN(RulePlan new_plan,
                              RulePlan::Compile(rule, db, new_opts));
      engine.insert_plans_.push_back(
          VariantPlan{std::move(new_plan), rule.head.predicate});

      PlanOptions del_opts;
      del_opts.relation_overrides[i] =
          engine.DelDeltaName(lit.atom.predicate);
      SEPREC_ASSIGN_OR_RETURN(RulePlan del_plan,
                              RulePlan::Compile(rule, db, del_opts));
      engine.overdelete_plans_.push_back(
          VariantPlan{std::move(del_plan), rule.head.predicate});
    }
    // Rederive plan: body plus a filter restricting heads to overdeleted
    // candidates.
    Rule rederive = rule;
    Atom filter;
    filter.predicate = engine.DelDeltaName(rule.head.predicate);
    filter.args = rule.head.args;
    rederive.body.insert(rederive.body.begin(),
                         Literal::MakeAtom(std::move(filter)));
    SEPREC_ASSIGN_OR_RETURN(RulePlan rederive_plan,
                            RulePlan::Compile(rederive, db));
    engine.rederive_plans_.push_back(
        VariantPlan{std::move(rederive_plan), rule.head.predicate});
  }
  return engine;
}

Status IncrementalEngine::Initialize(EvalStats* stats) {
  FixpointOptions options;
  options.trace = trace_;
  options.trace_phase_prefix = "init/";
  return EvaluateSemiNaive(info_.program(), db_, options, stats);
}

Status IncrementalEngine::SeedRows(
    std::string_view relation, const std::vector<std::vector<Value>>& rows,
    bool removing, Relation** edb, Relation** seed) {
  if (idb_.count(std::string(relation))) {
    return InvalidArgumentError(
        StrCat("'", relation, "' is IDB; incremental updates apply to base "
               "relations"));
  }
  *edb = db_->Find(relation);
  if (*edb == nullptr) {
    return NotFoundError(StrCat("unknown relation '", relation, "'"));
  }
  *seed = db_->Find(removing ? DelDeltaName(relation)
                             : NewDeltaName(relation));
  if (*seed == nullptr) {
    return InvalidArgumentError(
        StrCat("relation '", relation,
               "' is not part of the maintained program"));
  }
  for (const std::vector<Value>& row : rows) {
    if (row.size() != (*edb)->arity()) {
      return InvalidArgumentError(
          StrCat("row arity ", row.size(), " does not match '", relation,
                 "'/", (*edb)->arity()));
    }
  }
  return Status::OK();
}

Status IncrementalEngine::PropagateInsertions() {
  // Assumes $inc_new_* deltas are seeded and their contents are already
  // present in the base relations.
  std::map<std::string, std::unique_ptr<Relation>> scratch;
  for (const std::string& pred : idb_) {
    scratch.emplace(pred, std::make_unique<Relation>(
                              "$inc_scratch",
                              db_->Find(pred)->arity()));
  }

  bool any_delta = true;
  size_t round = 0;
  while (any_delta) {
    ++last_update_.iterations;
    ++round;
    uint64_t delta_rows = 0;
    if (trace_ != nullptr) {
      for (const std::string& pred : predicates_) {
        delta_rows += db_->Find(NewDeltaName(pred))->size();
      }
    }
    EmitRoundStart(trace_, "insert", round, delta_rows);
    RuleExecMetrics round_metrics;
    RuleExecMetrics* rm = trace_ != nullptr ? &round_metrics : nullptr;
    for (const VariantPlan& vp : insert_plans_) {
      vp.plan.ExecuteInto(scratch.at(vp.head).get(), nullptr, rm);
    }
    // Clear all deltas, then fold scratch: new tuples become next deltas.
    for (const std::string& pred : predicates_) {
      db_->Find(NewDeltaName(pred))->Clear();
    }
    any_delta = false;
    size_t round_new = 0;
    for (const std::string& pred : idb_) {
      Relation* full = db_->Find(pred);
      Relation* delta = db_->Find(NewDeltaName(pred));
      Relation* sc = scratch.at(pred).get();
      for (size_t i = 0; i < sc->size(); ++i) {
        if (full->Insert(sc->row(i))) {
          ++last_update_.inserted;
          ++round_new;
          delta->Insert(sc->row(i));
          any_delta = true;
        }
      }
      sc->Clear();
    }
    EmitRoundEnd(trace_, "insert", round, round_metrics.emitted, round_new,
                 delta_rows);
  }
  return Status::OK();
}

Status IncrementalEngine::AddFacts(
    std::string_view relation, const std::vector<std::vector<Value>>& rows) {
  return TracedUpdate(trace_, db_, &last_update_, [&]() -> Status {
    Relation* edb = nullptr;
    Relation* seed = nullptr;
    SEPREC_RETURN_IF_ERROR(
        SeedRows(relation, rows, /*removing=*/false, &edb, &seed));

    for (const std::string& pred : predicates_) {
      db_->Find(NewDeltaName(pred))->Clear();
    }
    for (const std::vector<Value>& row : rows) {
      if (edb->Insert(Row(row.data(), row.size()))) {
        seed->Insert(Row(row.data(), row.size()));
      }
    }
    if (seed->empty()) return Status::OK();
    db_->BumpGeneration();
    return PropagateInsertions();
  });
}

Status IncrementalEngine::AddFact(std::string_view relation,
                                  const std::vector<std::string>& symbols) {
  std::vector<Value> row;
  row.reserve(symbols.size());
  for (const std::string& s : symbols) {
    row.push_back(db_->symbols().Intern(s));
  }
  return AddFacts(relation, {row});
}

Status IncrementalEngine::OverdeleteAndErase(std::string_view relation,
                                             Relation* seed,
                                             bool erase_edb) {
  // The $inc<id>_del_* relations play two roles: the accumulated
  // overdelete set AND the per-round delta. Keep a separate per-round
  // delta by double-buffering through scratch relations.
  std::map<std::string, std::unique_ptr<Relation>> scratch;
  std::map<std::string, std::unique_ptr<Relation>> total_del;
  for (const std::string& pred : predicates_) {
    size_t arity = db_->Find(pred)->arity();
    scratch.emplace(pred,
                    std::make_unique<Relation>("$inc_scratch", arity));
    auto total = std::make_unique<Relation>("$inc_total_del", arity);
    total->InsertAll(*db_->Find(DelDeltaName(pred)));
    total_del.emplace(pred, std::move(total));
  }
  total_del.at(std::string(relation))->InsertAll(*seed);

  bool any_delta = true;
  size_t round = 0;
  while (any_delta) {
    ++last_update_.iterations;
    ++round;
    uint64_t delta_rows = 0;
    if (trace_ != nullptr) {
      for (const std::string& pred : predicates_) {
        delta_rows += db_->Find(DelDeltaName(pred))->size();
      }
    }
    EmitRoundStart(trace_, "overdelete", round, delta_rows);
    RuleExecMetrics round_metrics;
    RuleExecMetrics* rm = trace_ != nullptr ? &round_metrics : nullptr;
    for (const VariantPlan& vp : overdelete_plans_) {
      vp.plan.ExecuteInto(scratch.at(vp.head).get(), nullptr, rm);
    }
    for (const std::string& pred : predicates_) {
      db_->Find(DelDeltaName(pred))->Clear();
    }
    any_delta = false;
    size_t round_new = 0;
    for (const std::string& pred : idb_) {
      Relation* full = db_->Find(pred);
      Relation* delta = db_->Find(DelDeltaName(pred));
      Relation* total = total_del.at(pred).get();
      Relation* sc = scratch.at(pred).get();
      for (size_t i = 0; i < sc->size(); ++i) {
        Row r = sc->row(i);
        // Only tuples actually in the materialised relation matter, and
        // each enters the overdelete set once.
        if (full->Contains(r) && total->Insert(r)) {
          delta->Insert(r);
          ++round_new;
          any_delta = true;
        }
      }
      sc->Clear();
    }
    EmitRoundEnd(trace_, "overdelete", round, round_metrics.emitted,
                 round_new, delta_rows);
  }

  // Erase the overdeleted tuples (and load $inc<id>_del_* with the full
  // sets for the rederive filter). The EDB seed erase belongs to the
  // caller in split-phase mode — it runs through the WAL apply path.
  for (const std::string& pred : predicates_) {
    Relation* total = total_del.at(pred).get();
    Relation* delta = db_->Find(DelDeltaName(pred));
    delta->Clear();
    delta->InsertAll(*total);
    if (pred == relation) {
      if (erase_edb) db_->Find(pred)->EraseRows(*total);
    } else if (idb_.count(pred)) {
      size_t removed = db_->Find(pred)->EraseRows(*total);
      last_update_.overdeleted += removed;
    }
  }
  return Status::OK();
}

Status IncrementalEngine::RederiveAndCascade() {
  // Rederive: candidates still derivable from the remaining tuples come
  // back and cascade as insertions.
  std::map<std::string, std::unique_ptr<Relation>> scratch;
  for (const std::string& pred : idb_) {
    scratch.emplace(pred, std::make_unique<Relation>(
                              "$inc_scratch", db_->Find(pred)->arity()));
  }
  for (const std::string& pred : predicates_) {
    db_->Find(NewDeltaName(pred))->Clear();
  }
  uint64_t candidate_rows = 0;
  if (trace_ != nullptr) {
    for (const std::string& pred : predicates_) {
      candidate_rows += db_->Find(DelDeltaName(pred))->size();
    }
  }
  EmitRoundStart(trace_, "rederive", 1, candidate_rows);
  bool any_rederived = false;
  size_t rederive_new = 0;
  RuleExecMetrics rederive_metrics;
  RuleExecMetrics* rm = trace_ != nullptr ? &rederive_metrics : nullptr;
  for (const VariantPlan& vp : rederive_plans_) {
    vp.plan.ExecuteInto(scratch.at(vp.head).get(), nullptr, rm);
  }
  for (const std::string& pred : idb_) {
    Relation* full = db_->Find(pred);
    Relation* delta = db_->Find(NewDeltaName(pred));
    Relation* sc = scratch.at(pred).get();
    for (size_t i = 0; i < sc->size(); ++i) {
      if (full->Insert(sc->row(i))) {
        ++last_update_.rederived;
        ++rederive_new;
        delta->Insert(sc->row(i));
        any_rederived = true;
      }
    }
    sc->Clear();
  }
  EmitRoundEnd(trace_, "rederive", 1, rederive_metrics.emitted,
               rederive_new, candidate_rows);
  if (any_rederived) {
    size_t before = last_update_.inserted;
    SEPREC_RETURN_IF_ERROR(PropagateInsertions());
    last_update_.rederived += last_update_.inserted - before;
  }
  // Clear the del filters.
  for (const std::string& pred : predicates_) {
    db_->Find(DelDeltaName(pred))->Clear();
  }
  return Status::OK();
}

Status IncrementalEngine::RemoveFacts(
    std::string_view relation, const std::vector<std::vector<Value>>& rows) {
  return TracedUpdate(trace_, db_, &last_update_, [&]() -> Status {
    Relation* edb = nullptr;
    Relation* seed = nullptr;
    SEPREC_RETURN_IF_ERROR(
        SeedRows(relation, rows, /*removing=*/true, &edb, &seed));

    // Overdeletion is computed against the PRE-deletion relations: collect
    // per-predicate overdelete sets in the $inc<id>_del_* relations first.
    for (const std::string& pred : predicates_) {
      db_->Find(DelDeltaName(pred))->Clear();
      db_->Find(NewDeltaName(pred))->Clear();
    }
    for (const std::vector<Value>& row : rows) {
      if (edb->Contains(Row(row.data(), row.size()))) {
        seed->Insert(Row(row.data(), row.size()));
      }
    }
    if (seed->empty()) return Status::OK();
    db_->BumpGeneration();
    SEPREC_RETURN_IF_ERROR(
        OverdeleteAndErase(relation, seed, /*erase_edb=*/true));
    return RederiveAndCascade();
  });
}

bool IncrementalEngine::Maintains(std::string_view relation) const {
  std::string name(relation);
  return predicates_.count(name) != 0 && idb_.count(name) == 0;
}

Status IncrementalEngine::PropagateInserted(
    std::string_view relation, const std::vector<std::vector<Value>>& rows) {
  WallTimer timer;
  last_update_ = UpdateStats();
  Relation* edb = nullptr;
  Relation* seed = nullptr;
  SEPREC_RETURN_IF_ERROR(
      SeedRows(relation, rows, /*removing=*/false, &edb, &seed));
  for (const std::string& pred : predicates_) {
    db_->Find(NewDeltaName(pred))->Clear();
  }
  for (const std::vector<Value>& row : rows) {
    seed->Insert(Row(row.data(), row.size()));
  }
  Status status = Status::OK();
  if (!seed->empty()) status = PropagateInsertions();
  last_update_.seconds = timer.Seconds();
  return status;
}

Status IncrementalEngine::PrepareRemoval(
    std::string_view relation, const std::vector<std::vector<Value>>& rows) {
  if (pending_removal_) {
    return FailedPreconditionError(
        "PrepareRemoval called with a removal already pending");
  }
  WallTimer timer;
  last_update_ = UpdateStats();
  Relation* edb = nullptr;
  Relation* seed = nullptr;
  SEPREC_RETURN_IF_ERROR(
      SeedRows(relation, rows, /*removing=*/true, &edb, &seed));
  for (const std::string& pred : predicates_) {
    db_->Find(DelDeltaName(pred))->Clear();
    db_->Find(NewDeltaName(pred))->Clear();
  }
  for (const std::vector<Value>& row : rows) {
    if (edb->Contains(Row(row.data(), row.size()))) {
      seed->Insert(Row(row.data(), row.size()));
    }
  }
  pending_removal_ = true;
  Status status = seed->empty()
                      ? Status::OK()
                      : OverdeleteAndErase(relation, seed,
                                           /*erase_edb=*/false);
  last_update_.seconds = timer.Seconds();
  return status;
}

Status IncrementalEngine::FinishRemoval() {
  if (!pending_removal_) {
    return FailedPreconditionError(
        "FinishRemoval called without a pending PrepareRemoval");
  }
  pending_removal_ = false;
  WallTimer timer;
  Status status = RederiveAndCascade();
  last_update_.seconds += timer.Seconds();
  return status;
}

Status IncrementalEngine::RemoveFact(
    std::string_view relation, const std::vector<std::string>& symbols) {
  std::vector<Value> row;
  row.reserve(symbols.size());
  for (const std::string& s : symbols) {
    Value v;
    if (!db_->symbols().TryFind(s, &v)) {
      return Status::OK();  // unknown symbol: nothing to remove
    }
    row.push_back(v);
  }
  return RemoveFacts(relation, {row});
}

}  // namespace seprec
