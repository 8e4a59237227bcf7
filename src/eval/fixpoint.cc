#include "eval/fixpoint.h"

#include <algorithm>
#include <atomic>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "datalog/analysis.h"
#include "eval/join_plan.h"
#include "eval/trace.h"
#include "util/hash.h"
#include "util/string_util.h"
#include "util/thread_pool.h"

namespace seprec {
namespace {

constexpr char kDeltaPrefix[] = "$delta_";

// Name of partition k of a predicate's delta relation (see the parallel
// round in EvaluateStratum). '$' keeps it out of the user namespace.
std::string PartName(size_t k, const std::string& pred) {
  return StrCat("$part", k, "_", pred);
}

struct AggregateRuntime {
  RulePlan plan;  // emits (head args with over_var at the aggregate slot)
  AggregateSpec spec;
  std::string head_predicate;
  size_t arity = 0;
};

struct StratumRuntime {
  std::vector<std::string> idb_preds;   // predicates of this stratum
  std::vector<RulePlan> base_plans;     // all body literals read full rels
  std::vector<RulePlan> delta_plans;    // one per (rule, SCC occurrence)
  std::vector<AggregateRuntime> aggregate_plans;  // run once, first
  // Rule source text, parallel to base_plans/delta_plans — the stable keys
  // of EvalStats::rule_stats and trace rule events (precomputed so the
  // round loops never re-render rules).
  std::vector<std::string> base_labels;
  std::vector<std::string> delta_labels;
  bool recursive = false;

  // Parallel round machinery (empty when the parallel policy is off or the
  // stratum is not recursive): partition_plans[k] holds, for every delta
  // plan, a variant whose overridden literal scans partition k of the
  // delta instead of the whole delta. The partition relations are
  // hash-refilled from the deltas each round, so running all variants of
  // all partitions derives exactly what the delta plans derive.
  size_t num_partitions = 0;
  std::vector<std::vector<RulePlan>> partition_plans;
};

class FixpointEngine {
 public:
  FixpointEngine(Database* db, EngineRun* run, EvalStats* stats,
                 bool seminaive)
      : db_(db),
        options_(run->options()),
        ctx_(run->ctx()),
        span_(&run->span()),
        stats_(stats),
        trace_(options_.trace),
        seminaive_(seminaive) {}

  // Drops the internal delta and partition relations, whichever way Run
  // exited.
  ~FixpointEngine() {
    for (const std::string& name : delta_names_) {
      db_->Drop(name);
    }
  }

  FixpointEngine(const FixpointEngine&) = delete;
  FixpointEngine& operator=(const FixpointEngine&) = delete;

  Status Run(const Program& program) {
    SEPREC_ASSIGN_OR_RETURN(ProgramInfo info, ProgramInfo::Analyze(program));

    Status result = Status::OK();
    for (size_t s = 0; s < info.strata().size(); ++s) {
      // Skip EDB-only components.
      bool any_idb = false;
      for (const std::string& pred : info.strata()[s]) {
        if (info.IsIdb(pred)) any_idb = true;
      }
      if (!any_idb) continue;

      SEPREC_ASSIGN_OR_RETURN(StratumRuntime stratum,
                              PrepareStratum(info, s));
      result = EvaluateStratum(
          info, stratum, StrCat(options_.trace_phase_prefix, "stratum", s));
      if (!result.ok()) break;
      // A tripped limit stops the whole fixpoint, not just this stratum.
      if (ctx_->stopped()) break;
    }

    // Record final sizes even on resource exhaustion.
    if (stats_ != nullptr) {
      for (const auto& [name, pred] : info.predicates()) {
        if (!pred.is_idb) continue;
        const Relation* rel = db_->Find(name);
        stats_->NoteRelation(name, rel == nullptr ? 0 : rel->size());
      }
      stats_->seconds = span_->Seconds();
      if (stats_->algorithm.empty()) {
        stats_->algorithm = seminaive_ ? "seminaive" : "naive";
      }
    }
    return result;
  }

 private:
  StatusOr<StratumRuntime> PrepareStratum(const ProgramInfo& info, size_t s) {
    StratumRuntime stratum;
    std::set<std::string> scc(info.strata()[s].begin(),
                              info.strata()[s].end());
    for (const std::string& pred : info.strata()[s]) {
      if (!info.IsIdb(pred)) continue;
      stratum.idb_preds.push_back(pred);
      if (info.IsRecursive(pred)) stratum.recursive = true;
      const PredicateInfo* pi = info.Find(pred);
      SEPREC_RETURN_IF_ERROR(
          db_->CreateRelation(pred, pi->arity).status());
      if (seminaive_) {
        std::string delta = StrCat(kDeltaPrefix, pred);
        SEPREC_RETURN_IF_ERROR(
            db_->CreateRelation(delta, pi->arity).status());
        delta_names_.insert(delta);
      }
    }

    // Parallel rounds need the delta partition relations to exist before
    // the plan variants below can bind to them.
    const ParallelPolicy& policy = ctx_->limits().parallel;
    const bool partitioned =
        seminaive_ && stratum.recursive && policy.Enabled();
    if (partitioned) {
      stratum.num_partitions = policy.ResolvedThreads();
      stratum.partition_plans.resize(stratum.num_partitions);
      for (const std::string& pred : stratum.idb_preds) {
        const PredicateInfo* pi = info.Find(pred);
        for (size_t k = 0; k < stratum.num_partitions; ++k) {
          std::string part = PartName(k, pred);
          SEPREC_RETURN_IF_ERROR(
              db_->CreateRelation(part, pi->arity).status());
          delta_names_.insert(part);
        }
      }
    }

    for (const Rule* rule : info.RulesOfStratum(s)) {
      PlanOptions base_opts;
      base_opts.disable_indexes = options_.disable_indexes;
      base_opts.join_order = join_order();
      if (rule->aggregate.has_value()) {
        // Aggregate rules run once per stratum (stratification guarantees
        // their bodies are complete); the plan collects (group, value)
        // rows that EvaluateStratum folds per group.
        SEPREC_ASSIGN_OR_RETURN(RulePlan plan,
                                RulePlan::Compile(*rule, db_, base_opts));
        stratum.aggregate_plans.push_back(
            AggregateRuntime{std::move(plan), *rule->aggregate,
                             rule->head.predicate, rule->head.arity()});
        continue;
      }
      SEPREC_ASSIGN_OR_RETURN(RulePlan base,
                              RulePlan::Compile(*rule, db_, base_opts));
      TracePlan(base, "compile/base");
      stratum.base_plans.push_back(std::move(base));
      stratum.base_labels.push_back(rule->ToString());
      if (!seminaive_ || !stratum.recursive) continue;
      // One delta variant per body occurrence of a same-stratum predicate.
      for (size_t i = 0; i < rule->body.size(); ++i) {
        const Literal& lit = rule->body[i];
        if (lit.kind != Literal::Kind::kAtom) continue;
        if (!scc.count(lit.atom.predicate)) continue;
        if (!info.IsIdb(lit.atom.predicate)) continue;
        PlanOptions opts;
        opts.disable_indexes = options_.disable_indexes;
        opts.join_order = join_order();
        opts.relation_overrides[i] =
            StrCat(kDeltaPrefix, lit.atom.predicate);
        SEPREC_ASSIGN_OR_RETURN(RulePlan delta,
                                RulePlan::Compile(*rule, db_, opts));
        TracePlan(delta, "compile/delta");
        stratum.delta_plans.push_back(std::move(delta));
        stratum.delta_labels.push_back(rule->ToString());
        if (!partitioned) continue;
        for (size_t k = 0; k < stratum.num_partitions; ++k) {
          PlanOptions part_opts;
          part_opts.disable_indexes = options_.disable_indexes;
          part_opts.join_order = join_order();
          part_opts.relation_overrides[i] = PartName(k, lit.atom.predicate);
          SEPREC_ASSIGN_OR_RETURN(RulePlan part,
                                  RulePlan::Compile(*rule, db_, part_opts));
          stratum.partition_plans[k].push_back(std::move(part));
        }
      }
    }
    return stratum;
  }

  const char* engine_name() const { return seminaive_ ? "seminaive" : "naive"; }

  JoinOrderMode join_order() const {
    return options_.no_cbo ? JoinOrderMode::kTextual
                           : JoinOrderMode::kCostBased;
  }

  // Emits a schema-v3 `plan` trace event for a freshly compiled rule plan
  // (base and delta variants; partition variants share the delta's order).
  void TracePlan(const RulePlan& plan, const std::string& phase) {
    if (trace_ == nullptr) return;
    const PlannedBody& info = plan.plan_info();
    TraceEvent e;
    e.kind = TraceEventKind::kPlan;
    e.engine = engine_name();
    e.phase = StrCat(options_.trace_phase_prefix, phase);
    e.rule = plan.rule().ToString();
    e.cause = info.mode;            // serialized as "mode"
    e.detail = info.OrderString();  // serialized as "order"
    e.algo = info.algo;
    e.cost = info.cost;
    e.est_rows = static_cast<uint64_t>(info.est_rows);
    trace_->Emit(e);
  }

  // Folds one plan execution's counters into EvalStats::rule_stats and,
  // when tracing, emits a rule event (skipped for no-op executions so idle
  // rules do not flood the trace).
  void NoteRuleMetrics(const std::string& phase, size_t round,
                       const std::string& label, const RuleExecMetrics& m) {
    if (stats_ != nullptr) {
      stats_->NoteRule(label, m.emitted, m.inserted, m.probes);
    }
    if (trace_ != nullptr && (m.emitted > 0 || m.probes > 0)) {
      TraceEvent e;
      e.kind = TraceEventKind::kRule;
      e.engine = engine_name();
      e.phase = phase;
      e.round = round;
      e.rule = label;
      e.emitted = m.emitted;
      e.inserted = m.inserted;
      e.probes = m.probes;
      trace_->Emit(e);
    }
  }

  Status EvaluateStratum(const ProgramInfo& info,
                         const StratumRuntime& stratum,
                         const std::string& phase) {
    // Per-predicate staging sinks (engine-local). Serial and parallel
    // rounds both emit here and fold through the sink's canonical sorted
    // merge, so the materialised relations end up with the same slot
    // order whatever the thread count — including 1.
    std::map<std::string, std::unique_ptr<ShardedSink>> sinks;
    for (const std::string& pred : stratum.idb_preds) {
      const PredicateInfo* pi = info.Find(pred);
      auto sink = std::make_unique<ShardedSink>(pi->arity);
      sink->SetAccountant(&db_->accountant());
      sinks.emplace(pred, std::move(sink));
    }
    auto sink_for = [&sinks](const std::string& pred) {
      return sinks.at(pred).get();
    };

    bool overflow = false;
    // Per-round/per-rule bookkeeping is live whenever anyone collects it;
    // with neither a stats object nor a sink, the round loops skip all of
    // it (the bench default).
    const bool measuring = stats_ != nullptr || trace_ != nullptr;
    size_t round = 0;

    // Fold the sinks into the materialised relations (and deltas); returns
    // the number of genuinely new tuples. `staged` (optional) accumulates
    // how many rows the sinks held before the merge dedupe.
    auto fold = [this, &sinks, &stratum](size_t* staged) -> size_t {
      size_t new_tuples = 0;
      for (const std::string& pred : stratum.idb_preds) {
        Relation* full = db_->Find(pred);
        Relation* delta =
            seminaive_ ? db_->Find(StrCat(kDeltaPrefix, pred)) : nullptr;
        if (delta != nullptr) delta->Clear();
        new_tuples += sinks.at(pred)->MergeInto(full, delta, staged);
      }
      if (stats_ != nullptr) stats_->tuples_inserted += new_tuples;
      span_->AddTuples(new_tuples);
      ctx_->NoteTuples(new_tuples);
      return new_tuples;
    };

    // Runs every plan against the current deltas/relations on the driving
    // thread; returns head tuples emitted (0 when not measuring).
    auto run_plans_serial = [this, &sink_for, &overflow, measuring, &phase,
                             &round](const std::vector<RulePlan>& plans,
                                     const std::vector<std::string>& labels)
        -> size_t {
      size_t emitted = 0;
      for (size_t j = 0; j < plans.size(); ++j) {
        if (!measuring) {
          plans[j].ExecuteInto(sink_for(plans[j].rule().head.predicate),
                               &overflow);
          continue;
        }
        RuleExecMetrics m;
        plans[j].ExecuteInto(sink_for(plans[j].rule().head.predicate),
                             &overflow, &m);
        emitted += m.emitted;
        NoteRuleMetrics(phase, round, labels[j], m);
      }
      return emitted;
    };

    // One parallel round: hash-partition every delta across the stratum's
    // partition relations, then run each partition's plan variants as an
    // independent worker task. Workers poll the governor between plans, so
    // deadlines / cancellation / byte budgets trip mid-round. Returns head
    // tuples emitted across all partitions (0 when not measuring); per-plan
    // metrics land in worker-private slots and are summed afterwards, so
    // the per-rule emitted totals match a serial round exactly.
    auto parallel_round = [this, &stratum, &sink_for, &overflow, measuring,
                           &phase, &round]() -> size_t {
      const size_t P = stratum.num_partitions;
      for (const std::string& pred : stratum.idb_preds) {
        Relation* delta = db_->Find(StrCat(kDeltaPrefix, pred));
        std::vector<Relation*> parts(P);
        for (size_t k = 0; k < P; ++k) {
          parts[k] = db_->Find(PartName(k, pred));
          parts[k]->Clear();
        }
        delta->ForEachRow(
            [&parts, P](Row r) { parts[HashRow(r) % P]->Insert(r); });
      }
      if (trace_ != nullptr) {
        TraceEvent e;
        e.kind = TraceEventKind::kParallelRound;
        e.engine = engine_name();
        e.phase = phase;
        e.round = round;
        e.partitions = P;
        e.threads = P;
        e.queue_depth = ThreadPool::Shared()->QueueDepth();
        trace_->Emit(e);
      }
      const size_t num_plans = stratum.delta_plans.size();
      std::vector<std::vector<RuleExecMetrics>> part_metrics;
      if (measuring) {
        part_metrics.assign(P, std::vector<RuleExecMetrics>(num_plans));
      }
      std::atomic<bool> par_overflow{false};
      ThreadPool::Shared()->ParallelFor(
          P, P,
          [this, &stratum, &sink_for, &par_overflow, measuring,
           &part_metrics](size_t k) {
            bool local_overflow = false;
            const std::vector<RulePlan>& plans = stratum.partition_plans[k];
            for (size_t j = 0; j < plans.size(); ++j) {
              if (ctx_->ShouldStop()) break;
              plans[j].ExecuteInto(
                  sink_for(plans[j].rule().head.predicate), &local_overflow,
                  measuring ? &part_metrics[k][j] : nullptr);
            }
            if (local_overflow) {
              par_overflow.store(true, std::memory_order_relaxed);
            }
          });
      if (par_overflow.load(std::memory_order_relaxed)) overflow = true;
      size_t emitted = 0;
      if (measuring) {
        for (size_t j = 0; j < num_plans; ++j) {
          RuleExecMetrics sum;
          for (size_t k = 0; k < P; ++k) {
            sum.emitted += part_metrics[k][j].emitted;
            sum.inserted += part_metrics[k][j].inserted;
            sum.probes += part_metrics[k][j].probes;
          }
          emitted += sum.emitted;
          NoteRuleMetrics(phase, round, stratum.delta_labels[j], sum);
        }
      }
      return emitted;
    };

    auto round_begin = [this, &phase, &round](size_t delta_rows) {
      if (trace_ == nullptr) return;
      TraceEvent e;
      e.kind = TraceEventKind::kRoundStart;
      e.engine = engine_name();
      e.phase = phase;
      e.round = round;
      e.delta = delta_rows;
      trace_->Emit(e);
    };
    auto round_finish = [this, &phase, &round](size_t emitted, size_t staged,
                                               size_t new_rows) {
      if (stats_ != nullptr) {
        stats_->NoteRound(phase, round, emitted, new_rows);
      }
      if (trace_ != nullptr) {
        TraceEvent merge;
        merge.kind = TraceEventKind::kMerge;
        merge.engine = engine_name();
        merge.phase = phase;
        merge.round = round;
        merge.staged = staged;
        merge.inserted = new_rows;
        trace_->Emit(merge);
        TraceEvent e;
        e.kind = TraceEventKind::kRoundEnd;
        e.engine = engine_name();
        e.phase = phase;
        e.round = round;
        e.emitted = emitted;
        e.inserted = new_rows;
        e.delta = new_rows;
        trace_->Emit(e);
      }
      ++round;
    };

    // Aggregate rules first (their bodies live in lower strata).
    round_begin(0);
    for (const AggregateRuntime& agg : stratum.aggregate_plans) {
      SEPREC_RETURN_IF_ERROR(
          RunAggregate(agg, sink_for(agg.head_predicate), &overflow));
    }
    // Round 0: all rules against full (initially possibly empty) relations.
    size_t emitted =
        run_plans_serial(stratum.base_plans, stratum.base_labels);
    size_t staged = 0;
    size_t new_tuples = fold(measuring ? &staged : nullptr);
    round_finish(emitted, staged, new_tuples);
    if (stats_ != nullptr) stats_->iterations += 1;
    span_->AddIterations(1);
    ctx_->NoteIterationAndCheck();

    if (stratum.recursive) {
      const std::vector<RulePlan>& plans =
          seminaive_ ? stratum.delta_plans : stratum.base_plans;
      const std::vector<std::string>& labels =
          seminaive_ ? stratum.delta_labels : stratum.base_labels;
      const size_t min_rows = ctx_->limits().parallel.min_rows_per_task;
      while (new_tuples > 0) {
        if (ctx_->ShouldStop()) break;
        round_begin(new_tuples);
        // Small rounds run serially: below min_rows_per_task staged delta
        // rows the partition/merge overhead dominates the join work.
        if (stratum.num_partitions > 1 && new_tuples >= min_rows) {
          emitted = parallel_round();
        } else {
          emitted = run_plans_serial(plans, labels);
        }
        staged = 0;
        new_tuples = fold(measuring ? &staged : nullptr);
        round_finish(emitted, staged, new_tuples);
        if (stats_ != nullptr) stats_->iterations += 1;
        span_->AddIterations(1);
        ctx_->NoteIterationAndCheck();
      }
    }
    if (overflow) {
      return OutOfRangeError("arithmetic overflow during evaluation");
    }
    return Status::OK();
  }

  // Collects the (group, value) rows of an aggregate rule, folds each
  // group with the aggregate operator, and emits one row per group into
  // `out` (the value replacing the over-variable slot).
  Status RunAggregate(const AggregateRuntime& agg, ShardedSink* out,
                      bool* overflow) {
    Relation collected("$agg_collect", agg.arity);
    agg.plan.ExecuteInto(&collected, overflow);

    const size_t pos = agg.spec.head_position;
    struct Accumulator {
      int64_t count = 0;
      int64_t sum = 0;
      int64_t min = 0;
      int64_t max = 0;
    };
    std::map<std::vector<Value>, Accumulator> groups;
    for (size_t i = 0; i < collected.size(); ++i) {
      Row row = collected.row(i);
      std::vector<Value> key;
      key.reserve(agg.arity - 1);
      for (size_t c = 0; c < agg.arity; ++c) {
        if (c != pos) key.push_back(row[c]);
      }
      Value v = row[pos];
      if (agg.spec.op != AggregateSpec::Op::kCount && !v.is_int()) {
        return OutOfRangeError(
            StrCat("aggregate ", AggregateOpToString(agg.spec.op),
                   " over non-integer value in relation '",
                   agg.head_predicate, "'"));
      }
      auto [it, inserted] = groups.try_emplace(std::move(key));
      Accumulator& acc = it->second;
      int64_t x = v.is_int() ? v.as_int() : 0;
      if (inserted) {
        acc.min = acc.max = x;
      } else {
        acc.min = std::min(acc.min, x);
        acc.max = std::max(acc.max, x);
      }
      ++acc.count;
      int64_t new_sum = 0;
      if (__builtin_add_overflow(acc.sum, x, &new_sum)) {
        return OutOfRangeError(
            StrCat("aggregate sum overflow in relation '",
                   agg.head_predicate, "'"));
      }
      acc.sum = new_sum;
    }
    for (const auto& [key, acc] : groups) {
      int64_t result = 0;
      switch (agg.spec.op) {
        case AggregateSpec::Op::kCount: result = acc.count; break;
        case AggregateSpec::Op::kSum: result = acc.sum; break;
        case AggregateSpec::Op::kMin: result = acc.min; break;
        case AggregateSpec::Op::kMax: result = acc.max; break;
      }
      if (result > Value::kMaxInt || result < Value::kMinInt) {
        return OutOfRangeError("aggregate result out of Value range");
      }
      std::vector<Value> row;
      row.reserve(agg.arity);
      size_t key_index = 0;
      for (size_t c = 0; c < agg.arity; ++c) {
        if (c == pos) {
          row.push_back(Value::Int(result));
        } else {
          row.push_back(key[key_index++]);
        }
      }
      out->Insert(Row(row.data(), row.size()));
    }
    return Status::OK();
  }

  Database* db_;
  const FixpointOptions& options_;
  ExecutionContext* ctx_;
  // Counts this run's own totals (stats_ may be shared across nested
  // engines).
  EngineSpan* span_;
  EvalStats* stats_;
  TraceSink* trace_;
  bool seminaive_;
  std::set<std::string> delta_names_;
};

Status RunFixpoint(const Program& program, Database* db,
                   const FixpointOptions& options, EvalStats* stats,
                   bool seminaive) {
  EngineRun run(seminaive ? "seminaive" : "naive", options, db);
  FixpointEngine engine(db, &run, stats, seminaive);
  SEPREC_RETURN_IF_ERROR(engine.Run(program));
  return run.ExitStatus();
}

}  // namespace

EngineRun::EngineRun(const char* engine, const FixpointOptions& options,
                     Database* db, std::string_view phase)
    : governor_(options.limits, options.cancel, options.context),
      options_(options),
      span_(engine, options.trace, db, governor_.ctx()) {
  governor_.ctx()->TrackMemory(&db->accountant());
  options_.context = governor_.ctx();
  options_.trace_phase_prefix += phase;
}

Status EvaluateSemiNaive(const Program& program, Database* db,
                         const FixpointOptions& options, EvalStats* stats) {
  return RunFixpoint(program, db, options, stats, /*seminaive=*/true);
}

Status EvaluateNaive(const Program& program, Database* db,
                     const FixpointOptions& options, EvalStats* stats) {
  return RunFixpoint(program, db, options, stats, /*seminaive=*/false);
}

}  // namespace seprec
