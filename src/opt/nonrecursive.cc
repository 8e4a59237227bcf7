#include "opt/nonrecursive.h"

#include <atomic>
#include <string>
#include <vector>

#include "datalog/analysis.h"
#include "eval/join_plan.h"
#include "eval/trace.h"
#include "util/string_util.h"

namespace seprec {

namespace {

constexpr char kEngineName[] = "nonrecursive";

Status RunNonRecursive(const Program& program, Database* db, EngineRun* run,
                       EvalStats* stats) {
  const FixpointOptions& options = run->options();
  ExecutionContext* ctx = run->ctx();
  SEPREC_ASSIGN_OR_RETURN(ProgramInfo info, ProgramInfo::Analyze(program));
  for (const auto& [name, pred] : info.predicates()) {
    if (pred.is_recursive) {
      return FailedPreconditionError(
          StrCat("'", name, "' is recursive; the non-recursive evaluator ",
                 "requires a recursion-free program"));
    }
  }
  for (const Rule& rule : program.rules) {
    if (rule.aggregate.has_value()) {
      return FailedPreconditionError(
          "aggregate rules are not supported by the non-recursive "
          "evaluator");
    }
  }

  TraceSink* trace = options.trace;
  const bool measuring = stats != nullptr || trace != nullptr;
  Status result = Status::OK();
  // Each stratum of a recursion-free program is one predicate whose rules
  // read strictly lower strata, so a single pass per rule in stratum order
  // is already the fixpoint.
  for (size_t s = 0; s < info.strata().size() && result.ok(); ++s) {
    bool any_idb = false;
    for (const std::string& pred : info.strata()[s]) {
      if (info.IsIdb(pred)) any_idb = true;
    }
    if (!any_idb) continue;
    for (const std::string& pred : info.strata()[s]) {
      const PredicateInfo* pi = info.Find(pred);
      if (!pi->is_idb) continue;
      SEPREC_RETURN_IF_ERROR(db->CreateRelation(pred, pi->arity).status());
    }

    const std::string phase =
        StrCat(options.trace_phase_prefix, "stratum", s);
    std::vector<const Rule*> rules = info.RulesOfStratum(s);
    bool overflow = false;
    for (const Rule* rule : rules) {
      PlanOptions plan_opts;
      plan_opts.disable_indexes = options.disable_indexes;
      plan_opts.join_order = options.no_cbo ? JoinOrderMode::kTextual
                                            : JoinOrderMode::kCostBased;
      SEPREC_ASSIGN_OR_RETURN(RulePlan plan,
                              RulePlan::Compile(*rule, db, plan_opts));
      Relation* out = db->Find(rule->head.predicate);
      RuleExecMetrics metrics;
      size_t inserted =
          plan.ExecuteInto(out, &overflow, measuring ? &metrics : nullptr);
      run->span().AddTuples(inserted);
      ctx->NoteTuples(inserted);
      if (stats != nullptr) {
        stats->tuples_inserted += inserted;
        stats->NoteRule(rule->ToString(), metrics.emitted, inserted,
                        metrics.probes);
      }
      if (trace != nullptr) {
        TraceEvent e;
        e.kind = TraceEventKind::kRule;
        e.engine = kEngineName;
        e.phase = phase;
        e.round = 0;
        e.rule = rule->ToString();
        e.emitted = metrics.emitted;
        e.inserted = inserted;
        e.probes = metrics.probes;
        trace->Emit(e);
      }
      if (ctx->ShouldStop()) break;
    }
    if (overflow) {
      result = OutOfRangeError("arithmetic overflow during evaluation");
      break;
    }
    if (ctx->stopped()) break;
  }

  if (stats != nullptr) {
    for (const auto& [name, pred] : info.predicates()) {
      if (!pred.is_idb) continue;
      const Relation* rel = db->Find(name);
      stats->NoteRelation(name, rel == nullptr ? 0 : rel->size());
    }
    stats->seconds = run->span().Seconds();
    if (stats->algorithm.empty()) stats->algorithm = kEngineName;
  }
  return result;
}

}  // namespace

Status EvaluateNonRecursive(const Program& program, Database* db,
                            const FixpointOptions& options,
                            EvalStats* stats) {
  // The span's iterations stay 0, the headline: no fixpoint rounds ran.
  EngineRun run(kEngineName, options, db);
  SEPREC_RETURN_IF_ERROR(RunNonRecursive(program, db, &run, stats));
  return run.ExitStatus();
}

}  // namespace seprec
