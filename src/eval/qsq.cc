#include "eval/qsq.h"

#include <deque>
#include <map>
#include <memory>
#include <vector>

#include "core/query.h"
#include "core/support.h"
#include "datalog/analysis.h"
#include "eval/join_plan.h"
#include "eval/trace.h"
#include "util/string_util.h"

namespace seprec {
namespace {

// One adorned rule compiled into a supplementary-relation sweep.
//
// Step j computes sup_j := sup_{j-1} JOIN literal_j (IDB literals read the
// subgoal's ans relation); IDB steps also project new subqueries into the
// subgoal's input relation. The pass loop is delta-driven: each step has a
// variant reading the Δ of sup_{j-1} (and, for IDB literals, a variant
// reading the Δ of the ans relation), so every tuple is processed a
// bounded number of times — the semi-naive discipline applied to the QSQR
// supplementary system.
struct SweepStep {
  RulePlan delta_prev_plan;  // Δsup_{j-1} ⋈ lit(full)
  std::string sup_relation;
  std::unique_ptr<RulePlan> delta_lit_plan;  // sup_{j-1}(full) ⋈ Δans
  std::unique_ptr<RulePlan> need_plan;  // Δsup_{j-1} projected to subqueries
  std::string input_relation;
};

struct RuleSweep {
  std::vector<SweepStep> steps;
  RulePlan head_plan;  // Δsup_m projected to the head
  std::string ans_relation;
};

struct AdornedPredicate {
  std::string input_relation;  // bound-argument tuples (subqueries)
  std::string ans_relation;    // full-arity answers
  size_t arity = 0;
};

class QsqrEngine {
 public:
  QsqrEngine(const Program& rectified, const ProgramInfo& info, Database* db,
             const std::set<std::string>& base_like,
             JoinOrderMode join_order = JoinOrderMode::kCostBased)
      : rectified_(rectified),
        info_(info),
        db_(db),
        base_like_(base_like),
        join_order_(join_order) {}

  Status Setup(const Atom& query) {
    query_key_ = AdornedKey(query.predicate, AdornmentOfAtom(query, {}));
    std::deque<std::pair<std::string, std::string>> queue;
    std::set<std::pair<std::string, std::string>> done;
    queue.emplace_back(query.predicate, AdornmentOfAtom(query, {}));
    done.insert(queue.front());
    while (!queue.empty()) {
      auto [pred, adornment] = queue.front();
      queue.pop_front();
      SEPREC_RETURN_IF_ERROR(SetupAdorned(pred, adornment, &queue, &done));
    }
    return Status::OK();
  }

  void Run(const Atom& query, ExecutionContext* ctx, EvalStats* stats,
           const std::string& phase) {
    TraceSink* trace = ctx->trace();
    const bool measuring = stats != nullptr || trace != nullptr;
    // Scratch per tracked relation.
    std::map<std::string, std::unique_ptr<Relation>> scratch;
    for (const std::string& name : tracked_) {
      scratch.emplace(name, std::make_unique<Relation>(
                                "$qsq_scratch", db_->Find(name)->arity()));
      db_->Find(DeltaName(name))->Clear();
    }

    // Seed the query's input (and its delta).
    const AdornedPredicate& root = adorned_.at(query_key_);
    std::vector<Value> seed;
    for (const Term& arg : query.args) {
      if (!arg.IsConstant()) continue;
      seed.push_back(arg.kind == Term::Kind::kInt
                         ? Value::Int(arg.int_value)
                         : db_->symbols().Intern(arg.name));
    }
    db_->Find(root.input_relation)->Insert(Row(seed.data(), seed.size()));
    db_->Find(DeltaName(root.input_relation))
        ->Insert(Row(seed.data(), seed.size()));
    ctx->NoteTuples(1);

    size_t total = 1;
    size_t passes = 0;
    bool changed = true;
    while (changed) {
      ++passes;
      if (ctx->NoteIterationAndCheck()) break;
      uint64_t delta_rows = 0;
      if (trace != nullptr) {
        for (const std::string& name : tracked_) {
          delta_rows += db_->Find(DeltaName(name))->size();
        }
        TraceEvent e;
        e.kind = TraceEventKind::kRoundStart;
        e.engine = "qsqr";
        e.phase = phase;
        e.round = passes;
        e.delta = delta_rows;
        trace->Emit(e);
      }
      RuleExecMetrics pass_metrics;
      RuleExecMetrics* pm = measuring ? &pass_metrics : nullptr;
      for (RuleSweep& sweep : sweeps_) {
        for (SweepStep& step : sweep.steps) {
          Relation* sup_scratch = scratch.at(step.sup_relation).get();
          step.delta_prev_plan.ExecuteInto(sup_scratch, nullptr, pm);
          if (step.delta_lit_plan != nullptr) {
            step.delta_lit_plan->ExecuteInto(sup_scratch, nullptr, pm);
          }
          if (step.need_plan != nullptr) {
            step.need_plan->ExecuteInto(scratch.at(step.input_relation).get(),
                                        nullptr, pm);
          }
        }
        sweep.head_plan.ExecuteInto(scratch.at(sweep.ans_relation).get(),
                                    nullptr, pm);
      }
      // Fold: additions become the next pass's deltas.
      changed = false;
      size_t pass_new = 0;
      for (const std::string& name : tracked_) {
        Relation* full = db_->Find(name);
        Relation* delta = db_->Find(DeltaName(name));
        delta->Clear();
        Relation* sc = scratch.at(name).get();
        sc->ForEachRow([&](Row row) {
          if (full->Insert(row)) {
            delta->Insert(row);
            ++pass_new;
            changed = true;
          }
        });
        sc->Clear();
      }
      total += pass_new;
      ctx->NoteTuples(pass_new);
      if (stats != nullptr) {
        stats->NoteRound(phase, passes, pass_metrics.emitted, pass_new);
      }
      if (trace != nullptr) {
        TraceEvent e;
        e.kind = TraceEventKind::kRoundEnd;
        e.engine = "qsqr";
        e.phase = phase;
        e.round = passes;
        e.emitted = pass_metrics.emitted;
        e.inserted = pass_new;
        e.delta = delta_rows;
        trace->Emit(e);
      }
      if (ctx->ShouldStop()) break;
    }

    if (stats != nullptr) {
      stats->iterations = passes;
      stats->tuples_inserted = total;
      for (const auto& [key, ap] : adorned_) {
        stats->NoteRelation(StrCat("input_", key),
                            db_->Find(ap.input_relation)->size());
        stats->NoteRelation(StrCat("ans_", key),
                            db_->Find(ap.ans_relation)->size());
      }
    }
  }

  const std::string& query_ans_relation() const {
    return adorned_.at(query_key_).ans_relation;
  }

  std::set<std::string> AdornedKeys() const {
    std::set<std::string> keys;
    for (const auto& [key, ap] : adorned_) keys.insert(key);
    return keys;
  }

 private:
  static std::string AdornedKey(std::string_view pred,
                                const std::string& adornment) {
    return StrCat(pred, "_", adornment);
  }

  static std::string DeltaName(const std::string& relation) {
    return relation + "$d";
  }

  // Adornment of `atom` under `bound` variables (constants are bound).
  static std::string AdornmentOfAtom(const Atom& atom,
                                     const std::set<std::string>& bound) {
    std::string adornment;
    for (const Term& arg : atom.args) {
      bool b = arg.IsConstant() || bound.count(arg.name) > 0;
      adornment.push_back(b ? 'b' : 'f');
    }
    return adornment;
  }

  // True if the predicate is evaluated top-down (IDB, not base-like).
  bool IsGoal(const std::string& pred) const {
    return info_.IsIdb(pred) && !base_like_.count(pred);
  }

  // Creates `name` (and its delta) with the given arity and tracks it.
  Status Track(const std::string& name, size_t arity) {
    SEPREC_RETURN_IF_ERROR(db_->CreateRelation(name, arity).status());
    SEPREC_RETURN_IF_ERROR(
        db_->CreateRelation(DeltaName(name), arity).status());
    tracked_.insert(name);
    return Status::OK();
  }

  Status SetupAdorned(const std::string& pred, const std::string& adornment,
                      std::deque<std::pair<std::string, std::string>>* queue,
                      std::set<std::pair<std::string, std::string>>* done) {
    const std::string key = AdornedKey(pred, adornment);
    AdornedPredicate ap;
    ap.arity = info_.Find(pred)->arity;
    size_t bound_arity = 0;
    for (char c : adornment) {
      if (c == 'b') ++bound_arity;
    }
    ap.input_relation = StrCat("$qsq_in_", key);
    ap.ans_relation = StrCat("$qsq_ans_", key);
    SEPREC_RETURN_IF_ERROR(Track(ap.input_relation, bound_arity));
    SEPREC_RETURN_IF_ERROR(Track(ap.ans_relation, ap.arity));
    adorned_.emplace(key, ap);

    size_t rule_id = 0;
    for (const Rule& rule : rectified_.rules) {
      ++rule_id;
      if (rule.head.predicate != pred) continue;
      if (rule.aggregate.has_value()) {
        return FailedPreconditionError(
            StrCat("QSQR cannot expand the aggregate rule: ",
                   rule.ToString()));
      }

      std::set<std::string> bound;
      std::vector<Term> bound_head_args;
      for (size_t i = 0; i < rule.head.args.size(); ++i) {
        if (adornment[i] == 'b') {
          bound.insert(rule.head.args[i].name);
          bound_head_args.push_back(rule.head.args[i]);
        }
      }
      std::vector<Literal> ordered = OrderBodySafely(rule, bound);

      std::vector<SweepStep> steps;
      std::string prev_relation = ap.input_relation;
      std::vector<Term> prev_vars = bound_head_args;
      std::set<std::string> available = bound;

      auto passed_vars = [&](size_t next_index) {
        std::set<std::string> needed;
        CollectVars(rule.head, &needed);
        for (size_t j = next_index; j < ordered.size(); ++j) {
          CollectVars(ordered[j], &needed);
        }
        std::vector<Term> out;
        for (const std::string& v : available) {
          if (needed.count(v)) out.push_back(Term::Var(v));
        }
        return out;
      };
      auto prev_literal = [&]() {
        Atom prev_atom;
        prev_atom.predicate = prev_relation;
        prev_atom.args = prev_vars;
        return Literal::MakeAtom(std::move(prev_atom));
      };

      for (size_t j = 0; j < ordered.size(); ++j) {
        Literal lit = ordered[j];
        std::unique_ptr<RulePlan> need_plan;
        std::unique_ptr<RulePlan> delta_lit_plan;
        std::string input_relation;
        bool lit_is_goal =
            lit.IsPositiveAtom() && IsGoal(lit.atom.predicate);

        if (lit_is_goal) {
          std::string beta = AdornmentOfAtom(lit.atom, available);
          if (done->insert({lit.atom.predicate, beta}).second) {
            queue->emplace_back(lit.atom.predicate, beta);
          }
          std::string sub_key = AdornedKey(lit.atom.predicate, beta);
          input_relation = StrCat("$qsq_in_", sub_key);
          size_t sub_bound = 0;
          for (char c : beta) {
            if (c == 'b') ++sub_bound;
          }
          SEPREC_RETURN_IF_ERROR(Track(input_relation, sub_bound));
          SEPREC_RETURN_IF_ERROR(
              Track(StrCat("$qsq_ans_", sub_key),
                    info_.Find(lit.atom.predicate)->arity));

          // New subqueries come only from NEW sup_{j-1} tuples.
          Rule need;
          need.head.predicate = "$need";
          for (size_t c = 0; c < lit.atom.args.size(); ++c) {
            if (beta[c] == 'b') need.head.args.push_back(lit.atom.args[c]);
          }
          need.body.push_back(prev_literal());
          PlanOptions delta_prev_opts;
          delta_prev_opts.join_order = join_order_;
          delta_prev_opts.relation_overrides[0] = DeltaName(prev_relation);
          SEPREC_ASSIGN_OR_RETURN(
              RulePlan compiled_need,
              RulePlan::Compile(need, db_, delta_prev_opts));
          need_plan = std::make_unique<RulePlan>(std::move(compiled_need));
          lit.atom.predicate = StrCat("$qsq_ans_", sub_key);
        }

        CollectVars(ordered[j], &available);
        std::vector<Term> vars = passed_vars(j + 1);

        Rule sup_rule;
        sup_rule.head.predicate = "$sup";
        sup_rule.head.args = vars;
        sup_rule.body.push_back(prev_literal());
        sup_rule.body.push_back(lit);

        PlanOptions delta_prev_opts;
        delta_prev_opts.join_order = join_order_;
        delta_prev_opts.relation_overrides[0] = DeltaName(prev_relation);
        SEPREC_ASSIGN_OR_RETURN(
            RulePlan delta_prev_plan,
            RulePlan::Compile(sup_rule, db_, delta_prev_opts));
        if (lit_is_goal) {
          // The ans relation grows during the run: also join the full
          // prefix against its delta.
          PlanOptions delta_lit_opts;
          delta_lit_opts.join_order = join_order_;
          delta_lit_opts.relation_overrides[1] =
              DeltaName(lit.atom.predicate);
          SEPREC_ASSIGN_OR_RETURN(
              RulePlan compiled,
              RulePlan::Compile(sup_rule, db_, delta_lit_opts));
          delta_lit_plan = std::make_unique<RulePlan>(std::move(compiled));
        }

        std::string sup_name =
            StrCat("$qsq_sup_", key, "_", rule_id, "_", j);
        SEPREC_RETURN_IF_ERROR(Track(sup_name, vars.size()));
        steps.push_back(SweepStep{std::move(delta_prev_plan), sup_name,
                                  std::move(delta_lit_plan),
                                  std::move(need_plan),
                                  std::move(input_relation)});
        prev_relation = sup_name;
        prev_vars = std::move(vars);
      }

      // Final projection: ans(head args) :- Δsup_m(vars).
      Rule head_rule;
      head_rule.head = rule.head;
      head_rule.head.predicate = "$ans";
      head_rule.body.push_back(prev_literal());
      PlanOptions delta_prev_opts;
      delta_prev_opts.join_order = join_order_;
      delta_prev_opts.relation_overrides[0] = DeltaName(prev_relation);
      SEPREC_ASSIGN_OR_RETURN(
          RulePlan head_plan,
          RulePlan::Compile(head_rule, db_, delta_prev_opts));
      sweeps_.push_back(RuleSweep{std::move(steps), std::move(head_plan),
                                  ap.ans_relation});
    }
    return Status::OK();
  }

  const Program& rectified_;
  const ProgramInfo& info_;
  Database* db_;
  std::set<std::string> base_like_;
  JoinOrderMode join_order_;
  std::string query_key_;
  std::map<std::string, AdornedPredicate> adorned_;
  std::set<std::string> tracked_;
  std::vector<RuleSweep> sweeps_;
};

}  // namespace

StatusOr<QsqrRunResult> EvaluateWithQsqr(const Program& program,
                                         const Atom& query, Database* db,
                                         const FixpointOptions& options) {
  QsqrRunResult result;
  EngineRun run("qsqr", options, db);
  run.span().CountFrom(&result.stats);
  result.answer = Answer(query.arity());
  result.stats.algorithm = "qsqr";

  SEPREC_ASSIGN_OR_RETURN(ProgramInfo info, ProgramInfo::Analyze(program));
  const PredicateInfo* qpred = info.Find(query.predicate);
  if (qpred == nullptr || !qpred->is_idb) {
    return InvalidArgumentError(StrCat("query predicate '", query.predicate,
                                       "' is not an IDB predicate"));
  }
  if (qpred->arity != query.arity()) {
    return InvalidArgumentError(StrCat("query arity ", query.arity(),
                                       " does not match predicate arity ",
                                       qpred->arity));
  }

  std::set<std::string> base_like = NegatedIdbPredicates(program);
  for (const std::string& pred : AggregatePredicates(program)) {
    base_like.insert(pred);
  }
  if (base_like.count(query.predicate)) {
    return FailedPreconditionError(
        StrCat("query predicate '", query.predicate,
               "' is aggregate/negation-defined; use semi-naive"));
  }
  if (!base_like.empty()) {
    SEPREC_RETURN_IF_ERROR(MaterializePredicates(
        program, base_like, db, run.options(), &result.stats));
  }

  Program rectified = Rectify(program);
  QsqrEngine engine(rectified, info, db, base_like,
                    options.no_cbo ? JoinOrderMode::kTextual
                                   : JoinOrderMode::kCostBased);
  SEPREC_RETURN_IF_ERROR(engine.Setup(query));
  engine.Run(query, run.ctx(), &result.stats,
             StrCat(options.trace_phase_prefix, "pass"));
  SEPREC_RETURN_IF_ERROR(run.ExitStatus());
  result.adorned = engine.AdornedKeys();

  const Relation* ans = db->Find(engine.query_ans_relation());
  if (ans != nullptr) {
    result.answer = SelectMatching(*ans, query, db->symbols());
  }
  result.stats.seconds = run.span().Seconds();
  return result;
}

}  // namespace seprec
