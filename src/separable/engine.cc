#include "separable/engine.h"

#include <algorithm>
#include <map>
#include <optional>
#include <set>

#include "core/query.h"
#include "core/support.h"
#include "eval/join_plan.h"
#include "eval/trace.h"
#include "util/hash.h"
#include "util/string_util.h"
#include "util/thread_pool.h"

namespace seprec {

// Which columns anchor the evaluation: a fully bound class (phase 1 walks
// it) or bound persistent columns (the dummy equivalence class — phase 1
// degenerates to seen_1 := {constants}). File-local, but at namespace
// scope (not anonymous) so PreparedSeparable::Impl can hold one without
// giving an exported type internal-linkage members.
struct AnchorInfo {
  std::optional<size_t> anchor_class;
  std::vector<uint32_t> anchor_positions;  // ascending
  std::vector<uint32_t> rest_positions;    // ascending complement
};

namespace {

std::optional<AnchorInfo> FindAnchor(const SeparableRecursion& sep,
                                     const std::vector<bool>& bound) {
  AnchorInfo anchor;
  std::set<uint32_t> ap;
  for (uint32_t p : sep.persistent_positions) {
    if (bound[p]) ap.insert(p);
  }
  if (!ap.empty()) {
    anchor.anchor_class = std::nullopt;
  } else {
    bool found = false;
    for (size_t c = 0; c < sep.classes.size() && !found; ++c) {
      bool all = true;
      for (uint32_t p : sep.classes[c].positions) {
        if (!bound[p]) all = false;
      }
      if (all) {
        anchor.anchor_class = c;
        ap.insert(sep.classes[c].positions.begin(),
                  sep.classes[c].positions.end());
        found = true;
      }
    }
    if (!found) return std::nullopt;
  }
  anchor.anchor_positions.assign(ap.begin(), ap.end());
  for (uint32_t p = 0; p < sep.arity(); ++p) {
    if (!ap.count(p)) anchor.rest_positions.push_back(p);
  }
  return anchor;
}

// ---- Synthetic rules instantiating the Figure 2 schema -----------------

Term HeadVar(const SeparableRecursion& sep, uint32_t p) {
  return Term::Var(sep.recursion.head_vars[p]);
}

// Nonrecursive body literals of recursive rule `i`.
std::vector<Literal> NonRecursiveLits(const SeparableRecursion& sep,
                                      size_t i) {
  std::vector<Literal> out;
  const Rule& rule = sep.recursion.recursive_rules[i];
  for (size_t j = 0; j < rule.body.size(); ++j) {
    if (j != sep.recursion.recursive_atom_index[i]) out.push_back(rule.body[j]);
  }
  return out;
}

// carry'(V_b(t|e1)) :- carry(V_h(t|e1)) & a_i   — the f_1 operator terms.
Rule MakePhase1Rule(const SeparableRecursion& sep, const AnchorInfo& anchor,
                    size_t rule_index, const std::string& carry_name,
                    const std::string& out_name) {
  const Atom& body_t = sep.recursion.RecursiveBodyAtom(rule_index);
  Rule rule;
  rule.head.predicate = out_name;
  for (uint32_t p : anchor.anchor_positions) {
    rule.head.args.push_back(body_t.args[p]);
  }
  Atom carry;
  carry.predicate = carry_name;
  for (uint32_t p : anchor.anchor_positions) {
    carry.args.push_back(HeadVar(sep, p));
  }
  rule.body.push_back(Literal::MakeAtom(std::move(carry)));
  for (Literal& lit : NonRecursiveLits(sep, rule_index)) {
    rule.body.push_back(std::move(lit));
  }
  return rule;
}

// carry_2(rest) :- seen_1(V_h(t|e1)) & exit body   — the g_2 operator.
Rule MakeExitRule(const SeparableRecursion& sep, const AnchorInfo& anchor,
                  size_t exit_index, const std::string& seen1_name,
                  const std::string& out_name) {
  const Rule& exit = sep.recursion.exit_rules[exit_index];
  Rule rule;
  rule.head.predicate = out_name;
  for (uint32_t p : anchor.rest_positions) {
    rule.head.args.push_back(HeadVar(sep, p));
  }
  Atom seen;
  seen.predicate = seen1_name;
  for (uint32_t p : anchor.anchor_positions) {
    seen.args.push_back(HeadVar(sep, p));
  }
  rule.body.push_back(Literal::MakeAtom(std::move(seen)));
  for (const Literal& lit : exit.body) rule.body.push_back(lit);
  return rule;
}

// carry'(V_h positions of rest) :- carry(body-instance rest) & a_ij — f_2.
Rule MakePhase2Rule(const SeparableRecursion& sep, const AnchorInfo& anchor,
                    size_t rule_index, const std::string& carry_name,
                    const std::string& out_name) {
  const Atom& body_t = sep.recursion.RecursiveBodyAtom(rule_index);
  const EquivalenceClass& ec = sep.classes[sep.class_of_rule[rule_index]];
  std::set<uint32_t> own(ec.positions.begin(), ec.positions.end());
  Rule rule;
  rule.head.predicate = out_name;
  for (uint32_t p : anchor.rest_positions) {
    rule.head.args.push_back(HeadVar(sep, p));
  }
  Atom carry;
  carry.predicate = carry_name;
  for (uint32_t p : anchor.rest_positions) {
    // Positions of this rule's own class advance (body-instance variable);
    // every other rest column passes through unchanged.
    carry.args.push_back(own.count(p) ? body_t.args[p] : HeadVar(sep, p));
  }
  rule.body.push_back(Literal::MakeAtom(std::move(carry)));
  for (Literal& lit : NonRecursiveLits(sep, rule_index)) {
    rule.body.push_back(std::move(lit));
  }
  return rule;
}

}  // namespace

// ---- Schema runner -------------------------------------------------------
// At namespace scope (not anonymous) for the same reason as AnchorInfo:
// PreparedSeparable::Impl owns one across executions.

class SchemaRunner {
 public:
  // The carry/seen scratch lives in a private overlay over `db`, so the
  // relation names need no uniquifying and die with the runner; the
  // synthetic rules read everything else through it.
  SchemaRunner(const SeparableRecursion& sep, AnchorInfo anchor,
               Database* db, const ParallelPolicy& policy,
               JoinOrderMode join_order = JoinOrderMode::kCostBased)
      : sep_(sep),
        anchor_(std::move(anchor)),
        scratch_(db),
        num_partitions_(policy.Enabled() ? policy.ResolvedThreads() : 1),
        min_rows_per_task_(policy.min_rows_per_task),
        join_order_(join_order) {}

  SchemaRunner(const SchemaRunner&) = delete;
  SchemaRunner& operator=(const SchemaRunner&) = delete;

  Status Compile() {
    const size_t w = anchor_.anchor_positions.size();
    const size_t rest = anchor_.rest_positions.size();
    SEPREC_ASSIGN_OR_RETURN(carry1_, scratch_.CreateRelation("$carry1", w));
    SEPREC_ASSIGN_OR_RETURN(seen1_, scratch_.CreateRelation("$seen1", w));
    SEPREC_ASSIGN_OR_RETURN(carry2_,
                            scratch_.CreateRelation("$carry2", rest));
    SEPREC_ASSIGN_OR_RETURN(seen2_, scratch_.CreateRelation("$seen2", rest));
    sink1_ = std::make_unique<ShardedSink>(w);
    sink2_ = std::make_unique<ShardedSink>(rest);
    sink1_->SetAccountant(&scratch_.accountant());
    sink2_->SetAccountant(&scratch_.accountant());
    if (num_partitions_ > 1) {
      for (size_t k = 0; k < num_partitions_; ++k) {
        SEPREC_ASSIGN_OR_RETURN(Relation * part,
                                scratch_.CreateRelation(PartName(k), rest));
        carry2_parts_.push_back(part);
      }
      phase2_part_plans_.resize(num_partitions_);
    }

    PlanOptions plan_opts;
    plan_opts.join_order = join_order_;
    if (anchor_.anchor_class.has_value()) {
      const EquivalenceClass& ec = sep_.classes[*anchor_.anchor_class];
      for (size_t r : ec.rule_indices) {
        Rule rule = MakePhase1Rule(sep_, anchor_, r, carry1_->name(), "$new1");
        phase1_labels_.push_back(rule.ToString());
        SEPREC_ASSIGN_OR_RETURN(RulePlan plan,
                                RulePlan::Compile(rule, &scratch_, plan_opts));
        phase1_plans_.push_back(std::move(plan));
      }
    }
    for (size_t e = 0; e < sep_.recursion.exit_rules.size(); ++e) {
      Rule rule = MakeExitRule(sep_, anchor_, e, seen1_->name(), "$init2");
      exit_labels_.push_back(rule.ToString());
      SEPREC_ASSIGN_OR_RETURN(RulePlan plan,
                              RulePlan::Compile(rule, &scratch_, plan_opts));
      exit_plans_.push_back(std::move(plan));
    }
    for (size_t r = 0; r < sep_.recursion.recursive_rules.size(); ++r) {
      if (anchor_.anchor_class.has_value() &&
          sep_.class_of_rule[r] == *anchor_.anchor_class) {
        continue;
      }
      Rule rule = MakePhase2Rule(sep_, anchor_, r, carry2_->name(), "$new2");
      phase2_labels_.push_back(rule.ToString());
      SEPREC_ASSIGN_OR_RETURN(RulePlan plan,
                              RulePlan::Compile(rule, &scratch_, plan_opts));
      phase2_plans_.push_back(std::move(plan));
      // Partition variants: the same rule reading partition k of carry_2.
      for (size_t k = 0; k < num_partitions_ && num_partitions_ > 1; ++k) {
        SEPREC_ASSIGN_OR_RETURN(
            RulePlan part_plan,
            RulePlan::Compile(
                MakePhase2Rule(sep_, anchor_, r, PartName(k), "$new2"),
                &scratch_, plan_opts));
        phase2_part_plans_[k].push_back(std::move(part_plan));
      }
    }
    return Status::OK();
  }

  // Runs the schema from `seeds` (each of width |anchor_positions|) and
  // appends the seen_2 rows (rest-position values) to `rest_rows`. Polls
  // `ctx` at every carry/seen round boundary; on a trip the phases stop
  // early and the seen_2 rows harvested so far are still emitted — every
  // one is a true tuple, so a truncated run yields a sound partial answer.
  //
  // `reuse`/`capture` implement the resumable phase 2 behind the closure
  // cache: with `reuse`, seen_1 is seeded from the cached closure instead
  // of the seeds and the phase-1 loop never runs (carry_1 stays empty);
  // with `capture`, a run whose phase-1 loop completed (drained carry_1
  // without a governor trip) copies seen_1 out for caching. Run leaves the
  // scratch relations and staging sinks empty.
  void Run(const std::vector<std::vector<Value>>& seeds,
           ExecutionContext* ctx, EvalStats* stats,
           std::vector<std::vector<Value>>* rest_rows,
           const Phase1Closure* reuse = nullptr,
           Phase1Closure* capture = nullptr) {
    size_t inserted = 0;
    size_t max_carry1 = 0;
    size_t max_carry2 = 0;
    size_t iterations = 0;

    // The sink attached to the governing context (one sink observes every
    // schema run of a query; round numbering restarts per run).
    TraceSink* trace = ctx->trace();
    const bool measuring = stats != nullptr || trace != nullptr;

    auto trace_round_start = [trace](const char* phase, size_t round,
                                     size_t delta) {
      if (trace == nullptr) return;
      TraceEvent e;
      e.kind = TraceEventKind::kRoundStart;
      e.engine = "separable";
      e.phase = phase;
      e.round = round;
      e.delta = delta;
      trace->Emit(e);
    };
    auto note_rule = [trace, stats](const char* phase, size_t round,
                                    const std::string& label,
                                    const RuleExecMetrics& m) {
      if (stats != nullptr) {
        stats->NoteRule(label, m.emitted, m.inserted, m.probes);
      }
      if (trace != nullptr && (m.emitted > 0 || m.probes > 0)) {
        TraceEvent e;
        e.kind = TraceEventKind::kRule;
        e.engine = "separable";
        e.phase = phase;
        e.round = round;
        e.rule = label;
        e.emitted = m.emitted;
        e.inserted = m.inserted;
        e.probes = m.probes;
        trace->Emit(e);
      }
    };
    auto round_finish = [trace, stats](const char* phase, size_t round,
                                       size_t emitted, size_t staged,
                                       size_t new_rows) {
      if (stats != nullptr) {
        stats->NoteRound(phase, round, emitted, new_rows);
      }
      if (trace == nullptr) return;
      TraceEvent merge;
      merge.kind = TraceEventKind::kMerge;
      merge.engine = "separable";
      merge.phase = phase;
      merge.round = round;
      merge.staged = staged;
      merge.inserted = new_rows;
      trace->Emit(merge);
      TraceEvent e;
      e.kind = TraceEventKind::kRoundEnd;
      e.engine = "separable";
      e.phase = phase;
      e.round = round;
      e.emitted = emitted;
      e.inserted = new_rows;
      e.delta = new_rows;
      trace->Emit(e);
    };

    if (reuse != nullptr) {
      // Resume from the cached closure: seen_1 is already complete, so
      // carry_1 stays empty and the phase-1 loop below is a no-op. The
      // closure rows still count as insertions (tuple budget included) —
      // a closure-hit run reports the work of materialising seen_1, just
      // not of deriving it.
      for (const std::vector<Value>& row : reuse->rows) {
        if (seen1_->Insert(Row(row.data(), row.size()))) ++inserted;
      }
    } else {
      for (const std::vector<Value>& seed : seeds) {
        Row row(seed.data(), seed.size());
        carry1_->Insert(row);
        if (seen1_->Insert(row)) ++inserted;
      }
    }
    ctx->NoteTuples(inserted);
    max_carry1 = carry1_->size();

    // Phase 1 (skipped for a persistent-column anchor). The sink's
    // canonical merge gives seen_1/carry_1 a deterministic slot order.
    if (anchor_.anchor_class.has_value()) {
      size_t round1 = 0;
      while (!carry1_->empty()) {
        ++iterations;
        if (ctx->NoteIterationAndCheck()) break;
        trace_round_start("phase1", round1, carry1_->size());
        size_t emitted = 0;
        for (size_t j = 0; j < phase1_plans_.size(); ++j) {
          RuleExecMetrics m;
          phase1_plans_[j].ExecuteInto(sink1_.get(), nullptr,
                                       measuring ? &m : nullptr);
          if (measuring) {
            emitted += m.emitted;
            note_rule("phase1", round1, phase1_labels_[j], m);
          }
        }
        carry1_->Clear();
        size_t staged = 0;
        size_t round = sink1_->MergeInto(seen1_, carry1_,
                                         measuring ? &staged : nullptr);
        inserted += round;
        ctx->NoteTuples(round);
        max_carry1 = std::max(max_carry1, carry1_->size());
        round_finish("phase1", round1, emitted, staged, round);
        ++round1;
      }
    }

    // A persistent-column anchor has no phase-1 loop at all, so its seed
    // rows legitimately remain in carry_1; only a class anchor's loop must
    // have drained for seen_1 to be complete.
    const bool phase1_complete =
        anchor_.anchor_class.has_value() ? carry1_->empty() : true;
    if (capture != nullptr && phase1_complete && !ctx->stopped()) {
      // Phase 1 completed without a trip: seen_1 is the complete closure
      // of the anchor class under the selection (trivially {seeds} for a
      // persistent-column anchor). An interrupted loop leaves carry_1
      // non-empty or a latched stop cause, so incomplete closures are
      // never handed out for caching.
      capture->rows.clear();
      capture->rows.reserve(seen1_->size());
      seen1_->ForEachRow([capture](Row row) {
        capture->rows.emplace_back(row.begin(), row.end());
      });
    }

    // Phase 2 initialisation: carry_2 := g_2(seen_1).
    trace_round_start("exit", 0, seen1_->size());
    size_t exit_emitted = 0;
    for (size_t j = 0; j < exit_plans_.size(); ++j) {
      RuleExecMetrics m;
      exit_plans_[j].ExecuteInto(sink2_.get(), nullptr,
                                 measuring ? &m : nullptr);
      if (measuring) {
        exit_emitted += m.emitted;
        note_rule("exit", 0, exit_labels_[j], m);
      }
    }
    carry2_->Clear();
    size_t exit_staged = 0;
    size_t init2 =
        sink2_->MergeInto(seen2_, carry2_, measuring ? &exit_staged : nullptr);
    inserted += init2;
    ctx->NoteTuples(init2);
    max_carry2 = carry2_->size();
    round_finish("exit", 0, exit_emitted, exit_staged, init2);

    if (!phase2_plans_.empty()) {
      size_t round2 = 0;
      while (!carry2_->empty()) {
        ++iterations;
        if (ctx->NoteIterationAndCheck()) break;
        trace_round_start("phase2", round2, carry2_->size());
        size_t emitted = 0;
        if (num_partitions_ > 1 && carry2_->size() >= min_rows_per_task_) {
          // Parallel round: split carry_2 over the partition relations by
          // row hash and run each partition's plan variants as one worker
          // task. Workers poll the governor between plans, so deadlines,
          // cancellation, and byte budgets trip mid-round; whatever was
          // staged is still merged — a sound partial answer.
          for (Relation* part : carry2_parts_) part->Clear();
          const size_t P = num_partitions_;
          carry2_->ForEachRow([this, P](Row r) {
            carry2_parts_[HashRow(r) % P]->Insert(r);
          });
          if (trace != nullptr) {
            TraceEvent e;
            e.kind = TraceEventKind::kParallelRound;
            e.engine = "separable";
            e.phase = "phase2";
            e.round = round2;
            e.partitions = P;
            e.threads = P;
            e.queue_depth = ThreadPool::Shared()->QueueDepth();
            trace->Emit(e);
          }
          // Worker-private metric slots, summed after the join so per-rule
          // emitted totals match a serial round exactly.
          const size_t num_plans = phase2_plans_.size();
          std::vector<std::vector<RuleExecMetrics>> part_metrics;
          if (measuring) {
            part_metrics.assign(P, std::vector<RuleExecMetrics>(num_plans));
          }
          ThreadPool::Shared()->ParallelFor(
              P, P, [this, ctx, measuring, &part_metrics](size_t k) {
                const std::vector<RulePlan>& plans = phase2_part_plans_[k];
                for (size_t j = 0; j < plans.size(); ++j) {
                  if (ctx->ShouldStop()) break;
                  plans[j].ExecuteInto(
                      sink2_.get(), nullptr,
                      measuring ? &part_metrics[k][j] : nullptr);
                }
              });
          if (measuring) {
            for (size_t j = 0; j < num_plans; ++j) {
              RuleExecMetrics sum;
              for (size_t k = 0; k < P; ++k) {
                sum.emitted += part_metrics[k][j].emitted;
                sum.inserted += part_metrics[k][j].inserted;
                sum.probes += part_metrics[k][j].probes;
              }
              emitted += sum.emitted;
              note_rule("phase2", round2, phase2_labels_[j], sum);
            }
          }
        } else {
          for (size_t j = 0; j < phase2_plans_.size(); ++j) {
            RuleExecMetrics m;
            phase2_plans_[j].ExecuteInto(sink2_.get(), nullptr,
                                         measuring ? &m : nullptr);
            if (measuring) {
              emitted += m.emitted;
              note_rule("phase2", round2, phase2_labels_[j], m);
            }
          }
        }
        carry2_->Clear();
        size_t staged = 0;
        size_t round = sink2_->MergeInto(seen2_, carry2_,
                                         measuring ? &staged : nullptr);
        inserted += round;
        ctx->NoteTuples(round);
        max_carry2 = std::max(max_carry2, carry2_->size());
        round_finish("phase2", round2, emitted, staged, round);
        ++round2;
      }
    }

    for (size_t i = 0; i < seen2_->size(); ++i) {
      Row row = seen2_->row(i);
      rest_rows->emplace_back(row.begin(), row.end());
    }

    if (stats != nullptr) {
      stats->iterations += iterations;
      stats->tuples_inserted += inserted;
      stats->NoteRelationMax("carry_1", max_carry1);
      stats->NoteRelationMax("seen_1", seen1_->size());
      stats->NoteRelationMax("carry_2", max_carry2);
      stats->NoteRelationMax("seen_2", seen2_->size());
      stats->NoteRelationMax("ans", seen2_->size());
    }
    scratch_.ClearLocal(/*reload=*/false);
    sink1_->Clear();
    sink2_->Clear();
  }

  const AnchorInfo& anchor() const { return anchor_; }

 private:
  const SeparableRecursion& sep_;
  AnchorInfo anchor_;
  Database scratch_;
  Relation* carry1_ = nullptr;
  Relation* seen1_ = nullptr;
  Relation* carry2_ = nullptr;
  Relation* seen2_ = nullptr;
  std::unique_ptr<ShardedSink> sink1_;
  std::unique_ptr<ShardedSink> sink2_;
  std::vector<RulePlan> phase1_plans_;
  std::vector<RulePlan> exit_plans_;
  std::vector<RulePlan> phase2_plans_;
  // Synthetic-rule source text, parallel to the plan vectors — the stable
  // keys of EvalStats::rule_stats and trace rule events.
  std::vector<std::string> phase1_labels_;
  std::vector<std::string> exit_labels_;
  std::vector<std::string> phase2_labels_;
  // Parallel phase 2 (only when num_partitions_ > 1): partition k of
  // carry_2 plus, for every phase-2 rule, a plan variant whose carry atom
  // reads that partition. Each partition runs as an independent worker
  // task — Theorem 2.1 makes the phase-2 classes independent, so tasks
  // share only read-only relations and the concurrent sink.
  size_t num_partitions_;
  size_t min_rows_per_task_;
  JoinOrderMode join_order_;
  std::vector<Relation*> carry2_parts_;
  std::vector<std::vector<RulePlan>> phase2_part_plans_;

  static std::string PartName(size_t k) { return StrCat("$part", k); }
};

namespace {

// Assembles a full-arity answer row from anchor values and rest values and
// adds it to `answer` if it matches the query (extra constants outside the
// anchor and repeated query variables become post-filters).
void EmitAnswer(const AnchorInfo& anchor, Row anchor_values, Row rest_values,
                const Atom& query,
                const std::vector<std::optional<Value>>& query_constants,
                Answer* answer) {
  std::vector<Value> full(query.arity());
  for (size_t i = 0; i < anchor.anchor_positions.size(); ++i) {
    full[anchor.anchor_positions[i]] = anchor_values[i];
  }
  for (size_t i = 0; i < anchor.rest_positions.size(); ++i) {
    full[anchor.rest_positions[i]] = rest_values[i];
  }
  Row row(full.data(), full.size());
  if (RowMatchesQuery(row, query, query_constants)) {
    answer->Add(row);
  }
}

// Answers one full selection with a compiled schema: seeds phase 1 with the
// query's anchor constants (already interned), runs the Figure-2 schema and
// adds the matching answers to `result`. `reuse`/`capture` as in
// SchemaRunner::Run.
void RunFullSelection(SchemaRunner* runner, const Atom& query, Database* db,
                      ExecutionContext* ctx, SeparableRunResult* result,
                      const Phase1Closure* reuse = nullptr,
                      Phase1Closure* capture = nullptr) {
  bool resolvable = false;
  std::vector<std::optional<Value>> query_constants =
      ResolveConstants(query, db->symbols(), &resolvable);
  SEPREC_CHECK(resolvable);  // the entry points intern every constant

  const AnchorInfo& anchor = runner->anchor();
  std::vector<Value> seed;
  seed.reserve(anchor.anchor_positions.size());
  for (uint32_t p : anchor.anchor_positions) {
    seed.push_back(*query_constants[p]);
  }
  std::vector<std::vector<Value>> rest_rows;
  runner->Run({seed}, ctx, &result->stats, &rest_rows, reuse, capture);
  ++result->schema_runs;
  for (const std::vector<Value>& rest : rest_rows) {
    EmitAnswer(anchor, Row(seed.data(), seed.size()),
               Row(rest.data(), rest.size()), query, query_constants,
               &result->answer);
  }
}

// Forward declaration for the partial-selection driver's recursion (the
// t_part branch is itself a full selection on a reduced recursion).
Status EvaluateSelection(const Program& program, const SeparableRecursion& sep,
                         const Atom& query, Database* db,
                         ExecutionContext* ctx, JoinOrderMode join_order,
                         SeparableRunResult* result);

// Lemma 2.1: evaluate a partial selection as a union of full selections.
Status EvaluatePartial(const Program& program, const SeparableRecursion& sep,
                       const Atom& query, Database* db, ExecutionContext* ctx,
                       JoinOrderMode join_order, SeparableRunResult* result) {
  result->used_partial_rewrite = true;
  std::vector<bool> bound = BoundPositions(query);

  // Pick e1: a class bound on a proper nonempty subset of its columns.
  std::optional<size_t> e1;
  for (size_t c = 0; c < sep.classes.size() && !e1.has_value(); ++c) {
    size_t hits = 0;
    for (uint32_t p : sep.classes[c].positions) {
      if (bound[p]) ++hits;
    }
    if (hits > 0 && hits < sep.classes[c].positions.size()) e1 = c;
  }
  SEPREC_CHECK(e1.has_value());

  // Branch A: t_part — the recursion without e1; the selection constants
  // now sit in persistent columns, a full selection.
  SeparableRecursion part = RemoveClass(sep, *e1);
  SEPREC_RETURN_IF_ERROR(
      EvaluateSelection(program, part, query, db, ctx, join_order, result));

  // Branch B: t :- t_full & a_1j for each rule of e1 — sideways
  // information passing through a_1j binds all of e1's columns, yielding
  // full selections on the original recursion.
  const EquivalenceClass& ec = sep.classes[*e1];
  bool resolvable = false;
  std::vector<std::optional<Value>> query_constants =
      ResolveConstants(query, db->symbols(), &resolvable);
  SEPREC_CHECK(resolvable);  // driver interned all query constants

  AnchorInfo full_anchor;
  full_anchor.anchor_class = *e1;
  full_anchor.anchor_positions = ec.positions;
  for (uint32_t p = 0; p < sep.arity(); ++p) {
    if (std::find(ec.positions.begin(), ec.positions.end(), p) ==
        ec.positions.end()) {
      full_anchor.rest_positions.push_back(p);
    }
  }
  SchemaRunner runner(sep, full_anchor, db, ctx->limits().parallel,
                      join_order);
  SEPREC_RETURN_IF_ERROR(runner.Compile());

  // Seed bindings: evaluate each e1 rule's nonrecursive body with the
  // query constants substituted, collecting (head e1 values, body-instance
  // e1 values) pairs.
  const size_t w = ec.positions.size();
  std::map<std::vector<Value>, std::set<std::vector<Value>>> seeds_to_heads;
  Substitution constant_sub;
  for (uint32_t p = 0; p < sep.arity(); ++p) {
    if (bound[p]) {
      constant_sub[sep.recursion.head_vars[p]] = query.args[p];
    }
  }
  for (size_t r : ec.rule_indices) {
    const Atom& body_t = sep.recursion.RecursiveBodyAtom(r);
    Rule binding_rule;
    binding_rule.head.predicate = "$bindings";
    for (uint32_t p : ec.positions) {
      binding_rule.head.args.push_back(HeadVar(sep, p));
    }
    for (uint32_t p : ec.positions) {
      binding_rule.head.args.push_back(body_t.args[p]);
    }
    binding_rule.body = NonRecursiveLits(sep, r);
    binding_rule = Substitute(binding_rule, constant_sub);
    PlanOptions binding_opts;
    binding_opts.join_order = join_order;
    SEPREC_ASSIGN_OR_RETURN(RulePlan plan,
                            RulePlan::Compile(binding_rule, db, binding_opts));
    Relation bindings("$bindings", 2 * w);
    plan.ExecuteInto(&bindings);
    result->stats.NoteRelationMax("bindings", bindings.size());
    for (size_t i = 0; i < bindings.size(); ++i) {
      Row row = bindings.row(i);
      std::vector<Value> head_vals(row.begin(), row.begin() + w);
      std::vector<Value> seed_vals(row.begin() + w, row.end());
      seeds_to_heads[std::move(seed_vals)].insert(std::move(head_vals));
    }
  }

  // One full-selection schema run per distinct seed. Rows already harvested
  // stay in the answer when a limit trips mid-union — each branch emits
  // only true tuples, so stopping between branches keeps the answer sound.
  for (const auto& [seed, heads] : seeds_to_heads) {
    if (ctx->ShouldStop()) break;
    std::vector<std::vector<Value>> rest_rows;
    runner.Run({seed}, ctx, &result->stats, &rest_rows);
    ++result->schema_runs;
    for (const std::vector<Value>& head_vals : heads) {
      for (const std::vector<Value>& rest : rest_rows) {
        EmitAnswer(full_anchor, Row(head_vals.data(), head_vals.size()),
                   Row(rest.data(), rest.size()), query, query_constants,
                   &result->answer);
      }
    }
  }
  return Status::OK();
}

Status EvaluateSelection(const Program& program, const SeparableRecursion& sep,
                         const Atom& query, Database* db,
                         ExecutionContext* ctx, JoinOrderMode join_order,
                         SeparableRunResult* result) {
  std::vector<bool> bound = BoundPositions(query);
  std::optional<AnchorInfo> anchor = FindAnchor(sep, bound);
  if (!anchor.has_value()) {
    return EvaluatePartial(program, sep, query, db, ctx, join_order, result);
  }

  SchemaRunner runner(sep, *std::move(anchor), db, ctx->limits().parallel,
                      join_order);
  SEPREC_RETURN_IF_ERROR(runner.Compile());
  RunFullSelection(&runner, query, db, ctx, result);
  return Status::OK();
}

// The engine run both separable entry points share: interns the query
// constants (a fresh symbol simply matches nothing), materialises the
// support predicates of `program`, then lets `evaluate` answer the
// selection under the run's governor context.
template <typename Evaluate>
StatusOr<SeparableRunResult> RunSeparable(const Program& program,
                                          std::string_view predicate,
                                          const Atom& query, Database* db,
                                          const FixpointOptions& options,
                                          Evaluate evaluate) {
  SeparableRunResult result;
  EngineRun run("separable", options, db);
  run.span().CountFrom(&result.stats);
  result.answer = Answer(query.arity());
  result.stats.algorithm = "separable";
  for (const Term& arg : query.args) {
    if (arg.kind == Term::Kind::kSymbol) db->symbols().Intern(arg.name);
  }
  SEPREC_RETURN_IF_ERROR(MaterializeSupport(program, predicate, db,
                                            run.options(), &result.stats));
  SEPREC_RETURN_IF_ERROR(evaluate(run.ctx(), &result));
  result.stats.seconds = run.span().Seconds();
  SEPREC_RETURN_IF_ERROR(run.ExitStatus());
  return result;
}

}  // namespace

SelectionKind ClassifySelection(const SeparableRecursion& sep,
                                const Atom& query) {
  std::vector<bool> bound = BoundPositions(query);
  bool any = false;
  for (bool b : bound) any = any || b;
  if (!any) return SelectionKind::kNoConstants;
  return FindAnchor(sep, bound).has_value() ? SelectionKind::kFull
                                            : SelectionKind::kPartial;
}

StatusOr<SeparableRunResult> EvaluateWithSeparable(
    const Program& program, const SeparableRecursion& sep, const Atom& query,
    Database* db, const FixpointOptions& options) {
  if (query.arity() != sep.arity() || query.predicate != sep.predicate()) {
    return InvalidArgumentError(
        StrCat("query ", query.ToString(), " does not match recursion '",
               sep.predicate(), "'/", sep.arity()));
  }
  if (ClassifySelection(sep, query) == SelectionKind::kNoConstants) {
    return InvalidArgumentError(
        "the Separable algorithm requires a selection constant");
  }

  const JoinOrderMode join_order =
      options.no_cbo ? JoinOrderMode::kTextual : JoinOrderMode::kCostBased;
  return RunSeparable(
      program, sep.predicate(), query, db, options,
      [&](ExecutionContext* ctx, SeparableRunResult* result) {
        return EvaluateSelection(program, sep, query, db, ctx, join_order,
                                 result);
      });
}

StatusOr<SeparableRunResult> EvaluateWithSeparable(
    const Program& program, const Atom& query, Database* db,
    const FixpointOptions& options) {
  SEPREC_ASSIGN_OR_RETURN(SeparableRecursion sep,
                          AnalyzeSeparable(program, query.predicate));
  return EvaluateWithSeparable(program, sep, query, db, options);
}

// ---- PreparedSeparable ---------------------------------------------------

struct PreparedSeparable::Impl {
  explicit Impl(Database* base) : db(base) {}

  // Own copies: a prepared query outlives the request (and possibly the
  // QueryProcessor) that compiled it.
  Program program;
  SeparableRecursion sep;
  std::vector<bool> bound;  // the compiled selection shape
  // The program's IDB and support relations, in a private overlay over
  // the database Compile was given.
  Database db;
  // Declared after `db`: its plans bind relations there, so it goes first.
  std::unique_ptr<SchemaRunner> runner;
};

PreparedSeparable::PreparedSeparable(std::unique_ptr<Impl> impl)
    : impl_(std::move(impl)) {}

PreparedSeparable::~PreparedSeparable() = default;

StatusOr<std::unique_ptr<PreparedSeparable>> PreparedSeparable::Compile(
    const Program& program, const SeparableRecursion& sep, const Atom& query,
    Database* db, const ParallelPolicy& policy) {
  if (query.arity() != sep.arity() || query.predicate != sep.predicate()) {
    return InvalidArgumentError(
        StrCat("query ", query.ToString(), " does not match recursion '",
               sep.predicate(), "'/", sep.arity()));
  }
  std::vector<bool> bound = BoundPositions(query);
  std::optional<AnchorInfo> anchor = FindAnchor(sep, bound);
  if (!anchor.has_value()) {
    return InvalidArgumentError(
        StrCat("selection ", query.ToString(),
               " is not full: only full selections compile to a reusable "
               "schema (partial selections re-derive their Lemma 2.1 "
               "branches per request)"));
  }
  auto impl = std::make_unique<Impl>(db);
  impl->program = program;
  impl->sep = sep;
  impl->bound = std::move(bound);
  // Rule plans bind concrete relations, so the program's IDB predicates
  // must exist before compilation — empty is fine, Execute materialises
  // them per run.
  for (const Rule& rule : program.rules) {
    SEPREC_RETURN_IF_ERROR(
        impl->db.CreateRelation(rule.head.predicate, rule.head.arity())
            .status());
  }
  // The runner references impl->sep (not the caller's `sep`), which lives
  // exactly as long as the runner does.
  impl->runner = std::make_unique<SchemaRunner>(impl->sep, *std::move(anchor),
                                                &impl->db, policy);
  SEPREC_RETURN_IF_ERROR(impl->runner->Compile());
  return std::unique_ptr<PreparedSeparable>(
      new PreparedSeparable(std::move(impl)));
}

bool PreparedSeparable::Matches(const Atom& query) const {
  if (query.predicate != impl_->sep.predicate() ||
      query.arity() != impl_->sep.arity()) {
    return false;
  }
  return BoundPositions(query) == impl_->bound;
}

ClosureMaintenance PreparedSeparable::MaintenanceFor(
    const Atom& query) const {
  ClosureMaintenance out;
  if (!Matches(query)) return out;  // kNone
  const AnchorInfo& anchor = impl_->runner->anchor();
  SymbolTable& symbols = impl_->db.symbols();
  for (const Term& arg : query.args) {
    if (arg.kind == Term::Kind::kSymbol) symbols.Intern(arg.name);
  }
  bool resolvable = false;
  std::vector<std::optional<Value>> query_constants =
      ResolveConstants(query, symbols, &resolvable);
  if (!resolvable) return out;
  for (uint32_t p : anchor.anchor_positions) {
    out.seed_row.push_back(*query_constants[p]);
  }
  if (!anchor.anchor_class.has_value()) {
    // Dummy equivalence class: seen_1 is exactly {seed_row}, whatever the
    // data says.
    out.kind = ClosureMaintainability::kConstant;
    return out;
  }

  // IDB predicates of the program: a phase-1 body reading one of them (a
  // materialised support predicate) sees derived tuples the closure
  // program below would not maintain.
  std::set<std::string> idb;
  for (const Rule& rule : impl_->program.rules) {
    idb.insert(rule.head.predicate);
  }
  const EquivalenceClass& ec = impl_->sep.classes[*anchor.anchor_class];
  std::set<std::string> bases;
  for (size_t r : ec.rule_indices) {
    for (const Literal& lit : NonRecursiveLits(impl_->sep, r)) {
      // Non-atom literals (comparisons) are data-independent filters.
      if (lit.kind != Literal::Kind::kAtom) continue;
      if (lit.negated || idb.count(lit.atom.predicate)) {
        return out;  // kNone
      }
      bases.insert(lit.atom.predicate);
    }
  }

  // seen_1 as a least fixpoint: seed rule plus one MakePhase1Rule per
  // anchor-class rule with the closure relation as both carry and output.
  const size_t w = anchor.anchor_positions.size();
  const std::string closure_name(ClosureMaintenance::kClosureName);
  Rule seed_rule;
  seed_rule.head.predicate = closure_name;
  Atom seed_atom;
  seed_atom.predicate = std::string(ClosureMaintenance::kSeedName);
  for (size_t i = 0; i < w; ++i) {
    Term v = Term::Var(StrCat("S", i));
    seed_rule.head.args.push_back(v);
    seed_atom.args.push_back(v);
  }
  seed_rule.body.push_back(Literal::MakeAtom(std::move(seed_atom)));
  out.program.rules.push_back(std::move(seed_rule));
  for (size_t r : ec.rule_indices) {
    out.program.rules.push_back(
        MakePhase1Rule(impl_->sep, anchor, r, closure_name, closure_name));
  }
  out.base_relations.assign(bases.begin(), bases.end());
  out.kind = ClosureMaintainability::kMaintainable;
  return out;
}

StatusOr<SeparableRunResult> PreparedSeparable::Execute(
    const Atom& query, const FixpointOptions& options,
    const Phase1Closure* reuse, Phase1Closure* capture) {
  if (!Matches(query)) {
    return InvalidArgumentError(
        StrCat("query ", query.ToString(),
               " does not match the prepared selection shape"));
  }
  // Stale support rows would survive an EDB delete: start from the base.
  Database* db = &impl_->db;
  db->ClearLocal(/*reload=*/true);
  StatusOr<SeparableRunResult> result = RunSeparable(
      impl_->program, impl_->sep.predicate(), query, db, options,
      [&](ExecutionContext* ctx, SeparableRunResult* out) {
        RunFullSelection(impl_->runner.get(), query, db, ctx, out, reuse,
                         capture);
        return Status::OK();
      });
  // No derived row outlives the request.
  db->ClearLocal(/*reload=*/false);
  return result;
}

StatusOr<std::string> ExplainSchema(const SeparableRecursion& sep,
                                    const Atom& query) {
  std::vector<bool> bound = BoundPositions(query);
  bool any = false;
  for (bool b : bound) any = any || b;
  if (!any) {
    return InvalidArgumentError("query has no selection constant");
  }
  std::optional<AnchorInfo> anchor = FindAnchor(sep, bound);
  if (!anchor.has_value()) {
    return InvalidArgumentError(
        "partial selection: rewrite with Lemma 2.1 first");
  }

  auto rule_rhs = [](const Rule& rule) {
    std::string out;
    for (size_t i = 0; i < rule.body.size(); ++i) {
      if (i > 0) out += " & ";
      out += rule.body[i].ToString();
    }
    return out;
  };

  std::string text;
  std::string seeds;
  for (uint32_t p : anchor->anchor_positions) {
    if (!seeds.empty()) seeds += ", ";
    seeds += query.args[p].ToString();
  }

  if (anchor->anchor_class.has_value()) {
    text += StrCat("carry_1(", seeds, ");\n");
    text += "seen_1 := carry_1;\n";
    text += "while carry_1 not empty do\n";
    const EquivalenceClass& ec = sep.classes[*anchor->anchor_class];
    std::string update;
    for (size_t r : ec.rule_indices) {
      Rule rule = MakePhase1Rule(sep, *anchor, r, "carry_1", "carry_1");
      if (!update.empty()) update += "\n             \\cup ";
      update += StrCat(rule.head.ToString(), " := ", rule_rhs(rule));
    }
    text += StrCat("  ", update, ";\n");
    text += "  carry_1 := carry_1 - seen_1;\n";
    text += "  seen_1 := seen_1 \\cup carry_1;\nendwhile;\n";
  } else {
    text += StrCat("seen_1(", seeds, ");   % selection constants are in "
                   "t|pers: dummy equivalence class\n");
  }

  for (size_t e = 0; e < sep.recursion.exit_rules.size(); ++e) {
    Rule rule = MakeExitRule(sep, *anchor, e, "seen_1", "carry_2");
    text += StrCat(rule.head.ToString(), " := ", rule_rhs(rule), ";\n");
  }
  text += "seen_2 := carry_2;\n";

  bool any_phase2 = false;
  std::string update2;
  for (size_t r = 0; r < sep.recursion.recursive_rules.size(); ++r) {
    if (anchor->anchor_class.has_value() &&
        sep.class_of_rule[r] == *anchor->anchor_class) {
      continue;
    }
    any_phase2 = true;
    Rule rule = MakePhase2Rule(sep, *anchor, r, "carry_2", "carry_2");
    if (!update2.empty()) update2 += "\n             \\cup ";
    update2 += StrCat(rule.head.ToString(), " := ", rule_rhs(rule));
  }
  if (any_phase2) {
    text += "while carry_2 not empty do\n";
    text += StrCat("  ", update2, ";\n");
    text += "  carry_2 := carry_2 - seen_2;\n";
    text += "  seen_2 := seen_2 \\cup carry_2;\nendwhile;\n";
  }
  std::string ans_args;
  for (uint32_t p : anchor->rest_positions) {
    if (!ans_args.empty()) ans_args += ", ";
    ans_args += sep.recursion.head_vars[p];
  }
  text += StrCat("ans(", ans_args, ") := seen_2(", ans_args, ");\n");
  return text;
}

}  // namespace seprec
