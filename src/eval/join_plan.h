// RulePlan: a Datalog rule compiled into an index-join pipeline.
//
// Compilation orders the positive body atoms with the cost-based DP
// planner (plan/planner.h) by default, falling back to the legacy greedy
// heuristic (most-bound relational literal first) for bodies the DP
// declines; built-ins schedule as soon as their inputs are available
// either way. Constants are resolved against the database symbol table
// and each relational literal binds to a concrete Relation. Execution
// enumerates all satisfying bindings with nested index lookups and emits
// head tuples.
//
// Plans are compiled once and re-executed many times; the fixpoint engines
// rely on `relation_overrides` to point individual body literals at delta /
// carry relations.
#ifndef SEPREC_EVAL_JOIN_PLAN_H_
#define SEPREC_EVAL_JOIN_PLAN_H_

#include <map>
#include <string>
#include <vector>

#include "datalog/ast.h"
#include "plan/planner.h"
#include "storage/database.h"
#include "storage/relation.h"
#include "util/status.h"

namespace seprec {

struct PlanOptions {
  // body literal index -> relation name to scan instead of the literal's
  // predicate (the literal's shape/arity still comes from the AST).
  std::map<size_t, std::string> relation_overrides;

  // Ablation: compile every relational access as a full scan with
  // post-filters instead of an indexed probe (tab_ablation bench).
  bool disable_indexes = false;

  // How to order the positive body atoms (see plan/planner.h). The
  // default runs the DP planner against the database's StatsCatalog;
  // kTextual is the --no-cbo ablation.
  JoinOrderMode join_order = JoinOrderMode::kCostBased;

  // Let the planner choose a merge join over ordered (segment-backed)
  // relations; false forces the pure hash pipeline (the ablation
  // bench/micro_segment and segment_test compare merge against).
  bool allow_merge = true;
};

// Work counters for plan executions, accumulated (+=) so one object can
// sum a plan across rounds or delta partitions. `probes` counts candidate
// rows examined by scan steps (index hits plus full-scan rows), `emitted`
// head tuples produced (duplicates included), `inserted` rows new in the
// target.
struct RuleExecMetrics {
  size_t emitted = 0;
  size_t inserted = 0;
  size_t probes = 0;
};

// Where a runtime value comes from: a constant or a variable slot.
struct ValueSource {
  bool is_const = false;
  Value constant;      // when is_const
  uint32_t slot = 0;   // when !is_const

  static ValueSource Const(Value v) {
    ValueSource s;
    s.is_const = true;
    s.constant = v;
    return s;
  }
  static ValueSource Slot(uint32_t slot) {
    ValueSource s;
    s.slot = slot;
    return s;
  }
};

// Postfix arithmetic program for 'is' literals.
struct ExprOp {
  enum class Kind { kPush, kAdd, kSub, kMul, kDiv, kMod };
  Kind kind = Kind::kPush;
  ValueSource source;  // for kPush
};

class RulePlan {
 public:
  static StatusOr<RulePlan> Compile(const Rule& rule, Database* db,
                                    const PlanOptions& options = {});

  // Runs the plan, inserting emitted head tuples into `out` (arity must
  // match the head; `out` must not be one of the scanned relations).
  // Returns the number of rows that were new in `out`.
  // Sets *overflow if an arithmetic evaluation overflowed (those
  // derivations are dropped). When `metrics` is non-null, this execution's
  // work counters are accumulated into it.
  size_t ExecuteInto(Relation* out, bool* overflow = nullptr,
                     RuleExecMetrics* metrics = nullptr) const;

  // Same pipeline, emitting into a concurrent staging sink instead of a
  // relation. Safe to run from several pool workers at once as long as
  // the scanned relations are not mutated meanwhile (const here; the
  // lazy index build is internally serialised). Returns the number of
  // rows new in `out`.
  size_t ExecuteInto(ShardedSink* out, bool* overflow = nullptr,
                     RuleExecMetrics* metrics = nullptr) const;

  // Number of head emissions without materialising (counts duplicates).
  size_t CountDerivations() const;

  const Rule& rule() const { return rule_; }

  // The planner's verdict for this body: chosen atom order, estimated
  // cost/cardinality, and which mode produced it ("cbo", "cbo-fallback",
  // "greedy", "textual").
  const PlannedBody& plan_info() const { return plan_info_; }

  // Human-readable step listing for EXPLAIN output and tests.
  std::string DebugString() const;

 private:
  struct Step {
    enum class Kind { kScan, kCompare, kBindEq, kAssign, kMergeJoin };
    Kind kind = Kind::kScan;

    // kScan ---------------------------------------------------------------
    const Relation* relation = nullptr;
    std::string display_name;             // for DebugString
    // Anti-join: succeed iff NO row matches (all variables are bound
    // before a negated scan runs, so actions are checks only).
    bool negated = false;
    ColumnList probe_cols;                // columns constrained by the key
    std::vector<ValueSource> probe_sources;  // parallel to probe_cols
    struct RowAction {
      enum class Kind { kBind, kCheckSlot, kCheckConst };
      uint32_t col = 0;
      Kind kind = Kind::kBind;
      uint32_t slot = 0;   // kBind / kCheckSlot
      Value constant;      // kCheckConst
    };
    std::vector<RowAction> actions;

    // kMergeJoin ----------------------------------------------------------
    // Joins `relation` (left) with `merge_right` on the first
    // `merge_key_len` columns of each, walking both in canonical raw-bits
    // order via OrderedCursor. `actions` binds/checks left columns;
    // `merge_right_actions` binds/checks right columns >= merge_key_len
    // (the key columns are shared, so the left bindings cover them).
    const Relation* merge_right = nullptr;
    std::string merge_right_name;
    size_t merge_key_len = 0;
    std::vector<RowAction> merge_right_actions;

    // kCompare ------------------------------------------------------------
    CmpOp cmp_op = CmpOp::kEq;
    ValueSource lhs;
    ValueSource rhs;

    // kBindEq (X = <bound source>) and kAssign (X is <expr>) --------------
    uint32_t target_slot = 0;
    ValueSource bind_source;     // kBindEq
    std::vector<ExprOp> expr;    // kAssign
    bool assign_is_check = false;  // target already bound: verify instead

    std::string slot_comment;  // variable names, for DebugString
  };

  struct ExecContext;

  RulePlan() = default;

  template <typename Sink>
  void Run(Sink&& sink, bool* overflow, size_t* probes = nullptr) const;
  template <typename Sink>
  void RunStep(size_t step_index, ExecContext* ctx, Sink&& sink) const;

  static bool EvalCompare(CmpOp op, Value a, Value b);

  Rule rule_;
  PlannedBody plan_info_;
  std::vector<Step> steps_;
  std::vector<ValueSource> head_sources_;
  uint32_t num_slots_ = 0;
  std::vector<std::string> slot_names_;
  std::vector<const Relation*> scanned_;
};

}  // namespace seprec

#endif  // SEPREC_EVAL_JOIN_PLAN_H_
