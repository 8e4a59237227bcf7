// Bottom-up fixpoint engines: naive and semi-naive evaluation.
//
// Both materialise every IDB predicate of the program into the database,
// stratum by stratum (SCCs of the dependency graph in topological order).
// Semi-naive is the library's generic baseline evaluator — the same
// strategy a general Datalog engine (e.g. Soufflé) applies to programs it
// has no specialised algorithm for — and it is also the machinery that runs
// the Magic Sets and Counting rewrites.
#ifndef SEPREC_EVAL_FIXPOINT_H_
#define SEPREC_EVAL_FIXPOINT_H_

#include <cstddef>
#include <string>
#include <string_view>

#include "core/governor.h"
#include "datalog/ast.h"
#include "eval/eval_stats.h"
#include "eval/trace.h"
#include "storage/database.h"
#include "util/status.h"

namespace seprec {

struct FixpointOptions {
  // Resource bounds (iterations, tuples, bytes, wall clock) enforced at
  // every loop boundary; see core/governor.h. Iteration and tuple counts
  // are summed across strata and sub-evaluations of one entry-point call.
  // Guards non-terminating rewrites (e.g. Counting over cyclic data).
  ExecutionLimits limits;

  // Optional cooperative cancellation, observed between rounds.
  CancellationToken* cancel = nullptr;

  // When set, the caller owns stop handling: the engine polls this context,
  // stops cleanly at the first tripped limit, and returns OK with whatever
  // it materialised so far (the caller inspects context->stopped() and
  // rolls back or reports a partial result — see QueryProcessor::Answer).
  // When null, the engine runs a private context and converts a trip into
  // RESOURCE_EXHAUSTED / CANCELLED, leaving the partially materialised
  // relations in `db` — the historical contract for direct engine calls.
  ExecutionContext* context = nullptr;

  // Ablation: compile rule plans without index probes (full scans with
  // post-filters). See PlanOptions::disable_indexes.
  bool disable_indexes = false;

  // Ablation: skip the cost-based planner and scan the positive body
  // atoms in textual (source) order. See PlanOptions::join_order and the
  // --no-cbo CLI flag.
  bool no_cbo = false;

  // Optional event sink (see eval/trace.h). Each engine run reports to it
  // through its EngineRun's span, and nested engines receive a copy of the
  // options, so one sink observes the whole query. Null (the default)
  // disables tracing; the enabled path adds per-round and per-rule
  // bookkeeping, the disabled path a branch per round.
  TraceSink* trace = nullptr;

  // Prefixed onto the phase label of nested fixpoint rounds so rewrite
  // engines ("magic/", "counting/", "support/") stay distinguishable in a
  // combined trace.
  std::string trace_phase_prefix;
};

// The setup every engine entry point shares: it adopts the caller's
// governor context or owns one (charged against `db`'s accountant; a trip
// becomes an error at ExitStatus), derives the options nested engines run
// under (governed by that context, `phase` appended to the trace phase
// prefix), and opens the run's EngineSpan. Declared at the top of an entry
// point, it closes the span on every exit.
class EngineRun {
 public:
  EngineRun(const char* engine, const FixpointOptions& options, Database* db,
            std::string_view phase = {});

  ExecutionContext* ctx() { return governor_.ctx(); }
  const FixpointOptions& options() const { return options_; }
  EngineSpan& span() { return span_; }
  // Non-OK only when this run owns the context and a limit tripped.
  Status ExitStatus() { return governor_.ExitStatus(); }

 private:
  GovernorScope governor_;
  FixpointOptions options_;
  EngineSpan span_;  // last: closes before the governor goes
};

// Evaluates `program` to fixpoint with semi-naive (delta) iteration.
// On success all IDB relations are materialised in `db`; `stats` (optional)
// receives sizes/iterations/time. On RESOURCE_EXHAUSTED the partially
// materialised relations remain in `db` and stats are still filled in.
Status EvaluateSemiNaive(const Program& program, Database* db,
                         const FixpointOptions& options = {},
                         EvalStats* stats = nullptr);

// Naive (re-derive everything each round) evaluation; reference semantics
// for tests and the ablation benches.
Status EvaluateNaive(const Program& program, Database* db,
                     const FixpointOptions& options = {},
                     EvalStats* stats = nullptr);

}  // namespace seprec

#endif  // SEPREC_EVAL_FIXPOINT_H_
