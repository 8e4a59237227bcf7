#include "magic/engine.h"

#include "core/query.h"
#include "core/support.h"

namespace seprec {

StatusOr<MagicRunResult> EvaluateWithMagic(const Program& program,
                                           const Atom& query, Database* db,
                                           const FixpointOptions& options,
                                           const MagicOptions& magic_options) {
  // The run's clock covers the whole engine call — transform, support
  // materialisation, the rewritten fixpoint, and the answer harvest — so
  // stats.seconds is not just the last nested fixpoint's.
  MagicRunResult result;
  EngineRun run("magic", options, db, "magic/");
  run.span().CountFrom(&result.stats);
  result.answer = Answer(query.arity());
  SEPREC_ASSIGN_OR_RETURN(result.rewrite,
                          MagicTransform(program, query, magic_options));
  result.stats.algorithm = "magic";
  // Negated and aggregate-defined IDB predicates are read as base
  // relations by the rewrite; materialise them (and dependencies) first.
  std::set<std::string> base_like = NegatedIdbPredicates(program);
  for (const std::string& pred : AggregatePredicates(program)) {
    base_like.insert(pred);
  }
  if (!base_like.empty()) {
    SEPREC_RETURN_IF_ERROR(MaterializePredicates(
        program, base_like, db, run.options(), &result.stats));
  }
  SEPREC_RETURN_IF_ERROR(EvaluateSemiNaive(result.rewrite.program, db,
                                           run.options(), &result.stats));
  // Legacy (ungoverned) callers see a trip as an error here, before the
  // answer harvest; governed callers get the partial answer back.
  SEPREC_RETURN_IF_ERROR(run.ExitStatus());
  const Relation* answers = db->Find(result.rewrite.answer_predicate);
  if (answers != nullptr) {
    result.answer = SelectMatching(*answers, result.rewrite.rewritten_query,
                                   db->symbols());
  }
  result.stats.seconds = run.span().Seconds();
  return result;
}

}  // namespace seprec
