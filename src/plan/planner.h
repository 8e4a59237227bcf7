// Bottom-up dynamic-programming join-order planner for rule bodies.
//
// In the style of RDF-3X's PlanGen: one DP subproblem per subset of the
// body's positive atoms, a plan list per subproblem, and dominance pruning
// — a candidate is kept only if no existing plan for the same subset has
// both cost <= and estimated cardinality <= (i.e. no cheaper plan with
// equal-or-better properties). Since every plan for a subset binds the
// same variable set, (cost, cardinality) is the full property vector.
//
// Built-in literals (comparisons, assignments, negated atoms) are not
// enumerated: RulePlan::Compile schedules them greedily as soon as their
// inputs are bound, whatever the atom order, so the planner only has to
// model which variables they bind (a closure over the bound-variable set
// after each atom) to cost the probes correctly.
//
// Bodies too wide for the DP table (more than kMaxDpAtoms positive atoms
// or more than 64 distinct variables) fall back to the legacy greedy
// order; `mode` reports "cbo-fallback" so traces make the fallback
// visible.
#ifndef SEPREC_PLAN_PLANNER_H_
#define SEPREC_PLAN_PLANNER_H_

#include <cstddef>
#include <string>
#include <vector>

#include "datalog/ast.h"
#include "plan/stats.h"
#include "storage/relation.h"

namespace seprec {

enum class JoinOrderMode {
  kCostBased,  // DP planner (default)
  kGreedy,     // legacy most-bound-first heuristic
  kTextual,    // source order of positive atoms (--no-cbo ablation)
};

// The planner's verdict for one rule body. `atom_order` lists body indices
// of the positive atoms in scan order; empty means the caller should use
// its greedy heuristic (mode kGreedy or a DP fallback).
struct PlannedBody {
  std::vector<size_t> atom_order;
  double cost = 0.0;      // estimated total row visits + probes
  double est_rows = 0.0;  // estimated bindings after the last scan
  std::string mode;       // "cbo" | "cbo-fallback" | "greedy" | "textual"
  // Join algorithm for the leading pair of atoms: "merge" when the DP
  // chose a merge join of atom_order[0] and atom_order[1] on their shared
  // variable prefix of length `merge_prefix` (both inputs ordered, i.e.
  // segment-backed); "hash" otherwise. Later atoms always hash-probe.
  std::string algo = "hash";
  size_t merge_prefix = 0;

  // "0,2,1" for logs/traces; "" when atom_order is empty.
  std::string OrderString() const;
};

// Plans the join order of `rule`'s positive body atoms. `relations` is
// parallel to rule.body (null for non-atom literals), already resolved
// through any relation overrides so delta/partition variants are costed
// against the relation they actually scan. `stats` may be null (each
// relation is then scanned directly, uncached). `indexed` is false under
// the --disable-indexes ablation, where every scan is a full walk.
// `allow_merge` lets the DP consider merge joins over ordered
// (segment-backed) relations; false forces hash joins (the ablation
// bench/micro_segment measures merge against).
PlannedBody PlanJoinOrder(const Rule& rule,
                          const std::vector<const Relation*>& relations,
                          StatsCatalog* stats, JoinOrderMode mode,
                          bool indexed, bool allow_merge = false);

inline constexpr size_t kMaxDpAtoms = 12;

}  // namespace seprec

#endif  // SEPREC_PLAN_PLANNER_H_
