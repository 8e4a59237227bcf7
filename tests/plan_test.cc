#include "plan/planner.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <string>
#include <vector>

#include "core/compiler.h"
#include "datalog/parser.h"
#include "eval/fixpoint.h"
#include "eval/join_plan.h"
#include "plan/cost.h"
#include "plan/stats.h"
#include "storage/database.h"

namespace seprec {
namespace {

// ---------------------------------------------------------------- stats

TEST(Stats, ComputesRowAndDistinctCounts) {
  Database db;
  ASSERT_TRUE(db.AddFact("e", {"a", "b"}).ok());
  ASSERT_TRUE(db.AddFact("e", {"a", "c"}).ok());
  ASSERT_TRUE(db.AddFact("e", {"b", "c"}).ok());
  RelationStats s = db.stats().Get(*db.Find("e"));
  EXPECT_EQ(s.rows, 3u);
  ASSERT_EQ(s.distinct.size(), 2u);
  EXPECT_EQ(s.distinct[0], 2u);  // a, b
  EXPECT_EQ(s.distinct[1], 2u);  // b, c
}

TEST(Stats, EmptyRelationHasZeroEverything) {
  Database db;
  ASSERT_TRUE(db.CreateRelation("e", 2).ok());
  RelationStats s = db.stats().Get(*db.Find("e"));
  EXPECT_EQ(s.rows, 0u);
  EXPECT_EQ(s.distinct[0], 0u);
  EXPECT_EQ(s.distinct[1], 0u);
}

TEST(Stats, CacheRefreshesAfterInsert) {
  Database db;
  ASSERT_TRUE(db.AddFact("e", {"a", "b"}).ok());
  EXPECT_EQ(db.stats().Get(*db.Find("e")).rows, 1u);
  uint64_t recomputations = db.stats().recomputations();
  // A repeat lookup with an unchanged extent is served from the cache.
  EXPECT_EQ(db.stats().Get(*db.Find("e")).rows, 1u);
  EXPECT_EQ(db.stats().recomputations(), recomputations);
  // An insert changes the fingerprint; the next lookup recomputes.
  ASSERT_TRUE(db.AddFact("e", {"b", "c"}).ok());
  RelationStats s = db.stats().Get(*db.Find("e"));
  EXPECT_EQ(s.rows, 2u);
  EXPECT_EQ(s.distinct[0], 2u);
  EXPECT_GT(db.stats().recomputations(), recomputations);
}

TEST(Stats, CacheRefreshesAfterClear) {
  Database db;
  ASSERT_TRUE(db.AddFact("e", {"a", "b"}).ok());
  EXPECT_EQ(db.stats().Get(*db.Find("e")).rows, 1u);
  db.Find("e")->Clear();
  EXPECT_EQ(db.stats().Get(*db.Find("e")).rows, 0u);
}

TEST(Stats, EraseAndRestoreSameExtentRecomputes) {
  // Regression: the DRed deletion path (EraseRows, possibly followed by a
  // Clear and fresh inserts) can restore the exact (size, slots) extent
  // with DIFFERENT contents. Without the mutation epoch in
  // the fingerprint the catalog served the stale distinct counts.
  Database db;
  ASSERT_TRUE(db.AddFact("e", {"a", "b"}).ok());
  ASSERT_TRUE(db.AddFact("e", {"c", "d"}).ok());
  Relation* rel = db.Find("e");
  EXPECT_EQ(db.stats().Get(*rel).distinct[0], 2u);  // a, c

  Relation victims("victims", 2);
  std::vector<Value> row = {db.symbols().Intern("a"),
                            db.symbols().Intern("b")};
  victims.Insert(Row(row.data(), row.size()));
  ASSERT_EQ(rel->EraseRows(victims), 1u);
  rel->Clear();
  ASSERT_TRUE(db.AddFact("e", {"x", "y"}).ok());
  ASSERT_TRUE(db.AddFact("e", {"x", "z"}).ok());
  // Same size (2) and slot count (2) as the cached entry, new contents.
  RelationStats s = db.stats().Get(*rel);
  EXPECT_EQ(s.rows, 2u);
  EXPECT_EQ(s.distinct[0], 1u);  // x only — must not report the stale 2
  EXPECT_EQ(s.distinct[1], 2u);
}

TEST(Stats, GenerationBumpAloneDoesNotRecompute) {
  Database db;
  ASSERT_TRUE(db.AddFact("e", {"a", "b"}).ok());
  db.stats().Get(*db.Find("e"));
  uint64_t recomputations = db.stats().recomputations();
  // The stats cache validates by relation fingerprint (size, slots,
  // arity), not the database generation: bumping the generation without
  // touching the extent serves the cached entry.
  db.BumpGeneration();
  db.stats().Get(*db.Find("e"));
  EXPECT_EQ(db.stats().recomputations(), recomputations);
}

// ----------------------------------------------------------- cost model

TEST(CostModel, EmptyRelationCostsAsOneRow) {
  RelationStats empty{0, {0, 0}};
  EXPECT_EQ(CostModel::EffectiveRows(empty), 1.0);
}

TEST(CostModel, IndexedProbeBeatsFullScanWhenSelective) {
  RelationStats s{1000, {1000, 10}};
  double scan = CostModel::ScanCost(s, {}, 1.0, /*indexed=*/true);
  double probe = CostModel::ScanCost(s, {0}, 1.0, /*indexed=*/true);
  EXPECT_GT(scan, probe);
  // Without indexes every scan is a full walk, bound columns or not.
  EXPECT_EQ(CostModel::ScanCost(s, {0}, 1.0, /*indexed=*/false), scan);
}

// -------------------------------------------------------------- planner

PlannedBody PlanFor(const std::string& rule_text, Database* db,
                    JoinOrderMode mode) {
  Program p = ParseProgramOrDie(rule_text);
  const Rule& rule = p.rules[0];
  std::vector<const Relation*> relations(rule.body.size(), nullptr);
  for (size_t i = 0; i < rule.body.size(); ++i) {
    const Literal& lit = rule.body[i];
    if (lit.kind == Literal::Kind::kAtom && !lit.negated) {
      relations[i] = db->Find(lit.atom.predicate);
    }
  }
  return PlanJoinOrder(rule, relations, &db->stats(), mode,
                       /*indexed=*/true);
}

// The micro_plan shape: the textual order starts with a cross product;
// the planner must place the connecting atom between the two big scans.
TEST(Planner, AvoidsCrossProduct) {
  Database db;
  for (int i = 0; i < 20; ++i) {
    std::string n = std::to_string(i);
    ASSERT_TRUE(db.AddFact("big_a", {"x" + n, "y" + n}).ok());
    ASSERT_TRUE(db.AddFact("big_b", {"z" + n, "w" + n}).ok());
    ASSERT_TRUE(db.AddFact("link", {"y" + n, "z" + n}).ok());
  }
  PlannedBody planned =
      PlanFor("r(X, W) :- big_a(X, Y), big_b(Z, W), link(Y, Z).", &db,
              JoinOrderMode::kCostBased);
  EXPECT_EQ(planned.mode, "cbo");
  ASSERT_EQ(planned.atom_order.size(), 3u);
  // Whatever end the planner starts from, link (index 2) must come
  // second — scanning big_a then big_b (or vice versa) is the cross
  // product.
  EXPECT_EQ(planned.atom_order[1], 2u);

  PlannedBody textual =
      PlanFor("r(X, W) :- big_a(X, Y), big_b(Z, W), link(Y, Z).", &db,
              JoinOrderMode::kTextual);
  EXPECT_EQ(textual.mode, "textual");
  EXPECT_EQ(textual.atom_order, (std::vector<size_t>{0, 1, 2}));
  // The DP order must be estimated cheaper than the cross product.
  EXPECT_LT(planned.cost, textual.cost);
}

TEST(Planner, GreedyModeDefersToCompileTimeHeuristic) {
  Database db;
  ASSERT_TRUE(db.AddFact("e", {"a", "b"}).ok());
  PlannedBody greedy =
      PlanFor("h(X, Z) :- e(X, Y), e(Y, Z).", &db, JoinOrderMode::kGreedy);
  EXPECT_EQ(greedy.mode, "greedy");
  EXPECT_TRUE(greedy.atom_order.empty());
}

TEST(Planner, PlansAreDeterministic) {
  Database db;
  for (int i = 0; i < 8; ++i) {
    std::string n = std::to_string(i);
    ASSERT_TRUE(db.AddFact("e", {"a" + n, "b" + n}).ok());
    ASSERT_TRUE(db.AddFact("f", {"b" + n, "c" + n}).ok());
  }
  const std::string rule = "h(X, Z) :- e(X, Y), f(Y, Z).";
  PlannedBody first = PlanFor(rule, &db, JoinOrderMode::kCostBased);
  for (int i = 0; i < 5; ++i) {
    PlannedBody again = PlanFor(rule, &db, JoinOrderMode::kCostBased);
    EXPECT_EQ(again.atom_order, first.atom_order);
    EXPECT_EQ(again.cost, first.cost);
  }
}

TEST(Planner, TextualModeExecutesSourceOrder) {
  // Compile under kTextual and check the debug plan scans the atoms in
  // source order even though the second atom is the cheaper start.
  Database db;
  ASSERT_TRUE(db.AddFact("big", {"a", "b"}).ok());
  ASSERT_TRUE(db.AddFact("big", {"b", "c"}).ok());
  ASSERT_TRUE(db.AddFact("big", {"c", "d"}).ok());
  ASSERT_TRUE(db.AddFact("tiny", {"a"}).ok());
  Program p = ParseProgramOrDie("h(X, Y) :- big(X, Y), tiny(X).");
  PlanOptions options;
  options.join_order = JoinOrderMode::kTextual;
  StatusOr<RulePlan> plan = RulePlan::Compile(p.rules[0], &db, options);
  ASSERT_TRUE(plan.ok());
  std::string debug = plan->DebugString();
  EXPECT_LT(debug.find("big"), debug.find("tiny")) << debug;
  EXPECT_EQ(plan->plan_info().mode, "textual");
}

// ---------------------------------------------------- metamorphic check

// Random join orders of the same body must produce bit-identical results:
// evaluate a permuted program both cost-based and with --no-cbo semantics
// and compare against the unpermuted semi-naive reference output.
TEST(Planner, MetamorphicJoinOrderInvariance) {
  const std::string body_atoms[] = {"e(X, Y)", "f(Y, Z)", "g(Z, W)",
                                    "h(W, V)"};
  auto make_program = [&](const std::vector<size_t>& perm) {
    std::string rule = "q(X, V) :- ";
    for (size_t i = 0; i < perm.size(); ++i) {
      rule += body_atoms[perm[i]];
      rule += i + 1 < perm.size() ? std::string(" & ") : std::string(".\n");
    }
    return rule;
  };

  auto populate = [](Database* db) {
    for (int i = 0; i < 12; ++i) {
      std::string n = std::to_string(i);
      std::string m = std::to_string((i * 7 + 3) % 12);
      ASSERT_TRUE(db->AddFact("e", {"a" + n, "b" + m}).ok());
      ASSERT_TRUE(db->AddFact("f", {"b" + n, "c" + m}).ok());
      ASSERT_TRUE(db->AddFact("g", {"c" + n, "d" + m}).ok());
      ASSERT_TRUE(db->AddFact("h", {"d" + n, "e" + m}).ok());
    }
  };

  auto answers = [&](const std::vector<size_t>& perm, bool no_cbo) {
    Database db;
    populate(&db);
    StatusOr<QueryProcessor> qp =
        QueryProcessor::Create(ParseProgramOrDie(make_program(perm)));
    SEPREC_CHECK(qp.ok());
    FixpointOptions options;
    options.no_cbo = no_cbo;
    StatusOr<QueryResult> result =
        qp->Answer(ParseAtomOrDie("q(X, V)"), &db, Strategy::kSemiNaive,
                   options);
    SEPREC_CHECK(result.ok());
    std::vector<std::string> out = result->answer.ToStrings(db.symbols());
    std::sort(out.begin(), out.end());
    return out;
  };

  std::vector<std::string> reference = answers({0, 1, 2, 3}, false);
  ASSERT_FALSE(reference.empty());

  std::mt19937 rng(20260808);  // fixed seed: failures must reproduce
  std::vector<size_t> perm = {0, 1, 2, 3};
  for (int trial = 0; trial < 6; ++trial) {
    std::shuffle(perm.begin(), perm.end(), rng);
    EXPECT_EQ(answers(perm, /*no_cbo=*/false), reference)
        << "cbo, trial " << trial;
    EXPECT_EQ(answers(perm, /*no_cbo=*/true), reference)
        << "textual, trial " << trial;
  }
}

}  // namespace
}  // namespace seprec
