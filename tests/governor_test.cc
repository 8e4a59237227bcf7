// Tests for the execution governor: deadlines, cooperative cancellation,
// tuple/iteration/byte budgets, checkpoint rollback, and the strategy
// fallback chain in QueryProcessor::Answer.
#include "core/governor.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <thread>

#include "core/compiler.h"
#include "datalog/parser.h"
#include "eval/fixpoint.h"
#include "gen/generators.h"
#include "gen/workloads.h"
#include "storage/database.h"
#include "util/failpoint.h"

namespace seprec {
namespace {

std::vector<std::string> SortedAnswers(const QueryResult& result,
                                       const Database& db) {
  std::vector<std::string> strings = result.answer.ToStrings(db.symbols());
  std::sort(strings.begin(), strings.end());
  return strings;
}

// ---------------------------------------------------------------------------
// ExecutionContext unit tests.

TEST(ExecutionContext, UnlimitedNeverStops) {
  ExecutionContext ctx{ExecutionLimits{}};
  for (int i = 0; i < 1000; ++i) {
    EXPECT_FALSE(ctx.NoteIterationAndCheck());
    ctx.NoteTuples(1000);
    EXPECT_FALSE(ctx.ShouldStop());
  }
  EXPECT_FALSE(ctx.stopped());
  EXPECT_EQ(ctx.cause(), StopCause::kNone);
}

TEST(ExecutionContext, IterationBudgetLatches) {
  ExecutionLimits limits;
  limits.max_iterations = 3;
  ExecutionContext ctx(limits);
  EXPECT_FALSE(ctx.NoteIterationAndCheck());  // iteration 1
  EXPECT_FALSE(ctx.NoteIterationAndCheck());  // iteration 2
  EXPECT_FALSE(ctx.NoteIterationAndCheck());  // iteration 3 (== budget: ok)
  EXPECT_TRUE(ctx.NoteIterationAndCheck());   // iteration 4 trips
  EXPECT_TRUE(ctx.stopped());
  EXPECT_EQ(ctx.cause(), StopCause::kIterations);
  // Latched: every subsequent poll reports stop.
  EXPECT_TRUE(ctx.ShouldStop());
  EXPECT_EQ(ctx.ToStatus().code(), StatusCode::kResourceExhausted);
}

TEST(ExecutionContext, TupleBudget) {
  ExecutionLimits limits;
  limits.max_tuples = 10;
  ExecutionContext ctx(limits);
  ctx.NoteTuples(9);
  EXPECT_FALSE(ctx.ShouldStop());
  ctx.NoteTuples(5);
  EXPECT_TRUE(ctx.ShouldStop());
  EXPECT_EQ(ctx.cause(), StopCause::kTuples);
  EXPECT_EQ(ctx.tuples(), 14u);
}

TEST(ExecutionContext, ImmediateDeadline) {
  ExecutionLimits limits;
  limits.timeout_ms = 0;
  ExecutionContext ctx(limits);
  EXPECT_TRUE(ctx.ShouldStop());
  EXPECT_EQ(ctx.cause(), StopCause::kDeadline);
  EXPECT_EQ(ctx.ToStatus().code(), StatusCode::kResourceExhausted);
  EXPECT_NE(ctx.message().find("deadline"), std::string::npos);
}

TEST(ExecutionContext, CancellationFromAnotherThread) {
  CancellationToken token;
  ExecutionContext ctx(ExecutionLimits{}, &token);
  EXPECT_FALSE(ctx.ShouldStop());
  std::thread canceller([&token] { token.Cancel(); });
  canceller.join();
  EXPECT_TRUE(ctx.ShouldStop());
  EXPECT_EQ(ctx.cause(), StopCause::kCancelled);
  EXPECT_EQ(ctx.ToStatus().code(), StatusCode::kCancelled);
}

TEST(ExecutionContext, ByteBudgetTracksAccountant) {
  Database db;
  Relation* r = *db.CreateRelation("r", 2);
  ExecutionLimits limits;
  limits.max_bytes = 200;
  ExecutionContext ctx(limits);
  ctx.TrackMemory(&db.accountant());
  EXPECT_FALSE(ctx.ShouldStop());
  // Each row costs arity * sizeof(Value) + overhead, well over 50 bytes;
  // four rows blow a 200 byte budget.
  for (int64_t i = 0; i < 4; ++i) {
    r->Insert({Value::Int(i), Value::Int(i + 1)});
  }
  EXPECT_TRUE(ctx.ShouldStop());
  EXPECT_EQ(ctx.cause(), StopCause::kBytes);
  EXPECT_GT(ctx.BytesUsed(), 200u);
}

// ---------------------------------------------------------------------------
// MemoryAccountant unit tests.

TEST(MemoryAccountant, ChargeAndRelease) {
  MemoryAccountant accountant;
  EXPECT_EQ(accountant.bytes(), 0u);
  accountant.Charge(100);
  accountant.Charge(20);
  EXPECT_EQ(accountant.bytes(), 120u);
  accountant.Release(50);
  EXPECT_EQ(accountant.bytes(), 70u);
  // Release clamps at zero rather than wrapping.
  accountant.Release(1000);
  EXPECT_EQ(accountant.bytes(), 0u);
}

TEST(MemoryAccountant, RelationInsertChargesOnlyNewRows) {
  Database db;
  Relation* r = *db.CreateRelation("r", 2);
  const size_t before = db.accountant().bytes();
  r->Insert({Value::Int(1), Value::Int(2)});
  const size_t after_one = db.accountant().bytes();
  EXPECT_GT(after_one, before);
  // Duplicate insert does not charge again.
  r->Insert({Value::Int(1), Value::Int(2)});
  EXPECT_EQ(db.accountant().bytes(), after_one);
  r->Insert({Value::Int(3), Value::Int(4)});
  EXPECT_EQ(db.accountant().bytes(), after_one + (after_one - before));
}

TEST(MemoryAccountant, InsertAllChargesOnlyRowsNewToTarget) {
  Database db;
  Relation* a = *db.CreateRelation("a", 2);
  Relation* b = *db.CreateRelation("b", 2);
  a->Insert({Value::Int(1), Value::Int(2)});
  a->Insert({Value::Int(3), Value::Int(4)});
  b->Insert({Value::Int(1), Value::Int(2)});  // overlaps a
  const size_t before = db.accountant().bytes();
  // Only (3, 4) is new in b; the overlap must not be charged twice.
  EXPECT_EQ(b->InsertAll(*a), 1u);
  const size_t per_row = 2 * sizeof(Value) + MemoryAccountant::kRowOverheadBytes;
  EXPECT_EQ(db.accountant().bytes(), before + per_row);
}

TEST(MemoryAccountant, ConcurrentChargeAndReleaseBalance) {
  // Pool workers charge staged rows from many threads at once; the total
  // must be exact, not merely approximate, or max_bytes trips drift.
  MemoryAccountant accountant;
  constexpr int kThreads = 8;
  constexpr int kPerThread = 5000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&accountant] {
      for (int i = 0; i < kPerThread; ++i) {
        accountant.Charge(3);
        accountant.Release(1);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(accountant.bytes(),
            static_cast<size_t>(kThreads) * kPerThread * 2);
}

TEST(MemoryAccountant, DroppingRelationReleasesBytes) {
  Database db;
  Relation* r = *db.CreateRelation("r", 2);
  const size_t before = db.accountant().bytes();
  r->Insert({Value::Int(1), Value::Int(2)});
  ASSERT_GT(db.accountant().bytes(), before);
  db.Drop("r");
  EXPECT_EQ(db.accountant().bytes(), before);
}

// ---------------------------------------------------------------------------
// End-to-end: budgets through the QueryProcessor (partial contract).

TEST(Governor, DeadlineYieldsPartialResult) {
  auto qp = QueryProcessor::Create(TransitiveClosureProgram());
  ASSERT_TRUE(qp.ok());
  Database db;
  MakeChain(&db, "edge", "v", 120);
  FixpointOptions options;
  options.limits.timeout_ms = 0;  // already expired
  auto result =
      qp->Answer(ParseAtomOrDie("tc(v0, Y)"), &db, Strategy::kAuto, options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(result->partial);
  ASSERT_TRUE(result->degradation.has_value());
  EXPECT_EQ(result->degradation->cause, StopCause::kDeadline);
  EXPECT_LT(result->answer.size(), 119u);
  // Rollback: no IDB or scratch relations linger.
  EXPECT_EQ(db.RelationNames(), std::vector<std::string>{"edge"});
}

TEST(Governor, ByteBudgetYieldsPartialAndRollsBack) {
  auto qp = QueryProcessor::Create(TransitiveClosureProgram());
  ASSERT_TRUE(qp.ok());
  Database db;
  MakeChain(&db, "edge", "v", 150);
  const size_t baseline = db.accountant().bytes();
  FixpointOptions options;
  options.limits.max_bytes = baseline + 4096;
  auto result = qp->Answer(ParseAtomOrDie("tc(v0, Y)"), &db,
                           Strategy::kSemiNaive, options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(result->partial);
  ASSERT_TRUE(result->degradation.has_value());
  EXPECT_EQ(result->degradation->cause, StopCause::kBytes);
  EXPECT_EQ(db.Find("tc"), nullptr);
  // Rollback returns the accounted footprint to its pre-query level.
  EXPECT_EQ(db.accountant().bytes(), baseline);
  // The same query without a budget completes and commits.
  auto full = qp->Answer(ParseAtomOrDie("tc(v0, Y)"), &db,
                         Strategy::kSemiNaive);
  ASSERT_TRUE(full.ok());
  EXPECT_FALSE(full->partial);
  EXPECT_EQ(full->answer.size(), 149u);
  EXPECT_NE(db.Find("tc"), nullptr);
  // Sound degradation: the truncated answer is a subset of the full one.
  std::vector<std::string> partial_strings = SortedAnswers(*result, db);
  std::vector<std::string> full_strings = SortedAnswers(*full, db);
  EXPECT_TRUE(std::includes(full_strings.begin(), full_strings.end(),
                            partial_strings.begin(), partial_strings.end()));
}

TEST(Governor, PreCancelledTokenYieldsPartialResult) {
  auto qp = QueryProcessor::Create(TransitiveClosureProgram());
  ASSERT_TRUE(qp.ok());
  Database db;
  MakeChain(&db, "edge", "v", 60);
  CancellationToken token;
  token.Cancel();
  FixpointOptions options;
  options.cancel = &token;
  auto result =
      qp->Answer(ParseAtomOrDie("tc(v0, Y)"), &db, Strategy::kAuto, options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(result->partial);
  ASSERT_TRUE(result->degradation.has_value());
  EXPECT_EQ(result->degradation->cause, StopCause::kCancelled);
}

TEST(Governor, ConcurrentCancellationIsSafe) {
  // A second thread cancels while the query runs. Depending on timing the
  // query either completes or returns a partial answer; either way it must
  // not crash, hang, or leave the database half-materialised.
  auto qp = QueryProcessor::Create(TransitiveClosureProgram());
  ASSERT_TRUE(qp.ok());
  Database db;
  MakeChain(&db, "edge", "v", 400);
  CancellationToken token;
  FixpointOptions options;
  options.cancel = &token;
  std::thread canceller([&token] {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    token.Cancel();
  });
  auto result = qp->Answer(ParseAtomOrDie("tc(v0, Y)"), &db,
                           Strategy::kSemiNaive, options);
  canceller.join();
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  if (result->partial) {
    EXPECT_EQ(result->degradation->cause, StopCause::kCancelled);
    EXPECT_EQ(db.Find("tc"), nullptr);
  } else {
    EXPECT_EQ(result->answer.size(), 399u);
    EXPECT_NE(db.Find("tc"), nullptr);
  }
}

TEST(Governor, DirectEngineCallConvertsTripToError) {
  // Legacy calling convention: invoking an engine entry point directly
  // (FixpointOptions::context == nullptr) surfaces a tripped budget as a
  // RESOURCE_EXHAUSTED / CANCELLED error, with partials left in the db.
  Database db;
  MakeChain(&db, "edge", "v", 50);
  FixpointOptions options;
  options.limits.timeout_ms = 0;
  Status status = EvaluateSemiNaive(TransitiveClosureProgram(), &db, options);
  EXPECT_EQ(status.code(), StatusCode::kResourceExhausted);
  EXPECT_NE(status.message().find("deadline"), std::string::npos);

  Database db2;
  MakeChain(&db2, "edge", "v", 50);
  CancellationToken token;
  token.Cancel();
  FixpointOptions cancelled;
  cancelled.cancel = &token;
  Status status2 =
      EvaluateSemiNaive(TransitiveClosureProgram(), &db2, cancelled);
  EXPECT_EQ(status2.code(), StatusCode::kCancelled);
}

TEST(Governor, BudgetAppliesToQsqrAndCounting) {
  // Every engine respects the shared budget, not just semi-naive.
  for (Strategy strategy : {Strategy::kQsqr, Strategy::kCounting}) {
    auto qp = QueryProcessor::Create(TransitiveClosureProgram());
    ASSERT_TRUE(qp.ok());
    Database db;
    MakeChain(&db, "edge", "v", 200);
    FixpointOptions options;
    options.limits.max_iterations = 3;
    auto result =
        qp->Answer(ParseAtomOrDie("tc(v0, Y)"), &db, strategy, options);
    ASSERT_TRUE(result.ok())
        << StrategyToString(strategy) << ": " << result.status().ToString();
    EXPECT_TRUE(result->partial) << StrategyToString(strategy);
    EXPECT_EQ(result->degradation->cause, StopCause::kIterations);
    EXPECT_EQ(db.RelationNames(), std::vector<std::string>{"edge"})
        << StrategyToString(strategy);
  }
}

// ---------------------------------------------------------------------------
// Strategy fallback chain.

TEST(Governor, FallbackChainReachesSemiNaive) {
  Failpoints::DisarmAll();
  auto qp = QueryProcessor::Create(TransitiveClosureProgram());
  ASSERT_TRUE(qp.ok());
  Database db;
  MakeChain(&db, "edge", "v", 30);
  ScopedFailpoint fail_separable("compiler.separable");
  ScopedFailpoint fail_magic("compiler.magic");
  auto result = qp->Answer(ParseAtomOrDie("tc(v0, Y)"), &db);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->strategy, Strategy::kSemiNaive);
  EXPECT_FALSE(result->partial);
  EXPECT_EQ(result->answer.size(), 29u);
  EXPECT_NE(result->reason.find("fell back to"), std::string::npos)
      << result->reason;
  // One G001 note per fallback hop.
  ASSERT_EQ(result->diagnostics.size(), 2u);
  for (const Diagnostic& d : result->diagnostics) {
    EXPECT_EQ(d.code, "G001");
    EXPECT_EQ(d.severity, Severity::kNote);
  }
  // The failed attempts were rolled back before the retry.
  EXPECT_EQ(Failpoints::FireCount("compiler.separable"), 1u);
  EXPECT_EQ(Failpoints::FireCount("compiler.magic"), 1u);
}

TEST(Governor, FallbackStopsAtFirstWorkingStrategy) {
  Failpoints::DisarmAll();
  auto qp = QueryProcessor::Create(TransitiveClosureProgram());
  ASSERT_TRUE(qp.ok());
  Database db;
  MakeChain(&db, "edge", "v", 30);
  ScopedFailpoint fail_separable("compiler.separable");
  auto result = qp->Answer(ParseAtomOrDie("tc(v0, Y)"), &db);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->strategy, Strategy::kMagic);
  EXPECT_EQ(result->answer.size(), 29u);
  ASSERT_EQ(result->diagnostics.size(), 1u);
  EXPECT_EQ(result->diagnostics[0].code, "G001");
}

TEST(Governor, ForcedStrategyDoesNotFallBack) {
  Failpoints::DisarmAll();
  auto qp = QueryProcessor::Create(TransitiveClosureProgram());
  ASSERT_TRUE(qp.ok());
  Database db;
  MakeChain(&db, "edge", "v", 10);
  ScopedFailpoint fail_separable("compiler.separable");
  auto result =
      qp->Answer(ParseAtomOrDie("tc(v0, Y)"), &db, Strategy::kSeparable);
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInternal);
}

TEST(Governor, BudgetTripsDoNotTriggerFallback) {
  // Resource exhaustion is not a strategy defect: the chain must not burn
  // the remaining (already exhausted) budget on a different engine.
  auto qp = QueryProcessor::Create(TransitiveClosureProgram());
  ASSERT_TRUE(qp.ok());
  Database db;
  MakeChain(&db, "edge", "v", 100);
  FixpointOptions options;
  options.limits.max_iterations = 4;
  auto result =
      qp->Answer(ParseAtomOrDie("tc(v0, Y)"), &db, Strategy::kAuto, options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(result->partial);
  // The first (separable) attempt was kept; no G001 fallback notes.
  EXPECT_EQ(result->strategy, Strategy::kSeparable);
  EXPECT_TRUE(result->diagnostics.empty());
}

}  // namespace
}  // namespace seprec
