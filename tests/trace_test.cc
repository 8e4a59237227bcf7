// Evaluation tracing: every engine feeds the TraceSink with typed events,
// JsonTraceSink serialises them as schema-v1 JSON lines, and the metrics
// the trace reports are thread-count-invariant where the schema says so.
#include "eval/trace.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <string>
#include <vector>

#include "core/compiler.h"
#include "counting/engine.h"
#include "datalog/parser.h"
#include "eval/fixpoint.h"
#include "eval/incremental.h"
#include "eval/qsq.h"
#include "gen/generators.h"
#include "gen/workloads.h"
#include "magic/engine.h"
#include "opt/nonrecursive.h"
#include "separable/engine.h"
#include "util/string_util.h"

namespace seprec {
namespace {

FixpointOptions TracedOptions(TraceSink* sink, size_t threads = 1) {
  FixpointOptions options;
  options.trace = sink;
  options.limits.parallel.num_threads = threads;
  options.limits.parallel.min_rows_per_task = 1;
  return options;
}

size_t CountKind(const std::vector<TraceEvent>& events, TraceEventKind kind,
                 const std::string& engine = "") {
  size_t n = 0;
  for (const TraceEvent& e : events) {
    if (e.kind == kind && (engine.empty() || e.engine == engine)) ++n;
  }
  return n;
}

const TraceEvent* FindKind(const std::vector<TraceEvent>& events,
                           TraceEventKind kind, const std::string& engine) {
  for (const TraceEvent& e : events) {
    if (e.kind == kind && e.engine == engine) return &e;
  }
  return nullptr;
}

// ---- JSON-lines schema ----------------------------------------------------

std::vector<std::string> TracedJsonLines() {
  std::ostringstream out;
  JsonTraceSink sink(&out);
  Database db;
  MakeChain(&db, "edge", "v", 6);
  EvalStats stats;
  SEPREC_CHECK(EvaluateSemiNaive(TransitiveClosureProgram(), &db,
                                 TracedOptions(&sink), &stats)
                   .ok());
  std::vector<std::string> lines;
  std::istringstream in(out.str());
  std::string line;
  while (std::getline(in, line)) lines.push_back(line);
  return lines;
}

TEST(TraceJson, EveryLineCarriesTheEnvelope) {
  std::vector<std::string> lines = TracedJsonLines();
  ASSERT_GE(lines.size(), 3u);  // engine_start, rounds, engine_finish
  for (size_t i = 0; i < lines.size(); ++i) {
    const std::string& l = lines[i];
    // Envelope: {"v":<schema>,"seq":<i>,"t":<seconds>,"ev":"...
    std::string prefix = "{\"v\":" +
                         std::to_string(JsonTraceSink::kSchemaVersion) +
                         ",\"seq\":" + std::to_string(i) + ",\"t\":";
    EXPECT_EQ(l.rfind(prefix, 0), 0u) << l;
    EXPECT_NE(l.find("\"ev\":\""), std::string::npos) << l;
    EXPECT_EQ(l.back(), '}') << l;
  }
}

TEST(TraceJson, GoldenEventShapes) {
  std::vector<std::string> lines = TracedJsonLines();
  ASSERT_FALSE(lines.empty());
  EXPECT_NE(lines.front().find(
                "\"ev\":\"engine_start\",\"engine\":\"seminaive\""),
            std::string::npos)
      << lines.front();

  const std::string& last = lines.back();
  EXPECT_NE(last.find("\"ev\":\"engine_finish\",\"engine\":\"seminaive\","
                      "\"seconds\":"),
            std::string::npos)
      << last;
  for (const char* key :
       {"\"iterations\":", "\"tuples\":", "\"polls\":",
        "\"insert_attempts\":", "\"insert_new\":"}) {
    EXPECT_NE(last.find(key), std::string::npos) << last;
  }

  bool saw_round_end = false;
  bool saw_rule = false;
  for (const std::string& l : lines) {
    if (l.find("\"ev\":\"round_end\"") != std::string::npos) {
      saw_round_end = true;
      for (const char* key : {"\"phase\":", "\"round\":", "\"emitted\":",
                              "\"inserted\":", "\"delta\":"}) {
        EXPECT_NE(l.find(key), std::string::npos) << l;
      }
    }
    if (l.find("\"ev\":\"rule\"") != std::string::npos) {
      saw_rule = true;
      EXPECT_NE(l.find("\"rule\":\""), std::string::npos) << l;
      EXPECT_NE(l.find("\"probes\":"), std::string::npos) << l;
    }
  }
  EXPECT_TRUE(saw_round_end);
  EXPECT_TRUE(saw_rule);
}

TEST(TraceJson, EscapesControlAndQuoteCharacters) {
  std::ostringstream out;
  JsonTraceSink sink(&out);
  TraceEvent e;
  e.kind = TraceEventKind::kNote;
  e.detail = "a\"b\\c\nd\te\x01" "f";  // \x01 split so 'f' is a literal
  sink.Emit(e);
  std::string line = out.str();
  EXPECT_NE(line.find("a\\\"b\\\\c\\nd\\te\\u0001f"), std::string::npos)
      << line;
}

// ---- Per-engine event coverage -------------------------------------------

void ExpectEngineEvents(const std::vector<TraceEvent>& events,
                        const std::string& engine,
                        const std::string& round_engine,
                        const std::string& phase_prefix) {
  EXPECT_EQ(CountKind(events, TraceEventKind::kEngineStart, engine), 1u)
      << engine;
  ASSERT_EQ(CountKind(events, TraceEventKind::kEngineFinish, engine), 1u)
      << engine;
  const TraceEvent* finish =
      FindKind(events, TraceEventKind::kEngineFinish, engine);
  EXPECT_GT(finish->seconds, 0.0) << engine;
  EXPECT_GT(finish->insert_attempts, 0u) << engine;

  bool saw_round = false;
  for (const TraceEvent& e : events) {
    if (e.kind != TraceEventKind::kRoundEnd || e.engine != round_engine) {
      continue;
    }
    if (e.phase.rfind(phase_prefix, 0) == 0) saw_round = true;
  }
  EXPECT_TRUE(saw_round) << engine << ": no round_end with engine '"
                         << round_engine << "' and phase prefix '"
                         << phase_prefix << "'";
}

TEST(TraceCoverage, SemiNaiveEmitsRounds) {
  CollectingTraceSink sink;
  Database db;
  MakeChain(&db, "edge", "v", 8);
  ASSERT_TRUE(EvaluateSemiNaive(TransitiveClosureProgram(), &db,
                                TracedOptions(&sink))
                  .ok());
  ExpectEngineEvents(sink.Events(), "seminaive", "seminaive", "stratum");
}

TEST(TraceCoverage, SeparableEmitsPhaseRounds) {
  CollectingTraceSink sink;
  Database db;
  MakeExample12Data(&db, 12);
  auto result = EvaluateWithSeparable(Example12Program(),
                                      ParseAtomOrDie("buys(a0, Y)"), &db,
                                      TracedOptions(&sink));
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  std::vector<TraceEvent> events = sink.Events();
  ExpectEngineEvents(events, "separable", "separable", "");
  // Both phases of the Figure-2 schema must appear.
  bool saw_phase1 = false;
  bool saw_phase2 = false;
  for (const TraceEvent& e : events) {
    if (e.kind != TraceEventKind::kRoundEnd) continue;
    if (e.phase == "phase1") saw_phase1 = true;
    if (e.phase == "phase2") saw_phase2 = true;
  }
  EXPECT_TRUE(saw_phase1);
  EXPECT_TRUE(saw_phase2);
}

TEST(TraceCoverage, MagicEmitsPrefixedRounds) {
  CollectingTraceSink sink;
  Database db;
  MakeChain(&db, "edge", "v", 8);
  auto result = EvaluateWithMagic(TransitiveClosureProgram(),
                                  ParseAtomOrDie("tc(v0, Y)"), &db,
                                  TracedOptions(&sink));
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  // Magic wraps a semi-naive run over the rewritten program: rounds are
  // emitted by the inner engine under the "magic/" phase prefix.
  ExpectEngineEvents(sink.Events(), "magic", "seminaive", "magic/");
  EXPECT_GT(result->stats.seconds, 0.0);
}

TEST(TraceCoverage, CountingEmitsPrefixedRounds) {
  CollectingTraceSink sink;
  Database db;
  MakeChain(&db, "edge", "v", 8);
  auto result = EvaluateWithCounting(TransitiveClosureProgram(),
                                     ParseAtomOrDie("tc(v0, Y)"), &db,
                                     TracedOptions(&sink));
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ExpectEngineEvents(sink.Events(), "counting", "seminaive", "counting/");
  EXPECT_GT(result->stats.seconds, 0.0);
}

TEST(TraceCoverage, QsqrEmitsPassRounds) {
  CollectingTraceSink sink;
  Database db;
  MakeChain(&db, "edge", "v", 8);
  auto result = EvaluateWithQsqr(TransitiveClosureProgram(),
                                 ParseAtomOrDie("tc(v0, Y)"), &db,
                                 TracedOptions(&sink));
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ExpectEngineEvents(sink.Events(), "qsqr", "qsqr", "pass");
}

TEST(TraceCoverage, IncrementalEmitsUpdatePhases) {
  CollectingTraceSink sink;
  Database db;
  auto engine = IncrementalEngine::Create(TransitiveClosureProgram(), &db);
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  engine->set_trace(&sink);
  ASSERT_TRUE(engine->Initialize().ok());
  ASSERT_TRUE(engine->AddFact("edge", {"a", "b"}).ok());
  ASSERT_TRUE(engine->AddFact("edge", {"b", "c"}).ok());
  ASSERT_TRUE(engine->RemoveFact("edge", {"a", "b"}).ok());

  std::vector<TraceEvent> events = sink.Events();
  // Initialize runs the inner fixpoint under the "init/" prefix; each
  // update wraps its rounds in incremental engine_start/engine_finish.
  EXPECT_EQ(CountKind(events, TraceEventKind::kEngineStart, "incremental"),
            3u);
  EXPECT_EQ(CountKind(events, TraceEventKind::kEngineFinish, "incremental"),
            3u);
  bool saw_insert = false;
  bool saw_overdelete = false;
  bool saw_rederive = false;
  for (const TraceEvent& e : events) {
    if (e.kind != TraceEventKind::kRoundEnd || e.engine != "incremental") {
      continue;
    }
    if (e.phase == "insert") saw_insert = true;
    if (e.phase == "overdelete") saw_overdelete = true;
    if (e.phase == "rederive") saw_rederive = true;
  }
  EXPECT_TRUE(saw_insert);
  EXPECT_TRUE(saw_overdelete);
  EXPECT_TRUE(saw_rederive);
}

// ---- Parallel invariance --------------------------------------------------

struct TraceTotals {
  uint64_t round_emitted = 0;
  uint64_t round_inserted = 0;
  uint64_t rule_emitted = 0;
  uint64_t finish_tuples = 0;
  size_t rounds = 0;

  bool operator==(const TraceTotals& o) const {
    return round_emitted == o.round_emitted &&
           round_inserted == o.round_inserted &&
           rule_emitted == o.rule_emitted &&
           finish_tuples == o.finish_tuples && rounds == o.rounds;
  }
};

TraceTotals TotalsWithThreads(size_t threads) {
  CollectingTraceSink sink;
  Database db;
  MakeRandomGraph(&db, "edge", "v", 25, 80, 11);
  SEPREC_CHECK(EvaluateSemiNaive(TransitiveClosureProgram(), &db,
                                 TracedOptions(&sink, threads))
                   .ok());
  TraceTotals totals;
  for (const TraceEvent& e : sink.Events()) {
    switch (e.kind) {
      case TraceEventKind::kRoundEnd:
        totals.round_emitted += e.emitted;
        totals.round_inserted += e.inserted;
        ++totals.rounds;
        break;
      case TraceEventKind::kRule:
        totals.rule_emitted += e.emitted;
        break;
      case TraceEventKind::kEngineFinish:
        totals.finish_tuples = e.tuples;
        break;
      default:
        break;
    }
  }
  return totals;
}

TEST(TraceParallel, TotalsAreThreadCountInvariant) {
  TraceTotals serial = TotalsWithThreads(1);
  EXPECT_GT(serial.rounds, 1u);
  EXPECT_GT(serial.round_emitted, 0u);
  // Every emitted head tuple is attributed to some rule event.
  EXPECT_EQ(serial.rule_emitted, serial.round_emitted);
  for (size_t threads : {2u, 4u}) {
    TraceTotals parallel = TotalsWithThreads(threads);
    EXPECT_TRUE(parallel == serial)
        << threads << " threads: rounds " << parallel.rounds << "/"
        << serial.rounds << ", emitted " << parallel.round_emitted << "/"
        << serial.round_emitted << ", inserted " << parallel.round_inserted
        << "/" << serial.round_inserted << ", rule emitted "
        << parallel.rule_emitted << "/" << serial.rule_emitted
        << ", tuples " << parallel.finish_tuples << "/"
        << serial.finish_tuples;
  }
}

// ---- EvalStats breakdowns -------------------------------------------------

TEST(TraceStats, PerRoundAndPerRuleBreakdownsFill) {
  Database db;
  MakeChain(&db, "edge", "v", 8);
  EvalStats stats;
  ASSERT_TRUE(
      EvaluateSemiNaive(TransitiveClosureProgram(), &db, {}, &stats).ok());
  ASSERT_FALSE(stats.rounds.empty());
  ASSERT_FALSE(stats.rule_stats.empty());
  size_t fired = 0;
  for (const auto& [rule, rs] : stats.rule_stats) {
    fired += rs.fired;
    EXPECT_FALSE(rule.empty());
  }
  EXPECT_GT(fired, 0u);
  std::string text = stats.ToString();
  EXPECT_NE(text.find("rounds:"), std::string::npos) << text;
  EXPECT_NE(text.find("rules:"), std::string::npos) << text;
}

// ---- The engine-run contract -----------------------------------------------
// Every engine run is one engine_start/engine_finish pair, error returns
// included, and leaves no '$' scratch relation in the caller's database.

void ExpectClosedRuns(const std::vector<TraceEvent>& events,
                      const Database& db, size_t runs) {
  EXPECT_EQ(CountKind(events, TraceEventKind::kEngineStart), runs);
  EXPECT_EQ(CountKind(events, TraceEventKind::kEngineFinish), runs);
  for (const std::string& name : db.RelationNames()) {
    EXPECT_NE(name.front(), '$') << name;
  }
}

TEST(EngineRunContract, SemiNaiveArityClashClosesRunAndDropsDeltas) {
  CollectingTraceSink sink;
  Database db;
  ASSERT_TRUE(db.AddFact("e", {"a"}).ok());
  ASSERT_TRUE(db.CreateRelation("q", 3).ok());
  // Stratum 0 (p) materialises $delta_p; stratum 1 fails on q's arity.
  Status status = EvaluateSemiNaive(
      ParseProgramOrDie("p(X) :- e(X). q(X, Y) :- p(X) & p(Y)."), &db,
      TracedOptions(&sink));
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument) << status.ToString();
  ExpectClosedRuns(sink.Events(), db, 1);
}

TEST(EngineRunContract, NonRecursiveArityClashClosesRun) {
  CollectingTraceSink sink;
  Database db;
  ASSERT_TRUE(db.AddFact("e", {"a"}).ok());
  ASSERT_TRUE(db.CreateRelation("p", 2).ok());
  Status status = EvaluateNonRecursive(ParseProgramOrDie("p(X) :- e(X)."),
                                       &db, TracedOptions(&sink));
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument) << status.ToString();
  ExpectClosedRuns(sink.Events(), db, 1);
}

Program SeparableWithSupportProgram() {
  return ParseProgramOrDie(
      "hop(X, Y) :- e(X, Z) & e(Z, Y)."
      "t(X, Y) :- e0(X, Y)."
      "t(X, Y) :- hop(X, Z) & t(Z, Y).");
}

TEST(EngineRunContract, SeparableSupportFailureClosesBothRuns) {
  CollectingTraceSink sink;
  Database db;
  ASSERT_TRUE(db.CreateRelation("hop", 3).ok());
  // The separable run and its nested support fixpoint (hop) both fail.
  auto result =
      EvaluateWithSeparable(SeparableWithSupportProgram(),
                            ParseAtomOrDie("t(a, Y)"), &db,
                            TracedOptions(&sink));
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument)
      << result.status().ToString();
  ExpectClosedRuns(sink.Events(), db, 2);
}

// Pins each engine's event sequence on a small fixed input: one line per
// event, (ev, engine, phase, round), with engine_finish's deterministic
// totals appended. `expected` starts with a newline so the raw-string pins
// read one event a line.
void ExpectEventLines(const std::vector<TraceEvent>& events,
                      const std::string& expected) {
  std::string lines = "\n";
  for (const TraceEvent& e : events) {
    lines += StrCat(TraceEventKindName(e.kind), " ", e.engine, " ", e.phase,
                    " ", e.round);
    if (e.kind == TraceEventKind::kEngineFinish) {
      lines += StrCat(" iterations=", e.iterations, " tuples=", e.tuples,
                      " insert_attempts=", e.insert_attempts,
                      " insert_new=", e.insert_new);
    }
    lines += "\n";
  }
  EXPECT_EQ(lines, expected);
}

void MakeSeparableWithSupportData(Database* db) {
  MakeChain(db, "e", "n", 4);
  SEPREC_CHECK(db->AddFact("e0", {"n2", "z"}).ok());
}

TEST(EngineRunPins, SemiNaive) {
  CollectingTraceSink sink;
  Database db;
  MakeChain(&db, "edge", "v", 3);
  ASSERT_TRUE(EvaluateSemiNaive(TransitiveClosureProgram(), &db,
                                TracedOptions(&sink)).ok());
  ExpectEventLines(sink.Events(), R"(
engine_start seminaive  0
plan seminaive compile/base 0
plan seminaive compile/delta 0
plan seminaive compile/base 0
round_start seminaive stratum1 0
rule seminaive stratum1 0
merge seminaive stratum1 0
round_end seminaive stratum1 0
round_start seminaive stratum1 1
rule seminaive stratum1 1
merge seminaive stratum1 1
round_end seminaive stratum1 1
round_start seminaive stratum1 2
rule seminaive stratum1 2
merge seminaive stratum1 2
round_end seminaive stratum1 2
engine_finish seminaive  0 iterations=3 tuples=3 insert_attempts=6 insert_new=6
)");
}

TEST(EngineRunPins, Naive) {
  CollectingTraceSink sink;
  Database db;
  MakeChain(&db, "edge", "v", 3);
  ASSERT_TRUE(EvaluateNaive(TransitiveClosureProgram(), &db,
                            TracedOptions(&sink)).ok());
  ExpectEventLines(sink.Events(), R"(
engine_start naive  0
plan naive compile/base 0
plan naive compile/base 0
round_start naive stratum1 0
rule naive stratum1 0
merge naive stratum1 0
round_end naive stratum1 0
round_start naive stratum1 1
rule naive stratum1 1
rule naive stratum1 1
merge naive stratum1 1
round_end naive stratum1 1
round_start naive stratum1 2
rule naive stratum1 2
rule naive stratum1 2
merge naive stratum1 2
round_end naive stratum1 2
engine_finish naive  0 iterations=3 tuples=3 insert_attempts=8 insert_new=3
)");
}

TEST(EngineRunPins, NonRecursive) {
  CollectingTraceSink sink;
  Database db;
  MakeChain(&db, "edge", "v", 4);
  ASSERT_TRUE(EvaluateNonRecursive(
                  ParseProgramOrDie("two(X, Z) :- edge(X, Y) & edge(Y, Z)."
                                    "three(X, Z) :- two(X, Y) & edge(Y, Z)."),
                  &db, TracedOptions(&sink)).ok());
  ExpectEventLines(sink.Events(), R"(
engine_start nonrecursive  0
rule nonrecursive stratum1 0
rule nonrecursive stratum2 0
engine_finish nonrecursive  0 iterations=0 tuples=3 insert_attempts=3 insert_new=3
)");
}

TEST(EngineRunPins, Separable) {
  CollectingTraceSink sink;
  Database db;
  MakeSeparableWithSupportData(&db);
  auto result = EvaluateWithSeparable(SeparableWithSupportProgram(),
                                      ParseAtomOrDie("t(n0, Y)"), &db,
                                      TracedOptions(&sink));
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->answer.size(), 1u);
  ExpectEventLines(sink.Events(), R"(
engine_start separable  0
engine_start seminaive  0
plan seminaive support/compile/base 0
round_start seminaive support/stratum1 0
rule seminaive support/stratum1 0
merge seminaive support/stratum1 0
round_end seminaive support/stratum1 0
engine_finish seminaive  0 iterations=1 tuples=2 insert_attempts=4 insert_new=4
round_start separable phase1 0
rule separable phase1 0
merge separable phase1 0
round_end separable phase1 0
round_start separable phase1 1
rule separable phase1 1
merge separable phase1 1
round_end separable phase1 1
round_start separable exit 0
rule separable exit 0
merge separable exit 0
round_end separable exit 0
engine_finish separable  0 iterations=3 tuples=5 insert_attempts=10 insert_new=10
)");
}

TEST(EngineRunPins, PreparedSeparable) {
  CollectingTraceSink sink;
  Database db;
  MakeSeparableWithSupportData(&db);
  Program program = SeparableWithSupportProgram();
  Atom query = ParseAtomOrDie("t(n0, Y)");
  auto sep = AnalyzeSeparable(program, "t");
  ASSERT_TRUE(sep.ok()) << sep.status().ToString();
  ParallelPolicy serial;
  serial.num_threads = 1;
  auto prepared = PreparedSeparable::Compile(program, *sep, query, &db, serial);
  ASSERT_TRUE(prepared.ok()) << prepared.status().ToString();
  auto result = (*prepared)->Execute(query, TracedOptions(&sink));
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->answer.size(), 1u);
  ExpectEventLines(sink.Events(), R"(
engine_start separable  0
engine_start seminaive  0
plan seminaive support/compile/base 0
round_start seminaive support/stratum1 0
rule seminaive support/stratum1 0
merge seminaive support/stratum1 0
round_end seminaive support/stratum1 0
engine_finish seminaive  0 iterations=1 tuples=2 insert_attempts=4 insert_new=4
round_start separable phase1 0
rule separable phase1 0
merge separable phase1 0
round_end separable phase1 0
round_start separable phase1 1
rule separable phase1 1
merge separable phase1 1
round_end separable phase1 1
round_start separable exit 0
rule separable exit 0
merge separable exit 0
round_end separable exit 0
engine_finish separable  0 iterations=3 tuples=5 insert_attempts=10 insert_new=10
)");
}

TEST(EngineRunPins, Magic) {
  CollectingTraceSink sink;
  Database db;
  MakeChain(&db, "edge", "v", 3);
  auto result = EvaluateWithMagic(TransitiveClosureProgram(),
                                  ParseAtomOrDie("tc(v0, Y)"), &db,
                                  TracedOptions(&sink));
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ExpectEventLines(sink.Events(), R"(
engine_start magic  0
engine_start seminaive  0
plan seminaive magic/compile/base 0
plan seminaive magic/compile/base 0
plan seminaive magic/compile/delta 0
round_start seminaive magic/stratum1 0
rule seminaive magic/stratum1 0
merge seminaive magic/stratum1 0
round_end seminaive magic/stratum1 0
round_start seminaive magic/stratum1 1
rule seminaive magic/stratum1 1
merge seminaive magic/stratum1 1
round_end seminaive magic/stratum1 1
round_start seminaive magic/stratum1 2
rule seminaive magic/stratum1 2
merge seminaive magic/stratum1 2
round_end seminaive magic/stratum1 2
round_start seminaive magic/stratum1 3
rule seminaive magic/stratum1 3
merge seminaive magic/stratum1 3
round_end seminaive magic/stratum1 3
plan seminaive magic/compile/base 0
plan seminaive magic/compile/delta 0
plan seminaive magic/compile/base 0
round_start seminaive magic/stratum2 0
rule seminaive magic/stratum2 0
merge seminaive magic/stratum2 0
round_end seminaive magic/stratum2 0
round_start seminaive magic/stratum2 1
rule seminaive magic/stratum2 1
merge seminaive magic/stratum2 1
round_end seminaive magic/stratum2 1
round_start seminaive magic/stratum2 2
rule seminaive magic/stratum2 2
merge seminaive magic/stratum2 2
round_end seminaive magic/stratum2 2
engine_finish seminaive  0 iterations=7 tuples=6 insert_attempts=12 insert_new=12
engine_finish magic  0 iterations=7 tuples=6 insert_attempts=12 insert_new=12
)");
}

TEST(EngineRunPins, Counting) {
  CollectingTraceSink sink;
  Database db;
  MakeChain(&db, "edge", "v", 3);
  auto result = EvaluateWithCounting(TransitiveClosureProgram(),
                                     ParseAtomOrDie("tc(v0, Y)"), &db,
                                     TracedOptions(&sink));
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ExpectEventLines(sink.Events(), R"(
engine_start counting  0
engine_start seminaive  0
plan seminaive counting/compile/base 0
plan seminaive counting/compile/base 0
plan seminaive counting/compile/delta 0
round_start seminaive counting/stratum1 0
rule seminaive counting/stratum1 0
merge seminaive counting/stratum1 0
round_end seminaive counting/stratum1 0
round_start seminaive counting/stratum1 1
rule seminaive counting/stratum1 1
merge seminaive counting/stratum1 1
round_end seminaive counting/stratum1 1
round_start seminaive counting/stratum1 2
rule seminaive counting/stratum1 2
merge seminaive counting/stratum1 2
round_end seminaive counting/stratum1 2
round_start seminaive counting/stratum1 3
rule seminaive counting/stratum1 3
merge seminaive counting/stratum1 3
round_end seminaive counting/stratum1 3
plan seminaive counting/compile/base 0
plan seminaive counting/compile/delta 0
plan seminaive counting/compile/base 0
round_start seminaive counting/stratum2 0
rule seminaive counting/stratum2 0
merge seminaive counting/stratum2 0
round_end seminaive counting/stratum2 0
round_start seminaive counting/stratum2 1
rule seminaive counting/stratum2 1
merge seminaive counting/stratum2 1
round_end seminaive counting/stratum2 1
round_start seminaive counting/stratum2 2
rule seminaive counting/stratum2 2
merge seminaive counting/stratum2 2
round_end seminaive counting/stratum2 2
plan seminaive counting/compile/base 0
round_start seminaive counting/stratum3 0
rule seminaive counting/stratum3 0
merge seminaive counting/stratum3 0
round_end seminaive counting/stratum3 0
engine_finish seminaive  0 iterations=8 tuples=8 insert_attempts=16 insert_new=16
engine_finish counting  0 iterations=8 tuples=8 insert_attempts=16 insert_new=16
)");
}

TEST(EngineRunPins, Qsqr) {
  CollectingTraceSink sink;
  Database db;
  MakeChain(&db, "edge", "v", 3);
  auto result = EvaluateWithQsqr(TransitiveClosureProgram(),
                                 ParseAtomOrDie("tc(v0, Y)"), &db,
                                 TracedOptions(&sink));
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ExpectEventLines(sink.Events(), R"(
engine_start qsqr  0
round_start qsqr pass 1
round_end qsqr pass 1
round_start qsqr pass 2
round_end qsqr pass 2
round_start qsqr pass 3
round_end qsqr pass 3
round_start qsqr pass 4
round_end qsqr pass 4
round_start qsqr pass 5
round_end qsqr pass 5
round_start qsqr pass 6
round_end qsqr pass 6
round_start qsqr pass 7
round_end qsqr pass 7
engine_finish qsqr  0 iterations=7 tuples=11 insert_attempts=22 insert_new=22
)");
}

TEST(EngineRunPins, Incremental) {
  CollectingTraceSink sink;
  Database db;
  MakeChain(&db, "edge", "v", 3);
  auto engine = IncrementalEngine::Create(TransitiveClosureProgram(), &db);
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  engine->set_trace(&sink);
  ASSERT_TRUE(engine->Initialize().ok());
  ASSERT_TRUE(engine->AddFact("edge", {"v2", "v3"}).ok());
  ASSERT_TRUE(engine->RemoveFact("edge", {"v0", "v1"}).ok());
  ExpectEventLines(sink.Events(), R"(
engine_start seminaive  0
plan seminaive init/compile/base 0
plan seminaive init/compile/delta 0
plan seminaive init/compile/base 0
round_start seminaive init/stratum1 0
rule seminaive init/stratum1 0
merge seminaive init/stratum1 0
round_end seminaive init/stratum1 0
round_start seminaive init/stratum1 1
rule seminaive init/stratum1 1
merge seminaive init/stratum1 1
round_end seminaive init/stratum1 1
round_start seminaive init/stratum1 2
rule seminaive init/stratum1 2
merge seminaive init/stratum1 2
round_end seminaive init/stratum1 2
engine_finish seminaive  0 iterations=3 tuples=3 insert_attempts=6 insert_new=6
engine_start incremental  0
round_start incremental insert 1
round_end incremental insert 1
round_start incremental insert 2
round_end incremental insert 2
round_start incremental insert 3
round_end incremental insert 3
round_start incremental insert 4
round_end incremental insert 4
engine_finish incremental  0 iterations=4 tuples=3 insert_attempts=8 insert_new=8
engine_start incremental  0
round_start incremental overdelete 1
round_end incremental overdelete 1
round_start incremental overdelete 2
round_end incremental overdelete 2
round_start incremental rederive 1
round_end incremental rederive 1
engine_finish incremental  0 iterations=2 tuples=0 insert_attempts=8 insert_new=8
)");
}

}  // namespace
}  // namespace seprec
