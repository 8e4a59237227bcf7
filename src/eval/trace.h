// Structured evaluation tracing: typed events emitted by every engine.
//
// The paper's cost model (Definition 4.2) is stated in terms of the sizes
// of constructed relations and per-phase work. EvalStats reports the final
// sizes; the trace layer reports how they got there: per-round deltas,
// per-rule probe/emit counts, sharded-merge statistics, governor activity,
// and thread-pool pressure. Engines hold a `TraceSink*` (default null) and
// guard every emission with a null check, so the disabled path costs one
// branch per round — cheap enough that the bench-regression gate holds
// with tracing off.
//
// Event schema (one JSON object per line from JsonTraceSink; all events
// carry "v" (schema version), "seq" (global order), "t" (seconds since the
// sink was created) and "ev"):
//
//   engine_start   engine
//   engine_finish  engine, seconds, iterations, tuples, polls,
//                  insert_attempts, insert_new
//   round_start    engine, phase, round, delta
//   round_end      engine, phase, round, emitted, inserted, delta
//   rule           engine, phase, round, rule, emitted, inserted, probes
//   merge          engine, phase, round, staged, inserted
//   parallel_round engine, phase, round, partitions, threads, queue_depth
//   governor_trip  cause, detail
//   cache          phase (cache layer: "processor"/"plan"/"closure"/"all"),
//                  cause ("hit"/"miss"/"store"/"evict"/"purge"), detail (key)
//   session        cause ("open"/"close"/"request"), detail
//   pass           pass (pipeline pass name, or "strategy" for the final
//                  selection), verdict ("proved"/"rewritten"/"abstained",
//                  or the strategy name), detail — schema v2+
//   plan           engine, phase, rule, mode ("cbo"/"cbo-fallback"/
//                  "greedy"/"textual"), order (comma-joined body indices
//                  of the positive atoms in scan order), cost (estimated
//                  row visits), est_rows (estimated output bindings) —
//                  schema v3+; algo ("merge" when the leading atom pair
//                  merge-joins on ordered segments, else "hash") —
//                  schema v5+
//   delta          phase ("insert"/"delete"), detail (relation), delta
//                  (rows that actually changed the relation), inserted
//                  (cached closures patched in place), emitted (cached
//                  closures invalidated), seconds — schema v4+
//   subscription   cause ("subscribe"/"unsubscribe"/"notify"/"drop"),
//                  detail (subscription id and query), delta (tuples
//                  delivered by a notify) — schema v4+
//   note           detail
//
// Semantics: `emitted` counts head tuples produced by rule bodies,
// duplicates included — it is deterministic for a given program and
// database, independent of thread count. `inserted` counts tuples that
// were new in the target relation; per-round totals are thread-invariant
// (the canonical ShardedSink merge dedupes identically), but per-rule
// inserted counts under parallel rounds depend on which worker staged a
// duplicate first, so cross-run comparisons should use `emitted`.
#ifndef SEPREC_EVAL_TRACE_H_
#define SEPREC_EVAL_TRACE_H_

#include <cstdint>
#include <mutex>
#include <ostream>
#include <string>
#include <vector>

#include "util/timer.h"

namespace seprec {

enum class TraceEventKind {
  kEngineStart,
  kEngineFinish,
  kRoundStart,
  kRoundEnd,
  kRule,
  kMerge,
  kParallelRound,
  kGovernorTrip,
  kCache,    // query-service cache activity (hit/miss/store/evict/purge)
  kSession,  // query-service session lifecycle (open/request/close)
  kPass,     // static-analysis pipeline verdicts and strategy selection
  kPlan,     // cost-based planner verdict for one compiled rule body
  kDelta,    // incremental mutation applied through the query service
  kSubscription,  // server subscription lifecycle and delivery
  kNote,
};

const char* TraceEventKindName(TraceEventKind kind);

// One typed event. Which fields are meaningful depends on `kind` (see the
// schema above); sinks serialise only the fields the kind defines.
struct TraceEvent {
  TraceEventKind kind = TraceEventKind::kNote;
  std::string engine;  // "seminaive", "naive", "separable", "magic", ...
  std::string phase;   // "stratum0", "phase1", "exit", "insert", ...
  std::string rule;    // source text of the rule (kRule)
  std::string cause;   // stop cause (kGovernorTrip); verdict (kPass);
                       // planner mode (kPlan)
  std::string detail;  // free-form context (kGovernorTrip, kNote); atom
                       // order (kPlan)
  std::string algo;    // kPlan: "hash" | "merge" (leading-pair join)
  uint64_t round = 0;
  uint64_t emitted = 0;         // head tuples produced, duplicates included
  uint64_t inserted = 0;        // tuples new in the target relation
  uint64_t probes = 0;          // candidate rows examined by join steps
  uint64_t staged = 0;          // rows staged into a ShardedSink pre-dedupe
  uint64_t delta = 0;           // rows feeding the next round
  uint64_t partitions = 0;      // hash partitions of a parallel round
  uint64_t threads = 0;         // resolved worker count
  uint64_t queue_depth = 0;     // thread-pool backlog when scheduling began
  uint64_t iterations = 0;      // kEngineFinish: total fixpoint rounds
  uint64_t tuples = 0;          // kEngineFinish: distinct tuples inserted
  uint64_t polls = 0;           // kEngineFinish: governor polls observed
  uint64_t insert_attempts = 0; // kEngineFinish: Relation::Insert calls
  uint64_t insert_new = 0;      // kEngineFinish: inserts that were new rows
  uint64_t est_rows = 0;        // kPlan: estimated output bindings
  double cost = 0.0;            // kPlan: estimated cost (row visits)
  double seconds = 0.0;
};

// Receives events from engines. Implementations must be safe to call from
// multiple threads concurrently: parallel workers do not emit directly, but
// nested engines can interleave with governor trips observed from workers.
class TraceSink {
 public:
  virtual ~TraceSink() = default;
  virtual void Emit(const TraceEvent& event) = 0;
};

// Serialises events as JSON lines ("\n"-terminated objects) to an ostream.
// Events are stamped with a global sequence number and seconds since the
// sink was constructed; emission is serialised by an internal mutex.
class JsonTraceSink : public TraceSink {
 public:
  explicit JsonTraceSink(std::ostream* out) : out_(out) {}
  void Emit(const TraceEvent& event) override;

  // v2 added the "pass" event (static-analysis pipeline verdicts); v3
  // added the "plan" event (cost-based planner verdicts); v4 added the
  // "delta" and "subscription" events (incremental maintenance and the
  // server's streaming subscriptions); v5 adds the "algo" field to
  // "plan" events (merge-join vs hash-join choice). Every earlier event
  // serialises identically under v5.
  static constexpr int kSchemaVersion = 5;

 private:
  std::ostream* out_;
  std::mutex mu_;
  uint64_t seq_ = 0;
  WallTimer timer_;
};

// Buffers events in memory; the test-side sink.
class CollectingTraceSink : public TraceSink {
 public:
  void Emit(const TraceEvent& event) override {
    std::lock_guard<std::mutex> lock(mu_);
    events_.push_back(event);
  }

  // Copies out the events observed so far.
  std::vector<TraceEvent> Events() const {
    std::lock_guard<std::mutex> lock(mu_);
    return events_;
  }

 private:
  mutable std::mutex mu_;
  std::vector<TraceEvent> events_;
};

class Database;
class ExecutionContext;
struct EvalStats;

// One engine run: engine_start when constructed, engine_finish when
// destroyed, so every exit of an engine entry point — error returns
// included — closes the pair. The one place engines report a run (DESIGN.md
// §9). With a null sink it only keeps the clock.
class EngineSpan {
 public:
  // Attaches `trace` to `ctx` (first wins: a nested engine sharing the
  // caller's context reports to the outermost sink), switches on `db`'s
  // insert counters and snapshots them and ctx's poll count. `ctx` may be
  // null; engine_finish then reports 0 polls.
  EngineSpan(const char* engine, TraceSink* trace, Database* db,
             ExecutionContext* ctx);
  ~EngineSpan();
  EngineSpan(const EngineSpan&) = delete;
  EngineSpan& operator=(const EngineSpan&) = delete;

  // Seconds since the span opened.
  double Seconds() const { return timer_.Seconds(); }

  // The run's totals engine_finish reports. Engines that count their own
  // rounds add them here. An engine whose totals accumulate in an EvalStats
  // shared with the nested engines it runs points the span at it instead:
  // iterations and tuples_inserted are read when the span closes, so
  // `stats` must be declared before the span. (A `return result;` that
  // moves the stats out first leaves those scalar counters intact.)
  void AddIterations(uint64_t n) { iterations_ += n; }
  void AddTuples(uint64_t n) { tuples_ += n; }
  void CountFrom(const EvalStats* stats) { stats_ = stats; }

 private:
  const char* engine_;
  TraceSink* trace_;
  Database* db_;
  const ExecutionContext* ctx_;
  const EvalStats* stats_ = nullptr;
  WallTimer timer_;
  uint64_t iterations_ = 0;
  uint64_t tuples_ = 0;
  uint64_t polls_before_ = 0;
  uint64_t attempts_before_ = 0;
  uint64_t novel_before_ = 0;
};

}  // namespace seprec

#endif  // SEPREC_EVAL_TRACE_H_
