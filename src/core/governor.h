// The execution governor: one ExecutionLimits/ExecutionContext pair
// carries every resource bound a query evaluation honours — wall-clock
// deadline, cooperative cancellation, iteration and tuple budgets, and
// byte-level memory accounting — and every engine polls it at its loop
// boundaries instead of rolling its own checks.
//
// Two calling conventions, decided by FixpointOptions::context:
//
//   * Direct engine calls (context == nullptr) run a private context and
//     convert a tripped limit into RESOURCE_EXHAUSTED / CANCELLED at the
//     entry point, leaving partially materialised relations in the
//     database — the historical contract the engine tests rely on.
//   * QueryProcessor::Answer owns a context and evaluates each attempt in
//     a private overlay over the caller's Database (Database(base)). On a
//     trip it drops the overlay and returns OK with QueryResult::partial
//     set — the caller's Database is never left half-materialised. Because
//     evaluation is stratified and monotone within a stratum, every tuple
//     a truncated run produced is a true tuple, so a partial answer is
//     always a subset of the full one.
#ifndef SEPREC_CORE_GOVERNOR_H_
#define SEPREC_CORE_GOVERNOR_H_

#include <atomic>
#include <cstdint>
#include <limits>
#include <mutex>
#include <string>

#include "storage/database.h"
#include "util/deadline.h"
#include "util/status.h"

namespace seprec {

class TraceSink;

// How much intra-query parallelism an evaluation may use. Not a resource
// *limit* (it never trips the governor); it rides on ExecutionLimits so
// every engine entry point receives it through the same FixpointOptions
// plumbing the budgets use.
struct ParallelPolicy {
  // Worker threads for the parallel evaluation paths (partitioned
  // semi-naive deltas, separable phase-2 classes). 0 means "auto": the
  // SEPREC_THREADS environment variable, else 1. 1 disables the thread
  // pool entirely; results are identical for every value (see DESIGN.md
  // "Parallel execution model").
  size_t num_threads = 0;

  // Rounds with fewer staged delta rows than this run serially — the
  // partition/merge overhead would dominate the join work.
  size_t min_rows_per_task = 128;

  // The concrete thread count this policy resolves to (>= 1).
  size_t ResolvedThreads() const;
  bool Enabled() const { return ResolvedThreads() > 1; }
};

struct ExecutionLimits {
  static constexpr size_t kUnlimited = std::numeric_limits<size_t>::max();

  // Stop once this many fixpoint rounds / search expansions ran, summed
  // across strata and sub-evaluations of the query.
  size_t max_iterations = kUnlimited;
  // Stop once this many tuples were inserted into governed relations.
  size_t max_tuples = kUnlimited;
  // Stop once the database's memory accountant grew by this many bytes
  // beyond its level when the context started tracking.
  size_t max_bytes = kUnlimited;
  // Wall-clock deadline in milliseconds; negative means none.
  int64_t timeout_ms = -1;

  // Intra-query parallelism (not a limit; excluded from Unlimited()).
  ParallelPolicy parallel;

  bool Unlimited() const {
    return max_iterations == kUnlimited && max_tuples == kUnlimited &&
           max_bytes == kUnlimited && timeout_ms < 0;
  }
};

// Cooperative cancellation: any thread may Cancel(); the evaluating thread
// observes it at the next governor poll. This is the only governor state
// shared across threads.
class CancellationToken {
 public:
  void Cancel() { cancelled_.store(true, std::memory_order_relaxed); }
  bool cancelled() const {
    return cancelled_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<bool> cancelled_{false};
};

enum class StopCause {
  kNone,
  kDeadline,
  kCancelled,
  kIterations,
  kTuples,
  kBytes,
};

// Human-readable phrase, e.g. "deadline exceeded" — used in CLI banners.
std::string_view StopCauseToString(StopCause cause);

// Why a result is partial: the tripped limit plus a one-line message.
struct DegradationInfo {
  StopCause cause = StopCause::kNone;
  std::string message;
};

// The per-evaluation governor state. Engines call ShouldStop() /
// NoteIterationAndCheck() at loop boundaries and break out cleanly when it
// returns true; the first tripped limit latches and every later poll keeps
// reporting it.
//
// Thread model: TrackMemory and NoteIterationAndCheck belong to the
// evaluation's driving thread; ShouldStop, NoteTuples, stopped(), and
// cause() are safe from pool workers too (the counters are relaxed
// atomics, the latch is guarded by a mutex, and the deadline/accountant
// reads are plain loads of values that only the driving thread writes
// before the parallel region starts). Workers poll ShouldStop between
// task units so deadlines, cancellation, and byte budgets are honored
// mid-round, not just at the next round boundary.
class ExecutionContext {
 public:
  explicit ExecutionContext(const ExecutionLimits& limits,
                            CancellationToken* cancel = nullptr);

  // Starts charging `accountant` against max_bytes, from its current level
  // (the delta is what the evaluation itself allocates). First call wins;
  // later calls with the same or another accountant are ignored.
  void TrackMemory(const MemoryAccountant* accountant);

  // Attaches a trace sink: every poll is counted and the first tripped
  // limit emits a governor_trip event. First call wins, mirroring
  // TrackMemory — the outermost engine's sink observes the whole run.
  void SetTrace(TraceSink* trace) {
    if (trace_ == nullptr && trace != nullptr) trace_ = trace;
  }
  TraceSink* trace() const { return trace_; }

  // Governor polls observed so far (ShouldStop calls, any thread).
  uint64_t polls() const { return polls_.load(std::memory_order_relaxed); }

  // Polls deadline, cancellation, and the tuple/byte budgets. Returns true
  // (and latches the cause) when the evaluation must stop. Carries the
  // "governor.poll" failpoint, which injects a mid-fixpoint cancellation.
  bool ShouldStop();

  // Counts one loop iteration against max_iterations, then polls.
  bool NoteIterationAndCheck();

  // Counts `n` tuple insertions against max_tuples (checked at the next
  // poll, keeping the hot insert path free of clock reads). Safe from
  // worker threads.
  void NoteTuples(size_t n) { tuples_.fetch_add(n, std::memory_order_relaxed); }

  bool stopped() const {
    return cause_.load(std::memory_order_acquire) != StopCause::kNone;
  }
  StopCause cause() const { return cause_.load(std::memory_order_acquire); }
  std::string message() const;

  // The limits this context enforces — engines also read the parallel
  // policy (limits().parallel) from here, so a caller-supplied context
  // carries its policy into every nested engine call.
  const ExecutionLimits& limits() const { return limits_; }

  size_t iterations() const { return iterations_; }
  size_t tuples() const { return tuples_.load(std::memory_order_relaxed); }
  // Bytes the tracked accountant grew since TrackMemory.
  size_t BytesUsed() const;

  // OK when nothing tripped; CANCELLED or RESOURCE_EXHAUSTED otherwise.
  Status ToStatus() const;
  DegradationInfo degradation() const { return {cause(), message()}; }

 private:
  bool Latch(StopCause cause, std::string message);

  ExecutionLimits limits_;
  CancellationToken* cancel_;  // not owned; may be null
  Deadline deadline_;
  const MemoryAccountant* accountant_ = nullptr;  // not owned; may be null
  size_t baseline_bytes_ = 0;
  size_t iterations_ = 0;  // driving thread only
  std::atomic<size_t> tuples_{0};
  std::atomic<uint64_t> polls_{0};
  // Set once before evaluation starts (SetTrace first-wins), then only
  // read — same publication discipline as accountant_.
  TraceSink* trace_ = nullptr;  // not owned; may be null
  // First tripped limit. cause_ is the cross-thread flag; message_ is
  // written once under latch_mu_ before cause_ is published (release) and
  // read under latch_mu_.
  std::atomic<StopCause> cause_{StopCause::kNone};
  mutable std::mutex latch_mu_;
  std::string message_;  // guarded by latch_mu_
};

// Adopt-or-own helper used by every engine entry point: adopt the caller's
// context when one was supplied (the caller handles stops and isolation),
// else run a private context and convert a trip into an error Status when
// the entry point returns.
class GovernorScope {
 public:
  GovernorScope(const ExecutionLimits& limits, CancellationToken* cancel,
                ExecutionContext* caller)
      : local_(limits, cancel), caller_(caller) {}

  ExecutionContext* ctx() { return caller_ != nullptr ? caller_ : &local_; }
  bool owned() const { return caller_ == nullptr; }

  // Non-OK only when this scope owns the context and a limit tripped.
  Status ExitStatus() {
    return owned() && ctx()->stopped() ? ctx()->ToStatus() : Status::OK();
  }

 private:
  ExecutionContext local_;
  ExecutionContext* caller_;
};

}  // namespace seprec

#endif  // SEPREC_CORE_GOVERNOR_H_
