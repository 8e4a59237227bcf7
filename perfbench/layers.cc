// perfbench_layers: the service benchmark's per-layer harness.
//
//   perfbench_layers --workload NAME --seed N --work DIR
//
// Replays the workload's seeded requests in-process and times the calls
// into each src/ module's public functions, from outside: nothing inside
// the library is instrumented. Every timed call is recorded as a span
// (name, start, end, parent, request id) in memory; the spans are written
// to DIR/spans.jsonl at the end. Prints one JSON object of per-layer
// metrics on stdout (medians of the per-call times, exact counts as
// counts) and exits 1 when a replayed answer disagrees with the oracle.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "core/compiler.h"
#include "core/support.h"
#include "datalog/parser.h"
#include "eval/fixpoint.h"
#include "eval/incremental.h"
#include "magic/engine.h"
#include "oracle.h"
#include "plan/planner.h"
#include "separable/detection.h"
#include "separable/engine.h"
#include "server/json.h"
#include "server/service.h"
#include "storage/database.h"
#include "storage/io.h"
#include "storage/recovery.h"
#include "storage/relation.h"
#include "storage/segment/snapshot_v3.h"
#include "storage/wal.h"
#include "workload.h"

namespace perfbench {
namespace {

using seprec::Database;
using Clock = std::chrono::steady_clock;

[[noreturn]] void Die(const std::string& what) {
  std::fprintf(stderr, "perfbench_layers: %s\n", what.c_str());
  std::exit(2);
}

template <typename T>
T Must(seprec::StatusOr<T> v, const std::string& what) {
  if (!v.ok()) Die(what + ": " + v.status().ToString());
  return std::move(*v);
}

void Must(const seprec::Status& s, const std::string& what) {
  if (!s.ok()) Die(what + ": " + s.ToString());
}

// In-memory span log: one span per timed call, parented to the request
// (or phase) span that caused it.
class Spans {
 public:
  struct Span {
    std::string name;
    int64_t start_ns, end_ns;
    int64_t parent;  // index of the parent span, -1 for roots
    int64_t request;  // replayed request id, -1 outside the replay
  };

  int64_t Open(std::string name, int64_t parent, int64_t request) {
    spans_.push_back({std::move(name), NowNs(), 0, parent, request});
    return static_cast<int64_t>(spans_.size()) - 1;
  }
  // Closes span `id` and returns its duration in nanoseconds.
  double Close(int64_t id) {
    Span& s = spans_[static_cast<size_t>(id)];
    s.end_ns = NowNs();
    double ns = static_cast<double>(s.end_ns - s.start_ns);
    samples_[s.name].push_back(ns);
    return ns;
  }
  // Times fn() as a child span of `parent`.
  template <typename Fn>
  double Time(const std::string& name, int64_t parent, int64_t request,
              Fn&& fn) {
    int64_t id = Open(name, parent, request);
    fn();
    return Close(id);
  }
  // Median duration of the spans named `name`, in nanoseconds.
  double MedianNs(const std::string& name) const {
    auto it = samples_.find(name);
    if (it == samples_.end() || it->second.empty()) return 0;
    std::vector<double> v = it->second;
    std::nth_element(v.begin(), v.begin() + v.size() / 2, v.end());
    return v[v.size() / 2];
  }
  void Write(const std::string& path) const {
    std::ofstream out(path);
    for (const Span& s : spans_) {
      out << "{\"name\":\"" << s.name << "\",\"start_ns\":" << s.start_ns
          << ",\"end_ns\":" << s.end_ns << ",\"parent\":" << s.parent
          << ",\"request\":" << s.request << "}\n";
    }
  }

 private:
  static int64_t NowNs() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now().time_since_epoch())
        .count();
  }
  std::vector<Span> spans_;
  std::map<std::string, std::vector<double>> samples_;
};

seprec::TupleBatch Batch(const std::string& relation,
                         const std::vector<std::vector<std::string>>& rows,
                         seprec::BatchOp op) {
  seprec::TupleBatch b;
  b.relation = relation;
  b.arity = rows.empty() ? 0 : rows[0].size();
  b.op = op;
  for (const auto& row : rows) {
    std::vector<seprec::TypedCell> cells;
    for (const std::string& cell : row) {
      cells.push_back(seprec::TypedCell::Symbol(cell));
    }
    b.rows.push_back(std::move(cells));
  }
  return b;
}

seprec::TupleBatch MutationBatch(const Mutation& m) {
  std::string to = m.relation == "friend" ? Person(m.to) : Fresh(m.to);
  return Batch(m.relation, {{Person(m.from), to}},
               m.insert ? seprec::BatchOp::kInsert : seprec::BatchOp::kDelete);
}

// The request mix a workload's clients send, interleaved round-robin as
// the server sees them, truncated to `n`.
std::vector<Selection> ReplaySet(const Workload& w, size_t n) {
  std::vector<Selection> out;
  for (size_t i = 0; out.size() < n; ++i) {
    for (const auto& stream : w.streams) {
      if (out.size() < n) out.push_back(stream[i % stream.size()]);
    }
  }
  return out;
}

// Rendered sorted answer tuples, as the server renders them.
std::vector<std::string> Rendered(const seprec::Answer& answer,
                                  const Database& db) {
  std::vector<std::string> out = answer.ToStrings(db.symbols());
  std::sort(out.begin(), out.end());
  return out;
}

// Drops every relation of `db` outside `keep` (direct engine calls leave
// their IDB and scratch relations behind).
void DropDerived(Database* db, const std::set<std::string>& keep) {
  for (const std::string& name : db->RelationNames()) {
    if (!keep.count(name)) db->Drop(name, /*bump_generation=*/false);
  }
}

struct Args {
  std::string workload, work;
  uint64_t seed = 1;
};

int Main(int argc, char** argv) {
  Args args;
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string k = argv[i], v = argv[i + 1];
    if (k == "--workload") args.workload = v;
    else if (k == "--seed") args.seed = std::strtoull(v.c_str(), nullptr, 10);
    else if (k == "--work") args.work = v;
    else Die("unknown flag " + k);
  }
  Workload w;
  if (args.work.empty() || !MakeWorkload(args.workload, args.seed, &w)) {
    Die("usage: perfbench_layers --workload NAME --seed N --work DIR");
  }
  const Edb edb = GenerateEdb(w.sizes, args.seed);
  const Oracle oracle(edb);
  const auto rendered = edb.Render();
  std::set<std::string> edb_names;
  for (const auto& [rel, rows] : rendered) edb_names.insert(rel);
  std::filesystem::remove_all(args.work);
  std::filesystem::create_directories(args.work);
  Spans spans;
  std::map<std::string, double> metrics;
  size_t wrong = 0;

  // ---- storage: bulk load through the service's durable path, then
  // checkpoint, then serve from the v3 segments like a restarted server.
  const std::string data_dir = args.work + "/data";
  std::string snapshot_path;
  {
    Database db;
    seprec::RecoveryReport report;
    auto storage = Must(seprec::DurableStorage::Open(data_dir, &db, {},
                                                     &report),
                        "open data dir");
    seprec::ServiceOptions options;
    options.storage = storage.get();
    seprec::QueryService service(&db, options);
    for (const auto& [rel, rows] : rendered) {
      for (size_t off = 0; off < rows.size(); off += 5000) {
        std::vector<std::vector<std::string>> chunk(
            rows.begin() + static_cast<std::ptrdiff_t>(off),
            rows.begin() +
                static_cast<std::ptrdiff_t>(std::min(rows.size(), off + 5000)));
        Must(service.Apply(Batch(rel, chunk, seprec::BatchOp::kInsert)),
             "bulk load");
      }
    }
    seprec::CheckpointInfo info = Must(service.Checkpoint(), "checkpoint");
    snapshot_path = data_dir + "/" + info.snapshot_file;
  }
  auto load_snapshot = [&](Database* db) {
    double ns = spans.Time("storage.snapshot_load", -1, -1, [&] {
      Must(seprec::LoadSnapshotV3File(db, snapshot_path), "load snapshot");
    });
    metrics["storage.snapshot_load_ms"] = ns / 1e6;
  };
  Database db_core, db_engine;
  load_snapshot(&db_core);
  load_snapshot(&db_engine);
  {
    Database scan;
    load_snapshot(&scan);
    size_t rows = 0;
    double ns = spans.Time("storage.segment_scan", -1, -1, [&] {
      for (const std::string& name : scan.RelationNames()) {
        scan.Find(name)->ForEachRow([&](seprec::Row) { ++rows; });
      }
    });
    metrics["storage.segment_scan_ns_per_row"] = ns / static_cast<double>(rows);
    const std::string copy = args.work + "/resave.v3";
    double save_ns = spans.Time("storage.snapshot_save", -1, -1, [&] {
      Must(seprec::SaveSnapshotV3File(scan, copy), "save snapshot");
    });
    metrics["storage.snapshot_save_ms"] = save_ns / 1e6;
  }

  // ---- server: the service over a recovered durable database, warmed
  // exactly as the socket run warms it.
  Database db_service;
  seprec::RecoveryReport report;
  auto storage = Must(
      seprec::DurableStorage::Open(data_dir, &db_service, {}, &report),
      "recover data dir");
  seprec::ServiceOptions service_options;
  service_options.storage = storage.get();
  seprec::QueryService service(&db_service, service_options);
  for (const Selection& sel : w.warmup) {
    seprec::ServiceRequest req;
    req.program = ProgramText(sel.shape);
    req.query = QueryText(sel);
    Must(service.Execute(req), "warm-up");
  }

  // Per-shape processors and prepared plans for the core layer.
  struct ShapeState {
    std::unique_ptr<seprec::QueryProcessor> qp;
    std::unique_ptr<seprec::PreparedQuery> prepared;
  };
  std::map<Shape, ShapeState> shapes;

  const size_t replay_n = w.name == "cold_paper" ? 120 : 256;
  const std::vector<Selection> replay = ReplaySet(w, replay_n);
  db_core.counters().active = true;
  const uint64_t attempts0 = db_core.counters().attempts.load();
  const uint64_t novel0 = db_core.counters().novel.load();
  double sep_tuples = 0, sep_iters = 0, sep_runs = 0;
  double magic_tuples = 0, magic_runs = 0;
  double probes = 0, answers = 0;
  for (size_t r = 0; r < replay.size(); ++r) {
    const Selection& sel = replay[r];
    const int64_t rid = static_cast<int64_t>(r);
    const int64_t root = spans.Open("request", -1, rid);
    const std::string line = QueryLine(rid, sel);
    const std::string& text = ProgramText(sel.shape);
    const std::string query_text = QueryText(sel);
    const std::vector<std::string> want = oracle.Answer(sel);

    // server: decode, execute (warm caches), encode.
    spans.Time("server.decode", root, rid, [&] {
      Must(seprec::json::Parse(line), "decode");
    });
    std::vector<seprec::QueryOutcome> outcomes;
    spans.Time("server.execute", root, rid, [&] {
      seprec::ServiceRequest req;
      req.program = text;
      req.query = query_text;
      outcomes = Must(service.Execute(req), "service execute");
    });
    if (outcomes.size() != 1 || outcomes[0].tuples != want) ++wrong;
    spans.Time("server.encode", root, rid, [&] {
      std::string out;
      for (const std::string& tuple : outcomes[0].tuples) {
        seprec::json::Object obj;
        obj.emplace("id", seprec::json::Value(rid));
        obj.emplace("ev", seprec::json::Value("result"));
        obj.emplace("tuple", seprec::json::Value(tuple));
        out += seprec::json::Serialize(seprec::json::Value(std::move(obj)));
        out += '\n';
      }
      seprec::json::Object obj;
      obj.emplace("id", seprec::json::Value(rid));
      obj.emplace("ev", seprec::json::Value("answer"));
      obj.emplace("answers",
                  seprec::json::Value(static_cast<int64_t>(want.size())));
      out += seprec::json::Serialize(seprec::json::Value(std::move(obj)));
    });

    // datalog, core, opt, separable detection, plan.
    seprec::Program program;
    spans.Time("datalog.parse", root, rid, [&] {
      program = Must(seprec::ParseProgram(text), "parse");
    });
    const seprec::Atom atom = Must(seprec::ParseAtom(query_text), "atom");
    const std::string pred = QueryPredicate(sel.shape);
    std::unique_ptr<seprec::QueryProcessor> qp;
    spans.Time("core.create", root, rid, [&] {
      qp = std::make_unique<seprec::QueryProcessor>(
          Must(seprec::QueryProcessor::Create(program), "create"));
    });
    spans.Time("opt.pipeline", root, rid, [&] {
      Must(qp->AnalyzeQuery(atom), "analyze query");
    });
    spans.Time("separable.detect", root, rid, [&] {
      (void)seprec::AnalyzeSeparable(program, pred);
    });
    ShapeState& st = shapes[sel.shape];
    if (st.prepared == nullptr) {
      st.qp = std::move(qp);
      spans.Time("core.prepare", root, rid, [&] {
        st.prepared = std::make_unique<seprec::PreparedQuery>(
            Must(st.qp->Prepare(atom, &db_core), "prepare"));
      });
    } else {
      // Re-prepare with a throwaway processor: the plan-miss cost.
      spans.Time("core.prepare", root, rid, [&] {
        Must(qp->Prepare(atom, &db_core), "prepare");
      });
    }
    spans.Time("plan.join_order", root, rid, [&] {
      for (const seprec::Rule& rule : program.rules) {
        std::vector<const seprec::Relation*> rels;
        for (const seprec::Literal& lit : rule.body) {
          rels.push_back(lit.kind == seprec::Literal::Kind::kAtom
                             ? db_core.Find(lit.atom.predicate)
                             : nullptr);
        }
        if (std::find(rels.begin(), rels.end(), nullptr) != rels.end()) {
          continue;
        }
        seprec::PlanJoinOrder(rule, rels, &db_core.stats(),
                              seprec::JoinOrderMode::kCostBased,
                              /*indexed=*/true, /*allow_merge=*/true);
      }
    });
    seprec::QueryResult result;
    spans.Time("core.execute", root, rid, [&] {
      result = Must(st.prepared->Execute(atom, &db_core, {}, nullptr, nullptr,
                                         /*commit=*/false),
                    "execute");
    });
    if (Rendered(result.answer, db_core) != want) ++wrong;
    for (const auto& [rule, rs] : result.stats.rule_stats) probes += rs.probes;
    answers += static_cast<double>(result.answer.size());
    if (st.prepared->has_compiled_schema()) {
      seprec::Phase1Closure closure;
      Must(st.prepared->Execute(atom, &db_core, {}, nullptr, &closure, false),
           "capture");
      spans.Time("core.execute_reuse", root, rid, [&] {
        result = Must(st.prepared->Execute(atom, &db_core, {}, &closure,
                                           nullptr, false),
                      "execute with reuse");
      });
      if (Rendered(result.answer, db_core) != want) ++wrong;
    }

    // Direct engine calls on their own database (they leave IDB behind).
    spans.Time("core.support", root, rid, [&] {
      Must(seprec::MaterializeSupport(program, pred, &db_engine), "support");
    });
    if (auto sep = seprec::AnalyzeSeparable(program, pred); sep.ok()) {
      seprec::SeparableRunResult run;
      spans.Time("separable.eval", root, rid, [&] {
        run = Must(seprec::EvaluateWithSeparable(program, *sep, atom,
                                                 &db_engine),
                   "separable");
      });
      if (Rendered(run.answer, db_engine) != want) ++wrong;
      sep_tuples += static_cast<double>(run.stats.max_relation_size);
      sep_iters += static_cast<double>(run.stats.iterations);
      ++sep_runs;
      DropDerived(&db_engine, edb_names);
    }
    seprec::MagicRunResult magic;
    spans.Time("magic.eval", root, rid, [&] {
      magic = Must(seprec::EvaluateWithMagic(program, atom, &db_engine),
                   "magic");
    });
    if (Rendered(magic.answer, db_engine) != want) ++wrong;
    magic_tuples += static_cast<double>(magic.stats.max_relation_size);
    ++magic_runs;
    DropDerived(&db_engine, edb_names);
    spans.Close(root);
  }
  const uint64_t attempts = db_core.counters().attempts.load() - attempts0;
  const uint64_t novel = db_core.counters().novel.load() - novel0;
  db_core.counters().active = false;

  auto us = [&](const char* span) { return spans.MedianNs(span) / 1e3; };
  auto ms = [&](const char* span) { return spans.MedianNs(span) / 1e6; };
  metrics["server.decode_us"] = us("server.decode");
  metrics["server.execute_us"] = us("server.execute");
  metrics["server.encode_us"] = us("server.encode");
  metrics["datalog.parse_us"] = us("datalog.parse");
  metrics["core.create_ms"] = ms("core.create");
  metrics["opt.pipeline_ms"] = ms("opt.pipeline");
  metrics["separable.detect_us"] = us("separable.detect");
  metrics["core.prepare_ms"] = ms("core.prepare");
  metrics["plan.join_order_us"] = us("plan.join_order");
  metrics["core.execute_us"] = us("core.execute");
  metrics["core.execute_reuse_us"] = us("core.execute_reuse");
  metrics["core.support_us"] = us("core.support");
  metrics["separable.eval_us"] = us("separable.eval");
  metrics["separable.max_relation_tuples"] =
      sep_runs ? sep_tuples / sep_runs : 0;
  metrics["separable.iterations"] = sep_runs ? sep_iters / sep_runs : 0;
  metrics["magic.eval_us"] = us("magic.eval");
  metrics["magic.max_relation_tuples"] =
      magic_runs ? magic_tuples / magic_runs : 0;
  metrics["eval.probes_per_answer"] = answers ? probes / answers : 0;
  metrics["storage.dedup_novel_ratio"] =
      attempts ? static_cast<double>(novel) / static_cast<double>(attempts)
               : 0;

  // ---- server write path: the workload's own mutations through Apply
  // (WAL append + fsync + closure maintenance), each followed by the
  // subscription sweep the socket server runs on the mutator's thread.
  {
    const std::vector<Mutation> script =
        MakeMutations(w, oracle, 200, args.seed);
    const int64_t phase = spans.Open("write_path", -1, -1);
    for (const Mutation& m : script) {
      size_t changed = 0;
      spans.Time("server.apply", phase, -1, [&] {
        changed = Must(service.Apply(MutationBatch(m)), "apply");
      });
      if (changed != 1) ++wrong;
      spans.Time("server.notify", phase, -1, [&] {
        for (const Selection& sub : w.subscriptions) {
          seprec::ServiceRequest req;
          req.program = ProgramText(sub.shape);
          req.query = QueryText(sub);
          Must(service.Execute(req), "subscription re-run");
        }
      });
    }
    spans.Close(phase);
    metrics["server.apply_us"] = us("server.apply");
    metrics["server.notify_ms"] = ms("server.notify");
  }

  // ---- eval: DRed split-phase updates on the closure program of the
  // subscribed persons, under friend insert/delete pairs.
  {
    Workload fw = w;
    fw.friend_mutations = true;
    const std::vector<Mutation> script =
        MakeMutations(fw, oracle, 200, args.seed);
    std::string text =
        "r(Y) :- s(Y).\nr(Y) :- r(X) & friend(X, Y).\n"
        "r(Y) :- r(X) & idol(X, Y).\n";
    for (const Selection& sub : w.subscriptions) {
      text += "s(" + Person(sub.key) + ").\n";
    }
    seprec::Program program = Must(seprec::ParseProgram(text), "parse");
    seprec::IncrementalEngine engine =
        Must(seprec::IncrementalEngine::Create(program, &db_engine), "dred");
    Must(engine.Initialize(), "dred init");
    seprec::Relation* friends = db_engine.Find("friend");
    const int64_t phase = spans.Open("dred", -1, -1);
    for (const Mutation& m : script) {
      if (m.relation != "friend") continue;
      std::vector<std::vector<seprec::Value>> rows = {
          {db_engine.symbols().Intern(Person(m.from)),
           db_engine.symbols().Intern(Person(m.to))}};
      if (m.insert) {
        friends->Insert(seprec::Row(rows[0].data(), 2));
        spans.Time("eval.dred_insert", phase, -1, [&] {
          Must(engine.PropagateInserted("friend", rows), "propagate");
        });
      } else {
        spans.Time("eval.dred_delete", phase, -1, [&] {
          Must(engine.PrepareRemoval("friend", rows), "overdelete");
          seprec::Relation victims("victims", 2);
          victims.Insert(seprec::Row(rows[0].data(), 2));
          friends->EraseRows(victims);
          Must(engine.FinishRemoval(), "rederive");
        });
      }
    }
    spans.Close(phase);
    metrics["eval.dred_insert_us"] = us("eval.dred_insert");
    metrics["eval.dred_delete_us"] = us("eval.dred_delete");
  }
  // After the engine is gone: it owns plans over these relations.
  DropDerived(&db_engine, edb_names);

  // ---- eval: full bottom-up semi-naive evaluation of the workload's
  // programs on a small instance (the full instance's closures are far
  // larger than any one request touches).
  {
    Sizes small = w.sizes;
    small.people /= 10;
    small.items /= 10;
    small.cells /= 10;
    small.zones /= 10;
    small.nodes /= 10;
    small.celeb_groups = 1;
    Database db_small;
    for (const auto& [rel, rows] : GenerateEdb(small, args.seed).Render()) {
      Must(seprec::ApplyTupleBatch(
               &db_small, Batch(rel, rows, seprec::BatchOp::kInsert)),
           "small load");
    }
    std::set<Shape> used;
    for (const Selection& sel : replay) used.insert(sel.shape);
    for (int rep = 0; rep < 3; ++rep) {
      spans.Time("eval.seminaive", -1, -1, [&] {
        for (Shape shape : used) {
          Must(seprec::EvaluateSemiNaive(
                   Must(seprec::ParseProgram(ProgramText(shape)), "parse"),
                   &db_small),
               "seminaive");
          DropDerived(&db_small, edb_names);
        }
      });
    }
    metrics["eval.seminaive_ms"] = ms("eval.seminaive");
  }

  // ---- storage primitives over the workload's two largest relations.
  {
    std::vector<std::vector<seprec::Value>> rows;
    for (const char* rel : {"friend", "perfectFor"}) {
      db_engine.Find(rel)->ForEachRow([&](seprec::Row row) {
        rows.emplace_back(row.begin(), row.end());
      });
    }
    const double n = static_cast<double>(rows.size());
    seprec::Relation rel("copy", 2);
    metrics["storage.insert_ns"] =
        spans.Time("storage.insert", -1, -1, [&] {
          for (const auto& row : rows) rel.Insert(seprec::Row(row.data(), 2));
        }) / n;
    metrics["storage.contains_ns"] =
        spans.Time("storage.contains", -1, -1, [&] {
          for (const auto& row : rows) {
            if (!rel.Contains(seprec::Row(row.data(), 2))) ++wrong;
          }
        }) / n;
    const seprec::Index* index = nullptr;
    metrics["storage.index_build_ms"] =
        spans.Time("storage.index_build", -1, -1, [&] {
          index = &rel.GetIndex({0});
        }) / 1e6;
    size_t matches = 0;
    metrics["storage.index_probe_ns"] =
        spans.Time("storage.index_probe", -1, -1, [&] {
          for (const auto& row : rows) {
            index->ForEach(seprec::Row(row.data(), 1),
                           [&](uint32_t) { ++matches; });
          }
        }) / n;
    if (matches < rows.size()) ++wrong;
    seprec::ShardedSink sink(2);
    seprec::Relation merged("merged", 2);
    metrics["storage.sink_insert_ns"] =
        spans.Time("storage.sink_insert", -1, -1, [&] {
          for (const auto& row : rows) sink.Insert(seprec::Row(row.data(), 2));
          sink.MergeInto(&merged);
        }) / n;
    if (merged.size() != rel.size()) ++wrong;

    const std::string wal_path = args.work + "/bench.wal";
    auto wal = Must(
        seprec::WalWriter::Open(wal_path, seprec::FsyncPolicy::kAlways),
        "wal open");
    const uint64_t offset0 = wal->offset();
    const size_t appends = 200;
    for (size_t i = 0; i < appends; ++i) {
      const auto& row = rendered.at("friend")[i];
      seprec::TupleBatch batch =
          Batch("friend", {row}, seprec::BatchOp::kInsert);
      spans.Time("storage.wal_append", -1, -1,
                 [&] { Must(wal->Append(batch), "wal append"); });
    }
    metrics["storage.wal_append_us"] = us("storage.wal_append");
    metrics["storage.wal_bytes_per_row"] =
        static_cast<double>(wal->offset() - offset0) / appends;
  }

  spans.Write(args.work + "/spans.jsonl");
  std::ostringstream out;
  out.precision(9);
  out << "{\"wrong\":" << wrong << ",\"replayed\":" << replay.size();
  for (const auto& [name, value] : metrics) {
    out << ",\"" << name << "\":" << value;
  }
  out << "}";
  std::printf("%s\n", out.str().c_str());
  return wrong == 0 ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
