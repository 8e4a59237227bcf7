// perfbench_load: the service benchmark's socket load generator.
//
//   perfbench_load --cli PATH --workload NAME --seed N --seconds S
//                  --work DIR [--setups N] [--server-trace FILE]
//                  [--max-closures N] [--server-failpoints SPEC]
//
// For each of --setups (default 4) server instances in turn: starts
// `seprec_cli serve --data-dir DIR/data<k> --fsync always` on a Unix
// socket, bulk-loads the seeded EDB over the socket, checkpoints to
// segments, restarts on them, warms the caches, and then drives the
// workload closed-loop from this one process for its share of --seconds,
// cut into two slices of write probe and query window:
// every client thread owns a connection and sends its next request only
// after the previous reply's "done" line. Every reply is checked against
// the oracle after all instances ran. Prints one JSON object with every
// measurement on stdout; exits 1 when any answer is wrong and 2 when the
// run could not be made.
#include <fcntl.h>
#include <signal.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "json_lite.h"
#include "oracle.h"
#include "workload.h"

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;
const Clock::time_point kEpoch = Clock::now();

double Now() {
  return std::chrono::duration<double>(Clock::now() - kEpoch).count();
}

// The serving child, so a fatal error on any thread still reaps it.
std::atomic<pid_t> g_server_pid{-1};

[[noreturn]] void Die(const std::string& what) {
  std::fprintf(stderr, "perfbench_load: %s\n", what.c_str());
  pid_t pid = g_server_pid.exchange(-1);
  if (pid > 0) {
    ::kill(pid, SIGKILL);
    ::waitpid(pid, nullptr, 0);
  }
  std::_Exit(2);
}

double CpuSeconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) / 1e6;
}

// One client connection speaking the JSON-lines protocol.
class Conn {
 public:
  Conn() = default;
  ~Conn() {
    if (fd_ >= 0) ::close(fd_);
  }
  Conn(const Conn&) = delete;
  Conn& operator=(const Conn&) = delete;

  bool Connect(const std::string& path) {
    fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd_ < 0) return false;
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (path.size() >= sizeof(addr.sun_path)) return false;
    std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
    if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
        0) {
      ::close(fd_);
      fd_ = -1;
      return false;
    }
    // A wedged server must end the run, not hang it.
    timeval tv{60, 0};
    ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
    return true;
  }

  bool Send(const std::string& line) {
    std::string data = line + "\n";
    size_t off = 0;
    while (off < data.size()) {
      ssize_t n = ::send(fd_, data.data() + off, data.size() - off,
                         MSG_NOSIGNAL);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) return false;
      off += static_cast<size_t>(n);
    }
    return true;
  }

  bool ReadLine(std::string* line) {
    for (;;) {
      size_t nl = buf_.find('\n', start_);
      if (nl != std::string::npos) {
        line->assign(buf_, start_, nl - start_);
        start_ = nl + 1;
        if (start_ > (1 << 16)) {
          buf_.erase(0, start_);
          start_ = 0;
        }
        return true;
      }
      char chunk[1 << 16];
      ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) return false;
      buf_.append(chunk, static_cast<size_t>(n));
    }
  }

  // Sends `line` and returns the reply's terminal "done"/"error" object.
  JsonValue Call(const std::string& line) {
    if (!Send(line)) Die("send failed");
    std::string reply;
    for (;;) {
      if (!ReadLine(&reply)) Die("connection closed mid-reply");
      JsonValue v;
      if (!ParseJson(reply, &v)) Die("unparseable reply: " + reply);
      const std::string& ev = v["ev"].str;
      if (ev == "done" || ev == "error") return v;
    }
  }

 private:
  int fd_ = -1;
  std::string buf_;
  size_t start_ = 0;
};

// The seprec_cli serve child process.
class Server {
 public:
  ~Server() { Kill(); }

  void Start(const std::string& cli, const std::string& socket,
             const std::vector<std::string>& extra, const std::string& log,
             const std::string& failpoints) {
    socket_ = socket;
    std::vector<std::string> args = {cli, "serve", socket};
    args.insert(args.end(), extra.begin(), extra.end());
    pid_ = ::fork();
    if (pid_ < 0) Die("fork failed");
    if (pid_ > 0) g_server_pid = pid_;
    if (pid_ == 0) {
      int fd = ::open(log.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
      if (fd >= 0) {
        ::dup2(fd, 1);
        ::dup2(fd, 2);
      }
      if (failpoints.empty()) {
        ::unsetenv("SEPREC_FAILPOINTS");
      } else {
        ::setenv("SEPREC_FAILPOINTS", failpoints.c_str(), 1);
      }
      std::vector<char*> argv;
      for (std::string& a : args) argv.push_back(a.data());
      argv.push_back(nullptr);
      ::execv(argv[0], argv.data());
      std::_Exit(127);
    }
    for (int i = 0; i < 6000; ++i) {
      int status = 0;
      if (::waitpid(pid_, &status, WNOHANG) == pid_) {
        pid_ = -1;
        g_server_pid = -1;
        Die("server exited during start-up; see " + log);
      }
      Conn probe;
      if (probe.Connect(socket_)) return;
      ::usleep(10000);
    }
    Die("server did not open its socket");
  }

  // Peak resident set (VmHWM) in MiB.
  double PeakRssMb() const {
    std::ifstream in("/proc/" + std::to_string(pid_) + "/status");
    std::string line;
    while (std::getline(in, line)) {
      if (line.rfind("VmHWM:", 0) == 0) {
        return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
      }
    }
    return 0;
  }

  void Shutdown() {
    if (pid_ < 0) return;
    {
      Conn c;
      if (c.Connect(socket_)) c.Call(R"({"op":"shutdown","id":0})");
    }
    for (int i = 0; i < 3000; ++i) {
      if (::waitpid(pid_, nullptr, WNOHANG) == pid_) {
        pid_ = -1;
        g_server_pid = -1;
        return;
      }
      ::usleep(10000);
    }
    Kill();
  }

  void Kill() {
    if (pid_ < 0) return;
    ::kill(pid_, SIGKILL);
    ::waitpid(pid_, nullptr, 0);
    pid_ = -1;
    g_server_pid = -1;
  }

 private:
  pid_t pid_ = -1;
  std::string socket_;
};

// One query's reply, reduced to what the checks need.
struct QueryRec {
  size_t stream_pos = 0;
  double t_send = 0, t_done = 0;
  int64_t generation = -1;
  uint64_t hash = 0;
  size_t count = 0;
  bool ok = false;
  bool partial = false;
  bool closure_hit = false;
  bool plan_hit = false;
  std::string error;
};

QueryRec RunQuery(Conn* conn, int64_t id, const Selection& sel) {
  QueryRec rec;
  rec.t_send = Now();
  if (!conn->Send(QueryLine(id, sel))) Die("send failed");
  std::string line;
  JsonValue v;
  for (;;) {
    if (!conn->ReadLine(&line)) Die("connection closed mid-reply");
    if (!ParseJson(line, &v)) Die("unparseable reply: " + line);
    const std::string& ev = v["ev"].str;
    if (ev == "result") {
      rec.hash += HashString(v["tuple"].str);
      ++rec.count;
    } else if (ev == "answer") {
      rec.generation = v["generation"].Int(-1);
      rec.partial = v["partial"].Bool();
      rec.closure_hit = v["closure_cache"].str == "hit";
      rec.plan_hit = v["plan_cache"].str == "hit";
    } else if (ev == "done") {
      rec.ok = true;
      break;
    } else if (ev == "error") {
      rec.error = v["code"].str + ": " + v["message"].str;
      break;
    }
  }
  rec.t_done = Now();
  return rec;
}

struct MutRec {
  size_t index = 0;  // into the mutation script
  double t_send = 0, t_ack = 0;
  bool ok = false;
  int64_t changed = 0;
  int64_t generation = -1;
  std::string error;
};

struct DeltaRec {
  int64_t subscription = 0;
  int64_t generation = 0;
  double t_recv = 0;
  uint64_t added_hash = 0, retracted_hash = 0;
  size_t added = 0, retracted = 0;
};

uint64_t SumHash(const JsonValue& arr, size_t* count) {
  uint64_t h = 0;
  for (const JsonValue& t : arr.arr) h += HashString(t.str);
  *count = arr.arr.size();
  return h;
}

uint64_t SumHash(const std::vector<std::string>& tuples) {
  uint64_t h = 0;
  for (const std::string& t : tuples) h += HashString(t);
  return h;
}

std::vector<std::string> Minus(const std::vector<std::string>& a,
                               const std::vector<std::string>& b) {
  std::vector<std::string> out;
  std::set_difference(a.begin(), a.end(), b.begin(), b.end(),
                      std::back_inserter(out));
  return out;
}

struct Quantiles {
  size_t samples = 0;
  double p50 = 0, p99 = 0;
  size_t beyond_p99 = 0;  // samples above p99 in each part, at least
  size_t parts = 0;
};

// Nearest-rank percentile of sorted `v` (non-empty); sets *beyond to the
// number of samples above it.
double Percentile(const std::vector<double>& v, double p, size_t* beyond) {
  size_t r = static_cast<size_t>(std::ceil(p * static_cast<double>(v.size())));
  r = std::max<size_t>(r, 1) - 1;
  *beyond = v.size() - r - 1;
  return v[r];
}

// Latency samples as (send time, seconds), reported in milliseconds. p50
// is over all samples. p99 is the median of the p99s of up to five
// consecutive parts of the run of at least 1000 samples each (so every
// part leaves at least ten samples beyond its p99): one burst of
// scheduler or disk noise on the shared host then moves one part, not
// the reported tail.
Quantiles Summarise(std::vector<std::pair<double, double>> samples) {
  Quantiles q;
  q.samples = samples.size();
  if (samples.empty()) return q;
  std::sort(samples.begin(), samples.end());
  std::vector<double> all;
  for (const auto& s : samples) all.push_back(s.second);
  std::sort(all.begin(), all.end());
  size_t unused = 0;
  q.p50 = Percentile(all, 0.50, &unused) * 1e3;
  q.parts = std::clamp<size_t>(samples.size() / 1000, 1, 5);
  std::vector<double> tails;
  q.beyond_p99 = samples.size();
  for (size_t k = 0; k < q.parts; ++k) {
    std::vector<double> part;
    for (size_t i = k * samples.size() / q.parts;
         i < (k + 1) * samples.size() / q.parts; ++i) {
      part.push_back(samples[i].second);
    }
    std::sort(part.begin(), part.end());
    size_t beyond = 0;
    tails.push_back(Percentile(part, 0.99, &beyond));
    q.beyond_p99 = std::min(q.beyond_p99, beyond);
  }
  std::sort(tails.begin(), tails.end());
  const size_t n = tails.size();
  q.p99 = (n % 2 ? tails[n / 2] : (tails[n / 2 - 1] + tails[n / 2]) / 2) * 1e3;
  return q;
}

std::string QuantilesJson(const Quantiles& q) {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "{\"samples\":%zu,\"p50_ms\":%.6f,\"p99_ms\":%.6f,"
                "\"beyond_p99\":%zu,\"p99_parts\":%zu}",
                q.samples, q.p50, q.p99, q.beyond_p99, q.parts);
  return buf;
}

uint64_t DirBytes(const std::string& dir) {
  uint64_t total = 0;
  for (const auto& e : std::filesystem::recursive_directory_iterator(dir)) {
    if (e.is_regular_file()) total += e.file_size();
  }
  return total;
}

// Answers every `expect` line of a hand-written tiny instance (see
// oracle_tiny.txt) with the oracle; returns the process exit code.
int CheckOracle(const std::string& path) {
  std::ifstream in(path);
  if (!in) Die("cannot read " + path);
  Edb edb;
  std::vector<std::pair<Selection, std::vector<std::string>>> expects;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream words(line);
    std::string rel;
    words >> rel;
    if (rel == "expect") {
      std::string shape, eq;
      Selection sel;
      words >> shape >> sel.key >> eq;
      bool known = false;
      for (Shape s : kAllShapes) {
        if (shape == ShapeName(s)) {
          sel.shape = s;
          known = true;
        }
      }
      if (!known || eq != "=") Die("bad expect line: " + line);
      std::vector<std::string> tuples;
      std::string rest, tuple;
      std::getline(words, rest);
      std::istringstream parts(rest);
      while (std::getline(parts, tuple, '|')) {
        size_t b = tuple.find_first_not_of(' ');
        size_t e = tuple.find_last_not_of(' ');
        if (b != std::string::npos) tuples.push_back(tuple.substr(b, e - b + 1));
      }
      std::sort(tuples.begin(), tuples.end());
      expects.push_back({sel, tuples});
      continue;
    }
    std::vector<uint32_t> ids;
    uint32_t id;
    while (words >> id) ids.push_back(id);
    auto pair = [&] { return std::make_pair(ids.at(0), ids.at(1)); };
    if (rel == "friend") edb.friend_.push_back(pair());
    else if (rel == "idol") edb.idol.push_back(pair());
    else if (rel == "perfectFor") edb.perfect.push_back(pair());
    else if (rel == "cheaper") edb.cheaper.push_back(pair());
    else if (rel == "a") edb.a.push_back({ids.at(0), ids.at(1), ids.at(2), ids.at(3)});
    else if (rel == "b") edb.b.push_back(pair());
    else if (rel == "t0") edb.t0.push_back({ids.at(0), ids.at(1), ids.at(2)});
    else if (rel == "up") edb.up.push_back(pair());
    else if (rel == "down") edb.down.push_back(pair());
    else if (rel == "flat") edb.flat.push_back(pair());
    else Die("bad row line: " + line);
  }
  const Oracle oracle(edb);
  int bad = 0;
  for (const auto& [sel, want] : expects) {
    if (oracle.Answer(sel) != want) {
      std::fprintf(stderr, "oracle disagrees with %s on %s\n", path.c_str(),
                   QueryText(sel).c_str());
      ++bad;
    }
  }
  if (expects.empty()) Die("no expectations in " + path);
  return bad == 0 ? 0 : 1;
}

struct Args {
  std::string cli, workload, work, server_trace, failpoints;
  uint64_t seed = 1;
  double seconds = 10;
  int setups = 4;
  long max_closures = -1;
};

Args ParseArgs(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    std::string k = argv[i];
    if (i + 1 >= argc) Die("missing value for " + k);
    std::string v = argv[++i];
    if (k == "--cli") a.cli = v;
    else if (k == "--workload") a.workload = v;
    else if (k == "--work") a.work = v;
    else if (k == "--seed") a.seed = std::strtoull(v.c_str(), nullptr, 10);
    else if (k == "--seconds") a.seconds = std::strtod(v.c_str(), nullptr);
    else if (k == "--setups") a.setups = std::atoi(v.c_str());
    else if (k == "--server-trace") a.server_trace = v;
    else if (k == "--max-closures") a.max_closures = std::atol(v.c_str());
    else if (k == "--server-failpoints") a.failpoints = v;
    else Die("unknown flag " + k);
  }
  if (a.cli.empty() || a.workload.empty() || a.work.empty()) {
    Die("usage: perfbench_load --cli PATH --workload NAME --seed N "
        "--seconds S --work DIR");
  }
  if (a.setups < 1) Die("--setups must be positive");
  return a;
}

// Live-state key for memoising oracle answers.
std::string LiveKey(const LiveRows& live) {
  std::string k;
  for (const Mutation& m : live) {
    k += m.relation + ":" + std::to_string(m.from) + ">" +
         std::to_string(m.to) + ";";
  }
  return k;
}

class Expectations {
 public:
  explicit Expectations(const Oracle* oracle) : oracle_(oracle) {}
  const std::vector<std::string>& Get(const Selection& sel,
                                      const LiveRows& live) {
    std::string key = std::to_string(static_cast<int>(sel.shape)) + "/" +
                      std::to_string(sel.key) + "/" + LiveKey(live);
    auto it = memo_.find(key);
    if (it == memo_.end()) {
      it = memo_.emplace(key, oracle_->Answer(sel, live)).first;
    }
    return it->second;
  }

 private:
  const Oracle* oracle_;
  std::map<std::string, std::vector<std::string>> memo_;
};

// What one server instance measured. A run sets up `--setups` instances
// one after another and splits its time evenly between them, so a server
// process that happens to run slow (heap layout, page placement) holds a
// quarter of the samples, not all.
struct Instance {
  double setup_s = 0;
  int64_t base_generation = 0;
  std::map<int64_t, size_t> sub_index;  // subscription id -> index
  std::vector<int64_t> sub_answers;     // baseline answer counts
  std::vector<QueryRec> warmup;
  std::vector<std::vector<QueryRec>> per_client;
  std::vector<MutRec> muts;
  std::vector<DeltaRec> deltas;
  bool sub_failed = false;
  double window_s = 0, cpu_s = 0;
  std::vector<std::pair<double, double>> windows;  // (start, deadline)
  int64_t closure_patches = 0, closure_drops = 0, window_closure_hits = 0;
  double peak_rss_mb = 0;
  uint64_t disk_bytes = 0;
};

struct Context {
  Args args;
  Workload w;
  std::map<std::string, std::vector<std::vector<std::string>>> rendered;
  std::vector<Mutation> script;
  std::string socket, log;
  std::vector<std::string> serve_flags;
  int64_t next_id = 1;
  std::vector<size_t> stream_pos;  // per client, carried across instances
  size_t script_pos = 0;           // carried across instances
};

Instance RunInstance(Context* ctx, int index, double seconds) {
  const Args& args = ctx->args;
  const Workload& w = ctx->w;
  const std::string& socket = ctx->socket;
  Instance inst;
  Server server;

  // ---- set-up: spawn, bulk-load, checkpoint, restart on segments, warm.
  const std::string data_dir = args.work + "/data" + std::to_string(index);
  std::filesystem::remove_all(data_dir);
  std::vector<std::string> flags = ctx->serve_flags;
  flags.insert(flags.begin(), {"--data-dir", data_dir});
  const double t0 = Now();
  server.Start(args.cli, socket, flags, ctx->log, "");
  {
    Conn c;
    if (!c.Connect(socket)) Die("connect failed");
    constexpr size_t kChunk = 5000;
    for (const auto& [rel, rows] : ctx->rendered) {
      for (size_t off = 0; off < rows.size(); off += kChunk) {
        std::string line = "{\"op\":\"load\",\"id\":" +
                           std::to_string(ctx->next_id++) +
                           ",\"relation\":\"" + rel + "\",\"rows\":[";
        size_t end = std::min(rows.size(), off + kChunk);
        for (size_t r = off; r < end; ++r) {
          if (r != off) line += ",";
          line += "[";
          for (size_t k = 0; k < rows[r].size(); ++k) {
            if (k) line += ",";
            line += "\"" + rows[r][k] + "\"";
          }
          line += "]";
        }
        line += "]}";
        JsonValue v = c.Call(line);
        if (v["ev"].str != "done" ||
            v["changed"].Int() != static_cast<int64_t>(end - off)) {
          Die("bulk load of " + rel + " failed: " + v["message"].str);
        }
      }
    }
    JsonValue v = c.Call(R"({"op":"checkpoint","id":1})");
    if (v["ev"].str != "done") Die("checkpoint failed: " + v["message"].str);
  }
  server.Shutdown();
  // Serve from the checkpointed segments, as a restarted server would.
  if (!args.server_trace.empty()) {
    flags.push_back("--trace");
    flags.push_back(args.server_trace);
  }
  server.Start(args.cli, socket, flags, ctx->log, args.failpoints);
  {
    Conn c;
    if (!c.Connect(socket)) Die("connect failed");
    for (const Selection& sel : w.warmup) {
      inst.warmup.push_back(RunQuery(&c, ctx->next_id++, sel));
    }
  }
  auto sub_conn = std::make_unique<Conn>();
  if (!sub_conn->Connect(socket)) Die("connect failed");
  for (size_t k = 0; k < w.subscriptions.size(); ++k) {
    const Selection& sel = w.subscriptions[k];
    JsonValue v = sub_conn->Call(
        "{\"op\":\"subscribe\",\"id\":" + std::to_string(ctx->next_id++) +
        ",\"program\":" + JsonQuote(ProgramText(sel.shape)) +
        ",\"query\":" + JsonQuote(QueryText(sel)) + "}");
    if (v["ev"].str != "done") {
      Die("subscribe failed: " + v["message"].str);
    }
    inst.sub_index[v["subscription"].Int()] = k;
    inst.sub_answers.push_back(v["answers"].Int());
  }
  inst.setup_s = Now() - t0;

  Conn control;
  if (!control.Connect(socket)) Die("connect failed");
  JsonValue stats_before = control.Call(R"({"op":"stats","id":2})");
  inst.base_generation = stats_before["stats"]["generation"].Int();

  // ---- the subscriber: reads delta events until its ping comes back.
  const int64_t sub_ping_id = 1LL << 40;
  std::thread subscriber([&] {
    std::string line;
    JsonValue v;
    while (sub_conn->ReadLine(&line)) {
      if (!ParseJson(line, &v)) break;
      const std::string& ev = v["ev"].str;
      if (ev == "delta") {
        DeltaRec d;
        d.t_recv = Now();
        d.subscription = v["subscription"].Int();
        d.generation = v["generation"].Int();
        d.added_hash = SumHash(v["tuples"], &d.added);
        d.retracted_hash = SumHash(v["retracted"], &d.retracted);
        inst.deltas.push_back(d);
      } else if (ev == "dropped") {
        break;
      } else if (ev == "done" && v["id"].Int() == sub_ping_id) {
        return;
      }
    }
    inst.sub_failed = true;
  });

  // ---- the writer: insert/delete pairs from the script, closed loop. It
  // stops only on a pair boundary, so every slice and every instance
  // starts against the base EDB.
  ctx->script_pos += ctx->script_pos % 2;
  int64_t writer_id = 1LL << 32;
  auto run_writer = [&](Conn* conn, double deadline) {
    while (ctx->script_pos % 2 == 1 || Now() < deadline) {
      MutRec rec;
      rec.index = ctx->script_pos++ % ctx->script.size();
      rec.t_send = Now();
      JsonValue v =
          conn->Call(MutationLine(writer_id++, ctx->script[rec.index]));
      rec.t_ack = Now();
      rec.ok = v["ev"].str == "done";
      rec.changed = v["changed"].Int();
      rec.generation = v["generation"].Int(-1);
      if (!rec.ok) rec.error = v["code"].str + ": " + v["message"].str;
      inst.muts.push_back(std::move(rec));
    }
    // The ping returns after the last mutation's subscription sweep.
    conn->Call(R"({"op":"ping","id":3})");
  };

  // ---- the slices. The instance's time is cut into kSlices equal slices.
  // On the query-only workloads each slice starts with the write probe (a
  // lone writer for its share of the slice) and then runs the timed query
  // window; on churn_subscribe the writer runs inside the window. Taking
  // turns several times per instance puts the probe's and the queries'
  // samples into the same stretches of the host's load.
  inst.per_client.resize(w.query_clients);
  std::vector<int64_t> client_id(w.query_clients);
  for (int c = 0; c < w.query_clients; ++c) client_id[c] = (c + 1LL) << 24;
  Conn writer;
  if (!writer.Connect(socket)) Die("connect failed");
  constexpr int kSlices = 2;
  const double slice_s = seconds / kSlices;
  for (int slice = 0; slice < kSlices; ++slice) {
    if (!w.concurrent_writer) {
      run_writer(&writer, Now() + slice_s * w.probe_share);
    }
    JsonValue stats_start = control.Call(R"({"op":"stats","id":7})");
    const double cpu0 = CpuSeconds();
    const double start = Now();
    const double deadline = start + slice_s * (1 - w.probe_share);
    std::vector<std::thread> clients;
    for (int c = 0; c < w.query_clients; ++c) {
      clients.emplace_back([&, c] {
        Conn conn;
        if (!conn.Connect(socket)) Die("connect failed");
        const std::vector<Selection>& stream = w.streams[c];
        size_t& pos = ctx->stream_pos[c];
        while (Now() < deadline) {
          QueryRec rec =
              RunQuery(&conn, client_id[c]++, stream[pos % stream.size()]);
          rec.stream_pos = pos++ % stream.size();
          inst.per_client[c].push_back(std::move(rec));
        }
      });
    }
    if (w.concurrent_writer) run_writer(&writer, deadline);
    for (std::thread& t : clients) t.join();
    double end = start;
    for (const auto& recs : inst.per_client) {
      for (const QueryRec& r : recs) end = std::max(end, r.t_done);
    }
    inst.window_s += end - start;
    inst.windows.push_back({start, deadline});
    inst.cpu_s += CpuSeconds() - cpu0;
    JsonValue stats_end = control.Call(R"({"op":"stats","id":4})");
    inst.window_closure_hits += stats_end["stats"]["closure_hits"].Int() -
                                stats_start["stats"]["closure_hits"].Int();
  }

  if (!sub_conn->Send("{\"op\":\"ping\",\"id\":" +
                      std::to_string(sub_ping_id) + "}")) {
    Die("send failed");
  }
  subscriber.join();
  JsonValue stats_after = control.Call(R"({"op":"stats","id":5})");
  JsonValue ck = control.Call(R"({"op":"checkpoint","id":6})");
  if (ck["ev"].str != "done") Die("final checkpoint failed");
  inst.peak_rss_mb = server.PeakRssMb();
  inst.disk_bytes = DirBytes(data_dir);
  sub_conn.reset();
  server.Shutdown();
  std::filesystem::remove_all(data_dir);

  auto stat = [](const JsonValue& v, const char* k) {
    return v["stats"][k].Int();
  };
  inst.closure_patches = stat(stats_after, "closure_patches") -
                         stat(stats_before, "closure_patches");
  inst.closure_drops =
      stat(stats_after, "closure_drops") - stat(stats_before, "closure_drops");
  return inst;
}

double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n == 0 ? 0 : n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

int Main(int argc, char** argv) {
  if (argc == 3 && std::string(argv[1]) == "--check-oracle") {
    return CheckOracle(argv[2]);
  }
  Context ctx;
  ctx.args = ParseArgs(argc, argv);
  const Args& args = ctx.args;
  if (!MakeWorkload(args.workload, args.seed, &ctx.w)) {
    Die("unknown workload '" + args.workload + "'");
  }
  const Workload& w = ctx.w;
  const Edb edb = GenerateEdb(w.sizes, args.seed);
  const Oracle oracle(edb);
  Expectations expect(&oracle);
  ctx.rendered = edb.Render();
  // The writer cycles through the script; its pairs leave the EDB as it
  // was, so a wrap repeats valid mutations.
  ctx.script = MakeMutations(w, oracle, 4000, args.seed);
  std::filesystem::create_directories(args.work);
  ctx.socket = args.work + "/s.sock";
  ctx.log = args.work + "/server.log";
  ctx.serve_flags = {"--fsync", "always"};
  if (args.max_closures >= 0) {
    ctx.serve_flags.push_back("--max-closures");
    ctx.serve_flags.push_back(std::to_string(args.max_closures));
  }
  ctx.stream_pos.assign(w.query_clients, 0);

  std::vector<Instance> instances;
  for (int s = 0; s < args.setups; ++s) {
    instances.push_back(RunInstance(&ctx, s, args.seconds / args.setups));
  }

  // ---- checks, outside the timed windows.
  size_t wrong = 0, errors = 0, partials = 0, mut_failed = 0;
  auto check_query = [&](const Selection& sel, const QueryRec& rec,
                         const LiveRows& live) {
    if (!rec.ok) {
      ++errors;
      std::fprintf(stderr, "error on %s: %s\n", QueryText(sel).c_str(),
                   rec.error.c_str());
      return;
    }
    if (rec.partial) ++partials;
    const std::vector<std::string>& want = expect.Get(sel, live);
    if (want.size() != rec.count || SumHash(want) != rec.hash) {
      ++wrong;
      if (wrong <= 5) {
        std::fprintf(stderr, "WRONG answer for %s: %zu tuples, want %zu\n",
                     QueryText(sel).c_str(), rec.count, want.size());
      }
    }
  };
  std::vector<std::pair<double, double>> query_lat, load_lat, lag;
  size_t queries = 0, closure_hits = 0, plan_hits = 0, mutations = 0;
  int64_t patches = 0, drops = 0, window_closure_hits = 0;
  double window_s = 0, cpu_s = 0;
  std::vector<double> setup_s, rss, disk_per_row;
  for (const Instance& inst : instances) {
    setup_s.push_back(inst.setup_s);
    window_s += inst.window_s;
    cpu_s += inst.cpu_s;
    patches += inst.closure_patches;
    drops += inst.closure_drops;
    window_closure_hits += inst.window_closure_hits;
    mutations += inst.muts.size();
    for (size_t i = 0; i < w.warmup.size(); ++i) {
      check_query(w.warmup[i], inst.warmup[i], {});
    }
    for (size_t k = 0; k < w.subscriptions.size(); ++k) {
      if (inst.sub_answers[k] !=
          static_cast<int64_t>(expect.Get(w.subscriptions[k], {}).size())) {
        ++wrong;
        std::fprintf(stderr, "WRONG subscription baseline for %s\n",
                     QueryText(w.subscriptions[k]).c_str());
      }
    }
    // Replay the writer's log: which rows are live at each generation.
    std::map<int64_t, LiveRows> live_at{{inst.base_generation, {}}};
    LiveRows live;
    std::map<std::pair<int64_t, int64_t>, const DeltaRec*> delta_by;
    for (const DeltaRec& d : inst.deltas) {
      delta_by[{d.subscription, d.generation}] = &d;
    }
    std::set<std::pair<int64_t, int64_t>> delta_expected;
    for (const MutRec& m : inst.muts) {
      const Mutation& mu = ctx.script[m.index];
      auto pos =
          std::find_if(live.begin(), live.end(), [&](const Mutation& x) {
            return x.relation == mu.relation && x.from == mu.from &&
                   x.to == mu.to;
          });
      const bool present = pos != live.end();
      if (!m.ok) {
        ++mut_failed;
        ++errors;
        std::fprintf(stderr, "refused load: %s\n", m.error.c_str());
        continue;
      }
      load_lat.push_back({m.t_send, m.t_ack - m.t_send});
      const int64_t want_changed = mu.insert != present ? 1 : 0;
      if (m.changed != want_changed) {
        ++wrong;
        std::fprintf(stderr, "WRONG load ack: changed %lld, want %lld\n",
                     static_cast<long long>(m.changed),
                     static_cast<long long>(want_changed));
        continue;
      }
      if (m.changed == 0) continue;
      LiveRows before = live;
      if (mu.insert) {
        Mutation row = mu;
        row.insert = true;
        live.push_back(row);
      } else {
        live.erase(pos);
      }
      live_at[m.generation] = live;
      // Every subscription whose answer moved must have sent exactly that
      // delta; the lag runs to the last of them.
      double last_recv = -1;
      bool mismatch = false;
      for (const auto& [sid, k] : inst.sub_index) {
        const Selection& sel = w.subscriptions[k];
        const auto& was = expect.Get(sel, before);
        const auto& now = expect.Get(sel, live);
        auto added = Minus(now, was), retracted = Minus(was, now);
        auto it = delta_by.find({sid, m.generation});
        if (added.empty() && retracted.empty()) {
          if (it != delta_by.end()) mismatch = true;
          continue;
        }
        delta_expected.insert({sid, m.generation});
        if (it == delta_by.end() || it->second->added != added.size() ||
            it->second->retracted != retracted.size() ||
            it->second->added_hash != SumHash(added) ||
            it->second->retracted_hash != SumHash(retracted)) {
          mismatch = true;
          continue;
        }
        last_recv = std::max(last_recv, it->second->t_recv);
      }
      if (mismatch || last_recv < 0) {
        ++wrong;
        std::fprintf(stderr, "WRONG or missing delta at generation %lld\n",
                     static_cast<long long>(m.generation));
      } else {
        lag.push_back({m.t_send, last_recv - m.t_send});
      }
    }
    for (const DeltaRec& d : inst.deltas) {
      if (!delta_expected.count({d.subscription, d.generation})) {
        ++wrong;
        std::fprintf(stderr, "WRONG: unexpected delta at generation %lld\n",
                     static_cast<long long>(d.generation));
      }
    }
    if (inst.sub_failed) {
      ++wrong;
      std::fprintf(stderr, "WRONG: subscription dropped or feed broken\n");
    }
    for (int c = 0; c < w.query_clients; ++c) {
      for (const QueryRec& r : inst.per_client[c]) {
        ++queries;
        closure_hits += r.closure_hit;
        plan_hits += r.plan_hit;
        const Selection& sel = w.streams[c][r.stream_pos];
        auto it = live_at.find(r.generation);
        if (r.ok && it == live_at.end()) {
          ++wrong;
          std::fprintf(stderr, "WRONG: answer at unknown generation %lld\n",
                       static_cast<long long>(r.generation));
          continue;
        }
        check_query(sel, r, r.ok ? it->second : LiveRows{});
        if (r.ok && !r.partial) {
          query_lat.push_back({r.t_send, r.t_done - r.t_send});
        }
      }
    }
    // Each instance ends on its final checkpoint with the writer's
    // leftover rows (if any) live.
    disk_per_row.push_back(static_cast<double>(inst.disk_bytes) /
                           static_cast<double>(edb.TotalRows() + live.size()));
    rss.push_back(inst.peak_rss_mb);
  }

  // Throughput: the completions in each 0.5 s bucket of every query
  // window, as a rate, and the median over the buckets, so a few seconds
  // of a slowed host move it less than a whole-window mean would.
  constexpr double kBucketS = 0.5;
  std::vector<double> rates;
  for (const Instance& inst : instances) {
    for (const auto& [start, deadline] : inst.windows) {
      std::vector<size_t> count(
          static_cast<size_t>((deadline - start) / kBucketS));
      for (const auto& recs : inst.per_client) {
        for (const QueryRec& r : recs) {
          const double b = (r.t_done - start) / kBucketS;
          if (b >= 0 && b < static_cast<double>(count.size())) {
            ++count[static_cast<size_t>(b)];
          }
        }
      }
      for (size_t c : count) {
        rates.push_back(static_cast<double>(c) / kBucketS);
      }
    }
  }
  const double qps = rates.empty() ? static_cast<double>(queries) / window_s
                                   : Median(rates);

  const size_t attempted = queries + mutations;
  const size_t failed = errors + partials + wrong;
  std::ostringstream out;
  out.precision(9);
  out << "{\"workload\":\"" << w.name << "\",\"seed\":" << args.seed
      << ",\"query_clients\":" << w.query_clients
      << ",\"instances\":" << instances.size() << ",\"window_s\":" << window_s
      << ",\"loadgen_cpu_s\":" << cpu_s << ",\"setup_s\":[";
  for (size_t i = 0; i < setup_s.size(); ++i) {
    out << (i ? "," : "") << setup_s[i];
  }
  out << "],\"setup_median_s\":" << Median(setup_s)
      << ",\"query\":" << QuantilesJson(Summarise(query_lat))
      << ",\"query_qps\":" << qps << ",\"qps_buckets\":" << rates.size()
      << ",\"load\":" << QuantilesJson(Summarise(load_lat))
      << ",\"delta_lag\":" << QuantilesJson(Summarise(lag))
      << ",\"mutations\":" << mutations
      << ",\"refused_mutations\":" << mut_failed
      << ",\"attempted\":" << attempted << ",\"failed\":" << failed
      << ",\"wrong\":" << wrong << ",\"errors\":" << errors
      << ",\"partials\":" << partials << ",\"closure_hit_ratio\":"
      << (queries ? static_cast<double>(closure_hits) / queries : 0.0)
      << ",\"plan_hit_ratio\":"
      << (queries ? static_cast<double>(plan_hits) / queries : 0.0)
      << ",\"closure_patches\":" << patches << ",\"closure_drops\":" << drops
      << ",\"window_closure_hits\":" << window_closure_hits
      << ",\"server_peak_rss_mb\":" << Median(rss)
      << ",\"live_rows\":" << edb.TotalRows()
      << ",\"disk_bytes_per_row\":" << Median(disk_per_row) << "}";
  std::printf("%s\n", out.str().c_str());
  return wrong == 0 ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
