#include "server/server.h"

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <sstream>

#include "server/json.h"
#include "util/string_util.h"

namespace seprec {

namespace {

// Full-line write with MSG_NOSIGNAL: a client that hung up mid-stream must
// surface as an error on this session's thread, not kill the process.
bool WriteAll(int fd, const std::string& line) {
  size_t off = 0;
  while (off < line.size()) {
    ssize_t n =
        ::send(fd, line.data() + off, line.size() - off, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    off += static_cast<size_t>(n);
  }
  return true;
}

// Serialises and writes one response line under the connection's write
// mutex. Locking per line (not per request) keeps a long result stream
// from starving a subscription push aimed at the same connection.
bool SendJson(int fd, std::mutex& write_mu, json::Object obj) {
  std::string line = json::Serialize(json::Value(std::move(obj)));
  line.push_back('\n');
  std::lock_guard<std::mutex> lock(write_mu);
  return WriteAll(fd, line);
}

bool SendError(int fd, std::mutex& write_mu, int64_t id,
               const Status& status) {
  json::Object obj;
  obj.emplace("id", json::Value(id));
  obj.emplace("ev", json::Value("error"));
  obj.emplace("code",
              json::Value(std::string(StatusCodeToString(status.code()))));
  obj.emplace("message", json::Value(status.message()));
  return SendJson(fd, write_mu, std::move(obj));
}

StatusOr<Strategy> ParseStrategyName(const std::string& name) {
  if (name.empty() || name == "auto") return Strategy::kAuto;
  if (name == "separable") return Strategy::kSeparable;
  if (name == "magic") return Strategy::kMagic;
  if (name == "counting") return Strategy::kCounting;
  if (name == "qsqr") return Strategy::kQsqr;
  if (name == "nonrecursive") return Strategy::kNonRecursive;
  if (name == "seminaive") return Strategy::kSemiNaive;
  if (name == "naive") return Strategy::kNaive;
  return InvalidArgumentError(StrCat("unknown strategy '", name, "'"));
}

StatusOr<ExecutionLimits> ParseLimits(const json::Value& limits) {
  ExecutionLimits out;
  if (limits.is_null()) return out;
  if (!limits.is_object()) {
    return InvalidArgumentError("'limits' must be an object");
  }
  for (const auto& [key, value] : limits.as_object()) {
    int64_t n = value.as_int(-1);
    if (!value.is_number() || n < 0) {
      return InvalidArgumentError(
          StrCat("limit '", key, "' must be a non-negative number"));
    }
    if (key == "timeout_ms") out.timeout_ms = n;
    else if (key == "max_tuples") out.max_tuples = static_cast<size_t>(n);
    else if (key == "max_bytes") out.max_bytes = static_cast<size_t>(n);
    else if (key == "max_iterations") {
      out.max_iterations = static_cast<size_t>(n);
    } else {
      return InvalidArgumentError(StrCat("unknown limit '", key, "'"));
    }
  }
  return out;
}

// Renders inline `load` rows as TSV for the file reader, so typing matches
// file loads exactly. A row the reader would split, skip as a blank or
// '#' comment line, or retype is rejected up front, naming its index.
StatusOr<std::string> InlineRowsTsv(const json::Array& rows) {
  std::string tsv;
  for (size_t i = 0; i < rows.size(); ++i) {
    const json::Array& cells = rows[i].as_array();
    if (!rows[i].is_array() || cells.empty()) {
      return InvalidArgumentError(
          StrCat("rows[", i, "] must be a non-empty array of cells"));
    }
    const size_t line_start = tsv.size();
    for (size_t c = 0; c < cells.size(); ++c) {
      if (c > 0) tsv += '\t';
      if (cells[c].is_int()) {
        tsv += std::to_string(cells[c].as_int());
      } else if (cells[c].is_string()) {
        const std::string& text = cells[c].as_string();
        if (text.find_first_of("\t\n\r") != std::string::npos) {
          return InvalidArgumentError(
              StrCat("rows[", i, "][", c,
                     "] contains a tab, newline or carriage return"));
        }
        tsv += text;
      } else {
        return InvalidArgumentError(
            StrCat("rows[", i, "][", c, "] must be a string or an integer"));
      }
    }
    if (tsv.size() == line_start || tsv[line_start] == '#') {
      return InvalidArgumentError(
          StrCat("rows[", i, "] would read as a blank or '#' comment line"));
    }
    tsv += '\n';
  }
  return tsv;
}

}  // namespace

SocketServer::SocketServer(QueryService* service) : service_(service) {}

SocketServer::~SocketServer() { Stop(); }

Status SocketServer::Start(const std::string& socket_path) {
  socket_path_ = socket_path;
  listen_fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    // NOLINTNEXTLINE(concurrency-mt-unsafe): Start() runs before any
    // server thread exists, so the static strerror buffer is unshared.
    return InternalError(StrCat("socket(): ", std::strerror(errno)));
  }
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (socket_path.size() >= sizeof(addr.sun_path)) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    return InvalidArgumentError(
        StrCat("socket path too long (", socket_path.size(), " bytes): ",
               socket_path));
  }
  std::memcpy(addr.sun_path, socket_path.c_str(), socket_path.size() + 1);
  ::unlink(socket_path.c_str());
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr),
             sizeof(addr)) != 0) {
    Status status = InternalError(
        // NOLINTNEXTLINE(concurrency-mt-unsafe): pre-thread startup path.
        StrCat("bind(", socket_path, "): ", std::strerror(errno)));
    ::close(listen_fd_);
    listen_fd_ = -1;
    return status;
  }
  if (::listen(listen_fd_, 64) != 0) {
    Status status =
        // NOLINTNEXTLINE(concurrency-mt-unsafe): pre-thread startup path.
        InternalError(StrCat("listen(): ", std::strerror(errno)));
    ::close(listen_fd_);
    listen_fd_ = -1;
    return status;
  }
  accept_thread_ = std::thread([this] { AcceptLoop(); });
  return Status::OK();
}

void SocketServer::AcceptLoop() {
  while (!stopping_.load(std::memory_order_acquire)) {
    int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      break;  // listener closed by Stop()
    }
    std::vector<std::thread> finished;
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (stopping_.load(std::memory_order_acquire)) {
        ::close(fd);
        break;
      }
      session_fds_.push_back(fd);
      sessions_.emplace_back([this, fd] { Session(fd); });
      finished.swap(finished_);
    }
    // Reap exited sessions: each handle in finished_ was parked there by
    // its own thread on the way out, so these joins return promptly. A
    // long-lived server must not accumulate one unjoined thread (and its
    // kernel resources) per connection ever served.
    for (std::thread& t : finished) t.join();
  }
}

void SocketServer::Session(int fd) {
  if (service_->trace() != nullptr) {
    TraceEvent ev;
    ev.kind = TraceEventKind::kSession;
    ev.cause = "open";
    ev.detail = StrCat("fd", fd);
    service_->trace()->Emit(ev);
  }
  auto conn = std::make_shared<Conn>();
  conn->fd = fd;
  std::string buffer;
  char chunk[4096];
  while (!stopping_.load(std::memory_order_acquire)) {
    ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;  // client hung up (or Stop() shut the socket down)
    buffer.append(chunk, static_cast<size_t>(n));
    size_t pos;
    while ((pos = buffer.find('\n')) != std::string::npos) {
      std::string line = buffer.substr(0, pos);
      buffer.erase(0, pos + 1);
      if (line.empty()) continue;
      HandleLine(conn, line);
    }
    if (buffer.size() > max_line_bytes_) {
      // A client streaming bytes with no '\n' would otherwise grow this
      // buffer without bound; fail the connection before it can exhaust
      // server memory.
      SendError(fd, conn->write_mu, -1,
                ResourceExhaustedError(StrCat(
                    "request line exceeds ", max_line_bytes_, " bytes")));
      break;
    }
  }
  // Drop this connection's subscriptions BEFORE closing the fd: the
  // registry waits out any in-flight notify sweep (subs_mu_), so no push
  // can land on a recycled descriptor number.
  DropSubscriptionsFor(conn.get());
  if (service_->trace() != nullptr) {
    TraceEvent ev;
    ev.kind = TraceEventKind::kSession;
    ev.cause = "close";
    ev.detail = StrCat("fd", fd);
    service_->trace()->Emit(ev);
  }
  {
    // Deregister before closing so Stop() never shutdown()s a recycled
    // descriptor number.
    std::lock_guard<std::mutex> lock(mu_);
    auto it = std::find(session_fds_.begin(), session_fds_.end(), fd);
    if (it != session_fds_.end()) session_fds_.erase(it);
    // Park this thread's own handle on the reap list for the accept loop
    // (or Stop()) to join; absent under Stop(), which already swapped
    // sessions_ out and joins the handle itself.
    const std::thread::id self = std::this_thread::get_id();
    for (auto ts = sessions_.begin(); ts != sessions_.end(); ++ts) {
      if (ts->get_id() == self) {
        finished_.push_back(std::move(*ts));
        sessions_.erase(ts);
        break;
      }
    }
  }
  ::close(fd);
}

void SocketServer::HandleLine(const std::shared_ptr<Conn>& conn,
                              const std::string& line) {
  const int fd = conn->fd;
  std::mutex& wmu = conn->write_mu;
  StatusOr<json::Value> parsed = json::Parse(line);
  if (!parsed.ok()) {
    SendError(fd, wmu, -1, parsed.status());
    return;
  }
  const json::Value& req = *parsed;
  int64_t id = req.Get("id").as_int(-1);
  const std::string& op = req.Get("op").as_string();

  if (op == "ping") {
    json::Object obj;
    obj.emplace("id", json::Value(id));
    obj.emplace("ev", json::Value("done"));
    obj.emplace("ok", json::Value(true));
    SendJson(fd, wmu, std::move(obj));
    return;
  }

  if (op == "shutdown") {
    json::Object obj;
    obj.emplace("id", json::Value(id));
    obj.emplace("ev", json::Value("done"));
    obj.emplace("ok", json::Value(true));
    SendJson(fd, wmu, std::move(obj));
    std::lock_guard<std::mutex> lock(mu_);
    shutdown_requested_ = true;
    shutdown_cv_.notify_all();
    return;
  }

  if (op == "stats") {
    ServiceStats s = service_->stats();
    json::Object stats;
    stats.emplace("requests", json::Value(s.requests));
    stats.emplace("processor_hits", json::Value(s.processor_hits));
    stats.emplace("processor_misses", json::Value(s.processor_misses));
    stats.emplace("plan_hits", json::Value(s.plan_hits));
    stats.emplace("plan_misses", json::Value(s.plan_misses));
    stats.emplace("closure_hits", json::Value(s.closure_hits));
    stats.emplace("closure_misses", json::Value(s.closure_misses));
    stats.emplace("closure_stores", json::Value(s.closure_stores));
    stats.emplace("closure_patches", json::Value(s.closure_patches));
    stats.emplace("closure_drops", json::Value(s.closure_drops));
    stats.emplace("processors", json::Value(s.processors));
    stats.emplace("plans", json::Value(s.plans));
    stats.emplace("closures", json::Value(s.closures));
    stats.emplace("generation", json::Value(s.generation));
    {
      std::lock_guard<std::mutex> lock(subs_mu_);
      stats.emplace("subscriptions", json::Value(subs_.size()));
    }
    json::Object obj;
    obj.emplace("id", json::Value(id));
    obj.emplace("ev", json::Value("done"));
    obj.emplace("ok", json::Value(true));
    obj.emplace("stats", json::Value(std::move(stats)));
    SendJson(fd, wmu, std::move(obj));
    return;
  }

  if (op == "checkpoint") {
    StatusOr<CheckpointInfo> info = service_->Checkpoint();
    if (!info.ok()) {
      SendError(fd, wmu, id, info.status());
      return;
    }
    json::Object obj;
    obj.emplace("id", json::Value(id));
    obj.emplace("ev", json::Value("done"));
    obj.emplace("ok", json::Value(true));
    obj.emplace("snapshot", json::Value(info->snapshot_file));
    obj.emplace("generation", json::Value(info->generation));
    obj.emplace("wal_bytes_truncated",
                json::Value(info->wal_bytes_truncated));
    SendJson(fd, wmu, std::move(obj));
    return;
  }

  if (op == "load") {
    const std::string& relation = req.Get("relation").as_string();
    if (relation.empty()) {
      SendError(fd, wmu, id,
                InvalidArgumentError("'load' needs a 'relation' name"));
      return;
    }
    const std::string& mode = req.Get("mode").as_string();
    BatchOp batch_op = BatchOp::kInsert;
    if (mode == "delete") {
      batch_op = BatchOp::kDelete;
    } else if (!mode.empty() && mode != "insert") {
      SendError(fd, wmu, id,
                InvalidArgumentError(StrCat(
                    "unknown load mode '", mode,
                    "' (expected 'insert' or 'delete')")));
      return;
    }
    StatusOr<size_t> changed = InternalError("unreachable");
    if (req.Has("path")) {
      changed = service_->ApplyTsvFile(relation, batch_op,
                                       req.Get("path").as_string());
    } else if (req.Get("rows").is_array()) {
      StatusOr<std::string> tsv = InlineRowsTsv(req.Get("rows").as_array());
      if (!tsv.ok()) {
        SendError(fd, wmu, id, tsv.status());
        return;
      }
      std::istringstream in(std::move(*tsv));
      changed = service_->ApplyTsv(relation, batch_op, in);
    } else {
      SendError(fd, wmu, id,
                InvalidArgumentError("'load' needs 'path' or 'rows'"));
      return;
    }
    if (!changed.ok()) {
      SendError(fd, wmu, id, changed.status());
      return;
    }
    json::Object obj;
    obj.emplace("id", json::Value(id));
    obj.emplace("ev", json::Value("done"));
    obj.emplace("ok", json::Value(true));
    // "added" predates delete mode; it repeats "changed" so existing
    // clients keep working.
    obj.emplace("added", json::Value(*changed));
    obj.emplace("changed", json::Value(*changed));
    obj.emplace("generation", json::Value(service_->db()->generation()));
    SendJson(fd, wmu, std::move(obj));
    // Push subscription deltas AFTER the mutator's ack: its thread does
    // the fan-out, so its next request waits for the sweep, but the
    // mutation itself is acknowledged promptly.
    if (*changed > 0) NotifySubscribers();
    return;
  }

  if (op == "subscribe") {
    ServiceRequest request;
    request.program = req.Get("program").as_string();
    request.query = req.Get("query").as_string();
    if (request.program.empty() || request.query.empty()) {
      SendError(fd, wmu, id,
                InvalidArgumentError(
                    "'subscribe' needs 'program' and a single 'query'"));
      return;
    }
    StatusOr<ExecutionLimits> limits = ParseLimits(req.Get("limits"));
    if (!limits.ok()) {
      SendError(fd, wmu, id, limits.status());
      return;
    }
    request.limits = *limits;
    // Baseline run: validates the program/query and records the tuples
    // already derivable, so the first delta event reports only news.
    StatusOr<std::vector<QueryOutcome>> outcomes =
        service_->Execute(request);
    if (!outcomes.ok()) {
      SendError(fd, wmu, id, outcomes.status());
      return;
    }
    if (outcomes->size() != 1) {
      SendError(fd, wmu, id,
                InvalidArgumentError("'subscribe' takes exactly one query"));
      return;
    }
    const QueryOutcome& base = (*outcomes)[0];
    if (base.result.partial) {
      SendError(fd, wmu, id,
                ResourceExhaustedError(
                    "subscription baseline tripped its governor budget; "
                    "raise 'limits' or narrow the query"));
      return;
    }
    Subscription sub;
    sub.id = next_sub_id_.fetch_add(1, std::memory_order_relaxed);
    const uint64_t sid = sub.id;
    sub.conn = conn;
    sub.request = std::move(request);
    sub.query_text = base.query_text;
    sub.seen.insert(base.tuples.begin(), base.tuples.end());
    {
      std::lock_guard<std::mutex> lock(subs_mu_);
      if (subs_.size() >= max_subscriptions_) {
        SendError(fd, wmu, id,
                  ResourceExhaustedError(StrCat(
                      "subscription limit reached (", max_subscriptions_,
                      ")")));
        return;
      }
      subs_.emplace(sid, std::move(sub));
    }
    TraceSubscription("subscribe", sid, base.query_text, 0);
    json::Object obj;
    obj.emplace("id", json::Value(id));
    obj.emplace("ev", json::Value("done"));
    obj.emplace("ok", json::Value(true));
    obj.emplace("subscription", json::Value(sid));
    obj.emplace("answers", json::Value(base.tuples.size()));
    obj.emplace("generation", json::Value(base.generation));
    SendJson(fd, wmu, std::move(obj));
    return;
  }

  if (op == "unsubscribe") {
    if (!req.Has("subscription")) {
      SendError(fd, wmu, id,
                InvalidArgumentError(
                    "'unsubscribe' needs a 'subscription' id"));
      return;
    }
    const uint64_t sid =
        static_cast<uint64_t>(req.Get("subscription").as_int(0));
    bool removed = false;
    {
      std::lock_guard<std::mutex> lock(subs_mu_);
      auto it = subs_.find(sid);
      // Only the owning connection may unsubscribe: ids are easy to
      // guess, and cancelling another session's feed is a denial of
      // service.
      if (it != subs_.end() && it->second.conn.get() == conn.get()) {
        subs_.erase(it);
        removed = true;
      }
    }
    if (removed) TraceSubscription("unsubscribe", sid, "", 0);
    json::Object obj;
    obj.emplace("id", json::Value(id));
    obj.emplace("ev", json::Value("done"));
    obj.emplace("ok", json::Value(true));
    obj.emplace("removed", json::Value(removed));
    SendJson(fd, wmu, std::move(obj));
    return;
  }

  if (op == "query") {
    ServiceRequest request;
    request.program = req.Get("program").as_string();
    request.query = req.Get("query").as_string();
    if (request.program.empty()) {
      SendError(fd, wmu, id,
                InvalidArgumentError("'query' needs a 'program'"));
      return;
    }
    StatusOr<Strategy> strategy =
        ParseStrategyName(req.Get("strategy").as_string());
    if (!strategy.ok()) {
      SendError(fd, wmu, id, strategy.status());
      return;
    }
    request.strategy = *strategy;
    StatusOr<ExecutionLimits> limits = ParseLimits(req.Get("limits"));
    if (!limits.ok()) {
      SendError(fd, wmu, id, limits.status());
      return;
    }
    request.limits = *limits;
    if (req.Has("cache")) request.use_cache = req.Get("cache").as_bool(true);
    if (req.Has("optimize")) {
      request.optimize = req.Get("optimize").as_bool(true);
    }

    StatusOr<std::vector<QueryOutcome>> outcomes =
        service_->Execute(request);
    if (!outcomes.ok()) {
      SendError(fd, wmu, id, outcomes.status());
      return;
    }
    for (const QueryOutcome& out : *outcomes) {
      {
        json::Object obj;
        obj.emplace("id", json::Value(id));
        obj.emplace("ev", json::Value("begin"));
        obj.emplace("query", json::Value(out.query_text));
        if (!SendJson(fd, wmu, std::move(obj))) return;
      }
      for (const std::string& tuple : out.tuples) {
        json::Object obj;
        obj.emplace("id", json::Value(id));
        obj.emplace("ev", json::Value("result"));
        obj.emplace("tuple", json::Value(tuple));
        if (!SendJson(fd, wmu, std::move(obj))) return;
      }
      json::Object obj;
      obj.emplace("id", json::Value(id));
      obj.emplace("ev", json::Value("answer"));
      obj.emplace("answers", json::Value(out.result.answer.size()));
      obj.emplace("strategy",
                  json::Value(std::string(
                      StrategyToString(out.result.strategy))));
      obj.emplace("reason", json::Value(out.result.reason));
      obj.emplace("plan_cache",
                  json::Value(out.plan_cache_hit ? "hit" : "miss"));
      obj.emplace("closure_cache",
                  json::Value(out.closure_cache_hit ? "hit" : "miss"));
      obj.emplace("closure_stored", json::Value(out.closure_stored));
      obj.emplace("detections", json::Value(out.detection_passes));
      if (!out.pass_summary.empty()) {
        obj.emplace("passes", json::Value(out.pass_summary));
      }
      obj.emplace("generation", json::Value(out.generation));
      obj.emplace("partial", json::Value(out.result.partial));
      if (out.result.partial && out.result.degradation.has_value()) {
        obj.emplace("cause",
                    json::Value(std::string(StopCauseToString(
                        out.result.degradation->cause))));
      }
      json::Array notes;
      for (const Diagnostic& d : out.result.diagnostics) {
        json::Object note;
        note.emplace("code", json::Value(d.code));
        note.emplace("message", json::Value(d.message));
        notes.emplace_back(std::move(note));
      }
      if (!notes.empty()) {
        obj.emplace("notes", json::Value(std::move(notes)));
      }
      obj.emplace("seconds", json::Value(out.seconds));
      if (!SendJson(fd, wmu, std::move(obj))) return;
    }
    json::Object obj;
    obj.emplace("id", json::Value(id));
    obj.emplace("ev", json::Value("done"));
    obj.emplace("ok", json::Value(true));
    SendJson(fd, wmu, std::move(obj));
    return;
  }

  SendError(fd, wmu, id,
            InvalidArgumentError(StrCat("unknown op '", op, "'")));
}

void SocketServer::NotifySubscribers() {
  // subs_mu_ is held for the whole sweep: concurrent mutators serialise
  // their fan-outs here (the service already serialised the mutations),
  // so per-subscription `seen` updates never race and every subscriber
  // observes deltas in mutation order.
  std::lock_guard<std::mutex> lock(subs_mu_);
  std::vector<uint64_t> dead;
  for (auto& [sid, sub] : subs_) {
    StatusOr<std::vector<QueryOutcome>> outcomes =
        service_->Execute(sub.request);
    std::string drop_reason;
    if (!outcomes.ok()) {
      drop_reason = outcomes.status().ToString();
    } else if (outcomes->size() != 1) {
      drop_reason = "subscription produced no outcome";
    } else if ((*outcomes)[0].result.partial) {
      // The per-subscription governor budget tripped: the answer set is
      // incomplete, so diffs against it would fabricate retractions.
      // Dropping beats silently delivering wrong deltas.
      drop_reason = "governor budget tripped";
    }
    if (!drop_reason.empty()) {
      json::Object obj;
      obj.emplace("ev", json::Value("dropped"));
      obj.emplace("subscription", json::Value(sid));
      obj.emplace("reason", json::Value(drop_reason));
      SendJson(sub.conn->fd, sub.conn->write_mu, std::move(obj));
      TraceSubscription("drop", sid, drop_reason, 0);
      dead.push_back(sid);
      continue;
    }
    const QueryOutcome& out = (*outcomes)[0];
    std::set<std::string> current(out.tuples.begin(), out.tuples.end());
    json::Array fresh;
    for (const std::string& t : current) {
      if (sub.seen.count(t) == 0) fresh.emplace_back(t);
    }
    json::Array retracted;
    for (const std::string& t : sub.seen) {
      if (current.count(t) == 0) retracted.emplace_back(t);
    }
    if (fresh.empty() && retracted.empty()) continue;  // no news
    const uint64_t delivered = fresh.size() + retracted.size();
    json::Object obj;
    obj.emplace("ev", json::Value("delta"));
    obj.emplace("subscription", json::Value(sid));
    obj.emplace("query", json::Value(sub.query_text));
    obj.emplace("tuples", json::Value(std::move(fresh)));
    obj.emplace("retracted", json::Value(std::move(retracted)));
    obj.emplace("generation", json::Value(out.generation));
    if (!SendJson(sub.conn->fd, sub.conn->write_mu, std::move(obj))) {
      dead.push_back(sid);  // subscriber hung up; reaped below
      continue;
    }
    sub.seen = std::move(current);
    TraceSubscription("notify", sid, sub.query_text, delivered);
  }
  for (uint64_t sid : dead) subs_.erase(sid);
}

void SocketServer::DropSubscriptionsFor(const Conn* conn) {
  std::lock_guard<std::mutex> lock(subs_mu_);
  for (auto it = subs_.begin(); it != subs_.end();) {
    if (it->second.conn.get() == conn) {
      TraceSubscription("drop", it->first, "connection closed", 0);
      it = subs_.erase(it);
    } else {
      ++it;
    }
  }
}

void SocketServer::TraceSubscription(std::string_view cause, uint64_t id,
                                     std::string_view detail,
                                     uint64_t delivered) {
  if (service_->trace() == nullptr) return;
  TraceEvent ev;
  ev.kind = TraceEventKind::kSubscription;
  ev.cause = std::string(cause);
  ev.detail = detail.empty() ? StrCat("sub", id)
                             : StrCat("sub", id, " ", detail);
  ev.delta = delivered;
  service_->trace()->Emit(ev);
}

void SocketServer::Wait() {
  std::unique_lock<std::mutex> lock(mu_);
  shutdown_cv_.wait(lock, [this] { return shutdown_requested_; });
}

bool SocketServer::WaitFor(int ms) {
  std::unique_lock<std::mutex> lock(mu_);
  return shutdown_cv_.wait_for(lock, std::chrono::milliseconds(ms),
                               [this] { return shutdown_requested_; });
}

void SocketServer::Stop() {
  std::lock_guard<std::mutex> stop_lock(stop_mu_);
  if (stopped_) return;
  stopped_ = true;
  stopping_.store(true, std::memory_order_release);
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutdown_requested_ = true;
    shutdown_cv_.notify_all();
    // Sessions deregister their fd before closing it, so everything here
    // is still open; shutdown() unblocks their recv() without racing the
    // close.
    for (int fd : session_fds_) ::shutdown(fd, SHUT_RDWR);
  }
  if (listen_fd_ >= 0) {
    // shutdown() unblocks accept(); close() alone does not on Linux. The
    // close and the listen_fd_ = -1 write wait for the join: the accept
    // loop re-reads listen_fd_ on every iteration, and closing early
    // could hand accept() a recycled descriptor number.
    ::shutdown(listen_fd_, SHUT_RDWR);
    // Sandboxed kernels (gVisor-style) reject that shutdown with
    // ENOTCONN and leave accept() blocked forever, so also wake the
    // loop with a throwaway connection: accept() returns it, the loop
    // sees stopping_ (already set above) and discards the fd. If the
    // backlog is full a wake-up is already queued, so the non-blocking
    // connect may fail freely; on mainline Linux the shut-down listener
    // refuses the connect and the shutdown alone did the waking.
    int wake = ::socket(AF_UNIX, SOCK_STREAM | SOCK_NONBLOCK, 0);
    if (wake >= 0) {
      sockaddr_un addr{};
      addr.sun_family = AF_UNIX;
      if (socket_path_.size() < sizeof(addr.sun_path)) {
        std::memcpy(addr.sun_path, socket_path_.c_str(),
                    socket_path_.size() + 1);
        ::connect(wake, reinterpret_cast<sockaddr*>(&addr), sizeof(addr));
      }
      ::close(wake);
    }
  }
  if (accept_thread_.joinable()) accept_thread_.join();
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  std::vector<std::thread> sessions;
  {
    std::lock_guard<std::mutex> lock(mu_);
    sessions.swap(sessions_);
    for (std::thread& t : finished_) sessions.push_back(std::move(t));
    finished_.clear();
  }
  for (std::thread& t : sessions) {
    if (t.joinable()) t.join();
  }
  if (!socket_path_.empty()) ::unlink(socket_path_.c_str());
}

}  // namespace seprec
