#include "net/server.h"

#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>

#include "common/bytes.h"
#include "common/clock.h"

namespace fieldrep::net {

namespace {

void SetNonBlocking(int fd) {
  int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags >= 0) ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
}

}  // namespace

void NetMetrics::Collect(std::vector<MetricSample>* out) const {
  auto add = [out](const char* name, const char* help, MetricKind kind,
                   double value) {
    MetricSample s;
    s.name = name;
    s.help = help;
    s.kind = kind;
    s.value = value;
    out->push_back(std::move(s));
  };
  add("fieldrep_net_sessions_total", "Client sessions accepted.",
      MetricKind::kCounter, static_cast<double>(sessions_accepted.load()));
  add("fieldrep_net_sessions_refused_total",
      "Connections refused by admission control.", MetricKind::kCounter,
      static_cast<double>(sessions_refused.load()));
  add("fieldrep_net_sessions", "Currently connected sessions.",
      MetricKind::kGauge, static_cast<double>(sessions_active.load()));
  add("fieldrep_net_requests_total", "Requests executed.",
      MetricKind::kCounter, static_cast<double>(requests.load()));
  add("fieldrep_net_rejected_total",
      "Requests rejected by pipeline backpressure.", MetricKind::kCounter,
      static_cast<double>(rejected.load()));
  add("fieldrep_net_protocol_errors_total",
      "Malformed frames (bad magic/version/length).", MetricKind::kCounter,
      static_cast<double>(protocol_errors.load()));
  add("fieldrep_net_pending_requests", "Requests queued but not dispatched.",
      MetricKind::kGauge, static_cast<double>(pending.load()));
  add("fieldrep_net_parks_total",
      "Statements parked on a write-lock conflict.", MetricKind::kCounter,
      static_cast<double>(parks.load()));
  add("fieldrep_net_txn_aborts_total",
      "Transactions aborted by wait-or-die deadlock avoidance.",
      MetricKind::kCounter, static_cast<double>(txn_aborts.load()));
  MetricSample lat;
  lat.name = "fieldrep_net_request_ns";
  lat.help = "Per-request server-side latency, nanoseconds.";
  lat.kind = MetricKind::kHistogram;
  lat.histogram = request_ns.TakeSnapshot();
  out->push_back(std::move(lat));
}

Result<std::unique_ptr<Server>> Server::Start(Database* db,
                                              const ServerOptions& options) {
  std::unique_ptr<Server> server(new Server());
  server->db_ = db;
  server->options_ = options;
  if (server->options_.worker_threads == 0) server->options_.worker_threads = 1;
  if (server->options_.max_pipeline == 0) server->options_.max_pipeline = 1;
  FIELDREP_ASSIGN_OR_RETURN(server->listen_fd_, ListenOn(options.address));
  FIELDREP_ASSIGN_OR_RETURN(
      server->address_, BoundAddress(server->listen_fd_, options.address));
  SetNonBlocking(server->listen_fd_);
  if (::pipe(server->wake_fds_) != 0) {
    ::close(server->listen_fd_);
    server->listen_fd_ = -1;
    return Status::IOError("pipe: " + std::string(std::strerror(errno)));
  }
  SetNonBlocking(server->wake_fds_[0]);
  SetNonBlocking(server->wake_fds_[1]);
  server->metrics_ = std::make_shared<NetMetrics>();
  if (db->metrics() != nullptr) {
    std::shared_ptr<NetMetrics> m = server->metrics_;
    db->metrics()->AddCollector(
        [m](std::vector<MetricSample>* out) { m->Collect(out); });
  }
  server->workers_ =
      std::make_unique<ThreadPool>(server->options_.worker_threads);
  server->event_thread_ = std::thread([raw = server.get()] {
    raw->EventLoop();
  });
  return server;
}

Server::~Server() { Stop(); }

void Server::Stop() {
  if (stopped_.exchange(true)) return;
  {
    MutexLock lock(mu_);
    stopping_ = true;
    for (auto& [id, s] : sessions_) {
      s->closing = true;
      // Unblocks any worker mid-write to this peer and makes further
      // reads return EOF.
      ::shutdown(s->fd, SHUT_RDWR);
    }
  }
  Wake();
  if (event_thread_.joinable()) event_thread_.join();
  // Joins the workers; the pool drains its queue first, so every
  // dispatched session finishes its cleanup.
  workers_.reset();
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  for (int& fd : wake_fds_) {
    if (fd >= 0) {
      ::close(fd);
      fd = -1;
    }
  }
  if (address_.rfind("unix:", 0) == 0) {
    ::unlink(address_.substr(5).c_str());
  }
}

void Server::Wake() {
  if (wake_fds_[1] >= 0) {
    char byte = 1;
    ssize_t ignored = ::write(wake_fds_[1], &byte, 1);
    (void)ignored;
  }
}

void Server::EventLoop() {
  std::vector<pollfd> fds;
  std::vector<std::shared_ptr<Session>> polled;
  for (;;) {
    fds.clear();
    polled.clear();
    bool accepting = false;
    {
      MutexLock lock(mu_);
      // Tear down sessions nobody is working on, then drop the dead.
      for (auto& [id, s] : sessions_) {
        if (s->closing && !s->busy && !s->dead) CleanupSessionLocked(s);
      }
      for (auto it = sessions_.begin(); it != sessions_.end();) {
        if (it->second->dead && !it->second->busy) {
          ::close(it->second->fd);
          metrics_->sessions_active.fetch_sub(1);
          it = sessions_.erase(it);
        } else {
          ++it;
        }
      }
      if (stopping_ && sessions_.empty()) return;
      // Liveness backstop for parked sessions: lock releases by paths
      // the server cannot observe (embedded writers sharing the
      // database) would otherwise never redispatch them. A spurious
      // retry just parks again.
      WakeParkedLocked();
      const bool flow_controlled =
          pending_requests_ >= options_.max_pending_requests;
      fds.push_back(pollfd{wake_fds_[0], POLLIN, 0});
      if (!stopping_) {
        fds.push_back(pollfd{listen_fd_, POLLIN, 0});
        accepting = true;
      }
      if (!flow_controlled) {
        for (auto& [id, s] : sessions_) {
          if (s->closing || s->dead) continue;
          fds.push_back(pollfd{s->fd, POLLIN, 0});
          polled.push_back(s);
        }
      }
    }
    // Bounded timeout: flow-control release and worker retirements can
    // race the wake pipe, so never sleep unboundedly.
    int r = ::poll(fds.data(), static_cast<nfds_t>(fds.size()), 100);
    if (r < 0) {
      if (errno == EINTR) continue;
      return;
    }
    if (fds[0].revents != 0) {
      char drain[256];
      while (::read(wake_fds_[0], drain, sizeof(drain)) > 0) {
      }
    }
    if (accepting && fds[1].revents != 0) AcceptConnections();
    const size_t base = accepting ? 2 : 1;
    for (size_t i = 0; i < polled.size(); ++i) {
      if (fds[base + i].revents == 0) continue;
      if (!ReadSession(polled[i])) {
        MutexLock lock(mu_);
        polled[i]->closing = true;
        if (!polled[i]->busy) CleanupSessionLocked(polled[i]);
      }
    }
  }
}

void Server::AcceptConnections() {
  for (;;) {
    int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      return;  // EAGAIN or a transient error; poll again.
    }
    SetNonBlocking(fd);
    MutexLock lock(mu_);
    if (stopping_ || sessions_.size() >= options_.max_sessions) {
      metrics_->sessions_refused.fetch_add(1);
      // Best-effort structured refusal so the client sees kUnavailable
      // instead of a bare hangup.
      Frame err = ErrorFrame(
          0, Status::Unavailable(stopping_ ? "server shutting down"
                                           : "server at max sessions"));
      std::string wire;
      EncodeFrame(err, &wire);
      ssize_t ignored = ::send(fd, wire.data(), wire.size(), MSG_NOSIGNAL);
      (void)ignored;
      ::close(fd);
      continue;
    }
    auto s = std::make_shared<Session>();
    s->id = next_session_id_++;
    s->fd = fd;
    sessions_.emplace(s->id, s);
    metrics_->sessions_accepted.fetch_add(1);
    metrics_->sessions_active.fetch_add(1);
  }
}

bool Server::ReadSession(const std::shared_ptr<Session>& s) {
  char chunk[16384];
  for (;;) {
    ssize_t n = ::recv(s->fd, chunk, sizeof(chunk), 0);
    if (n > 0) {
      s->in_buf.append(chunk, static_cast<size_t>(n));
      for (;;) {
        Frame frame;
        bool complete = false;
        Status st = TryParseFrame(&s->in_buf, &frame, &complete);
        if (!st.ok()) {
          // Bad magic / version / length: the stream is unrecoverable.
          // Answer with a structured error, then drop the session.
          metrics_->protocol_errors.fetch_add(1);
          WriteReply(s, ErrorFrame(s->id, st));
          return false;
        }
        if (!complete) break;
        EnqueueFrame(s, std::move(frame));
      }
      continue;
    }
    if (n == 0) return false;  // EOF (possibly mid-frame); tear down.
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) return true;
    return false;
  }
}

void Server::EnqueueFrame(const std::shared_ptr<Session>& s, Frame frame) {
  MutexLock lock(mu_);
  if (s->closing || s->dead) return;
  QueuedRequest req;
  req.frame = std::move(frame);
  if (s->queue.size() >= options_.max_pipeline) {
    // Over the per-session bound: keep the slot so the reply goes out in
    // FIFO order, but never execute it.
    req.rejected = true;
    metrics_->rejected.fetch_add(1);
  }
  s->queue.push_back(std::move(req));
  ++pending_requests_;
  metrics_->pending.store(static_cast<int64_t>(pending_requests_));
  // Parked sessions resume through WakeParked, with their parked
  // statement still at the queue front.
  if (!s->busy && !s->parked) {
    s->busy = true;
    std::shared_ptr<Session> sp = s;
    workers_->Submit([this, sp] { ProcessSession(sp); });
  }
}

void Server::ParkSession(const std::shared_ptr<Session>& s, Frame&& request) {
  metrics_->parks.fetch_add(1);
  MutexLock lock(mu_);
  QueuedRequest req;
  req.frame = std::move(request);
  s->queue.push_front(std::move(req));
  ++pending_requests_;
  metrics_->pending.store(static_cast<int64_t>(pending_requests_));
  // parked+!busy atomically: a concurrent WakeParkedLocked may redispatch
  // this session immediately; the old worker is unwinding and touches
  // nothing afterwards.
  s->parked = true;
  s->busy = false;
}

void Server::WakeParkedLocked() {
  for (auto& [id, s] : sessions_) {
    if (!s->parked || s->busy || s->dead || s->closing) continue;
    s->parked = false;
    s->busy = true;
    std::shared_ptr<Session> sp = s;
    workers_->Submit([this, sp] { ProcessSession(sp); });
  }
}

void Server::WakeParked() {
  MutexLock lock(mu_);
  WakeParkedLocked();
}

void Server::CleanupSessionLocked(const std::shared_ptr<Session>& s) {
  if (s->dead) return;
  s->closing = true;
  if (s->txn != nullptr) {
    // Abort-on-disconnect: the session died with a transaction open — an
    // explicit bracket, or an implicit statement parked on a conflict.
    // Attach it here and abort, releasing exactly this session's locks
    // (other sessions' transactions are untouched), then give parked
    // writers a chance at the freed locks.
    db_->AttachSessionTransaction(s->txn);
    s->txn = nullptr;
    db_->AbortSessionTransaction();
    s->txn_open = false;
    WakeParkedLocked();
  }
  if (s->parked) s->parked = false;
  pending_requests_ -= s->queue.size();
  metrics_->pending.store(static_cast<int64_t>(pending_requests_));
  s->queue.clear();
  s->dead = true;
  ::shutdown(s->fd, SHUT_RDWR);
  Wake();
}

void Server::ProcessSession(std::shared_ptr<Session> s) {
  for (;;) {
    QueuedRequest req;
    {
      MutexLock lock(mu_);
      if (s->closing) {
        s->busy = false;
        CleanupSessionLocked(s);
        return;
      }
      if (s->queue.empty()) {
        s->busy = false;
        return;
      }
      req = std::move(s->queue.front());
      s->queue.pop_front();
      --pending_requests_;
      metrics_->pending.store(static_cast<int64_t>(pending_requests_));
    }
    if (req.rejected) {
      WriteReply(s, ErrorFrame(s->id, Status::Unavailable(
                                          "session pipeline full; retry")));
      continue;
    }
    const uint64_t start_ns = NowNs();
    const HandleOutcome outcome = HandleRequest(s, req.frame);
    if (outcome == HandleOutcome::kParked) return;  // ParkSession unset busy.
    metrics_->request_ns.Observe(NowNs() - start_ns);
    metrics_->requests.fetch_add(1);
    if (outcome == HandleOutcome::kClose) {
      MutexLock lock(mu_);
      s->busy = false;
      CleanupSessionLocked(s);
      return;
    }
  }
}

Server::HandleOutcome Server::HandleRequest(const std::shared_ptr<Session>& s,
                                            Frame& request) {
  const Opcode op = static_cast<Opcode>(request.opcode);
  bool parked = false;
  Frame reply = Dispatch(s, request, &parked);
  if (parked) return HandleOutcome::kParked;
  const bool wrote = WriteReply(s, reply);
  return (wrote && op != Opcode::kGoodbye) ? HandleOutcome::kContinue
                                           : HandleOutcome::kClose;
}

Frame Server::OkFrame(uint64_t session_id, std::string payload) const {
  Frame f;
  f.opcode = static_cast<uint16_t>(Opcode::kOk);
  f.session_id = session_id;
  f.payload = std::move(payload);
  return f;
}

Frame Server::ErrorFrame(uint64_t session_id, const Status& status) const {
  Frame f;
  f.opcode = static_cast<uint16_t>(Opcode::kError);
  f.session_id = session_id;
  EncodeErrorPayload(status, &f.payload);
  return f;
}

bool Server::WriteReply(const std::shared_ptr<Session>& s,
                        const Frame& reply) {
  MutexLock lock(s->write_mu);
  return WriteFrame(s->fd, reply, options_.write_timeout_ms).ok();
}

namespace {

/// Decodes the kExecute payload: u32 stmt id, u16 count, tagged values.
Status DecodeExecute(const std::string& payload, uint32_t* stmt_id,
                     std::vector<Value>* params) {
  ByteReader reader(payload);
  uint16_t count = 0;
  if (!reader.GetU32(stmt_id) || !reader.GetU16(&count)) {
    return Status::Corruption("truncated execute payload");
  }
  params->clear();
  params->reserve(count);
  for (uint16_t i = 0; i < count; ++i) {
    Value v;
    FIELDREP_RETURN_IF_ERROR(DecodeTaggedValue(&reader, &v));
    params->push_back(std::move(v));
  }
  return Status::OK();
}

}  // namespace

Frame Server::RunMutation(const std::shared_ptr<Session>& s, Frame& request,
                          const UpdateQuery& bound, bool* parked) {
  *parked = false;
  if (db_->wal() == nullptr && !s->txn_open) {
    // Unlogged database: explicit transactions are impossible (Begin
    // requires WAL), so every lock holder is a live worker and the
    // blocking acquisition inside Replace cannot starve the pool.
    UpdateResult result;
    Status st = db_->Replace(bound, &result);
    if (!st.ok()) return ErrorFrame(s->id, st);
    std::string payload(1, static_cast<char>(kResultKindUpdate));
    EncodeUpdateResult(result, &payload);
    return OkFrame(s->id, std::move(payload));
  }

  const bool implicit = !s->txn_open;
  if (s->txn != nullptr) {
    // Resume: the explicit bracket, or an implicit transaction parked
    // earlier (it kept the locks it already won).
    db_->AttachSessionTransaction(s->txn);
    s->txn = nullptr;
  } else {
    Status st = db_->BeginSessionTransaction();
    if (!st.ok()) return ErrorFrame(s->id, st);
  }

  LockTable::TryOutcome outcome = LockTable::TryOutcome::kAcquired;
  Status st = db_->TryLockSetForWrite(&bound.set_name, &outcome);
  if (st.ok() && outcome == LockTable::TryOutcome::kWouldBlock) {
    // Park: keep the transaction (and any locks it holds — requests are
    // made in ascending lock-id order, so the parked waits-for graph is
    // acyclic) and retry when a writer finishes.
    s->txn = db_->DetachSessionTransaction();
    ParkSession(s, std::move(request));
    *parked = true;
    return Frame{};
  }
  if (st.ok() && outcome == LockTable::TryOutcome::kMustAbort) {
    // Wait-or-die: waiting here could close a deadlock cycle, so the
    // transaction dies. Strict 2PL cannot release one statement's locks,
    // so even an explicit bracket aborts whole; the client retries.
    metrics_->txn_aborts.fetch_add(1);
    st = Status::Aborted(
        "write-lock conflict aborted the transaction; retry it");
    (void)db_->AbortSessionTransaction();
    s->txn_open = false;
    WakeParked();
    return ErrorFrame(s->id, st);
  }
  if (!st.ok()) {
    // Lock-closure failure (e.g. no such set): the statement fails but
    // the transaction survives, as for any failed statement below.
    if (implicit) {
      (void)db_->AbortSessionTransaction();
      WakeParked();
    } else {
      s->txn = db_->DetachSessionTransaction();
    }
    return ErrorFrame(s->id, st);
  }

  UpdateResult result;
  st = db_->Replace(bound, &result);
  if (implicit) {
    uint64_t commit_lsn = 0;
    if (st.ok()) {
      st = db_->CommitSessionTransaction(&commit_lsn);
    } else {
      (void)db_->AbortSessionTransaction();
    }
    // Locks are released; let parked writers at them before waiting on
    // durability, so concurrent commits batch behind one leader fsync.
    WakeParked();
    if (st.ok()) st = db_->WaitWalDurable(commit_lsn);
  } else {
    s->txn = db_->DetachSessionTransaction();
  }
  if (!st.ok()) return ErrorFrame(s->id, st);
  std::string payload(1, static_cast<char>(kResultKindUpdate));
  EncodeUpdateResult(result, &payload);
  return OkFrame(s->id, std::move(payload));
}

Frame Server::Dispatch(const std::shared_ptr<Session>& s, Frame& request,
                       bool* parked) {
  *parked = false;
  const Opcode op = static_cast<Opcode>(request.opcode);
  if (request.session_id != 0 && request.session_id != s->id) {
    return ErrorFrame(s->id,
                      Status::InvalidArgument("frame session id mismatch"));
  }
  if (!s->handshaken && op != Opcode::kHandshake) {
    return ErrorFrame(
        s->id, Status::FailedPrecondition("handshake required first"));
  }

  switch (op) {
    case Opcode::kHandshake: {
      s->handshaken = true;
      std::string payload;
      PutU64(&payload, s->id);
      PutU16(&payload, kProtocolVersion);
      return OkFrame(s->id, std::move(payload));
    }
    case Opcode::kPrepareRead: {
      ByteReader reader(request.payload);
      PreparedStatement stmt;
      Status st = DecodeReadStatement(&reader, &stmt.read);
      if (!st.ok()) return ErrorFrame(s->id, st);
      stmt.param_count = stmt.read.ParamCount();
      const uint32_t id = s->next_stmt_id++;
      std::string payload;
      PutU32(&payload, id);
      PutU16(&payload, stmt.param_count);
      s->statements.emplace(id, std::move(stmt));
      return OkFrame(s->id, std::move(payload));
    }
    case Opcode::kPrepareUpdate: {
      ByteReader reader(request.payload);
      PreparedStatement stmt;
      stmt.is_update = true;
      Status st = DecodeUpdateStatement(&reader, &stmt.update);
      if (!st.ok()) return ErrorFrame(s->id, st);
      stmt.param_count = stmt.update.ParamCount();
      const uint32_t id = s->next_stmt_id++;
      std::string payload;
      PutU32(&payload, id);
      PutU16(&payload, stmt.param_count);
      s->statements.emplace(id, std::move(stmt));
      return OkFrame(s->id, std::move(payload));
    }
    case Opcode::kCloseStatement: {
      ByteReader reader(request.payload);
      uint32_t stmt_id = 0;
      if (!reader.GetU32(&stmt_id)) {
        return ErrorFrame(s->id,
                          Status::Corruption("truncated close payload"));
      }
      if (s->statements.erase(stmt_id) == 0) {
        return ErrorFrame(s->id, Status::NotFound("no such statement"));
      }
      return OkFrame(s->id, "");
    }
    case Opcode::kExecute: {
      uint32_t stmt_id = 0;
      std::vector<Value> params;
      Status st = DecodeExecute(request.payload, &stmt_id, &params);
      if (!st.ok()) return ErrorFrame(s->id, st);
      auto it = s->statements.find(stmt_id);
      if (it == s->statements.end()) {
        return ErrorFrame(s->id, Status::NotFound("no such statement"));
      }
      PreparedStatement& stmt = it->second;
      ++stmt.uses;
      if (stmt.is_update) {
        auto bound = stmt.update.Bind(params);
        if (!bound.ok()) return ErrorFrame(s->id, bound.status());
        return RunMutation(s, request, *bound, parked);
      }
      auto bound = stmt.read.Bind(params);
      if (!bound.ok()) return ErrorFrame(s->id, bound.status());
      ReadResult result;
      st = db_->Retrieve(*bound, &result);
      if (!st.ok()) return ErrorFrame(s->id, st);
      std::string payload(1, static_cast<char>(kResultKindRead));
      EncodeReadResult(result, &payload);
      return OkFrame(s->id, std::move(payload));
    }
    case Opcode::kRetrieve: {
      ByteReader reader(request.payload);
      ReadStatement stmt;
      Status st = DecodeReadStatement(&reader, &stmt);
      if (!st.ok()) return ErrorFrame(s->id, st);
      auto bound = stmt.Bind({});
      if (!bound.ok()) return ErrorFrame(s->id, bound.status());
      ReadResult result;
      st = db_->Retrieve(*bound, &result);
      if (!st.ok()) return ErrorFrame(s->id, st);
      std::string payload(1, static_cast<char>(kResultKindRead));
      EncodeReadResult(result, &payload);
      return OkFrame(s->id, std::move(payload));
    }
    case Opcode::kReplace: {
      ByteReader reader(request.payload);
      UpdateStatement stmt;
      Status st = DecodeUpdateStatement(&reader, &stmt);
      if (!st.ok()) return ErrorFrame(s->id, st);
      auto bound = stmt.Bind({});
      if (!bound.ok()) return ErrorFrame(s->id, bound.status());
      return RunMutation(s, request, *bound, parked);
    }
    case Opcode::kBegin: {
      if (s->txn_open) {
        return ErrorFrame(
            s->id, Status::FailedPrecondition("transaction already open"));
      }
      Status st = db_->BeginSessionTransaction();
      if (!st.ok()) return ErrorFrame(s->id, st);
      // The bracket starts with no locks; statements take theirs as they
      // arrive. Detach so other workers (and disconnect cleanup) can
      // pick the session up.
      s->txn = db_->DetachSessionTransaction();
      s->txn_open = true;
      return OkFrame(s->id, "");
    }
    case Opcode::kCommit: {
      if (!s->txn_open) {
        return ErrorFrame(s->id,
                          Status::FailedPrecondition("commit without begin"));
      }
      db_->AttachSessionTransaction(s->txn);
      s->txn = nullptr;
      uint64_t commit_lsn = 0;
      Status st = db_->CommitSessionTransaction(&commit_lsn);
      s->txn_open = false;
      // Locks released — wake parked writers before the durability wait
      // so their commits can join this group-commit batch.
      WakeParked();
      if (st.ok()) st = db_->WaitWalDurable(commit_lsn);
      if (!st.ok()) return ErrorFrame(s->id, st);
      return OkFrame(s->id, "");
    }
    case Opcode::kAbort: {
      if (!s->txn_open) {
        return ErrorFrame(s->id,
                          Status::FailedPrecondition("abort without begin"));
      }
      db_->AttachSessionTransaction(s->txn);
      s->txn = nullptr;
      Status st = db_->AbortSessionTransaction();
      s->txn_open = false;
      WakeParked();
      if (!st.ok()) return ErrorFrame(s->id, st);
      return OkFrame(s->id, "");
    }
    case Opcode::kMetrics: {
      ByteReader reader(request.payload);
      std::string format;
      if (!reader.GetLengthPrefixed(&format)) format = "prometheus";
      if (db_->metrics() == nullptr) {
        return ErrorFrame(
            s->id, Status::FailedPrecondition("telemetry is disabled"));
      }
      std::string text;
      if (format == "json") {
        text = db_->MetricsJson();
      } else if (format == "prometheus" || format.empty()) {
        text = db_->MetricsPrometheus();
      } else {
        return ErrorFrame(s->id, Status::InvalidArgument(
                                     "unknown metrics format: " + format));
      }
      std::string payload;
      PutLengthPrefixed(&payload, text);
      return OkFrame(s->id, std::move(payload));
    }
    case Opcode::kCatalog: {
      CatalogInfo info;
      const Catalog& catalog = db_->catalog();
      for (const std::string& set_name : catalog.SetNames()) {
        auto set_info = catalog.GetSet(set_name);
        if (!set_info.ok()) continue;
        CatalogInfo::Set set;
        set.name = set_name;
        set.type_name = (*set_info)->type_name;
        auto type = catalog.GetType(set.type_name);
        if (type.ok()) {
          for (const AttributeDescriptor& attr : (*type)->attributes()) {
            CatalogInfo::Attr a;
            a.name = attr.name;
            a.type = attr.type;
            a.char_length = attr.char_length;
            a.ref_type = attr.ref_type;
            set.attributes.push_back(std::move(a));
          }
        }
        info.sets.push_back(std::move(set));
      }
      for (uint16_t path_id : catalog.AllPathIds()) {
        const ReplicationPathInfo* path = catalog.GetPath(path_id);
        if (path != nullptr) info.replicated_paths.push_back(path->spec);
      }
      std::string payload;
      EncodeCatalogInfo(info, &payload);
      return OkFrame(s->id, std::move(payload));
    }
    case Opcode::kGoodbye:
      return OkFrame(s->id, "");
    default:
      return ErrorFrame(
          s->id, Status::InvalidArgument("unknown opcode " +
                                         std::to_string(request.opcode)));
  }
}

}  // namespace fieldrep::net
