#include "dist/server.hpp"

#include <sys/epoll.h>

#include <array>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <sstream>
#include <unordered_set>

#include "dist/checkpoint_file.hpp"
#include "dist/wire.hpp"
#include "net/bulk.hpp"
#include "net/fault.hpp"
#include "net/frame_reader.hpp"
#include "obs/jsonl.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/logging.hpp"
#include "util/simd.hpp"
#include "util/stopwatch.hpp"
#include "util/vfs.hpp"

namespace hdcs::dist {

namespace {
// Request-handling latency, one histogram per client->server message type.
// Measures decode + scheduling + encode, i.e. everything between reading
// the request frame and writing the response frame.
obs::Histogram* handler_histogram(net::MessageType type) {
  auto& reg = obs::Registry::global();
  auto make = [&reg](const char* name) {
    return &reg.histogram(std::string("server.handle_s.") + name,
                          obs::Histogram::latency_bounds());
  };
  switch (type) {
    case net::MessageType::kHello: {
      static obs::Histogram* h = make("Hello");
      return h;
    }
    case net::MessageType::kRequestWork: {
      static obs::Histogram* h = make("RequestWork");
      return h;
    }
    case net::MessageType::kSubmitResult: {
      static obs::Histogram* h = make("SubmitResult");
      return h;
    }
    case net::MessageType::kHeartbeat: {
      static obs::Histogram* h = make("Heartbeat");
      return h;
    }
    case net::MessageType::kFetchProblemData: {
      static obs::Histogram* h = make("FetchProblemData");
      return h;
    }
    case net::MessageType::kFetchBlobs: {
      static obs::Histogram* h = make("FetchBlobs");
      return h;
    }
    case net::MessageType::kFetchStats: {
      static obs::Histogram* h = make("FetchStats");
      return h;
    }
    default:
      return nullptr;  // Goodbye closes the connection; others are errors
  }
}

obs::Gauge& connected_gauge() {
  static obs::Gauge* g =
      &obs::Registry::global().gauge("server.connected_clients");
  return *g;
}

// Event-loop health counters (net.loop.wakeups / lag_s / fds live in
// net/event_loop.cpp; these are the server-side flow-control ones).
struct LoopIoMetrics {
  obs::Counter& eagain_writes =
      obs::Registry::global().counter("net.loop.eagain_writes");
  obs::Counter& backpressure_stalls =
      obs::Registry::global().counter("net.loop.backpressure_stalls");
  obs::Counter& connections_shed =
      obs::Registry::global().counter("net.loop.connections_shed");
  obs::Gauge& write_queue_hwm =
      obs::Registry::global().gauge("net.loop.write_queue_hwm");
};
LoopIoMetrics& loop_io_metrics() {
  static LoopIoMetrics m;
  return m;
}
}  // namespace

// One hot standby's outbound record queue. Handlers push (under
// core_mutex_, in core-mutation order) the same encoded payloads the WAL
// stores; the replica connection's thread drains them into WalAppend
// batches. A standby that stops acking while records pile up overflows and
// is disconnected — it resyncs from a fresh snapshot instead of wedging
// the primary on an unbounded queue.
struct Server::ReplicaFeed {
  static constexpr std::size_t kMaxQueued = 1u << 16;

  std::mutex m;
  std::condition_variable cv;
  std::deque<std::vector<std::byte>> q;
  bool overflow = false;

  void push(const std::vector<std::byte>& rec) {
    {
      std::lock_guard lock(m);
      if (q.size() >= kMaxQueued) {
        overflow = true;
        q.clear();
      } else {
        q.push_back(rec);
      }
    }
    cv.notify_one();
  }
};

// One epoll loop, its thread, and the connections pinned to it. `conns` is
// touched only from the loop's own thread.
struct Server::IoLoop {
  net::EventLoop loop;
  std::thread thread;
  std::unordered_set<std::shared_ptr<Conn>> conns;
};

// Per-connection state machine. Everything here is owned by the
// connection's loop thread, except client_id (read by workers for log
// lines, written on the loop thread as Hello/Goodbye outcomes land).
struct Server::Conn {
  net::TcpStream stream;
  IoLoop* io = nullptr;
  net::FrameReader reader;
  std::deque<net::Message> inbox;  // parsed requests awaiting a worker slot
  bool busy = false;               // one worker job in flight at a time
  bool closed = false;
  bool paused = false;            // backpressure: EPOLLIN off
  bool want_write = false;        // EPOLLOUT armed (kernel buffer was full)
  bool close_after_flush = false; // Goodbye: close once the queue drains
  std::uint32_t armed = 0;        // epoll mask currently registered
  std::atomic<ClientId> client_id{0};

  struct Chunk {
    std::vector<std::byte> bytes;
    std::size_t off = 0;
    /// Blob-budget bytes released when this chunk finishes sending (or the
    /// connection dies with it queued).
    std::size_t release = 0;
  };
  std::deque<Chunk> outq;
  std::size_t outq_bytes = 0;

  /// Mid-structure stall guard: set while the reader is inside a frame,
  /// re-armed on every read that makes progress, swept at 1 Hz.
  std::chrono::steady_clock::time_point read_deadline{};
  /// Write-stall guard: set when the queue is non-empty and the kernel
  /// refuses bytes; cleared on any write progress.
  std::chrono::steady_clock::time_point write_deadline{};
};

// What a worker hands back to the loop thread: response frames (and bulk
// bodies) already encoded to wire bytes, plus connection-state directives.
struct Server::HandlerOutcome {
  std::vector<std::vector<std::byte>> chunks;  // enqueued in order
  std::size_t inflight_charged = 0;  // blob budget to release after send
  ClientId became_client = 0;        // Hello assigned this id
  bool clear_client = false;         // Goodbye: drop the id before close
  bool close = false;                // close once chunks are flushed
  bool replica = false;              // detach into a replication session
  net::Message request;              // original frame (replica detach)
};

Server::Server(ServerConfig config)
    : config_(std::move(config)),
      core_(config_.scheduler, make_policy(config_.policy_spec)),
      epoch_(std::chrono::steady_clock::now()) {
  core_.set_tracer(config_.tracer);
  // 0=scalar 1=sse2 2=avx2 3=avx512 (util/simd.hpp); which kernel tier
  // this process dispatches — visible in metrics dumps and hdcs_top.
  obs::Registry::global().gauge("simd.tier")
      .set(static_cast<double>(static_cast<int>(simd_tier())));
}

Server::~Server() { stop(); }

double Server::now() const {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - epoch_)
      .count();
}

void Server::start() {
  if (running_.exchange(true)) return;
  bool wal_recovered = false;
  if (!config_.wal_dir.empty()) {
    WalConfig wc;
    wc.dir = config_.wal_dir;
    wc.segment_bytes = config_.wal_segment_bytes;
    wal_ = std::make_unique<WalLog>(wc);
    wal_->set_tracer(config_.tracer);
    WalRecovery rec = wal_->take_recovery();
    if (rec.base_snapshot || !rec.tail.empty()) {
      std::lock_guard lock(core_mutex_);
      // Replay with the tracer detached: the recovered mutations were
      // already traced by the previous life of this scheduler.
      core_.set_tracer(nullptr);
      if (rec.base_snapshot) {
        ByteReader r(*rec.base_snapshot);
        core_.restore_exact(r);
        r.expect_end();
      }
      for (const WalRecord& wrec : rec.tail) apply_wal_record(core_, wrec);
      core_.set_tracer(config_.tracer);
      double t = now();
      // New term: the torn-off tail may have held unsynced RequestWork
      // records whose unit ids this core will reuse — fence their stale
      // results by epoch, and sweep the dead connections' client rows.
      enter_new_term("wal_recovery", t);
      last_compact_lsn_ = wal_->next_lsn();
      wal_recovered = true;
      if (config_.tracer) {
        config_.tracer->event(t, "wal_recovered")
            .u64("records", rec.records_replayable)
            .u64("lsn", wal_->next_lsn())
            .u64("epoch", core_.epoch())
            .u64("torn_bytes", rec.torn_bytes_truncated);
      }
      LOG_INFO("WAL recovery from " << config_.wal_dir << ": "
               << rec.records_replayable << " records over "
               << rec.segments_scanned << " segments, resuming at lsn "
               << wal_->next_lsn() << " epoch " << core_.epoch());
      progress_cv_.notify_all();
    }
  }
  if (!wal_recovered && !config_.checkpoint_path.empty() &&
      config_.restore_on_start) {
    if (auto blob = read_checkpoint_file(config_.checkpoint_path)) {
      LOG_INFO("restoring checkpoint from " << config_.checkpoint_path << " ("
                                            << blob->size() << " bytes)");
      restore_checkpoint(*blob);
    }
  }
  if (wal_) repl_lsn_ = wal_->next_lsn();
  durability_.store(static_cast<int>(
      wal_ || !config_.checkpoint_path.empty() ? Durability::kDurable
                                               : Durability::kNone));
  obs::Registry::global().gauge("server.durability")
      .set(static_cast<double>(durability_.load()));
  listener_ = net::TcpListener::bind(config_.port);
  port_ = listener_.port();
  if (!config_.primary_host.empty()) standby_.store(true);
  workers_ = std::make_unique<ThreadPool>(
      static_cast<std::size_t>(std::max(1, config_.worker_threads)));
  io_.clear();
  const int nloops = std::max(1, config_.io_threads);
  for (int i = 0; i < nloops; ++i) io_.push_back(std::make_unique<IoLoop>());
  for (auto& io : io_) {
    IoLoop* iop = io.get();
    // add_periodic/add_fd are loop-thread-only; queue the setup so it runs
    // as the loop's first task.
    iop->loop.post([this, iop] {
      iop->loop.add_periodic(1.0, [this, iop] { sweep_conns(*iop); });
    });
  }
  io_[0]->loop.post([this] {
    io_[0]->loop.add_fd(listener_.fd(), EPOLLIN,
                        [this](std::uint32_t) { accept_ready(); });
  });
  for (auto& io : io_) {
    IoLoop* iop = io.get();
    iop->thread = std::thread([iop] { iop->loop.run(); });
  }
  housekeeper_ = std::thread([this] { housekeeping_loop(); });
  if (standby_.load()) {
    replica_ = std::thread([this] { replica_loop(); });
    LOG_INFO("standby listening on 127.0.0.1:" << port_ << ", syncing from "
             << config_.primary_host << ":" << config_.primary_port);
  } else {
    LOG_INFO("server listening on 127.0.0.1:" << port_);
  }
}

void Server::stop() {
  if (!running_.exchange(false)) return;
  // Tear connections down on their own loop threads (each posts its
  // client_left to the workers), stop the loops, then drain the worker
  // queue — shutdown() runs what is queued before joining.
  if (!io_.empty()) {
    io_[0]->loop.post([this] {
      io_[0]->loop.remove_fd(listener_.fd());
      listener_.close();
    });
  }
  for (auto& io : io_) {
    IoLoop* iop = io.get();
    iop->loop.post([this, iop] {
      auto conns = iop->conns;  // disconnect mutates the set
      for (const auto& c : conns) conn_disconnect(c, nullptr);
    });
  }
  for (auto& io : io_) io->loop.stop();
  for (auto& io : io_) {
    if (io->thread.joinable()) io->thread.join();
  }
  if (workers_) workers_->shutdown();
  if (replica_.joinable()) replica_.join();
  if (housekeeper_.joinable()) housekeeper_.join();
  std::vector<std::thread> replicas;
  {
    std::lock_guard lock(replica_threads_mutex_);
    replicas.swap(replica_threads_);
  }
  for (auto& t : replicas) {
    if (t.joinable()) t.join();
  }
  io_.clear();
  workers_.reset();
  progress_cv_.notify_all();
}

ProblemId Server::submit_problem(std::shared_ptr<DataManager> dm) {
  std::lock_guard lock(core_mutex_);
  ProblemId id = core_.submit_problem(std::move(dm));
  progress_cv_.notify_all();
  return id;
}

bool Server::wait_for_problem(ProblemId id, double timeout_s) {
  std::unique_lock lock(core_mutex_);
  auto done = [&] { return core_.problem_complete(id) || !running_.load(); };
  if (timeout_s < 0) {
    progress_cv_.wait(lock, done);
  } else {
    progress_cv_.wait_for(lock, std::chrono::duration<double>(timeout_s), done);
  }
  return core_.problem_complete(id);
}

bool Server::wait_for_all(double timeout_s) {
  std::unique_lock lock(core_mutex_);
  auto done = [&] { return core_.all_complete() || !running_.load(); };
  if (timeout_s < 0) {
    progress_cv_.wait(lock, done);
  } else {
    progress_cv_.wait_for(lock, std::chrono::duration<double>(timeout_s), done);
  }
  return core_.all_complete();
}

std::vector<std::byte> Server::final_result(ProblemId id) {
  std::lock_guard lock(core_mutex_);
  return core_.final_result(id);
}

std::vector<std::byte> Server::checkpoint() {
  std::lock_guard lock(core_mutex_);
  ByteWriter w;
  core_.checkpoint(w);
  return w.take();
}

void Server::restore_checkpoint(std::span<const std::byte> data) {
  std::lock_guard lock(core_mutex_);
  ByteReader r(data);
  core_.restore(r);
  r.expect_end();
  progress_cv_.notify_all();
}

bool Server::save_checkpoint() {
  if (config_.checkpoint_path.empty()) return false;
  std::vector<std::byte> blob;
  std::size_t problems = 0;
  std::size_t in_flight = 0;
  double t = 0;
  {
    std::lock_guard lock(core_mutex_);
    ByteWriter w;
    core_.checkpoint(w);
    blob = w.take();
    problems = core_.problem_count();
    in_flight = core_.in_flight_units();
    t = now();
  }
  write_checkpoint_file(config_.checkpoint_path, blob);
  record_checkpoint_saved(config_.tracer, t, blob.size(), problems, in_flight);
  return true;
}

SchedulerStats Server::stats() {
  std::lock_guard lock(core_mutex_);
  return core_.stats();
}

std::vector<ClientInfo> Server::client_stats() {
  std::lock_guard lock(core_mutex_);
  return core_.all_client_stats();
}

namespace {
std::string json_num(double v) {
  char buf[64];
  if (v == static_cast<double>(static_cast<long long>(v)) && std::abs(v) < 1e15) {
    std::snprintf(buf, sizeof(buf), "%lld", static_cast<long long>(v));
  } else {
    std::snprintf(buf, sizeof(buf), "%.9g", v);
  }
  return buf;
}
}  // namespace

std::string Server::stats_json(bool include_clients) {
  SchedulerStats s;
  std::vector<ClientInfo> clients;
  std::uint64_t evicted_completed;
  std::size_t pending;
  std::uint64_t term;
  std::uint64_t wal_lsn;
  double t;
  {
    std::lock_guard lock(core_mutex_);
    s = core_.stats();
    if (include_clients) clients = core_.all_client_stats();
    evicted_completed = core_.evicted_units_completed();
    pending = core_.pending_units();
    term = core_.epoch();
    wal_lsn = wal_ ? wal_->next_lsn() : 0;
    t = now();
  }
  // Mirrored as a gauge so registry-only consumers (render_text dumps,
  // hdcs_top's metrics pane) see the backlog too.
  obs::Registry::global().gauge("scheduler.units_pending")
      .set(static_cast<double>(pending));
  std::ostringstream out;
  out << "{\"schema\":" << obs::kTraceSchemaVersion << ",\"now\":" << json_num(t)
      << ",\"simd_tier\":\"" << to_string(simd_tier()) << "\""
      << ",\"role\":\"" << (standby_.load() ? "standby" : "primary") << "\""
      << ",\"durability\":\""
      << (durability() == Durability::kDurable
              ? "durable"
              : durability() == Durability::kDegraded ? "degraded" : "none")
      << "\""
      << ",\"epoch\":" << term << ",\"wal_lsn\":" << wal_lsn
      << ",\"connected_clients\":" << connected_.load() << ",\"scheduler\":{"
      << "\"units_issued\":" << s.units_issued
      << ",\"units_reissued\":" << s.units_reissued
      << ",\"units_hedged\":" << s.units_hedged
      << ",\"results_accepted\":" << s.results_accepted
      << ",\"duplicate_results_dropped\":" << s.duplicate_results_dropped
      << ",\"stale_results_dropped\":" << s.stale_results_dropped
      << ",\"work_requests_unserved\":" << s.work_requests_unserved
      << ",\"clients_expired\":" << s.clients_expired
      << ",\"units_quarantined\":" << s.units_quarantined
      << ",\"units_replicated\":" << s.units_replicated
      << ",\"replicas_issued\":" << s.replicas_issued
      << ",\"spot_checks\":" << s.spot_checks
      << ",\"votes_recorded\":" << s.votes_recorded
      << ",\"vote_quorums\":" << s.vote_quorums
      << ",\"vote_mismatches\":" << s.vote_mismatches
      << ",\"results_rejected_mismatch\":" << s.results_rejected_mismatch
      << ",\"results_rejected_digest\":" << s.results_rejected_digest
      << ",\"results_rejected_blacklisted\":" << s.results_rejected_blacklisted
      << ",\"results_rejected_stale_epoch\":" << s.results_rejected_stale_epoch
      << ",\"donors_blacklisted\":" << s.donors_blacklisted
      << ",\"clients_evicted\":" << s.clients_evicted
      << ",\"evicted_units_completed\":" << evicted_completed
      << ",\"units_pending\":" << pending << "}";
  if (include_clients) {
    out << ",\"clients\":[";
    bool first = true;
    for (const auto& c : clients) {
      if (!first) out << ",";
      first = false;
      out << "{\"id\":" << c.id << ",\"name\":\"" << obs::json_escape(c.name)
          << "\",\"active\":" << (c.active ? "true" : "false")
          << ",\"benchmark_ops_per_sec\":" << json_num(c.stats.benchmark_ops_per_sec)
          << ",\"ewma_ops_per_sec\":" << json_num(c.stats.ewma_ops_per_sec)
          << ",\"units_completed\":" << c.stats.units_completed
          << ",\"outstanding\":" << c.stats.outstanding
          << ",\"last_seen\":" << json_num(c.stats.last_seen)
          << ",\"rep\":" << json_num(c.reputation)
          << ",\"blacklisted\":" << (c.blacklisted ? "true" : "false")
          << ",\"vote_wins\":" << c.vote_wins
          << ",\"vote_losses\":" << c.vote_losses << "}";
    }
    out << "]";
  }
  out << ",\"metrics\":" << obs::Registry::global().render_json() << "}";
  return out.str();
}

int Server::connected_clients() { return connected_.load(); }

void Server::accept_ready() {
  // Loop-0 thread. Drain the (non-blocking) listener: one EPOLLIN can
  // cover a whole burst of queued connections.
  while (running_.load()) {
    std::optional<net::TcpStream> stream;
    try {
      stream = listener_.accept(0);
    } catch (const IoError& e) {
      if (running_.load()) LOG_ERROR("accept failed: " << e.what());
      return;
    }
    if (!stream) return;
    IoLoop& target = *io_[next_loop_++ % io_.size()];
    if (&target == io_[0].get()) {
      register_conn(target, std::move(*stream));
    } else {
      auto s = std::make_shared<net::TcpStream>(std::move(*stream));
      target.loop.post(
          [this, &target, s] { register_conn(target, std::move(*s)); });
    }
  }
}

void Server::register_conn(IoLoop& io, net::TcpStream stream) {
  if (!running_.load()) return;
  auto c = std::make_shared<Conn>();
  c->stream = std::move(stream);
  c->io = &io;
  c->stream.set_nonblocking(true);
  c->armed = EPOLLIN;
  io.loop.add_fd(c->stream.fd(), EPOLLIN,
                 [this, c](std::uint32_t events) { conn_event(c, events); });
  io.conns.insert(c);
  connected_gauge().set(connected_.fetch_add(1) + 1);
}

void Server::conn_event(std::shared_ptr<Conn> c, std::uint32_t events) {
  if (c->closed) return;
  if (events & (EPOLLERR | EPOLLHUP)) {
    conn_disconnect(std::move(c), "peer closed");
    return;
  }
  try {
    if (events & EPOLLOUT) conn_flush(c);
    if (c->closed) return;
    if ((events & EPOLLIN) && !c->paused) conn_readable(c);
  } catch (const net::ConnectionClosed&) {
    LOG_INFO("client connection closed (client " << c->client_id.load()
                                                 << ")");
    conn_disconnect(std::move(c), nullptr);
  } catch (const Error& e) {
    LOG_WARN("handler error (client " << c->client_id.load()
                                      << "): " << e.what());
    conn_disconnect(std::move(c), nullptr);
  }
}

void Server::conn_readable(const std::shared_ptr<Conn>& c) {
  // Same fault-injection points the blocking recv path has: a delay, a
  // dropped read (connection torn down), then a corrupted byte among the
  // received bytes — which the frame CRCs must catch downstream.
  net::FaultPlan* fp = net::installed_fault_plan();
  if (fp) {
    if (double d = fp->delay_s(); d > 0) {
      std::this_thread::sleep_for(std::chrono::duration<double>(d));
    }
    if (fp->drop_recv()) {
      conn_disconnect(c, nullptr);
      return;
    }
  }
  std::array<std::byte, 16384> buf;
  std::vector<net::Message> msgs;
  bool progressed = false;
  // Bounded per event so one firehose sender cannot starve the loop's
  // other connections; level-triggered epoll re-fires for the rest.
  for (int round = 0; round < 64; ++round) {
    auto n = c->stream.recv_nb(buf);
    if (!n) break;  // EAGAIN
    if (*n == 0) {  // orderly EOF
      LOG_INFO("client connection closed (client " << c->client_id.load()
                                                   << ")");
      conn_disconnect(c, nullptr);
      return;
    }
    progressed = true;
    std::span<std::byte> data(buf.data(), *n);
    if (fp) {
      if (auto idx = fp->corrupt_byte(*n)) data[*idx] ^= std::byte{0x20};
    }
    c->reader.feed(data, msgs);  // ProtocolError -> conn_event's catch
  }
  if (c->reader.mid_frame()) {
    // Re-arm on progress: the guard fires on *silence* mid-frame, exactly
    // like the blocking path's recv_all stall timeout.
    if (progressed ||
        c->read_deadline == std::chrono::steady_clock::time_point{}) {
      c->read_deadline = std::chrono::steady_clock::now() +
                         std::chrono::milliseconds(net::kMidStreamStallMs);
    }
  } else {
    c->read_deadline = {};
  }
  for (auto& m : msgs) c->inbox.push_back(std::move(m));
  conn_pump(c);
}

void Server::conn_pump(const std::shared_ptr<Conn>& c) {
  if (c->busy || c->closed || c->inbox.empty()) return;
  net::Message request = std::move(c->inbox.front());
  c->inbox.pop_front();
  c->busy = true;
  auto self = c;
  bool accepted = workers_->submit([this, self,
                                    request = std::move(request)]() mutable {
    HandlerOutcome out = handle_request(self, request);
    self->io->loop.post([this, self, out = std::move(out)]() mutable {
      deliver(self, std::move(out));
    });
  });
  if (!accepted) c->busy = false;  // shutting down; stop() closes the conn
}

void Server::deliver(const std::shared_ptr<Conn>& c, HandlerOutcome out) {
  if (out.became_client) c->client_id.store(out.became_client);
  if (out.clear_client) c->client_id.store(0);
  if (c->closed) {
    // The connection died while the worker was busy: nothing to send, but
    // the budget charge must come back, and a client that joined through a
    // now-dead connection must be swept out of the scheduler.
    if (out.inflight_charged) {
      blob_inflight_bytes_.fetch_sub(out.inflight_charged);
    }
    if (out.became_client) client_left_async(out.became_client);
    return;
  }
  c->busy = false;
  if (out.replica) {
    detach_replica(c, std::move(out.request));
    return;
  }
  for (std::size_t i = 0; i < out.chunks.size(); ++i) {
    const bool last = i + 1 == out.chunks.size();
    conn_enqueue(c, std::move(out.chunks[i]),
                 last ? out.inflight_charged : 0);
  }
  if (out.chunks.empty() && out.inflight_charged) {
    blob_inflight_bytes_.fetch_sub(out.inflight_charged);
  }
  if (out.close) c->close_after_flush = true;
  conn_flush(c);
  if (!c->closed) conn_pump(c);
}

void Server::conn_enqueue(const std::shared_ptr<Conn>& c,
                          std::vector<std::byte> bytes, std::size_t release) {
  if (c->closed) {
    if (release) blob_inflight_bytes_.fetch_sub(release);
    return;
  }
  c->outq_bytes += bytes.size();
  std::size_t prev = write_hwm_.load(std::memory_order_relaxed);
  while (c->outq_bytes > prev &&
         !write_hwm_.compare_exchange_weak(prev, c->outq_bytes)) {
  }
  loop_io_metrics().write_queue_hwm.set(
      static_cast<double>(write_hwm_.load(std::memory_order_relaxed)));
  c->outq.push_back(Conn::Chunk{std::move(bytes), 0, release});
}

void Server::conn_flush(const std::shared_ptr<Conn>& c) {
  if (c->closed) return;
  net::FaultPlan* fp = net::installed_fault_plan();
  try {
    while (!c->outq.empty()) {
      Conn::Chunk& ch = c->outq.front();
      std::span<const std::byte> rest = std::span(ch.bytes).subspan(ch.off);
      if (fp && !rest.empty()) {
        if (double d = fp->delay_s(); d > 0) {
          std::this_thread::sleep_for(std::chrono::duration<double>(d));
        }
        if (auto keep = fp->truncate_send(rest.size())) {
          // Mirror the blocking path: deliver only a prefix so the peer
          // sees a torn frame, then break the connection.
          if (*keep > 0) c->stream.send_nb(rest.subspan(0, *keep));
          conn_disconnect(c, nullptr);
          return;
        }
      }
      auto n = c->stream.send_nb(rest);
      if (!n) {
        loop_io_metrics().eagain_writes.inc();
        break;
      }
      ch.off += *n;
      c->outq_bytes -= *n;
      if (*n > 0) c->write_deadline = {};  // progress: the donor is draining
      if (ch.off == ch.bytes.size()) {
        if (ch.release) blob_inflight_bytes_.fetch_sub(ch.release);
        c->outq.pop_front();
      } else if (*n == 0) {
        break;
      }
    }
  } catch (const net::ConnectionClosed&) {
    conn_disconnect(c, nullptr);
    return;
  }
  if (c->outq.empty()) {
    c->want_write = false;
    c->write_deadline = {};
    if (c->close_after_flush) {
      conn_disconnect(c, nullptr);
      return;
    }
  } else {
    c->want_write = true;
    if (c->write_deadline == std::chrono::steady_clock::time_point{}) {
      c->write_deadline =
          std::chrono::steady_clock::now() +
          std::chrono::duration_cast<std::chrono::steady_clock::duration>(
              std::chrono::duration<double>(config_.write_stall_timeout_s));
    }
  }
  // Backpressure: a queue past the bound stops reads (no new requests, no
  // new responses) until the donor drains half of it. Kernel-buffer-full
  // is not a disconnect — only a full *stall* (sweep_conns) is.
  if (!c->paused && c->outq_bytes > config_.max_write_buffer_bytes) {
    c->paused = true;
    loop_io_metrics().backpressure_stalls.inc();
  } else if (c->paused && c->outq_bytes <= config_.max_write_buffer_bytes / 2) {
    c->paused = false;
  }
  sync_conn_events(c);
}

void Server::sync_conn_events(const std::shared_ptr<Conn>& c) {
  if (c->closed) return;
  std::uint32_t want = (c->paused ? 0u : static_cast<std::uint32_t>(EPOLLIN)) |
                       (c->want_write ? static_cast<std::uint32_t>(EPOLLOUT) : 0u);
  if (want == c->armed) return;
  c->io->loop.modify_fd(c->stream.fd(), want);
  c->armed = want;
}

void Server::sweep_conns(IoLoop& io) {
  const auto now = std::chrono::steady_clock::now();
  constexpr std::chrono::steady_clock::time_point kUnset{};
  std::vector<std::shared_ptr<Conn>> stalled_read;
  std::vector<std::shared_ptr<Conn>> stalled_write;
  for (const auto& c : io.conns) {
    if (c->read_deadline != kUnset && now >= c->read_deadline &&
        c->reader.mid_frame()) {
      stalled_read.push_back(c);
    } else if (c->write_deadline != kUnset && now >= c->write_deadline) {
      stalled_write.push_back(c);
    }
  }
  for (auto& c : stalled_read) {
    LOG_WARN("handler error (client "
             << c->client_id.load() << "): peer stalled mid-read: got "
             << c->reader.pending_bytes() << " bytes of an unfinished frame");
    conn_disconnect(std::move(c), nullptr);
  }
  for (auto& c : stalled_write) {
    loop_io_metrics().connections_shed.inc();
    LOG_WARN("shedding stalled connection (client "
             << c->client_id.load() << "): " << c->outq_bytes
             << " bytes undrained for " << config_.write_stall_timeout_s
             << "s");
    conn_disconnect(std::move(c), nullptr);
  }
}

void Server::conn_disconnect(std::shared_ptr<Conn> c, const char* reason) {
  if (c->closed) return;
  c->closed = true;
  c->io->loop.remove_fd(c->stream.fd());
  for (const auto& ch : c->outq) {
    if (ch.release) blob_inflight_bytes_.fetch_sub(ch.release);
  }
  c->outq.clear();
  c->outq_bytes = 0;
  c->inbox.clear();
  c->stream.close();
  c->io->conns.erase(c);
  connected_gauge().set(connected_.fetch_sub(1) - 1);
  if (reason) {
    LOG_WARN("handler error (client " << c->client_id.load()
                                      << "): " << reason);
  }
  if (ClientId id = c->client_id.exchange(0)) client_left_async(id);
}

void Server::client_left_async(ClientId id) {
  workers_->submit([this, id] {
    {
      std::lock_guard lock(core_mutex_);
      double t = now();
      core_.client_left(id, t);
      WalRecord rec;
      rec.op = WalOp::kClientLeft;
      rec.now = t;
      rec.arg = id;
      log_record(std::move(rec));
    }
    progress_cv_.notify_all();
  });
}

void Server::detach_replica(const std::shared_ptr<Conn>& c,
                            net::Message hello) {
  // The connection becomes a long-lived replication session: pull it off
  // the loop, restore blocking mode, and give it a dedicated thread (hot
  // standbys are few; the blocking serve_replica path stays byte-exact).
  c->closed = true;
  c->io->loop.remove_fd(c->stream.fd());
  c->io->conns.erase(c);
  net::TcpStream stream = std::move(c->stream);
  try {
    stream.set_nonblocking(false);
    for (const auto& ch : c->outq) {
      stream.send_all(std::span(ch.bytes).subspan(ch.off));
    }
  } catch (const Error& e) {
    LOG_WARN("replica handoff failed: " << e.what());
    connected_gauge().set(connected_.fetch_sub(1) - 1);
    return;
  }
  std::lock_guard lock(replica_threads_mutex_);
  replica_threads_.emplace_back(
      [this, s = std::move(stream), hello = std::move(hello)]() mutable {
        serve_replica(s, hello);
        connected_gauge().set(connected_.fetch_sub(1) - 1);
      });
}

void Server::housekeeping_loop() {
  double last_checkpoint = now();
  double last_rearm = now();
  double last_budget_check = now();
  while (running_.load()) {
    // A standby's shadow core is driven only by the primary's record
    // stream (which includes the primary's own Tick records with the
    // primary's clock); ticking it locally would double-expire leases.
    if (!standby_.load()) {
      {
        std::lock_guard lock(core_mutex_);
        double t = now();
        core_.tick(t);
        WalRecord rec;
        rec.op = WalOp::kTick;
        rec.now = t;
        log_record(std::move(rec));  // doubles as a replication keepalive
        try {
          maybe_compact_locked(t);
        } catch (const Error& e) {
          // A full disk must not kill scheduling; retry next interval.
          LOG_ERROR("wal compaction failed: " << e.what());
        }
      }
      progress_cv_.notify_all();
      if (!config_.checkpoint_path.empty() &&
          now() - last_checkpoint >= config_.checkpoint_interval_s) {
        last_checkpoint = now();
        try {
          save_checkpoint();
        } catch (const Error& e) {
          LOG_ERROR("checkpoint autosave failed: " << e.what());
          // Checkpoint-only durability: a failed autosave IS the
          // durability loss (there is no WAL underneath to catch it).
          if (!wal_) {
            std::lock_guard lock(core_mutex_);
            degrade_locked("checkpoint_save", now());
          }
        }
      }
      // Degraded -> durable re-arm: rebuild the WAL (or prove a
      // checkpoint lands) on a steady cadence until the disk recovers.
      if (static_cast<Durability>(durability_.load()) ==
              Durability::kDegraded &&
          !storage_failed_.load() &&
          now() - last_rearm >= config_.rearm_retry_s) {
        last_rearm = now();
        try_rearm();
      }
      // Disk-budget watchdog: compaction folds segments into one base
      // snapshot, so forcing it under pressure sheds WAL bytes before the
      // device itself runs dry (which would degrade us the hard way).
      if (wal_ && config_.wal_dir_budget_bytes > 0 &&
          static_cast<Durability>(durability_.load()) ==
              Durability::kDurable &&
          now() - last_budget_check >= 2.0) {
        last_budget_check = now();
        const std::uint64_t used = vfs::dir_bytes(config_.wal_dir);
        if (used > config_.wal_dir_budget_bytes) {
          obs::Registry::global().counter("storage.budget_compactions").inc();
          try {
            compact_wal();
          } catch (const Error& e) {
            LOG_ERROR("budget compaction failed: " << e.what());
          }
          const std::uint64_t after = vfs::dir_bytes(config_.wal_dir);
          if (after > config_.wal_dir_budget_bytes) {
            LOG_WARN("wal dir still over budget after compaction ("
                     << after << " > " << config_.wal_dir_budget_bytes
                     << " bytes)");
          }
        }
      }
    }
    std::this_thread::sleep_for(std::chrono::duration<double>(config_.tick_interval_s));
  }
}

std::uint64_t Server::epoch() {
  std::lock_guard lock(core_mutex_);
  return core_.epoch();
}

void Server::drain() {
  draining_.store(true);
  progress_cv_.notify_all();
}

void Server::compact_wal() {
  std::lock_guard lock(core_mutex_);
  if (!wal_) return;
  ByteWriter w;
  core_.snapshot_exact(w);
  auto snap = w.take();
  wal_->compact(snap, now());
  last_compact_lsn_ = wal_->next_lsn();
}

void Server::maybe_compact_locked(double t) {
  if (!wal_ || config_.wal_compact_every == 0) return;
  if (wal_->next_lsn() - last_compact_lsn_ < config_.wal_compact_every) return;
  ByteWriter w;
  core_.snapshot_exact(w);
  auto snap = w.take();
  wal_->compact(snap, t);
  last_compact_lsn_ = wal_->next_lsn();
}

void Server::log_record(WalRecord rec) {
  // While degraded the WAL is frozen (its segment failed; only compact()
  // rebuilds it) — records flow to the replica feeds only, numbered by
  // repl_lsn_, so a hot standby stays exact through the primary's bad-disk
  // window.
  const bool degraded = static_cast<Durability>(durability_.load()) ==
                        Durability::kDegraded;
  const bool use_wal = wal_ != nullptr && !degraded;
  if (!use_wal && feeds_.empty()) return;
  rec.lsn = use_wal ? wal_->next_lsn() : repl_lsn_;
  bool append_failed = false;
  if (use_wal) {
    try {
      wal_->append(rec);
    } catch (const Error& e) {
      // The record still goes out on the feeds below — the standby's
      // shadow core must apply everything the primary's live core applied,
      // or post-degrade records would hit a diverged shadow — and only
      // then do we degrade (whose own kEpoch record is feeds-only).
      LOG_ERROR("wal append failed: " << e.what());
      append_failed = true;
    }
  }
  repl_lsn_ = rec.lsn + 1;
  if (!feeds_.empty()) {
    auto bytes = encode_wal_record(rec);
    for (const auto& feed : feeds_) feed->push(bytes);
  }
  if (append_failed) degrade_locked("wal_append", rec.now);
}

void Server::enter_new_term(const char* reason, double t) {
  std::uint64_t next = core_.epoch() + 1;
  core_.bump_epoch(next);
  WalRecord rec;
  rec.op = WalOp::kEpoch;
  rec.now = t;
  rec.arg = next;
  log_record(std::move(rec));
  // Every active client row belongs to the previous term — its connection
  // died with the old server. Sweeping them requeues their leases now
  // instead of waiting out the lease timeout; reconnecting donors re-Hello
  // and get fresh ids.
  for (const auto& c : core_.all_client_stats()) {
    if (!c.active) continue;
    core_.client_left(c.id, t);
    WalRecord left;
    left.op = WalOp::kClientLeft;
    left.now = t;
    left.arg = c.id;
    log_record(std::move(left));
  }
  if (wal_ && !wal_->failed()) {
    try {
      wal_->sync();
    } catch (const Error& e) {
      LOG_ERROR("wal sync failed entering new term: " << e.what());
      degrade_locked("wal_sync", t);
    }
  }
  LOG_INFO("entered epoch " << core_.epoch() << " (" << reason << ")");
}

void Server::degrade_locked(const char* reason, double t) {
  const auto current = static_cast<Durability>(durability_.load());
  if (current != Durability::kDurable) return;
  durability_.store(static_cast<int>(Durability::kDegraded));
  auto& reg = obs::Registry::global();
  reg.gauge("server.durability").set(static_cast<double>(durability_.load()));
  reg.counter("server.durability_degradations").inc();
  // The feeds take over the lsn sequence exactly where the WAL stopped.
  if (wal_) repl_lsn_ = std::max(repl_lsn_, wal_->next_lsn());
  // Fence the degraded window: +2, not +1, so a crash-while-degraded
  // restart (replay durable state, then enter_new_term's +1) lands on a
  // DIFFERENT epoch than this one — nothing issued or accepted while
  // non-durable can ever be merged into the revived durable core.
  const std::uint64_t next = core_.epoch() + 2;
  core_.bump_epoch(next);
  WalRecord rec;
  rec.op = WalOp::kEpoch;
  rec.now = t;
  rec.arg = next;
  log_record(std::move(rec));  // feeds-only: durability_ is already degraded
  if (config_.tracer) {
    config_.tracer->event(t, "durability_degraded")
        .str("reason", reason)
        .u64("epoch", next);
  }
  if (config_.durability_mode == DurabilityMode::kFailStop) {
    storage_failed_.store(true);
    draining_.store(true);
    LOG_ERROR("durability lost (" << reason << "): fail-stop — draining, "
              << "epoch " << next);
  } else {
    LOG_ERROR("durability degraded (" << reason << "): continuing non-durable "
              << "at epoch " << next << "; re-arm every "
              << config_.rearm_retry_s << "s");
  }
  progress_cv_.notify_all();
}

bool Server::try_rearm() {
  std::lock_guard lock(core_mutex_);
  if (static_cast<Durability>(durability_.load()) != Durability::kDegraded) {
    return true;
  }
  const double t = now();
  try {
    if (wal_) {
      // Rebuild: fresh base snapshot at the feeds' lsn, fresh segment. A
      // still-broken disk throws out of the checkpoint write and we stay
      // degraded for the next retry.
      ByteWriter w;
      core_.snapshot_exact(w);
      auto snap = w.take();
      wal_->reset(snap, repl_lsn_, t);
      wal_->sync();
      last_compact_lsn_ = wal_->next_lsn();
    } else {
      ByteWriter w;
      core_.checkpoint(w);
      auto blob = w.take();
      write_checkpoint_file(config_.checkpoint_path, blob);
      record_checkpoint_saved(config_.tracer, t, blob.size(),
                              core_.problem_count(), core_.in_flight_units());
    }
  } catch (const Error& e) {
    LOG_WARN("durability re-arm failed: " << e.what());
    return false;
  }
  durability_.store(static_cast<int>(Durability::kDurable));
  auto& reg = obs::Registry::global();
  reg.gauge("server.durability").set(static_cast<double>(durability_.load()));
  reg.counter("server.durability_restores").inc();
  if (config_.tracer) {
    config_.tracer->event(t, "durability_restored").u64("epoch", core_.epoch());
  }
  LOG_INFO("durability restored (epoch " << core_.epoch() << ")");
  return true;
}

Server::HandlerOutcome Server::handle_request(const std::shared_ptr<Conn>& c,
                                              const net::Message& request) {
  HandlerOutcome out;
  // Retryable NACK: v7+ donors get a structured RetryLater (they back off
  // and keep their buffered state); older donors get an error frame and
  // ride their existing reconnect/backoff paths.
  auto retry_or_error = [this](const net::Message& req, const char* reason) {
    obs::Registry::global().counter("server.retry_laters").inc();
    if (req.version >= 7) {
      RetryLaterPayload p;
      p.retry_after_s = config_.retry_later_s;
      p.reason = reason;
      return encode_retry_later(p, req.correlation);
    }
    return net::make_error(req.correlation,
                           std::string("retry later: ") + reason);
  };
  net::Message response;
  bool have_response = true;
  bool send_bulk = false;
  std::vector<std::byte> bulk;
  // FetchBlobs bodies: shared_ptrs collected under the core lock, encoded
  // (and compressed) after the response frame without holding it.
  std::vector<std::pair<std::uint64_t,
                        std::shared_ptr<const std::vector<std::byte>>>>
      blob_bodies;
  ClientId blob_client = 0;
  std::size_t inflight_charged = 0;
  ClientId client_id = 0;  // Hello-assigned, mirrored into the outcome
  Stopwatch handle_timer;

  try {
      if (standby_.load() && request.type != net::MessageType::kFetchStats) {
        // An unpromoted standby serves monitoring but no work: donors see
        // an error, drop the session, and fail over to the next endpoint
        // in their --servers list.
        response = net::make_error(request.correlation, "standby: not serving");
      } else if (draining_.load() &&
                 (request.type == net::MessageType::kRequestWork ||
                  request.type == net::MessageType::kHeartbeat)) {
        // Graceful shutdown: in-flight submissions still land, but no new
        // work goes out and polling donors are told to disconnect.
        response.type = net::MessageType::kShutdown;
        response.correlation = request.correlation;
      } else if (storage_failed_.load() &&
                 (request.type == net::MessageType::kHello ||
                  request.type == net::MessageType::kSubmitResult)) {
        // Fail-stop after a storage fault: no new sessions, and results
        // are NACKed rather than accepted-but-lost — the donor keeps its
        // buffered copy for the restarted server. (FetchStats stays up so
        // operators can see why; RequestWork/Heartbeat already get
        // kShutdown from the draining guard above.)
        response = retry_or_error(request, "fail_stop");
      } else switch (request.type) {
        case net::MessageType::kHello: {
          auto hello = decode_hello(request);
          std::lock_guard lock(core_mutex_);
          double t = now();
          if (config_.max_clients > 0 &&
              core_.active_client_count() >= config_.max_clients) {
            // Shed before joining: the donor never becomes scheduler state,
            // so no lease/eviction bookkeeping is spent on it.
            obs::Registry::global().counter("server.clients_shed").inc();
            if (config_.tracer) {
              config_.tracer->event(t, "retry_later")
                  .str("reason", "max_clients")
                  .str("name", hello.client_name);
            }
            response = retry_or_error(request, "max_clients");
            break;
          }
          client_id = core_.client_joined(hello.client_name,
                                          hello.benchmark_ops_per_sec, t);
          WalRecord rec;
          rec.op = WalOp::kClientJoined;
          rec.now = t;
          rec.arg = client_id;
          rec.name = hello.client_name;
          rec.benchmark = hello.benchmark_ops_per_sec;
          log_record(std::move(rec));
          HelloAckPayload ack;
          ack.client_id = client_id;
          ack.heartbeat_interval_s = config_.heartbeat_interval_s;
          response = encode_hello_ack(ack, request.correlation);
          break;
        }
        case net::MessageType::kRequestWork: {
          ClientId id = decode_request_work(request);
          std::lock_guard lock(core_mutex_);
          double t = now();
          auto unit = core_.request_work(id, t);
          {
            // Logged even when nothing was issued: an unserved request
            // still mutates stats and policy state, and replay must walk
            // the exact same path (an InputError above skips the log, the
            // same way it skips the core mutation).
            WalRecord rec;
            rec.op = WalOp::kRequestWork;
            rec.now = t;
            rec.arg = id;
            log_record(std::move(rec));
          }
          if (unit) {
            if (request.version >= 4) {
              response = encode_work_assignment(*unit, request.correlation,
                                                request.version);
            } else {
              // Legacy donor: inline each referenced blob by appending its
              // bytes to the payload, in blob order — applications lay
              // their payloads out so this flattened form decodes with the
              // pre-v4 logic.
              WorkUnit flat = *unit;
              for (const WorkBlob& blob : flat.blobs) {
                auto bytes = core_.blob_bytes(blob.digest);
                if (bytes) {
                  flat.payload.insert(flat.payload.end(), bytes->begin(),
                                      bytes->end());
                }
              }
              flat.blobs.clear();
              response =
                  encode_work_assignment(flat, request.correlation, 3);
            }
          } else {
            NoWorkPayload p;
            p.retry_after_s = config_.no_work_retry_s;
            p.all_problems_complete = core_.all_complete();
            response = encode_no_work(p, request.correlation);
          }
          break;
        }
        case net::MessageType::kSubmitResult: {
          auto [id, result] = decode_submit_result(request);
          ResultAckPayload ack;
          {
            std::lock_guard lock(core_mutex_);
            double t = now();
            ack.accepted = core_.submit_result(id, result, t);
            WalRecord rec;
            rec.op = WalOp::kSubmitResult;
            rec.now = t;
            rec.arg = id;
            rec.result = result;
            log_record(std::move(rec));
            // The accepted result must be durable before the donor learns
            // it was accepted — the ack is what lets it drop its buffered
            // copy, so after this fsync a kill -9 loses nothing. Once
            // degraded there is nothing left to fsync; kContinue acks
            // anyway (accepted-but-non-durable, epoch already fenced),
            // kFailStop NACKs below so the donor keeps its copy.
            if (wal_ && ack.accepted &&
                static_cast<Durability>(durability_.load()) ==
                    Durability::kDurable) {
              try {
                wal_->sync();
              } catch (const Error& e) {
                LOG_ERROR("wal sync failed: " << e.what());
                degrade_locked("wal_sync", t);
              }
            }
          }
          progress_cv_.notify_all();
          if (storage_failed_.load()) {
            response = retry_or_error(request, "fail_stop");
          } else {
            response = encode_result_ack(ack, request.correlation);
          }
          break;
        }
        case net::MessageType::kFetchProblemData: {
          auto fetch = decode_fetch_problem_data(request);
          ProblemDataHeaderPayload header;
          header.problem_id = fetch.problem_id;
          {
            std::lock_guard lock(core_mutex_);
            const DataManager& dm = core_.data_manager(fetch.problem_id);
            header.algorithm_name = dm.algorithm_name();
            header.data_bytes = core_.problem_data_bytes(fetch.problem_id);
            header.data_digest = core_.problem_data_digest(fetch.problem_id);
            if (request.version < 4) {
              // v3: the data itself follows on the bulk channel. v4 donors
              // instead resolve data_digest through their cache/FetchBlobs.
              bulk = *core_.blob_bytes(header.data_digest);
              send_bulk = true;
            }
          }
          response = encode_problem_data_header(header, request.correlation,
                                                request.version);
          break;
        }
        case net::MessageType::kFetchBlobs: {
          auto fetch = decode_fetch_blobs(request);
          BlobDataPayload reply;
          {
            std::lock_guard lock(core_mutex_);
            for (std::uint64_t digest : fetch.digests) {
              auto bytes = core_.blob_bytes(digest);
              bool ok = bytes && bytes->size() <= config_.max_blob_bytes;
              reply.blobs.push_back({digest, ok});
              if (ok) blob_bodies.emplace_back(digest, std::move(bytes));
            }
          }
          blob_client = fetch.client_id;
          // Global in-flight budget: bodies sit in memory from here until
          // the socket writes below finish, so a burst of cold donors can
          // multiply resident bytes. Over budget -> shed the whole fetch
          // (the donor retries; partial replies would poison its cache
          // accounting).
          if (config_.blob_inflight_budget_bytes > 0 && !blob_bodies.empty()) {
            std::size_t total = 0;
            for (const auto& [digest, bytes] : blob_bodies) {
              total += bytes->size();
            }
            if (blob_inflight_bytes_.load() + total >
                config_.blob_inflight_budget_bytes) {
              blob_bodies.clear();
              obs::Registry::global().counter("server.blob_fetches_shed").inc();
              if (config_.tracer) {
                config_.tracer->event(now(), "retry_later")
                    .str("reason", "blob_budget")
                    .str("name", "client:" + std::to_string(fetch.client_id));
              }
              response = retry_or_error(request, "blob_budget");
              break;
            }
            blob_inflight_bytes_.fetch_add(total);
            inflight_charged = total;
          }
          response = encode_blob_data(reply, request.correlation);
          break;
        }
        case net::MessageType::kHeartbeat: {
          ClientId id = decode_heartbeat(request);
          {
            std::lock_guard lock(core_mutex_);
            double t = now();
            core_.heartbeat(id, t);
            WalRecord rec;
            rec.op = WalOp::kHeartbeat;
            rec.now = t;
            rec.arg = id;
            log_record(std::move(rec));
          }
          response.type = net::MessageType::kHeartbeatAck;
          response.correlation = request.correlation;
          break;
        }
        case net::MessageType::kFetchStats: {
          auto fetch = decode_fetch_stats(request);
          StatsSnapshotPayload snap;
          snap.json = stats_json(fetch.include_clients);
          response = encode_stats_snapshot(snap, request.correlation);
          break;
        }
        case net::MessageType::kGoodbye: {
          ClientId id = decode_goodbye(request);
          {
            std::lock_guard lock(core_mutex_);
            double t = now();
            core_.client_left(id, t);
            WalRecord rec;
            rec.op = WalOp::kClientLeft;
            rec.now = t;
            rec.arg = id;
            log_record(std::move(rec));
          }
          progress_cv_.notify_all();
          // Client is gone: no response, drop the conn's id (the departure
          // is already recorded) and close once the queue drains.
          have_response = false;
          out.clear_client = true;
          out.close = true;
          break;
        }
        case net::MessageType::kReplicaHello: {
          // The connection becomes a replication session: the loop detaches
          // it onto a dedicated blocking thread (serve_replica cleans up
          // its own feed registration).
          out.replica = true;
          out.request = request;
          return out;
        }
        default:
          response = net::make_error(request.correlation,
                                     std::string("unexpected message type: ") +
                                         net::to_string(request.type));
          break;
      }
  } catch (const Error& e) {
    // A bad request (unknown problem, expired client, malformed payload)
    // must not kill the connection: report it to the peer.
    LOG_WARN("request failed (client "
             << (client_id ? client_id : c->client_id.load())
             << "): " << e.what());
    response = net::make_error(request.correlation, e.what());
  }

  if (obs::Histogram* h = handler_histogram(request.type)) {
    h->observe(handle_timer.seconds());
  }
  out.became_client = client_id;
  out.inflight_charged = inflight_charged;
  if (have_response) {
    // Answer at the requester's protocol version: a v3 donor must never
    // see a v4 frame. Frames and bulk bodies are encoded here, on the
    // worker — the loop thread only moves bytes.
    response.version = request.version;
    out.chunks.push_back(net::encode_frame(response));
    if (send_bulk) out.chunks.push_back(net::encode_blob(bulk));
    for (const auto& [digest, bytes] : blob_bodies) {
      auto enc = net::encode_blob_v4(*bytes);
      auto& bm = net::bulk_plane_metrics();
      bm.blobs_sent.inc();
      bm.bytes_raw.inc(enc.info.raw_bytes);
      bm.bytes_wire.inc(enc.info.wire_bytes);
      if (config_.tracer) {
        config_.tracer->event(now(), "blob_sent")
            .u64("client", blob_client)
            .u64("digest", digest)
            .u64("raw", enc.info.raw_bytes)
            .u64("wire", enc.info.wire_bytes)
            .boolean("compressed", enc.info.compressed);
      }
      out.chunks.push_back(std::move(enc.bytes));
    }
  }
  return out;
}

void Server::serve_replica(net::TcpStream& stream, const net::Message& request) {
  auto feed = std::make_shared<ReplicaFeed>();
  std::string standby_name = "?";
  try {
    auto hello = decode_replica_hello(request);
    standby_name = hello.standby_name;
    ReplicaSnapshotPayload header;
    std::vector<std::byte> snapshot;
    {
      std::lock_guard lock(core_mutex_);
      ByteWriter w;
      core_.snapshot_exact(w);
      snapshot = w.take();
      header.epoch = core_.epoch();
      // A failed WAL no longer tracks the stream position; repl_lsn_ does.
      header.start_lsn = (wal_ && !wal_->failed()) ? wal_->next_lsn() : repl_lsn_;
      // Registered under the same lock that serialises mutations: every
      // record logged after this point reaches the queue, so snapshot +
      // stream covers the state with no gap.
      feeds_.push_back(feed);
    }
    header.snapshot_bytes = snapshot.size();
    net::Message resp = encode_replica_snapshot(header, request.correlation);
    resp.version = request.version;
    net::write_message(stream, resp);
    net::send_blob_v4(stream, snapshot);
    obs::Registry::global().counter("server.replica_syncs").inc();
    if (config_.tracer) {
      config_.tracer->event(now(), "replica_attached")
          .str("name", standby_name)
          .u64("epoch", header.epoch)
          .u64("lsn", header.start_lsn)
          .u64("snapshot_bytes", snapshot.size());
    }
    LOG_INFO("standby '" << standby_name << "' attached (epoch " << header.epoch
                         << ", lsn " << header.start_lsn << ", "
                         << snapshot.size() << " snapshot bytes)");
    std::uint64_t correlation = 1;
    while (running_.load()) {
      WalAppendPayload batch;
      bool overflow = false;
      {
        std::unique_lock fl(feed->m);
        feed->cv.wait_for(fl, std::chrono::milliseconds(200),
                          [&] { return !feed->q.empty() || feed->overflow; });
        overflow = feed->overflow;
        std::size_t n = std::min<std::size_t>(feed->q.size(), 512);
        for (std::size_t i = 0; i < n; ++i) {
          batch.records.push_back(std::move(feed->q.front()));
          feed->q.pop_front();
        }
      }
      if (overflow) {
        throw ProtocolError("standby fell behind the record stream");
      }
      // An empty wake is fine: Tick records arrive every tick interval, so
      // a healthy stream is never silent for long.
      if (batch.records.empty()) continue;
      net::Message m = encode_wal_append(batch, correlation++);
      m.version = request.version;
      net::write_message(stream, m);
      // Wait for the ack so a dead/wedged standby is noticed and its queue
      // stops growing (the poll keeps stop() responsive).
      while (running_.load() && !stream.readable(200)) {}
      if (!running_.load()) break;
      net::Message ack = net::read_message(stream);
      if (ack.type != net::MessageType::kResultAck) {
        throw ProtocolError(std::string("standby sent unexpected ") +
                            net::to_string(ack.type));
      }
    }
  } catch (const net::ConnectionClosed&) {
    LOG_INFO("standby '" << standby_name << "' disconnected");
  } catch (const Error& e) {
    LOG_WARN("replication to standby '" << standby_name
                                        << "' failed: " << e.what());
  }
  std::lock_guard lock(core_mutex_);
  std::erase(feeds_, feed);
}

void Server::replica_loop() {
  using clock = std::chrono::steady_clock;
  auto last_contact = clock::now();
  auto silent_s = [&] {
    return std::chrono::duration<double>(clock::now() - last_contact).count();
  };
  while (running_.load() && standby_.load()) {
    try {
      auto stream =
          net::TcpStream::connect(config_.primary_host, config_.primary_port);
      ReplicaHelloPayload hello;
      hello.standby_name = config_.standby_name;
      net::write_message(stream, encode_replica_hello(hello, 1));
      while (running_.load() && !stream.readable(200)) {}
      if (!running_.load()) return;
      net::Message resp = net::read_message(stream);
      auto header = decode_replica_snapshot(resp);
      auto snapshot = net::recv_blob_v4(
          stream, static_cast<std::size_t>(header.snapshot_bytes) + 1024);
      {
        std::lock_guard lock(core_mutex_);
        ByteReader r(snapshot);
        core_.restore_exact(r);
        r.expect_end();
        repl_lsn_ = header.start_lsn;
        if (wal_) {
          wal_->reset(snapshot, header.start_lsn, now());
          wal_->sync();
          last_compact_lsn_ = header.start_lsn;
        }
      }
      standby_synced_.store(true);
      last_contact = clock::now();
      progress_cv_.notify_all();
      obs::Registry::global().gauge("server.standby_synced").set(1);
      if (config_.tracer) {
        config_.tracer->event(now(), "standby_synced")
            .u64("epoch", header.epoch)
            .u64("lsn", header.start_lsn)
            .u64("snapshot_bytes", snapshot.size());
      }
      LOG_INFO("standby synced from " << config_.primary_host << ":"
               << config_.primary_port << " (epoch " << header.epoch
               << ", lsn " << header.start_lsn << ")");
      // Tail the live stream. The primary's Tick records double as
      // keepalives, so silence beyond the failover timeout means it died.
      while (running_.load() && standby_.load()) {
        if (!stream.readable(200)) {
          if (silent_s() >= config_.failover_timeout_s) {
            promote("primary stream silent");
            return;
          }
          continue;
        }
        net::Message m = net::read_message(stream);
        if (m.type != net::MessageType::kWalAppend) {
          throw ProtocolError(std::string("primary sent unexpected ") +
                              net::to_string(m.type));
        }
        auto batch = decode_wal_append(m);
        {
          std::lock_guard lock(core_mutex_);
          for (const auto& bytes : batch.records) {
            WalRecord rec = decode_wal_record(bytes);
            if (wal_) wal_->append(rec);  // primary's lsn, kept verbatim
            repl_lsn_ = rec.lsn + 1;
            apply_wal_record(core_, rec);
          }
          if (wal_) wal_->sync();
        }
        progress_cv_.notify_all();
        ResultAckPayload ack;
        ack.accepted = true;
        net::Message am = encode_result_ack(ack, m.correlation);
        am.version = m.version;
        net::write_message(stream, am);
        last_contact = clock::now();
      }
      return;
    } catch (const Error& e) {
      if (!running_.load() || !standby_.load()) return;
      if (standby_synced_.load() && silent_s() >= config_.failover_timeout_s) {
        promote("primary unreachable");
        return;
      }
      // Not synced yet (or the primary only just vanished): keep trying.
      std::this_thread::sleep_for(std::chrono::milliseconds(100));
    }
  }
}

void Server::promote(const char* reason) {
  double t;
  std::uint64_t new_epoch;
  {
    std::lock_guard lock(core_mutex_);
    t = now();
    enter_new_term(reason, t);
    new_epoch = core_.epoch();
    standby_.store(false);
  }
  obs::Registry::global().counter("server.failovers").inc();
  if (config_.tracer) {
    config_.tracer->event(t, "failover_promoted")
        .u64("epoch", new_epoch)
        .str("reason", reason);
  }
  LOG_INFO("standby promoted to primary (epoch " << new_epoch
                                                 << "): " << reason);
  progress_cv_.notify_all();
}

}  // namespace hdcs::dist
