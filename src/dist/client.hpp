#pragma once
// Donor client: the process that runs on spare machines.
//
// Connects to the server, reports a self-measured benchmark score (so the
// scheduler can size the first unit before any EWMA data exists), then
// loops: request work -> (fetch problem data once per problem) -> run the
// registered Algorithm -> submit the result. Designed to run "as a low
// priority background service" (paper §3); priority is the deployer's
// concern (nice/SCHED_IDLE), not this class's.
//
// Session resilience: any transport or framing failure — initial connect,
// a mid-loop read/write, a corrupt frame, the server restarting — is
// retried on a fresh connection with capped exponential backoff + jitter
// instead of killing the donor. The new session re-Hellos (new client id),
// and a computed-but-unsubmitted result is buffered across the reconnect
// and resubmitted so the unit is never recomputed. Heartbeats ride their
// own connection with the same reconnect policy.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "dist/registry.hpp"
#include "dist/wire.hpp"
#include "net/blob_cache.hpp"
#include "net/bulk.hpp"
#include "net/socket.hpp"
#include "obs/span_profile.hpp"
#include "util/rng.hpp"

namespace hdcs::obs {
class Tracer;
}

namespace hdcs::dist {

struct ServerEndpoint {
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;
};

struct ClientConfig {
  std::string server_host = "127.0.0.1";
  std::uint16_t server_port = 0;
  /// Ordered failover list (v6 hot-standby deployments): non-empty
  /// supersedes server_host/server_port. The donor sticks with the
  /// endpoint that last answered and rotates to the next on a failed
  /// connect or handshake — an unpromoted standby rejects Hello with an
  /// error, so donors naturally skip past it until it promotes.
  std::vector<ServerEndpoint> servers;
  std::string name = "donor";
  /// Stop when the server reports all problems complete (used by tests and
  /// examples; a real deployment would keep waiting for new problems).
  bool exit_when_idle = true;
  /// Max consecutive "no work" responses before exiting when exit_when_idle.
  int max_idle_polls = 10000;
  /// Artificial throttle multiplier for heterogeneity experiments on one
  /// box: sleep (throttle-1)x the compute time of each unit. 0/1 = off.
  double throttle = 1.0;
  /// Fault injection: crash (vanish without submitting or saying Goodbye)
  /// right after computing the Nth unit. -1 = never.
  int crash_after_units = -1;
  /// Compute fault injection (test-only): corrupt this fraction of result
  /// payloads before submitting, modelling flaky RAM or a hostile donor.
  /// The corrupted payload gets a *matching* digest — a lying donor is
  /// self-consistent, so only replication voting can catch it. Draws are
  /// deterministic per (corrupt_seed, donor name, unit id). 0 = off.
  double corrupt_rate = 0.0;
  std::uint64_t corrupt_seed = 0;
  /// Send heartbeats on a second connection so long computations don't
  /// trip the server's client timeout. Interval comes from the HelloAck;
  /// set false to emulate a heartbeat-less legacy client in tests.
  bool send_heartbeats = true;
  /// Worker threads used *inside* each unit (Algorithm::set_parallelism):
  /// a multi-core donor splits a unit's independent pieces (e.g. DSEARCH
  /// database blocks) across threads with a deterministic merge, so the
  /// submitted payload is byte-identical to single-threaded execution.
  /// Contrast run_pool(), which runs whole independent donors per CPU.
  std::size_t exec_threads = 1;
  /// Consecutive failed connect+Hello attempts before the donor gives up
  /// (run() throws IoError). 1 = fail fast (the pre-reconnect behaviour);
  /// <= 0 = retry forever (service mode).
  int max_connect_attempts = 8;
  /// Reconnect backoff: delay starts at backoff_initial_s, doubles per
  /// consecutive failure up to backoff_max_s, and each wait is scaled by a
  /// deterministic (per-name) jitter in [1-backoff_jitter, 1+backoff_jitter]
  /// so a donor herd doesn't stampede a restarted server.
  double backoff_initial_s = 0.05;
  double backoff_max_s = 2.0;
  double backoff_jitter = 0.25;
  /// The backoff escalation persists across sessions — a donor that
  /// reconnects and immediately loses the server again must not restart
  /// from the short initial delay. Only a demonstrably healthy session
  /// resets it: this many consecutive heartbeat acks. <= 0 disables the
  /// reset (escalation then persists for the donor's lifetime).
  int backoff_reset_beats = 3;
  /// Protocol version this donor speaks. 3 emulates a legacy donor from
  /// before the content-addressed data plane (the server flattens blob
  /// references back into the payload for it); 4 (the default) negotiates
  /// HAVE/NEED blob transfers through the cache below.
  int protocol_version = net::kProtocolVersion;
  /// Largest single blob this donor will accept on the bulk channel; a
  /// corrupt length header can cost at most this much allocation.
  std::size_t max_blob_bytes = net::kDefaultMaxBlobBytes;
  /// v4 blob cache: LRU memory-tier budget, plus an optional disk tier
  /// (empty dir = memory only) that survives donor restarts.
  std::size_t blob_cache_bytes = 64ull * 1024 * 1024;
  std::string blob_cache_dir;
  std::size_t blob_cache_disk_bytes = 256ull * 1024 * 1024;
  /// Optional structured event trace (blob_cache_hit events, stamped with
  /// wall seconds since this client was constructed). Not owned.
  obs::Tracer* tracer = nullptr;
  const AlgorithmRegistry* registry = &AlgorithmRegistry::global();
};

/// Reconnect backoff that survives sessions. Each failed attempt escalates
/// the delay (x2, capped); merely reconnecting does NOT reset it — the
/// session must prove healthy (`reset_beats` consecutive heartbeat acks)
/// first, so a donor flapping against a sick server keeps paying the long
/// delays instead of hammering it, while one that survived a single blip
/// soon earns the short initial delay back. Thread-safe: the work loop
/// calls next_delay(), the heartbeat thread calls heartbeat_ok() /
/// session_lost().
class ReconnectBackoff {
 public:
  ReconnectBackoff(double initial_s, double max_s, int reset_beats)
      : initial_s_(initial_s), max_s_(max_s), reset_beats_(reset_beats) {}

  /// Delay to wait before the next reconnect attempt (escalates per call).
  double next_delay() {
    std::lock_guard lock(m_);
    delay_ = (delay_ <= 0) ? initial_s_ : std::min(delay_ * 2.0, max_s_);
    return delay_;
  }

  /// A heartbeat ack landed. Returns true when the streak just reset the
  /// escalation back to the initial delay.
  bool heartbeat_ok() {
    std::lock_guard lock(m_);
    beats_ += 1;
    if (reset_beats_ > 0 && beats_ >= reset_beats_ && delay_ > 0) {
      delay_ = 0;
      beats_ = 0;
      return true;
    }
    return false;
  }

  /// The session died: the ack streak restarts (escalation is kept).
  void session_lost() {
    std::lock_guard lock(m_);
    beats_ = 0;
  }

  /// Last delay handed out; 0 = fully reset (next attempt waits initial).
  [[nodiscard]] double current_delay() const {
    std::lock_guard lock(m_);
    return delay_;
  }

 private:
  mutable std::mutex m_;
  double initial_s_;
  double max_s_;
  int reset_beats_;
  double delay_ = 0;
  int beats_ = 0;
};

struct ClientRunStats {
  std::uint64_t units_processed = 0;
  std::uint64_t idle_polls = 0;
  /// Sessions re-established after a transport failure (initial connect
  /// retries don't count until the first session exists).
  std::uint64_t reconnects = 0;
  /// Buffered results that had to be submitted on a later session.
  std::uint64_t results_resubmitted = 0;
  /// RetryLater NACKs honoured (v7 overload/fail-stop shedding): the donor
  /// waited retry_after_s and retried instead of dropping state.
  std::uint64_t retry_laters = 0;
  double compute_seconds = 0;
};

class Client {
 public:
  explicit Client(ClientConfig config);

  /// Run the donor loop to completion (connects, works, says goodbye).
  /// Throws IoError if the server is unreachable.
  ClientRunStats run();

  /// Ask a running client (from another thread) to stop after the current
  /// unit. The client sends Goodbye so its lease is requeued immediately.
  void request_stop() { stop_.store(true); }

  /// Ask a running client to die abruptly (no Goodbye) — fault injection
  /// for lease-expiry tests.
  void request_crash() { crash_.store(true); }

  /// Synthetic CPU benchmark in abstract ops/sec (public for tests).
  static double measure_benchmark();

  /// Run `count` donor clients concurrently — one per CPU of a multi-core
  /// donor (the paper's dual-PIII cluster nodes contributed both CPUs).
  /// Each client gets the base name suffixed "-cpuN" and its own
  /// connections. Blocks until all are done.
  static std::vector<ClientRunStats> run_pool(const ClientConfig& base,
                                              int count);

 private:
  struct ProblemContext {
    std::unique_ptr<Algorithm> algorithm;
  };

  ProblemContext& context_for(net::TcpStream& stream, ProblemId id);

  /// Stamp the configured protocol version on `m` and send it — every
  /// frame a donor writes carries its version so the server can answer in
  /// kind.
  void send_message(net::TcpStream& stream, net::Message m);

  /// Resolve every blob the unit references: cache hits fill in the bytes
  /// locally, misses are batched into one FetchBlobs round-trip. Returns
  /// false when the server no longer holds a referenced blob (the unit
  /// completed via a replica while our request was in flight) — the caller
  /// drops the unit and asks for fresh work. Present bodies are always
  /// drained off the stream (and cached) even on a partial miss, so the
  /// connection stays in sync.
  bool ensure_blobs(net::TcpStream& stream, WorkUnit& unit);

  /// Send a FetchBlobs request and read its reply, riding RetryLater NACKs
  /// (blob-budget shedding): wait retry_after_s and resend on the same
  /// connection. Throws IoError if stop/crash interrupts the wait.
  net::Message fetch_blobs_round(net::TcpStream& stream,
                                 const FetchBlobsPayload& need);

  /// Record an honoured RetryLater NACK (stats + counter + log).
  void note_retry_later(const RetryLaterPayload& nack);

  /// Single-digest variant used for problem data (v4). nullopt = gone.
  std::optional<std::vector<std::byte>> resolve_blob(net::TcpStream& stream,
                                                     std::uint64_t digest);

  /// Wall seconds since construction — the clock blob trace events use.
  double now() const;

  /// Connect + Hello with exponential backoff. On success `stream` holds
  /// the new session and my_id_ is updated. Returns false if stop/crash
  /// was requested while waiting; rethrows the last transport error once
  /// max_connect_attempts consecutive failures accumulate.
  bool connect_session(net::TcpStream& stream, double benchmark);
  /// Re-register on an existing connection (server restarted or expired
  /// our id): send Hello, adopt the newly assigned client id.
  void rehello(net::TcpStream& stream, double benchmark);
  /// Sleep ~delay seconds in small slices; false if stop/crash interrupted.
  bool backoff_wait(double delay);

  /// The endpoint the next connect will try (work + heartbeat connections
  /// follow the same cursor so both roll over together).
  const ServerEndpoint& endpoint() const {
    return endpoints_[endpoint_.load() % endpoints_.size()];
  }
  void rotate_endpoint() {
    if (endpoints_.size() > 1) endpoint_.fetch_add(1);
  }

  ClientConfig config_;
  std::vector<ServerEndpoint> endpoints_;
  std::atomic<std::size_t> endpoint_{0};
  ReconnectBackoff backoff_;
  net::BlobCache blob_cache_;
  /// Receive buffer for compressed blob bodies, reused across units.
  std::vector<std::byte> blob_wire_;
  /// Span profile of the unit currently being processed. Reset when an
  /// assignment is decoded; context_for/ensure_blobs/resolve_blob
  /// accumulate blob-fetch and decompress spans into it; attached to the
  /// outgoing ResultUnit when the donor speaks protocol >= 5.
  obs::UnitProfile profile_;
  std::chrono::steady_clock::time_point epoch_;
  std::map<ProblemId, ProblemContext> contexts_;
  std::atomic<bool> stop_{false};
  std::atomic<bool> crash_{false};
  std::atomic<ClientId> my_id_{0};  // heartbeat thread reads across re-Hellos
  double heartbeat_interval_ = 0;   // from the first HelloAck
  Rng backoff_rng_;
  std::uint64_t next_correlation_ = 1;
  std::uint64_t retry_laters_ = 0;  // work-loop thread only
};

}  // namespace hdcs::dist
