#include "dist/client.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <thread>

#include "net/bulk.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/logging.hpp"
#include "util/simd.hpp"
#include "util/stopwatch.hpp"

namespace hdcs::dist {

namespace {
/// FNV-1a of the donor name: a deterministic per-donor jitter seed, so a
/// herd of reconnecting donors spreads out without shared state.
std::uint64_t name_seed(const std::string& name) {
  std::uint64_t h = 1469598103934665603ull;
  for (char c : name) {
    h ^= static_cast<std::uint8_t>(c);
    h *= 1099511628211ull;
  }
  return h;
}
}  // namespace

Client::Client(ClientConfig config)
    : config_(std::move(config)),
      endpoints_(config_.servers.empty()
                     ? std::vector<ServerEndpoint>{{config_.server_host,
                                                    config_.server_port}}
                     : config_.servers),
      backoff_(config_.backoff_initial_s, config_.backoff_max_s,
               config_.backoff_reset_beats),
      blob_cache_(net::BlobCacheConfig{config_.blob_cache_bytes,
                                       config_.blob_cache_dir,
                                       config_.blob_cache_disk_bytes}),
      epoch_(std::chrono::steady_clock::now()),
      backoff_rng_(name_seed(config_.name)) {
  // 0=scalar 1=sse2 2=avx2 3=avx512 (util/simd.hpp): the kernel tier this
  // donor's compute threads will dispatch.
  obs::Registry::global().gauge("simd.tier")
      .set(static_cast<double>(static_cast<int>(simd_tier())));
}

double Client::now() const {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       epoch_)
      .count();
}

void Client::send_message(net::TcpStream& stream, net::Message m) {
  m.version = static_cast<std::uint16_t>(config_.protocol_version);
  net::write_message(stream, m);
}

double Client::measure_benchmark() {
  // A short fixed numeric loop; the returned "ops/sec" is the same abstract
  // currency DataManagers use for cost_ops, calibrated loosely (one "op" ~
  // one inner-loop iteration of a dynamic-programming cell update). Kept to
  // about a millisecond: every donor runs it on start-up, and it only sizes
  // the donor's first unit before measured throughput takes over.
  Stopwatch sw;
  volatile double acc = 0;
  constexpr std::uint64_t kIters = 200'000;
  for (std::uint64_t i = 0; i < kIters; ++i) {
    acc = acc + std::fma(1e-9, static_cast<double>(i & 0xff), 1e-12);
  }
  double secs = sw.seconds();
  if (secs <= 0) secs = 1e-6;
  return static_cast<double>(kIters) / secs;
}

std::vector<ClientRunStats> Client::run_pool(const ClientConfig& base,
                                             int count) {
  if (count < 1) throw InputError("run_pool: count must be >= 1");
  std::vector<ClientRunStats> stats(static_cast<std::size_t>(count));
  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(count));
  for (int i = 0; i < count; ++i) {
    threads.emplace_back([&base, &stats, i] {
      ClientConfig cfg = base;
      cfg.name = base.name + "-cpu" + std::to_string(i);
      try {
        stats[static_cast<std::size_t>(i)] = Client(cfg).run();
      } catch (const Error& e) {
        LOG_WARN("donor pool worker " << cfg.name << " failed: " << e.what());
      }
    });
  }
  for (auto& t : threads) t.join();
  return stats;
}

Client::ProblemContext& Client::context_for(net::TcpStream& stream, ProblemId id) {
  auto it = contexts_.find(id);
  if (it != contexts_.end()) return it->second;

  // First unit of this problem: download the bulk data and build the
  // Algorithm named by the DataManager. v3 streams the bytes right after
  // the header; v4 only names their digest, which we resolve through the
  // blob cache like any other blob — a donor that saw this problem before
  // a restart (disk cache) skips the download entirely.
  FetchProblemDataPayload fetch;
  fetch.problem_id = id;
  send_message(stream, encode_fetch_problem_data(fetch, next_correlation_++));
  auto header = decode_problem_data_header(net::read_message(stream));
  std::vector<std::byte> blob;
  if (config_.protocol_version >= 4) {
    auto resolved = resolve_blob(stream, header.data_digest);
    if (!resolved) {
      throw ProtocolError("server no longer holds problem data blob");
    }
    blob = std::move(*resolved);
  } else {
    blob = net::recv_blob(stream, config_.max_blob_bytes);
  }
  if (blob.size() != header.data_bytes) {
    throw ProtocolError("problem data size mismatch");
  }
  ProblemContext ctx;
  ctx.algorithm = config_.registry->create(header.algorithm_name);
  ctx.algorithm->initialize(blob);
  if (config_.exec_threads > 1) {
    ctx.algorithm->set_parallelism(config_.exec_threads);
  }
  LOG_INFO("problem " << id << ": fetched " << blob.size()
                      << " bytes, algorithm " << header.algorithm_name);
  return contexts_.emplace(id, std::move(ctx)).first->second;
}

void Client::note_retry_later(const RetryLaterPayload& nack) {
  retry_laters_ += 1;
  obs::Registry::global().counter("client.retry_laters").inc();
  LOG_DEBUG("client '" << config_.name << "' told to retry later ("
                       << nack.reason << ", " << nack.retry_after_s << "s)");
}

net::Message Client::fetch_blobs_round(net::TcpStream& stream,
                                       const FetchBlobsPayload& need) {
  for (;;) {
    send_message(stream, encode_fetch_blobs(need, next_correlation_++));
    net::Message reply = net::read_message(stream);
    if (reply.type != net::MessageType::kRetryLater) return reply;
    auto nack = decode_retry_later(reply);
    note_retry_later(nack);
    if (!backoff_wait(nack.retry_after_s)) {
      throw IoError("stopped while waiting to retry a blob fetch");
    }
  }
}

std::optional<std::vector<std::byte>> Client::resolve_blob(
    net::TcpStream& stream, std::uint64_t digest) {
  auto& bulk = net::bulk_plane_metrics();
  if (auto hit = blob_cache_.get(digest)) {
    bulk.blobs_cache_hit.inc();
    if (config_.tracer) {
      config_.tracer->event(now(), "blob_cache_hit")
          .u64("client", my_id_.load())
          .u64("digest", digest)
          .u64("size", hit->size());
    }
    return hit;
  }
  FetchBlobsPayload need;
  need.client_id = my_id_.load();
  need.digests.push_back(digest);
  auto reply = decode_blob_data(fetch_blobs_round(stream, need));
  if (reply.blobs.size() != 1 || reply.blobs[0].digest != digest) {
    throw ProtocolError("BlobData reply does not match the requested digest");
  }
  if (!reply.blobs[0].present) return std::nullopt;
  auto bytes =
      net::recv_blob_v4(stream, config_.max_blob_bytes, &profile_.decompress_s);
  if (net::blob_digest(bytes) != digest) {
    throw ProtocolError("fetched blob does not hash to its digest");
  }
  blob_cache_.put(digest, bytes);
  return bytes;
}

bool Client::ensure_blobs(net::TcpStream& stream, WorkUnit& unit) {
  if (unit.blobs.empty()) return true;
  auto& bulk = net::bulk_plane_metrics();
  std::vector<std::vector<std::byte>> resolved(unit.blobs.size());
  std::vector<std::size_t> missing;  // indices into unit.blobs
  for (std::size_t i = 0; i < unit.blobs.size(); ++i) {
    if (auto hit = blob_cache_.get(unit.blobs[i].digest)) {
      bulk.blobs_cache_hit.inc();
      if (config_.tracer) {
        config_.tracer->event(now(), "blob_cache_hit")
            .u64("client", my_id_.load())
            .u64("digest", unit.blobs[i].digest)
            .u64("size", hit->size());
      }
      resolved[i] = std::move(*hit);
    } else {
      missing.push_back(i);
    }
  }
  bool all_present = true;
  std::vector<std::size_t> fetched;  // indices into unit.blobs
  if (!missing.empty()) {
    FetchBlobsPayload need;
    need.client_id = my_id_.load();
    for (std::size_t i : missing) need.digests.push_back(unit.blobs[i].digest);
    auto reply = decode_blob_data(fetch_blobs_round(stream, need));
    if (reply.blobs.size() != missing.size()) {
      throw ProtocolError("BlobData reply count does not match the request");
    }
    // Drain every present body — even after discovering an absent blob —
    // so the stream stays framed; the side effect is that the bytes land
    // in the cache for the next unit that wants them.
    for (std::size_t k = 0; k < missing.size(); ++k) {
      std::uint64_t digest = unit.blobs[missing[k]].digest;
      if (reply.blobs[k].digest != digest) {
        throw ProtocolError("BlobData reply does not match the requested digest");
      }
      if (!reply.blobs[k].present) {
        all_present = false;
        continue;
      }
      auto bytes = net::recv_blob_v4(stream, config_.max_blob_bytes,
                                     &profile_.decompress_s, &blob_wire_);
      if (net::blob_digest(bytes) != digest) {
        throw ProtocolError("fetched blob does not hash to its digest");
      }
      fetched.push_back(missing[k]);
      resolved[missing[k]] = std::move(bytes);
    }
  }
  if (!all_present) {
    for (std::size_t i : fetched) {
      blob_cache_.put(unit.blobs[i].digest, std::move(resolved[i]));
    }
    return false;
  }
  for (std::size_t i = 0; i < unit.blobs.size(); ++i) {
    unit.blobs[i].bytes = std::move(resolved[i]);
  }
  return true;
}

bool Client::backoff_wait(double delay) {
  double slept = 0;
  while (slept < delay) {
    if (stop_.load() || crash_.load()) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    slept += 0.02;
  }
  return !stop_.load() && !crash_.load();
}

void Client::rehello(net::TcpStream& stream, double benchmark) {
  HelloPayload hello;
  hello.client_name = config_.name;
  hello.cores = 1;
  hello.benchmark_ops_per_sec = benchmark;
  send_message(stream, encode_hello(hello, next_correlation_++));
  net::Message reply = net::read_message(stream);
  if (reply.type == net::MessageType::kRetryLater) {
    // Shed at the door (max_clients / fail-stop): count it like a failed
    // connect, so connect_session's backoff + endpoint rotation apply.
    auto nack = decode_retry_later(reply);
    note_retry_later(nack);
    throw IoError("server shedding load: " + nack.reason);
  }
  auto ack = decode_hello_ack(reply);
  my_id_.store(ack.client_id);
  heartbeat_interval_ = ack.heartbeat_interval_s;
  LOG_INFO("client '" << config_.name << "' registered as id " << ack.client_id);
}

bool Client::connect_session(net::TcpStream& stream, double benchmark) {
  int failures = 0;
  for (;;) {
    if (stop_.load() || crash_.load()) return false;
    const ServerEndpoint ep = endpoint();
    try {
      auto fresh = net::TcpStream::connect(ep.host, ep.port);
      rehello(fresh, benchmark);
      stream = std::move(fresh);
      return true;
    } catch (const IoError& e) {
      failures += 1;
      if (config_.max_connect_attempts > 0 &&
          failures >= config_.max_connect_attempts) {
        throw;
      }
      LOG_DEBUG("client '" << config_.name << "' connect to " << ep.host << ":"
                           << ep.port << " failed (" << e.what()
                           << "); rotating");
    } catch (const ProtocolError& e) {
      // A corrupt HelloAck — or an unpromoted standby rejecting Hello with
      // an error frame — counts like a failed connect: same backoff, and
      // the rotation below moves on to the next endpoint in the list.
      failures += 1;
      if (config_.max_connect_attempts > 0 &&
          failures >= config_.max_connect_attempts) {
        throw;
      }
      LOG_DEBUG("client '" << config_.name << "' handshake with " << ep.host
                           << ":" << ep.port << " failed (" << e.what()
                           << "); rotating");
    }
    rotate_endpoint();
    // The escalation lives in backoff_ and survives this call: only a
    // healthy session (heartbeat acks) resets it.
    double delay = backoff_.next_delay();
    double jitter = 1.0 + config_.backoff_jitter * backoff_rng_.uniform(-1.0, 1.0);
    if (!backoff_wait(delay * jitter)) return false;
  }
}

ClientRunStats Client::run() {
  ClientRunStats stats;
  obs::Registry::global().gauge("client.exec_threads")
      .set(static_cast<double>(std::max<std::size_t>(config_.exec_threads, 1)));
  double benchmark = measure_benchmark() / std::max(config_.throttle, 1.0);

  net::TcpStream stream;
  if (!connect_session(stream, benchmark)) {
    stats.retry_laters = retry_laters_;
    return stats;
  }

  // Heartbeats ride a second connection: the work connection is strictly
  // request/response, so it cannot carry liveness while a unit computes.
  // The thread reads my_id_ each beat so it follows re-Hellos, and it
  // reconnects with its own backoff if the server goes away for a while.
  std::atomic<bool> heartbeats_done{false};
  std::thread heartbeat_thread;
  if (config_.send_heartbeats && heartbeat_interval_ > 0) {
    heartbeat_thread = std::thread([this, &heartbeats_done,
                                    interval = heartbeat_interval_] {
      Rng hb_rng(name_seed(config_.name) ^ 0x6865617274626561ull);  // "heartbea"
      double delay = config_.backoff_initial_s;
      auto nap = [&heartbeats_done](double seconds) {
        double slept = 0;
        while (slept < seconds && !heartbeats_done.load()) {
          std::this_thread::sleep_for(std::chrono::milliseconds(20));
          slept += 0.02;
        }
      };
      while (!heartbeats_done.load()) {
        try {
          const ServerEndpoint ep = endpoint();
          auto hb_stream = net::TcpStream::connect(ep.host, ep.port);
          delay = config_.backoff_initial_s;
          std::uint64_t corr = 1;
          while (!heartbeats_done.load()) {
            send_message(hb_stream, encode_heartbeat(my_id_.load(), corr++));
            // HeartbeatAck, or kError for a heartbeat that raced a server
            // restart — either way the beat was delivered; keep going. Only
            // a real ack counts toward the healthy-session streak that
            // resets the reconnect backoff escalation.
            auto reply = net::read_message(hb_stream);
            if (reply.type == net::MessageType::kHeartbeatAck &&
                backoff_.heartbeat_ok()) {
              LOG_DEBUG("client '" << config_.name
                                   << "' session healthy; backoff reset");
            }
            nap(interval);
          }
          hb_stream.shutdown_write();
          return;
        } catch (const Error&) {
          // Server unreachable: back off and retry while the work loop
          // re-establishes its own session (and rotates the endpoint).
          backoff_.session_lost();
          double jitter =
              1.0 + config_.backoff_jitter * hb_rng.uniform(-1.0, 1.0);
          nap(delay * jitter);
          delay = std::min(delay * 2.0, config_.backoff_max_s);
        }
      }
    });
  }
  struct HeartbeatJoiner {
    std::atomic<bool>& done;
    std::thread& thread;
    ~HeartbeatJoiner() {
      done.store(true);
      if (thread.joinable()) thread.join();
    }
  } joiner{heartbeats_done, heartbeat_thread};

  // The work loop. `pending` buffers a computed-but-unacknowledged result:
  // if the session dies between compute and ack, the reconnected session
  // resubmits it instead of recomputing the unit (the server dedups by
  // unit id, so a double delivery is just a dropped duplicate).
  std::optional<ResultUnit> pending;
  bool resubmitting = false;
  int consecutive_idle = 0;
  bool session_ok = true;
  while (!stop_.load() && !crash_.load()) {
    try {
      if (!pending) {
        Stopwatch queue_sw;  // RequestWork sent -> assignment decoded
        send_message(stream,
                     encode_request_work(my_id_.load(), next_correlation_++));
        net::Message reply = net::read_message(stream);

        if (reply.type == net::MessageType::kNoWorkAvailable) {
          auto no_work = decode_no_work(reply);
          stats.idle_polls += 1;
          if (config_.exit_when_idle &&
              (no_work.all_problems_complete ||
               ++consecutive_idle >= config_.max_idle_polls)) {
            break;
          }
          std::this_thread::sleep_for(
              std::chrono::duration<double>(no_work.retry_after_s));
          continue;
        }
        if (reply.type == net::MessageType::kShutdown) break;
        if (reply.type == net::MessageType::kRetryLater) {
          // Overloaded (or degraded fail-stop) server shedding work
          // requests: honour the hint, keep the session.
          auto nack = decode_retry_later(reply);
          note_retry_later(nack);
          if (!backoff_wait(nack.retry_after_s)) break;
          continue;
        }
        if (reply.type == net::MessageType::kError) {
          // Our id is stale (client timeout, or the server restarted from a
          // checkpoint): re-register on this same connection and carry on.
          auto r = reply.reader();
          LOG_WARN("server rejected request for client '" << config_.name
                   << "': " << r.str() << " — re-registering");
          rehello(stream, benchmark);
          continue;
        }

        WorkUnit unit = decode_work_assignment(reply);
        profile_ = obs::UnitProfile{};
        profile_.queue_wait_s = queue_sw.seconds();
        profile_.threads = static_cast<std::uint32_t>(
            std::max<std::size_t>(config_.exec_threads, 1));
        consecutive_idle = 0;
        // blob_fetch covers problem-data + unit-blob resolution; the LZ
        // inflation inside recv_blob_v4 accumulates separately into
        // decompress_s, so subtract it to keep the two spans disjoint.
        double fetch_total = 0;
        ProblemContext* ctx = nullptr;
        bool blobs_ok;
        {
          obs::SpanTimer fetch(fetch_total);
          ctx = &context_for(stream, unit.problem_id);
          blobs_ok = ensure_blobs(stream, unit);
        }
        profile_.blob_fetch_s =
            std::max(0.0, fetch_total - profile_.decompress_s);
        if (!blobs_ok) {
          // A referenced blob is gone server-side: a replica finished the
          // unit while our NEED list was in flight. Drop it and ask for
          // fresh work.
          LOG_DEBUG("unit " << unit.unit_id
                            << " references a released blob; dropping");
          continue;
        }

        auto& saturation_counter =
            obs::Registry::global().counter("align.batch_saturations");
        const std::uint64_t saturations_before = saturation_counter.value();
        Stopwatch sw;
        ResultUnit result;
        result.problem_id = unit.problem_id;
        result.unit_id = unit.unit_id;
        result.stage = unit.stage;
        // Echo the lease's term (v6): a result computed for a deposed
        // primary carries its old epoch, and the promoted server fences it.
        result.epoch = unit.epoch;
        result.payload = ctx->algorithm->process(unit);
        profile_.compute_s = sw.seconds();
        profile_.saturations = saturation_counter.value() - saturations_before;
        {
          obs::SpanTimer encode_span(profile_.encode_s);
          if (config_.corrupt_rate > 0 && !result.payload.empty()) {
            // Deterministic per-unit draw: the same donor lies about the
            // same units on every run, so chaos tests are reproducible.
            Rng draw(config_.corrupt_seed ^ name_seed(config_.name) ^
                     (unit.unit_id * 0x9e3779b97f4a7c15ull));
            if (draw.next_double() < config_.corrupt_rate) {
              std::size_t at = static_cast<std::size_t>(
                  draw.next_below(result.payload.size()));
              result.payload[at] ^= std::byte{0x5a};
              LOG_DEBUG("corrupting result for unit " << unit.unit_id);
            }
          }
          // Digest over the bytes actually submitted — a lying donor signs
          // its lie, so the wire check passes and voting has to catch it.
          result.payload_crc = net::crc32(result.payload);
        }
        double compute_s = sw.seconds();
        stats.compute_seconds += compute_s;
        {
          // The unit's blobs enter the cache only now, by move: the bytes
          // process() read become the cached copy instead of a second one.
          obs::SpanTimer cache_span(profile_.blob_fetch_s);
          for (auto& blob : unit.blobs) {
            blob_cache_.put(blob.digest, std::move(blob.bytes));
          }
        }
        if (config_.throttle > 1.0) {
          // Emulate a slower donor machine by padding compute time. The
          // padding belongs to the compute span — it models a machine for
          // which process() really would have taken that long.
          obs::SpanTimer pad(profile_.compute_s);
          std::this_thread::sleep_for(std::chrono::duration<double>(
              compute_s * (config_.throttle - 1.0)));
        }
        if (config_.crash_after_units >= 0 &&
            stats.units_processed + 1 >=
                static_cast<std::uint64_t>(config_.crash_after_units)) {
          crash_.store(true);
        }
        if (crash_.load()) {
          stats.retry_laters = retry_laters_;
          return stats;  // vanish without submitting
        }
        if (config_.protocol_version >= 5) result.profile = profile_;
        pending = std::move(result);
        resubmitting = false;
      }

      send_message(
          stream,
          encode_submit_result(my_id_.load(), *pending, next_correlation_++,
                               static_cast<std::uint16_t>(config_.protocol_version)));
      net::Message reply = net::read_message(stream);
      if (reply.type == net::MessageType::kRetryLater) {
        // A fail-stop server NACKs submissions so we keep our buffered
        // copy for its replacement; `pending` survives and is retried.
        auto nack = decode_retry_later(reply);
        note_retry_later(nack);
        if (!backoff_wait(nack.retry_after_s)) break;
        continue;
      }
      if (reply.type == net::MessageType::kError) {
        rehello(stream, benchmark);
        continue;  // pending survives; retried under the new id
      }
      auto result_ack = decode_result_ack(reply);
      if (!result_ack.accepted) {
        LOG_DEBUG("result for unit " << pending->unit_id << " was a duplicate");
      }
      if (resubmitting) {
        stats.results_resubmitted += 1;
        resubmitting = false;
      }
      pending.reset();
      stats.units_processed += 1;
    } catch (const IoError& e) {
      if (stop_.load() || crash_.load()) break;
      LOG_WARN("client '" << config_.name << "' lost its session (" << e.what()
                          << "); reconnecting");
      if (pending) resubmitting = true;
      if (!connect_session(stream, benchmark)) {
        session_ok = false;
        break;
      }
      stats.reconnects += 1;
      obs::Registry::global().counter("client.reconnects").inc();
    } catch (const ProtocolError& e) {
      // Corrupt frame (CRC mismatch, torn header): the connection can no
      // longer be trusted mid-stream — drop it and start a clean session.
      if (stop_.load() || crash_.load()) break;
      LOG_WARN("client '" << config_.name << "' got a corrupt frame ("
                          << e.what() << "); reconnecting");
      stream.close();
      if (pending) resubmitting = true;
      if (!connect_session(stream, benchmark)) {
        session_ok = false;
        break;
      }
      stats.reconnects += 1;
      obs::Registry::global().counter("client.reconnects").inc();
    }
  }

  if (!crash_.load() && session_ok && stream.valid()) {
    try {
      send_message(stream, encode_goodbye(my_id_.load(), next_correlation_++));
      stream.shutdown_write();
    } catch (const Error&) {
      // Server may already be gone; departure is best-effort.
    }
  }
  stats.retry_laters = retry_laters_;
  return stats;
}

}  // namespace hdcs::dist
