#include "dist/control_plane.hpp"

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/byte_buffer.hpp"
#include "util/error.hpp"
#include "util/logging.hpp"

namespace hdcs::dist {

ControlPlane::ControlPlane(SchedulerConfig config,
                           std::unique_ptr<GranularityPolicy> policy,
                           Options options)
    : core_(std::move(config), std::move(policy)), options_(options) {
  core_.set_tracer(options_.tracer);
}

ProblemId ControlPlane::submit_problem(std::shared_ptr<DataManager> dm) {
  return core_.submit_problem(std::move(dm));
}

bool ControlPlane::open_journal(std::unique_ptr<Journal> journal,
                                WalRecovery recovery, double now) {
  const bool replay = recovery.base_snapshot || !recovery.tail.empty();
  if (replay) {
    // Replay with the tracer detached: the recovered mutations were
    // already traced by the previous life of this scheduler.
    core_.set_tracer(nullptr);
    if (recovery.base_snapshot) restore(*recovery.base_snapshot);
    for (const WalRecord& rec : recovery.tail) apply_wal_record(core_, rec);
    core_.set_tracer(options_.tracer);
  }
  journal_ = std::move(journal);
  next_lsn_ = last_compact_lsn_ = journal_->next_lsn();
  set_durability(Durability::kDurable);
  if (!replay) return false;
  // New term: the torn-off tail may have held unsynced RequestWork records
  // whose unit ids this core will reuse — fence their stale results by
  // epoch, and sweep the dead connections' client rows.
  enter_new_term("wal_recovery", now);
  if (options_.tracer) {
    options_.tracer->event(now, "wal_recovered")
        .u64("records", recovery.records_replayable)
        .u64("lsn", journal_->next_lsn())
        .u64("epoch", core_.epoch())
        .u64("torn_bytes", recovery.torn_bytes_truncated);
  }
  LOG_INFO("WAL recovery: " << recovery.records_replayable << " records over "
           << recovery.segments_scanned << " segments, resuming at lsn "
           << journal_->next_lsn() << " epoch " << core_.epoch());
  return true;
}

std::optional<ClientId> ControlPlane::hello(const std::string& name,
                                            double benchmark_ops_per_sec,
                                            double now) {
  if (options_.max_clients > 0 &&
      core_.active_client_count() >= options_.max_clients) {
    // Shed before joining: the donor never becomes scheduler state, so no
    // lease/eviction bookkeeping is spent on it.
    counts_.clients_shed += 1;
    obs::Registry::global().counter("server.clients_shed").inc();
    if (options_.tracer) {
      options_.tracer->event(now, "retry_later")
          .str("reason", "max_clients")
          .str("name", name);
    }
    return std::nullopt;
  }
  ClientId id = core_.client_joined(name, benchmark_ops_per_sec, now);
  WalRecord rec;
  rec.name = name;
  rec.benchmark = benchmark_ops_per_sec;
  log(WalOp::kClientJoined, now, id, std::move(rec));
  return id;
}

void ControlPlane::client_left(ClientId id, double now) {
  core_.client_left(id, now);
  log(WalOp::kClientLeft, now, id);
}

void ControlPlane::heartbeat(ClientId id, double now) {
  core_.heartbeat(id, now);
  log(WalOp::kHeartbeat, now, id);
}

std::optional<WorkUnit> ControlPlane::request_work(ClientId id, double now) {
  auto unit = core_.request_work(id, now);
  // Logged even when nothing was issued: an unserved request still mutates
  // stats and policy state, and replay must walk the exact same path (an
  // InputError above skips the log, the same way it skips the mutation).
  log(WalOp::kRequestWork, now, id);
  return unit;
}

bool ControlPlane::submit_result(ClientId id, ResultUnit result, double now) {
  const bool accepted = core_.submit_result(id, result, now);
  WalRecord rec;
  rec.result = std::move(result);
  log(WalOp::kSubmitResult, now, id, std::move(rec));
  // The ack is what lets the donor drop its buffered copy, so an accepted
  // result is durable before it: after this sync a kill -9 loses nothing.
  // Once degraded there is nothing left to sync; kContinue acks anyway
  // (accepted-but-non-durable, epoch already fenced), kFailStop NACKs
  // (storage_failed()) so the donor keeps its copy.
  if (accepted) sync(now);
  return accepted;
}

void ControlPlane::tick(double now) {
  core_.tick(now);
  log(WalOp::kTick, now, 0);  // doubles as a replication keepalive
  if (journal_ && durable() && options_.compact_every > 0 &&
      next_lsn_ - last_compact_lsn_ >= options_.compact_every) {
    try {
      rebuild_journal(now);
    } catch (const Error& e) {
      // A full disk must not kill scheduling; retry next interval.
      LOG_ERROR("wal compaction failed: " << e.what());
    }
  }
  if (durability() == Durability::kDegraded && !storage_failed() &&
      now - last_rearm_ >= options_.rearm_retry_s) {
    rearm(now);
  }
}

void ControlPlane::promote(const char* reason, double now) {
  enter_new_term(reason, now);
  counts_.failovers += 1;
  obs::Registry::global().counter("server.failovers").inc();
  if (options_.tracer) {
    options_.tracer->event(now, "failover_promoted")
        .u64("epoch", core_.epoch())
        .str("reason", reason);
  }
  LOG_INFO("standby promoted to primary (epoch " << core_.epoch()
                                                 << "): " << reason);
}

void ControlPlane::compact(double now) {
  if (journal_ && durable()) rebuild_journal(now);
}

ReplicaStart ControlPlane::attach_replica(std::shared_ptr<RecordSink> sink) {
  ByteWriter w;
  core_.snapshot_exact(w);
  sinks_.push_back(std::move(sink));
  return {w.take(), core_.epoch(), next_lsn_};
}

void ControlPlane::detach_replica(const std::shared_ptr<RecordSink>& sink) {
  std::erase(sinks_, sink);
}

void ControlPlane::follow_snapshot(std::span<const std::byte> snapshot,
                                   std::uint64_t start_lsn, double now) {
  restore(snapshot);
  next_lsn_ = last_compact_lsn_ = start_lsn;
  // The new base is durable once reset() returns; records follow.
  if (journal_) journal_->reset(snapshot, start_lsn, now);
  if (options_.tracer) {
    options_.tracer->event(now, "standby_synced")
        .u64("epoch", core_.epoch())
        .u64("lsn", start_lsn)
        .u64("snapshot_bytes", snapshot.size());
  }
}

void ControlPlane::follow_records(
    const std::vector<std::vector<std::byte>>& records) {
  for (const auto& bytes : records) {
    WalRecord rec = decode_wal_record(bytes);
    if (journal_) journal_->append(rec);  // primary's lsn, kept verbatim
    next_lsn_ = rec.lsn + 1;
    apply_wal_record(core_, rec);
  }
  if (journal_) journal_->sync();
}

void ControlPlane::log(WalOp op, double now, std::uint64_t arg, WalRecord rec) {
  // While degraded the journal is frozen (its segment failed; only a
  // rebuild revives it): records reach the feeds only, so a hot standby
  // stays exact through the primary's bad-disk window.
  const bool to_journal = journal_ && durable();
  if (!to_journal && sinks_.empty()) return;
  rec.lsn = next_lsn_++;
  rec.op = op;
  rec.now = now;
  rec.arg = arg;
  bool append_failed = false;
  if (to_journal) {
    try {
      journal_->append(rec);
    } catch (const Error& e) {
      // The record still goes out on the feeds — the standby must apply
      // everything the live core applied — and only then do we degrade.
      LOG_ERROR("wal append failed: " << e.what());
      append_failed = true;
    }
  }
  if (!sinks_.empty()) {
    auto bytes = encode_wal_record(rec);
    for (const auto& sink : sinks_) sink->push(bytes);
  }
  if (append_failed) degrade("wal_append", now);
}

void ControlPlane::enter_new_term(const char* reason, double now) {
  const std::uint64_t next = core_.epoch() + 1;
  core_.bump_epoch(next);
  log(WalOp::kEpoch, now, next);
  // Every active client row belongs to the previous term — its connection
  // died with the old server. Sweeping them requeues their leases now
  // instead of waiting out the lease timeout; reconnecting donors re-Hello
  // and get fresh ids.
  for (const auto& c : core_.all_client_stats()) {
    if (c.active) client_left(c.id, now);
  }
  sync(now);
  LOG_INFO("entered epoch " << core_.epoch() << " (" << reason << ")");
}

void ControlPlane::sync(double now) {
  if (!journal_ || !durable()) return;
  try {
    journal_->sync();
  } catch (const Error& e) {
    LOG_ERROR("wal sync failed: " << e.what());
    degrade("wal_sync", now);
  }
}

void ControlPlane::degrade(const char* reason, double now) {
  if (!durable()) return;
  set_durability(Durability::kDegraded);
  counts_.durability_degradations += 1;
  obs::Registry::global().counter("server.durability_degradations").inc();
  rearm_failures_ = 0;
  // Fence the degraded window: +2, not +1, so a crash-while-degraded
  // restart (replay durable state, then the new term's +1) lands on a
  // DIFFERENT epoch than this one — nothing issued or accepted while
  // non-durable can ever be merged into the revived durable core.
  const std::uint64_t next = core_.epoch() + 2;
  core_.bump_epoch(next);
  log(WalOp::kEpoch, now, next);  // feeds only: the journal is frozen now
  if (options_.tracer) {
    options_.tracer->event(now, "durability_degraded")
        .str("reason", reason)
        .u64("epoch", next);
  }
  if (options_.fail_stop) {
    storage_failed_.store(true);
    LOG_ERROR("durability lost (" << reason << "): fail-stop — draining, "
              << "epoch " << next);
  } else {
    LOG_ERROR("durability degraded (" << reason << "): continuing non-durable "
              << "at epoch " << next << "; re-arm every "
              << options_.rearm_retry_s << "s");
  }
}

void ControlPlane::rearm(double now) {
  last_rearm_ = now;
  try {
    // Fresh base snapshot at the feeds' lsn, fresh segment. A still-broken
    // disk throws and we stay degraded for the next retry.
    rebuild_journal(now);
    journal_->sync();
  } catch (const Error& e) {
    // One warning per degraded window: a disk that stays dead for hours
    // must not flood the log at the re-arm cadence.
    if (rearm_failures_++ == 0) {
      LOG_WARN("durability re-arm failed (retrying): " << e.what());
    }
    return;
  }
  set_durability(Durability::kDurable);
  counts_.durability_restores += 1;
  obs::Registry::global().counter("server.durability_restores").inc();
  if (options_.tracer) {
    options_.tracer->event(now, "durability_restored").u64("epoch", core_.epoch());
  }
  LOG_INFO("durability restored (epoch " << core_.epoch() << ")");
}

void ControlPlane::restore(std::span<const std::byte> snapshot) {
  ByteReader r(snapshot);
  core_.restore_exact(r);
  r.expect_end();
}

void ControlPlane::rebuild_journal(double now) {
  ByteWriter w;
  core_.snapshot_exact(w);
  journal_->reset(w.data(), next_lsn_, now);
  last_compact_lsn_ = next_lsn_;
}

void ControlPlane::set_durability(Durability d) {
  durability_.store(static_cast<int>(d));
  obs::Registry::global().gauge("server.durability")
      .set(static_cast<double>(static_cast<int>(d)));
}

}  // namespace hdcs::dist
