#pragma once
// Control plane: the policy around SchedulerCore — journaling and replica
// feeds, sync before ack, durable -> degraded -> durable, compaction,
// Hello shedding, and new terms on recovery or promotion — with no
// transport and no clock: every method takes the caller's `now`. Server
// calls it under its core mutex in wall time, SimDriver in virtual time,
// so both behave the same by construction. Not thread-safe, except
// durability() and storage_failed(), which need no lock.

#include <atomic>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "dist/scheduler_core.hpp"
#include "dist/wal.hpp"

namespace hdcs::dist {

/// kNone = no journal (nothing to degrade from).
enum class Durability { kNone = 0, kDurable = 1, kDegraded = 2 };

/// A hot standby's feed: every logged record's encoded payload, in order,
/// pushed from inside the caller's lock.
class RecordSink {
 public:
  virtual ~RecordSink() = default;
  virtual void push(const std::vector<std::byte>& record) = 0;
};

/// What a standby starts from: the exact snapshot, its term, and the lsn
/// of the first record streamed after it.
struct ReplicaStart {
  std::vector<std::byte> snapshot;
  std::uint64_t epoch = 0;
  std::uint64_t start_lsn = 0;
};

class ControlPlane {
 public:
  struct Options {
    obs::Tracer* tracer = nullptr;  // not owned
    int max_clients = 0;            // shed Hello past this many; 0 = unbounded
    /// On a journal failure: false = continue degraded (re-arm later);
    /// true = latch storage_failed() (see Server's DurabilityMode).
    bool fail_stop = false;
    double rearm_retry_s = 1.0;  // degraded: rebuild at most this often
    std::uint64_t compact_every = 0;  // records between compactions; 0 = never
  };

  ControlPlane(SchedulerConfig config, std::unique_ptr<GranularityPolicy> policy,
               Options options);
  ControlPlane(const ControlPlane&) = delete;
  ControlPlane& operator=(const ControlPlane&) = delete;

  ProblemId submit_problem(std::shared_ptr<DataManager> dm);
  /// Journal every later mutation to `journal`. When `recovery` holds a
  /// log, restore and replay it first, then enter a new term; the same
  /// problems must already be submitted (a mismatch throws ProtocolError).
  /// Returns true when it replayed.
  bool open_journal(std::unique_ptr<Journal> journal, WalRecovery recovery,
                    double now);

  /// nullopt = shed (max_clients; a retry_later event, no client row).
  std::optional<ClientId> hello(const std::string& name,
                                double benchmark_ops_per_sec, double now);
  void client_left(ClientId id, double now);
  void heartbeat(ClientId id, double now);
  std::optional<WorkUnit> request_work(ClientId id, double now);
  /// An accepted result is synced before this returns; a failed sync
  /// degrades (or latches fail-stop) but the result stays accepted.
  bool submit_result(ClientId id, ResultUnit result, double now);
  /// Lease expiry, the compaction cadence, and (degraded) the re-arm.
  void tick(double now);

  /// A standby takes over: new term, client sweep, failover_promoted.
  void promote(const char* reason, double now);
  /// Compact now. No-op unless durable.
  void compact(double now);
  /// Snapshot, and stream every later record to `sink` (no gap between).
  ReplicaStart attach_replica(std::shared_ptr<RecordSink> sink);
  void detach_replica(const std::shared_ptr<RecordSink>& sink);
  /// Standby side: adopt the primary's snapshot (standby_synced event),
  /// then apply its records verbatim.
  void follow_snapshot(std::span<const std::byte> snapshot,
                       std::uint64_t start_lsn, double now);
  void follow_records(const std::vector<std::vector<std::byte>>& records);

  /// Read-only: every mutation goes through the methods above.
  [[nodiscard]] const SchedulerCore& core() const { return core_; }
  [[nodiscard]] Durability durability() const {
    return static_cast<Durability>(durability_.load());
  }
  [[nodiscard]] bool storage_failed() const { return storage_failed_.load(); }
  /// The journal's next lsn (0 without one; frozen while degraded).
  [[nodiscard]] std::uint64_t journal_lsn() const {
    return journal_ ? journal_->next_lsn() : 0;
  }

  struct Counts {
    std::uint64_t durability_degradations = 0;
    std::uint64_t durability_restores = 0;
    std::uint64_t clients_shed = 0;
    std::uint64_t failovers = 0;
  };
  [[nodiscard]] const Counts& counts() const { return counts_; }

 private:
  [[nodiscard]] bool durable() const {
    return durability() == Durability::kDurable;
  }
  /// Log one record when it goes anywhere (journal or a feed).
  void log(WalOp op, double now, std::uint64_t arg, WalRecord rec = {});
  void enter_new_term(const char* reason, double now);
  /// Sync the journal; a failure degrades with reason wal_sync.
  void sync(double now);
  void degrade(const char* reason, double now);
  void rearm(double now);
  void restore(std::span<const std::byte> snapshot);
  void rebuild_journal(double now);
  void set_durability(Durability d);

  SchedulerCore core_;
  Options options_;
  std::unique_ptr<Journal> journal_;
  std::vector<std::shared_ptr<RecordSink>> sinks_;
  /// Next stream lsn: the journal's while durable; the feeds keep counting
  /// while it is frozen.
  std::uint64_t next_lsn_ = 1;
  std::uint64_t last_compact_lsn_ = 1;
  double last_rearm_ = 0;
  std::uint64_t rearm_failures_ = 0;
  std::atomic<int> durability_{static_cast<int>(Durability::kNone)};
  std::atomic<bool> storage_failed_{false};
  Counts counts_;
};

}  // namespace hdcs::dist
