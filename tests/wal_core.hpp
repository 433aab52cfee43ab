#pragma once
// A SchedulerCore driven the way Server drives it when ServerConfig::wal_dir
// is set, without the transport: every mutation is appended to a WAL
// directory, and a result is fsynced before it counts as acknowledged.
// Constructing one over a directory that already holds a log recovers it
// first, exactly like Server::start(): restore the base checkpoint, replay
// the tail, enter a new term and sweep the previous incarnation's client
// rows (their connections died with it, so their leases are requeued).
// Destroying the object is the crash; the next one is the restart.

#include <filesystem>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "dist/scheduler_core.hpp"
#include "dist/wal.hpp"
#include "util/byte_buffer.hpp"

namespace hdcs::test {

/// A fresh (emptied) directory under the test temp dir.
inline std::string fresh_wal_dir(const std::string& name) {
  std::string dir = testing::TempDir() + name;
  std::filesystem::remove_all(dir);
  return dir;
}

class WalCore {
 public:
  /// `problems` are submitted in order (same inputs, same order as the
  /// previous incarnation, like a rerun of the same job). `now` stamps the
  /// new-term records when the directory held a log.
  WalCore(const std::string& dir, dist::SchedulerConfig cfg, double unit_ops,
          const std::vector<std::shared_ptr<dist::DataManager>>& problems,
          double now = 0)
      : core_(cfg, std::make_unique<dist::FixedGranularity>(unit_ops)),
        wal_(dist::WalConfig{dir}) {
    for (const auto& dm : problems) pids_.push_back(core_.submit_problem(dm));
    dist::WalRecovery rec = wal_.take_recovery();
    if (!rec.base_snapshot && rec.tail.empty()) return;
    if (rec.base_snapshot) {
      ByteReader r(*rec.base_snapshot);
      core_.restore_exact(r);
      r.expect_end();
    }
    for (const auto& record : rec.tail) dist::apply_wal_record(core_, record);
    recovered_ = true;
    const std::uint64_t next = core_.epoch() + 1;
    core_.bump_epoch(next);
    log(dist::WalOp::kEpoch, now, next);
    for (const auto& c : core_.all_client_stats()) {
      if (c.active) leave(c.id, now);
    }
    wal_.sync();
  }

  dist::ClientId join(const std::string& name, double now) {
    dist::ClientId id = core_.client_joined(name, 1e6, now);
    dist::WalRecord rec;
    rec.op = dist::WalOp::kClientJoined;
    rec.now = now;
    rec.arg = id;
    rec.name = name;
    rec.benchmark = 1e6;
    wal_.append(rec);
    return id;
  }

  void leave(dist::ClientId id, double now) {
    core_.client_left(id, now);
    log(dist::WalOp::kClientLeft, now, id);
  }

  /// A lease with its blob bytes materialised, as a donor receives it.
  std::optional<dist::WorkUnit> request(dist::ClientId id, double now) {
    auto unit = core_.request_work(id, now);
    log(dist::WalOp::kRequestWork, now, id);
    if (unit) core_.materialize_unit_blobs(*unit);
    return unit;
  }

  /// Accept a result; an accepted one is durable before this returns, the
  /// moment Server sends its ack.
  bool submit(dist::ClientId id, const dist::ResultUnit& result, double now) {
    bool accepted = core_.submit_result(id, result, now);
    dist::WalRecord rec;
    rec.op = dist::WalOp::kSubmitResult;
    rec.now = now;
    rec.arg = id;
    rec.result = result;
    wal_.append(rec);
    if (accepted) wal_.sync();
    return accepted;
  }

  void tick(double now) {
    core_.tick(now);
    log(dist::WalOp::kTick, now, 0);
  }

  /// Fold the log into a fresh base checkpoint (what the housekeeping
  /// thread does every wal_compact_every records).
  void compact(double now) {
    ByteWriter w;
    core_.snapshot_exact(w);
    wal_.compact(w.data(), now);
  }

  void sync() { wal_.sync(); }

  [[nodiscard]] dist::SchedulerCore& core() { return core_; }
  [[nodiscard]] dist::ProblemId pid(std::size_t i = 0) const { return pids_.at(i); }
  /// True when construction replayed an existing log.
  [[nodiscard]] bool recovered() const { return recovered_; }

 private:
  void log(dist::WalOp op, double now, std::uint64_t arg) {
    dist::WalRecord rec;
    rec.op = op;
    rec.now = now;
    rec.arg = arg;
    wal_.append(rec);
  }

  dist::SchedulerCore core_;
  dist::WalLog wal_;
  std::vector<dist::ProblemId> pids_;
  bool recovered_ = false;
};

/// Run one leased unit the way a donor does, echoing the lease's term.
template <typename Algo>
dist::ResultUnit run_unit(Algo& algo, const dist::WorkUnit& unit) {
  dist::ResultUnit r;
  r.problem_id = unit.problem_id;
  r.unit_id = unit.unit_id;
  r.stage = unit.stage;
  r.epoch = unit.epoch;
  r.payload = algo.process(unit);
  return r;
}

}  // namespace hdcs::test
