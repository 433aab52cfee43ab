#pragma once
// The server's control plane over a WAL directory, without the transport:
// the same dist::ControlPlane that Server drives when ServerConfig::wal_dir
// is set, journaling to a real WalLog. Every mutation is logged, and an
// accepted result is synced before submit() returns — the moment Server
// sends its ack. Constructing one over a directory that already holds a
// log recovers it first, exactly like Server::start(): restore the base
// checkpoint, replay the tail, enter a new term and sweep the previous
// incarnation's client rows. Destroying the object is the crash; the next
// one is the restart.

#include <filesystem>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "dist/control_plane.hpp"

namespace hdcs::test {

/// A fresh (emptied) directory under the test temp dir.
inline std::string fresh_wal_dir(const std::string& name) {
  std::string dir = testing::TempDir() + name;
  std::filesystem::remove_all(dir);
  return dir;
}

class WalPlane : public dist::ControlPlane {
 public:
  /// `problems` are submitted in order (same inputs, same order as the
  /// previous incarnation, like a rerun of the same job). `now` stamps the
  /// new-term records when the directory held a log.
  WalPlane(const std::string& dir, dist::SchedulerConfig cfg, double unit_ops,
           const std::vector<std::shared_ptr<dist::DataManager>>& problems,
           double now = 0, Options options = {})
      : ControlPlane(cfg, std::make_unique<dist::FixedGranularity>(unit_ops),
                     options) {
    for (const auto& dm : problems) pids_.push_back(submit_problem(dm));
    auto wal = std::make_unique<dist::WalLog>(dist::WalConfig{dir});
    dist::WalRecovery rec = wal->take_recovery();
    recovered_ = open_journal(std::move(wal), std::move(rec), now);
  }

  dist::ClientId join(const std::string& name, double now) {
    return hello(name, 1e6, now).value();
  }

  /// A lease with its blob bytes materialised, as a donor receives it.
  std::optional<dist::WorkUnit> request(dist::ClientId id, double now) {
    auto unit = request_work(id, now);
    if (unit) core().materialize_unit_blobs(*unit);
    return unit;
  }

  bool submit(dist::ClientId id, dist::ResultUnit result, double now) {
    return submit_result(id, std::move(result), now);
  }

  [[nodiscard]] dist::ProblemId pid(std::size_t i = 0) const { return pids_.at(i); }
  /// True when construction replayed an existing log.
  [[nodiscard]] bool recovered() const { return recovered_; }

 private:
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
