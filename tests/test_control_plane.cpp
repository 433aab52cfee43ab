// The control plane on its own: durability transitions, admission, terms,
// recovery and the replica feed, driven directly with a caller's clock —
// the behaviour Server and SimDriver both get from this one object.

#include "dist/control_plane.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "obs/trace.hpp"
#include "tests/toy_problem.hpp"
#include "tests/wal_core.hpp"
#include "util/byte_buffer.hpp"
#include "util/error.hpp"

namespace hdcs::dist {
namespace {

using test::run_unit;
using test::ToySumDataManager;

SchedulerConfig cfg() {
  SchedulerConfig c;
  c.lease_timeout = 1e6;
  c.bounds.min_ops = 1;
  return c;
}

std::unique_ptr<GranularityPolicy> policy() {
  return std::make_unique<FixedGranularity>(1000);
}

/// An in-memory journal whose sync() fails while `broken` is set.
struct TestJournal final : Journal {
  bool broken = false;
  std::vector<WalRecord> records;
  int syncs = 0;
  int resets = 0;
  std::uint64_t next = 1;

  std::uint64_t append(const WalRecord& rec) override {
    records.push_back(rec);
    next = rec.lsn + 1;
    return rec.lsn;
  }
  void sync() override {
    ++syncs;
    if (broken) throw IoError("injected fsync failure");
  }
  void reset(std::span<const std::byte>, std::uint64_t start_lsn,
             double) override {
    if (broken) throw IoError("injected base write failure");
    ++resets;
    records.clear();
    next = start_lsn;
  }
  [[nodiscard]] std::uint64_t next_lsn() const override { return next; }
};

/// Collects the replica feed's encoded records.
struct TestSink final : RecordSink {
  std::vector<std::vector<std::byte>> records;
  void push(const std::vector<std::byte>& record) override {
    records.push_back(record);
  }
};

std::vector<std::byte> snapshot(const SchedulerCore& core) {
  ByteWriter w;
  core.snapshot_exact(w);
  return w.take();
}

std::vector<obs::TraceRecord> events(const obs::Tracer& tracer,
                                     const std::string& ev) {
  std::vector<obs::TraceRecord> out;
  for (const auto& line : tracer.lines()) {
    auto rec = obs::parse_trace_line(line);
    if (rec.ev == ev) out.push_back(std::move(rec));
  }
  return out;
}

/// A plane over one toy problem with a TestJournal attached; returns the
/// journal (owned by the plane).
TestJournal& journaled(ControlPlane& plane) {
  test::register_toy_algorithm();
  plane.submit_problem(std::make_shared<ToySumDataManager>(10000));
  auto journal = std::make_unique<TestJournal>();
  TestJournal& j = *journal;
  plane.open_journal(std::move(journal), {}, 0);
  return j;
}

TEST(ControlPlane, FailedSyncDegradesOnceFencesByTwoAndReArms) {
  obs::Tracer tracer;
  tracer.to_memory();
  ControlPlane::Options o;
  o.tracer = &tracer;
  ControlPlane plane(cfg(), policy(), o);
  TestJournal& journal = journaled(plane);
  ASSERT_EQ(plane.durability(), Durability::kDurable);
  test::ToySumAlgorithm algo;
  algo.initialize(ToySumDataManager(10000).problem_data());

  auto c = plane.hello("d", 1e6, 0.0).value();
  auto unit = plane.request_work(c, 0.0);
  ASSERT_TRUE(unit);
  const int syncs_before = journal.syncs;
  journal.broken = true;
  // The result still counts; only the durable window moves.
  EXPECT_TRUE(plane.submit_result(c, run_unit(algo, *unit), 1.0));
  EXPECT_EQ(journal.syncs, syncs_before + 1);
  EXPECT_EQ(plane.durability(), Durability::kDegraded);
  EXPECT_FALSE(plane.storage_failed());
  EXPECT_EQ(plane.core().epoch(), 3u);
  EXPECT_EQ(plane.counts().durability_degradations, 1u);

  // Degraded: the journal is frozen — nothing appended, nothing synced.
  const std::size_t appended = journal.records.size();
  auto next = plane.request_work(c, 2.0);
  ASSERT_TRUE(next);
  EXPECT_TRUE(plane.submit_result(c, run_unit(algo, *next), 3.0));
  EXPECT_EQ(journal.records.size(), appended);
  EXPECT_EQ(journal.syncs, syncs_before + 1);

  auto degraded = events(tracer, "durability_degraded");
  ASSERT_EQ(degraded.size(), 1u);
  EXPECT_EQ(degraded[0].text("reason"), "wal_sync");
  EXPECT_EQ(degraded[0].number("epoch"), 3.0);

  // A tick while the disk is still broken stays degraded; one after it
  // heals rebuilds the journal and restores durability, same term.
  plane.tick(4.0);
  EXPECT_EQ(plane.durability(), Durability::kDegraded);
  journal.broken = false;
  plane.tick(5.5);
  EXPECT_EQ(plane.durability(), Durability::kDurable);
  EXPECT_EQ(journal.resets, 1);
  EXPECT_EQ(plane.counts().durability_restores, 1u);
  EXPECT_EQ(plane.core().epoch(), 3u);
  EXPECT_EQ(events(tracer, "durability_restored").size(), 1u);
  EXPECT_EQ(events(tracer, "durability_degraded").size(), 1u);
}

TEST(ControlPlane, FailStopLatchesStorageFailedAndNeverReArms) {
  ControlPlane::Options o;
  o.fail_stop = true;
  ControlPlane plane(cfg(), policy(), o);
  TestJournal& journal = journaled(plane);
  test::ToySumAlgorithm algo;
  algo.initialize(ToySumDataManager(10000).problem_data());

  auto c = plane.hello("d", 1e6, 0.0).value();
  auto unit = plane.request_work(c, 0.0);
  ASSERT_TRUE(unit);
  journal.broken = true;
  EXPECT_TRUE(plane.submit_result(c, run_unit(algo, *unit), 1.0));
  EXPECT_TRUE(plane.storage_failed());
  EXPECT_EQ(plane.durability(), Durability::kDegraded);
  EXPECT_EQ(plane.core().epoch(), 3u);

  journal.broken = false;
  plane.tick(10.0);
  EXPECT_TRUE(plane.storage_failed());
  EXPECT_EQ(plane.durability(), Durability::kDegraded);
  EXPECT_EQ(journal.resets, 0);
}

TEST(ControlPlane, ShedHelloEmitsOneRetryLaterAndCreatesNoClientRow) {
  obs::Tracer tracer;
  tracer.to_memory();
  ControlPlane::Options o;
  o.tracer = &tracer;
  o.max_clients = 1;
  ControlPlane plane(cfg(), policy(), o);
  TestJournal& journal = journaled(plane);

  auto a = plane.hello("a", 1e6, 0.0);
  ASSERT_TRUE(a);
  const std::size_t appended = journal.records.size();
  EXPECT_FALSE(plane.hello("b", 1e6, 1.0));
  EXPECT_EQ(plane.core().all_client_stats().size(), 1u);
  EXPECT_EQ(journal.records.size(), appended);  // nothing to replay
  EXPECT_EQ(plane.counts().clients_shed, 1u);
  auto shed = events(tracer, "retry_later");
  ASSERT_EQ(shed.size(), 1u);
  EXPECT_EQ(shed[0].text("reason"), "max_clients");
  EXPECT_EQ(shed[0].text("name"), "b");

  // A departure frees the slot.
  plane.client_left(*a, 2.0);
  EXPECT_TRUE(plane.hello("b", 1e6, 3.0));
}

TEST(ControlPlane, PromoteSweepsEveryActiveRowAndBumpsTheEpochByOne) {
  obs::Tracer tracer;
  tracer.to_memory();
  ControlPlane::Options o;
  o.tracer = &tracer;
  ControlPlane plane(cfg(), policy(), o);
  journaled(plane);

  auto a = plane.hello("a", 1e6, 0.0).value();
  auto b = plane.hello("b", 1e6, 0.0).value();
  auto gone = plane.hello("gone", 1e6, 0.0).value();
  plane.client_left(gone, 0.5);
  ASSERT_TRUE(plane.request_work(a, 1.0));
  ASSERT_TRUE(plane.request_work(b, 1.0));
  ASSERT_EQ(plane.core().pending_units(), 0u);

  plane.promote("test", 2.0);
  EXPECT_EQ(plane.core().epoch(), 2u);
  EXPECT_EQ(plane.core().active_client_count(), 0);
  EXPECT_EQ(plane.core().pending_units(), 2u);  // both leases requeued
  EXPECT_EQ(plane.counts().failovers, 1u);
  auto promoted = events(tracer, "failover_promoted");
  ASSERT_EQ(promoted.size(), 1u);
  EXPECT_EQ(promoted[0].number("epoch"), 2.0);
  EXPECT_EQ(promoted[0].text("reason"), "test");
}

TEST(ControlPlane, RecoveredPlaneMatchesTheLiveOneByteForByte) {
  test::register_toy_algorithm();
  test::ToySumAlgorithm algo;
  algo.initialize(ToySumDataManager(20000).problem_data());
  auto problem = [] { return std::make_shared<ToySumDataManager>(20000); };
  const std::string dir = test::fresh_wal_dir("control_plane_live");
  const std::string copy = test::fresh_wal_dir("control_plane_copy");
  {
    test::WalPlane first(dir, cfg(), 1000, {problem()});
    auto c = first.join("c", 0.0);
    for (int i = 0; i < 3; ++i) {
      auto unit = first.request(c, i);
      ASSERT_TRUE(unit);
      EXPECT_TRUE(first.submit(c, run_unit(algo, *unit), i + 0.5));
    }
    ASSERT_TRUE(first.request(c, 4.0));  // in flight at the crash
  }
  // The restart: replay plus a new term, then more work in that term.
  test::WalPlane live(dir, cfg(), 1000, {problem()}, 10.0);
  ASSERT_TRUE(live.recovered());
  EXPECT_EQ(live.core().epoch(), 2u);
  auto d = live.join("d", 11.0);
  auto unit = live.request(d, 11.0);
  ASSERT_TRUE(unit);
  EXPECT_TRUE(live.submit(d, run_unit(algo, *unit), 12.0));
  ASSERT_TRUE(live.request(d, 13.0));
  live.tick(14.0);

  // A fresh plane over the log as it stands recovers the live state
  // exactly: its own new term matches the live plane taking the same one.
  std::filesystem::copy(dir, copy, std::filesystem::copy_options::recursive);
  test::WalPlane fresh(copy, cfg(), 1000, {problem()}, 20.0);
  ASSERT_TRUE(fresh.recovered());
  live.promote("wal_recovery", 20.0);
  EXPECT_EQ(snapshot(fresh.core()), snapshot(live.core()));
  std::filesystem::remove_all(dir);
  std::filesystem::remove_all(copy);
}

TEST(ControlPlane, ReplicaFeedReproducesThePrimaryExactly) {
  test::register_toy_algorithm();
  test::ToySumAlgorithm algo;
  algo.initialize(ToySumDataManager(10000).problem_data());
  ControlPlane primary(cfg(), policy(), {});
  primary.submit_problem(std::make_shared<ToySumDataManager>(10000));
  auto early = primary.hello("early", 1e6, 0.0).value();
  ASSERT_TRUE(primary.request_work(early, 0.0));

  auto sink = std::make_shared<TestSink>();
  ReplicaStart start = primary.attach_replica(sink);
  auto c = primary.hello("c", 1e6, 1.0).value();
  auto unit = primary.request_work(c, 1.0);
  ASSERT_TRUE(unit);
  primary.core().materialize_unit_blobs(*unit);
  EXPECT_TRUE(primary.submit_result(c, run_unit(algo, *unit), 2.0));
  primary.tick(3.0);
  primary.client_left(early, 4.0);
  const auto expected = snapshot(primary.core());
  primary.detach_replica(sink);
  const std::size_t streamed = sink->records.size();
  primary.heartbeat(c, 5.0);  // after detach: not streamed
  EXPECT_EQ(sink->records.size(), streamed);

  // Records are lsn-contiguous from the snapshot on, and snapshot plus
  // stream rebuild the primary's state exactly.
  for (std::size_t i = 0; i < sink->records.size(); ++i) {
    EXPECT_EQ(decode_wal_record(sink->records[i]).lsn, start.start_lsn + i);
  }
  ControlPlane standby(cfg(), policy(), {});
  standby.submit_problem(std::make_shared<ToySumDataManager>(10000));
  standby.follow_snapshot(start.snapshot, start.start_lsn, 0.0);
  standby.follow_records(sink->records);
  EXPECT_EQ(snapshot(standby.core()), expected);
}

}  // namespace
}  // namespace hdcs::dist
