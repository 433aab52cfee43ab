// Checkpoint/restart through the write-ahead log: a server restart in the
// middle of a computation must lose nothing. Each scenario drives the
// server's ControlPlane over a WAL directory (tests/wal_core.hpp), "crashes"
// it, and recovers a fresh one from the directory — base
// checkpoint plus tail replay, then a new term — the path Server::start()
// takes. Merged progress survives via DataManager snapshots and replay;
// leases held by the dead incarnation's donors are requeued; results
// computed under the old term are fenced by epoch.

#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <thread>

#include "bio/seqgen.hpp"
#include "dboot/dboot.hpp"
#include "dist/checkpoint_file.hpp"
#include "dist/client.hpp"
#include "dist/scheduler_core.hpp"
#include "dist/server.hpp"
#include "dprml/dprml.hpp"
#include "dsearch/dsearch.hpp"
#include "phylo/simulate.hpp"
#include "tests/toy_problem.hpp"
#include "tests/wal_core.hpp"
#include "util/rng.hpp"
#include "util/vfs.hpp"

namespace hdcs::dist {
namespace {

using test::fresh_wal_dir;
using test::run_unit;
using test::ToySumDataManager;
using test::WalPlane;

SchedulerConfig cfg() {
  SchedulerConfig c;
  c.lease_timeout = 1e6;
  c.bounds.min_ops = 1;
  return c;
}

/// Drive `core` for `steps` request/submit cycles.
template <typename Algo>
void drive(WalPlane& core, ClientId cid, Algo& algo, int steps, double& t) {
  for (int i = 0; i < steps; ++i) {
    auto unit = core.request(cid, t);
    if (!unit) return;
    core.submit(cid, run_unit(algo, *unit), t + 0.5);
    t += 1;
  }
}

/// Finish every problem of a recovered core with one fresh donor.
template <typename Algo>
void finish(WalPlane& core, Algo& algo, double& t) {
  auto c = core.join("finisher", t);
  int spins = 0;
  while (!core.core().all_complete()) {
    auto unit = core.request(c, t);
    t += 1;
    if (!unit) {
      ASSERT_LT(++spins, 100000) << "recovered core stalled";
      continue;
    }
    core.submit(c, run_unit(algo, *unit), t);
  }
}

TEST(Checkpoint, ToyProblemSurvivesRestartMidRun) {
  test::register_toy_algorithm();
  auto make_dm = [] {
    return std::make_shared<ToySumDataManager>(100000, 7, /*stages=*/3);
  };
  std::uint64_t expected = make_dm()->expected();
  test::ToySumAlgorithm algo;
  algo.initialize(make_dm()->problem_data());
  std::string dir = fresh_wal_dir("ckpt_toy");
  double t = 0;
  {
    // Run 1: part of the work done, two units left in flight, then crash.
    WalPlane core1(dir, cfg(), 5000, {make_dm()});
    auto c1 = core1.join("c1", t);
    drive(core1, c1, algo, 3, t);
    ASSERT_TRUE(core1.request(c1, t));
    ASSERT_TRUE(core1.request(c1, t));
  }
  // Run 2: same problem inputs, recovered from the log, finished.
  auto dm2 = make_dm();
  WalPlane core2(dir, cfg(), 5000, {dm2}, t);
  ASSERT_TRUE(core2.recovered());
  EXPECT_EQ(core2.core().epoch(), 2u);
  finish(core2, algo, t);
  EXPECT_EQ(test::read_u64_result(core2.core().final_result(core2.pid())),
            expected);
  // The two in-flight units were re-delivered, not lost.
  EXPECT_GE(core2.core().stats().units_reissued, 2u);
  std::filesystem::remove_all(dir);
}

TEST(Checkpoint, RestoreValidatesShape) {
  test::register_toy_algorithm();
  std::string dir = fresh_wal_dir("ckpt_shape");
  {
    WalPlane core(dir, cfg(), 100, {std::make_shared<ToySumDataManager>(1000)});
    auto c = core.join("c", 0.0);
    ASSERT_TRUE(core.request(c, 0.0));
    core.compact(0.5);  // the base checkpoint now records one problem
  }
  // Recovering against a different problem set is refused outright —
  // replaying one job's log onto another job's problems would merge
  // garbage.
  EXPECT_THROW(WalPlane(dir, cfg(), 100, {}), ProtocolError);
  EXPECT_THROW(WalPlane(dir, cfg(), 100,
                       {std::make_shared<ToySumDataManager>(1000),
                        std::make_shared<ToySumDataManager>(1000)}),
               ProtocolError);
  // The refused attempts changed nothing: the right problems still recover.
  WalPlane ok(dir, cfg(), 100, {std::make_shared<ToySumDataManager>(1000)});
  EXPECT_TRUE(ok.recovered());
  std::filesystem::remove_all(dir);
}

TEST(Checkpoint, DSearchResumeMatchesUninterrupted) {
  dsearch::register_algorithm();
  Rng rng(21);
  auto queries = bio::make_queries(rng, 2, 60, bio::Alphabet::kProtein);
  bio::DatabaseSpec spec;
  spec.num_sequences = 40;
  spec.mean_length = 80;
  auto database = bio::make_database(rng, spec, queries);
  dsearch::DSearchConfig dcfg;
  dcfg.top_k = 8;
  auto reference = dsearch::search_serial(queries, database, dcfg);
  auto make_dm = [&] {
    return std::make_shared<dsearch::DSearchDataManager>(queries, database,
                                                         dcfg);
  };
  dsearch::DSearchAlgorithm algo;
  algo.initialize(make_dm()->problem_data());

  std::string dir = fresh_wal_dir("ckpt_dsearch");
  double t = 0;
  {
    WalPlane core1(dir, cfg(), 2e5, {make_dm()});
    auto c1 = core1.join("c1", t);
    drive(core1, c1, algo, 2, t);
    ASSERT_TRUE(core1.request(c1, t));  // one unit left in flight
  }
  auto dm2 = make_dm();
  WalPlane core2(dir, cfg(), 2e5, {dm2}, t);
  ASSERT_TRUE(core2.recovered());
  EXPECT_EQ(core2.core().stats().results_accepted, 2u);  // replayed
  finish(core2, algo, t);
  EXPECT_EQ(dm2->result(), reference);
  std::filesystem::remove_all(dir);
}

TEST(Checkpoint, DPRmlResumeMidStageMatchesSerial) {
  dprml::register_algorithm();
  Rng rng(23);
  auto tree = phylo::random_tree(rng, {7, 0.12, "t"});
  auto model = phylo::SubstModel::jc69();
  auto aln = phylo::simulate_alignment(rng, tree, model,
                                       phylo::RateModel::uniform(), {250});
  dprml::DPRmlConfig pcfg;
  pcfg.model_spec = "JC69";
  pcfg.branch_tolerance = 1e-3;
  pcfg.refine_passes = 1;
  pcfg.use_eval_cache = false;
  auto serial = dprml::build_tree_serial(aln, pcfg);
  auto make_dm = [&] {
    return std::make_shared<dprml::DPRmlDataManager>(aln, pcfg);
  };
  dprml::DPRmlAlgorithm algo;
  algo.initialize(make_dm()->problem_data());

  std::string dir = fresh_wal_dir("ckpt_dprml");
  double t = 0;
  {
    WalPlane core1(dir, cfg(), 1.0, {make_dm()});
    auto c1 = core1.join("c1", t);
    // Get into the middle of an eval stage, with one candidate in flight.
    drive(core1, c1, algo, 4, t);
    core1.request(c1, t);  // may be nullopt at a barrier — also fine
  }
  auto dm2 = make_dm();
  WalPlane core2(dir, cfg(), 1.0, {dm2}, t);
  ASSERT_TRUE(core2.recovered());
  EXPECT_GT(core2.core().stats().results_accepted, 0u);  // replayed
  finish(core2, algo, t);
  auto resumed = dm2->result();
  EXPECT_EQ(resumed.newick, serial.newick);
  EXPECT_DOUBLE_EQ(resumed.log_likelihood, serial.log_likelihood);
  std::filesystem::remove_all(dir);
}

TEST(Checkpoint, ServerLevelRestartOverTcp) {
  test::register_toy_algorithm();
  std::string dir = fresh_wal_dir("ckpt_server_tcp");
  ServerConfig scfg;
  scfg.scheduler.bounds.min_ops = 1000;
  scfg.policy_spec = "fixed:400000";
  scfg.tick_interval_s = 0.05;
  scfg.no_work_retry_s = 0.02;
  scfg.wal_dir = dir;

  std::uint64_t expected = ToySumDataManager(2000000, 5).expected();
  std::uint64_t first_epoch = 0;
  {
    Server server(scfg);
    server.submit_problem(std::make_shared<ToySumDataManager>(2000000, 5));
    server.start();
    // One donor does a single unit, then the server "crashes".
    ClientConfig ccfg;
    ccfg.server_port = server.port();
    ccfg.name = "early-bird";
    ccfg.crash_after_units = 2;  // computes one, crashes on the 2nd
    Client(ccfg).run();
    EXPECT_EQ(server.stats().results_accepted, 1u);
    first_epoch = server.epoch();
    server.stop();
  }
  {
    Server server(scfg);
    auto pid =
        server.submit_problem(std::make_shared<ToySumDataManager>(2000000, 5));
    server.start();  // replays the WAL left in `dir`
    EXPECT_EQ(server.epoch(), first_epoch + 1);
    EXPECT_EQ(server.stats().results_accepted, 1u);
    ClientConfig ccfg;
    ccfg.server_port = server.port();
    ccfg.name = "finisher";
    Client(ccfg).run();
    ASSERT_TRUE(server.wait_for_problem(pid, 30.0));
    EXPECT_EQ(test::read_u64_result(server.final_result(pid)), expected);
    server.stop();
  }
  std::filesystem::remove_all(dir);
}

TEST(Checkpoint, HedgedDuplicateInFlightAcrossRestoreDropped) {
  test::register_toy_algorithm();
  auto c = cfg();
  c.hedge_endgame = true;
  test::ToySumAlgorithm algo;
  algo.initialize(ToySumDataManager(1000, 3).problem_data());
  std::string dir = fresh_wal_dir("ckpt_hedge");

  // Two donors race the same unit (endgame hedge), then the server dies
  // with the hedged unit still in flight.
  std::optional<WorkUnit> original;
  std::optional<WorkUnit> hedged;
  {
    WalPlane core1(dir, c, 1000, {std::make_shared<ToySumDataManager>(1000, 3)});
    auto slow = core1.join("slow", 0.0);
    auto fast = core1.join("fast", 0.0);
    original = core1.request(slow, 0.0);
    ASSERT_TRUE(original);
    hedged = core1.request(fast, 1.0);
    ASSERT_TRUE(hedged);
    ASSERT_EQ(hedged->unit_id, original->unit_id);
  }
  auto dm2 = std::make_shared<ToySumDataManager>(1000, 3);
  WalPlane core2(dir, c, 1000, {dm2}, 2.0);
  // Both racers' leases died with their connections: one copy requeued.
  EXPECT_EQ(core2.core().pending_units(), 1u);

  // A fresh donor finishes the unit; both old racers' buffered results
  // then arrive late (resubmitted after their reconnect) and are fenced —
  // they carry the dead term. Stats stay exact: one accept, two fenced.
  auto fresh = core2.join("fresh", 2.0);
  auto reissued = core2.request(fresh, 2.0);
  ASSERT_TRUE(reissued);
  EXPECT_EQ(reissued->unit_id, original->unit_id);
  EXPECT_TRUE(core2.submit(fresh, run_unit(algo, *reissued), 3.0));
  EXPECT_TRUE(core2.core().problem_complete(core2.pid()));

  auto late1 = core2.join("slow-rejoined", 4.0);
  auto late2 = core2.join("fast-rejoined", 4.0);
  EXPECT_FALSE(core2.submit(late1, run_unit(algo, *original), 5.0));
  EXPECT_FALSE(core2.submit(late2, run_unit(algo, *hedged), 5.0));
  EXPECT_EQ(core2.core().stats().results_accepted, 1u);
  EXPECT_EQ(core2.core().stats().results_rejected_stale_epoch, 2u);
  EXPECT_EQ(test::read_u64_result(core2.core().final_result(core2.pid())),
            dm2->expected());
  std::filesystem::remove_all(dir);
}

TEST(Checkpoint, PreCrashLeaseFencedByEpochAfterWalRecovery) {
  test::register_toy_algorithm();
  test::ToySumAlgorithm algo;
  algo.initialize(ToySumDataManager(10000).problem_data());
  std::string dir = fresh_wal_dir("ckpt_fence");

  std::optional<WorkUnit> lost;
  {
    WalPlane core1(dir, cfg(), 1000,
                  {std::make_shared<ToySumDataManager>(10000)});
    auto c1 = core1.join("c1", 0.0);
    lost = core1.request(c1, 1.0);
    ASSERT_TRUE(lost);
  }
  // A power loss tears the unsynced tail off: the lease's RequestWork
  // record never reached the disk, so the recovered core never saw it.
  const std::string segment = dir + "/wal-0000000000000001.seg";
  WalRecord torn;
  torn.op = WalOp::kRequestWork;
  std::filesystem::resize_file(segment,
                               std::filesystem::file_size(segment) - 8 -
                                   encode_wal_record(torn).size());
  auto dm2 = std::make_shared<ToySumDataManager>(10000);
  WalPlane core2(dir, cfg(), 1000, {dm2}, 2.0);
  ASSERT_TRUE(core2.recovered());

  // No id gap: the recovered core hands the lost unit id out again, under
  // the new term.
  auto c2 = core2.join("c2", 2.0);
  auto fresh = core2.request(c2, 2.0);
  ASSERT_TRUE(fresh);
  EXPECT_EQ(fresh->unit_id, lost->unit_id);
  EXPECT_GT(fresh->epoch, lost->epoch);

  // The reconnecting donor's buffered result for the lost lease carries
  // the dead term and is fenced — never merged into the reissued unit.
  auto rejoined = core2.join("c1", 3.0);
  EXPECT_FALSE(core2.submit(rejoined, run_unit(algo, *lost), 3.0));
  EXPECT_EQ(core2.core().stats().results_rejected_stale_epoch, 1u);
  EXPECT_EQ(core2.core().stats().results_accepted, 0u);

  // The current lease's result is accepted and the job finishes exactly.
  EXPECT_TRUE(core2.submit(c2, run_unit(algo, *fresh), 4.0));
  double t = 5.0;
  finish(core2, algo, t);
  EXPECT_EQ(test::read_u64_result(core2.core().final_result(core2.pid())),
            dm2->expected());
  std::filesystem::remove_all(dir);
}

TEST(Checkpoint, AttemptCountsAndQuarantineSurviveRestore) {
  test::register_toy_algorithm();
  auto c = cfg();
  c.lease_timeout = 10.0;
  c.max_attempts_per_unit = 2;
  test::ToySumAlgorithm algo;
  algo.initialize(ToySumDataManager(1000).problem_data());
  std::string dir = fresh_wal_dir("ckpt_attempts");
  std::string copy = fresh_wal_dir("ckpt_attempts_copy");
  auto one_unit = [] { return std::make_shared<ToySumDataManager>(1000); };

  {
    // Burn attempt 1 before the crash.
    WalPlane core1(dir, c, 1000, {one_unit()});
    auto c1 = core1.join("c1", 0.0);
    ASSERT_TRUE(core1.request(c1, 0.0));
    core1.tick(20.0);  // expired: attempt 1 of 2 burned, unit requeued
  }

  // The recovered core remembers the burned attempt: one more failure
  // quarantines the unit instead of starting the count over.
  WalPlane core2(dir, c, 1000, {one_unit()}, 21.0);
  auto c2 = core2.join("c2", 21.0);
  auto second = core2.request(c2, 21.0);  // attempt 2
  ASSERT_TRUE(second);
  core2.tick(40.0);
  EXPECT_EQ(core2.core().stats().units_quarantined, 1u);
  auto c3 = core2.join("c3", 41.0);
  EXPECT_FALSE(core2.request(c3, 41.0).has_value());

  // Quarantine itself survives recovery: a third incarnation (from a copy
  // of the log as it stands) still refuses to reissue the unit, and the
  // late result of the second incarnation's lease is fenced there.
  std::filesystem::copy(dir, copy, std::filesystem::copy_options::recursive);
  {
    WalPlane core3(copy, c, 1000, {one_unit()}, 50.0);
    auto c4 = core3.join("c4", 50.0);
    EXPECT_FALSE(core3.request(c4, 50.0).has_value());
    EXPECT_EQ(core3.core().stats().units_quarantined, 1u);
    EXPECT_FALSE(core3.submit(c4, run_unit(algo, *second), 51.0));
    EXPECT_FALSE(core3.core().problem_complete(core3.pid()));
  }

  // Within its own term, a genuine late result still rescues the unit.
  EXPECT_TRUE(core2.submit(c2, run_unit(algo, *second), 51.0));
  EXPECT_TRUE(core2.core().problem_complete(core2.pid()));
  EXPECT_EQ(test::read_u64_result(core2.core().final_result(core2.pid())),
            ToySumDataManager(1000).expected());
  std::filesystem::remove_all(dir);
  std::filesystem::remove_all(copy);
}

TEST(Checkpoint, ServerAutosavesAndRestoresFromDisk) {
  // The server's autosave is WAL compaction: every wal_compact_every
  // records the housekeeping thread folds the log into base.ckpt. A
  // restart restores that checkpoint and replays the tail behind it.
  test::register_toy_algorithm();
  std::string dir = fresh_wal_dir("ckpt_server_autosave");
  ServerConfig scfg;
  scfg.scheduler.bounds.min_ops = 1000;
  scfg.policy_spec = "fixed:400000";
  scfg.tick_interval_s = 0.02;
  scfg.no_work_retry_s = 0.02;
  scfg.wal_dir = dir;
  scfg.wal_compact_every = 4;

  std::uint64_t expected = ToySumDataManager(2000000, 5).expected();
  const std::string base = dir + "/base.ckpt";
  {
    Server server(scfg);
    server.submit_problem(std::make_shared<ToySumDataManager>(2000000, 5));
    server.start();
    ClientConfig ccfg;
    ccfg.server_port = server.port();
    ccfg.name = "early-bird";
    ccfg.crash_after_units = 2;  // computes one unit, vanishes on the 2nd
    Client(ccfg).run();
    // Wait for the housekeeping loop's compaction to land on disk after
    // the accepted result.
    for (int i = 0; i < 200 && !vfs::exists(base); ++i) {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    server.compact_wal();  // and once more, deterministically past it
    server.stop();         // "kill -9": only the directory carries over
  }
  ASSERT_TRUE(vfs::exists(base));
  ASSERT_TRUE(read_checkpoint_file(base).has_value());
  {
    Server server(scfg);
    auto pid =
        server.submit_problem(std::make_shared<ToySumDataManager>(2000000, 5));
    server.start();
    EXPECT_EQ(server.stats().results_accepted, 1u);
    ClientConfig ccfg;
    ccfg.server_port = server.port();
    ccfg.name = "finisher";
    Client(ccfg).run();
    ASSERT_TRUE(server.wait_for_problem(pid, 30.0));
    EXPECT_EQ(test::read_u64_result(server.final_result(pid)), expected);
    server.stop();
  }
  std::filesystem::remove_all(dir);
}

TEST(CheckpointFile, RoundTripAndMissingFile) {
  std::string path = testing::TempDir() + "hdcs_ckpt_roundtrip.bin";
  std::remove(path.c_str());
  EXPECT_EQ(read_checkpoint_file(path), std::nullopt);

  ByteWriter w;
  w.str("durable scheduler state");
  w.u64(123456789);
  auto payload = w.take();
  write_checkpoint_file(path, payload);
  auto back = read_checkpoint_file(path);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(*back, payload);
  std::remove(path.c_str());
}

TEST(CheckpointFile, AtomicOverwriteKeepsLatest) {
  std::string path = testing::TempDir() + "hdcs_ckpt_overwrite.bin";
  ByteWriter w1;
  w1.str("first");
  write_checkpoint_file(path, w1.data());
  ByteWriter w2;
  w2.str("second checkpoint, longer than the first");
  write_checkpoint_file(path, w2.data());
  auto back = read_checkpoint_file(path);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(std::vector<std::byte>(w2.data().begin(), w2.data().end()), *back);
  std::remove(path.c_str());
}

TEST(CheckpointFile, CorruptionAndTruncationDetected) {
  std::string path = testing::TempDir() + "hdcs_ckpt_corrupt.bin";
  ByteWriter w;
  w.str("state that must not be trusted after bit rot");
  write_checkpoint_file(path, w.data());

  // Flip one payload byte in place: CRC must catch it.
  {
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(20);  // inside the payload (header is 16 bytes)
    char b = 0;
    f.seekg(20);
    f.read(&b, 1);
    b = static_cast<char>(b ^ 0x40);
    f.seekp(20);
    f.write(&b, 1);
  }
  EXPECT_THROW(read_checkpoint_file(path), ProtocolError);

  // Truncate the file mid-payload: also detected, not fed to restore().
  write_checkpoint_file(path, w.data());
  {
    std::ofstream f(path, std::ios::binary | std::ios::trunc);
    ByteWriter part;
    part.u32(0x484b4350);  // valid magic, then nothing
    f.write(reinterpret_cast<const char*>(part.data().data()),
            static_cast<std::streamsize>(part.data().size()));
  }
  EXPECT_THROW(read_checkpoint_file(path), ProtocolError);
  std::remove(path.c_str());
}

TEST(Checkpoint, DBootSnapshotRoundTrips) {
  Rng rng(31);
  auto tree = phylo::random_tree(rng, {6, 0.15, "t"});
  auto model = phylo::SubstModel::jc69();
  auto aln = phylo::simulate_alignment(rng, tree, model,
                                       phylo::RateModel::uniform(), {200});
  dboot::DBootConfig bcfg;
  bcfg.replicates = 20;
  dboot::DBootDataManager dm(aln, bcfg);
  SizeHint hint{1.0};
  ASSERT_TRUE(dm.next_unit(hint));  // one replicate handed out

  ByteWriter w;
  dm.snapshot(w);
  dboot::DBootDataManager dm2(aln, bcfg);
  ByteReader r{std::span<const std::byte>(w.data())};
  dm2.restore(r);
  r.expect_end();
  // The restored manager continues from replicate 1, not 0.
  auto unit = dm2.next_unit(hint);
  ASSERT_TRUE(unit);
  ByteReader pr(unit->payload);
  EXPECT_EQ(pr.u64(), 1u);
}

TEST(CheckpointFile, WriteFailureLeavesOldCheckpointAndNoTmp) {
  std::string path = testing::TempDir() + "hdcs_ckpt_faultclean.bin";
  std::remove(path.c_str());
  ByteWriter w1;
  w1.str("the good old state");
  write_checkpoint_file(path, w1.data());

  ByteWriter w2;
  w2.str("the state the dying disk rejects");
  {
    vfs::StorageFaultSpec spec;
    spec.write_error_prob = 1.0;
    spec.path_filter = "hdcs_ckpt_faultclean";
    vfs::ScopedStorageFaultPlan scoped(spec);
    EXPECT_THROW(write_checkpoint_file(path, w2.data()), IoError);
  }
  // The failed save must not have touched the durable copy, and its tmp
  // must be cleaned up (a tmp graveyard eats the disk budget).
  auto back = read_checkpoint_file(path);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(std::vector<std::byte>(w1.data().begin(), w1.data().end()), *back);
  EXPECT_FALSE(vfs::exists(path + ".tmp"));
  std::remove(path.c_str());
}

TEST(CheckpointFile, FaultStormFuzzNeverServesGarbage) {
  // Seeded storms over the tmp+fsync+rename save path, torn renames
  // included: afterwards the file is either the old checkpoint, the new
  // one, or detectably corrupt (ProtocolError) — never silently wrong and
  // never a crash.
  ByteWriter old_w;
  old_w.str("old but consistent scheduler state");
  const auto old_payload =
      std::vector<std::byte>(old_w.data().begin(), old_w.data().end());
  for (std::uint64_t seed = 1; seed <= 25; ++seed) {
    std::string path = testing::TempDir() + "hdcs_ckpt_fuzz.bin";
    std::remove(path.c_str());
    std::remove((path + ".tmp").c_str());
    write_checkpoint_file(path, old_payload);

    ByteWriter new_w;
    new_w.str("new state, seed ");
    new_w.u64(seed);
    const auto new_payload =
        std::vector<std::byte>(new_w.data().begin(), new_w.data().end());
    bool saved = false;
    {
      vfs::StorageFaultSpec spec;
      spec.seed = seed;
      spec.open_error_prob = 0.15;
      spec.write_error_prob = 0.2;
      spec.short_write_prob = 0.15;
      spec.sync_error_prob = 0.2;
      spec.rename_error_prob = 0.15;
      spec.torn_rename_prob = 0.2;
      spec.path_filter = "hdcs_ckpt_fuzz";
      vfs::ScopedStorageFaultPlan scoped(spec);
      try {
        write_checkpoint_file(path, new_payload);
        saved = true;
      } catch (const IoError&) {
      }
    }
    try {
      auto back = read_checkpoint_file(path);
      ASSERT_TRUE(back.has_value()) << "seed " << seed;
      if (saved) {
        EXPECT_EQ(*back, new_payload) << "seed " << seed;
      } else {
        EXPECT_TRUE(*back == old_payload || *back == new_payload)
            << "seed " << seed;
      }
    } catch (const ProtocolError&) {
      // A torn rename left a truncated envelope: detected, not consumed.
      EXPECT_FALSE(saved) << "seed " << seed;
    }
    std::remove(path.c_str());
    std::remove((path + ".tmp").c_str());
  }
}

}  // namespace
}  // namespace hdcs::dist
