// Chaos: the whole system — TCP server, resilient donors, checkpointing —
// driven through injected network faults, donor churn, and a server
// kill/restart that recovers only from the on-disk checkpoint. The final
// merged answers must be byte-identical to a fault-free local run: faults
// and crashes may cost time, never correctness.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "bio/seqgen.hpp"
#include "dist/client.hpp"
#include "dist/local_runner.hpp"
#include "dist/server.hpp"
#include "dprml/dprml.hpp"
#include "dsearch/dsearch.hpp"
#include "net/fault.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "phylo/simulate.hpp"
#include "sim/sim_driver.hpp"
#include "tests/toy_problem.hpp"
#include "util/rng.hpp"
#include "util/vfs.hpp"

namespace hdcs::dist {
namespace {

/// Reserve a loopback port the restarted server can come back on. (Bind an
/// ephemeral port, read it, release it — fine for a single-process test.)
std::uint16_t pick_port() {
  auto listener = net::TcpListener::bind(0);
  std::uint16_t port = listener.port();
  listener.close();
  return port;
}

std::uint64_t total_injected_faults() {
  auto& reg = obs::Registry::global();
  return reg.counter("net.fault.connects_refused").value() +
         reg.counter("net.fault.recv_disconnects").value() +
         reg.counter("net.fault.sends_truncated").value() +
         reg.counter("net.fault.bytes_corrupted").value() +
         reg.counter("net.fault.delays_injected").value();
}

/// CI artifact hook: when HDCS_TRACE_DIR is set, persist a test's in-memory
/// trace to <dir>/<name>.jsonl. The chaos CI jobs upload those timelines
/// and lint every line with `trace_summary --json`, so a schema drift in
/// either emitter fails the job even if no assertion here noticed.
void dump_trace(const obs::Tracer& tracer, const std::string& name) {
  const char* dir = std::getenv("HDCS_TRACE_DIR");
  if (dir == nullptr || *dir == '\0') return;
  std::filesystem::create_directories(dir);
  std::ofstream out(std::filesystem::path(dir) / (name + ".jsonl"));
  for (const auto& line : tracer.lines()) out << line << '\n';
}

TEST(Chaos, RealWorkloadsSurviveServerKillDonorChurnAndFrameFaults) {
  dsearch::register_algorithm();
  dprml::register_algorithm();

  // --- Build the two workloads and their fault-free reference answers.
  Rng rng(117);
  auto queries = bio::make_queries(rng, 2, 60, bio::Alphabet::kProtein);
  bio::DatabaseSpec spec;
  spec.num_sequences = 40;
  spec.mean_length = 80;
  auto database = bio::make_database(rng, spec, queries);
  dsearch::DSearchConfig dcfg;
  dcfg.top_k = 8;

  auto tree = phylo::random_tree(rng, {7, 0.12, "t"});
  auto aln = phylo::simulate_alignment(rng, tree, phylo::SubstModel::jc69(),
                                       phylo::RateModel::uniform(), {250});
  dprml::DPRmlConfig pcfg;
  pcfg.model_spec = "JC69";
  pcfg.branch_tolerance = 1e-3;
  pcfg.eval_passes = 1;
  pcfg.refine_passes = 1;
  pcfg.use_eval_cache = false;

  std::vector<std::byte> ref_ds, ref_ml;
  {
    dsearch::DSearchDataManager dm(queries, database, dcfg);
    ref_ds = run_locally(dm, 2e5);
  }
  {
    dprml::DPRmlDataManager dm(aln, pcfg);
    ref_ml = run_locally(dm, 1.0);
  }

  // --- Server config: aggressive ticks, short leases, durable autosave.
  std::string ckpt = testing::TempDir() + "hdcs_chaos_ckpt.bin";
  std::remove(ckpt.c_str());
  ServerConfig scfg;
  scfg.port = pick_port();
  scfg.scheduler.bounds.min_ops = 1;
  scfg.scheduler.lease_timeout = 1.5;
  scfg.scheduler.client_timeout = 1.5;
  scfg.scheduler.hedge_endgame = true;
  scfg.policy_spec = "adaptive:0.02";
  scfg.tick_interval_s = 0.02;
  scfg.no_work_retry_s = 0.02;
  scfg.checkpoint_path = ckpt;
  scfg.checkpoint_interval_s = 0.05;

  auto& saves = obs::Registry::global().counter("checkpoint.saves");
  std::uint64_t saves_before = saves.value();
  std::uint64_t faults_before = total_injected_faults();

  // --- The storm: every TCP operation in the process rides through this.
  net::FaultSpec storm;
  storm.seed = 2026;
  storm.connect_refuse_prob = 0.10;
  storm.recv_disconnect_prob = 0.01;
  storm.send_truncate_prob = 0.01;
  storm.corrupt_prob = 0.01;
  storm.delay_prob = 0.05;
  storm.delay_max_s = 0.002;
  net::ScopedFaultPlan scoped(storm);

  auto server = std::make_unique<Server>(scfg);
  server->start();
  auto dm_ds =
      std::make_shared<dsearch::DSearchDataManager>(queries, database, dcfg);
  auto dm_ml = std::make_shared<dprml::DPRmlDataManager>(aln, pcfg);
  auto pid_ds = server->submit_problem(dm_ds);
  auto pid_ml = server->submit_problem(dm_ml);

  // --- Resilient donors: retry forever, must never exit on a fault.
  constexpr int kDonors = 3;
  std::vector<std::thread> donors;
  std::vector<ClientRunStats> donor_stats(kDonors);
  std::atomic<int> donor_failures{0};
  for (int i = 0; i < kDonors; ++i) {
    donors.emplace_back([&, i] {
      ClientConfig ccfg;
      ccfg.server_port = scfg.port;
      ccfg.name = "resilient-" + std::to_string(i);
      ccfg.max_connect_attempts = 0;  // service mode: outlast any outage
      try {
        donor_stats[static_cast<std::size_t>(i)] = Client(ccfg).run();
      } catch (const Error&) {
        donor_failures.fetch_add(1);
      }
    });
  }
  // --- Churn: donors that crash mid-lease, over and over.
  std::atomic<bool> stop_churn{false};
  std::thread churn([&] {
    int n = 0;
    while (!stop_churn.load()) {
      ClientConfig ccfg;
      ccfg.server_port = scfg.port;
      ccfg.name = "churn-" + std::to_string(n++);
      ccfg.crash_after_units = 2;
      ccfg.send_heartbeats = false;
      ccfg.max_connect_attempts = 3;
      try {
        Client(ccfg).run();
      } catch (const Error&) {
        // Churn donors are *expected* casualties (refused connects, etc.).
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
  });

  // --- Let progress and at least one durable autosave accumulate...
  for (int i = 0; i < 500 && saves.value() == saves_before; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  ASSERT_GT(saves.value(), saves_before) << "no autosave reached disk";
  std::this_thread::sleep_for(std::chrono::milliseconds(300));

  // --- ...then kill the server. Everything in memory is gone; donors are
  // mid-loop and must fall back to reconnect-with-backoff.
  server.reset();
  std::this_thread::sleep_for(std::chrono::milliseconds(200));

  // --- Restart on the same port from the on-disk checkpoint only.
  server = std::make_unique<Server>(scfg);
  auto dm_ds2 =
      std::make_shared<dsearch::DSearchDataManager>(queries, database, dcfg);
  auto dm_ml2 = std::make_shared<dprml::DPRmlDataManager>(aln, pcfg);
  auto pid_ds2 = server->submit_problem(dm_ds2);
  auto pid_ml2 = server->submit_problem(dm_ml2);
  ASSERT_EQ(pid_ds2, pid_ds);  // same submit order -> same problem ids
  ASSERT_EQ(pid_ml2, pid_ml);
  server->start();  // restore_on_start reads the autosaved checkpoint

  ASSERT_TRUE(server->wait_for_problem(pid_ds2, 120.0)) << "DSEARCH stalled";
  ASSERT_TRUE(server->wait_for_problem(pid_ml2, 120.0)) << "DPRml stalled";
  stop_churn.store(true);
  for (auto& t : donors) t.join();
  churn.join();

  // --- Byte-identical answers despite kill, churn, and frame faults.
  EXPECT_EQ(server->final_result(pid_ds2), ref_ds);
  EXPECT_EQ(server->final_result(pid_ml2), ref_ml);

  // --- No resilient donor exited; the outage forced real reconnects.
  EXPECT_EQ(donor_failures.load(), 0);
  std::uint64_t reconnects = 0;
  for (const auto& s : donor_stats) reconnects += s.reconnects;
  EXPECT_GE(reconnects, 1u);

  // --- Faults actually fired, were detected, and were never merged.
  EXPECT_GT(total_injected_faults(), faults_before);
  server->stop();
  std::remove(ckpt.c_str());
}

int count_events(const obs::Tracer& tracer, const std::string& ev) {
  int n = 0;
  for (const auto& line : tracer.lines()) {
    if (obs::parse_trace_line(line).ev == ev) ++n;
  }
  return n;
}

TEST(Chaos, LyingDonorsCannotCorruptResultsAcrossServerRestart) {
  // 20% of the fleet lies deterministically: one donor in five corrupts
  // every payload it produces — each lie carrying a *matching* digest, so
  // only replication voting can catch it. Mid-run the server is killed and
  // restarted from its checkpoint (partial votes and the reputation ledger
  // ride the file). The merged answers must still be byte-identical to
  // fault-free local runs, and the liar must end up blacklisted.
  dsearch::register_algorithm();
  dprml::register_algorithm();

  Rng rng(211);
  auto queries = bio::make_queries(rng, 2, 60, bio::Alphabet::kProtein);
  bio::DatabaseSpec spec;
  spec.num_sequences = 40;
  spec.mean_length = 80;
  auto database = bio::make_database(rng, spec, queries);
  dsearch::DSearchConfig dcfg;
  dcfg.top_k = 8;
  auto tree = phylo::random_tree(rng, {7, 0.12, "t"});
  auto aln = phylo::simulate_alignment(rng, tree, phylo::SubstModel::jc69(),
                                       phylo::RateModel::uniform(), {250});
  dprml::DPRmlConfig pcfg;
  pcfg.model_spec = "JC69";
  pcfg.branch_tolerance = 1e-3;
  pcfg.eval_passes = 1;
  pcfg.refine_passes = 1;
  pcfg.use_eval_cache = false;

  std::vector<std::byte> ref_ds, ref_ml;
  {
    dsearch::DSearchDataManager dm(queries, database, dcfg);
    ref_ds = run_locally(dm, 2e5);
  }
  {
    dprml::DPRmlDataManager dm(aln, pcfg);
    ref_ml = run_locally(dm, 1.0);
  }

  std::string ckpt = testing::TempDir() + "hdcs_chaos_integrity_ckpt.bin";
  std::remove(ckpt.c_str());
  obs::Tracer tracer;  // shared across both server incarnations
  tracer.to_memory();
  ServerConfig scfg;
  scfg.port = pick_port();
  scfg.scheduler.bounds.min_ops = 1;
  scfg.scheduler.lease_timeout = 2.0;
  scfg.scheduler.client_timeout = 2.0;
  scfg.scheduler.hedge_endgame = true;
  scfg.scheduler.replication_factor = 2;
  scfg.scheduler.quorum = 2;
  scfg.scheduler.blacklist_after = 2;
  scfg.scheduler.spot_check_rate = 0.05;
  scfg.policy_spec = "adaptive:0.02";
  scfg.tick_interval_s = 0.02;
  scfg.no_work_retry_s = 0.02;
  scfg.checkpoint_path = ckpt;
  scfg.checkpoint_interval_s = 0.05;
  scfg.tracer = &tracer;

  auto& saves = obs::Registry::global().counter("checkpoint.saves");
  std::uint64_t saves_before = saves.value();

  auto server = std::make_unique<Server>(scfg);
  server->start();
  auto pid_ds = server->submit_problem(
      std::make_shared<dsearch::DSearchDataManager>(queries, database, dcfg));
  auto pid_ml =
      server->submit_problem(std::make_shared<dprml::DPRmlDataManager>(aln, pcfg));

  constexpr int kDonors = 5;  // donor 0 lies on every unit it touches
  std::vector<std::thread> donors;
  std::atomic<int> donor_failures{0};
  auto start_donor = [&](int i) {
    donors.emplace_back([&, i] {
      ClientConfig ccfg;
      ccfg.server_port = scfg.port;
      ccfg.name = i == 0 ? "liar" : "honest-" + std::to_string(i);
      ccfg.max_connect_attempts = 0;  // outlast the restart
      if (i == 0) {
        ccfg.corrupt_rate = 1.0;
        ccfg.corrupt_seed = 7;
      }
      try {
        Client(ccfg).run();
      } catch (const Error&) {
        donor_failures.fetch_add(1);
      }
    });
  };
  // The liar starts alone and the honest donors join once it has cast
  // blacklist_after votes. Each of those units still needs an honest
  // replica, so every one of them is a vote the liar loses, however fast
  // the honest donors drain the rest of the work.
  auto liar_votes = [&] {
    std::uint64_t liar = 0;
    int votes = 0;
    for (const auto& line : tracer.lines()) {
      auto rec = obs::parse_trace_line(line);
      if (rec.ev == "client_joined" && rec.text("name") == "liar") {
        liar = static_cast<std::uint64_t>(rec.number("client"));
      } else if (rec.ev == "vote_recorded" && liar != 0 &&
                 static_cast<std::uint64_t>(rec.number("client")) == liar) {
        votes += 1;
      }
    }
    return votes;
  };
  start_donor(0);
  const int needed = scfg.scheduler.blacklist_after;
  for (int i = 0; i < 1000 && liar_votes() < needed; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_GE(liar_votes(), needed)
      << "the liar never got work";
  for (int i = 1; i < kDonors; ++i) start_donor(i);

  // Progress + one durable autosave, then kill: votes mid-flight and the
  // liar's accumulating loss record survive only through the checkpoint.
  for (int i = 0; i < 500 && saves.value() == saves_before; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  ASSERT_GT(saves.value(), saves_before) << "no autosave reached disk";
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  auto rejected_before_kill = server->stats().results_rejected_mismatch;
  server.reset();
  std::this_thread::sleep_for(std::chrono::milliseconds(200));

  server = std::make_unique<Server>(scfg);
  auto pid_ds2 = server->submit_problem(
      std::make_shared<dsearch::DSearchDataManager>(queries, database, dcfg));
  auto pid_ml2 =
      server->submit_problem(std::make_shared<dprml::DPRmlDataManager>(aln, pcfg));
  ASSERT_EQ(pid_ds2, pid_ds);
  ASSERT_EQ(pid_ml2, pid_ml);
  server->start();  // restore_on_start reads the autosaved checkpoint

  ASSERT_TRUE(server->wait_for_problem(pid_ds2, 120.0)) << "DSEARCH stalled";
  ASSERT_TRUE(server->wait_for_problem(pid_ml2, 120.0)) << "DPRml stalled";
  for (auto& t : donors) t.join();
  EXPECT_EQ(donor_failures.load(), 0);

  // Byte-identical despite a 20% lying fleet and a mid-run restart.
  EXPECT_EQ(server->final_result(pid_ds2), ref_ds);
  EXPECT_EQ(server->final_result(pid_ml2), ref_ml);

  // Corrupt payloads were outvoted, never merged, and the liar was caught.
  auto rejected_total =
      rejected_before_kill + server->stats().results_rejected_mismatch;
  EXPECT_GT(rejected_total, 0u);
  EXPECT_GE(count_events(tracer, "donor_blacklisted"), 1);
  bool liar_banned = false;
  for (const auto& line : tracer.lines()) {
    if (obs::parse_trace_line(line).ev == "donor_blacklisted" &&
        line.find("\"name\":\"liar\"") != std::string::npos) {
      liar_banned = true;
    }
  }
  EXPECT_TRUE(liar_banned);
  server->stop();
  std::remove(ckpt.c_str());
  dump_trace(tracer, "chaos_lying_donors_tcp_restart");
}

TEST(Chaos, LyingDonorsInSimulatedFleetMatchFaultFreeRuns) {
  // The simulator drives the same SchedulerCore: 2 of 10 machines lie on
  // every unit. Both applications' final payloads must be byte-identical
  // to fault-free local runs, with the liars outvoted and blacklisted.
  dsearch::register_algorithm();
  dprml::register_algorithm();

  Rng rng(223);
  auto queries = bio::make_queries(rng, 2, 60, bio::Alphabet::kProtein);
  bio::DatabaseSpec spec;
  spec.num_sequences = 30;
  spec.mean_length = 80;
  auto database = bio::make_database(rng, spec, queries);
  dsearch::DSearchConfig dcfg;
  dcfg.top_k = 8;
  auto tree = phylo::random_tree(rng, {6, 0.12, "t"});
  auto aln = phylo::simulate_alignment(rng, tree, phylo::SubstModel::jc69(),
                                       phylo::RateModel::uniform(), {200});
  dprml::DPRmlConfig pcfg;
  pcfg.model_spec = "JC69";
  pcfg.branch_tolerance = 1e-3;
  pcfg.eval_passes = 1;
  pcfg.refine_passes = 1;
  pcfg.use_eval_cache = false;

  std::vector<std::byte> ref_ds, ref_ml;
  {
    dsearch::DSearchDataManager dm(queries, database, dcfg);
    ref_ds = run_locally(dm, 2e4);
  }
  {
    dprml::DPRmlDataManager dm(aln, pcfg);
    ref_ml = run_locally(dm, 1.0);
  }

  obs::Tracer tracer;
  tracer.to_memory();
  sim::SimConfig simcfg;
  simcfg.reference_ops_per_sec = 1e6;
  simcfg.scheduler.lease_timeout = 1e5;
  simcfg.scheduler.bounds.min_ops = 1;
  simcfg.scheduler.replication_factor = 2;
  simcfg.scheduler.quorum = 2;
  simcfg.scheduler.blacklist_after = 2;
  simcfg.scheduler.spot_check_rate = 0.05;
  simcfg.policy_spec = "adaptive:0.02";  // many units -> many votes
  simcfg.no_work_retry_s = 0.25;
  simcfg.tracer = &tracer;

  auto fleet = sim::lab_fleet(10);
  fleet[0].corrupt_rate = 1.0;  // 20% of the fleet lies deterministically
  fleet[1].corrupt_rate = 1.0;
  sim::SimDriver sim(simcfg, fleet);
  auto pid_ds = sim.add_problem(
      std::make_shared<dsearch::DSearchDataManager>(queries, database, dcfg));
  auto pid_ml =
      sim.add_problem(std::make_shared<dprml::DPRmlDataManager>(aln, pcfg));
  auto outcome = sim.run();

  EXPECT_EQ(outcome.final_results.at(pid_ds), ref_ds);
  EXPECT_EQ(outcome.final_results.at(pid_ml), ref_ml);
  EXPECT_GT(outcome.scheduler.results_rejected_mismatch, 0u);
  EXPECT_GE(outcome.scheduler.donors_blacklisted, 1u);
  EXPECT_GE(count_events(tracer, "donor_blacklisted"), 1);
  EXPECT_GT(outcome.scheduler.vote_quorums, 0u);
  dump_trace(tracer, "chaos_lying_donors_sim");
}

TEST(Chaos, VoteTraceSchemaSharedAcrossServerAndSim) {
  // Pinned schema: the TCP server (wall clock) and the simulator (virtual
  // clock) must emit replication/vote events with exactly the same fields,
  // so one trace tool reads either. Both runs include a lying donor so
  // every event type actually fires.
  test::register_toy_algorithm();

  // Server half: two donors at first, so the liar is guaranteed to be the
  // second voter on every early unit; a third joins to break the ties.
  obs::Tracer server_tracer;
  server_tracer.to_memory();
  {
    ServerConfig cfg;
    cfg.scheduler.bounds.min_ops = 1000;
    cfg.scheduler.replication_factor = 2;
    cfg.scheduler.quorum = 2;
    cfg.scheduler.blacklist_after = 1;
    cfg.policy_spec = "fixed:1000";
    cfg.tick_interval_s = 0.02;
    cfg.no_work_retry_s = 0.02;
    cfg.tracer = &server_tracer;
    Server server(cfg);
    server.start();
    auto pid = server.submit_problem(std::make_shared<test::ToySumDataManager>(4000));

    auto donor = [&](const std::string& name, double corrupt_rate) {
      ClientConfig ccfg;
      ccfg.server_port = server.port();
      ccfg.name = name;
      ccfg.corrupt_rate = corrupt_rate;
      ccfg.corrupt_seed = 11;
      return std::thread([ccfg] { Client(ccfg).run(); });
    };
    auto liar = donor("liar", 1.0);
    auto h1 = donor("h1", 0.0);
    std::this_thread::sleep_for(std::chrono::milliseconds(300));
    auto h2 = donor("h2", 0.0);
    ASSERT_TRUE(server.wait_for_problem(pid, 60.0));
    liar.join();
    h1.join();
    h2.join();
    server.stop();
  }

  // Simulator half: three machines, one lying.
  obs::Tracer sim_tracer;
  sim_tracer.to_memory();
  {
    sim::SimConfig simcfg;
    simcfg.reference_ops_per_sec = 1e6;
    simcfg.scheduler.lease_timeout = 1e5;
    simcfg.scheduler.bounds.min_ops = 1;
    simcfg.scheduler.replication_factor = 2;
    simcfg.scheduler.quorum = 2;
    simcfg.scheduler.blacklist_after = 1;
    simcfg.policy_spec = "fixed:250000";
    simcfg.tracer = &sim_tracer;
    auto fleet = sim::lab_fleet(3);
    fleet[0].corrupt_rate = 1.0;
    sim::SimDriver sim(simcfg, fleet);
    sim.add_problem(std::make_shared<test::ToySumDataManager>(5000000));
    sim.run();
  }

  auto first_fields = [](const obs::Tracer& tracer, const char* ev) {
    std::vector<std::string> keys;
    for (const auto& line : tracer.lines()) {
      auto rec = obs::parse_trace_line(line);
      if (rec.ev != ev) continue;
      for (const auto& [k, v] : rec.fields) {
        if (k != "schema" && k != "t" && k != "ev") keys.push_back(k);
      }
      return keys;  // fields is an ordered map: keys come out sorted
    }
    return keys;
  };

  const std::map<std::string, std::vector<std::string>> pinned = {
      {"replica_issued", {"client", "cost_ops", "problem", "stage", "unit"}},
      {"unit_replicated", {"problem", "quorum", "replicas", "spot_check", "unit"}},
      {"vote_recorded", {"client", "digest", "problem", "unit", "votes"}},
      {"vote_quorum", {"digest", "problem", "unit", "votes"}},
      {"vote_mismatch", {"problem", "tie_breakers", "unit", "votes"}},
      {"result_rejected", {"name", "problem", "reason", "unit"}},
      {"donor_blacklisted", {"losses", "name", "score"}},
  };
  for (const auto& [ev, expected] : pinned) {
    auto server_keys = first_fields(server_tracer, ev.c_str());
    auto sim_keys = first_fields(sim_tracer, ev.c_str());
    ASSERT_FALSE(server_keys.empty()) << "server emitted no " << ev;
    ASSERT_FALSE(sim_keys.empty()) << "sim emitted no " << ev;
    EXPECT_EQ(server_keys, sim_keys) << ev;
    EXPECT_EQ(server_keys, expected) << ev;
  }
  dump_trace(server_tracer, "chaos_vote_schema_server");
  dump_trace(sim_tracer, "chaos_vote_schema_sim");
}

TEST(Chaos, WalReplayLosesNoAcceptedResultAcrossKill) {
  // A WAL'd server is killed with results accepted but NO recent
  // checkpoint (checkpointing is off entirely): everything the restarted
  // server knows comes from base-snapshot + record replay. Every result
  // acked before the kill must still be counted after it — the durability
  // window is zero, not checkpoint_interval_s.
  dsearch::register_algorithm();
  dprml::register_algorithm();

  Rng rng(311);
  auto queries = bio::make_queries(rng, 2, 60, bio::Alphabet::kProtein);
  bio::DatabaseSpec spec;
  spec.num_sequences = 40;
  spec.mean_length = 80;
  auto database = bio::make_database(rng, spec, queries);
  dsearch::DSearchConfig dcfg;
  dcfg.top_k = 8;
  auto tree = phylo::random_tree(rng, {7, 0.12, "t"});
  auto aln = phylo::simulate_alignment(rng, tree, phylo::SubstModel::jc69(),
                                       phylo::RateModel::uniform(), {250});
  dprml::DPRmlConfig pcfg;
  pcfg.model_spec = "JC69";
  pcfg.branch_tolerance = 1e-3;
  pcfg.eval_passes = 1;
  pcfg.refine_passes = 1;
  pcfg.use_eval_cache = false;

  std::vector<std::byte> ref_ds, ref_ml;
  {
    dsearch::DSearchDataManager dm(queries, database, dcfg);
    ref_ds = run_locally(dm, 2e5);
  }
  {
    dprml::DPRmlDataManager dm(aln, pcfg);
    ref_ml = run_locally(dm, 1.0);
  }

  std::string wal_dir = testing::TempDir() + "hdcs_chaos_wal";
  std::filesystem::remove_all(wal_dir);
  obs::Tracer tracer;
  tracer.to_memory();
  ServerConfig scfg;
  scfg.port = pick_port();
  scfg.scheduler.bounds.min_ops = 1;
  scfg.scheduler.lease_timeout = 1.5;
  scfg.scheduler.client_timeout = 1.5;
  scfg.policy_spec = "adaptive:0.02";
  scfg.tick_interval_s = 0.02;
  scfg.no_work_retry_s = 0.02;
  scfg.wal_dir = wal_dir;
  scfg.wal_segment_bytes = 16 << 10;  // force rotations under load
  scfg.tracer = &tracer;

  auto server = std::make_unique<Server>(scfg);
  server->start();
  auto pid_ds = server->submit_problem(
      std::make_shared<dsearch::DSearchDataManager>(queries, database, dcfg));
  auto pid_ml =
      server->submit_problem(std::make_shared<dprml::DPRmlDataManager>(aln, pcfg));

  constexpr int kDonors = 3;
  std::vector<std::thread> donors;
  std::atomic<int> donor_failures{0};
  for (int i = 0; i < kDonors; ++i) {
    donors.emplace_back([&, i] {
      ClientConfig ccfg;
      ccfg.server_port = scfg.port;
      ccfg.name = "durable-" + std::to_string(i);
      ccfg.max_connect_attempts = 0;
      try {
        Client(ccfg).run();
      } catch (const Error&) {
        donor_failures.fetch_add(1);
      }
    });
  }

  // Let real progress accrue, then kill. The accepted count read here is a
  // floor for what replay must reproduce: each of these results was WAL'd
  // and fsynced *before* its ack was sent.
  std::uint64_t accepted_before = 0;
  for (int i = 0; i < 1000 && accepted_before < 5; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    accepted_before = server->stats().results_accepted;
  }
  ASSERT_GE(accepted_before, 5u) << "no progress before the kill";
  server.reset();

  server = std::make_unique<Server>(scfg);
  auto pid_ds2 = server->submit_problem(
      std::make_shared<dsearch::DSearchDataManager>(queries, database, dcfg));
  auto pid_ml2 =
      server->submit_problem(std::make_shared<dprml::DPRmlDataManager>(aln, pcfg));
  ASSERT_EQ(pid_ds2, pid_ds);
  ASSERT_EQ(pid_ml2, pid_ml);
  server->start();  // recovers from the WAL: snapshot + replay

  // Replay restored at least everything acked before the kill, and the
  // revived server entered a new term so stale pre-kill leases are fenced.
  EXPECT_GE(server->stats().results_accepted, accepted_before);
  EXPECT_GE(server->epoch(), 2u);
  EXPECT_GE(count_events(tracer, "wal_recovered"), 1);

  ASSERT_TRUE(server->wait_for_problem(pid_ds2, 120.0)) << "DSEARCH stalled";
  ASSERT_TRUE(server->wait_for_problem(pid_ml2, 120.0)) << "DPRml stalled";
  for (auto& t : donors) t.join();
  EXPECT_EQ(donor_failures.load(), 0);

  EXPECT_EQ(server->final_result(pid_ds2), ref_ds);
  EXPECT_EQ(server->final_result(pid_ml2), ref_ml);
  server->stop();
  dump_trace(tracer, "chaos_wal_replay_tcp");
  std::filesystem::remove_all(wal_dir);
}

TEST(Chaos, WalEnospcMidRunDegradesThenRestoresByteIdentical) {
  // The disk fills mid-run under a WAL'd server in kContinue mode: every
  // write into the WAL directory hits injected ENOSPC. The server must
  // degrade (epoch bump + durability_degraded on the timeline), keep
  // scheduling without crashing or hanging, then re-arm once space returns
  // — and the merged answers must be byte-identical to fault-free runs.
  dsearch::register_algorithm();
  dprml::register_algorithm();

  Rng rng(613);
  auto queries = bio::make_queries(rng, 2, 60, bio::Alphabet::kProtein);
  bio::DatabaseSpec spec;
  spec.num_sequences = 40;
  spec.mean_length = 80;
  auto database = bio::make_database(rng, spec, queries);
  dsearch::DSearchConfig dcfg;
  dcfg.top_k = 8;
  auto tree = phylo::random_tree(rng, {7, 0.12, "t"});
  auto aln = phylo::simulate_alignment(rng, tree, phylo::SubstModel::jc69(),
                                       phylo::RateModel::uniform(), {250});
  dprml::DPRmlConfig pcfg;
  pcfg.model_spec = "JC69";
  pcfg.branch_tolerance = 1e-3;
  pcfg.eval_passes = 1;
  pcfg.refine_passes = 1;
  pcfg.use_eval_cache = false;

  std::vector<std::byte> ref_ds, ref_ml;
  {
    dsearch::DSearchDataManager dm(queries, database, dcfg);
    ref_ds = run_locally(dm, 2e5);
  }
  {
    dprml::DPRmlDataManager dm(aln, pcfg);
    ref_ml = run_locally(dm, 1.0);
  }

  std::string wal_dir = testing::TempDir() + "hdcs_enospc_wal";
  std::filesystem::remove_all(wal_dir);
  obs::Tracer tracer;
  tracer.to_memory();
  ServerConfig scfg;
  scfg.port = pick_port();
  scfg.scheduler.bounds.min_ops = 1;
  scfg.scheduler.lease_timeout = 1.5;
  scfg.scheduler.client_timeout = 1.5;
  scfg.policy_spec = "adaptive:0.02";
  scfg.tick_interval_s = 0.02;
  scfg.no_work_retry_s = 0.02;
  scfg.wal_dir = wal_dir;
  scfg.wal_segment_bytes = 16 << 10;
  scfg.durability_mode = DurabilityMode::kContinue;
  scfg.rearm_retry_s = 0.1;  // fast re-arm probes for the test
  scfg.tracer = &tracer;

  auto server = std::make_unique<Server>(scfg);
  server->start();
  auto pid_ds = server->submit_problem(
      std::make_shared<dsearch::DSearchDataManager>(queries, database, dcfg));
  auto pid_ml =
      server->submit_problem(std::make_shared<dprml::DPRmlDataManager>(aln, pcfg));
  EXPECT_EQ(server->durability(), Server::Durability::kDurable);

  constexpr int kDonors = 3;
  std::vector<std::thread> donors;
  std::atomic<int> donor_failures{0};
  for (int i = 0; i < kDonors; ++i) {
    donors.emplace_back([&, i] {
      ClientConfig ccfg;
      ccfg.server_port = scfg.port;
      ccfg.name = "enospc-" + std::to_string(i);
      ccfg.max_connect_attempts = 0;
      ccfg.backoff_max_s = 0.2;
      try {
        Client(ccfg).run();
      } catch (const Error&) {
        donor_failures.fetch_add(1);
      }
    });
  }

  // Real durable progress first, so the degrade happens mid-run.
  std::uint64_t accepted_before = 0;
  for (int i = 0; i < 1000 && accepted_before < 5; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    accepted_before = server->stats().results_accepted;
  }
  ASSERT_GE(accepted_before, 5u) << "no progress before the disk filled";
  std::uint64_t epoch_before = server->epoch();

  {
    // The disk fills: a 1-byte capacity means the very next WAL append (or
    // re-arm attempt) gets ENOSPC. Only the WAL directory is affected.
    vfs::StorageFaultSpec full_disk;
    full_disk.seed = 31;
    full_disk.disk_capacity_bytes = 1;
    full_disk.path_filter = "hdcs_enospc_wal";
    vfs::ScopedStorageFaultPlan scoped(full_disk);

    // The next accepted result's append/fsync fails -> degraded. The server
    // must neither crash nor stop scheduling.
    bool degraded = false;
    for (int i = 0; i < 1000 && !degraded; ++i) {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
      degraded = server->durability() == Server::Durability::kDegraded;
    }
    ASSERT_TRUE(degraded) << "server never degraded on ENOSPC";
    EXPECT_FALSE(server->storage_failed());  // kContinue keeps accepting
    EXPECT_GE(server->epoch(), epoch_before + 2) << "degrade must fence";
    EXPECT_NE(server->stats_json().find("\"durability\":\"degraded\""),
              std::string::npos);
    // Stay degraded for a while: re-arm probes keep failing on the full
    // disk and must not crash or flap the state.
    std::this_thread::sleep_for(std::chrono::milliseconds(400));
    EXPECT_EQ(server->durability(), Server::Durability::kDegraded);
  }

  // Space is back: the watchdog's next probe rebuilds the WAL and restores.
  bool restored = false;
  for (int i = 0; i < 1000 && !restored; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    restored = server->durability() == Server::Durability::kDurable;
  }
  EXPECT_TRUE(restored) << "durability never re-armed after space returned";

  ASSERT_TRUE(server->wait_for_problem(pid_ds, 120.0)) << "DSEARCH stalled";
  ASSERT_TRUE(server->wait_for_problem(pid_ml, 120.0)) << "DPRml stalled";
  for (auto& t : donors) t.join();
  EXPECT_EQ(donor_failures.load(), 0);

  // Byte-identical answers: the full disk cost a durability window, never
  // a result.
  EXPECT_EQ(server->final_result(pid_ds), ref_ds);
  EXPECT_EQ(server->final_result(pid_ml), ref_ml);
  EXPECT_GE(count_events(tracer, "durability_degraded"), 1);
  EXPECT_GE(count_events(tracer, "durability_restored"), 1);
  server->stop();
  dump_trace(tracer, "chaos_wal_enospc_tcp");
  std::filesystem::remove_all(wal_dir);
}

TEST(Chaos, FailStopShedsDonorsAndNeverAcksNonDurably) {
  // kFailStop: the first storage fault freezes intake. Donors holding
  // finished units get retryable NACKs (never a silent non-durable ack),
  // the server reports storage_failed() so the embedding process can
  // checkpoint and exit non-zero, and nothing crashes or hangs.
  test::register_toy_algorithm();

  std::string wal_dir = testing::TempDir() + "hdcs_failstop_wal";
  std::filesystem::remove_all(wal_dir);
  obs::Tracer tracer;
  tracer.to_memory();
  ServerConfig scfg;
  scfg.scheduler.bounds.min_ops = 1000;
  scfg.policy_spec = "fixed:1000000";  // many small units
  scfg.tick_interval_s = 0.02;
  scfg.no_work_retry_s = 0.02;
  scfg.wal_dir = wal_dir;
  scfg.durability_mode = DurabilityMode::kFailStop;
  scfg.retry_later_s = 0.05;  // fast donor retries for the test
  scfg.tracer = &tracer;
  Server server(scfg);
  server.start();
  server.submit_problem(std::make_shared<test::ToySumDataManager>(100000000));

  auto& client_retries = obs::Registry::global().counter("client.retry_laters");
  std::uint64_t retries_before = client_retries.value();

  std::atomic<int> donor_failures{0};
  std::thread donor([&] {
    ClientConfig ccfg;
    ccfg.server_port = server.port();
    ccfg.name = "failstop-donor";
    ccfg.max_connect_attempts = 2;
    ccfg.backoff_max_s = 0.1;
    try {
      Client(ccfg).run();
    } catch (const Error&) {
      donor_failures.fetch_add(1);  // expected once the server is stopped
    }
  });

  std::uint64_t accepted_before = 0;
  for (int i = 0; i < 1000 && accepted_before < 3; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    accepted_before = server.stats().results_accepted;
  }
  ASSERT_GE(accepted_before, 3u) << "no progress before the fault";

  // Every WAL fsync now fails. The next result submission trips fail-stop.
  vfs::StorageFaultSpec broken;
  broken.seed = 5;
  broken.sync_error_prob = 1.0;
  broken.path_filter = "hdcs_failstop_wal";
  vfs::ScopedStorageFaultPlan scoped(broken);

  bool failed = false;
  for (int i = 0; i < 1000 && !failed; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    failed = server.storage_failed();
  }
  ASSERT_TRUE(failed) << "fail-stop never tripped";
  EXPECT_EQ(server.durability(), Server::Durability::kDegraded);

  // The donor's in-flight submission was NACKed retryable and it is now
  // riding the retry loop — no new results are merged, none are lost.
  std::uint64_t accepted_at_failure = server.stats().results_accepted;
  bool donor_retried = false;
  for (int i = 0; i < 1000 && !donor_retried; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    donor_retried = client_retries.value() > retries_before;
  }
  EXPECT_TRUE(donor_retried) << "donor never saw a retryable NACK";
  EXPECT_EQ(server.stats().results_accepted, accepted_at_failure);
  EXPECT_GE(count_events(tracer, "durability_degraded"), 1);
  EXPECT_GT(obs::Registry::global().counter("server.retry_laters").value(), 0u);

  // The embedding process reacts like hdcs_submit: stop and exit non-zero.
  // Stopping while a donor is mid-retry must not deadlock.
  server.stop();
  donor.join();
  dump_trace(tracer, "chaos_wal_failstop_tcp");
  std::filesystem::remove_all(wal_dir);
}

TEST(Chaos, StandbyPromotesAndFinishesAfterPrimaryKill) {
  // Full failover over real TCP: a WAL'd primary streams its state to a
  // hot standby; donors carry both endpoints. Mid-run the primary is
  // killed — the standby promotes (epoch bump), the donors rotate to it,
  // and both workloads finish byte-identical. Results computed under the
  // deposed term are fenced by epoch, never merged twice.
  dsearch::register_algorithm();
  dprml::register_algorithm();

  Rng rng(419);
  auto queries = bio::make_queries(rng, 2, 60, bio::Alphabet::kProtein);
  bio::DatabaseSpec spec;
  spec.num_sequences = 40;
  spec.mean_length = 80;
  auto database = bio::make_database(rng, spec, queries);
  dsearch::DSearchConfig dcfg;
  dcfg.top_k = 8;
  auto tree = phylo::random_tree(rng, {7, 0.12, "t"});
  auto aln = phylo::simulate_alignment(rng, tree, phylo::SubstModel::jc69(),
                                       phylo::RateModel::uniform(), {250});
  dprml::DPRmlConfig pcfg;
  pcfg.model_spec = "JC69";
  pcfg.branch_tolerance = 1e-3;
  pcfg.eval_passes = 1;
  pcfg.refine_passes = 1;
  pcfg.use_eval_cache = false;

  std::vector<std::byte> ref_ds, ref_ml;
  {
    dsearch::DSearchDataManager dm(queries, database, dcfg);
    ref_ds = run_locally(dm, 2e5);
  }
  {
    dprml::DPRmlDataManager dm(aln, pcfg);
    ref_ml = run_locally(dm, 1.0);
  }

  std::string wal_primary = testing::TempDir() + "hdcs_failover_primary";
  std::string wal_standby = testing::TempDir() + "hdcs_failover_standby";
  std::filesystem::remove_all(wal_primary);
  std::filesystem::remove_all(wal_standby);

  obs::Tracer tracer;  // shared: primary + standby write one timeline
  tracer.to_memory();
  ServerConfig pcfg_srv;
  pcfg_srv.port = pick_port();
  pcfg_srv.scheduler.bounds.min_ops = 1;
  pcfg_srv.scheduler.lease_timeout = 1.5;
  pcfg_srv.scheduler.client_timeout = 1.5;
  pcfg_srv.policy_spec = "adaptive:0.02";
  pcfg_srv.tick_interval_s = 0.02;
  pcfg_srv.no_work_retry_s = 0.02;
  pcfg_srv.wal_dir = wal_primary;
  pcfg_srv.tracer = &tracer;

  ServerConfig scfg_srv = pcfg_srv;
  scfg_srv.port = pick_port();
  scfg_srv.wal_dir = wal_standby;
  scfg_srv.primary_host = "127.0.0.1";
  scfg_srv.primary_port = pcfg_srv.port;
  scfg_srv.failover_timeout_s = 0.4;
  scfg_srv.standby_name = "standby-1";

  auto primary = std::make_unique<Server>(pcfg_srv);
  auto pid_ds = primary->submit_problem(
      std::make_shared<dsearch::DSearchDataManager>(queries, database, dcfg));
  auto pid_ml = primary->submit_problem(
      std::make_shared<dprml::DPRmlDataManager>(aln, pcfg));
  primary->start();

  // The standby registers the same problems (same order -> same ids), then
  // syncs the primary's exact snapshot and tails its record stream.
  Server standby(scfg_srv);
  auto pid_ds_s = standby.submit_problem(
      std::make_shared<dsearch::DSearchDataManager>(queries, database, dcfg));
  auto pid_ml_s = standby.submit_problem(
      std::make_shared<dprml::DPRmlDataManager>(aln, pcfg));
  ASSERT_EQ(pid_ds_s, pid_ds);
  ASSERT_EQ(pid_ml_s, pid_ml);
  standby.start();
  ASSERT_TRUE(standby.is_standby());

  for (int i = 0; i < 500 && !standby.standby_synced(); ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  ASSERT_TRUE(standby.standby_synced()) << "standby never synced";

  // Donors know both endpoints; they stick with the one that answers.
  constexpr int kDonors = 3;
  std::vector<std::thread> donors;
  std::atomic<int> donor_failures{0};
  for (int i = 0; i < kDonors; ++i) {
    donors.emplace_back([&, i] {
      ClientConfig ccfg;
      ccfg.servers = {{"127.0.0.1", pcfg_srv.port}, {"127.0.0.1", scfg_srv.port}};
      ccfg.name = "ha-" + std::to_string(i);
      ccfg.max_connect_attempts = 0;
      ccfg.backoff_max_s = 0.2;  // keep the promotion gap cheap
      try {
        Client(ccfg).run();
      } catch (const Error&) {
        donor_failures.fetch_add(1);
      }
    });
  }

  // Progress on the primary, then kill it mid-run. Donors are mid-lease.
  std::uint64_t accepted_before = 0;
  for (int i = 0; i < 1000 && accepted_before < 5; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    accepted_before = primary->stats().results_accepted;
  }
  ASSERT_GE(accepted_before, 5u) << "no progress before the kill";
  primary.reset();

  // The stream goes silent; after failover_timeout_s the standby promotes.
  for (int i = 0; i < 1000 && standby.is_standby(); ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  ASSERT_FALSE(standby.is_standby()) << "standby never promoted";
  EXPECT_GE(standby.epoch(), 2u);  // a new term fences deposed-primary work

  ASSERT_TRUE(standby.wait_for_problem(pid_ds_s, 120.0)) << "DSEARCH stalled";
  ASSERT_TRUE(standby.wait_for_problem(pid_ml_s, 120.0)) << "DPRml stalled";
  for (auto& t : donors) t.join();
  EXPECT_EQ(donor_failures.load(), 0);

  // The replicated state picked up where the primary left off: everything
  // the primary acked was already on the standby, and the merged answers
  // are byte-identical to fault-free local runs.
  EXPECT_GE(standby.stats().results_accepted, accepted_before);
  EXPECT_EQ(standby.final_result(pid_ds_s), ref_ds);
  EXPECT_EQ(standby.final_result(pid_ml_s), ref_ml);

  // The failover left its audit trail on the shared timeline.
  EXPECT_GE(count_events(tracer, "replica_attached"), 1);
  EXPECT_GE(count_events(tracer, "standby_synced"), 1);
  EXPECT_GE(count_events(tracer, "failover_promoted"), 1);
  standby.stop();
  dump_trace(tracer, "chaos_failover_tcp");
  std::filesystem::remove_all(wal_primary);
  std::filesystem::remove_all(wal_standby);
}

TEST(Chaos, SimulatedFailoverMatchesFaultFreeRun) {
  // Virtual-time mirror: the same two workloads with the primary killed at
  // t=5s of simulated time. The promoted standby (epoch 2) finishes both;
  // answers are byte-identical to a run with no failover, and results
  // computed under the deposed term are fenced, never merged.
  dsearch::register_algorithm();
  dprml::register_algorithm();

  Rng rng(523);
  auto queries = bio::make_queries(rng, 2, 60, bio::Alphabet::kProtein);
  bio::DatabaseSpec spec;
  spec.num_sequences = 30;
  spec.mean_length = 80;
  auto database = bio::make_database(rng, spec, queries);
  dsearch::DSearchConfig dcfg;
  dcfg.top_k = 8;
  auto tree = phylo::random_tree(rng, {6, 0.12, "t"});
  auto aln = phylo::simulate_alignment(rng, tree, phylo::SubstModel::jc69(),
                                       phylo::RateModel::uniform(), {200});
  dprml::DPRmlConfig pcfg;
  pcfg.model_spec = "JC69";
  pcfg.branch_tolerance = 1e-3;
  pcfg.eval_passes = 1;
  pcfg.refine_passes = 1;
  pcfg.use_eval_cache = false;

  auto run_sim = [&](double kill_time, obs::Tracer* tracer) {
    sim::SimConfig simcfg;
    simcfg.reference_ops_per_sec = 1e6;
    simcfg.scheduler.lease_timeout = 30.0;
    simcfg.scheduler.bounds.min_ops = 1;
    simcfg.policy_spec = "adaptive:0.02";
    simcfg.no_work_retry_s = 0.25;
    simcfg.tick_interval_s = 0.5;
    simcfg.primary_kill_time_s = kill_time;
    simcfg.failover_delay_s = 0.5;
    simcfg.tracer = tracer;
    sim::SimDriver sim(simcfg, sim::lab_fleet(8));
    auto pid_ds = sim.add_problem(
        std::make_shared<dsearch::DSearchDataManager>(queries, database, dcfg));
    auto pid_ml =
        sim.add_problem(std::make_shared<dprml::DPRmlDataManager>(aln, pcfg));
    auto outcome = sim.run();
    return std::make_tuple(outcome, pid_ds, pid_ml);
  };

  auto [clean, pid_ds, pid_ml] = run_sim(-1, nullptr);
  EXPECT_EQ(clean.failovers, 0u);

  obs::Tracer tracer;
  tracer.to_memory();
  auto [chaotic, pid_ds2, pid_ml2] = run_sim(5.0, &tracer);
  EXPECT_EQ(chaotic.failovers, 1u);
  EXPECT_GT(chaotic.makespan_s, 5.0) << "kill fired after completion";

  // Same answers with and without the failover.
  EXPECT_EQ(chaotic.final_results.at(pid_ds2), clean.final_results.at(pid_ds));
  EXPECT_EQ(chaotic.final_results.at(pid_ml2), clean.final_results.at(pid_ml));

  // In-flight units finished under the deposed term were fenced by epoch
  // (machines compute through the outage and submit after promotion).
  EXPECT_GT(chaotic.scheduler.results_rejected_stale_epoch, 0u);
  EXPECT_GE(count_events(tracer, "standby_synced"), 1);
  EXPECT_GE(count_events(tracer, "failover_promoted"), 1);
  dump_trace(tracer, "chaos_failover_sim");
}

TEST(Chaos, PoisonUnitQuarantinedOverTcp) {
  test::register_toy_algorithm();
  ServerConfig scfg;
  scfg.scheduler.bounds.min_ops = 1000;
  scfg.scheduler.lease_timeout = 0.15;
  scfg.scheduler.client_timeout = 0.15;
  scfg.scheduler.max_attempts_per_unit = 2;
  scfg.policy_spec = "fixed:1000000000";  // the whole problem in one unit
  scfg.tick_interval_s = 0.02;
  scfg.no_work_retry_s = 0.02;
  Server server(scfg);
  server.start();
  auto pid = server.submit_problem(
      std::make_shared<test::ToySumDataManager>(100000));

  // The "poison" unit kills every donor that takes it: two crashers burn
  // the attempt cap.
  for (int attempt = 0; attempt < 2; ++attempt) {
    ClientConfig ccfg;
    ccfg.server_port = server.port();
    ccfg.name = "victim-" + std::to_string(attempt);
    ccfg.crash_after_units = 1;  // take the unit, vanish before submitting
    ccfg.send_heartbeats = false;
    Client(ccfg).run();
    // Wait for the client timeout to reap the crashed donor (and fail its
    // lease) before the next victim asks for work.
    std::this_thread::sleep_for(std::chrono::milliseconds(400));
  }

  // Quarantined: a healthy donor gets nothing, the problem stays open, and
  // the stats snapshot (MSG_STATS / hdcs_top) reports the quarantine.
  ClientConfig ccfg;
  ccfg.server_port = server.port();
  ccfg.name = "healthy";
  ccfg.max_idle_polls = 3;
  auto stats = Client(ccfg).run();
  EXPECT_EQ(stats.units_processed, 0u);
  EXPECT_FALSE(server.wait_for_problem(pid, 0.2));
  auto json = server.stats_json();
  EXPECT_NE(json.find("\"units_quarantined\":1"), std::string::npos) << json;
  server.stop();
}

}  // namespace
}  // namespace hdcs::dist
