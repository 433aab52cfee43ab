// End-to-end integration: real Server + real Clients over loopback TCP.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <optional>
#include <thread>

#include "dist/client.hpp"
#include "dist/local_runner.hpp"
#include "dist/server.hpp"
#include "obs/trace.hpp"
#include "tests/toy_problem.hpp"
#include "util/logging.hpp"

namespace hdcs::dist {
namespace {

using test::ToySumDataManager;

ServerConfig quick_server_config() {
  ServerConfig cfg;
  cfg.scheduler.lease_timeout = 60.0;
  cfg.scheduler.bounds.min_ops = 1000;
  cfg.policy_spec = "adaptive:0.05";  // tiny units keep the test fast
  cfg.tick_interval_s = 0.05;
  cfg.no_work_retry_s = 0.02;
  test::register_toy_algorithm();
  return cfg;
}

ClientConfig client_config(std::uint16_t port, const std::string& name) {
  ClientConfig cfg;
  cfg.server_port = port;
  cfg.name = name;
  return cfg;
}

TEST(LocalRunner, MatchesDirectComputation) {
  test::register_toy_algorithm();
  ToySumDataManager dm(123456);
  LocalRunStats stats;
  auto result = run_locally(dm, 10000, &stats);
  EXPECT_EQ(test::read_u64_result(result), dm.expected());
  EXPECT_EQ(stats.units, 13u);  // ceil(123456 / 10000)
  EXPECT_DOUBLE_EQ(stats.total_cost_ops, 123456.0);
}

TEST(LocalRunner, StagedProblemRunsToCompletion) {
  test::register_toy_algorithm();
  ToySumDataManager dm(50000, 3, /*stages=*/5);
  auto result = run_locally(dm, 3000);
  EXPECT_EQ(test::read_u64_result(result), dm.expected());
}

TEST(ServerClient, SingleClientCompletesProblem) {
  Server server(quick_server_config());
  server.start();
  auto dm = std::make_shared<ToySumDataManager>(2000000);
  auto pid = server.submit_problem(dm);

  Client client(client_config(server.port(), "worker-0"));
  auto stats = client.run();

  ASSERT_TRUE(server.wait_for_problem(pid, 30.0));
  EXPECT_EQ(test::read_u64_result(server.final_result(pid)), dm->expected());
  EXPECT_GT(stats.units_processed, 0u);
  server.stop();
}

TEST(ServerClient, MultipleConcurrentClients) {
  Server server(quick_server_config());
  server.start();
  auto dm = std::make_shared<ToySumDataManager>(8000000);
  auto pid = server.submit_problem(dm);

  constexpr int kClients = 4;
  std::vector<std::thread> threads;
  std::vector<ClientRunStats> stats(kClients);
  for (int i = 0; i < kClients; ++i) {
    threads.emplace_back([&, i] {
      Client client(client_config(server.port(), "worker-" + std::to_string(i)));
      stats[i] = client.run();
    });
  }
  for (auto& t : threads) t.join();

  ASSERT_TRUE(server.wait_for_problem(pid, 30.0));
  EXPECT_EQ(test::read_u64_result(server.final_result(pid)), dm->expected());

  std::uint64_t total_units = 0;
  for (const auto& s : stats) total_units += s.units_processed;
  EXPECT_EQ(total_units, server.stats().results_accepted);
  server.stop();
}

TEST(ServerClient, MultipleProblemsServedToOneClient) {
  Server server(quick_server_config());
  server.start();
  auto dm1 = std::make_shared<ToySumDataManager>(1000000, 0);
  auto dm2 = std::make_shared<ToySumDataManager>(1500000, 42);
  auto p1 = server.submit_problem(dm1);
  auto p2 = server.submit_problem(dm2);

  Client client(client_config(server.port(), "solo"));
  client.run();

  ASSERT_TRUE(server.wait_for_all(30.0));
  EXPECT_EQ(test::read_u64_result(server.final_result(p1)), dm1->expected());
  EXPECT_EQ(test::read_u64_result(server.final_result(p2)), dm2->expected());
  server.stop();
}

TEST(ServerClient, StagedProblemOverTcp) {
  Server server(quick_server_config());
  server.start();
  auto dm = std::make_shared<ToySumDataManager>(1000000, 0, /*stages=*/4);
  auto pid = server.submit_problem(dm);

  std::thread t1([&] { Client(client_config(server.port(), "a")).run(); });
  std::thread t2([&] { Client(client_config(server.port(), "b")).run(); });
  t1.join();
  t2.join();

  ASSERT_TRUE(server.wait_for_problem(pid, 30.0));
  EXPECT_EQ(test::read_u64_result(server.final_result(pid)), dm->expected());
  server.stop();
}

TEST(ServerClient, CrashedClientWorkIsReissued) {
  auto cfg = quick_server_config();
  cfg.scheduler.lease_timeout = 0.3;  // fast reissue after the crash
  Server server(cfg);
  server.start();
  auto dm = std::make_shared<ToySumDataManager>(4000000);
  auto pid = server.submit_problem(dm);

  // The crasher vanishes after computing its first unit (no result sent).
  auto crasher_cfg = client_config(server.port(), "crasher");
  crasher_cfg.crash_after_units = 1;
  Client crasher(crasher_cfg);
  auto crash_stats = crasher.run();
  EXPECT_EQ(crash_stats.units_processed, 0u);  // nothing submitted

  Client survivor(client_config(server.port(), "survivor"));
  survivor.run();

  ASSERT_TRUE(server.wait_for_problem(pid, 30.0));
  EXPECT_EQ(test::read_u64_result(server.final_result(pid)), dm->expected());
  server.stop();
}

TEST(ServerClient, DistributedResultMatchesLocalRunner) {
  test::register_toy_algorithm();
  // Ground truth via the serial runner.
  ToySumDataManager serial(3000000, 9);
  auto serial_result = run_locally(serial, 100000);

  Server server(quick_server_config());
  server.start();
  auto dm = std::make_shared<ToySumDataManager>(3000000, 9);
  auto pid = server.submit_problem(dm);
  std::thread t1([&] { Client(client_config(server.port(), "a")).run(); });
  std::thread t2([&] { Client(client_config(server.port(), "b")).run(); });
  std::thread t3([&] { Client(client_config(server.port(), "c")).run(); });
  t1.join();
  t2.join();
  t3.join();
  ASSERT_TRUE(server.wait_for_problem(pid, 30.0));
  EXPECT_EQ(server.final_result(pid), serial_result);
  server.stop();
}

TEST(ServerClient, HeartbeatsKeepSlowClientAlive) {
  // A client whose unit takes longer than the server's client timeout must
  // survive via its heartbeat connection; without heartbeats, the same
  // setup expires the client and reissues its lease.
  auto run_with = [](bool heartbeats) {
    auto cfg = quick_server_config();
    cfg.scheduler.client_timeout = 0.3;
    cfg.heartbeat_interval_s = 0.1;
    cfg.tick_interval_s = 0.05;
    cfg.policy_spec = "fixed:30000000";  // one big unit
    Server server(cfg);
    server.start();
    auto dm = std::make_shared<ToySumDataManager>(30000000);
    auto pid = server.submit_problem(dm);

    auto ccfg = client_config(server.port(), heartbeats ? "beater" : "silent");
    ccfg.throttle = 12.0;  // stretch compute well past the client timeout
    ccfg.send_heartbeats = heartbeats;
    Client(ccfg).run();

    server.wait_for_problem(pid, 30.0);
    auto stats = server.stats();
    server.stop();
    return stats;
  };

  auto with_hb = run_with(true);
  EXPECT_EQ(with_hb.clients_expired, 0u)
      << "heartbeating client must not be expired";
  auto without_hb = run_with(false);
  EXPECT_GE(without_hb.clients_expired, 1u)
      << "silent client should have been expired by the timeout";
}

TEST(ServerClient, ThrottledClientReportsLowerBenchmark) {
  // The throttle knob exists so one box can emulate heterogeneous donors;
  // check it scales the self-reported benchmark.
  double full = Client::measure_benchmark();
  EXPECT_GT(full, 0.0);
}

TEST(ServerClient, DonorPoolContributesAllCpus) {
  // A dual-CPU donor (like the paper's cluster nodes) runs one client per
  // CPU; together they must complete the problem, each contributing.
  Server server(quick_server_config());
  server.start();
  auto dm = std::make_shared<ToySumDataManager>(6000000);
  auto pid = server.submit_problem(dm);

  ClientConfig base = client_config(server.port(), "cluster-node-3");
  auto stats = Client::run_pool(base, 2);
  ASSERT_EQ(stats.size(), 2u);

  ASSERT_TRUE(server.wait_for_problem(pid, 30.0));
  EXPECT_EQ(test::read_u64_result(server.final_result(pid)), dm->expected());
  EXPECT_GT(stats[0].units_processed + stats[1].units_processed, 0u);
  EXPECT_THROW(Client::run_pool(base, 0), InputError);
  server.stop();
}

TEST(ServerClient, DonorKeepsItsStatsWhenReconnectsRunOut) {
  // The server goes away for good mid-run. The donor's reconnect attempts
  // run out, and run() ends the work loop and returns what it did: the
  // acknowledged units must not be lost in an exception.
  auto cfg = quick_server_config();
  cfg.policy_spec = "fixed:1000000";
  Server server(cfg);
  server.submit_problem(std::make_shared<ToySumDataManager>(10000000000ull));
  server.start();
  auto ccfg = client_config(server.port(), "stranded");
  ccfg.max_connect_attempts = 2;
  ccfg.backoff_max_s = 0.05;
  ccfg.send_heartbeats = false;
  auto run = std::async(std::launch::async, [ccfg] { return Client(ccfg).run(); });
  // Two accepted results: the first one's ack has reached the donor.
  for (int i = 0; i < 1000 && server.stats().results_accepted < 2; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  ASSERT_GE(server.stats().results_accepted, 2u) << "donor made no progress";
  server.stop();
  ClientRunStats stats;
  ASSERT_NO_THROW(stats = run.get());
  EXPECT_GE(stats.units_processed, 1u);
}

TEST(Server, StopIsIdempotentAndStartableOnce) {
  Server server(quick_server_config());
  server.start();
  EXPECT_GT(server.port(), 0);
  server.stop();
  server.stop();  // no crash
}

TEST(Server, StopDeliversTheFinalAckBeforeClosing) {
  // One donor, one unit, and stop() issued the moment that unit's result
  // merges, as a caller returning from wait_for_problem() would. The
  // tracer hook holds the worker inside submit_result until stop() has
  // begun tearing connections down, so the ResultAck is still being
  // produced when the disconnect starts. stop() must deliver it: the donor
  // counts its unit. (The donor is asked to stop after that unit, so it
  // sends no further request to the departing server.)
  test::register_toy_algorithm();
  ClientConfig ccfg;
  ccfg.name = "last-donor";
  ccfg.max_connect_attempts = 1;
  ccfg.send_heartbeats = false;
  std::optional<Client> donor;
  std::promise<void> merged;
  std::atomic<bool> fired{false};
  obs::Tracer tracer;
  tracer.set_callback([&](const std::string& line) {
    if (line.find("\"ev\":\"unit_completed\"") == std::string::npos ||
        fired.exchange(true)) {
      return;
    }
    donor->request_stop();
    merged.set_value();
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  });
  auto cfg = quick_server_config();
  cfg.policy_spec = "fixed:1000000";  // the whole problem is one unit
  cfg.tracer = &tracer;
  Server server(cfg);
  auto pid = server.submit_problem(std::make_shared<ToySumDataManager>(1000));
  server.start();
  ccfg.server_port = server.port();
  donor.emplace(ccfg);
  ClientRunStats stats;
  std::thread runner([&] { stats = donor->run(); });
  merged.get_future().wait();
  server.stop();
  runner.join();
  EXPECT_TRUE(server.wait_for_problem(pid, 0));
  EXPECT_EQ(stats.units_processed, 1u);
  EXPECT_EQ(stats.reconnects, 0u);
  EXPECT_EQ(stats.results_resubmitted, 0u);
}

}  // namespace
}  // namespace hdcs::dist
