// End-to-end benchmark of the distributed system as deployed: one process
// runs a real dist::Server with its write-ahead log on, three closed-loop
// dist::Client donors (send_heartbeats=false) and one open-loop heartbeat
// probe, all over loopback — four threads and four connections, sized for
// a 4-vCPU host.
//
//   perfbench_e2e --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                 --work-dir <dir> [--trace-out <file.jsonl>] [--tiny]
//
// One run repeats the workload's job (server start, problem submission,
// donors to completion, result check, server stop) until --seconds of
// measurement have passed, and reports medians over the repetitions.
// Every repetition starts from reset process state: a fresh WAL directory,
// an empty DPRml evaluation cache and zeroed metrics registry.
//
// --trace 0 prints the end-to-end metrics. --trace 1 alternates untraced
// and traced repetitions and prints the per-layer breakdown from the
// traced ones (their overhead is the makespan difference). The last line
// of stdout is one JSON object: {"correct","attempted","failed","metrics"}.
// Exit status is non-zero when any answer differs from the serial
// reference.

#include <malloc.h>
#include <sched.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench.hpp"
#include "bio/seqgen.hpp"
#include "dist/client.hpp"
#include "dist/server.hpp"
#include "dist/wire.hpp"
#include "dprml/dprml.hpp"
#include "dsearch/dsearch.hpp"
#include "net/message.hpp"
#include "net/socket.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "phylo/simulate.hpp"
#include "util/logging.hpp"
#include "util/simd.hpp"

using namespace hdcs;
using perfbench::median;
using perfbench::quantile;
using perfbench::sum;

namespace {

constexpr int kDonors = 3;
constexpr double kProbeInterval = 0.001;  // open-loop heartbeat schedule
constexpr double kJobTimeout = 120.0;
constexpr std::size_t kMinJobs = 2;  // a traced run needs one of each kind

double steady_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// ---------------------------------------------------------------- workloads

enum class App { kDSearch, kDPRml };

struct Workload {
  const char* name;
  App app;
  /// Granularity policy and its floor (SchedulerConfig::bounds.min_ops);
  /// every other server setting is the ServerConfig default.
  const char* policy;
  double min_ops;
  /// Tail percentiles, fixed per workload from its per-job sample counts
  /// so that at least ten samples lie beyond them in a full-size job.
  double gap_tail_q;
  double probe_tail_q;
};

// Why each workload exists (BENCHMARK.json holds the notes of the two it
// gates; control_tiny_units runs by hand, see README.md):
//  dsearch_compute    the bio lane kernels do nearly all the work; the
//                     control plane sees ~70 acks/s. Kernel changes show
//                     here, WAL/scheduler changes should not. Every chunk
//                     is a blob-cache miss.
//  dprml_staged       six concurrent DPRml instances (the Fig. 2 shape):
//                     the phylo likelihood kernel does the work, stage
//                     barriers exercise the scheduler's interleaving, and
//                     the shared stage trees take the blob-cache hit path.
//  control_tiny_units 1-2 subjects per unit: ~4% compute, the rest is
//                     dist.server/scheduler/wal and net — an fsync under
//                     the core lock per ack. Control-plane changes show
//                     here, kernels barely move it.
const Workload kWorkloads[] = {
    {"dsearch_compute", App::kDSearch, "adaptive:0.05", 1e4, 0.9, 0.99},
    {"dprml_staged", App::kDPRml, "adaptive:0.05", 1e4, 0.9, 0.99},
    {"control_tiny_units", App::kDSearch, "fixed:3000", 3000, 0.999, 0.99},
};

struct Inputs {
  std::vector<bio::Sequence> queries;
  std::vector<bio::Sequence> database;
  dsearch::DSearchConfig search;
  std::vector<phylo::Alignment> alignments;  // one per DPRml instance
  std::vector<dprml::DPRmlConfig> trees;
};

Inputs make_inputs(const Workload& w, std::uint64_t seed, bool tiny) {
  Inputs in;
  Rng rng(seed * 0x9e3779b97f4a7c15ull + 0x7065726662656e63ull);
  const std::string name = w.name;
  if (name == "dsearch_compute") {
    in.queries = bio::make_queries(rng, tiny ? 2 : 4, tiny ? 100 : 300,
                                   bio::Alphabet::kProtein);
    bio::DatabaseSpec spec;
    spec.num_sequences = tiny ? 400 : 12000;
    spec.mean_length = tiny ? 100 : 300;
    in.database = bio::make_database(rng, spec, in.queries);
  } else if (name == "control_tiny_units") {
    in.queries = bio::make_queries(rng, 1, 40, bio::Alphabet::kProtein);
    bio::DatabaseSpec spec;
    spec.num_sequences = tiny ? 300 : 4000;
    spec.mean_length = 44;
    spec.min_length = 36;
    spec.planted_homologs_per_query = 5;
    in.database = bio::make_database(rng, spec, in.queries);
  } else {
    // Six instances (the Fig. 2 shape), each on its own alignment: likelihood
    // work varies by ~15% between datasets, and six draws average that out
    // so runs on different seeds stay comparable.
    const int taxa = tiny ? 6 : 20;
    const std::size_t sites = tiny ? 100 : 400;
    for (int i = 0; i < 6; ++i) {
      auto tree = phylo::random_tree(rng, {taxa, 0.1, "t"});
      // Fix the total tree length so every dataset has the same divergence,
      // hence about the same number of distinct site patterns.
      const auto edges = tree.edge_nodes();
      const double scale =
          0.1 * static_cast<double>(edges.size()) / tree.total_length();
      for (int e : edges) tree.set_branch_length(e, tree.branch_length(e) * scale);
      in.alignments.push_back(phylo::simulate_alignment(
          rng, tree, phylo::SubstModel::jc69(), phylo::RateModel::uniform(), {sites}));
      dprml::DPRmlConfig c;
      c.model_spec = "JC69";
      c.branch_tolerance = 2e-2;
      c.eval_passes = 1;
      c.refine_passes = 1;
      c.full_refine_every = 25;
      c.order_seed = static_cast<std::uint64_t>(i + 1);
      in.trees.push_back(c);
    }
  }
  return in;
}

/// Fresh DataManagers for the inputs, in submission order.
std::vector<std::shared_ptr<dist::DataManager>> make_problems(const Workload& w,
                                                              const Inputs& in) {
  std::vector<std::shared_ptr<dist::DataManager>> out;
  if (w.app == App::kDSearch) {
    out.push_back(std::make_shared<dsearch::DSearchDataManager>(
        in.queries, in.database, in.search));
  } else {
    for (std::size_t i = 0; i < in.trees.size(); ++i) {
      out.push_back(
          std::make_shared<dprml::DPRmlDataManager>(in.alignments[i], in.trees[i]));
    }
  }
  return out;
}

/// Serial reference answers (search_serial / build_tree_serial), one per
/// problem in submission order. Independent queries and trees run on
/// parallel threads; each is the unmodified serial code.
std::vector<std::vector<std::byte>> reference_results(const Workload& w,
                                                      const Inputs& in) {
  const std::size_t tasks = w.app == App::kDSearch ? in.queries.size()
                                                   : in.trees.size();
  std::vector<dsearch::SearchResult> hits(tasks);
  std::vector<std::vector<dsearch::QueryScoreStats>> stats(tasks);
  std::vector<dprml::DPRmlResult> trees(tasks);
  std::atomic<std::size_t> next{0};
  auto worker = [&] {
    for (std::size_t i; (i = next.fetch_add(1)) < tasks;) {
      if (w.app == App::kDSearch) {
        hits[i] = dsearch::search_serial({in.queries[i]}, in.database, in.search,
                                         &stats[i]);
      } else {
        trees[i] = dprml::build_tree_serial(in.alignments[i], in.trees[i]);
      }
    }
  };
  std::vector<std::thread> pool;
  for (int t = 0; t < 4; ++t) pool.emplace_back(worker);
  for (auto& t : pool) t.join();

  std::vector<std::vector<std::byte>> out;
  if (w.app == App::kDSearch) {
    dsearch::SearchResult merged;
    std::vector<dsearch::QueryScoreStats> merged_stats;
    for (std::size_t i = 0; i < tasks; ++i) {
      merged.push_back(hits[i].at(0));
      merged_stats.push_back(stats[i].at(0));
    }
    ByteWriter bw;
    dsearch::encode_result(bw, merged);
    dsearch::encode_stats(bw, merged_stats);
    out.push_back(bw.take());
  } else {
    for (const auto& t : trees) {
      ByteWriter bw;
      dprml::encode_dprml_result(bw, t);
      out.push_back(bw.take());
    }
  }
  return out;
}

// -------------------------------------------------------------------- probe

/// Open-loop control-plane probe: a Hello'd idle client sending Heartbeat
/// frames on a fixed schedule. Each round trip is timed from when it was
/// due, so a stall also charges the beats queued behind it.
class Probe {
 public:
  explicit Probe(std::uint16_t port) : port_(port) {}
  Probe(const Probe&) = delete;
  Probe& operator=(const Probe&) = delete;
  ~Probe() { stop(); }

  void start() { thread_ = std::thread([this] { run(); }); }
  void stop() {
    stop_.store(true);
    if (thread_.joinable()) thread_.join();
  }

  std::vector<double> rtt_s;
  double late_max_s = 0;
  std::uint64_t sent = 0;
  std::uint64_t errors = 0;

 private:
  void run() {
    try {
      auto stream = net::TcpStream::connect("127.0.0.1", port_);
      std::uint64_t corr = 1;
      net::write_message(stream, dist::encode_hello({"probe", 1, 1e9}, corr++));
      auto ack = net::read_message(stream);
      if (ack.type != net::MessageType::kHelloAck) {
        errors += 1;
        return;
      }
      dist::ClientId id = dist::decode_hello_ack(ack).client_id;
      auto due = std::chrono::steady_clock::now();
      while (!stop_.load()) {
        due += std::chrono::duration_cast<std::chrono::steady_clock::duration>(
            std::chrono::duration<double>(kProbeInterval));
        std::this_thread::sleep_until(due);
        if (stop_.load()) break;
        auto sent_at = std::chrono::steady_clock::now();
        late_max_s = std::max(
            late_max_s, std::chrono::duration<double>(sent_at - due).count());
        sent += 1;
        net::write_message(stream, dist::encode_heartbeat(id, corr++));
        auto reply = net::read_message(stream);
        auto done = std::chrono::steady_clock::now();
        if (reply.type != net::MessageType::kHeartbeatAck) {
          errors += 1;
          continue;
        }
        rtt_s.push_back(std::chrono::duration<double>(done - due).count());
      }
      net::write_message(stream, dist::encode_goodbye(id, corr++));
    } catch (const std::exception& e) {
      errors += 1;
      std::fprintf(stderr, "probe: %s\n", e.what());
    }
  }

  std::uint16_t port_;
  std::atomic<bool> stop_{false};
  std::thread thread_;
};

// ---------------------------------------------------------------- one job

/// Registry instruments summed over the traced repetitions.
struct RegistryTotals {
  std::map<std::string, std::uint64_t> counters;
  std::map<std::string, obs::Histogram::Snapshot> hists;

  static const std::vector<std::string>& counter_names() {
    static const std::vector<std::string> names = {
        "align.cells_total", "align.batch_saturations", "net.bytes_sent",
        "net.frames_sent",   "bulk.blobs_sent",         "bulk.blobs_cache_hit",
        "bulk.bytes_raw",    "bulk.bytes_wire",         "wal.records",
        "wal.syncs",         "wal.bytes"};
    return names;
  }
  static const std::vector<std::string>& hist_names() {
    static const std::vector<std::string> names = {
        "net.loop.lag_s",
        "server.handle_s.Hello",
        "server.handle_s.RequestWork",
        "server.handle_s.FetchBlobs",
        "server.handle_s.SubmitResult",
        "server.handle_s.Heartbeat"};
    return names;
  }

  void absorb(obs::Registry& reg) {
    for (const auto& n : counter_names()) counters[n] += reg.counter(n).value();
    for (const auto& n : hist_names()) {
      auto s = reg.histogram(n).snapshot();
      auto& acc = hists[n];
      if (acc.counts.empty()) {
        acc = s;
        continue;
      }
      for (std::size_t i = 0; i < acc.counts.size() && i < s.counts.size(); ++i) {
        acc.counts[i] += s.counts[i];
      }
      acc.count += s.count;
      acc.sum += s.sum;
    }
  }
};

struct JobResult {
  bool correct = true;
  double setup_s = 0;
  double makespan_s = 0;
  std::uint64_t acks = 0;
  double busy_s = 0;
  double busy_cpu_s = 0;
  std::vector<double> gaps_s;
  std::vector<double> probe_rtt_s;
  double probe_late_max_s = 0;
  double peak_rss_mb = 0;  // resident-set high-water mark during the job
  double steal_frac = 0;   // host CPU steal over the job, all vCPUs
  double cpu_s = 0;        // process CPU time over the job (steal excluded)
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  dist::SchedulerStats stats;
};

struct Harness {
  const Workload& workload;
  const Inputs& inputs;
  const std::vector<std::vector<std::byte>>& reference;
  std::string wal_dir;
  dist::AlgorithmRegistry registry;
  perfbench::LayerTimes times;

  // Traced-repetition accumulators.
  RegistryTotals totals;
  std::vector<std::string> trace_lines;

  Harness(const Workload& w, const Inputs& in,
          const std::vector<std::vector<std::byte>>& ref, std::string dir)
      : workload(w), inputs(in), reference(ref), wal_dir(std::move(dir)) {
    perfbench::register_timed_algorithms(registry, times);
  }

  [[nodiscard]] dist::ServerConfig server_config() const {
    dist::ServerConfig cfg;
    cfg.policy_spec = workload.policy;
    cfg.scheduler.bounds.min_ops = workload.min_ops;
    cfg.wal_dir = wal_dir;
    return cfg;
  }

  JobResult run_job(bool traced) {
    // Reset process-global state so every repetition measures the same
    // thing: no cache hits or counters carried over from the last one.
    std::filesystem::remove_all(wal_dir);
    dprml::EvalCache::global().clear();
    obs::Registry::global().reset_values();
    times.set_enabled(traced);

    obs::Tracer tracer;
    if (traced) tracer.to_memory();
    auto cfg = server_config();
    cfg.tracer = traced ? &tracer : nullptr;

    JobResult out;
    malloc_trim(0);  // hand back what the last job freed, then start the mark
    if (!perfbench::reset_peak_rss()) {
      std::fprintf(stderr, "warning: cannot reset VmHWM; peak_rss_mb covers the process\n");
    }
    const auto steal0 = perfbench::cpu_steal_total();
    const double cpu0 = perfbench::process_cpu_s();
    double t0 = steady_s();
    dist::Server server(cfg);
    server.start();
    double first_submit = steady_s();
    std::vector<dist::ProblemId> ids;
    for (auto& dm : make_problems(workload, inputs)) {
      ids.push_back(server.submit_problem(
          perfbench::timed_data_manager(std::move(dm), times)));
    }
    out.setup_s = steady_s() - t0;

    Probe probe(server.port());
    probe.start();
    std::vector<perfbench::DonorTrack> tracks(kDonors);
    std::vector<dist::ClientRunStats> dstats(kDonors);
    std::atomic<int> donor_errors{0};
    std::vector<std::thread> donors;
    for (int i = 0; i < kDonors; ++i) {
      donors.emplace_back([&, i] {
        perfbench::attach_donor_track(&tracks[i]);
        // Donors are a low-priority background service (paper section 3).
        // On one host this also keeps the server and the probe from
        // queueing behind a donor's time slice.
        sched_param idle{};
        if (sched_setscheduler(gettid(), SCHED_IDLE, &idle) != 0) {
          std::fprintf(stderr, "warning: donor %d: SCHED_IDLE refused\n", i);
        }
        try {
          dist::ClientConfig cc;
          cc.server_port = server.port();
          cc.name = "donor-" + std::to_string(i);
          cc.send_heartbeats = false;
          cc.registry = &registry;
          dist::Client client(cc);
          dstats[i] = client.run();
        } catch (const std::exception& e) {
          donor_errors.fetch_add(1);
          std::fprintf(stderr, "donor %d: %s\n", i, e.what());
        }
        perfbench::attach_donor_track(nullptr);
      });
    }
    bool done = server.wait_for_all(kJobTimeout);
    out.makespan_s = steady_s() - first_submit;
    out.cpu_s = perfbench::process_cpu_s() - cpu0;
    out.steal_frac = perfbench::steal_frac_since(steal0);
    probe.stop();
    if (!done) server.drain();
    for (auto& t : donors) t.join();

    for (std::size_t i = 0; i < ids.size(); ++i) {
      if (!done || server.final_result(ids[i]) != reference[i]) out.correct = false;
    }
    out.stats = server.stats();
    server.stop();
    out.peak_rss_mb = perfbench::peak_rss_mb();

    out.acks = out.stats.results_accepted;
    for (const auto& t : tracks) {
      out.busy_s += t.busy_s;
      out.busy_cpu_s += t.busy_cpu_s;
      out.gaps_s.insert(out.gaps_s.end(), t.gaps_s.begin(), t.gaps_s.end());
    }
    out.probe_rtt_s = std::move(probe.rtt_s);
    out.probe_late_max_s = probe.late_max_s;

    std::uint64_t donor_failures = static_cast<std::uint64_t>(donor_errors.load());
    for (const auto& s : dstats) donor_failures += s.reconnects + s.retry_laters;
    const auto& st = out.stats;
    std::uint64_t rejected = st.duplicate_results_dropped + st.stale_results_dropped +
                             st.results_rejected_mismatch +
                             st.results_rejected_digest +
                             st.results_rejected_blacklisted +
                             st.results_rejected_stale_epoch;
    out.attempted = probe.sent + st.units_issued + kDonors;
    out.failed = probe.errors + donor_failures + rejected;
    if (!out.correct) out.failed = out.attempted;

    if (traced) {
      totals.absorb(obs::Registry::global());
      auto lines = tracer.lines();
      trace_lines.insert(trace_lines.end(), lines.begin(), lines.end());
    }
    times.set_enabled(false);
    return out;
  }
};

// ------------------------------------------------------------------- output

struct Metric {
  std::string name;
  double value;
  std::string unit;
  std::string note;
  /// False for metrics printed for reading but kept out of the JSON result
  /// (see the tails below).
  bool in_result = true;
};

std::string json_number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.12g", std::isfinite(v) ? v : 0.0);
  return buf;
}

std::string json_string(const std::string& s) {
  std::string o = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') o += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) o += c;
  }
  return o + "\"";
}

/// Highest of the fixed percentile ladder with >= 10 samples beyond it,
/// capped at the workload's fixed choice.
double tail_q(double fixed_q, std::size_t n) {
  for (double q : {0.999, 0.99, 0.9, 0.5}) {
    if (q <= fixed_q && static_cast<double>(n) * (1.0 - q) >= 10.0) return q;
  }
  return 0.5;
}

std::string pct(double q) {
  std::ostringstream o;
  o << "p" << q * 100;
  return o.str();
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 20;
  int trace = 0;
  std::string work_dir;
  std::string trace_out;  // traced jobs' trace events, JSONL; empty = none
  bool tiny = false;
};

[[noreturn]] void usage(const char* msg) {
  std::fprintf(stderr,
               "error: %s\nusage: perfbench_e2e --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> --work-dir <dir> [--trace-out <file>] "
               "[--tiny]\n",
               msg);
  std::exit(2);
}

Options parse_options(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    std::string a = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage(("missing value for " + a).c_str());
      return argv[++i];
    };
    if (a == "--workload") o.workload = value();
    else if (a == "--seed") o.seed = std::stoull(value());
    else if (a == "--seconds") o.seconds = std::stod(value());
    else if (a == "--trace") o.trace = std::stoi(value());
    else if (a == "--work-dir") o.work_dir = value();
    else if (a == "--trace-out") o.trace_out = value();
    else if (a == "--tiny") o.tiny = true;
    else usage(("unknown argument " + a).c_str());
  }
  if (o.workload.empty() || o.work_dir.empty()) usage("--workload and --work-dir are required");
  if (o.trace != 0 && o.trace != 1) usage("--trace must be 0 or 1");
  if (!(o.seconds > 0)) usage("--seconds must be positive");
  return o;
}

}  // namespace

int main(int argc, char** argv) {
  set_log_level(LogLevel::kError);
  Options opt = parse_options(argc, argv);
  const Workload* wl = nullptr;
  for (const auto& w : kWorkloads) {
    if (opt.workload == w.name) wl = &w;
  }
  if (wl == nullptr) usage(("unknown workload " + opt.workload).c_str());

  std::filesystem::create_directories(opt.work_dir);
  const std::string fs_type = perfbench::filesystem_type(opt.work_dir);
  if (fs_type == "tmpfs" || fs_type == "ramfs") {
    // fsync is free there, which would hide the per-ack fsync that bounds
    // control_tiny_units.
    std::fprintf(stderr, "error: refusing WAL directory %s on %s\n",
                 opt.work_dir.c_str(), fs_type.c_str());
    return 2;
  }

  const double load_before = perfbench::loadavg1();
  const auto steal_before = perfbench::cpu_steal_total();
  const double cpu_before = perfbench::cpu_probe_ms();
  const double wakeup_before = perfbench::wakeup_probe_us();
  const double fsync_before = perfbench::fsync_probe_us(opt.work_dir);
  std::printf(
      "host {\"cpu_model\":%s,\"nproc\":%ld,\"simd_tier\":%s,\"build_type\":%s,"
      "\"wal_fs\":%s,\"workload\":%s,\"seed\":%llu,\"seconds\":%s,\"trace\":%d,"
      "\"loadavg_before\":%s}\n",
      json_string(perfbench::cpu_model()).c_str(), sysconf(_SC_NPROCESSORS_ONLN),
      json_string(to_string(simd_tier())).c_str(),
      json_string(PERFBENCH_BUILD_TYPE).c_str(), json_string(fs_type).c_str(),
      json_string(wl->name).c_str(), static_cast<unsigned long long>(opt.seed),
      json_number(opt.seconds).c_str(), opt.trace,
      json_number(load_before).c_str());

  // Inputs and the serial reference are made once per seed, outside the
  // timed region.
  Inputs inputs = make_inputs(*wl, opt.seed, opt.tiny);
  double ref_t0 = steady_s();
  auto reference = reference_results(*wl, inputs);
  std::size_t query_residues = 0;
  std::size_t db_residues = 0;
  for (const auto& q : inputs.queries) query_residues += q.length();
  for (const auto& d : inputs.database) db_residues += d.length();
  std::printf("reference: %zu problem(s) in %.3f s; %zu query x %zu database residues\n",
              reference.size(), steady_s() - ref_t0, query_residues, db_residues);

  Harness h(*wl, inputs, reference, opt.work_dir + "/wal");
  std::vector<JobResult> plain;
  std::vector<JobResult> traced;
  const double start = steady_s();
  std::vector<double> job_walls;
  for (;;) {
    bool trace_this = opt.trace == 1 && plain.size() > traced.size();
    double j0 = steady_s();
    JobResult r = h.run_job(trace_this);
    job_walls.push_back(steady_s() - j0);
    std::printf("job %zu%s: makespan %.4f s, setup %.4f s, wall %.3f s, cpu %.3f s, "
                "compute cpu %.3f s, steal %.3f, %llu acks%s\n",
                plain.size() + traced.size(), trace_this ? " (traced)" : "", r.makespan_s,
                r.setup_s, job_walls.back(), r.cpu_s, r.busy_cpu_s, r.steal_frac,
                static_cast<unsigned long long>(r.acks),
                r.correct ? "" : ", WRONG ANSWER");
    std::fflush(stdout);
    (trace_this ? traced : plain).push_back(std::move(r));
    if (!(trace_this ? traced : plain).back().correct) break;
    double elapsed = steady_s() - start;
    if (plain.size() + traced.size() >= kMinJobs &&
        elapsed + median(job_walls) > opt.seconds) {
      break;
    }
  }

  // WAL-tail replay of the last traced job: self time per core op and
  // per append/fsync on that job's real traffic.
  perfbench::WalReplayTimes replay;
  if (!traced.empty() && traced.back().correct) {
    replay = perfbench::replay_wal(h.wal_dir, opt.work_dir + "/wal-replay",
                                   h.server_config().scheduler, wl->policy,
                                   make_problems(*wl, inputs));
    std::printf("wal replay: %zu records (%s base), %zu applied, %zu failed\n",
                replay.records, replay.had_base ? "with" : "no", replay.applied,
                replay.failed);
  }
  std::filesystem::remove_all(opt.work_dir + "/wal-replay");
  std::filesystem::remove_all(h.wal_dir);

  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  for (const auto* set : {&plain, &traced}) {
    for (const auto& r : *set) {
      correct = correct && r.correct;
      attempted += r.attempted;
      failed += r.failed;
    }
  }
  if (replay.failed > 0) {
    correct = false;
    failed += replay.failed;
  }

  // ---- end-to-end metrics (untraced jobs) ----
  // Timings are taken per job and reported as the median over the quieter
  // half of the run's jobs: those with the least hypervisor steal. On a
  // shared host steal comes in bursts of seconds, and one percent of it can
  // stretch a job by several percent (a stolen vCPU stalls every thread
  // waiting on the one it was running). The program cannot cause steal, so ranking jobs by
  // it drops host noise and keeps every effect of the code. Set-up time and
  // peak RSS use every job. Tails use the workload's fixed percentile,
  // lowered only if some job has fewer than ten samples beyond it.
  std::vector<const JobResult*> quiet;
  for (const auto& r : plain) quiet.push_back(&r);
  std::stable_sort(quiet.begin(), quiet.end(), [](const JobResult* a, const JobResult* b) {
    return a->steal_frac < b->steal_frac;
  });
  quiet.resize((quiet.size() + 1) / 2);
  std::vector<double> makespans, all_makespans, acks_ps, busy, setups, rss;
  std::size_t min_gaps = SIZE_MAX;
  std::size_t min_rtts = SIZE_MAX;
  std::size_t n_gaps = 0;
  std::size_t n_rtts = 0;
  double late_max = 0;
  double quiet_steal_max = 0;
  for (const auto* r : quiet) {
    makespans.push_back(r->makespan_s);
    acks_ps.push_back(static_cast<double>(r->acks) / r->makespan_s);
    busy.push_back(r->busy_s / (kDonors * r->makespan_s));
    min_gaps = std::min(min_gaps, r->gaps_s.size());
    min_rtts = std::min(min_rtts, r->probe_rtt_s.size());
    n_gaps += r->gaps_s.size();
    n_rtts += r->probe_rtt_s.size();
    quiet_steal_max = std::max(quiet_steal_max, r->steal_frac);
  }
  for (const auto& r : plain) {
    all_makespans.push_back(r.makespan_s);
    setups.push_back(r.setup_s);
    rss.push_back(r.peak_rss_mb);
    late_max = std::max(late_max, r.probe_late_max_s);
  }
  const double gq = tail_q(wl->gap_tail_q, min_gaps);
  const double pq = tail_q(wl->probe_tail_q, min_rtts);
  auto per_job = [&](std::vector<double> JobResult::*samples, double q) {
    std::vector<double> v;
    for (const auto* r : quiet) v.push_back(quantile(r->*samples, q) * 1e3);
    return median(v);
  };
  const std::string all = std::to_string(plain.size()) + " jobs";
  char quiet_buf[96];
  std::snprintf(quiet_buf, sizeof quiet_buf, "%zu of %zu jobs (steal <= %.3f)", quiet.size(),
                plain.size(), quiet_steal_max);
  const std::string reps = quiet_buf;
  auto count_note = [&](double q, std::size_t n) {
    return (q == 0.5 ? std::string() : pct(q) + ", ") + "median of " + reps + ", " +
           std::to_string(n) + " samples";
  };
  std::vector<Metric> e2e = {
      {"makespan_s", median(makespans), "s", "median of " + reps},
      // For reading beside makespan_s: how much the steal filter moved it.
      {"makespan_s_all_jobs", median(all_makespans), "s", "median of " + all, false},
      {"acks_per_s", median(acks_ps), "1/s", "median of " + reps},
      {"donor_busy_frac", median(busy), "fraction", "median of " + reps},
      // Unit gaps and probe round trips are printed here but gated in the
      // per-layer breakdown only: each is a chain of thread wakeups, and on
      // a shared 4-vCPU host a few percent of steal stretches them several
      // fold, beyond any usable regression bound. The tails swing most.
      {"unit_gap_ms_p50", per_job(&JobResult::gaps_s, 0.5), "ms", count_note(0.5, n_gaps),
       false},
      {"unit_gap_ms_tail", per_job(&JobResult::gaps_s, gq), "ms", count_note(gq, n_gaps),
       false},
      {"probe_rtt_ms_p50", per_job(&JobResult::probe_rtt_s, 0.5), "ms",
       count_note(0.5, n_rtts), false},
      {"probe_rtt_ms_tail", per_job(&JobResult::probe_rtt_s, pq), "ms",
       count_note(pq, n_rtts), false},
      {"setup_s", median(setups), "s", "median of " + all},
      {"peak_rss_mb", median(rss), "MiB", "per-job high-water mark, median of " + all},
  };
  const double failed_frac =
      attempted == 0 ? 1.0 : static_cast<double>(failed) / static_cast<double>(attempted);

  // ---- per-layer metrics (traced jobs) ----
  std::vector<Metric> layers;
  if (opt.trace == 1) {
    auto c = [&](const char* n) {
      return static_cast<double>(h.totals.counters[n]);
    };
    auto ratio = [](double a, double b) { return b > 0 ? a / b : 0.0; };
    auto ds = h.times.get(dsearch::kAlgorithmName);
    auto dp = h.times.get(dprml::kAlgorithmName);
    const double cells = c("align.cells_total");
    layers.push_back({"bio.cells", cells, "count", ""});
    layers.push_back({"bio.gcells_per_s", ratio(cells, sum(ds.process_s)) / 1e9,
                      "Gcell/s", ""});
    layers.push_back({"bio.saturations", c("align.batch_saturations"), "count", ""});
    layers.push_back({"bio.lane_fill",
                      ratio(static_cast<double>(ds.subjects),
                            static_cast<double>(ds.lane_slots)),
                      "fraction", ""});
    for (auto& [app, t] : {std::pair<std::string, perfbench::AppTimes*>{"dsearch", &ds},
                           std::pair<std::string, perfbench::AppTimes*>{"dprml", &dp}}) {
      layers.push_back({app + ".process_s_p50", median(t->process_s), "s", ""});
      layers.push_back({app + ".process_s_sum", sum(t->process_s), "s", ""});
      layers.push_back({app + ".initialize_s_sum", sum(t->initialize_s), "s", ""});
      layers.push_back({app + ".next_unit_s_p50", median(t->next_unit_s), "s", ""});
      layers.push_back({app + ".next_unit_s_sum", sum(t->next_unit_s), "s", ""});
      layers.push_back({app + ".accept_result_s_p50", median(t->accept_result_s), "s", ""});
      layers.push_back({app + ".accept_result_s_sum", sum(t->accept_result_s), "s", ""});
    }
    layers.push_back({"dprml.eval_cache_entries",
                      static_cast<double>(dprml::EvalCache::global().size()), "count",
                      "after the last job"});

    // Donor phases and the submit leg from the server's unit_profile events.
    std::map<std::string, std::vector<double>> phase;
    for (const auto& line : h.trace_lines) {
      auto rec = obs::parse_trace_line(line);
      if (rec.ev != "unit_profile") continue;
      for (const char* k : {"queue_wait_s", "encode_s", "submit_s", "blob_fetch_s",
                            "decompress_s"}) {
        phase[k].push_back(rec.number(k));
      }
    }
    layers.push_back({"dist.client.queue_wait_s_p50", median(phase["queue_wait_s"]), "s", ""});
    layers.push_back({"dist.client.encode_s_p50", median(phase["encode_s"]), "s", ""});
    layers.push_back({"dist.client.submit_s_p50", median(phase["submit_s"]), "s", ""});
    layers.push_back({"net.blob_fetch_s_p50", median(phase["blob_fetch_s"]), "s", ""});
    layers.push_back({"net.decompress_s_p50", median(phase["decompress_s"]), "s", ""});
    layers.push_back({"net.bytes_sent", c("net.bytes_sent"), "bytes", ""});
    layers.push_back({"net.frames_sent", c("net.frames_sent"), "count", ""});
    layers.push_back({"net.blob_hit_frac",
                      ratio(c("bulk.blobs_cache_hit"),
                            c("bulk.blobs_cache_hit") + c("bulk.blobs_sent")),
                      "fraction", ""});
    layers.push_back({"net.compress_ratio", ratio(c("bulk.bytes_raw"), c("bulk.bytes_wire")),
                      "ratio", ""});
    layers.push_back({"net.loop_lag_s_p99", h.totals.hists["net.loop.lag_s"].quantile(0.99),
                      "s", ""});
    for (const char* m : {"Hello", "RequestWork", "FetchBlobs", "SubmitResult", "Heartbeat"}) {
      const auto& s = h.totals.hists[std::string("server.handle_s.") + m];
      std::string base = std::string("dist.server.handle_s.") + m;
      layers.push_back({base + ".count", static_cast<double>(s.count), "count", ""});
      layers.push_back({base + ".p50", s.quantile(0.5), "s", ""});
      layers.push_back({base + ".p99", s.quantile(0.99), "s", ""});
    }
    dist::SchedulerStats ts;
    for (const auto& r : traced) {
      ts.units_issued += r.stats.units_issued;
      ts.units_reissued += r.stats.units_reissued;
      ts.work_requests_unserved += r.stats.work_requests_unserved;
      ts.duplicate_results_dropped += r.stats.duplicate_results_dropped;
      ts.results_accepted += r.stats.results_accepted;
    }
    layers.push_back({"dist.scheduler.unserved_frac",
                      ratio(static_cast<double>(ts.work_requests_unserved),
                            static_cast<double>(ts.work_requests_unserved + ts.units_issued)),
                      "fraction", ""});
    layers.push_back({"dist.scheduler.reissued", static_cast<double>(ts.units_reissued),
                      "count", ""});
    layers.push_back({"dist.scheduler.duplicate_frac",
                      ratio(static_cast<double>(ts.duplicate_results_dropped),
                            static_cast<double>(ts.results_accepted)),
                      "fraction", ""});
    layers.push_back({"dist.wal.records", c("wal.records"), "count", ""});
    layers.push_back({"dist.wal.syncs", c("wal.syncs"), "count", ""});
    layers.push_back({"dist.wal.bytes", c("wal.bytes"), "bytes", ""});
    layers.push_back({"dist.wal.records_per_sync", ratio(c("wal.records"), c("wal.syncs")),
                      "ratio", ""});
    for (const char* op : {"request_work", "submit_result", "heartbeat", "tick"}) {
      layers.push_back({std::string("dist.scheduler.op_us.") + op,
                        median(replay.op_s[op]) * 1e6, "us",
                        "n=" + std::to_string(replay.op_s[op].size())});
    }
    layers.push_back({"dist.wal.append_us", median(replay.append_s) * 1e6, "us",
                      "n=" + std::to_string(replay.append_s.size())});
    layers.push_back({"dist.wal.sync_us", median(replay.sync_s) * 1e6, "us",
                      "n=" + std::to_string(replay.sync_s.size())});
    layers.push_back({"dist.client.unit_gap_ms_p50", per_job(&JobResult::gaps_s, 0.5), "ms",
                      "untraced jobs, " + count_note(0.5, n_gaps)});
    layers.push_back({"dist.server.probe_rtt_ms_p50",
                      per_job(&JobResult::probe_rtt_s, 0.5), "ms",
                      "untraced jobs, " + count_note(0.5, n_rtts)});
    layers.push_back({"bench.probe_late_ms_max", late_max * 1e3, "ms", "untraced jobs"});
    std::vector<double> traced_makespans;
    for (const auto& r : traced) traced_makespans.push_back(r.makespan_s);
    layers.push_back({"bench.trace_overhead_frac",
                      ratio(median(traced_makespans), median(all_makespans)) - 1.0,
                      "fraction", "traced vs untraced makespan_s"});
  }

  if (!opt.trace_out.empty() && !h.trace_lines.empty()) {
    // Spans were kept in memory during the run; write them out now, in the
    // server's trace schema (tools/trace_summary reads it).
    std::ofstream out(opt.trace_out);
    for (const auto& line : h.trace_lines) out << line << '\n';
    out.flush();
    std::printf("trace: %zu events in %s%s\n", h.trace_lines.size(),
                opt.trace_out.c_str(), out ? "" : " (write failed)");
  }

  const auto steal_after = perfbench::cpu_steal_total();
  const double total_ticks =
      static_cast<double>(steal_after.second - steal_before.second);
  const double steal_frac =
      total_ticks > 0
          ? static_cast<double>(steal_after.first - steal_before.first) / total_ticks
          : 0.0;
  std::printf(
      "load {\"loadavg_before\":%s,\"loadavg_after\":%s,\"steal_frac\":%s,"
      "\"cpu_probe_ms_before\":%s,\"cpu_probe_ms_after\":%s,"
      "\"wakeup_probe_us_before\":%s,\"wakeup_probe_us_after\":%s,"
      "\"fsync_probe_us_before\":%s,\"fsync_probe_us_after\":%s}\n",
      json_number(load_before).c_str(), json_number(perfbench::loadavg1()).c_str(),
      json_number(steal_frac).c_str(), json_number(cpu_before).c_str(),
      json_number(perfbench::cpu_probe_ms()).c_str(), json_number(wakeup_before).c_str(),
      json_number(perfbench::wakeup_probe_us()).c_str(), json_number(fsync_before).c_str(),
      json_number(perfbench::fsync_probe_us(opt.work_dir)).c_str());
  for (const auto& m : e2e) {
    std::printf("metric %-34s %14.6g %-9s %s\n", m.name.c_str(), m.value,
                m.unit.c_str(), m.note.c_str());
  }
  std::printf("metric %-34s %14.6g %-9s %llu of %llu operations\n", "failed_frac",
              failed_frac, "fraction", static_cast<unsigned long long>(failed),
              static_cast<unsigned long long>(attempted));
  for (const auto& m : layers) {
    std::printf("layer  %-44s %14.6g %-9s %s\n", m.name.c_str(), m.value,
                m.unit.c_str(), m.note.c_str());
  }

  std::string json = "{\"correct\": " + std::string(correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(attempted) +
                     ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  bool first = true;
  for (const auto& m : opt.trace == 1 ? layers : e2e) {
    if (!m.in_result) continue;
    json += (first ? "" : ", ") + json_string(m.name) + ": {\"value\": " +
            json_number(m.value) + ", \"unit\": " + json_string(m.unit) + "}";
    first = false;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}
