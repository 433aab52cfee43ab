#include <fcntl.h>
#include <sys/resource.h>
#include <sys/statfs.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <ctime>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>

#include "bench.hpp"
#include "bio/align_batch.hpp"
#include "dist/granularity.hpp"
#include "dist/wal.hpp"
#include "dprml/dprml.hpp"
#include "dsearch/dsearch.hpp"
#include "util/byte_buffer.hpp"

namespace perfbench {

using namespace hdcs;

namespace {

double steady_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

thread_local DonorTrack* tl_track = nullptr;

}  // namespace

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  double pos = q * static_cast<double>(v.size() - 1);
  auto lo = static_cast<std::size_t>(std::floor(pos));
  std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double median(const std::vector<double>& v) { return quantile(v, 0.5); }

double sum(const std::vector<double>& v) {
  double s = 0;
  for (double x : v) s += x;
  return s;
}

void attach_donor_track(DonorTrack* track) { tl_track = track; }

void LayerTimes::add(const std::string& app, std::vector<double> AppTimes::*field,
                     double s) {
  std::lock_guard lock(mu_);
  (apps_[app].*field).push_back(s);
}
void LayerTimes::add_lanes(const std::string& app, std::uint64_t subjects,
                           std::uint64_t slots) {
  std::lock_guard lock(mu_);
  apps_[app].subjects += subjects;
  apps_[app].lane_slots += slots;
}
AppTimes LayerTimes::get(const std::string& app) const {
  std::lock_guard lock(mu_);
  auto it = apps_.find(app);
  return it == apps_.end() ? AppTimes{} : it->second;
}

namespace {

/// Forwards to the real Algorithm and times it from outside.
class TimedAlgorithm final : public dist::Algorithm {
 public:
  TimedAlgorithm(std::string app, std::unique_ptr<dist::Algorithm> inner,
                 LayerTimes& times)
      : app_(std::move(app)), inner_(std::move(inner)), times_(times) {}

  void initialize(std::span<const std::byte> problem_data) override {
    double t0 = steady_s();
    inner_->initialize(problem_data);
    if (times_.enabled()) times_.add(app_, &AppTimes::initialize_s, steady_s() - t0);
  }

  std::vector<std::byte> process(const dist::WorkUnit& unit) override {
    if (times_.enabled() && app_ == dsearch::kAlgorithmName &&
        !unit.blobs.empty()) {
      // Lane fill: subjects per unit over the kBatchLanes-rounded slots
      // the batch kernel sweeps. Decoded outside the timed span.
      ByteReader r(unit.blobs.front().bytes);
      auto n = static_cast<std::uint64_t>(dsearch::decode_sequences(r).size());
      std::uint64_t lanes = bio::kBatchLanes;
      times_.add_lanes(app_, n, (n + lanes - 1) / lanes * lanes);
    }
    DonorTrack* track = tl_track;
    double t0 = steady_s();
    if (track != nullptr && track->last_end) {
      track->gaps_s.push_back(t0 - *track->last_end);
    }
    const double c0 = thread_cpu_s();
    auto out = inner_->process(unit);
    const double c1 = thread_cpu_s();
    double t1 = steady_s();
    if (track != nullptr) {
      track->busy_s += t1 - t0;
      track->busy_cpu_s += c1 - c0;
      track->last_end = t1;
    }
    if (times_.enabled()) times_.add(app_, &AppTimes::process_s, t1 - t0);
    return out;
  }

  void set_parallelism(std::size_t threads) override {
    inner_->set_parallelism(threads);
  }

 private:
  std::string app_;
  std::unique_ptr<dist::Algorithm> inner_;
  LayerTimes& times_;
};

/// Forwards to the real DataManager; times the calls the scheduler makes
/// under its core lock.
class TimedDataManager final : public dist::DataManager {
 public:
  TimedDataManager(std::shared_ptr<dist::DataManager> inner, LayerTimes& times)
      : inner_(std::move(inner)), app_(inner_->algorithm_name()), times_(times) {}

  [[nodiscard]] std::string algorithm_name() const override { return app_; }
  [[nodiscard]] std::vector<std::byte> problem_data() const override {
    return inner_->problem_data();
  }
  std::optional<dist::WorkUnit> next_unit(const dist::SizeHint& hint) override {
    if (!times_.enabled()) return inner_->next_unit(hint);
    double t0 = steady_s();
    auto unit = inner_->next_unit(hint);
    times_.add(app_, &AppTimes::next_unit_s, steady_s() - t0);
    return unit;
  }
  void accept_result(const dist::ResultUnit& result) override {
    if (!times_.enabled()) return inner_->accept_result(result);
    double t0 = steady_s();
    inner_->accept_result(result);
    times_.add(app_, &AppTimes::accept_result_s, steady_s() - t0);
  }
  [[nodiscard]] bool is_complete() const override { return inner_->is_complete(); }
  [[nodiscard]] std::vector<std::byte> final_result() const override {
    return inner_->final_result();
  }
  [[nodiscard]] double remaining_ops_estimate() const override {
    return inner_->remaining_ops_estimate();
  }
  [[nodiscard]] bool supports_snapshot() const override {
    return inner_->supports_snapshot();
  }
  void snapshot(ByteWriter& w) const override { inner_->snapshot(w); }
  void restore(ByteReader& r) override { inner_->restore(r); }

 private:
  std::shared_ptr<dist::DataManager> inner_;
  std::string app_;
  LayerTimes& times_;
};

const char* op_name(dist::WalOp op) {
  switch (op) {
    case dist::WalOp::kClientJoined: return "client_joined";
    case dist::WalOp::kClientLeft: return "client_left";
    case dist::WalOp::kHeartbeat: return "heartbeat";
    case dist::WalOp::kRequestWork: return "request_work";
    case dist::WalOp::kSubmitResult: return "submit_result";
    case dist::WalOp::kTick: return "tick";
    case dist::WalOp::kEpoch: return "epoch";
  }
  return "unknown";
}

}  // namespace

void register_timed_algorithms(dist::AlgorithmRegistry& registry,
                               LayerTimes& times) {
  registry.register_algorithm(dsearch::kAlgorithmName, [&times] {
    return std::make_unique<TimedAlgorithm>(
        dsearch::kAlgorithmName, std::make_unique<dsearch::DSearchAlgorithm>(),
        times);
  });
  registry.register_algorithm(dprml::kAlgorithmName, [&times] {
    return std::make_unique<TimedAlgorithm>(
        dprml::kAlgorithmName, std::make_unique<dprml::DPRmlAlgorithm>(), times);
  });
}

std::shared_ptr<dist::DataManager> timed_data_manager(
    std::shared_ptr<dist::DataManager> inner, LayerTimes& times) {
  return std::make_shared<TimedDataManager>(std::move(inner), times);
}

WalReplayTimes replay_wal(const std::string& wal_dir,
                          const std::string& scratch_dir,
                          const dist::SchedulerConfig& scheduler,
                          const std::string& policy_spec,
                          std::vector<std::shared_ptr<dist::DataManager>> problems) {
  WalReplayTimes out;
  std::vector<dist::WalRecord> tail;
  {
    dist::WalLog log(dist::WalConfig{wal_dir});
    dist::WalRecovery rec = log.take_recovery();
    out.had_base = rec.base_snapshot.has_value();
    tail = std::move(rec.tail);
    dist::SchedulerCore core(scheduler, dist::make_policy(policy_spec));
    for (auto& dm : problems) core.submit_problem(dm);
    if (rec.base_snapshot) {
      ByteReader r(*rec.base_snapshot);
      core.restore_exact(r);
      r.expect_end();
    }
    out.records = tail.size();
    for (const auto& wrec : tail) {
      double t0 = steady_s();
      try {
        dist::apply_wal_record(core, wrec);
      } catch (const std::exception&) {
        out.failed += 1;
        continue;
      }
      out.op_s[op_name(wrec.op)].push_back(steady_s() - t0);
      out.applied += 1;
    }
  }

  std::filesystem::remove_all(scratch_dir);
  dist::WalLog scratch(dist::WalConfig{scratch_dir});
  for (auto wrec : tail) {
    wrec.lsn = 0;
    double t0 = steady_s();
    scratch.append(wrec);
    double t1 = steady_s();
    out.append_s.push_back(t1 - t0);
    if (wrec.op == dist::WalOp::kSubmitResult) {
      scratch.sync();
      out.sync_s.push_back(steady_s() - t1);
    }
  }
  return out;
}

std::string filesystem_type(const std::string& path) {
  struct statfs s {};
  if (statfs(path.c_str(), &s) != 0) return "unknown";
  switch (static_cast<unsigned long>(s.f_type)) {
    case 0xEF53: return "ext4";
    case 0x58465342: return "xfs";
    case 0x9123683E: return "btrfs";
    case 0x01021994: return "tmpfs";
    case 0x858458F6: return "ramfs";
    case 0x794C7630: return "overlayfs";
    case 0x6969: return "nfs";
    case 0x65735546: return "fuse";
    default: {
      std::ostringstream o;
      o << "0x" << std::hex << static_cast<unsigned long>(s.f_type);
      return o.str();
    }
  }
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      auto colon = line.find(':');
      if (colon != std::string::npos) {
        auto v = line.substr(colon + 1);
        v.erase(0, v.find_first_not_of(' '));
        return v;
      }
    }
  }
  return "unknown";
}

double loadavg1() {
  std::ifstream in("/proc/loadavg");
  double v = 0;
  in >> v;
  return v;
}

std::pair<std::uint64_t, std::uint64_t> cpu_steal_total() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  in >> cpu;
  std::uint64_t total = 0;
  std::uint64_t steal = 0;
  // user nice system idle iowait irq softirq steal (guest fields are
  // already counted in user/nice).
  for (int i = 0; i < 8; ++i) {
    std::uint64_t v = 0;
    in >> v;
    total += v;
    if (i == 7) steal = v;
  }
  return {steal, total};
}

double steal_frac_since(std::pair<std::uint64_t, std::uint64_t> since) {
  const auto now = cpu_steal_total();
  const double total = static_cast<double>(now.second - since.second);
  return total > 0 ? static_cast<double>(now.first - since.first) / total : 0.0;
}

double thread_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

double process_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

double cpu_probe_ms() {
  double t0 = steady_s();
  std::uint64_t x = 0x9e3779b97f4a7c15ull;
  for (int i = 0; i < 20'000'000; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
  }
  volatile std::uint64_t sink = x;
  (void)sink;
  return (steady_s() - t0) * 1e3;
}

double wakeup_probe_us() {
  int ping[2];
  int pong[2];
  if (::pipe(ping) != 0) return -1;
  if (::pipe(pong) != 0) {
    ::close(ping[0]);
    ::close(ping[1]);
    return -1;
  }
  constexpr int kRounds = 2000;
  std::thread echo([&] {
    char c = 0;
    for (int i = 0; i < kRounds; ++i) {
      if (::read(ping[0], &c, 1) != 1 || ::write(pong[1], &c, 1) != 1) break;
    }
  });
  std::vector<double> spans;
  char c = 0;
  for (int i = 0; i < kRounds; ++i) {
    double t0 = steady_s();
    if (::write(ping[1], &c, 1) != 1 || ::read(pong[0], &c, 1) != 1) break;
    spans.push_back(steady_s() - t0);
  }
  ::close(ping[1]);  // unblocks the echo thread if the loop broke early
  echo.join();
  ::close(ping[0]);
  ::close(pong[0]);
  ::close(pong[1]);
  return spans.size() == kRounds ? median(spans) * 1e6 : -1;
}

double fsync_probe_us(const std::string& dir) {
  const std::string path = dir + "/fsync-probe";
  int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) return -1;
  char block[4096] = {};
  std::vector<double> spans;
  for (int i = 0; i < 16; ++i) {
    if (::pwrite(fd, block, sizeof block, 0) != static_cast<ssize_t>(sizeof block)) break;
    double t0 = steady_s();
    if (::fsync(fd) != 0) break;
    spans.push_back(steady_s() - t0);
  }
  ::close(fd);
  ::unlink(path.c_str());
  return spans.size() == 16 ? median(spans) * 1e6 : -1;
}

bool reset_peak_rss() {
  std::ofstream out("/proc/self/clear_refs");
  out << "5";
  out.flush();
  return static_cast<bool>(out);
}

double peak_rss_mb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB
    }
  }
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

}  // namespace perfbench
