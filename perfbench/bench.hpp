#pragma once
// Shared pieces of the end-to-end benchmark (see e2e.cpp for the harness).
//
// Everything here observes the system from outside: forwarding wrappers
// around the public Algorithm and DataManager interfaces, the server's own
// metrics registry and trace events, and a replay of the WAL the server
// left behind. No file under src/ is touched.

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "dist/algorithm.hpp"
#include "dist/data_manager.hpp"
#include "dist/registry.hpp"
#include "dist/scheduler_core.hpp"

namespace perfbench {

namespace dist = hdcs::dist;

// ---- sample statistics ----

/// Linear-interpolated quantile of `v` (q in [0,1]); 0 when empty.
double quantile(std::vector<double> v, double q);
double median(const std::vector<double>& v);
double sum(const std::vector<double>& v);

// ---- donor-side spans ----

/// One donor thread's process() timeline. Written only by that thread
/// (through a thread_local pointer), read after the thread is joined.
struct DonorTrack {
  double busy_s = 0;                  // sum of process() time
  double busy_cpu_s = 0;              // the same in thread CPU time
  std::optional<double> last_end;     // steady seconds of the last return
  std::vector<double> gaps_s;         // process() return -> next start
};

/// Attach `track` to the calling thread; process() calls on this thread
/// then feed it. nullptr detaches.
void attach_donor_track(DonorTrack* track);

/// Per-application call timings, filled only while tracing.
struct AppTimes {
  std::vector<double> process_s;
  std::vector<double> initialize_s;
  std::vector<double> next_unit_s;
  std::vector<double> accept_result_s;
  std::uint64_t subjects = 0;    // DSEARCH subjects decoded from units
  std::uint64_t lane_slots = 0;  // kBatchLanes-rounded subject slots
};

/// Thread-safe store of AppTimes keyed by algorithm name. Records only
/// while enabled (the traced repetitions of a run).
class LayerTimes {
 public:
  void set_enabled(bool on) { enabled_.store(on); }
  [[nodiscard]] bool enabled() const { return enabled_.load(); }
  void add(const std::string& app, std::vector<double> AppTimes::*field, double s);
  void add_lanes(const std::string& app, std::uint64_t subjects,
                 std::uint64_t slots);
  [[nodiscard]] AppTimes get(const std::string& app) const;

 private:
  std::atomic<bool> enabled_{false};
  mutable std::mutex mu_;
  std::map<std::string, AppTimes> apps_;
};

/// Register DSEARCH and DPRml in `registry`, each wrapped in a timing
/// forwarder. Donor busy time and unit gaps always go to the calling
/// thread's DonorTrack; per-call spans go to `times` while it is enabled.
/// `times` must outlive every Algorithm the registry creates.
void register_timed_algorithms(dist::AlgorithmRegistry& registry,
                               LayerTimes& times);

/// Wrap a DataManager so next_unit/accept_result are timed into `times`
/// while it is enabled. `times` must outlive the wrapper.
std::shared_ptr<dist::DataManager> timed_data_manager(
    std::shared_ptr<dist::DataManager> inner, LayerTimes& times);

// ---- WAL replay (per-op self time on the run's real traffic) ----

struct WalReplayTimes {
  std::map<std::string, std::vector<double>> op_s;  // by core op name
  std::vector<double> append_s;
  std::vector<double> sync_s;
  std::size_t records = 0;
  std::size_t applied = 0;
  std::size_t failed = 0;  // records whose replay threw
  bool had_base = false;
};

/// Recover `wal_dir` (stopped server), restore into a fresh core built from
/// `problems` (same inputs, same order as the server got), time every
/// apply_wal_record, then re-append the tail into `scratch_dir` with an
/// fsync after every result, as the server does before each ack.
WalReplayTimes replay_wal(const std::string& wal_dir,
                          const std::string& scratch_dir,
                          const dist::SchedulerConfig& scheduler,
                          const std::string& policy_spec,
                          std::vector<std::shared_ptr<dist::DataManager>> problems);

// ---- host ----

/// Filesystem type name of `path` (statfs magic), e.g. "ext4", "tmpfs".
std::string filesystem_type(const std::string& path);
/// CPU model from /proc/cpuinfo.
std::string cpu_model();
/// 1-minute load average.
double loadavg1();
/// Cumulative (steal, total) jiffies from /proc/stat.
std::pair<std::uint64_t, std::uint64_t> cpu_steal_total();
/// Share of all vCPUs' time stolen by the hypervisor since `since`
/// (a cpu_steal_total() reading).
double steal_frac_since(std::pair<std::uint64_t, std::uint64_t> since);
/// CPU time of this process (all threads) or of the calling thread so
/// far, user + system, seconds. The kernel leaves hypervisor steal out.
double process_cpu_s();
double thread_cpu_s();
/// Host speed probes, printed beside the load so that a slow run can be
/// told apart from a slow change even when the hypervisor reports no
/// steal: milliseconds for a fixed integer loop on one core; the median
/// microseconds of a thread-to-thread pipe round trip (the wakeups every
/// request pays); and the median microseconds of 16 fsyncs of a 4 KiB
/// write in `dir`. A probe that cannot run returns -1.
double cpu_probe_ms();
double wakeup_probe_us();
double fsync_probe_us(const std::string& dir);
/// Reset this process's resident-set high-water mark (Linux clear_refs);
/// false when the kernel refuses.
bool reset_peak_rss();
/// Resident-set high-water mark of this process since start or the last
/// reset_peak_rss(), MiB.
double peak_rss_mb();

}  // namespace perfbench
