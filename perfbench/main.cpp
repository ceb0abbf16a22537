// perfbench — the repository benchmark: three closed-loop mission workloads.
//
//   perfbench --workload chaos-600|star-256|sweep-60 --seed N --seconds S
//             --trace 0|1 [--spans-dir DIR]
//
// Each run has three phases:
//   1. set-up, nine times (configuration and topology build, pool start
//      and a few warm-up missions with fixed seeds); setup_s is the median;
//   2. the timed window: missions through the entry points users call
//      (run_mission, run_general_mission, sweep::run_sweep), one after
//      another, for S seconds and at least a fixed number of missions,
//      interleaved with reference runs of fixed work that scale every
//      timing of the run to the host's least-contended state
//      (ReferenceScale);
//   3. the check pass: the first missions of the window are re-driven
//      through the layers' public functions (harness.cpp) and compared with
//      the entry points' reports. With --trace 1 the re-drive records spans
//      and the run prints per-layer metrics instead of end-to-end ones.
//
// Modelled outcomes (rollback distance, blocking, failures) are taken over
// that fixed prefix of missions, so they are exact for a seed. The last
// stdout line is one JSON object: {"correct","attempted","failed","metrics"}.
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <filesystem>
#include <fstream>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "harness.hpp"
#include "spans.hpp"
#include "sweep/fragment.hpp"
#include "sweep/runner.hpp"

namespace perfbench {
namespace {

using namespace synergy;

// ---- Workload parameters ---------------------------------------------------

// Timed-window shapes: distinct missions, and missions per reference run.
// chaos-600 mission host times spread 4x within a seed, so it takes 200
// missions for the median to vary little from seed to seed.
constexpr std::size_t kChaosMissions = 200;
constexpr std::size_t kChaosPerReference = 4;
constexpr std::size_t kStarMissions = 100;
constexpr std::size_t kStarPerReference = 2;
constexpr std::size_t kSweepSerialPerReference = 8;
constexpr std::size_t kQuickCheckMissions = 50;   // chaos-600, --trace 0
constexpr std::size_t kTracedCheckMissions = 100;  // chaos-600, --trace 1
constexpr std::size_t kPrefixSweeps = 8;      // sweep-60 iterations
constexpr std::size_t kSweepReps = 24;        // missions per cell per sweep
constexpr std::size_t kSweepJobs = 2;
constexpr std::size_t kSweepReferenceReps = 6;  // reference sweeps
constexpr std::size_t kSetupRepeats = 9;
constexpr int kTimingPasses = 5;  // sweep-60 serial timing passes
// Stable-store decodes per store per monitor sweep: the corruption scan's
// latest_valid_ndc, and common_valid_line's latest_valid_ndc + has_valid +
// committed_for in the line self-audit (an assumed count; see README.md).
constexpr double kDecodesPerStorePerSweep = 4;

CampaignConfig chaos_config() {
  CampaignConfig c;  // coordinated, 600 s, default injectors and monitor
  c.jobs = 1;
  return c;
}

GeneralCampaignConfig star_config() {
  GeneralCampaignConfig g;
  g.shape = GeneralShape::kStar;
  g.size = 256;
  g.mission = Duration::seconds(30);
  g.jobs = 1;
  return g;
}

sweep::SweepConfig sweep_config(std::uint64_t seed, std::size_t reps,
                                std::size_t jobs) {
  sweep::SweepConfig s;
  s.seed = seed;
  s.reps = reps;
  s.mission = Duration::seconds(60);
  s.axes.schemes = {*scheme_from_string("coordinated"),
                    *scheme_from_string("write_through"),
                    *scheme_from_string("mdcd+tmr")};
  s.axes.fault_scales = {0.5, 1.0, 2.0};
  s.axes.coverages = {1.0};
  s.axes.intervals_s = {10.0};
  s.jobs = jobs;
  return s;
}

// ---- Small helpers ----------------------------------------------------------

double seconds_since(std::int64_t t0_ns) {
  return static_cast<double>(now_ns() - t0_ns) * 1e-9;
}

double process_cpu_s() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) * 1e-6;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

/// Resets the process's resident-memory high-water mark (VmHWM) to its
/// current resident size. False where the kernel does not allow it.
bool reset_peak_rss() {
  std::FILE* f = std::fopen("/proc/self/clear_refs", "w");
  if (!f) return false;
  const bool wrote = std::fputs("5", f) >= 0;
  return std::fclose(f) == 0 && wrote;
}

/// VmHWM in MB: the peak resident memory since start or the last reset.
double high_water_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::atof(line.c_str() + 6) / 1024.0;
  }
  return peak_rss_mb();
}

/// Nearest-rank quantile.
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  return v[std::min(v.size(), std::max<std::size_t>(rank, 1)) - 1];
}

/// Midpoint median (mean of the two middle values for even sizes).
double median(std::vector<double> v) {
  if (v.empty()) return 0;
  const std::size_t mid = v.size() / 2;
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(mid), v.end());
  if (v.size() % 2 == 1) return v[mid];
  const double hi = v[mid];
  return (hi + *std::max_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(mid))) / 2;
}

double mean(const std::vector<double>& v) {
  if (v.empty()) return 0;
  double s = 0;
  for (double x : v) s += x;
  return s / static_cast<double>(v.size());
}

/// FNV-1a over the modelled outputs: equal digests across runs of one seed
/// mean the simulated behaviour did not change.
struct Digest {
  std::uint64_t h = 0xcbf29ce484222325ull;
  void add(const std::string& s) {
    for (unsigned char ch : s) {
      h ^= ch;
      h *= 0x100000001b3ull;
    }
  }
};

std::string fmt17(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string chaos_digest_text(const CampaignConfig& config,
                              const MissionReport& r) {
  CampaignConfig verbose = config;
  verbose.verbose = true;
  std::string s = format_mission_report(verbose, 0, r);
  s += " blocking=" + fmt17(r.blocking_seconds);
  s += " stable_bytes=" + std::to_string(r.stable_bytes_written);
  s += " ckpt_bytes=" + std::to_string(r.ckpt_bytes_encoded);
  for (double d : r.rollback_seconds) s += " rb=" + fmt17(d);
  return s + "\n";
}

// ---- Result assembly ----------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

struct Result {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;  ///< missions whose check-pass report mismatched
  std::vector<Metric> metrics;

  void add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  void mismatch(const char* what, std::uint64_t seed) {
    correct = false;
    ++failed;
    std::printf("MISMATCH %s seed=%" PRIu64 "\n", what, seed);
  }
};

/// Per-mission means of summed layer counters.
struct CounterSum {
  Counters sum;
  std::size_t missions = 0;
  void add(const Counters& c) {
    for (const auto& [k, v] : c) sum[k] += v;
    ++missions;
  }
  double per_mission(const std::string& k) const {
    auto it = sum.find(k);
    return it == sum.end() || missions == 0
               ? 0.0
               : it->second / static_cast<double>(missions);
  }
};

/// Everything the traced pass measured, turned into per-layer metrics.
struct TraceInputs {
  const Tracer* tracer = nullptr;
  const CounterSum* counters = nullptr;
  UnitCosts unit;
  double untraced_mission_ms = 0;   ///< same missions, entry point, no spans
  double monitor_sweeps = 0;        ///< per mission (0 without a monitor)
  double stable_stores = 0;
  double pool_parallelism = 1;
  double pool_jobs = 1;
  double fragment_ms = 0;
  double tmr_mission_ms = 0;
  double single_lane_mission_ms = 0;
  double fail_frac = 0;
  bool general = false;
};

void add_layer_metrics(Result& res, const TraceInputs& in) {
  const auto totals = in.tracer->totals();
  const CounterSum& c = *in.counters;
  const double n = static_cast<double>(std::max<std::size_t>(c.missions, 1));
  auto total_ms = [&](const char* name) {
    auto it = totals.find(name);
    return it == totals.end() ? 0.0
                              : static_cast<double>(it->second.total_ns) / 1e6 / n;
  };
  auto self_ms = [&](const char* name) {
    auto it = totals.find(name);
    return it == totals.end() ? 0.0
                              : static_cast<double>(it->second.self_ns) / 1e6 / n;
  };
  auto pm = [&](const char* k) { return c.per_mission(k); };
  auto frac = [](double num, double den) { return den > 0 ? num / den : 0.0; };

  const double mission_ms = total_ms("mission");
  const double run_self_ms = self_ms("core.run");
  const UnitCosts& u = in.unit;
  const double bytes_kb = pm("storage.bytes_written") / 1024.0;
  const double est_encode =
      (in.general ? pm("tb.checkpoints") * u.record_kb : bytes_kb) *
      u.encode_ns_per_kb / 1e6;
  const double est_snapshot =
      pm("ckpt.bytes_encoded") / 1024.0 * u.snapshot_ns_per_kb / 1e6;
  // Decode and line-audit costs grow with record size, and records grow
  // over a mission: scale the final-state unit costs to the mission's mean
  // committed record.
  const double record_kb_mean =
      frac(pm("storage.bytes_written") / 1024.0, pm("storage.commits"));
  const double size_scale = frac(record_kb_mean, u.record_kb);
  const double est_decode = in.monitor_sweeps * in.stable_stores *
                            kDecodesPerStorePerSweep * u.decode_us_per_record *
                            size_scale / 1e3;
  const double est_dispatch =
      std::max(0.0, pm("sim.events") - pm("net.delivered")) * u.dispatch_ns / 1e6;
  const double est_net = pm("net.sent") * u.send_deliver_ns / 1e6;
  const double est_trace = pm("trace.events") * u.trace_record_ns / 1e6;
  const double est_monitor =
      in.monitor_sweeps * u.line_audit_us * size_scale / 1e3;
  const double est_sum = est_encode + est_snapshot + est_decode +
                         est_dispatch + est_net + est_trace + est_monitor;

  res.add("trace_overhead_frac",
          frac(mission_ms, in.untraced_mission_ms) - 1.0, "frac");
  res.add("trace.span_coverage", 1.0 - frac(self_ms("mission"), mission_ms),
          "frac");
  res.add("core.mission_ms", mission_ms, "ms");
  res.add("core.build_ms", total_ms("core.build"), "ms");
  res.add("inject.generate_ms", total_ms("inject.generate"), "ms");
  res.add("core.arm_ms", total_ms("core.arm"), "ms");
  res.add("core.start_ms", total_ms("core.start"), "ms");
  res.add("core.run_ms", total_ms("core.run"), "ms");
  res.add("core.run_self_ms", run_self_ms, "ms");
  res.add("core.report_ms", total_ms("core.report"), "ms");
  res.add("core.teardown_ms", total_ms("core.teardown"), "ms");
  res.add("core.run_unattributed_frac", frac(run_self_ms - est_sum, run_self_ms),
          "frac");
  res.add("core.pool.parallelism", in.pool_parallelism, "ratio");
  res.add("core.pool.idle_frac",
          std::max(0.0, 1.0 - in.pool_parallelism / in.pool_jobs), "frac");
  res.add("sim.events", pm("sim.events"), "count");
  res.add("sim.schedules", pm("sim.schedules"), "count");
  res.add("sim.cancel_frac", 1.0 - frac(pm("sim.events"), pm("sim.schedules")),
          "frac");
  res.add("sim.pending_depth", pm("sim.pending_depth"), "count");
  res.add("sim.dispatch_ns", u.dispatch_ns, "ns");
  res.add("net.sent", pm("net.sent"), "count");
  res.add("net.delivered_frac", frac(pm("net.delivered"), pm("net.sent")),
          "frac");
  res.add("net.dropped_loss", pm("net.dropped_loss"), "count");
  res.add("net.dropped_no_receiver", pm("net.dropped_no_receiver"), "count");
  res.add("net.late", pm("net.late"), "count");
  res.add("net.acks", pm("net.acks"), "count");
  res.add("net.dups_suppressed", pm("net.dups_suppressed"), "count");
  res.add("net.unacked_high_water", pm("net.unacked_high_water"), "count");
  res.add("net.msgs_per_output", frac(pm("net.sent"), pm("net.outputs")),
          "ratio");
  res.add("net.send_deliver_ns", u.send_deliver_ns, "ns");
  res.add("storage.commits", pm("storage.commits"), "count");
  res.add("storage.bytes_written", pm("storage.bytes_written"), "B");
  res.add("storage.kb_per_mission", bytes_kb, "KB");
  res.add("storage.record_kb_mean", record_kb_mean, "KB");
  res.add("storage.write_retries", pm("storage.write_retries"), "count");
  res.add("storage.failed_writes", pm("storage.failed_writes"), "count");
  res.add("storage.torn_writes", pm("storage.torn_writes"), "count");
  res.add("storage.corrupt_reads", pm("storage.corrupt_reads"), "count");
  res.add("storage.vstore_saves", pm("storage.vstore_saves"), "count");
  res.add("storage.encode_ns_per_kb", u.encode_ns_per_kb, "ns/KB");
  res.add("storage.decode_us_per_record", u.decode_us_per_record, "us");
  res.add("ckpt.bytes_encoded", pm("ckpt.bytes_encoded"), "B");
  res.add("ckpt.cache_hit_frac",
          frac(pm("ckpt.cache_hits"), pm("ckpt.cache_lookups")), "frac");
  res.add("ckpt.snapshot_ns_per_kb", u.snapshot_ns_per_kb, "ns/KB");
  res.add("analysis.audits", pm("analysis.audits"), "count");
  res.add("analysis.line_ms", total_ms("analysis.line"), "ms");
  res.add("analysis.check_ms", total_ms("analysis.check"), "ms");
  res.add("analysis.share", frac(total_ms("analysis.audit"), mission_ms),
          "frac");
  res.add("trace.events", pm("trace.events"), "count");
  res.add("mdcd.vckpts", pm("mdcd.vckpts"), "count");
  res.add("mdcd.deferred_ops", pm("mdcd.deferred_ops"), "count");
  res.add("app.at_exposures", pm("app.at_exposures"), "count");
  res.add("app.at_missed", pm("app.at_missed"), "count");
  res.add("tb.checkpoints", pm("tb.checkpoints"), "count");
  res.add("tb.blocking_s", pm("tb.blocking_s"), "s");
  res.add("tb.overruns", pm("tb.overruns"), "count");
  res.add("tb.replacements", pm("tb.replacements"), "count");
  res.add("coord.hw_recoveries", pm("coord.hw_recoveries"), "count");
  res.add("coord.rollback_s", pm("coord.rollback_s"), "s");
  res.add("coord.monitor_violations", pm("coord.monitor_violations"), "count");
  res.add("coord.monitor_degradations", pm("coord.monitor_degradations"),
          "count");
  res.add("coord.forced_resends", pm("coord.forced_resends"), "count");
  res.add("inject.net_faults", pm("inject.net_faults"), "count");
  res.add("inject.hw_faults", pm("inject.hw_faults"), "count");
  res.add("clock.missed_resyncs", pm("clock.missed_resyncs"), "count");
  res.add("redundant.lane_resyncs", pm("redundant.lane_resyncs"), "count");
  res.add("redundant.tmr_mission_ms", in.tmr_mission_ms, "ms");
  res.add("redundant.single_lane_mission_ms", in.single_lane_mission_ms, "ms");
  res.add("general.events", pm("general.events"), "count");
  res.add("general.outputs", pm("general.outputs"), "count");
  res.add("general.stable_ckpts", pm("general.stable_ckpts"), "count");
  res.add("general.sw_replayed", pm("general.sw_replayed"), "count");
  res.add("general.anchor_candidates_max", pm("general.anchor_candidates_max"),
          "count");
  res.add("general.audit_ms", in.general ? total_ms("analysis.audit") : 0.0,
          "ms");
  res.add("sweep.fragment_ms", in.fragment_ms, "ms");
  res.add("est.encode_ms", est_encode, "ms");
  res.add("est.snapshot_ms", est_snapshot, "ms");
  res.add("est.decode_ms", est_decode, "ms");
  res.add("est.dispatch_ms", est_dispatch, "ms");
  res.add("est.net_ms", est_net, "ms");
  res.add("est.trace_ms", est_trace, "ms");
  res.add("est.monitor_ms", est_monitor, "ms");
  res.add("mission_fail_frac", in.fail_frac, "frac");
}

/// The end-to-end metric set shared by every workload.
struct EndToEnd {
  double missions_per_s = 0;
  std::vector<double> mission_ms;
  double events_per_mission = 0;
  /// Simulator events per host second over the checked missions (0: use
  /// missions_per_s x events_per_mission, for pooled workloads).
  double events_per_host_s = 0;
  double setup_s = 0;
  double peak_rss_mb = 0;
  double ok_frac = 0;
  double rollback_s_mean = 0;
  double blocking_s_per_mission = 0;
};

void add_end_to_end(Result& res, const EndToEnd& e) {
  res.add("missions_per_s", e.missions_per_s, "1/s");
  res.add("mission_ms_p50", quantile(e.mission_ms, 0.5), "ms");
  res.add("mission_ms_p90", quantile(e.mission_ms, 0.9), "ms");
  res.add("sim_events_per_s",
          e.events_per_host_s > 0 ? e.events_per_host_s
                                  : e.missions_per_s * e.events_per_mission,
          "1/s");
  res.add("setup_s", e.setup_s, "s");
  res.add("peak_rss_mb", e.peak_rss_mb, "MB");
  res.add("mission_ok_frac", e.ok_frac, "frac");
  res.add("rollback_s_mean", e.rollback_s_mean, "s");
  res.add("blocking_s_per_mission", e.blocking_s_per_mission, "s");
}

/// Host ms of one untraced entry-point call. The traced pass times the
/// same mission this way right before re-driving it, so the overhead ratio
/// compares runs made under the same host conditions.
double entry_point_ms(const std::function<void()>& call) {
  const std::int64_t t0 = now_ns();
  call();
  return seconds_since(t0) * 1e3;
}

double window_ms(const std::vector<double>& mission_ms) {
  double sum = 0;
  for (double ms : mission_ms) sum += ms;
  return sum;
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string spans_dir;
};

/// Warm-up missions use fixed seeds: set-up time then varies with the host
/// only, not with the missions the workload seed would pick. A few missions
/// rather than one keep a short burst of host noise from dominating it.
constexpr std::uint64_t kWarmupSeed = 0x5741524D5550ull;  // "WARMUP"
constexpr int kWarmupMissions = 3;
/// Seeds the reference runs (see ReferenceScale).
constexpr std::uint64_t kReferenceSeed = 0x524546455245ull;  // "REFERE"

std::uint64_t reference_seed() { return Rng(kReferenceSeed).next(); }

template <class RunOne>
void warm_up(RunOne&& run_one) {
  Rng seeder(kWarmupSeed);
  for (int i = 0; i < kWarmupMissions; ++i) (void)run_one(seeder.next());
}

/// Moves the calling thread across the CPUs it may run on, one step per
/// call, and restores its original CPU set when destroyed. On a shared host
/// the interference from other tenants differs per core and lasts tens of
/// seconds; a single busy thread otherwise stays on one core for a whole
/// run and measures that core's neighbours.
class CpuRotation {
 public:
  CpuRotation() {
    CPU_ZERO(&original_);
    if (sched_getaffinity(0, sizeof original_, &original_) != 0) return;
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &original_)) cpus_.push_back(c);
    }
  }
  ~CpuRotation() {
    if (!cpus_.empty()) sched_setaffinity(0, sizeof original_, &original_);
  }
  CpuRotation(const CpuRotation&) = delete;
  CpuRotation& operator=(const CpuRotation&) = delete;

  /// Pin to the CPU at position `step` of the original set.
  void move_to(std::size_t step) {
    if (cpus_.size() < 2) return;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpus_[step % cpus_.size()], &one);
    sched_setaffinity(0, sizeof one, &one);
  }
  std::size_t size() const { return cpus_.size(); }

 private:
  cpu_set_t original_;
  std::vector<int> cpus_;
};

/// Host-contention scaling of timed runs. On a shared host, other tenants
/// slow these memory-heavy missions by 30-70 % for a share of the time that
/// drifts over minutes, while the state flips from one mission to the next
/// (the same mission, run back to back, takes 60 ms or 100 ms). Timed runs
/// are therefore interleaved with reference runs: the same work with a fixed
/// seed, independent of the workload seed. Within one run of the benchmark
/// the timed and the reference runs meet the same mix of host states, so
/// (fastest reference) ÷ (mean reference) is the factor that takes a mean
/// time back to the least-contended state; every timing is reported scaled
/// by it. A change that speeds the program up speeds the fastest reference
/// up with it, so the change shows in every scaled time.
struct ReferenceScale {
  std::vector<double> reference_ms;

  /// Times one reference run.
  template <class Call>
  void time(Call&& call) {
    const std::int64_t t0 = now_ns();
    call();
    reference_ms.push_back(seconds_since(t0) * 1e3);
  }
  double fastest() const {
    return *std::min_element(reference_ms.begin(), reference_ms.end());
  }
  double factor() const { return fastest() / mean(reference_ms); }
  void print(const char* what) const {
    std::printf("%s: %zu reference runs, host ms fastest=%.3f mean=%.3f, "
                "scale %.4f\n",
                what, reference_ms.size(), fastest(), mean(reference_ms),
                factor());
  }
};

/// The set-up, kSetupRepeats times, each followed by one reference run
/// recorded in `scale`: other tenants of the host slow set-up as much as
/// missions. Returns the host ms of each set-up.
std::vector<double> time_setups(const std::function<void()>& once,
                                const std::function<void()>& reference,
                                ReferenceScale& scale) {
  std::vector<double> ms;
  for (std::size_t i = 0; i < kSetupRepeats; ++i) {
    const std::int64_t t0 = now_ns();
    once();
    ms.push_back(seconds_since(t0) * 1e3);
    scale.time(reference);
  }
  return ms;
}

/// setup_s: the median set-up, scaled to the least-contended state like
/// every other timing of the run.
double setup_seconds(const std::vector<double>& setup_ms,
                     const ReferenceScale& scale) {
  // The set-ups run in the first seconds of a run, whose contention differs
  // from the rest of it: scale them by the reference runs made between them.
  const std::vector<double> during(
      scale.reference_ms.begin(),
      scale.reference_ms.begin() + static_cast<std::ptrdiff_t>(setup_ms.size()));
  return median(setup_ms) * scale.fastest() / mean(during) / 1e3;
}

/// The closed-loop timed window of a single-worker workload: passes over a
/// fixed set of `missions` missions, back to back, until `seconds` have
/// passed and at least one whole pass ran. Mission seeds derive from the
/// workload seed like run_campaign's, so chaos-600 mission i is mission i of
/// `synergy chaos --seed N`. After every `per_reference` missions one
/// reference mission runs (ReferenceScale, continuing the set-up's); a
/// mission's host time is the mean of its runs, scaled. Consecutive groups
/// run on the next CPU the process may use (CpuRotation), and every run of a
/// seed must reproduce its first report.
template <class Report>
struct Window {
  std::vector<Report> reports;     ///< first pass, in mission order
  std::vector<double> mission_ms;  ///< scaled host ms of each mission
  /// Median over the window's mission runs of the peak resident memory
  /// during the run; the process peak where the peak cannot be reset.
  double peak_rss_mb = 0;
  std::uint64_t runs = 0;          ///< missions run, reference runs included
  std::size_t passes = 0;          ///< passes begun; the last may be partial
  std::size_t unrepeatable = 0;    ///< runs differing from their seed's first
  double wall_s = 0;
  double parallelism = 0;  ///< process CPU / wall

  double missions_per_s() const {
    double total_ms = 0;
    for (double ms : mission_ms) total_ms += ms;
    return static_cast<double>(mission_ms.size()) / (total_ms / 1e3);
  }
};

template <class Report, class RunOne>
Window<Report> run_window(const Args& a, const char* workload,
                          std::size_t missions, std::size_t per_reference,
                          ReferenceScale& scale, RunOne&& run_one) {
  Window<Report> w;
  Rng seeder(a.seed);
  std::vector<std::uint64_t> seeds(missions);
  for (auto& s : seeds) s = seeder.next();
  std::vector<std::vector<double>> runs_ms(missions);
  std::vector<double> peaks_mb;
  std::optional<Report> reference;

  CpuRotation rotation;
  const std::int64_t t0 = now_ns();
  const double cpu0 = process_cpu_s();
  for (std::size_t j = 0; j < missions || seconds_since(t0) < a.seconds; ++j) {
    if (j % per_reference == 0) {
      rotation.move_to(j / per_reference);
      Report r;
      scale.time([&] { r = run_one(reference_seed()); });
      ++w.runs;
      if (!reference) {
        reference = std::move(r);
      } else if (!(r == *reference)) {
        ++w.unrepeatable;
      }
    }
    const std::size_t i = j % missions;
    const bool peak_reset = reset_peak_rss();
    const std::int64_t m0 = now_ns();
    Report r = run_one(seeds[i]);
    runs_ms[i].push_back(seconds_since(m0) * 1e3);
    if (peak_reset) peaks_mb.push_back(high_water_mb());
    ++w.runs;
    if (j < missions) {
      w.reports.push_back(std::move(r));
    } else if (!(r == w.reports[i])) {
      ++w.unrepeatable;
    }
    w.passes = j / missions + 1;
  }
  w.wall_s = seconds_since(t0);
  w.parallelism = (process_cpu_s() - cpu0) / w.wall_s;
  const double f = scale.factor();
  for (const std::vector<double>& v : runs_ms) w.mission_ms.push_back(mean(v) * f);
  w.peak_rss_mb = peaks_mb.empty() ? peak_rss_mb() : median(peaks_mb);
  std::printf("%s: %zu passes over %zu missions (the last may be partial) in "
              "%.3f s\n",
              workload, w.passes, missions, w.wall_s);
  std::printf("%s: peak resident MB per mission run p50=%.3f max=%.3f; "
              "process peak %.3f\n",
              workload, w.peak_rss_mb,
              peaks_mb.empty() ? 0.0
                               : *std::max_element(peaks_mb.begin(), peaks_mb.end()),
              peak_rss_mb());
  scale.print(workload);
  std::printf("%s: scaled host ms/mission p50=%.3f p90=%.3f (n=%zu)\n",
              workload, quantile(w.mission_ms, 0.5),
              quantile(w.mission_ms, 0.9), w.mission_ms.size());
  return w;
}

// ---- chaos-600 ---------------------------------------------------------------

Result run_chaos(const Args& a, Tracer* tracer) {
  Result res;
  EndToEnd e;
  const CampaignConfig config = chaos_config();

  ReferenceScale scale;
  const std::vector<double> setup_ms = time_setups(
      [] {
        const CampaignConfig c = chaos_config();
        warm_up([&](std::uint64_t s) { return run_mission(c, s); });
      },
      [&] { (void)run_mission(config, reference_seed()); }, scale);

  const Window<MissionReport> w = run_window<MissionReport>(
      a, "chaos-600", kChaosMissions, kChaosPerReference, scale,
      [&](std::uint64_t s) { return run_mission(config, s); });
  const std::vector<MissionReport>& reports = w.reports;
  e.setup_s = setup_seconds(setup_ms, scale);
  e.mission_ms = w.mission_ms;
  e.peak_rss_mb = w.peak_rss_mb;
  e.missions_per_s = w.missions_per_s();
  res.attempted = w.runs;
  if (w.unrepeatable > 0) res.mismatch("chaos-600 repeated run", a.seed);

  // Check pass over the prefix: re-drive, compare, collect layer counters.
  CounterSum counters;
  Digest digest;
  std::size_t ok = 0;
  double rollback_sum = 0, rollback_n = 0, blocking = 0, untraced_ms = 0;
  // Untraced runs check a quick prefix (the window's repeated runs, of the
  // reference mission above all, check runs against each other); the traced
  // run checks a longer one.
  const std::size_t checked = tracer ? kTracedCheckMissions : kQuickCheckMissions;
  for (std::size_t i = 0; i < checked; ++i) {
    const MissionReport& r = reports[i];
    untraced_ms += tracer ? entry_point_ms([&] { (void)run_mission(config, r.seed); })
                          : e.mission_ms[i];
    if (tracer) tracer->set_mission(static_cast<std::uint32_t>(i));
    ChaosOutcome out;
    {
      Tracer::Scope m(tracer, "mission");
      out = drive_chaos(config, r.seed, tracer);
    }
    if (!(out.report == r)) res.mismatch("chaos-600 report", r.seed);
    counters.add(out.counters);
  }
  for (const MissionReport& r : reports) {
    digest.add(chaos_digest_text(config, r));
    ok += r.ok ? 1 : 0;
    for (double d : r.rollback_seconds) rollback_sum += d;
    rollback_n += static_cast<double>(r.rollback_seconds.size());
    blocking += r.blocking_seconds;
  }
  const double prefix = static_cast<double>(reports.size());
  // Events per mission over the checked prefix, at the rate of the whole
  // window: host times of a 50-mission prefix vary too much with the host.
  e.events_per_mission = counters.per_mission("sim.events");
  e.ok_frac = static_cast<double>(ok) / prefix;
  e.rollback_s_mean = rollback_n > 0 ? rollback_sum / rollback_n : 0;
  e.blocking_s_per_mission = blocking / prefix;

  std::size_t failing = 0;
  for (const MissionReport& r : reports) {
    if (r.ok) continue;
    ++failing;
    std::printf("failing mission seed=%" PRIu64 " violations=%zu first: %s\n",
                r.seed, r.failures.size(), r.failures.front().c_str());
  }
  std::printf("chaos-600: %zu/%zu missions fail an oracle\n", failing,
              reports.size());
  std::printf("chaos-600: stable KB/mission %.3f, record KB %.3f, "
              "trace events/mission %.0f\n",
              counters.per_mission("storage.bytes_written") / 1024.0,
              counters.per_mission("storage.bytes_written") / 1024.0 /
                  std::max(1.0, counters.per_mission("storage.commits")),
              counters.per_mission("trace.events"));
  std::printf("digest %016" PRIx64 " over the first %zu missions\n", digest.h,
              reports.size());

  if (!tracer) {
    add_end_to_end(res, e);
    return res;
  }
  UnitCosts unit;
  (void)drive_chaos(config, reports[0].seed, nullptr, [&](System& s) {
    unit = probe_canonical(s, counters.per_mission("sim.pending_depth"));
  });
  TraceInputs in;
  in.tracer = tracer;
  in.counters = &counters;
  in.unit = unit;
  in.untraced_mission_ms = untraced_ms / static_cast<double>(checked);
  in.monitor_sweeps = config.mission.to_seconds() /
                      config.base.monitor.sweep_interval.to_seconds();
  in.stable_stores = 3;
  in.pool_parallelism = w.parallelism;
  in.fail_frac = static_cast<double>(failing) /
                 static_cast<double>(reports.size());
  add_layer_metrics(res, in);
  return res;
}

// ---- star-256 ------------------------------------------------------------------

Result run_star(const Args& a, Tracer* tracer) {
  Result res;
  EndToEnd e;
  const GeneralCampaignConfig config = star_config();

  ReferenceScale scale;
  const std::vector<double> setup_ms = time_setups(
      [] {
        const GeneralCampaignConfig c = star_config();
        warm_up([&](std::uint64_t s) { return run_general_mission(c, s); });
      },
      [&] { (void)run_general_mission(config, reference_seed()); }, scale);

  const Window<GeneralMissionReport> w = run_window<GeneralMissionReport>(
      a, "star-256", kStarMissions, kStarPerReference, scale,
      [&](std::uint64_t s) { return run_general_mission(config, s); });
  const std::vector<GeneralMissionReport>& reports = w.reports;
  e.setup_s = setup_seconds(setup_ms, scale);
  e.mission_ms = w.mission_ms;
  e.peak_rss_mb = w.peak_rss_mb;
  e.missions_per_s = w.missions_per_s();
  res.attempted = w.runs;
  if (w.unrepeatable > 0) res.mismatch("star-256 repeated run", a.seed);

  CounterSum counters;
  Digest digest;
  std::size_t ok = 0;
  double rollback_sum = 0, rollback_n = 0, blocking = 0, untraced_ms = 0;
  GeneralCampaignConfig verbose = config;
  verbose.verbose = true;
  for (std::size_t i = 0; i < reports.size(); ++i) {
    const GeneralMissionReport& r = reports[i];
    untraced_ms +=
        tracer ? entry_point_ms([&] { (void)run_general_mission(config, r.seed); })
               : e.mission_ms[i];
    if (tracer) tracer->set_mission(static_cast<std::uint32_t>(i));
    GeneralOutcome out;
    {
      Tracer::Scope m(tracer, "mission");
      out = drive_general(config, r.seed, tracer);
    }
    if (!(out.report == r)) res.mismatch("star-256 report", r.seed);
    counters.add(out.counters);
    digest.add(format_general_mission(verbose, i, r));
    ok += r.ok ? 1 : 0;
    for (double d : out.rollback_seconds) rollback_sum += d;
    rollback_n += static_cast<double>(out.rollback_seconds.size());
    blocking += out.blocking_seconds;
    digest.add(fmt17(out.blocking_seconds) + "\n");
  }
  const double prefix = static_cast<double>(reports.size());
  e.events_per_host_s = counters.per_mission("sim.events") * prefix /
                        (window_ms(e.mission_ms) / 1e3);
  e.ok_frac = static_cast<double>(ok) / prefix;
  e.rollback_s_mean = rollback_n > 0 ? rollback_sum / rollback_n : 0;
  e.blocking_s_per_mission = blocking / prefix;

  std::size_t failing = 0;
  for (const GeneralMissionReport& r : reports) {
    if (r.ok) continue;
    ++failing;
    std::printf("failing mission seed=%" PRIu64 " consistency=%" PRIu64
                " recoverability=%" PRIu64 "\n",
                r.seed, r.consistency_violations, r.recoverability_violations);
  }
  std::printf("star-256: %zu/%zu missions fail an oracle\n", failing,
              reports.size());
  std::printf("digest %016" PRIx64 " over the first %zu missions\n", digest.h,
              reports.size());

  if (!tracer) {
    add_end_to_end(res, e);
    return res;
  }
  UnitCosts unit;
  (void)drive_general(config, reports[0].seed, nullptr, [&](GeneralSystem& s) {
    unit = probe_general(s, counters.per_mission("sim.pending_depth"));
  });
  TraceInputs in;
  in.tracer = tracer;
  in.counters = &counters;
  in.unit = unit;
  in.untraced_mission_ms = untraced_ms / prefix;
  in.pool_parallelism = w.parallelism;
  in.fail_frac = static_cast<double>(failing) /
                 static_cast<double>(reports.size());
  in.general = true;
  add_layer_metrics(res, in);
  return res;
}

// ---- sweep-60 ------------------------------------------------------------------

Result run_sweep_workload(const Args& a, Tracer* tracer) {
  Result res;
  EndToEnd e;

  // Reference sweeps: a short sweep with a fixed seed (ReferenceScale).
  ReferenceScale sweep_scale;
  std::optional<std::string> reference_json;
  std::uint64_t reference_missions = 0;
  auto reference_sweep = [&] {
    const sweep::ShardResult ref = sweep::run_sweep(
        sweep_config(reference_seed(), kSweepReferenceReps, kSweepJobs), nullptr);
    reference_missions += ref.missions_run;
    std::string json = sweep::to_json(ref);
    if (!reference_json) {
      reference_json = std::move(json);
    } else if (json != *reference_json) {
      res.mismatch("sweep-60 repeated reference sweep", reference_seed());
    }
  };
  const std::vector<double> setup_ms = time_setups(
      [] {
        // Grid build, pool start and one short sweep (6 reps/cell) as warm-up.
        (void)sweep::run_sweep(
            sweep_config(kWarmupSeed, 2 * kWarmupMissions, kSweepJobs), nullptr);
      },
      reference_sweep, sweep_scale);

  // The first sweep's missions are also timed serially, one at a time
  // (pool workers cannot time single missions): kTimingPasses passes spread
  // evenly over the window, with one reference mission after every
  // kSweepSerialPerReference missions (a ReferenceScale of their own); a
  // mission's host time is the mean of its runs, scaled.
  Rng seeder(a.seed);
  std::vector<std::uint64_t> sweep_seeds = {seeder.next()};
  const sweep::SweepConfig config0 =
      sweep_config(sweep_seeds[0], kSweepReps, kSweepJobs);
  const std::vector<sweep::SweepCell> grid = sweep::build_grid(config0);
  struct SampleMission {
    std::size_t cell;
    std::size_t rep;
    std::uint64_t seed;
  };
  std::vector<CampaignConfig> cell_configs;
  std::vector<SampleMission> sample;
  for (const sweep::SweepCell& cell : grid) {
    cell_configs.push_back(sweep::cell_campaign_config(config0, cell));
    Rng mission_seeder(cell.seed);
    for (std::size_t i = 0; i < kSweepReps; ++i) {
      sample.push_back({cell.index, i, mission_seeder.next()});
    }
  }
  std::vector<MissionReport> sample_reports(sample.size());
  std::vector<std::vector<double>> serial_runs_ms(sample.size());
  std::optional<MissionReport> serial_reference;
  ReferenceScale serial_scale;
  int serial_passes = 0;
  auto serial_pass = [&] {
    for (std::size_t j = 0; j < sample.size(); ++j) {
      if (j % kSweepSerialPerReference == 0) {
        MissionReport r;
        serial_scale.time([&] { r = run_mission(cell_configs[0], reference_seed()); });
        if (!serial_reference) {
          serial_reference = std::move(r);
        } else if (!(r == *serial_reference)) {
          res.mismatch("sweep-60 repeated reference run", r.seed);
        }
      }
      const std::int64_t m0 = now_ns();
      MissionReport r = run_mission(cell_configs[sample[j].cell], sample[j].seed);
      serial_runs_ms[j].push_back(seconds_since(m0) * 1e3);
      if (serial_passes == 0) {
        sample_reports[j] = std::move(r);
      } else if (!(r == sample_reports[j])) {
        res.mismatch("sweep-60 repeated run", r.seed);
      }
    }
    ++serial_passes;
  };

  // Timed window: whole sweeps, each with its own seed and each followed by
  // a reference sweep. Its clock runs only inside run_sweep, so the serial
  // passes do not count against it.
  std::optional<sweep::ShardResult> first;
  std::uint64_t missions = 0, failing = 0, ok = 0, prefix_missions = 0;
  double rollback_sum = 0, rollback_n = 0, blocking_sum = 0, blocking_n = 0;
  double cpu_in_sweeps = 0, wall_in_sweeps = 0;
  std::vector<std::pair<std::uint64_t, std::size_t>> failing_cells;
  Digest digest;
  std::size_t sweeps = 0;
  while (sweeps < kPrefixSweeps || wall_in_sweeps < a.seconds) {
    if (serial_passes < kTimingPasses &&
        wall_in_sweeps >= serial_passes * a.seconds / kTimingPasses) {
      serial_pass();
    }
    if (sweeps > 0) sweep_seeds.push_back(seeder.next());
    const double cpu0 = process_cpu_s();
    const std::int64_t w0 = now_ns();
    sweep::ShardResult r = sweep::run_sweep(
        sweep_config(sweep_seeds.back(), kSweepReps, kSweepJobs), nullptr);
    wall_in_sweeps += seconds_since(w0);
    cpu_in_sweeps += process_cpu_s() - cpu0;
    sweep_scale.time(reference_sweep);
    ++sweeps;
    missions += r.missions_run;
    for (const sweep::CellStats& c : r.cells) {
      failing += c.tallies.missions - c.tallies.ok;
      if (c.tallies.ok != c.tallies.missions) {
        failing_cells.emplace_back(sweep_seeds.back(), c.cell.index);
      }
    }
    if (sweeps <= kPrefixSweeps) {
      prefix_missions += r.missions_run;
      for (const sweep::CellStats& c : r.cells) {
        ok += c.tallies.ok;
        rollback_sum += c.rollback.mean * static_cast<double>(c.rollback.n);
        rollback_n += static_cast<double>(c.rollback.n);
        blocking_sum += c.blocking.mean * static_cast<double>(c.blocking.n);
        blocking_n += static_cast<double>(c.blocking.n);
      }
      digest.add(sweep::to_json(r));
    }
    if (!first) first = std::move(r);
  }
  while (serial_passes < kTimingPasses) serial_pass();
  e.setup_s = setup_seconds(setup_ms, sweep_scale);
  e.peak_rss_mb = peak_rss_mb();
  e.missions_per_s = static_cast<double>(missions) /
                     (wall_in_sweeps * sweep_scale.factor());
  e.ok_frac = static_cast<double>(ok) / static_cast<double>(prefix_missions);
  e.rollback_s_mean = rollback_n > 0 ? rollback_sum / rollback_n : 0;
  e.blocking_s_per_mission = blocking_n > 0 ? blocking_sum / blocking_n : 0;
  res.attempted = missions + reference_missions +
                  sample.size() * static_cast<std::size_t>(serial_passes) +
                  serial_scale.reference_ms.size();
  const double parallelism = cpu_in_sweeps / wall_in_sweeps;
  std::printf("sweep-60: %zu sweeps, %" PRIu64 " missions in %.3f s of "
              "run_sweep; pool parallelism %.3f at %zu workers\n",
              sweeps, missions, wall_in_sweeps, parallelism, kSweepJobs);
  sweep_scale.print("sweep-60 sweeps");
  serial_scale.print("sweep-60 serial missions");
  std::printf("sweep-60: %" PRIu64 "/%" PRIu64
              " missions fail an oracle (prefix %" PRIu64 ": %" PRIu64 ")\n",
              failing, missions, prefix_missions, prefix_missions - ok);
  std::printf("digest %016" PRIx64 " over the first %zu sweeps\n", digest.h,
              kPrefixSweeps);
  // run_sweep keeps only tallies: find the failing seeds of every cell that
  // had a failure by re-running that cell's missions.
  for (const auto& [sweep_seed, index] : failing_cells) {
    const sweep::SweepConfig config = sweep_config(sweep_seed, kSweepReps, 1);
    const sweep::SweepCell cell = sweep::build_grid(config)[index];
    const CampaignConfig cc = sweep::cell_campaign_config(config, cell);
    Rng mission_seeder(cell.seed);
    for (std::size_t i = 0; i < kSweepReps; ++i) {
      const MissionReport r = run_mission(cc, mission_seeder.next());
      if (r.ok) continue;
      std::printf("failing mission sweep_seed=%" PRIu64 " cell=%zu (%s scale=%.1f) "
                  "seed=%" PRIu64 " violations=%zu first: %s\n",
                  sweep_seed, index, to_string(cell.scheme), cell.fault_scale,
                  r.seed, r.failures.size(), r.failures.front().c_str());
    }
  }

  // Check pass over the first sweep: every mission through the harness
  // (layer counters); fold the reports and compare the fragment bytes.
  const std::string json0 = sweep::to_json(*first);
  sweep::ShardResult folded;
  folded.config = config0;
  folded.cells_total = grid.size();
  CounterSum counters;
  double untraced_ms = 0;
  std::vector<double> tmr_ms, single_ms;
  std::vector<double> cell_kb(grid.size(), 0), cell_commits(grid.size(), 0);
  std::vector<std::size_t> cell_failing(grid.size(), 0);
  std::optional<sweep::CellStats> stats;
  const double serial_factor = serial_scale.factor();
  for (std::size_t j = 0; j < sample.size(); ++j) {
    const SampleMission& m = sample[j];
    const CampaignConfig& cc = cell_configs[m.cell];
    const MissionReport& r = sample_reports[j];
    const double ms = mean(serial_runs_ms[j]) * serial_factor;
    e.mission_ms.push_back(ms);
    untraced_ms += tracer ? entry_point_ms([&] { (void)run_mission(cc, m.seed); })
                          : ms;
    (scheme_lane_count(cc.scheme) > 1 ? tmr_ms : single_ms).push_back(ms);
    if (tracer) tracer->set_mission(static_cast<std::uint32_t>(j));
    ChaosOutcome out;
    {
      Tracer::Scope span(tracer, "mission");
      out = drive_chaos(cc, m.seed, tracer);
    }
    if (!(out.report == r)) res.mismatch("sweep-60 report", m.seed);
    if (!r.ok) ++cell_failing[m.cell];
    cell_kb[m.cell] += out.counters["storage.bytes_written"] / 1024.0;
    cell_commits[m.cell] += out.counters["storage.commits"];
    counters.add(out.counters);
    if (m.rep == 0) stats.emplace(grid[m.cell]);
    stats->fold(m.rep, r);
    if (m.rep + 1 == kSweepReps) {
      folded.missions_run += stats->tallies.missions;
      folded.cells.push_back(std::move(*stats));
    }
  }
  for (const sweep::SweepCell& cell : grid) {
    const std::size_t c = cell.index;
    std::printf("cell %zu %s scale=%.1f: %zu/%zu fail, record KB %.3f, "
                "stable KB/mission %.3f\n",
                c, to_string(cell.scheme), cell.fault_scale, cell_failing[c],
                kSweepReps,
                cell_commits[c] > 0 ? cell_kb[c] / cell_commits[c] : 0.0,
                cell_kb[c] / static_cast<double>(kSweepReps));
  }
  if (sweep::to_json(folded) != json0) {
    res.mismatch("sweep-60 folded fragment", sweep_seeds[0]);
  }
  {
    const sweep::ShardResult serial = sweep::run_sweep(
        sweep_config(sweep_seeds[0], kSweepReps, 1), nullptr);
    if (sweep::to_json(serial) != json0) {
      res.mismatch("sweep-60 fragment at 1 vs 2 workers", sweep_seeds[0]);
    }
  }
  std::int64_t fragment_ns = 0;
  {
    const std::int64_t f0 = now_ns();
    Tracer::Scope f(tracer, "sweep.fragment");
    std::string json;
    {
      Tracer::Scope s(tracer, "sweep.to_json");
      json = sweep::to_json(*first);
    }
    sweep::ShardResult parsed = [&] {
      Tracer::Scope s(tracer, "sweep.parse_fragment");
      return sweep::parse_fragment(json);
    }();
    const sweep::ShardResult merged = [&] {
      Tracer::Scope s(tracer, "sweep.merge_fragments");
      return sweep::merge_fragments({parsed});
    }();
    if (sweep::to_json(merged) != json0) {
      res.mismatch("sweep-60 fragment round trip", sweep_seeds[0]);
    }
    fragment_ns = now_ns() - f0;
  }
  e.events_per_mission = counters.per_mission("sim.events");
  std::printf("sweep-60: serial check pass over %zu missions: host ms p50=%.3f "
              "p90=%.3f\n",
              e.mission_ms.size(), quantile(e.mission_ms, 0.5),
              quantile(e.mission_ms, 0.9));

  if (!tracer) {
    add_end_to_end(res, e);
    return res;
  }
  UnitCosts unit;
  (void)drive_chaos(cell_configs[0], sample[0].seed, nullptr,
                    [&](System& s) {
                      unit = probe_canonical(
                          s, counters.per_mission("sim.pending_depth"));
                    });
  TraceInputs in;
  in.tracer = tracer;
  in.counters = &counters;
  in.unit = unit;
  in.untraced_mission_ms = untraced_ms / static_cast<double>(counters.missions);
  in.monitor_sweeps = config0.mission.to_seconds() /
                      cell_configs[0].base.monitor.sweep_interval.to_seconds();
  in.stable_stores = 3;
  in.pool_parallelism = parallelism;
  in.pool_jobs = static_cast<double>(kSweepJobs);
  in.fragment_ms = static_cast<double>(fragment_ns) / 1e6;
  in.tmr_mission_ms = mean(tmr_ms);
  in.single_lane_mission_ms = mean(single_ms);
  in.fail_frac = static_cast<double>(failing) / static_cast<double>(missions);
  add_layer_metrics(res, in);
  return res;
}

// ---- Entry point ------------------------------------------------------------------

void print_json(const Result& r) {
  std::printf("{\"correct\": %s, \"attempted\": %" PRIu64 ", \"failed\": %" PRIu64
              ", \"metrics\": {",
              r.correct ? "true" : "false", r.attempted, r.failed);
  for (std::size_t i = 0; i < r.metrics.size(); ++i) {
    const Metric& m = r.metrics[i];
    const double v = std::isfinite(m.value) ? m.value : 0.0;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", m.name.c_str(), v, m.unit.c_str());
  }
  std::printf("}}\n");
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload chaos-600|star-256|sweep-60 "
               "--seed N --seconds S --trace 0|1 [--spans-dir DIR]\n");
  return 2;
}

int run(int argc, char** argv) {
  Args a;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const char* v = argv[i + 1];
    if (k == "--workload") {
      a.workload = v;
    } else if (k == "--seed") {
      a.seed = std::strtoull(v, nullptr, 10);
    } else if (k == "--seconds") {
      a.seconds = std::strtod(v, nullptr);
    } else if (k == "--trace") {
      a.trace = std::strcmp(v, "0") != 0;
    } else if (k == "--spans-dir") {
      a.spans_dir = v;
    } else {
      return usage();
    }
  }
  if (argc % 2 == 0) return usage();

  Tracer tracer;
  Tracer* t = a.trace ? &tracer : nullptr;
  Result res;
  if (a.workload == "chaos-600") {
    res = run_chaos(a, t);
  } else if (a.workload == "star-256") {
    res = run_star(a, t);
  } else if (a.workload == "sweep-60") {
    res = run_sweep_workload(a, t);
  } else {
    return usage();
  }
  if (a.trace) {
    for (const Metric& m : res.metrics) {
      std::printf("layer %-34s %16.6f %s\n", m.name.c_str(), m.value,
                  m.unit.c_str());
    }
  }
  if (a.trace && !a.spans_dir.empty()) {
    std::filesystem::create_directories(a.spans_dir);
    const std::string path = a.spans_dir + "/spans-" + a.workload + "-seed" +
                             std::to_string(a.seed) + ".tsv";
    std::ofstream out(path);
    tracer.write_tsv(out);
    std::printf("spans: %zu written to %s\n", tracer.spans().size(),
                path.c_str());
  }
  print_json(res);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::run(argc, argv);
  } catch (const std::exception& ex) {
    std::fprintf(stderr, "perfbench: %s\n", ex.what());
    return 1;
  }
}
