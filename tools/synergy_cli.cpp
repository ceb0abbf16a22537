// synergy — command-line driver for the simulator.
//
//   synergy run      [options]  run one mission and report what happened
//   synergy sweep    [options]  sharded Monte-Carlo parameter sweep (JSON)
//   synergy rollback [options]  Figure-7 rollback-distance sweep (CSV)
//   synergy model    [options]  evaluate the closed-form rollback model
//   synergy chaos    [options]  seeded fault-injection campaign
//   synergy general  [options]  generalized N-component topology campaign
//
// Run `synergy help` for the full option list. Examples:
//
//   synergy run --scheme coordinated --duration 3600 --hw-fault 1800:2
//   synergy run --sw-error 900 --timeline
//   synergy run --scheme naive --seed 7 --check --trace-csv trace.csv
//   synergy sweep --schemes coordinated,mdcd_only --fault-scales 1,2,4 \
//       --reps 100 --duration 60 --jobs 0 --out sweep.json
//   synergy sweep ... --shard 2/3 --out frag2.json
//   synergy sweep --merge frag1.json frag2.json frag3.json --out full.json
//   synergy rollback --rates 60,100,140,200 --reps 40 > fig7.csv
//   synergy chaos --reps 50 --seed 1
//   synergy chaos --replay 13665873534402006364
#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/checkers.hpp"
#include "analysis/model.hpp"
#include "bench/bench_common.hpp"
#include "core/campaign.hpp"
#include "core/experiment.hpp"
#include "core/system.hpp"
#include "general/campaign.hpp"
#include "general/topology.hpp"
#include "sweep/fragment.hpp"
#include "sweep/runner.hpp"
#include "trace/export.hpp"
#include "trace/timeline.hpp"

using namespace synergy;

namespace {

/// The most worker threads `--jobs` may ask for (the usage text quotes
/// it): above the hardware threads of common hosts, far below what would
/// exhaust the process table.
constexpr std::uint64_t kMaxJobs = 1024;

/// The fastest rate a flag may name: its mean gap 1/R is one tick of the
/// simulated clock (1 µs); a faster one would round its gap to zero.
constexpr double kMaxRate = 1e6;

/// `rollback --rates` counts messages per this many seconds.
constexpr double kRollbackTimeBase = 100'000.0;

// The usage text quotes the largest star and chain sizes.
static_assert(Topology::kMaxStarLeaves == 65533 &&
              Topology::kMaxChainLength == 65534);

[[noreturn]] void usage(int code) {
  std::printf(R"(synergy — MDCD + TB fault-tolerance simulator

USAGE
  synergy run      [options]  run one mission
  synergy sweep    [options]  sharded Monte-Carlo parameter sweep (JSON)
  synergy rollback [options]  rollback-distance sweep, CSV on stdout
  synergy model    [options]  closed-form rollback model
  synergy chaos    [options]  seeded fault-injection campaign
  synergy general  [options]  generalized N-component topology campaign
  synergy help

RUN OPTIONS
  --scheme S          mdcd_only | write_through | naive | coordinated |
                      mdcd+dwc | mdcd+tmr | mdcd+tb+tmr
                      ("mdcd+tb" is an alias for coordinated; default
                      coordinated)
  --seed N            RNG seed (default 1)
  --duration SECS     mission length (default 3600)
  --internal-rate R   component internal msgs/s, at most 1e6 (default 2.0)
  --external-rate R   external (validated) msgs/s, at most 1e6 (default
                      0.05)
  --interval SECS     TB checkpoint interval Delta (default 60)
  --sw-fault-prob P   design-fault activation per send (default 0)
  --hw-fault T:NODE   crash NODE at T seconds (repeatable)
  --sw-error T        corrupt P1act at T seconds and force an AT
  --gate MODE         paper | blocking_aware (default blocking_aware)
  --tracking MODE     paper_dirty_bit | watermark (default watermark)
  --check             audit the final stable recovery line
  --timeline          print the ASCII event timeline
  --trace-csv FILE    dump the trace as CSV
  --trace-jsonl FILE  dump the trace as JSON Lines

SWEEP OPTIONS (run mode)
  Crosses scheme x fault-scale x AT-coverage x checkpoint-interval into a
  deterministic cell grid; each cell runs --reps chaos missions through
  the in-order parallel executor and is aggregated with streaming statistics
  (memory stays O(cells) however many missions run). Output is a
  `synergy-sweep-v1` JSON document on stdout (or --out).
  --seed N            sweep seed; cell and mission seeds derive from it
                      (default 1)
  --reps N            missions per cell (default 100)
  --duration SECS     mission length (default 60)
  --schemes A,B,...   scheme axis (default coordinated)
  --fault-scales A,.. multiplier on every chaos injector rate; 0 = fault
                      free (default 1)
  --coverages A,B,... AT coverage axis (default 1)
  --intervals A,B,... TB checkpoint interval axis, seconds, each positive
                      (default 10)
  --workload W        registers | abft (default registers)
  --lane-gap SECS     arm per-lane bit-flips at this mean gap (default off)
  --sig-gap SECS      arm CFCSS signature faults at this mean gap
  --mobile            arm the mobile disconnect/handoff family
  --jobs N            per-cell mission fan-out; 0 = all hardware threads
                      (default 1, at most 1024); never affects the output
                      bytes
  --shard I/N         run only the cells the seed-stable hash assigns to
                      shard I of N (default 1/1); emit a mergeable fragment
  --out FILE          write the JSON here instead of stdout
  --csv FILE          also write a plot-ready per-cell CSV
  --bench-json FILE   write shard throughput (cells/s) as synergy-bench-v1
                      JSON (the BENCH_sweep.json regression baseline)
  --quiet             suppress per-cell progress lines on stderr

SWEEP OPTIONS (merge mode)
  --merge F1 F2 ...   combine shard fragments; the merged document is
                      byte-identical to the single-process full-grid run.
                      Headers must agree and every cell must appear
                      exactly once (missing cells are listed so the lost
                      shard can be re-run). --out/--csv as above.

ROLLBACK OPTIONS
  Every rate runs coordinated and write_through, one CSV row each.
  --seed N            RNG seed (default 42)
  --interval SECS     TB checkpoint interval Delta (default 60)
  --rates A,B,...     internal message rates per 100000 s, each at most
                      1e11 (default 60,80,...,200)
  --reps N            replications per point (default 30)

MODEL OPTIONS
  --lambda-dirty R    contamination rate [1/s], positive
  --lambda-valid R    validation rate [1/s], positive
  --interval SECS     Delta

CHAOS OPTIONS
  --reps N            missions to run (default 50)
  --seed N            campaign seed; mission seeds derive from it (default 1)
  --duration SECS     mission length (default 600)
  --scheme S          as for run (default coordinated)
  --jobs N            worker threads for the mission fan-out; 0 = all
                      hardware threads (default 1, at most 1024). Reports
                      and per-mission output are bit-identical for every
                      value.
  --json FILE         write campaign throughput and counter totals as
                      synergy-bench-v1 JSON (the BENCH_campaign.json
                      regression baseline)
  --replay SEED       re-run exactly one mission with this mission seed
                      (printed by a failing campaign) and dump its counters
  --drop P            network drop probability        (default 0.01)
  --dup P             network duplicate probability   (default 0.01)
  --reorder P         network reorder probability     (default 0.02)
  --delay P           beyond-tmax delay probability   (default 0.002)
  --bitflip P         payload bit-flip probability    (default 0.005)
  --write-error P     storage write-error probability (default 0.05)
  --torn P            storage torn-write probability  (default 0.02)
  --latent P          latent corruption probability   (default 0.01)
  --hw-gap SECS       mean gap between node crashes, 0=off (default 150)
  --drift-gap SECS    mean gap between drift excursions, 0=off (default 200)
  --blackout-gap SECS mean gap between resync blackouts, 0=off (default 250)
  --lane-gap SECS     mean gap between per-lane state bit-flips, 0=off
                      (default 0; COAST register/memory injection model)
  --sig-gap SECS      mean gap between per-lane CFCSS signature faults,
                      0=off (default 0)
  --workload W        registers | abft (default registers). abft runs the
                      checksum-encoded matrix-block workload: AT verdicts
                      are computed from the block state, and the campaign
                      reports assumed-vs-computed coverage
  --disconnect-gap S  mean gap between disconnection epochs, 0=off
                      (default 0; arms the mobile mission family)
  --disconnect-len S  mean disconnection epoch length, positive (default 15)
  --disconnect-loss P stationary burst-loss fraction of a degraded epoch
                      (default 0.9)
  --disconnect-full P probability an epoch is a full blackout (default 0.5)
  --handoff-gap SECS  mean gap between base-station handoffs, 0=off
                      (default 0)
  --verbose           one summary line per mission
  A failing mission prints its seed and full schedule JSON; re-running
  with --replay SEED reproduces it exactly.

GENERAL OPTIONS
  --topology T        star | chain (default star)
  --size N            star: leaf count, 1..65533; chain: length, 2..65534
                      (default 64)
  --reps N            missions to run (default 8)
  --seed N            campaign seed; mission seeds derive from it (default 1)
  --duration SECS     mission length (default 60)
  --internal-rate R   per-component internal msgs/s, at most 1e6 (default
                      2.0)
  --external-rate R   per-component external msgs/s, at most 1e6 (default
                      0.3)
  --interval SECS     TB checkpoint interval (default 10)
  --no-hw             skip the seeded per-mission node crash
  --no-sw             skip the seeded per-mission design-fault activation
  --jobs N            worker threads; 0 = all hardware threads (default 1,
                      at most 1024). Reports and per-mission output are
                      bit-identical for every value.
  --json FILE         write campaign throughput as synergy-bench-v1 JSON
  --verbose           one summary line per mission
  Every mission ends with a recovery-line audit (consistency +
  recoverability); any violation fails the mission and the campaign.
)");
  std::exit(code);
}

[[noreturn]] void unknown_option(const std::string& option) {
  std::fprintf(stderr, "unknown option: %s\n", option.c_str());
  usage(2);
}

const char* arg_value(int argc, char** argv, int& i) {
  if (i + 1 >= argc) {
    std::fprintf(stderr, "missing value for %s\n", argv[i]);
    usage(2);
  }
  return argv[++i];
}

Scheme parse_scheme(const std::string& s) {
  if (const auto scheme = scheme_from_string(s)) return *scheme;
  std::fprintf(stderr, "unknown scheme: %s\n", s.c_str());
  usage(2);
}

WorkloadKind parse_workload(const std::string& s) {
  if (const auto kind = workload_kind_from_string(s)) return *kind;
  std::fprintf(stderr, "unknown workload: %s (expected registers | abft)\n",
               s.c_str());
  usage(2);
}

/// Parse `value` as a finite number in [lo, hi]; reject junk and
/// out-of-range values with an error naming the flag and what it expects.
double parse_number(const char* flag, const char* value, const char* expects,
                    double lo, double hi = HUGE_VAL) {
  char* end = nullptr;
  const double v = std::strtod(value, &end);
  if (end == value || *end != '\0' || !std::isfinite(v) || !(v >= lo) ||
      !(v <= hi)) {
    std::fprintf(stderr, "%s expects %s, got \"%s\"\n", flag, expects, value);
    usage(2);
  }
  return v;
}

double parse_probability(const char* flag, const char* value) {
  return parse_number(flag, value, "a probability in [0, 1]", 0.0, 1.0);
}

/// Parse `value` as a non-negative duration in seconds (capped well inside
/// Duration's microsecond range).
Duration parse_seconds(const char* flag, const char* value) {
  return Duration::from_seconds(
      parse_number(flag, value, "a non-negative duration in seconds", 0.0,
                   Duration::kMaxInputSeconds));
}

/// Reject a value parsed as non-negative that must be positive; a
/// duration counts as zero when it rounds below the clock's 1 µs tick.
void require_positive(const char* flag, bool positive) {
  if (!positive) {
    std::fprintf(stderr, "%s must be positive\n", flag);
    usage(2);
  }
}

double parse_rate(const char* flag, const char* value) {
  return parse_number(flag, value,
                      "a non-negative rate per second, at most 1e6", 0.0,
                      kMaxRate);
}

/// Parse `value` as a whole number in [min, max] (decimal digits only: no
/// sign, no junk, no overflow).
std::uint64_t parse_count(const char* flag, const char* value,
                          std::uint64_t min = 0,
                          std::uint64_t max = UINT64_MAX) {
  char* end = nullptr;
  errno = 0;
  const unsigned long long n = std::strtoull(value, &end, 10);
  if (!std::isdigit(static_cast<unsigned char>(value[0])) || *end != '\0' ||
      errno == ERANGE || n < min || n > max) {
    std::fprintf(stderr, "%s expects a whole number >= %llu", flag,
                 static_cast<unsigned long long>(min));
    if (max != UINT64_MAX) {
      std::fprintf(stderr, " and <= %llu", static_cast<unsigned long long>(max));
    }
    std::fprintf(stderr, ", got \"%s\"\n", value);
    usage(2);
  }
  return n;
}

/// The comma-separated items of `list` ("" is one empty item).
std::vector<std::string> split_list(const std::string& list) {
  std::vector<std::string> items;
  std::size_t pos = 0;
  for (auto comma = list.find(','); comma != std::string::npos;
       comma = list.find(',', pos)) {
    items.push_back(list.substr(pos, comma - pos));
    pos = comma + 1;
  }
  items.push_back(list.substr(pos));
  return items;
}

/// Comma-separated list of finite doubles in [`lo`, `hi`]; rejects empty
/// items, junk and out-of-range values.
std::vector<double> parse_double_list(const char* flag, const char* value,
                                      double lo = -HUGE_VAL,
                                      double hi = HUGE_VAL) {
  std::vector<double> out;
  for (const std::string& item : split_list(value)) {
    char* end = nullptr;
    const double v = std::strtod(item.c_str(), &end);
    if (end == item.c_str() || *end != '\0' || !std::isfinite(v) ||
        !(v >= lo) || !(v <= hi)) {
      std::fprintf(stderr, "%s expects a comma-separated number list", flag);
      if (std::isfinite(hi)) {
        std::fprintf(stderr, " (each in [%g, %g])", lo, hi);
      } else if (std::isfinite(lo)) {
        std::fprintf(stderr, " (each >= %g)", lo);
      }
      std::fprintf(stderr, ", got \"%s\"\n", value);
      usage(2);
    }
    out.push_back(v);
  }
  return out;
}

/// A sweep axis: the same range a fragment's axes must satisfy on --merge,
/// so every fragment a sweep writes can be merged.
std::vector<double> parse_axis(const char* flag, const char* value) {
  return parse_double_list(flag, value, 0.0, Duration::kMaxInputSeconds);
}

std::vector<Scheme> parse_scheme_list(const char* flag, const char* value) {
  std::vector<Scheme> out;
  for (const std::string& item : split_list(value)) {
    const auto scheme = scheme_from_string(item);
    if (!scheme) {
      std::fprintf(stderr, "%s: unknown scheme \"%s\"\n", flag, item.c_str());
      usage(2);
    }
    out.push_back(*scheme);
  }
  return out;
}

/// One of a flag's two documented values.
template <typename T>
T parse_choice(const char* flag, const char* value, const char* a, T a_value,
               const char* b, T b_value) {
  if (std::strcmp(value, a) == 0) return a_value;
  if (std::strcmp(value, b) == 0) return b_value;
  std::fprintf(stderr, "%s expects %s | %s, got \"%s\"\n", flag, a, b, value);
  usage(2);
}

struct FaultSpec {
  Duration at;
  std::uint32_t node = 0;
};

int cmd_run(int argc, char** argv) {
  SystemConfig config;
  Duration duration = Duration::seconds(3600);
  std::vector<FaultSpec> hw_faults;
  std::optional<Duration> sw_error_at;
  bool check = false, timeline = false;
  std::string trace_csv, trace_jsonl;

  for (int i = 2; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--scheme") config.scheme = parse_scheme(arg_value(argc, argv, i));
    else if (a == "--seed") config.seed = parse_count("--seed", arg_value(argc, argv, i));
    else if (a == "--duration") duration = parse_seconds("--duration", arg_value(argc, argv, i));
    else if (a == "--internal-rate") {
      const double r = parse_rate("--internal-rate", arg_value(argc, argv, i));
      config.workload.p1_internal_rate = r;
      config.workload.p2_internal_rate = r;
    } else if (a == "--external-rate") {
      const double r = parse_rate("--external-rate", arg_value(argc, argv, i));
      config.workload.p1_external_rate = r;
      config.workload.p2_external_rate = r;
    } else if (a == "--interval") {
      config.tb.interval = parse_seconds("--interval", arg_value(argc, argv, i));
    } else if (a == "--sw-fault-prob") {
      config.sw_fault.activation_per_send =
          parse_probability("--sw-fault-prob", arg_value(argc, argv, i));
    } else if (a == "--hw-fault") {
      const std::string spec = arg_value(argc, argv, i);
      const auto colon = spec.find(':');
      if (colon == std::string::npos) {
        std::fprintf(stderr, "--hw-fault expects T:NODE, got \"%s\"\n",
                     spec.c_str());
        usage(2);
      }
      const std::uint64_t node =
          parse_count("--hw-fault NODE", spec.substr(colon + 1).c_str(), 0,
                      kNumCanonicalProcesses - 1);
      hw_faults.push_back(FaultSpec{
          parse_seconds("--hw-fault T", spec.substr(0, colon).c_str()),
          static_cast<std::uint32_t>(node)});
    } else if (a == "--sw-error") {
      sw_error_at = parse_seconds("--sw-error", arg_value(argc, argv, i));
    } else if (a == "--gate") {
      config.gate_mode = parse_choice(
          "--gate", arg_value(argc, argv, i), "paper", NdcGateMode::kPaper,
          "blocking_aware", NdcGateMode::kBlockingAware);
    } else if (a == "--tracking") {
      config.tracking = parse_choice(
          "--tracking", arg_value(argc, argv, i), "paper_dirty_bit",
          ContaminationTracking::kPaperDirtyBit, "watermark",
          ContaminationTracking::kWatermark);
    } else if (a == "--check") check = true;
    else if (a == "--timeline") timeline = true;
    else if (a == "--trace-csv") trace_csv = arg_value(argc, argv, i);
    else if (a == "--trace-jsonl") trace_jsonl = arg_value(argc, argv, i);
    else unknown_option(a);
  }
  require_positive("--interval", config.tb.interval > Duration::zero());
  if (!hw_faults.empty() && config.scheme == Scheme::kMdcdOnly) {
    std::fprintf(stderr,
                 "--hw-fault needs stable storage; mdcd_only has none\n");
    usage(2);
  }

  System system(config);
  system.start(TimePoint::origin() + duration);
  for (const auto& f : hw_faults) {
    system.schedule_hw_fault(TimePoint::origin() + f.at, NodeId{f.node});
  }
  if (sw_error_at) system.schedule_sw_error(TimePoint::origin() + *sw_error_at);
  system.run();

  std::printf("scheme=%s seed=%llu duration=%.0fs\n",
              to_string(config.scheme),
              static_cast<unsigned long long>(config.seed),
              duration.to_seconds());
  std::printf("device outputs=%zu  AT failures=%llu\n",
              system.device().entries.size(),
              static_cast<unsigned long long>(system.at_failures_observed()));
  if (const auto& r = system.sw_recovery()) {
    std::printf("software recovery: detector=%s p1sdw=%s p2=%s replayed=%zu\n",
                to_string(r->detector).c_str(),
                r->p1sdw_rolled_back ? "rollback" : "roll-forward",
                r->p2_rolled_back ? "rollback" : "roll-forward",
                r->replayed_messages);
  }
  for (const auto& rec : system.hw_recoveries()) {
    std::printf("hardware recovery: node=%u fault_t=%.1fs rollback=",
                rec.faulty_node.value(), rec.fault_time.to_seconds());
    for (std::size_t i = 0; i < rec.rollback_distance.size(); ++i) {
      std::printf("%s%.1fs", i ? "/" : "",
                  rec.rollback_distance[i].to_seconds());
    }
    std::printf(" resent=%zu\n", rec.resent_messages);
  }

  if (check && config.scheme != Scheme::kMdcdOnly) {
    const GlobalState line = system.stable_line_state();
    const auto c = check_consistency(line);
    const auto r = check_recoverability(line);
    const auto s = check_software_recoverability(line);
    std::printf("stable-line audit: consistency=%zu recoverability=%zu "
                "sw-recoverability=%zu violations\n",
                c.size(), r.size(), s.size());
    for (const auto& v : c) std::printf("  C %s\n", v.describe().c_str());
    for (const auto& v : r) std::printf("  R %s\n", v.describe().c_str());
    for (const auto& v : s) std::printf("  S %s\n", v.describe().c_str());
  }
  if (timeline) {
    std::printf("%s", render_timeline(system.trace(),
                                      {kP1Act, kP1Sdw, kP2})
                          .c_str());
  }
  if (!trace_csv.empty()) {
    std::ofstream out(trace_csv);
    write_trace_csv(system.trace(), out);
    std::printf("trace written to %s (%zu events)\n", trace_csv.c_str(),
                system.trace().events().size());
  }
  if (!trace_jsonl.empty()) {
    std::ofstream out(trace_jsonl);
    write_trace_jsonl(system.trace(), out);
  }
  return 0;
}

int cmd_rollback(int argc, char** argv) {
  std::vector<double> rates = {60, 80, 100, 120, 140, 160, 180, 200};
  std::size_t reps = 30;
  std::uint64_t seed = 42;
  Duration interval = Duration::seconds(60);

  for (int i = 2; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--rates") {
      rates = parse_double_list("--rates", arg_value(argc, argv, i), 0.0,
                                kMaxRate * kRollbackTimeBase);
    } else if (a == "--reps") {
      reps = parse_count("--reps", arg_value(argc, argv, i), 1);
    } else if (a == "--seed") {
      seed = parse_count("--seed", arg_value(argc, argv, i));
    } else if (a == "--interval") {
      interval = parse_seconds("--interval", arg_value(argc, argv, i));
    } else {
      unknown_option(a);
    }
  }

  require_positive("--interval", interval > Duration::zero());

  std::printf("rate,scheme,mean_rollback_s,ci95_s,faults\n");
  for (double rate : rates) {
    for (Scheme scheme : {Scheme::kCoordinated, Scheme::kWriteThrough}) {
      RollbackExperimentConfig config;
      config.base.scheme = scheme;
      config.base.workload.p1_internal_rate = rate / kRollbackTimeBase;
      config.base.workload.p2_internal_rate = rate / kRollbackTimeBase;
      config.base.workload.p1_external_rate = 0.0;
      config.base.workload.p2_external_rate = 0.05;
      config.base.workload.step_rate = 0.0;
      config.base.tb.interval = interval;
      config.horizon = Duration::seconds(100'000);
      config.fault_earliest = Duration::seconds(20'000);
      config.fault_latest = Duration::seconds(90'000);
      config.replications = reps;
      config.seed0 = seed + static_cast<std::uint64_t>(rate);
      const auto result = measure_rollback(config);
      std::printf("%g,%s,%.2f,%.2f,%llu\n", rate, to_string(scheme),
                  result.overall.mean, result.overall.ci95_halfwidth(),
                  static_cast<unsigned long long>(result.faults));
    }
  }
  return 0;
}

/// `I/N` with 1 <= I <= N <= UINT32_MAX.
void parse_shard(const char* value, std::uint32_t& index,
                 std::uint32_t& count) {
  const std::string spec = value;
  const auto slash = spec.find('/');
  if (slash == std::string::npos) {
    std::fprintf(stderr, "--shard expects I/N (e.g. 2/3), got \"%s\"\n", value);
    usage(2);
  }
  const std::uint64_t i =
      parse_count("--shard I", spec.substr(0, slash).c_str(), 1, UINT32_MAX);
  const std::uint64_t n =
      parse_count("--shard N", spec.substr(slash + 1).c_str(), 1, UINT32_MAX);
  if (i > n) {
    std::fprintf(stderr, "--shard expects I/N with 1 <= I <= N, got \"%s\"\n",
                 value);
    usage(2);
  }
  index = static_cast<std::uint32_t>(i - 1);
  count = static_cast<std::uint32_t>(n);
}

bool write_text_file(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary);
  if (!out) return false;
  out << text;
  return static_cast<bool>(out.flush());
}

int cmd_sweep(int argc, char** argv) {
  sweep::SweepConfig config;
  bool merge_mode = false;
  bool quiet = false;
  std::vector<std::string> fragment_paths;
  std::string out_path, csv_path, bench_path;

  for (int i = 2; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--merge") merge_mode = true;
    else if (a == "--seed") config.seed = parse_count("--seed", arg_value(argc, argv, i));
    else if (a == "--reps") config.reps = parse_count("--reps", arg_value(argc, argv, i), 1);
    else if (a == "--duration") config.mission = parse_seconds("--duration", arg_value(argc, argv, i));
    else if (a == "--schemes") config.axes.schemes = parse_scheme_list("--schemes", arg_value(argc, argv, i));
    else if (a == "--fault-scales") config.axes.fault_scales = parse_axis("--fault-scales", arg_value(argc, argv, i));
    else if (a == "--coverages") config.axes.coverages = parse_axis("--coverages", arg_value(argc, argv, i));
    else if (a == "--intervals") config.axes.intervals_s = parse_axis("--intervals", arg_value(argc, argv, i));
    else if (a == "--workload") config.workload = parse_workload(arg_value(argc, argv, i));
    else if (a == "--lane-gap") config.lane_flip_gap = parse_seconds("--lane-gap", arg_value(argc, argv, i));
    else if (a == "--sig-gap") config.sig_fault_gap = parse_seconds("--sig-gap", arg_value(argc, argv, i));
    else if (a == "--mobile") config.mobile = true;
    else if (a == "--jobs") config.jobs = parse_count("--jobs", arg_value(argc, argv, i), 0, kMaxJobs);
    else if (a == "--shard") parse_shard(arg_value(argc, argv, i), config.shard_index, config.shard_count);
    else if (a == "--out") out_path = arg_value(argc, argv, i);
    else if (a == "--csv") csv_path = arg_value(argc, argv, i);
    else if (a == "--bench-json") bench_path = arg_value(argc, argv, i);
    else if (a == "--quiet") quiet = true;
    else if (merge_mode && !a.empty() && a[0] != '-') fragment_paths.push_back(a);
    else unknown_option(a);
  }
  for (const double interval : config.axes.intervals_s) {
    require_positive("--intervals",
                     Duration::from_seconds(interval) > Duration::zero());
  }
  if (merge_mode && fragment_paths.empty()) {
    std::fprintf(stderr, "--merge expects fragment paths\n");
    usage(2);
  }
  try {
    sweep::ShardResult result;
    if (merge_mode) {
      std::vector<sweep::ShardResult> fragments;
      fragments.reserve(fragment_paths.size());
      for (const std::string& path : fragment_paths) {
        std::ifstream in(path, std::ios::binary);
        if (!in) {
          std::fprintf(stderr, "synergy sweep: cannot read %s\n",
                       path.c_str());
          return 1;
        }
        std::ostringstream buf;
        buf << in.rdbuf();
        try {
          fragments.push_back(sweep::parse_fragment(buf.str()));
        } catch (const std::exception& e) {
          std::fprintf(stderr, "synergy sweep: %s: %s\n", path.c_str(),
                       e.what());
          return 1;
        }
      }
      result = sweep::merge_fragments(fragments);
    } else {
      result = sweep::run_sweep(config, quiet ? nullptr : &std::cerr);
    }

    const std::string json = sweep::to_json(result);
    if (out_path.empty()) {
      std::fwrite(json.data(), 1, json.size(), stdout);
    } else if (!write_text_file(out_path, json)) {
      std::fprintf(stderr, "failed to write %s\n", out_path.c_str());
      return 1;
    }
    if (!csv_path.empty() && !write_text_file(csv_path, sweep::to_csv(result))) {
      std::fprintf(stderr, "failed to write %s\n", csv_path.c_str());
      return 1;
    }
    if (!bench_path.empty()) {
      // Shard throughput for the perf-regression gate. Cells/s is the
      // stable unit (cells are fixed-size work packets of --reps
      // missions); missions/s rides along in the counters.
      bench::BenchJsonWriter writer;
      const std::size_t cells = result.cells.size();
      char name[160];
      std::snprintf(name, sizeof(name),
                    "sweep/cells=%zu/reps=%zu/duration=%gs", cells,
                    config.reps, config.mission.to_seconds());
      const double wall = std::max(result.wall_seconds, 1e-9);
      writer.add({name, static_cast<std::uint64_t>(cells),
                  wall * 1e9 / std::max<double>(1.0, static_cast<double>(cells)),
                  static_cast<double>(cells) / wall});
      writer.set_counter("missions_run", result.missions_run);
      writer.set_counter("cells_total", result.cells_total);
      if (!writer.write_file(bench_path)) {
        std::fprintf(stderr, "failed to write %s\n", bench_path.c_str());
        return 1;
      }
      std::fprintf(stderr, "bench json written to %s\n", bench_path.c_str());
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "synergy sweep: %s\n", e.what());
    return 1;
  }
  return 0;
}

int cmd_model(int argc, char** argv) {
  RollbackModelParams params;
  for (int i = 2; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--lambda-dirty") params.lambda_dirty = parse_rate("--lambda-dirty", arg_value(argc, argv, i));
    else if (a == "--lambda-valid") params.lambda_valid = parse_rate("--lambda-valid", arg_value(argc, argv, i));
    else if (a == "--interval") params.interval = parse_seconds("--interval", arg_value(argc, argv, i));
    else unknown_option(a);
  }
  require_positive("--interval", params.interval > Duration::zero());
  require_positive("--lambda-dirty", params.lambda_dirty > 0.0);
  require_positive("--lambda-valid", params.lambda_valid > 0.0);
  std::printf("lambda_dirty=%g /s  lambda_valid=%g /s  Delta=%g s\n",
              params.lambda_dirty, params.lambda_valid,
              params.interval.to_seconds());
  std::printf("dirty fraction q     = %.4f\n", dirty_fraction(params));
  std::printf("E[Dco] (coordinated) = %.2f s\n",
              expected_rollback_coordinated(params));
  std::printf("E[Dwt] (write-thru)  = %.2f s\n",
              expected_rollback_write_through(params));
  return 0;
}

int cmd_chaos(int argc, char** argv) {
  CampaignConfig config;
  bool replay = false;
  std::uint64_t replay_seed = 0;
  std::string json_path;

  for (int i = 2; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--reps") config.reps = parse_count("--reps", arg_value(argc, argv, i), 1);
    else if (a == "--seed") config.seed = parse_count("--seed", arg_value(argc, argv, i));
    else if (a == "--jobs") config.jobs = parse_count("--jobs", arg_value(argc, argv, i), 0, kMaxJobs);
    else if (a == "--json") json_path = arg_value(argc, argv, i);
    else if (a == "--duration") config.mission = parse_seconds("--duration", arg_value(argc, argv, i));
    else if (a == "--scheme") config.scheme = parse_scheme(arg_value(argc, argv, i));
    else if (a == "--replay") {
      replay = true;
      replay_seed = parse_count("--replay", arg_value(argc, argv, i));
    }
    else if (a == "--drop") config.rates.net.drop_probability = parse_probability("--drop", arg_value(argc, argv, i));
    else if (a == "--dup") config.rates.net.duplicate_probability = parse_probability("--dup", arg_value(argc, argv, i));
    else if (a == "--reorder") config.rates.net.reorder_probability = parse_probability("--reorder", arg_value(argc, argv, i));
    else if (a == "--delay") config.rates.net.delay_probability = parse_probability("--delay", arg_value(argc, argv, i));
    else if (a == "--bitflip") config.rates.net.bitflip_probability = parse_probability("--bitflip", arg_value(argc, argv, i));
    else if (a == "--write-error") config.rates.storage.write_error_probability = parse_probability("--write-error", arg_value(argc, argv, i));
    else if (a == "--torn") config.rates.storage.torn_write_probability = parse_probability("--torn", arg_value(argc, argv, i));
    else if (a == "--latent") config.rates.storage.latent_corruption_probability = parse_probability("--latent", arg_value(argc, argv, i));
    else if (a == "--hw-gap") config.rates.timed.hw_fault_mean_gap = parse_seconds("--hw-gap", arg_value(argc, argv, i));
    else if (a == "--drift-gap") config.rates.timed.drift_excursion_mean_gap = parse_seconds("--drift-gap", arg_value(argc, argv, i));
    else if (a == "--blackout-gap") config.rates.timed.resync_blackout_mean_gap = parse_seconds("--blackout-gap", arg_value(argc, argv, i));
    else if (a == "--lane-gap") config.rates.timed.lane_flip_mean_gap = parse_seconds("--lane-gap", arg_value(argc, argv, i));
    else if (a == "--sig-gap") config.rates.timed.sig_fault_mean_gap = parse_seconds("--sig-gap", arg_value(argc, argv, i));
    else if (a == "--workload") config.base.workload.kind = parse_workload(arg_value(argc, argv, i));
    else if (a == "--disconnect-gap") config.rates.mobile.disconnect_mean_gap = parse_seconds("--disconnect-gap", arg_value(argc, argv, i));
    else if (a == "--disconnect-len") config.rates.mobile.disconnect_mean_len = parse_seconds("--disconnect-len", arg_value(argc, argv, i));
    else if (a == "--disconnect-loss") config.rates.mobile.disconnect_burst_loss = parse_probability("--disconnect-loss", arg_value(argc, argv, i));
    else if (a == "--disconnect-full") config.rates.mobile.disconnect_full_fraction = parse_probability("--disconnect-full", arg_value(argc, argv, i));
    else if (a == "--handoff-gap") config.rates.mobile.handoff_mean_gap = parse_seconds("--handoff-gap", arg_value(argc, argv, i));
    else if (a == "--trace-csv") config.trace_csv = arg_value(argc, argv, i);
    else if (a == "--verbose") config.verbose = true;
    else unknown_option(a);
  }

  require_positive("--disconnect-len",
                   config.rates.mobile.disconnect_mean_len > Duration::zero());

  if (replay) {
    const MissionReport r = run_mission(config, replay_seed);
    std::printf("mission seed=%llu %s\n",
                static_cast<unsigned long long>(r.seed),
                r.ok ? "ok" : "FAIL");
    std::fputs(format_mission_counters(config, r).c_str(), stdout);
    for (const auto& f : r.failures) std::printf("  %s\n", f.c_str());
    if (!r.ok) std::printf("schedule: %s\n", r.schedule_json.c_str());
    return r.ok ? 0 : 1;
  }

  const CampaignResult result = run_campaign(config, &std::cout);

  if (!json_path.empty()) {
    bench::BenchJsonWriter writer;
    char name[128];
    std::snprintf(name, sizeof(name), "chaos_campaign/scheme=%s/reps=%zu",
                  to_string(config.scheme), config.reps);
    writer.add({name, static_cast<std::uint64_t>(config.reps),
                result.wall_seconds * 1e9 /
                    static_cast<double>(std::max<std::size_t>(1, config.reps)),
                result.missions_per_sec});
    for (const auto& [name, value] :
         campaign_counter_totals(config, result.missions)) {
      writer.set_counter(name, value);
    }
    if (!writer.write_file(json_path)) {
      std::fprintf(stderr, "failed to write %s\n", json_path.c_str());
      return 1;
    }
    std::printf("bench json written to %s\n", json_path.c_str());
  }
  return result.failed == 0 ? 0 : 1;
}

int cmd_general(int argc, char** argv) {
  GeneralCampaignConfig config;
  std::string json_path;

  for (int i = 2; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--topology") {
      config.shape = parse_choice("--topology", arg_value(argc, argv, i),
                                  "star", GeneralShape::kStar, "chain",
                                  GeneralShape::kChain);
    }
    else if (a == "--size") config.size = parse_count("--size", arg_value(argc, argv, i));
    else if (a == "--reps") config.reps = parse_count("--reps", arg_value(argc, argv, i), 1);
    else if (a == "--seed") config.seed = parse_count("--seed", arg_value(argc, argv, i));
    else if (a == "--duration") config.mission = parse_seconds("--duration", arg_value(argc, argv, i));
    else if (a == "--internal-rate") config.internal_rate = parse_rate("--internal-rate", arg_value(argc, argv, i));
    else if (a == "--external-rate") config.external_rate = parse_rate("--external-rate", arg_value(argc, argv, i));
    else if (a == "--interval") config.tb_interval = parse_seconds("--interval", arg_value(argc, argv, i));
    else if (a == "--no-hw") config.inject_hw = false;
    else if (a == "--no-sw") config.inject_sw = false;
    else if (a == "--jobs") config.jobs = parse_count("--jobs", arg_value(argc, argv, i), 0, kMaxJobs);
    else if (a == "--json") json_path = arg_value(argc, argv, i);
    else if (a == "--verbose") config.verbose = true;
    else unknown_option(a);
  }
  const bool chain = config.shape == GeneralShape::kChain;
  const std::size_t min_size = chain ? 2 : 1;
  const std::size_t max_size =
      chain ? Topology::kMaxChainLength : Topology::kMaxStarLeaves;
  if (config.size < min_size || config.size > max_size) {
    std::fprintf(stderr,
                 "--size expects a whole number >= %zu and <= %zu for a %s, "
                 "got \"%zu\"\n",
                 min_size, max_size, to_string(config.shape), config.size);
    usage(2);
  }
  require_positive("--interval", config.tb_interval > Duration::zero());

  const GeneralCampaignResult result =
      run_general_campaign(config, &std::cout);

  if (!json_path.empty()) {
    bench::BenchJsonWriter writer;
    char name[128];
    std::snprintf(name, sizeof(name), "general_campaign/%s-%zu/reps=%zu",
                  to_string(config.shape), config.size, config.reps);
    const double wall_ns = result.wall_seconds * 1e9;
    writer.add({name, result.events_total,
                result.events_total > 0
                    ? wall_ns / static_cast<double>(result.events_total)
                    : 0.0,
                result.events_per_sec});
    writer.set_counter("events_total", result.events_total);
    writer.set_counter("oracle_violations", result.oracle_violations);
    if (!writer.write_file(json_path)) {
      std::fprintf(stderr, "failed to write %s\n", json_path.c_str());
      return 1;
    }
    std::printf("bench json written to %s\n", json_path.c_str());
  }
  return result.failed == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) usage(2);
  const std::string cmd = argv[1];
  if (cmd == "run") return cmd_run(argc, argv);
  if (cmd == "sweep") return cmd_sweep(argc, argv);
  if (cmd == "rollback") return cmd_rollback(argc, argv);
  if (cmd == "model") return cmd_model(argc, argv);
  if (cmd == "chaos") return cmd_chaos(argc, argv);
  if (cmd == "general") return cmd_general(argc, argv);
  if (cmd == "help" || cmd == "--help" || cmd == "-h") usage(0);
  std::fprintf(stderr, "unknown command: %s\n", cmd.c_str());
  usage(2);
}
