// synergy — command-line driver for the simulator. Each subcommand's flags
// are one table (DESIGN.md §22), printed by `synergy help` and
// `synergy <cmd> --help`. Examples:
//
//   synergy run --scheme naive --seed 7 --hw-fault 1800:2 --check --timeline
//   synergy sweep --schemes coordinated,mdcd_only --shard 2/3 --out f2.json
//   synergy sweep --merge f1.json f2.json f3.json --out full.json
//   synergy chaos --replay 13665873534402006364 --trace-csv mission.csv
#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <type_traits>
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

/// The most worker threads `--jobs` may ask for (its help text quotes it):
/// above the hardware threads of common hosts, far below what would
/// exhaust the process table.
constexpr std::uint64_t kMaxJobs = 1024;

/// The fastest rate a flag may name: its mean gap 1/R is one tick of the
/// simulated clock (1 µs); a faster one would round its gap to zero.
constexpr double kMaxRate = 1e6;

/// `rollback --rates` counts messages per this many seconds.
constexpr double kRollbackTimeBase = 100'000.0;

// The `--size` help text quotes the largest star and chain sizes.
static_assert(Topology::kMaxStarLeaves == 65533 &&
              Topology::kMaxChainLength == 65534);

/// Help lines wrap at this width; a flag's help starts at kHelpColumn.
constexpr std::size_t kHelpWidth = 77;
constexpr std::size_t kHelpColumn = 22;

[[noreturn]] void usage(int code);

/// Print the error on stderr, then the usage; exit 2.
[[noreturn, gnu::format(printf, 1, 2)]] void fail(const char* format, ...) {
  va_list args;
  va_start(args, format);
  std::vfprintf(stderr, format, args);
  va_end(args);
  std::fputc('\n', stderr);
  usage(2);
}

// ---- Value parsers: each error names the flag ------------------------------

/// `value` as a number in the finite range [lo, hi], or nullopt.
std::optional<double> to_number(const std::string& value, double lo,
                                double hi) {
  char* end = nullptr;
  const double v = std::strtod(value.c_str(), &end);
  if (end == value.c_str() || *end != '\0' || !(v >= lo) || !(v <= hi)) {
    return std::nullopt;
  }
  return v;
}

double parse_number(const char* flag, const char* value, const char* expects,
                    double lo, double hi) {
  if (const auto v = to_number(value, lo, hi)) return *v;
  fail("%s expects %s, got \"%s\"", flag, expects, value);
}

/// Capped well inside Duration's microsecond range.
Duration parse_seconds(const char* flag, const char* value) {
  return Duration::from_seconds(
      parse_number(flag, value, "a non-negative duration in seconds", 0.0,
                   Duration::kMaxInputSeconds));
}

/// A whole number in [lo, hi]: decimal digits only, no sign, no junk, no
/// overflow.
std::uint64_t parse_count(const std::string& flag, const char* value,
                          std::uint64_t lo, std::uint64_t hi) {
  char* end = nullptr;
  errno = 0;
  const unsigned long long n = std::strtoull(value, &end, 10);
  if (!std::isdigit(static_cast<unsigned char>(value[0])) || *end != '\0' ||
      errno == ERANGE || n < lo || n > hi) {
    const std::string at_most =
        hi == UINT64_MAX ? "" : " and <= " + std::to_string(hi);
    fail("%s expects a whole number >= %llu%s, got \"%s\"", flag.c_str(),
         static_cast<unsigned long long>(lo), at_most.c_str(), value);
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

/// `value` split at its first `sep`, or an error naming the flag.
auto split_at(const std::string& flag, const char* meta,
              const std::string& value, char sep) {
  const auto at = value.find(sep);
  if (at == std::string::npos) {
    fail("%s expects %s, got \"%s\"", flag.c_str(), meta, value.c_str());
  }
  return std::pair{value.substr(0, at), value.substr(at + 1)};
}

/// Reject a value parsed as non-negative that must be positive; a
/// duration counts as zero when it rounds below the clock's 1 µs tick.
void require_positive(const char* flag, bool positive) {
  if (!positive) fail("%s must be positive", flag);
}

// ---- The flag table --------------------------------------------------------

/// One row of a flag table. A command builds its rows over its default
/// arguments before parsing, so a row prints its target's default.
struct Flag {
  const char* name;
  const char* meta;   ///< the value's metavar; nullptr for a switch
  std::string help;
  std::string value;  ///< the default as printed; empty: none
  std::function<void(const char* value)> set;  ///< a switch gets nullptr
};

/// A default as the help prints it. Paths and unset optionals print none.
template <typename T>
std::string shown(const T& v) {
  if constexpr (std::is_same_v<T, Duration>) {
    return shown(v.to_seconds());
  } else if constexpr (std::is_enum_v<T>) {
    return to_string(v);
  } else if constexpr (std::is_floating_point_v<T>) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%g", v);
    return buf;
  } else if constexpr (std::is_integral_v<T>) {
    return std::to_string(v);
  } else if constexpr (std::is_same_v<T, std::vector<typename T::value_type>>) {
    std::string out;
    for (const auto& item : v) out += (out.empty() ? "" : ",") + shown(item);
    return out;
  } else {
    return "";
  }
}

/// A parser kind. `kind(name, meta, &target, help, bounds...)` builds a row
/// whose value `parse(name, value, bounds...)` turns into the target's type.
template <typename Parse>
struct Kind {
  Parse parse;

  template <typename T, typename... Bounds>
  Flag operator()(const char* name, const char* meta, T* target,
                  std::string help, Bounds... bounds) const {
    return {name, meta, std::move(help), shown(*target),
            [=, parse = parse](const char* v) {
              *target = parse(name, v, bounds...);
            }};
  }
};

/// A whole number in [lo, hi]; the target is unsigned, or an optional one.
constexpr Kind count{[](const char* flag, const char* value,
                        std::uint64_t lo = 0, std::uint64_t hi = UINT64_MAX) {
  return parse_count(flag, value, lo, hi);
}};

/// The target is a Duration, or an optional one.
constexpr Kind seconds{parse_seconds};

constexpr Kind probability{[](const char* flag, const char* value) {
  return parse_number(flag, value, "a probability in [0, 1]", 0.0, 1.0);
}};

constexpr Kind rate{[](const char* flag, const char* value) {
  return parse_number(flag, value,
                      "a non-negative rate per second, at most 1e6", 0.0,
                      kMaxRate);
}};

constexpr Kind path{[](const char*, const char* v) { return std::string(v); }};

/// Comma-separated finite numbers, each in [lo, hi].
constexpr Kind number_list{[](const char* flag, const char* value, double lo,
                              double hi) {
  std::vector<double> out;
  for (const std::string& item : split_list(value)) {
    const auto v = to_number(item, lo, hi);
    if (!v) {
      fail("%s expects a comma-separated number list (each in [%g, %g]), "
           "got \"%s\"",
           flag, lo, hi, value);
    }
    out.push_back(*v);
  }
  return out;
}};

constexpr Kind scheme_list{[](const char* flag, const char* value) {
  std::vector<Scheme> out;
  for (const std::string& item : split_list(value)) {
    const auto s = scheme_from_string(item);
    if (!s) fail("%s: unknown scheme \"%s\"", flag, item.c_str());
    out.push_back(*s);
  }
  return out;
}};

/// `T:NODE`, repeatable: crash canonical node NODE at T seconds.
Flag node_faults(const char* name, const char* meta,
                 std::vector<std::pair<Duration, NodeId>>* target,
                 const char* help) {
  return {name, meta, help, "", [=](const char* v) {
            const std::string flag = name;
            const auto [t, node] = split_at(flag, meta, v, ':');
            const auto id = parse_count(flag + " NODE", node.c_str(), 0,
                                        kNumCanonicalProcesses - 1);
            target->emplace_back(
                parse_seconds((flag + " T").c_str(), t.c_str()),
                NodeId{static_cast<std::uint32_t>(id)});
          }};
}

/// `I/N` with 1 <= I <= N <= UINT32_MAX: run shard I of N.
Flag shard(const char* name, const char* meta, sweep::SweepConfig* c,
           const char* help) {
  return {name, meta, help,
          shown(c->shard_index + 1) + "/" + shown(c->shard_count),
          [=](const char* v) {
            const std::string flag = name;
            const auto [i, n] = split_at(flag, meta, v, '/');
            const auto index = parse_count(flag + " I", i.c_str(), 1,
                                           UINT32_MAX);
            const auto count = parse_count(flag + " N", n.c_str(), 1,
                                           UINT32_MAX);
            if (index > count) {
              fail("%s expects %s with 1 <= I <= N, got \"%s\"", name, meta,
                   v);
            }
            c->shard_index = static_cast<std::uint32_t>(index - 1);
            c->shard_count = static_cast<std::uint32_t>(count);
          }};
}

/// One of `options`, spelled as their to_string (a scheme also as
/// scheme_from_string reads it); the help lists them.
template <typename E, std::size_t N>
Flag choice(const char* name, const char* meta, E* target,
            const E (&options)[N], const char* help = "") {
  std::string names;
  for (const E e : options) names += (names.empty() ? "" : " | ") + shown(e);
  const Kind kind{[=](const char* flag, const char* v) {
    if constexpr (std::is_same_v<E, Scheme>) {
      if (const auto s = scheme_from_string(v)) return *s;
    }
    for (const E e : options) {
      if (shown(e) == v) return e;
    }
    fail("unknown %s: %s (%s expects %s)", flag + 2, v, flag, names.c_str());
  }};
  return kind(name, meta, target, *help ? names + "; " + help : names);
}

/// A switch: sets its target to the opposite of its default.
Flag toggle(const char* name, bool* target, const char* help) {
  const bool on = !*target;
  return {name, nullptr, help, "", [=](const char*) { *target = on; }};
}

// ---- Shared row groups -----------------------------------------------------

/// --reps, --seed, --duration and --jobs for chaos, general and sweep, each
/// read from its own config; --json and --verbose where the config reports
/// per mission (chaos, general).
template <typename Config>
void add_campaign_flags(std::vector<Flag>& rows, Config& c,
                        std::string* json = nullptr) {
  rows.insert(rows.end(), {
      count("--reps", "N", &c.reps, "missions to run", 1),
      count("--seed", "N", &c.seed,
            "campaign seed; mission seeds derive from it"),
      seconds("--duration", "SECS", &c.mission, "mission length"),
      count("--jobs", "N", &c.jobs,
            "worker threads (0 = all), at most 1024; the output is "
            "bit-identical for every value", 0, kMaxJobs),
  });
  if constexpr (requires { c.verbose; }) {
    rows.push_back(path("--json", "FILE", json,
                        "write campaign throughput and counter totals as "
                        "synergy-bench-v1 JSON"));
    rows.push_back(
        toggle("--verbose", &c.verbose, "one summary line per mission"));
  }
}

/// The chaos adversary: network, storage, timed and mobile fault rates.
void add_injector_flags(std::vector<Flag>& rows, InjectorRates& r) {
  rows.insert(rows.end(), {
      probability("--drop", "P", &r.net.drop_probability,
                  "network drop probability"),
      probability("--dup", "P", &r.net.duplicate_probability,
                  "network duplicate probability"),
      probability("--reorder", "P", &r.net.reorder_probability,
                  "network reorder probability"),
      probability("--delay", "P", &r.net.delay_probability,
                  "beyond-tmax delay probability"),
      probability("--bitflip", "P", &r.net.bitflip_probability,
                  "payload bit-flip probability"),
      probability("--write-error", "P", &r.storage.write_error_probability,
                  "storage write-error probability"),
      probability("--torn", "P", &r.storage.torn_write_probability,
                  "storage torn-write probability"),
      probability("--latent", "P", &r.storage.latent_corruption_probability,
                  "latent corruption probability"),
      seconds("--hw-gap", "SECS", &r.timed.hw_fault_mean_gap,
              "mean gap between node crashes, 0=off"),
      seconds("--drift-gap", "SECS", &r.timed.drift_excursion_mean_gap,
              "mean gap between drift excursions, 0=off"),
      seconds("--blackout-gap", "SECS", &r.timed.resync_blackout_mean_gap,
              "mean gap between resync blackouts, 0=off"),
      seconds("--lane-gap", "SECS", &r.timed.lane_flip_mean_gap,
              "mean gap between per-lane state bit-flips (COAST model), "
              "0=off"),
      seconds("--sig-gap", "SECS", &r.timed.sig_fault_mean_gap,
              "mean gap between per-lane CFCSS signature faults, 0=off"),
      seconds("--disconnect-gap", "S", &r.mobile.disconnect_mean_gap,
              "mean gap between disconnection epochs (mobile family), "
              "0=off"),
      seconds("--disconnect-len", "S", &r.mobile.disconnect_mean_len,
              "mean disconnection epoch length, positive"),
      probability("--disconnect-loss", "P", &r.mobile.disconnect_burst_loss,
                  "stationary burst-loss fraction of a degraded epoch"),
      probability("--disconnect-full", "P",
                  &r.mobile.disconnect_full_fraction,
                  "probability an epoch is a full blackout"),
      seconds("--handoff-gap", "SECS", &r.mobile.handoff_mean_gap,
              "mean gap between base-station handoffs, 0=off"),
  });
}

// ---- Generated help and parsing --------------------------------------------

/// Print `text` after `lead` word-wrapped to kHelpWidth, then `tail`
/// unbroken; continuation lines are indented to the width of `lead`.
void print_wrapped(const std::string& lead, const std::string& text,
                   const std::string& tail) {
  std::istringstream words(text);
  std::string line = lead;
  const auto add = [&](const std::string& word) {
    if (line.size() > lead.size() && line.size() + word.size() >= kHelpWidth) {
      std::printf("%s\n", line.c_str());
      line.assign(lead.size(), ' ');
    }
    line += (line.size() > lead.size() ? " " : "") + word;
  };
  for (std::string word; words >> word;) add(word);
  if (!tail.empty()) add(tail);
  std::printf("%s\n", line.c_str());
}

void print_section(std::string command, const std::vector<Flag>& rows) {
  for (char& ch : command) ch = static_cast<char>(std::toupper(ch));
  std::printf("%s OPTIONS\n", command.c_str());
  for (const Flag& f : rows) {
    std::string lead = std::string("  ") + f.name;
    if (f.meta) lead += std::string(" ") + f.meta;
    lead.resize(std::max(lead.size() + 1, kHelpColumn), ' ');
    print_wrapped(lead, f.help,
                  f.value.empty() ? "" : "(default " + f.value + ")");
  }
}

/// Parse argv[2..] into the rows' targets and other arguments into
/// `operands`, if given. On --help or -h, or when argc is 0 (usage() asks
/// so), print the rows instead and return false: the command stops.
bool parse_flags(const char* command, const std::vector<Flag>& rows,
                 int argc, char** argv,
                 std::vector<std::string>* operands = nullptr) {
  for (int i = 2; i < argc; ++i) {
    const std::string_view a = argv[i];
    const auto f = std::find_if(rows.begin(), rows.end(),
                                [&](const Flag& f) { return a == f.name; });
    if (a == "--help" || a == "-h") {
      argc = 0;
    } else if (f != rows.end()) {
      if (f->meta && i + 1 >= argc) fail("missing value for %s", argv[i]);
      f->set(f->meta ? argv[++i] : nullptr);
    } else if (operands && !a.empty() && a[0] != '-') {
      operands->push_back(argv[i]);
    } else {
      fail("unknown option: %s", argv[i]);
    }
  }
  if (argc == 0) print_section(command, rows);
  return argc > 0;
}

/// Write `text` to `path`; false, after saying so, on failure.
bool write_text_file(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary);
  if (out << text && out.flush()) return true;
  std::fprintf(stderr, "failed to write %s\n", path.c_str());
  return false;
}

/// Write `units` of work in `wall_seconds` plus `counters` as a one-row
/// synergy-bench-v1 document; `note` says where. Returns the exit code.
int write_bench_json(
    const std::string& path, const std::string& name, std::uint64_t units,
    double wall_seconds,
    const std::vector<std::pair<std::string, std::uint64_t>>& counters,
    std::FILE* note) {
  const double wall = std::max(wall_seconds, 1e-9);
  bench::BenchJsonWriter writer;
  writer.add({name, units,
              units > 0 ? wall * 1e9 / static_cast<double>(units) : 0.0,
              static_cast<double>(units) / wall});
  for (const auto& [counter, value] : counters) {
    writer.set_counter(counter, value);
  }
  if (!write_text_file(path, writer.to_json())) return 1;
  std::fprintf(note, "bench json written to %s\n", path.c_str());
  return 0;
}

// ---- The commands ----------------------------------------------------------

int cmd_run(int argc, char** argv) {
  SystemConfig config;
  Duration duration = Duration::seconds(3600);
  std::vector<std::pair<Duration, NodeId>> hw_faults;
  std::optional<Duration> sw_error;
  bool check = false, timeline = false;
  std::string trace_csv, trace_jsonl;
  // The rate rows write P1's rates; P2 runs the same.
  const std::vector<Flag> flags = {
      choice("--scheme", "S", &config.scheme, kAllSchemes,
             "\"mdcd+tb\" is an alias for coordinated"),
      count("--seed", "N", &config.seed, "RNG seed"),
      seconds("--duration", "SECS", &duration, "mission length"),
      rate("--internal-rate", "R", &config.workload.p1_internal_rate,
           "component internal msgs/s, at most 1e6"),
      rate("--external-rate", "R", &config.workload.p1_external_rate,
           "external (validated) msgs/s, at most 1e6"),
      seconds("--interval", "SECS", &config.tb.interval,
              "TB checkpoint interval Delta"),
      probability("--sw-fault-prob", "P", &config.sw_fault.activation_per_send,
                  "design-fault activation per send"),
      node_faults("--hw-fault", "T:NODE", &hw_faults,
                  "crash NODE at T seconds (repeatable)"),
      seconds("--sw-error", "T", &sw_error,
              "corrupt P1act at T seconds and force an AT"),
      choice("--gate", "MODE", &config.gate_mode,
             {NdcGateMode::kPaper, NdcGateMode::kBlockingAware}),
      choice("--tracking", "MODE", &config.tracking,
             {ContaminationTracking::kPaperDirtyBit,
              ContaminationTracking::kWatermark}),
      toggle("--check", &check, "audit the final stable recovery line"),
      toggle("--timeline", &timeline, "print the ASCII event timeline"),
      path("--trace-csv", "FILE", &trace_csv, "dump the trace as CSV"),
      path("--trace-jsonl", "FILE", &trace_jsonl,
           "dump the trace as JSON Lines"),
  };
  if (!parse_flags("run", flags, argc, argv)) return 0;
  config.workload.p2_internal_rate = config.workload.p1_internal_rate;
  config.workload.p2_external_rate = config.workload.p1_external_rate;
  require_positive("--interval", config.tb.interval > Duration::zero());
  if (!hw_faults.empty() && config.scheme == Scheme::kMdcdOnly) {
    fail("--hw-fault needs stable storage; mdcd_only has none");
  }

  System system(config);
  system.start(TimePoint::origin() + duration);
  for (const auto& [at, node] : hw_faults) {
    system.schedule_hw_fault(TimePoint::origin() + at, node);
  }
  if (sw_error) system.schedule_sw_error(TimePoint::origin() + *sw_error);
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
                r->rolled_back[kP1Sdw.value()] ? "rollback" : "roll-forward",
                r->rolled_back[kP2.value()] ? "rollback" : "roll-forward",
                r->replayed);
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
  std::uint64_t seed = 42;
  Duration interval = Duration::seconds(60);
  std::vector<double> rates = {60, 80, 100, 120, 140, 160, 180, 200};
  std::size_t reps = 30;
  const std::vector<Flag> flags = {
      count("--seed", "N", &seed, "RNG seed"),
      seconds("--interval", "SECS", &interval, "TB checkpoint interval Delta"),
      number_list("--rates", "A,B,...", &rates,
                  "internal message rates per 100000 s, at most 1e11, each "
                  "run under coordinated and write_through",
                  0.0, kMaxRate * kRollbackTimeBase),
      count("--reps", "N", &reps, "replications per point", 1),
  };
  if (!parse_flags("rollback", flags, argc, argv)) return 0;
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

int cmd_sweep(int argc, char** argv) {
  sweep::SweepConfig config;
  bool merge_mode = false, quiet = false;
  std::vector<std::string> fragment_paths;
  std::string out_path, csv_path, bench_path;
  std::vector<Flag> flags;
  add_campaign_flags(flags, config);
  flags.insert(flags.end(), {
      scheme_list("--schemes", "A,B,...", &config.axes.schemes,
                  "scheme axis; every cell of the scheme x fault-scale x "
                  "coverage x interval grid runs --reps chaos missions"),
      // Axis values stay in the range --merge accepts.
      number_list("--fault-scales", "A,..", &config.axes.fault_scales,
                  "multiplier on every chaos injector rate; 0 = fault free",
                  0.0, Duration::kMaxInputSeconds),
      number_list("--coverages", "A,B,...", &config.axes.coverages,
                  "AT coverage axis", 0.0, Duration::kMaxInputSeconds),
      number_list("--intervals", "A,B,...", &config.axes.intervals_s,
                  "TB checkpoint interval axis, seconds, each positive",
                  0.0, Duration::kMaxInputSeconds),
      choice("--workload", "W", &config.workload, kAllWorkloadKinds),
      seconds("--lane-gap", "SECS", &config.lane_flip_gap,
              "per-lane bit-flip mean gap, 0=off"),
      seconds("--sig-gap", "SECS", &config.sig_fault_gap,
              "CFCSS signature fault mean gap, 0=off"),
      toggle("--mobile", &config.mobile,
             "arm the mobile disconnect/handoff family"),
      shard("--shard", "I/N", &config,
            "run only the cells the seed-stable hash assigns to shard I of "
            "N; emit a mergeable fragment"),
      path("--out", "FILE", &out_path,
           "write the synergy-sweep-v1 JSON here instead of stdout"),
      path("--csv", "FILE", &csv_path, "also write a plot-ready per-cell CSV"),
      path("--bench-json", "FILE", &bench_path,
           "write shard throughput (cells/s) as synergy-bench-v1 JSON"),
      toggle("--quiet", &quiet, "suppress per-cell progress lines on stderr"),
      toggle("--merge", &merge_mode,
             "merge the fragment files given as operands into the "
             "single-process document; each cell must appear once"),
  });
  if (!parse_flags("sweep", flags, argc, argv, &fragment_paths)) return 0;
  if (!merge_mode && !fragment_paths.empty()) {
    fail("unknown option: %s", fragment_paths[0].c_str());
  }
  for (const double interval : config.axes.intervals_s) {
    require_positive("--intervals",
                     Duration::from_seconds(interval) > Duration::zero());
  }
  if (merge_mode && fragment_paths.empty()) {
    fail("--merge expects fragment paths");
  }
  try {
    sweep::ShardResult result;
    if (merge_mode) {
      std::vector<sweep::ShardResult> fragments;
      for (const std::string& path : fragment_paths) {
        std::ifstream in(path, std::ios::binary);
        if (!in) throw std::runtime_error("cannot read " + path);
        std::ostringstream buf;
        buf << in.rdbuf();
        try {
          fragments.push_back(sweep::parse_fragment(buf.str()));
        } catch (const std::exception& e) {
          throw std::runtime_error(path + ": " + e.what());
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
      return 1;
    }
    if (!csv_path.empty() &&
        !write_text_file(csv_path, sweep::to_csv(result))) {
      return 1;
    }
    if (!bench_path.empty()) {
      // Cells/s is the stable unit (cells are fixed-size work packets of
      // --reps missions); missions/s rides along in the counters.
      return write_bench_json(
          bench_path,
          "sweep/cells=" + shown(result.cells.size()) +
              "/reps=" + shown(config.reps) +
              "/duration=" + shown(config.mission) + "s",
          result.cells.size(), result.wall_seconds,
          {{"missions_run", result.missions_run},
           {"cells_total", result.cells_total}},
          stderr);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "synergy sweep: %s\n", e.what());
    return 1;
  }
  return 0;
}

int cmd_model(int argc, char** argv) {
  RollbackModelParams params;
  const std::vector<Flag> flags = {
      rate("--lambda-dirty", "R", &params.lambda_dirty,
           "contamination rate [1/s], positive"),
      rate("--lambda-valid", "R", &params.lambda_valid,
           "validation rate [1/s], positive"),
      seconds("--interval", "SECS", &params.interval,
              "TB checkpoint interval Delta"),
  };
  if (!parse_flags("model", flags, argc, argv)) return 0;
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
  std::optional<std::uint64_t> replay_seed;
  std::string json_path;
  std::vector<Flag> flags;
  add_campaign_flags(flags, config, &json_path);
  flags.insert(flags.end(), {
      choice("--scheme", "S", &config.scheme, kAllSchemes),
      count("--replay", "SEED", &replay_seed,
            "re-run one mission by the seed a failing campaign prints with "
            "its schedule, and dump its counters"),
      path("--trace-csv", "FILE", &config.trace_csv,
           "dump the mission trace as CSV (with --replay)"),
      choice("--workload", "W", &config.base.workload.kind, kAllWorkloadKinds,
             "abft computes AT verdicts from checksum-encoded blocks"),
  });
  add_injector_flags(flags, config.rates);
  if (!parse_flags("chaos", flags, argc, argv)) return 0;
  require_positive("--disconnect-len",
                   config.rates.mobile.disconnect_mean_len > Duration::zero());
  if (!config.trace_csv.empty() && !replay_seed) {
    fail("--trace-csv needs --replay: it dumps one mission's trace");
  }

  if (replay_seed) {
    const MissionReport r = run_mission(config, *replay_seed);
    std::printf("mission seed=%llu %s\n",
                static_cast<unsigned long long>(r.seed),
                r.ok ? "ok" : "FAIL");
    std::fputs(format_mission_counters(config, r).c_str(), stdout);
    for (const auto& f : r.failures) std::printf("  %s\n", f.c_str());
    if (!r.ok) std::printf("schedule: %s\n", r.schedule_json.c_str());
    return r.ok ? 0 : 1;
  }

  const CampaignResult result = run_campaign(config, &std::cout);
  if (!json_path.empty() &&
      write_bench_json(json_path,
                       "chaos_campaign/scheme=" + shown(config.scheme) +
                           "/reps=" + shown(config.reps),
                       config.reps, result.wall_seconds,
                       campaign_counter_totals(config, result.missions),
                       stdout) != 0) {
    return 1;
  }
  return result.failed == 0 ? 0 : 1;
}

int cmd_general(int argc, char** argv) {
  GeneralCampaignConfig config;
  std::string json_path;
  std::vector<Flag> flags = {
      choice("--topology", "T", &config.shape,
             {GeneralShape::kStar, GeneralShape::kChain},
             "each mission ends with a recovery-line audit"),
      count("--size", "N", &config.size,
            "star: leaf count, 1..65533; chain: length, 2..65534"),
  };
  add_campaign_flags(flags, config, &json_path);
  flags.insert(flags.end(), {
      rate("--internal-rate", "R", &config.internal_rate,
           "per-component internal msgs/s, at most 1e6"),
      rate("--external-rate", "R", &config.external_rate,
           "per-component external msgs/s, at most 1e6"),
      seconds("--interval", "SECS", &config.tb_interval,
              "TB checkpoint interval"),
      toggle("--no-hw", &config.inject_hw,
             "skip the seeded per-mission node crash"),
      toggle("--no-sw", &config.inject_sw,
             "skip the seeded per-mission design-fault activation"),
  });
  if (!parse_flags("general", flags, argc, argv)) return 0;
  const bool chain = config.shape == GeneralShape::kChain;
  const std::size_t min_size = chain ? 2 : 1;
  const std::size_t max_size =
      chain ? Topology::kMaxChainLength : Topology::kMaxStarLeaves;
  if (config.size < min_size || config.size > max_size) {
    fail("--size expects a whole number >= %zu and <= %zu for a %s, got "
         "\"%zu\"",
         min_size, max_size, to_string(config.shape), config.size);
  }
  require_positive("--interval", config.tb_interval > Duration::zero());

  const GeneralCampaignResult result =
      run_general_campaign(config, &std::cout);
  if (!json_path.empty() &&
      write_bench_json(json_path,
                       "general_campaign/" + shown(config.shape) + "-" +
                           shown(config.size) + "/reps=" + shown(config.reps),
                       result.events_total, result.wall_seconds,
                       {{"events_total", result.events_total},
                        {"oracle_violations", result.oracle_violations}},
                       stdout) != 0) {
    return 1;
  }
  return result.failed == 0 ? 0 : 1;
}

struct Command {
  const char* name;
  const char* summary;
  int (*main)(int argc, char** argv);
};

constexpr Command kCommands[] = {
    {"run", "run one mission", cmd_run},
    {"sweep", "sharded Monte-Carlo parameter sweep (JSON)", cmd_sweep},
    {"rollback", "rollback-distance sweep, CSV on stdout", cmd_rollback},
    {"model", "closed-form rollback model", cmd_model},
    {"chaos", "seeded fault-injection campaign", cmd_chaos},
    {"general", "generalized N-component topology campaign", cmd_general},
};

void usage(int code) {
  std::printf("synergy — MDCD + TB fault-tolerance simulator\n\nUSAGE\n");
  for (const Command& c : kCommands) {
    std::printf("  synergy %-8s [options]  %s\n", c.name, c.summary);
  }
  std::printf("  synergy <command> --help\n  synergy help\n");
  for (const Command& c : kCommands) {
    std::printf("\n");
    c.main(0, nullptr);  // argc 0: print the command's rows only
  }
  std::exit(code);
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) usage(2);
  const std::string_view cmd = argv[1];
  for (const Command& c : kCommands) {
    if (cmd == c.name) return c.main(argc, argv);
  }
  if (cmd == "help" || cmd == "--help" || cmd == "-h") usage(0);
  fail("unknown command: %s", argv[1]);
}
