#include "sweep/fragment.hpp"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <iterator>
#include <stdexcept>

#include "sweep/json.hpp"
#include "sweep/jsonfmt.hpp"

namespace synergy::sweep {

namespace {

using jsonfmt::g17;
using jsonfmt::g6;
using jsonfmt::quoted;
using jsonfmt::u64;

// ---- Emit ------------------------------------------------------------------

/// The overall rollup: cells folded in cell-index order. Every emitter
/// (shard fragment, merged document, single-process run) derives it the
/// same way from per-cell state, which is what makes merged output
/// byte-identical to the full run.
struct Overall {
  CellTallies tallies;
  Moments rollback;
  Reservoir rollback_samples{kReservoirCapacity};
  Moments blocking;
  Reservoir blocking_samples{kReservoirCapacity};
};

Overall rollup(const std::vector<CellStats>& cells) {
  Overall o;
  for (const CellStats& c : cells) {
    o.tallies.accumulate(c.tallies);
    o.rollback = merge(o.rollback, c.rollback);
    o.rollback_samples.merge(c.rollback_samples);
    o.blocking = merge(o.blocking, c.blocking);
    o.blocking_samples.merge(c.blocking_samples);
  }
  return o;
}

void append_metric(std::string& out, const char* name, const Moments& m,
                   const Reservoir& r, const char* indent) {
  out += indent;
  out += quoted(name);
  out += ": {\"n\": " + u64(m.n);
  out += ", \"mean\": " + g17(m.mean);
  out += ", \"m2\": " + g17(m.m2);
  out += ", \"min\": " + g17(m.min);
  out += ", \"max\": " + g17(m.max);
  out += ", \"ci95\": " + g6(m.ci95_halfwidth());
  out += ", \"p50\": " + g6(r.quantile(0.50));
  out += ", \"p90\": " + g6(r.quantile(0.90));
  out += ", \"p99\": " + g6(r.quantile(0.99));
  out += ", \"samples\": [";
  const auto& samples = r.ranked();
  for (std::size_t i = 0; i < samples.size(); ++i) {
    if (i) out += ", ";
    out += "[" + g17(samples[i].value) + ", " + u64(samples[i].priority) +
           ", " + u64(samples[i].cell) + ", " + u64(samples[i].ordinal) + "]";
  }
  out += "]}";
}

/// The JSON object holding each TallyLine's keys; nullptr for a line of
/// plain keys in the cell (or overall) object itself.
constexpr const char* kTallyObject[] = {nullptr, nullptr, "at", "lanes"};
static_assert(std::size(kTallyObject) ==
              static_cast<std::size_t>(TallyLine::kLanes) + 1);

const char* tally_object(TallyLine line) {
  return kTallyObject[static_cast<std::size_t>(line)];
}

/// One line per TallyLine, its keys in row order.
void append_tallies(std::string& out, const CellTallies& t,
                    const char* indent) {
  const CellTally* prev = nullptr;
  for (const CellTally& row : kCellTallies) {
    if (prev && prev->line == row.line) {
      out += ", ";
    } else {
      if (prev) out += tally_object(prev->line) ? "},\n" : ",\n";
      out += indent;
      if (const char* object = tally_object(row.line)) {
        out += quoted(object) + ": {";
      }
    }
    out += quoted(row.key) + ": " + u64(t.*row.field);
    prev = &row;
  }
  if (tally_object(prev->line)) out += "}";
}

template <class T, class F>
std::string list_json(const std::vector<T>& xs, F&& fmt) {
  std::string out = "[";
  for (std::size_t i = 0; i < xs.size(); ++i) {
    if (i) out += ", ";
    out += fmt(xs[i]);
  }
  out += "]";
  return out;
}

}  // namespace

std::string to_json(const ShardResult& shard) {
  const SweepConfig& cfg = shard.config;
  std::string out = "{\n  \"schema\": \"synergy-sweep-v1\",\n";

  out += "  \"sweep\": {\n";
  out += "    \"seed\": " + u64(cfg.seed);
  out += ", \"reps\": " + u64(cfg.reps);
  out += ", \"duration_s\": " + g17(cfg.mission.to_seconds());
  out += ", \"workload\": " + quoted(to_string(cfg.workload));
  out += ",\n    \"schemes\": " +
         list_json(cfg.axes.schemes,
                   [](Scheme s) { return quoted(to_string(s)); });
  out += ",\n    \"fault_scales\": " +
         list_json(cfg.axes.fault_scales, [](double v) { return g17(v); });
  out += ",\n    \"coverages\": " +
         list_json(cfg.axes.coverages, [](double v) { return g17(v); });
  out += ",\n    \"intervals_s\": " +
         list_json(cfg.axes.intervals_s, [](double v) { return g17(v); });
  out += ",\n    \"lane_flip_gap_s\": " + g17(cfg.lane_flip_gap.to_seconds());
  out += ", \"sig_fault_gap_s\": " + g17(cfg.sig_fault_gap.to_seconds());
  out += ", \"mobile\": ";
  out += cfg.mobile ? "true" : "false";
  out += ",\n    \"cells_total\": " + u64(shard.cells_total);
  out += ", \"shard\": " + u64(cfg.shard_index + 1);
  out += ", \"shards\": " + u64(cfg.shard_count);
  out += ", \"cells_in_shard\": " + u64(shard.cells.size());
  out += "\n  },\n";

  out += "  \"cells\": [";
  for (std::size_t i = 0; i < shard.cells.size(); ++i) {
    const CellStats& c = shard.cells[i];
    out += i ? ",\n    {\n" : "\n    {\n";
    out += "      \"index\": " + u64(c.cell.index);
    out += ", \"seed\": " + u64(c.cell.seed);
    out += ", \"scheme\": " + quoted(to_string(c.cell.scheme));
    out += ",\n      \"fault_scale\": " + g17(c.cell.fault_scale);
    out += ", \"coverage\": " + g17(c.cell.coverage);
    out += ", \"interval_s\": " + g17(c.cell.interval.to_seconds());
    out += ",\n";
    append_tallies(out, c.tallies, "      ");
    out += ",\n      \"dependability\": " + g6(c.dependability());
    out += ", \"cov_computed\": " + g6(c.coverage_computed());
    out += ",\n";
    append_metric(out, "rollback_s", c.rollback, c.rollback_samples, "      ");
    out += ",\n";
    append_metric(out, "blocking_s", c.blocking, c.blocking_samples, "      ");
    out += "\n    }";
  }
  out += shard.cells.empty() ? "],\n" : "\n  ],\n";

  const Overall o = rollup(shard.cells);
  out += "  \"overall\": {\n";
  append_tallies(out, o.tallies, "    ");
  out += ",\n";
  append_metric(out, "rollback_s", o.rollback, o.rollback_samples, "    ");
  out += ",\n";
  append_metric(out, "blocking_s", o.blocking, o.blocking_samples, "    ");
  out += "\n  }\n}\n";
  return out;
}

std::string to_csv(const ShardResult& shard) {
  std::string out =
      "index,scheme,fault_scale,coverage,interval_s,missions,ok,"
      "dependability,oracle_violations,detections,degradations,hw_faults,"
      "sw_recoveries,cov_computed,rollback_n,rollback_mean_s,"
      "rollback_ci95_s,rollback_p50_s,rollback_p90_s,rollback_p99_s,"
      "blocking_mean_s,blocking_ci95_s,blocking_p99_s\n";
  for (const CellStats& c : shard.cells) {
    char buf[512];
    std::snprintf(
        buf, sizeof(buf),
        "%zu,%s,%g,%g,%g,%" PRIu64 ",%" PRIu64 ",%.6f,%" PRIu64 ",%" PRIu64
        ",%" PRIu64 ",%" PRIu64 ",%" PRIu64
        ",%.6f,%" PRIu64 ",%.6f,%.6f,%.6f,%.6f,%.6f,%.6f,%.6f,%.6f\n",
        c.cell.index, to_string(c.cell.scheme), c.cell.fault_scale,
        c.cell.coverage, c.cell.interval.to_seconds(), c.tallies.missions,
        c.tallies.ok, c.dependability(), c.tallies.oracle_violations,
        c.tallies.detections, c.tallies.degradations, c.tallies.hw_faults,
        c.tallies.sw_recoveries, c.coverage_computed(), c.rollback.n,
        c.rollback.mean, c.rollback.ci95_halfwidth(),
        c.rollback_samples.quantile(0.50), c.rollback_samples.quantile(0.90),
        c.rollback_samples.quantile(0.99), c.blocking.mean,
        c.blocking.ci95_halfwidth(), c.blocking_samples.quantile(0.99));
    out += buf;
  }
  return out;
}

// ---- Parse -----------------------------------------------------------------

namespace {

[[noreturn]] void bad(const std::string& what) {
  throw std::runtime_error("synergy-sweep-v1: " + what);
}

/// A header duration or axis value: finite and inside the range the CLI
/// accepts, so the Duration conversions below cannot overflow.
double bounded(const JsonValue& v, const std::string& what) {
  const double x = v.as_double();
  if (!(x >= 0 && x <= Duration::kMaxInputSeconds)) {
    bad(what + " must be in [0, 1e12], got " + g17(x));
  }
  return x;
}

std::vector<double> bounded_list(const JsonValue& v, const std::string& what) {
  std::vector<double> out;
  for (const JsonValue& item : v.items()) out.push_back(bounded(item, what));
  return out;
}

Moments parse_moments(const JsonValue& v) {
  Moments m;
  m.n = v.at("n").as_u64();
  m.mean = v.at("mean").as_double();
  m.m2 = v.at("m2").as_double();
  m.min = v.at("min").as_double();
  m.max = v.at("max").as_double();
  return m;
}

Reservoir parse_reservoir(const JsonValue& v) {
  Reservoir r(kReservoirCapacity);
  for (const JsonValue& s : v.at("samples").items()) {
    if (!s.is_array() || s.items().size() != 4) bad("malformed sample");
    r.add(s.items()[0].as_double(), s.items()[1].as_u64(),
          s.items()[2].as_u64(), s.items()[3].as_u64());
  }
  return r;
}

CellTallies parse_tallies(const JsonValue& v) {
  CellTallies t;
  for (const CellTally& row : kCellTallies) {
    const char* object = tally_object(row.line);
    t.*row.field = (object ? v.at(object) : v).at(row.key).as_u64();
  }
  return t;
}

Scheme parse_scheme_or_die(const std::string& name) {
  if (const auto s = scheme_from_string(name)) return *s;
  bad("unknown scheme: " + name);
}

}  // namespace

ShardResult parse_fragment(const std::string& json_text) {
  const JsonValue doc = JsonValue::parse(json_text);
  const JsonValue* schema = doc.find("schema");
  if (!schema || schema->as_string() != "synergy-sweep-v1") {
    bad("expected schema \"synergy-sweep-v1\"");
  }

  ShardResult out;
  const JsonValue& sweep = doc.at("sweep");
  SweepConfig& cfg = out.config;
  cfg.seed = sweep.at("seed").as_u64();
  cfg.reps = static_cast<std::size_t>(sweep.at("reps").as_u64());
  cfg.mission =
      Duration::from_seconds(bounded(sweep.at("duration_s"), "duration_s"));
  const std::string workload = sweep.at("workload").as_string();
  if (const auto kind = workload_kind_from_string(workload)) {
    cfg.workload = *kind;
  } else {
    bad("unknown workload: " + workload);
  }
  cfg.axes.schemes.clear();
  for (const JsonValue& s : sweep.at("schemes").items()) {
    cfg.axes.schemes.push_back(parse_scheme_or_die(s.as_string()));
  }
  cfg.axes.fault_scales =
      bounded_list(sweep.at("fault_scales"), "fault_scales");
  cfg.axes.coverages = bounded_list(sweep.at("coverages"), "coverages");
  cfg.axes.intervals_s = bounded_list(sweep.at("intervals_s"), "intervals_s");
  cfg.lane_flip_gap = Duration::from_seconds(
      bounded(sweep.at("lane_flip_gap_s"), "lane_flip_gap_s"));
  cfg.sig_fault_gap = Duration::from_seconds(
      bounded(sweep.at("sig_fault_gap_s"), "sig_fault_gap_s"));
  cfg.mobile = sweep.at("mobile").as_bool();
  const std::uint64_t shard = sweep.at("shard").as_u64();
  const std::uint64_t shards = sweep.at("shards").as_u64();
  if (shard < 1 || shards < 1 || shard > shards) bad("bad shard/shards");
  cfg.shard_index = static_cast<std::uint32_t>(shard - 1);
  cfg.shard_count = static_cast<std::uint32_t>(shards);
  out.cells_total = static_cast<std::size_t>(sweep.at("cells_total").as_u64());
  if (out.cells_total != grid_size(cfg.axes)) {
    bad("cells_total disagrees with the axis lengths");
  }

  // Rebuild the grid the header implies; every parsed cell must match it.
  const std::vector<SweepCell> grid = build_grid(cfg);
  for (const JsonValue& cv : doc.at("cells").items()) {
    const std::size_t index =
        static_cast<std::size_t>(cv.at("index").as_u64());
    if (index >= grid.size()) bad("cell index out of range");
    CellStats c(grid[index]);
    const auto bad_cell = [index](const std::string& what) {
      bad("cell " + std::to_string(index) + ": " + what);
    };
    if (cv.at("seed").as_u64() != c.cell.seed) {
      bad_cell("seed disagrees with the sweep header");
    }
    if (parse_scheme_or_die(cv.at("scheme").as_string()) != c.cell.scheme) {
      bad_cell("scheme disagrees with the sweep header");
    }
    // A sweep folds exactly `reps` missions into every cell.
    c.tallies = parse_tallies(cv);
    if (c.tallies.missions != cfg.reps) {
      bad_cell("missions disagrees with the sweep header's reps");
    }
    if (c.tallies.ok > c.tallies.missions) bad_cell("ok exceeds missions");
    const JsonValue& rb = cv.at("rollback_s");
    c.rollback = parse_moments(rb);
    c.rollback_samples = parse_reservoir(rb);
    const JsonValue& bl = cv.at("blocking_s");
    c.blocking = parse_moments(bl);
    c.blocking_samples = parse_reservoir(bl);
    out.missions_run += c.tallies.missions;
    out.cells.push_back(std::move(c));
  }
  return out;
}

// ---- Merge -----------------------------------------------------------------

namespace {

bool same_doubles(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         std::equal(a.begin(), a.end(), b.begin(),
                    [](double x, double y) { return g17(x) == g17(y); });
}

/// Mission-defining header equality (executor knobs excluded).
void check_compatible(const SweepConfig& a, const SweepConfig& b) {
  if (a.seed != b.seed) bad("fragments disagree on seed");
  if (a.reps != b.reps) bad("fragments disagree on reps");
  if (a.mission != b.mission) bad("fragments disagree on duration");
  if (a.workload != b.workload) bad("fragments disagree on workload");
  if (a.axes.schemes != b.axes.schemes) {
    bad("fragments disagree on the scheme axis");
  }
  if (!same_doubles(a.axes.fault_scales, b.axes.fault_scales)) {
    bad("fragments disagree on the fault-scale axis");
  }
  if (!same_doubles(a.axes.coverages, b.axes.coverages)) {
    bad("fragments disagree on the coverage axis");
  }
  if (!same_doubles(a.axes.intervals_s, b.axes.intervals_s)) {
    bad("fragments disagree on the interval axis");
  }
  if (a.lane_flip_gap != b.lane_flip_gap || a.sig_fault_gap != b.sig_fault_gap) {
    bad("fragments disagree on the lane-fault gaps");
  }
  if (a.mobile != b.mobile) bad("fragments disagree on the mobile family");
}

}  // namespace

ShardResult merge_fragments(const std::vector<ShardResult>& fragments) {
  if (fragments.empty()) bad("nothing to merge");
  for (std::size_t i = 1; i < fragments.size(); ++i) {
    check_compatible(fragments[0].config, fragments[i].config);
    if (fragments[0].cells_total != fragments[i].cells_total) {
      bad("fragments disagree on cells_total");
    }
  }

  ShardResult merged;
  merged.config = fragments[0].config;
  merged.config.shard_index = 0;
  merged.config.shard_count = 1;
  merged.cells_total = fragments[0].cells_total;

  std::vector<const CellStats*> by_index(merged.cells_total, nullptr);
  for (const ShardResult& frag : fragments) {
    for (const CellStats& c : frag.cells) {
      if (c.cell.index >= merged.cells_total) bad("cell index out of range");
      if (by_index[c.cell.index]) {
        bad("cell " + std::to_string(c.cell.index) +
            " appears in more than one fragment");
      }
      by_index[c.cell.index] = &c;
    }
  }
  std::string missing;
  std::size_t missing_count = 0;
  for (std::size_t i = 0; i < by_index.size(); ++i) {
    if (by_index[i]) continue;
    ++missing_count;
    if (missing_count <= 8) {
      if (!missing.empty()) missing += ", ";
      missing += std::to_string(i);
    }
  }
  if (missing_count > 0) {
    bad("incomplete fragment set: " + std::to_string(missing_count) +
        " cell(s) missing (indices " + missing +
        (missing_count > 8 ? ", ..." : "") +
        "); re-run the lost shard(s) and merge again");
  }

  for (const CellStats* c : by_index) {
    merged.cells.push_back(*c);
    merged.missions_run += c->tallies.missions;
  }
  return merged;
}

}  // namespace synergy::sweep
