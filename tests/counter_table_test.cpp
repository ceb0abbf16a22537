// The mission and monitor counter tables. Every counter is one row, and
// the `--replay` dump, the `chaos --json` totals and the monitor sums are
// generated from the rows. These tests pin that no generated surface can
// drop, duplicate or mislabel a row.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/campaign.hpp"

namespace synergy {
namespace {

/// A report whose every counter holds a distinct value above `base`.
MissionReport distinct_report(std::uint64_t base) {
  MissionReport r;
  for (const MissionCounter& c : kMissionCounters) r.*c.field = ++base;
  for (const MonitorCounter& c : kMonitorCounters) r.monitor.*c.field = ++base;
  return r;
}

/// Shows every group: redundant lanes, mobile rates armed, ABFT workload.
CampaignConfig all_groups_config() {
  CampaignConfig config;
  config.scheme = Scheme::kMdcdTmr;
  config.rates.mobile.disconnect_mean_gap = Duration::seconds(60);
  config.base.workload.kind = WorkloadKind::kAbft;
  return config;
}

/// Each `key=value` token of a dump as (line label, value), in print order.
std::multimap<std::string, std::pair<std::string, std::string>> dump_tokens(
    const std::string& text) {
  std::multimap<std::string, std::pair<std::string, std::string>> out;
  std::istringstream lines(text);
  for (std::string line; std::getline(lines, line);) {
    std::istringstream words(line);
    std::string label;
    words >> label;
    EXPECT_EQ(label.back(), ':') << line;
    label.pop_back();
    for (std::string word; words >> word;) {
      const auto eq = word.find('=');
      EXPECT_NE(eq, std::string::npos) << word;
      out.emplace(word.substr(0, eq),
                  std::make_pair(label, word.substr(eq + 1)));
    }
  }
  return out;
}

const char* group_label(CounterGroup group) {
  switch (group) {
    case CounterGroup::kAdversity: return "adversity";
    case CounterGroup::kCheckpoint: return "checkpoint";
    case CounterGroup::kLanes: return "lanes";
    case CounterGroup::kMobile: return "mobile";
    case CounterGroup::kAbft: return "abft";
  }
  return "";
}

TEST(CounterTableTest, RowNamesAreUniqueAcrossBothTables) {
  std::set<std::string> names;
  for (const MissionCounter& c : kMissionCounters) {
    EXPECT_TRUE(names.insert(c.name).second) << c.name;
  }
  for (const MonitorCounter& c : kMonitorCounters) {
    EXPECT_TRUE(names.insert(c.name).second) << c.name;
  }
  EXPECT_EQ(std::size(kMissionCounters), 37u);
  EXPECT_EQ(std::size(kMonitorCounters), 16u);
  // MonitorStats holds nothing but its rows.
  EXPECT_EQ(sizeof(MonitorStats),
            std::size(kMonitorCounters) * sizeof(std::uint64_t));
}

TEST(CounterTableTest, ReplayDumpPrintsEveryShownRowOnce) {
  const MissionReport r = distinct_report(100);
  const auto tokens = dump_tokens(format_mission_counters(all_groups_config(), r));
  for (const MissionCounter& c : kMissionCounters) {
    ASSERT_EQ(tokens.count(c.name), 1u) << c.name;
    const auto& [label, value] = tokens.find(c.name)->second;
    EXPECT_EQ(label, group_label(c.group)) << c.name;
    EXPECT_EQ(value, std::to_string(r.*c.field)) << c.name;
  }
  for (const MonitorCounter& c : kMonitorCounters) {
    ASSERT_EQ(tokens.count(c.name), 1u) << c.name;
    const auto& [label, value] = tokens.find(c.name)->second;
    EXPECT_EQ(label, "monitor") << c.name;
    EXPECT_EQ(value, std::to_string(r.monitor.*c.field)) << c.name;
  }
  for (const char* derived : {"violations", "degradations", "cov_computed",
                              "cov_assumed"}) {
    EXPECT_EQ(tokens.count(derived), 1u) << derived;
  }
  EXPECT_EQ(tokens.size(), std::size(kMissionCounters) +
                               std::size(kMonitorCounters) + 4);
}

TEST(CounterTableTest, SummaryLineMatchesPinnedBytes) {
  // The verbose per-mission line, byte for byte: the labels, their order
  // and the derived tokens after adversity, mobile and abft.
  const MissionReport r = distinct_report(100);
  CampaignConfig all = all_groups_config();
  all.verbose = true;
  EXPECT_EQ(format_mission_report(all, 0, r),
            "mission 0 seed=0 ok net=101 late=102 drop_loss=103 "
            "drop_norecv=104 drop_cancel=105 retries=106 torn=108 latent=109 "
            "hw=111 drift=112 missed_resync=113 detect=1278 degrade=903 "
            "lane_inj=120 masked=121 detected=122 silent=123 lane_rb=125 "
            "link_epochs=128 disc_drop=129 burst_drop=130 handoffs=131 "
            "handoff_aborts=132 unacked_hw=133 deferred=147 at_exposed=134 "
            "at_detect=135 at_miss=136 cov_computed=1.007 "
            "cov_assumed=1.000\n");
  CampaignConfig plain;
  plain.verbose = true;
  EXPECT_EQ(format_mission_report(plain, 0, r),
            "mission 0 seed=0 ok net=101 late=102 drop_loss=103 "
            "drop_norecv=104 drop_cancel=105 retries=106 torn=108 latent=109 "
            "hw=111 drift=112 missed_resync=113 detect=1278 degrade=903\n");
}

TEST(CounterTableTest, ReplayDumpHidesGroupsTheRunDoesNotHave) {
  MissionReport r = distinct_report(100);
  r.lane_injected = 0;
  r.link_epochs = 0;
  const CampaignConfig config;  // single lane, mobile off, registers
  const auto tokens = dump_tokens(format_mission_counters(config, r));
  for (const MissionCounter& c : kMissionCounters) {
    const bool shown = c.group == CounterGroup::kAdversity ||
                       c.group == CounterGroup::kCheckpoint;
    EXPECT_EQ(tokens.count(c.name), shown ? 1u : 0u) << c.name;
  }
  for (const MonitorCounter& c : kMonitorCounters) {
    EXPECT_EQ(tokens.count(c.name), 1u) << c.name;
  }
  // Injected lane faults or link epochs show their group on any scheme.
  r.lane_injected = 1;
  r.link_epochs = 1;
  const std::string text = format_mission_counters(config, r);
  EXPECT_NE(text.find("\nlanes: lane_injected=1 "), std::string::npos);
  EXPECT_NE(text.find("\nmobile: link_epochs=1 "), std::string::npos);
  EXPECT_EQ(text.find("abft:"), std::string::npos);
}

TEST(CounterTableTest, JsonTotalsFoldEveryShownRowOnce) {
  const std::vector<MissionReport> missions = {distinct_report(100),
                                               distinct_report(1000)};
  std::map<std::string, std::uint64_t> totals;
  for (const auto& [name, value] :
       campaign_counter_totals(all_groups_config(), missions)) {
    EXPECT_TRUE(totals.emplace(name, value).second) << name;
  }
  for (const MissionCounter& c : kMissionCounters) {
    const std::uint64_t a = missions[0].*c.field, b = missions[1].*c.field;
    ASSERT_TRUE(totals.count(c.name)) << c.name;
    EXPECT_EQ(totals[c.name], c.fold == CounterFold::kMax ? std::max(a, b)
                                                          : a + b)
        << c.name;
  }
  for (const MonitorCounter& c : kMonitorCounters) {
    ASSERT_TRUE(totals.count(c.name)) << c.name;
    EXPECT_EQ(totals[c.name],
              missions[0].monitor.*c.field + missions[1].monitor.*c.field)
        << c.name;
  }
  EXPECT_EQ(totals.size(),
            std::size(kMissionCounters) + std::size(kMonitorCounters));
  EXPECT_EQ(totals["unacked_high_water"], missions[1].unacked_high_water);

  // A registers run without lanes or mobile rates totals only the
  // adversity and checkpoint rows (plus the monitor).
  std::vector<MissionReport> plain = missions;
  for (MissionReport& r : plain) r.lane_injected = r.link_epochs = 0;
  std::set<std::string> names;
  for (const auto& [name, value] :
       campaign_counter_totals(CampaignConfig{}, plain)) {
    names.insert(name);
  }
  for (const MissionCounter& c : kMissionCounters) {
    const bool shown = c.group == CounterGroup::kAdversity ||
                       c.group == CounterGroup::kCheckpoint;
    EXPECT_EQ(names.count(c.name), shown ? 1u : 0u) << c.name;
  }
  EXPECT_EQ(names.size(), 14u + 5u + std::size(kMonitorCounters));
}

TEST(CounterTableTest, MonitorTotalsSumTheirKindRows) {
  std::uint64_t detections = 0, degradations = 0;
  MonitorStats stats;
  std::uint64_t v = 0;
  for (const MonitorCounter& c : kMonitorCounters) {
    stats.*c.field = ++v;
    if (c.kind == MonitorKind::kDetection) detections += v;
    if (c.kind == MonitorKind::kDegradation) degradations += v;
  }
  EXPECT_EQ(stats.violations(), detections);
  EXPECT_EQ(stats.degradations(), degradations);

  // Every row moves exactly the total of its kind; deferrals move neither.
  for (const MonitorCounter& c : kMonitorCounters) {
    MonitorStats one;
    one.*c.field = 1;
    EXPECT_EQ(one.violations(), c.kind == MonitorKind::kDetection ? 1u : 0u)
        << c.name;
    EXPECT_EQ(one.degradations(),
              c.kind == MonitorKind::kDegradation ? 1u : 0u)
        << c.name;
  }
  MonitorStats named;
  named.signature_mismatches = 4;
  named.lane_repairs = 4;
  named.disconnect_deferrals = 9;
  EXPECT_EQ(named.violations(), 4u);
  EXPECT_EQ(named.degradations(), 4u);
}

}  // namespace
}  // namespace synergy
