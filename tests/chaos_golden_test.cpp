// Golden values for long chaos missions: every counter-table row of the
// MissionReport (kMissionCounters and kMonitorCounters) of 600 s
// run_mission missions, pinned from the code as it stood when each
// checkpoint byte was written one field at a time, every stable read
// re-verified its record and every audit decoded its line afresh. Any
// change to what a canonical mission does — events, checkpoint bytes,
// corrupt reads, monitor detections, oracle verdicts — shows here.
#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "core/campaign.hpp"
#include "core/pool.hpp"

namespace synergy {
namespace {

std::string render(const MissionReport& r) {
  std::ostringstream out;
  out << "seed=" << r.seed << " ok=" << r.ok
      << " failures=" << r.failures.size();
  for (const MissionCounter& c : kMissionCounters) {
    out << ' ' << c.name << '=' << r.*c.field;
  }
  for (const MonitorCounter& c : kMonitorCounters) {
    out << ' ' << c.name << '=' << r.monitor.*c.field;
  }
  return out.str();
}

TEST(ChaosGolden, LongMissionReportsMatchPinnedValues) {
  std::vector<std::uint64_t> seeds = derive_seeds(1, 3);
  // The mission whose stable line keeps an orphan receipt from 240 s on.
  seeds.push_back(15149935114129067729ULL);
  const std::vector<std::string> pinned = {
      "seed=12966619160104079557 ok=1 failures=0 injected_net=463 "
      "late_deliveries=20 net_dropped_loss=165 net_dropped_no_receiver=33 "
      "net_dropped_cancelled=0 write_retries=6 failed_writes=0 "
      "torn_writes=3 latent_corruptions=2 corrupt_reads=0 hw_faults=5 "
      "drift_excursions=4 missed_resyncs=0 sw_recoveries=1 "
      "ckpt_records=371 ckpt_bytes_encoded=782557 ckpt_cache_hits=0 "
      "ckpt_cache_misses=1026 stable_bytes_written=667012 lane_injected=0 "
      "lane_masked=0 lane_detected=0 lane_silent=0 lane_unprotected=0 "
      "lane_rollbacks=0 lane_resyncs=0 sig_mismatches=0 link_epochs=0 "
      "disconnect_drops=0 burst_drops=0 handoffs=0 "
      "handoff_aborted_writes=0 unacked_high_water=54 at_exposures=1 "
      "at_detected=1 at_missed=0 at_false_alarms=0 bound_violations=20 "
      "blocking_overruns=2 write_timeouts=0 corrupt_records=3 "
      "undelivered_messages=103 line_inconsistencies=0 "
      "signature_mismatches=0 unacked_overflows=0 abft_scrub_detections=0 "
      "disconnect_deferrals=0 tau_widenings=10 forced_resyncs=2 "
      "forced_write_throughs=0 forced_resends=70 relines=3 lane_repairs=0",
      "seed=9600361134598540522 ok=1 failures=0 injected_net=589 "
      "late_deliveries=14 net_dropped_loss=172 net_dropped_no_receiver=7 "
      "net_dropped_cancelled=1 write_retries=6 failed_writes=0 "
      "torn_writes=2 latent_corruptions=1 corrupt_reads=1 hw_faults=2 "
      "drift_excursions=6 missed_resyncs=2 sw_recoveries=0 "
      "ckpt_records=1084 ckpt_bytes_encoded=4281919 ckpt_cache_hits=0 "
      "ckpt_cache_misses=2802 stable_bytes_written=891243 lane_injected=0 "
      "lane_masked=0 lane_detected=0 lane_silent=0 lane_unprotected=0 "
      "lane_rollbacks=0 lane_resyncs=0 sig_mismatches=0 link_epochs=0 "
      "disconnect_drops=0 burst_drops=0 handoffs=0 "
      "handoff_aborted_writes=0 unacked_high_water=60 at_exposures=0 "
      "at_detected=0 at_missed=0 at_false_alarms=0 bound_violations=14 "
      "blocking_overruns=14 write_timeouts=0 corrupt_records=2 "
      "undelivered_messages=159 line_inconsistencies=0 "
      "signature_mismatches=0 unacked_overflows=0 abft_scrub_detections=0 "
      "disconnect_deferrals=0 tau_widenings=6 forced_resyncs=14 "
      "forced_write_throughs=0 forced_resends=79 relines=2 lane_repairs=0",
      "seed=10590380919521690900 ok=1 failures=0 injected_net=391 "
      "late_deliveries=23 net_dropped_loss=145 net_dropped_no_receiver=13 "
      "net_dropped_cancelled=0 write_retries=11 failed_writes=0 "
      "torn_writes=2 latent_corruptions=1 corrupt_reads=0 hw_faults=2 "
      "drift_excursions=4 missed_resyncs=1 sw_recoveries=1 "
      "ckpt_records=254 ckpt_bytes_encoded=581147 ckpt_cache_hits=0 "
      "ckpt_cache_misses=702 stable_bytes_written=552780 lane_injected=0 "
      "lane_masked=0 lane_detected=0 lane_silent=0 lane_unprotected=0 "
      "lane_rollbacks=0 lane_resyncs=0 sig_mismatches=0 link_epochs=0 "
      "disconnect_drops=0 burst_drops=0 handoffs=0 "
      "handoff_aborted_writes=0 unacked_high_water=61 at_exposures=1 "
      "at_detected=1 at_missed=0 at_false_alarms=0 bound_violations=23 "
      "blocking_overruns=8 write_timeouts=0 corrupt_records=1 "
      "undelivered_messages=95 line_inconsistencies=0 "
      "signature_mismatches=0 unacked_overflows=0 abft_scrub_detections=0 "
      "disconnect_deferrals=0 tau_widenings=11 forced_resyncs=8 "
      "forced_write_throughs=0 forced_resends=74 relines=1 lane_repairs=0",
      "seed=15149935114129067729 ok=0 failures=13 injected_net=458 "
      "late_deliveries=14 net_dropped_loss=160 "
      "net_dropped_no_receiver=268 net_dropped_cancelled=0 "
      "write_retries=7 failed_writes=0 torn_writes=3 latent_corruptions=1 "
      "corrupt_reads=4 hw_faults=2 drift_excursions=0 missed_resyncs=0 "
      "sw_recoveries=1 ckpt_records=555 ckpt_bytes_encoded=951320 "
      "ckpt_cache_hits=0 ckpt_cache_misses=1563 "
      "stable_bytes_written=911672 lane_injected=0 lane_masked=0 "
      "lane_detected=0 lane_silent=0 lane_unprotected=0 lane_rollbacks=0 "
      "lane_resyncs=0 sig_mismatches=0 link_epochs=0 disconnect_drops=0 "
      "burst_drops=0 handoffs=0 handoff_aborted_writes=0 "
      "unacked_high_water=42 at_exposures=1 at_detected=1 at_missed=0 "
      "at_false_alarms=0 bound_violations=14 blocking_overruns=0 "
      "write_timeouts=0 corrupt_records=1 undelivered_messages=130 "
      "line_inconsistencies=85 signature_mismatches=0 unacked_overflows=0 "
      "abft_scrub_detections=0 disconnect_deferrals=0 tau_widenings=12 "
      "forced_resyncs=0 forced_write_throughs=0 forced_resends=152 "
      "relines=85 lane_repairs=0",
  };
  const CampaignConfig config;  // coordinated, 600 s, default injectors
  ASSERT_EQ(config.mission, Duration::seconds(600));
  for (std::size_t i = 0; i < seeds.size(); ++i) {
    EXPECT_EQ(render(run_mission(config, seeds[i])), pinned[i])
        << "mission " << i;
  }
}

}  // namespace
}  // namespace synergy
