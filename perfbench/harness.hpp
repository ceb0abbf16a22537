// Traced re-drives of the simulator's mission entry points.
//
// drive_chaos() and drive_general() rebuild run_mission() and
// run_general_mission() from the layers' public calls, with a span around
// each call, and read every layer's public counters once the mission ends.
// They must reproduce the entry points exactly: the benchmark compares their
// reports with the real entry points' reports, mission by mission.
//
// The probe_* functions time single public functions on inputs captured
// from a finished mission (its final stable records, its snapshots, a queue
// at its pending depth). The benchmark multiplies those unit costs by the
// mission's counts to estimate the layers that only run inside System::run.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "core/campaign.hpp"
#include "core/system.hpp"
#include "general/campaign.hpp"
#include "general/system.hpp"
#include "spans.hpp"

namespace perfbench {

/// Per-mission layer counters, keyed by the per-layer metric name.
using Counters = std::map<std::string, double>;

struct ChaosOutcome {
  synergy::MissionReport report;
  Counters counters;
};

struct GeneralOutcome {
  synergy::GeneralMissionReport report;
  Counters counters;
  /// Rollback distance of every restored process, simulated seconds.
  std::vector<double> rollback_seconds;
  /// TB blocking time summed over processes, simulated seconds.
  double blocking_seconds = 0.0;
};

/// run_mission(config, seed), re-driven call by call. `probe`, when set,
/// sees the finished system before it is destroyed (outside every span).
ChaosOutcome drive_chaos(const synergy::CampaignConfig& config,
                         std::uint64_t seed, Tracer* tracer,
                         const std::function<void(synergy::System&)>& probe = {});

/// run_general_mission(config, seed), re-driven call by call.
GeneralOutcome drive_general(
    const synergy::GeneralCampaignConfig& config, std::uint64_t seed,
    Tracer* tracer,
    const std::function<void(synergy::GeneralSystem&)>& probe = {});

/// Host cost of one call of each estimated layer.
struct UnitCosts {
  double encode_ns_per_kb = 0;      ///< CheckpointRecord::serialize (+ CRC)
  double decode_us_per_record = 0;  ///< StableStore::latest_committed
  double snapshot_ns_per_kb = 0;    ///< app/protocol/transport snapshots
  double dispatch_ns = 0;           ///< Simulator schedule + step
  double send_deliver_ns = 0;       ///< Network send -> deliver (incl. 1 step)
  double trace_record_ns = 0;       ///< TraceLog::record of one captured event
  double line_audit_us = 0;  ///< global_state_from_records + check_consistency
  double record_kb = 0;             ///< mean size of the probed records
};

UnitCosts probe_canonical(synergy::System& system, double pending_depth);
UnitCosts probe_general(synergy::GeneralSystem& system, double pending_depth);

}  // namespace perfbench
