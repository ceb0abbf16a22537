// synergy::System — the library's primary facade.
//
// Assembles the paper's three-node guarded system on the discrete-event
// simulator: P1act (low-confidence active), P1sdw (high-confidence shadow)
// and P2 on three nodes with drifting clocks, a bounded-delay network,
// volatile + stable storage, the MDCD engines, and — scheme-dependent —
// TB engines or the write-through coordinator. Drives workloads, injects
// software and hardware faults, runs recoveries, and exposes the global
// states the analysis oracles consume.
//
// Typical use (see examples/quickstart.cpp):
//
//   SystemConfig config;
//   config.scheme = Scheme::kCoordinated;
//   System system(config);
//   system.start(TimePoint::origin() + Duration::seconds(3600));
//   system.schedule_hw_fault(TimePoint::origin() + Duration::seconds(1800),
//                            NodeId{2});
//   system.run();
//   for (const auto& r : system.hw_recoveries()) { ... }
#pragma once

#include <memory>
#include <optional>
#include <vector>

#include "analysis/checkers.hpp"
#include "analysis/global_state.hpp"
#include "app/workload.hpp"
#include "clock/ensemble.hpp"
#include "coord/hw_recovery.hpp"
#include "coord/line_verdicts.hpp"
#include "coord/monitor.hpp"
#include "coord/node.hpp"
#include "coord/write_through.hpp"
#include "inject/faulty_network.hpp"
#include "mdcd/recovery.hpp"
#include "net/network.hpp"
#include "sim/simulator.hpp"
#include "trace/trace.hpp"

namespace synergy {

struct SystemConfig {
  Scheme scheme = Scheme::kCoordinated;
  /// Corrected defaults; set kPaper / kPaperDirtyBit to study the
  /// paper-faithful algorithms (see the gate/tracking ablation benches).
  NdcGateMode gate_mode = NdcGateMode::kBlockingAware;
  ContaminationTracking tracking = ContaminationTracking::kWatermark;
  ClockParams clock;
  NetworkParams net;
  StableStoreParams sstore;
  TbParams tb;  ///< variant is overridden by `scheme`
  AtParams at;
  SoftwareFaultParams sw_fault;
  WorkloadParams workload;

  /// Downtime between a hardware fault and the coordinated restart.
  Duration repair_latency = Duration::seconds(1);

  /// Per-message network fault injection (chaos campaigns). Any non-zero
  /// rate swaps the network for a FaultyNetwork decorator.
  NetFaultParams net_faults;

  /// Build the FaultyNetwork decorator even with all per-message rates
  /// zero, so the mobile mission family can drive link state
  /// (schedule_link_down / schedule_link_up) on an otherwise clean
  /// network.
  bool enable_link_faults = false;

  /// Install the assumption monitors + graceful degradation.
  bool enable_monitor = false;
  MonitorParams monitor;

  /// Oracle-filter the hardware recovery line: skip retained indices whose
  /// record set fails the paper's consistency/recoverability checks (they
  /// can be cut while an injector has split validation knowledge, and
  /// restoring one bakes the asymmetry into the live states). Off by
  /// default so un-hardened systems keep the paper's naive selection —
  /// characterization tests rely on observing those very violations.
  bool harden_recovery = false;

  std::uint64_t seed = 1;
  /// Record protocol events into the trace log (scenario figures, tests).
  bool enable_trace = true;
};

/// Recording sink for external messages (the device).
struct DeviceLog {
  struct Entry {
    TimePoint at;
    ProcessId from;
    std::uint64_t payload;
    bool tainted;
  };
  std::vector<Entry> entries;
};

class System {
 public:
  explicit System(const SystemConfig& config);
  ~System();

  System(const System&) = delete;
  System& operator=(const System&) = delete;

  // ---- Accessors ----------------------------------------------------------
  Simulator& sim() { return sim_; }
  Network& net() { return *net_; }
  ClockEnsemble& clocks() { return *clocks_; }
  TraceLog& trace() { return trace_; }
  const SystemConfig& config() const { return config_; }
  DeviceLog& device() { return device_; }

  ProcessNode& node(ProcessId id);
  P1ActEngine& p1act() { return *nodes_[0]->p1act(); }
  P1SdwEngine& p1sdw() { return *nodes_[1]->p1sdw(); }
  P2Engine& p2() { return *nodes_[2]->p2(); }

  // ---- Lifecycle ------------------------------------------------------------
  /// Write initial stable checkpoints, arm TB timers, start the workload.
  void start(TimePoint horizon);

  /// Run the simulation until the event queue drains or `deadline`.
  void run_until(TimePoint deadline);
  /// Run until the horizon given to start().
  void run();

  // ---- Fault injection ---------------------------------------------------------
  /// Crash `node_id` at time `at` (hardware fault; recovery is automatic).
  void schedule_hw_fault(TimePoint at, NodeId node_id);

  /// Corrupt P1act's state at time `at` and immediately drive an external
  /// send, so the acceptance test fires deterministically (with the
  /// configured coverage).
  void schedule_sw_error(TimePoint at);

  /// Flip one state bit (or corrupt the CFCSS signature, `sig_fault`) of
  /// one execution lane of `target` at time `at` (COAST register/memory
  /// injection model). On single-lane schemes a state flip lands straight
  /// on the live application state — detection is up to AT coverage
  /// ("luck") — and a signature fault is a no-op (nothing to corrupt).
  void schedule_lane_fault(TimePoint at, ProcessId target, std::uint32_t lane,
                           bool sig_fault, std::uint64_t noise);
  /// Immediate-injection form of schedule_lane_fault (tests).
  void inject_lane_fault(ProcessId target, std::uint32_t lane, bool sig_fault,
                         std::uint64_t noise);

  // ---- Mobile/intermittent-connectivity family ---------------------------
  /// Begin a disconnection epoch on `target`'s link at `at`: the selected
  /// directions go dark (full) or degrade to correlated burst loss.
  /// Requires the FaultyNetwork decorator (net_faults or
  /// enable_link_faults).
  void schedule_link_down(TimePoint at, ProcessId target, bool rx, bool tx,
                          bool full, double burst_loss);
  /// End `target`'s disconnection epoch at `at`.
  void schedule_link_up(TimePoint at, ProcessId target);
  /// Base-station handoff at `at`: re-home `target`'s stable store —
  /// drain-or-abandon the in-progress write, migrate the newest checkpoint
  /// records, and (TB schemes) re-derive the recovery line at a fresh
  /// common index so dropped history can never be selected.
  void schedule_handoff(TimePoint at, ProcessId target);
  /// Immediate-injection form of schedule_handoff (tests). Returns false
  /// when the handoff was skipped (node retired/crashed/storeless or a
  /// recovery in flight).
  bool perform_handoff(ProcessId target);

  // ---- Results ---------------------------------------------------------------
  const std::vector<HwRecoveryStats>& hw_recoveries() const {
    return hw_manager_->recoveries();
  }
  const std::optional<SwRecoveryStats>& sw_recovery() const {
    return sw_recovery_;
  }
  std::uint64_t at_failures_observed() const { return at_failures_; }

  /// Recovery-line rollbacks triggered by the lane voter (unmaskable
  /// divergences), and bit-flips that landed on an unprotected
  /// (single-lane) scheme's live state.
  std::uint64_t lane_rollbacks() const { return lane_rollbacks_; }
  std::uint64_t unprotected_flips() const { return unprotected_flips_; }

  /// Base-station handoffs performed, and how many of them abandoned an
  /// in-progress stable write (too slow to drain within the gap).
  std::uint64_t handoffs() const { return handoffs_; }
  std::uint64_t handoff_aborted_writes() const {
    return handoff_aborted_writes_;
  }
  /// Masked/detected/silent adjudication summed over every node's lanes.
  LaneStats lane_stats() const;

  /// Global state a hardware recovery would restore right now (decoded
  /// from the latest committed stable checkpoints of non-retired nodes).
  GlobalState stable_line_state() const;

  /// check_all over stable_line_state(), the mission's periodic audit. A
  /// line of common index is audited once (LineVerdicts).
  std::vector<Violation> audit_stable_line() const;

  /// Global state of the live engines (post-recovery audits).
  GlobalState live_state() const;

  /// The write-through coordinator (null unless scheme_writes_through).
  WriteThroughCoordinator* write_through() { return write_through_.get(); }
  HardwareRecoveryManager& hw_manager() { return *hw_manager_; }

  /// The fault-injecting network (null unless config.net_faults.any()).
  FaultyNetwork* faulty_net() { return faulty_net_; }
  /// The assumption monitor (null unless config.enable_monitor).
  AssumptionMonitor* monitor() { return monitor_.get(); }

 private:
  std::vector<Node*> all_nodes() const;

  void on_at_failure(ProcessId detector);
  void on_lane_rollback(ProcessId detector);
  std::uint32_t next_epoch() { return ++epoch_counter_; }

  SystemConfig config_;
  Simulator sim_;
  TraceLog trace_;
  DeviceLog device_;
  std::unique_ptr<Network> net_;
  std::unique_ptr<ClockEnsemble> clocks_;
  std::vector<std::unique_ptr<ProcessNode>> nodes_;
  std::unique_ptr<WorkloadDriver> workload_;
  std::unique_ptr<WriteThroughCoordinator> write_through_;
  // Shared by the recovery manager, the monitor and the line audits; the
  // audits are const reads of the run, the memo is their cache.
  mutable LineVerdicts line_verdicts_;
  std::unique_ptr<HardwareRecoveryManager> hw_manager_;
  std::unique_ptr<SoftwareRecoveryManager> sw_manager_;
  std::unique_ptr<AssumptionMonitor> monitor_;
  FaultyNetwork* faulty_net_ = nullptr;

  TimePoint horizon_;
  bool started_ = false;
  std::uint32_t epoch_counter_ = 0;
  std::uint64_t at_failures_ = 0;
  std::uint64_t lane_rollbacks_ = 0;
  std::uint64_t unprotected_flips_ = 0;
  std::uint64_t handoffs_ = 0;
  std::uint64_t handoff_aborted_writes_ = 0;
  bool lane_rollback_pending_ = false;
  std::optional<SwRecoveryStats> sw_recovery_;
  std::unique_ptr<Rng> rng_;
};

}  // namespace synergy
