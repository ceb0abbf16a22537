// GeneralSystem — the generalized protocol on the discrete-event simulator.
//
// Builds one process per component (plus a shadow per low-confidence
// component) on its own node with a drifting clock, volatile + stable
// storage and a reliable endpoint; runs the generalized MDCD engine
// coordinated with the adapted TB engine; drives Poisson workloads per
// component; and provides software- and hardware-fault injection with the
// same recovery semantics as the canonical system, generalized to any
// number of guarded components.
//
// Every process lives on a Node (coord/node.hpp), so a crash, the
// coordinated restart and recovery-line selection are the canonical
// system's own (HardwareRecoveryManager with the paper's naive line
// selection), and the software recovery is the canonical one too
// (mdcd/recovery.hpp). This class owns the per-component workload routes.
#pragma once

#include <memory>
#include <optional>
#include <vector>

#include "analysis/global_state.hpp"
#include "clock/ensemble.hpp"
#include "coord/hw_recovery.hpp"
#include "general/engine.hpp"
#include "general/topology.hpp"
#include "mdcd/recovery.hpp"
#include "net/network.hpp"
#include "sim/simulator.hpp"
#include "tb/engine.hpp"
#include "trace/trace.hpp"

namespace synergy {

struct GeneralConfig {
  MdcdConfig mdcd;  ///< corrected gate/tracking defaults
  AtParams at;
  ClockParams clock;
  NetworkParams net;
  StableStoreParams sstore;
  TbParams tb;  ///< variant forced to kAdapted
  Duration repair_latency = Duration::seconds(1);
  std::uint64_t seed = 1;
  bool enable_trace = true;
};

/// One hardware restart; rollback_distance is indexed by process id.
using GeneralHwRecovery = HwRecoveryStats;

class GeneralNode;

class GeneralSystem {
 public:
  GeneralSystem(Topology topology, const GeneralConfig& config);
  ~GeneralSystem();

  GeneralSystem(const GeneralSystem&) = delete;
  GeneralSystem& operator=(const GeneralSystem&) = delete;

  Simulator& sim() { return sim_; }
  TraceLog& trace() { return trace_; }
  const Topology& topology() const { return topology_; }
  GeneralEngine& engine(ProcessId p);
  TbEngine& tb(ProcessId p);
  ApplicationState& app(ProcessId p);
  std::size_t device_outputs() const { return device_.size(); }
  const std::vector<Message>& device_log() const { return device_; }

  void start(TimePoint horizon);
  void run();
  void run_until(TimePoint deadline) { sim_.run_until(deadline); }

  /// Corrupt component `c`'s active process at `at` and force an external
  /// send (deterministic software error).
  void schedule_sw_error(TimePoint at, std::uint32_t component);

  /// Crash process `victim`'s node at `at`; global recovery follows.
  void schedule_hw_fault(TimePoint at, ProcessId victim);

  const std::optional<SwRecoveryStats>& sw_recovery() const {
    return sw_recovery_;
  }
  const std::vector<GeneralHwRecovery>& hw_recoveries() const {
    return hw_manager_->recoveries();
  }

  /// Recovery-line audit surface: the global state a hardware restart
  /// would restore right now (choose_line), for the same oracles as the
  /// canonical system.
  GlobalState stable_line_state() const;
  GlobalState live_state() const;

 private:
  /// Flat workload-dispatch route: one entry per component, resolved to
  /// raw engine pointers at construction so the per-event path (the
  /// hottest callback in a large topology) is two indirect calls, not a
  /// topology lookup plus unique_ptr chains.
  struct CompRoute {
    GeneralEngine* active = nullptr;
    GeneralEngine* shadow = nullptr;  ///< null for unguarded components
  };

  void arm_workload(std::uint32_t component, TimePoint until);
  void on_at_failure(ProcessId detector);
  std::vector<Node*> all_nodes() const;

  Topology topology_;
  GeneralConfig config_;
  Simulator sim_;
  TraceLog trace_;
  std::vector<Message> device_;
  std::unique_ptr<Rng> rng_;
  std::unique_ptr<Network> net_;
  std::unique_ptr<ClockEnsemble> clocks_;
  std::vector<std::unique_ptr<GeneralNode>> nodes_;
  std::vector<CompRoute> comp_routes_;
  // The restart's line memo (read only in oracle-filtered mode, which the
  // general system does not use) and the shared restart path.
  mutable LineVerdicts line_verdicts_;
  std::unique_ptr<HardwareRecoveryManager> hw_manager_;
  TimePoint horizon_;
  bool started_ = false;
  std::uint32_t epoch_counter_ = 0;
  std::optional<SwRecoveryStats> sw_recovery_;
};

}  // namespace synergy
