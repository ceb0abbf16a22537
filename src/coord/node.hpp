// Node — one computing node hosting one protocol participant.
//
// Node is the engine-agnostic part: everything that lives and dies with
// the node (application state, volatile and stable stores, the reliable
// transport endpoint, the acceptance test, the TB engine and the boot
// image) and the crash / restore lifecycle the hardware-fault machinery
// drives. It reaches its protocol engine only through the
// CheckpointableProcess surface, so the canonical three-process system and
// the general N-component system (src/general) share one lifecycle and one
// coordinated restart (coord/hw_recovery.hpp).
//
// ProcessNode is the canonical system's node: it adds the MDCD role, the
// redundant-execution lanes and the typed MdcdEngine.
#pragma once

#include <functional>
#include <memory>
#include <optional>

#include "app/acceptance_test.hpp"
#include "app/fault.hpp"
#include "app/state.hpp"
#include "clock/ensemble.hpp"
#include "coord/scheme.hpp"
#include "mdcd/checkpointable.hpp"
#include "mdcd/p1act.hpp"
#include "mdcd/p1sdw.hpp"
#include "mdcd/p2.hpp"
#include "mdcd/services.hpp"
#include "net/reliable.hpp"
#include "redundant/lanes.hpp"
#include "sim/simulator.hpp"
#include "storage/stable_store.hpp"
#include "storage/volatile_store.hpp"
#include "tb/config.hpp"
#include "tb/engine.hpp"
#include "trace/trace.hpp"

namespace synergy {

class Node {
 public:
  Node(const Node&) = delete;
  Node& operator=(const Node&) = delete;

  ProcessId id() const { return id_; }
  NodeId node_id() const { return NodeId{id_.value()}; }

  /// The hosted engine, through the surface TB and recovery drive.
  CheckpointableProcess& process() { return *process_; }

  ApplicationState& app() { return app_; }
  VolatileStore& vstore() { return vstore_; }
  StableStore& sstore() { return *sstore_; }
  bool has_stable_storage() const { return sstore_ != nullptr; }
  ReliableEndpoint& endpoint() { return *endpoint_; }
  TbEngine* tb() { return tb_.get(); }
  /// Design-fault model (non-null only on a low-confidence active).
  SoftwareFaultModel* sw_fault() { return sw_fault_.get(); }
  AcceptanceTest& at() { return *at_; }

  /// Start protocol operation: commit the boot checkpoint (nodes with
  /// stable storage) and arm the TB timer (nodes with one).
  void start();

  /// Retired: the process left service permanently (a low-confidence
  /// active after takeover). A retired node ignores crashes and is skipped
  /// by recovery.
  void retire();
  bool retired() const { return retired_; }

  /// Node crash: volatile contents lost, in-progress stable write lost,
  /// process terminated, in-transit messages to it dropped.
  void crash();
  bool crashed() const { return crashed_; }

  /// Restart from a committed stable checkpoint with the given recovery
  /// epoch: the record with index `line_ndc` when given (the recovery
  /// line's common index), else the latest. Aborts any in-progress stable
  /// write (its content predates the rollback), re-seeds the volatile
  /// store with the restored state, fences stale messages and re-arms the
  /// TB timer. Returns the restored record.
  CheckpointRecord restore_from_stable(std::uint32_t new_epoch,
                                       std::optional<StableSeq> line_ndc =
                                           std::nullopt);

  /// Re-send the restored unacked log (call after *all* nodes restored).
  std::size_t resend_unacked();

 protected:
  /// Builds the stores and the acceptance test. `sstore` null: no stable
  /// storage. `sw_fault` set: the node hosts a low-confidence active and
  /// gets a design-fault model. The AT's and the fault model's streams are
  /// split from `rng` in that order.
  Node(ProcessId id, Simulator& sim, Network& net, TraceLog* trace,
       std::uint64_t app_seed, WorkloadKind workload,
       const StableStoreParams* sstore, const AtParams& at,
       const std::optional<SoftwareFaultParams>& sw_fault, Rng& rng);
  ~Node();

  /// The services every engine gets from its node; the subclass builds
  /// `endpoint_` first, so the transport points at it.
  ProcessServices services(
      std::function<void(ProcessId)> request_sw_recovery);

  /// Adopt the engine the subclass built from services(), and build the
  /// TB engine coordinating it when `tb` is given (the subclass then hands
  /// the engine its ndc provider).
  void adopt(std::unique_ptr<CheckpointableProcess> engine,
             const TbParams* tb, ClockEnsemble& ensemble);

  Simulator& sim_;
  Network& net_;
  TraceLog* trace_;
  ProcessId id_;

  ApplicationState app_;
  VolatileStore vstore_;
  std::unique_ptr<StableStore> sstore_;
  std::unique_ptr<AcceptanceTest> at_;
  std::unique_ptr<SoftwareFaultModel> sw_fault_;
  /// Built by the subclass: its handler calls the concrete engine.
  std::unique_ptr<ReliableEndpoint> endpoint_;
  std::unique_ptr<CheckpointableProcess> process_;
  std::unique_ptr<TbEngine> tb_;

 private:
  bool retired_ = false;
  bool crashed_ = false;
  /// Pristine copy of the deployment-time boot checkpoint — conceptually
  /// the ROM/firmware image, beyond the reach of the storage injectors.
  /// Last-resort restore source when every retained stable record is
  /// damaged (reachable only under extreme injected corruption rates):
  /// maximal rollback instead of an unrecoverable node.
  CheckpointRecord boot_image_;
};

struct NodeConfig {
  MdcdConfig mdcd;
  AtParams at;
  /// Application-state variant. In ABFT mode the AT verdict is computed
  /// from the node's checksum-encoded block instead of drawn from `at`.
  WorkloadKind workload = WorkloadKind::kRegisters;
  /// Design-fault model; only applied when the node hosts P1act.
  SoftwareFaultParams sw_fault;
  StableStoreParams sstore;
  TbParams tb;
  Scheme scheme = Scheme::kCoordinated;
};

class ProcessNode final : public Node {
 public:
  /// Builds the node for `role` under `config.scheme`. `ensemble` supplies
  /// the node's local clock/timers; `request_sw_recovery` is the system
  /// hook invoked on AT failure.
  /// `request_lane_rollback` is invoked when the redundant-lane voter
  /// detects an unmaskable divergence (lane schemes only; may be empty).
  ProcessNode(Role role, Simulator& sim, Network& net, ClockEnsemble& ensemble,
              const NodeConfig& config, std::uint64_t app_seed, Rng rng,
              TraceLog* trace,
              std::function<void(ProcessId)> request_sw_recovery,
              std::function<void(ProcessId)> request_lane_rollback = {});

  Role role() const { return role_; }

  MdcdEngine& engine() { return *engine_; }
  const MdcdEngine& engine() const { return *engine_; }
  P1ActEngine* p1act() { return p1act_; }
  P1SdwEngine* p1sdw() { return p1sdw_; }
  P2Engine* p2() { return p2_; }

  /// Redundant-execution lanes (null for single-lane schemes).
  LaneSet* lanes() { return lanes_.get(); }

 private:
  Role role_;
  std::unique_ptr<LaneSet> lanes_;
  MdcdEngine* engine_ = nullptr;
  P1ActEngine* p1act_ = nullptr;
  P1SdwEngine* p1sdw_ = nullptr;
  P2Engine* p2_ = nullptr;
};

}  // namespace synergy
