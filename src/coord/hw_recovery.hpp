// Hardware fault injection and recovery.
//
// A hardware fault crashes one node: volatile storage and the in-progress
// stable write are lost, the process terminates, in-transit messages to it
// vanish. Recovery (after a configurable repair latency) rolls *every*
// non-retired process back to its last committed stable checkpoint — the
// TB recovery line — then re-sends all unacked messages from the restored
// logs (paper §2.2). The per-process rollback distance
// (fault time − restored state_time) is the Figure 7 metric. The manager
// drives the engine-agnostic Node, so the canonical System and the general
// N-component GeneralSystem restart through this one path.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "analysis/global_state.hpp"
#include "coord/line_verdicts.hpp"
#include "coord/node.hpp"

namespace synergy {

struct HwRecoveryStats {
  TimePoint fault_time;
  NodeId faulty_node;
  /// Rollback distance per restored process, indexed like `nodes`.
  /// Retired nodes contribute Duration::zero().
  std::vector<Duration> rollback_distance;
  /// Dirty bits of the restored states (a naive-combination hazard:
  /// restoring dirty states loses software recoverability, Figure 4(a)).
  std::vector<bool> restored_dirty;
  std::size_t resent_messages = 0;
};

/// Last checkpoint index that every non-retired node in `nodes` has
/// committed *and can still decode*. Storage faults can damage the record
/// at the naive line (min of latest indices); selection walks down through
/// the retained history until an index is intact everywhere. Empty when no
/// common intact index survives (each node then restores its own newest
/// valid record — a degraded, best-effort line).
std::optional<StableSeq> common_valid_line(
    const std::vector<Node*>& nodes);

/// Like common_valid_line, but the chosen index must also pass the paper's
/// oracles (consistency, recoverability, software recoverability) over the
/// record set it would restore. Protects recovery from adopting a line cut
/// while an injector had split the processes' validation knowledge (e.g. a
/// dropped passed_AT): restoring such a pair bakes the asymmetry into the
/// live states, where no later repair can reach it. Empty when no retained
/// index is clean everywhere — callers fall back to common_valid_line, so
/// schemes whose lines are *expected* to violate the oracles (ablations,
/// the naive combination) behave exactly as before. Each candidate line's
/// verdict comes from `verdicts`, so an audited line is not audited again.
std::optional<StableSeq> common_restorable_line(
    const std::vector<Node*>& nodes, LineVerdicts& verdicts);

/// Per-node record selection for the index-less (write-through) schemes.
/// Write-through commits are per-node validation events, so a fault inside
/// one node's write-latency window (or a torn newest record) leaves the
/// nodes' newest intact records straddling in-flight traffic: the receiver
/// remembers messages the rolled-back sender never sent. Starting from
/// every node's newest decodable record, the node whose current record has
/// the newest state time is rolled back one record at a time until the
/// paper's oracles accept the cut (the classic rollback-propagation
/// descent; it terminates because every step strictly shrinks the cut).
/// Returns the chosen index per node, aligned with `nodes` (nullopt for
/// retired / storage-less entries); empty when no retained combination is
/// clean — callers then fall back to per-node latest_committed() exactly
/// as before.
std::vector<std::optional<StableSeq>> consistent_write_through_cut(
    const std::vector<Node*>& nodes);

/// The recovery line a restart would roll back to right now: its
/// participants (the non-retired nodes with stable storage) and the
/// record each restores.
struct LineChoice {
  std::vector<Node*> participants;
  /// Every participant has a TB engine (a common index space).
  bool timered = true;
  /// The common index (timered participants). With `oracle_filter` the
  /// newest common index whose line passes the oracles, else the newest
  /// one intact everywhere; nullopt when no common index survives.
  std::optional<StableSeq> ndc;
  /// Index-less participants under `oracle_filter`: the per-participant
  /// consistent_write_through_cut, aligned with `participants` (empty when
  /// none is clean). Participants without an entry read their newest
  /// record.
  std::vector<std::optional<StableSeq>> cut;
};

/// The one line selection every caller shares: hardware restarts, the
/// systems' stable-line audits and their stable_line_state().
LineChoice choose_line(const std::vector<Node*>& nodes, LineVerdicts& verdicts,
                       bool oracle_filter);

/// The global state `choice` would restore.
GlobalState line_state(const LineChoice& choice);

class HardwareRecoveryManager {
 public:
  /// `repair_latency`: downtime between the fault and the coordinated
  /// restart of the system. `next_epoch` hands out the system's recovery
  /// incarnations; the restart draws its epoch when it runs, so a software
  /// recovery inside the repair window never outranks it. With
  /// `oracle_filter`, line selection prefers common_restorable_line
  /// (hardened mode); otherwise the paper's naive common_valid_line
  /// selection is used unchanged. `verdicts` is the mission's line-verdict
  /// memo; it must outlive the manager.
  HardwareRecoveryManager(Simulator& sim, std::vector<Node*> nodes,
                          Duration repair_latency, TraceLog* trace,
                          LineVerdicts& verdicts,
                          std::function<std::uint32_t()> next_epoch,
                          bool oracle_filter = false);

  /// Crash the process on `node` now and schedule the global recovery.
  /// Single-fault-at-a-time model: a fault while a recovery is pending, or
  /// on a retired node, has no effect.
  void inject_fault(NodeId node);

  std::uint64_t faults_injected() const { return faults_; }
  bool recovery_pending() const { return pending_; }
  /// One entry per completed restart, in order.
  const std::vector<HwRecoveryStats>& recoveries() const {
    return recoveries_;
  }

 private:
  HwRecoveryStats recover_all(TimePoint fault_time, NodeId faulty);

  Simulator& sim_;
  std::vector<Node*> nodes_;
  Duration repair_latency_;
  TraceLog* trace_;
  LineVerdicts& verdicts_;
  std::function<std::uint32_t()> next_epoch_;
  bool oracle_filter_;
  std::uint64_t faults_ = 0;
  bool pending_ = false;
  std::vector<HwRecoveryStats> recoveries_;
};

}  // namespace synergy
