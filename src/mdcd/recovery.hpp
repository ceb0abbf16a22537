// Software error recovery (MDCD) — one routine for every host.
//
// On an acceptance-test failure the low-confidence actives are terminated
// and every survivor makes a *local* decision from its own contamination
// flag: roll back to its most recent volatile checkpoint if the flag is
// set, roll forward otherwise. The paper's theorems (proved in [5])
// guarantee the resulting global state satisfies validity-concerned
// consistency and recoverability; our property tests check exactly that
// via the analysis module. Then every process raises its recovery epoch
// and fences the dirty sends of the old one, guarded operation ends, and
// each shadow takes over and replays its suppressed log beyond VR.
//
// The canonical System, the N-component GeneralSystem and the threaded
// GsuMiddleware all recover through recover_software (DESIGN.md §24). It
// works on engines, not nodes, because the middleware has no nodes: the
// hosts keep the once-only guard, retiring the terminated processes'
// nodes and committing a fresh recovery line.
#pragma once

#include <cstdint>
#include <vector>

#include "common/time.hpp"
#include "mdcd/checkpointable.hpp"
#include "trace/trace.hpp"

namespace synergy {

struct SwRecoveryStats {
  ProcessId detector;
  /// Per process, indexed by process id like HwRecoveryStats: whether the
  /// survivor rolled back, and the computation the rollback undid (zero
  /// if it rolled forward, was terminated or was left to its restart).
  std::vector<bool> rolled_back;
  std::vector<Duration> rollback_distance;
  /// Messages the shadows replayed on takeover.
  std::size_t replayed = 0;

  std::size_t rollbacks() const;
};

/// Run the software recovery at `now` over a host's `processes`, listed
/// in process-id order; `terminated[i]` marks the low-confidence actives
/// that are killed. A dirty survivor without a volatile record must be
/// dead (its RAM went with a crash): it is left to the pending hardware
/// restart, as is a dead clean one. `new_epoch` must be strictly greater
/// than every process's epoch. `done_by` stamps the closing
/// kSwRecoveryDone trace event; `trace` may be null.
SwRecoveryStats recover_software(
    ProcessId detector, std::uint32_t new_epoch, TimePoint now,
    const std::vector<CheckpointableProcess*>& processes,
    const std::vector<bool>& terminated, ProcessId done_by, TraceLog* trace);

}  // namespace synergy
