// Coordinated recovery-line (re-)establishment.
//
// Every participant commits a checkpoint of its state at this same instant
// under a fresh common index and fast-forwards its TB schedule to it.
// Three callers need that maneuver: software recovery in both systems
// (the takeover must never be split by a later hardware rollback), the
// AssumptionMonitor's line repair after latent corruption or a detected
// inconsistency, and the System's base-station handoff path (after a
// node's stable store migrated, the surviving history may no longer
// intersect the other nodes' at a consistent cut).
#pragma once

#include <optional>
#include <vector>

#include "coord/node.hpp"
#include "sim/simulator.hpp"

namespace synergy {

/// Commit every live node's current state under a fresh common stable
/// index, the first `interval` boundary after `now` or, when later, the
/// index after every TB schedule's position (the next TB expiry then
/// re-commits the same index for everyone), and fast-forward the TB
/// schedules to it. A node parked in a blocking period drains it first:
/// its deferred work lands after the line on both sides. Software recovery
/// calls this on the survivors so stable checkpoints predating the
/// takeover can never be restored. Returns the new index.
StableSeq commit_fresh_line(TimePoint now, Duration interval,
                            const std::vector<Node*>& nodes);

/// The repair form of commit_fresh_line. Same-instant records form a
/// consistent cut — in-flight messages live in the senders' unacked logs —
/// so the new line is restorable and consistent by construction. Contents
/// follow the adapted protocol's rule: a contaminated process persists its
/// last validated volatile checkpoint, never its current state.
///
/// Returns the new common index, or nullopt when the nodes share no
/// common index space (some live node has no TB engine) — the caller must
/// treat that as "cannot reline here".
std::optional<StableSeq> reestablish_recovery_line(
    Simulator& sim, const std::vector<Node*>& nodes);

}  // namespace synergy
