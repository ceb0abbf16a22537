// Executable oracles for the paper's correctness properties (§2.1).
//
// Consistency: if a global state reflects m as received, it must reflect m
// as sent, and sender and receiver must agree on m's validity.
//
// Recoverability: if a global state reflects m as sent (to a process that
// is part of the state), m must be reflected as received with an agreeing
// validity view, or be restorable — present in the sender's saved
// unacked-message log.
//
// A third check targets the naive-combination hazard of Figure 4(a):
// software recoverability — a restored state flagged potentially
// contaminated has lost the volatile checkpoint that software error
// recovery would need.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "analysis/global_state.hpp"

namespace synergy {

struct Violation {
  enum class Kind {
    kReceivedNotSent,       ///< recv entry without matching sent entry
    kValidityMismatch,      ///< sender and receiver views disagree
    kLostMessage,           ///< sent entry neither received nor restorable
    kDirtyRestoredState,    ///< restored state is potentially contaminated
  };
  Kind kind;
  ProcessId a;  ///< Process whose log triggered the finding.
  ProcessId b;  ///< The peer.
  std::uint64_t transport_seq = 0;
  std::string describe() const;
};

/// Both directions of the paper's consistency property.
std::vector<Violation> check_consistency(const GlobalState& state);

/// The paper's recoverability property (internal messages only; external
/// messages go to the device and are outside the recoverable world).
std::vector<Violation> check_recoverability(const GlobalState& state);

/// Figure 4(a) hazard: any process restored with dirty == 1 can no longer
/// perform software error recovery (its volatile checkpoint died with the
/// node).
std::vector<Violation> check_software_recoverability(const GlobalState& state);

/// All three checks.
std::vector<Violation> check_all(const GlobalState& state);

/// Which entry point an audit came through.
enum class AuditKind { kConsistency, kRecoverability, kAll };

/// Test seam: while set, every check_consistency, check_recoverability and
/// check_all call on the calling thread reports the state it audited and
/// the violations it returns (the differential test replays each audit
/// through a reference checker). Unset, it costs one branch per audit.
using AuditObserver = std::function<void(
    AuditKind, const GlobalState&, const std::vector<Violation>&)>;
void set_audit_observer(AuditObserver observer);

}  // namespace synergy
