// Global states for property checking.
//
// A GlobalState is a set of per-process facts extracted either from live
// engines ("what the system believes right now", used after recoveries) or
// from a set of checkpoint records ("what a recovery line would restore",
// used to audit stable checkpoints without disturbing the run). The
// checkers in checkers.hpp evaluate the paper's validity-concerned
// consistency and recoverability properties over it.
#pragma once

#include <optional>
#include <vector>

#include "common/types.hpp"
#include "mdcd/engine.hpp"
#include "mdcd/views.hpp"
#include "net/message.hpp"
#include "storage/checkpoint.hpp"

namespace synergy {

struct ProcessFacts {
  ProcessId id;
  bool dirty = false;
  bool app_tainted = false;
  TimePoint state_time;
  /// The views this state reflects: its history read at the mark, in
  /// place (no history: no views).
  ViewRef views;
  std::vector<Message> unacked;
};

struct GlobalState {
  std::vector<ProcessFacts> processes;
};

/// Extract facts from a checkpoint record: its contamination flag, its
/// ViewRef and the application snapshot's taint flag.
ProcessFacts facts_from_record(const CheckpointRecord& record);

/// Extract facts from a live engine (post-recovery audits).
ProcessFacts facts_from_engine(const MdcdEngine& engine, TimePoint state_time);

/// Assemble a global state from one record per process.
GlobalState global_state_from_records(
    const std::vector<CheckpointRecord>& records);

}  // namespace synergy
