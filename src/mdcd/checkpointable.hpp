// The surface a TB checkpointing engine and a node's crash / restart
// lifecycle need from the process they drive.
//
// Both the canonical three-process MDCD engines and the generalized
// N-component engine (src/general) implement this, so the same adapted TB
// protocol coordinates either and the same hardware restart
// (coord/node.hpp, coord/hw_recovery.hpp) recovers either.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>

#include "common/time.hpp"
#include "common/types.hpp"
#include "storage/checkpoint.hpp"

namespace synergy {

class CheckpointableProcess {
 public:
  virtual ~CheckpointableProcess() = default;

  virtual ProcessId self() const = 0;
  virtual bool alive() const = 0;
  virtual TimePoint current_time() const = 0;

  /// The contamination bit the TB layer consults when choosing stable
  /// checkpoint contents.
  virtual bool contamination_flag() const = 0;

  /// The most recent volatile checkpoint (rollback target; guaranteed to
  /// exist whenever contamination_flag() is set).
  virtual const std::optional<CheckpointRecord>& latest_volatile() const = 0;

  /// Build a checkpoint record of the current instant.
  virtual CheckpointRecord make_record(CkptKind kind) const = 0;

  // Blocking-period control.
  virtual void begin_blocking() = 0;
  virtual void end_blocking() = 0;
  virtual bool in_blocking() const = 0;

  /// Observer fired when the contamination flag transitions 1 -> 0 (the
  /// adapted TB's abort-and-replace trigger).
  virtual void set_contamination_cleared_observer(
      std::function<void()> fn) = 0;

  // Recovery surface (node crash and coordinated restart).
  /// Terminate (crash, retirement) / bring back (restart) the process.
  virtual void kill() = 0;
  virtual void revive() = 0;
  /// Restore process state from a checkpoint record.
  virtual void restore_from_record(const CheckpointRecord& record) = 0;
  /// The recovery incarnation stamped on sends and re-sends.
  virtual std::uint32_t epoch() const = 0;
  virtual void set_epoch(std::uint32_t e) = 0;
  /// Drop every application message below `epoch` at consumption.
  virtual void fence_all_below(std::uint32_t epoch) = 0;
};

}  // namespace synergy
