// A probe for the dirty-message fence a software recovery raises.
#pragma once

#include <cstdint>

#include "mdcd/checkpointable.hpp"
#include "trace/trace.hpp"

namespace synergy {

/// Feeds `p` a dirty-flagged message from one epoch below `epoch` and
/// reports whether the process fenced it. A dead process is revived for
/// the probe only.
inline bool fences_dirty_below(CheckpointableProcess& p,
                               const TraceLog& trace, std::uint32_t epoch,
                               ProcessId from) {
  Message m;
  m.kind = MsgKind::kInternal;
  m.sender = from;
  m.receiver = p.self();
  m.transport_seq = 1'000'000;
  m.sn = 1'000'000;
  m.epoch = epoch - 1;
  m.dirty = true;
  const std::size_t before = trace.count(TraceKind::kStaleDrop, p.self());
  const bool alive = p.alive();
  p.revive();
  p.on_message(m);
  if (!alive) p.kill();
  return trace.count(TraceKind::kStaleDrop, p.self()) == before + 1;
}

}  // namespace synergy
