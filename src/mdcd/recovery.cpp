#include "mdcd/recovery.hpp"

#include <algorithm>

#include "common/assert.hpp"

namespace synergy {

std::size_t SwRecoveryStats::rollbacks() const {
  return static_cast<std::size_t>(
      std::count(rolled_back.begin(), rolled_back.end(), true));
}

SwRecoveryStats recover_software(
    ProcessId detector, std::uint32_t new_epoch, TimePoint now,
    const std::vector<CheckpointableProcess*>& processes,
    const std::vector<bool>& terminated, ProcessId done_by, TraceLog* trace) {
  SYNERGY_EXPECTS(terminated.size() == processes.size());
  SwRecoveryStats stats;
  stats.detector = detector;
  stats.rolled_back.assign(processes.size(), false);
  stats.rollback_distance.assign(processes.size(), Duration::zero());
  if (trace) trace->record(now, detector, TraceKind::kSwErrorDetected);

  // 1. The active low-confidence processes are terminated.
  for (std::size_t i = 0; i < processes.size(); ++i) {
    if (terminated[i]) processes[i]->kill();
  }

  // 2. Local rollback / roll-forward decisions, based solely on each
  //    survivor's own contamination flag (no message exchange).
  for (std::size_t i = 0; i < processes.size(); ++i) {
    if (terminated[i]) continue;
    CheckpointableProcess& p = *processes[i];
    if (p.contamination_flag()) {
      // A live dirty process always has a volatile checkpoint: one was
      // established immediately before it became dirty.
      const auto& record = p.latest_volatile();
      if (!record.has_value()) {
        // Only a hardware-crashed survivor lacks one (its RAM is gone).
        // The pending restart rebuilds it from stable storage; its dirty
        // bit, if set, rides along in the stable record.
        SYNERGY_ASSERT(!p.alive());
        continue;
      }
      p.restore_from_record(*record);
      stats.rolled_back[i] = true;
      stats.rollback_distance[i] = now - record->state_time;
      if (trace) {
        trace->record(now, p.self(), TraceKind::kRollback,
                      to_string(record->kind));
      }
    } else if (p.alive() && trace) {
      // A crashed clean survivor is not rolled forward either: its
      // restart decides its state.
      trace->record(now, p.self(), TraceKind::kRollForward);
    }
  }

  // 3. Every process, the terminated ones included, enters the new epoch
  //    and fences the sends the contaminated processes just undid (every
  //    one of them was dirty-flagged on the wire); guarded operation ends.
  for (CheckpointableProcess* p : processes) {
    p->set_epoch(new_epoch);
    p->fence_dirty_below(new_epoch);
    p->end_guarded_operation();
  }

  // 4. Takeover + replay, with the new epoch so replays are not fenced.
  for (std::size_t i = 0; i < processes.size(); ++i) {
    if (!terminated[i]) stats.replayed += processes[i]->takeover();
  }

  if (trace) trace->record(now, done_by, TraceKind::kSwRecoveryDone);
  return stats;
}

}  // namespace synergy
