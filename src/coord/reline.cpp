#include "coord/reline.hpp"

#include <algorithm>
#include <utility>

namespace synergy {

namespace {

/// commit_fresh_line; with `validated_only`, a contaminated process
/// persists its last validated volatile checkpoint instead of its state.
StableSeq commit_line(TimePoint now, Duration interval,
                      const std::vector<Node*>& nodes, bool validated_only) {
  StableSeq line =
      static_cast<StableSeq>(now.count() / interval.count()) + 1;
  for (Node* n : nodes) {
    if (n->retired()) continue;
    if (TbEngine* tb = n->tb()) line = std::max(line, tb->ndc() + 1);
  }
  for (Node* n : nodes) {
    if (n->retired() || !n->has_stable_storage()) continue;
    CheckpointableProcess& p = n->process();
    if (p.in_blocking()) p.end_blocking();
    // The adapted protocol's rule (TbEngine::create_ckpt): a dirty record
    // on the line would forfeit software recoverability for every future
    // rollback.
    CheckpointRecord rec;
    if (validated_only && p.contamination_flag() &&
        p.latest_volatile().has_value()) {
      rec = *p.latest_volatile();
      rec.kind = CkptKind::kStable;
      rec.established_at = p.current_time();
    } else {
      rec = p.make_record(CkptKind::kStable);
    }
    rec.ndc = line;
    n->sstore().commit_now(std::move(rec));
    if (TbEngine* tb = n->tb()) tb->reset_after_recovery(line);
  }
  return line;
}

}  // namespace

StableSeq commit_fresh_line(TimePoint now, Duration interval,
                            const std::vector<Node*>& nodes) {
  return commit_line(now, interval, nodes, /*validated_only=*/false);
}

std::optional<StableSeq> reestablish_recovery_line(
    Simulator& sim, const std::vector<Node*>& nodes) {
  // Any damaged or abandoned older record can no longer be selected: every
  // future line is at or above the new index.
  Duration interval = Duration::zero();
  for (Node* n : nodes) {
    if (n->retired()) continue;
    if (n->tb() == nullptr) return std::nullopt;  // no common index space
    interval = n->tb()->params().interval;
  }
  if (interval <= Duration::zero()) return std::nullopt;  // no live nodes
  return commit_line(sim.now(), interval, nodes, /*validated_only=*/true);
}

}  // namespace synergy
