#include "coord/hw_recovery.hpp"

#include <algorithm>
#include <utility>

#include "analysis/checkers.hpp"
#include "analysis/global_state.hpp"
#include "common/assert.hpp"

namespace synergy {

namespace {

/// The index range the non-retired nodes with stable storage can share:
/// from the newest of their oldest retained indices up to the oldest of
/// their newest valid ones. Nullopt when no node takes part.
std::optional<std::pair<StableSeq, StableSeq>> common_range(
    const std::vector<Node*>& nodes) {
  StableSeq hi = ~StableSeq{0};
  StableSeq lo = 0;
  bool any = false;
  for (Node* n : nodes) {
    if (n->retired() || !n->has_stable_storage()) continue;
    any = true;
    hi = std::min(hi, n->sstore().latest_valid_ndc());
    const auto retained = n->sstore().retained_ndcs();
    if (!retained.empty()) lo = std::max(lo, retained.front());
  }
  if (!any) return std::nullopt;
  return std::make_pair(lo, hi);
}

/// The newest index in the common range that `accept` takes, walking down.
template <typename Accept>
std::optional<StableSeq> newest_common(const std::vector<Node*>& nodes,
                                       Accept accept) {
  const auto range = common_range(nodes);
  if (!range) return std::nullopt;
  const auto [lo, hi] = *range;
  for (StableSeq cand = hi; cand + 1 > lo; --cand) {
    if (accept(cand)) return cand;
    if (cand == 0) break;  // unsigned: don't wrap below zero
  }
  return std::nullopt;
}

}  // namespace

std::optional<StableSeq> common_valid_line(const std::vector<Node*>& nodes) {
  return newest_common(nodes, [&](StableSeq cand) {
    for (Node* n : nodes) {
      if (n->retired() || !n->has_stable_storage()) continue;
      if (!n->sstore().has_valid(cand)) return false;
    }
    return true;
  });
}

std::optional<StableSeq> common_restorable_line(const std::vector<Node*>& nodes,
                                                LineVerdicts& verdicts) {
  return newest_common(nodes, [&](StableSeq cand) {
    const auto line = stable_line_at(nodes, cand);
    return line && verdicts.all(*line).empty();
  });
}

std::vector<std::optional<StableSeq>> consistent_write_through_cut(
    const std::vector<Node*>& nodes) {
  const std::size_t n = nodes.size();
  std::vector<std::vector<StableSeq>> ndcs(n);        // newest first
  std::vector<std::vector<CheckpointRecord>> recs(n);  // parallel to ndcs
  std::vector<std::size_t> idx(n, 0);
  std::size_t steps = 1;
  for (std::size_t i = 0; i < n; ++i) {
    Node* node = nodes[i];
    if (node->retired() || !node->has_stable_storage()) continue;
    const auto retained = node->sstore().retained_ndcs();
    for (auto it = retained.rbegin(); it != retained.rend(); ++it) {
      if (auto rec = node->sstore().committed_for(*it)) {
        ndcs[i].push_back(*it);
        recs[i].push_back(std::move(*rec));
      }
    }
    if (ndcs[i].empty()) return {};  // nothing decodable: degraded fallback
    steps += recs[i].size();
  }

  while (steps-- > 0) {
    std::vector<CheckpointRecord> cut;
    for (std::size_t i = 0; i < n; ++i) {
      if (!recs[i].empty()) cut.push_back(recs[i][idx[i]]);
    }
    if (cut.empty()) return {};
    if (check_all(global_state_from_records(cut)).empty()) {
      std::vector<std::optional<StableSeq>> out(n);
      for (std::size_t i = 0; i < n; ++i) {
        if (!ndcs[i].empty()) out[i] = ndcs[i][idx[i]];
      }
      return out;
    }
    // Orphan receipts only exist while some node's cut runs ahead of a
    // peer's: rolling the newest-state node back one record is the only
    // monotone repair.
    std::size_t victim = n;
    for (std::size_t i = 0; i < n; ++i) {
      if (recs[i].empty() || idx[i] + 1 >= recs[i].size()) continue;
      if (victim == n ||
          recs[i][idx[i]].state_time > recs[victim][idx[victim]].state_time) {
        victim = i;
      }
    }
    if (victim == n) return {};  // descent exhausted: degraded fallback
    ++idx[victim];
  }
  return {};
}

LineChoice choose_line(const std::vector<Node*>& nodes, LineVerdicts& verdicts,
                       bool oracle_filter) {
  // The recovery line is the last checkpoint index *every* process has
  // committed: a fault inside the timer-skew window leaves some processes
  // one index ahead, and TB's guarantees hold per-index, not across
  // indices. (Write-through has no indices; each process restores its
  // latest validated checkpoint, which the paper argues form a consistent
  // global state by construction.)
  LineChoice choice;
  for (Node* n : nodes) {
    if (n->retired() || !n->has_stable_storage()) continue;
    choice.participants.push_back(n);
    if (n->tb() == nullptr) choice.timered = false;
  }
  if (choice.participants.empty()) return choice;
  if (choice.timered) {
    // Storage faults can leave the record at the naive line (min of latest
    // indices) undecodable on some node, and injector-era lines can fail
    // the paper's oracles outright: hardened mode prefers the newest index
    // that is intact everywhere AND restores a clean global state, then
    // degrades to merely intact.
    if (oracle_filter) {
      choice.ndc = common_restorable_line(choice.participants, verdicts);
    }
    if (!choice.ndc) choice.ndc = common_valid_line(choice.participants);
  } else if (oracle_filter) {
    // Hardened index-less selection: per-node newest records rolled back
    // into a cut the oracles accept (write-latency skew / torn newest
    // records otherwise restore orphan receipts).
    choice.cut = consistent_write_through_cut(choice.participants);
  }
  return choice;
}

GlobalState line_state(const LineChoice& choice) {
  // One record decoded at a time: a 256-leaf line held whole costs
  // hundreds of KB of peak memory.
  GlobalState state;
  for (std::size_t i = 0; i < choice.participants.size(); ++i) {
    const StableStore& store = choice.participants[i]->sstore();
    std::optional<CheckpointRecord> rec;
    if (choice.ndc) {
      rec = store.committed_for(*choice.ndc);
    } else if (i < choice.cut.size() && choice.cut[i]) {
      rec = store.committed_for(*choice.cut[i]);
    } else {
      rec = store.latest_committed();
    }
    if (rec) state.processes.push_back(facts_from_record(*rec));
  }
  return state;
}

HardwareRecoveryManager::HardwareRecoveryManager(
    Simulator& sim, std::vector<Node*> nodes, Duration repair_latency,
    TraceLog* trace, LineVerdicts& verdicts,
    std::function<std::uint32_t()> next_epoch, bool oracle_filter)
    : sim_(sim), nodes_(std::move(nodes)), repair_latency_(repair_latency),
      trace_(trace), verdicts_(verdicts), next_epoch_(std::move(next_epoch)),
      oracle_filter_(oracle_filter) {
  SYNERGY_EXPECTS(repair_latency >= Duration::zero());
}

void HardwareRecoveryManager::inject_fault(NodeId node) {
  if (pending_) return;  // single-fault-at-a-time model
  Node* victim = nullptr;
  for (Node* n : nodes_) {
    if (n->node_id() == node) victim = n;
  }
  SYNERGY_EXPECTS(victim != nullptr);
  if (victim->retired()) return;  // empty node: fault has no effect

  ++faults_;
  pending_ = true;
  const TimePoint fault_time = sim_.now();
  victim->crash();

  // A global recovery is under way: freeze checkpoint establishment on
  // the survivors (stop timers, abort in-progress writes). Otherwise a
  // survivor could re-commit the current line index with post-fault
  // content the victim can never match — a mixed-time recovery line.
  for (Node* n : nodes_) {
    if (n == victim || n->retired()) continue;
    if (TbEngine* tb = n->tb()) tb->stop();
    if (n->has_stable_storage()) n->sstore().crash_abort_in_progress();
  }

  sim_.schedule_after(repair_latency_, [this, fault_time, node] {
    recoveries_.push_back(recover_all(fault_time, node));
    pending_ = false;
  });
}

HwRecoveryStats HardwareRecoveryManager::recover_all(TimePoint fault_time,
                                                     NodeId faulty) {
  const std::uint32_t epoch = next_epoch_();
  HwRecoveryStats stats;
  stats.fault_time = fault_time;
  stats.faulty_node = faulty;
  stats.rollback_distance.resize(nodes_.size(), Duration::zero());
  stats.restored_dirty.resize(nodes_.size(), false);

  LineChoice line = choose_line(nodes_, verdicts_, oracle_filter_);
  if (line.timered && !line.ndc) {
    // No common intact index: every node restores its newest intact
    // record at or below the naive line (restore_from_stable's fallback).
    StableSeq min_ndc = ~StableSeq{0};
    for (Node* n : line.participants) {
      min_ndc = std::min(min_ndc, n->sstore().latest_valid_ndc());
    }
    line.ndc = min_ndc;
  }

  // Phase 1: every non-retired process rolls back to the line.
  for (std::size_t j = 0; j < line.participants.size(); ++j) {
    Node* n = line.participants[j];
    const auto i = static_cast<std::size_t>(
        std::find(nodes_.begin(), nodes_.end(), n) - nodes_.begin());
    const CheckpointRecord rec = n->restore_from_stable(
        epoch, j < line.cut.size() && line.cut[j] ? line.cut[j] : line.ndc);
    // Rollback distance counts undone *computation*: work done between the
    // restored state and the fault. Repair downtime is not part of it.
    stats.rollback_distance[i] = fault_time - rec.state_time;
    stats.restored_dirty[i] = rec.dirty_bit;
  }

  // Phase 2: re-send unacked messages from the restored logs (after every
  // process is back, so nothing is delivered into a dead node).
  for (Node* n : nodes_) {
    if (n->retired()) continue;
    stats.resent_messages += n->resend_unacked();
  }

  if (trace_) {
    trace_->record(sim_.now(), ProcessId{faulty.value()},
                   TraceKind::kHwRecoveryDone);
  }
  return stats;
}

}  // namespace synergy
