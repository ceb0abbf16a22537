#include "coord/hw_recovery.hpp"

#include <algorithm>
#include <utility>

#include "analysis/checkers.hpp"
#include "analysis/global_state.hpp"
#include "common/assert.hpp"

namespace synergy {

std::optional<StableSeq> common_valid_line(
    const std::vector<ProcessNode*>& nodes) {
  StableSeq hi = ~StableSeq{0};
  StableSeq lo = 0;
  bool any = false;
  for (ProcessNode* n : nodes) {
    if (n->retired() || !n->has_stable_storage()) continue;
    any = true;
    hi = std::min(hi, n->sstore().latest_valid_ndc());
    const auto retained = n->sstore().retained_ndcs();
    if (!retained.empty()) lo = std::max(lo, retained.front());
  }
  if (!any) return std::nullopt;
  for (StableSeq cand = hi; cand + 1 > lo; --cand) {
    bool ok = true;
    for (ProcessNode* n : nodes) {
      if (n->retired() || !n->has_stable_storage()) continue;
      if (!n->sstore().has_valid(cand)) {
        ok = false;
        break;
      }
    }
    if (ok) return cand;
    if (cand == 0) break;  // unsigned: don't wrap below zero
  }
  return std::nullopt;
}

std::optional<StableSeq> common_restorable_line(
    const std::vector<ProcessNode*>& nodes, LineVerdicts& verdicts) {
  StableSeq hi = ~StableSeq{0};
  StableSeq lo = 0;
  bool any = false;
  for (ProcessNode* n : nodes) {
    if (n->retired() || !n->has_stable_storage()) continue;
    any = true;
    hi = std::min(hi, n->sstore().latest_valid_ndc());
    const auto retained = n->sstore().retained_ndcs();
    if (!retained.empty()) lo = std::max(lo, retained.front());
  }
  if (!any) return std::nullopt;
  for (StableSeq cand = hi; cand + 1 > lo; --cand) {
    const auto line = stable_line_at(nodes, cand);
    if (line && verdicts.all(*line).empty()) return cand;
    if (cand == 0) break;  // unsigned: don't wrap below zero
  }
  return std::nullopt;
}

std::vector<std::optional<StableSeq>> consistent_write_through_cut(
    const std::vector<ProcessNode*>& nodes) {
  const std::size_t n = nodes.size();
  std::vector<std::vector<StableSeq>> ndcs(n);        // newest first
  std::vector<std::vector<CheckpointRecord>> recs(n);  // parallel to ndcs
  std::vector<std::size_t> idx(n, 0);
  std::size_t steps = 1;
  for (std::size_t i = 0; i < n; ++i) {
    ProcessNode* node = nodes[i];
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

HardwareRecoveryManager::HardwareRecoveryManager(
    Simulator& sim, std::vector<ProcessNode*> nodes, Duration repair_latency,
    TraceLog* trace, LineVerdicts& verdicts, bool oracle_filter)
    : sim_(sim), nodes_(std::move(nodes)), repair_latency_(repair_latency),
      trace_(trace), verdicts_(verdicts), oracle_filter_(oracle_filter) {
  SYNERGY_EXPECTS(repair_latency >= Duration::zero());
}

void HardwareRecoveryManager::inject_fault(
    NodeId node, std::uint32_t new_epoch,
    std::function<void(const HwRecoveryStats&)> on_recovered) {
  SYNERGY_EXPECTS(!pending_);  // single-fault-at-a-time model
  ProcessNode* victim = nullptr;
  for (ProcessNode* n : nodes_) {
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
  for (ProcessNode* n : nodes_) {
    if (n == victim || n->retired()) continue;
    if (TbEngine* tb = n->tb()) tb->stop();
    if (n->has_stable_storage()) n->sstore().crash_abort_in_progress();
  }

  sim_.schedule_after(
      repair_latency_,
      [this, fault_time, node, new_epoch,
       on_recovered = std::move(on_recovered)] {
        HwRecoveryStats stats = recover_all(fault_time, node, new_epoch);
        pending_ = false;
        if (on_recovered) on_recovered(stats);
      });
}

HwRecoveryStats HardwareRecoveryManager::recover_all(TimePoint fault_time,
                                                     NodeId faulty,
                                                     std::uint32_t epoch) {
  HwRecoveryStats stats;
  stats.fault_time = fault_time;
  stats.faulty_node = faulty;
  stats.rollback_distance.resize(nodes_.size(), Duration::zero());
  stats.restored_dirty.resize(nodes_.size(), false);

  // The recovery line is the last checkpoint index *every* process has
  // committed: a fault inside the timer-skew window leaves some processes
  // one index ahead, and TB's guarantees hold per-index, not across
  // indices. (Write-through has no indices; each process restores its
  // latest validated checkpoint, which the paper argues form a consistent
  // global state by construction.)
  std::optional<StableSeq> line_ndc;
  bool timered = true;
  for (ProcessNode* n : nodes_) {
    if (n->retired()) continue;
    if (n->tb() == nullptr) timered = false;
  }
  std::vector<std::optional<StableSeq>> wt_cut;
  if (timered) {
    // Storage faults can leave the record at the naive line (min of latest
    // indices) undecodable on some node, and injector-era lines can fail
    // the paper's oracles outright: hardened mode prefers the newest index
    // that is intact everywhere AND restores a clean global state, then
    // degrades to merely intact, then to per-node fallbacks.
    if (oracle_filter_) line_ndc = common_restorable_line(nodes_, verdicts_);
    if (!line_ndc) line_ndc = common_valid_line(nodes_);
    if (!line_ndc) {
      StableSeq min_ndc = ~StableSeq{0};
      for (ProcessNode* n : nodes_) {
        if (n->retired()) continue;
        min_ndc = std::min(min_ndc, n->sstore().latest_valid_ndc());
      }
      line_ndc = min_ndc;
    }
  } else if (oracle_filter_) {
    // Hardened index-less recovery: per-node newest records rolled back
    // into a cut the oracles accept (write-latency skew / torn newest
    // records otherwise restore orphan receipts).
    wt_cut = consistent_write_through_cut(nodes_);
  }

  // Phase 1: every non-retired process rolls back to the line.
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    ProcessNode* n = nodes_[i];
    if (n->retired()) continue;
    const CheckpointRecord rec = n->restore_from_stable(
        epoch, i < wt_cut.size() && wt_cut[i] ? wt_cut[i] : line_ndc);
    // Rollback distance counts undone *computation*: work done between the
    // restored state and the fault. Repair downtime is not part of it.
    stats.rollback_distance[i] = fault_time - rec.state_time;
    stats.restored_dirty[i] = rec.dirty_bit;
  }

  // Phase 2: re-send unacked messages from the restored logs (after every
  // process is back, so nothing is delivered into a dead node).
  for (ProcessNode* n : nodes_) {
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
