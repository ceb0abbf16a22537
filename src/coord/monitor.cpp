#include "coord/monitor.hpp"

#include <algorithm>
#include <cmath>
#include <unordered_set>
#include <utility>

#include "common/assert.hpp"
#include "coord/hw_recovery.hpp"
#include "coord/reline.hpp"

namespace synergy {

AssumptionMonitor::AssumptionMonitor(Simulator& sim, Network& net,
                                     ClockEnsemble& clocks,
                                     std::vector<ProcessNode*> nodes,
                                     const MonitorParams& params,
                                     TraceLog* trace, LineVerdicts& verdicts)
    : sim_(sim), net_(net), clocks_(clocks), nodes_(std::move(nodes)),
      params_(params), trace_(trace), verdicts_(verdicts) {
  SYNERGY_EXPECTS(params_.sweep_interval > Duration::zero());
}

void AssumptionMonitor::install() {
  SYNERGY_EXPECTS(!installed_);
  installed_ = true;
  net_.set_delivery_bound_observer(
      [this](const Message& m, Duration lateness) {
        on_late_delivery(m, lateness);
      });
  for (ProcessNode* n : nodes_) {
    if (TbEngine* tb = n->tb()) {
      const ProcessId p = n->id();
      tb->set_overrun_observer([this, p](Duration actual, Duration allowed) {
        on_overrun(p, actual, allowed);
      });
    }
  }
  sim_.schedule_after(params_.sweep_interval, [this] { sweep(); });
}

bool AssumptionMonitor::quiescent() const {
  for (ProcessNode* n : nodes_) {
    if (!n->retired() && n->crashed()) return false;
  }
  return true;
}

bool AssumptionMonitor::link_excuses(ProcessId p, TimePoint sent_at) const {
  if (!link_oracle_.impaired) return false;
  // Impaired right now, or the traffic predates the link's return to
  // service: lateness (or loss) is the declared epoch's doing, not a
  // broken delivery-bound assumption.
  return link_oracle_.impaired(p) || sent_at < link_oracle_.last_restored(p);
}

void AssumptionMonitor::on_late_delivery(const Message& m, Duration lateness) {
  if (link_excuses(m.sender, m.sent_at) || link_excuses(m.receiver, m.sent_at)) {
    ++stats_.disconnect_deferrals;
    if (trace_) {
      trace_->record(sim_.now(), m.receiver, TraceKind::kDisconnectDeferral,
                     "late_delivery",
                     static_cast<std::uint64_t>(lateness.count()));
    }
    return;
  }
  ++stats_.bound_violations;
  if (trace_) {
    trace_->record(sim_.now(), m.receiver, TraceKind::kBoundViolation, {},
                   static_cast<std::uint64_t>(lateness.count()));
  }
  if (!params_.degrade) return;
  // The delivery took tmax + lateness; widen every engine's assumed bound
  // past that so future tau(b) windows cover deliveries this slow. The
  // widening is monotone, so repeated reports of the same slowdown settle
  // after the first.
  const Duration observed = net_.params().tmax + lateness;
  const auto widened = Duration::micros(static_cast<std::int64_t>(
      std::ceil(static_cast<double>(observed.count()) * params_.widen_margin)));
  for (ProcessNode* n : nodes_) {
    if (n->retired()) continue;
    if (TbEngine* tb = n->tb()) {
      if (tb->widen_delay_bound(widened)) ++stats_.tau_widenings;
    }
  }
}

void AssumptionMonitor::on_overrun(ProcessId p, Duration actual,
                                   Duration allowed) {
  (void)p;
  (void)actual;
  (void)allowed;  // already traced by the engine
  ++stats_.blocking_overruns;
  if (!params_.degrade) return;
  // A span outside the drift envelope means some clock is running beyond
  // rho. Re-anchoring the offsets is the only in-protocol remedy: it
  // restores the delta bound now and resets every engine's eps term.
  // (During a resync blackout the request is recorded as missed.)
  ++stats_.forced_resyncs;
  if (trace_) {
    trace_->record(sim_.now(), p, TraceKind::kDegradation, "force_resync");
  }
  clocks_.resync_all();
}

void AssumptionMonitor::sweep() {
  bool need_reline = false;
  if (quiescent()) {
    // CFCSS sweep: catch a broken signature chain *between* vote
    // boundaries, so a control-flow fault on an idle lane does not wait
    // for the next send/capture to be noticed. LaneSet repairs in place
    // (park the replica / restore the primary from a healthy donor) and
    // raises the confidence-loss event into the MDCD engine itself.
    for (ProcessNode* n : nodes_) {
      if (n->retired() || n->crashed()) continue;
      if (LaneSet* lanes = n->lanes()) {
        const std::size_t found = lanes->scan_signatures();
        if (found == 0) continue;
        stats_.signature_mismatches += found;
        stats_.lane_repairs += found;
        if (trace_) {
          trace_->record(sim_.now(), n->id(), TraceKind::kDegradation,
                         "lane_repair", found);
        }
      }
    }
    // Undelivered-message watchdog: a message still unacked a full sweep
    // after it was first seen has been dropped (or its ack has) — in-spec
    // delivery plus validation-gated acknowledgment settles far faster.
    // Resending is always safe (receivers suppress duplicates and re-ack),
    // and it is what closes a validation-knowledge gap: a lost passed_AT
    // leaves the sender believing a segment is still unvalidated while the
    // receivers have moved on.
    if (prev_unacked_.size() != nodes_.size()) {
      prev_unacked_.assign(nodes_.size(), {});
      was_impaired_.assign(nodes_.size(), 0);
      unacked_over_.assign(nodes_.size(), 0);
    }
    for (std::size_t i = 0; i < nodes_.size(); ++i) {
      ProcessNode* n = nodes_[i];
      if (n->retired()) {
        prev_unacked_[i].clear();
        continue;
      }
      const bool impaired =
          link_oracle_.impaired && link_oracle_.impaired(n->id());
      if (impaired) {
        // Declared disconnection epoch: traffic parked unacked behind the
        // link is expected, not a violation. Defer (once per node per
        // sweep), restart the staleness clock, and remember to drain the
        // backlog as soon as the link returns.
        ++stats_.disconnect_deferrals;
        if (trace_) {
          trace_->record(sim_.now(), n->id(), TraceKind::kDisconnectDeferral,
                         "undelivered", n->endpoint().unacked_count());
        }
        prev_unacked_[i].clear();
        was_impaired_[i] = 1;
        continue;
      }
      if (was_impaired_[i]) {
        // First sweep after reconnection: resend proactively instead of
        // waiting a further staleness round. Not a violation — the epoch
        // explained the backlog.
        was_impaired_[i] = 0;
        if (params_.degrade && n->endpoint().unacked_count() > 0) {
          ++stats_.forced_resends;
          if (trace_) {
            trace_->record(sim_.now(), n->id(), TraceKind::kDegradation,
                           "reconnect_resend", n->endpoint().unacked_count());
          }
          n->resend_unacked();
        }
        prev_unacked_[i].clear();
        continue;
      }
      const std::unordered_set<std::uint64_t> prev(prev_unacked_[i].begin(),
                                                   prev_unacked_[i].end());
      std::vector<std::uint64_t> current;
      std::size_t stale = 0;
      for (const Message& m : n->endpoint().unacked()) {
        current.push_back(m.transport_seq);
        if (prev.contains(m.transport_seq)) ++stale;
      }
      const std::size_t unacked_now = current.size();
      prev_unacked_[i] = std::move(current);

      // Unacked-log bound: multi-epoch partitions (or a peer that stopped
      // acking) grow the log without limit; count the excursion once and
      // try to drain it. The resend either clears entries (peer alive) or
      // confirms the drop for the staleness watchdog.
      if (unacked_now > params_.unacked_bound) {
        if (!unacked_over_[i]) {
          unacked_over_[i] = 1;
          ++stats_.unacked_overflows;
          if (trace_) {
            trace_->record(sim_.now(), n->id(), TraceKind::kBoundViolation,
                           "unacked_overflow", unacked_now);
          }
          if (params_.degrade) {
            ++stats_.forced_resends;
            if (trace_) {
              trace_->record(sim_.now(), n->id(), TraceKind::kDegradation,
                             "drain_unacked", unacked_now);
            }
            n->resend_unacked();
            prev_unacked_[i].clear();
            continue;
          }
        }
      } else {
        unacked_over_[i] = 0;  // excursion over: re-arm the latch
      }

      if (stale == 0) continue;
      stats_.undelivered_messages += stale;
      if (trace_) {
        trace_->record(sim_.now(), n->id(), TraceKind::kBoundViolation,
                       "undelivered", stale);
      }
      if (params_.degrade) {
        ++stats_.forced_resends;
        if (trace_) {
          trace_->record(sim_.now(), n->id(), TraceKind::kDegradation,
                         "resend_unacked", stale);
        }
        n->resend_unacked();
        prev_unacked_[i].clear();  // resent just now: restart the clock
      }
    }

    // ABFT scrub: recompute the block checksums between AT runs so a
    // latent flip is noticed before the next external message would carry
    // its taint out. A damaged encoding feeds the MDCD confidence
    // machinery exactly like a failed signature check; the latch keeps one
    // episode from re-counting every sweep until an AT-triggered recovery
    // clears it.
    if (abft_flagged_.size() != nodes_.size()) {
      abft_flagged_.assign(nodes_.size(), 0);
    }
    for (std::size_t i = 0; i < nodes_.size(); ++i) {
      ProcessNode* n = nodes_[i];
      if (n->retired() || n->crashed() ||
          n->app().mode() != WorkloadKind::kAbft) {
        continue;
      }
      if (n->app().abft_check_ok()) {
        abft_flagged_[i] = 0;
        continue;
      }
      if (abft_flagged_[i]) continue;
      abft_flagged_[i] = 1;
      ++stats_.abft_scrub_detections;
      if (trace_) {
        trace_->record(sim_.now(), n->id(), TraceKind::kAbftScrub, {},
                       n->id().value());
      }
      if (params_.degrade) n->engine().on_confidence_loss();
    }

    for (ProcessNode* n : nodes_) {
      if (n->retired() || !n->has_stable_storage()) continue;
      StableStore& store = n->sstore();

      // Stable-write deadline watchdog: a write whose retry budget ran out
      // was silently dropped; the checkpoint it carried would be a hole in
      // the node's history. Degrade by forcing the very record that failed
      // through as a write-through commit.
      if (auto abandoned = store.take_abandoned()) {
        ++stats_.write_timeouts;
        if (trace_) {
          trace_->record(sim_.now(), n->id(), TraceKind::kStableTimeout, {},
                         abandoned->ndc);
        }
        if (params_.degrade) {
          ++stats_.forced_write_throughs;
          if (trace_) {
            trace_->record(sim_.now(), n->id(), TraceKind::kDegradation,
                           "write_through", abandoned->ndc);
          }
          store.commit_now(std::move(*abandoned));
        }
      }

      // Latent-corruption scan: the newest record no longer decodes, so a
      // recovery through this node would roll deeper than the line says.
      if (store.latest_valid_ndc() < store.latest_ndc()) {
        ++stats_.corrupt_records;
        if (trace_) {
          trace_->record(sim_.now(), n->id(), TraceKind::kCorruptRecord, {},
                         store.latest_ndc());
        }
        need_reline = true;
      }
    }
  }

  if (need_reline && params_.degrade && quiescent()) reestablish_line();

  // Line self-audit: run the paper's consistency theorem over the records
  // a recovery would actually restore. Catches what the local detectors
  // cannot see — records cut while validation knowledge was split.
  if (quiescent() && !repair_pending_) {
    if (const std::size_t v = line_violations(); v > 0) {
      stats_.line_inconsistencies += v;
      if (trace_) {
        trace_->record(sim_.now(), ProcessId{0}, TraceKind::kLineInconsistent,
                       {}, v);
      }
      if (params_.degrade) start_line_repair();
    }
  }

  sim_.schedule_after(params_.sweep_interval, [this] { sweep(); });
}

std::size_t AssumptionMonitor::resend_all() {
  std::size_t resent = 0;
  for (ProcessNode* n : nodes_) {
    if (n->retired()) continue;
    resent += n->resend_unacked();
  }
  return resent;
}

std::size_t AssumptionMonitor::line_violations() {
  std::vector<Node*> participants;
  for (ProcessNode* n : nodes_) {
    if (n->retired()) continue;
    if (!n->has_stable_storage() || n->tb() == nullptr) return 0;
    participants.push_back(n);
  }
  if (participants.empty()) return 0;
  const auto ndc = common_valid_line(participants);
  if (!ndc) return 0;
  const auto line = stable_line_at(participants, *ndc);
  if (!line) return 0;  // mid-commit: skip this audit
  return verdicts_.consistency(*line);
}

void AssumptionMonitor::start_line_repair() {
  // Step 1: resend every unacked message. If the inconsistency came from a
  // dropped validation notification, the duplicate delivers it and the
  // sender's contamination flag settles to the receivers' view.
  repair_pending_ = true;
  ++stats_.forced_resends;
  const std::size_t resent = resend_all();
  if (trace_) {
    trace_->record(sim_.now(), ProcessId{0}, TraceKind::kDegradation,
                   "repair_resend", resent);
  }
  // Step 2 after the resent messages (and any acks they trigger) settle:
  // well past a round trip even at injector-delayed latencies.
  const Duration settle =
      Duration::micros(net_.params().tmax.count() * 8) + Duration::millis(10);
  sim_.schedule_after(settle, [this] { finish_line_repair(); });
}

void AssumptionMonitor::finish_line_repair() {
  repair_pending_ = false;
  // A crash/recovery got in between: the recovery refreshes the line
  // itself, and the next sweep re-audits.
  if (!quiescent()) return;
  if (line_violations() == 0) return;  // healed by resend + later boundary
  reestablish_line();
  // If the reline still leaves an inconsistency (a repair resend was itself
  // dropped), the next sweep detects it and starts over.
}

void AssumptionMonitor::reestablish_line() {
  // Shared with the System's handoff path (coord/reline.hpp): the same
  // coordinated same-instant write-through maneuver serves line repair and
  // post-migration re-anchoring alike.
  const auto line = reestablish_recovery_line(
      sim_, std::vector<Node*>(nodes_.begin(), nodes_.end()));
  if (!line) return;  // no common index space to re-line in
  ++stats_.relines;
  if (trace_) {
    trace_->record(sim_.now(), ProcessId{0}, TraceKind::kDegradation, "reline",
                   *line);
  }
}

}  // namespace synergy
