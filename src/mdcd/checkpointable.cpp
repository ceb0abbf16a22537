#include "mdcd/checkpointable.hpp"

#include <algorithm>
#include <string>
#include <utility>

#include "common/assert.hpp"
#include "redundant/lanes.hpp"

namespace synergy {

CheckpointableProcess::CheckpointableProcess(const MdcdConfig& config,
                                             ProcessServices services,
                                             bool acks_at_consumption)
    : config_(config),
      services_(std::move(services)),
      acks_gated_(config.tracking == ContaminationTracking::kWatermark &&
                  !acks_at_consumption) {
  SYNERGY_EXPECTS(services_.now != nullptr);
  SYNERGY_EXPECTS(services_.transport != nullptr);
  SYNERGY_EXPECTS(services_.vstore != nullptr);
  SYNERGY_EXPECTS(services_.app != nullptr);
}

void CheckpointableProcess::trace(TraceKind kind, std::string_view detail,
                                  std::uint64_t a, std::uint64_t b) const {
  if (tracing()) {
    services_.trace->record(current_time(), self(), kind, std::string(detail),
                            a, b);
  }
}

void CheckpointableProcess::set_ndc_provider(std::function<StableSeq()> fn) {
  SYNERGY_EXPECTS(fn != nullptr);
  ndc_provider_ = std::move(fn);
}

void CheckpointableProcess::contamination_cleared() {
  flush_deferred_acks();
  if (contamination_cleared_) contamination_cleared_();
}

// ---- Events -------------------------------------------------------------------

void CheckpointableProcess::defer(Deferred op) {
  deferred_.push_back(std::move(op));
  ++deferred_ops_;
}

void CheckpointableProcess::hold(LocalOp op) { defer(op); }

void CheckpointableProcess::on_app_send(bool external, std::uint64_t input) {
  if (!alive_) return;
  if (blocking_) {
    defer(SendReq{external, input});
    return;
  }
  do_app_send(external, input);
}

void CheckpointableProcess::on_message(const Message& m) {
  if (!alive_) return;
  trace(TraceKind::kReceive, to_string(m.kind), m.sn, m.transport_seq);
  if (m.kind == MsgKind::kPassedAt) {
    // Modified protocol: passed-AT notifications are monitored even during
    // a blocking period (paper §3, modification 2). Original protocol:
    // blocking holds every message.
    if (blocking_ && config_.variant == MdcdVariant::kOriginal) {
      trace(TraceKind::kHoldBlocked, "passed_AT");
      defer(m);
      return;
    }
    process_passed_at(m);
    return;
  }
  if (blocking_) {
    trace(TraceKind::kHoldBlocked, to_string(m.kind), m.sn);
    defer(m);
    return;
  }
  process_app_message(m);
}

void CheckpointableProcess::process_passed_at(const Message& m) {
  if (!consume_or_drop(m)) return;
  services_.transport->mark_consumed(m);
  // Validation notifications are acknowledged immediately: their effect
  // is a monotone watermark, so redelivery after a rollback is harmless.
  services_.transport->ack(m);
  do_passed_at(m);
}

void CheckpointableProcess::process_app_message(const Message& m) {
  if (!consume_or_drop(m)) return;
  do_app_message(m);
  // Marking and acking come after the engine's handler ran: the Type-1
  // checkpoint it may have established must capture a transport state
  // that does not yet include `m`, and consuming a dirty message may set
  // the contamination flag, deferring the ack.
  services_.transport->mark_consumed(m);
  settle_ack(m);
}

bool CheckpointableProcess::consume_or_drop(const Message& m) {
  const std::uint32_t fence =
      m.dirty ? std::max(fence_all_, fence_dirty_) : fence_all_;
  if (m.epoch < fence) {
    // Stale incarnation: acknowledge (the sender's log entry is moot) but
    // never let it touch the application.
    services_.transport->mark_consumed(m);
    services_.transport->ack(m);
    trace(TraceKind::kStaleDrop, to_string(m.kind), m.sn, m.epoch);
    return false;
  }
  if (services_.transport->already_consumed(m)) {
    trace(TraceKind::kDuplicate, to_string(m.kind), m.sn, m.transport_seq);
    if (m.kind == MsgKind::kPassedAt) {
      services_.transport->ack(m);
    } else {
      settle_ack(m);  // duplicate of a consumption that may be unanchored
    }
    return false;
  }
  return true;
}

// ---- Acks ---------------------------------------------------------------------

void CheckpointableProcess::settle_ack(const Message& m) {
  if (acks_gated_ && contamination_flag()) {
    deferred_acks_.push_back(AckKey{m.sender, m.transport_seq});
    return;
  }
  services_.transport->ack(m);
}

void CheckpointableProcess::flush_deferred_acks() {
  for (const AckKey& key : deferred_acks_) {
    Message m;
    m.sender = key.sender;
    m.transport_seq = key.transport_seq;
    services_.transport->ack(m);
  }
  deferred_acks_.clear();
}

// ---- Blocking -----------------------------------------------------------------

void CheckpointableProcess::begin_blocking() {
  SYNERGY_EXPECTS(!blocking_);
  blocking_ = true;
  trace(TraceKind::kBlockStart);
}

void CheckpointableProcess::end_blocking() {
  SYNERGY_EXPECTS(blocking_);
  blocking_ = false;
  trace(TraceKind::kBlockEnd);
  // Drain deferred operations in arrival order. Handlers may re-enter
  // blocking only from the TB layer, which never does so synchronously
  // here; new deferrals during the drain would indicate a logic error.
  SmallVec<Deferred, 4> pending = std::move(deferred_);
  deferred_.clear();  // moved-from is already empty; be explicit
  for (auto& op : pending) {
    if (!alive_) break;
    if (const auto* send = std::get_if<SendReq>(&op)) {
      do_app_send(send->external, send->input);
    } else if (const auto* local = std::get_if<LocalOp>(&op)) {
      local->run(*this, local->input);
    } else {
      const Message& m = std::get<Message>(op);
      if (m.kind == MsgKind::kPassedAt) {
        process_passed_at(m);
      } else {
        process_app_message(m);
      }
    }
  }
}

// ---- Coordination helpers -----------------------------------------------------

bool CheckpointableProcess::ndc_gate_ok(const Message& m) {
  if (config_.variant == MdcdVariant::kOriginal) return true;
  StableSeq expected = ndc();
  if (config_.gate_mode == NdcGateMode::kBlockingAware && blocking_ &&
      contamination_flag() && expected > 0) {
    // Our in-progress checkpoint already carries the incremented Ndc; a
    // peer that has not expired yet reports against the previous line.
    expected -= 1;
  }
  if (m.ndc == expected) return true;
  trace(TraceKind::kNdcGateReject, {}, m.ndc, expected);
  return false;
}

void CheckpointableProcess::fence_all_below(std::uint32_t epoch) {
  fence_all_ = std::max(fence_all_, epoch);
}

void CheckpointableProcess::fence_dirty_below(std::uint32_t epoch) {
  fence_dirty_ = std::max(fence_dirty_, epoch);
}

// ---- Checkpointing ------------------------------------------------------------

CheckpointRecord CheckpointableProcess::make_record(CkptKind kind) const {
  // Vote before any capture: a checkpoint must never snapshot an outvoted
  // lane's corruption. A masked vote repairs the primary in place first; an
  // unmaskable divergence still captures (the rollback the voter's caller
  // requests will supersede this record anyway).
  if (services_.lanes) services_.lanes->vote();
  CheckpointRecord rec;
  rec.kind = kind;
  rec.owner = self();
  rec.established_at = current_time();
  rec.state_time = rec.established_at;
  rec.dirty_bit = contamination_flag();
  rec.ndc = ndc();
  rec.app_state = SharedBytes(services_.app->snapshot());
  rec.protocol_state = SharedBytes(snapshot_protocol_state());
  rec.transport_state = SharedBytes(services_.transport->snapshot_state());
  const std::span<const Message> unacked = services_.transport->unacked();
  rec.unacked.assign(unacked.begin(), unacked.end());
  rec.views = ViewRef{views_, views_->mark()};
  if (record_observer_) record_observer_(rec);
  return rec;
}

void CheckpointableProcess::restore_from_record(
    const CheckpointRecord& record) {
  services_.app->restore(record.app_state);
  restore_protocol_state(record.protocol_state, record.views.log.get());
  services_.transport->restore_state(record.transport_state);
  services_.transport->restore_unacked(record.unacked);
  deferred_.clear();
  deferred_acks_.clear();  // the rolled-back consumptions never happened
  blocking_ = false;
  // Every replica realigns with the restored primary; latent lane faults
  // were erased by the rollback (counted silent, not detected).
  if (services_.lanes) services_.lanes->resync_after_restore();
}

Bytes CheckpointableProcess::snapshot_protocol_state() const {
  Bytes blob = encode_protocol_state(views_->mark());
  ++protocol_encodes_;
  protocol_bytes_encoded_ += blob.size();
  return blob;
}

void CheckpointableProcess::restore_protocol_state(const Bytes& state) {
  restore_protocol_state(state, views_.get());
}

void CheckpointableProcess::restore_protocol_state(const Bytes& state,
                                                   const ViewHistory* views) {
  const ViewMark mark = decode_protocol_state(state);
  // Copy-on-restore (DESIGN.md §19): the records sharing the old history
  // keep reading it.
  views_ = views ? views->fork(mark) : std::make_shared<ViewHistory>();
}

}  // namespace synergy
