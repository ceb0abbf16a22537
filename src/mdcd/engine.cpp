#include "mdcd/engine.hpp"

#include <algorithm>
#include <string>
#include <utility>

#include "redundant/lanes.hpp"

namespace synergy {

MdcdEngine::MdcdEngine(Role role, const MdcdConfig& config,
                       ProcessServices services)
    : CheckpointableProcess(
          config, std::move(services),
          /*acks_at_consumption=*/config.variant == MdcdVariant::kOriginal &&
              role == Role::kP1Act),
      role_(role) {}

void MdcdEngine::set_validation_observer(std::function<void()> fn) {
  validation_observer_ = std::move(fn);
}

void MdcdEngine::notify_validation() {
  // A validation event restores full redundant coverage: parked lanes are
  // re-synced from the just-validated primary before any observer (e.g.
  // the write-through committer) captures state.
  if (services_.lanes) services_.lanes->resync_parked();
  if (validation_observer_) validation_observer_();
}

// ---- Redundant-execution lanes ---------------------------------------------

void MdcdEngine::app_apply_message(std::uint64_t payload,
                                   bool payload_tainted) {
  if (services_.lanes) {
    services_.lanes->apply_message(payload, payload_tainted);
  } else {
    services_.app->apply_message(payload, payload_tainted);
  }
}

void MdcdEngine::app_local_step(std::uint64_t input) {
  if (services_.lanes) {
    services_.lanes->local_step(input);
  } else {
    services_.app->local_step(input);
  }
}

void MdcdEngine::app_corrupt(std::uint64_t noise) {
  if (services_.lanes) {
    services_.lanes->corrupt(noise);
  } else {
    services_.app->corrupt(noise);
  }
}

bool MdcdEngine::vote_lanes() {
  if (!services_.lanes) return true;
  const bool ok = services_.lanes->vote_for_send();
  // Parked lanes normally wait for a validation event to be re-synced.
  // Once guarded mode ends, MDCD is on leave and validation events stop
  // entirely — but every state is high-confidence by construction (paper
  // §4.2), so an agreeing vote is as validated as the system gets. Without
  // this, one masked fault after takeover would degrade TMR to a DWC pair
  // for the rest of the mission.
  if (ok && !guarded_) services_.lanes->resync_parked();
  return ok;
}

void MdcdEngine::on_confidence_loss() {
  if (!alive_) return;
  if (in_blocking()) {
    trace(TraceKind::kHoldBlocked, "confidence_loss");
    hold({[](CheckpointableProcess& p, std::uint64_t) {
            static_cast<MdcdEngine&>(p).process_confidence_loss();
          },
          0});
    return;
  }
  process_confidence_loss();
}

void MdcdEngine::process_confidence_loss() {
  trace(TraceKind::kConfidenceLoss);
  // Anchor the last trusted state immediately before admitting suspicion,
  // mirroring the Type-1 placement before consuming a dirty message.
  if (!contamination_flag()) {
    establish_volatile_checkpoint(CkptKind::kType1);
  }
  note_confidence_loss();
}

void MdcdEngine::note_confidence_loss() { mark_dirty(); }

// ---- Workload events -------------------------------------------------------

void MdcdEngine::on_local_step(std::uint64_t input) {
  if (!alive_) return;
  if (in_blocking()) {
    hold({[](CheckpointableProcess& p, std::uint64_t in) {
            static_cast<MdcdEngine&>(p).on_local_step(in);
          },
          input});
    return;
  }
  app_local_step(input);
}

// ---- Coordination helpers -----------------------------------------------------

bool MdcdEngine::effectively_dirty(const Message& m) {
  // Validity-VIEW suspicion only. The dirty-bit / Type-1 decision always
  // takes the piggybacked flag at face value: a contaminated sender's
  // stable contents are a pre-send copy, so the receiver's contents must
  // be a pre-receipt copy too — filtering the flag would let a current-
  // state receiver checkpoint reflect a receipt the sender's copy never
  // sent. A stale flag therefore costs a false-alarm anchor (cleared by
  // the next covering validation), never a line split.
  if (!m.dirty) return false;
  if (config_.tracking == ContaminationTracking::kPaperDirtyBit) return true;
  if (m.contam_sn <= validated_w_) {
    trace(TraceKind::kStaleDirtyIgnored, {}, m.contam_sn, validated_w_);
    return false;
  }
  return true;
}

void MdcdEngine::mark_dirty() {
  if (dirty_) return;
  dirty_ = true;
  trace(TraceKind::kDirtySet);
}

void MdcdEngine::clear_dirty() {
  if (!dirty_) return;
  dirty_ = false;
  dirty_contam_ = 0;
  trace(TraceKind::kDirtyClear);
  if (!contamination_flag()) contamination_cleared();
}

void MdcdEngine::note_validation(MsgSeq watermark) {
  validated_w_ = std::max(validated_w_, watermark);
  if (config_.tracking == ContaminationTracking::kPaperDirtyBit) {
    views_->validate_all();
  } else {
    views_->validate_covered(watermark);
  }
}

bool MdcdEngine::validation_covers_dirt(MsgSeq watermark) const {
  if (config_.tracking == ContaminationTracking::kPaperDirtyBit) return true;
  return dirty_contam_ <= watermark;
}

void MdcdEngine::absorb_contamination(const Message& m) {
  dirty_contam_ = std::max(dirty_contam_, m.contam_sn);
}

// ---- Message construction ------------------------------------------------------

Message MdcdEngine::base_message(MsgKind kind, ProcessId to,
                                 std::uint64_t payload, bool tainted) const {
  Message m;
  m.kind = kind;
  m.receiver = to;
  m.payload = payload;
  m.tainted = tainted;
  m.ndc = ndc();
  m.epoch = epoch_;
  return m;
}

void MdcdEngine::send_recorded(Message m, bool suspect) {
  const ProcessId to = m.receiver;
  const MsgSeq sn = m.sn;
  const MsgSeq contam = m.contam_sn;
  const MsgKind kind = m.kind;
  const std::uint64_t seq = services_.transport->send(std::move(m));
  if (kind != MsgKind::kPassedAt) {
    views_->add_sent(MsgView{to, seq, sn, kind, suspect, contam});
  }
  if (tracing()) {
    trace(TraceKind::kSend,
          std::string(to_string(kind)) + "->" + to_string(to), sn, seq);
  }
}

void MdcdEngine::record_recv(const Message& m, bool suspect) {
  if (m.kind != MsgKind::kPassedAt) {
    views_->add_recv(MsgView{m.sender, m.transport_seq, m.sn, m.kind,
                             suspect, m.contam_sn});
  }
}

// ---- Checkpointing ---------------------------------------------------------------

void MdcdEngine::establish_volatile_checkpoint(CkptKind kind) {
  services_.vstore->save(make_record(kind));
  ++vckpts_;
  trace(TraceKind::kCkptVolatile, to_string(kind));
}

Bytes MdcdEngine::encode_protocol_state(const ViewMark& views) const {
  ByteWriter w;
  w.reserve(64);  // scalars + view mark = 42 B, then the role state
  w.u8(dirty_ ? 1 : 0);
  w.u64(msg_sn_);
  w.u8(guarded_ ? 1 : 0);
  w.u64(validated_w_);
  w.u64(dirty_contam_);
  views.serialize(w);
  serialize_role_state(w);
  return w.take();
}

ViewMark MdcdEngine::decode_protocol_state(const Bytes& state) {
  ByteReader r(state);
  dirty_ = r.u8() != 0;
  msg_sn_ = r.u64();
  guarded_ = r.u8() != 0;
  validated_w_ = r.u64();
  dirty_contam_ = r.u64();
  const ViewMark mark = ViewMark::deserialize(r);
  deserialize_role_state(r);
  return mark;
}

void MdcdEngine::serialize_role_state(ByteWriter&) const {}
void MdcdEngine::deserialize_role_state(ByteReader&) {}

}  // namespace synergy
