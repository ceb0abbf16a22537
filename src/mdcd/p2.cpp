#include "mdcd/p2.hpp"

#include "common/assert.hpp"

namespace synergy {

P2Engine::P2Engine(const MdcdConfig& config, ProcessServices services)
    : MdcdEngine(Role::kP2, config, std::move(services)) {
  SYNERGY_EXPECTS(services_.at != nullptr);
}

void P2Engine::do_app_send(bool external, std::uint64_t input) {
  // Vote before computing the outgoing value; a divergence aborts the send
  // (the voter already requested a recovery-line rollback).
  if (!vote_lanes()) return;
  app_local_step(input);
  const std::uint64_t payload = services_.app->output();
  const bool tainted = services_.app->tainted();

  if (external) {
    if (dirty_) {
      if (services_.at->run(tainted)) {
        trace(TraceKind::kAtPass, "external", msg_sn_ + 1);
        // Our AT validates our whole state, and with it every component-1
        // message we have consumed (up to msg_SN_P1act).
        note_validation(p1act_sn_seen_);
        clear_dirty();
        if (config_.variant == MdcdVariant::kOriginal) {
          establish_volatile_checkpoint(CkptKind::kType2);
        }
        notify_validation();
        ++msg_sn_;
        Message ext =
            base_message(MsgKind::kExternal, kDeviceId, payload, tainted);
        ext.sn = msg_sn_;
        send_recorded(std::move(ext), /*suspect=*/false);
        // Notify both component-1 processes; the piggybacked SN is the
        // last P1act message covered by this validation (Figure 10).
        for (ProcessId peer : {kP1Act, kP1Sdw}) {
          Message note = base_message(MsgKind::kPassedAt, peer, 0, false);
          note.sn = p1act_sn_seen_;
          send_recorded(std::move(note), /*suspect=*/false);
        }
      } else {
        trace(TraceKind::kAtFail, "external", msg_sn_ + 1);
        services_.request_sw_recovery(self());
      }
      return;
    }
    // Outgoing message from a clean state: no AT needed (Figure 10).
    ++msg_sn_;
    Message ext =
        base_message(MsgKind::kExternal, kDeviceId, payload, tainted);
    ext.sn = msg_sn_;
    send_recorded(std::move(ext), /*suspect=*/false);
    return;
  }

  // Internal message, multicast to both component-1 processes with the
  // dirty bit piggybacked (Figure 10).
  ++msg_sn_;
  for (ProcessId peer : {kP1Act, kP1Sdw}) {
    if (peer == kP1Act && !guarded_) continue;  // P1act retired
    Message m = base_message(MsgKind::kInternal, peer, payload, tainted);
    m.sn = msg_sn_;
    m.dirty = dirty_;
    m.contam_sn = dirty_ ? dirty_contam_ : 0;
    send_recorded(std::move(m), /*suspect=*/dirty_);
  }
}

void P2Engine::do_passed_at(const Message& m) {
  if (!ndc_gate_ok(m)) return;
  p1act_sn_seen_ = std::max(p1act_sn_seen_, m.sn);
  note_validation(m.sn);
  if (dirty_ && validation_covers_dirt(m.sn)) {
    clear_dirty();
    if (config_.variant == MdcdVariant::kOriginal) {
      establish_volatile_checkpoint(CkptKind::kType2);
    }
  }
  notify_validation();
}

void P2Engine::do_app_message(const Message& m) {
  if (m.kind == MsgKind::kInternal &&
      (m.sender == kP1Act || m.sender == kP1Sdw)) {
    p1act_sn_seen_ = std::max(p1act_sn_seen_, m.sn);
  }
  // The raw flag drives contamination (anchor alignment with the sender's
  // copy); the watermark-scoped flag drives only the validity view.
  if (m.dirty && !dirty_) {
    establish_volatile_checkpoint(CkptKind::kType1);
    mark_dirty();
  }
  if (m.dirty) absorb_contamination(m);
  record_recv(m, effectively_dirty(m));
  app_apply_message(m.payload, m.tainted);
  trace(TraceKind::kDeliverApp, to_string(m.kind), m.sn);
}

void P2Engine::serialize_role_state(ByteWriter& w) const {
  w.u64(p1act_sn_seen_);
}

void P2Engine::deserialize_role_state(ByteReader& r) {
  p1act_sn_seen_ = r.u64();
}

}  // namespace synergy
