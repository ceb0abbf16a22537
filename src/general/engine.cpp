#include "general/engine.hpp"

#include <algorithm>
#include <utility>

#include "common/assert.hpp"

namespace synergy {

namespace {

Bytes encode_aux(const ContamVector& contam) {
  ByteWriter w;
  contam_serialize(contam, w);
  return w.take();
}

ContamVector decode_aux(const Message& m) {
  if (m.aux.empty()) return {};
  ByteReader r(m.aux);
  return contam_deserialize(r);
}

bool sorted_contains(const SmallVec<std::uint32_t, 8>& set,
                     std::uint32_t value) {
  for (const std::uint32_t c : set) {
    if (c >= value) return c == value;
  }
  return false;
}

}  // namespace

const char* to_string(GProcessKind kind) {
  switch (kind) {
    case GProcessKind::kActive: return "active";
    case GProcessKind::kShadow: return "shadow";
    case GProcessKind::kRegular: return "regular";
  }
  return "?";
}

GeneralEngine::GeneralEngine(const Topology& topology, ProcessId self,
                             const MdcdConfig& config,
                             ProcessServices services)
    : topology_(topology), component_(topology.component_of(self)),
      config_(config), services_(std::move(services)) {
  SYNERGY_EXPECTS(services_.now != nullptr);
  SYNERGY_EXPECTS(services_.transport != nullptr);
  SYNERGY_EXPECTS(services_.vstore != nullptr);
  SYNERGY_EXPECTS(services_.app != nullptr);
  const auto& spec = topology.components()[component_];
  if (topology.is_shadow(self)) {
    kind_ = GProcessKind::kShadow;
  } else if (spec.confidence == Confidence::kLow) {
    kind_ = GProcessKind::kActive;
    SYNERGY_EXPECTS(services_.at != nullptr);
  } else {
    kind_ = GProcessKind::kRegular;
    SYNERGY_EXPECTS(services_.at != nullptr);
  }
}

void GeneralEngine::trace(TraceKind kind, std::string_view detail,
                          std::uint64_t a, std::uint64_t b) const {
  if (services_.trace) {
    services_.trace->record(current_time(), self(), kind, std::string(detail),
                            a, b);
  }
}

bool GeneralEngine::dirty() const { return dirty_bit_; }

bool GeneralEngine::pseudo_dirty() const {
  if (kind_ != GProcessKind::kActive) return false;
  return validated_.watermark(component_) < msg_sn_;
}

bool GeneralEngine::contamination_flag() const {
  return dirty() || pseudo_dirty();
}

void GeneralEngine::mark_component_failed_over(std::uint32_t c) {
  auto it = failed_over_.begin();
  while (it != failed_over_.end() && *it < c) ++it;
  if (it != failed_over_.end() && *it == c) return;
  failed_over_.insert(it, c);
}

// ---- Event entry points -----------------------------------------------------

void GeneralEngine::on_app_send(bool external, std::uint64_t input) {
  if (!alive_) return;
  if (blocking_) {
    deferred_.push_back(SendReq{external, input});
    return;
  }
  do_app_send(external, input);
}

void GeneralEngine::on_local_step(std::uint64_t input) {
  if (!alive_) return;
  if (blocking_) {
    deferred_.push_back(StepReq{input});
    return;
  }
  do_step(input);
}

void GeneralEngine::do_step(std::uint64_t input) {
  if (services_.sw_fault) {
    if (auto noise = services_.sw_fault->on_step()) {
      services_.app->corrupt(*noise);
    }
  }
  services_.app->local_step(input);
}

void GeneralEngine::on_confidence_loss() {
  if (!alive_) return;
  if (blocking_) {
    trace(TraceKind::kHoldBlocked, "confidence_loss");
    deferred_.push_back(ConfLossReq{});
    return;
  }
  do_confidence_loss();
}

void GeneralEngine::do_confidence_loss() {
  trace(TraceKind::kConfidenceLoss);
  // Same machinery as absorbing contaminated traffic, minus the absorption:
  // anchor the last-known-good state (when clean) and mark the process
  // dirty. With no new entry merged into absorbed_, any later validation
  // trivially covers the (unchanged) dependency set and clears the bit —
  // the AT has re-certified the state since the suspect window.
  capture_anchor(CkptKind::kType1);
  if (!dirty_bit_) {
    dirty_bit_ = true;
    trace(TraceKind::kCkptVolatile, "type1");
    trace(TraceKind::kDirtySet);
  }
}

void GeneralEngine::on_message(const Message& m) {
  if (!alive_) return;
  if (tracing()) {
    trace(TraceKind::kReceive, std::string(to_string(m.kind)), m.sn,
          m.transport_seq);
  }
  if (m.kind == MsgKind::kPassedAt) {
    // Modified semantics: validations are monitored during blocking.
    if (!consume_or_drop(m)) return;
    services_.transport->mark_consumed(m);
    services_.transport->ack(m);
    do_passed_at(m);
    return;
  }
  if (blocking_) {
    trace(TraceKind::kHoldBlocked, std::string(to_string(m.kind)), m.sn);
    deferred_.push_back(m);
    return;
  }
  process_message(m);
}

void GeneralEngine::process_message(const Message& m) {
  if (!consume_or_drop(m)) return;
  do_app_message(m);
  services_.transport->mark_consumed(m);
  settle_ack(m);
}

bool GeneralEngine::consume_or_drop(const Message& m) {
  const std::uint32_t fence =
      m.dirty ? std::max(fence_all_, fence_dirty_) : fence_all_;
  if (m.epoch < fence) {
    services_.transport->mark_consumed(m);
    services_.transport->ack(m);
    trace(TraceKind::kStaleDrop, std::string(to_string(m.kind)), m.sn,
          m.epoch);
    return false;
  }
  if (services_.transport->already_consumed(m)) {
    trace(TraceKind::kDuplicate, std::string(to_string(m.kind)), m.sn,
          m.transport_seq);
    if (m.kind == MsgKind::kPassedAt) {
      services_.transport->ack(m);
    } else {
      settle_ack(m);
    }
    return false;
  }
  return true;
}

bool GeneralEngine::ndc_gate_ok(const Message& m) {
  StableSeq expected = ndc_provider_();
  if (config_.gate_mode == NdcGateMode::kBlockingAware && blocking_ &&
      contamination_flag() && expected > 0) {
    expected -= 1;
  }
  if (m.ndc == expected) return true;
  trace(TraceKind::kNdcGateReject, {}, m.ndc, expected);
  return false;
}

// ---- Sending ------------------------------------------------------------------

ContamVector GeneralEngine::outgoing_contam(MsgSeq own_sn) const {
  ContamVector cv = absorbed_;
  if (kind_ == GProcessKind::kActive) {
    // Our own sends are a contamination source.
    cv.raise(component_, own_sn);
  }
  return cv;
}

void GeneralEngine::send_internal_multicast(std::uint64_t payload,
                                            bool tainted) {
  const ContamVector cv = outgoing_contam(msg_sn_);
  const bool suspect =
      kind_ == GProcessKind::kActive ? true : dirty();
  // One shared aux buffer for the whole multicast: every copy bumps a
  // refcount instead of re-encoding the vector per receiver.
  const SharedBytes aux = suspect ? SharedBytes(encode_aux(cv)) : SharedBytes{};
  const StableSeq ndc = ndc_provider_();
  Message m;
  m.kind = MsgKind::kInternal;
  m.sn = msg_sn_;
  m.ndc = ndc;
  m.epoch = epoch_;
  m.payload = payload;
  m.tainted = tainted;
  m.dirty = suspect;
  m.aux = aux;
  for (const PeerRoute& route : topology_.peer_routes(component_)) {
    const bool peer_failed_over = sorted_contains(failed_over_,
                                                  route.component);
    if (!peer_failed_over) {
      m.receiver = route.active;
      const std::uint64_t seq = services_.transport->send(m);
      sent_views_.push_back(GView{m.receiver, seq, msg_sn_,
                                  MsgKind::kInternal, suspect, cv});
      if (suspect) {
        ++suspect_views_;
        suspect_sent_.push_back(
            static_cast<std::uint32_t>(sent_views_.size() - 1));
      }
      if (tracing()) {
        trace(TraceKind::kSend,
              "internal->" + topology_.process_name(m.receiver), msg_sn_, seq);
      }
    }
    // Mirror to the peer's shadow, which consumes the same inputs.
    if (route.has_shadow) {
      m.receiver = route.shadow;
      const std::uint64_t tseq = services_.transport->send(m);
      sent_views_.push_back(GView{m.receiver, tseq, msg_sn_,
                                  MsgKind::kInternal, suspect, cv});
      if (suspect) {
        ++suspect_views_;
        suspect_sent_.push_back(
            static_cast<std::uint32_t>(sent_views_.size() - 1));
      }
    }
  }
}

void GeneralEngine::do_app_send(bool external, std::uint64_t input) {
  if (services_.sw_fault) {
    if (auto noise = services_.sw_fault->on_send()) {
      services_.app->corrupt(*noise);
    }
  }
  services_.app->local_step(input);
  const std::uint64_t payload = services_.app->output();
  const bool tainted = services_.app->tainted();

  if (kind_ == GProcessKind::kShadow && !takeover_done_) {
    // Suppress and log.
    ++msg_sn_;
    Message m;
    m.kind = external ? MsgKind::kExternal : MsgKind::kInternal;
    m.receiver = kDeviceId;  // rewritten at replay
    m.sn = msg_sn_;
    m.payload = payload;
    m.tainted = tainted;
    msg_log_.push_back(std::move(m));
    trace(TraceKind::kSuppressSend, external ? "external" : "internal",
          msg_sn_);
    return;
  }

  if (external) {
    const bool must_validate =
        kind_ == GProcessKind::kActive || contamination_flag();
    if (must_validate) {
      SYNERGY_ASSERT(services_.at != nullptr);
      if (!services_.at->run(tainted)) {
        trace(TraceKind::kAtFail, "external", msg_sn_ + 1);
        services_.request_sw_recovery(self());
        return;
      }
      ++msg_sn_;
      trace(TraceKind::kAtPass, "external", msg_sn_);
      // The AT validates our state: our absorbed dependencies and (active)
      // our own sends up to msg_sn_ are now covered.
      ContamVector coverage = outgoing_contam(msg_sn_);
      apply_validation(coverage);
      Message ext;
      ext.kind = MsgKind::kExternal;
      ext.receiver = kDeviceId;
      ext.sn = msg_sn_;
      ext.payload = payload;
      ext.tainted = tainted;
      ext.epoch = epoch_;
      services_.transport->send(ext);
      // Broadcast the validation to every other process; one shared aux
      // buffer serves the entire broadcast.
      Message note;
      note.kind = MsgKind::kPassedAt;
      note.sn = msg_sn_;
      note.ndc = ndc_provider_();
      note.epoch = epoch_;
      note.aux = SharedBytes(encode_aux(coverage));
      for (std::uint32_t p = 0; p < topology_.process_count(); ++p) {
        const ProcessId pid{p};
        if (pid == self()) continue;
        if (!topology_.is_shadow(pid) &&
            sorted_contains(failed_over_, topology_.component_of(pid))) {
          continue;  // retired active
        }
        note.receiver = pid;
        services_.transport->send(note);
      }
      return;
    }
    ++msg_sn_;
    Message ext;
    ext.kind = MsgKind::kExternal;
    ext.receiver = kDeviceId;
    ext.sn = msg_sn_;
    ext.payload = payload;
    ext.tainted = tainted;
    ext.epoch = epoch_;
    services_.transport->send(ext);
    trace(TraceKind::kSend, "external", msg_sn_);
    return;
  }

  // Internal multicast. An active low component anchors before every
  // send: a later validation may cover any prefix of its own source, and
  // the matching pseudo checkpoint must exist (generalized Figure 3).
  if (kind_ == GProcessKind::kActive) {
    const bool was_clear = !contamination_flag();
    capture_anchor(CkptKind::kPseudo);
    if (was_clear) {
      trace(TraceKind::kCkptVolatile, "pseudo");
      trace(TraceKind::kPseudoDirtySet);
    }
  }
  ++msg_sn_;
  send_internal_multicast(payload, tainted);
}

// ---- Receiving -----------------------------------------------------------------

void GeneralEngine::do_app_message(const Message& m) {
  const ContamVector cv = decode_aux(m);
  // The raw flag drives contamination (anchor alignment with the sender's
  // copy-contents checkpoint); the covered-ness drives only the validity
  // view. A covered flag costs a false-alarm anchor that the next
  // validation clears, never a line split.
  const bool view_suspect = m.dirty && !contam_covered(cv, validated_);
  if (m.dirty && !view_suspect) {
    trace(TraceKind::kStaleDirtyIgnored, {}, m.sn);
  }
  if (m.dirty) {
    // Candidate anchor immediately before the state absorbs this
    // contamination (the multi-source Type-1 generalization).
    capture_anchor(CkptKind::kType1);
    if (!dirty_bit_) {
      dirty_bit_ = true;
      trace(TraceKind::kCkptVolatile, "type1");
      trace(TraceKind::kDirtySet);
    }
    contam_merge(absorbed_, cv);
  }
  recv_views_.push_back(
      GView{m.sender, m.transport_seq, m.sn, m.kind, view_suspect, cv});
  if (view_suspect) {
    ++suspect_views_;
    suspect_recv_.push_back(
        static_cast<std::uint32_t>(recv_views_.size() - 1));
  }
  services_.app->apply_message(m.payload, m.tainted);
  trace(TraceKind::kDeliverApp, std::string(to_string(m.kind)), m.sn);
}

void GeneralEngine::do_passed_at(const Message& m) {
  if (!ndc_gate_ok(m)) return;
  apply_validation(decode_aux(m));
}

void GeneralEngine::apply_validation(const ContamVector& coverage) {
  const bool was_flagged = contamination_flag();
  if (contam_merge(validated_, coverage)) ++validated_version_;

  // Per-source clearing: when every absorbed dependency is covered, the
  // state transitions clean (the next dirty arrival re-anchors with a
  // fresh Type-1). Clearing happens only at validation events, matching
  // the canonical protocol's dirty-bit discipline.
  if (dirty_bit_ && contam_covered(absorbed_, validated_)) {
    dirty_bit_ = false;
    absorbed_.clear();
    trace(TraceKind::kDirtyClear);
  }
  refresh_best_anchor();

  // Shadow log reclamation: our component's validated prefix.
  if (kind_ == GProcessKind::kShadow && !msg_log_.empty()) {
    const MsgSeq vr = validated_.watermark(component_);
    if (vr > 0) {
      msg_log_.erase(
          std::remove_if(msg_log_.begin(), msg_log_.end(),
                         [vr](const Message& logged) {
                           return logged.sn <= vr;
                         }),
          msg_log_.end());
    }
  }

  // View upgrades: every suspect entry whose vector is covered. Only the
  // indexed suspect window is visited — upgraded entries never relapse, so
  // the logs themselves are never rescanned.
  if (suspect_views_ > 0) {
    const auto upgrade = [this](SmallVec<GView, 8>& views,
                                SmallVec<std::uint32_t, 8>& index) {
      std::size_t kept = 0;
      for (std::size_t i = 0; i < index.size(); ++i) {
        GView& v = views[index[i]];
        if (contam_covered(v.contam, validated_)) {
          v.suspect = false;
          --suspect_views_;
        } else {
          index[kept++] = index[i];
        }
      }
      index.erase(index.begin() + static_cast<std::ptrdiff_t>(kept),
                  index.end());
    };
    upgrade(sent_views_, suspect_sent_);
    upgrade(recv_views_, suspect_recv_);
  }

  if (was_flagged && !contamination_flag()) {
    if (kind_ == GProcessKind::kActive) trace(TraceKind::kPseudoDirtyClear);
    flush_deferred_acks();
    if (contamination_cleared_) contamination_cleared_();
  }
}

// ---- Acks -----------------------------------------------------------------------

void GeneralEngine::settle_ack(const Message& m) {
  const bool gated = config_.tracking == ContaminationTracking::kWatermark;
  if (gated && contamination_flag()) {
    deferred_acks_.push_back(AckKey{m.sender, m.transport_seq});
    return;
  }
  services_.transport->ack(m);
}

void GeneralEngine::flush_deferred_acks() {
  for (const AckKey& key : deferred_acks_) {
    Message m;
    m.sender = key.sender;
    m.transport_seq = key.transport_seq;
    services_.transport->ack(m);
  }
  deferred_acks_.clear();
}

// ---- Blocking ---------------------------------------------------------------------

void GeneralEngine::begin_blocking() {
  SYNERGY_EXPECTS(!blocking_);
  blocking_ = true;
  trace(TraceKind::kBlockStart);
}

void GeneralEngine::end_blocking() {
  SYNERGY_EXPECTS(blocking_);
  blocking_ = false;
  trace(TraceKind::kBlockEnd);
  SmallVec<Deferred, 4> pending = std::move(deferred_);
  deferred_.clear();  // moved-from is already empty; be explicit
  for (auto& op : pending) {
    if (!alive_) break;
    if (auto* send = std::get_if<SendReq>(&op)) {
      do_app_send(send->external, send->input);
    } else if (auto* step = std::get_if<StepReq>(&op)) {
      do_step(step->input);
    } else if (std::get_if<ConfLossReq>(&op)) {
      do_confidence_loss();
    } else {
      process_message(std::get<Message>(op));
    }
  }
}

// ---- Checkpointing / recovery --------------------------------------------------------

void GeneralEngine::set_ndc_provider(std::function<StableSeq()> fn) {
  SYNERGY_EXPECTS(fn != nullptr);
  ndc_provider_ = std::move(fn);
}

void GeneralEngine::fence_all_below(std::uint32_t epoch) {
  fence_all_ = std::max(fence_all_, epoch);
}

void GeneralEngine::fence_dirty_below(std::uint32_t epoch) {
  fence_dirty_ = std::max(fence_dirty_, epoch);
}

CheckpointRecord GeneralEngine::make_record(CkptKind kind) const {
  CheckpointRecord rec;
  rec.kind = kind;
  rec.owner = self();
  rec.established_at = current_time();
  rec.state_time = current_time();
  rec.dirty_bit = contamination_flag();
  rec.ndc = ndc_provider_();
  rec.app_state = SharedBytes(services_.app->snapshot());
  rec.protocol_state = snapshot_protocol_state();
  rec.transport_state = SharedBytes(services_.transport->snapshot_state());
  const std::span<const Message> unacked = services_.transport->unacked();
  rec.unacked.assign(unacked.begin(), unacked.end());
  return rec;
}

void GeneralEngine::capture_anchor(CkptKind kind) {
  AnchorCandidate candidate;
  candidate.absorbed_at = absorbed_;
  if (kind_ == GProcessKind::kActive && msg_sn_ > 0) {
    // The captured state reflects our own sends up to msg_sn_: promoting
    // it requires a validation covering them.
    candidate.absorbed_at.raise(component_, msg_sn_);
  }
  candidate.absorbed = absorbed_;
  candidate.kind = kind;
  candidate.captured_at = current_time();
  candidate.ndc = ndc_provider_();
  candidate.msg_sn = msg_sn_;
  candidate.takeover_done = takeover_done_;
  candidate.serial = ++candidate_serial_;
  candidate.sent_len = static_cast<std::uint32_t>(sent_views_.size());
  candidate.recv_len = static_cast<std::uint32_t>(recv_views_.size());
  candidate.app_state = SharedBytes(services_.app->snapshot());
  candidate.transport_state =
      SharedBytes(services_.transport->snapshot_state());
  const std::span<const Message> unacked = services_.transport->unacked();
  candidate.unacked.assign(unacked.begin(), unacked.end());
  anchor_candidates_.push_back(std::move(candidate));
  if (anchor_candidates_.size() > kMaxAnchorCandidates) {
    // Never drop below one covered candidate: the front is (or dominates)
    // the current best, so drop the second-oldest instead when the front
    // is the promoted anchor.
    anchor_candidates_.erase(anchor_candidates_.begin() + 1);
  }
  refresh_best_anchor();
}

CheckpointRecord GeneralEngine::build_promoted_record(
    const AnchorCandidate& cand) const {
  // Re-interpret the captured anchor under today's validation knowledge.
  // The frozen pieces are the scalars and the view-log prefix; suspect
  // flags and the validated vector are rebuilt from current state:
  // validations are monotone stable knowledge between restores (restores
  // clear the ring), so for any view
  //   promoted_suspect == live_suspect && !covered(contam, validated_now)
  // matches what normalizing a capture-time snapshot would produce.
  CheckpointRecord rec;
  rec.kind = cand.kind;
  rec.owner = self();
  rec.established_at = cand.captured_at;
  rec.state_time = cand.captured_at;
  rec.dirty_bit = false;  // promoted anchors are clean states
  rec.ndc = cand.ndc;
  rec.app_state = cand.app_state;
  rec.transport_state = cand.transport_state;
  rec.unacked.assign(cand.unacked.begin(), cand.unacked.end());

  ByteWriter w;
  w.u64(cand.msg_sn);
  w.u8(cand.takeover_done ? 1 : 0);
  const bool still_dirty = !contam_covered(cand.absorbed, validated_);
  w.u8(still_dirty ? 1 : 0);
  if (still_dirty) {
    contam_serialize(cand.absorbed, w);
  } else {
    contam_serialize(ContamVector{}, w);
  }
  contam_serialize(validated_, w);
  // Shadow suppression log at capture: entries carry monotone SNs, so the
  // capture-time log is exactly the live entries with sn <= cand.msg_sn
  // (entries reclaimed since were validated — a restore would drop them
  // at replay anyway, because the promoted record carries validated_).
  std::uint32_t logs = 0;
  for (const Message& m : msg_log_) {
    if (m.sn <= cand.msg_sn) ++logs;
  }
  w.u32(logs);
  for (const Message& m : msg_log_) {
    if (m.sn <= cand.msg_sn) m.serialize(w);
  }
  auto write_prefix = [this, &w](const SmallVec<GView, 8>& views,
                                 std::uint32_t len) {
    w.u32(len);
    for (std::uint32_t i = 0; i < len; ++i) {
      const GView& v = views[i];
      w.u32(v.peer.value());
      w.u64(v.transport_seq);
      w.u64(v.sn);
      w.u8(static_cast<std::uint8_t>(v.kind));
      const bool suspect = v.suspect && !contam_covered(v.contam, validated_);
      w.u8(suspect ? 1 : 0);
      contam_serialize(v.contam, w);
    }
  };
  write_prefix(sent_views_, cand.sent_len);
  write_prefix(recv_views_, cand.recv_len);
  w.u32(static_cast<std::uint32_t>(failed_over_.size()));
  for (auto c : failed_over_) w.u32(c);
  rec.protocol_state = w.take();
  return rec;
}

void GeneralEngine::refresh_best_anchor() {
  // Newest candidate whose captured dependencies are fully validated
  // settles at the front of the ring; everything older is dominated and
  // dropped. The promoted record itself is NOT serialized here — that
  // happens in materialize_anchor() when latest_volatile() is read.
  //
  // Invariant maintained for materialize_anchor(): coverage only changes
  // inside apply_validation() and capture_anchor(), both of which call
  // this refresh — so between refreshes, candidate 0 is covered iff any
  // candidate is, and it is then the newest covered one.
  for (std::size_t i = anchor_candidates_.size(); i-- > 0;) {
    const AnchorCandidate& cand = anchor_candidates_[i];
    if (!contam_covered(cand.absorbed_at, validated_)) continue;
    if (i > 0) {
      anchor_candidates_.erase(anchor_candidates_.begin(),
                               anchor_candidates_.begin() +
                                   static_cast<std::ptrdiff_t>(i));
    }
    return;
  }
}

void GeneralEngine::materialize_anchor() const {
  if (anchor_candidates_.empty()) return;
  const AnchorCandidate& cand = anchor_candidates_[0];
  if (!contam_covered(cand.absorbed_at, validated_)) return;
  if (cand.serial == promoted_serial_ &&
      validated_version_ == promoted_validated_version_) {
    return;
  }
  services_.vstore->save(build_promoted_record(cand));
  promoted_serial_ = cand.serial;
  promoted_validated_version_ = validated_version_;
}

void GeneralEngine::restore_from_record(const CheckpointRecord& record) {
  services_.app->restore(record.app_state);
  restore_protocol_state(record.protocol_state);
  services_.transport->restore_state(record.transport_state);
  services_.transport->restore_unacked(record.unacked);
  deferred_.clear();
  deferred_acks_.clear();
  anchor_candidates_.clear();
  promoted_serial_ = ~std::uint64_t{0};
  blocking_ = false;
}

std::size_t GeneralEngine::takeover() {
  SYNERGY_EXPECTS(kind_ == GProcessKind::kShadow);
  SYNERGY_EXPECTS(!takeover_done_);
  takeover_done_ = true;
  trace(TraceKind::kTakeover);
  std::size_t replayed = 0;
  const MsgSeq vr = validated_.watermark(component_);
  SmallVec<Message, 4> log = std::move(msg_log_);
  msg_log_.clear();  // moved-from is already empty; be explicit
  for (Message& m : log) {
    if (m.sn <= vr) {
      trace(TraceKind::kReplayDrop, std::string(to_string(m.kind)), m.sn);
      continue;
    }
    trace(TraceKind::kReplaySend, std::string(to_string(m.kind)), m.sn);
    if (m.kind == MsgKind::kExternal) {
      m.receiver = kDeviceId;
      m.epoch = epoch_;
      services_.transport->send(m);
    } else {
      // Re-issue through the normal multicast path, preserving the SN.
      const MsgSeq keep = msg_sn_;
      msg_sn_ = m.sn;
      send_internal_multicast(m.payload, m.tainted);
      msg_sn_ = std::max(keep, m.sn);
    }
    ++replayed;
  }
  return replayed;
}

Bytes GeneralEngine::snapshot_protocol_state() const {
  ByteWriter w;
  w.u64(msg_sn_);
  w.u8(takeover_done_ ? 1 : 0);
  w.u8(dirty_bit_ ? 1 : 0);
  contam_serialize(absorbed_, w);
  contam_serialize(validated_, w);
  w.u32(static_cast<std::uint32_t>(msg_log_.size()));
  for (const auto& m : msg_log_) m.serialize(w);
  auto write_views = [&w](const SmallVec<GView, 8>& views) {
    w.u32(static_cast<std::uint32_t>(views.size()));
    for (const auto& v : views) {
      w.u32(v.peer.value());
      w.u64(v.transport_seq);
      w.u64(v.sn);
      w.u8(static_cast<std::uint8_t>(v.kind));
      w.u8(v.suspect ? 1 : 0);
      contam_serialize(v.contam, w);
    }
  };
  write_views(sent_views_);
  write_views(recv_views_);
  w.u32(static_cast<std::uint32_t>(failed_over_.size()));
  for (auto c : failed_over_) w.u32(c);
  return w.take();
}

void GeneralEngine::restore_protocol_state(const Bytes& state) {
  ByteReader r(state);
  msg_sn_ = r.u64();
  takeover_done_ = r.u8() != 0;
  dirty_bit_ = r.u8() != 0;
  absorbed_ = contam_deserialize(r);
  validated_ = contam_deserialize(r);
  ++validated_version_;  // restored knowledge invalidates promotion cache
  msg_log_.clear();
  const std::uint32_t logs = r.u32();
  msg_log_.reserve(logs);
  for (std::uint32_t i = 0; i < logs; ++i) {
    msg_log_.push_back(Message::deserialize(r));
  }
  suspect_views_ = 0;
  auto read_views = [this, &r](SmallVec<GView, 8>& views,
                               SmallVec<std::uint32_t, 8>& index) {
    views.clear();
    index.clear();
    const std::uint32_t n = r.u32();
    views.reserve(n);
    for (std::uint32_t i = 0; i < n; ++i) {
      GView v;
      v.peer = ProcessId{r.u32()};
      v.transport_seq = r.u64();
      v.sn = r.u64();
      v.kind = static_cast<MsgKind>(r.u8());
      v.suspect = r.u8() != 0;
      if (v.suspect) {
        ++suspect_views_;
        index.push_back(i);
      }
      v.contam = contam_deserialize(r);
      views.push_back(std::move(v));
    }
  };
  read_views(sent_views_, suspect_sent_);
  read_views(recv_views_, suspect_recv_);
  failed_over_.clear();
  const std::uint32_t fo = r.u32();
  failed_over_.reserve(fo);
  for (std::uint32_t i = 0; i < fo; ++i) mark_component_failed_over(r.u32());
}

}  // namespace synergy
