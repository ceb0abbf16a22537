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

GeneralEngine::GeneralEngine(const Topology& topology, ProcessId self,
                             const MdcdConfig& config,
                             ProcessServices services)
    : CheckpointableProcess(config, std::move(services)),
      topology_(topology),
      component_(topology.component_of(self)) {
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
  // A suspect send whose vector the validations already cover (a dirty
  // flag set by covered traffic): the next validation upgrades its view.
  const bool covered = suspect && contam_covered(cv, validated_);
  // One shared aux buffer for the whole multicast: every copy bumps a
  // refcount instead of re-encoding the vector per receiver.
  const SharedBytes aux = suspect ? SharedBytes(encode_aux(cv)) : SharedBytes{};
  Message m;
  m.kind = MsgKind::kInternal;
  m.sn = msg_sn_;
  m.ndc = ndc();
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
      views_->add_sent(
          MsgView{m.receiver, seq, msg_sn_, MsgKind::kInternal, suspect}, cv,
          covered);
      if (tracing()) {
        trace(TraceKind::kSend,
              "internal->" + topology_.process_name(m.receiver), msg_sn_, seq);
      }
    }
    // Mirror to the peer's shadow, which consumes the same inputs.
    if (route.has_shadow) {
      m.receiver = route.shadow;
      const std::uint64_t tseq = services_.transport->send(m);
      views_->add_sent(
          MsgView{m.receiver, tseq, msg_sn_, MsgKind::kInternal, suspect}, cv,
          covered);
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
      note.ndc = ndc();
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
  views_->add_recv(
      MsgView{m.sender, m.transport_seq, m.sn, m.kind, view_suspect}, cv,
      /*covered=*/false);
  services_.app->apply_message(m.payload, m.tainted);
  trace(TraceKind::kDeliverApp, to_string(m.kind), m.sn);
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

  // View upgrades, in a new validation epoch: every suspect entry whose
  // vector is covered. The history visits only its suspect window.
  views_->validate_covered(validated_);

  if (was_flagged && !contamination_flag()) {
    if (kind_ == GProcessKind::kActive) trace(TraceKind::kPseudoDirtyClear);
    contamination_cleared();
  }
}

// ---- Anchor ring ------------------------------------------------------------------

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
  candidate.ndc = ndc();
  candidate.msg_sn = msg_sn_;
  candidate.takeover_done = takeover_done_;
  candidate.serial = ++candidate_serial_;
  candidate.views = views_->mark();
  candidate.transport_mark = services_.transport->mark();
  candidate.app_state = SharedBytes(services_.app->snapshot());
  const std::span<const Message> unacked = services_.transport->unacked();
  candidate.unacked.assign(unacked.begin(), unacked.end());
  anchor_candidates_.push_back(std::move(candidate));
  if (anchor_candidates_.size() > kMaxAnchorCandidates) {
    // Never drop below one covered candidate: the front is (or dominates)
    // the current best, so drop the second-oldest instead when the front
    // is the promoted anchor.
    drop_candidates(1, 2);
  }
  refresh_best_anchor();
}

void GeneralEngine::drop_candidates(std::size_t first, std::size_t last) {
  for (std::size_t i = first; i < last; ++i) {
    services_.transport->release_mark(anchor_candidates_[i].transport_mark);
  }
  anchor_candidates_.erase(
      anchor_candidates_.begin() + static_cast<std::ptrdiff_t>(first),
      anchor_candidates_.begin() + static_cast<std::ptrdiff_t>(last));
}

CheckpointRecord GeneralEngine::build_promoted_record(
    const AnchorCandidate& cand) const {
  // Re-interpret the captured anchor under today's validation knowledge.
  // The frozen pieces are the scalars, the transport mark and the view
  // prefixes; suspect flags and the validated vector are read from current
  // state: validations are monotone stable knowledge between restores
  // (restores clear the ring), so for any view
  //   promoted_suspect == live_suspect && !covered(contam, validated_now)
  // matches what normalizing a capture-time snapshot would produce. A live
  // suspect view is covered only if it was appended covered in the current
  // epoch, which is exactly what a settled mark reads as valid.
  CheckpointRecord rec;
  rec.kind = cand.kind;
  rec.owner = self();
  rec.established_at = cand.captured_at;
  rec.state_time = cand.captured_at;
  rec.dirty_bit = false;  // promoted anchors are clean states
  rec.ndc = cand.ndc;
  rec.app_state = cand.app_state;
  rec.transport_state =
      SharedBytes(services_.transport->state_at(cand.transport_mark));
  rec.unacked.assign(cand.unacked.begin(), cand.unacked.end());
  const ViewMark views = views_->settled(cand.views);
  rec.protocol_state = write_protocol_state(&cand, views);
  rec.views = ViewRef{views_, views};
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
    drop_candidates(0, i);
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
      trace(TraceKind::kReplayDrop, to_string(m.kind), m.sn);
      continue;
    }
    trace(TraceKind::kReplaySend, to_string(m.kind), m.sn);
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

Bytes GeneralEngine::encode_protocol_state(const ViewMark& views) const {
  return write_protocol_state(nullptr, views);
}

Bytes GeneralEngine::write_protocol_state(const AnchorCandidate* promoted,
                                          const ViewMark& views) const {
  ByteWriter w;
  if (promoted == nullptr) {
    w.u64(msg_sn_);
    w.u8(takeover_done_ ? 1 : 0);
    w.u8(dirty_bit_ ? 1 : 0);
    contam_serialize(absorbed_, w);
  } else {
    // See build_promoted_record: the captured scalars, with dirt re-read
    // under today's validations.
    w.u64(promoted->msg_sn);
    w.u8(promoted->takeover_done ? 1 : 0);
    const bool still_dirty = !contam_covered(promoted->absorbed, validated_);
    w.u8(still_dirty ? 1 : 0);
    contam_serialize(still_dirty ? promoted->absorbed : ContamVector{}, w);
  }
  contam_serialize(validated_, w);
  // Shadow suppression log. At a promoted capture it held exactly the live
  // entries with sn <= the captured msg_sn: entries carry monotone SNs,
  // and those reclaimed since were validated (a restore would drop them
  // at replay anyway, because the promoted record carries validated_).
  const MsgSeq log_sn = promoted ? promoted->msg_sn : ~MsgSeq{0};
  std::uint32_t logs = 0;
  for (const Message& m : msg_log_) {
    if (m.sn <= log_sn) ++logs;
  }
  w.u32(logs);
  for (const Message& m : msg_log_) {
    if (m.sn <= log_sn) m.serialize(w);
  }
  views.serialize(w);
  w.u32(static_cast<std::uint32_t>(failed_over_.size()));
  for (auto c : failed_over_) w.u32(c);
  return w.take();
}

GeneralProtocolState GeneralProtocolState::decode(const Bytes& blob) {
  ByteReader r(blob);
  GeneralProtocolState s;
  s.msg_sn = r.u64();
  s.takeover_done = r.u8() != 0;
  s.dirty = r.u8() != 0;
  s.absorbed = contam_deserialize(r);
  s.validated = contam_deserialize(r);
  const std::uint32_t logs = r.u32();
  s.msg_log.reserve(logs);
  for (std::uint32_t i = 0; i < logs; ++i) {
    s.msg_log.push_back(Message::deserialize(r));
  }
  s.views = ViewMark::deserialize(r);
  const std::uint32_t fo = r.u32();
  s.failed_over.reserve(fo);
  for (std::uint32_t i = 0; i < fo; ++i) s.failed_over.push_back(r.u32());
  return s;
}

ViewMark GeneralEngine::decode_protocol_state(const Bytes& state) {
  drop_candidates(0, anchor_candidates_.size());
  promoted_serial_ = ~std::uint64_t{0};
  GeneralProtocolState s = GeneralProtocolState::decode(state);
  msg_sn_ = s.msg_sn;
  takeover_done_ = s.takeover_done;
  dirty_bit_ = s.dirty;
  absorbed_ = std::move(s.absorbed);
  validated_ = std::move(s.validated);
  ++validated_version_;  // restored knowledge invalidates promotion cache
  msg_log_ = std::move(s.msg_log);
  failed_over_.clear();
  for (const std::uint32_t c : s.failed_over) mark_component_failed_over(c);
  return s.views;
}

}  // namespace synergy
