// P1sdw — the shadow process of the high-confidence version.
//
// Implements the Appendix A algorithm (Figure 9). During guarded operation
// every outgoing message is suppressed and logged; the valid-message
// register VR tracks the last P1act message validated by an acceptance
// test (via passed-AT notifications), and the log is reclaimed up to VR.
// On takeover (software error recovery) P1sdw assumes the active role and
// replays its logged messages beyond VR — its own, high-confidence versions
// of the computations P1act got wrong.
#pragma once

#include "common/small_vec.hpp"
#include "mdcd/engine.hpp"

namespace synergy {

class P1SdwEngine final : public MdcdEngine {
 public:
  P1SdwEngine(const MdcdConfig& config, ProcessServices services);

  bool active() const { return active_; }

  /// Last valid message SN of P1act (paper: VR_P1act).
  MsgSeq vr_p1act() const { return vr_p1act_; }

  const SmallVec<Message, 4>& suppressed_log() const { return msg_log_; }

  /// Assume the active role and replay logged messages beyond VR. Invoked
  /// by the software recovery after the rollback/roll-forward decisions
  /// have been applied. Returns the number of replayed messages.
  std::size_t takeover() override;

 protected:
  void do_app_send(bool external, std::uint64_t input) override;
  void do_passed_at(const Message& m) override;
  void do_app_message(const Message& m) override;
  void serialize_role_state(ByteWriter& w) const override;
  void deserialize_role_state(ByteReader& r) override;

 private:
  void active_send(bool external, std::uint64_t payload, bool tainted);

  bool active_ = false;
  MsgSeq vr_p1act_ = 0;
  SmallVec<Message, 4> msg_log_;
};

}  // namespace synergy
