// The delivery half every protocol engine shares: recovery-epoch fencing,
// duplicate handling, validation-gated acknowledgments, blocking-period
// deferral and what a restore clears. Each case runs over a canonical P2
// engine and a general kRegular engine, both driven through one recording
// transport, so the two engines must agree case by case.
#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "general/engine.hpp"
#include "general/topology.hpp"
#include "mdcd/contam.hpp"
#include "mdcd/p2.hpp"

namespace synergy {
namespace {

std::string key(const Message& m) {
  return std::to_string(m.sender.value()) + "#" +
         std::to_string(m.transport_seq);
}

/// Logs every send and consumption in order, and every ack apart.
class RecordingTransport final : public Transport {
 public:
  std::uint64_t send(Message m) override {
    log.push_back("send sn=" + std::to_string(m.sn));
    return ++next_seq_;
  }
  bool already_consumed(const Message& m) const override {
    return consumed_.count(key(m)) > 0;
  }
  void mark_consumed(const Message& m) override {
    consumed_.insert(key(m));
    log.push_back("consume " + key(m));
  }
  void ack(const Message& m) override { acks.push_back(key(m)); }
  std::span<const Message> unacked() const override { return {}; }
  void restore_unacked(std::span<const Message>) override {}
  std::size_t resend_unacked(std::uint32_t) override { return 0; }
  Bytes snapshot_state() const override { return {}; }
  void restore_state(const Bytes&) override {}
  std::uint64_t mark() override { return 0; }
  Bytes state_at(std::uint64_t) const override { return {}; }
  void release_mark(std::uint64_t) override {}

  std::vector<std::string> log;
  std::vector<std::string> acks;

 private:
  std::set<std::string> consumed_;
  std::uint64_t next_seq_ = 0;
};

SharedBytes encode_contam(std::uint32_t source, MsgSeq sn) {
  ContamVector cv;
  cv.raise(source, sn);
  ByteWriter w;
  contam_serialize(cv, w);
  return SharedBytes(w.take());
}

/// The canonical P2, fed by P1act.
struct P2Side {
  using Engine = P2Engine;
  static constexpr ProcessId kSelf = kP2;
  static constexpr ProcessId kPeer = kP1Act;
  std::unique_ptr<Engine> make(ProcessServices services) {
    return std::make_unique<P2Engine>(MdcdConfig{}, std::move(services));
  }
  static void contaminate(Message& m, MsgSeq sn) { m.contam_sn = sn; }
  static void cover(Message& m, MsgSeq sn) { m.sn = sn; }
};

/// The high component of the general canonical topology, fed by the low
/// component's active process.
struct GeneralSide {
  using Engine = GeneralEngine;
  static constexpr ProcessId kSelf{1};
  static constexpr ProcessId kPeer{0};
  Topology topology = Topology::canonical();
  std::unique_ptr<Engine> make(ProcessServices services) {
    return std::make_unique<GeneralEngine>(topology, kSelf, MdcdConfig{},
                                           std::move(services));
  }
  static void contaminate(Message& m, MsgSeq sn) {
    m.aux = encode_contam(0, sn);
  }
  static void cover(Message& m, MsgSeq sn) {
    m.sn = sn;
    m.aux = encode_contam(0, sn);
  }
};

template <typename Side>
class EngineBaseTest : public ::testing::Test {
 protected:
  EngineBaseTest() {
    ProcessServices services;
    services.self = Side::kSelf;
    services.now = [] { return TimePoint{}; };
    services.transport = &transport_;
    services.vstore = &vstore_;
    services.app = &app_;
    services.at = &at_;
    services.request_sw_recovery = [](ProcessId) {};
    engine_ = side_.make(std::move(services));
  }

  Message app_msg(std::uint64_t seq, bool dirty = false,
                  std::uint32_t epoch = 0) const {
    Message m;
    m.kind = MsgKind::kInternal;
    m.sender = Side::kPeer;
    m.receiver = Side::kSelf;
    m.transport_seq = seq;
    m.sn = seq;
    m.payload = seq;
    m.epoch = epoch;
    m.dirty = dirty;
    if (dirty) Side::contaminate(m, 1);
    return m;
  }

  /// A passed-AT notification validating the peer's sends up to SN 1.
  Message validation(std::uint64_t seq) const {
    Message m;
    m.kind = MsgKind::kPassedAt;
    m.sender = Side::kPeer;
    m.receiver = Side::kSelf;
    m.transport_seq = seq;
    Side::cover(m, 1);
    return m;
  }

  std::size_t consumed() const { return engine_->recv_views().size(); }

  RecordingTransport transport_;
  VolatileStore vstore_;
  ApplicationState app_;
  AcceptanceTest at_{AtParams{}, Rng(1)};
  Side side_;
  std::unique_ptr<typename Side::Engine> engine_;
};

using Sides = ::testing::Types<P2Side, GeneralSide>;
TYPED_TEST_SUITE(EngineBaseTest, Sides);

TYPED_TEST(EngineBaseTest, FencedAllMessageIsDroppedAndAcked) {
  this->engine_->fence_all_below(2);
  this->engine_->on_message(this->app_msg(7, /*dirty=*/false, /*epoch=*/1));
  EXPECT_EQ(this->consumed(), 0u);
  EXPECT_EQ(this->transport_.acks, std::vector<std::string>{"0#7"});
  EXPECT_EQ(this->transport_.log, std::vector<std::string>{"consume 0#7"});
  // The current incarnation passes the fence.
  this->engine_->on_message(this->app_msg(8, false, 2));
  EXPECT_EQ(this->consumed(), 1u);
}

TYPED_TEST(EngineBaseTest, FencedDirtyMessageIsDroppedAndAckedCleanPasses) {
  this->engine_->fence_dirty_below(3);
  this->engine_->on_message(this->app_msg(5, /*dirty=*/true, /*epoch=*/2));
  EXPECT_EQ(this->consumed(), 0u);
  EXPECT_FALSE(this->engine_->contamination_flag());
  EXPECT_EQ(this->transport_.acks, std::vector<std::string>{"0#5"});
  this->engine_->on_message(this->app_msg(6, /*dirty=*/false, /*epoch=*/2));
  EXPECT_EQ(this->consumed(), 1u);
  EXPECT_EQ(this->transport_.acks, (std::vector<std::string>{"0#5", "0#6"}));
}

TYPED_TEST(EngineBaseTest, DuplicateConsumptionResettlesItsAck) {
  this->engine_->on_message(this->app_msg(4));
  this->engine_->on_message(this->app_msg(4));
  EXPECT_EQ(this->consumed(), 1u);
  EXPECT_EQ(this->transport_.acks, (std::vector<std::string>{"0#4", "0#4"}));
  // A duplicate of an unanchored consumption defers again, like the first.
  this->engine_->on_message(this->app_msg(5, /*dirty=*/true));
  this->engine_->on_message(this->app_msg(5, /*dirty=*/true));
  EXPECT_EQ(this->consumed(), 2u);
  EXPECT_EQ(this->transport_.acks.size(), 2u);
  this->engine_->on_message(this->validation(9));
  EXPECT_EQ(this->transport_.acks,
            (std::vector<std::string>{"0#4", "0#4", "0#9", "0#5", "0#5"}));
}

TYPED_TEST(EngineBaseTest, AcksWaitForTheContaminationFlagToClear) {
  int cleared = 0;
  this->engine_->set_contamination_cleared_observer([&] { ++cleared; });
  this->engine_->on_message(this->app_msg(3, /*dirty=*/true));
  ASSERT_TRUE(this->engine_->contamination_flag());
  this->engine_->on_message(this->app_msg(4));
  EXPECT_TRUE(this->transport_.acks.empty());
  EXPECT_EQ(cleared, 0);
  // The notification is acked at once; the deferred acks follow it.
  this->engine_->on_message(this->validation(9));
  EXPECT_FALSE(this->engine_->contamination_flag());
  EXPECT_EQ(cleared, 1);
  EXPECT_EQ(this->transport_.acks,
            (std::vector<std::string>{"0#9", "0#3", "0#4"}));
}

TYPED_TEST(EngineBaseTest, BlockingDefersSendsAndMessagesInArrivalOrder) {
  this->engine_->begin_blocking();
  EXPECT_TRUE(this->engine_->in_blocking());
  this->engine_->on_app_send(false, 1);
  this->engine_->on_message(this->app_msg(5));
  this->engine_->on_app_send(false, 2);
  this->engine_->on_message(this->app_msg(6));
  EXPECT_TRUE(this->transport_.log.empty());
  EXPECT_EQ(this->consumed(), 0u);
  this->engine_->end_blocking();
  EXPECT_FALSE(this->engine_->in_blocking());
  // Each internal send reaches the peer component's active and shadow.
  EXPECT_EQ(this->transport_.log,
            (std::vector<std::string>{"send sn=1", "send sn=1", "consume 0#5",
                                      "send sn=2", "send sn=2",
                                      "consume 0#6"}));
}

TYPED_TEST(EngineBaseTest, PassedAtIsHandledDuringBlocking) {
  this->engine_->on_message(this->app_msg(3, /*dirty=*/true));
  this->engine_->begin_blocking();
  this->engine_->on_message(this->validation(9));
  EXPECT_FALSE(this->engine_->contamination_flag());
  EXPECT_EQ(this->transport_.acks, (std::vector<std::string>{"0#9", "0#3"}));
  this->engine_->end_blocking();
}

TYPED_TEST(EngineBaseTest, RestoreClearsDeferredAcksAndBlocking) {
  const CheckpointRecord clean = this->engine_->make_record(CkptKind::kType1);
  this->engine_->on_message(this->app_msg(3, /*dirty=*/true));
  this->engine_->begin_blocking();
  this->engine_->on_message(this->app_msg(4));
  this->engine_->restore_from_record(clean);
  EXPECT_FALSE(this->engine_->in_blocking());
  EXPECT_FALSE(this->engine_->contamination_flag());
  EXPECT_EQ(this->consumed(), 0u);
  // Nothing held before the restore drains at the next blocking period.
  this->engine_->begin_blocking();
  this->engine_->end_blocking();
  EXPECT_EQ(this->transport_.log, std::vector<std::string>{"consume 0#3"});
  // The rolled-back consumption's ack never goes out.
  this->engine_->on_message(this->app_msg(5, /*dirty=*/true));
  this->engine_->on_message(this->validation(9));
  EXPECT_EQ(this->transport_.acks, (std::vector<std::string>{"0#9", "0#5"}));
}

}  // namespace
}  // namespace synergy
