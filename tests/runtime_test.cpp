// Threaded GSU middleware: the same MDCD engines on real threads.
#include <gtest/gtest.h>

#include <chrono>

#include "mdcd/p1sdw.hpp"
#include "runtime/middleware.hpp"

namespace synergy {
namespace {

using namespace std::chrono_literals;

MiddlewareConfig default_config(std::uint64_t seed = 1) {
  MiddlewareConfig c;
  c.seed = seed;
  return c;
}

TEST(ThreadBusTest, PostAndPoll) {
  ThreadBus bus;
  bus.register_process(kP2);
  Message m;
  m.kind = MsgKind::kInternal;
  m.sender = kP1Act;
  m.receiver = kP2;
  m.payload = 42;
  bus.post(m);
  const auto item = bus.poll(kP2, 100ms);
  ASSERT_TRUE(item.has_value());
  EXPECT_EQ(item->kind, MailboxItem::Kind::kMessage);
  EXPECT_EQ(item->message.payload, 42u);
}

TEST(ThreadBusTest, PollTimesOutWhenEmpty) {
  ThreadBus bus;
  bus.register_process(kP2);
  const auto t0 = std::chrono::steady_clock::now();
  EXPECT_FALSE(bus.poll(kP2, 20ms).has_value());
  EXPECT_GE(std::chrono::steady_clock::now() - t0, 15ms);
}

TEST(ThreadBusTest, DeviceMessagesAccumulate) {
  ThreadBus bus;
  Message m;
  m.kind = MsgKind::kExternal;
  m.sender = kP2;
  m.receiver = kDeviceId;
  bus.post(m);
  bus.post(m);
  EXPECT_EQ(bus.device_log().size(), 2u);
}

TEST(ThreadBusTest, UnregisteredReceiverCountsAsDrop) {
  ThreadBus bus;
  Message m;
  m.receiver = ProcessId{55};
  bus.post(m);
  EXPECT_EQ(bus.dropped(), 1u);
}

TEST(GsuMiddlewareTest, FaultFreeOperationDeliversValidatedOutputs) {
  GsuMiddleware mw(default_config(3));
  mw.start();
  for (int i = 0; i < 20; ++i) {
    mw.component1_send(false, i);
    mw.p2_send(false, 100 + i);
  }
  mw.component1_send(true, 777);  // AT-validated external output
  ASSERT_TRUE(mw.wait_idle(5000ms));
  mw.stop();

  const auto device = mw.device_log();
  ASSERT_EQ(device.size(), 1u);
  EXPECT_EQ(device[0].sender, kP1Act);
  EXPECT_FALSE(device[0].tainted);
  EXPECT_FALSE(mw.sw_recovered());

  // The shadow suppressed everything and reclaimed its log up to VR.
  const TraceLog trace = mw.merged_trace();
  EXPECT_GT(trace.count(TraceKind::kSuppressSend, kP1Sdw), 0u);
  EXPECT_GT(trace.count(TraceKind::kAtPass, kP1Act), 0u);
}

TEST(GsuMiddlewareTest, ContaminationTracksAcrossThreads) {
  GsuMiddleware mw(default_config(4));
  mw.start();
  mw.component1_send(false, 1);  // dirty internal message contaminates P2
  ASSERT_TRUE(mw.wait_idle(5000ms));
  EXPECT_TRUE(mw.engine(kP2).dirty());
  mw.component1_send(true, 2);  // AT pass broadcasts the validation
  ASSERT_TRUE(mw.wait_idle(5000ms));
  EXPECT_FALSE(mw.engine(kP2).dirty());
  mw.stop();
}

TEST(GsuMiddlewareTest, DesignFaultTriggersStopTheWorldRecovery) {
  GsuMiddleware mw(default_config(5));
  mw.start();
  for (int i = 0; i < 10; ++i) mw.component1_send(false, i);
  mw.inject_design_fault(12345);
  mw.component1_send(true, 99);  // tainted external: AT fails
  // Recovery runs on the supervisor thread; give it a moment.
  const auto deadline = std::chrono::steady_clock::now() + 5000ms;
  while (!mw.sw_recovered() &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(5ms);
  }
  ASSERT_TRUE(mw.sw_recovered());
  ASSERT_TRUE(mw.wait_idle(5000ms));

  const auto stats = mw.recovery_stats();
  ASSERT_TRUE(stats.has_value());
  EXPECT_EQ(stats->detector, kP1Act);
  EXPECT_FALSE(mw.engine(kP1Act).alive());

  // The mission continues on the shadow-turned-active.
  mw.component1_send(true, 1000);
  ASSERT_TRUE(mw.wait_idle(5000ms));
  mw.stop();

  bool shadow_output = false;
  for (const auto& m : mw.device_log()) {
    EXPECT_FALSE(m.tainted);  // nothing erroneous ever reached the device
    if (m.sender == kP1Sdw) shadow_output = true;
  }
  EXPECT_TRUE(shadow_output);
}

TEST(GsuMiddlewareTest, DirtyProcessesRollBackOnRecovery) {
  GsuMiddleware mw(default_config(6));
  mw.start();
  mw.inject_design_fault(77);
  mw.component1_send(false, 1);  // tainted internal contaminates P2
  ASSERT_TRUE(mw.wait_idle(5000ms));
  ASSERT_TRUE(mw.engine(kP2).dirty());

  mw.component1_send(true, 2);  // AT failure -> recovery
  const auto deadline = std::chrono::steady_clock::now() + 5000ms;
  while (!mw.sw_recovered() &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(5ms);
  }
  ASSERT_TRUE(mw.sw_recovered());
  ASSERT_TRUE(mw.wait_idle(5000ms));
  const auto stats = mw.recovery_stats();
  ASSERT_TRUE(stats.has_value());
  EXPECT_TRUE(stats->rolled_back[kP2.value()]);
  EXPECT_FALSE(mw.engine(kP2).dirty());
  mw.stop();
}

TEST(GsuMiddlewareTest, StopIsIdempotentAndJoinsCleanly) {
  GsuMiddleware mw(default_config(7));
  mw.start();
  mw.component1_send(false, 1);
  mw.stop();
  mw.stop();  // no-op
  SUCCEED();
}

}  // namespace
}  // namespace synergy
