#include <gtest/gtest.h>

#include <vector>

#include "net/network.hpp"
#include "net/reliable.hpp"
#include "sim/simulator.hpp"

namespace synergy {
namespace {

NetworkParams fast_net() {
  NetworkParams p;
  p.tmin = Duration::millis(1);
  p.tmax = Duration::millis(5);
  return p;
}

TEST(NetworkTest, DeliversWithinBounds) {
  Simulator sim;
  Network net(sim, fast_net(), Rng(1));
  std::vector<TimePoint> deliveries;
  net.attach(ProcessId{1}, [&](const Message&) {
    deliveries.push_back(sim.now());
  });
  for (int i = 0; i < 50; ++i) {
    Message m;
    m.sender = ProcessId{0};
    m.receiver = ProcessId{1};
    net.send(m);
  }
  sim.run();
  ASSERT_EQ(deliveries.size(), 50u);
  for (auto t : deliveries) {
    EXPECT_GE(t - TimePoint::origin(), Duration::millis(1));
    EXPECT_LE(t - TimePoint::origin(), Duration::millis(5));
  }
  EXPECT_EQ(net.delivered(), 50u);
}

TEST(NetworkTest, FifoPerPair) {
  Simulator sim;
  Network net(sim, fast_net(), Rng(2));
  std::vector<std::uint64_t> payloads;
  net.attach(ProcessId{1}, [&](const Message& m) {
    payloads.push_back(m.payload);
  });
  for (std::uint64_t i = 0; i < 100; ++i) {
    Message m;
    m.sender = ProcessId{0};
    m.receiver = ProcessId{1};
    m.payload = i;
    net.send(m);
  }
  sim.run();
  ASSERT_EQ(payloads.size(), 100u);
  for (std::uint64_t i = 0; i < 100; ++i) EXPECT_EQ(payloads[i], i);
}

TEST(NetworkTest, FifoPerPairWithManySendersIntoOneReceiver) {
  // A receiver's watermarks are kept sorted by sender: senders first seen
  // in descending, ascending and interleaved id order must each keep
  // their own order, interleaved with the sends and the deliveries.
  Simulator sim;
  Network net(sim, fast_net(), Rng(3));
  std::vector<std::vector<std::uint64_t>> got(40);
  net.attach(ProcessId{0}, [&](const Message& m) {
    got[m.sender.value()].push_back(m.payload);
  });
  const std::vector<std::uint32_t> senders = {37, 5, 22, 39, 1, 12, 30, 2,
                                              18, 9, 25, 33, 14, 7, 28};
  Rng pick(4);
  std::vector<std::uint64_t> next(40, 0);
  for (int i = 0; i < 3000; ++i) {
    const std::uint32_t s = senders[static_cast<std::size_t>(
        pick.uniform_int(0, static_cast<std::int64_t>(senders.size()) - 1))];
    Message m;
    m.sender = ProcessId{s};
    m.receiver = ProcessId{0};
    m.payload = next[s]++;
    net.send(m);
    if (i % 7 == 0) sim.step();
  }
  sim.run();
  std::size_t total = 0;
  for (const std::uint32_t s : senders) {
    ASSERT_EQ(got[s].size(), next[s]) << "sender " << s;
    for (std::uint64_t k = 0; k < next[s]; ++k) {
      ASSERT_EQ(got[s][k], k) << "sender " << s;
    }
    total += got[s].size();
  }
  EXPECT_EQ(total, 3000u);
}

TEST(NetworkTest, DetachedReceiverDropsMessages) {
  Simulator sim;
  Network net(sim, fast_net(), Rng(3));
  Message m;
  m.receiver = ProcessId{9};
  net.send(m);
  sim.run();
  EXPECT_EQ(net.dropped(), 1u);
  EXPECT_EQ(net.delivered(), 0u);
}

TEST(NetworkTest, DropInTransitTo) {
  Simulator sim;
  Network net(sim, fast_net(), Rng(4));
  int got = 0;
  net.attach(ProcessId{1}, [&](const Message&) { ++got; });
  Message m;
  m.receiver = ProcessId{1};
  net.send(m);
  net.send(m);
  EXPECT_EQ(net.in_transit(), 2u);
  net.drop_in_transit_to(ProcessId{1});
  EXPECT_EQ(net.in_transit(), 0u);
  sim.run();
  EXPECT_EQ(got, 0);
}

TEST(NetworkTest, LossProbabilityDrops) {
  Simulator sim;
  NetworkParams p = fast_net();
  p.loss_probability = 1.0;
  Network net(sim, p, Rng(5));
  int got = 0;
  net.attach(ProcessId{1}, [&](const Message&) { ++got; });
  Message m;
  m.receiver = ProcessId{1};
  net.send(m);
  sim.run();
  EXPECT_EQ(got, 0);
  EXPECT_EQ(net.dropped(), 1u);
}

// Expose the protected inject() so tests can schedule deliveries with
// chosen (deterministic) delays instead of depending on the rng draw.
class InjectableNetwork : public Network {
 public:
  using Network::Network;
  void inject_at(Message m, Duration delay, bool respect_fifo) {
    m.sent_at = sim().now();
    inject(std::move(m), delay, respect_fifo);
  }
  Simulator& simulator() { return sim(); }
};

TEST(NetworkTest, CrashPrunesFifoWatermarkForReattachedProcess) {
  // Regression: a crash used to leave the (sender, receiver) FIFO
  // watermark behind after its in-transit deliveries were cancelled, so
  // the first post-restart message was serialized behind a delivery that
  // never happened — arriving at the phantom's (future) time instead of
  // its own. The watermark must die with the deliveries backing it.
  Simulator sim;
  InjectableNetwork net(sim, fast_net(), Rng(6));
  std::vector<TimePoint> deliveries;
  const auto record = [&](const Message&) { deliveries.push_back(sim.now()); };
  net.attach(ProcessId{1}, record);

  Message m;
  m.sender = ProcessId{0};
  m.receiver = ProcessId{1};
  // A slow in-flight message pushes the watermark out to t=50ms...
  net.inject_at(m, Duration::millis(50), /*respect_fifo=*/true);
  // ...then the receiver crashes and restarts before it arrives.
  net.detach(ProcessId{1});
  net.attach(ProcessId{1}, record);
  // The restart's first message takes 2ms. With the stale watermark it
  // would be held until t=50ms; pruned, it arrives at its own time.
  net.inject_at(m, Duration::millis(2), /*respect_fifo=*/true);
  sim.run();

  ASSERT_EQ(deliveries.size(), 1u);
  EXPECT_EQ(deliveries[0] - TimePoint::origin(), Duration::millis(2));
  EXPECT_EQ(net.dropped_cancelled(), 1u);
}

TEST(NetworkTest, DroppedCounterSplitsByCause) {
  Simulator sim;
  NetworkParams p = fast_net();
  p.loss_probability = 1.0;
  Network lossy(sim, p, Rng(7));
  Message m;
  m.sender = ProcessId{0};
  m.receiver = ProcessId{1};
  lossy.send(m);
  EXPECT_EQ(lossy.dropped_loss(), 1u);
  EXPECT_EQ(lossy.dropped_no_receiver(), 0u);
  EXPECT_EQ(lossy.dropped_cancelled(), 0u);

  Network net(sim, fast_net(), Rng(8));
  net.send(m);  // nobody attached at ProcessId{1}
  sim.run();
  EXPECT_EQ(net.dropped_no_receiver(), 1u);

  int got = 0;
  net.attach(ProcessId{2}, [&](const Message&) { ++got; });
  m.receiver = ProcessId{2};
  net.send(m);
  net.drop_in_transit_to(ProcessId{2});
  sim.run();
  EXPECT_EQ(got, 0);
  EXPECT_EQ(net.dropped_cancelled(), 1u);
  // The conflated figure is exactly the sum of the causes.
  EXPECT_EQ(net.dropped(),
            net.dropped_loss() + net.dropped_no_receiver() +
                net.dropped_cancelled());
  EXPECT_EQ(net.dropped(), 2u);
}

TEST(NetworkTest, SameTickBatchPreservesPerMessageOrder) {
  // Messages landing on the same (receiver, tick) share one scheduled
  // event. The batch is only appendable while nothing else has entered
  // the event queue, so observable order must be identical to the
  // one-event-per-message schedule: chained frames fire in send order,
  // and an event scheduled *between* two same-tick sends still fires
  // between them.
  Simulator sim;
  InjectableNetwork net(sim, fast_net(), Rng(9));
  std::vector<std::uint64_t> order;
  net.attach(ProcessId{1}, [&](const Message& m) { order.push_back(m.payload); });

  Message m;
  m.sender = ProcessId{0};
  m.receiver = ProcessId{1};
  for (std::uint64_t i = 0; i < 3; ++i) {
    m.payload = i;
    net.inject_at(m, Duration::millis(4), /*respect_fifo=*/false);
  }
  // An unrelated event at the same tick, scheduled after the three sends:
  // it must run after all three (their batch event has the earlier seq).
  sim.schedule_after(Duration::millis(4), [&] { order.push_back(99); });
  // A fourth same-tick message sent after that event cannot join the
  // batch (the queue moved); it gets its own, later event.
  m.payload = 3;
  net.inject_at(m, Duration::millis(4), /*respect_fifo=*/false);
  sim.run();

  ASSERT_EQ(order.size(), 5u);
  EXPECT_EQ(order, (std::vector<std::uint64_t>{0, 1, 2, 99, 3}));
}

TEST(NetworkTest, FramePoolRecyclesAcrossBursts) {
  // Steady-state allocation freedom depends on frames actually returning
  // to the free list: after any burst drains, in_transit is zero and the
  // next burst reuses the pool (verified indirectly — delivery still
  // works and counts stay exact across many bursts).
  Simulator sim;
  Network net(sim, fast_net(), Rng(10));
  std::uint64_t got = 0;
  net.attach(ProcessId{1}, [&](const Message&) { ++got; });
  Message m;
  m.sender = ProcessId{0};
  m.receiver = ProcessId{1};
  for (int burst = 0; burst < 20; ++burst) {
    for (int i = 0; i < 8; ++i) net.send(m);
    sim.run();
    EXPECT_EQ(net.in_transit(), 0u);
  }
  EXPECT_EQ(got, 160u);
  EXPECT_EQ(net.delivered(), 160u);
}

TEST(MessageTest, SerializationRoundTrip) {
  Message m;
  m.kind = MsgKind::kPassedAt;
  m.sender = kP2;
  m.receiver = kP1Sdw;
  m.transport_seq = 77;
  m.sn = 12;
  m.ndc = 3;
  m.dirty = true;
  m.payload = 0xFEEDFACE;
  m.tainted = true;
  m.ack_of = 5;
  m.epoch = 2;
  m.sent_at = TimePoint{123456};

  ByteWriter w;
  m.serialize(w);
  ByteReader r(w.data());
  const Message back = Message::deserialize(r);
  EXPECT_EQ(back.kind, m.kind);
  EXPECT_EQ(back.sender, m.sender);
  EXPECT_EQ(back.receiver, m.receiver);
  EXPECT_EQ(back.transport_seq, m.transport_seq);
  EXPECT_EQ(back.sn, m.sn);
  EXPECT_EQ(back.ndc, m.ndc);
  EXPECT_EQ(back.dirty, m.dirty);
  EXPECT_EQ(back.payload, m.payload);
  EXPECT_EQ(back.tainted, m.tainted);
  EXPECT_EQ(back.ack_of, m.ack_of);
  EXPECT_EQ(back.epoch, m.epoch);
  EXPECT_EQ(back.sent_at, m.sent_at);
}

class EndpointFixture : public ::testing::Test {
 protected:
  EndpointFixture()
      : net_(sim_, fast_net(), Rng(10)),
        a_(net_, ProcessId{0}, [this](const Message& m) { a_inbox_.push_back(m); }),
        b_(net_, ProcessId{1}, [this](const Message& m) { b_inbox_.push_back(m); }) {}

  Message mk(ProcessId to, std::uint64_t payload = 0) {
    Message m;
    m.kind = MsgKind::kInternal;
    m.receiver = to;
    m.payload = payload;
    return m;
  }

  Simulator sim_;
  Network net_;
  ReliableEndpoint a_;
  ReliableEndpoint b_;
  std::vector<Message> a_inbox_;
  std::vector<Message> b_inbox_;
};

TEST_F(EndpointFixture, UnackedUntilAcked) {
  a_.send(mk(ProcessId{1}, 42));
  EXPECT_EQ(a_.unacked_count(), 1u);
  sim_.run();
  // Delivered but not consumed: still unacked.
  ASSERT_EQ(b_inbox_.size(), 1u);
  EXPECT_EQ(a_.unacked_count(), 1u);

  // Consumption alone does not acknowledge (validation-gated acks are the
  // engine's call); the explicit ack does.
  EXPECT_TRUE(b_.consume(b_inbox_[0]));
  sim_.run();
  EXPECT_EQ(a_.unacked_count(), 1u);
  b_.ack(b_inbox_[0]);
  sim_.run();
  EXPECT_EQ(a_.unacked_count(), 0u);
}

TEST_F(EndpointFixture, DuplicateConsumeSuppressed) {
  a_.send(mk(ProcessId{1}, 1));
  sim_.run();
  ASSERT_EQ(b_inbox_.size(), 1u);
  EXPECT_TRUE(b_.consume(b_inbox_[0]));
  EXPECT_FALSE(b_.consume(b_inbox_[0]));
  EXPECT_EQ(b_.duplicates_suppressed(), 1u);
}

TEST_F(EndpointFixture, ResendDeliversAgainAndDedups) {
  a_.send(mk(ProcessId{1}, 7));
  sim_.run();
  ASSERT_EQ(b_inbox_.size(), 1u);
  EXPECT_TRUE(b_.consume(b_inbox_[0]));
  sim_.run();

  // Simulate recovery on A's side: pretend the ack was lost by restoring
  // the unacked log from before.
  Message original = b_inbox_[0];
  const Message log[] = {original};
  a_.restore_unacked(log);
  EXPECT_EQ(a_.resend_unacked(1), 1u);
  sim_.run();
  ASSERT_EQ(b_inbox_.size(), 2u);
  // B already consumed the original: the re-send is a duplicate.
  EXPECT_FALSE(b_.consume(b_inbox_[1]));
}

TEST_F(EndpointFixture, ResendRestampsEpoch) {
  a_.send(mk(ProcessId{1}, 9));
  sim_.run();
  a_.resend_unacked(5);
  sim_.run();
  ASSERT_EQ(b_inbox_.size(), 2u);
  EXPECT_EQ(b_inbox_[0].epoch, 0u);
  EXPECT_EQ(b_inbox_[1].epoch, 5u);
}

TEST_F(EndpointFixture, SnapshotRestoreDedupState) {
  a_.send(mk(ProcessId{1}, 1));
  sim_.run();
  EXPECT_TRUE(b_.consume(b_inbox_[0]));
  const Bytes snap = b_.snapshot_state();

  a_.send(mk(ProcessId{1}, 2));
  sim_.run();
  ASSERT_EQ(b_inbox_.size(), 2u);
  EXPECT_TRUE(b_.consume(b_inbox_[1]));

  // Roll B back to the snapshot: message 2's consumption is forgotten,
  // message 1's is remembered.
  b_.restore_state(snap);
  EXPECT_FALSE(b_.consume(b_inbox_[0]));
  EXPECT_TRUE(b_.consume(b_inbox_[1]));
}

TEST_F(EndpointFixture, RestoreUnackedRewindsSequenceSafely) {
  a_.send(mk(ProcessId{1}, 1));
  a_.send(mk(ProcessId{1}, 2));
  sim_.run();
  auto unacked = a_.unacked();
  ASSERT_EQ(unacked.size(), 2u);
  a_.restore_unacked(unacked);
  // New sends must not collide with restored transport_seqs.
  a_.send(mk(ProcessId{1}, 3));
  sim_.run();
  ASSERT_EQ(b_inbox_.size(), 3u);
  EXPECT_GT(b_inbox_[2].transport_seq, unacked[1].transport_seq);
}

TEST_F(EndpointFixture, DeviceMessagesAreFireAndForget) {
  a_.send([this] {
    Message m = mk(kDeviceId, 1);
    m.kind = MsgKind::kExternal;
    return m;
  }());
  EXPECT_EQ(a_.unacked_count(), 0u);
}

TEST_F(EndpointFixture, DetachReattach) {
  a_.send(mk(ProcessId{1}, 1));
  b_.detach_network();
  sim_.run();
  EXPECT_TRUE(b_inbox_.empty());
  b_.reattach_network();
  a_.send(mk(ProcessId{1}, 2));
  sim_.run();
  ASSERT_EQ(b_inbox_.size(), 1u);
  EXPECT_EQ(b_inbox_[0].payload, 2u);
}

}  // namespace
}  // namespace synergy
