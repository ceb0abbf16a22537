#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <optional>
#include <vector>

#include "common/rng.hpp"
#include "net/transport_core.hpp"

namespace synergy {
namespace {

Message internal_to(ProcessId to, std::uint64_t payload = 0) {
  Message m;
  m.kind = MsgKind::kInternal;
  m.receiver = to;
  m.payload = payload;
  return m;
}

TEST(TransportCoreTest, PrepareSendStampsMonotoneSequences) {
  TransportCore core(kP1Act);
  const Message a = core.prepare_send(internal_to(kP2));
  const Message b = core.prepare_send(internal_to(kP2));
  EXPECT_EQ(a.sender, kP1Act);
  EXPECT_EQ(a.transport_seq + 1, b.transport_seq);
}

TEST(TransportCoreTest, UnackedTracksNonAckNonDeviceOnly) {
  TransportCore core(kP1Act);
  core.prepare_send(internal_to(kP2));
  EXPECT_EQ(core.unacked_count(), 1u);

  Message ext = internal_to(kDeviceId);
  ext.kind = MsgKind::kExternal;
  core.prepare_send(ext);
  EXPECT_EQ(core.unacked_count(), 1u);  // device: fire-and-forget

  Message ack;
  ack.kind = MsgKind::kAck;
  ack.receiver = kP2;
  core.prepare_send(ack);
  EXPECT_EQ(core.unacked_count(), 1u);  // acks are not acked
}

TEST(TransportCoreTest, AckSettlesEntry) {
  TransportCore core(kP1Act);
  const Message m = core.prepare_send(internal_to(kP2));
  core.on_ack(kP2, m.transport_seq);
  EXPECT_EQ(core.unacked_count(), 0u);
  core.on_ack(kP2, m.transport_seq);  // idempotent
  EXPECT_EQ(core.unacked_count(), 0u);
}

TEST(TransportCoreTest, AckMatchesPerDestinationStream) {
  TransportCore core(kP1Act);
  const Message to_p2 = core.prepare_send(internal_to(kP2));
  const Message to_sdw = core.prepare_send(internal_to(kP1Sdw));
  // Independent streams: both firsts carry seq 1, but an ack from P2
  // settles only the P2 entry.
  EXPECT_EQ(to_p2.transport_seq, to_sdw.transport_seq);
  core.on_ack(kP2, to_p2.transport_seq);
  EXPECT_EQ(core.unacked_count(), 1u);
  core.on_ack(kP1Sdw, to_sdw.transport_seq);
  EXPECT_EQ(core.unacked_count(), 0u);
}

TEST(TransportCoreTest, AcksRideUnstampedAndOffTheStream) {
  TransportCore core(kP1Act);
  Message ack;
  ack.kind = MsgKind::kAck;
  ack.receiver = kP2;
  EXPECT_EQ(core.prepare_send(ack).transport_seq, 0u);
  // The data stream to the same peer is unperturbed: dense from 1.
  EXPECT_EQ(core.prepare_send(internal_to(kP2)).transport_seq, 1u);
}

TEST(TransportCoreTest, MakeAckAddressesSender) {
  Message m = internal_to(kP2);
  m.sender = kP1Act;
  m.transport_seq = 77;
  const Message ack = TransportCore::make_ack(m);
  EXPECT_EQ(ack.kind, MsgKind::kAck);
  EXPECT_EQ(ack.receiver, kP1Act);
  EXPECT_EQ(ack.ack_of, 77u);
}

TEST(TransportCoreTest, DuplicateDetectionPerSender) {
  TransportCore core(kP2);
  Message m = internal_to(kP2);
  m.sender = kP1Act;
  m.transport_seq = 5;
  EXPECT_FALSE(core.already_consumed(m));
  core.mark_consumed(m);
  EXPECT_TRUE(core.already_consumed(m));
  // Same seq from a different sender is distinct.
  m.sender = kP1Sdw;
  EXPECT_FALSE(core.already_consumed(m));
  EXPECT_EQ(core.duplicates_suppressed(), 1u);
}

TEST(TransportCoreTest, RestoreUnackedRewindsSequenceCounter) {
  TransportCore core(kP1Act);
  const Message a = core.prepare_send(internal_to(kP2));
  const Message b = core.prepare_send(internal_to(kP2));
  const Message log[] = {a, b};
  core.restore_unacked(log);
  const Message c = core.prepare_send(internal_to(kP2));
  EXPECT_GT(c.transport_seq, b.transport_seq);
  EXPECT_EQ(core.unacked_count(), 3u);
}

TEST(TransportCoreTest, PrepareResendRestampsEpoch) {
  TransportCore core(kP1Act);
  core.prepare_send(internal_to(kP2));
  core.prepare_send(internal_to(kP2));
  const auto resend = core.prepare_resend(9);
  ASSERT_EQ(resend.size(), 2u);
  for (const auto& m : resend) EXPECT_EQ(m.epoch, 9u);
  // The stored copies are re-stamped too (a second resend keeps epoch 9+).
  EXPECT_EQ(core.prepare_resend(9)[0].epoch, 9u);
}

TEST(TransportCoreTest, SnapshotRestoreRoundTripsDedupState) {
  TransportCore core(kP2);
  Message m = internal_to(kP2);
  m.sender = kP1Act;
  m.transport_seq = 3;
  core.mark_consumed(m);
  const Bytes snap = core.snapshot_state();

  m.transport_seq = 4;
  core.mark_consumed(m);
  core.restore_state(snap);
  m.transport_seq = 3;
  EXPECT_TRUE(core.already_consumed(m));
  m.transport_seq = 4;
  EXPECT_FALSE(core.already_consumed(m));
}

TEST(TransportCoreTest, SnapshotBytesMatchTheDocumentedLayout) {
  // u32 stream count, then per stream (by dest id) u32 dest + u64 next;
  // u32 peer count, then per peer (by id) u32 peer + u64 low + u32 tail
  // length + one u64 per tail seq. Every integer little-endian.
  TransportCore core(kP2);
  core.prepare_send(internal_to(kP1Sdw));
  core.prepare_send(internal_to(kP1Act));
  core.prepare_send(internal_to(kP1Act));
  Message m = internal_to(kP2);
  m.sender = kP1Sdw;
  for (const std::uint64_t seq : {1, 2, 9, 5, 7}) {
    m.transport_seq = seq;
    core.mark_consumed(m);
  }
  m.sender = kP1Act;
  m.transport_seq = 3;
  core.mark_consumed(m);

  Bytes want;
  const auto le = [&want](std::uint64_t v, int width) {
    for (int i = 0; i < width; ++i) {
      want.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
    }
  };
  le(2, 4);                     // streams
  le(kP1Act.value(), 4);        //   dest P1act
  le(3, 8);                     //   next seq
  le(kP1Sdw.value(), 4);        //   dest P1sdw
  le(2, 8);                     //   next seq
  le(2, 4);                     // peers
  le(kP1Act.value(), 4);        //   peer P1act
  le(0, 8);                     //   low: seq 1 not consumed yet
  le(1, 4);                     //   tail length
  le(3, 8);                     //     3
  le(kP1Sdw.value(), 4);        //   peer P1sdw
  le(2, 8);                     //   low
  le(3, 4);                     //   tail length
  for (const std::uint64_t seq : {5, 7, 9}) le(seq, 8);

  const Bytes got = core.snapshot_state();
  EXPECT_EQ(got, want);
  EXPECT_EQ(core.snapshot_bytes_encoded(), want.size());
  const std::uint64_t mark = core.mark();
  m.transport_seq = 1;
  core.mark_consumed(m);  // P1act's watermark moves past the mark
  EXPECT_EQ(core.state_at(mark), want);
}

TEST(TransportCoreTest, RestoreStateNeverLowersSequenceCounter) {
  TransportCore core(kP1Act);
  const Bytes early = core.snapshot_state();
  const Message a = core.prepare_send(internal_to(kP2));
  core.restore_state(early);
  const Message b = core.prepare_send(internal_to(kP2));
  // Monotone even across a restore to an earlier snapshot: live sequence
  // numbers must never be reused.
  EXPECT_GT(b.transport_seq, a.transport_seq);
}

/// (receiver, seq) of every message in `log`, in order.
std::vector<std::pair<std::uint32_t, std::uint64_t>> keys_of(
    std::span<const Message> log) {
  std::vector<std::pair<std::uint32_t, std::uint64_t>> keys;
  for (const Message& m : log) {
    keys.emplace_back(m.receiver.value(), m.transport_seq);
  }
  return keys;
}

TEST(TransportCoreTest, OutOfOrderAcksAcrossManyDestinations) {
  // A hub's log: three multicast rounds to 320 destinations, settled by
  // acks in random order. The log must keep send order, its counts must
  // follow the live entries, and a resend or a restore sees exactly them.
  constexpr std::uint32_t kDests = 320;
  TransportCore core(ProcessId{0});
  std::vector<std::pair<std::uint32_t, std::uint64_t>> live;
  for (int round = 0; round < 3; ++round) {
    for (std::uint32_t d = 1; d <= kDests; ++d) {
      const Message m = core.prepare_send(internal_to(ProcessId{d}));
      live.emplace_back(d, m.transport_seq);
    }
  }
  EXPECT_EQ(core.unacked_high_water(), live.size());
  std::vector<std::pair<std::uint32_t, std::uint64_t>> acks = live;
  Rng rng(11);
  for (std::size_t i = acks.size(); i > 1; --i) {
    std::swap(acks[i - 1], acks[static_cast<std::size_t>(rng.uniform_int(
                               0, static_cast<std::int64_t>(i) - 1))]);
  }
  std::size_t high = live.size();
  for (std::size_t i = 0; i < acks.size(); ++i) {
    const auto [dest, seq] = acks[i];
    core.on_ack(ProcessId{dest}, seq);
    core.on_ack(ProcessId{dest}, seq);  // duplicate acks are no-ops
    live.erase(std::find(live.begin(), live.end(), acks[i]));
    ASSERT_EQ(core.unacked_count(), live.size());
    if (i % 97 == 0) {
      ASSERT_EQ(keys_of(core.unacked()), live) << "after " << i << " acks";
    }
    if (i == acks.size() / 2) {
      // Halfway: a resend hands back the live entries in send order, and
      // a restore of that log reproduces it.
      const std::vector<Message> saved(core.unacked().begin(),
                                       core.unacked().end());
      EXPECT_EQ(keys_of(core.prepare_resend(4)), live);
      for (const Message& m : core.unacked()) EXPECT_EQ(m.epoch, 4u);
      TransportCore restored(ProcessId{0});
      restored.restore_unacked(saved);
      EXPECT_EQ(keys_of(restored.unacked()), live);
      EXPECT_EQ(restored.unacked_count(), live.size());
      EXPECT_EQ(restored.unacked_high_water(), live.size());
      core.restore_unacked(saved);
      ASSERT_EQ(keys_of(core.unacked()), live);
    }
  }
  EXPECT_EQ(core.unacked_count(), 0u);
  EXPECT_TRUE(core.unacked().empty());
  EXPECT_EQ(core.unacked_high_water(), high);
  // Streams continued past every logged seq.
  EXPECT_EQ(core.prepare_send(internal_to(ProcessId{kDests})).transport_seq,
            4u);
}

TEST(TransportCoreTest, StateAtMarkEqualsTheSnapshotTakenThen) {
  // Randomized differential: every mutation path runs with marks taken and
  // released at random points; state_at(mark) must equal the eager
  // snapshot taken when the mark was, through journal rollback, journal
  // trimming and folding alike.
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    Rng rng(seed);
    TransportCore core(ProcessId{0});
    const std::uint32_t peers =
        static_cast<std::uint32_t>(rng.uniform_int(2, 40));
    std::map<std::uint64_t, Bytes> marks;  // mark -> snapshot then
    std::vector<Bytes> snapshots{core.snapshot_state()};
    std::vector<std::vector<Message>> logs{{}};
    std::vector<std::uint64_t> recv_next(peers + 1, 1);
    std::size_t checked = 0;
    const auto peer = [&] {
      return static_cast<std::uint32_t>(rng.uniform_int(1, peers));
    };
    // Odd seeds never restore, so their journals outgrow the state and
    // get trimmed and folded; even seeds fold at every restore.
    const bool restores = seed % 2 == 0;
    for (int step = 0; step < 3000; ++step) {
      std::int64_t op = rng.uniform_int(0, 99);
      if (!restores && op >= 70 && op < 77) op = 40;
      if (op < 25) {
        Message m = internal_to(rng.bernoulli(0.05) ? kDeviceId
                                                    : ProcessId{peer()});
        if (rng.bernoulli(0.05)) m.kind = MsgKind::kAck;
        core.prepare_send(m);
      } else if (op < 35) {
        const auto log = core.unacked();
        if (!log.empty()) {
          const Message& m = log[static_cast<std::size_t>(rng.uniform_int(
              0, static_cast<std::int64_t>(log.size()) - 1))];
          core.on_ack(m.receiver, m.transport_seq);
        }
      } else if (op < 70) {
        // Mostly in order, sometimes ahead (a reorder tail) or repeated.
        const std::uint32_t from = peer();
        Message m = internal_to(ProcessId{0});
        m.sender = ProcessId{from};
        const std::int64_t jump = rng.uniform_int(0, 9);
        m.transport_seq = jump < 6 ? recv_next[from]++
                          : jump < 9 ? recv_next[from] + static_cast<
                                           std::uint64_t>(jump)
                                     : std::max<std::uint64_t>(
                                           1, recv_next[from] - 1);
        core.mark_consumed(m);
      } else if (op < 73) {
        core.restore_state(snapshots[static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<std::int64_t>(snapshots.size()) -
                                   1))]);
      } else if (op < 75) {
        core.restore_unacked(logs[static_cast<std::size_t>(rng.uniform_int(
            0, static_cast<std::int64_t>(logs.size()) - 1))]);
      } else if (op < 77) {
        core.prepare_resend(static_cast<std::uint32_t>(step));
      } else if (op < 87) {
        marks.emplace(core.mark(), core.snapshot_state());
      } else if (op < 93) {
        if (!marks.empty()) {
          auto it = marks.begin();
          std::advance(it, rng.uniform_int(
                               0, static_cast<std::int64_t>(marks.size()) - 1));
          core.release_mark(it->first);
          marks.erase(it);
        }
      } else if (op < 96) {
        snapshots.push_back(core.snapshot_state());
        logs.emplace_back(core.unacked().begin(), core.unacked().end());
      } else {
        for (const auto& [mark, want] : marks) {
          ASSERT_EQ(core.state_at(mark), want)
              << "seed " << seed << " step " << step << " mark " << mark;
          ++checked;
        }
      }
    }
    for (const auto& [mark, want] : marks) {
      ASSERT_EQ(core.state_at(mark), want) << "seed " << seed;
      ++checked;
    }
    EXPECT_GT(checked, 100u) << "seed " << seed;
  }
}

}  // namespace
}  // namespace synergy
