#include <gtest/gtest.h>

#include <vector>

#include "analysis/checkers.hpp"
#include "common/rng.hpp"
#include "mdcd/views.hpp"

namespace synergy {
namespace {

MsgView view(ProcessId peer, std::uint64_t seq, bool suspect,
             MsgKind kind = MsgKind::kInternal) {
  return MsgView{peer, seq, seq, kind, suspect};
}

TEST(ViewLogTest, ValidateAllUpgradesSuspects) {
  ViewLog log;
  log.add(view(kP2, 1, true));
  log.add(view(kP2, 2, false));
  log.add(view(kP2, 3, true));
  EXPECT_EQ(log.validate_all(1), 2u);
  for (const auto& v : log.entries()) EXPECT_FALSE(v.suspect);
  EXPECT_EQ(log.validate_all(2), 0u);
}

MsgView covered_view(std::uint64_t seq, bool suspect, MsgSeq contam) {
  return MsgView{kP2, seq, seq, MsgKind::kInternal, suspect, contam};
}

std::vector<MsgView> copy_of(const ViewLog& log) {
  return {log.entries().begin(), log.entries().end()};
}

TEST(ViewLogTest, SuspectIndexMatchesFullRescan) {
  // The suspect-index upgrade must change exactly the entries, and report
  // exactly the counts, that rescanning the whole log would.
  Rng rng(17);
  ViewLog log;
  std::vector<MsgView> oracle;
  std::uint64_t epoch = 0;
  for (int step = 0; step < 4000; ++step) {
    const std::int64_t op = rng.uniform_int(0, 9);
    if (op < 7) {
      const MsgView v = covered_view(static_cast<std::uint64_t>(step),
                                     rng.bernoulli(0.6),
                                     static_cast<MsgSeq>(rng.uniform_int(0, 500)));
      log.add(v);
      oracle.push_back(v);
      continue;
    }
    const bool all = op == 9;
    const auto watermark = static_cast<MsgSeq>(rng.uniform_int(0, 500));
    std::size_t expected = 0;
    for (MsgView& v : oracle) {
      if (v.suspect && (all || v.contam_sn <= watermark)) {
        v.suspect = false;
        ++expected;
      }
    }
    ++epoch;
    const std::size_t changed = all ? log.validate_all(epoch)
                                    : log.validate_covered(watermark, epoch);
    ASSERT_EQ(changed, expected) << "step " << step;
    ASSERT_EQ(copy_of(log), oracle) << "step " << step;
  }
}

TEST(ViewHistoryTest, MarkBeforeValidationStillReadsSuspect) {
  ViewHistory h;
  h.add_sent(covered_view(1, true, 1));
  h.add_recv(covered_view(2, true, 1));
  h.add_sent(covered_view(3, false, 0));
  const ViewMark before = h.mark();
  h.validate_all();
  const ViewMark after = h.mark();
  EXPECT_FALSE(h.sent().entries()[0].suspect);  // live view upgraded
  EXPECT_FALSE(h.recv().entries()[0].suspect);

  const ViewLog sent_before = h.sent_at(before);
  const ViewLog recv_before = h.recv_at(before);
  ASSERT_EQ(sent_before.size(), 2u);
  EXPECT_TRUE(sent_before.entries()[0].suspect);
  EXPECT_FALSE(sent_before.entries()[1].suspect);  // recorded valid
  EXPECT_TRUE(recv_before.entries()[0].suspect);
  EXPECT_FALSE(h.sent_at(after).entries()[0].suspect);
  EXPECT_FALSE(h.recv_at(after).entries()[0].suspect);
}

TEST(ViewHistoryTest, RestoreToOlderMarkLeavesOtherRecordsUnchanged) {
  struct Taken {
    const ViewHistory* log;
    ViewMark mark;
    std::vector<MsgView> sent;
    std::vector<MsgView> recv;
  };
  std::vector<Taken> taken;
  Rng rng(29);
  auto h = std::make_shared<ViewHistory>();
  std::vector<std::shared_ptr<ViewHistory>> lineage{h};
  std::uint64_t seq = 0;
  auto drive = [&](ViewHistory& log, int steps) {
    for (int i = 0; i < steps; ++i) {
      const std::int64_t op = rng.uniform_int(0, 9);
      const auto contam = static_cast<MsgSeq>(rng.uniform_int(0, 50));
      if (op < 4) {
        log.add_sent(covered_view(++seq, rng.bernoulli(0.5), contam));
      } else if (op < 8) {
        log.add_recv(covered_view(++seq, rng.bernoulli(0.5), contam));
      } else if (op == 8) {
        log.validate_covered(contam);
      } else {
        log.validate_all();
      }
      if (rng.bernoulli(0.2)) {
        // A record established now: deep-copy the live views it covers.
        taken.push_back(Taken{&log, log.mark(), copy_of(log.sent()),
                              copy_of(log.recv())});
      }
    }
  };
  drive(*h, 200);
  // Restore to an older record, then keep going in the copy — twice, the
  // second time from a record of the first copy.
  for (int round = 0; round < 2; ++round) {
    std::vector<const Taken*> own;
    for (const Taken& t : taken) {
      if (t.log == lineage.back().get()) own.push_back(&t);
    }
    ASSERT_GE(own.size(), 3u);
    const Taken& target = *own[own.size() / 3];
    auto copy = lineage.back()->fork(target.mark);
    EXPECT_EQ(copy_of(copy->sent()), target.sent);
    EXPECT_EQ(copy_of(copy->recv()), target.recv);
    lineage.push_back(copy);
    const std::size_t before = taken.size();
    drive(*copy, 200);
    ASSERT_GT(taken.size(), before);
  }
  // Every record, in every history, still reads exactly its copy.
  for (const Taken& t : taken) {
    EXPECT_EQ(copy_of(t.log->sent_at(t.mark)), t.sent);
    EXPECT_EQ(copy_of(t.log->recv_at(t.mark)), t.recv);
  }
}

class CheckerFixture : public ::testing::Test {
 protected:
  CheckerFixture() { state_.processes.reserve(8); }

  GlobalState state_;

  ProcessFacts& add_process(ProcessId id) {
    ProcessFacts f;
    f.id = id;
    state_.processes.push_back(f);
    return state_.processes.back();
  }
};

TEST_F(CheckerFixture, CleanStatePasses) {
  auto& sender = add_process(kP2);
  auto& receiver = add_process(kP1Sdw);
  sender.sent.add(view(kP1Sdw, 5, false));
  receiver.recv.add(view(kP2, 5, false));
  EXPECT_TRUE(check_consistency(state_).empty());
  EXPECT_TRUE(check_recoverability(state_).empty());
  EXPECT_TRUE(check_software_recoverability(state_).empty());
}

TEST_F(CheckerFixture, ReceivedNotSentFlagged) {
  add_process(kP2);
  auto& receiver = add_process(kP1Sdw);
  receiver.recv.add(view(kP2, 5, false));
  const auto v = check_consistency(state_);
  ASSERT_EQ(v.size(), 1u);
  EXPECT_EQ(v[0].kind, Violation::Kind::kReceivedNotSent);
  EXPECT_NE(v[0].describe().find("does not reflect sending"),
            std::string::npos);
}

TEST_F(CheckerFixture, ValidityMismatchFlagged) {
  auto& sender = add_process(kP2);
  auto& receiver = add_process(kP1Sdw);
  sender.sent.add(view(kP1Sdw, 5, false));
  receiver.recv.add(view(kP2, 5, true));
  const auto v = check_consistency(state_);
  ASSERT_EQ(v.size(), 1u);
  EXPECT_EQ(v[0].kind, Violation::Kind::kValidityMismatch);
}

TEST_F(CheckerFixture, LostMessageFlagged) {
  auto& sender = add_process(kP2);
  add_process(kP1Sdw);
  sender.sent.add(view(kP1Sdw, 5, false));
  const auto v = check_recoverability(state_);
  ASSERT_EQ(v.size(), 1u);
  EXPECT_EQ(v[0].kind, Violation::Kind::kLostMessage);
}

TEST_F(CheckerFixture, UnackedMessageIsRestorable) {
  auto& sender = add_process(kP2);
  add_process(kP1Sdw);
  sender.sent.add(view(kP1Sdw, 5, false));
  Message m;
  m.sender = kP2;
  m.receiver = kP1Sdw;
  m.transport_seq = 5;
  sender.unacked.push_back(m);
  EXPECT_TRUE(check_recoverability(state_).empty());
}

TEST_F(CheckerFixture, ExternalMessagesIgnored) {
  auto& sender = add_process(kP2);
  add_process(kP1Sdw);
  sender.sent.add(view(kDeviceId, 7, false, MsgKind::kExternal));
  EXPECT_TRUE(check_recoverability(state_).empty());
}

TEST_F(CheckerFixture, PeerOutsideStateIgnored) {
  auto& receiver = add_process(kP1Sdw);
  receiver.recv.add(view(kP1Act, 3, true));  // P1act not in the state
  EXPECT_TRUE(check_consistency(state_).empty());
}

TEST_F(CheckerFixture, DirtyRestoredStateFlagged) {
  auto& p = add_process(kP2);
  p.dirty = true;
  const auto v = check_software_recoverability(state_);
  ASSERT_EQ(v.size(), 1u);
  EXPECT_EQ(v[0].kind, Violation::Kind::kDirtyRestoredState);
}

TEST_F(CheckerFixture, CheckAllAggregates) {
  auto& sender = add_process(kP2);
  auto& receiver = add_process(kP1Sdw);
  receiver.dirty = true;
  sender.sent.add(view(kP1Sdw, 5, false));
  receiver.recv.add(view(kP2, 6, false));
  const auto v = check_all(state_);
  EXPECT_EQ(v.size(), 3u);  // lost + received-not-sent + dirty-restored
}

}  // namespace
}  // namespace synergy
