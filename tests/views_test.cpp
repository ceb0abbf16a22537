#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "analysis/checkers.hpp"
#include "checker_cases.hpp"
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

TEST(ViewLogTest, PeerIndexIsSeqOrderedWithLogOrderOnTies) {
  // Random peers and seqs with many repeats: each peer's index must equal
  // a stable sort of that peer's positions by seq, and suspect_at at an
  // earlier epoch must read what a deep copy taken then holds.
  Rng rng(23);
  ViewLog log;
  std::vector<std::pair<std::uint64_t, std::vector<MsgView>>> taken;
  std::uint64_t epoch = 0;
  for (int step = 0; step < 3000; ++step) {
    if (rng.bernoulli(0.1)) {
      ++epoch;
      log.validate_covered(static_cast<MsgSeq>(rng.uniform_int(0, 40)), epoch);
      continue;
    }
    const ProcessId peer{static_cast<std::uint32_t>(rng.uniform_int(0, 4))};
    const auto seq = static_cast<std::uint64_t>(rng.uniform_int(0, 400));
    log.add(MsgView{peer, seq, seq, MsgKind::kInternal, rng.bernoulli(0.5),
                    static_cast<MsgSeq>(rng.uniform_int(0, 50))});
    if (rng.bernoulli(0.05)) taken.emplace_back(epoch, copy_of(log));
  }
  std::size_t indexed = 0;
  for (const ViewLog::PeerIndex& index : log.peers()) {
    std::vector<std::uint32_t> want;
    for (std::uint32_t i = 0; i < log.size(); ++i) {
      if (log.entries()[i].peer == index.peer) want.push_back(i);
    }
    std::stable_sort(want.begin(), want.end(),
                     [&log](std::uint32_t a, std::uint32_t b) {
                       return log.entries()[a].transport_seq <
                              log.entries()[b].transport_seq;
                     });
    EXPECT_EQ(index.by_seq, want);
    EXPECT_EQ(log.peer(index.peer), &index);
    indexed += index.by_seq.size();
  }
  EXPECT_EQ(indexed, log.size());
  EXPECT_EQ(log.peer(ProcessId{99}), nullptr);
  ASSERT_GT(taken.size(), 10u);
  for (const auto& [at, copy] : taken) {
    for (std::size_t i = 0; i < copy.size(); ++i) {
      ASSERT_EQ(log.suspect_at(i, at), copy[i].suspect);
    }
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
  checker_cases::LineBuilder line_;

  checker_cases::Proc& add_process(ProcessId id) { return line_.add(id); }
  GlobalState state() const { return line_.state(); }

  /// Each check, and check_all, returns exactly the case's violations.
  static void expect_case(const checker_cases::Case& c) {
    using checker_cases::render;
    EXPECT_EQ(render(check_consistency(c.state)), render(c.consistency))
        << c.name;
    EXPECT_EQ(render(check_recoverability(c.state)), render(c.recoverability))
        << c.name;
    EXPECT_EQ(render(check_software_recoverability(c.state)),
              render(c.software))
        << c.name;
    std::vector<Violation> all = c.consistency;
    all.insert(all.end(), c.recoverability.begin(), c.recoverability.end());
    all.insert(all.end(), c.software.begin(), c.software.end());
    EXPECT_EQ(render(check_all(c.state)), render(all)) << c.name;
  }
};

TEST_F(CheckerFixture, CleanStatePasses) {
  add_process(kP2).sent(kP1Sdw, 5, false);
  add_process(kP1Sdw).recv(kP2, 5, false);
  const GlobalState s = state();
  EXPECT_TRUE(check_consistency(s).empty());
  EXPECT_TRUE(check_recoverability(s).empty());
  EXPECT_TRUE(check_software_recoverability(s).empty());
}

TEST_F(CheckerFixture, ReceivedNotSentFlagged) {
  add_process(kP2);
  add_process(kP1Sdw).recv(kP2, 5, false);
  const auto v = check_consistency(state());
  ASSERT_EQ(v.size(), 1u);
  EXPECT_EQ(v[0].kind, Violation::Kind::kReceivedNotSent);
  EXPECT_NE(v[0].describe().find("does not reflect sending"),
            std::string::npos);
}

TEST_F(CheckerFixture, ValidityMismatchFlagged) {
  add_process(kP2).sent(kP1Sdw, 5, false);
  add_process(kP1Sdw).recv(kP2, 5, true);
  const auto v = check_consistency(state());
  ASSERT_EQ(v.size(), 1u);
  EXPECT_EQ(v[0].kind, Violation::Kind::kValidityMismatch);
}

TEST_F(CheckerFixture, LostMessageFlagged) {
  add_process(kP2).sent(kP1Sdw, 5, false);
  add_process(kP1Sdw);
  const auto v = check_recoverability(state());
  ASSERT_EQ(v.size(), 1u);
  EXPECT_EQ(v[0].kind, Violation::Kind::kLostMessage);
}

TEST_F(CheckerFixture, UnackedMessageIsRestorable) {
  auto& sender = add_process(kP2);
  add_process(kP1Sdw);
  sender.sent(kP1Sdw, 5, false);
  sender.unacked_seq(kP1Sdw, 5);
  EXPECT_TRUE(check_recoverability(state()).empty());
}

TEST_F(CheckerFixture, ExternalMessagesIgnored) {
  add_process(kP2).sent(kDeviceId, 7, false, MsgKind::kExternal);
  add_process(kP1Sdw);
  EXPECT_TRUE(check_recoverability(state()).empty());
}

TEST_F(CheckerFixture, PeerOutsideStateIgnored) {
  // P1act is not in the state.
  add_process(kP1Sdw).recv(kP1Act, 3, true);
  EXPECT_TRUE(check_consistency(state()).empty());
}

TEST_F(CheckerFixture, DirtyRestoredStateFlagged) {
  add_process(kP2).dirty = true;
  const auto v = check_software_recoverability(state());
  ASSERT_EQ(v.size(), 1u);
  EXPECT_EQ(v[0].kind, Violation::Kind::kDirtyRestoredState);
}

TEST_F(CheckerFixture, CheckAllAggregates) {
  add_process(kP2).sent(kP1Sdw, 5, false);
  auto& receiver = add_process(kP1Sdw);
  receiver.dirty = true;
  receiver.recv(kP2, 6, false);
  const auto v = check_all(state());
  EXPECT_EQ(v.size(), 3u);  // lost + received-not-sent + dirty-restored
}

TEST_F(CheckerFixture, ReceiptsOutOfSeqOrder) {
  expect_case(checker_cases::out_of_order_receipts());
}

TEST_F(CheckerFixture, DuplicateSeqsFirstEntryWins) {
  expect_case(checker_cases::duplicate_entries_first_wins());
}

TEST_F(CheckerFixture, EntriesPastTheMarkAreNotInTheState) {
  expect_case(checker_cases::entries_past_the_mark());
}

TEST_F(CheckerFixture, UpgradeAfterTheMarkEpochReadsSuspect) {
  expect_case(checker_cases::upgrade_after_the_mark_epoch());
}

TEST_F(CheckerFixture, ExternalSeqCollidingWithInternalAnswersLookups) {
  expect_case(checker_cases::external_seq_collides_with_internal());
}

TEST_F(CheckerFixture, PeersOutsideTheStateAndProcessesWithoutViews) {
  expect_case(checker_cases::peers_outside_the_state());
}

TEST_F(CheckerFixture, ViolationOrderAcrossThreeProcesses) {
  expect_case(checker_cases::violation_order_across_three_processes());
}

}  // namespace
}  // namespace synergy
