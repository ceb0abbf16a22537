// Hand-built recovery lines for the oracle tests.
//
// Each case is a global state assembled the way every audit path
// assembles one — one checkpoint record per process, its views referenced
// through a ViewRef and read through facts_from_record — plus the
// violations the paper's properties demand of it, in the checkers' order:
// per process in state order, then by position in that process's log.
// The cases aim at what an index-based checker can get wrong: seq order
// versus log order, duplicate seqs, marks that cut a history short or sit
// before a validation, external views, peers the state does not hold.
#pragma once

#include <deque>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/checkers.hpp"
#include "app/state.hpp"
#include "mdcd/views.hpp"

namespace synergy::checker_cases {

/// One process of a case: its view history, the mark its record reads it
/// at (the history's end unless pinned) and the record's other facts.
struct Proc {
  ProcessId id;
  std::shared_ptr<ViewHistory> views = std::make_shared<ViewHistory>();
  std::optional<ViewMark> mark;
  bool no_views = false;  ///< the record carries no view history
  bool dirty = false;
  std::vector<Message> unacked;

  void sent(ProcessId to, std::uint64_t seq, bool suspect,
            MsgKind kind = MsgKind::kInternal) {
    views->add_sent(MsgView{to, seq, seq, kind, suspect});
  }
  void recv(ProcessId from, std::uint64_t seq, bool suspect,
            MsgKind kind = MsgKind::kInternal) {
    views->add_recv(MsgView{from, seq, seq, kind, suspect});
  }
  /// From here on the record reads the history as it stands now.
  void pin() { mark = views->mark(); }
  void unacked_seq(ProcessId to, std::uint64_t seq) {
    Message m;
    m.sender = id;
    m.receiver = to;
    m.transport_seq = seq;
    unacked.push_back(m);
  }
};

class LineBuilder {
 public:
  Proc& add(ProcessId id) {
    Proc& p = procs_.emplace_back();
    p.id = id;
    return p;
  }

  GlobalState state() const {
    std::vector<CheckpointRecord> records;
    for (const Proc& p : procs_) {
      CheckpointRecord rec;
      rec.owner = p.id;
      rec.dirty_bit = p.dirty;
      rec.app_state = SharedBytes(ApplicationState().snapshot());
      rec.unacked = p.unacked;
      if (!p.no_views) {
        rec.views = ViewRef{p.views, p.mark.value_or(p.views->mark())};
      }
      records.push_back(std::move(rec));
    }
    return global_state_from_records(records);
  }

 private:
  std::deque<Proc> procs_;
};

inline std::string render(const std::vector<Violation>& found) {
  std::ostringstream out;
  for (const Violation& v : found) {
    out << static_cast<int>(v.kind) << ' ' << to_string(v.a) << ' '
        << to_string(v.b) << ' ' << v.transport_seq << '\n';
  }
  return out.str();
}

struct Case {
  std::string name;
  GlobalState state;
  std::vector<Violation> consistency;
  std::vector<Violation> recoverability;
  std::vector<Violation> software;
};

using K = Violation::Kind;

/// Receipts in a different order than their seqs; violations still come
/// out in log order, not seq order.
inline Case out_of_order_receipts() {
  LineBuilder line;
  Proc& p2 = line.add(kP2);
  Proc& sdw = line.add(kP1Sdw);
  p2.sent(kP1Sdw, 3, false);
  p2.sent(kP1Sdw, 5, true);
  p2.sent(kP1Sdw, 11, false);
  p2.sent(kP1Sdw, 7, false);
  p2.sent(kP1Sdw, 1, false);
  sdw.recv(kP2, 9, false);
  sdw.recv(kP2, 7, false);
  sdw.recv(kP2, 3, false);
  sdw.recv(kP2, 5, false);
  sdw.recv(kP2, 13, false);
  return Case{"out_of_order_receipts",
              line.state(),
              {{K::kReceivedNotSent, kP1Sdw, kP2, 9},
               {K::kValidityMismatch, kP1Sdw, kP2, 5},
               {K::kReceivedNotSent, kP1Sdw, kP2, 13}},
              {{K::kValidityMismatch, kP2, kP1Sdw, 5},
               {K::kLostMessage, kP2, kP1Sdw, 11},
               {K::kLostMessage, kP2, kP1Sdw, 1}},
              {}};
}

/// Two entries with one (peer, seq): the first appended is the one the
/// other side is compared against; every entry is still checked.
inline Case duplicate_entries_first_wins() {
  LineBuilder line;
  Proc& p2 = line.add(kP2);
  Proc& sdw = line.add(kP1Sdw);
  p2.sent(kP1Sdw, 5, false);
  p2.sent(kP1Sdw, 5, true);
  p2.sent(kP1Sdw, 6, true);
  sdw.recv(kP2, 6, true);
  sdw.recv(kP2, 5, false);
  sdw.recv(kP2, 6, false);
  return Case{"duplicate_entries_first_wins",
              line.state(),
              {{K::kValidityMismatch, kP1Sdw, kP2, 6}},
              {{K::kValidityMismatch, kP2, kP1Sdw, 5}},
              {}};
}

/// Entries appended after a record's mark are not part of its state.
inline Case entries_past_the_mark() {
  LineBuilder line;
  Proc& p2 = line.add(kP2);
  Proc& sdw = line.add(kP1Sdw);
  p2.sent(kP1Sdw, 1, false);
  p2.sent(kP1Sdw, 2, false);
  p2.pin();
  p2.sent(kP1Sdw, 3, false);
  p2.sent(kP1Sdw, 1, true);
  sdw.recv(kP2, 1, false);
  sdw.recv(kP2, 3, false);
  sdw.pin();
  sdw.recv(kP2, 2, false);
  sdw.recv(kP2, 1, true);
  return Case{"entries_past_the_mark",
              line.state(),
              {{K::kReceivedNotSent, kP1Sdw, kP2, 3}},
              {{K::kLostMessage, kP2, kP1Sdw, 2}},
              {}};
}

/// A validation after a record's mark leaves the record's view suspect;
/// one before it does not.
inline Case upgrade_after_the_mark_epoch() {
  LineBuilder line;
  Proc& p2 = line.add(kP2);
  Proc& sdw = line.add(kP1Sdw);
  p2.sent(kP1Sdw, 4, true);
  p2.views->validate_all();
  p2.sent(kP1Sdw, 5, true);
  p2.pin();
  p2.views->validate_all();
  sdw.recv(kP2, 4, true);
  sdw.recv(kP2, 5, true);
  sdw.views->validate_all();
  return Case{"upgrade_after_the_mark_epoch",
              line.state(),
              {{K::kValidityMismatch, kP1Sdw, kP2, 5}},
              {{K::kValidityMismatch, kP2, kP1Sdw, 5}},
              {}};
}

/// External entries are never checked themselves, but an external entry
/// naming the peer with a matching seq answers a lookup.
inline Case external_seq_collides_with_internal() {
  LineBuilder line;
  Proc& p2 = line.add(kP2);
  Proc& sdw = line.add(kP1Sdw);
  p2.sent(kDeviceId, 5, false, MsgKind::kExternal);
  p2.sent(kP1Sdw, 5, true);
  p2.sent(kP1Sdw, 8, false, MsgKind::kExternal);
  p2.sent(kP1Sdw, 9, true);
  sdw.recv(kP2, 5, true);
  sdw.recv(kP2, 8, false);
  sdw.recv(kP2, 9, false, MsgKind::kExternal);
  sdw.recv(kP2, 10, false, MsgKind::kExternal);
  return Case{"external_seq_collides_with_internal",
              line.state(),
              {},
              {{K::kValidityMismatch, kP2, kP1Sdw, 9}},
              {}};
}

/// Views naming a process outside the state are not checked; a process
/// in the state without a view history reflects no message at all.
inline Case peers_outside_the_state() {
  LineBuilder line;
  Proc& sdw = line.add(kP1Sdw);
  Proc& p2 = line.add(kP2);
  Proc& act = line.add(kP1Act);
  act.no_views = true;
  sdw.recv(ProcessId{7}, 1, true);
  sdw.sent(ProcessId{7}, 2, true);
  sdw.sent(kP2, 1, false);
  p2.recv(kP1Sdw, 1, false);
  p2.recv(kP1Act, 3, false);
  p2.sent(kP1Act, 4, false);
  p2.sent(kP1Act, 6, false);
  p2.sent(kP1Sdw, 2, false);
  p2.unacked_seq(kP1Act, 4);
  return Case{"peers_outside_the_state",
              line.state(),
              {{K::kReceivedNotSent, kP2, kP1Act, 3}},
              {{K::kLostMessage, kP2, kP1Act, 6},
               {K::kLostMessage, kP2, kP1Sdw, 2}},
              {}};
}

/// Three processes listed out of id order, each with findings against
/// both peers: state order first, then log order within a process.
inline Case violation_order_across_three_processes() {
  LineBuilder line;
  Proc& p2 = line.add(kP2);
  Proc& act = line.add(kP1Act);
  Proc& sdw = line.add(kP1Sdw);
  sdw.dirty = true;
  act.dirty = true;  // P1act is exempt from the software check
  p2.sent(kP1Act, 10, false);
  p2.sent(kP1Sdw, 11, false);
  p2.sent(kP1Act, 12, false);
  p2.recv(kP1Sdw, 20, false);
  p2.recv(kP1Act, 21, false);
  act.recv(kP1Sdw, 30, true);
  act.recv(kP2, 12, false);
  sdw.sent(kP2, 20, false);
  sdw.sent(kP1Act, 31, false);
  sdw.sent(kP1Act, 30, false);
  sdw.recv(kP2, 11, true);
  return Case{"violation_order_across_three_processes",
              line.state(),
              {{K::kReceivedNotSent, kP2, kP1Act, 21},
               {K::kValidityMismatch, kP1Act, kP1Sdw, 30},
               {K::kValidityMismatch, kP1Sdw, kP2, 11}},
              {{K::kLostMessage, kP2, kP1Act, 10},
               {K::kValidityMismatch, kP2, kP1Sdw, 11},
               {K::kLostMessage, kP1Sdw, kP1Act, 31},
               {K::kValidityMismatch, kP1Sdw, kP1Act, 30}},
              {{K::kDirtyRestoredState, kP1Sdw, kP1Sdw, 0}}};
}

inline std::vector<Case> adversarial_cases() {
  std::vector<Case> all;
  all.push_back(out_of_order_receipts());
  all.push_back(duplicate_entries_first_wins());
  all.push_back(entries_past_the_mark());
  all.push_back(upgrade_after_the_mark_epoch());
  all.push_back(external_seq_collides_with_internal());
  all.push_back(peers_outside_the_state());
  all.push_back(violation_order_across_three_processes());
  return all;
}

}  // namespace synergy::checker_cases
