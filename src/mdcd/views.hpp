// Per-message validity views.
//
// The paper's correctness properties are stated over *views on message
// validity*: in a recovered global state, sender and receiver must agree
// on whether each reflected message is valid (validated) or suspect
// (sent from a potentially contaminated state, not yet covered by an
// acceptance test). Engines therefore keep a log of sent and received
// application-purpose messages together with the local validity view. The
// global-state checkers compare these logs across checkpoints.
//
// Only the oracles read the views, so they live outside the checkpoint
// record, in one append-only ViewHistory per process (the "ghost log",
// DESIGN.md §19). A record carries a ViewMark — both prefix lengths plus
// the validation epoch at capture — and a handle on the history it indexes.
// The canonical engines' views carry a scalar contamination watermark; the
// generalized engine's carry a per-source ContamVector in a parallel
// column.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "common/small_vec.hpp"
#include "common/types.hpp"
#include "mdcd/contam.hpp"
#include "net/message.hpp"
#include "storage/checkpoint.hpp"

namespace synergy {

struct MsgView {
  ProcessId peer;               ///< The other party (receiver for sent,
                                ///< sender for received entries).
  std::uint64_t transport_seq;  ///< Identity of the message.
  MsgSeq sn;                    ///< Protocol sequence number.
  MsgKind kind;                 ///< kInternal or kExternal.
  bool suspect;                 ///< Local view: not yet validated.
  /// Contamination watermark the entry's suspicion depends on (the
  /// message's contam_sn). A validation covering this SN upgrades it.
  MsgSeq contam_sn = 0;

  friend bool operator==(const MsgView&, const MsgView&) = default;
};

/// Append-only log of message views with bulk validation upgrades. An
/// index of the still-suspect entries makes an upgrade O(suspect), not
/// O(log), and each entry keeps the epoch of the validation that upgraded
/// it, so reading an entry as it stood at an earlier epoch is O(1). Per
/// peer, the log keeps its entries' positions in transport-seq order, which
/// lets the oracles merge-walk two logs in place (analysis/checkers.cpp).
///
/// A log holds either canonical views or general ones: a general view also
/// has its contamination vector, and may be appended *covered* — suspect,
/// though the validations of the current epoch already cover its vector.
/// The next validation upgrades it; a settled mark (ViewMark::settled) of
/// the same epoch reads it valid already.
class ViewLog {
 public:
  /// One peer's entries: positions into entries(), ordered by
  /// transport_seq. Equal seqs keep log order, so the first of a run is
  /// the entry appended first.
  struct PeerIndex {
    ProcessId peer;
    std::vector<std::uint32_t> by_seq;
  };

  void add(MsgView view);
  /// A general view with its contamination vector. A `covered` view
  /// (suspect, its vector covered by the validations of `epoch`, the
  /// current one) is stamped for the next validation to upgrade.
  void add(MsgView view, const ContamVector& contam, bool covered,
           std::uint64_t epoch);

  /// A validation event (own AT pass, or accepted passed-AT notification)
  /// upgrades every suspect entry to valid, stamped `epoch`. Returns how
  /// many changed.
  std::size_t validate_all(std::uint64_t epoch);

  /// Watermark-scoped upgrade: only suspect entries whose contamination
  /// watermark is covered (contam_sn <= watermark) become valid.
  std::size_t validate_covered(MsgSeq watermark, std::uint64_t epoch);
  /// The general form: suspect entries whose vector `validated` covers.
  std::size_t validate_covered(const ContamVector& validated,
                               std::uint64_t epoch);

  /// Whether entry `i` read as suspect at validation epoch `epoch`: it is
  /// still suspect, or a later validation upgraded it. A settled read also
  /// counts the entries appended covered in `epoch` as valid.
  bool suspect_at(std::size_t i, std::uint64_t epoch,
                  bool settled = false) const {
    return views_[i].suspect || stamp_[i] > 2 * epoch + (settled ? 1 : 0);
  }

  /// Every peer's index, ascending by peer id.
  const std::vector<PeerIndex>& peers() const { return peers_; }
  /// `peer`'s index, or null when no entry names it.
  const PeerIndex* peer(ProcessId peer) const;

  /// A copy of the first `len` entries as they stood at validation epoch
  /// `epoch` (settled or not), upgrades after it undone (restore forks
  /// through this). Entries appended covered in `epoch` stay so.
  ViewLog prefix_at(std::size_t len, std::uint64_t epoch,
                    bool settled = false) const;

  /// Inline-small storage: short logs (the steady state between
  /// checkpoints) never touch the heap.
  using Entries = SmallVec<MsgView, 8>;
  const Entries& entries() const { return views_; }
  std::size_t size() const { return views_.size(); }
  /// The contamination vector of general entry `i`.
  const ContamVector& contam(std::size_t i) const { return run_of(i).contam; }

 private:
  template <typename Covered>
  std::size_t upgrade(std::uint64_t epoch, Covered covered);
  /// Enter entry `pos` in its peer's index.
  void index(std::uint32_t pos);

  Entries views_;
  /// Per entry, twice the epoch of the validation that upgraded it (0:
  /// none), or 2e + 1 for an entry appended covered in epoch e.
  std::vector<std::uint64_t> stamp_;
  /// Indices of the entries still suspect, ascending.
  std::vector<std::uint32_t> suspects_;
  std::vector<PeerIndex> peers_;
  /// General logs only: consecutive entries with equal vectors (a
  /// multicast's copies) form a run that stores the vector once, with the
  /// position of its first entry.
  struct ContamRun {
    std::uint32_t first;
    ContamVector contam;
  };
  const ContamRun& run_of(std::size_t i) const;
  std::vector<ContamRun> runs_;
};

/// One process's view history — the ghost log: its sent and received
/// views plus the validation epoch that orders their upgrades. The engine
/// appends to it and upgrades it; every checkpoint it establishes shares
/// it by handle and reads it through the record's ViewMark. Appends land
/// past every existing mark, and an upgrade is stamped with an epoch newer
/// than every existing mark, so what a mark reads never changes.
class ViewHistory {
 public:
  void add_sent(MsgView view) { sent_.add(view); }
  void add_recv(MsgView view) { recv_.add(view); }
  /// General views: the view's vector, and whether the validations of the
  /// current epoch already cover it (only a suspect view can be covered).
  void add_sent(MsgView view, const ContamVector& contam, bool covered) {
    sent_.add(view, contam, covered, epoch_);
  }
  void add_recv(MsgView view, const ContamVector& contam, bool covered) {
    recv_.add(view, contam, covered, epoch_);
  }

  /// Open a new validation epoch and upgrade both logs in it.
  void validate_all();
  void validate_covered(MsgSeq watermark);
  void validate_covered(const ContamVector& validated);

  /// Where the history ends right now.
  ViewMark mark() const;
  /// The capture-time mark `at` settled under today's knowledge: its
  /// prefixes, read at the current epoch with the entries appended covered
  /// in it counted valid — the general engine's promoted anchors.
  ViewMark settled(const ViewMark& at) const;

  /// The live views (current validity).
  const ViewLog& sent() const { return sent_; }
  const ViewLog& recv() const { return recv_; }

  /// Copies of the views as a checkpoint taken at `mark` saw them. The
  /// oracles read a mark in place instead (ViewLog::suspect_at).
  ViewLog sent_at(const ViewMark& mark) const;
  ViewLog recv_at(const ViewMark& mark) const;

  /// Copy-on-restore: a fresh history holding exactly what `mark` sees.
  /// The engine continues in the copy; this history (and every record
  /// that references it) is never touched again by the restored engine.
  std::shared_ptr<ViewHistory> fork(const ViewMark& mark) const;

 private:
  ViewLog sent_;
  ViewLog recv_;
  std::uint64_t epoch_ = 0;
};

}  // namespace synergy
