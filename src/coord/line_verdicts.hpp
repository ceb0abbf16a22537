// The paper's oracle verdicts on stable recovery lines, memoized per line.
//
// Three audits read the same committed line: the monitor's self-audit
// (consistency), hardened line selection (common_restorable_line: all
// three oracles) and the mission's periodic audit (all three, to report
// them). A line is named by the entries it would restore, one (process,
// ndc, entry id) per participant. An entry's id changes whenever its bytes
// do (StableStore::entry_id), a record's views are frozen at its mark
// (DESIGN.md §19) and a restore forks the view history, so one key always
// decodes to one global state, and each oracle runs once per line.
//
// The memo belongs to the mission's System, which hands it to the monitor
// and the recovery manager: nothing is global or thread_local. The oracles
// stay pure, so set_audit_observer sees every audit that is computed; a
// memo hit computes none.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <vector>

#include "analysis/checkers.hpp"
#include "coord/node.hpp"

namespace synergy {

/// A recovery line whose entries all decode: the nodes it restores and,
/// aligned with them, the entry each would restore.
struct StableLine {
  struct Entry {
    ProcessId owner;
    StableSeq ndc;
    std::uint64_t id;
    bool operator==(const Entry&) const = default;
  };
  std::vector<Node*> nodes;
  std::vector<Entry> key;
};

/// The line at index `ndc` over `nodes` (retired and storage-less nodes
/// skipped). Nullopt when a node retains no entry at `ndc` or its entry
/// does not decode; that node's read counts in corrupt_reads exactly as
/// committed_for would count it, and later nodes are not read.
std::optional<StableLine> stable_line_at(const std::vector<Node*>& nodes,
                                         StableSeq ndc);

class LineVerdicts {
 public:
  /// Consistency violations on `line` (check_consistency).
  std::size_t consistency(const StableLine& line);
  /// Every oracle's violations on `line`, in check_all's order.
  std::vector<Violation> all(const StableLine& line);

 private:
  /// Lines the memo keeps: a line-selection walk reads every retained
  /// index (StableStore keeps 8), plus the line the monitor audits.
  static constexpr std::size_t kCapacity = 16;

  /// One line's violations per oracle, once that oracle has run, in
  /// check_all's order: consistency, recoverability, software
  /// recoverability.
  struct Memo {
    std::vector<StableLine::Entry> key;
    std::array<std::optional<std::vector<Violation>>, 3> found;
  };

  /// `line`'s memo with its first `oracles` oracles run, decoding the line
  /// at most once; a full memo replaces its oldest line.
  const Memo& audit(const StableLine& line, std::size_t oracles);

  std::vector<Memo> memos_;
  std::size_t oldest_ = 0;
};

}  // namespace synergy
