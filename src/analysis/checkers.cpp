#include "analysis/checkers.hpp"

#include <algorithm>
#include <optional>
#include <span>
#include <sstream>
#include <utility>

namespace synergy {
namespace {

// One process's entries for one peer, as its mark reads them: positions
// in transport-seq order, cut at the mark's prefix length, with suspicion
// read at the mark's epoch. Nothing is copied.
struct PeerViews {
  const ViewLog* log = nullptr;
  std::span<const std::uint32_t> by_seq;
  std::uint32_t len = 0;
  std::uint64_t epoch = 0;
  bool settled = false;

  std::uint64_t seq(std::uint32_t i) const {
    return log->entries()[i].transport_seq;
  }
  bool suspect(std::uint32_t i) const {
    return log->suspect_at(i, epoch, settled);
  }
};

PeerViews peer_views(const ProcessFacts& p, bool sent, ProcessId peer) {
  const ViewHistory* history = p.views.log.get();
  if (history == nullptr) return {};
  const ViewLog& log = sent ? history->sent() : history->recv();
  const ViewLog::PeerIndex* index = log.peer(peer);
  if (index == nullptr) return {};
  return PeerViews{&log, index->by_seq,
                   sent ? p.views.mark.sent_len : p.views.mark.recv_len,
                   p.views.mark.epoch, p.views.mark.settled};
}

// A finding and the log position of the entry that raised it: violations
// come out per process in log order, as a scan of the log would list them.
struct Finding {
  std::uint32_t pos;
  Violation violation;
};

void flush(std::vector<Finding>& found, std::vector<Violation>& out) {
  std::sort(found.begin(), found.end(),
            [](const Finding& a, const Finding& b) { return a.pos < b.pos; });
  for (const Finding& f : found) out.push_back(f.violation);
  found.clear();
}

// One audit of a state: its processes by id (where ids repeat, the first
// process wins) and the two pairwise properties.
class Audit {
 public:
  explicit Audit(const GlobalState& state) : state_(state) {
    by_id_.reserve(state.processes.size());
    for (const ProcessFacts& p : state.processes) by_id_.push_back(&p);
    std::stable_sort(by_id_.begin(), by_id_.end(),
                     [](const ProcessFacts* a, const ProcessFacts* b) {
                       return a->id < b->id;
                     });
  }

  void consistency(std::vector<Violation>& out) const {
    walk(false, out, [](const ProcessFacts&, std::uint64_t) {
      return std::optional{Violation::Kind::kReceivedNotSent};
    });
  }

  void recoverability(std::vector<Violation>& out) const {
    walk(true, out,
         [](const ProcessFacts& sender,
            std::uint64_t seq) -> std::optional<Violation::Kind> {
           const bool restorable = std::any_of(
               sender.unacked.begin(), sender.unacked.end(),
               [seq](const Message& m) { return m.transport_seq == seq; });
           if (restorable) return std::nullopt;
           return Violation::Kind::kLostMessage;
         });
  }

 private:
  // Walks each process's received (consistency) or sent (recoverability)
  // entries against the other side of every peer the state holds. A
  // matched pair must agree on validity; `missing(p, seq)` names what an
  // unmatched entry of p violates, if anything.
  template <typename Missing>
  void walk(bool sent, std::vector<Violation>& out, Missing missing) const {
    std::vector<Finding> found;
    for (const ProcessFacts& p : state_.processes) {
      const ViewHistory* history = p.views.log.get();
      if (history == nullptr) continue;
      const ViewLog& log = sent ? history->sent() : history->recv();
      for (const ViewLog::PeerIndex& index : log.peers()) {
        const ProcessFacts* peer = find(index.peer);
        if (peer == nullptr) continue;  // peer outside the examined state
        const PeerViews own = peer_views(p, sent, index.peer);
        const PeerViews other = peer_views(*peer, !sent, p.id);
        // Both sides are in seq order, so the cursor into other only moves
        // forward. An own entry is answered by other's first entry with
        // its seq (the one appended first) inside other's mark, whatever
        // that entry's kind.
        std::size_t k = 0;
        for (const std::uint32_t i : own.by_seq) {
          if (i >= own.len) continue;
          const MsgView& e = own.log->entries()[i];
          if (e.kind != MsgKind::kInternal) continue;
          while (k < other.by_seq.size() &&
                 (other.by_seq[k] >= other.len ||
                  other.seq(other.by_seq[k]) < e.transport_seq)) {
            ++k;
          }
          std::optional<Violation::Kind> kind;
          if (k < other.by_seq.size() &&
              other.seq(other.by_seq[k]) == e.transport_seq) {
            if (own.suspect(i) != other.suspect(other.by_seq[k])) {
              kind = Violation::Kind::kValidityMismatch;
            }
          } else {
            kind = missing(p, e.transport_seq);
          }
          if (kind) {
            found.push_back(
                Finding{i, Violation{*kind, p.id, peer->id, e.transport_seq}});
          }
        }
      }
      flush(found, out);
    }
  }

  const ProcessFacts* find(ProcessId id) const {
    const auto it = std::lower_bound(
        by_id_.begin(), by_id_.end(), id,
        [](const ProcessFacts* p, ProcessId key) { return p->id < key; });
    return it != by_id_.end() && (*it)->id == id ? *it : nullptr;
  }

  const GlobalState& state_;
  std::vector<const ProcessFacts*> by_id_;
};

thread_local AuditObserver audit_observer;

std::vector<Violation> observed(AuditKind kind, const GlobalState& state,
                                std::vector<Violation> found) {
  if (audit_observer) audit_observer(kind, state, found);
  return found;
}

}  // namespace

void set_audit_observer(AuditObserver observer) {
  audit_observer = std::move(observer);
}

std::string Violation::describe() const {
  std::ostringstream out;
  switch (kind) {
    case Kind::kReceivedNotSent:
      out << to_string(a) << " reflects receipt of seq " << transport_seq
          << " from " << to_string(b) << ", which does not reflect sending it";
      break;
    case Kind::kValidityMismatch:
      out << to_string(a) << " and " << to_string(b)
          << " disagree on the validity of seq " << transport_seq;
      break;
    case Kind::kLostMessage:
      out << to_string(a) << " reflects sending seq " << transport_seq
          << " to " << to_string(b)
          << ", which neither reflects it nor can it be re-sent";
      break;
    case Kind::kDirtyRestoredState:
      out << to_string(a)
          << " restored a potentially contaminated state: software error "
             "recovery is no longer possible";
      break;
  }
  return out.str();
}

std::vector<Violation> check_consistency(const GlobalState& state) {
  std::vector<Violation> violations;
  Audit(state).consistency(violations);
  return observed(AuditKind::kConsistency, state, std::move(violations));
}

std::vector<Violation> check_recoverability(const GlobalState& state) {
  std::vector<Violation> violations;
  Audit(state).recoverability(violations);
  return observed(AuditKind::kRecoverability, state, std::move(violations));
}

std::vector<Violation> check_software_recoverability(const GlobalState& state) {
  std::vector<Violation> violations;
  for (const auto& p : state.processes) {
    // P1act is invariably regarded as potentially contaminated while
    // guarded; software recovery replaces it wholesale, so a "dirty"
    // restored P1act is not a hazard. Under the modified protocol its
    // contamination flag is the pseudo dirty bit and participates fully.
    if (p.id == kP1Act) continue;
    if (p.dirty) {
      violations.push_back(
          Violation{Violation::Kind::kDirtyRestoredState, p.id, p.id, 0});
    }
  }
  return violations;
}

std::vector<Violation> check_all(const GlobalState& state) {
  std::vector<Violation> all;
  const Audit audit(state);
  audit.consistency(all);
  audit.recoverability(all);
  auto sw = check_software_recoverability(state);
  all.insert(all.end(), sw.begin(), sw.end());
  return observed(AuditKind::kAll, state, std::move(all));
}

}  // namespace synergy
