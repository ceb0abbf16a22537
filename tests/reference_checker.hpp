// Reference oracles for the differential test: the straightforward
// formulation of the paper's consistency and recoverability checks that
// the merge-walk checker in analysis/checkers.cpp replaced. Each process's
// views are copied out at its mark, every log is indexed by (peer,
// transport_seq) in a hash map where the first entry wins, and every
// entry is looked up in its peer's index. Slow, and kept only to pin the
// fast checker's verdicts and their order.
#pragma once

#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "analysis/checkers.hpp"
#include "mdcd/views.hpp"

namespace synergy::reference {

struct Facts {
  const ProcessFacts* facts;
  ViewLog sent;
  ViewLog recv;
};

inline std::vector<Facts> materialize(const GlobalState& state) {
  std::vector<Facts> out;
  for (const ProcessFacts& p : state.processes) {
    Facts f{&p, {}, {}};
    if (const ViewHistory* log = p.views.log.get()) {
      f.sent = log->sent_at(p.views.mark);
      f.recv = log->recv_at(p.views.mark);
    }
    out.push_back(std::move(f));
  }
  return out;
}

inline const Facts* find(const std::vector<Facts>& all, ProcessId id) {
  for (const Facts& f : all) {
    if (f.facts->id == id) return &f;
  }
  return nullptr;
}

inline std::uint64_t view_key(ProcessId peer, std::uint64_t transport_seq) {
  return (static_cast<std::uint64_t>(peer.value()) << 48) | transport_seq;
}

using ViewIndex = std::unordered_map<std::uint64_t, const MsgView*>;

inline ViewIndex index_views(const ViewLog& log) {
  ViewIndex index;
  for (const auto& v : log.entries()) {
    index.emplace(view_key(v.peer, v.transport_seq), &v);
  }
  return index;
}

inline const MsgView* find_view(const ViewIndex& index, std::uint64_t seq,
                                ProcessId peer) {
  auto it = index.find(view_key(peer, seq));
  return it == index.end() ? nullptr : it->second;
}

inline std::vector<Violation> consistency(const GlobalState& state) {
  const std::vector<Facts> all = materialize(state);
  std::vector<Violation> violations;
  std::unordered_map<std::uint32_t, ViewIndex> sent_index;
  for (const Facts& p : all) {
    sent_index.emplace(p.facts->id.value(), index_views(p.sent));
  }
  for (const Facts& receiver : all) {
    const ProcessId rid = receiver.facts->id;
    for (const auto& e : receiver.recv.entries()) {
      if (e.kind != MsgKind::kInternal) continue;
      const Facts* sender = find(all, e.peer);
      if (sender == nullptr) continue;
      const ProcessId sid = sender->facts->id;
      const MsgView* sent =
          find_view(sent_index.at(sid.value()), e.transport_seq, rid);
      if (sent == nullptr) {
        violations.push_back(Violation{Violation::Kind::kReceivedNotSent, rid,
                                       sid, e.transport_seq});
      } else if (sent->suspect != e.suspect) {
        violations.push_back(Violation{Violation::Kind::kValidityMismatch,
                                       rid, sid, e.transport_seq});
      }
    }
  }
  return violations;
}

inline std::vector<Violation> recoverability(const GlobalState& state) {
  const std::vector<Facts> all = materialize(state);
  std::vector<Violation> violations;
  std::unordered_map<std::uint32_t, ViewIndex> recv_index;
  for (const Facts& p : all) {
    recv_index.emplace(p.facts->id.value(), index_views(p.recv));
  }
  for (const Facts& sender : all) {
    const ProcessId sid = sender.facts->id;
    std::unordered_set<std::uint64_t> unacked;
    for (const auto& m : sender.facts->unacked) unacked.insert(m.transport_seq);
    for (const auto& e : sender.sent.entries()) {
      if (e.kind != MsgKind::kInternal) continue;
      const Facts* receiver = find(all, e.peer);
      if (receiver == nullptr) continue;
      const ProcessId rid = receiver->facts->id;
      const MsgView* recv =
          find_view(recv_index.at(rid.value()), e.transport_seq, sid);
      if (recv != nullptr) {
        if (recv->suspect != e.suspect) {
          violations.push_back(Violation{Violation::Kind::kValidityMismatch,
                                         sid, rid, e.transport_seq});
        }
        continue;
      }
      if (!unacked.contains(e.transport_seq)) {
        violations.push_back(Violation{Violation::Kind::kLostMessage, sid, rid,
                                       e.transport_seq});
      }
    }
  }
  return violations;
}

inline std::vector<Violation> check(AuditKind kind, const GlobalState& state) {
  switch (kind) {
    case AuditKind::kConsistency:
      return consistency(state);
    case AuditKind::kRecoverability:
      return recoverability(state);
    case AuditKind::kAll:
      break;
  }
  std::vector<Violation> all = consistency(state);
  const auto rec = recoverability(state);
  all.insert(all.end(), rec.begin(), rec.end());
  const auto sw = synergy::check_software_recoverability(state);
  all.insert(all.end(), sw.begin(), sw.end());
  return all;
}

}  // namespace synergy::reference
