#include "coord/line_verdicts.hpp"

#include <iterator>
#include <utility>

#include "analysis/global_state.hpp"
#include "common/assert.hpp"

namespace synergy {

namespace {

/// The oracles in check_all's order.
using Oracle = std::vector<Violation> (*)(const GlobalState&);
constexpr Oracle kOracles[] = {&check_consistency, &check_recoverability,
                               &check_software_recoverability};

}  // namespace

std::optional<StableLine> stable_line_at(const std::vector<Node*>& nodes,
                                         StableSeq ndc) {
  StableLine line;
  for (Node* n : nodes) {
    if (n->retired() || !n->has_stable_storage()) continue;
    const StableStore& store = n->sstore();
    const auto id = store.entry_id(ndc);
    if (!id) return std::nullopt;
    if (!store.has_valid(ndc)) {
      (void)store.committed_for(ndc);  // the corrupt read a decode counts
      return std::nullopt;
    }
    line.nodes.push_back(n);
    line.key.push_back(StableLine::Entry{n->id(), ndc, *id});
  }
  return line;
}

std::size_t LineVerdicts::consistency(const StableLine& line) {
  return audit(line, 1).found[0]->size();
}

std::vector<Violation> LineVerdicts::all(const StableLine& line) {
  const Memo& memo = audit(line, std::size(kOracles));
  std::vector<Violation> out;
  for (const auto& found : memo.found) {
    out.insert(out.end(), found->begin(), found->end());
  }
  return out;
}

const LineVerdicts::Memo& LineVerdicts::audit(const StableLine& line,
                                              std::size_t oracles) {
  Memo* memo = nullptr;
  for (Memo& m : memos_) {
    if (m.key == line.key) memo = &m;
  }
  if (memo == nullptr) {
    if (memos_.size() < kCapacity) {
      memo = &memos_.emplace_back();
    } else {
      memo = &memos_[oldest_];
      oldest_ = (oldest_ + 1) % kCapacity;
      *memo = Memo{};
    }
    memo->key = line.key;
  }
  std::optional<GlobalState> state;
  for (std::size_t o = 0; o < oracles; ++o) {
    if (memo->found[o]) continue;
    if (!state) {
      std::vector<CheckpointRecord> records;
      for (std::size_t i = 0; i < line.nodes.size(); ++i) {
        auto rec = line.nodes[i]->sstore().committed_for(line.key[i].ndc);
        SYNERGY_ASSERT(rec.has_value());  // stable_line_at checked it decodes
        records.push_back(std::move(*rec));
      }
      state = global_state_from_records(records);
    }
    memo->found[o] = kOracles[o](*state);
  }
  return *memo;
}

}  // namespace synergy
