// Per-source contamination vectors for the generalized protocol.
//
// With several low-confidence components in service, "potentially
// contaminated" is no longer a single bit plus one watermark: a process's
// suspicion is a vector mapping each contamination *source* (a
// low-confidence component) to the highest message SN of that source its
// state transitively depends on. Validations likewise carry the coverage
// they grant per source. The canonical three-process protocol is the
// special case with a single source.
//
// Representation: a sorted flat vector with small-buffer storage. Real
// vectors are tiny (one entry per low-confidence component a state
// depends on), so a node-based std::map pays a heap allocation per entry
// on the hottest protocol path (every absorb, every merge, every anchor
// capture). The flat form keeps the first kContamInline entries in the
// object itself, merges with two-pointer scans, and serializes in the
// same sorted order as the map did — the wire/storage encoding is
// byte-identical (differential-tested against the map oracle).
//
// The type lives beside the canonical engine because view histories
// (mdcd/views.hpp) keep one vector per general view.
#pragma once

#include <initializer_list>
#include <utility>

#include "common/serialize.hpp"
#include "common/small_vec.hpp"
#include "common/types.hpp"

namespace synergy {

/// Inline capacity: covers every topology shipped (star/chain have one
/// low-confidence source; dual_guarded has two) with headroom before the
/// first heap touch.
inline constexpr std::size_t kContamInline = 4;

/// One (source component -> highest depended-on message SN) entry. Member
/// names mirror std::map's value_type so call sites written against the
/// map representation (`it->first`, `it->second`) read unchanged.
struct ContamEntry {
  std::uint32_t first = 0;
  MsgSeq second = 0;

  friend bool operator==(const ContamEntry& a, const ContamEntry& b) {
    return a.first == b.first && a.second == b.second;
  }
};

/// Source component index -> highest depended-on message SN, kept sorted
/// by source. Map-like surface restricted to what the engine and tests
/// use: find/emplace/operator[]-free, iteration in key order.
class ContamVector {
 public:
  using value_type = ContamEntry;
  using iterator = ContamEntry*;
  using const_iterator = const ContamEntry*;

  ContamVector() = default;
  ContamVector(std::initializer_list<ContamEntry> init) {
    for (const ContamEntry& e : init) raise(e.first, e.second);
  }

  const_iterator begin() const { return entries_.begin(); }
  const_iterator end() const { return entries_.end(); }
  iterator begin() { return entries_.begin(); }
  iterator end() { return entries_.end(); }

  std::size_t size() const { return entries_.size(); }
  bool empty() const { return entries_.empty(); }
  void clear() { entries_.clear(); }

  const_iterator find(std::uint32_t source) const {
    const const_iterator it = lower_bound(source);
    return it != end() && it->first == source ? it : end();
  }

  /// Highest depended-on SN for `source`, 0 when absent.
  MsgSeq watermark(std::uint32_t source) const {
    const const_iterator it = find(source);
    return it == end() ? 0 : it->second;
  }

  /// std::map-compatible emplace: inserts (source, sn) unless the source
  /// is already present; returns {slot, inserted}.
  std::pair<iterator, bool> emplace(std::uint32_t source, MsgSeq sn) {
    iterator it = lower_bound(source);
    if (it != end() && it->first == source) return {it, false};
    const std::size_t idx = static_cast<std::size_t>(it - begin());
    entries_.insert(it, ContamEntry{source, sn});
    return {begin() + idx, true};
  }

  /// Max-merge a single entry (the pointwise-max primitive).
  void raise(std::uint32_t source, MsgSeq sn) {
    iterator it = lower_bound(source);
    if (it != end() && it->first == source) {
      if (it->second < sn) it->second = sn;
    } else {
      entries_.insert(it, ContamEntry{source, sn});
    }
  }

  friend bool operator==(const ContamVector& a, const ContamVector& b) {
    return a.entries_ == b.entries_;
  }

 private:
  iterator lower_bound(std::uint32_t source) {
    iterator it = entries_.begin();
    while (it != entries_.end() && it->first < source) ++it;
    return it;
  }
  const_iterator lower_bound(std::uint32_t source) const {
    const_iterator it = entries_.begin();
    while (it != entries_.end() && it->first < source) ++it;
    return it;
  }

  SmallVec<ContamEntry, kContamInline> entries_;
};

/// Pointwise max merge: absorb `other` into `into`. Returns true iff
/// `into` changed (callers skip downstream re-checks on stale coverage).
bool contam_merge(ContamVector& into, const ContamVector& other);

/// True iff every entry of `contam` is covered by `validated`.
bool contam_covered(const ContamVector& contam, const ContamVector& validated);

void contam_serialize(const ContamVector& v, ByteWriter& w);
/// contam_serialize's output length: a u32 count, 12 bytes per source.
inline std::size_t contam_encoded_size(const ContamVector& v) {
  return 4 + 12 * v.size();
}
ContamVector contam_deserialize(ByteReader& r);

/// Compact rendering for traces/tests: "0:12,2:5".
std::string contam_to_string(const ContamVector& v);

}  // namespace synergy
