#include "mdcd/contam.hpp"

#include <sstream>

namespace synergy {

bool contam_merge(ContamVector& into, const ContamVector& other) {
  bool changed = false;
  for (const auto& [source, sn] : other) {
    const MsgSeq before = into.watermark(source);
    if (sn > before || into.find(source) == into.end()) {
      into.raise(source, sn);
      changed = true;
    }
  }
  return changed;
}

bool contam_covered(const ContamVector& contam,
                    const ContamVector& validated) {
  // Both sides are sorted by source: one forward scan of `validated`
  // serves every lookup.
  auto vit = validated.begin();
  for (const auto& [source, sn] : contam) {
    while (vit != validated.end() && vit->first < source) ++vit;
    if (vit == validated.end() || vit->first != source || vit->second < sn) {
      return false;
    }
  }
  return true;
}

void contam_serialize(const ContamVector& v, ByteWriter& w) {
  w.u32(static_cast<std::uint32_t>(v.size()));
  for (const auto& [source, sn] : v) {
    w.u32(source);
    w.u64(sn);
  }
}

ContamVector contam_deserialize(ByteReader& r) {
  ContamVector v;
  const std::uint32_t n = r.u32();
  for (std::uint32_t i = 0; i < n; ++i) {
    const std::uint32_t source = r.u32();
    v.raise(source, r.u64());
  }
  return v;
}

std::string contam_to_string(const ContamVector& v) {
  std::ostringstream out;
  bool first = true;
  for (const auto& [source, sn] : v) {
    if (!first) out << ',';
    out << source << ':' << sn;
    first = false;
  }
  return out.str();
}

}  // namespace synergy
