#include "storage/checkpoint.hpp"


namespace synergy {

const char* to_string(CkptKind kind) {
  switch (kind) {
    case CkptKind::kType1: return "type1";
    case CkptKind::kType2: return "type2";
    case CkptKind::kPseudo: return "pseudo";
    case CkptKind::kStable: return "stable";
  }
  return "?";
}

namespace {
constexpr std::uint64_t kSettledBit = std::uint64_t{1} << 63;
}  // namespace

void ViewMark::serialize(ByteWriter& w) const {
  w.u32(sent_len);
  w.u32(recv_len);
  w.u64(epoch | (settled ? kSettledBit : 0));
}

ViewMark ViewMark::deserialize(ByteReader& r) {
  ViewMark m;
  m.sent_len = r.u32();
  m.recv_len = r.u32();
  const std::uint64_t word = r.u64();
  m.epoch = word & ~kSettledBit;
  m.settled = (word & kSettledBit) != 0;
  return m;
}

void CheckpointRecord::serialize(ByteWriter& w) const {
  const std::size_t start = w.data().size();
  w.reserve(start + encoded_size());  // one exact-size allocation
  w.u8(static_cast<std::uint8_t>(kind));
  w.u32(owner.value());
  w.i64(established_at.count());
  w.i64(state_time.count());
  w.u8(dirty_bit ? 1 : 0);
  w.u64(ndc);
  w.bytes(app_state);
  w.bytes(protocol_state);
  w.bytes(transport_state);
  w.u32(static_cast<std::uint32_t>(unacked.size()));
  for (const auto& m : unacked) m.serialize(w);
  // Trailing checksum over this record's own bytes: the decode side
  // recomputes it to detect torn writes and latent corruption.
  w.u32(crc32(w.data().data() + start, w.data().size() - start));
}

std::optional<CheckpointRecord> CheckpointRecord::try_deserialize(
    ByteReader& r) {
  const std::size_t start = r.position();
  CheckpointRecord c;
  const std::uint8_t kind = r.u8();
  c.kind = static_cast<CkptKind>(kind);
  c.owner = ProcessId{r.u32()};
  c.established_at = TimePoint{r.i64()};
  c.state_time = TimePoint{r.i64()};
  c.dirty_bit = r.u8() != 0;
  c.ndc = r.u64();
  c.app_state = r.bytes();
  c.protocol_state = r.bytes();
  c.transport_state = r.bytes();
  const std::uint32_t n = r.u32();
  // A corrupted count would otherwise drive a near-infinite decode loop;
  // every logged message occupies >= 1 byte, so cap by the input size.
  if (n > r.underlying().size()) {
    r.fail();
    return std::nullopt;
  }
  c.unacked.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    auto m = Message::try_deserialize(r);
    if (!m) return std::nullopt;
    c.unacked.push_back(std::move(*m));
  }
  const std::size_t body_end = r.position();
  const std::uint32_t stored_crc = r.u32();
  if (!r.ok() || kind > static_cast<std::uint8_t>(CkptKind::kStable)) {
    return std::nullopt;
  }
  const std::uint32_t computed =
      crc32(r.underlying().data() + start, body_end - start);
  if (computed != stored_crc) {
    r.fail();
    return std::nullopt;
  }
  return c;
}

std::size_t CheckpointRecord::encoded_size() const {
  // Mirrors serialize() field for field; the round-trip test in
  // storage_test asserts the two never drift apart.
  std::size_t n = 1 + 4 + 8 + 8 + 1 + 8;                    // header fields
  n += 4 + app_state.size();                                // length-prefixed
  n += 4 + protocol_state.size();
  n += 4 + transport_state.size();
  n += 4;                                                   // unacked count
  for (const auto& m : unacked) n += m.encoded_size();
  n += 4;                                                   // trailing CRC
  return n;
}

}  // namespace synergy
