#include "app/state.hpp"

namespace synergy {
namespace {

std::uint64_t mix(std::uint64_t x) {
  x ^= x >> 33;
  x *= 0xFF51AFD7ED558CCDULL;
  x ^= x >> 33;
  x *= 0xC4CEB9FE1A85EC53ULL;
  x ^= x >> 33;
  return x;
}

}  // namespace

ApplicationState::ApplicationState(std::uint64_t seed, WorkloadKind mode)
    : mode_(mode) {
  for (std::size_t i = 0; i < regs_.size(); ++i) {
    regs_[i] = mix(seed + i + 1);
  }
  if (mode_ == WorkloadKind::kAbft) {
    for (std::size_t i = 0; i < block_.size(); ++i) {
      block_[i] = mix(seed + i + 1);
      row_sum_[i / kBlockDim] += block_[i];
      col_sum_[i % kBlockDim] += block_[i];
    }
  }
}

void ApplicationState::apply_message(std::uint64_t payload,
                                     bool payload_tainted) {
  if (mode_ == WorkloadKind::kAbft) {
    // A legitimate update maintains the encoding — which is exactly why
    // taint arriving through a correctly-applied message is invisible to
    // the checksums (the propagated-error blind spot the computed
    // coverage measures).
    abft_update(payload % kBlockCells, mix(payload));
  } else {
    regs_[payload % regs_.size()] ^= mix(payload);
    regs_[0] += payload;
  }
  ++steps_;
  if (payload_tainted) tainted_ = true;
}

void ApplicationState::local_step(std::uint64_t input) {
  if (mode_ == WorkloadKind::kAbft) {
    const std::size_t src = steps_ % kBlockCells;
    abft_update((steps_ + 1) % kBlockCells, mix(input ^ block_[src]));
  } else {
    const std::uint64_t m = mix(input ^ regs_[steps_ % regs_.size()]);
    regs_[(steps_ + 1) % regs_.size()] += m;
  }
  ++steps_;
}

std::uint64_t ApplicationState::output() const {
  std::uint64_t acc = steps_;
  if (mode_ == WorkloadKind::kAbft) {
    for (const auto c : block_) acc = mix(acc ^ c);
    for (const auto s : row_sum_) acc = mix(acc ^ s);
    for (const auto s : col_sum_) acc = mix(acc ^ s);
  } else {
    for (const auto r : regs_) acc = mix(acc ^ r);
  }
  return acc;
}

void ApplicationState::corrupt(std::uint64_t noise) {
  if (mode_ == WorkloadKind::kAbft) {
    // Design-fault manifestation: a *wrong value* written through the
    // legitimate update path, so the checksums stay consistent. ABFT
    // detects damaged encodings, not wrong computations — the honest
    // blind spot that keeps computed coverage below 1.
    abft_update(noise % kBlockCells, noise | 1);
  } else {
    regs_[noise % regs_.size()] ^= (noise | 1);
  }
  tainted_ = true;
}

void ApplicationState::flip_bit(std::uint64_t noise) {
  if (mode_ == WorkloadKind::kAbft) {
    // Raw hardware flip across the encoded state (block + checksums): the
    // recomputed sums disagree with the stored ones, so the ABFT check
    // catches it — whether the flip hit a cell or a checksum word.
    const std::size_t word = (noise >> 6) % (kBlockCells + 2 * kBlockDim);
    const std::uint64_t bit = 1ULL << (noise & 63);
    if (word < kBlockCells) {
      block_[word] ^= bit;
    } else if (word < kBlockCells + kBlockDim) {
      row_sum_[word - kBlockCells] ^= bit;
    } else {
      col_sum_[word - kBlockCells - kBlockDim] ^= bit;
    }
  } else {
    regs_[(noise >> 6) % regs_.size()] ^= 1ULL << (noise & 63);
  }
  tainted_ = true;
}

bool ApplicationState::abft_check_ok() const {
  if (mode_ != WorkloadKind::kAbft) return true;
  std::array<std::uint64_t, kBlockDim> rows{};
  std::array<std::uint64_t, kBlockDim> cols{};
  for (std::size_t i = 0; i < block_.size(); ++i) {
    rows[i / kBlockDim] += block_[i];
    cols[i % kBlockDim] += block_[i];
  }
  return rows == row_sum_ && cols == col_sum_;
}

Bytes ApplicationState::snapshot() const {
  ByteWriter w;
  w.reserve(mode_ == WorkloadKind::kAbft ? kAbftEncodedSize : kEncodedSize);
  // Registers-mode encoding is unchanged (no mode byte): the mode is a
  // construction-time property of the process, never of the record, so
  // pre-ABFT checkpoint layouts stay byte-identical.
  if (mode_ == WorkloadKind::kAbft) {
    for (const auto c : block_) w.u64(c);
    for (const auto s : row_sum_) w.u64(s);
    for (const auto s : col_sum_) w.u64(s);
  } else {
    for (const auto r : regs_) w.u64(r);
  }
  w.u64(steps_);
  w.u8(tainted_ ? 1 : 0);
  ++encodes_;
  bytes_encoded_ += w.size();
  return w.take();
}

void ApplicationState::restore(const Bytes& snapshot) {
  ByteReader r(snapshot);
  if (mode_ == WorkloadKind::kAbft) {
    for (auto& c : block_) c = r.u64();
    for (auto& s : row_sum_) s = r.u64();
    for (auto& s : col_sum_) s = r.u64();
  } else {
    for (auto& reg : regs_) reg = r.u64();
  }
  steps_ = r.u64();
  tainted_ = r.u8() != 0;
}

std::uint64_t ApplicationState::fingerprint() const {
  return ::synergy::fingerprint(snapshot());
}

}  // namespace synergy
