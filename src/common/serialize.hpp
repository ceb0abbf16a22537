// Byte-level serialization for checkpoint records.
//
// Stable-storage checkpoints survive node crashes, so they must be real
// byte blobs, not in-memory object graphs: the simulated stable store and
// the file-backed store of the threaded runtime both persist the encoded
// form produced here. Encoding is little-endian, fixed-width, versioned by
// the caller.
//
// Every Type-1/pseudo/stable checkpoint encodes its process's state afresh
// into SharedBytes: a refcounted immutable blob, so a record copied between
// the stores and the oracles shares one buffer instead of deep-copying it.
// The app blob is 73 bytes; the transport blob grows with its consumed
// tails (EXPERIMENTS, Known limitations), which is why the writer costs one
// memcpy per field and copies a tail in bulk (u64s).
#pragma once

#include <bit>
#include <cstdint>
#include <cstring>
#include <memory>
#include <span>
#include <vector>

namespace synergy {

using Bytes = std::vector<std::uint8_t>;

/// Borrowed view into encoded bytes (no ownership, no copy). Valid only
/// while the underlying buffer lives — the trusted in-memory decode paths
/// use these to inspect without copying.
using ByteView = std::span<const std::uint8_t>;

/// Refcounted immutable byte blob. Copying a SharedBytes bumps a reference
/// count; the underlying buffer is never mutated after construction, so a
/// checkpoint record, its copies in the volatile and stable stores, and a
/// message's aux payload can hold the same encoded state without deep
/// copies. Converts implicitly from/to `Bytes` so decode/restore call sites
/// keep their signatures (conversion to `const Bytes&` borrows; it never
/// copies).
class SharedBytes {
 public:
  SharedBytes() = default;
  SharedBytes(Bytes b)  // NOLINT(google-explicit-constructor)
      : data_(b.empty() ? nullptr
                        : std::make_shared<const Bytes>(std::move(b))) {}

  const Bytes& get() const { return data_ ? *data_ : empty_bytes(); }
  operator const Bytes&() const { return get(); }  // NOLINT
  ByteView view() const { return ByteView{get()}; }

  bool empty() const { return !data_ || data_->empty(); }
  std::size_t size() const { return data_ ? data_->size() : 0; }
  const std::uint8_t* data() const { return get().data(); }
  void clear() { data_.reset(); }

  /// True iff both refer to the *same* underlying buffer (not just equal
  /// contents): copies share, independent encodes do not.
  bool shares_buffer_with(const SharedBytes& other) const {
    return data_ != nullptr && data_ == other.data_;
  }

  // Deep (content) equality, including against plain Bytes.
  friend bool operator==(const SharedBytes& a, const SharedBytes& b) {
    return a.data_ == b.data_ || a.get() == b.get();
  }
  friend bool operator==(const SharedBytes& a, const Bytes& b) {
    return a.get() == b;
  }
  friend bool operator==(const Bytes& a, const SharedBytes& b) {
    return a == b.get();
  }

 private:
  static const Bytes& empty_bytes();

  std::shared_ptr<const Bytes> data_;
};

namespace detail {

/// `v` in little-endian byte order: the identity on little-endian hosts,
/// a byte swap elsewhere, so the encoded format is the same on any host.
template <typename T>
inline T to_le(T v) {
  if constexpr (std::endian::native == std::endian::little) {
    return v;
  } else {
    T out = 0;
    for (std::size_t i = 0; i < sizeof v; ++i) {
      out = static_cast<T>((out << 8) | ((v >> (8 * i)) & 0xFF));
    }
    return out;
  }
}

}  // namespace detail

/// Appends primitive values to a growing byte buffer. Each field is one
/// capacity check and one memcpy: the buffer's size is its capacity, it
/// grows by doubling, and `len_` counts the bytes written, so no field pays
/// a resize and its zero-fill. Reusable: clear() keeps the buffer, so a
/// long-lived scratch writer encodes record after record without
/// reallocating; reserve() plus the record's encoded_size() turns an encode
/// into a single exact-size allocation.
class ByteWriter {
 public:
  void u8(std::uint8_t v) { put(v); }
  void u32(std::uint32_t v) { put(detail::to_le(v)); }
  void u64(std::uint64_t v) { put(detail::to_le(v)); }
  void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }
  /// Length-prefixed (u32) blob.
  void bytes(const Bytes& b) {
    u32(static_cast<std::uint32_t>(b.size()));
    raw(b.data(), b.size());
  }
  /// Each value as u64(), in one copy on little-endian hosts.
  void u64s(std::span<const std::uint64_t> vs) {
    if constexpr (std::endian::native == std::endian::little) {
      raw(reinterpret_cast<const std::uint8_t*>(vs.data()), vs.size_bytes());
    } else {
      for (const std::uint64_t v : vs) u64(v);
    }
  }

  /// Drop contents, keep capacity (scratch-buffer reuse on hot paths).
  void clear() { len_ = 0; }
  /// Make room for `n` bytes in total (see encoded_size() providers).
  void reserve(std::size_t n) {
    if (n > buf_.size()) buf_.resize(n);
  }
  std::size_t size() const { return len_; }

  /// The bytes written so far; valid until the next write.
  ByteView data() const { return {buf_.data(), len_}; }
  /// The bytes written, trimmed to their length; the writer is left empty.
  Bytes take() {
    buf_.resize(len_);
    len_ = 0;
    return std::move(buf_);
  }

 private:
  template <typename T>
  void put(T v) {
    if (buf_.size() - len_ < sizeof v) grow(sizeof v);
    std::memcpy(buf_.data() + len_, &v, sizeof v);
    len_ += sizeof v;
  }
  void raw(const std::uint8_t* p, std::size_t n) {
    if (n == 0) return;
    if (buf_.size() - len_ < n) grow(n);
    std::memcpy(buf_.data() + len_, p, n);
    len_ += n;
  }
  /// Double the buffer (at least), so `n` more bytes fit.
  void grow(std::size_t n);

  Bytes buf_;
  std::size_t len_ = 0;
};

/// Reads primitive values back. Corruption-safe: a read past the end of the
/// input does not abort — it sets a sticky failure flag and returns a
/// zero/empty value, so a corrupted stable blob is *detected* (check ok()
/// after decoding, or use the record-level try_deserialize paths, which
/// do) rather than killing the process. The reader borrows its input,
/// which must outlive it.
class ByteReader {
 public:
  explicit ByteReader(ByteView data) : data_(data) {}
  explicit ByteReader(const Bytes& data) : data_(data) {}

  std::uint8_t u8() { return get<std::uint8_t>(); }
  std::uint32_t u32() { return detail::to_le(get<std::uint32_t>()); }
  std::uint64_t u64() { return detail::to_le(get<std::uint64_t>()); }
  std::int64_t i64() { return static_cast<std::int64_t>(u64()); }
  Bytes bytes();

  bool exhausted() const { return pos_ == data_.size(); }

  /// False once any read overran the input (truncated/corrupted blob).
  bool ok() const { return !failed_; }
  /// Mark the stream as corrupted (record-level checks, e.g. a checksum
  /// mismatch, funnel through the same failure state).
  void fail() { failed_ = true; }

  /// Current read offset (used to delimit checksummed spans).
  std::size_t position() const { return pos_; }
  ByteView underlying() const { return data_; }

 private:
  bool require(std::size_t n) {
    if (failed_ || n > data_.size() - pos_) {
      failed_ = true;
      return false;
    }
    return true;
  }
  template <typename T>
  T get() {
    if (!require(sizeof(T))) return 0;
    T v;
    std::memcpy(&v, data_.data() + pos_, sizeof v);
    pos_ += sizeof v;
    return v;
  }

  ByteView data_;
  std::size_t pos_ = 0;
  bool failed_ = false;
};

/// FNV-1a fingerprint, used to compare application states cheaply.
std::uint64_t fingerprint(const Bytes& data);

/// CRC-32 (IEEE 802.3, reflected) over a byte span. Guards stable
/// checkpoint records and injected-fault detection paths. Dispatches at
/// runtime: on x86 hosts with PCLMULQDQ, buffers of 64+ bytes go through
/// a carry-less-multiply folding kernel (~10x the table throughput);
/// everything else — short buffers, tails, non-x86 — uses slicing-by-8
/// (eight 256-entry tables generated at startup from the same 0xEDB88320
/// polynomial). Both paths are bit-identical to the byte-at-a-time
/// reference below, so existing stable blobs and torn-write detection are
/// unaffected.
std::uint32_t crc32(const std::uint8_t* data, std::size_t n);
inline std::uint32_t crc32(ByteView data) {
  return crc32(data.data(), data.size());
}

/// Test hook: force the portable slicing-by-8 path even where the PCLMUL
/// kernel is available, so CI keeps the fallback covered on hardware that
/// would otherwise never execute it. Not thread-safe; tests only.
void crc32_force_portable(bool force);

/// True iff crc32() will use the hardware kernel for large inputs right
/// now (CPU support present and not forced portable).
bool crc32_hw_active();

/// Byte-at-a-time reference implementation. Kept as the equivalence-test
/// oracle for the sliced hot-path crc32 above; not for production use.
std::uint32_t crc32_reference(const std::uint8_t* data, std::size_t n);

}  // namespace synergy
