// Byte-level serialization for checkpoint records.
//
// Stable-storage checkpoints survive node crashes, so they must be real
// byte blobs, not in-memory object graphs: the simulated stable store and
// the file-backed store of the threaded runtime both persist the encoded
// form produced here. Encoding is little-endian, fixed-width, versioned by
// the caller.
//
// Every Type-1/pseudo/stable checkpoint encodes its process's state afresh
// (the app blob is 73 bytes, the protocol and transport blobs are small and
// bounded), into SharedBytes: a refcounted immutable blob, so a record
// copied between the stores and the oracles shares one buffer instead of
// deep-copying it.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <string_view>
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

/// Appends primitive values to a growing byte buffer. Reusable: clear()
/// keeps the allocated capacity, so a long-lived scratch writer encodes
/// record after record without reallocating; reserve() plus the record's
/// encoded_size() turns an encode into a single exact-size allocation.
class ByteWriter {
 public:
  void u8(std::uint8_t v);
  void u32(std::uint32_t v);
  void u64(std::uint64_t v);
  void i64(std::int64_t v);
  void f64(double v);
  void str(const std::string& s);
  void bytes(const Bytes& b);

  /// Drop contents, keep capacity (scratch-buffer reuse on hot paths).
  void clear() { buf_.clear(); }
  /// Pre-reserve for a known encoded size (see encoded_size() providers).
  void reserve(std::size_t n) { buf_.reserve(n); }
  std::size_t size() const { return buf_.size(); }

  const Bytes& data() const { return buf_; }
  Bytes take() { return std::move(buf_); }

 private:
  std::uint8_t* grow(std::size_t n);

  std::vector<std::uint8_t> buf_;
};

/// Reads primitive values back. Corruption-safe: a read past the end of the
/// input does not abort — it sets a sticky failure flag and returns a
/// zero/empty value, so a corrupted stable blob is *detected* (check ok()
/// after decoding, or use the record-level try_deserialize paths, which
/// do) rather than killing the process.
class ByteReader {
 public:
  explicit ByteReader(const Bytes& data) : data_(data) {}

  std::uint8_t u8();
  std::uint32_t u32();
  std::uint64_t u64();
  std::int64_t i64();
  double f64();
  std::string str();
  Bytes bytes();

  /// View-based reads for the trusted in-memory decode path: no copy, the
  /// returned span/view borrows from the reader's underlying buffer and is
  /// valid only while that buffer lives. Callers that merely inspect
  /// (trace rendering, oracle checks, re-encode passes) use these.
  ByteView bytes_view();
  std::string_view str_view();

  /// Skip `n` bytes (inspection paths that ignore a field's content).
  void skip(std::size_t n);

  bool exhausted() const { return pos_ == data_.size(); }

  /// False once any read overran the input (truncated/corrupted blob).
  bool ok() const { return !failed_; }
  /// Mark the stream as corrupted (record-level checks, e.g. a checksum
  /// mismatch, funnel through the same failure state).
  void fail() { failed_ = true; }

  /// Current read offset (used to delimit checksummed spans).
  std::size_t position() const { return pos_; }
  const Bytes& underlying() const { return data_; }

  /// All remaining bytes as a borrowed view (no copy).
  ByteView rest_view();

 private:
  bool require(std::size_t n);

  const Bytes& data_;
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
std::uint32_t crc32(const Bytes& data);

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
