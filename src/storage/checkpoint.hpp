// Checkpoint records.
//
// The paper distinguishes checkpoints by *trigger*:
//   Type-1  — taken immediately before a process state becomes potentially
//             contaminated (volatile storage, MDCD);
//   Type-2  — taken right after a potentially contaminated state is
//             validated by an acceptance test (volatile storage, original
//             MDCD; eliminated by the modified protocol);
//   Pseudo  — P1act's checkpoint under the modified protocol, driven by
//             pseudo_dirty_bit (volatile storage);
//   Stable  — written to stable storage by a TB protocol on timer expiry
//             (or, under the write-through baseline, on passed-AT).
//
// A record carries everything needed to resume the owning process: the
// serialized application state, the serialized protocol-engine state
// (dirty bits, SN counters, message logs, VR), and — for stable
// checkpoints — the unacked-send log used for re-send on recovery.
//
// The oracles' per-message validity views are not in the bytes: a record
// references its process's view history (the ghost log, DESIGN.md §19)
// through a ViewRef, and its protocol blob holds only the ViewMark.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "common/serialize.hpp"
#include "common/time.hpp"
#include "common/types.hpp"
#include "net/message.hpp"

namespace synergy {

enum class CkptKind : std::uint8_t { kType1, kType2, kPseudo, kStable };

const char* to_string(CkptKind kind);

/// Where a checkpoint's view history ends: the sent and received prefix
/// lengths and the validation epoch at capture (mdcd/views.hpp). A
/// settled mark — the general engine's promoted anchors — also reads the
/// views appended covered in its epoch as valid (ViewLog::suspect_at).
struct ViewMark {
  std::uint32_t sent_len = 0;
  std::uint32_t recv_len = 0;
  std::uint64_t epoch = 0;
  bool settled = false;

  /// What the mark occupies inside a protocol blob: the two lengths, then
  /// the epoch with `settled` in its top bit.
  static constexpr std::size_t kEncodedBytes = 4 + 4 + 8;

  void serialize(ByteWriter& w) const;
  static ViewMark deserialize(ByteReader& r);

  friend bool operator==(const ViewMark&, const ViewMark&) = default;
};

class ViewHistory;

/// A record's handle on its process's view history plus the mark it reads
/// it at. Never serialized and never charged as disk bytes: the stable
/// store keeps it beside each committed record's bytes and re-attaches it
/// on decode.
struct ViewRef {
  std::shared_ptr<const ViewHistory> log;
  ViewMark mark;
};

struct CheckpointRecord {
  CkptKind kind = CkptKind::kType1;
  ProcessId owner;

  /// True time at which the record was established (bookkeeping).
  TimePoint established_at;

  /// True time at which the *contained state* was current. For a stable
  /// checkpoint that copies an older volatile checkpoint, this is the
  /// volatile checkpoint's state_time — the basis of rollback-distance
  /// measurement: distance = fault_time - restored.state_time.
  TimePoint state_time;

  /// Dirty bit captured with the state (a restored process resumes with
  /// the contamination knowledge it had at the checkpointed instant).
  bool dirty_bit = false;

  /// Stable-checkpoint sequence number (Ndc) at establishment.
  StableSeq ndc = 0;

  /// Encoded snapshots, fresh for every record and then refcounted and
  /// immutable: copying a record (volatile → stable promotion,
  /// retained-history reads) bumps reference counts instead of
  /// deep-copying blobs.
  SharedBytes app_state;
  SharedBytes protocol_state;

  /// Transport bookkeeping captured at the same instant as the state:
  /// duplicate-suppression sets and the send-sequence counter. A restored
  /// process must suppress exactly the messages its restored state already
  /// reflects, and must not reuse live sequence numbers.
  SharedBytes transport_state;

  /// Unacknowledged application-purpose messages to re-send on hardware
  /// recovery (stable checkpoints only; empty for volatile records).
  std::vector<Message> unacked;

  /// The oracles' view of this state (empty for hand-built records).
  ViewRef views;

  /// Encoding ends with a CRC-32 over the record's own bytes, so storage
  /// corruption (torn writes, latent bit rot, truncation) is detectable at
  /// decode time.
  void serialize(ByteWriter& w) const;
  /// Checked decode: nullopt on truncated input or checksum mismatch.
  /// Never aborts — a corrupted stable blob must be detected and reported
  /// so recovery can fall back to an older retained record.
  static std::optional<CheckpointRecord> try_deserialize(ByteReader& r);

  /// Exact length of serialize()'s output: what a stable write persists.
  /// Write latency and bytes written are charged by it. Computed
  /// arithmetically — no serialization happens.
  std::size_t encoded_size() const;
};

}  // namespace synergy
