// Simulated stable storage (disk) with abortable in-progress writes.
//
// The adapted TB protocol's write_disk(contents, match, alternative) needs
// a disk on which an in-progress checkpoint write can be *aborted and its
// contents replaced* while the blocking period is still running (paper
// §4.2, Figure 6(b)). We model:
//   - a write latency (base + per-byte), after which the record commits;
//   - replace_in_progress(): restarts the in-progress write with new
//     contents (the paper's abort-the-copy-and-save-current-state action);
//   - crash semantics: an uncommitted write is lost, the last committed
//     record survives.
// Committed records persist encoded (byte blobs), so restore() exercises
// real (de)serialization exactly like a disk would. Beside each blob the
// store keeps the record's view-history handle (never on disk; DESIGN.md
// §19) and re-attaches it on decode.
//
// The paper assumes stable storage never fails; the chaos campaigns break
// that assumption on purpose. StorageFaultParams injects three failure
// modes — transient write errors (retried with bounded backoff), torn
// writes (a truncated blob committed as if whole), and latent corruption
// of an already-committed record. Every read decodes through the record
// checksum, so a damaged record is *detected* (counted in corrupt_reads)
// and skipped in favour of the previous retained record, never returned
// as data and never allowed to crash the process. Fault draws are made
// over the record's encoded bytes (CheckpointRecord::encoded_size).
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "common/rng.hpp"
#include "sim/simulator.hpp"
#include "storage/checkpoint.hpp"

namespace synergy {

/// Adversarial failure modes for the simulated disk. All probabilities are
/// per write attempt (write_error), per commit (torn_write, latent
/// corruption). Zero everywhere = the paper's ideal stable storage.
struct StorageFaultParams {
  /// A write attempt fails outright and is retried after a backoff.
  double write_error_probability = 0.0;
  /// A commit persists only a prefix of the record (power-cut model); the
  /// writer is *not* told — detection happens at read time via the CRC.
  double torn_write_probability = 0.0;
  /// After a commit, one random bit of one random retained record flips.
  double latent_corruption_probability = 0.0;
  /// Retry budget for failed write attempts before the write is abandoned.
  std::size_t max_write_retries = 4;
  /// Backoff before the first retry; doubles on each further retry.
  Duration retry_backoff = Duration::millis(2);

  bool any() const {
    return write_error_probability > 0.0 || torn_write_probability > 0.0 ||
           latent_corruption_probability > 0.0;
  }
};

struct StableStoreParams {
  Duration write_base_latency = Duration::millis(5);
  /// Additional latency per KiB written (models transfer time).
  Duration write_per_kib = Duration::micros(100);
  StorageFaultParams faults;
};

class StableStore {
 public:
  using CommitCallback = std::function<void(const CheckpointRecord&)>;

  StableStore(Simulator& sim, const StableStoreParams& params)
      : sim_(sim), params_(params), fault_rng_(0) {}

  StableStore(const StableStore&) = delete;
  StableStore& operator=(const StableStore&) = delete;

  /// Seed the fault-injection stream (campaigns); without this, injected
  /// faults draw from a fixed default stream.
  void seed_faults(Rng rng) { fault_rng_ = rng; }

  /// Begin writing `record`; it commits after the modelled latency, then
  /// `on_commit` (if any) fires. Only one write may be in progress.
  void begin_write(CheckpointRecord record, CommitCallback on_commit = {});

  /// Abort the in-progress write and restart it with `record`. The write
  /// latency restarts (the new contents must be fully written). Requires a
  /// write in progress.
  void replace_in_progress(CheckpointRecord record);

  bool write_in_progress() const { return in_progress_.has_value(); }

  /// Commit `record` immediately, aborting any in-progress write. Used at
  /// deployment time (initial checkpoint before the mission starts) and by
  /// recovery managers establishing a fresh recovery line; not part of the
  /// modelled steady-state write path. Never fault-injected (the recovery
  /// path is modelled as a verified write-through).
  void commit_now(const CheckpointRecord& record);

  /// The most recently committed checkpoint that decodes cleanly. A
  /// corrupted newest record is skipped (counted in corrupt_reads) and the
  /// previous retained record is returned instead. Empty if none decodes.
  std::optional<CheckpointRecord> latest_committed() const;

  /// Ndc of the most recently committed checkpoint (0 if none). Recovery
  /// uses this to find the last *common* checkpoint index across nodes.
  StableSeq latest_ndc() const;

  /// Ndc of the newest retained record that decodes cleanly (0 if none).
  /// This is what recovery-line selection must use when storage may lie.
  StableSeq latest_valid_ndc() const;

  /// The committed checkpoint with the given Ndc, if still retained and
  /// intact. The store keeps a short history (kHistoryDepth) precisely so
  /// that a recovery can roll back to the last common index when a fault
  /// lands in the timer-skew window and nodes' latest indices differ.
  /// Returns nullopt (never aborts) when the record is corrupted.
  std::optional<CheckpointRecord> committed_for(StableSeq ndc) const;

  /// Newest intact record with index <= `ndc` — the checksum-mismatch
  /// fallback path: when the record at the recovery line fails to decode,
  /// recovery proceeds from the previous retained record.
  std::optional<CheckpointRecord> best_valid_at_most(StableSeq ndc) const;

  /// True iff a retained record with this index decodes cleanly.
  bool has_valid(StableSeq ndc) const;

  /// Indices of all retained records, oldest first.
  std::vector<StableSeq> retained_ndcs() const;

  /// Drop every retained record with index > `ndc`. Recovery calls this on
  /// all survivors: records committed during the repair window belong to
  /// the undone incarnation and must not shadow the restored line.
  void discard_above(StableSeq ndc);

  /// Node crash: the in-progress write (if any) is lost; committed data
  /// survives.
  void crash_abort_in_progress();

  /// Outcome of a base-station handoff re-homing this store.
  struct HandoffOutcome {
    /// An in-progress write was close enough to completion to drain.
    bool write_drained = false;
    /// An in-progress write could not drain within the gap and was
    /// abandoned (claimable via take_abandoned(), like a retry-exhausted
    /// write — the watchdog forces it through post-handoff).
    bool write_abandoned = false;
    std::size_t migrated = 0;  ///< Checkpoint records copied to the new home.
    std::size_t dropped = 0;   ///< Old records not worth migrating.
  };

  /// Base-station handoff (mobile missions): the process re-homes its
  /// stable store to a new station mid-mission. An in-progress write is
  /// *drained* — left to finish — iff it would commit within
  /// `drain_window` (the handoff gap the old station stays reachable);
  /// otherwise it is abandoned and parked for the write watchdog, which
  /// forces the very record through at the new home. The checkpoint
  /// history migrates newest-first up to `keep_depth` records; older ones
  /// are dropped (the transfer budget), which is what can force the
  /// post-handoff recovery line to be re-derived.
  HandoffOutcome handoff(std::size_t keep_depth, Duration drain_window);

  std::uint64_t handoffs() const { return handoffs_; }

  /// The record of the most recently abandoned write (retry budget
  /// exhausted), handed over at most once. The stable-write watchdog
  /// claims it and degrades to a forced write-through commit, so the
  /// checkpoint content — built at the interval boundary — is preserved
  /// rather than re-fabricated from a later state.
  std::optional<CheckpointRecord> take_abandoned() {
    auto out = std::move(abandoned_);
    abandoned_.reset();
    return out;
  }

  // ---- Deterministic damage (tests / targeted injection) -----------------
  /// Flip one bit near the middle of the retained record with index `ndc`.
  bool corrupt_retained(StableSeq ndc);
  /// Flip one bit at byte `offset` of the retained record.
  bool corrupt_retained(StableSeq ndc, std::size_t offset);
  /// Truncate the retained record with index `ndc` to `keep` bytes.
  bool truncate_retained(StableSeq ndc, std::size_t keep);
  /// Append `extra` garbage bytes after the retained record with index
  /// `ndc` (overlong blob: record decodes, boundary check must reject).
  bool pad_retained(StableSeq ndc, std::size_t extra);

  Duration write_latency_for(const CheckpointRecord& record) const;

  // ---- Statistics --------------------------------------------------------
  std::uint64_t commits() const { return commits_; }
  /// Every way a write in progress can end without committing its
  /// contents: crash aborts + replacements + abandoned (retries exhausted).
  std::uint64_t aborts() const {
    return crash_aborts_ + replace_aborts_ + failed_writes_;
  }
  std::uint64_t crash_aborts() const { return crash_aborts_; }
  std::uint64_t replace_aborts() const { return replace_aborts_; }
  std::uint64_t failed_writes() const { return failed_writes_; }
  std::uint64_t write_retries() const { return write_retries_; }
  std::uint64_t torn_writes() const { return torn_writes_; }
  std::uint64_t latent_corruptions() const { return latent_corruptions_; }
  /// Reads that hit a record failing its checksum/decode.
  std::uint64_t corrupt_reads() const { return corrupt_reads_; }
  std::uint64_t bytes_written() const { return bytes_written_; }

  /// Id of the retained entry with index `ndc`, whatever its verdict;
  /// nullopt when none is retained. Ids come from a per-store counter and
  /// an entry gets a fresh one whenever its bytes change, so equal ids
  /// mean the same bytes, which decode to the same record: recovery-line
  /// audits are memoized on them (coord/line_verdicts.hpp).
  std::optional<std::uint64_t> entry_id(StableSeq ndc) const;

 private:
  static constexpr std::size_t kHistoryDepth = 8;

  /// Whether an entry's bytes decode: unknown until first read.
  enum class Verdict : std::uint8_t { kUnknown, kValid, kCorrupt };

  struct Committed {
    StableSeq ndc;
    Bytes encoded;
    ViewRef views;
    std::uint64_t id = 0;
    /// Cached decode verdict; every change to `encoded` resets it.
    mutable Verdict verdict = Verdict::kUnknown;
  };

  void commit();
  void retain(Committed entry);
  Committed encode(const CheckpointRecord& record);
  /// `c`'s bytes changed: new id, verdict unknown.
  void touch(Committed& c) {
    c.id = ++next_id_;
    c.verdict = Verdict::kUnknown;
  }
  /// Flip `bit` of byte `offset` (latent corruption).
  void flip(Committed& c, std::size_t offset, int bit);
  void apply_post_commit_faults();
  /// The entry's record, or nullopt (counted in corrupt_reads) when its
  /// bytes do not decode. A known-corrupt entry is not parsed again.
  std::optional<CheckpointRecord> decode(const Committed& c) const;
  /// O(1) once the verdict is cached.
  static bool decodes(const Committed& c);
  const Committed* find(StableSeq ndc) const;

  struct InProgress {
    CheckpointRecord record;
    CommitCallback on_commit;
    EventHandle handle;
    std::size_t attempt = 0;
    TimePoint expected_commit;
  };

  Simulator& sim_;
  StableStoreParams params_;
  Rng fault_rng_;
  std::optional<InProgress> in_progress_;
  std::optional<CheckpointRecord> abandoned_;
  std::vector<Committed> history_;  // oldest first, capped at kHistoryDepth
  std::uint64_t commits_ = 0;
  std::uint64_t crash_aborts_ = 0;
  std::uint64_t replace_aborts_ = 0;
  std::uint64_t failed_writes_ = 0;
  std::uint64_t write_retries_ = 0;
  std::uint64_t torn_writes_ = 0;
  std::uint64_t latent_corruptions_ = 0;
  mutable std::uint64_t corrupt_reads_ = 0;
  std::uint64_t bytes_written_ = 0;
  std::uint64_t handoffs_ = 0;
  std::uint64_t next_id_ = 0;
};

}  // namespace synergy
