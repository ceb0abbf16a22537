#include "storage/stable_store.hpp"

#include <utility>

#include "common/assert.hpp"

namespace synergy {

Duration StableStore::write_latency_for(const CheckpointRecord& record) const {
  const auto kib =
      static_cast<std::int64_t>((record.encoded_size() + 1023) / 1024);
  return params_.write_base_latency + params_.write_per_kib * kib;
}

void StableStore::begin_write(CheckpointRecord record,
                              CommitCallback on_commit) {
  SYNERGY_EXPECTS(!in_progress_.has_value());
  const Duration latency = write_latency_for(record);
  in_progress_ = InProgress{std::move(record), std::move(on_commit), {}, 0,
                            sim_.now() + latency};
  in_progress_->handle = sim_.schedule_after(latency, [this] { commit(); });
}

void StableStore::replace_in_progress(CheckpointRecord record) {
  SYNERGY_EXPECTS(in_progress_.has_value());
  sim_.cancel(in_progress_->handle);
  ++replace_aborts_;
  const Duration latency = write_latency_for(record);
  in_progress_->record = std::move(record);
  in_progress_->attempt = 0;
  in_progress_->expected_commit = sim_.now() + latency;
  in_progress_->handle = sim_.schedule_after(latency, [this] { commit(); });
}

StableStore::Committed StableStore::encode(const CheckpointRecord& record) {
  ByteWriter w;
  record.serialize(w);
  bytes_written_ += w.size();
  return Committed{record.ndc, w.take(), record.views};
}

void StableStore::retain(Committed entry) {
  touch(entry);
  // Same-index re-commit (post-recovery line refresh) replaces in place.
  for (auto& c : history_) {
    if (c.ndc == entry.ndc) {
      c = std::move(entry);
      return;
    }
  }
  history_.push_back(std::move(entry));
  if (history_.size() > kHistoryDepth) {
    history_.erase(history_.begin());
  }
}

void StableStore::flip(Committed& c, std::size_t offset, int bit) {
  c.encoded[offset] ^= static_cast<std::uint8_t>(1u << bit);
  touch(c);
}

void StableStore::commit() {
  SYNERGY_ASSERT(in_progress_.has_value());

  // Transient write error: the device rejected the write. Retry with
  // doubling backoff (plus a full re-transfer) up to the budget, then
  // abandon the write — the record is lost exactly like a crash abort,
  // and the next checkpoint interval (or the write watchdog) makes up
  // for it.
  if (params_.faults.write_error_probability > 0.0 &&
      fault_rng_.bernoulli(params_.faults.write_error_probability)) {
    if (in_progress_->attempt < params_.faults.max_write_retries) {
      ++write_retries_;
      Duration backoff = params_.faults.retry_backoff;
      for (std::size_t i = 0; i < in_progress_->attempt; ++i) backoff = backoff * 2;
      ++in_progress_->attempt;
      const Duration latency = backoff + write_latency_for(in_progress_->record);
      in_progress_->expected_commit = sim_.now() + latency;
      in_progress_->handle = sim_.schedule_after(latency, [this] { commit(); });
      return;
    }
    ++failed_writes_;
    abandoned_ = std::move(in_progress_->record);
    in_progress_.reset();
    return;
  }

  Committed entry = encode(in_progress_->record);

  // Torn write: only a prefix of the record reaches the platter, but the
  // writer is told the commit succeeded. The CRC inside the encoding makes
  // the damage detectable at the next read.
  if (params_.faults.torn_write_probability > 0.0 &&
      fault_rng_.bernoulli(params_.faults.torn_write_probability) &&
      entry.encoded.size() > 1) {
    entry.encoded.resize(static_cast<std::size_t>(fault_rng_.uniform_int(
        1, static_cast<std::int64_t>(entry.encoded.size()) - 1)));
    ++torn_writes_;
  }

  retain(std::move(entry));
  ++commits_;
  apply_post_commit_faults();
  CommitCallback cb = std::move(in_progress_->on_commit);
  CheckpointRecord rec = std::move(in_progress_->record);
  in_progress_.reset();
  if (cb) cb(rec);
}

void StableStore::apply_post_commit_faults() {
  if (params_.faults.latent_corruption_probability <= 0.0 ||
      history_.empty() ||
      !fault_rng_.bernoulli(params_.faults.latent_corruption_probability)) {
    return;
  }
  auto& victim = history_[static_cast<std::size_t>(fault_rng_.uniform_int(
      0, static_cast<std::int64_t>(history_.size()) - 1))];
  if (victim.encoded.empty()) return;
  const auto byte = static_cast<std::size_t>(fault_rng_.uniform_int(
      0, static_cast<std::int64_t>(victim.encoded.size()) - 1));
  const auto bit = static_cast<int>(fault_rng_.uniform_int(0, 7));
  flip(victim, byte, bit);
  ++latent_corruptions_;
}

void StableStore::commit_now(const CheckpointRecord& record) {
  crash_abort_in_progress();
  retain(encode(record));
  ++commits_;
}

bool StableStore::decodes(const Committed& c) {
  if (c.verdict == Verdict::kUnknown) {
    ByteReader r(c.encoded);
    // Record-boundary check: a stored blob is exactly one record. Trailing
    // bytes mean the blob is not what the writer produced (overlong torn
    // read, appended garbage) even when the record's own CRC happens to
    // pass — treat it as corrupt, never hand back state plus junk.
    const bool ok =
        CheckpointRecord::try_deserialize(r).has_value() && r.exhausted();
    c.verdict = ok ? Verdict::kValid : Verdict::kCorrupt;
  }
  return c.verdict == Verdict::kValid;
}

std::optional<CheckpointRecord> StableStore::decode(const Committed& c) const {
  std::optional<CheckpointRecord> rec;
  if (c.verdict != Verdict::kCorrupt) {
    ByteReader r(c.encoded);
    rec = CheckpointRecord::try_deserialize(r);
    if (rec && !r.exhausted()) rec.reset();  // record-boundary check
    c.verdict = rec ? Verdict::kValid : Verdict::kCorrupt;
  }
  if (!rec) {
    ++corrupt_reads_;
    return rec;
  }
  rec->views = c.views;
  return rec;
}

const StableStore::Committed* StableStore::find(StableSeq ndc) const {
  for (const auto& c : history_) {
    if (c.ndc == ndc) return &c;
  }
  return nullptr;
}

std::optional<std::uint64_t> StableStore::entry_id(StableSeq ndc) const {
  const Committed* c = find(ndc);
  if (c == nullptr) return std::nullopt;
  return c->id;
}

std::optional<CheckpointRecord> StableStore::latest_committed() const {
  for (auto it = history_.rbegin(); it != history_.rend(); ++it) {
    if (auto rec = decode(*it)) return rec;
  }
  return std::nullopt;
}

StableSeq StableStore::latest_ndc() const {
  return history_.empty() ? 0 : history_.back().ndc;
}

StableSeq StableStore::latest_valid_ndc() const {
  for (auto it = history_.rbegin(); it != history_.rend(); ++it) {
    if (decodes(*it)) return it->ndc;
  }
  return 0;
}

std::optional<CheckpointRecord> StableStore::committed_for(
    StableSeq ndc) const {
  const Committed* c = find(ndc);
  if (c == nullptr) return std::nullopt;
  return decode(*c);
}

std::optional<CheckpointRecord> StableStore::best_valid_at_most(
    StableSeq ndc) const {
  for (auto it = history_.rbegin(); it != history_.rend(); ++it) {
    if (it->ndc > ndc) continue;
    if (auto rec = decode(*it)) return rec;
  }
  return std::nullopt;
}

bool StableStore::has_valid(StableSeq ndc) const {
  const Committed* c = find(ndc);
  return c != nullptr && decodes(*c);
}

std::vector<StableSeq> StableStore::retained_ndcs() const {
  std::vector<StableSeq> out;
  out.reserve(history_.size());
  for (const auto& c : history_) out.push_back(c.ndc);
  return out;
}

void StableStore::discard_above(StableSeq ndc) {
  std::erase_if(history_, [ndc](const Committed& c) { return c.ndc > ndc; });
}

StableStore::HandoffOutcome StableStore::handoff(std::size_t keep_depth,
                                                 Duration drain_window) {
  HandoffOutcome out;
  ++handoffs_;
  if (in_progress_) {
    if (in_progress_->expected_commit <= sim_.now() + drain_window) {
      // The write finishes before the old station goes out of reach:
      // leave it running (its commit lands in the migrated history, since
      // retention below only truncates what exists *now*).
      out.write_drained = true;
    } else {
      // Too slow to drain: abandon it and park the record for the write
      // watchdog, which forces the same contents through at the new home
      // — the checkpoint built at the interval boundary is preserved, not
      // re-fabricated from a later state.
      sim_.cancel(in_progress_->handle);
      ++failed_writes_;
      abandoned_ = std::move(in_progress_->record);
      in_progress_.reset();
      out.write_abandoned = true;
    }
  }
  // Migrate newest-first up to the transfer budget; older records stay at
  // the old station and are lost to this process.
  if (history_.size() > keep_depth) {
    out.dropped = history_.size() - keep_depth;
    history_.erase(history_.begin(),
                   history_.begin() +
                       static_cast<std::ptrdiff_t>(out.dropped));
  }
  out.migrated = history_.size();
  return out;
}

void StableStore::crash_abort_in_progress() {
  if (!in_progress_) return;
  sim_.cancel(in_progress_->handle);
  in_progress_.reset();
  ++crash_aborts_;
}

bool StableStore::corrupt_retained(StableSeq ndc) {
  for (const auto& c : history_) {
    if (c.ndc == ndc) return corrupt_retained(ndc, c.encoded.size() / 2);
  }
  return false;
}

bool StableStore::corrupt_retained(StableSeq ndc, std::size_t offset) {
  for (auto& c : history_) {
    if (c.ndc == ndc && offset < c.encoded.size()) {
      flip(c, offset, 4);
      ++latent_corruptions_;
      return true;
    }
  }
  return false;
}

bool StableStore::pad_retained(StableSeq ndc, std::size_t extra) {
  for (auto& c : history_) {
    if (c.ndc == ndc) {
      c.encoded.insert(c.encoded.end(), extra, std::uint8_t{0xA5});
      touch(c);
      ++latent_corruptions_;
      return true;
    }
  }
  return false;
}

bool StableStore::truncate_retained(StableSeq ndc, std::size_t keep) {
  for (auto& c : history_) {
    if (c.ndc == ndc && keep < c.encoded.size()) {
      c.encoded.resize(keep);
      touch(c);
      ++torn_writes_;
      return true;
    }
  }
  return false;
}

}  // namespace synergy
