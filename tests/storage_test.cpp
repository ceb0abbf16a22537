#include <gtest/gtest.h>

#include <functional>
#include <vector>

#include "mdcd/views.hpp"
#include "sim/simulator.hpp"
#include "storage/stable_store.hpp"
#include "storage/volatile_store.hpp"

namespace synergy {
namespace {

CheckpointRecord sample_record(std::uint64_t ndc = 1) {
  CheckpointRecord rec;
  rec.kind = CkptKind::kStable;
  rec.owner = kP2;
  rec.established_at = TimePoint{1000};
  rec.state_time = TimePoint{900};
  rec.dirty_bit = true;
  rec.ndc = ndc;
  rec.app_state = Bytes{1, 2, 3};
  rec.protocol_state = Bytes{4, 5};
  rec.transport_state = Bytes{6};
  Message m;
  m.sender = kP2;
  m.receiver = kP1Sdw;
  m.transport_seq = 9;
  rec.unacked.push_back(m);
  return rec;
}

/// sample_record() referencing a view history of `sent` + `recv` views,
/// with the mark bytes in its protocol blob (as an MDCD record has).
CheckpointRecord record_with_views(std::uint64_t ndc, std::uint32_t sent,
                                   std::uint32_t recv) {
  auto history = std::make_shared<ViewHistory>();
  for (std::uint32_t i = 0; i < sent; ++i) {
    history->add_sent(MsgView{kP1Sdw, i, i, MsgKind::kInternal, true, i});
  }
  for (std::uint32_t i = 0; i < recv; ++i) {
    history->add_recv(MsgView{kP1Act, i, i, MsgKind::kInternal, false, 0});
  }
  CheckpointRecord rec = sample_record(ndc);
  rec.views = ViewRef{history, history->mark()};
  ByteWriter w;
  w.u8(1);
  rec.views.mark.serialize(w);
  rec.protocol_state = w.take();
  return rec;
}

TEST(CheckpointTest, SerializationRoundTrip) {
  const CheckpointRecord rec = sample_record();
  ByteWriter w;
  rec.serialize(w);
  ByteReader r(w.data());
  const std::optional<CheckpointRecord> decoded =
      CheckpointRecord::try_deserialize(r);
  ASSERT_TRUE(decoded.has_value());
  const CheckpointRecord& back = *decoded;
  EXPECT_EQ(back.kind, rec.kind);
  EXPECT_EQ(back.owner, rec.owner);
  EXPECT_EQ(back.established_at, rec.established_at);
  EXPECT_EQ(back.state_time, rec.state_time);
  EXPECT_EQ(back.dirty_bit, rec.dirty_bit);
  EXPECT_EQ(back.ndc, rec.ndc);
  EXPECT_EQ(back.app_state, rec.app_state);
  EXPECT_EQ(back.protocol_state, rec.protocol_state);
  EXPECT_EQ(back.transport_state, rec.transport_state);
  ASSERT_EQ(back.unacked.size(), 1u);
  EXPECT_EQ(back.unacked[0].transport_seq, 9u);
}

// encoded_size() backs StableStore::write_latency_for, so a drift between it
// and serialize() silently changes simulated commit timing. Checkpoint.cpp
// promises this test keeps the two in lock-step.
TEST(CheckpointTest, EncodedSizeMatchesSerializedSize) {
  CheckpointRecord empty;
  ByteWriter we;
  empty.serialize(we);
  EXPECT_EQ(we.data().size(), empty.encoded_size());

  CheckpointRecord rec = sample_record();
  rec.unacked[0].aux = Bytes{9, 8, 7, 6, 5};
  Message extra;
  extra.sender = kP1Act;
  extra.receiver = kP2;
  extra.transport_seq = 17;
  rec.unacked.push_back(extra);
  ByteWriter w;
  rec.serialize(w);
  EXPECT_EQ(w.data().size(), rec.encoded_size());

  // Serializing into a dirty reused writer appends exactly encoded_size().
  w.u32(0xDEADBEEF);
  const std::size_t before = w.data().size();
  rec.serialize(w);
  EXPECT_EQ(w.data().size() - before, rec.encoded_size());

  // A record with views is charged exactly its bytes: the views stay in
  // the history, so 65 of them cost what none do — the mark in the blob.
  const CheckpointRecord viewed = record_with_views(1, 40, 25);
  ByteWriter wv;
  viewed.serialize(wv);
  EXPECT_EQ(wv.data().size(), viewed.encoded_size());
  EXPECT_EQ(viewed.encoded_size(), record_with_views(1, 0, 0).encoded_size());
  EXPECT_EQ(viewed.encoded_size(),
            sample_record(1).encoded_size() - 2 + 1 + ViewMark::kEncodedBytes);
}

TEST(VolatileStoreTest, KeepsOnlyLatest) {
  VolatileStore store;
  EXPECT_FALSE(store.latest().has_value());
  store.save(sample_record(1));
  store.save(sample_record(2));
  ASSERT_TRUE(store.latest().has_value());
  EXPECT_EQ(store.latest()->ndc, 2u);
  EXPECT_EQ(store.saves(), 2u);
}

TEST(VolatileStoreTest, CrashErasesContents) {
  VolatileStore store;
  store.save(sample_record());
  store.crash_erase();
  EXPECT_FALSE(store.latest().has_value());
}

class StableStoreFixture : public ::testing::Test {
 protected:
  StableStoreFixture() : store_(sim_, params()) {}
  static StableStoreParams params() {
    StableStoreParams p;
    p.write_base_latency = Duration::millis(10);
    p.write_per_kib = Duration::zero();
    return p;
  }
  Simulator sim_;
  StableStore store_;
};

TEST_F(StableStoreFixture, WriteCommitsAfterLatency) {
  bool committed = false;
  store_.begin_write(sample_record(),
                     [&](const CheckpointRecord&) { committed = true; });
  EXPECT_TRUE(store_.write_in_progress());
  EXPECT_FALSE(store_.latest_committed().has_value());
  sim_.run();
  EXPECT_TRUE(committed);
  EXPECT_FALSE(store_.write_in_progress());
  ASSERT_TRUE(store_.latest_committed().has_value());
  EXPECT_EQ(store_.latest_committed()->ndc, 1u);
  EXPECT_EQ(sim_.now(), TimePoint{10'000});
}

TEST_F(StableStoreFixture, ReplaceInProgressSwapsContents) {
  store_.begin_write(sample_record(1));
  sim_.run_until(TimePoint{5'000});
  store_.replace_in_progress(sample_record(2));
  sim_.run();
  ASSERT_TRUE(store_.latest_committed().has_value());
  EXPECT_EQ(store_.latest_committed()->ndc, 2u);
  EXPECT_EQ(store_.aborts(), 1u);
  EXPECT_EQ(store_.commits(), 1u);
  // Replacement restarts the write latency.
  EXPECT_EQ(sim_.now(), TimePoint{15'000});
}

TEST_F(StableStoreFixture, CrashLosesInProgressKeepsCommitted) {
  store_.begin_write(sample_record(1));
  sim_.run();
  store_.begin_write(sample_record(2));
  sim_.run_until(sim_.now() + Duration::millis(5));
  store_.crash_abort_in_progress();
  sim_.run();
  ASSERT_TRUE(store_.latest_committed().has_value());
  EXPECT_EQ(store_.latest_committed()->ndc, 1u);
}

TEST_F(StableStoreFixture, CommitNowIsSynchronous) {
  store_.begin_write(sample_record(1));
  store_.commit_now(sample_record(7));
  EXPECT_FALSE(store_.write_in_progress());
  ASSERT_TRUE(store_.latest_committed().has_value());
  EXPECT_EQ(store_.latest_committed()->ndc, 7u);
}

TEST_F(StableStoreFixture, TrailingGarbageRejectedAtRecordBoundary) {
  // A stored blob is exactly one record. Bytes appended after a CRC-clean
  // record (overlong torn read, appended garbage on untrusted storage)
  // must fail the read, not silently decode the record and ignore the
  // junk — the reader has to land exactly on the record boundary.
  store_.commit_now(sample_record(1));
  store_.commit_now(sample_record(2));
  ASSERT_TRUE(store_.pad_retained(2, 5));
  EXPECT_FALSE(store_.has_valid(2));
  EXPECT_TRUE(store_.has_valid(1));
  // Fallback behaves exactly like any other corruption: skip to the
  // newest intact record.
  ASSERT_TRUE(store_.latest_committed().has_value());
  EXPECT_EQ(store_.latest_committed()->ndc, 1u);
  EXPECT_EQ(store_.latest_valid_ndc(), 1u);
  ASSERT_TRUE(store_.best_valid_at_most(2).has_value());
  EXPECT_EQ(store_.best_valid_at_most(2)->ndc, 1u);
  EXPECT_FALSE(store_.committed_for(2).has_value());
  EXPECT_GE(store_.corrupt_reads(), 1u);
}

TEST_F(StableStoreFixture, CommittedSurvivesAsBytes) {
  // latest_committed decodes from the persisted byte blob every time:
  // mutating the returned record must not affect the store.
  store_.commit_now(sample_record(3));
  auto rec = store_.latest_committed();
  rec->ndc = 999;
  EXPECT_EQ(store_.latest_committed()->ndc, 3u);
}

TEST_F(StableStoreFixture, TornWriteOfTheLastByteIsUndecodable) {
  // Tears are bounded by the record's encoded size: keeping all of it is
  // no tear, and losing only the last byte loses the record.
  const CheckpointRecord rec = record_with_views(2, 200, 0);
  const std::size_t size = rec.encoded_size();
  store_.commit_now(record_with_views(1, 0, 0));
  store_.commit_now(rec);
  ASSERT_TRUE(store_.has_valid(2));
  EXPECT_FALSE(store_.truncate_retained(2, size));
  ASSERT_TRUE(store_.has_valid(2));
  ASSERT_TRUE(store_.truncate_retained(2, size - 1));
  EXPECT_FALSE(store_.has_valid(2));
  const std::uint64_t reads = store_.corrupt_reads();
  EXPECT_FALSE(store_.committed_for(2).has_value());
  EXPECT_EQ(store_.corrupt_reads(), reads + 1);
  EXPECT_EQ(store_.latest_committed()->ndc, 1u);
}

TEST_F(StableStoreFixture, LatentFlipOfTheLastByteIsUndecodable) {
  // Flip offsets are bounded by the record's encoded size; a flip in its
  // last byte (the CRC) loses the record.
  const CheckpointRecord rec = record_with_views(2, 0, 200);
  const std::size_t size = rec.encoded_size();
  store_.commit_now(rec);
  EXPECT_FALSE(store_.corrupt_retained(2, size));
  ASSERT_TRUE(store_.has_valid(2));
  ASSERT_TRUE(store_.corrupt_retained(2, size - 1));
  EXPECT_FALSE(store_.has_valid(2));
  const std::uint64_t reads = store_.corrupt_reads();
  EXPECT_FALSE(store_.committed_for(2).has_value());
  EXPECT_EQ(store_.corrupt_reads(), reads + 1);
}

/// Commits records 1 and 2 and reads both clean, so their verdicts are
/// cached as valid; returns entry 2's id.
std::uint64_t commit_and_read_clean(StableStore& store) {
  store.commit_now(sample_record(1));
  store.commit_now(sample_record(2));
  EXPECT_TRUE(store.has_valid(1));
  EXPECT_TRUE(store.has_valid(2));
  EXPECT_EQ(store.latest_valid_ndc(), 2u);
  EXPECT_TRUE(store.committed_for(2).has_value());
  return *store.entry_id(2);
}

/// Entry 2, read clean before, was damaged since: its cached verdict must
/// not survive.
void expect_entry_two_damaged(const StableStore& store, std::uint64_t id) {
  EXPECT_NE(store.entry_id(2), id);
  EXPECT_FALSE(store.has_valid(2));
  EXPECT_TRUE(store.has_valid(1));
  EXPECT_EQ(store.latest_valid_ndc(), 1u);
  // Every read of a damaged entry counts, not only the first.
  const std::uint64_t reads = store.corrupt_reads();
  EXPECT_FALSE(store.committed_for(2).has_value());
  EXPECT_FALSE(store.committed_for(2).has_value());
  EXPECT_EQ(store.corrupt_reads(), reads + 2);
  EXPECT_EQ(store.latest_committed()->ndc, 1u);
}

TEST_F(StableStoreFixture, DamageAfterACleanReadResetsTheCachedVerdict) {
  const std::vector<std::function<void(StableStore&)>> damages = {
      [](StableStore& s) { ASSERT_TRUE(s.corrupt_retained(2)); },
      [](StableStore& s) { ASSERT_TRUE(s.pad_retained(2, 3)); },
      [](StableStore& s) { ASSERT_TRUE(s.truncate_retained(2, 20)); },
  };
  for (const auto& damage : damages) {
    Simulator sim;
    StableStore store(sim, params());
    const std::uint64_t id = commit_and_read_clean(store);
    damage(store);
    expect_entry_two_damaged(store, id);
  }
}

TEST_F(StableStoreFixture, LatentFlipAfterACleanReadResetsTheCachedVerdict) {
  // A seeded latent flip lands on a random retained entry after a commit:
  // find a seed whose flip hits entry 2.
  StableStoreParams p = params();
  p.faults.latent_corruption_probability = 1.0;
  bool hit = false;
  for (std::uint64_t seed = 1; seed <= 64 && !hit; ++seed) {
    Simulator sim;
    StableStore store(sim, p);
    store.seed_faults(Rng(seed));
    const std::uint64_t id = commit_and_read_clean(store);
    store.begin_write(sample_record(3));
    sim.run();
    store.discard_above(2);
    if (store.entry_id(2) == id) continue;  // the flip hit another entry
    hit = true;
    EXPECT_EQ(store.latent_corruptions(), 1u);
    expect_entry_two_damaged(store, id);
  }
  EXPECT_TRUE(hit);
}

TEST_F(StableStoreFixture, EntryIdsChangeWithTheBytes) {
  store_.commit_now(sample_record(1));
  const auto id = store_.entry_id(1);
  ASSERT_TRUE(id.has_value());
  EXPECT_FALSE(store_.entry_id(2).has_value());
  EXPECT_EQ(store_.entry_id(1), id);  // reads change nothing
  (void)store_.latest_committed();
  EXPECT_EQ(store_.entry_id(1), id);
  store_.commit_now(sample_record(1));  // same index, rewritten in place
  EXPECT_NE(store_.entry_id(1), id);
  const auto rewritten = store_.entry_id(1);
  const std::size_t size = sample_record(1).encoded_size();
  ASSERT_TRUE(store_.corrupt_retained(1, size - 1));
  ASSERT_TRUE(store_.corrupt_retained(1, size - 1));  // the same bit back
  EXPECT_TRUE(store_.has_valid(1));
  EXPECT_NE(store_.entry_id(1), rewritten);
}

TEST_F(StableStoreFixture, DecodeReattachesViewHandle) {
  const CheckpointRecord rec = record_with_views(3, 7, 5);
  store_.commit_now(rec);
  const auto back = store_.committed_for(3);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->views.log, rec.views.log);
  EXPECT_EQ(back->views.mark, rec.views.mark);
  EXPECT_EQ(back->encoded_size(), rec.encoded_size());
}

TEST(StableStoreLatencyTest, WritesAreChargedTheEncodedSize) {
  Simulator sim;
  StableStoreParams p;
  p.write_base_latency = Duration::zero();
  p.write_per_kib = Duration::millis(1);
  StableStore store(sim, p);
  // 400 views in the history, none of them on disk: one KiB-rounded unit.
  CheckpointRecord rec = record_with_views(1, 300, 100);
  const std::size_t size = rec.encoded_size();
  ASSERT_LT(size, 1024u);
  store.begin_write(rec);
  sim.run();
  EXPECT_EQ(store.commits(), 1u);
  EXPECT_EQ(store.bytes_written(), size);
  EXPECT_EQ(sim.now(), TimePoint::origin() + Duration::millis(1));
  // Real bytes do count: a 2,900-byte app state makes three KiB.
  rec.app_state = Bytes(2'900, 7);
  store.commit_now(rec);
  EXPECT_EQ(store.bytes_written(), size + rec.encoded_size());
  EXPECT_EQ(store.write_latency_for(rec), Duration::millis(3));
}

TEST(StableStoreLatencyTest, PerKibLatencyScalesWithSize) {
  Simulator sim;
  StableStoreParams p;
  p.write_base_latency = Duration::zero();
  p.write_per_kib = Duration::millis(1);
  StableStore store(sim, p);
  CheckpointRecord rec = sample_record();
  rec.app_state = Bytes(4096, 0xAA);
  const Duration latency = store.write_latency_for(rec);
  EXPECT_GE(latency, Duration::millis(4));
  EXPECT_LE(latency, Duration::millis(6));
}

}  // namespace
}  // namespace synergy
