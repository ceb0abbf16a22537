// Checkpoint capture: every record encodes its process's app, protocol and
// transport state afresh. The central oracle: after ANY driven event
// sequence, a record built by make_record must carry exactly the blobs a
// fresh encode of the three sources produces — a mismatch would mean a
// capture path recorded something other than the live state (a stale
// checkpoint, paper-level incorrect recovery content).
#include <gtest/gtest.h>

#include "app/state.hpp"
#include "core/system.hpp"
#include "net/transport_core.hpp"

namespace synergy {
namespace {

TEST(AppStateCaptureTest, EncodeCountersCountEverySnapshot) {
  ApplicationState app(1);
  const Bytes first = app.snapshot();
  const Bytes second = app.snapshot();
  EXPECT_EQ(first, second);
  EXPECT_EQ(app.snapshot_cache_misses(), 2u);
  EXPECT_EQ(app.snapshot_cache_hits(), 0u);
  EXPECT_EQ(app.snapshot_bytes_encoded(), first.size() + second.size());
}

TEST(AppStateCaptureTest, EveryMutatorReachesTheSnapshot) {
  ApplicationState app(1);
  Bytes last = app.snapshot();
  const auto expect_changed = [&app, &last](const char* what) {
    const Bytes now = app.snapshot();
    EXPECT_NE(now, last) << "snapshot missed " << what;
    last = now;
  };

  app.apply_message(42, /*payload_tainted=*/false);
  expect_changed("apply_message");
  app.local_step(7);
  expect_changed("local_step");
  app.corrupt(99);
  expect_changed("corrupt");
  app.flip_bit(5);
  expect_changed("flip_bit");

  const Bytes clean = app.snapshot();
  app.corrupt(123);
  app.restore(clean);
  EXPECT_EQ(app.snapshot(), clean);
}

TEST(TransportCoreCaptureTest, EncodeCountersCountEverySnapshot) {
  TransportCore core(kP1Act);
  const Bytes a = core.snapshot_state();
  const Bytes b = core.snapshot_state();
  EXPECT_EQ(a, b);
  EXPECT_EQ(core.snapshot_cache_misses(), 2u);
  EXPECT_EQ(core.snapshot_cache_hits(), 0u);
  EXPECT_EQ(core.snapshot_bytes_encoded(), a.size() + b.size());
}

TEST(TransportCoreCaptureTest, EveryMutatorReachesTheSnapshot) {
  TransportCore core(kP1Act);
  Bytes last = core.snapshot_state();
  const auto expect_changed = [&core, &last](const char* what) {
    const Bytes now = core.snapshot_state();
    EXPECT_NE(now, last) << "snapshot missed " << what;
    last = now;
  };

  Message m;
  m.kind = MsgKind::kInternal;
  m.receiver = kP2;
  const Message stamped = core.prepare_send(m);
  expect_changed("prepare_send");  // send counter is snapshotted state

  Message recv = stamped;
  recv.sender = kP2;
  core.mark_consumed(recv);
  expect_changed("mark_consumed");

  const Bytes state = core.snapshot_state();
  core.mark_consumed([&] {
    Message other = recv;
    other.transport_seq = 999;
    return other;
  }());
  expect_changed("out-of-order mark_consumed");
  core.restore_state(state);
  EXPECT_EQ(core.snapshot_state(), state);

  const Message log[] = {stamped};
  core.restore_unacked(log);
  EXPECT_EQ(core.snapshot_state(), state);  // counter already past the log
}

// ---- Engine-level: records carry the live state ---------------------------

SystemConfig quiet_config(std::uint64_t seed = 1) {
  SystemConfig c;
  c.scheme = Scheme::kCoordinated;
  c.seed = seed;
  c.workload = WorkloadParams{0, 0, 0, 0, 0};  // manual driving only
  c.tb.interval = Duration::seconds(1'000'000);  // keep TB out of the way
  return c;
}

class RecordCaptureFixture : public ::testing::Test {
 protected:
  void build() {
    system_ = std::make_unique<System>(quiet_config());
    system_->start(TimePoint::origin() + Duration::seconds(1'000'000));
  }

  void c1_send(bool external, std::uint64_t input = 1) {
    system_->p1act().on_app_send(external, input);
    system_->p1sdw().on_app_send(external, input);
  }

  void settle() {
    system_->sim().run_until(system_->sim().now() + Duration::seconds(1));
  }

  /// The freshness oracle: a record's blobs must match fresh encodes of
  /// all three sources.
  void expect_records_fresh(const char* what) {
    for (ProcessId p : {kP1Act, kP1Sdw, kP2}) {
      ProcessNode& n = system_->node(p);
      const CheckpointRecord rec = n.engine().make_record(CkptKind::kStable);
      EXPECT_EQ(rec.app_state, n.app().snapshot())
          << "stale app blob for P" << p.value() << " after " << what;
      EXPECT_EQ(rec.protocol_state, n.engine().snapshot_protocol_state())
          << "stale protocol blob for P" << p.value() << " after " << what;
      EXPECT_EQ(rec.transport_state, n.endpoint().snapshot_state())
          << "stale transport blob for P" << p.value() << " after " << what;
    }
  }

  std::unique_ptr<System> system_;
};

TEST_F(RecordCaptureFixture, CleanStateRecordsAreFresh) {
  build();
  // Two records of an unchanged process (the clean-state TB-expiry path)
  // carry the same state.
  const CheckpointRecord a = system_->p2().make_record(CkptKind::kStable);
  const CheckpointRecord b = system_->p2().make_record(CkptKind::kStable);
  EXPECT_EQ(a.app_state, b.app_state);
  EXPECT_EQ(a.protocol_state, b.protocol_state);
  EXPECT_EQ(a.transport_state, b.transport_state);
  expect_records_fresh("repeated clean records");
}

TEST_F(RecordCaptureFixture, MessageTrafficReachesRecords) {
  build();
  const CheckpointRecord before = system_->p2().make_record(CkptKind::kStable);
  c1_send(false);  // P1act dirties P2 (Type-1 + state application)
  settle();
  const CheckpointRecord after = system_->p2().make_record(CkptKind::kStable);
  EXPECT_NE(before.app_state, after.app_state);
  EXPECT_NE(before.protocol_state, after.protocol_state);
  EXPECT_NE(before.transport_state, after.transport_state);
  expect_records_fresh("internal send + delivery");
}

TEST_F(RecordCaptureFixture, ValidationAndClearPathsReachRecords) {
  build();
  c1_send(false);
  settle();
  // External send: AT pass, note_validation, pseudo/recv dirty clears,
  // passed-AT broadcast and its consumption at P1sdw/P2.
  c1_send(true);
  settle();
  expect_records_fresh("AT pass + passed-AT broadcast");
}

TEST_F(RecordCaptureFixture, CorruptionAndRestoreReachRecords) {
  build();
  c1_send(false);
  settle();
  ProcessNode& p2node = system_->node(kP2);
  const CheckpointRecord rec = system_->p2().make_record(CkptKind::kStable);

  p2node.app().corrupt(0xBEEF);
  expect_records_fresh("app corruption");

  system_->p2().restore_from_record(rec);
  expect_records_fresh("restore_from_record");
}

TEST_F(RecordCaptureFixture, TakeoverReachesRecords) {
  build();
  c1_send(false);  // shadow logs a suppressed message (serialized role state)
  settle();
  system_->p1act().kill();
  system_->p1sdw().set_guarded(false);
  system_->p1sdw().takeover();
  settle();
  expect_records_fresh("shadow takeover");
}

}  // namespace
}  // namespace synergy
