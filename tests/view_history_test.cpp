// Mission-level checks of the view ghost log (DESIGN.md §19): every record
// keeps reading the views that were live when it was established, through
// hardware and software rollbacks, storage faults, relines and handoffs;
// and records stay small in real bytes however long the mission runs.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <tuple>
#include <vector>

#include "common/rng.hpp"
#include "core/campaign.hpp"
#include "core/system.hpp"
#include "mdcd/views.hpp"

namespace synergy {
namespace {

/// The canonical chaos configuration (CampaignConfig defaults, as
/// run_mission builds it) without the timed-fault schedule.
SystemConfig chaos_system(std::uint64_t seed, Scheme scheme) {
  const CampaignConfig campaign;
  SystemConfig sc = campaign.base;
  sc.scheme = scheme;
  sc.seed = seed;
  sc.net_faults = campaign.rates.net;
  sc.sstore.faults = campaign.rates.storage;
  sc.enable_monitor = true;
  sc.harden_recovery = true;
  sc.enable_trace = false;
  return sc;
}

std::vector<MsgView> copy_of(const ViewLog& log) {
  return {log.entries().begin(), log.entries().end()};
}

/// The live views at a record's establishment, deep-copied.
struct Established {
  std::shared_ptr<const ViewHistory> log;
  ViewMark mark;
  std::vector<MsgView> sent;
  std::vector<MsgView> recv;
};

using RecordKey = std::tuple<const ViewHistory*, std::uint32_t, std::uint32_t,
                             std::uint64_t>;

RecordKey key_of(const ViewRef& ref) {
  return {ref.log.get(), ref.mark.sent_len, ref.mark.recv_len, ref.mark.epoch};
}

TEST(ViewHistoryMissionTest, RecordsReadTheViewsLiveAtEstablishment) {
  std::size_t hw_recoveries = 0, sw_recoveries = 0, handoffs = 0;
  std::size_t retained_checked = 0;
  for (std::uint64_t seed = 1; seed <= 24; ++seed) {
    const Scheme scheme =
        seed % 4 == 0 ? Scheme::kWriteThrough : Scheme::kCoordinated;
    System system(chaos_system(seed, scheme));
    std::map<RecordKey, Established> established;
    for (ProcessId p : {kP1Act, kP1Sdw, kP2}) {
      MdcdEngine& engine = system.node(p).engine();
      engine.set_record_observer([&established, &engine](
                                     const CheckpointRecord& rec) {
        established.emplace(
            key_of(rec.views),
            Established{rec.views.log, rec.views.mark,
                        copy_of(engine.sent_views()),
                        copy_of(engine.recv_views())});
      });
    }
    Rng rng(seed * 131 + 7);
    const TimePoint start = TimePoint::origin();
    const auto at = [&](double lo, double hi) {
      return start + Duration::from_seconds(
                         lo + (hi - lo) * static_cast<double>(
                                              rng.uniform_int(0, 1000)) /
                                  1000.0);
    };
    system.schedule_hw_fault(at(40, 110), NodeId{static_cast<std::uint32_t>(
                                              rng.uniform_int(0, 2))});
    system.schedule_hw_fault(at(130, 200), NodeId{static_cast<std::uint32_t>(
                                               rng.uniform_int(0, 2))});
    system.schedule_sw_error(at(20, 200));
    if (seed % 3 == 0) {
      system.schedule_handoff(at(60, 220),
                              ProcessId{static_cast<std::uint32_t>(
                                  rng.uniform_int(0, 2))});
    }
    system.start(start + Duration::seconds(240));
    system.run();
    hw_recoveries += system.hw_recoveries().size();
    sw_recoveries += system.sw_recovery().has_value() ? 1 : 0;
    handoffs += system.handoffs();

    // Every record ever established, retained or not, still reads its copy.
    ASSERT_FALSE(established.empty());
    for (const auto& [key, e] : established) {
      ASSERT_EQ(copy_of(e.log->sent_at(e.mark)), e.sent) << "seed " << seed;
      ASSERT_EQ(copy_of(e.log->recv_at(e.mark)), e.recv) << "seed " << seed;
    }
    // Retained records come back from storage with their own handle.
    for (ProcessId p : {kP1Act, kP1Sdw, kP2}) {
      ProcessNode& node = system.node(p);
      std::vector<CheckpointRecord> retained;
      if (const auto& v = node.engine().latest_volatile()) retained.push_back(*v);
      if (node.has_stable_storage()) {
        for (StableSeq ndc : node.sstore().retained_ndcs()) {
          if (auto rec = node.sstore().committed_for(ndc)) {
            retained.push_back(std::move(*rec));
          }
        }
      }
      for (const CheckpointRecord& rec : retained) {
        const auto it = established.find(key_of(rec.views));
        ASSERT_NE(it, established.end()) << "seed " << seed;
        const ProcessFacts facts = facts_from_record(rec);
        const ViewRef& views = facts.views;
        EXPECT_EQ(copy_of(views.log->sent_at(views.mark)), it->second.sent)
            << "seed " << seed;
        EXPECT_EQ(copy_of(views.log->recv_at(views.mark)), it->second.recv)
            << "seed " << seed;
        ++retained_checked;
      }
    }
  }
  EXPECT_GT(hw_recoveries, 20u);
  EXPECT_GT(sw_recoveries, 10u);
  EXPECT_GT(handoffs, 0u);
  EXPECT_GT(retained_checked, 24u * 3u);
}

TEST(ViewHistoryMissionTest, StableRecordSizeStaysFlatInMissionLength) {
  System system(chaos_system(7, Scheme::kCoordinated));
  const TimePoint start = TimePoint::origin();
  system.start(start + Duration::seconds(600));
  // A record's bytes apart from the transport's dedup state, whose
  // consumed tails grow after every rollback (EXPERIMENTS, Known
  // limitations).
  auto sizes = [&] {
    std::vector<std::size_t> out;
    for (ProcessId p : {kP1Act, kP1Sdw, kP2}) {
      const CheckpointRecord rec =
          system.node(p).engine().make_record(CkptKind::kStable);
      out.push_back(rec.encoded_size() - rec.transport_state.size());
    }
    return out;
  };
  system.run_until(start + Duration::seconds(60));
  const std::vector<std::size_t> at60 = sizes();
  system.run_until(start + Duration::seconds(600));
  const std::vector<std::size_t> at600 = sizes();
  // The state, the view mark, role state (the shadow's suppressed-message
  // log varies with unvalidated traffic) and the unacked log: the views
  // stay in the history, so ten times the mission costs no more bytes.
  constexpr std::size_t kSlack = 512;
  for (std::size_t i = 0; i < at60.size(); ++i) {
    EXPECT_LE(at600[i], at60[i] + kSlack) << "process " << i;
    EXPECT_LE(at600[i], 2048u) << "process " << i;
  }
}

}  // namespace
}  // namespace synergy
