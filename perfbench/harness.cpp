#include "harness.hpp"

#include <algorithm>
#include <memory>
#include <utility>

#include "analysis/checkers.hpp"
#include "common/rng.hpp"
#include "common/serialize.hpp"
#include "inject/fault_schedule.hpp"

namespace perfbench {

using namespace synergy;

namespace {

using Scope = Tracer::Scope;

/// Arms the timed fault events exactly as run_mission does.
void arm_schedule(System& system, const SystemConfig& sc,
                  const FaultSchedule& schedule) {
  for (const FaultEvent& ev : schedule.events()) {
    switch (ev.kind) {
      case FaultEvent::Kind::kHwFault:
        if (sc.scheme != Scheme::kMdcdOnly) {
          system.schedule_hw_fault(ev.at, NodeId{ev.target});
        }
        break;
      case FaultEvent::Kind::kDriftExcursion:
        system.sim().schedule_at(ev.at, [&system, ev] {
          system.clocks().inject_drift_excursion(ProcessId{ev.target},
                                                 ev.drift);
        });
        break;
      case FaultEvent::Kind::kDriftRestore:
        system.sim().schedule_at(ev.at, [&system, ev] {
          system.clocks().end_drift_excursion(ProcessId{ev.target});
        });
        break;
      case FaultEvent::Kind::kBlackoutStart:
        system.sim().schedule_at(ev.at, [&system] {
          system.clocks().suppress_resyncs(true);
        });
        break;
      case FaultEvent::Kind::kBlackoutEnd:
        system.sim().schedule_at(ev.at, [&system] {
          system.clocks().suppress_resyncs(false);
        });
        break;
      case FaultEvent::Kind::kLaneFlip:
      case FaultEvent::Kind::kSigFault:
        system.schedule_lane_fault(
            ev.at, ProcessId{ev.target % kNumCanonicalProcesses}, ev.lane,
            ev.kind == FaultEvent::Kind::kSigFault, ev.noise);
        break;
      case FaultEvent::Kind::kLinkDown:
        system.schedule_link_down(
            ev.at, ProcessId{ev.target % kNumCanonicalProcesses},
            (ev.noise & kLinkRx) != 0, (ev.noise & kLinkTx) != 0,
            (ev.noise & kLinkFull) != 0, ev.drift);
        break;
      case FaultEvent::Kind::kLinkUp:
        system.schedule_link_up(ev.at,
                                ProcessId{ev.target % kNumCanonicalProcesses});
        break;
      case FaultEvent::Kind::kHandoff:
        if (sc.scheme != Scheme::kMdcdOnly) {
          system.schedule_handoff(
              ev.at, ProcessId{ev.target % kNumCanonicalProcesses});
        }
        break;
    }
  }
}

/// The MissionReport fields run_mission fills after the final audit, plus
/// the per-layer counters the report does not carry.
void read_counters(System& system, const SystemConfig& sc,
                   MissionReport& report, Counters& c) {
  if (sc.workload.kind == WorkloadKind::kRegisters && sc.at.coverage >= 1.0 &&
      sc.at.false_alarm <= 0.0) {
    for (const auto& e : system.device().entries) {
      if (e.tainted) {
        report.failures.push_back("tainted external output at " +
                                  std::to_string(e.at.to_seconds()) + "s");
        break;
      }
    }
  }
  if (FaultyNetwork* fn = system.faulty_net()) {
    report.injected_net = fn->injected_total();
    report.link_epochs = fn->link_epochs();
    report.disconnect_drops = fn->disconnect_drops();
    report.burst_drops = fn->burst_drops();
  }
  report.handoffs = system.handoffs();
  report.handoff_aborted_writes = system.handoff_aborted_writes();
  Network& net = system.net();
  report.late_deliveries = net.late_deliveries();
  report.net_dropped_loss = net.dropped_loss();
  report.net_dropped_no_receiver = net.dropped_no_receiver();
  report.net_dropped_cancelled = net.dropped_cancelled();

  double acks = 0, dups = 0, vckpts = 0, deferred = 0, vsaves = 0;
  double tb_ckpts = 0, tb_overruns = 0, tb_replacements = 0;
  for (std::uint32_t p = 0; p < kNumCanonicalProcesses; ++p) {
    ProcessNode& n = system.node(ProcessId{p});
    report.unacked_high_water = std::max<std::uint64_t>(
        report.unacked_high_water, n.endpoint().unacked_high_water());
    const AcceptanceTest& at = n.at();
    const std::uint64_t detected = at.failures() - at.false_alarms();
    report.at_detected += detected;
    report.at_missed += at.missed_detections();
    report.at_exposures += detected + at.missed_detections();
    report.at_false_alarms += at.false_alarms();
    report.ckpt_records += n.vstore().saves();
    report.ckpt_bytes_encoded += n.app().snapshot_bytes_encoded() +
                                 n.engine().protocol_bytes_encoded() +
                                 n.endpoint().snapshot_bytes_encoded();
    report.ckpt_cache_hits += n.app().snapshot_cache_hits() +
                              n.engine().protocol_cache_hits() +
                              n.endpoint().snapshot_cache_hits();
    report.ckpt_cache_misses += n.app().snapshot_cache_misses() +
                                n.engine().protocol_cache_misses() +
                                n.endpoint().snapshot_cache_misses();
    acks += static_cast<double>(n.endpoint().acks_sent());
    dups += static_cast<double>(n.endpoint().duplicates_suppressed());
    vckpts += static_cast<double>(n.engine().volatile_checkpoints());
    deferred += static_cast<double>(n.engine().deferred_ops());
    vsaves += static_cast<double>(n.vstore().saves());
    if (const TbEngine* tb = n.tb()) {
      tb_ckpts += static_cast<double>(tb->checkpoints_taken());
      tb_overruns += static_cast<double>(tb->overruns());
      tb_replacements += static_cast<double>(tb->replacements());
    }
    if (!n.has_stable_storage()) continue;
    report.ckpt_records += n.sstore().commits();
    report.stable_bytes_written += n.sstore().bytes_written();
    report.write_retries += n.sstore().write_retries();
    report.failed_writes += n.sstore().failed_writes();
    report.torn_writes += n.sstore().torn_writes();
    report.latent_corruptions += n.sstore().latent_corruptions();
    report.corrupt_reads += n.sstore().corrupt_reads();
    c["storage.commits"] += static_cast<double>(n.sstore().commits());
  }
  report.hw_faults = system.hw_manager().faults_injected();
  report.drift_excursions = system.clocks().drift_excursions();
  report.missed_resyncs = system.clocks().missed_resyncs();
  report.sw_recoveries = system.sw_recovery().has_value() ? 1 : 0;
  const LaneStats lanes = system.lane_stats();
  report.lane_injected = lanes.injected + system.unprotected_flips();
  report.lane_masked = lanes.masked;
  report.lane_detected = lanes.detected;
  report.lane_silent = lanes.silent;
  report.lane_unprotected = system.unprotected_flips();
  report.lane_rollbacks = system.lane_rollbacks();
  report.lane_resyncs = lanes.resyncs;
  report.sig_mismatches = lanes.sig_mismatches;
  for (const HwRecoveryStats& r : system.hw_recoveries()) {
    for (const Duration& d : r.rollback_distance) {
      report.rollback_seconds.push_back(d.to_seconds());
    }
  }
  for (std::uint32_t p = 0; p < kNumCanonicalProcesses; ++p) {
    if (const TbEngine* tb = system.node(ProcessId{p}).tb()) {
      report.blocking_seconds += tb->total_blocking().to_seconds();
    }
  }
  if (AssumptionMonitor* m = system.monitor()) report.monitor = m->stats();

  const auto d = [](std::uint64_t v) { return static_cast<double>(v); };
  c["sim.events"] = d(system.sim().events_executed());
  c["sim.schedules"] = d(system.sim().schedules());
  c["net.sent"] = d(net.sent());
  c["net.delivered"] = d(net.delivered());
  c["net.dropped_loss"] = d(net.dropped_loss());
  c["net.dropped_no_receiver"] = d(net.dropped_no_receiver());
  c["net.late"] = d(net.late_deliveries());
  c["net.acks"] = acks;
  c["net.dups_suppressed"] = dups;
  c["net.unacked_high_water"] = d(report.unacked_high_water);
  c["net.outputs"] = d(system.device().entries.size());
  c["storage.bytes_written"] = d(report.stable_bytes_written);
  c["storage.write_retries"] = d(report.write_retries);
  c["storage.failed_writes"] = d(report.failed_writes);
  c["storage.torn_writes"] = d(report.torn_writes);
  c["storage.corrupt_reads"] = d(report.corrupt_reads);
  c["storage.vstore_saves"] = vsaves;
  c["ckpt.bytes_encoded"] = d(report.ckpt_bytes_encoded);
  c["ckpt.cache_hits"] = d(report.ckpt_cache_hits);
  c["ckpt.cache_lookups"] =
      d(report.ckpt_cache_hits) + d(report.ckpt_cache_misses);
  c["trace.events"] = d(system.trace().events().size());
  c["mdcd.vckpts"] = vckpts;
  c["mdcd.deferred_ops"] = deferred;
  c["app.at_exposures"] = d(report.at_exposures);
  c["app.at_missed"] = d(report.at_missed);
  c["tb.checkpoints"] = tb_ckpts;
  c["tb.blocking_s"] = report.blocking_seconds;
  c["tb.overruns"] = tb_overruns;
  c["tb.replacements"] = tb_replacements;
  c["coord.hw_recoveries"] = d(system.hw_recoveries().size());
  double rollback = 0;
  for (double s : report.rollback_seconds) rollback += s;
  c["coord.rollback_s"] = rollback;
  c["coord.monitor_violations"] = d(report.monitor.violations());
  c["coord.monitor_degradations"] = d(report.monitor.degradations());
  c["coord.forced_resends"] = d(report.monitor.forced_resends);
  c["inject.net_faults"] = d(report.injected_net);
  c["inject.hw_faults"] = d(report.hw_faults);
  c["clock.missed_resyncs"] = d(report.missed_resyncs);
  c["redundant.lane_resyncs"] = d(lanes.resyncs);
}

}  // namespace

ChaosOutcome drive_chaos(const CampaignConfig& config, std::uint64_t seed,
                         Tracer* tracer,
                         const std::function<void(System&)>& probe) {
  ChaosOutcome out;
  MissionReport& report = out.report;
  report.seed = seed;

  SystemConfig sc = config.base;
  sc.scheme = config.scheme;
  sc.seed = seed;
  sc.net_faults = config.rates.net;
  sc.sstore.faults = config.rates.storage;
  sc.enable_link_faults = config.rates.mobile.any();
  sc.enable_monitor = true;
  sc.harden_recovery = true;
  if (!config.trace_csv.empty()) sc.enable_trace = true;

  std::unique_ptr<System> owned;
  {
    Scope s(tracer, "core.build");
    owned = std::make_unique<System>(sc);
  }
  System& system = *owned;
  const TimePoint start = TimePoint::origin();
  FaultSchedule schedule = [&] {
    Scope s(tracer, "inject.generate");
    return FaultSchedule::generate(seed, config.rates, start, config.mission,
                                   sc.clock.rho, kNumCanonicalProcesses);
  }();

  double audits = 0, pending_sum = 0;
  auto audit = [&](const char* when) {
    Scope a(tracer, "analysis.audit");
    const GlobalState line = [&] {
      Scope s(tracer, "analysis.line");
      return system.stable_line_state();
    }();
    const std::vector<Violation> found = [&] {
      Scope s(tracer, "analysis.check");
      return check_all(line);
    }();
    for (const Violation& v : found) {
      report.failures.push_back(std::string(when) + " at " +
                                std::to_string(system.sim().now().to_seconds()) +
                                "s: " + v.describe());
    }
    audits += 1;
    pending_sum += static_cast<double>(system.sim().pending());
  };
  {
    Scope s(tracer, "core.arm");
    arm_schedule(system, sc, schedule);
    for (TimePoint t = start + config.audit_interval;
         t < start + config.mission; t += config.audit_interval) {
      system.sim().schedule_at(t, [&audit] { audit("audit"); });
    }
  }
  {
    Scope s(tracer, "core.start");
    system.start(start + config.mission);
  }
  {
    Scope s(tracer, "core.run");
    system.run();
  }
  audit("final");
  {
    Scope s(tracer, "core.report");
    read_counters(system, sc, report, out.counters);
    report.ok = report.failures.empty();
    if (!report.ok) report.schedule_json = schedule.to_json();
  }
  out.counters["analysis.audits"] = audits;
  out.counters["sim.pending_depth"] = audits > 0 ? pending_sum / audits : 0.0;
  if (probe) probe(system);
  {
    Scope s(tracer, "core.teardown");
    owned.reset();
  }
  return out;
}

namespace {

/// The topology run_general_mission builds (build_topology in
/// general/campaign.cpp).
Topology general_topology(const GeneralCampaignConfig& config) {
  Topology base = config.shape == GeneralShape::kStar
                      ? Topology::star(config.size)
                      : Topology::chain(config.size);
  std::vector<ComponentSpec> specs = base.components();
  for (auto& s : specs) {
    s.internal_rate = config.internal_rate;
    s.external_rate = config.external_rate;
  }
  return Topology(std::move(specs));
}

}  // namespace

GeneralOutcome drive_general(
    const GeneralCampaignConfig& config, std::uint64_t seed, Tracer* tracer,
    const std::function<void(GeneralSystem&)>& probe) {
  GeneralOutcome out;
  GeneralMissionReport& report = out.report;
  report.seed = seed;

  GeneralConfig sys_config;
  sys_config.seed = seed;
  sys_config.tb.interval = config.tb_interval;
  sys_config.enable_trace = false;

  std::unique_ptr<GeneralSystem> owned;
  {
    Scope s(tracer, "core.build");
    owned = std::make_unique<GeneralSystem>(general_topology(config),
                                            sys_config);
  }
  GeneralSystem& system = *owned;
  report.processes = system.topology().process_count();

  const TimePoint end = TimePoint::origin() + config.mission;
  {
    Scope s(tracer, "core.start");
    system.start(end);
  }
  const double pending_depth = static_cast<double>(system.sim().pending());
  {
    Scope s(tracer, "core.arm");
    Rng inj(seed * 97 + 3);
    const Duration lo =
        Duration::from_seconds(config.mission.to_seconds() * 0.25);
    const Duration hi =
        Duration::from_seconds(config.mission.to_seconds() * 0.75);
    if (config.inject_hw) {
      const TimePoint at = TimePoint::origin() + inj.uniform(lo, hi);
      const auto victim = static_cast<std::uint32_t>(inj.uniform_int(
          0, static_cast<std::int64_t>(report.processes) - 1));
      system.schedule_hw_fault(at, ProcessId{victim});
    }
    if (config.inject_sw) {
      system.schedule_sw_error(TimePoint::origin() + inj.uniform(lo, hi), 0);
    }
  }
  {
    Scope s(tracer, "core.run");
    system.run();
  }

  Counters& c = out.counters;
  {
    Scope s(tracer, "core.report");
    report.events = system.sim().events_executed();
    report.device_outputs = system.device_outputs();
    for (const Message& m : system.device_log()) {
      if (m.tainted) ++report.tainted_outputs;
    }
    double overruns = 0, replacements = 0, anchors_max = 0;
    for (std::uint32_t p = 0; p < report.processes; ++p) {
      const TbEngine& tb = system.tb(ProcessId{p});
      report.stable_ckpts += tb.checkpoints_taken();
      out.blocking_seconds += tb.total_blocking().to_seconds();
      overruns += static_cast<double>(tb.overruns());
      replacements += static_cast<double>(tb.replacements());
      anchors_max = std::max(
          anchors_max,
          static_cast<double>(
              system.engine(ProcessId{p}).anchor_candidate_count()));
    }
    report.hw_recoveries = system.hw_recoveries().size();
    if (system.sw_recovery().has_value()) {
      report.sw_recoveries = 1;
      report.sw_replayed = system.sw_recovery()->replayed;
    }
    double rollback = 0;
    for (const GeneralHwRecovery& r : system.hw_recoveries()) {
      for (const Duration& d : r.rollback_distance) {
        out.rollback_seconds.push_back(d.to_seconds());
        rollback += d.to_seconds();
      }
    }
    const auto d = [](std::uint64_t v) { return static_cast<double>(v); };
    c["sim.events"] = d(report.events);
    c["sim.schedules"] = d(system.sim().schedules());
    c["sim.pending_depth"] = pending_depth;
    c["general.events"] = d(report.events);
    c["general.outputs"] = d(report.device_outputs);
    c["general.stable_ckpts"] = d(report.stable_ckpts);
    c["general.sw_replayed"] = d(report.sw_replayed);
    c["general.anchor_candidates_max"] = anchors_max;
    c["tb.checkpoints"] = d(report.stable_ckpts);
    c["tb.blocking_s"] = out.blocking_seconds;
    c["tb.overruns"] = overruns;
    c["tb.replacements"] = replacements;
    c["coord.hw_recoveries"] = d(report.hw_recoveries);
    c["coord.rollback_s"] = rollback;
    c["trace.events"] = d(system.trace().events().size());
  }
  {
    Scope a(tracer, "analysis.audit");
    const GlobalState line = [&] {
      Scope s(tracer, "analysis.line");
      return system.stable_line_state();
    }();
    Scope s(tracer, "analysis.check");
    report.consistency_violations = check_consistency(line).size();
    report.recoverability_violations = check_recoverability(line).size();
  }
  c["analysis.audits"] = 1;
  if (report.consistency_violations != 0) {
    report.failures.push_back(
        "recovery line inconsistent: " +
        std::to_string(report.consistency_violations) + " violation(s)");
  }
  if (report.recoverability_violations != 0) {
    report.failures.push_back(
        "recovery line unrecoverable: " +
        std::to_string(report.recoverability_violations) + " violation(s)");
  }
  report.ok = report.failures.empty();
  if (probe) probe(system);
  {
    Scope s(tracer, "core.teardown");
    owned.reset();
  }
  return out;
}

namespace {

/// Repeats `body` until at least `min_ns` of host time has passed and
/// returns the mean ns per call.
template <class F>
double time_per_call(F&& body, std::int64_t min_ns = 20'000'000) {
  std::uint64_t calls = 0;
  const std::int64_t t0 = now_ns();
  std::int64_t elapsed = 0;
  do {
    body();
    ++calls;
    elapsed = now_ns() - t0;
  } while (elapsed < min_ns);
  return static_cast<double>(elapsed) / static_cast<double>(calls);
}

/// Serialize cost per KiB over `records` (the encode includes the CRC).
double encode_ns_per_kb(const std::vector<CheckpointRecord>& records,
                        double* record_kb) {
  std::size_t bytes = 0;
  for (const CheckpointRecord& r : records) bytes += r.encoded_size();
  if (records.empty() || bytes == 0) return 0;
  *record_kb = static_cast<double>(bytes) / 1024.0 /
               static_cast<double>(records.size());
  std::size_t sink = 0;
  const double ns = time_per_call([&] {
    for (const CheckpointRecord& r : records) {
      ByteWriter w;
      w.reserve(r.encoded_size());
      r.serialize(w);
      sink += w.size();
    }
  });
  return sink == 0 ? 0 : ns / (static_cast<double>(bytes) / 1024.0);
}

/// Simulator schedule + dispatch of one no-op event with `depth` events
/// already pending.
double dispatch_ns(double depth) {
  Simulator sim;
  const TimePoint far = TimePoint::origin() + Duration::seconds(1'000'000);
  for (std::size_t i = 0; i < static_cast<std::size_t>(depth); ++i) {
    sim.schedule_at(far, [] {});
  }
  Rng rng(0x51D);
  std::uint64_t fired = 0;
  const double ns = time_per_call([&] {
    for (int i = 0; i < 256; ++i) {
      sim.schedule_after(Duration::micros(1 + rng.uniform_int(0, 999)),
                         [&fired] { ++fired; });
      sim.step();
    }
  });
  return fired == 0 ? 0 : ns / 256.0;
}

/// Network send -> deliver of one message between three attached
/// processes, including the one simulator step that delivers it.
double send_deliver_ns() {
  Simulator sim;
  Network net(sim, NetworkParams{}, Rng(0x4E7));
  std::uint64_t delivered = 0;
  for (std::uint32_t p = 0; p < kNumCanonicalProcesses; ++p) {
    net.attach(ProcessId{p}, [&delivered](const Message&) { ++delivered; });
  }
  std::uint32_t i = 0;
  const double ns = time_per_call([&] {
    for (int k = 0; k < 256; ++k, ++i) {
      Message m;
      m.sender = ProcessId{i % kNumCanonicalProcesses};
      m.receiver = ProcessId{(i + 1) % kNumCanonicalProcesses};
      m.payload = i;
      net.send(m);
      sim.step();
    }
  });
  return delivered == 0 ? 0 : ns / 256.0;
}

/// TraceLog::record cost per event, re-recording the mission's own events.
double trace_record_ns(const TraceLog& trace) {
  const std::vector<TraceEvent>& events = trace.events();
  if (events.empty()) return 0;
  std::size_t sink = 0;
  const double ns = time_per_call([&] {
    TraceLog log;
    for (const TraceEvent& ev : events) log.record(ev);
    sink += log.events().size();
  });
  return sink == 0 ? 0 : ns / static_cast<double>(events.size());
}

}  // namespace

UnitCosts probe_canonical(System& system, double pending_depth) {
  UnitCosts u;
  std::vector<const StableStore*> stores;
  std::vector<CheckpointRecord> records;
  std::size_t snapshot_bytes = 0;
  for (std::uint32_t p = 0; p < kNumCanonicalProcesses; ++p) {
    ProcessNode& n = system.node(ProcessId{p});
    snapshot_bytes += n.app().snapshot().size() +
                      n.engine().snapshot_protocol_state().size() +
                      n.endpoint().snapshot_state().size();
    if (!n.has_stable_storage()) continue;
    stores.push_back(&n.sstore());
    if (auto rec = n.sstore().latest_committed()) records.push_back(*rec);
  }
  u.encode_ns_per_kb = encode_ns_per_kb(records, &u.record_kb);
  if (records.size() == kNumCanonicalProcesses) {
    // The monitor's line self-audit over the final committed line.
    std::size_t found = 0;
    u.line_audit_us = time_per_call([&] {
                        found += check_consistency(
                                     global_state_from_records(records))
                                     .size();
                      }) /
                      1000.0;
  }
  if (!stores.empty()) {
    std::size_t found = 0;
    u.decode_us_per_record =
        time_per_call([&] {
          for (const StableStore* s : stores) found += s->latest_committed() ? 1 : 0;
        }) /
        1000.0 / static_cast<double>(stores.size());
  }
  if (snapshot_bytes > 0) {
    std::size_t sink = 0;
    const double ns = time_per_call([&] {
      for (std::uint32_t p = 0; p < kNumCanonicalProcesses; ++p) {
        ProcessNode& n = system.node(ProcessId{p});
        sink += n.app().snapshot().size() +
                n.engine().snapshot_protocol_state().size() +
                n.endpoint().snapshot_state().size();
      }
    });
    u.snapshot_ns_per_kb = ns / (static_cast<double>(snapshot_bytes) / 1024.0);
  }
  u.dispatch_ns = dispatch_ns(pending_depth);
  u.send_deliver_ns = send_deliver_ns();
  u.trace_record_ns = trace_record_ns(system.trace());
  return u;
}

UnitCosts probe_general(GeneralSystem& system, double pending_depth) {
  UnitCosts u;
  // GeneralSystem keeps its stable stores private: time the encode and the
  // checked decode that latest_committed() runs on records built from the
  // final process states (a sample of at most 32 processes).
  const std::size_t n = std::min<std::size_t>(
      32, system.topology().process_count());
  std::vector<CheckpointRecord> records;
  std::vector<Bytes> encoded;
  std::size_t snapshot_bytes = 0;
  for (std::uint32_t p = 0; p < n; ++p) {
    records.push_back(system.engine(ProcessId{p}).make_record(CkptKind::kStable));
    ByteWriter w;
    records.back().serialize(w);
    encoded.push_back(w.take());
    snapshot_bytes += system.app(ProcessId{p}).snapshot().size() +
                      system.engine(ProcessId{p}).snapshot_protocol_state().size();
  }
  u.encode_ns_per_kb = encode_ns_per_kb(records, &u.record_kb);
  if (!encoded.empty()) {
    std::size_t ok = 0;
    u.decode_us_per_record =
        time_per_call([&] {
          for (const Bytes& b : encoded) {
            ByteReader r(b);
            ok += CheckpointRecord::try_deserialize(r).has_value() ? 1 : 0;
          }
        }) /
        1000.0 / static_cast<double>(encoded.size());
  }
  if (snapshot_bytes > 0) {
    std::size_t sink = 0;
    const double ns = time_per_call([&] {
      for (std::uint32_t p = 0; p < n; ++p) {
        sink += system.app(ProcessId{p}).snapshot().size() +
                system.engine(ProcessId{p}).snapshot_protocol_state().size();
      }
    });
    u.snapshot_ns_per_kb = ns / (static_cast<double>(snapshot_bytes) / 1024.0);
  }
  u.dispatch_ns = dispatch_ns(pending_depth);
  u.send_deliver_ns = send_deliver_ns();
  u.trace_record_ns = trace_record_ns(system.trace());
  return u;
}

}  // namespace perfbench
