// Self-timed micro benchmarks with machine-readable output.
//
// Times the protocol hot paths the regression gate watches (simulator event
// dispatch, RNG, application state step/snapshot, the oracles' line audit,
// a full short chaos mission) plus a few operation costs the baselines do
// not pin (one message through a System, a TB cycle, a checkpoint record
// round trip), and emits BENCH_micro.json via the synergy-bench-v1 emitter
// in bench_common.hpp.
//
//   bench_micro_json [--quick|--full] [--json BENCH_micro.json]
#include <chrono>
#include <cstdio>
#include <cstring>
#include <functional>
#include <string>

// Single-TU binary: safe to own the program's operator new/delete. The
// net_send_deliver bench arms the counter to enforce the zero-alloc
// contract of the pooled message path.
#define SYNERGY_BENCH_COUNT_ALLOCS
#include "analysis/checkers.hpp"
#include "app/state.hpp"
#include "bench_common.hpp"
#include "core/campaign.hpp"
#include "redundant/lanes.hpp"
#include "sim/simulator.hpp"

namespace synergy::bench {
namespace {

using Clock = std::chrono::steady_clock;

double time_ns_per_op(std::uint64_t iterations,
                      const std::function<void()>& op) {
  // Best-of-3: the minimum discards scheduler noise, which dwarfs the
  // kernels themselves at --quick iteration counts.
  double best = 0;
  for (int rep = 0; rep < 3; ++rep) {
    const auto t0 = Clock::now();
    for (std::uint64_t i = 0; i < iterations; ++i) op();
    const double ns =
        std::chrono::duration<double, std::nano>(Clock::now() - t0).count();
    const double per_op = ns / static_cast<double>(iterations);
    if (rep == 0 || per_op < best) best = per_op;
  }
  return best;
}

int run(int argc, char** argv) {
  const Effort effort = parse_effort(argc, argv);
  std::string json_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    }
  }

  BenchJsonWriter writer;
  auto record = [&](const char* name, std::uint64_t iterations,
                    const std::function<void()>& op,
                    double missions_per_sec = 0) {
    const double ns = time_ns_per_op(iterations, op);
    writer.add({name, iterations, ns, missions_per_sec});
    std::printf("%-28s %12llu iters %14.1f ns/op\n", name,
                static_cast<unsigned long long>(iterations), ns);
  };

  {
    Rng rng(42);
    std::uint64_t sink = 0;
    record("rng_next", scaled(effort, 1'000'000, 10'000'000, 50'000'000),
           [&] { sink += rng.next(); });
    if (sink == 0) std::printf("(unreachable)\n");
  }
  {
    record("sim_1k_events", scaled(effort, 50, 500, 2'000), [] {
      Simulator sim;
      std::uint64_t sink = 0;
      for (int i = 0; i < 1000; ++i) {
        sim.schedule_at(TimePoint{i}, [&sink, i] { sink += i; });
      }
      sim.run();
    });
  }
  {
    // The TB engine's re-arm/cancel churn in miniature: one schedule+cancel
    // pair per op against a warm queue. Also the tombstone-leak regression
    // canary — the old engine's queue grew by one entry per iteration here.
    Simulator sim;
    std::uint64_t sink = 0;
    for (int i = 0; i < 256; ++i) {
      sim.schedule_at(TimePoint{1'000'000'000 + i}, [&sink] { ++sink; });
    }
    record("sim_schedule_cancel",
           scaled(effort, 500'000, 2'000'000, 10'000'000), [&] {
             EventHandle h =
                 sim.schedule_at(TimePoint{2'000'000'000}, [&sink] { ++sink; });
             sim.cancel(h);
           });
  }
  {
    // Steady-state dispatch: schedule one event and fire it.
    Simulator sim;
    std::uint64_t sink = 0;
    record("sim_event_dispatch",
           scaled(effort, 500'000, 2'000'000, 10'000'000), [&] {
             sim.schedule_after(Duration{1}, [&sink] { ++sink; });
             sim.step();
           });
  }
  {
    ApplicationState app(1);
    std::uint64_t i = 0;
    record("app_state_step", scaled(effort, 100'000, 1'000'000, 5'000'000),
           [&] { app.local_step(++i); });
  }
  {
    // The redundant-family inner loop: one local step fanned out over four
    // lanes plus a majority vote (the voter is allocation-free up to
    // kMaxLanes; the schemes themselves run 2-3 lanes).
    ApplicationState app(1);
    LaneSet lanes(app, 4, nullptr, ProcessId{0}, {});
    std::uint64_t i = 0;
    record("tmr_vote_4lane_step",
           scaled(effort, 50'000, 200'000, 1'000'000), [&] {
             lanes.local_step(++i);
             lanes.vote();
           });
  }
  {
    ApplicationState app(1);
    record("app_snapshot_restore",
           scaled(effort, 100'000, 500'000, 2'000'000), [&] {
             const Bytes snap = app.snapshot();
             app.restore(snap);
           });
  }
  {
    // The ABFT workload's computed acceptance test: recompute row/column
    // sums over the encoded block and compare. Runs on every external
    // message AND every monitor scrub sweep, so its cost gates how cheap
    // computed coverage is relative to an assumed-coverage draw.
    ApplicationState app(1, WorkloadKind::kAbft);
    std::uint64_t i = 0;
    bool sink = true;
    record("abft_at_check", scaled(effort, 100'000, 1'000'000, 5'000'000),
           [&] {
             app.local_step(++i);
             sink ^= app.abft_check_ok();
           });
    if (!sink && i == 0) std::printf("(unreachable)\n");
  }
  {
    // A representative checkpoint record (populated views, transport state
    // and dedup sets from a few real protocol events) serialized into a
    // reused scratch writer: the stable-store commit hot path.
    SystemConfig sc;
    sc.scheme = Scheme::kCoordinated;
    sc.seed = 7;
    sc.workload = WorkloadParams{0, 0, 0, 0, 0};  // manual driving only
    sc.tb.interval = Duration::seconds(1'000'000);
    System system(sc);
    system.start(TimePoint::origin() + Duration::seconds(1'000'000));
    for (int i = 0; i < 4; ++i) {
      system.p1act().on_app_send(false, static_cast<std::uint64_t>(i) + 1);
      system.sim().run_until(system.sim().now() + Duration::seconds(1));
    }
    const CheckpointRecord rec = system.p2().make_record(CkptKind::kStable);
    ByteWriter w;
    std::uint64_t sink = 0;
    record("ckpt_encode", scaled(effort, 50'000, 200'000, 1'000'000), [&] {
      w.clear();
      rec.serialize(w);
      sink += w.size();
    });

    // Repeated establishment with unchanged process state (the clean-state
    // TB-expiry path): encode the app, protocol and transport blobs, copy
    // the unacked log and save the record in the volatile store.
    record("ckpt_establish",
           scaled(effort, 50'000, 200'000, 1'000'000),
           [&] { system.p2().establish_volatile_checkpoint(CkptKind::kPseudo); });
    if (sink == 0) std::printf("(unreachable)\n");
  }
  {
    // Checkpoint record round trip: serialize a record carrying a 64 KiB
    // protocol blob into a fresh writer and decode it back. Throughput in
    // GB/s is derived from ns_per_op at the record's encoded size.
    CheckpointRecord rec;
    rec.owner = kP2;
    rec.app_state = Bytes(128, 0xAB);
    rec.protocol_state = Bytes(64 * 1024, 0xCD);
    std::uint64_t sink = 0;
    std::uint64_t corrupt = 0;
    const std::uint64_t iters = scaled(effort, 2'000, 10'000, 50'000);
    const double ns = time_ns_per_op(iters, [&] {
      ByteWriter w;
      rec.serialize(w);
      ByteReader r(w.data());
      if (const auto back = CheckpointRecord::try_deserialize(r)) {
        sink += back->app_state.size();
      } else {
        ++corrupt;
      }
    });
    writer.add({"ckpt_roundtrip_64kib", iters, ns, 0});
    std::printf("%-28s %12llu iters %14.1f ns/op %10.3f GB/s\n",
                "ckpt_roundtrip_64kib", static_cast<unsigned long long>(iters),
                ns, static_cast<double>(rec.encoded_size()) / ns);
    if (sink == 0) std::printf("(unreachable)\n");
    if (corrupt != 0) {
      std::fprintf(stderr,
                   "FAIL: ckpt_roundtrip_64kib decoded %llu records as "
                   "corrupt\n",
                   static_cast<unsigned long long>(corrupt));
      return 1;
    }
  }
  {
    // Whole-system costs with the workload off and traffic driven by hand.
    auto manual = [](Duration tb_interval) {
      SystemConfig sc;
      sc.scheme = Scheme::kCoordinated;
      sc.workload = WorkloadParams{0, 0, 0, 0, 0};
      sc.tb.interval = tb_interval;
      sc.enable_trace = false;
      return sc;
    };
    const TimePoint horizon =
        TimePoint::origin() + Duration::seconds(2'000'000'000);

    // One internal message end to end: P1act and P1sdw send (engine +
    // pseudo checkpointing), the network delivers, P2 consumes it (Type-1
    // checkpoint, dirty bookkeeping).
    System msg(manual(Duration::seconds(1'000'000)));
    msg.start(horizon);
    std::uint64_t input = 0;
    record("system_internal_msg", scaled(effort, 20'000, 100'000, 500'000),
           [&] {
             msg.p1act().on_app_send(false, ++input);
             msg.p1sdw().on_app_send(false, input);
             msg.run_until(msg.sim().now() + Duration::millis(50));
           });

    // One full TB cycle: a stable checkpoint on each of the three nodes.
    System tb(manual(Duration::seconds(10)));
    tb.start(horizon);
    record("tb_cycle_3node", scaled(effort, 10'000, 50'000, 200'000),
           [&] { tb.run_until(tb.sim().now() + Duration::seconds(10)); });
  }
  {
    // Hardware-dispatched CRC over a stable-record-sized blob (PCLMUL
    // folding where available, slicing-by-8 otherwise). Throughput in
    // GB/s is derived from ns_per_op at a fixed 4 KiB block.
    Rng rng(9);
    Bytes buf(4096);
    for (auto& b : buf) b = static_cast<std::uint8_t>(rng.next());
    std::uint64_t sink = 0;
    const std::uint64_t iters = scaled(effort, 50'000, 200'000, 1'000'000);
    const double ns = time_ns_per_op(iters, [&] { sink += crc32(buf); });
    writer.add({"crc32_4kib", iters, ns, 0});
    std::printf("%-28s %12llu iters %14.1f ns/op %10.3f GB/s%s\n",
                "crc32_4kib", static_cast<unsigned long long>(iters), ns,
                4096.0 / ns, crc32_hw_active() ? " (pclmul)" : " (portable)");
    if (sink == 0) std::printf("(unreachable)\n");
  }
  {
    // One full send→schedule→deliver through the pooled message path,
    // with the allocation interposer armed: after the pool warms up, a
    // steady-state message must not touch the heap at all. A nonzero
    // count is a hard failure — the zero-alloc contract is the point of
    // the frame pool, not a statistic.
    Simulator sim;
    NetworkParams np;
    Network net(sim, np, Rng(11));
    std::uint64_t got = 0;
    net.attach(ProcessId{1}, [&](const Message& m) { got += m.payload; });
    Message m;
    m.sender = ProcessId{0};
    m.receiver = ProcessId{1};
    m.payload = 1;
    for (int i = 0; i < 64; ++i) net.send(m);  // warm pool + watermarks
    sim.run();

    const std::uint64_t iters = scaled(effort, 200'000, 1'000'000, 5'000'000);
    double best = 0;
    std::uint64_t allocs = 0;
    for (int rep = 0; rep < 3; ++rep) {
      alloc_count::news = 0;
      alloc_count::armed = true;
      const auto t0 = Clock::now();
      for (std::uint64_t i = 0; i < iters; ++i) {
        net.send(m);
        sim.run();
      }
      const double ns =
          std::chrono::duration<double, std::nano>(Clock::now() - t0).count();
      alloc_count::armed = false;
      allocs += alloc_count::news;
      const double per_op = ns / static_cast<double>(iters);
      if (rep == 0 || per_op < best) best = per_op;
    }
    writer.add({"net_send_deliver", iters, best, 0});
    std::printf("%-28s %12llu iters %14.1f ns/op %10llu allocs\n",
                "net_send_deliver", static_cast<unsigned long long>(iters),
                best, static_cast<unsigned long long>(allocs));
    if (got == 0) std::printf("(unreachable)\n");
    if (allocs != 0) {
      std::fprintf(stderr,
                   "FAIL: pooled message path allocated %llu times in "
                   "steady state (contract: zero)\n",
                   static_cast<unsigned long long>(allocs));
      return 1;
    }
  }
  {
    // The oracles' line audit: check_all over the final committed recovery
    // line of one 600 s coordinated chaos mission (the chaos workload with
    // its network and storage injectors, the monitor and hardened
    // recovery; no timed crash schedule), read in place from the records'
    // view histories.
    const CampaignConfig chaos;
    SystemConfig sc = chaos.base;
    sc.scheme = Scheme::kCoordinated;
    sc.seed = 1;
    sc.net_faults = chaos.rates.net;
    sc.sstore.faults = chaos.rates.storage;
    sc.enable_monitor = true;
    sc.harden_recovery = true;
    System system(sc);
    system.start(TimePoint::origin() + Duration::seconds(600));
    system.run();
    const GlobalState line = system.stable_line_state();
    std::size_t views = 0;
    for (const ProcessFacts& p : line.processes) {
      views += p.views.mark.sent_len + p.views.mark.recv_len;
    }
    std::size_t sink = 0;
    record("line_audit_600s", scaled(effort, 200, 1'000, 5'000),
           [&] { sink += check_all(line).size() + 1; });
    std::printf("%-28s %12zu views on the line\n", "", views);
    if (sink == 0) std::printf("(unreachable)\n");
  }
  {
    // End-to-end MDCD/TB hot path: one short chaos mission per iteration.
    CampaignConfig config;
    config.mission = Duration::seconds(60);
    const std::uint64_t iters = scaled(effort, 3, 10, 30);
    Rng seeder(1);
    std::uint64_t seed = 0;
    const auto t0 = Clock::now();
    for (std::uint64_t i = 0; i < iters; ++i) {
      seed = seeder.next();
      const MissionReport r = run_mission(config, seed);
      if (!r.ok) std::printf("mission seed=%llu FAIL (bench continues)\n",
                             static_cast<unsigned long long>(seed));
    }
    const double secs =
        std::chrono::duration<double>(Clock::now() - t0).count();
    writer.add({"chaos_mission_60s", iters,
                secs * 1e9 / static_cast<double>(iters),
                static_cast<double>(iters) / secs});
    std::printf("%-28s %12llu iters %14.1f ns/op %10.3f missions/s\n",
                "chaos_mission_60s", static_cast<unsigned long long>(iters),
                secs * 1e9 / static_cast<double>(iters),
                static_cast<double>(iters) / secs);
  }
  {
    // The mobile family end-to-end: disconnection epochs, burst loss and
    // handoffs layered on the chaos mission. Tracks the overhead of link
    // bookkeeping + handoff migration against plain chaos_mission_60s.
    CampaignConfig config;
    config.mission = Duration::seconds(60);
    config.rates.mobile.disconnect_mean_gap = Duration::seconds(25);
    config.rates.mobile.disconnect_mean_len = Duration::seconds(8);
    config.rates.mobile.handoff_mean_gap = Duration::seconds(40);
    const std::uint64_t iters = scaled(effort, 3, 10, 30);
    Rng seeder(1);
    std::uint64_t seed = 0;
    const auto t0 = Clock::now();
    for (std::uint64_t i = 0; i < iters; ++i) {
      seed = seeder.next();
      const MissionReport r = run_mission(config, seed);
      if (!r.ok) std::printf("mission seed=%llu FAIL (bench continues)\n",
                             static_cast<unsigned long long>(seed));
    }
    const double secs =
        std::chrono::duration<double>(Clock::now() - t0).count();
    writer.add({"mobile_mission_60s", iters,
                secs * 1e9 / static_cast<double>(iters),
                static_cast<double>(iters) / secs});
    std::printf("%-28s %12llu iters %14.1f ns/op %10.3f missions/s\n",
                "mobile_mission_60s", static_cast<unsigned long long>(iters),
                secs * 1e9 / static_cast<double>(iters),
                static_cast<double>(iters) / secs);
  }

  if (!json_path.empty()) {
    if (!writer.write_file(json_path)) {
      std::fprintf(stderr, "failed to write %s\n", json_path.c_str());
      return 1;
    }
    std::printf("bench json written to %s\n", json_path.c_str());
  }
  return 0;
}

}  // namespace
}  // namespace synergy::bench

int main(int argc, char** argv) { return synergy::bench::run(argc, argv); }
