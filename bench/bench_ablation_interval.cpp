// Ablation A2 — Checkpoint interval Delta.
//
// The rollback-distance / overhead trade-off of the coordinated scheme:
// larger Delta means fewer stable writes and less blocking, but a longer
// expected rollback after a hardware fault (E[Dco] ~ Delta/2 + dirty-age).
#include "bench_common.hpp"
#include "core/experiment.hpp"

using namespace synergy;
using namespace synergy::bench;

int main(int argc, char** argv) {
  const Effort effort = parse_effort(argc, argv);
  const std::size_t reps = scaled(effort, 5, 20, 80);

  heading("Ablation A2: TB checkpoint interval Delta (coordinated scheme)");
  std::printf("%zu replications per point\n\n", reps);
  std::printf("%10s | %12s %8s | %14s | %16s\n", "Delta [s]", "E[Dco] [s]",
              "+/-", "stable writes", "bytes written");
  std::printf("%s\n", std::string(72, '-').c_str());

  std::vector<double> deltas;
  Series dco{"E[Dco]", {}};

  for (int delta : {10, 30, 60, 120, 300}) {
    RollbackExperimentConfig config;
    config.base.scheme = Scheme::kCoordinated;
    config.base.workload.p1_internal_rate = 0.002;
    config.base.workload.p2_internal_rate = 0.002;
    config.base.workload.p1_external_rate = 0.02;
    config.base.workload.p2_external_rate = 0.02;
    config.base.workload.step_rate = 0.0;
    config.base.tb.interval = Duration::seconds(delta);
    config.base.repair_latency = Duration::seconds(10);
    config.horizon = Duration::seconds(100'000);
    config.fault_earliest = Duration::seconds(20'000);
    config.fault_latest = Duration::seconds(90'000);
    config.replications = reps;
    config.seed0 = 4'000 + static_cast<std::uint64_t>(delta);
    const auto result = measure_rollback(config);

    // Overhead from one representative run.
    SystemConfig oc = config.base;
    oc.seed = 99;
    oc.enable_trace = false;
    System overhead(oc);
    overhead.start(TimePoint::origin() + Duration::seconds(20'000));
    overhead.run();
    std::uint64_t writes = 0, bytes = 0;
    for (std::uint32_t i = 0; i < 3; ++i) {
      writes += overhead.node(ProcessId{i}).sstore().commits();
      bytes += overhead.node(ProcessId{i}).sstore().bytes_written();
    }

    std::printf("%10d | %12.1f %8.1f | %9llu/20ks | %13llu B\n", delta,
                result.overall.mean, result.overall.ci95_halfwidth(),
                static_cast<unsigned long long>(writes),
                static_cast<unsigned long long>(bytes));
    deltas.push_back(delta);
    dco.y.push_back(result.overall.mean);
  }

  // Shape: E[Dco] grows roughly linearly with Delta.
  const bool ok = dco.y.front() < dco.y.back() &&
                  dco.y.back() > 4 * dco.y.front();
  std::printf("\nshape check (E[Dco] scales with Delta): %s\n",
              ok ? "PASS" : "FAIL");
  return ok ? 0 : 1;
}
