// Figure 7 — Improvement of Rollback Distance.
//
// Reproduces the paper's comparative study: mean rollback distance of a
// process after a hardware fault, protocol-coordination scheme (E[Dco])
// versus the write-through extension (E[Dwt]), swept over the internal
// message rate, on a log scale.
//
// Workload regime (see DESIGN.md §4 and EXPERIMENTS.md): the
// low-confidence component's internal messages are the contamination
// events (rate lambda_d = the swept x-axis); the high-confidence P2 emits
// the system's validated external outputs at a fixed, much higher rate
// lambda_v — but its acceptance test runs only while it is potentially
// contaminated, so validation *events* happen essentially once per
// contamination episode. Write-through therefore keeps no recovery point
// across the long clean stretches and E[Dwt] tracks the contamination
// renewal age ~1/lambda_d (declining in x), while coordination
// checkpoints every Delta regardless and E[Dco] stays near Delta/2.
// We report the Monte-Carlo measurement with 95% CIs and the closed-form
// model from analysis/model.hpp side by side.
//
// The x-axis matches the paper's range 60..200; our unit is internal
// messages per 100,000 s of mission time.
#include "analysis/model.hpp"
#include "bench_common.hpp"
#include "core/experiment.hpp"

using namespace synergy;
using namespace synergy::bench;

namespace {

constexpr double kTimeBase = 100'000.0;   // seconds per rate unit
constexpr double kExternalRate = 0.05;    // P2 external messages per second

RollbackExperimentConfig experiment_for(Scheme scheme, double rate,
                                        std::size_t replications) {
  RollbackExperimentConfig config;
  config.base.scheme = scheme;
  config.base.workload.p1_internal_rate = rate / kTimeBase;
  config.base.workload.p2_internal_rate = rate / kTimeBase;
  config.base.workload.p1_external_rate = 0.0;  // upgraded component: no
                                                // externally-commanded
                                                // outputs during guarded op
  config.base.workload.p2_external_rate = kExternalRate;
  config.base.workload.step_rate = 0.0;
  config.base.tb.interval = Duration::seconds(60);
  config.base.repair_latency = Duration::seconds(10);
  config.horizon = Duration::seconds(100'000);
  config.fault_earliest = Duration::seconds(20'000);
  config.fault_latest = Duration::seconds(90'000);
  config.replications = replications;
  config.seed0 = 7'000 + static_cast<std::uint64_t>(rate);
  return config;
}

}  // namespace

int main(int argc, char** argv) {
  const Effort effort = parse_effort(argc, argv);
  const std::size_t reps = scaled(effort, 20, 60, 250);

  heading("Figure 7: Expected Rollback Distance vs Internal Message Rate");
  std::printf(
      "internal message rate unit: messages per %.0f s; Delta = 60 s;\n"
      "P2 external rate = %.2f/s (AT only while contaminated);\n"
      "%zu replications per point\n\n",
      kTimeBase, kExternalRate, reps);
  std::printf("%6s | %12s %8s %12s | %12s %8s %12s | %7s\n", "rate",
              "E[Dco] sim", "+/-", "E[Dco] model", "E[Dwt] sim", "+/-",
              "E[Dwt] model", "ratio");
  std::printf("%s\n", std::string(96, '-').c_str());

  std::vector<double> rates;
  Series sim_co{"E[Dco] (coordination, simulated)", {}};
  Series sim_wt{"E[Dwt] (write-through, simulated)", {}};
  Series model_co{"E[Dco] (model)", {}};
  Series model_wt{"E[Dwt] (model)", {}};

  for (double rate = 60; rate <= 200; rate += 20) {
    const auto co =
        measure_rollback(experiment_for(Scheme::kCoordinated, rate, reps));
    const auto wt =
        measure_rollback(experiment_for(Scheme::kWriteThrough, rate, reps));

    RollbackModelParams model;
    model.lambda_dirty = rate / kTimeBase;
    // A contamination episode ends at P2's next external message (its AT
    // runs while dirty and the pass is broadcast).
    model.lambda_valid = kExternalRate;
    model.interval = Duration::seconds(60);

    const double dco_model = expected_rollback_coordinated(model);
    const double dwt_model = expected_rollback_write_through(model);

    std::printf("%6.0f | %12.1f %8.1f %12.1f | %12.1f %8.1f %12.1f | %7.1f\n",
                rate, co.overall.mean, co.overall.ci95_halfwidth(),
                dco_model, wt.overall.mean, wt.overall.ci95_halfwidth(),
                dwt_model, wt.overall.mean / std::max(1e-9, co.overall.mean));

    rates.push_back(rate);
    sim_co.y.push_back(co.overall.mean);
    sim_wt.y.push_back(wt.overall.mean);
    model_co.y.push_back(dco_model);
    model_wt.y.push_back(dwt_model);
  }

  std::printf("\n");
  ascii_log_chart(rates, {sim_co, sim_wt, model_co, model_wt},
                  "internal message rate", "expected rollback distance [s]");

  // Shape checks mirroring the paper's claim: E[Dco] << E[Dwt] across the
  // sweep (roughly an order of magnitude or more on the log plot).
  bool shape_ok = true;
  for (std::size_t i = 0; i < rates.size(); ++i) {
    if (!(sim_co.y[i] * 5.0 < sim_wt.y[i])) shape_ok = false;
  }
  std::printf("\nshape check (E[Dco] << E[Dwt] at every rate): %s\n",
              shape_ok ? "PASS" : "FAIL");
  return shape_ok ? 0 : 1;
}
