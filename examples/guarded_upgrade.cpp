// Guarded software upgrading — the paper's motivating scenario.
//
// An onboard software component is upgraded in flight. The new version
// (P1act) runs in the foreground under guard; the previous, trusted
// version (P1sdw) shadows it with its outputs suppressed. The upgrade
// carries a latent design fault that eventually corrupts P1act's output;
// the acceptance test catches it on the next external command, and the
// MDCD protocol recovers: P1sdw takes over, contaminated processes roll
// back to their pre-contamination checkpoints, and the shadow replays its
// own (correct) versions of the unvalidated messages.
//
//   $ ./guarded_upgrade
#include <cstdio>

#include "core/system.hpp"
#include "trace/timeline.hpp"

using namespace synergy;

int main() {
  SystemConfig config;
  config.scheme = Scheme::kCoordinated;
  config.seed = 7;
  config.workload.p1_internal_rate = 1.0;
  config.workload.p2_internal_rate = 1.0;
  config.workload.p1_external_rate = 0.05;
  config.workload.p2_external_rate = 0.05;
  // The upgraded version's design fault: activates roughly once per 200
  // sends and corrupts the process state.
  config.sw_fault.activation_per_send = 0.005;
  config.tb.interval = Duration::seconds(60);

  System system(config);
  system.start(TimePoint::origin() + Duration::seconds(7200));
  system.run();

  std::printf("=== guarded software upgrade, 2 h mission ===\n\n");
  std::printf("design-fault activations in the upgraded version: %llu\n",
              static_cast<unsigned long long>(
                  system.node(kP1Act).sw_fault()->activations()));

  if (const auto& recovery = system.sw_recovery()) {
    std::printf(
        "acceptance test FAILED at %s -> software error recovery:\n",
        to_string(recovery->detector).c_str());
    std::printf("  - P1act (upgraded version) terminated and retired\n");
    const auto decision = [&](ProcessId p) {
      return recovery->rolled_back[p.value()] ? "rolled back"
                                              : "rolled forward";
    };
    const auto distance = [&](ProcessId p) {
      return recovery->rollback_distance[p.value()].to_seconds();
    };
    std::printf("  - P1sdw %s (dirty: rolled back %.2f s of computation)\n",
                decision(kP1Sdw), distance(kP1Sdw));
    std::printf("  - P2    %s (dirty: rolled back %.2f s of computation)\n",
                decision(kP2), distance(kP2));
    std::printf("  - shadow took over and replayed %zu suppressed messages "
                "beyond VR\n",
                recovery->replayed);
    std::printf("\nafter takeover the mission continued on the trusted "
                "version:\n");
  } else {
    std::printf("the latent fault never activated on this seed; the upgrade "
                "would be committed after its probation period\n");
  }

  std::size_t outputs_after_takeover = 0;
  bool any_tainted = false;
  for (const auto& e : system.device().entries) {
    if (e.from == kP1Sdw) ++outputs_after_takeover;
    any_tainted |= e.tainted;
  }
  std::printf("  device outputs from the shadow-turned-active: %zu\n",
              outputs_after_takeover);
  std::printf("  erroneous values that ever reached the device: %s\n",
              any_tainted ? "SOME (AT coverage < 1?)" : "none");

  std::printf("\nevent counts: AT passes=%zu, AT failures=%llu, volatile "
              "checkpoints=%zu, stable checkpoints=%zu\n",
              system.trace().count(TraceKind::kAtPass),
              static_cast<unsigned long long>(system.at_failures_observed()),
              system.trace().count(TraceKind::kCkptVolatile),
              system.trace().count(TraceKind::kStableCommit));
  return 0;
}
