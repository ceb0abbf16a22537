// Generalized protocol demo — beyond the paper's three-process system.
//
// Two independently-upgraded components ("A" and "B") share a
// high-confidence service "S". Contamination is tracked per source:
// A's validation clears only A-derived suspicion, and S stays guarded
// against B until B validates too. A design fault in A triggers a
// system-wide fail-over of every guarded component to its shadow.
//
//   $ ./general_topology
#include <cstdio>

#include "general/system.hpp"

using namespace synergy;

int main() {
  Topology base = Topology::dual_guarded();
  std::vector<ComponentSpec> specs = base.components();
  specs[0].internal_rate = 2.0;
  specs[0].external_rate = 0.2;
  specs[0].fault_activation_per_send = 0.002;  // A's latent design fault
  specs[1].internal_rate = 2.0;
  specs[1].external_rate = 0.2;
  specs[2].internal_rate = 1.0;
  specs[2].external_rate = 0.5;

  GeneralConfig config;
  config.seed = 11;
  config.tb.interval = Duration::seconds(30);

  GeneralSystem system(Topology(std::move(specs)), config);
  system.start(TimePoint::origin() + Duration::seconds(3600));
  system.schedule_hw_fault(TimePoint::origin() + Duration::seconds(900),
                           ProcessId{2});  // the shared service's node
  system.run();

  std::printf("=== dual-guarded topology, 1 h mission ===\n");
  std::printf("processes: ");
  for (std::uint32_t p = 0; p < system.topology().process_count(); ++p) {
    std::printf("%s%s", p ? ", " : "",
                system.topology().process_name(ProcessId{p}).c_str());
  }
  std::printf("\nvalidated external outputs: %zu\n", system.device_outputs());

  for (const auto& rec : system.hw_recoveries()) {
    const ProcessId victim{rec.faulty_node.value()};
    std::printf("hardware fault on %s at t=%.0f s; rollback distances:",
                system.topology().process_name(victim).c_str(),
                rec.fault_time.to_seconds());
    for (std::uint32_t p = 0; p < rec.rollback_distance.size(); ++p) {
      std::printf(" %s=%.1fs",
                  system.topology().process_name(ProcessId{p}).c_str(),
                  rec.rollback_distance[p].to_seconds());
    }
    std::printf(" (%zu unacked re-sent)\n", rec.resent_messages);
  }

  if (const auto& r = system.sw_recovery()) {
    std::printf(
        "design fault detected by %s: both guarded components failed over "
        "to their shadows (%zu rollbacks, %zu messages replayed)\n",
        system.topology().process_name(r->detector).c_str(), r->rolled_back,
        r->replayed);
  } else {
    std::printf("no design fault manifested on this seed\n");
  }

  bool tainted = false;
  for (const auto& m : system.device_log()) tainted |= m.tainted;
  std::printf("erroneous outputs that ever reached a device: %s\n",
              tainted ? "SOME" : "none");
  return tainted ? 1 : 0;
}
