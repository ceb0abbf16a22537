// GSU middleware demo — the MDCD protocol on real threads.
//
// The same protocol engines that power the simulator run here on one
// thread per process with an in-process message bus and wall-clock time:
// the library's equivalent of the paper's GSU Middleware prototype. The
// demo upgrades a component in flight, lets its design fault strike, and
// shows the live takeover.
//
//   $ ./middleware_demo
#include <chrono>
#include <cstdio>
#include <thread>

#include "runtime/middleware.hpp"

using namespace synergy;
using namespace std::chrono_literals;

int main() {
  MiddlewareConfig config;
  config.seed = 42;

  GsuMiddleware middleware(config);
  middleware.start();
  std::printf("middleware up: P1act (upgraded), P1sdw (shadow), P2 on "
              "three threads\n");

  // Normal guarded operation: component 1 and P2 exchange traffic, with
  // periodic validated outputs.
  for (int i = 0; i < 50; ++i) {
    middleware.component1_send(false, i);
    middleware.p2_send(false, 1000 + i);
    if (i % 10 == 9) middleware.component1_send(true, 2000 + i);
    std::this_thread::sleep_for(1ms);
  }
  middleware.wait_idle(5s);
  std::printf("steady state: %zu validated outputs reached the device, "
              "P2 dirty=%s\n",
              middleware.device_log().size(),
              middleware.engine(kP2).dirty() ? "yes" : "no");

  // The upgrade's latent design fault manifests...
  std::printf("\ninjecting the design fault into the upgraded version...\n");
  middleware.inject_design_fault(0xBAD);
  middleware.component1_send(false, 777);   // contamination spreads
  middleware.component1_send(true, 778);    // the AT catches it

  const auto deadline = std::chrono::steady_clock::now() + 5s;
  while (!middleware.sw_recovered() &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(5ms);
  }
  if (const auto stats = middleware.recovery_stats()) {
    std::printf("acceptance test failed at %s -> stop-the-world recovery:\n",
                to_string(stats->detector).c_str());
    std::printf("  P1sdw %s, P2 %s, %zu suppressed messages replayed\n",
                stats->rolled_back[kP1Sdw.value()] ? "rolled back"
                                                    : "rolled forward",
                stats->rolled_back[kP2.value()] ? "rolled back"
                                                : "rolled forward",
                stats->replayed);
  }

  // Mission continues on the trusted version.
  for (int i = 0; i < 20; ++i) {
    middleware.component1_send(false, 5000 + i);
    if (i % 10 == 9) middleware.component1_send(true, 6000 + i);
  }
  middleware.wait_idle(5s);
  middleware.stop();

  std::size_t shadow_outputs = 0;
  bool tainted = false;
  for (const auto& m : middleware.device_log()) {
    if (m.sender == kP1Sdw) ++shadow_outputs;
    tainted |= m.tainted;
  }
  std::printf("\nafter takeover: %zu outputs from the shadow-turned-active; "
              "erroneous outputs ever delivered: %s\n",
              shadow_outputs, tainted ? "SOME" : "none");
  return tainted ? 1 : 0;
}
