// GSU middleware — the MDCD protocol on real threads.
//
// The paper's concluding remarks describe a middleware prototype ("GSU
// Middleware") implementing the MDCD protocol; this module is our
// equivalent: the same protocol engines that run on the discrete-event
// simulator, hosted on one thread per process with an in-process message
// bus, real (steady_clock) time, and stop-the-world software error
// recovery. TB coordination — which needs the modelled clock/disk bounds —
// remains a simulator-side study; see DESIGN.md §3.
//
// Threading model: each process's engine, application state and transport
// are confined to its mailbox thread. A supervisor thread watches for
// acceptance-test failures, quiesces the process threads at a barrier,
// runs the software recovery manager, and resumes them.
#pragma once

#include <atomic>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <vector>

#include "app/acceptance_test.hpp"
#include "app/fault.hpp"
#include "app/state.hpp"
#include "mdcd/engine.hpp"
#include "mdcd/recovery.hpp"
#include "runtime/bus.hpp"
#include "runtime/transport.hpp"
#include "storage/volatile_store.hpp"
#include "trace/trace.hpp"

namespace synergy {

struct MiddlewareConfig {
  MdcdConfig mdcd;  ///< variant defaults to the modified protocol
  AtParams at;
  SoftwareFaultParams sw_fault;  ///< P1act's design-fault model
  std::uint64_t seed = 1;
};

class GsuMiddleware {
 public:
  explicit GsuMiddleware(const MiddlewareConfig& config);
  ~GsuMiddleware();

  GsuMiddleware(const GsuMiddleware&) = delete;
  GsuMiddleware& operator=(const GsuMiddleware&) = delete;

  /// Launch the process threads and the supervisor.
  void start();

  /// Drain in-flight work and join all threads.
  void stop();

  // ---- Application interface (thread-safe) --------------------------------
  /// Drive one component-1 send (fans out to P1act and P1sdw).
  void component1_send(bool external, std::uint64_t input);
  /// Drive one P2 send.
  void p2_send(bool external, std::uint64_t input);
  /// Inject a design-fault manifestation into P1act.
  void inject_design_fault(std::uint64_t noise);

  // ---- Observability --------------------------------------------------------
  bool sw_recovered() const { return recovered_.load(); }
  std::optional<SwRecoveryStats> recovery_stats() const;
  std::vector<Message> device_log() const { return bus_.device_log(); }
  /// Merged trace (call after stop()).
  TraceLog merged_trace() const;
  /// Spin until the middleware has gone idle (all mailboxes drained) or
  /// the timeout elapses. Returns true when idle.
  bool wait_idle(std::chrono::milliseconds timeout);

  MdcdEngine& engine(ProcessId p);

 private:
  struct ProcessRuntime {
    ProcessId id;
    std::unique_ptr<ThreadTransport> transport;
    VolatileStore vstore;
    ApplicationState app;
    std::unique_ptr<AcceptanceTest> at;
    std::unique_ptr<SoftwareFaultModel> sw_fault;
    TraceLog trace;
    std::unique_ptr<MdcdEngine> engine;
    std::thread thread;
    std::atomic<bool> busy{false};
  };

  void run_process(ProcessRuntime& rt);
  void run_supervisor();
  TimePoint now() const;

  MiddlewareConfig config_;
  ThreadBus bus_;
  std::vector<std::unique_ptr<ProcessRuntime>> processes_;
  std::thread supervisor_;

  std::chrono::steady_clock::time_point epoch_start_;
  std::atomic<bool> running_{false};
  std::atomic<bool> stopping_{false};

  // Stop-the-world recovery coordination.
  std::atomic<bool> pause_requested_{false};
  std::atomic<int> parked_{0};
  std::mutex pause_mu_;
  std::condition_variable pause_cv_;
  std::condition_variable resume_cv_;

  std::atomic<bool> recovery_requested_{false};
  std::atomic<std::uint32_t> detector_{0};
  std::atomic<bool> recovered_{false};
  mutable std::mutex stats_mu_;
  std::optional<SwRecoveryStats> stats_;
  TraceLog supervisor_trace_;
  std::uint32_t epoch_counter_ = 0;
};

}  // namespace synergy
