#include "runtime/middleware.hpp"

#include <utility>

#include "common/assert.hpp"
#include "mdcd/p1act.hpp"
#include "mdcd/p1sdw.hpp"
#include "mdcd/p2.hpp"

namespace synergy {

namespace {
constexpr auto kPollInterval = std::chrono::milliseconds(2);
}  // namespace

GsuMiddleware::GsuMiddleware(const MiddlewareConfig& config)
    : config_(config) {
  Rng rng(config.seed);
  epoch_start_ = std::chrono::steady_clock::now();

  const std::uint64_t c1_seed = config.seed * 2654435761u + 1;
  const std::uint64_t p2_seed = config.seed * 2654435761u + 2;
  const Role roles[] = {Role::kP1Act, Role::kP1Sdw, Role::kP2};
  for (Role role : roles) {
    auto rt = std::make_unique<ProcessRuntime>();
    rt->id = role == Role::kP1Act   ? kP1Act
             : role == Role::kP1Sdw ? kP1Sdw
                                    : kP2;
    bus_.register_process(rt->id);
    rt->transport = std::make_unique<ThreadTransport>(bus_, rt->id);
    rt->app = ApplicationState(role == Role::kP2 ? p2_seed : c1_seed);
    rt->at = std::make_unique<AcceptanceTest>(config.at, rng.split());
    if (role == Role::kP1Act) {
      rt->sw_fault =
          std::make_unique<SoftwareFaultModel>(config.sw_fault, rng.split());
    }

    ProcessServices services;
    services.self = rt->id;
    services.now = [this] { return now(); };
    services.transport = rt->transport.get();
    services.vstore = &rt->vstore;
    services.app = &rt->app;
    services.at = rt->at.get();
    services.sw_fault = rt->sw_fault.get();
    services.trace = &rt->trace;
    services.request_sw_recovery = [this](ProcessId detector) {
      detector_.store(detector.value());
      recovery_requested_.store(true);
    };

    switch (role) {
      case Role::kP1Act:
        rt->engine =
            std::make_unique<P1ActEngine>(config.mdcd, std::move(services));
        break;
      case Role::kP1Sdw:
        rt->engine =
            std::make_unique<P1SdwEngine>(config.mdcd, std::move(services));
        break;
      case Role::kP2:
        rt->engine =
            std::make_unique<P2Engine>(config.mdcd, std::move(services));
        break;
    }
    processes_.push_back(std::move(rt));
  }
}

GsuMiddleware::~GsuMiddleware() { stop(); }

TimePoint GsuMiddleware::now() const {
  const auto elapsed = std::chrono::steady_clock::now() - epoch_start_;
  return TimePoint{
      std::chrono::duration_cast<std::chrono::microseconds>(elapsed).count()};
}

MdcdEngine& GsuMiddleware::engine(ProcessId p) {
  SYNERGY_EXPECTS(p.value() < processes_.size());
  return *processes_[p.value()]->engine;
}

void GsuMiddleware::start() {
  SYNERGY_EXPECTS(!running_.load());
  running_.store(true);
  stopping_.store(false);
  for (auto& rt : processes_) {
    rt->thread = std::thread([this, raw = rt.get()] { run_process(*raw); });
  }
  supervisor_ = std::thread([this] { run_supervisor(); });
}

void GsuMiddleware::stop() {
  if (!running_.load()) return;
  stopping_.store(true);
  {
    // Unblock anything parked at the recovery barrier.
    std::lock_guard lock(pause_mu_);
    resume_cv_.notify_all();
    pause_cv_.notify_all();
  }
  if (supervisor_.joinable()) supervisor_.join();
  for (auto& rt : processes_) {
    if (rt->thread.joinable()) rt->thread.join();
  }
  running_.store(false);
}

void GsuMiddleware::component1_send(bool external, std::uint64_t input) {
  bus_.post_command(kP1Act, external, input);
  bus_.post_command(kP1Sdw, external, input);
}

void GsuMiddleware::p2_send(bool external, std::uint64_t input) {
  bus_.post_command(kP2, external, input);
}

void GsuMiddleware::inject_design_fault(std::uint64_t noise) {
  bus_.post_corrupt(kP1Act, noise);
}

std::optional<SwRecoveryStats> GsuMiddleware::recovery_stats() const {
  std::lock_guard lock(stats_mu_);
  return stats_;
}

TraceLog GsuMiddleware::merged_trace() const {
  SYNERGY_EXPECTS(!running_.load());
  std::vector<TraceEvent> all;
  for (const auto& rt : processes_) {
    const auto& events = rt->trace.events();
    all.insert(all.end(), events.begin(), events.end());
  }
  const auto& sup = supervisor_trace_.events();
  all.insert(all.end(), sup.begin(), sup.end());
  std::stable_sort(all.begin(), all.end(),
                   [](const TraceEvent& a, const TraceEvent& b) {
                     return a.t < b.t;
                   });
  TraceLog merged;
  for (auto& e : all) merged.record(std::move(e));
  return merged;
}

bool GsuMiddleware::wait_idle(std::chrono::milliseconds timeout) {
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  int quiet_rounds = 0;
  while (std::chrono::steady_clock::now() < deadline) {
    bool idle = !pause_requested_.load() &&
                (recovered_.load() || !recovery_requested_.load());
    for (const auto& rt : processes_) {
      if (bus_.pending(rt->id) > 0 || rt->busy.load()) idle = false;
    }
    quiet_rounds = idle ? quiet_rounds + 1 : 0;
    if (quiet_rounds >= 3) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  return false;
}

void GsuMiddleware::run_process(ProcessRuntime& rt) {
  while (!stopping_.load()) {
    if (pause_requested_.load()) {
      std::unique_lock lock(pause_mu_);
      parked_.fetch_add(1);
      pause_cv_.notify_all();
      resume_cv_.wait(lock, [this] {
        return !pause_requested_.load() || stopping_.load();
      });
      parked_.fetch_sub(1);
      continue;
    }
    auto item = bus_.poll(rt.id, kPollInterval);
    if (!item) continue;
    rt.busy.store(true);
    switch (item->kind) {
      case MailboxItem::Kind::kMessage:
        if (item->message.kind == MsgKind::kAck) {
          rt.transport->on_ack(item->message);
        } else {
          rt.engine->on_message(item->message);
        }
        break;
      case MailboxItem::Kind::kCommand:
        rt.engine->on_app_send(item->external, item->input);
        break;
      case MailboxItem::Kind::kCorrupt:
        rt.app.corrupt(item->input);
        break;
    }
    rt.busy.store(false);
  }
}

void GsuMiddleware::run_supervisor() {
  while (!stopping_.load()) {
    if (recovery_requested_.load() && !recovered_.load()) {
      // Stop the world.
      pause_requested_.store(true);
      {
        std::unique_lock lock(pause_mu_);
        pause_cv_.wait(lock, [this] {
          return parked_.load() ==
                     static_cast<int>(processes_.size()) ||
                 stopping_.load();
        });
      }
      if (stopping_.load()) return;

      // All process threads are parked: run the recovery on their engines.
      const SwRecoveryStats result = recover_software(
          ProcessId{detector_.load()}, ++epoch_counter_, now(),
          {processes_[0]->engine.get(), processes_[1]->engine.get(),
           processes_[2]->engine.get()},
          {true, false, false}, kP1Sdw, &supervisor_trace_);
      {
        std::lock_guard lock(stats_mu_);
        stats_ = result;
      }
      recovered_.store(true);

      // Resume.
      {
        std::lock_guard lock(pause_mu_);
        pause_requested_.store(false);
        resume_cv_.notify_all();
      }
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

}  // namespace synergy
