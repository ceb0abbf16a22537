#include "general/system.hpp"

#include <algorithm>
#include <utility>

#include "common/assert.hpp"

namespace synergy {

GeneralSystem::GeneralSystem(Topology topology, const GeneralConfig& config)
    : topology_(std::move(topology)), config_(config) {
  rng_ = std::make_unique<Rng>(config.seed);
  net_ = std::make_unique<Network>(sim_, config.net, rng_->split());
  clocks_ = std::make_unique<ClockEnsemble>(
      sim_, config.clock, topology_.process_count(), rng_->split());
  net_->attach(kDeviceId,
               [this](const Message& m) { device_.push_back(m); });

  TbParams tb = config.tb;
  tb.variant = TbVariant::kAdapted;
  tb.delta = config.clock.delta;
  tb.rho = config.clock.rho;
  tb.tmin = config.net.tmin;
  tb.tmax = config.net.tmax;

  TraceLog* trace = config.enable_trace ? &trace_ : nullptr;
  for (std::uint32_t p = 0; p < topology_.process_count(); ++p) {
    auto node = std::make_unique<GNode>();
    node->id = ProcessId{p};
    const std::uint32_t c = topology_.component_of(node->id);
    const auto& spec = topology_.components()[c];
    // Shadows share their component's application seed (same computation).
    node->app = std::make_unique<ApplicationState>(config.seed * 7919 + c);
    node->sstore = std::make_unique<StableStore>(sim_, config.sstore);
    node->at = std::make_unique<AcceptanceTest>(config.at, rng_->split());
    const bool is_active_low = !topology_.is_shadow(node->id) &&
                               spec.confidence == Confidence::kLow;
    if (is_active_low) {
      SoftwareFaultParams fp;
      fp.activation_per_send = spec.fault_activation_per_send;
      node->sw_fault =
          std::make_unique<SoftwareFaultModel>(fp, rng_->split());
    }
    GeneralEngine* engine_raw = nullptr;
    node->endpoint = std::make_unique<ReliableEndpoint>(
        *net_, node->id, [&engine_raw, raw = node.get()](const Message& m) {
          raw->engine->on_message(m);
        });

    ProcessServices services;
    services.self = node->id;
    services.now = [this] { return sim_.now(); };
    services.transport = node->endpoint.get();
    services.vstore = &node->vstore;
    services.app = node->app.get();
    services.at = node->at.get();
    services.sw_fault = node->sw_fault.get();
    services.trace = trace;
    services.request_sw_recovery = [this](ProcessId detector) {
      on_at_failure(detector);
    };
    node->engine = std::make_unique<GeneralEngine>(
        topology_, node->id, config.mdcd, std::move(services));
    engine_raw = node->engine.get();
    (void)engine_raw;

    node->tb = std::make_unique<TbEngine>(
        tb, *node->engine, *node->sstore, clocks_->timers(node->id),
        [this] { return clocks_->elapsed_since_resync(); }, trace);
    node->engine->set_ndc_provider(
        [tbp = node->tb.get()] { return tbp->ndc(); });
    node->tb->set_resync_requester([this] { clocks_->resync_all(); });
    nodes_.push_back(std::move(node));
  }

  comp_routes_.resize(topology_.component_count());
  for (std::uint32_t c = 0; c < topology_.component_count(); ++c) {
    comp_routes_[c].active =
        nodes_[topology_.active_of(c).value()]->engine.get();
    if (topology_.has_shadow(c)) {
      comp_routes_[c].shadow =
          nodes_[topology_.shadow_of(c).value()]->engine.get();
    }
  }
}

GeneralSystem::~GeneralSystem() = default;

GeneralEngine& GeneralSystem::engine(ProcessId p) {
  SYNERGY_EXPECTS(p.value() < nodes_.size());
  return *nodes_[p.value()]->engine;
}

TbEngine& GeneralSystem::tb(ProcessId p) {
  SYNERGY_EXPECTS(p.value() < nodes_.size());
  return *nodes_[p.value()]->tb;
}

ApplicationState& GeneralSystem::app(ProcessId p) {
  SYNERGY_EXPECTS(p.value() < nodes_.size());
  return *nodes_[p.value()]->app;
}

void GeneralSystem::arm_workload(std::uint32_t component, TimePoint until) {
  const auto& spec = topology_.components()[component];
  auto schedule = [this, component, until](double rate, bool external,
                                           auto&& self_ref) -> void {
    if (rate <= 0.0) return;
    const TimePoint at =
        sim_.now() + rng_->exponential(Duration::from_seconds(1.0 / rate));
    if (at >= until) return;
    sim_.schedule_at(at, [this, component, until, rate, external,
                          self_ref]() mutable {
      // One sim event drives the active/shadow pair through the flat
      // route — the pair consumes the same input in the same tick.
      const std::uint64_t input = rng_->next();
      const CompRoute& route = comp_routes_[component];
      route.active->on_app_send(external, input);
      if (route.shadow) route.shadow->on_app_send(external, input);
      self_ref(rate, external, self_ref);
    });
  };
  schedule(spec.internal_rate, false, schedule);
  schedule(spec.external_rate, true, schedule);
}

void GeneralSystem::start(TimePoint horizon) {
  SYNERGY_EXPECTS(!started_);
  started_ = true;
  horizon_ = horizon;
  for (auto& node : nodes_) {
    node->sstore->commit_now(node->engine->make_record(CkptKind::kStable));
    node->tb->start();
  }
  for (std::uint32_t c = 0; c < topology_.component_count(); ++c) {
    arm_workload(c, horizon);
  }
}

void GeneralSystem::run() {
  SYNERGY_EXPECTS(started_);
  sim_.run_until(horizon_);
}

void GeneralSystem::schedule_sw_error(TimePoint at, std::uint32_t component) {
  SYNERGY_EXPECTS(component < topology_.component_count());
  SYNERGY_EXPECTS(topology_.components()[component].confidence ==
                  Confidence::kLow);
  sim_.schedule_at(at, [this, component] {
    GNode& node = *nodes_[topology_.active_of(component).value()];
    if (!node.engine->alive()) return;
    node.app->corrupt(rng_->next());
    node.engine->on_app_send(/*external=*/true, rng_->next());
    if (topology_.has_shadow(component)) {
      nodes_[topology_.shadow_of(component).value()]->engine->on_app_send(
          /*external=*/true, rng_->next());
    }
  });
}

void GeneralSystem::on_at_failure(ProcessId detector) {
  if (sw_recovery_.has_value()) return;  // redundancy exhausted: record only
  GeneralSwRecovery result;
  result.detector = detector;
  const std::uint32_t new_epoch = ++epoch_counter_;
  trace_.record(sim_.now(), detector, TraceKind::kSwErrorDetected);

  // 1. Every low-confidence active is terminated and retired.
  for (auto& node : nodes_) {
    const std::uint32_t c = topology_.component_of(node->id);
    if (!topology_.is_shadow(node->id) &&
        topology_.components()[c].confidence == Confidence::kLow) {
      node->engine->kill();
      node->tb->stop();
      node->endpoint->detach_network();
      node->retired = true;
    }
  }

  // 2. Local rollback / roll-forward decisions for the survivors.
  for (auto& node : nodes_) {
    if (node->retired) continue;
    if (node->engine->dirty()) {
      const auto& record = node->engine->latest_volatile();
      if (!record.has_value()) {
        // Only a hardware-crashed survivor lacks one (its RAM is gone).
        // The pending hardware recovery rebuilds it from stable storage,
        // so it is left alone, as mdcd/recovery.cpp leaves a crashed one.
        SYNERGY_ASSERT(!node->engine->alive());
        continue;
      }
      node->engine->restore_from_record(*record);
      ++result.rolled_back;
      trace_.record(sim_.now(), node->id, TraceKind::kRollback,
                    to_string(record->kind));
    } else {
      trace_.record(sim_.now(), node->id, TraceKind::kRollForward);
    }
  }

  // 3. Epoch fences + reconfiguration knowledge, then shadow takeovers.
  for (auto& node : nodes_) {
    node->engine->set_epoch(new_epoch);
    node->engine->fence_dirty_below(new_epoch);
    for (std::uint32_t c = 0; c < topology_.component_count(); ++c) {
      if (topology_.components()[c].confidence == Confidence::kLow) {
        node->engine->mark_component_failed_over(c);
      }
    }
  }
  for (auto& node : nodes_) {
    if (node->retired || !topology_.is_shadow(node->id)) continue;
    result.replayed += node->engine->takeover();
  }

  // 4. Fresh recovery line so no later hardware rollback spans the
  //    takeover — at a *common* index, with every survivor's TB schedule
  //    fast-forwarded to it.
  // Boundary-aligned index strictly after every survivor's schedule
  // position (see core/system.cpp).
  StableSeq line = static_cast<StableSeq>(sim_.now().count() /
                                          config_.tb.interval.count()) +
                   1;
  for (auto& node : nodes_) {
    if (!node->retired) line = std::max(line, node->tb->ndc() + 1);
  }
  for (auto& node : nodes_) {
    if (node->retired) continue;
    if (node->engine->in_blocking()) node->engine->end_blocking();
    CheckpointRecord rec = node->engine->make_record(CkptKind::kStable);
    rec.ndc = line;
    node->sstore->commit_now(std::move(rec));
    node->tb->reset_after_recovery(line);
  }
  trace_.record(sim_.now(), detector, TraceKind::kSwRecoveryDone);
  sw_recovery_ = result;
}

void GeneralSystem::schedule_hw_fault(TimePoint at, ProcessId victim) {
  sim_.schedule_at(at, [this, victim] {
    if (hw_pending_) return;
    GNode& node = *nodes_[victim.value()];
    if (node.retired) return;
    hw_pending_ = true;
    const TimePoint fault_time = sim_.now();
    node.crashed = true;
    node.engine->kill();
    node.tb->stop();
    node.endpoint->detach_network();
    net_->drop_in_transit_to(victim);
    node.vstore.crash_erase();
    node.sstore->crash_abort_in_progress();
    // Freeze checkpointing on the survivors until the coordinated restart
    // (see coord/hw_recovery.cpp for the rationale).
    for (auto& other : nodes_) {
      if (other->id == victim || other->retired) continue;
      other->tb->stop();
      other->sstore->crash_abort_in_progress();
    }
    trace_.record(fault_time, victim, TraceKind::kHwFault);
    sim_.schedule_after(config_.repair_latency, [this, fault_time, victim] {
      recover_hw(fault_time, victim);
      hw_pending_ = false;
    });
  });
}

void GeneralSystem::recover_hw(TimePoint fault_time, ProcessId victim) {
  const std::uint32_t new_epoch = ++epoch_counter_;
  GeneralHwRecovery result;
  result.fault_time = fault_time;
  result.victim = victim;
  result.rollback_distance.assign(nodes_.size(), Duration::zero());

  // Common-index recovery line.
  StableSeq line = ~StableSeq{0};
  for (auto& node : nodes_) {
    if (node->retired) continue;
    node->sstore->crash_abort_in_progress();
    line = std::min(line, node->sstore->latest_ndc());
  }
  for (auto& node : nodes_) {
    if (node->retired) continue;
    auto rec = node->sstore->committed_for(line);
    SYNERGY_ASSERT(rec.has_value());
    node->sstore->discard_above(line);  // undone-incarnation records
    node->tb->stop();
    node->engine->revive();
    node->engine->restore_from_record(*rec);
    node->engine->set_epoch(new_epoch);
    node->engine->fence_all_below(new_epoch);
    node->endpoint->reattach_network();
    node->crashed = false;
    CheckpointRecord baseline = node->engine->make_record(CkptKind::kType1);
    baseline.state_time = rec->state_time;
    node->vstore.save(std::move(baseline));
    node->tb->reset_after_recovery(rec->ndc);
    result.rollback_distance[node->id.value()] =
        fault_time - rec->state_time;
    trace_.record(sim_.now(), node->id, TraceKind::kHwRestore,
                  to_string(rec->kind), rec->ndc);
  }
  for (auto& node : nodes_) {
    if (node->retired) continue;
    result.resent += node->endpoint->resend_unacked(new_epoch);
  }
  trace_.record(sim_.now(), victim, TraceKind::kHwRecoveryDone);
  hw_recoveries_.push_back(std::move(result));
}

GlobalState GeneralSystem::stable_line_state() const {
  StableSeq line = ~StableSeq{0};
  bool any = false;
  for (const auto& node : nodes_) {
    if (node->retired) continue;
    line = std::min(line, node->sstore->latest_ndc());
    any = true;
  }
  GlobalState state;
  if (!any) return state;
  for (const auto& node : nodes_) {
    if (node->retired) continue;
    auto rec = node->sstore->committed_for(line);
    if (rec) state.processes.push_back(facts_from_record(*rec));
  }
  return state;
}

GlobalState GeneralSystem::live_state() const {
  GlobalState state;
  for (const auto& node : nodes_) {
    if (!node->engine->alive()) continue;
    state.processes.push_back(facts_from_record(
        node->engine->make_record(CkptKind::kType1)));
  }
  return state;
}

}  // namespace synergy
