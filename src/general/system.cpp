#include "general/system.hpp"

#include <utility>

#include "common/assert.hpp"
#include "coord/reline.hpp"

namespace synergy {

/// One process of the topology on its own node: the engine-agnostic Node
/// hosting a GeneralEngine.
class GeneralNode final : public Node {
 public:
  GeneralNode(const Topology& topology, ProcessId id, Simulator& sim,
              Network& net, ClockEnsemble& clocks, const GeneralConfig& config,
              const TbParams& tb, Rng& rng, TraceLog* trace,
              std::function<void(ProcessId)> request_sw_recovery)
      // Shadows share their component's application seed (same
      // computation).
      : Node(id, sim, net, trace,
             config.seed * 7919 + topology.component_of(id),
             WorkloadKind::kRegisters, &config.sstore, config.at,
             sw_fault_for(topology, id), rng) {
    endpoint_ = std::make_unique<ReliableEndpoint>(
        net, id, [this](const Message& m) { engine_->on_message(m); });
    auto engine = std::make_unique<GeneralEngine>(
        topology, id, config.mdcd, services(std::move(request_sw_recovery)));
    engine_ = engine.get();
    adopt(std::move(engine), &tb, clocks);
    engine_->set_ndc_provider([tbp = tb_.get()] { return tbp->ndc(); });
    tb_->set_resync_requester([&clocks] { clocks.resync_all(); });
  }

  GeneralEngine& engine() { return *engine_; }

 private:
  /// Only a low-confidence component's active process runs the design
  /// fault model.
  static std::optional<SoftwareFaultParams> sw_fault_for(
      const Topology& topology, ProcessId id) {
    const auto& spec = topology.components()[topology.component_of(id)];
    if (topology.is_shadow(id) || spec.confidence != Confidence::kLow) {
      return std::nullopt;
    }
    SoftwareFaultParams fp;
    fp.activation_per_send = spec.fault_activation_per_send;
    return fp;
  }

  GeneralEngine* engine_ = nullptr;
};

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
    nodes_.push_back(std::make_unique<GeneralNode>(
        topology_, ProcessId{p}, sim_, *net_, *clocks_, config, tb, *rng_,
        trace, [this](ProcessId detector) { on_at_failure(detector); }));
  }

  comp_routes_.resize(topology_.component_count());
  for (std::uint32_t c = 0; c < topology_.component_count(); ++c) {
    comp_routes_[c].active = &engine(topology_.active_of(c));
    if (topology_.has_shadow(c)) {
      comp_routes_[c].shadow = &engine(topology_.shadow_of(c));
    }
  }

  hw_manager_ = std::make_unique<HardwareRecoveryManager>(
      sim_, all_nodes(), config.repair_latency, trace, line_verdicts_,
      [this] { return ++epoch_counter_; });
}

GeneralSystem::~GeneralSystem() = default;

GeneralEngine& GeneralSystem::engine(ProcessId p) {
  SYNERGY_EXPECTS(p.value() < nodes_.size());
  return nodes_[p.value()]->engine();
}

TbEngine& GeneralSystem::tb(ProcessId p) {
  SYNERGY_EXPECTS(p.value() < nodes_.size());
  return *nodes_[p.value()]->tb();
}

ApplicationState& GeneralSystem::app(ProcessId p) {
  SYNERGY_EXPECTS(p.value() < nodes_.size());
  return nodes_[p.value()]->app();
}

std::vector<Node*> GeneralSystem::all_nodes() const {
  std::vector<Node*> all;
  all.reserve(nodes_.size());
  for (const auto& node : nodes_) all.push_back(node.get());
  return all;
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
  for (auto& node : nodes_) node->start();
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
    GeneralNode& node = *nodes_[topology_.active_of(component).value()];
    if (!node.engine().alive()) return;
    node.app().corrupt(rng_->next());
    node.engine().on_app_send(/*external=*/true, rng_->next());
    if (topology_.has_shadow(component)) {
      engine(topology_.shadow_of(component))
          .on_app_send(/*external=*/true, rng_->next());
    }
  });
}

void GeneralSystem::on_at_failure(ProcessId detector) {
  if (sw_recovery_.has_value()) return;  // redundancy exhausted: record only
  // Every low-confidence component fails over to its shadow.
  std::vector<CheckpointableProcess*> processes;
  std::vector<bool> low_actives;
  for (auto& node : nodes_) {
    processes.push_back(&node->engine());
    low_actives.push_back(node->engine().kind() == GProcessKind::kActive);
  }
  sw_recovery_ = recover_software(detector, ++epoch_counter_, sim_.now(),
                                  processes, low_actives, detector,
                                  config_.enable_trace ? &trace_ : nullptr);
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    if (low_actives[i]) nodes_[i]->retire();
  }
  // A fresh recovery line at a *common* index, so no later hardware
  // rollback spans the takeover (coord/reline.hpp).
  commit_fresh_line(sim_.now(), config_.tb.interval, all_nodes());
}

void GeneralSystem::schedule_hw_fault(TimePoint at, ProcessId victim) {
  sim_.schedule_at(at, [this, victim] {
    hw_manager_->inject_fault(NodeId{victim.value()});
  });
}

GlobalState GeneralSystem::stable_line_state() const {
  return line_state(
      choose_line(all_nodes(), line_verdicts_, /*oracle_filter=*/false));
}

GlobalState GeneralSystem::live_state() const {
  GlobalState state;
  for (const auto& node : nodes_) {
    const GeneralEngine& engine = node->engine();
    if (!engine.alive()) continue;
    state.processes.push_back(
        facts_from_record(engine.make_record(CkptKind::kType1)));
  }
  return state;
}

}  // namespace synergy
