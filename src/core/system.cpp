#include "core/system.hpp"

#include <utility>

#include "common/assert.hpp"
#include "coord/reline.hpp"

namespace synergy {

System::System(const SystemConfig& config) : config_(config) {
  rng_ = std::make_unique<Rng>(config.seed);
  if (config.net_faults.any() || config.enable_link_faults) {
    auto fn = std::make_unique<FaultyNetwork>(sim_, config.net,
                                              config.net_faults, rng_->split());
    faulty_net_ = fn.get();
    net_ = std::move(fn);
  } else {
    net_ = std::make_unique<Network>(sim_, config.net, rng_->split());
  }
  clocks_ = std::make_unique<ClockEnsemble>(sim_, config.clock,
                                            kNumCanonicalProcesses,
                                            rng_->split());

  // The device records every external message it is handed.
  net_->attach(kDeviceId, [this](const Message& m) {
    device_.entries.push_back(
        DeviceLog::Entry{sim_.now(), m.sender, m.payload, m.tainted});
  });

  NodeConfig nc;
  nc.mdcd.gate_mode = config.gate_mode;
  nc.mdcd.tracking = config.tracking;
  nc.at = config.at;
  nc.workload = config.workload.kind;
  nc.sw_fault = config.sw_fault;
  nc.sstore = config.sstore;
  nc.tb = config.tb;
  // Keep the TB protocol's environmental bounds coherent with the actual
  // clock and network models.
  nc.tb.delta = config.clock.delta;
  nc.tb.rho = config.clock.rho;
  nc.tb.tmin = config.net.tmin;
  nc.tb.tmax = config.net.tmax;
  nc.scheme = config.scheme;

  TraceLog* trace = config.enable_trace ? &trace_ : nullptr;
  auto recovery_cb = [this](ProcessId detector) { on_at_failure(detector); };
  auto lane_rollback_cb =
      scheme_lane_count(config.scheme) > 1
          ? std::function<void(ProcessId)>(
                [this](ProcessId detector) { on_lane_rollback(detector); })
          : std::function<void(ProcessId)>{};

  // P1act and P1sdw share the application seed: the shadow performs the
  // same computation on the same inputs.
  const std::uint64_t c1_seed = config.seed * 2654435761u + 1;
  const std::uint64_t p2_seed = config.seed * 2654435761u + 2;
  const Role roles[] = {Role::kP1Act, Role::kP1Sdw, Role::kP2};
  for (Role role : roles) {
    const std::uint64_t app_seed = role == Role::kP2 ? p2_seed : c1_seed;
    nodes_.push_back(std::make_unique<ProcessNode>(
        role, sim_, *net_, *clocks_, nc, app_seed, rng_->split(), trace,
        recovery_cb, lane_rollback_cb));
  }

  // TB engines request clock resynchronization through the ensemble.
  for (auto& node : nodes_) {
    if (TbEngine* tb = node->tb()) {
      tb->set_resync_requester([this] {
        clocks_->resync_all();
        if (config_.enable_trace) {
          trace_.record(sim_.now(), ProcessId{0}, TraceKind::kResync);
        }
      });
    }
  }

  // Timer-less schemes with stable storage (the write-through baseline and
  // the lane schemes) commit on validation events: divergence rollbacks
  // need a populated recovery line.
  if (scheme_writes_through(config.scheme)) {
    write_through_ = std::make_unique<WriteThroughCoordinator>(
        std::vector<ProcessNode*>{nodes_[0].get(), nodes_[1].get(),
                                  nodes_[2].get()},
        trace);
    write_through_->install();
  }

  hw_manager_ = std::make_unique<HardwareRecoveryManager>(
      sim_, all_nodes(), config.repair_latency, trace, line_verdicts_,
      [this] { return next_epoch(); }, config.harden_recovery);

  sw_manager_ = std::make_unique<SoftwareRecoveryManager>(
      *nodes_[0]->p1act(), *nodes_[1]->p1sdw(), *nodes_[2]->p2(),
      [this] { return sim_.now(); }, trace);

  if (config.enable_monitor) {
    monitor_ = std::make_unique<AssumptionMonitor>(
        sim_, *net_, *clocks_,
        std::vector<ProcessNode*>{nodes_[0].get(), nodes_[1].get(),
                                  nodes_[2].get()},
        config.monitor, trace, line_verdicts_);
    monitor_->install();
    if (faulty_net_) {
      // Declared disconnection epochs are expected outages, not broken
      // assumptions: give the monitor the link oracle so it defers
      // violations the epochs explain.
      FaultyNetwork* fn = faulty_net_;
      monitor_->set_link_oracle(AssumptionMonitor::LinkOracle{
          [fn](ProcessId p) { return fn->link_impaired(p); },
          [fn](ProcessId p) { return fn->link_last_restored(p); }});
    }
  }

  workload_ = std::make_unique<WorkloadDriver>(sim_, config.workload,
                                               rng_->split());
  workload_->set_component1_send([this](bool external, std::uint64_t input) {
    nodes_[0]->engine().on_app_send(external, input);
    nodes_[1]->engine().on_app_send(external, input);
  });
  workload_->set_component1_step([this](std::uint64_t input) {
    nodes_[0]->engine().on_local_step(input);
    nodes_[1]->engine().on_local_step(input);
  });
  workload_->set_p2_send([this](bool external, std::uint64_t input) {
    nodes_[2]->engine().on_app_send(external, input);
  });
  workload_->set_p2_step([this](std::uint64_t input) {
    nodes_[2]->engine().on_local_step(input);
  });
}

System::~System() = default;

ProcessNode& System::node(ProcessId id) {
  SYNERGY_EXPECTS(id.value() < nodes_.size());
  return *nodes_[id.value()];
}

void System::start(TimePoint horizon) {
  SYNERGY_EXPECTS(!started_);
  started_ = true;
  horizon_ = horizon;
  for (auto& node : nodes_) node->start();
  workload_->start(horizon);
}

void System::run_until(TimePoint deadline) { sim_.run_until(deadline); }

void System::run() {
  SYNERGY_EXPECTS(started_);
  sim_.run_until(horizon_);
}

std::vector<Node*> System::all_nodes() const {
  std::vector<Node*> all;
  for (const auto& node : nodes_) all.push_back(node.get());
  return all;
}

void System::schedule_hw_fault(TimePoint at, NodeId node_id) {
  SYNERGY_EXPECTS(config_.scheme != Scheme::kMdcdOnly);
  sim_.schedule_at(at, [this, node_id] { hw_manager_->inject_fault(node_id); });
}

void System::schedule_sw_error(TimePoint at) {
  sim_.schedule_at(at, [this] {
    ProcessNode& n = *nodes_[0];
    if (!n.engine().alive()) return;
    // A design fault computes the same wrong value on every redundant
    // lane — route it through the fan-out so the voter stays blind to it
    // (catching it is the acceptance test's job, not the voter's).
    if (LaneSet* lanes = n.lanes()) {
      lanes->corrupt(rng_->next());
    } else {
      n.app().corrupt(rng_->next());
    }
    // Drive an external send so the acceptance test runs on the erroneous
    // output (deterministic software-error scenario).
    n.engine().on_app_send(/*external=*/true, rng_->next());
  });
}

void System::schedule_lane_fault(TimePoint at, ProcessId target,
                                 std::uint32_t lane, bool sig_fault,
                                 std::uint64_t noise) {
  sim_.schedule_at(at, [this, target, lane, sig_fault, noise] {
    inject_lane_fault(target, lane, sig_fault, noise);
  });
}

void System::inject_lane_fault(ProcessId target, std::uint32_t lane,
                               bool sig_fault, std::uint64_t noise) {
  ProcessNode& n = node(target);
  if (n.retired() || n.crashed()) return;
  if (LaneSet* lanes = n.lanes()) {
    const std::size_t idx = lane % lanes->lane_count();
    if (sig_fault) {
      lanes->inject_signature_fault(idx, noise);
    } else {
      lanes->inject_state_flip(idx, noise);
    }
    return;
  }
  if (sig_fault) return;  // no signature chains without lanes: nothing to hit
  // Unprotected scheme: the flip lands straight on the live state. Whether
  // anything ever notices is up to AT coverage — detection by luck, the
  // baseline the lane schemes are measured against.
  n.app().flip_bit(noise);
  ++unprotected_flips_;
  if (config_.enable_trace) {
    trace_.record(sim_.now(), target, TraceKind::kLaneFlip, "unprotected");
  }
}

void System::schedule_link_down(TimePoint at, ProcessId target, bool rx,
                                bool tx, bool full, double burst_loss) {
  SYNERGY_EXPECTS(faulty_net_ != nullptr);
  sim_.schedule_at(at, [this, target, rx, tx, full, burst_loss] {
    faulty_net_->set_link_down(target, rx, tx, full, burst_loss);
    if (config_.enable_trace) {
      const std::uint64_t flags = (rx ? 1u : 0u) | (tx ? 2u : 0u) |
                                  (full ? 4u : 0u);
      trace_.record(sim_.now(), target, TraceKind::kLinkDown, {}, flags);
    }
  });
}

void System::schedule_link_up(TimePoint at, ProcessId target) {
  SYNERGY_EXPECTS(faulty_net_ != nullptr);
  sim_.schedule_at(at, [this, target] {
    faulty_net_->set_link_up(target);
    if (config_.enable_trace) {
      trace_.record(sim_.now(), target, TraceKind::kLinkUp);
    }
  });
}

void System::schedule_handoff(TimePoint at, ProcessId target) {
  sim_.schedule_at(at, [this, target] { perform_handoff(target); });
}

bool System::perform_handoff(ProcessId target) {
  // A handoff mid-recovery would race the coordinated restart's own line
  // refresh; the next scheduled handoff gets its chance instead.
  if (hw_manager_->recovery_pending()) return false;
  ProcessNode& n = node(target);
  if (n.retired() || n.crashed() || !n.has_stable_storage()) return false;

  // Transfer budget: about half the retained history fits through the
  // handoff gap. A drain window of two base write latencies lets a nearly
  // finished write complete at the old station; anything slower is
  // abandoned and forced through by the write watchdog at the new home.
  constexpr std::size_t kHandoffKeepDepth = 4;
  const Duration drain_window = config_.sstore.write_base_latency * 2;
  const StableStore::HandoffOutcome outcome =
      n.sstore().handoff(kHandoffKeepDepth, drain_window);
  ++handoffs_;
  if (outcome.write_abandoned) ++handoff_aborted_writes_;
  if (config_.enable_trace) {
    trace_.record(sim_.now(), target, TraceKind::kHandoff,
                  outcome.write_abandoned ? "abandoned_write" : "",
                  outcome.migrated);
  }

  // Dropped history can leave the nodes without a consistent common index
  // (the other stores still retain what this one lost): re-derive the
  // recovery line at a fresh common index right away rather than leaving
  // a window where a rollback would have to search for one.
  if (outcome.dropped > 0 && scheme_has_tb(config_.scheme)) {
    bool quiescent = true;
    for (auto& node : nodes_) {
      if (!node->retired() && node->crashed()) quiescent = false;
    }
    if (quiescent) {
      if (const auto line = reestablish_recovery_line(sim_, all_nodes());
          line && config_.enable_trace) {
        trace_.record(sim_.now(), target, TraceKind::kDegradation,
                      "handoff_reline", *line);
      }
    }
  }
  return true;
}

void System::on_lane_rollback(ProcessId detector) {
  // Divergence detection fires from deep inside an engine event (mid-send).
  // Schedule the rollback as its own simulator event so the current
  // dispatch unwinds first; duplicate detections in the window collapse
  // into one recovery.
  if (config_.scheme == Scheme::kMdcdOnly) return;  // no stable line
  if (lane_rollback_pending_) return;
  lane_rollback_pending_ = true;
  sim_.schedule_at(sim_.now(), [this, detector] {
    lane_rollback_pending_ = false;
    if (hw_manager_->recovery_pending()) return;
    ProcessNode& n = node(detector);
    if (n.retired() || n.crashed()) return;
    ++lane_rollbacks_;
    if (config_.enable_trace) {
      trace_.record(sim_.now(), detector, TraceKind::kRollback,
                    "lane_divergence");
    }
    // The suspect node's volatile state is unusable (which lane was right
    // is unknowable without a majority): treat it exactly like a hardware
    // fault and restart everyone from the oracle-filtered recovery line.
    hw_manager_->inject_fault(NodeId{detector.value()});
  });
}

LaneStats System::lane_stats() const {
  LaneStats total;
  for (const auto& node : nodes_) {
    LaneSet* lanes = const_cast<ProcessNode&>(*node).lanes();
    if (!lanes) continue;
    const LaneStats s = lanes->stats();
    total.injected += s.injected;
    total.masked += s.masked;
    total.detected += s.detected;
    total.silent += s.silent;
    total.votes += s.votes;
    total.masked_votes += s.masked_votes;
    total.divergences += s.divergences;
    total.sig_mismatches += s.sig_mismatches;
    total.resyncs += s.resyncs;
  }
  return total;
}

void System::on_at_failure(ProcessId detector) {
  ++at_failures_;
  if (sw_recovery_.has_value()) {
    // The spare is already in service; a further AT failure exhausts the
    // design-diversity redundancy. Recorded, not recovered.
    return;
  }
  sw_recovery_ = sw_manager_->recover(detector, next_epoch());

  // Establish a fresh recovery line: the takeover must never be split by a
  // later hardware rollback (stable checkpoints predating it would
  // resurrect the retired P1act). The line gets a *common* index beyond
  // every survivor's current Ndc, and each TB schedule fast-forwards to it
  // — mixing per-node indices would pair pre- and post-takeover records.
  if (config_.scheme != Scheme::kMdcdOnly) {
    commit_fresh_line(sim_.now(), config_.tb.interval,
                      {nodes_[1].get(), nodes_[2].get()});
  }
  nodes_[0]->retire();
}

GlobalState System::stable_line_state() const {
  return line_state(
      choose_line(all_nodes(), line_verdicts_, config_.harden_recovery));
}

std::vector<Violation> System::audit_stable_line() const {
  const LineChoice choice =
      choose_line(all_nodes(), line_verdicts_, config_.harden_recovery);
  if (choice.ndc) {
    // Both selections return an index every participant decodes.
    if (const auto line = stable_line_at(choice.participants, *choice.ndc)) {
      return line_verdicts_.all(*line);
    }
  }
  return check_all(line_state(choice));
}

GlobalState System::live_state() const {
  GlobalState state;
  for (const auto& node : nodes_) {
    const MdcdEngine& engine = node->engine();
    if (!engine.alive()) continue;
    state.processes.push_back(
        facts_from_engine(engine, engine.current_time()));
  }
  return state;
}

}  // namespace synergy
