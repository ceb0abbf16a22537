#include "coord/node.hpp"

#include <utility>

#include "common/assert.hpp"

namespace synergy {
namespace {

ProcessId id_for(Role role) {
  switch (role) {
    case Role::kP1Act: return kP1Act;
    case Role::kP1Sdw: return kP1Sdw;
    case Role::kP2: return kP2;
  }
  SYNERGY_UNREACHABLE("bad role");
}

MdcdConfig mdcd_config_for(const NodeConfig& config) {
  MdcdConfig c = config.mdcd;
  // The scheme decides the MDCD variant: only the TB-coordinated schemes
  // run the modified algorithms.
  c.variant = scheme_uses_modified_mdcd(config.scheme)
                  ? MdcdVariant::kModified
                  : MdcdVariant::kOriginal;
  return c;
}

TbParams tb_params_for(const NodeConfig& config) {
  TbParams p = config.tb;
  p.variant = scheme_uses_modified_mdcd(config.scheme) ? TbVariant::kAdapted
                                                       : TbVariant::kOriginal;
  return p;
}

}  // namespace

Node::Node(ProcessId id, Simulator& sim, Network& net, TraceLog* trace,
           std::uint64_t app_seed, WorkloadKind workload,
           const StableStoreParams* sstore, const AtParams& at,
           const std::optional<SoftwareFaultParams>& sw_fault, Rng& rng)
    : sim_(sim), net_(net), trace_(trace), id_(id), app_(app_seed, workload) {
  if (sstore) sstore_ = std::make_unique<StableStore>(sim, *sstore);
  at_ = std::make_unique<AcceptanceTest>(at, rng.split());
  if (sw_fault) {
    sw_fault_ = std::make_unique<SoftwareFaultModel>(*sw_fault, rng.split());
  }
}

Node::~Node() = default;

ProcessServices Node::services(
    std::function<void(ProcessId)> request_sw_recovery) {
  ProcessServices services;
  services.self = id_;
  services.now = [&sim = sim_] { return sim.now(); };
  services.transport = endpoint_.get();
  services.vstore = &vstore_;
  services.app = &app_;
  services.at = at_.get();
  services.sw_fault = sw_fault_.get();
  services.trace = trace_;
  services.request_sw_recovery = std::move(request_sw_recovery);
  return services;
}

void Node::adopt(std::unique_ptr<CheckpointableProcess> engine,
                 const TbParams* tb, ClockEnsemble& ensemble) {
  process_ = std::move(engine);
  if (tb) {
    tb_ = std::make_unique<TbEngine>(
        *tb, *process_, *sstore_, ensemble.timers(id_),
        [&ensemble] { return ensemble.elapsed_since_resync(); }, trace_);
  }
}

ProcessNode::ProcessNode(Role role, Simulator& sim, Network& net,
                         ClockEnsemble& ensemble, const NodeConfig& config,
                         std::uint64_t app_seed, Rng rng, TraceLog* trace,
                         std::function<void(ProcessId)> request_sw_recovery,
                         std::function<void(ProcessId)> request_lane_rollback)
    : Node(id_for(role), sim, net, trace, app_seed, config.workload,
           config.scheme != Scheme::kMdcdOnly ? &config.sstore : nullptr,
           config.at,
           role == Role::kP1Act ? std::optional(config.sw_fault)
                                : std::nullopt,
           rng),
      role_(role) {
  if (const std::size_t n_lanes = scheme_lane_count(config.scheme);
      n_lanes > 1) {
    lanes_ = std::make_unique<LaneSet>(
        app_, n_lanes, trace, id_, [&sim] { return sim.now(); });
  }
  if (config.workload == WorkloadKind::kAbft) {
    // ABFT: the AT verdict is computed from the encoded block state, not
    // drawn from assumed coverage. The AT's rng split still happens, so
    // sibling streams (sw_fault, storage) keep their draws either way.
    at_->set_checker([this] { return app_.abft_check_ok(); });
  }

  // The endpoint forwards every non-ack delivery into the MDCD engine.
  endpoint_ = std::make_unique<ReliableEndpoint>(
      net, id_, [this](const Message& m) { engine_->on_message(m); });

  ProcessServices services = Node::services(std::move(request_sw_recovery));
  services.lanes = lanes_.get();
  services.request_lane_rollback = request_lane_rollback;

  const MdcdConfig mdcd = mdcd_config_for(config);
  std::unique_ptr<MdcdEngine> engine;
  switch (role) {
    case Role::kP1Act: {
      auto e = std::make_unique<P1ActEngine>(mdcd, std::move(services));
      p1act_ = e.get();
      engine = std::move(e);
      break;
    }
    case Role::kP1Sdw: {
      auto e = std::make_unique<P1SdwEngine>(mdcd, std::move(services));
      p1sdw_ = e.get();
      engine = std::move(e);
      break;
    }
    case Role::kP2: {
      auto e = std::make_unique<P2Engine>(mdcd, std::move(services));
      p2_ = e.get();
      engine = std::move(e);
      break;
    }
  }
  engine_ = engine.get();

  if (lanes_) {
    // Voter/CFCSS events feed the coordination layer: signature mismatches
    // become MDCD confidence-loss events; unmaskable divergences roll back
    // to the recovery line.
    lanes_->set_confidence_loss_handler(
        [this] { engine_->on_confidence_loss(); });
    if (request_lane_rollback) {
      lanes_->set_rollback_handler(
          [this, cb = std::move(request_lane_rollback)] { cb(id_); });
    }
  }

  const TbParams tb = tb_params_for(config);
  adopt(std::move(engine), scheme_has_tb(config.scheme) ? &tb : nullptr,
        ensemble);
  if (tb_) engine_->set_ndc_provider([this] { return tb_->ndc(); });

  // Seeded last so the storage-fault stream rides after the splits above:
  // enabling injection never perturbs the AT / software-fault streams.
  if (sstore_) sstore_->seed_faults(rng.split());
}

void Node::start() {
  if (sstore_) {
    // Deployment-time initial checkpoint: every recoverable system boots
    // with a committed stable state. Keep a pristine in-memory copy (the
    // ROM image) as the restore source of last resort.
    boot_image_ = process_->make_record(CkptKind::kStable);
    sstore_->commit_now(boot_image_);
  }
  if (tb_) tb_->start();
}

void Node::retire() {
  retired_ = true;
  process_->kill();
  if (tb_) tb_->stop();
  endpoint_->detach_network();
}

void Node::crash() {
  SYNERGY_EXPECTS(!retired_);
  crashed_ = true;
  process_->kill();
  if (tb_) tb_->stop();
  endpoint_->detach_network();
  net_.drop_in_transit_to(id_);
  vstore_.crash_erase();
  if (sstore_) sstore_->crash_abort_in_progress();
  if (trace_) trace_->record(sim_.now(), id_, TraceKind::kHwFault);
}

CheckpointRecord Node::restore_from_stable(
    std::uint32_t new_epoch, std::optional<StableSeq> line_ndc) {
  SYNERGY_EXPECTS(!retired_);
  SYNERGY_EXPECTS(sstore_ != nullptr);
  // A write begun before the fault carries pre-rollback content: it must
  // not commit into the post-recovery world.
  sstore_->crash_abort_in_progress();
  auto rec = line_ndc ? sstore_->committed_for(*line_ndc)
                      : sstore_->latest_committed();
  if (!rec && line_ndc) {
    // Checksum-mismatch fallback: the record at the recovery line is
    // damaged (torn or corrupted). Restore the newest intact earlier
    // record instead of crashing — a deeper rollback, not a failure.
    if (trace_) {
      trace_->record(sim_.now(), id_, TraceKind::kCorruptRecord, "fallback",
                     *line_ndc);
    }
    rec = sstore_->best_valid_at_most(*line_ndc);
  }
  if (!rec) {
    // Every retained record is damaged — the initial commit_now checkpoint
    // makes that an all-corrupt history, reachable only under extreme
    // injected corruption rates (high fault-scale sweep cells). Restore
    // the pristine boot image: the deepest possible rollback, surfaced to
    // the oracles as such, never an unrecoverable node.
    if (trace_) {
      trace_->record(sim_.now(), id_, TraceKind::kCorruptRecord, "boot-image",
                     boot_image_.ndc);
    }
    rec = boot_image_;
  }
  // Records above the line were committed by the undone incarnation
  // (survivors checkpointing through the repair window): purge them.
  sstore_->discard_above(rec->ndc);

  if (tb_) tb_->stop();
  process_->revive();
  process_->restore_from_record(*rec);
  process_->set_epoch(new_epoch);
  process_->fence_all_below(new_epoch);
  endpoint_->reattach_network();
  crashed_ = false;

  // A restarted node re-checkpoints its boot state so the "dirty implies a
  // volatile checkpoint exists" invariant holds from the first instant.
  CheckpointRecord baseline = process_->make_record(CkptKind::kType1);
  baseline.state_time = rec->state_time;  // boot state is the restored state
  vstore_.save(std::move(baseline));

  if (tb_) tb_->reset_after_recovery(rec->ndc);
  if (trace_) {
    trace_->record(sim_.now(), id_, TraceKind::kHwRestore,
                   to_string(rec->kind), rec->ndc);
  }
  return *rec;
}

std::size_t Node::resend_unacked() {
  const std::size_t n = endpoint_->resend_unacked(process_->epoch());
  if (trace_ && n > 0) {
    trace_->record(sim_.now(), id_, TraceKind::kResendUnacked, {}, n);
  }
  return n;
}

}  // namespace synergy
