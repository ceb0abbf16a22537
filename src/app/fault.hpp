// Software fault model.
//
// SoftwareFaultModel: the design fault latent in the low-confidence version
// (P1act). It activates probabilistically per send and, when active,
// corrupts the process's application state — the erroneous state then
// propagates through outgoing messages per the paper's key assumption.
//
// Hardware faults are timed events: FaultSchedule::generate
// (inject/fault_schedule.hpp) draws them and System::schedule_hw_fault
// injects them.
#pragma once

#include <cstdint>
#include <optional>

#include "common/rng.hpp"

namespace synergy {

struct SoftwareFaultParams {
  /// P(design fault activates | one send operation by the faulty version).
  double activation_per_send = 0.0;
};

class SoftwareFaultModel {
 public:
  SoftwareFaultModel(const SoftwareFaultParams& params, Rng rng);

  /// Should the fault manifest on this send? (also yields corruption noise)
  std::optional<std::uint64_t> on_send();

  std::uint64_t activations() const { return activations_; }

 private:
  SoftwareFaultParams params_;
  Rng rng_;
  std::uint64_t activations_ = 0;
};

}  // namespace synergy
