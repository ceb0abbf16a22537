#include "app/fault.hpp"

#include "common/assert.hpp"

namespace synergy {

SoftwareFaultModel::SoftwareFaultModel(const SoftwareFaultParams& params,
                                       Rng rng)
    : params_(params), rng_(rng) {
  SYNERGY_EXPECTS(params.activation_per_send >= 0.0 &&
                  params.activation_per_send <= 1.0);
}

std::optional<std::uint64_t> SoftwareFaultModel::on_send() {
  const double p = params_.activation_per_send;
  if (p <= 0.0 || !rng_.bernoulli(p)) return std::nullopt;
  ++activations_;
  return rng_.next();
}

}  // namespace synergy
