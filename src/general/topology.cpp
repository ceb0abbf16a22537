#include "general/topology.hpp"

#include "common/assert.hpp"

namespace synergy {

Topology::Topology(std::vector<ComponentSpec> components)
    : components_(std::move(components)) {
  SYNERGY_EXPECTS(!components_.empty() &&
                  components_.size() <= kMaxProcesses);
  shadow_index_.assign(components_.size(), -1);
  for (std::uint32_t c = 0; c < components_.size(); ++c) {
    for (const auto peer : components_[c].peers) {
      SYNERGY_EXPECTS(peer < components_.size());
      SYNERGY_EXPECTS(peer != c);  // no self loops
    }
    if (components_[c].confidence == Confidence::kLow) {
      shadow_index_[c] = static_cast<std::int32_t>(shadow_count_++);
    } else {
      SYNERGY_EXPECTS(components_[c].fault_activation_per_send == 0.0);
    }
  }
  SYNERGY_EXPECTS(components_.size() + shadow_count_ <= kMaxProcesses);
  // Flat process -> component map: actives are ids [0, C), shadows are
  // appended in shadow-slot order.
  component_of_.assign(components_.size() + shadow_count_, 0);
  for (std::uint32_t c = 0; c < components_.size(); ++c) {
    component_of_[c] = c;
    if (shadow_index_[c] >= 0) {
      component_of_[components_.size() +
                    static_cast<std::size_t>(shadow_index_[c])] = c;
    }
  }
  // Resolved multicast fan-outs.
  peer_routes_.resize(components_.size());
  for (std::uint32_t c = 0; c < components_.size(); ++c) {
    peer_routes_[c].reserve(components_[c].peers.size());
    for (const auto peer : components_[c].peers) {
      PeerRoute route;
      route.component = peer;
      route.active = active_of(peer);
      route.has_shadow = shadow_index_[peer] >= 0;
      if (route.has_shadow) route.shadow = shadow_of(peer);
      peer_routes_[c].push_back(route);
    }
  }
}

ProcessId Topology::active_of(std::uint32_t c) const {
  SYNERGY_EXPECTS(c < components_.size());
  return ProcessId{c};
}

bool Topology::has_shadow(std::uint32_t c) const {
  SYNERGY_EXPECTS(c < components_.size());
  return shadow_index_[c] >= 0;
}

ProcessId Topology::shadow_of(std::uint32_t c) const {
  SYNERGY_EXPECTS(has_shadow(c));
  return ProcessId{static_cast<std::uint32_t>(
      components_.size() + static_cast<std::size_t>(shadow_index_[c]))};
}

std::uint32_t Topology::component_of(ProcessId p) const {
  SYNERGY_EXPECTS(p.value() < component_of_.size());
  return component_of_[p.value()];
}

bool Topology::is_shadow(ProcessId p) const {
  return p.value() >= components_.size() &&
         p.value() < process_count();
}

const std::vector<PeerRoute>& Topology::peer_routes(std::uint32_t c) const {
  SYNERGY_EXPECTS(c < peer_routes_.size());
  return peer_routes_[c];
}

std::string Topology::process_name(ProcessId p) const {
  const auto c = component_of(p);
  return components_[c].name + (is_shadow(p) ? ".sdw" : "");
}

Topology Topology::canonical() {
  ComponentSpec low;
  low.name = "C1";
  low.confidence = Confidence::kLow;
  low.peers = {1};
  ComponentSpec high;
  high.name = "C2";
  high.peers = {0};
  return Topology({low, high});
}

Topology Topology::chain(std::size_t n) {
  SYNERGY_EXPECTS(n >= 2 && n <= kMaxChainLength);
  std::vector<ComponentSpec> specs;
  for (std::size_t i = 0; i < n; ++i) {
    ComponentSpec s;
    s.name = "C" + std::to_string(i);
    s.confidence = i == 0 ? Confidence::kLow : Confidence::kHigh;
    if (i + 1 < n) s.peers.push_back(static_cast<std::uint32_t>(i + 1));
    if (i > 0) s.peers.push_back(static_cast<std::uint32_t>(i - 1));
    specs.push_back(std::move(s));
  }
  return Topology(std::move(specs));
}

Topology Topology::star(std::size_t leaves) {
  SYNERGY_EXPECTS(leaves >= 1 && leaves <= kMaxStarLeaves);
  std::vector<ComponentSpec> specs;
  ComponentSpec hub;
  hub.name = "hub";
  hub.confidence = Confidence::kLow;
  for (std::size_t i = 1; i <= leaves; ++i) {
    hub.peers.push_back(static_cast<std::uint32_t>(i));
  }
  specs.push_back(std::move(hub));
  for (std::size_t i = 1; i <= leaves; ++i) {
    ComponentSpec leaf;
    leaf.name = "leaf" + std::to_string(i);
    leaf.peers = {0};
    specs.push_back(std::move(leaf));
  }
  return Topology(std::move(specs));
}

Topology Topology::dual_guarded() {
  ComponentSpec a;
  a.name = "A";
  a.confidence = Confidence::kLow;
  a.peers = {2};
  ComponentSpec b;
  b.name = "B";
  b.confidence = Confidence::kLow;
  b.peers = {2};
  ComponentSpec shared;
  shared.name = "S";
  shared.peers = {0, 1};
  return Topology({a, b, shared});
}

}  // namespace synergy
