// Component topologies for the generalized protocol.
//
// The paper's §2.1 motivates MDCD as a general-purpose technique for
// applying "primary-routine / secondary-routine" fault tolerance to
// *selected* components of a distributed system; its reference [5] removes
// the three-process architectural restriction. This module describes such
// a system: N application components with per-component confidence levels
// and an arbitrary directed internal-message topology. Every
// low-confidence component gets an active/shadow pair; high-confidence
// components run as single processes.
//
// Routing is precomputed into flat index maps at construction: process ->
// component is an O(1) array lookup (not a scan over shadow slots), and
// each component's multicast fan-out is a contiguous PeerRoute array the
// engine walks without any per-peer active_of/shadow_of recomputation.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/types.hpp"
#include "net/message.hpp"

namespace synergy {

enum class Confidence : std::uint8_t { kHigh, kLow };

struct ComponentSpec {
  std::string name;
  Confidence confidence = Confidence::kHigh;
  /// Component indices this component multicasts its internal messages to.
  std::vector<std::uint32_t> peers;
  double internal_rate = 1.0;  ///< internal sends per second
  double external_rate = 0.1;  ///< AT-relevant external sends per second
  /// Design-fault activation per send (low-confidence components only).
  double fault_activation_per_send = 0.0;
};

/// One multicast destination, fully resolved: the peer component, its
/// active process, and (when the peer is guarded) its shadow twin.
struct PeerRoute {
  std::uint32_t component = 0;
  ProcessId active;
  ProcessId shadow;  ///< valid iff has_shadow
  bool has_shadow = false;
};

class Topology {
 public:
  /// Process ids run from 0 and must stay below kDeviceId, the id of the
  /// external world, so a topology holds at most this many processes.
  static constexpr std::size_t kMaxProcesses = kDeviceId.value();
  /// The largest chain() length (n components plus one shadow) and star()
  /// leaf count (hub, leaves and the hub's shadow) within kMaxProcesses.
  static constexpr std::size_t kMaxChainLength = kMaxProcesses - 1;
  static constexpr std::size_t kMaxStarLeaves = kMaxProcesses - 2;

  explicit Topology(std::vector<ComponentSpec> components);

  const std::vector<ComponentSpec>& components() const { return components_; }
  std::size_t component_count() const { return components_.size(); }

  /// Total process count: one per component plus one shadow per
  /// low-confidence component.
  std::size_t process_count() const { return component_of_.size(); }

  /// The active process id of component `c` (== c).
  ProcessId active_of(std::uint32_t c) const;

  /// The shadow process id of low-confidence component `c`.
  ProcessId shadow_of(std::uint32_t c) const;
  bool has_shadow(std::uint32_t c) const;

  /// Component owning process `p` (shadow ids map back to their
  /// component). O(1): precomputed flat map.
  std::uint32_t component_of(ProcessId p) const;

  /// Whether `p` is a shadow process.
  bool is_shadow(ProcessId p) const;

  /// Resolved multicast fan-out of component `c` (flat, construction-time).
  const std::vector<PeerRoute>& peer_routes(std::uint32_t c) const;

  std::string process_name(ProcessId p) const;

  // Convenience factories used by tests and examples.
  /// The paper's canonical system: one low (guarded) + one high component,
  /// bidirectional traffic.
  static Topology canonical();
  /// A chain: low -> high -> high -> ... -> high
  /// (2 <= n <= kMaxChainLength).
  static Topology chain(std::size_t n);
  /// A star: one low hub multicasting to n high leaves that reply
  /// (1 <= n <= kMaxStarLeaves).
  static Topology star(std::size_t leaves);
  /// Two independent low components sharing one high peer: exercises
  /// multi-source contamination vectors.
  static Topology dual_guarded();

 private:
  std::vector<ComponentSpec> components_;
  std::vector<std::int32_t> shadow_index_;  // component -> shadow slot or -1
  std::vector<std::uint32_t> component_of_;  // process -> component
  std::vector<std::vector<PeerRoute>> peer_routes_;  // component -> fan-out
  std::size_t shadow_count_ = 0;
};

}  // namespace synergy
