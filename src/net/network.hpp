// Bounded-delay message-passing network over the discrete-event simulator.
//
// Delivery delay for each message is drawn uniformly from [tmin, tmax] —
// the two bounds the TB protocol's blocking periods are computed from.
// Channels are FIFO per (sender, receiver) pair by default (delivery times
// are made monotone per pair), matching the paper's system model.
//
// send() is virtual so fault-injection decorators (FaultyNetwork) can
// intercept traffic; the protected inject() primitive lets them schedule
// deliveries that deliberately break the FIFO/tmax model. Deliveries that
// land later than sent_at + tmax are reported to the delivery-bound
// observer — the assumption monitors' hook for detecting that the network
// left its contract.
//
// The delivery machinery is allocation-free in steady state (the message
// path is the campaign hot path — see DESIGN.md §16):
//
//   * In-transit messages live in pooled, generation-tagged frames recycled
//     through a free list, so send→inject→deliver performs no heap
//     operations once the pool has warmed up.
//   * Same-tick messages to the same receiver are chained onto one
//     scheduled event (a per-receiver batch) instead of one simulator
//     event each; appends are only taken while provably order-preserving
//     (nothing else entered the event queue since the batch was
//     scheduled), so campaign output stays bit-identical to the
//     one-event-per-message schedule.
//   * Per-pair FIFO watermarks are small inline vectors on the receiver
//     slot, sorted by sender for a binary search, and pruned when
//     in-transit traffic to that receiver is dropped —
//     a detached process no longer leaves stale (possibly future)
//     watermarks behind to delay its post-restart traffic.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "common/small_vec.hpp"
#include "common/types.hpp"
#include "net/message.hpp"
#include "sim/simulator.hpp"

namespace synergy {

struct NetworkParams {
  Duration tmin = Duration::millis(1);   ///< Minimum delivery delay.
  Duration tmax = Duration::millis(10);  ///< Maximum delivery delay.
  bool fifo = true;                      ///< Per-pair FIFO ordering.
  double loss_probability = 0.0;         ///< Silent drop probability.
};

class Network {
 public:
  using Handler = std::function<void(const Message&)>;
  /// Called on every delivery later than sent_at + tmax; `lateness` is the
  /// amount by which the bound was exceeded.
  using DeliveryBoundObserver =
      std::function<void(const Message&, Duration lateness)>;

  Network(Simulator& sim, const NetworkParams& params, Rng rng);
  virtual ~Network() = default;

  /// Register the delivery handler for a process. Re-attaching replaces the
  /// previous handler (used when a node restarts after a crash).
  void attach(ProcessId p, Handler handler);

  /// Detach a process: pending and future deliveries to it are dropped
  /// until it re-attaches. Models a node crash.
  void detach(ProcessId p);

  /// Hand a message to the network. Stamps sent_at; schedules delivery.
  /// Messages to kDeviceId are delivered to the device handler if attached,
  /// else counted and dropped (devices are sinks).
  virtual void send(Message m);

  /// Drop every message currently in transit toward `p` (crash semantics:
  /// a rebooted node must not receive pre-crash messages it never acked).
  /// Also prunes the per-sender FIFO watermarks for `p`: the deliveries
  /// backing them were just cancelled, so a post-restart send must not be
  /// serialized behind a delivery that never happened.
  void drop_in_transit_to(ProcessId p);

  /// Install the delivery-bound violation observer (assumption monitor).
  void set_delivery_bound_observer(DeliveryBoundObserver obs) {
    bound_observer_ = std::move(obs);
  }

  const NetworkParams& params() const { return params_; }

  // Counters for experiment reporting.
  std::uint64_t sent() const { return sent_; }
  std::uint64_t delivered() const { return delivered_; }
  /// Total drops, every cause (= loss + no_receiver + cancelled).
  std::uint64_t dropped() const {
    return dropped_loss_ + dropped_no_receiver_ + dropped_cancelled_;
  }
  /// Messages lost on the wire: the model's Bernoulli loss plus every
  /// injected loss class (drop faults, blackouts, burst chains, frames
  /// discarded by the CRC check).
  std::uint64_t dropped_loss() const { return dropped_loss_; }
  /// Deliveries that arrived while the receiver had no handler (crashed,
  /// or a sink with no recorder attached).
  std::uint64_t dropped_no_receiver() const { return dropped_no_receiver_; }
  /// In-transit messages cancelled by drop_in_transit_to (crash/detach).
  std::uint64_t dropped_cancelled() const { return dropped_cancelled_; }
  std::uint64_t in_transit() const { return in_transit_; }
  /// Deliveries observed beyond the tmax contract (injected delays).
  std::uint64_t late_deliveries() const { return late_deliveries_; }

 protected:
  /// Schedule delivery of an already-stamped message after `delay`.
  /// `respect_fifo == false` bypasses the per-pair ordering watermarks,
  /// letting injectors reorder or delay a message past the model's bounds.
  void inject(Message m, Duration delay, bool respect_fifo);

  Simulator& sim() { return sim_; }
  Rng& rng() { return rng_; }
  void count_sent() { ++sent_; }
  /// Injector drops are wire loss (drop faults, blackouts, corrupt frames).
  void count_dropped() { ++dropped_loss_; }

 private:
  static constexpr std::uint32_t kNoFrame = 0xFFFFFFFFu;

  /// One pooled in-transit message. Frames form per-(receiver, tick)
  /// singly-linked chains; the chain head owns the scheduled delivery
  /// event. Generation tags keep a frame freed mid-drain (receiver crash
  /// from inside a handler) from being walked after recycling.
  struct Frame {
    Message msg;
    EventHandle handle;                   ///< set on chain heads only
    std::uint32_t next = kNoFrame;        ///< next frame in the chain
    std::uint32_t gen = 1;                ///< bumped on every release
    std::uint32_t next_free = kNoFrame;   ///< free-list link
    bool live = false;                    ///< occupied (in some chain)
    bool head = false;                    ///< owns a scheduled event
  };

  /// Per-receiver delivery state, indexed densely: device = slot 0,
  /// process p = slot p + 1.
  struct Receiver {
    Handler handler;  ///< null while detached
    /// FIFO watermarks: last scheduled delivery time per sender, sorted
    /// by sender id.
    SmallVec<std::pair<std::uint32_t, TimePoint>, 4> fifo;
    /// Open same-tick batch. Appending to it is legal only while `mark`
    /// still equals the simulator's schedule counter — i.e. nothing else
    /// has entered the event queue since the batch head was scheduled, so
    /// a frame chained at the tail delivers in exactly the order its own
    /// event would have.
    std::uint32_t batch_head = kNoFrame;
    std::uint32_t batch_tail = kNoFrame;
    TimePoint batch_time;
    std::uint64_t batch_mark = 0;
  };

  static std::size_t slot_of(ProcessId p) {
    return p == kDeviceId ? 0 : static_cast<std::size_t>(p.value()) + 1;
  }
  Receiver& receiver(ProcessId p);
  std::uint32_t acquire_frame();
  void release_frame(std::uint32_t idx);
  void deliver_chain(std::uint32_t head, std::uint32_t gen,
                     std::uint32_t rslot);

  Simulator& sim_;
  NetworkParams params_;
  Rng rng_;
  // Deque, not vector: handlers are invoked by reference out of this
  // container, and a handler may attach a new (higher-slot) process while
  // running — deque growth never moves existing elements.
  std::deque<Receiver> receivers_;
  std::vector<Frame> frames_;
  std::uint32_t free_head_ = kNoFrame;
  DeliveryBoundObserver bound_observer_;
  std::uint64_t sent_ = 0;
  std::uint64_t delivered_ = 0;
  std::uint64_t dropped_loss_ = 0;
  std::uint64_t dropped_no_receiver_ = 0;
  std::uint64_t dropped_cancelled_ = 0;
  std::uint64_t in_transit_ = 0;
  std::uint64_t late_deliveries_ = 0;
};

}  // namespace synergy
