// AssumptionMonitor — detects violated environment assumptions and
// degrades gracefully instead of letting the protocol's guarantees rot
// silently.
//
// The coordinated scheme's correctness argument leans on three modelled
// bounds: message delivery within [tmin, tmax], clock drift within rho
// (re-anchored by resyncs), and stable storage that always commits what it
// was given. The chaos campaigns break each on purpose; this monitor is
// the hardening half of that bargain. It watches for
//   - delivery-bound violations (reported by the network on arrival),
//   - blocking-period / checkpoint-cadence overruns (reported by the TB
//     engines from true-time measurements),
//   - stable-write deadline misses (writes abandoned after the retry
//     budget) and undecodable newest records (latent corruption / torn
//     writes),
//   - undelivered messages (still unacknowledged a full sweep after being
//     sent: a drop is a delivery-bound violation with infinite lateness),
//   - recovery-line inconsistency (the paper's consistency theorem run as
//     a standing self-audit over the committed line: a dropped passed_AT
//     splits validation knowledge between sender and receivers, and their
//     boundary records then disagree about unvalidated traffic),
// and responds with the matching degradations:
//   - widen the assumed tmax, so future tau(b) windows cover the slower
//     network (conservative: longer blocking, intact guarantees);
//   - force an immediate clock resynchronization;
//   - force the abandoned record through as a write-through commit;
//   - re-send the unacked log (duplicates are suppressed at the receiver,
//     so this is always safe; it closes any validation-knowledge gap);
//   - re-establish the recovery line: a coordinated same-instant
//     write-through checkpoint at a fresh common index on every node, so
//     the damaged record can never be selected by a future recovery. The
//     line repair always runs a resend first and relines only after the
//     resent messages settle: relining while validation knowledge is still
//     split would cut the same inconsistency at the new index.
// Every clean run stays silent: each detector's threshold includes the
// in-spec drift/latency envelope, so zero violations is the expected
// steady state — and what the campaign checkers assert.
//
// Mobile missions add a twist: a *declared* disconnection epoch is an
// expected outage, not a broken assumption. When a link oracle is
// installed (set_link_oracle), violations attributable to an impaired
// link — late deliveries to/from it, traffic parked unacked behind it —
// are *deferred* (counted separately, never tripping degradations), and
// the first sweep after a link returns proactively resends its unacked
// backlog instead of waiting for the staleness watchdog. The monitor also
// bounds each node's unacked log (a multi-epoch partition grows it
// without limit otherwise) and, for ABFT workloads, scrubs each node's
// block encoding between AT runs, feeding a damaged encoding into the
// MDCD confidence machinery the way a failed signature check would.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "clock/ensemble.hpp"
#include "coord/line_verdicts.hpp"
#include "coord/node.hpp"
#include "net/network.hpp"
#include "sim/simulator.hpp"
#include "trace/trace.hpp"

namespace synergy {

struct MonitorParams {
  /// Cadence of the storage sweep (watchdog + corruption scan).
  Duration sweep_interval = Duration::seconds(5);
  /// Late deliveries widen the assumed tmax to observed * this factor.
  double widen_margin = 1.25;
  /// Per-node unacked-log bound: above this the sweep counts an overflow
  /// and (degrading, link permitting) forces a resend to drain it.
  std::size_t unacked_bound = 256;
  /// Apply degradations (false = detect and count only).
  bool degrade = true;
};

/// Declares one counter row of an X-macro counter table as a field.
#define SYNERGY_DECLARE_COUNTER(field, ...) std::uint64_t field = 0;

/// What a monitor counter records. Deferrals are detections suppressed
/// because a declared disconnection epoch explains them: neither a
/// violation nor a degradation.
enum class MonitorKind { kDetection, kDeferral, kDegradation };

// Every MonitorStats counter, declared once as X(field, kind) in struct
// order; violations() and degradations() sum the rows of their kind.
// signature_mismatches are CFCSS breaks found by sweeps, unacked_overflows
// unacked logs over their bound, abft_scrub_detections damaged encodings
// found, lane_repairs lanes parked/restored by sweep scans.
#define SYNERGY_MONITOR_COUNTERS(X)         \
  X(bound_violations, kDetection)           \
  X(blocking_overruns, kDetection)          \
  X(write_timeouts, kDetection)             \
  X(corrupt_records, kDetection)            \
  X(undelivered_messages, kDetection)       \
  X(line_inconsistencies, kDetection)       \
  X(signature_mismatches, kDetection)       \
  X(unacked_overflows, kDetection)          \
  X(abft_scrub_detections, kDetection)      \
  X(disconnect_deferrals, kDeferral)        \
  X(tau_widenings, kDegradation)            \
  X(forced_resyncs, kDegradation)           \
  X(forced_write_throughs, kDegradation)    \
  X(forced_resends, kDegradation)           \
  X(relines, kDegradation)                  \
  X(lane_repairs, kDegradation)

struct MonitorStats {
  SYNERGY_MONITOR_COUNTERS(SYNERGY_DECLARE_COUNTER)

  std::uint64_t total(MonitorKind kind) const;
  std::uint64_t violations() const { return total(MonitorKind::kDetection); }
  std::uint64_t degradations() const {
    return total(MonitorKind::kDegradation);
  }

  bool operator==(const MonitorStats&) const = default;
};

struct MonitorCounter {
  const char* name;
  MonitorKind kind;
  std::uint64_t MonitorStats::*field;
};
#define SYNERGY_MONITOR_COUNTER_ROW(field, kind) \
  MonitorCounter{#field, MonitorKind::kind, &MonitorStats::field},
inline constexpr MonitorCounter kMonitorCounters[] = {
    SYNERGY_MONITOR_COUNTERS(SYNERGY_MONITOR_COUNTER_ROW)};
#undef SYNERGY_MONITOR_COUNTER_ROW

inline std::uint64_t MonitorStats::total(MonitorKind kind) const {
  std::uint64_t sum = 0;
  for (const MonitorCounter& c : kMonitorCounters) {
    if (c.kind == kind) sum += this->*c.field;
  }
  return sum;
}

class AssumptionMonitor {
 public:
  /// `verdicts` is the mission's line-verdict memo; it must outlive the
  /// monitor.
  AssumptionMonitor(Simulator& sim, Network& net, ClockEnsemble& clocks,
                    std::vector<ProcessNode*> nodes,
                    const MonitorParams& params, TraceLog* trace,
                    LineVerdicts& verdicts);

  /// Hook the network / TB observers and arm the periodic storage sweep.
  void install();

  /// Declared-disconnection oracle (mobile missions): while `impaired(p)`
  /// is true, violations attributable to p's link defer instead of
  /// tripping; `last_restored(p)` lets deliveries of traffic sent before
  /// the link returned be excused too.
  struct LinkOracle {
    std::function<bool(ProcessId)> impaired;
    std::function<TimePoint(ProcessId)> last_restored;
  };
  void set_link_oracle(LinkOracle oracle) { link_oracle_ = std::move(oracle); }

  const MonitorStats& stats() const { return stats_; }

 private:
  /// True iff p's link state (or its recent restoration) explains traffic
  /// sent at `sent_at` arriving late or not at all.
  bool link_excuses(ProcessId p, TimePoint sent_at) const;
  void on_late_delivery(const Message& m, Duration lateness);
  void on_overrun(ProcessId p, Duration actual, Duration allowed);
  void sweep();
  /// Resend every node's unacked log (safe: receivers suppress duplicates).
  std::size_t resend_all();
  /// Line inconsistency was detected: resend now, then reline once the
  /// resent messages have settled (if the line is still inconsistent).
  void start_line_repair();
  void finish_line_repair();
  /// Consistency violations in the currently committed recovery line, or 0
  /// when the line cannot be audited (no common index space). Memoized in
  /// `verdicts_` on the identities of the line's records.
  std::size_t line_violations();
  void reestablish_line();
  bool quiescent() const;  ///< No node crashed / recovery in flight.

  Simulator& sim_;
  Network& net_;
  ClockEnsemble& clocks_;
  std::vector<ProcessNode*> nodes_;
  MonitorParams params_;
  TraceLog* trace_;
  LineVerdicts& verdicts_;
  MonitorStats stats_;
  LinkOracle link_oracle_;
  bool installed_ = false;
  bool repair_pending_ = false;
  /// Unacked transport seqs per node as of the previous sweep: a message
  /// still unacked one full sweep after being seen was dropped (or its ack
  /// was), far outside any in-spec delivery + validation latency.
  std::vector<std::vector<std::uint64_t>> prev_unacked_;
  /// Node was link-impaired at the previous sweep: the first sweep after
  /// reconnection proactively resends instead of counting staleness.
  std::vector<char> was_impaired_;
  /// Latch per node: an unacked-bound excursion is counted once, not once
  /// per sweep it persists.
  std::vector<char> unacked_over_;
  /// Latch per node: a damaged ABFT encoding is counted once per episode.
  std::vector<char> abft_flagged_;
};

}  // namespace synergy
