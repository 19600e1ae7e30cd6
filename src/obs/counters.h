#ifndef SMI_OBS_COUNTERS_H
#define SMI_OBS_COUNTERS_H

/// \file counters.h
/// Hardware-profiling counter blocks for the simulated fabric — the analogue
/// of the profiling counters FPGA collective stacks expose to explain where
/// cycles go (per-FIFO stalls, CK polling behaviour, link utilization,
/// kernel activity). Design constraints:
///
///  1. *Near-zero overhead when disabled.* Instrumented entities hold a
///     plain pointer to their counter block, null unless the engine was
///     configured with `collect_counters`/`collect_trace`; every site is a
///     single null check on the hot path.
///  2. *Bit-identical across schedulers.* Counters fall into two classes:
///     - *event counters* (pushes, forwards, arbiter hits, deliveries,
///       kernel resumes) increment at action sites, and actions are
///       bit-identical across schedulers by the engine's exactness
///       guarantee;
///     - *duration counters* (FIFO full/empty cycles, link credit stalls,
///       arbiter polls) are accounted as *spans* over intervals where the
///       relevant committed state is provably constant. The event-driven
///       scheduler only revisits an entity when that state can change, so
///       closing the open span at each visit yields the same totals as the
///       synchronous scheduler's per-cycle accounting.
///  3. *Parallel-overshoot trim.* Under the parallel scheduler, partitions
///     overshoot the global completion cycle inside the final epoch. Every
///     counter update is a revocable update (sim/journal.h): it is logged
///     with its cycle stamp into the journal of the partition whose worker
///     makes it, and the engine undoes the updates at cycles >= the merged
///     finish cycle. No counter block holds or toggles a journal itself.

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "sim/clock.h"
#include "sim/journal.h"

namespace smi::obs {

using sim::CountAt;
using sim::CountSpan;
using sim::Cycle;
using sim::SetAt;

/// Per-FIFO counters: traffic, occupancy high-water mark and full/empty
/// stall cycles. Spans are closed at each commit using the state the
/// *previous* commit established (committed FIFO state is constant between
/// commits, and the event-driven scheduler commits exactly when it changes).
struct FifoCounters {
  std::string name;
  std::uint64_t pushes = 0;
  std::uint64_t pops = 0;
  std::uint64_t high_water = 0;          ///< max committed occupancy
  std::uint64_t full_stall_cycles = 0;   ///< cycles committed-full (pushers stall)
  std::uint64_t empty_cycles = 0;        ///< cycles committed-empty (poppers stall)

  void OnPush(Cycle now) { CountAt(pushes, now); }
  void OnPop(Cycle now) { CountAt(pops, now); }
  /// Bulk transfer at a modeled flow wake: `n` pushes/pops stamped `now`.
  void OnPushBulk(Cycle now, std::uint64_t n) { CountAt(pushes, now, n); }
  void OnPopBulk(Cycle now, std::uint64_t n) { CountAt(pops, now, n); }
  /// Called at each FIFO commit with the newly committed occupancy. The
  /// committed state set at cycle `now` is observed from cycle `now + 1`.
  void OnCommit(Cycle now, std::size_t occupancy, std::size_t capacity) {
    CloseSpan(now + 1);
    if (occupancy > high_water) SetAt(high_water, now, occupancy);
    full_ = occupancy >= capacity;
    empty_ = occupancy == 0;
  }
  /// Flush the trailing span at end of run (`total` = total cycles).
  void Finalize(Cycle total) { CloseSpan(total); }

 private:
  void CloseSpan(Cycle to) {
    if (to <= span_from_) return;
    if (full_) CountSpan(full_stall_cycles, span_from_, to);
    if (empty_) CountSpan(empty_cycles, span_from_, to);
    span_from_ = to;
  }
  Cycle span_from_ = 0;
  bool full_ = false;
  bool empty_ = true;  // a fresh FIFO is committed-empty from cycle 0
};

/// Per-CK (CKS or CKR) counters: R-polling behaviour and forwarded packets
/// broken down by wire op. Poll accounting uses a watermark: `Select(now)`
/// covers all cycles up to `now` (the arbiter replays idle gaps), so the
/// poll count over [polls_from_, now + 1) is added in bulk and the tail up
/// to the finish cycle is flushed at Finalize — exactly the per-cycle polls
/// the synchronous scheduler performs.
struct CkCounters {
  std::string name;
  std::uint64_t forwarded_by_op[3] = {0, 0, 0};  ///< kData, kSync, kCredit
  std::uint64_t polls = 0;   ///< connections examined (incl. empty polls)
  std::uint64_t hits = 0;    ///< polls that found a poppable packet
  std::uint64_t bursts = 0;  ///< burst starts (first serviced packet of a burst)
  std::uint64_t stalls = 0;  ///< cycles holding a packet with a full output
  // In-network handler activity (transport/handler.h): packets merged away
  // by reduce-in-transit (CKS) and fan-out copies injected (CKR). Zero on
  // handler-free fabrics.
  std::uint64_t handler_combined = 0;
  std::uint64_t handler_splits = 0;

  void OnForward(int op, Cycle now) {
    if (op < 0 || op > 2) return;  // unknown wire op: not counted
    CountAt(forwarded_by_op[op], now);
  }
  void OnHandlerCombine(Cycle now) { CountAt(handler_combined, now); }
  void OnHandlerSplit(Cycle now) { CountAt(handler_splits, now); }
  void CountPollsTo(Cycle to) {
    polled_ = true;
    if (to <= polls_from_) return;
    CountSpan(polls, polls_from_, to);
    polls_from_ = to;
  }
  void OnHit(Cycle now) { CountAt(hits, now); }
  void OnBurstStart(Cycle now) { CountAt(bursts, now); }
  void OnStall(Cycle now) { CountAt(stalls, now); }
  void Finalize(Cycle total) {
    // An idle CK is still polled every cycle by the synchronous scheduler;
    // flush the trailing idle gap (no-op if the arbiter never polled, i.e.
    // it has no inputs and never examines anything).
    if (polled_) CountPollsTo(total);
  }

 private:
  Cycle polls_from_ = 0;
  bool polled_ = false;
};

/// Per-link fidelity-mode counters (see sim/fidelity.h). Owned by the
/// flow-capable sim::Link itself — they are meaningful without the recorder
/// — and exposed through LinkCounters::fidelity when telemetry is enabled.
/// Not revocable: fidelity transitions never happen inside parallel epochs
/// (the engine pins every flow-capable link to cycle accuracy for the whole
/// parallel run and the counters are frozen while pinned).
struct FidelityCounters {
  std::uint64_t stepped_cycles = 0;  ///< cycle-accurate Step invocations
  std::uint64_t modeled_cycles = 0;  ///< cycles covered by modeled wakes
  std::uint64_t promotions = 0;      ///< cycle -> flow transitions
  std::uint64_t demotions_congestion = 0;  ///< RX backpressure at a wake
  std::uint64_t demotions_drain = 0;       ///< TX ran dry at a wake
  std::uint64_t demotions_sync = 0;        ///< collective sync point
  std::uint64_t demotions_forced = 0;      ///< pinned by a parallel run
  std::uint64_t thrash_warnings = 0;       ///< thrash-limit warnings emitted

  std::uint64_t demotions() const {
    return demotions_congestion + demotions_drain + demotions_sync +
           demotions_forced;
  }
  /// Fraction of link-observed cycles covered by the flow model.
  double modeled_fraction() const {
    const std::uint64_t total = stepped_cycles + modeled_cycles;
    return total == 0 ? 0.0
                      : static_cast<double>(modeled_cycles) /
                            static_cast<double>(total);
  }
};

/// Go-back-N reliability counters of one sim::ReliableLink (always 0 on
/// lossless links). Owned by the link itself — the fault report reads them
/// without the recorder — and exposed through LinkCounters::reliability
/// when telemetry is enabled. Sender-side fields are only written by the
/// sender half, receiver-side ones by the receiver half, so a split link's
/// two workers never touch the same field.
struct ReliabilityCounters {
  std::uint64_t frames_sent = 0;        ///< wire entries, new + retransmit (TX)
  std::uint64_t retransmits = 0;        ///< frames re-entered the wire (TX)
  std::uint64_t timeouts = 0;           ///< retransmission timer fired (TX)
  std::uint64_t wire_drops = 0;         ///< frames lost to faults (TX entry)
  std::uint64_t wire_corruptions = 0;   ///< frames corrupted by faults (TX entry)
  std::uint64_t checksum_failures = 0;  ///< corrupted frames caught (RX)
  std::uint64_t seq_discards = 0;       ///< duplicate/out-of-order frames (RX)
  std::uint64_t acks_sent = 0;          ///< acknowledgements sent (RX)
  std::uint64_t acks_dropped = 0;       ///< acks lost/corrupted by faults (RX)
  std::uint64_t delivered = 0;          ///< payloads pushed into the RX FIFO
  std::uint64_t recovered = 0;          ///< payloads handed back at failover
};

/// One exported reliability counter. Every report that lists reliability
/// counters (the fault report's per-link rows and totals, the recorder's
/// link rows) is generated from kReliabilityFields, so adding a counter is
/// one edit here. `link_row` selects the fields the recorder's per-link
/// telemetry rows carry; the fault report carries all of them.
struct ReliabilityField {
  const char* key;
  std::uint64_t ReliabilityCounters::*member;
  bool link_row;
};

inline constexpr ReliabilityField kReliabilityFields[] = {
    {"frames_sent", &ReliabilityCounters::frames_sent, false},
    {"retransmits", &ReliabilityCounters::retransmits, true},
    {"timeouts", &ReliabilityCounters::timeouts, true},
    {"wire_drops", &ReliabilityCounters::wire_drops, true},
    {"wire_corruptions", &ReliabilityCounters::wire_corruptions, true},
    {"checksum_failures", &ReliabilityCounters::checksum_failures, true},
    {"seq_discards", &ReliabilityCounters::seq_discards, true},
    {"acks_sent", &ReliabilityCounters::acks_sent, false},
    {"acks_dropped", &ReliabilityCounters::acks_dropped, false},
    {"delivered", &ReliabilityCounters::delivered, false},
    {"recovered", &ReliabilityCounters::recovered, false},
};

/// Per-link counters: utilization (delivery cycles) on the receiver side and
/// credit-window stalls on the sender side. Credit stalls are
/// span-accounted: the stall state computed during a Step holds for every
/// skipped cycle until the next Step (the wake contract guarantees a step at
/// every cycle the state could change).
struct LinkCounters {
  std::string name;
  Cycle latency = 0;
  std::uint64_t busy_cycles = 0;          ///< cycles a payload was delivered
  std::uint64_t credit_stall_cycles = 0;  ///< TX had data, credit window full
  /// Counters the link owns itself, set at attach time: fidelity-mode
  /// counters of a flow-capable sim::Link (exported under "fidelity") and
  /// the reliability counters of a sim::ReliableLink (exported as the
  /// kReliabilityFields link-row keys; zeros when null).
  const FidelityCounters* fidelity = nullptr;
  const ReliabilityCounters* reliability = nullptr;
  bool trace = false;
  std::vector<Cycle> deliveries;  ///< delivery cycles (packet-hop timeline)

  void OnDeliver(Cycle now) {
    CountAt(busy_cycles, now);
    if (trace) deliveries.push_back(now);
  }
  /// Bulk delivery at a modeled flow wake: `n` payloads, all at cycle `now`.
  void OnDeliverBulk(Cycle now, std::uint64_t n) {
    CountAt(busy_cycles, now, n);
    if (trace) {
      deliveries.insert(deliveries.end(), static_cast<std::size_t>(n), now);
    }
  }
  /// Called once per sender-side step with this cycle's stall state; closes
  /// the span [tx_from_, now) carried by the previous state.
  void OnTxCycle(Cycle now, bool stalled) {
    if (tx_stall_) CountSpan(credit_stall_cycles, tx_from_, now);
    tx_stall_ = stalled;
    tx_from_ = now;
  }
  void Finalize(Cycle total) {
    if (tx_stall_) CountSpan(credit_stall_cycles, tx_from_, total);
    tx_stall_ = false;
    tx_from_ = total;
  }
  void TrimTraceAtOrAfter(Cycle cycle) {
    while (!deliveries.empty() && deliveries.back() >= cycle) {
      deliveries.pop_back();
    }
  }

 private:
  Cycle tx_from_ = 0;
  bool tx_stall_ = false;
};

/// Per-kernel counters and activity intervals. A kernel is *active* on every
/// cycle it resumes (at most one resume per cycle); consecutive active
/// cycles coalesce into one trace interval. `blocked` cycles are derived at
/// export time as lifetime - active.
struct KernelProbe {
  std::string name;
  std::uint64_t resumes = 0;
  std::uint64_t done_cycle_p1 = 0;  ///< (cycle the kernel finished) + 1; 0 = ran to end
  bool trace = false;
  std::vector<std::pair<Cycle, Cycle>> intervals;  ///< [start, end) active spans

  void OnResume(Cycle now) {
    CountAt(resumes, now);
    if (!trace) return;
    if (open_ && now == open_end_) {
      ++open_end_;
    } else {
      if (open_) intervals.emplace_back(open_start_, open_end_);
      open_ = true;
      open_start_ = now;
      open_end_ = now + 1;
    }
  }
  void OnDone(Cycle now) { SetAt(done_cycle_p1, now, now + 1); }
  void Finalize(Cycle /*total*/) {
    if (open_) {
      intervals.emplace_back(open_start_, open_end_);
      open_ = false;
    }
  }
  void TrimTraceAtOrAfter(Cycle cycle) {
    if (open_) {
      if (open_start_ >= cycle) {
        open_ = false;
      } else if (open_end_ > cycle) {
        open_end_ = cycle;
      }
    }
    while (!intervals.empty() && intervals.back().first >= cycle) {
      intervals.pop_back();
    }
    if (!intervals.empty() && intervals.back().second > cycle) {
      intervals.back().second = cycle;
    }
  }

 private:
  bool open_ = false;
  Cycle open_start_ = 0;
  Cycle open_end_ = 0;
};

}  // namespace smi::obs

#endif  // SMI_OBS_COUNTERS_H
