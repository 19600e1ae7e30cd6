#ifndef SMI_SIM_LINK_H
#define SMI_SIM_LINK_H

/// \file link.h
/// Serial link model. A link moves one payload per cycle (at the fabric
/// clock, one 256-bit packet per cycle = 40 Gbit/s line rate) through a
/// fixed-latency pipeline, connecting the sending rank's network interface
/// FIFO to the receiving rank's. The QSFP transceivers on the paper's boards
/// implement error correction and credit-based flow control in the BSP
/// shell; accordingly the model is lossless and stalls (backpressures)
/// instead of dropping when the receiver FIFO is full.
///
/// Hybrid fidelity (see sim/fidelity.h and DESIGN.md §10). A link built
/// through an engine whose `FidelityPolicy` is not kCycle is *flow-capable*
/// and runs a two-mode state machine:
///
///  * *cycle mode* (initial): the cycle-accurate step below, while counting
///    consecutive-cycle accepted payloads. A credit stall, a delivery
///    blocked on a full RX FIFO, or simply an idle TX cycle resets the
///    count, so only a saturated (one payload per cycle) stream accumulates
///    evidence. After `FidelityPolicy::steady_window` such cycles the link
///    *promotes*.
///  * *flow mode*: per-cycle stepping stops. The link suspends its FIFO
///    wakes, self-wakes every `interval` cycles, and moves the interval's
///    worth of payloads in bulk using the analytic plan
///    (`PlanFlowTransfer`): accepts are bounded by the elapsed cycles,
///    committed TX occupancy and the credit/backlog window; delivery stamps
///    use the link latency. The wake *demotes* back to cycle mode on
///    congestion (a matured payload cannot be delivered — RX backpressure
///    the analytic model cannot time), on drain (TX ran dry — the tail of a
///    stream is re-timed exactly), at collective sync points
///    (`FlowLinkControl::DemoteForSync`), and for the whole duration of any
///    parallel-scheduler run (`SetForcedCycle`).
///
/// Every other link — built without an engine, or under kCycle — is
/// cycle-only: it never registers with the engine and keeps no steady-state
/// evidence, so cycle accuracy pays nothing for the flow path.
///
/// The interval is clamped to min(tx, rx FIFO capacity) - 1 so a bulk
/// transfer can never move more than the cycle-accurate link could have:
/// the producer refills at most one payload per cycle, so an interval of
/// capacity-1 keeps the sawtooth occupancy strictly inside the FIFO.
///
/// In-flight payloads live in a contiguous power-of-two ring with
/// *batch-compressed* ready stamps (payload i of a batch matures at
/// first_ready + i*step), so a modeled wake moves a whole interval's worth
/// of payloads with span copies (Fifo::PopBulkModeled/PushBulkModeled) and
/// O(1) batch bookkeeping instead of per-payload queue operations — the
/// flow path's asymptotic advantage over cycle stepping comes from this.
/// The ring grows on demand, so an idle link holds no payload storage.
///
/// Fault-plan links never use this class: the fabric pins any link whose
/// fault spec is active to the cycle-accurate `ReliableLink` at build time
/// (transport/fabric.cpp), so injected faults are always timed exactly.
///
/// Error bound: in saturated steady state the analytic plan reproduces the
/// cycle-accurate schedule exactly (latest-consistent pops coincide with
/// the 1/cycle schedule). Divergence only accrues at flow→cycle boundaries,
/// bounded by `interval` cycles per demotion per link; the differential
/// tests (tests/sim/fidelity_differential_test.cpp) assert the end-to-end
/// bound of ≤2% total cycles with bit-identical payloads.

#include <algorithm>
#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "obs/recorder.h"
#include "sim/clock.h"
#include "sim/component.h"
#include "sim/engine.h"
#include "sim/fidelity.h"
#include "sim/fifo.h"
#include "sim/journal.h"

namespace smi::sim {

/// The credit window is `latency_ + 1` slots and `Step` delivers *before* it
/// accepts, so a payload delivered at cycle `c` frees a credit slot that a
/// payload popped from TX in the same `Step` can occupy at `c` — the window
/// sustains one payload per cycle even when permanently full. The split-mode
/// (CutLink) implementation below reproduces this ordering exactly: the
/// barrier-predicted delivery at the epoch-start cycle is applied by
/// `StepTx` before its accept check.
template <typename T>
class Link final : public Component, public CutLink, public FlowLinkControl {
 public:
  /// Cycle-only link. `latency` is the pipeline depth in cycles
  /// (serialization + transceiver + deserialization), i.e. the cycle count
  /// between a payload leaving the TX FIFO and arriving in the RX FIFO,
  /// exclusive of FIFO latencies.
  Link(std::string name, Fifo<T>& tx, Fifo<T>& rx, Cycle latency)
      : Component(std::move(name)), tx_(&tx), rx_(&rx), latency_(latency) {}

  /// Link under `engine.config().fidelity`: flow-capable, and registered
  /// with the engine, unless the policy is kCycle.
  Link(Engine& engine, std::string name, Fifo<T>& tx, Fifo<T>& rx,
       Cycle latency)
      : Link(std::move(name), tx, rx, latency) {
    const FidelityPolicy& policy = engine.config().fidelity;
    if (!policy.enabled()) return;
    engine_ = &engine;
    interval_ = policy.flow_interval;
    const Cycle tx_cap = static_cast<Cycle>(tx.capacity());
    const Cycle rx_cap = static_cast<Cycle>(rx.capacity());
    if (tx_cap > 0 && interval_ > tx_cap - 1) interval_ = tx_cap - 1;
    if (rx_cap > 0 && interval_ > rx_cap - 1) interval_ = rx_cap - 1;
    // Below two cycles per wake the model cannot outrun per-cycle stepping.
    promotable_ = interval_ >= 2;
    steady_window_ = policy.steady_window > 0 ? policy.steady_window : 1;
    promote_after_ =
        policy.mode == FidelityMode::kFlow ? 1 : steady_window_;
    engine.RegisterFlowLink(this);
  }

  void Step(Cycle now) override {
    if (flow_mode_) {
      // The synchronous scheduler steps every cycle; modeled wakes only
      // fire when due, keeping all schedulers on the same wake schedule.
      if (now >= flow_due_) FlowStep(now);
      return;
    }
    // Deliver the head of the pipeline if it has matured and the RX FIFO can
    // accept it. If the RX FIFO is full the pipeline stalls: hardware flow
    // control guarantees losslessness.
    const bool head_ready = flight_count_ > 0 && FrontReady() <= now;
    const bool delivers = head_ready && rx_->CanPush(now);
    if (delivers) {
      rx_->Push(FlightPop(), now);
      CountAt(delivered_, now);
      if (obs_ != nullptr) obs_->OnDeliver(now);
    }
    // Accept at most one payload per cycle from the TX FIFO. The stall
    // condition bounds the number of payloads in flight to the pipeline
    // depth, mirroring the credit window of the physical transceiver.
    const bool has_data = tx_->CanPop(now);
    const bool accept =
        has_data && flight_count_ < static_cast<std::size_t>(latency_) + 1;
    if (accept) FlightPush(tx_->Pop(now), now + latency_);
    // Credit stall: data waiting but the window is full. The state computed
    // here holds for every cycle until the next step (the wake contract
    // guarantees a step whenever it could change).
    if (obs_ != nullptr) obs_->OnTxCycle(now, has_data && !accept);
    if (engine_ != nullptr) {
      // A matured payload blocked by RX backpressure is congestion.
      DetectSteadyState(now, accept && (delivers || !head_ready));
    }
  }

  /// Event-driven wake contract. Activity on either FIFO wakes the link;
  /// the only thing that can enable an action without FIFO activity is the
  /// pipeline head maturing, so that is the lone timed wake. A matured head
  /// stalled on a full RX FIFO needs no timer: only an RX pop (activity) can
  /// unstall it, and a productive step touches tx/rx itself, which re-wakes
  /// the link for the following cycle. In flow mode the FIFO wakes are
  /// suspended, so the modeled wake must stay finite.
  void DeclareWakeFifos(std::vector<const FifoBase*>& out) const override {
    out.push_back(tx_);
    out.push_back(rx_);
  }
  Cycle NextSelfWake(Cycle now) const override {
    if (flow_mode_) return flow_due_ > now ? flow_due_ : now + 1;
    return NextRxSelfWake(now);
  }

  std::uint64_t delivered() const { return delivered_; }
  Cycle latency() const { return latency_; }

  void AttachObservability(obs::Recorder& recorder) override {
    obs_ = recorder.AddLink(name(), latency_);
    if (engine_ != nullptr) obs_->fidelity = &counters_;
  }

  // --- FlowLinkControl (called only on registered, flow-capable links) ---

  void DemoteForSync(Cycle now) override {
    if (!flow_mode_) return;
    Demote(now, &obs::FidelityCounters::demotions_sync);
    // Called from a kernel (phase 1), outside this component's own Step:
    // request the step the re-entered cycle mode needs.
    engine_->WakeComponentAt(*this, now + 1);
  }
  void DemoteForDrain(Cycle now) override {
    if (!flow_mode_) return;
    Demote(now, &obs::FidelityCounters::demotions_drain);
    // Called from another link's Step (phase 2): request our own step.
    engine_->WakeComponentAt(*this, now + 1);
    CascadeDrain(now);
  }
  void PromoteForCascade(Cycle now) override {
    if (flow_mode_ || !promotable_ || forced_cycle_) return;
    // Same evidence bar as the fast (backlog) promotion: armed and a few
    // consecutive accepts. On a saturated chain every link trails the
    // organically-promoting one by at most the pipeline latency, so the
    // whole chain passes this bar and promotes in the same cycle.
    if (!fast_promote_ || steady_accepts_ < kFastPromoteAccepts) return;
    Promote(now);
    CascadePromote(now);
  }
  const void* flow_tx_fifo() const override { return tx_; }
  const void* flow_rx_fifo() const override { return rx_; }
  void SetForcedCycle(bool forced) override {
    if (forced && flow_mode_) {
      // The parallel run prepares (and initially schedules) every
      // component after this call, so no explicit wake is needed.
      Demote(engine_->now(), &obs::FidelityCounters::demotions_forced);
    }
    forced_cycle_ = forced;
  }
  const obs::FidelityCounters& fidelity_counters() const override {
    return counters_;
  }
  const std::string& flow_link_name() const override { return name(); }
  bool in_flow_mode() const override { return flow_mode_; }

  // --- CutLink implementation (parallel scheduler; see component.h) ------
  //
  // During parallel runs the engine pins flow-capable links to cycle mode
  // (SetForcedCycle), so the split halves only ever see cycle-mode state.
  // In split mode the in-flight ring becomes the receiver-side pending
  // queue and the sender side stages freshly accepted payloads in
  // `staging_` until the next barrier. `tx_outstanding_` is the sender's
  // (stale) view of the credit window: exact at each barrier, decremented
  // once if the barrier could predict a delivery at the epoch-start cycle
  // itself, and otherwise only growing — so it over-estimates occupancy and
  // can never allow an accept the fused Step would have stalled.

  Cycle link_latency() const override { return latency_; }

  void BeginSplit() override {
    tx_outstanding_ = flight_count_;
    d0_cycle_ = kNeverCycle;
    staging_.clear();
  }

  void EndSplit() override {
    for (Slot& slot : staging_) {
      FlightPush(std::move(slot.payload), slot.ready_at);
    }
    staging_.clear();
  }

  void StepTx(Cycle now) override {
    if (d0_cycle_ != kNeverCycle && now >= d0_cycle_) {
      // The delivery predicted for the epoch-start cycle has happened by
      // now; apply the credit before the accept check, matching the fused
      // Step's deliver-then-accept order.
      --tx_outstanding_;
      d0_cycle_ = kNeverCycle;
    }
    const bool has_data = tx_->CanPop(now);
    const bool accept = has_data && tx_outstanding_ <
                                        static_cast<std::size_t>(latency_) + 1;
    if (accept) {
      staging_.push_back(Slot{tx_->Pop(now), now + latency_});
      ++tx_outstanding_;
    }
    // The epoch slack guarantees the accept decision matches the fused Step,
    // so `has_data && !accept` is exactly the fused credit-stall state.
    if (obs_ != nullptr) obs_->OnTxCycle(now, has_data && !accept);
  }

  void StepRx(Cycle now) override {
    if (flight_count_ > 0 && FrontReady() <= now && rx_->CanPush(now)) {
      rx_->Push(FlightPop(), now);
      CountAt(delivered_, now);
      if (obs_ != nullptr) obs_->OnDeliver(now);
    }
  }

  Cycle ExchangeAtBarrier(Cycle epoch_start) override {
    // Hand last epoch's accepted payloads to the receiver side...
    for (Slot& slot : staging_) {
      FlightPush(std::move(slot.payload), slot.ready_at);
    }
    staging_.clear();
    // ...and return all delivery credits to the sender: everything accepted
    // but not yet delivered is exactly what sits in the pending queue.
    tx_outstanding_ = flight_count_;
    // The delivery at the epoch-start cycle is decided entirely by state
    // committed before the barrier, so predict it exactly.
    const bool d0 = flight_count_ > 0 && FrontReady() <= epoch_start &&
                    rx_->CanPush(epoch_start);
    d0_cycle_ = d0 ? epoch_start : kNeverCycle;
    // Credit slack: with `window` payloads outstanding after the predicted
    // delivery and at most one accept per cycle, the sender's stale count
    // cannot wrongly hit the window cap for this many cycles.
    const std::size_t cap = static_cast<std::size_t>(latency_) + 1;
    const std::size_t window = tx_outstanding_ - (d0 ? 1 : 0);
    return cap > window ? static_cast<Cycle>(cap - window) : Cycle{1};
  }

  const FifoBase* tx_wake_fifo() const override { return tx_; }
  const FifoBase* rx_wake_fifo() const override { return rx_; }
  Cycle NextRxSelfWake(Cycle now) const override {
    if (flight_count_ > 0 && FrontReady() > now) return FrontReady();
    return kNeverCycle;
  }

 private:
  struct Slot {
    T payload;
    Cycle ready_at;
  };

  /// Ready stamps of a run of consecutive in-flight payloads: payload i of
  /// the batch matures at first_ready + i*step. Cycle mode appends one
  /// payload per cycle (extending a step-1 batch); a modeled wake appends
  /// the whole bulk accept as at most two batches — the clamped prefix
  /// maturing together (step 0) and the per-cycle remainder (step 1).
  struct Batch {
    Cycle first_ready;
    std::uint64_t count;
    std::uint32_t step;
  };

  /// Steady-state detector feeding the promotion decision. `steady` is an
  /// accept with no delivery blocked by RX backpressure this cycle.
  void DetectSteadyState(Cycle now, bool steady) {
    if (!forced_cycle_) ++counters_.stepped_cycles;
    if (!steady) {
      // A stall, a blocked delivery or an idle TX cycle all reset the
      // steady-state evidence: only a stream that accepts on *consecutive*
      // cycles is bandwidth-bound. A trickle (ping-pong, rendezvous
      // traffic) keeps resetting and stays cycle-accurate, which is what
      // its latency-sensitive timing needs.
      steady_accepts_ = 0;
      return;
    }
    ++steady_accepts_;
    // Fast path: a committed TX backlog of a full interval while accepting
    // every cycle proves saturation outright — a trickle can never bank
    // that much — and guarantees the first modeled wake has a whole
    // interval's worth to move. This is what keeps promotion from sweeping
    // serially down a chain: when an upstream link promotes, its bulk
    // commits hand every downstream link the backlog evidence within a few
    // cycles instead of a fresh steady window each.
    const bool saturated =
        fast_promote_ && steady_accepts_ >= kFastPromoteAccepts &&
        tx_->ModeledPopBudget() >= static_cast<std::uint64_t>(interval_);
    if (promotable_ && !forced_cycle_ &&
        (steady_accepts_ >= promote_after_ || saturated)) {
      Promote(now);
      CascadePromote(now);
    }
  }

  /// Modeled wake: bulk-deliver matured payloads, bulk-accept the elapsed
  /// interval's worth, or demote if the model's assumptions broke. All
  /// payload movement is span copies; per-payload work is zero.
  void FlowStep(Cycle now) {
    const Cycle elapsed = now - last_flow_wake_;
    counters_.modeled_cycles += elapsed;

    // 1. Deliver everything matured, bounded by committed RX space. A
    //    step-1 batch can be split by the maturity horizon or the space
    //    bound; whatever remains stays at the front for the next wake.
    std::uint64_t space = rx_->ModeledPushBudget();
    std::uint64_t delivered_now = 0;
    while (space > 0 && flight_count_ > 0) {
      Batch& b = batches_.front();
      if (b.first_ready > now) break;
      std::uint64_t m = b.count;
      if (b.step != 0) {
        const std::uint64_t mature =
            static_cast<std::uint64_t>(now - b.first_ready) + 1;
        if (mature < m) m = mature;
      }
      if (m > space) m = space;
      FlightDeliverSpan(static_cast<std::size_t>(m), now);
      if (b.step != 0) b.first_ready += static_cast<Cycle>(m);
      b.count -= m;
      if (b.count == 0) batches_.pop_front();
      space -= m;
      delivered_now += m;
    }
    if (delivered_now > 0) {
      CountAt(delivered_, now, delivered_now);
      if (obs_ != nullptr) obs_->OnDeliverBulk(now, delivered_now);
    }
    const bool rx_congested = flight_count_ > 0 && FrontReady() <= now;

    // 2. Accept the elapsed interval's worth of payloads in bulk.
    const std::size_t backlog_cap =
        static_cast<std::size_t>(latency_) + 1 +
        static_cast<std::size_t>(interval_);
    const std::uint64_t window_free =
        flight_count_ < backlog_cap
            ? static_cast<std::uint64_t>(backlog_cap - flight_count_)
            : 0;
    const FlowBatch batch = PlanFlowTransfer(last_flow_wake_, now,
                                             tx_->ModeledPopBudget(),
                                             window_free);
    if (batch.accepts > 0) {
      const std::size_t n = static_cast<std::size_t>(batch.accepts);
      if (flight_count_ + n > flight_.size()) FlightGrow(n);
      const std::size_t pos = (flight_head_ + flight_count_) & flight_mask_;
      const std::size_t first = std::min(n, flight_.size() - pos);
      tx_->PopBulkModeled(&flight_[pos], first, now);
      if (n > first) tx_->PopBulkModeled(&flight_[0], n - first, now);
      flight_count_ += n;
      // Ready stamps are max(first_pop + i + latency, now + 1): the
      // already-due prefix matures together next cycle (step 0), the rest
      // follows the per-cycle pop schedule (step 1).
      const Cycle r0 = batch.first_pop + latency_;
      if (r0 > now) {
        batches_.push_back(Batch{r0, batch.accepts, 1});
      } else {
        std::uint64_t clamped = static_cast<std::uint64_t>(now - r0) + 1;
        if (clamped > batch.accepts) clamped = batch.accepts;
        batches_.push_back(Batch{now + 1, clamped, 0});
        if (batch.accepts > clamped) {
          batches_.push_back(Batch{now + 1, batch.accepts - clamped, 1});
        }
      }
    }

    last_flow_wake_ = now;
    flow_due_ = NextFlowWake(now);

    // 3. Demotion triggers. Congestion: backpressure needs exact timing.
    // Drain: the TX side ran dry — either outright (no accepts) or through
    // a partial batch that emptied the committed backlog (a stream tail).
    // Demoting on the partial batch, not one wake later, re-times the tail
    // cycle-accurately at once instead of letting the last payloads wait a
    // full interval at every hop; an idle link then costs nothing under the
    // event-driven scheduler. A partial batch with backlog left behind is
    // NOT a drain — the credit window capped it and the backlog is exactly
    // the saturated regime the model is for.
    if (rx_congested) {
      Demote(now, &obs::FidelityCounters::demotions_congestion);
      return;
    }
    if (batch.accepts == 0 || (batch.accepts < batch.interval_budget &&
                               tx_->ModeledPopBudget() == 0)) {
      // Not a tail if a flow-mode upstream feeds our TX FIFO: its bulk
      // delivery commits at its own wake and only becomes visible one cycle
      // later, so the committed backlog lags a full wake right after a
      // (cascaded) promotion. Demoting here would re-serialize the chain —
      // every hop re-earning a steady window one interval after the last.
      // The genuine tail still reaches us as the upstream's own drain
      // demotion cascades downstream.
      if (Upstream() == nullptr || !Upstream()->in_flow_mode()) {
        Demote(now, &obs::FidelityCounters::demotions_drain);
        CascadeDrain(now);
        return;
      }
    }
  }

  /// The flow link delivering into our TX FIFO, if any. Topology is static
  /// after construction, so the registry scan is done once and cached.
  FlowLinkControl* Upstream() {
    if (!upstream_resolved_) {
      upstream_resolved_ = true;
      for (FlowLinkControl* peer : engine_->flow_links()) {
        if (peer != this && peer->flow_rx_fifo() == tx_) {
          upstream_ = peer;
          break;
        }
      }
    }
    return upstream_;
  }

  /// Promote the downstream neighbour(s) in the same cycle (see
  /// FlowLinkControl::PromoteForCascade); recursion sweeps the whole chain.
  void CascadePromote(Cycle now) {
    for (FlowLinkControl* peer : engine_->flow_links()) {
      if (peer != this && !peer->in_flow_mode() &&
          peer->flow_tx_fifo() == rx_) {
        peer->PromoteForCascade(now);
      }
    }
  }

  /// Propagate a drain demotion to the flow links fed by our RX FIFO (see
  /// FlowLinkControl::DemoteForDrain). Terminates on any topology: a link
  /// leaves flow mode before cascading, so no link is visited twice.
  void CascadeDrain(Cycle now) {
    for (FlowLinkControl* peer : engine_->flow_links()) {
      if (peer != this && peer->in_flow_mode() &&
          peer->flow_tx_fifo() == rx_) {
        peer->DemoteForDrain(now);
      }
    }
  }

  /// Modeled wakes are phase-locked to global multiples of the interval
  /// rather than free-running from the promotion cycle: chained flow-mode
  /// links then wake on the same cycles and each wake sees exactly one
  /// upstream bulk commit, instead of a phase beat where a wake can land
  /// just before the upstream commit, observe an empty FIFO, and demote
  /// spuriously (thrash).
  Cycle NextFlowWake(Cycle now) const {
    return now - (now % interval_) + interval_;
  }

  void Promote(Cycle now) {
    flow_mode_ = true;
    ++counters_.promotions;
    NoteTransition(now);
    // A full-window promotion after a congestion demotion proves the region
    // calm again; re-arm the fast path.
    if (steady_accepts_ >= promote_after_) fast_promote_ = true;
    steady_accepts_ = 0;
    promoted_at_ = now;
    last_flow_wake_ = now;
    flow_due_ = NextFlowWake(now);
    engine_->SetComponentFifoWakeSuspended(*this, true);
  }

  void Demote(Cycle now, std::uint64_t obs::FidelityCounters::* cause) {
    flow_mode_ = false;
    ++(counters_.*cause);
    NoteTransition(now);
    steady_accepts_ = 0;
    // Any demotion disarms the fast (backlog-evidence) promotion until a
    // full-window promotion proves sustained traffic again. The backlog a
    // stream tail leaves behind is exactly the false positive this guards
    // against: it banks a full interval without any new input, and
    // re-promoting on it bounces every remaining payload through another
    // flow/cycle boundary (and, through the drain cascade, re-demotes the
    // whole downstream chain each bounce).
    fast_promote_ = false;
    // Re-promotion hysteresis: after any demotion, even kFlow links must
    // re-earn a full steady window. Without this a kFlow link promotes on
    // the first accept after every drain and thrashes through the stream
    // front, where traffic arrives in sub-window spurts.
    if (cause == &obs::FidelityCounters::demotions_drain) {
      // Drain-churn backoff. While a long chain's tail collapses, the drain
      // front sweeps downstream in waves: a link re-earns a full steady
      // window from the not-yet-drained backlog behind the front, re-
      // promotes, and is cascade-demoted again a few hundred cycles later —
      // each bounce re-times another interval of the tail late. Doubling
      // the required window after every short-residency drain demotion
      // caps the bounces per link at O(log tail) instead of O(tail/window),
      // while a long flow residency (a genuine new stream) resets the bar.
      if (now - promoted_at_ >= 4 * steady_window_) drain_backoff_ = 1;
      promote_after_ = steady_window_ * drain_backoff_;
      if (drain_backoff_ < kDrainBackoffCap) drain_backoff_ *= 2;
    } else {
      promote_after_ = steady_window_;
      drain_backoff_ = 1;
    }
    engine_->SetComponentFifoWakeSuspended(*this, false);
  }

  void NoteTransition(Cycle now) {
    if (now - thrash_window_start_ >= kFidelityThrashWindow) {
      thrash_window_start_ = now;
      thrash_transitions_ = 0;
      thrash_warned_ = false;
    }
    ++thrash_transitions_;
    if (thrash_transitions_ > kFidelityThrashLimit && !thrash_warned_) {
      thrash_warned_ = true;
      ++counters_.thrash_warnings;
      detail::WarnFidelityThrash(name(), thrash_transitions_, now);
    }
  }

  // --- In-flight ring ---------------------------------------------------

  Cycle FrontReady() const { return batches_.front().first_ready; }

  /// Append one payload maturing at `ready`, extending the tail batch when
  /// the stamp continues its arithmetic run (the cycle-mode common case).
  void FlightPush(T payload, Cycle ready) {
    if (flight_count_ + 1 > flight_.size()) FlightGrow(1);
    flight_[(flight_head_ + flight_count_) & flight_mask_] =
        std::move(payload);
    ++flight_count_;
    if (!batches_.empty()) {
      Batch& b = batches_.back();
      if ((b.step == 1 && ready == b.first_ready + b.count) ||
          (b.step == 0 && ready == b.first_ready)) {
        ++b.count;
        return;
      }
      if (b.count == 1 && ready == b.first_ready) {
        b.step = 0;
        ++b.count;
        return;
      }
    }
    batches_.push_back(Batch{ready, 1, 1});
  }

  /// Pop the head payload (cycle mode / split RX half).
  T FlightPop() {
    T payload = std::move(flight_[flight_head_ & flight_mask_]);
    ++flight_head_;
    --flight_count_;
    Batch& b = batches_.front();
    b.first_ready += b.step;
    if (--b.count == 0) batches_.pop_front();
    return payload;
  }

  /// Bulk-deliver `m` head payloads into RX as span copies. Batch
  /// bookkeeping is the caller's (FlowStep) responsibility.
  void FlightDeliverSpan(std::size_t m, Cycle now) {
    const std::size_t pos = flight_head_ & flight_mask_;
    const std::size_t first = std::min(m, flight_.size() - pos);
    rx_->PushBulkModeled(&flight_[pos], first, now);
    if (m > first) rx_->PushBulkModeled(&flight_[0], m - first, now);
    flight_head_ += m;
    flight_count_ -= m;
  }

  /// Grow the ring to the next power of two that fits `need` more payloads.
  /// The ring starts empty and grows on demand: to the credit window in
  /// cycle mode, plus one interval of backlog in flow mode.
  void FlightGrow(std::size_t need) {
    std::size_t size = std::max<std::size_t>(flight_.size(), 2);
    while (size < flight_count_ + need) size <<= 1;
    std::vector<T> next(size);
    for (std::size_t i = 0; i < flight_count_; ++i) {
      next[i] = std::move(flight_[(flight_head_ + i) & flight_mask_]);
    }
    flight_ = std::move(next);
    flight_head_ = 0;
    flight_mask_ = size - 1;
  }

  Fifo<T>* tx_;
  Fifo<T>* rx_;
  Cycle latency_;

  // In-flight payloads: a contiguous ring plus batch-compressed ready stamps.
  std::vector<T> flight_;
  std::size_t flight_mask_ = 0;
  std::size_t flight_head_ = 0;  ///< monotone; mask on access
  std::size_t flight_count_ = 0;
  std::deque<Batch> batches_;
  std::uint64_t delivered_ = 0;
  obs::LinkCounters* obs_ = nullptr;

  // Split-mode state (see CutLink methods).
  std::deque<Slot> staging_;
  std::size_t tx_outstanding_ = 0;
  Cycle d0_cycle_ = kNeverCycle;

  // Flow-mode state; untouched by cycle-only links (`engine_` null).
  /// Consecutive accepts required by the fast (backlog-evidence) promotion.
  static constexpr Cycle kFastPromoteAccepts = 4;
  /// Drain-churn backoff: promote_after_ multiplier while the stream tail
  /// collapses (doubles per short-residency drain demotion, capped).
  static constexpr Cycle kDrainBackoffCap = 16;
  Engine* engine_ = nullptr;  ///< set only for flow-capable links
  Cycle interval_ = 0;        ///< effective modeled-wake interval
  Cycle steady_window_ = 1;   ///< policy steady window, at least 1
  Cycle promote_after_ = 1;   ///< undisturbed accepts before promotion
  bool promotable_ = false;
  bool fast_promote_ = true;  ///< backlog promotion armed (off after demotion)
  Cycle drain_backoff_ = 1;
  Cycle promoted_at_ = 0;  ///< cycle of the last promotion (residency)
  FlowLinkControl* upstream_ = nullptr;  ///< flow link feeding tx_ (cached)
  bool upstream_resolved_ = false;
  bool flow_mode_ = false;
  bool forced_cycle_ = false;  ///< pinned by a parallel run
  Cycle steady_accepts_ = 0;   ///< undisturbed accepts since last disturbance
  Cycle last_flow_wake_ = 0;
  Cycle flow_due_ = 0;
  Cycle thrash_window_start_ = 0;
  std::uint64_t thrash_transitions_ = 0;
  bool thrash_warned_ = false;
  obs::FidelityCounters counters_;
};

}  // namespace smi::sim

#endif  // SMI_SIM_LINK_H
