#ifndef SMI_TRANSPORT_ARBITER_H
#define SMI_TRANSPORT_ARBITER_H

/// \file arbiter.h
/// The configurable polling scheme shared by CKS and CKR modules (§4.3):
/// the module examines one incoming connection per cycle; when the examined
/// connection has data available it keeps reading from it — up to R packets,
/// while data is available — before continuing to poll the other
/// connections. R trades single-stream bandwidth against per-connection
/// latency when many connections are active.
///
/// With R=1 and five incoming connections, a lone active source is serviced
/// once every 5 cycles — exactly the 5-cycle injection latency the paper
/// reports in Table 4.

#include <cassert>
#include <cstdint>
#include <vector>

#include "net/packet.h"
#include "obs/counters.h"
#include "sim/clock.h"
#include "sim/fifo.h"

namespace smi::transport {

using PacketFifo = sim::Fifo<net::Packet>;

class PollingArbiter {
 public:
  /// `r` is the paper's R parameter (maximum burst length per connection).
  explicit PollingArbiter(int r) : r_(r) {}
  // The inputs hold a pointer to `inputs_with_data_`: the arbiter stays put.
  PollingArbiter(const PollingArbiter&) = delete;
  PollingArbiter& operator=(const PollingArbiter&) = delete;

  /// Append an input connection. The FIFO reports its empty <-> non-empty
  /// transitions to this arbiter from then on, so it can feed no other one
  /// (ConfigError).
  void AddInput(PacketFifo& fifo) {
    fifo.AttachOccupancyCounter(&inputs_with_data_);
    inputs_.push_back(&fifo);
  }
  std::size_t num_inputs() const { return inputs_.size(); }

  /// Select the input to service at cycle `now`, or nullptr if the
  /// currently examined connection has no data (the pointer then advances —
  /// examining an empty connection costs the cycle).
  ///
  /// The caller must either consume one packet from the returned FIFO this
  /// cycle and then call `Serviced(now)`, or call `Stalled(now)` if its
  /// output was full (the arbiter then retries the same connection next
  /// cycle, since hardware cannot drop the packet it has already latched).
  ///
  /// Skipped cycles (the event-driven engine only steps a CK when an input
  /// can have data) are replayed as empty polls, so the connection pointer
  /// lands exactly where per-cycle polling would have left it — this keeps
  /// the R-polling cost model bit-identical under both schedulers.
  PacketFifo* Select(sim::Cycle now) {
    if (inputs_.empty()) return nullptr;
    if (polled_ && now > last_poll_ + 1) {
      FastForwardIdle(now - last_poll_ - 1);
    }
    polled_ = true;
    last_poll_ = now;
    // One connection is examined per cycle, including the replayed idle
    // cycles; the watermark counts them all in bulk.
    if (obs_ != nullptr) obs_->CountPollsTo(now + 1);
    PacketFifo* in = inputs_[index_];
    if (in->CanPop(now)) {
      if (obs_ != nullptr) obs_->OnHit(now);
      return in;
    }
    burst_ = 0;
    Advance();
    return nullptr;
  }

  /// Replay `idle` cycles in which every input was empty: each such cycle
  /// clears the burst counter and advances the connection pointer by one.
  void FastForwardIdle(sim::Cycle idle) {
    if (inputs_.empty() || idle == 0) return;
    burst_ = 0;
    index_ = (index_ + static_cast<std::size_t>(
                           idle % static_cast<sim::Cycle>(inputs_.size()))) %
             inputs_.size();
  }

  /// True if any input holds a committed or staged packet. Called after the
  /// cycle's commits, this is exactly "some input is poppable next cycle".
  /// O(1): the inputs keep `inputs_with_data_` current themselves.
  bool AnyInputHasData() const {
    assert(inputs_with_data_ == CountInputsWithData());
    return inputs_with_data_ > 0;
  }
  /// Inputs with occupancy > 0, by rescanning them (the count's reference).
  std::size_t CountInputsWithData() const {
    std::size_t n = 0;
    for (const PacketFifo* in : inputs_) n += in->occupancy() > 0 ? 1 : 0;
    return n;
  }
  /// Inputs with occupancy > 0, as maintained by the inputs.
  std::size_t inputs_with_data() const { return inputs_with_data_; }

  /// Append all inputs to `out` (for Component::DeclareWakeFifos).
  void AppendInputs(std::vector<const sim::FifoBase*>& out) const {
    for (const PacketFifo* in : inputs_) out.push_back(in);
  }

  void Serviced(sim::Cycle now) {
    if (obs_ != nullptr && burst_ == 0) obs_->OnBurstStart(now);
    if (++burst_ >= r_) {
      burst_ = 0;
      Advance();
    }
  }

  void Stalled(sim::Cycle now) {  // stay on the same connection
    if (obs_ != nullptr) obs_->OnStall(now);
  }

  int r() const { return r_; }

  /// Telemetry block of the owning CK; null unless collection is enabled.
  void set_counters(obs::CkCounters* counters) { obs_ = counters; }

 private:
  void Advance() { index_ = (index_ + 1) % inputs_.size(); }

  int r_;
  std::size_t index_ = 0;
  int burst_ = 0;
  bool polled_ = false;
  sim::Cycle last_poll_ = 0;
  std::vector<PacketFifo*> inputs_;
  std::size_t inputs_with_data_ = 0;
  obs::CkCounters* obs_ = nullptr;
};

}  // namespace smi::transport

#endif  // SMI_TRANSPORT_ARBITER_H
