#ifndef SMI_CORE_CHANNEL_H
#define SMI_CORE_CHANNEL_H

/// \file channel.h
/// Point-to-point transient channels (§3.1).
///
/// A channel is opened with a message length, datatype, peer rank, port and
/// communicator, and then accessed with a cycle-by-cycle streaming
/// interface: `co_await ch.Push(v)` / `co_await ch.Pop<T>()`. Push
/// accumulates elements into a network packet and forwards the packet to the
/// CKS when full (or when the message ends); Pop unpacks packets arriving
/// from the CKR. Both pipeline to II=1 and block on backpressure, exactly
/// the contract of SMI_Push/SMI_Pop.
///
/// Opening a channel is a zero-overhead operation: it only records where
/// packets should go (the eager protocol of §3.3 — no handshake, relying on
/// network backpressure).

#include <cstdint>
#include <string>

#include "core/types.h"
#include "net/packet.h"
#include "sim/kernel.h"

namespace smi::core {

using PacketFifo = sim::Fifo<net::Packet>;

/// Common bookkeeping for send/recv channels.
class ChannelBase {
 public:
  ChannelBase(int count, DataType type, int peer_global, int port)
      : count_(count), type_(type), peer_global_(peer_global), port_(port) {
    if (count < 0) throw ConfigError("message length must be >= 0");
  }

  int count() const { return count_; }
  DataType type() const { return type_; }
  int port() const { return port_; }
  /// Elements pushed/popped so far.
  int transferred() const { return transferred_; }
  /// True once the full message has been streamed; the channel is then
  /// implicitly closed (§3.1.1).
  bool closed() const { return transferred_ >= count_; }

  /// True if the channel already performed its one operation of cycle `now`
  /// (the II=1 guard). Used by the awaitables' wake hints: this is the only
  /// failure mode that clears without endpoint-FIFO activity.
  bool OpThisCycle(sim::Cycle now) const { return last_op_cycle_ == now; }

 protected:
  template <typename T>
  void CheckType() const {
    if (DataTypeOf<T>::value != type_) {
      throw ConfigError(std::string("channel datatype mismatch: declared ") +
                        DataTypeName(type_) + ", accessed as " +
                        DataTypeName(DataTypeOf<T>::value));
    }
  }

  int count_;
  DataType type_;
  int peer_global_;
  int port_;
  int transferred_ = 0;
  sim::Cycle last_op_cycle_ = ~sim::Cycle{0};
};

class SendChannel;
class RecvChannel;

namespace detail {

/// Awaitable for SendChannel::Push. Stages the element into the channel's
/// packet buffer; when the packet fills (or the message ends) it must also
/// secure the endpoint FIFO's write port, stalling on backpressure.
template <typename T>
struct PushAwaitable;
/// Awaitable for RecvChannel::Pop.
template <typename T>
struct PopAwaitable;
/// Awaitable for SendChannel::PushPacket (wide datapath).
template <typename T>
struct PushPacketAwaitable;
/// Awaitable for RecvChannel::PopPacket (wide datapath).
template <typename T>
struct PopPacketAwaitable;

}  // namespace detail

/// Send side of a transient channel (`SMI_Open_send_channel`).
class SendChannel : public ChannelBase {
 public:
  /// `src_global`/`dst_global` are wire-level ranks; `fifo` is the
  /// application endpoint bound to this channel's port.
  SendChannel(PacketFifo& fifo, int count, DataType type, int src_global,
              int dst_global, int port)
      : ChannelBase(count, type, dst_global, port),
        fifo_(&fifo),
        src_global_(src_global) {}

  /// Stream one element (SMI_Push). Blocking; pipelines to II=1.
  template <typename T>
  detail::PushAwaitable<T> Push(const T& value) {
    CheckType<T>();
    return detail::PushAwaitable<T>(this, value);
  }

  /// Wide-datapath extension: stream up to ElementsPerPacket(type) elements
  /// in a single cycle, producing one network packet. `n` may be smaller
  /// only for the final packet of the message.
  template <typename T>
  detail::PushPacketAwaitable<T> PushPacket(const T* values, int n) {
    CheckType<T>();
    if (n <= 0 || static_cast<std::size_t>(n) > ElementsPerPacket(type_)) {
      throw ConfigError("PushPacket element count out of range");
    }
    return detail::PushPacketAwaitable<T>(this, values, n);
  }

  /// Endpoint FIFO backing this channel (for blocker wake hints).
  const PacketFifo* endpoint_fifo() const { return fifo_; }

 private:
  template <typename T>
  friend struct detail::PushAwaitable;
  template <typename T>
  friend struct detail::PushPacketAwaitable;

  /// True if one element can be accepted at `now`; performs the staging and
  /// possible packet flush when it can.
  template <typename T>
  bool TryPush(sim::Cycle now, const T& value);
  template <typename T>
  bool TryPushPacket(sim::Cycle now, const T* values, int n);

  net::Packet MakeDataPacket(std::uint8_t count_in_packet) const;

  PacketFifo* fifo_;
  int src_global_;
  net::Packet staging_{};
  int staged_ = 0;
};

/// Receive side of a transient channel (`SMI_Open_recv_channel`).
class RecvChannel : public ChannelBase {
 public:
  RecvChannel(PacketFifo& fifo, int count, DataType type, int src_global,
              int port)
      : ChannelBase(count, type, src_global, port), fifo_(&fifo) {}

  /// Stream one element out of the channel (SMI_Pop).
  template <typename T>
  detail::PopAwaitable<T> Pop() {
    CheckType<T>();
    return detail::PopAwaitable<T>(this);
  }

  /// Wide-datapath extension: consume one whole network packet per cycle.
  /// Returns the number of elements written to `out` (the packet's count).
  template <typename T>
  detail::PopPacketAwaitable<T> PopPacket() {
    CheckType<T>();
    return detail::PopPacketAwaitable<T>(this);
  }

  /// Endpoint FIFO backing this channel (for blocker wake hints).
  const PacketFifo* endpoint_fifo() const { return fifo_; }

 private:
  template <typename T>
  friend struct detail::PopAwaitable;
  template <typename T>
  friend struct detail::PopPacketAwaitable;

  template <typename T>
  bool TryPop(sim::Cycle now, T& out);
  template <typename T>
  bool TryPopPacket(sim::Cycle now, T* out, int& n_out);

  PacketFifo* fifo_;
  net::Packet current_{};
  int consumed_in_packet_ = 0;
  bool has_packet_ = false;
};

// ---------------------------------------------------------------------------
// Implementation
// ---------------------------------------------------------------------------

template <typename T>
bool SendChannel::TryPush(sim::Cycle now, const T& value) {
  if (closed()) {
    throw ConfigError("SMI_Push beyond the declared message length (" +
                      std::to_string(count_) + ")");
  }
  if (last_op_cycle_ == now) return false;  // II=1: one element per cycle
  const int epp = static_cast<int>(ElementsPerPacket(type_));
  const bool will_flush =
      (staged_ + 1 == epp) || (transferred_ + 1 == count_);
  if (will_flush && !fifo_->CanPush(now)) return false;  // backpressure
  staging_.StoreBytes(static_cast<std::size_t>(staged_) * SizeOf(type_),
                      &value, sizeof(T));
  ++staged_;
  ++transferred_;
  if (will_flush) {
    net::Packet pkt = staging_;
    pkt.hdr = MakeDataPacket(static_cast<std::uint8_t>(staged_)).hdr;
    fifo_->Push(pkt, now);
    staged_ = 0;
  }
  last_op_cycle_ = now;
  return true;
}

template <typename T>
bool SendChannel::TryPushPacket(sim::Cycle now, const T* values, int n) {
  if (transferred_ + n > count_) {
    throw ConfigError("PushPacket beyond the declared message length");
  }
  if (staged_ != 0) {
    throw ConfigError("PushPacket on a channel with partially staged data");
  }
  if (last_op_cycle_ == now) return false;
  if (!fifo_->CanPush(now)) return false;
  net::Packet pkt = MakeDataPacket(static_cast<std::uint8_t>(n));
  for (int i = 0; i < n; ++i) {
    pkt.StoreBytes(static_cast<std::size_t>(i) * SizeOf(type_), &values[i],
                   sizeof(T));
  }
  fifo_->Push(pkt, now);
  transferred_ += n;
  last_op_cycle_ = now;
  return true;
}

inline net::Packet SendChannel::MakeDataPacket(
    std::uint8_t count_in_packet) const {
  net::Packet pkt;
  pkt.hdr.src = static_cast<std::uint16_t>(src_global_);
  pkt.hdr.dst = static_cast<std::uint16_t>(peer_global_);
  pkt.hdr.port = static_cast<std::uint8_t>(port_);
  pkt.hdr.op = net::OpType::kData;
  pkt.hdr.count = count_in_packet;
  return pkt;
}

template <typename T>
bool RecvChannel::TryPop(sim::Cycle now, T& out) {
  if (closed()) {
    throw ConfigError("SMI_Pop beyond the declared message length (" +
                      std::to_string(count_) + ")");
  }
  if (last_op_cycle_ == now) return false;
  if (!has_packet_) {
    if (!fifo_->CanPop(now)) return false;
    current_ = fifo_->Pop(now);
    consumed_in_packet_ = 0;
    has_packet_ = true;
  }
  current_.LoadBytes(
      static_cast<std::size_t>(consumed_in_packet_) * SizeOf(type_), &out,
      sizeof(T));
  ++consumed_in_packet_;
  ++transferred_;
  if (consumed_in_packet_ >= current_.hdr.count) has_packet_ = false;
  last_op_cycle_ = now;
  return true;
}

template <typename T>
bool RecvChannel::TryPopPacket(sim::Cycle now, T* out, int& n_out) {
  if (closed()) {
    throw ConfigError("PopPacket beyond the declared message length");
  }
  if (has_packet_) {
    throw ConfigError("PopPacket on a channel with partially consumed data");
  }
  if (last_op_cycle_ == now) return false;
  if (!fifo_->CanPop(now)) return false;
  const net::Packet pkt = fifo_->Pop(now);
  n_out = pkt.hdr.count;
  for (int i = 0; i < n_out; ++i) {
    pkt.LoadBytes(static_cast<std::size_t>(i) * SizeOf(type_), &out[i],
                  sizeof(T));
  }
  transferred_ += n_out;
  last_op_cycle_ = now;
  return true;
}

namespace detail {

/// What the four p2p awaitables share: each names its call and port in a
/// deadlock report, waits on its channel's endpoint FIFO, and re-polls next
/// cycle after the channel's one operation of this cycle (the II=1 guard,
/// the only failure that clears without endpoint-FIFO activity).
template <typename Derived, typename Channel>
struct ChannelAwaitable : sim::detail::AwaitableBase<Derived> {
  explicit ChannelAwaitable(Channel* c) : chan(c) {}
  Channel* chan;
  std::string Describe() const override {
    return std::string(Derived::kCall) + " on port " +
           std::to_string(chan->port());
  }
  void WatchFifos(std::vector<const sim::FifoBase*>& out) const override {
    out.push_back(chan->endpoint_fifo());
  }
  sim::Cycle NextPollCycle(sim::Cycle now) const override {
    return chan->OpThisCycle(now) ? now + 1 : sim::kNeverCycle;
  }
};

template <typename T>
struct PushAwaitable final
    : ChannelAwaitable<PushAwaitable<T>, SendChannel> {
  static constexpr const char* kCall = "SMI_Push";
  PushAwaitable(SendChannel* c, const T& v)
      : ChannelAwaitable<PushAwaitable<T>, SendChannel>(c), value(v) {}
  T value;
  bool TryComplete(sim::Cycle now) override {
    return this->chan->TryPush(now, value);
  }
  void await_resume() const noexcept {}
};

template <typename T>
struct PopAwaitable final : ChannelAwaitable<PopAwaitable<T>, RecvChannel> {
  static constexpr const char* kCall = "SMI_Pop";
  explicit PopAwaitable(RecvChannel* c)
      : ChannelAwaitable<PopAwaitable<T>, RecvChannel>(c) {}
  T value{};
  bool TryComplete(sim::Cycle now) override {
    return this->chan->TryPop(now, value);
  }
  T await_resume() noexcept { return value; }
};

template <typename T>
struct PushPacketAwaitable final
    : ChannelAwaitable<PushPacketAwaitable<T>, SendChannel> {
  static constexpr const char* kCall = "SMI_Push (wide)";
  PushPacketAwaitable(SendChannel* c, const T* vals, int count)
      : ChannelAwaitable<PushPacketAwaitable<T>, SendChannel>(c), n(count) {
    for (int i = 0; i < count; ++i) {
      values[static_cast<std::size_t>(i)] = vals[i];
    }
  }
  std::array<T, net::kPayloadBytes / sizeof(T)> values{};
  int n;
  bool TryComplete(sim::Cycle now) override {
    return this->chan->TryPushPacket(now, values.data(), n);
  }
  void await_resume() const noexcept {}
};

template <typename T>
struct PopPacketAwaitable final
    : ChannelAwaitable<PopPacketAwaitable<T>, RecvChannel> {
  static constexpr const char* kCall = "SMI_Pop (wide)";
  explicit PopPacketAwaitable(RecvChannel* c)
      : ChannelAwaitable<PopPacketAwaitable<T>, RecvChannel>(c) {}
  std::array<T, net::kPayloadBytes / sizeof(T)> values{};
  int n = 0;
  bool TryComplete(sim::Cycle now) override {
    return this->chan->TryPopPacket(now, values.data(), n);
  }
  /// Returns (pointer, count); the data lives in the awaitable frame.
  std::pair<const T*, int> await_resume() noexcept {
    return {values.data(), n};
  }
};

}  // namespace detail
}  // namespace smi::core

#endif  // SMI_CORE_CHANNEL_H
