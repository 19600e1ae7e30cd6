#ifndef SMI_CORE_COLLECTIVE_H
#define SMI_CORE_COLLECTIVE_H

/// \file collective.h
/// Application-side collective channels (§3.2). Each collective has its own
/// channel type and communication primitive, mirroring the paper's API:
///
///   SMI_BChannel / SMI_Bcast   -> BcastChannel::Bcast
///   SMI_RChannel / SMI_Reduce  -> ReduceChannel::Reduce
///   ScatterChannel::Scatter, GatherChannel::Gather
///
/// A channel open is recorded locally and announced to the rank's support
/// kernel with a config token on the first primitive call; root and
/// non-root roles both use the same call sequence where the paper defines
/// one (Bcast, Reduce), and the documented asymmetric sequences for Scatter
/// and Gather (the root streams count*comm_size elements, non-roots stream
/// count).
///
/// Every primitive has the same shape: the rank may hand one element to its
/// support kernel and may take one result back. Each channel method decides
/// which of the two its call does and returns the one awaitable,
/// detail::CollCall.

#include <string>

#include "core/coll_token.h"
#include "core/comm.h"
#include "core/types.h"
#include "sim/kernel.h"

namespace smi::core {

namespace detail {
template <typename T> struct CollCall;
}  // namespace detail

/// Base for all collective channels: owns the config token and the FIFOs to
/// the support kernel.
class CollChannelBase {
 public:
  CollChannelBase(CollConfig config, int my_global, TokenFifo& app_in,
                  TokenFifo& app_out)
      : config_(std::move(config)),
        app_in_(&app_in),
        app_out_(&app_out) {
    my_comm_ = -1;
    for (std::size_t i = 0; i < config_.comm_global.size(); ++i) {
      if (config_.comm_global[i] == my_global) {
        my_comm_ = static_cast<int>(i);
        break;
      }
    }
    if (my_comm_ < 0) {
      throw ConfigError("collective opened by a rank outside its "
                        "communicator");
    }
    if (config_.root_comm < 0 ||
        config_.root_comm >= static_cast<int>(config_.comm_global.size())) {
      throw ConfigError("collective root rank out of range");
    }
  }

  bool is_root() const { return my_comm_ == config_.root_comm; }
  int count() const { return config_.count; }
  DataType type() const { return config_.type; }
  int comm_size() const {
    return static_cast<int>(config_.comm_global.size());
  }
  int my_comm_rank() const { return my_comm_; }
  int root_comm_rank() const { return config_.root_comm; }

  /// Push the config token if not yet announced; returns false while the
  /// FIFO cannot accept it this cycle.
  bool EnsureConfigSent(sim::Cycle now) {
    if (config_sent_) return true;
    if (!app_in_->CanPush(now)) return false;
    app_in_->Push(CollToken(config_), now);
    config_sent_ = true;
    return true;
  }

  TokenFifo& app_in() { return *app_in_; }
  TokenFifo& app_out() { return *app_out_; }
  const TokenFifo& app_in() const { return *app_in_; }
  const TokenFifo& app_out() const { return *app_out_; }

 protected:
  template <typename T>
  void CheckType() const {
    if (DataTypeOf<T>::value != config_.type) {
      throw ConfigError(std::string("collective datatype mismatch: declared ") +
                        DataTypeName(config_.type) + ", accessed as " +
                        DataTypeName(DataTypeOf<T>::value));
    }
  }

  /// One primitive call: it sends a copy of `snd` if `sends`, and pops a
  /// result into *rcv if `receives`.
  template <typename T>
  detail::CollCall<T> Call(bool sends, const T& snd, bool receives, T* rcv) {
    CheckType<T>();
    return detail::CollCall<T>(this, sends, snd, receives, rcv);
  }

  /// Scatter and Gather: true while the root's calls serve its own segment
  /// (the root makes count calls per communicator rank, in rank order).
  bool InRootWindow() const { return calls_ / count() == config_.root_comm; }

  CollConfig config_;
  TokenFifo* app_in_;
  TokenFifo* app_out_;
  int my_comm_;
  bool config_sent_ = false;
  int calls_ = 0;

 private:
  template <typename T> friend struct detail::CollCall;

  Element PopElement(sim::Cycle now) {
    CollToken tok = app_out_->Pop(now);
    if (!std::holds_alternative<Element>(tok)) {
      throw ConfigError("collective channel received a non-element token");
    }
    return std::get<Element>(tok);
  }
};

/// SMI_BChannel: the root streams `count` elements to every other rank in
/// the communicator; every rank calls Bcast exactly `count` times.
class BcastChannel : public CollChannelBase {
 public:
  using CollChannelBase::CollChannelBase;

  /// SMI_Bcast: the root pushes *data toward the other ranks; non-roots
  /// receive into *data.
  template <typename T>
  detail::CollCall<T> Bcast(T& data) {
    return Call(is_root(), data, !is_root(), &data);
  }
};

/// SMI_RChannel: every rank contributes `count` elements; the reduced
/// results are produced at the root. Every rank calls Reduce `count` times.
class ReduceChannel : public CollChannelBase {
 public:
  using CollChannelBase::CollChannelBase;
  ReduceOp op() const { return config_.op; }

  /// SMI_Reduce: sends *data_snd; at the root, *data_rcv receives the
  /// element-wise reduction across all ranks. Non-roots leave *data_rcv
  /// untouched.
  template <typename T>
  detail::CollCall<T> Reduce(const T& data_snd, T& data_rcv) {
    return Call(true, data_snd, is_root(), &data_rcv);
  }
};

/// Scatter: the root streams count*comm_size elements (its own segment
/// loops back); non-roots receive count elements.
///  * root:     count*comm_size calls; rcv is written (returns true) during
///              the root's own segment window;
///  * non-root: count calls; snd is ignored, rcv always written.
class ScatterChannel : public CollChannelBase {
 public:
  using CollChannelBase::CollChannelBase;

  template <typename T>
  detail::CollCall<T> Scatter(const T* snd, T& rcv) {
    return Call(is_root(), snd ? *snd : T{}, !is_root() || InRootWindow(),
                &rcv);
  }
};

/// Gather: non-roots stream count elements to the root; the root receives
/// count*comm_size elements in communicator rank order (its own segment is
/// supplied via snd during its window).
///  * root:     count*comm_size calls; snd consumed during the root window;
///              rcv always written (returns true);
///  * non-root: count calls; rcv untouched (returns false).
class GatherChannel : public CollChannelBase {
 public:
  using CollChannelBase::CollChannelBase;

  template <typename T>
  detail::CollCall<T> Gather(const T& snd, T* rcv) {
    return Call(!is_root() || InRootWindow(), snd, is_root(), rcv);
  }
};

/// Allreduce: every rank contributes `count` elements and every rank
/// receives all `count` reduced results — the rootless reduce-then-broadcast
/// composition. Every rank calls Allreduce exactly `count` times.
class AllreduceChannel : public CollChannelBase {
 public:
  using CollChannelBase::CollChannelBase;
  ReduceOp op() const { return config_.op; }

  /// Sends data_snd; *data_rcv receives the element-wise reduction across
  /// all ranks (written on every rank, unlike Reduce).
  template <typename T>
  detail::CollCall<T> Allreduce(const T& data_snd, T& data_rcv) {
    return Call(true, data_snd, true, &data_rcv);
  }
};

namespace detail {

/// The awaitable of every collective call: pushes this rank's element to the
/// support kernel if the call sends one, then pops a result into *rcv if it
/// receives one. Every way it can fail is a CanPush on app_in or a CanPop on
/// app_out, so watching those two FIFOs is enough and no timed poll is
/// needed. `co_await` yields true if *rcv was written.
template <typename T>
struct CollCall final : sim::detail::AwaitableBase<CollCall<T>> {
  CollCall(CollChannelBase* c, bool s, const T& v, bool r, T* out)
      : chan(c), sends(s), receives(r), snd(v), rcv(out) {}
  CollChannelBase* chan;
  bool sends;
  bool receives;
  T snd;
  T* rcv;
  bool pushed = false;

  bool TryComplete(sim::Cycle now) override {
    if (!chan->EnsureConfigSent(now)) return false;
    if (sends && !pushed) {
      if (!chan->app_in().CanPush(now)) return false;
      chan->app_in().Push(CollToken(Element::Of<T>(snd)), now);
      pushed = true;
    }
    if (receives) {
      if (!chan->app_out().CanPop(now)) return false;
      *rcv = chan->PopElement(now).As<T>();
    }
    ++chan->calls_;
    return true;
  }
  std::string Describe() const override {
    return std::string("SMI_") + CollKindName(chan->config_.kind) + " (" +
           (chan->is_root() ? "root" : "non-root") +
           (sends && !pushed ? ", sending)" : ", awaiting result)");
  }
  void WatchFifos(std::vector<const sim::FifoBase*>& out) const override {
    out.push_back(&chan->app_in());
    out.push_back(&chan->app_out());
  }
  sim::Cycle NextPollCycle(sim::Cycle /*now*/) const override {
    return sim::kNeverCycle;
  }
  bool await_resume() const noexcept { return receives; }
};

}  // namespace detail
}  // namespace smi::core

#endif  // SMI_CORE_COLLECTIVE_H
