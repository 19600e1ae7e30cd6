#ifndef SMI_MPI_MPI_H
#define SMI_MPI_MPI_H

/// \file mpi.h
/// Funneled MPI-subset shim lowered onto SMI channels.
///
/// The paper positions SMI as "MPI-like": transient channels replace
/// matching, collectives are first-class channel types. This shim closes
/// the loop — it lets an MPI-style program (a single sequential kernel per
/// rank issuing Send/Recv/Bcast/Reduce/Allreduce/Scatter/Gather/Barrier
/// calls on buffers, the MPI_THREAD_FUNNELED discipline) run unchanged on
/// the simulated SMI fabric. Each call opens a transient SMI channel and
/// streams the buffer element by element through it.
///
/// Port layout (the static fabric the shim's program spec requests):
///  * p2p: port s carries every message whose *sender* is global rank s.
///    Sends from one rank are serialized by the funneled discipline and
///    ports are sender-unique, so receives need no tag matching. Tags and
///    MPI_ANY_SOURCE are not supported.
///  * collectives: one port per (kind, algorithm, datatype) triple starting
///    at world_size — both the linear and the binomial-tree support kernels
///    are instantiated, and the per-size Selector steers each call to one
///    of them (a routing decision; the fabric is static).
/// Ports are 8-bit on the wire, so world_size + 30 must be <= 256.
///
/// Usage inside a kernel:
///   smi::mpi::Comm comm = smi::mpi::MPI_Init(ctx, config);
///   co_await smi::mpi::MPI_Allreduce(snd, rcv, n, ReduceOp::kAdd, comm);

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <tuple>
#include <vector>

#include "common/error.h"
#include "common/json.h"
#include "core/smi.h"
#include "mpi/selector.h"

namespace smi::mpi {

/// Collective port for (kind, algo, type) in a world of `world_size` ranks.
/// The layout is fixed (Scatter/Gather tree slots exist but stay unused),
/// so it can be computed by tests and tools without a Comm.
int CollectivePort(int world_size, core::CollKind kind, core::CollAlgo algo,
                   core::DataType type);

/// Thread-safe record of the selector's per-call decisions, shared by every
/// rank's Comm (ranks run on different threads under the parallel
/// scheduler). Deduped by (collective, bytes, comm size) with call counts,
/// so the content is deterministic regardless of arrival order.
class DecisionLog {
 public:
  void Record(core::CollKind kind, core::CollAlgo algo, std::uint64_t bytes,
              int comm_size);
  /// {"decisions": [{"collective", "bytes", "comm", "algorithm", "calls"}]}
  json::Value ToJson() const;

 private:
  using Key = std::tuple<core::CollKind, std::uint64_t, int>;
  mutable std::mutex mu_;
  std::map<Key, std::pair<core::CollAlgo, std::uint64_t>> decisions_;
};

struct ShimConfig {
  Selector selector = Selector::Defaults();
  /// Reduce/Allreduce flow-control tile size C (§4.4).
  int credits = 64;
  /// Decision log shared across ranks (optional; not owned).
  DecisionLog* log = nullptr;
  /// Datatypes the fabric instantiates collective support kernels for.
  std::vector<core::DataType> types = {core::DataType::kInt,
                                       core::DataType::kFloat,
                                       core::DataType::kDouble};
};

/// The SPMD program spec every rank of an MPI-shim world uses: p2p send +
/// recv endpoints on ports 0..world_size-1 and the collective support
/// kernels of the layout above for each type in `config.types`.
core::ProgramSpec WorldSpec(int world_size, const ShimConfig& config = {});

// ---------------------------------------------------------------------------
// Calls: each streams a whole buffer through one transient SMI channel, one
// channel operation per element; the per-element awaitables enforce II=1
// and backpressure, so a deadlock names the blocked SMI operation.
//
// A call first tries element i+1 in the cycle after element i completed.
// Where the operation is a single FIFO transfer (Send, Recv, Bcast) that
// holds by itself: the port is used for the rest of the cycle. Reduce,
// Allreduce, Scatter and Gather may push an element in an earlier cycle
// than they pop its result, so they wait for the next cycle explicitly.
// ---------------------------------------------------------------------------

namespace detail {

template <typename T>
sim::Task SendCall(core::SendChannel chan, const T* buf, int count) {
  for (int i = 0; i < count; ++i) co_await chan.Push(buf[i]);
}

template <typename T>
sim::Task RecvCall(core::RecvChannel chan, T* buf, int count) {
  for (int i = 0; i < count; ++i) buf[i] = co_await chan.Pop<T>();
}

template <typename T>
sim::Task BcastCall(core::BcastChannel chan, T* buf, int count) {
  for (int i = 0; i < count; ++i) co_await chan.Bcast(buf[i]);
}

template <typename T>
sim::Task ReduceCall(core::ReduceChannel chan, const T* snd, T* rcv,
                     int count) {
  for (int i = 0; i < count; ++i) {
    if (i > 0) co_await sim::NextCycle{};
    T value{};  // non-roots may pass no receive buffer
    co_await chan.Reduce(snd[i], value);
    if (chan.is_root()) rcv[i] = value;
  }
}

template <typename T>
sim::Task AllreduceCall(core::AllreduceChannel chan, const T* snd, T* rcv,
                        int count) {
  for (int i = 0; i < count; ++i) {
    if (i > 0) co_await sim::NextCycle{};
    co_await chan.Allreduce(snd[i], rcv[i]);
  }
}

/// The root makes count*comm_size calls and receives during its own
/// segment; a non-root makes count calls.
template <typename T>
sim::Task ScatterCall(core::ScatterChannel chan, const T* snd, T* rcv,
                      int count) {
  const bool root = chan.is_root();
  const int total = root ? count * chan.comm_size() : count;
  for (int i = 0, received = 0; i < total; ++i) {
    if (i > 0) co_await sim::NextCycle{};
    T value{};
    if (co_await chan.Scatter(root ? &snd[i] : nullptr, value)) {
      rcv[received++] = value;
    }
  }
}

/// The root makes count*comm_size calls, supplying its own contribution
/// during its rank-order window; a non-root makes count calls.
template <typename T>
sim::Task GatherCall(core::GatherChannel chan, const T* snd, T* rcv,
                     int count) {
  const bool root = chan.is_root();
  const int total = root ? count * chan.comm_size() : count;
  const int own = chan.root_comm_rank() * count;  // root window start
  for (int i = 0; i < total; ++i) {
    if (i > 0) co_await sim::NextCycle{};
    if (!root) {
      co_await chan.Gather(snd[i], static_cast<T*>(nullptr));
    } else if (i >= own && i < own + count) {
      co_await chan.Gather(snd[i - own], &rcv[i]);
    } else {
      co_await chan.Gather(T{}, &rcv[i]);
    }
  }
}

/// Barrier = one-element int Allreduce nobody reads.
inline sim::Task BarrierCall(core::AllreduceChannel chan) {
  const std::int32_t snd = 0;
  std::int32_t rcv = 0;
  co_await AllreduceCall(std::move(chan), &snd, &rcv, 1);
}

}  // namespace detail

/// Per-rank communicator handle (the world communicator). Construct once
/// per application kernel; every method opens its channel at once and
/// returns a Task that completes when the whole buffer has been streamed.
class Comm {
 public:
  explicit Comm(core::Context& ctx, ShimConfig config = {})
      : ctx_(&ctx), config_(std::move(config)) {
    if (ctx.world_size() + 30 > 256) {
      throw ConfigError("MPI shim needs world_size + 30 <= 256 "
                        "(8-bit ports)");
    }
  }

  int rank() const { return ctx_->rank(); }
  int size() const { return ctx_->world_size(); }

  template <typename T>
  sim::Task Send(const T* buf, int count, int dest) {
    return detail::SendCall<T>(
        ctx_->OpenSendChannel(count, core::DataTypeOf<T>::value, dest,
                              /*port=*/rank(), ctx_->world()),
        buf, count);
  }

  template <typename T>
  sim::Task Recv(T* buf, int count, int source) {
    return detail::RecvCall<T>(
        ctx_->OpenRecvChannel(count, core::DataTypeOf<T>::value, source,
                              /*port=*/source, ctx_->world()),
        buf, count);
  }

  template <typename T>
  sim::Task Bcast(T* buf, int count, int root) {
    const core::DataType type = core::DataTypeOf<T>::value;
    const int port = ChoosePort(core::CollKind::kBcast, count, type);
    return detail::BcastCall<T>(
        ctx_->OpenBcastChannel(count, type, port, root, ctx_->world()), buf,
        count);
  }

  template <typename T>
  sim::Task Reduce(const T* snd, T* rcv, int count,
                               core::ReduceOp op, int root) {
    const core::DataType type = core::DataTypeOf<T>::value;
    const int port = ChoosePort(core::CollKind::kReduce, count, type);
    return detail::ReduceCall<T>(
        ctx_->OpenReduceChannel(count, type, op, port, root, ctx_->world(),
                                config_.credits),
        snd, rcv, count);
  }

  template <typename T>
  sim::Task Allreduce(const T* snd, T* rcv, int count,
                                     core::ReduceOp op) {
    const core::DataType type = core::DataTypeOf<T>::value;
    const int port = ChoosePort(core::CollKind::kAllreduce, count, type);
    return detail::AllreduceCall<T>(
        ctx_->OpenAllreduceChannel(count, type, op, port, ctx_->world(),
                                   config_.credits),
        snd, rcv, count);
  }

  template <typename T>
  sim::Task Scatter(const T* snd, T* rcv, int count, int root) {
    const core::DataType type = core::DataTypeOf<T>::value;
    const int port = ChoosePort(core::CollKind::kScatter, count, type);
    return detail::ScatterCall<T>(
        ctx_->OpenScatterChannel(count, type, port, root, ctx_->world()),
        snd, rcv, count);
  }

  template <typename T>
  sim::Task Gather(const T* snd, T* rcv, int count, int root) {
    const core::DataType type = core::DataTypeOf<T>::value;
    const int port = ChoosePort(core::CollKind::kGather, count, type);
    return detail::GatherCall<T>(
        ctx_->OpenGatherChannel(count, type, port, root, ctx_->world()), snd,
        rcv, count);
  }

  sim::Task Barrier();

 private:
  /// Run the selector for one call, record the decision, and map the verdict
  /// to the port hosting that algorithm's support kernel.
  int ChoosePort(core::CollKind kind, int count, core::DataType type) {
    const std::uint64_t bytes =
        static_cast<std::uint64_t>(count) * core::SizeOf(type);
    const core::CollAlgo algo = config_.selector.Choose(kind, bytes, size());
    if (config_.log != nullptr) {
      config_.log->Record(kind, algo, bytes, size());
    }
    return CollectivePort(size(), kind, algo, type);
  }

  core::Context* ctx_;
  ShimConfig config_;
};

inline sim::Task Comm::Barrier() {
  const int port = ChoosePort(core::CollKind::kAllreduce, 1,
                              core::DataType::kInt);
  return detail::BarrierCall(ctx_->OpenAllreduceChannel(
      1, core::DataType::kInt, core::ReduceOp::kMax, port, ctx_->world(),
      config_.credits));
}

// ---------------------------------------------------------------------------
// MPI-flavored free functions, for porting MPI programs with minimal edits.
// ---------------------------------------------------------------------------

inline Comm MPI_Init(core::Context& ctx, ShimConfig config = {}) {
  return Comm(ctx, std::move(config));
}
inline void MPI_Comm_rank(const Comm& comm, int* rank) { *rank = comm.rank(); }
inline void MPI_Comm_size(const Comm& comm, int* size) { *size = comm.size(); }

template <typename T>
sim::Task MPI_Send(const T* buf, int count, int dest, Comm& comm) {
  return comm.Send(buf, count, dest);
}
template <typename T>
sim::Task MPI_Recv(T* buf, int count, int source, Comm& comm) {
  return comm.Recv(buf, count, source);
}
template <typename T>
sim::Task MPI_Bcast(T* buf, int count, int root, Comm& comm) {
  return comm.Bcast(buf, count, root);
}
template <typename T>
sim::Task MPI_Reduce(const T* snd, T* rcv, int count,
                                 core::ReduceOp op, int root, Comm& comm) {
  return comm.Reduce(snd, rcv, count, op, root);
}
template <typename T>
sim::Task MPI_Allreduce(const T* snd, T* rcv, int count,
                                       core::ReduceOp op, Comm& comm) {
  return comm.Allreduce(snd, rcv, count, op);
}
template <typename T>
sim::Task MPI_Scatter(const T* snd, T* rcv, int count, int root,
                                   Comm& comm) {
  return comm.Scatter(snd, rcv, count, root);
}
template <typename T>
sim::Task MPI_Gather(const T* snd, T* rcv, int count, int root,
                                 Comm& comm) {
  return comm.Gather(snd, rcv, count, root);
}
inline sim::Task MPI_Barrier(Comm& comm) { return comm.Barrier(); }

}  // namespace smi::mpi

#endif  // SMI_MPI_MPI_H
