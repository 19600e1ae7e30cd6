#include "core/context.h"

#include "common/error.h"

namespace smi::core {

SendChannel Context::OpenSendChannel(int count, DataType type, int destination,
                                     int port, const Communicator& comm) {
  const int dst_global = comm.GlobalRank(destination);
  return SendChannel(fabric_->SendEndpoint(rank_, port), count, type, rank_,
                     dst_global, port);
}

RecvChannel Context::OpenRecvChannel(int count, DataType type, int source,
                                     int port, const Communicator& comm) {
  const int src_global = comm.GlobalRank(source);
  return RecvChannel(fabric_->RecvEndpoint(rank_, port), count, type,
                     src_global, port);
}

const Context::CollPort& Context::FindCollPort(int port, CollKind kind,
                                               DataType type) const {
  const auto it = coll_ports_.find(port);
  if (it == coll_ports_.end()) {
    throw ConfigError("rank " + std::to_string(rank_) + " has no " +
                      std::string(CollKindName(kind)) +
                      " support kernel on port " + std::to_string(port) +
                      " (missing from the ProgramSpec?)");
  }
  if (it->second.kind != kind) {
    throw ConfigError(std::string("port ") + std::to_string(port) +
                      " hosts a " + CollKindName(it->second.kind) +
                      " support kernel, not " + CollKindName(kind));
  }
  if (it->second.type != type) {
    throw ConfigError(std::string("collective on port ") +
                      std::to_string(port) + " was built for " +
                      DataTypeName(it->second.type) + ", opened with " +
                      DataTypeName(type));
  }
  return it->second;
}

template <typename Channel>
Channel Context::OpenCollChannel(CollKind kind, int count, DataType type,
                                 int port, int root, const Communicator& comm,
                                 ReduceOp op, int credits) {
  const CollPort& cp = FindCollPort(port, kind, type);
  CollConfig cfg;
  cfg.kind = kind;
  cfg.count = count;
  cfg.type = type;
  cfg.root_comm = root;
  cfg.op = op;
  cfg.credits = credits;
  cfg.comm_global = comm.global_ranks();
  // Only Reduce ports are built in-network (MakeSupportKernel).
  if (cp.algo == CollAlgo::kInnet) ConfigureInnetReduce(cp, port, comm, cfg);
  return Channel(std::move(cfg), rank_, *cp.app_in, *cp.app_out);
}

void Context::ConfigureInnetReduce(const CollPort& cp, int port,
                                   const Communicator& comm,
                                   CollConfig& cfg) const {
  // An in-network reduce bakes its fold function and credit fan tree into
  // the fabric's handler tables; the open must match them.
  if (cfg.op != cp.innet_op) {
    throw ConfigError(std::string("in-network reduce on port ") +
                      std::to_string(port) + " was built for " +
                      ReduceOpName(cp.innet_op) + ", opened with " +
                      ReduceOpName(cfg.op));
  }
  const int root_global = comm.GlobalRank(cfg.root_comm);
  if (root_global != cp.innet_root_global) {
    throw ConfigError(
        "in-network reduce on port " + std::to_string(port) +
        " has its fan tree rooted at global rank " +
        std::to_string(cp.innet_root_global) +
        "; re-target with Cluster::ConfigureInnetHandlers before opening "
        "toward global rank " + std::to_string(root_global));
  }
  if (comm.global_ranks() != cp.innet_comm) {
    throw ConfigError(
        "in-network reduce on port " + std::to_string(port) +
        " opened with a communicator that does not match its configured "
        "handler tables (Cluster::ConfigureInnetHandlers)");
  }
  cfg.pace_wait = cp.innet_pace_wait;
  cfg.window_cycles = cp.innet_rtt;
}

BcastChannel Context::OpenBcastChannel(int count, DataType type, int port,
                                       int root, const Communicator& comm) {
  return OpenCollChannel<BcastChannel>(CollKind::kBcast, count, type, port,
                                       root, comm);
}

ReduceChannel Context::OpenReduceChannel(int count, DataType type, ReduceOp op,
                                         int port, int root,
                                         const Communicator& comm,
                                         int credits) {
  return OpenCollChannel<ReduceChannel>(CollKind::kReduce, count, type, port,
                                        root, comm, op, credits);
}

AllreduceChannel Context::OpenAllreduceChannel(int count, DataType type,
                                               ReduceOp op, int port,
                                               const Communicator& comm,
                                               int credits) {
  // Rootless at the API level; the kernel's reduce/broadcast tree is rooted
  // at communicator rank 0 as an implementation detail.
  return OpenCollChannel<AllreduceChannel>(CollKind::kAllreduce, count, type,
                                           port, /*root=*/0, comm, op,
                                           credits);
}

ScatterChannel Context::OpenScatterChannel(int count, DataType type, int port,
                                           int root,
                                           const Communicator& comm) {
  return OpenCollChannel<ScatterChannel>(CollKind::kScatter, count, type,
                                         port, root, comm);
}

GatherChannel Context::OpenGatherChannel(int count, DataType type, int port,
                                         int root, const Communicator& comm) {
  return OpenCollChannel<GatherChannel>(CollKind::kGather, count, type, port,
                                        root, comm);
}

sim::MemoryBank& Context::memory_bank(int index) {
  if (index < 0 || index >= static_cast<int>(memory_banks_.size())) {
    throw ConfigError("rank " + std::to_string(rank_) +
                      " has no memory bank " + std::to_string(index));
  }
  return *memory_banks_[static_cast<std::size_t>(index)];
}

}  // namespace smi::core
