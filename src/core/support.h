#ifndef SMI_CORE_SUPPORT_H
#define SMI_CORE_SUPPORT_H

/// \file support.h
/// Collective support kernels (§4.4).
///
/// One support kernel instance runs per (rank, collective port). It sits
/// between the application endpoint FIFOs and the CKS/CKR modules, and
/// implements the coordination protocol of its collective:
///
///  * Bcast / Scatter (one-to-all): every non-root sends a READY sync packet
///    to its parent (the root, unless Bcast runs over a binomial tree); data
///    flows to a rank only after its READY, which prevents mixing of data
///    from subsequently opened transient channels on the same port.
///  * Gather (all-to-one): the root grants senders in communicator rank
///    order, so data arrives in an order the root can stream out without
///    reordering buffers.
///  * Reduce (all-to-one): credit-based flow control with C credits per tree
///    edge; the root folds contributions in arrival order into a C-deep
///    accumulator window and emits each result as soon as every rank has
///    contributed it.
///  * Allreduce: a Reduce-up / Bcast-down composition on one port.
///
/// Every kernel serves an unbounded sequence of channel opens (transient
/// channels), each announced by a config token from the application. Both
/// root and non-root behaviour is present in every instance; the config
/// selects the role at runtime.

#include "core/coll_token.h"
#include "sim/clock.h"
#include "sim/kernel.h"
#include "net/packet.h"

namespace smi::sim {
class Engine;
}

namespace smi::core {

/// Wiring of one support kernel.
struct SupportCtx {
  int my_global = 0;             ///< this rank (global)
  int port = 0;                  ///< collective port
  TokenFifo* app_in = nullptr;   ///< application -> support (config + data)
  TokenFifo* app_out = nullptr;  ///< support -> application (results)
  sim::Fifo<net::Packet>* net_out = nullptr;  ///< to the CKS endpoint
  sim::Fifo<net::Packet>* net_in = nullptr;   ///< from the CKR endpoint
  const sim::Cycle* now = nullptr;            ///< engine cycle counter
  /// Engine, for fidelity sync points at channel open/close (optional; the
  /// cluster builder wires it, raw-fabric tests may leave it null).
  sim::Engine* engine = nullptr;
};

/// Collective synchronization point: demotes every flow-mode link to cycle
/// accuracy (sim::Engine::FidelitySyncPoint) so the open/close rendezvous
/// and credit traffic is timed exactly. No-op when `ctx.engine` is null or
/// no flow-capable links exist.
void NotifyCollectiveSyncPoint(const SupportCtx& ctx);

/// The support kernel of a (kind, algo) pair; runs forever (registered as a
/// daemon by the fabric builder). Bcast, Reduce and Allreduce run over the
/// CollTree of `algo` (coll_tree.h: flat for kLinear, binomial for kTree);
/// Scatter and Gather exist only for kLinear, kInnet only for Reduce
/// (innet.h).
sim::Kernel MakeSupportKernel(CollKind kind, CollAlgo algo, SupportCtx ctx);

}  // namespace smi::core

#endif  // SMI_CORE_SUPPORT_H
