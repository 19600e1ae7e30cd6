#ifndef SMI_CORE_SUPPORT_INTERNAL_H
#define SMI_CORE_SUPPORT_INTERNAL_H

/// \file support_internal.h
/// Internal to src/core: the per-collective support kernels that
/// MakeSupportKernel dispatches to, and the helpers they share (token
/// unpacking, rank lookup, sync packets, element packing, the READY ledger,
/// the fold window, the child credit ledger, and the streaming
/// sub-coroutines).

#include <deque>
#include <map>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/error.h"
#include "core/support.h"

namespace smi::core {

/// Bcast and Reduce over the CollTree of `algo` (coll_tree.h): kLinear is
/// the flat tree of the reference implementation, kTree the binomial tree.
sim::Kernel BcastSupportKernel(SupportCtx ctx, CollAlgo algo);
sim::Kernel ReduceSupportKernel(SupportCtx ctx, CollAlgo algo);
/// Scatter and Gather exist only in the linear scheme.
sim::Kernel ScatterSupportKernel(SupportCtx ctx);
sim::Kernel GatherSupportKernel(SupportCtx ctx);

/// Allreduce (all-to-all reduction): a Reduce-up / Bcast-down composition
/// sharing one collective port. Contributions flow toward relative rank 0
/// under the Reduce credit protocol; completed results flow back down the
/// same CollTree as data packets, and every rank's application receives all
/// `count` reduced elements.
sim::Kernel AllreduceSupportKernel(SupportCtx ctx, CollAlgo algo);

/// The in-network Reduce support kernel (CollAlgo::kInnet; see innet.h).
/// Requires the matching handler tables to be installed (Cluster does this
/// when a ProgramSpec carries an innet Reduce op); without them the protocol
/// is still correct — packets simply never merge and credits never fan out
/// past the root — but the root then starves until the watchdog fires, so
/// the tables are not optional in practice.
sim::Kernel InnetReduceSupportKernel(SupportCtx ctx);

inline CollConfig GetConfig(CollToken&& tok, const char* kernel) {
  if (!std::holds_alternative<CollConfig>(tok)) {
    throw ConfigError(std::string(kernel) +
                      ": expected a channel-open config token, got a data "
                      "element (did the application open the channel?)");
  }
  return std::get<CollConfig>(std::move(tok));
}

inline Element GetElement(CollToken&& tok, const char* kernel) {
  if (!std::holds_alternative<Element>(tok)) {
    throw ConfigError(std::string(kernel) +
                      ": expected a data element, got a config token (message "
                      "shorter than the declared count?)");
  }
  return std::get<Element>(tok);
}

inline int MyCommRank(const CollConfig& cfg, int my_global,
                      const char* kernel) {
  for (std::size_t i = 0; i < cfg.comm_global.size(); ++i) {
    if (cfg.comm_global[i] == my_global) return static_cast<int>(i);
  }
  throw ConfigError(std::string(kernel) + ": rank " +
                    std::to_string(my_global) +
                    " is not a member of the collective's communicator");
}

inline net::Packet MakeSync(const SupportCtx& ctx, int dst_global,
                            net::OpType op) {
  net::Packet p;
  p.hdr.src = static_cast<std::uint16_t>(ctx.my_global);
  p.hdr.dst = static_cast<std::uint16_t>(dst_global);
  p.hdr.port = static_cast<std::uint8_t>(ctx.port);
  p.hdr.op = op;
  p.hdr.count = 0;
  return p;
}

/// Element `index` of a packet's payload, starting `offset` bytes in (the
/// in-network Reduce puts an envelope ahead of the elements).
inline void PackElement(net::Packet& pkt, int index, const Element& e,
                        std::size_t size, std::size_t offset = 0) {
  pkt.StoreBytes(offset + static_cast<std::size_t>(index) * size,
                 e.bytes.data(), size);
}

inline Element UnpackElement(const net::Packet& pkt, int index,
                             std::size_t size, std::size_t offset = 0) {
  Element e;
  pkt.LoadBytes(offset + static_cast<std::size_t>(index) * size,
                e.bytes.data(), size);
  return e;
}

/// Root-relative rank -> global rank.
inline int RelToGlobal(const CollConfig& cfg, int rel) {
  const int n = static_cast<int>(cfg.comm_global.size());
  const int comm_rank = (rel + cfg.root_comm) % n;
  return cfg.comm_global[static_cast<std::size_t>(comm_rank)];
}

/// The C-deep accumulation window of the polling fold loops (Reduce's root
/// and inner nodes, Allreduce's up phase, the kInnet root). Element i folds
/// into slot i % width and is complete once `sources` contributions have
/// arrived; it is retired in order, which frees its slot for i + width.
/// Those loops advance one NextCycle per iteration, so this is a plain class
/// rather than a Task.
class FoldWindow {
 public:
  FoldWindow(const CollConfig& cfg, int width, int sources)
      : op_(cfg.op),
        type_(cfg.type),
        count_(cfg.count),
        width_(width),
        sources_(sources),
        identity_(ReduceIdentity(cfg.op, cfg.type)),
        accum_(static_cast<std::size_t>(width), identity_),
        contrib_(static_cast<std::size_t>(width), 0) {}

  bool Complete(int idx) const { return contrib_[Slot(idx)] == sources_; }
  const Element& Value(int idx) const { return accum_[Slot(idx)]; }
  int Contributions(int idx) const { return contrib_[Slot(idx)]; }
  void Retire(int idx) {
    accum_[Slot(idx)] = identity_;
    contrib_[Slot(idx)] = 0;
  }
  /// Folds `e`, which already carries `contribs` contributions, into
  /// element `idx`.
  void Fold(int idx, const Element& e, int contribs = 1) {
    Element& acc = accum_[Slot(idx)];
    acc = ApplyReduceOp(op_, type_, acc, e);
    contrib_[Slot(idx)] += contribs;
  }
  /// Folds the application's next element if one is waiting and it lies
  /// within the window past the first unretired element `retired`.
  void FoldLocal(const SupportCtx& ctx, sim::Cycle now, int retired,
                 const char* kernel) {
    if (local_next_ < count_ && local_next_ < retired + width_ &&
        ctx.app_in->CanPop(now)) {
      Fold(local_next_, GetElement(ctx.app_in->Pop(now), kernel));
      ++local_next_;
    }
  }

 private:
  std::size_t Slot(int idx) const {
    return static_cast<std::size_t>(idx % width_);
  }

  ReduceOp op_;
  DataType type_;
  int count_;
  int width_;
  int sources_;
  Element identity_;
  std::vector<Element> accum_;
  std::vector<int> contrib_;
  int local_next_ = 0;  ///< next application element to fold
};

/// The child side of the Reduce credit protocol, shared by the fold loops of
/// Reduce's root and inner nodes and Allreduce's up phase: each child may
/// stream the tiles of C elements it has been granted. Tile t + 1 is granted
/// to every child once element (t + 1) * C - 1 has been emitted, and the
/// grants leave as credit packets, one per cycle.
class ChildCredits {
 public:
  ChildCredits(const CollConfig& cfg, const std::vector<int>& children,
               int tile)
      : children_(children),
        esz_(SizeOf(cfg.type)),
        count_(cfg.count),
        tile_(tile) {
    for (const int child : children) next_[child] = 0;
  }

  /// Queues a credit for every child. Reduce grants tile 0 implicitly;
  /// Allreduce calls this once at open to grant it explicitly.
  void GrantAll() {
    pending_.insert(pending_.end(), children_.begin(), children_.end());
  }
  /// Called once `emitted` elements have left the window: at a tile
  /// boundary, grants the next tile if one remains.
  void Emitted(int emitted) {
    if (emitted % tile_ == 0 && granted_tiles_ * tile_ < count_) {
      ++granted_tiles_;
      GrantAll();
    }
  }
  /// Folds a data packet from a child into `window`; false if `p` is not
  /// one.
  bool FoldChild(const net::Packet& p, FoldWindow& window,
                 const char* kernel) {
    const auto it = next_.find(p.hdr.src);
    if (p.hdr.op != net::OpType::kData || it == next_.end()) return false;
    for (int e = 0; e < p.hdr.count; ++e) {
      const int idx = it->second++;
      if (idx >= granted_tiles_ * tile_) {
        throw ConfigError(std::string(kernel) + ": rank " +
                          std::to_string(p.hdr.src) +
                          " sent beyond its credit window");
      }
      window.Fold(idx, UnpackElement(p, e, esz_));
    }
    return true;
  }
  /// Sends one queued credit if the network accepts a packet this cycle.
  void SendOne(const SupportCtx& ctx, sim::Cycle now) {
    if (!pending_.empty() && ctx.net_out->CanPush(now)) {
      ctx.net_out->Push(MakeSync(ctx, pending_.back(), net::OpType::kCredit),
                        now);
      pending_.pop_back();
    }
  }

 private:
  std::vector<int> children_;
  std::size_t esz_;
  int count_;
  int tile_;
  std::map<int, int> next_;   ///< per child global rank: next element
  int granted_tiles_ = 1;     ///< tile 0 is granted at open
  std::vector<int> pending_;  ///< child global ranks owed a credit
};

/// Rendezvous bookkeeping: counts READY syncs per source rank, persisting
/// across successive channel opens on the same port so that an early READY
/// for the *next* open (from a fast rank) is credited correctly.
///
/// It also holds data packets that overtake a READY (see AwaitReady).
class ReadyLedger {
 public:
  void Record(int src_global) { ++counts_[src_global]; }
  bool Has(int src_global) const {
    const auto it = counts_.find(src_global);
    return it != counts_.end() && it->second > 0;
  }
  void Consume(int src_global) { --counts_[src_global]; }

  void Hold(const net::Packet& p) { held_.push_back(p); }
  bool TakeHeld(net::Packet& out) {
    if (held_.empty()) return false;
    out = held_.front();
    held_.pop_front();
    return true;
  }

 private:
  std::map<int, int> counts_;
  std::deque<net::Packet> held_;
};

// ---------------------------------------------------------------------------
// The streaming loops the support kernels share, as sub-coroutines. Each one
// covers a whole message or segment, because every call allocates a frame.
// ---------------------------------------------------------------------------

/// One channel open as the helpers see it.
struct OpenCtx {
  const SupportCtx& io;
  const CollConfig& cfg;
  const char* kernel;  ///< names the support kernel in error messages
};

/// Streams the application's next `n` elements in full packets, sending
/// each packet to every rank of `dsts` in order (none: the elements are
/// consumed and dropped).
sim::Task StreamElements(const OpenCtx& op, std::span<const int> dsts, int n);
/// Delivers `n` elements arriving in data packets from `src` to the
/// application.
sim::Task DeliverElements(const OpenCtx& op, int n, int src);
/// Loops the application's next `n` elements straight back to it.
sim::Task LoopBack(const OpenCtx& op, int n);
/// Waits until `g`'s READY is in `ledger`, then consumes it. READYs from
/// other ranks are recorded for later. A data packet is held in the ledger:
/// a tree-Bcast inner node sends its READY upward before its own children
/// are ready, so its parent's first packets can arrive while it waits.
sim::Task AwaitReady(const OpenCtx& op, ReadyLedger& ledger, int g);

}  // namespace smi::core

#endif  // SMI_CORE_SUPPORT_INTERNAL_H
