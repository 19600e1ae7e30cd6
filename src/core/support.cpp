#include <algorithm>

#include "core/coll_tree.h"
#include "core/support_internal.h"
#include "sim/engine.h"

namespace smi::core {

using net::OpType;
using net::Packet;
using sim::Cycle;
using sim::Kernel;
using sim::NextCycle;
using sim::fifo_pop;
using sim::fifo_push;

void NotifyCollectiveSyncPoint(const SupportCtx& ctx) {
  if (ctx.engine != nullptr) ctx.engine->FidelitySyncPoint();
}

const char* CollKindName(CollKind k) {
  switch (k) {
    case CollKind::kBcast: return "Bcast";
    case CollKind::kReduce: return "Reduce";
    case CollKind::kScatter: return "Scatter";
    case CollKind::kGather: return "Gather";
    case CollKind::kAllreduce: return "Allreduce";
  }
  return "?";
}

// ---------------------------------------------------------------------------
// The shared streaming loops (support_internal.h).
// ---------------------------------------------------------------------------
sim::Task StreamElements(const OpenCtx& op, std::span<const int> dsts,
                         int n) {
  const int epp = static_cast<int>(ElementsPerPacket(op.cfg.type));
  const std::size_t esz = SizeOf(op.cfg.type);
  for (int sent = 0; sent < n;) {
    const int chunk = std::min(epp, n - sent);
    Packet data = MakeSync(op.io, op.io.my_global, OpType::kData);
    for (int e = 0; e < chunk; ++e) {
      PackElement(data, e,
                  GetElement(co_await fifo_pop(*op.io.app_in), op.kernel),
                  esz);
    }
    data.hdr.count = static_cast<std::uint8_t>(chunk);
    for (const int dst : dsts) {
      data.hdr.dst = static_cast<std::uint16_t>(dst);
      co_await fifo_push(*op.io.net_out, data);
    }
    sent += chunk;
  }
}

sim::Task DeliverElements(const OpenCtx& op, int n, int src) {
  const std::size_t esz = SizeOf(op.cfg.type);
  for (int received = 0; received < n;) {
    const Packet p = co_await fifo_pop(*op.io.net_in);
    if (p.hdr.op != OpType::kData || p.hdr.src != src) {
      throw ConfigError(std::string(op.kernel) +
                        ": unexpected packet: " + p.DebugString());
    }
    for (int e = 0; e < p.hdr.count; ++e) {
      co_await fifo_push(*op.io.app_out, CollToken(UnpackElement(p, e, esz)));
      ++received;
    }
  }
}

sim::Task LoopBack(const OpenCtx& op, int n) {
  for (int c = 0; c < n; ++c) {
    const Element e = GetElement(co_await fifo_pop(*op.io.app_in), op.kernel);
    co_await fifo_push(*op.io.app_out, CollToken(e));
  }
}

sim::Task AwaitReady(const OpenCtx& op, ReadyLedger& ledger, int g) {
  while (!ledger.Has(g)) {
    const Packet p = co_await fifo_pop(*op.io.net_in);
    if (p.hdr.op == OpType::kData) {
      ledger.Hold(p);
    } else if (p.hdr.op == OpType::kSync) {
      ledger.Record(p.hdr.src);
    } else {
      throw ConfigError(std::string(op.kernel) +
                        ": unexpected packet during rendezvous: " +
                        p.DebugString());
    }
  }
  ledger.Consume(g);
}

// ---------------------------------------------------------------------------
// Bcast (§4.4) over a CollTree: every non-root sends READY to its parent,
// and a node streams to a child only after that child's READY (one-to-all
// rendezvous). The root packs its application's elements into packets and
// sends each packet to all of its children (StreamElements); every other
// node receives each packet from its parent, delivers its elements locally
// and forwards it to its children. Under the flat tree of kLinear, the root
// replicates every packet to all n-1 peers in communicator order.
// ---------------------------------------------------------------------------
Kernel BcastSupportKernel(SupportCtx ctx, CollAlgo algo) {
  ReadyLedger readies;
  for (;;) {
    const CollConfig cfg =
        GetConfig(co_await fifo_pop(*ctx.app_in), "BcastSupport");
    NotifyCollectiveSyncPoint(ctx);  // channel open
    const OpenCtx op{ctx, cfg, "BcastSupport"};
    const CollTree tree(cfg, MyCommRank(cfg, ctx.my_global, "BcastSupport"),
                        algo);
    const std::size_t esz = SizeOf(cfg.type);

    if (!tree.is_root()) {
      co_await fifo_push(*ctx.net_out,
                         MakeSync(ctx, tree.parent, OpType::kSync));
    }
    // Collect READYs from all children (any arrival order; early READYs for
    // the next open are credited via the ledger).
    for (const int child : tree.children) {
      co_await AwaitReady(op, readies, child);
    }

    if (tree.is_root()) {
      co_await StreamElements(op, tree.children, cfg.count);
    } else {
      for (int done = 0; done < cfg.count;) {
        Packet data;
        if (!readies.TakeHeld(data)) data = co_await fifo_pop(*ctx.net_in);
        if (data.hdr.op != OpType::kData) {
          throw ConfigError("BcastSupport: unexpected packet: " +
                            data.DebugString());
        }
        for (int e = 0; e < data.hdr.count; ++e) {
          co_await fifo_push(*ctx.app_out,
                             CollToken(UnpackElement(data, e, esz)));
        }
        data.hdr.src = static_cast<std::uint16_t>(ctx.my_global);
        for (const int child : tree.children) {
          data.hdr.dst = static_cast<std::uint16_t>(child);
          co_await fifo_push(*ctx.net_out, data);
        }
        done += data.hdr.count;
      }
    }
    NotifyCollectiveSyncPoint(ctx);  // channel close
  }
}

// ---------------------------------------------------------------------------
// Reduce (§4.4) over a CollTree: credit-based flow control with C credits
// per tree edge. Which of two paths a node runs depends only on its place
// in the tree:
//  * a leaf (a non-root without children) streams one tile per credit:
//    tile 0 is implicitly granted at open, tile t waits for its credit;
//  * the root and inner nodes fold their own application stream with their
//    children's partials, in arrival order, into a C-deep FoldWindow —
//    legal because the supported operations are associative and
//    commutative. Element e is complete once every source contributed it;
//    the root emits it to its application, an inner node forwards it to its
//    parent (packed like a leaf's stream, within the parent's credits).
//    Credits for tile t go to every child once every element of tile t-1
//    has been emitted.
// ---------------------------------------------------------------------------
Kernel ReduceSupportKernel(SupportCtx ctx, CollAlgo algo) {
  for (;;) {
    const CollConfig cfg =
        GetConfig(co_await fifo_pop(*ctx.app_in), "ReduceSupport");
    NotifyCollectiveSyncPoint(ctx);  // channel open
    const CollTree tree(cfg, MyCommRank(cfg, ctx.my_global, "ReduceSupport"),
                        algo);
    const int epp = static_cast<int>(ElementsPerPacket(cfg.type));
    const std::size_t esz = SizeOf(cfg.type);
    const int C = std::max(1, cfg.credits);

    if (cfg.count == 0) continue;

    if (!tree.is_root() && tree.is_leaf()) {
      const OpenCtx op{ctx, cfg, "ReduceSupport"};
      for (int sent = 0; sent < cfg.count; sent += C) {
        if (sent > 0) {
          const Packet credit = co_await fifo_pop(*ctx.net_in);
          if (credit.hdr.op != OpType::kCredit) {
            throw ConfigError("ReduceSupport: expected a credit, got " +
                              credit.DebugString());
          }
        }
        co_await StreamElements(op, {&tree.parent, 1},
                                std::min(C, cfg.count - sent));
      }
      NotifyCollectiveSyncPoint(ctx);  // channel close
      continue;
    }

    FoldWindow window(cfg, C, 1 + static_cast<int>(tree.children.size()));
    ChildCredits credits(cfg, tree.children, C);  // tile 0 implicit
    int emitted = 0;         // elements delivered to app (root) or parent
    int parent_credits = 1;  // tiles the parent granted (inner nodes)
    Packet out = MakeSync(ctx, tree.parent, OpType::kData);
    int out_fill = 0;

    while (emitted < cfg.count) {
      const Cycle now = *ctx.now;
      // (1) Emit the next completed element.
      if (window.Complete(emitted)) {
        bool advanced = false;
        if (tree.is_root()) {
          if (ctx.app_out->CanPush(now)) {
            ctx.app_out->Push(CollToken(window.Value(emitted)), now);
            advanced = true;
          }
        } else if (emitted < parent_credits * C) {
          // Stage into the outgoing packet; flush on full packet, tile
          // boundary or message end.
          PackElement(out, out_fill, window.Value(emitted), esz);
          ++out_fill;
          const bool flush = out_fill == epp || (emitted + 1) % C == 0 ||
                             emitted + 1 == cfg.count;
          if (!flush) {
            advanced = true;
          } else if (ctx.net_out->CanPush(now)) {
            out.hdr.count = static_cast<std::uint8_t>(out_fill);
            ctx.net_out->Push(out, now);
            out_fill = 0;
            advanced = true;
          } else {
            --out_fill;  // retry next cycle
          }
        }
        if (advanced) {
          window.Retire(emitted);
          credits.Emitted(++emitted);
        }
      }
      // (2) Fold one local element within the window.
      window.FoldLocal(ctx, now, emitted, "ReduceSupport");
      // (3) Fold one incoming packet (child partials or parent credit).
      if (ctx.net_in->CanPop(now)) {
        const Packet p = ctx.net_in->Pop(now);
        if (p.hdr.op == OpType::kCredit && !tree.is_root()) {
          ++parent_credits;
        } else if (!credits.FoldChild(p, window, "ReduceSupport")) {
          throw ConfigError("ReduceSupport: unexpected packet: " +
                            p.DebugString());
        }
      }
      // (4) Send one pending credit to a child.
      credits.SendOne(ctx, now);
      // NextCycle keeps the default poll-every-cycle wake hint, so the
      // event-driven engine polls this multi-FIFO loop each cycle exactly
      // like the synchronous one — but only while a reduce is in flight;
      // between collectives the kernel parks on the app_in pop above.
      co_await NextCycle{};
    }
    NotifyCollectiveSyncPoint(ctx);  // channel close
  }
}

// ---------------------------------------------------------------------------
// Scatter (§4.4, Fig. 5 left): the root serves communicator ranks in order;
// each non-root announces readiness with a READY sync, after which the root
// streams that rank's `count` elements. The root's own segment is looped
// back locally, element by element.
// ---------------------------------------------------------------------------
Kernel ScatterSupportKernel(SupportCtx ctx) {
  ReadyLedger readies;
  for (;;) {
    const CollConfig cfg =
        GetConfig(co_await fifo_pop(*ctx.app_in), "ScatterSupport");
    NotifyCollectiveSyncPoint(ctx);  // channel open
    const OpenCtx op{ctx, cfg, "ScatterSupport"};
    const int me = MyCommRank(cfg, ctx.my_global, "ScatterSupport");
    const int root = cfg.comm_global[static_cast<std::size_t>(cfg.root_comm)];
    if (me != cfg.root_comm) {
      co_await fifo_push(*ctx.net_out, MakeSync(ctx, root, OpType::kSync));
      co_await DeliverElements(op, cfg.count, root);
    } else {
      for (const int g : cfg.comm_global) {
        if (g == root) {
          co_await LoopBack(op, cfg.count);
        } else {
          co_await AwaitReady(op, readies, g);
          co_await StreamElements(op, {&g, 1}, cfg.count);
        }
      }
    }
    NotifyCollectiveSyncPoint(ctx);  // channel close
  }
}

// ---------------------------------------------------------------------------
// Gather (§4.4, Fig. 5 left, reversed): the root grants senders in
// communicator rank order, which guarantees data arrives in an order that
// can be streamed to the application without reordering buffers.
// ---------------------------------------------------------------------------
Kernel GatherSupportKernel(SupportCtx ctx) {
  for (;;) {
    const CollConfig cfg =
        GetConfig(co_await fifo_pop(*ctx.app_in), "GatherSupport");
    NotifyCollectiveSyncPoint(ctx);  // channel open
    const OpenCtx op{ctx, cfg, "GatherSupport"};
    const int me = MyCommRank(cfg, ctx.my_global, "GatherSupport");
    const int root = cfg.comm_global[static_cast<std::size_t>(cfg.root_comm)];
    if (me != cfg.root_comm) {
      const Packet grant = co_await fifo_pop(*ctx.net_in);
      if (grant.hdr.op != OpType::kSync) {
        throw ConfigError("GatherSupport: expected a grant, got " +
                          grant.DebugString());
      }
      co_await StreamElements(op, {&root, 1}, cfg.count);
    } else {
      for (const int g : cfg.comm_global) {
        if (g == root) {
          co_await LoopBack(op, cfg.count);
        } else {
          co_await fifo_push(*ctx.net_out, MakeSync(ctx, g, OpType::kSync));
          co_await DeliverElements(op, cfg.count, g);
        }
      }
    }
    NotifyCollectiveSyncPoint(ctx);  // channel close
  }
}

Kernel MakeSupportKernel(CollKind kind, CollAlgo algo, SupportCtx ctx) {
  if (algo == CollAlgo::kInnet) {
    if (kind != CollKind::kReduce) {
      throw ConfigError(
          "the in-network support kernel exists only for Reduce");
    }
    return InnetReduceSupportKernel(ctx);
  }
  switch (kind) {
    case CollKind::kBcast: return BcastSupportKernel(ctx, algo);
    case CollKind::kReduce: return ReduceSupportKernel(ctx, algo);
    case CollKind::kAllreduce: return AllreduceSupportKernel(ctx, algo);
    case CollKind::kScatter:
    case CollKind::kGather:
      if (algo != CollAlgo::kLinear) {
        throw ConfigError("tree-based support kernels exist only for Bcast, "
                          "Reduce and Allreduce");
      }
      return kind == CollKind::kScatter ? ScatterSupportKernel(ctx)
                                        : GatherSupportKernel(ctx);
  }
  throw ConfigError("unknown collective kind");
}

}  // namespace smi::core
