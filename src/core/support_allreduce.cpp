#include <algorithm>
#include <map>
#include <vector>

#include "core/coll_tree.h"
#include "core/support_internal.h"

/// \file support_allreduce.cpp
/// Allreduce support kernel: the reduce-then-broadcast composition on a
/// single collective port (§4.4 names composition of the existing support
/// kernels as the path to further collectives). One kernel instance carries
/// both phases:
///
///  * Up phase — the protocol of Reduce's root and inner nodes: every node
///    folds its application stream with its children's partials in a C-deep
///    window and forwards completed elements to its parent, tile by tile
///    under per-edge credit flow control. Unlike Reduce, *all* credits are
///    explicit (including tile 0): a parent grants tile 0 when it enters
///    the open, so a fast child can never push data from open k+1 into a
///    parent still folding open k.
///  * Down phase — the root's completed results double as the broadcast
///    payload: each result is delivered to the local application and
///    forwarded down the same tree, one child per cycle. Elements travel
///    one per packet in both phases because the Allreduce channel is a
///    per-element request/response rendezvous (see the in-loop comments).
///    No READY rendezvous is needed: a down packet for open k can only
///    exist after every rank contributed to open k, which implies every
///    rank has entered open k.
///
/// Credits that arrive while a node is still draining the previous open's
/// down phase are banked in a ledger keyed by the granting rank (the same
/// role the READY ledger plays for Bcast/Scatter) and consumed when the
/// next open needs them.
///
/// The tree shape is a build-time parameter, the CollTree of coll_tree.h:
/// kLinear is the flat tree (rank 0 parents all n-1 peers — the linear
/// Reduce/Bcast pair), kTree the binomial tree with logarithmic fan-in/out
/// at every node.

namespace smi::core {

using net::OpType;
using net::Packet;
using sim::Cycle;
using sim::Kernel;
using sim::NextCycle;
using sim::fifo_pop;

Kernel AllreduceSupportKernel(SupportCtx ctx, CollAlgo algo) {
  // Credits banked across opens, keyed by the granting (parent) global
  // rank. Grants for open k+1 can arrive while this node still drains open
  // k's down phase; totals per edge balance exactly (ceil(count/C) grants
  // granted and consumed per open), so nothing leaks between parents.
  std::map<int, int> credit_ledger;
  for (;;) {
    const CollConfig cfg =
        GetConfig(co_await fifo_pop(*ctx.app_in), "AllreduceSupport");
    NotifyCollectiveSyncPoint(ctx);  // channel open
    const CollTree tree(
        cfg, MyCommRank(cfg, ctx.my_global, "AllreduceSupport"), algo);
    const bool is_root = tree.is_root();
    const int parent_global = tree.parent;
    const std::vector<int>& child_globals = tree.children;
    const std::size_t esz = SizeOf(cfg.type);
    const int C = std::max(1, cfg.credits);
    const int sources = 1 + static_cast<int>(child_globals.size());

    if (cfg.count == 0) continue;

    // --- Up phase (reduce toward rel 0) ---
    FoldWindow window(cfg, C, sources);
    ChildCredits credits(cfg, child_globals, C);
    credits.GrantAll();     // the explicit tile-0 grant
    int up_done = 0;        // elements fully folded and dispatched upward
                            // (at the root: delivered + staged downward)
    int parent_tiles = 0;   // tiles of parent credit consumed this open
    Packet up_pkt =
        MakeSync(ctx, parent_global < 0 ? 0 : parent_global, OpType::kData);

    // --- Down phase (result broadcast from rel 0) ---
    int delivered = 0;  // result elements pushed to the application
    Packet down_pkt = MakeSync(ctx, 0, OpType::kData);  // root result staging
    std::vector<int> fwd_pending;  // children still owed the current packet
    Packet cur_down;               // non-root: packet being delivered
    int deliver_idx = 0;
    bool have_down = false;

    while (up_done < cfg.count || delivered < cfg.count ||
           !fwd_pending.empty() || have_down) {
      const Cycle now = *ctx.now;
      // (1) Advance the up phase: once every source contributed the next
      // element, it becomes a result (root) or flows to the parent under
      // credit flow control.
      if (up_done < cfg.count && window.Complete(up_done)) {
        bool advanced = false;
        if (is_root) {
          // The result is final: deliver locally and stage it into the down
          // packet, which must not still be in flight to the children.
          if (fwd_pending.empty() && ctx.app_out->CanPush(now)) {
            ctx.app_out->Push(CollToken(window.Value(up_done)), now);
            ++delivered;
            if (!child_globals.empty()) {
              // Same per-element rendezvous constraint as the up phase: a
              // result held in a partially filled down packet would block
              // every non-root rank's pop of that result.
              PackElement(down_pkt, 0, window.Value(up_done), esz);
              down_pkt.hdr.count = 1;
              fwd_pending = child_globals;
            }
            advanced = true;
          }
        } else {
          if (up_done >= parent_tiles * C &&
              credit_ledger[parent_global] > 0) {
            --credit_ledger[parent_global];
            ++parent_tiles;
          }
          if (up_done < parent_tiles * C &&
              ctx.net_out->CanPush(now)) {
            // One element per packet: the Allreduce channel is a per-element
            // request/response rendezvous (the application pushes element i
            // and blocks until result i returns), so holding element i in a
            // partially filled packet would stall the whole communicator.
            PackElement(up_pkt, 0, window.Value(up_done), esz);
            up_pkt.hdr.count = 1;
            ctx.net_out->Push(up_pkt, now);
            advanced = true;
          }
        }
        if (advanced) {
          window.Retire(up_done);
          credits.Emitted(++up_done);
        }
      }
      // (2) Fold one local element within the accumulation window.
      window.FoldLocal(ctx, now, up_done, "AllreduceSupport");
      // (3) Classify one incoming packet: parent credit, parent down-data,
      // or child contribution. Held back while a down packet is still being
      // delivered, so down packets are consumed strictly in order.
      if (!have_down && ctx.net_in->CanPop(now)) {
        const Packet p = ctx.net_in->Pop(now);
        if (p.hdr.op == OpType::kCredit) {
          ++credit_ledger[p.hdr.src];
        } else if (p.hdr.op == OpType::kData && p.hdr.src == parent_global) {
          cur_down = p;
          deliver_idx = 0;
          have_down = true;
          fwd_pending = child_globals;
        } else if (!credits.FoldChild(p, window, "AllreduceSupport")) {
          throw ConfigError("AllreduceSupport: unexpected packet: " +
                            p.DebugString());
        }
      }
      // (4) Deliver one element of the current down packet to the
      // application.
      if (have_down && deliver_idx < cur_down.hdr.count &&
          ctx.app_out->CanPush(now)) {
        ctx.app_out->Push(CollToken(UnpackElement(cur_down, deliver_idx, esz)),
                          now);
        ++deliver_idx;
        ++delivered;
      }
      // (5) Forward the staged/current down packet to one child per cycle.
      if (!fwd_pending.empty() && ctx.net_out->CanPush(now)) {
        Packet p = is_root ? down_pkt : cur_down;
        p.hdr.src = static_cast<std::uint16_t>(ctx.my_global);
        p.hdr.dst = static_cast<std::uint16_t>(fwd_pending.back());
        ctx.net_out->Push(p, now);
        fwd_pending.pop_back();
      }
      if (have_down && deliver_idx == cur_down.hdr.count &&
          fwd_pending.empty()) {
        have_down = false;
      }
      // (6) Send one pending credit to a child.
      credits.SendOne(ctx, now);
      co_await NextCycle{};
    }
    NotifyCollectiveSyncPoint(ctx);  // channel close
  }
}

}  // namespace smi::core
