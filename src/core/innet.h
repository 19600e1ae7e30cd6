#ifndef SMI_CORE_INNET_H
#define SMI_CORE_INNET_H

/// \file innet.h
/// In-network reduction (CollAlgo::kInnet): the collective-side half of the
/// reduce-in-transit handlers of transport/handler.h.
///
/// Protocol. Every non-root streams its own contributions straight to the
/// root as *envelope* data packets (InnetEnvelope: a base element index and
/// a folded-contribution count ahead of the elements). All ranks chunk their
/// streams identically — a packet flushes on a full envelope, at a credit
/// tile boundary, or at message end, a pure function of (count, element
/// size, C) — so two packets with equal base always carry the same element
/// range and every network-egress CKS along the way can fold same-base
/// packets into one (summing their contribution counts). The root folds its
/// own elements locally and counts contributions per element; an element is
/// complete when its count reaches the communicator size, however arbitrarily
/// the network merged the streams on the way in.
///
/// Flow control reuses the credit-tile scheme of the linear/tree Reduce
/// (§4.4), with the grant direction also offloaded to the network: the root
/// sends ONE credit packet addressed to itself per tile; the CKR fan-out
/// handlers replicate it down a fan tree over the communicator, so the grant
/// reaches n-1 ranks with one packet per tree edge instead of the root
/// serializing n-1 credit sends. Each non-root sends the root one READY at
/// open; the root grants tile 0 at its own open and further tiles once every
/// READY is in, so a rank busy elsewhere holds at most one packet of this
/// collective. The root grants an open only after folding the previous one,
/// so successive opens never meet in the network. The root's window is
/// min(tiles, 2 + window_cycles / C) tiles deep: the tile emitting now, one
/// more, and the grant round-trip (CollConfig::window_cycles) — the
/// bandwidth-delay product of DESIGN.md §12 — so grants stay ahead of even
/// the farthest rank and the round-trip hides behind the streaming instead
/// of stalling tile boundaries.
///
/// Stream pacing. Serial links are long (FabricConfig::link_latency ~1e2
/// cycles), so contributions from ranks at different hop distances would
/// reach a funnel rank hundreds of cycles apart — far outside any combine
/// hold window — and nothing would ever merge. Two measures align the
/// streams by construction:
///  * the credit fan tree follows the REVERSED data routing tree (each
///    non-root's fan parent is the next communicator member on its routed
///    path toward the root), so a grant reaches rank r after dist(r, root)
///    link hops; and
///  * after each grant, rank r delays the granted tile by
///        pace_wait(r) = (D - dist(r, root)) * 2 * L_hop
///    (D = max communicator distance, L_hop = per-hop latency). Grant
///    arrival + pace + data travel back to any funnel F on r's path then
///    telescopes to a constant independent of r, so all same-base packets
///    meet at F within scheduling jitter and fold into one.
/// The pacing is a merge heuristic only — any delay (including zero) is
/// protocol-correct because the root counts contributions per element.
///
/// The handler tables this collective needs are built here
/// (`AppendInnetHandlers`) and installed by the Cluster alongside the
/// routing tables; the element-fold function is injected into the transport
/// as a plain function pointer (`MakeInnetCombiner`) so the transport layer
/// stays datatype-agnostic.

#include <vector>

#include "core/coll_token.h"
#include "core/types.h"
#include "transport/handler.h"

namespace smi::core {

/// Element-fold function for the reduce-in-transit handler: folds the
/// element region of `in` into `acc` elementwise under (op, type). A plain
/// function pointer (captureless) so the transport stays free of core types.
transport::HandlerEntry::CombineFn MakeInnetCombiner(ReduceOp op,
                                                     DataType type);

/// Append the handler entries an in-network reduction on `port` needs to the
/// per-rank tables (one table per global rank, `tables.size() == num ranks`):
///  * a reduce-combine entry on EVERY rank (compute and switch — transit
///    hops are where fan-in funnels) keyed (port, kData), with `hold_cycles`
///    and per-rank max_contribs taken from `funnel_contribs` (see below);
///  * a credit fan-out entry keyed (port, kCredit) on each non-leaf of the
///    grant fan tree over `comm_global` rooted at `root_global`.
///
/// `funnel_contribs[g]` is rank g's funnel in-degree: how many communicator
/// contributions route through g's network egress on their way to the root
/// (a contributor counts at its own rank). It caps what a combine-buffer
/// packet at g can ever accumulate, so a packet that reaches it departs
/// immediately instead of idling out the hold window — in particular a
/// non-funnel rank (in-degree 1) forwards at full rate with no added
/// latency. The cap is a flush heuristic only: any value is
/// protocol-correct because the root counts contributions per element.
///
/// `fan_children[g]` lists rank g's children in the grant fan tree (global
/// ranks; see "stream pacing" above — the Cluster derives it from the
/// routing tables so fan distance mirrors data distance).
///
/// Both vectors need one entry per rank (`tables.size()`); any other size
/// is a ConfigError.
void AppendInnetHandlers(std::vector<transport::HandlerTable>& tables,
                         int port, ReduceOp op, DataType type, int root_global,
                         const std::vector<int>& comm_global, int hold_cycles,
                         const std::vector<int>& funnel_contribs,
                         const std::vector<std::vector<int>>& fan_children);

}  // namespace smi::core

#endif  // SMI_CORE_INNET_H
