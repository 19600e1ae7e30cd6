#ifndef SMI_RESOURCES_MODEL_H
#define SMI_RESOURCES_MODEL_H

/// \file model.h
/// Structural FPGA resource model for SMI fabrics (Tables 1 and 2).
///
/// Quartus synthesis is not available in this environment, so resource
/// consumption is computed from a structural model anchored exactly on the
/// paper's published measurements: for the interconnect and the
/// communication kernels, the cost of a P-port fabric is a power law fitted
/// through the paper's two anchor points (1 QSFP and 4 QSFPs) — the paper
/// itself observes that "the number of used resources grows slightly faster
/// than linear" because each CK's input/output channel count grows with the
/// number of QSFPs. Collective support kernel costs are the paper's
/// constants.

#include <cstdint>
#include <string>
#include <vector>

#include "core/coll_token.h"

namespace smi::resources {

/// One resource vector: lookup tables, flip-flops, M20K memory blocks, DSPs.
struct Resources {
  double luts = 0;
  double ffs = 0;
  double m20ks = 0;
  double dsps = 0;

  Resources& operator+=(const Resources& o) {
    luts += o.luts;
    ffs += o.ffs;
    m20ks += o.m20ks;
    dsps += o.dsps;
    return *this;
  }
  friend Resources operator+(Resources a, const Resources& b) {
    return a += b;
  }
  friend Resources operator*(double k, Resources r) {
    r.luts *= k;
    r.ffs *= k;
    r.m20ks *= k;
    r.dsps *= k;
    return r;
  }
};

/// Device capacity database. Defaults to the paper's Stratix 10 GX2800.
struct DeviceCapacity {
  std::string name = "Stratix 10 GX2800";
  double luts = 1866240;   // 933,120 ALMs x 2 ALUTs
  double ffs = 3732480;
  double m20ks = 11721;
  double dsps = 5760;
};

/// Interconnect (inter-CK FIFOs and wiring) for a fabric with `ports` QSFP
/// interfaces (Table 1, "Interconn." rows).
Resources Interconnect(int ports);

/// All CKS/CKR communication kernels for `ports` QSFP interfaces, with one
/// application endpoint attached per CK pair (Table 1, "C. K." rows).
Resources CommunicationKernels(int ports);

/// Whole SMI transport for `ports` interfaces (interconnect + CKs).
Resources Transport(int ports);

/// Collective support kernels (Table 2; Reduce is the FP32 SUM variant).
/// Allreduce is not in the paper: it is modeled as the sum of the Reduce
/// and Bcast kernel costs (the composition instantiates both protocol
/// halves around one shared port).
Resources CollectiveKernel(core::CollKind kind);

/// Algorithm-aware variant: the binomial-tree kernels carry extra
/// parent/children bookkeeping (tree walk, per-child sequence state) over
/// the linear ones, modeled as a structural 15% LUT/FF overhead. The
/// in-network kernel itself is *cheaper* than the linear Reduce (the fold
/// logic moves into the CK handlers, costed separately via Handler()),
/// modeled as 85% of the linear LUT/FF cost with half the DSPs.
Resources CollectiveKernel(core::CollKind kind, core::CollAlgo algo);

/// In-network handler stages attached to the CK forwarding path
/// (transport/handler.h). Not in the paper; structural estimates:
///  * reduce-combine — a packet-wide match/hold buffer (M20Ks) plus an
///    elementwise fold pipeline (DSPs for the floating-point types);
///  * fan-out — a replication queue and per-child re-addressing.
enum class HandlerKind : std::uint8_t { kReduceCombine, kFanOut };

const char* HandlerKindName(HandlerKind kind);

Resources Handler(HandlerKind kind, core::DataType type);

/// Percentages of `device` consumed by `r`.
struct Utilization {
  double luts_pct = 0;
  double ffs_pct = 0;
  double m20ks_pct = 0;
  double dsps_pct = 0;
};
Utilization Utilize(const Resources& r, const DeviceCapacity& device = {});

}  // namespace smi::resources

#endif  // SMI_RESOURCES_MODEL_H
