#include "resources/model.h"

#include <cmath>

#include "common/error.h"

namespace smi::resources {
namespace {

/// Power law v(P) = v1 * P^e with e chosen so that v(4) equals the paper's
/// 4-QSFP anchor: e = log(v4/v1) / log(4). Reproduces both anchors exactly
/// and interpolates/extrapolates other port counts.
double PowerLaw(double v1, double v4, int ports) {
  if (ports < 1) throw ConfigError("resource model needs >= 1 port");
  const double e = std::log(v4 / v1) / std::log(4.0);
  return v1 * std::pow(static_cast<double>(ports), e);
}

}  // namespace

Resources Interconnect(int ports) {
  Resources r;
  r.luts = PowerLaw(144, 1152, ports);
  r.ffs = PowerLaw(4872, 39264, ports);
  r.m20ks = 0;
  r.dsps = 0;
  return r;
}

Resources CommunicationKernels(int ports) {
  Resources r;
  r.luts = PowerLaw(6186, 30960, ports);
  r.ffs = PowerLaw(7189, 31072, ports);
  r.m20ks = PowerLaw(10, 40, ports);
  r.dsps = 0;
  return r;
}

Resources Transport(int ports) {
  return Interconnect(ports) + CommunicationKernels(ports);
}

Resources CollectiveKernel(core::CollKind kind) {
  Resources r;
  switch (kind) {
    case core::CollKind::kBcast:
      r.luts = 2560;
      r.ffs = 3593;
      break;
    case core::CollKind::kReduce:
      r.luts = 10268;
      r.ffs = 14648;
      r.dsps = 6;
      break;
    case core::CollKind::kScatter:
      // Not reported in the paper; structurally a Bcast-style kernel with
      // per-rank sequencing, estimated at the Bcast cost plus a sequencing
      // counter.
      r.luts = 2800;
      r.ffs = 3900;
      break;
    case core::CollKind::kGather:
      r.luts = 2800;
      r.ffs = 3900;
      break;
    case core::CollKind::kAllreduce:
      // Reduce + Bcast composition: both protocol halves are instantiated
      // in the one kernel, so the cost is the sum of the two Table 2 rows.
      r.luts = 10268 + 2560;
      r.ffs = 14648 + 3593;
      r.dsps = 6;
      break;
  }
  return r;
}

Resources CollectiveKernel(core::CollKind kind, core::CollAlgo algo) {
  Resources r = CollectiveKernel(kind);
  if (algo == core::CollAlgo::kTree) {
    // Structural estimate: the tree kernels add the binomial-tree walk and
    // per-child sequencing/credit state on top of the linear datapath.
    r.luts *= 1.15;
    r.ffs *= 1.15;
  } else if (algo == core::CollAlgo::kInnet) {
    // The endpoint kernel sheds the per-child fan-in/fan-out machinery
    // (contributions arrive pre-merged, credits leave as one multicast);
    // the fold pipeline it keeps is the root-side one only. The in-transit
    // combine stages are costed separately (Handler()).
    r.luts *= 0.85;
    r.ffs *= 0.85;
    r.dsps *= 0.5;
  }
  return r;
}

const char* HandlerKindName(HandlerKind kind) {
  switch (kind) {
    case HandlerKind::kReduceCombine: return "reduce_combine";
    case HandlerKind::kFanOut: return "fan_out";
  }
  return "?";
}

Resources Handler(HandlerKind kind, core::DataType type) {
  Resources r;
  switch (kind) {
    case HandlerKind::kReduceCombine:
      // Match/hold slots are packet-wide registers plus an M20K-backed
      // buffer; the fold pipeline needs DSPs only for the FP types.
      r.luts = 1800;
      r.ffs = 2400;
      r.m20ks = 2;
      if (type == core::DataType::kFloat || type == core::DataType::kDouble) {
        r.dsps = 2;
      }
      break;
    case HandlerKind::kFanOut:
      r.luts = 400;
      r.ffs = 520;
      break;
  }
  return r;
}

Utilization Utilize(const Resources& r, const DeviceCapacity& device) {
  Utilization u;
  u.luts_pct = 100.0 * r.luts / device.luts;
  u.ffs_pct = 100.0 * r.ffs / device.ffs;
  u.m20ks_pct = 100.0 * r.m20ks / device.m20ks;
  u.dsps_pct = 100.0 * r.dsps / device.dsps;
  return u;
}

}  // namespace smi::resources
