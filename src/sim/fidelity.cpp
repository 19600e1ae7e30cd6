#include "sim/fidelity.h"

#include "common/error.h"
#include "common/logging.h"

namespace smi::sim {

FlowLinkControl::~FlowLinkControl() = default;

namespace detail {

void WarnFidelityThrash(const std::string& link, std::uint64_t transitions,
                        Cycle now) {
  SMI_LOG_WARN << "fidelity thrash on " << link << ": " << transitions
               << " mode transitions within " << kFidelityThrashWindow
               << " cycles (at cycle " << now
               << "); consider a larger steady window or cycle mode";
}

}  // namespace detail

FidelityMode ParseFidelityMode(const std::string& text) {
  if (text == "cycle") return FidelityMode::kCycle;
  if (text == "flow") return FidelityMode::kFlow;
  if (text == "auto") return FidelityMode::kAuto;
  throw ConfigError("invalid fidelity mode \"" + text +
                    "\" (expected cycle, flow or auto)");
}

const char* FidelityModeName(FidelityMode mode) {
  switch (mode) {
    case FidelityMode::kCycle:
      return "cycle";
    case FidelityMode::kFlow:
      return "flow";
    case FidelityMode::kAuto:
      return "auto";
  }
  return "cycle";
}

FlowBatch PlanFlowTransfer(Cycle last_wake, Cycle now,
                           std::uint64_t tx_available,
                           std::uint64_t window_free) {
  FlowBatch batch;
  if (now <= last_wake) return batch;
  const Cycle elapsed = now - last_wake;
  // Bandwidth bound: the cycle-accurate link moves at most one payload per
  // cycle, so `elapsed` cycles admit at most this many.
  const std::uint64_t budget = elapsed;
  batch.interval_budget = budget;
  batch.accepts = budget;
  if (tx_available < batch.accepts) batch.accepts = tx_available;
  if (window_free < batch.accepts) batch.accepts = window_free;
  if (batch.accepts == 0) return batch;
  // Pop schedule. TX-bound partial batch (a drained stream tail): every
  // accepted payload was already committed-available at `last_wake`, and
  // the credit window stays strictly open throughout, so the cycle-accurate
  // link would have popped them back-to-back starting right after the last
  // wake. That *earliest-consistent* schedule is exact — using the
  // latest-consistent one here would stamp every hop's final batch up to an
  // interval late and compound per hop down the chain.
  if (batch.accepts == tx_available && batch.accepts < budget &&
      batch.accepts < window_free) {
    batch.first_pop = last_wake + 1;
    return batch;
  }
  // Otherwise latest-consistent: one pop per cycle, the last at `now`. On a
  // saturated link (accepts == elapsed) this is exactly the per-cycle
  // schedule `last_wake + 1, ..., now`; on an underfull link it errs late
  // by at most `elapsed`, never early.
  batch.first_pop = now - (batch.accepts - 1);
  return batch;
}

json::Value FidelityReportJson(
    FidelityMode mode, const std::vector<const FlowLinkControl*>& links) {
  json::Object o;
  o["mode"] = std::string(FidelityModeName(mode));
  obs::FidelityCounters totals;
  json::Array rows;
  for (const FlowLinkControl* link : links) {
    if (link == nullptr) continue;
    const obs::FidelityCounters& c = link->fidelity_counters();
    json::Object row;
    row["link"] = link->flow_link_name();
    row["in_flow_mode"] = link->in_flow_mode();
    row["stepped_cycles"] = c.stepped_cycles;
    row["modeled_cycles"] = c.modeled_cycles;
    row["modeled_fraction"] = c.modeled_fraction();
    row["promotions"] = c.promotions;
    row["thrash_warnings"] = c.thrash_warnings;
    json::Object dem;
    dem["congestion"] = c.demotions_congestion;
    dem["drain"] = c.demotions_drain;
    dem["sync"] = c.demotions_sync;
    dem["forced"] = c.demotions_forced;
    row["demotions"] = std::move(dem);
    rows.push_back(std::move(row));
    totals.stepped_cycles += c.stepped_cycles;
    totals.modeled_cycles += c.modeled_cycles;
    totals.promotions += c.promotions;
    totals.demotions_congestion += c.demotions_congestion;
    totals.demotions_drain += c.demotions_drain;
    totals.demotions_sync += c.demotions_sync;
    totals.demotions_forced += c.demotions_forced;
    totals.thrash_warnings += c.thrash_warnings;
  }
  o["links"] = std::move(rows);
  o["modeled_fraction"] = totals.modeled_fraction();
  o["promotions"] = totals.promotions;
  o["thrash_warnings"] = totals.thrash_warnings;
  json::Object dem;
  dem["congestion"] = totals.demotions_congestion;
  dem["drain"] = totals.demotions_drain;
  dem["sync"] = totals.demotions_sync;
  dem["forced"] = totals.demotions_forced;
  o["demotions"] = std::move(dem);
  return o;
}

}  // namespace smi::sim
