#ifndef SMI_BENCH_BENCH_COMMON_H
#define SMI_BENCH_BENCH_COMMON_H

/// \file bench_common.h
/// Shared plumbing for the paper-reproduction benchmarks: point-to-point
/// stream/ping-pong drivers over a Cluster, and table formatting.

#include <cstdio>
#include <string>
#include <vector>

#include "common/cli.h"
#include "common/perf_report.h"
#include "common/string_util.h"
#include "core/smi.h"
#include "net/topology.h"

namespace smi::bench {

/// Register the shared `--json <path>` option. When given, the bench writes
/// its PerfReport there; pass "auto" for `./BENCH_<name>.json`.
void AddJsonOption(CliParser& cli);

/// Write `report` to the path selected by `--json` (no-op when the option
/// was left empty). Returns the path written, or "" if none.
std::string MaybeWriteReport(const CliParser& cli, const PerfReport& report);

/// Register the shared telemetry options: `--counters <path>` (per-entity
/// hardware counters) and `--trace <path>` (Chrome trace-event timeline).
/// Pass "auto" for `./COUNTERS_<name>.json` / `./TRACE_<name>.json`.
void AddObsOptions(CliParser& cli);

/// Flip the engine telemetry flags on `config` according to the CLI options
/// registered by AddObsOptions; returns true when any collection was
/// requested (collection stays off — and costs nothing — otherwise).
bool ConfigureObs(const CliParser& cli, core::ClusterConfig& config);

/// Write captured telemetry (see core::RunTelemetry) to the `--counters` /
/// `--trace` paths and embed the aggregate summary into `report` under
/// "observability". Call before MaybeWriteReport so the summary lands in
/// the report file. When a bench loops over several runs, pass the capture
/// of the run you want the documents for (conventionally the last).
void MaybeWriteObs(const CliParser& cli, PerfReport& report,
                   const core::RunTelemetry& obs);

/// Register the shared fault-injection options: `--fault-plan <spec|file>`
/// (inline spec like "drop=0.01,corrupt=0.001,budget=4" or a JSON plan
/// file; see fault/fault.h) and `--fault-seed <n>` (plan seed override).
void AddFaultOptions(CliParser& cli);

/// Parse `--fault-plan` into `config.fabric.fault`, applying a nonzero
/// `--fault-seed`. Returns true when a plan was enabled (the bench should
/// then run a faulty series and report the overhead vs the lossless runs).
bool ConfigureFaults(const CliParser& cli, core::ClusterConfig& config);

/// Embed the fault/reliability report under "faults" in the bench report
/// (no-op when `faults` is null, i.e. no plan was enabled).
void MaybeWriteFaults(PerfReport& report, const json::Value& faults);

/// Register the shared link-fidelity option `--fidelity {cycle,flow,auto}`
/// (see sim/fidelity.h; default "cycle" keeps the cycle-accurate links).
void AddFidelityOptions(CliParser& cli);

/// Parse the fidelity options into `config.engine.fidelity`. The mode token
/// is matched strictly ("Auto", "flow," and "" are rejected with a
/// ConfigError). Returns true when a non-cycle mode was selected.
bool ConfigureFidelity(const CliParser& cli, core::ClusterConfig& config);

/// Embed the link-fidelity report under "fidelity" in the bench report
/// (no-op when `fidelity` is null, i.e. cycle mode).
void MaybeWriteFidelity(PerfReport& report, const json::Value& fidelity);

/// The SPMD spec used by the microbenchmarks: one send and one recv
/// endpoint on port 0 of every rank.
inline core::ProgramSpec P2pSpec() {
  core::ProgramSpec spec;
  spec.Add(core::OpSpec::Send(0, core::DataType::kInt));
  spec.Add(core::OpSpec::Recv(0, core::DataType::kInt));
  return spec;
}

/// Stream `bytes` of payload from rank `src` to rank `dst` using the wide
/// (one packet per cycle) datapath; returns the run result. When `obs` is
/// non-null, the run's telemetry documents are captured into it.
core::RunResult StreamOnce(const net::Topology& topo, int src, int dst,
                           std::uint64_t bytes,
                           const core::ClusterConfig& config,
                           core::RunTelemetry* obs = nullptr);

/// One ping-pong round trip of a single-int message between ranks src and
/// dst; returns total cycles for the round trip. When `obs` is non-null,
/// the run's telemetry documents are captured into it.
sim::Cycle PingPongOnce(const net::Topology& topo, int src, int dst,
                        const core::ClusterConfig& config, int rounds = 1,
                        core::RunTelemetry* obs = nullptr);

inline void PrintRule(int width = 78) {
  for (int i = 0; i < width; ++i) std::putchar('-');
  std::putchar('\n');
}

inline void PrintTitle(const std::string& title) {
  PrintRule();
  std::printf("%s\n", title.c_str());
  PrintRule();
}

}  // namespace smi::bench

#endif  // SMI_BENCH_BENCH_COMMON_H
