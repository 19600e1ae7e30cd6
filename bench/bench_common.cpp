#include "bench_common.h"

namespace smi::bench {
namespace {

using core::Cluster;
using core::Context;
using core::DataType;
using core::RecvChannel;
using core::SendChannel;
using sim::Kernel;

Kernel StreamSender(Context& ctx, int dst, int packets) {
  SendChannel ch = ctx.OpenSendChannel(packets * 7, DataType::kInt, dst, 0,
                                       ctx.world());
  std::int32_t vals[7] = {0, 1, 2, 3, 4, 5, 6};
  for (int p = 0; p < packets; ++p) {
    co_await ch.PushPacket<std::int32_t>(vals, 7);
  }
}

Kernel StreamReceiver(Context& ctx, int src, int packets) {
  RecvChannel ch = ctx.OpenRecvChannel(packets * 7, DataType::kInt, src, 0,
                                       ctx.world());
  for (int p = 0; p < packets; ++p) {
    (void)co_await ch.PopPacket<std::int32_t>();
  }
}

Kernel PingPong(Context& ctx, int peer, int rounds, bool initiator) {
  for (int r = 0; r < rounds; ++r) {
    if (initiator) {
      SendChannel s =
          ctx.OpenSendChannel(1, DataType::kInt, peer, 0, ctx.world());
      co_await s.Push<std::int32_t>(r);
      RecvChannel rc =
          ctx.OpenRecvChannel(1, DataType::kInt, peer, 0, ctx.world());
      (void)co_await rc.Pop<std::int32_t>();
    } else {
      RecvChannel rc =
          ctx.OpenRecvChannel(1, DataType::kInt, peer, 0, ctx.world());
      const std::int32_t v = co_await rc.Pop<std::int32_t>();
      SendChannel s =
          ctx.OpenSendChannel(1, DataType::kInt, peer, 0, ctx.world());
      co_await s.Push<std::int32_t>(v);
    }
  }
}

}  // namespace

void AddJsonOption(CliParser& cli) {
  cli.AddString("json", "",
                "write a machine-readable BENCH_<name>.json report to this "
                "path (\"auto\" = ./BENCH_<name>.json)");
}

std::string MaybeWriteReport(const CliParser& cli, const PerfReport& report) {
  std::string path = cli.GetString("json");
  if (path.empty()) return "";
  if (path == "auto") path = PerfReport::DefaultPath(report.name());
  report.Write(path);
  std::printf("\nwrote %s\n", path.c_str());
  return path;
}

void AddObsOptions(CliParser& cli) {
  cli.AddString("counters", "",
                "write per-entity telemetry counters (FIFO stalls, CK "
                "polling, link utilization) to this path "
                "(\"auto\" = ./COUNTERS_<name>.json)");
  cli.AddString("trace", "",
                "write a Chrome trace-event timeline (kernel activity, "
                "packet hops) to this path (\"auto\" = ./TRACE_<name>.json)");
}

bool ConfigureObs(const CliParser& cli, core::ClusterConfig& config) {
  const bool counters = !cli.GetString("counters").empty();
  const bool trace = !cli.GetString("trace").empty();
  if (counters) config.engine.collect_counters = true;
  if (trace) config.engine.collect_trace = true;
  return counters || trace;
}

void MaybeWriteObs(const CliParser& cli, PerfReport& report,
                   const core::RunTelemetry& obs) {
  report.SetSection("observability", obs.summary);
  const auto write_doc = [&](const char* option, const char* prefix,
                             const json::Value& doc) {
    std::string path = cli.GetString(option);
    if (path.empty() || doc.is_null()) return;
    if (path == "auto") path = prefix + report.name() + ".json";
    json::WriteFile(path, doc);
    std::printf("wrote %s\n", path.c_str());
  };
  write_doc("counters", "COUNTERS_", obs.counters);
  write_doc("trace", "TRACE_", obs.trace);
}

void AddFaultOptions(CliParser& cli) {
  cli.AddString("fault-plan", "",
                "enable fault injection + reliable links: an inline spec "
                "(\"drop=0.01,corrupt=0.001,budget=4\") or a JSON plan file "
                "(see src/fault/fault.h)");
  cli.AddInt("fault-seed", 0,
             "override the fault plan's seed (0 = keep the plan's)");
}

bool ConfigureFaults(const CliParser& cli, core::ClusterConfig& config) {
  const std::string plan = cli.GetString("fault-plan");
  if (plan.empty()) return false;
  config.fabric.fault = fault::FaultPlan::Parse(plan);
  const std::int64_t seed = cli.GetInt("fault-seed");
  if (seed != 0) config.fabric.fault.seed = static_cast<std::uint64_t>(seed);
  return true;
}

void MaybeWriteFaults(PerfReport& report, const json::Value& faults) {
  if (faults.is_null()) return;
  report.SetSection("faults", faults);
}

void AddFidelityOptions(CliParser& cli) {
  cli.AddString("fidelity", "cycle",
                "link simulation fidelity: \"cycle\" (cycle-accurate), "
                "\"flow\" (analytic flow model), or \"auto\" (flow with "
                "automatic drop-down to cycle accuracy; see sim/fidelity.h)");
}

bool ConfigureFidelity(const CliParser& cli, core::ClusterConfig& config) {
  config.engine.fidelity.mode = sim::ParseFidelityMode(cli.GetString("fidelity"));
  return config.engine.fidelity.enabled();
}

void MaybeWriteFidelity(PerfReport& report, const json::Value& fidelity) {
  if (fidelity.is_null()) return;
  report.SetSection("fidelity", fidelity);
}

core::RunResult StreamOnce(const net::Topology& topo, int src, int dst,
                           std::uint64_t bytes,
                           const core::ClusterConfig& config,
                           core::RunTelemetry* obs) {
  // Payload bytes -> wide-datapath packets (28 B of payload each).
  const int packets =
      static_cast<int>((bytes + net::kPayloadBytes - 1) / net::kPayloadBytes);
  Cluster cluster(topo, P2pSpec(), config);
  cluster.AddKernel(src, StreamSender(cluster.context(src), dst, packets),
                    "stream-send");
  cluster.AddKernel(dst, StreamReceiver(cluster.context(dst), src, packets),
                    "stream-recv");
  const core::RunResult result = cluster.Run();
  if (obs != nullptr) *obs = cluster.CaptureTelemetry();
  return result;
}

sim::Cycle PingPongOnce(const net::Topology& topo, int src, int dst,
                        const core::ClusterConfig& config, int rounds,
                        core::RunTelemetry* obs) {
  Cluster cluster(topo, P2pSpec(), config);
  cluster.AddKernel(src, PingPong(cluster.context(src), dst, rounds, true),
                    "ping");
  cluster.AddKernel(dst, PingPong(cluster.context(dst), src, rounds, false),
                    "pong");
  const core::RunResult result = cluster.Run();
  if (obs != nullptr) *obs = cluster.CaptureTelemetry();
  return result.cycles;
}

}  // namespace smi::bench
