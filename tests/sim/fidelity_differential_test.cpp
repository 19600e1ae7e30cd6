/// \file fidelity_differential_test.cpp
/// Differential tests for the hybrid-fidelity fast path (sim/fidelity.h,
/// sim/link.h): every workload runs cycle-accurate and under the auto
/// fidelity policy, across the synchronous, event-driven, and parallel
/// schedulers at several thread counts. The contract under test:
///
///  * payload streams are bit-identical in every mode — the flow model may
///    re-time deliveries, never reorder, drop, or duplicate them;
///  * an auto run's total cycles stay within 2% of the cycle-accurate
///    count (the flow model's only error is bounded tail/transition lag,
///    which shrinks as ranks*interval/payloads);
///  * sync and event schedulers agree exactly with each other in every
///    fidelity mode (the modeled wake schedule is scheduler-invariant);
///  * the parallel scheduler pins flow links to cycle accuracy, so a
///    parallel auto run is bit-identical to the cycle-accurate reference;
///  * an active fault plan pins the faulty cable while the rest of the
///    fabric still benefits, and the reliability protocol stays exact.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "common/json.h"
#include "core/smi.h"
#include "fault/fault.h"
#include "sim/link.h"

namespace smi::core {
namespace {

using net::Topology;
using sim::Cycle;
using sim::Engine;
using sim::EngineConfig;
using sim::FidelityMode;
using sim::FidelityPolicy;
using sim::Kernel;
using sim::SchedulerKind;
using sim::fifo_pop;
using sim::fifo_push;

const unsigned kThreadCounts[] = {1, 2, 4, 8};

double DivergencePct(Cycle value, Cycle reference) {
  const double d =
      static_cast<double>(value) - static_cast<double>(reference);
  return 100.0 * (d < 0 ? -d : d) / static_cast<double>(reference);
}

// ---------------------------------------------------------------------------
// Raw-engine relay chain: the steady-state regime the flow model targets.

Kernel Produce(sim::Fifo<std::uint32_t>& out, int n) {
  for (int i = 0; i < n; ++i) {
    co_await fifo_push(out, static_cast<std::uint32_t>(i));
  }
}

Kernel Digest(sim::Fifo<std::uint32_t>& in, int n, std::uint64_t& digest) {
  std::uint64_t h = 14695981039346656037ull;  // FNV-1a 64
  for (int i = 0; i < n; ++i) {
    h ^= co_await fifo_pop(in);
    h *= 1099511628211ull;
  }
  digest = h;
}

struct ChainRun {
  Cycle cycles = 0;
  std::uint64_t digest = 0;
  std::uint64_t promotions = 0;
};

ChainRun RunChain(SchedulerKind kind, FidelityMode mode, int hops, int n) {
  EngineConfig config;
  config.scheduler = kind;
  config.fidelity.mode = mode;
  config.fidelity.steady_window = 128;
  config.fidelity.flow_interval = 16;
  Engine engine(config);
  std::vector<sim::Fifo<std::uint32_t>*> fifos;
  for (int i = 0; i <= hops; ++i) {
    fifos.push_back(
        &engine.MakeFifo<std::uint32_t>("f" + std::to_string(i), 64));
  }
  for (int i = 0; i < hops; ++i) {
    engine.MakeComponent<sim::Link<std::uint32_t>>(
        engine, "link" + std::to_string(i), *fifos[static_cast<std::size_t>(i)],
        *fifos[static_cast<std::size_t>(i) + 1], 8);
  }
  ChainRun r;
  engine.AddKernel(Produce(*fifos.front(), n), "p");
  engine.AddKernel(Digest(*fifos.back(), n, r.digest), "c");
  r.cycles = engine.Run().cycles;
  for (const sim::FlowLinkControl* link : engine.flow_links()) {
    r.promotions += link->fidelity_counters().promotions;
  }
  return r;
}

TEST(FidelityDifferential, RelayChainAutoIsBoundedAndSchedulerInvariant) {
  const int hops = 8;
  const int n = 40000;
  const ChainRun cycle_ref =
      RunChain(SchedulerKind::kSynchronous, FidelityMode::kCycle, hops, n);
  const ChainRun cycle_event =
      RunChain(SchedulerKind::kEventDriven, FidelityMode::kCycle, hops, n);
  EXPECT_EQ(cycle_event.cycles, cycle_ref.cycles);
  EXPECT_EQ(cycle_event.digest, cycle_ref.digest);

  const ChainRun auto_sync =
      RunChain(SchedulerKind::kSynchronous, FidelityMode::kAuto, hops, n);
  const ChainRun auto_event =
      RunChain(SchedulerKind::kEventDriven, FidelityMode::kAuto, hops, n);
  // The modeled wake schedule is phase-locked, so the two sequential
  // schedulers must agree bit-exactly with each other.
  EXPECT_EQ(auto_event.cycles, auto_sync.cycles);
  EXPECT_EQ(auto_event.digest, auto_sync.digest);
  // Payloads are bit-identical to the cycle-accurate run; the cycle count
  // differs only within the documented bound, and the fast path engaged.
  EXPECT_EQ(auto_sync.digest, cycle_ref.digest);
  EXPECT_GE(auto_sync.cycles, cycle_ref.cycles);
  EXPECT_LE(DivergencePct(auto_sync.cycles, cycle_ref.cycles), 2.0);
  EXPECT_GE(auto_sync.promotions, static_cast<std::uint64_t>(hops));
}

TEST(FidelityDifferential, RelayChainParallelPinsToCycleAccuracy) {
  const int hops = 4;
  const int n = 20000;
  const ChainRun cycle_ref =
      RunChain(SchedulerKind::kSynchronous, FidelityMode::kCycle, hops, n);
  for (const unsigned threads : kThreadCounts) {
    EngineConfig config;
    config.scheduler = SchedulerKind::kParallel;
    config.threads = threads;
    (void)config;
    // RunChain builds its own config; parallel flow links are pinned, so
    // the auto run must be bit-identical to the cycle-accurate reference.
    const ChainRun par =
        RunChain(SchedulerKind::kParallel, FidelityMode::kAuto, hops, n);
    EXPECT_EQ(par.cycles, cycle_ref.cycles) << "threads=" << threads;
    EXPECT_EQ(par.digest, cycle_ref.digest) << "threads=" << threads;
    EXPECT_EQ(par.promotions, 0u) << "threads=" << threads;
  }
}

// ---------------------------------------------------------------------------
// Fabric stream: the SMI channel layer over the packet fabric. A packet
// carries several data elements, so a single kernel pushing one element per
// cycle leaves the cable idle most cycles; running several port streams in
// parallel converges enough packets on the rank-0 -> rank-1 cable to reach
// line rate, which is the regime the steady-state detector promotes.

Kernel Sender(Context& ctx, int port, int n) {
  SendChannel ch = ctx.OpenSendChannel(n, DataType::kInt, /*destination=*/1,
                                       port, ctx.world());
  for (int i = 0; i < n; ++i) {
    co_await ch.Push<std::int32_t>(i * 3 + port);
  }
}

Kernel Receiver(Context& ctx, int port, int n,
                std::vector<std::int32_t>& sink) {
  RecvChannel ch = ctx.OpenRecvChannel(n, DataType::kInt, /*source=*/0,
                                       port, ctx.world());
  for (int i = 0; i < n; ++i) sink.push_back(co_await ch.Pop<std::int32_t>());
}

struct FabricRun {
  Cycle cycles = 0;
  std::vector<std::vector<std::int32_t>> sinks;
  json::Value fidelity;
};

ClusterConfig FabricConfig(SchedulerKind kind, FidelityMode mode,
                           unsigned threads = 1) {
  ClusterConfig config;
  config.engine.scheduler = kind;
  config.engine.threads = threads;
  config.engine.fidelity.mode = mode;
  config.engine.fidelity.steady_window = 64;
  config.engine.fidelity.flow_interval = 16;
  // Deep FIFOs and a short pipeline keep the cable busy every cycle once
  // the stream is established, so the steady-state detector can engage.
  config.fabric.endpoint_fifo_depth = 64;
  config.fabric.net_fifo_depth = 64;
  config.fabric.crossbar_fifo_depth = 32;
  config.fabric.link_latency = 16;
  return config;
}

FabricRun RunFabricStream(const ClusterConfig& config, int n,
                          int streams = 8) {
  ProgramSpec spec;
  for (int port = 0; port < streams; ++port) {
    spec.Add(OpSpec::Send(port, DataType::kInt));
    spec.Add(OpSpec::Recv(port, DataType::kInt));
  }
  Cluster cluster(Topology::Bus(4), spec, config);
  FabricRun r;
  r.sinks.resize(static_cast<std::size_t>(streams));
  for (int port = 0; port < streams; ++port) {
    cluster.AddKernel(0, Sender(cluster.context(0), port, n),
                      "s" + std::to_string(port));
    cluster.AddKernel(1,
                      Receiver(cluster.context(1), port, n,
                               r.sinks[static_cast<std::size_t>(port)]),
                      "r" + std::to_string(port));
  }
  r.cycles = cluster.Run().cycles;
  r.fidelity = cluster.FidelityJson();
  return r;
}

TEST(FidelityDifferential, FabricStreamAutoIsBoundedAndExactInPayloads) {
  const int n = 6000;
  const FabricRun cycle_ref =
      RunFabricStream(FabricConfig(SchedulerKind::kSynchronous,
                                   FidelityMode::kCycle), n);
  for (const auto& sink : cycle_ref.sinks) {
    ASSERT_EQ(sink.size(), static_cast<std::size_t>(n));
  }
  EXPECT_TRUE(cycle_ref.fidelity.is_null());

  const FabricRun auto_sync = RunFabricStream(
      FabricConfig(SchedulerKind::kSynchronous, FidelityMode::kAuto), n);
  const FabricRun auto_event = RunFabricStream(
      FabricConfig(SchedulerKind::kEventDriven, FidelityMode::kAuto), n);
  EXPECT_EQ(auto_event.cycles, auto_sync.cycles);
  EXPECT_EQ(auto_event.sinks, auto_sync.sinks);
  EXPECT_EQ(auto_sync.sinks, cycle_ref.sinks);
  EXPECT_LE(DivergencePct(auto_sync.cycles, cycle_ref.cycles), 2.0);
  // The report is live and the saturated cable actually promoted.
  ASSERT_TRUE(auto_sync.fidelity.is_object());
  EXPECT_GT(auto_sync.fidelity.at("promotions").as_int(), 0);

  for (const unsigned threads : kThreadCounts) {
    const FabricRun par = RunFabricStream(
        FabricConfig(SchedulerKind::kParallel, FidelityMode::kAuto, threads),
        n);
    // Pinned to cycle accuracy: bit-identical to the cycle reference.
    EXPECT_EQ(par.cycles, cycle_ref.cycles) << "threads=" << threads;
    EXPECT_EQ(par.sinks, cycle_ref.sinks) << "threads=" << threads;
  }
}

// ---------------------------------------------------------------------------
// Collective with per-iteration sync traffic: open/close rendezvous and
// credit returns demote links, so auto must stay near the exact count even
// when the flow model barely engages.

Kernel ReduceApp(Context& ctx, int n, int root, std::vector<float>& results) {
  ReduceChannel chan =
      ctx.OpenReduceChannel(n, DataType::kFloat, ReduceOp::kAdd, /*port=*/1,
                            root, ctx.world(), /*credits=*/8);
  for (int i = 0; i < n; ++i) {
    const float snd =
        static_cast<float>(i) + static_cast<float>(ctx.rank() * 100);
    float result = 0.0f;
    co_await chan.Reduce(snd, result);
    if (ctx.rank() == root) results.push_back(result);
  }
}

struct ReduceRun {
  Cycle cycles = 0;
  std::vector<float> results;
};

ReduceRun RunReduce(const ClusterConfig& config, int n) {
  ProgramSpec spec;
  spec.Add(OpSpec::Reduce(1, DataType::kFloat));
  Cluster cluster(Topology::Bus(4), spec, config);
  ReduceRun r;
  for (int rank = 0; rank < 4; ++rank) {
    cluster.AddKernel(rank,
                      ReduceApp(cluster.context(rank), n, /*root=*/1,
                                r.results),
                      "reduce");
  }
  r.cycles = cluster.Run().cycles;
  return r;
}

TEST(FidelityDifferential, ReduceCollectiveStaysWithinBound) {
  const int n = 400;
  const ReduceRun cycle_ref =
      RunReduce(FabricConfig(SchedulerKind::kSynchronous,
                             FidelityMode::kCycle), n);
  ASSERT_EQ(cycle_ref.results.size(), static_cast<std::size_t>(n));
  const ReduceRun auto_sync = RunReduce(
      FabricConfig(SchedulerKind::kSynchronous, FidelityMode::kAuto), n);
  const ReduceRun auto_event = RunReduce(
      FabricConfig(SchedulerKind::kEventDriven, FidelityMode::kAuto), n);
  EXPECT_EQ(auto_event.cycles, auto_sync.cycles);
  EXPECT_EQ(auto_event.results, auto_sync.results);
  EXPECT_EQ(auto_sync.results, cycle_ref.results);
  EXPECT_LE(DivergencePct(auto_sync.cycles, cycle_ref.cycles), 2.0);
  for (const unsigned threads : kThreadCounts) {
    const ReduceRun par = RunReduce(
        FabricConfig(SchedulerKind::kParallel, FidelityMode::kAuto, threads),
        n);
    EXPECT_EQ(par.cycles, cycle_ref.cycles) << "threads=" << threads;
    EXPECT_EQ(par.results, cycle_ref.results) << "threads=" << threads;
  }
}

// ---------------------------------------------------------------------------
// Active fault plan: the faulty cable is pinned to cycle accuracy (the
// reliability protocol's timing is not modelable), everything else may
// still promote, and the delivered stream stays exactly-once in order.

TEST(FidelityDifferential, FaultPlanStreamStaysExactlyOnceWithinBound) {
  const int n = 6000;
  const fault::FaultPlan plan =
      fault::FaultPlan::Parse("drop=0.02,seed=7");

  auto run = [&](SchedulerKind kind, FidelityMode mode, unsigned threads) {
    ClusterConfig config = FabricConfig(kind, mode, threads);
    config.fabric.fault = plan;
    return RunFabricStream(config, n);
  };

  const FabricRun cycle_ref =
      run(SchedulerKind::kSynchronous, FidelityMode::kCycle, 1);
  for (std::size_t port = 0; port < cycle_ref.sinks.size(); ++port) {
    const auto& sink = cycle_ref.sinks[port];
    ASSERT_EQ(sink.size(), static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i) {
      // Exactly-once, in order, despite injected drops.
      ASSERT_EQ(sink[static_cast<std::size_t>(i)],
                i * 3 + static_cast<int>(port));
    }
  }

  const FabricRun auto_sync =
      run(SchedulerKind::kSynchronous, FidelityMode::kAuto, 1);
  const FabricRun auto_event =
      run(SchedulerKind::kEventDriven, FidelityMode::kAuto, 1);
  EXPECT_EQ(auto_event.cycles, auto_sync.cycles);
  EXPECT_EQ(auto_event.sinks, auto_sync.sinks);
  EXPECT_EQ(auto_sync.sinks, cycle_ref.sinks);
  EXPECT_LE(DivergencePct(auto_sync.cycles, cycle_ref.cycles), 2.0);

  for (const unsigned threads : kThreadCounts) {
    const FabricRun par =
        run(SchedulerKind::kParallel, FidelityMode::kAuto, threads);
    EXPECT_EQ(par.cycles, cycle_ref.cycles) << "threads=" << threads;
    EXPECT_EQ(par.sinks, cycle_ref.sinks) << "threads=" << threads;
  }
}

}  // namespace
}  // namespace smi::core
