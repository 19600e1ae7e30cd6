/// \file fidelity_cycles_test.cpp
/// Golden cycle counts and payload digests for the hybrid-fidelity link.
/// The differential tests (fidelity_differential_test.cpp) only bound the
/// flow model's error against cycle accuracy, so a change that moved
/// flow-mode timing inside that bound would pass them. These rows pin the
/// exact numbers instead: simulated cycles are deterministic, so a refactor
/// of the link that keeps its cycle step, mode state machine and modeled
/// wake plan must keep every row bit-identical. A deliberate timing change
/// updates the table and says which rows moved and why.
///
/// Every row runs under the synchronous and the event-driven scheduler; the
/// modeled wake schedule is scheduler-invariant, so both must hit the same
/// golden values.

#include <gtest/gtest.h>

#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include "core/smi.h"
#include "sim/link.h"

namespace smi::core {
namespace {

using net::Topology;
using sim::Cycle;
using sim::Engine;
using sim::EngineConfig;
using sim::FidelityMode;
using sim::Kernel;
using sim::SchedulerKind;
using sim::fifo_pop;
using sim::fifo_push;

constexpr std::uint64_t kFnvBasis = 14695981039346656037ull;
constexpr std::uint64_t kFnvPrime = 1099511628211ull;

const SchedulerKind kSchedulers[] = {SchedulerKind::kSynchronous,
                                     SchedulerKind::kEventDriven};

const char* SchedulerName(SchedulerKind kind) {
  return kind == SchedulerKind::kSynchronous ? "sync" : "event";
}

// ---------------------------------------------------------------------------
// Raw-engine relay chains: `hops` links of latency 8 between depth-64 FIFOs,
// steady window 128, flow interval 16.

/// Traffic shape at the chain ends.
enum class Shape {
  kSteady,   ///< line-rate source, sink pops every cycle
  kBursty,   ///< line-rate bursts separated by idle gaps (promote/drain)
  kStalled,  ///< line-rate stream whose sink pauses once mid-stream
};

constexpr int kBurst = 256;
constexpr Cycle kBurstGap = 400;
constexpr Cycle kSinkStall = 1000;

Kernel Produce(sim::Fifo<std::uint32_t>& out, int n, Shape shape) {
  for (int i = 0; i < n; ++i) {
    co_await fifo_push(out, static_cast<std::uint32_t>(i * 7 + 1));
    if (shape == Shape::kBursty && (i + 1) % kBurst == 0) {
      co_await sim::WaitCycles{kBurstGap};
    }
  }
}

Kernel Digest(sim::Fifo<std::uint32_t>& in, int n, Shape shape,
              std::uint64_t& digest) {
  std::uint64_t h = kFnvBasis;
  for (int i = 0; i < n; ++i) {
    // A sink that stops popping backs the stream up into every hop: the
    // flow-mode links see a matured payload they cannot deliver.
    if (shape == Shape::kStalled && i == n / 2) {
      co_await sim::WaitCycles{kSinkStall};
    }
    h ^= co_await fifo_pop(in);
    h *= kFnvPrime;
  }
  digest = h;
}

struct ChainRow {
  std::string name;
  FidelityMode mode;
  Shape shape;
  int hops;
  int payloads;
  Cycle cycles;
  std::uint64_t digest;
  std::uint64_t promotions;
};

void PrintTo(const ChainRow& row, std::ostream* os) { *os << row.name; }

struct Outcome {
  Cycle cycles = 0;
  std::uint64_t digest = 0;
  std::uint64_t promotions = 0;
};

Outcome RunChain(const ChainRow& row, SchedulerKind kind) {
  EngineConfig config;
  config.scheduler = kind;
  config.fidelity.mode = row.mode;
  config.fidelity.steady_window = 128;
  config.fidelity.flow_interval = 16;
  Engine engine(config);
  std::vector<sim::Fifo<std::uint32_t>*> fifos;
  for (int i = 0; i <= row.hops; ++i) {
    fifos.push_back(
        &engine.MakeFifo<std::uint32_t>("f" + std::to_string(i), 64));
  }
  for (int i = 0; i < row.hops; ++i) {
    engine.MakeComponent<sim::Link<std::uint32_t>>(
        engine, "link" + std::to_string(i), *fifos[static_cast<std::size_t>(i)],
        *fifos[static_cast<std::size_t>(i) + 1], 8);
  }
  Outcome out;
  engine.AddKernel(Produce(*fifos.front(), row.payloads, row.shape), "p");
  engine.AddKernel(Digest(*fifos.back(), row.payloads, row.shape, out.digest),
                   "c");
  out.cycles = engine.Run().cycles;
  for (const sim::FlowLinkControl* link : engine.flow_links()) {
    out.promotions += link->fidelity_counters().promotions;
  }
  return out;
}

class FidelityChainCycles : public ::testing::TestWithParam<ChainRow> {};

TEST_P(FidelityChainCycles, MatchGolden) {
  const ChainRow& row = GetParam();
  for (const SchedulerKind kind : kSchedulers) {
    const Outcome out = RunChain(row, kind);
    EXPECT_EQ(out.cycles, row.cycles) << SchedulerName(kind);
    EXPECT_EQ(out.digest, row.digest) << SchedulerName(kind);
    EXPECT_EQ(out.promotions, row.promotions) << SchedulerName(kind);
  }
}

INSTANTIATE_TEST_SUITE_P(
    RelayChain, FidelityChainCycles,
    ::testing::Values(
        ChainRow{"Hop1SteadyCycle", FidelityMode::kCycle, Shape::kSteady, 1,
                 3000, 3010, 13312612648038941333ull, 0},
        ChainRow{"Hop1SteadyFlow", FidelityMode::kFlow, Shape::kSteady, 1,
                 3000, 3033, 13312612648038941333ull, 1},
        ChainRow{"Hop1SteadyAuto", FidelityMode::kAuto, Shape::kSteady, 1,
                 3000, 3033, 13312612648038941333ull, 1},
        ChainRow{"Hop4ShortCycle", FidelityMode::kCycle, Shape::kSteady, 4,
                 100, 137, 10273116171784464925ull, 0},
        ChainRow{"Hop4ShortFlow", FidelityMode::kFlow, Shape::kSteady, 4, 100,
                 220, 10273116171784464925ull, 4},
        ChainRow{"Hop4ShortAuto", FidelityMode::kAuto, Shape::kSteady, 4, 100,
                 137, 10273116171784464925ull, 0},
        ChainRow{"Hop4SteadyCycle", FidelityMode::kCycle, Shape::kSteady, 4,
                 6000, 6037, 2784815749000952293ull, 0},
        ChainRow{"Hop4SteadyFlow", FidelityMode::kFlow, Shape::kSteady, 4,
                 6000, 6129, 2784815749000952293ull, 4},
        ChainRow{"Hop4SteadyAuto", FidelityMode::kAuto, Shape::kSteady, 4,
                 6000, 6129, 2784815749000952293ull, 4},
        ChainRow{"Hop8SteadyCycle", FidelityMode::kCycle, Shape::kSteady, 8,
                 10000, 10073, 2044856502154481509ull, 0},
        ChainRow{"Hop8SteadyFlow", FidelityMode::kFlow, Shape::kSteady, 8,
                 10000, 10266, 2044856502154481509ull, 12},
        ChainRow{"Hop8SteadyAuto", FidelityMode::kAuto, Shape::kSteady, 8,
                 10000, 10266, 2044856502154481509ull, 12},
        ChainRow{"Hop3BurstyCycle", FidelityMode::kCycle, Shape::kBursty, 3,
                 2560, 6551, 15532173669044942629ull, 0},
        ChainRow{"Hop3BurstyFlow", FidelityMode::kFlow, Shape::kBursty, 3,
                 2560, 6551, 15532173669044942629ull, 9},
        ChainRow{"Hop3BurstyAuto", FidelityMode::kAuto, Shape::kBursty, 3,
                 2560, 6551, 15532173669044942629ull, 9},
        ChainRow{"Hop2StalledCycle", FidelityMode::kCycle, Shape::kStalled, 2,
                 4000, 5018, 4653342998767702821ull, 0},
        ChainRow{"Hop2StalledFlow", FidelityMode::kFlow, Shape::kStalled, 2,
                 4000, 5064, 4653342998767702821ull, 7},
        ChainRow{"Hop2StalledAuto", FidelityMode::kAuto, Shape::kStalled, 2,
                 4000, 5064, 4653342998767702821ull, 7}),
    [](const ::testing::TestParamInfo<ChainRow>& info) {
      return info.param.name;
    });

// ---------------------------------------------------------------------------
// Fabric cable: eight port streams from rank 0 to rank 1 of a 4-rank bus
// saturate the 0 -> 1 cable, the regime in which the steady-state detector
// promotes a packet link.

Kernel Sender(Context& ctx, int port, int n) {
  SendChannel ch = ctx.OpenSendChannel(n, DataType::kInt, /*destination=*/1,
                                       port, ctx.world());
  for (int i = 0; i < n; ++i) {
    co_await ch.Push<std::int32_t>(i * 3 + port);
  }
}

Kernel Receiver(Context& ctx, int port, int n, std::uint64_t& digest) {
  RecvChannel ch = ctx.OpenRecvChannel(n, DataType::kInt, /*source=*/0,
                                       port, ctx.world());
  std::uint64_t h = kFnvBasis;
  for (int i = 0; i < n; ++i) {
    h ^= static_cast<std::uint32_t>(co_await ch.Pop<std::int32_t>());
    h *= kFnvPrime;
  }
  digest = h;
}

constexpr int kStreams = 8;
constexpr int kStreamLength = 6000;

struct FabricRow {
  std::string name;
  FidelityMode mode;
  Cycle cycles;
  std::uint64_t digest;
  std::int64_t promotions;
};

void PrintTo(const FabricRow& row, std::ostream* os) { *os << row.name; }

class FidelityFabricCycles : public ::testing::TestWithParam<FabricRow> {};

TEST_P(FidelityFabricCycles, MatchGolden) {
  const FabricRow& row = GetParam();
  ProgramSpec spec;
  for (int port = 0; port < kStreams; ++port) {
    spec.Add(OpSpec::Send(port, DataType::kInt));
    spec.Add(OpSpec::Recv(port, DataType::kInt));
  }
  for (const SchedulerKind kind : kSchedulers) {
    ClusterConfig config;
    config.engine.scheduler = kind;
    config.engine.fidelity.mode = row.mode;
    config.engine.fidelity.steady_window = 64;
    config.engine.fidelity.flow_interval = 16;
    config.fabric.endpoint_fifo_depth = 64;
    config.fabric.net_fifo_depth = 64;
    config.fabric.crossbar_fifo_depth = 32;
    config.fabric.link_latency = 16;
    Cluster cluster(Topology::Bus(4), spec, config);
    std::vector<std::uint64_t> digests(kStreams, 0);
    for (int port = 0; port < kStreams; ++port) {
      cluster.AddKernel(0, Sender(cluster.context(0), port, kStreamLength),
                        "s" + std::to_string(port));
      cluster.AddKernel(1,
                        Receiver(cluster.context(1), port, kStreamLength,
                                 digests[static_cast<std::size_t>(port)]),
                        "r" + std::to_string(port));
    }
    const Cycle cycles = cluster.Run().cycles;
    std::uint64_t digest = kFnvBasis;
    for (const std::uint64_t d : digests) {
      digest ^= d;
      digest *= kFnvPrime;
    }
    const json::Value fidelity = cluster.FidelityJson();
    const std::int64_t promotions =
        fidelity.is_object() ? fidelity.at("promotions").as_int() : 0;
    EXPECT_EQ(cycles, row.cycles) << SchedulerName(kind);
    EXPECT_EQ(digest, row.digest) << SchedulerName(kind);
    EXPECT_EQ(promotions, row.promotions) << SchedulerName(kind);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Bus4EightStreams, FidelityFabricCycles,
    ::testing::Values(
        FabricRow{"Cycle", FidelityMode::kCycle, 10335,
                  3183756175893992205ull, 0},
        FabricRow{"Flow", FidelityMode::kFlow, 10335,
                  3183756175893992205ull, 1},
        FabricRow{"Auto", FidelityMode::kAuto, 10335,
                  3183756175893992205ull, 1}),
    [](const ::testing::TestParamInfo<FabricRow>& info) {
      return info.param.name;
    });

}  // namespace
}  // namespace smi::core
