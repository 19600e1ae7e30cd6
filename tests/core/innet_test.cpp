/// \file innet_test.cpp
/// Correctness tests for the in-network Reduce (CollAlgo::kInnet,
/// core/innet.h): contributions stream flat toward the root and the CKS
/// combine handlers fold them in transit. Covers the datatype/op sweep,
/// root placement (default and re-targeted via ConfigureInnetHandlers),
/// counts straddling every chunking edge (partial last packet, partial last
/// tile, single tile), back-to-back channel opens (epoch advance), the
/// build-time validation of mismatched opens, bit-identity across the three
/// schedulers, and the Reduce after other collective traffic on a shared
/// fabric.

#include <gtest/gtest.h>

#include <cstdint>
#include <ostream>
#include <string>
#include <tuple>
#include <vector>

#include "common/error.h"
#include "core/innet.h"
#include "core/smi.h"

namespace smi::core {
namespace {

using net::Topology;
using sim::Kernel;
using sim::SchedulerKind;

/// Deterministic per-(rank, element) contribution that exercises sign and
/// magnitude without overflowing the narrow types.
int ContribValue(int rank, int i) { return ((i * 7 + rank * 13) % 50) - 20; }

template <typename T>
T HostReduce(ReduceOp op, int ranks, int i) {
  T acc = static_cast<T>(ContribValue(0, i));
  for (int r = 1; r < ranks; ++r) {
    const T v = static_cast<T>(ContribValue(r, i));
    switch (op) {
      case ReduceOp::kAdd: acc = static_cast<T>(acc + v); break;
      case ReduceOp::kMax: acc = acc > v ? acc : v; break;
      case ReduceOp::kMin: acc = acc < v ? acc : v; break;
    }
  }
  return acc;
}

template <typename T>
Kernel ReduceApp(Context& ctx, int count, DataType type, ReduceOp op,
                 int root, int credits, std::vector<T>& results) {
  ReduceChannel chan =
      ctx.OpenReduceChannel(count, type, op, 0, root, ctx.world(), credits);
  for (int i = 0; i < count; ++i) {
    T rcv{};
    co_await chan.Reduce(static_cast<T>(ContribValue(ctx.rank(), i)), rcv);
    if (ctx.rank() == ctx.world().GlobalRank(root)) results.push_back(rcv);
  }
}

template <typename T>
void ExpectInnetReduceMatchesHost(const Topology& topo, int count,
                                  DataType type, ReduceOp op, int credits,
                                  ClusterConfig config = {}) {
  ProgramSpec spec;
  spec.Add(OpSpec::Reduce(0, type, CollAlgo::kInnet, op));
  Cluster cluster(topo, spec, config);
  const int ranks = topo.num_compute_ranks();
  std::vector<T> results;
  for (int r = 0; r < ranks; ++r) {
    cluster.AddKernel(r,
                      ReduceApp<T>(cluster.context(r), count, type, op, 0,
                                   credits, results),
                      "innet-reduce");
  }
  cluster.Run();
  ASSERT_EQ(results.size(), static_cast<std::size_t>(count));
  for (int i = 0; i < count; ++i) {
    EXPECT_EQ(results[static_cast<std::size_t>(i)],
              HostReduce<T>(op, ranks, i))
        << "elem " << i << " op " << ReduceOpName(op);
  }
}

// ---------------------------------------------------------------------------
// Datatype / op sweep at 8 ranks.

TEST(InnetReduce, IntAdd) {
  ExpectInnetReduceMatchesHost<std::int32_t>(Topology::Torus2D(2, 4), 100,
                                             DataType::kInt, ReduceOp::kAdd,
                                             16);
}

TEST(InnetReduce, IntMax) {
  ExpectInnetReduceMatchesHost<std::int32_t>(Topology::Torus2D(2, 4), 100,
                                             DataType::kInt, ReduceOp::kMax,
                                             16);
}

TEST(InnetReduce, FloatAdd) {
  ExpectInnetReduceMatchesHost<float>(Topology::Torus2D(2, 4), 100,
                                      DataType::kFloat, ReduceOp::kAdd, 16);
}

TEST(InnetReduce, DoubleMin) {
  ExpectInnetReduceMatchesHost<double>(Topology::Torus2D(2, 4), 100,
                                       DataType::kDouble, ReduceOp::kMin, 16);
}

TEST(InnetReduce, ShortAdd) {
  ExpectInnetReduceMatchesHost<std::int16_t>(Topology::Torus2D(2, 4), 100,
                                             DataType::kShort, ReduceOp::kAdd,
                                             16);
}

TEST(InnetReduce, CharMax) {
  ExpectInnetReduceMatchesHost<std::int8_t>(Topology::Torus2D(2, 4), 100,
                                            DataType::kChar, ReduceOp::kMax,
                                            16);
}

// ---------------------------------------------------------------------------
// Shape sweep: rank counts, counts at every chunking edge, small credits.
// int packs 5 elements per packet (envelope takes 8 of the 28 payload
// bytes), so counts probe partial-last-packet and tile boundaries.

class InnetShapeSweep
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(InnetShapeSweep, SumMatchesReference) {
  const auto [ranks, count, credits] = GetParam();
  const Topology topo =
      ranks == 8 ? Topology::Torus2D(2, 4) : Topology::Bus(ranks);
  ExpectInnetReduceMatchesHost<std::int32_t>(topo, count, DataType::kInt,
                                             ReduceOp::kAdd, credits);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, InnetShapeSweep,
    ::testing::Values(std::tuple{2, 1, 4},     // single element, single tile
                      std::tuple{2, 40, 16},   // count % C == 8
                      std::tuple{3, 33, 8},    // odd rank count
                      std::tuple{4, 4, 4},     // count < elements-per-packet
                      std::tuple{4, 5, 4},     // exactly one full packet
                      std::tuple{4, 16, 4},    // count % C == 0
                      std::tuple{4, 17, 4},    // partial last tile
                      std::tuple{4, 100, 1},   // C=1: one grant per tile
                      std::tuple{8, 120, 32},  // full torus
                      std::tuple{8, 77, 4}));  // torus, ragged everything

// ---------------------------------------------------------------------------
// Epoch advance: back-to-back opens on the same port must not cross-combine
// (the grant order plus the envelope epoch guard both protect this).

TEST(InnetReduce, SuccessiveOpensDoNotCrossCombine) {
  ProgramSpec spec;
  spec.Add(OpSpec::Reduce(0, DataType::kInt, CollAlgo::kInnet,
                          ReduceOp::kAdd));
  Cluster cluster(Topology::Torus2D(2, 4), spec);
  std::vector<std::int32_t> results;
  auto app = [](Context& ctx, std::vector<std::int32_t>& out) -> Kernel {
    for (int round = 0; round < 4; ++round) {
      ReduceChannel chan = ctx.OpenReduceChannel(
          30, DataType::kInt, ReduceOp::kAdd, 0, 0, ctx.world(), 8);
      for (int i = 0; i < 30; ++i) {
        std::int32_t rcv = 0;
        co_await chan.Reduce(ContribValue(ctx.rank(), i) + round, rcv);
        if (ctx.rank() == 0) out.push_back(rcv);
      }
    }
  };
  for (int r = 0; r < 8; ++r) {
    cluster.AddKernel(r, app(cluster.context(r), results), "app");
  }
  cluster.Run();
  ASSERT_EQ(results.size(), 120u);
  for (int round = 0; round < 4; ++round) {
    for (int i = 0; i < 30; ++i) {
      EXPECT_EQ(results[static_cast<std::size_t>(round * 30 + i)],
                HostReduce<std::int32_t>(ReduceOp::kAdd, 8, i) + 8 * round)
          << "round " << round << " elem " << i;
    }
  }
}

// ---------------------------------------------------------------------------
// In-transit combining actually happens (the handlers fire, and the fabric
// forwards fewer packets than the same reduction without them).

TEST(InnetReduce, CombineHandlersFireAtScale) {
  ProgramSpec spec;
  spec.Add(OpSpec::Reduce(0, DataType::kInt, CollAlgo::kInnet,
                          ReduceOp::kAdd));
  ClusterConfig config;
  config.engine.collect_counters = true;
  Cluster cluster(Topology::Torus2D(2, 4), spec, config);
  std::vector<std::int32_t> results;
  for (int r = 0; r < 8; ++r) {
    cluster.AddKernel(r,
                      ReduceApp<std::int32_t>(cluster.context(r), 200,
                                              DataType::kInt, ReduceOp::kAdd,
                                              0, 16, results),
                      "app");
  }
  cluster.Run();
  ASSERT_EQ(results.size(), 200u);
  const json::Value summary = cluster.CaptureTelemetry().summary;
  EXPECT_GT(summary.at("ck_handler_combined").as_int(), 0);
  EXPECT_GT(summary.at("ck_handler_splits").as_int(), 0);  // credit fan tree
}

// ---------------------------------------------------------------------------
// Open-time validation against the uploaded handler configuration.

TEST(InnetReduce, OpMismatchAtOpenThrows) {
  ProgramSpec spec;
  spec.Add(OpSpec::Reduce(0, DataType::kInt, CollAlgo::kInnet,
                          ReduceOp::kAdd));
  Cluster cluster(Topology::Bus(2), spec);
  auto app = [](Context& ctx) -> Kernel {
    ReduceChannel chan = ctx.OpenReduceChannel(
        10, DataType::kInt, ReduceOp::kMax, 0, 0, ctx.world(), 8);
    std::int32_t rcv = 0;
    co_await chan.Reduce(1, rcv);
  };
  for (int r = 0; r < 2; ++r) {
    cluster.AddKernel(r, app(cluster.context(r)), "app");
  }
  EXPECT_THROW(cluster.Run(), ConfigError);
}

TEST(InnetReduce, RootMismatchAtOpenThrows) {
  ProgramSpec spec;
  spec.Add(OpSpec::Reduce(0, DataType::kInt, CollAlgo::kInnet,
                          ReduceOp::kAdd));
  Cluster cluster(Topology::Bus(4), spec);
  auto app = [](Context& ctx) -> Kernel {
    // The handler tables were built for root 0 (the first participant).
    ReduceChannel chan = ctx.OpenReduceChannel(
        10, DataType::kInt, ReduceOp::kAdd, 0, 2, ctx.world(), 8);
    std::int32_t rcv = 0;
    co_await chan.Reduce(1, rcv);
  };
  for (int r = 0; r < 4; ++r) {
    cluster.AddKernel(r, app(cluster.context(r)), "app");
  }
  EXPECT_THROW(cluster.Run(), ConfigError);
}

TEST(InnetReduce, HandlerPlanSizedOtherThanTablesThrows) {
  // One funnel in-degree and one fan child list per rank, nothing less.
  const std::vector<int> comm{0, 1, 2, 3};
  const std::vector<int> funnel{0, 1, 1, 1};
  const std::vector<std::vector<int>> fan{{1, 2, 3}, {}, {}, {}};
  const auto append = [&](const std::vector<int>& f,
                          const std::vector<std::vector<int>>& c) {
    std::vector<transport::HandlerTable> tables(4);
    AppendInnetHandlers(tables, 0, ReduceOp::kAdd, DataType::kInt, 0, comm,
                        16, f, c);
    return tables;
  };
  const std::vector<transport::HandlerTable> tables = append(funnel, fan);
  EXPECT_NE(tables[0].Find(transport::HandlerClass::kFanOut, 0,
                           net::OpType::kCredit),
            nullptr);
  EXPECT_EQ(tables[1].Find(transport::HandlerClass::kFanOut, 0,
                           net::OpType::kCredit),
            nullptr);
  EXPECT_THROW(append({}, fan), ConfigError);
  EXPECT_THROW(append(funnel, {}), ConfigError);
  EXPECT_THROW(append({0, 1, 1}, fan), ConfigError);
  EXPECT_THROW(append(funnel, {{1, 2, 3}, {}, {}, {}, {}}), ConfigError);
}

TEST(InnetReduce, ConfigureInnetHandlersRetargetsRoot) {
  ProgramSpec spec;
  spec.Add(OpSpec::Reduce(0, DataType::kInt, CollAlgo::kInnet,
                          ReduceOp::kAdd));
  Cluster cluster(Topology::Torus2D(2, 4), spec);
  cluster.ConfigureInnetHandlers(0, /*root_global=*/3);
  std::vector<std::int32_t> results;
  for (int r = 0; r < 8; ++r) {
    cluster.AddKernel(r,
                      ReduceApp<std::int32_t>(cluster.context(r), 60,
                                              DataType::kInt, ReduceOp::kAdd,
                                              3, 8, results),
                      "app");
  }
  cluster.Run();
  ASSERT_EQ(results.size(), 60u);
  for (int i = 0; i < 60; ++i) {
    EXPECT_EQ(results[static_cast<std::size_t>(i)],
              HostReduce<std::int32_t>(ReduceOp::kAdd, 8, i));
  }
  EXPECT_THROW(cluster.ConfigureInnetHandlers(1, 0), ConfigError);  // no port
  EXPECT_THROW(cluster.ConfigureInnetHandlers(0, 99), ConfigError);
}

// ---------------------------------------------------------------------------
// Scheduler bit-identity (lossless; the faulty variant lives in
// innet_differential_test.cpp).

struct Observation {
  sim::Cycle cycles = 0;
  std::uint64_t link_packets = 0;
  std::uint64_t kernel_resumes = 0;
  std::string counters;
};

Observation RunOnce(SchedulerKind kind, unsigned threads,
                    std::vector<std::int32_t>& results) {
  ProgramSpec spec;
  spec.Add(OpSpec::Reduce(0, DataType::kInt, CollAlgo::kInnet,
                          ReduceOp::kAdd));
  ClusterConfig config;
  config.engine.scheduler = kind;
  config.engine.threads = threads;
  config.engine.collect_counters = true;
  Cluster cluster(Topology::Torus2D(2, 4), spec, config);
  for (int r = 0; r < 8; ++r) {
    cluster.AddKernel(r,
                      ReduceApp<std::int32_t>(cluster.context(r), 150,
                                              DataType::kInt, ReduceOp::kAdd,
                                              0, 16, results),
                      "app");
  }
  const RunResult result = cluster.Run();
  return Observation{result.cycles, result.link_packets,
                     result.kernel_resumes,
                     cluster.CaptureTelemetry().counters.dump()};
}

TEST(InnetReduce, SchedulersAreBitIdentical) {
  std::vector<std::int32_t> sync_results;
  const Observation sync =
      RunOnce(SchedulerKind::kSynchronous, 1, sync_results);

  std::vector<std::int32_t> event_results;
  const Observation event =
      RunOnce(SchedulerKind::kEventDriven, 1, event_results);
  EXPECT_EQ(event_results, sync_results);
  EXPECT_EQ(event.cycles, sync.cycles);
  EXPECT_EQ(event.link_packets, sync.link_packets);
  EXPECT_EQ(event.kernel_resumes, sync.kernel_resumes);
  EXPECT_EQ(event.counters, sync.counters);

  for (const unsigned threads : {2u, 4u, 8u}) {
    std::vector<std::int32_t> par_results;
    const Observation par =
        RunOnce(SchedulerKind::kParallel, threads, par_results);
    EXPECT_EQ(par_results, sync_results) << "threads=" << threads;
    EXPECT_EQ(par.cycles, sync.cycles) << "threads=" << threads;
    EXPECT_EQ(par.link_packets, sync.link_packets) << "threads=" << threads;
    EXPECT_EQ(par.kernel_resumes, sync.kernel_resumes)
        << "threads=" << threads;
    EXPECT_EQ(par.counters, sync.counters) << "threads=" << threads;
  }
}

// ---------------------------------------------------------------------------
// The in-network Reduce after other collectives on the same 4x4 torus, with
// one port per collective kind declared. A rank still busy in an earlier
// collective holds at most the root's tile-0 grant in its endpoint FIFO, so
// the earlier collective's traffic never queues behind the Reduce's.

enum class MixStep { kBcastTree, kBcastOne, kReduceTree, kGather, kReduceInnet };

constexpr int kMixPortBcast = 0;
constexpr int kMixPortReduceTree = 1;
constexpr int kMixPortGather = 4;
constexpr int kMixPortInnet = 5;

ProgramSpec MixSpec() {
  ProgramSpec spec;
  spec.Add(OpSpec::Bcast(kMixPortBcast, DataType::kInt, CollAlgo::kTree));
  spec.Add(
      OpSpec::Reduce(kMixPortReduceTree, DataType::kInt, CollAlgo::kTree));
  spec.Add(OpSpec::Allreduce(2, DataType::kInt, CollAlgo::kTree));
  spec.Add(OpSpec::Scatter(3, DataType::kInt));
  spec.Add(OpSpec::Gather(kMixPortGather, DataType::kInt));
  spec.Add(OpSpec::Reduce(kMixPortInnet, DataType::kInt, CollAlgo::kInnet,
                          ReduceOp::kAdd));
  return spec;
}

/// Runs `steps` back to back with `count` elements per rank (one for
/// kBcastOne), all rooted at rank 0; the root keeps the in-network sums.
Kernel MixApp(Context& ctx, std::vector<MixStep> steps, int count,
              std::vector<std::int32_t>& sums) {
  const bool root = ctx.rank() == 0;
  for (const MixStep step : steps) {
    if (step == MixStep::kBcastTree || step == MixStep::kBcastOne) {
      const int n = step == MixStep::kBcastOne ? 1 : count;
      BcastChannel ch = ctx.OpenBcastChannel(n, DataType::kInt, kMixPortBcast,
                                             0, ctx.world());
      for (int i = 0; i < n; ++i) {
        std::int32_t v = ContribValue(ctx.rank(), i);
        co_await ch.Bcast(v);
      }
    } else if (step == MixStep::kGather) {
      GatherChannel ch = ctx.OpenGatherChannel(count, DataType::kInt,
                                               kMixPortGather, 0, ctx.world());
      // The root's own segment comes first (comm rank 0).
      const int calls = root ? count * ctx.world_size() : count;
      for (int i = 0; i < calls; ++i) {
        std::int32_t v = 0;
        co_await ch.Gather<std::int32_t>(
            ContribValue(ctx.rank(), i < count ? i : 0), root ? &v : nullptr);
      }
    } else {
      const bool innet = step == MixStep::kReduceInnet;
      ReduceChannel ch = ctx.OpenReduceChannel(
          count, DataType::kInt, ReduceOp::kAdd,
          innet ? kMixPortInnet : kMixPortReduceTree, 0, ctx.world());
      for (int i = 0; i < count; ++i) {
        std::int32_t v = 0;
        co_await ch.Reduce(ContribValue(ctx.rank(), i), v);
        if (root && innet) sums.push_back(v);
      }
    }
  }
}

void AddMixKernels(Cluster& cluster, const std::vector<MixStep>& steps,
                   int count, std::vector<std::int32_t>& sums) {
  for (int r = 0; r < cluster.num_ranks(); ++r) {
    cluster.AddKernel(r, MixApp(cluster.context(r), steps, count, sums),
                      "mix");
  }
}

sim::Cycle RunMix(const std::vector<MixStep>& steps, int count,
                  const ClusterConfig& config,
                  std::vector<std::int32_t>& sums) {
  Cluster cluster(Topology::Torus2D(4, 4), MixSpec(), config);
  AddMixKernels(cluster, steps, count, sums);
  return cluster.Run().cycles;
}

ClusterConfig WithScheduler(SchedulerKind kind, unsigned threads) {
  ClusterConfig config;
  config.engine.scheduler = kind;
  config.engine.threads = threads;
  return config;
}

struct MixCase {
  const char* name;
  std::vector<MixStep> steps;
};

void PrintTo(const MixCase& c, std::ostream* os) { *os << c.name; }

class InnetAfterTraffic : public ::testing::TestWithParam<MixCase> {};

TEST_P(InnetAfterTraffic, CompletesAndMatchesHostSum) {
  constexpr int kCount = 1024;
  const std::vector<MixStep>& steps = GetParam().steps;
  std::vector<std::int32_t> sync_sums;
  const sim::Cycle sync_cycles =
      RunMix(steps, kCount, WithScheduler(SchedulerKind::kSynchronous, 1),
             sync_sums);
  ASSERT_EQ(sync_sums.size(), static_cast<std::size_t>(kCount));
  for (int i = 0; i < kCount; ++i) {
    ASSERT_EQ(sync_sums[static_cast<std::size_t>(i)],
              HostReduce<std::int32_t>(ReduceOp::kAdd, 16, i))
        << "elem " << i;
  }
  std::vector<std::int32_t> event_sums;
  EXPECT_EQ(RunMix(steps, kCount,
                   WithScheduler(SchedulerKind::kEventDriven, 1), event_sums),
            sync_cycles);
  EXPECT_EQ(event_sums, sync_sums);
  for (const unsigned threads : {1u, 2u, 4u, 8u}) {
    std::vector<std::int32_t> par_sums;
    EXPECT_EQ(RunMix(steps, kCount,
                     WithScheduler(SchedulerKind::kParallel, threads),
                     par_sums),
              sync_cycles)
        << "threads=" << threads;
    EXPECT_EQ(par_sums, sync_sums) << "threads=" << threads;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Torus4x4, InnetAfterTraffic,
    ::testing::Values(
        MixCase{"BcastTree_ReduceInnet",
                {MixStep::kBcastTree, MixStep::kReduceInnet}},
        MixCase{"ReduceTree_ReduceInnet",
                {MixStep::kReduceTree, MixStep::kReduceInnet}},
        MixCase{"Gather_ReduceInnet",
                {MixStep::kGather, MixStep::kReduceInnet}},
        MixCase{"BcastTree_BcastOne_ReduceInnet",
                {MixStep::kBcastTree, MixStep::kBcastOne,
                 MixStep::kReduceInnet}}),
    [](const ::testing::TestParamInfo<MixCase>& info) {
      return std::string(info.param.name);
    });

// The linear and tree Reduce still stream tile 0 before the parent opens:
// after a Gather, the leaves' tile-0 packets fill endpoint FIFOs the Gather
// needs. The run cannot finish; it must end in a diagnosis at the same
// cycle under every scheduler, not spin to the cycle cap.
sim::Cycle GatherThenTreeReduceDeadlock(ClusterConfig config) {
  config.engine.watchdog_cycles = 20000;
  config.engine.max_cycles = 200000;
  Cluster cluster(Topology::Torus2D(4, 4), MixSpec(), config);
  std::vector<std::int32_t> sums;
  AddMixKernels(cluster, {MixStep::kGather, MixStep::kReduceTree}, 256, sums);
  try {
    cluster.Run();
  } catch (const DeadlockError&) {
    return cluster.engine().now();
  }
  ADD_FAILURE() << "expected DeadlockError";
  return 0;
}

TEST(InnetAfterTraffic, GatherThenTreeReduceHangIsDiagnosed) {
  const sim::Cycle sync_cycle = GatherThenTreeReduceDeadlock(
      WithScheduler(SchedulerKind::kSynchronous, 1));
  EXPECT_EQ(sync_cycle, 30807u);
  EXPECT_EQ(GatherThenTreeReduceDeadlock(
                WithScheduler(SchedulerKind::kEventDriven, 1)),
            sync_cycle);
  for (const unsigned threads : {1u, 2u, 4u, 8u}) {
    EXPECT_EQ(GatherThenTreeReduceDeadlock(
                  WithScheduler(SchedulerKind::kParallel, threads)),
              sync_cycle)
        << "threads=" << threads;
  }
}

}  // namespace
}  // namespace smi::core
