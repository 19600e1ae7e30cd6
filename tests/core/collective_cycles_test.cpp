/// \file collective_cycles_test.cpp
/// Golden cycle counts for every collective support kernel. Simulated cycles
/// are deterministic, so a refactor of the support kernels that keeps their
/// protocols must keep these numbers bit-identical; a deliberate protocol
/// change updates the table and says which rows moved and why. Each row also
/// pins the kernel resumes (a change to an awaitable's wake hints can move
/// them without moving cycles), the link packets and the exact checksum of
/// the data every application received.
///
/// Every row runs one channel open on a 2x4 torus with a count that crosses
/// both packet boundaries and a credit-tile boundary (C = 16), at root 0 and
/// at root 5 (Allreduce is rootless: it always reduces toward comm rank 0).

#include <gtest/gtest.h>

#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include "core/smi.h"

namespace smi::core {
namespace {

using net::Topology;
using sim::Kernel;

constexpr int kRanks = 8;
constexpr int kCount = 40;
constexpr int kCredits = 16;
constexpr int kPort = 0;

std::int32_t Contrib(int rank, int i) { return i * 3 + rank * 100; }

Kernel CollectiveApp(Context& ctx, CollKind kind, int root,
                     std::int64_t& checksum) {
  const bool is_root = ctx.world().CommRank(ctx.rank()) == root;
  switch (kind) {
    case CollKind::kBcast: {
      BcastChannel chan = ctx.OpenBcastChannel(kCount, DataType::kInt, kPort,
                                               root, ctx.world());
      for (int i = 0; i < kCount; ++i) {
        std::int32_t v = is_root ? Contrib(ctx.rank(), i) : -1;
        co_await chan.Bcast(v);
        checksum += v;
      }
      break;
    }
    case CollKind::kReduce: {
      ReduceChannel chan =
          ctx.OpenReduceChannel(kCount, DataType::kInt, ReduceOp::kAdd, kPort,
                                root, ctx.world(), kCredits);
      for (int i = 0; i < kCount; ++i) {
        std::int32_t rcv = 0;
        co_await chan.Reduce(Contrib(ctx.rank(), i), rcv);
        if (is_root) checksum += rcv;
      }
      break;
    }
    case CollKind::kAllreduce: {
      AllreduceChannel chan = ctx.OpenAllreduceChannel(
          kCount, DataType::kInt, ReduceOp::kAdd, kPort, ctx.world(),
          kCredits);
      for (int i = 0; i < kCount; ++i) {
        std::int32_t rcv = 0;
        co_await chan.Allreduce(Contrib(ctx.rank(), i), rcv);
        checksum += rcv;
      }
      break;
    }
    case CollKind::kScatter: {
      ScatterChannel chan = ctx.OpenScatterChannel(kCount, DataType::kInt,
                                                   kPort, root, ctx.world());
      const int calls = is_root ? kCount * ctx.world_size() : kCount;
      for (int i = 0; i < calls; ++i) {
        const std::int32_t snd = Contrib(ctx.rank(), i);
        std::int32_t rcv = 0;
        if (co_await chan.Scatter<std::int32_t>(is_root ? &snd : nullptr,
                                                rcv)) {
          checksum += rcv;
        }
      }
      break;
    }
    case CollKind::kGather: {
      GatherChannel chan = ctx.OpenGatherChannel(kCount, DataType::kInt, kPort,
                                                 root, ctx.world());
      const int calls = is_root ? kCount * ctx.world_size() : kCount;
      for (int i = 0; i < calls; ++i) {
        std::int32_t rcv = 0;
        if (co_await chan.Gather<std::int32_t>(Contrib(ctx.rank(), i),
                                               is_root ? &rcv : nullptr)) {
          checksum += rcv;
        }
      }
      break;
    }
  }
}

struct GoldenRow {
  std::string name;
  CollKind kind;
  CollAlgo algo;
  int root;
  sim::Cycle cycles;
  std::uint64_t kernel_resumes;
  std::uint64_t link_packets;
  std::int64_t checksum;
};

void PrintTo(const GoldenRow& row, std::ostream* os) { *os << row.name; }

OpSpec SpecFor(CollKind kind, CollAlgo algo) {
  switch (kind) {
    case CollKind::kBcast: return OpSpec::Bcast(kPort, DataType::kInt, algo);
    case CollKind::kReduce:
      return OpSpec::Reduce(kPort, DataType::kInt, algo, ReduceOp::kAdd);
    case CollKind::kScatter: return OpSpec::Scatter(kPort, DataType::kInt);
    case CollKind::kGather: return OpSpec::Gather(kPort, DataType::kInt);
    case CollKind::kAllreduce:
      return OpSpec::Allreduce(kPort, DataType::kInt, algo);
  }
  return OpSpec::Bcast(kPort, DataType::kInt);
}

class CollectiveCycles : public ::testing::TestWithParam<GoldenRow> {};

TEST_P(CollectiveCycles, MatchGolden) {
  const GoldenRow& row = GetParam();
  ProgramSpec spec;
  spec.Add(SpecFor(row.kind, row.algo));
  Cluster cluster(Topology::Torus2D(2, 4), spec);
  if (row.algo == CollAlgo::kInnet) {
    cluster.ConfigureInnetHandlers(kPort, row.root);
  }
  std::vector<std::int64_t> checksums(kRanks, 0);
  for (int r = 0; r < kRanks; ++r) {
    cluster.AddKernel(r,
                      CollectiveApp(cluster.context(r), row.kind, row.root,
                                    checksums[static_cast<std::size_t>(r)]),
                      "app");
  }
  const RunResult result = cluster.Run();
  EXPECT_EQ(result.cycles, row.cycles) << row.name;
  EXPECT_EQ(result.kernel_resumes, row.kernel_resumes) << row.name;
  EXPECT_EQ(result.link_packets, row.link_packets) << row.name;
  std::int64_t total = 0;
  for (const std::int64_t c : checksums) total += c;
  EXPECT_EQ(total, row.checksum) << row.name;
}

INSTANTIATE_TEST_SUITE_P(
    Torus2x4, CollectiveCycles,
    ::testing::Values(
        // name, kind, algo, root, cycles, kernel resumes, link packets,
        // checksum
        GoldenRow{"BcastLinearRoot0", CollKind::kBcast, CollAlgo::kLinear, 0,
                  766, 701, 84, 18720},
        GoldenRow{"BcastLinearRoot5", CollKind::kBcast, CollAlgo::kLinear, 5,
                  773, 701, 84, 178720},
        GoldenRow{"BcastTreeRoot0", CollKind::kBcast, CollAlgo::kTree, 0,
                  777, 678, 63, 18720},
        GoldenRow{"BcastTreeRoot5", CollKind::kBcast, CollAlgo::kTree, 5,
                  890, 679, 70, 178720},
        GoldenRow{"ReduceLinearRoot0", CollKind::kReduce, CollAlgo::kLinear, 0,
                  1867, 2489, 120, 130720},
        GoldenRow{"ReduceLinearRoot5", CollKind::kReduce, CollAlgo::kLinear, 5,
                  1867, 2489, 120, 130720},
        GoldenRow{"ReduceTreeRoot0", CollKind::kReduce, CollAlgo::kTree, 0,
                  1555, 5825, 90, 130720},
        GoldenRow{"ReduceTreeRoot5", CollKind::kReduce, CollAlgo::kTree, 5,
                  2063, 7683, 100, 130720},
        GoldenRow{"ReduceInnetRoot0", CollKind::kReduce, CollAlgo::kInnet, 0,
                  1161, 7722, 103, 130720},
        GoldenRow{"ReduceInnetRoot5", CollKind::kReduce, CollAlgo::kInnet, 5,
                  1172, 7763, 123, 130720},
        GoldenRow{"ScatterRoot0", CollKind::kScatter, CollAlgo::kLinear, 0,
                  789, 1225, 84, 153120},
        GoldenRow{"ScatterRoot5", CollKind::kScatter, CollAlgo::kLinear, 5,
                  837, 1226, 84, 313120},
        GoldenRow{"GatherRoot0", CollKind::kGather, CollAlgo::kLinear, 0,
                  3219, 1224, 84, 130720},
        GoldenRow{"GatherRoot5", CollKind::kGather, CollAlgo::kLinear, 5,
                  3204, 1224, 84, 154720},
        GoldenRow{"AllreduceLinear", CollKind::kAllreduce, CollAlgo::kLinear, 0,
                  28083, 223596, 996, 1045760},
        GoldenRow{"AllreduceTree", CollKind::kAllreduce, CollAlgo::kTree, 0,
                  37747, 300435, 747, 1045760}),
    [](const ::testing::TestParamInfo<GoldenRow>& info) {
      return info.param.name;
    });

}  // namespace
}  // namespace smi::core
