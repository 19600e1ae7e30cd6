/// \file mpi_golden_test.cpp
/// Golden cycle counts and payload digests for every MPI shim call. The
/// shim's calls are thin loops over the SMI channel operations, so a
/// refactor of the shim (or of the support kernels underneath) that keeps
/// the protocols must keep every row bit-identical under both sequential
/// schedulers; a deliberate protocol change updates the table and says
/// which rows moved and why.
///
/// Every row runs on a 2x4 torus of 8 ranks with a count that crosses
/// packet boundaries and a credit tile (the shim's C is set to 16), at
/// root 5 for the rooted calls. The digest is FNV-1a over every
/// rank's receive buffer followed by the cycle at which the rank's call
/// returned, in rank order.

#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <ostream>
#include <string>
#include <vector>

#include "mpi/mpi.h"

namespace smi::mpi {
namespace {

using core::CollAlgo;
using core::Cluster;
using core::ClusterConfig;
using core::Context;
using core::DataType;
using core::ReduceOp;
using net::Topology;
using sim::Kernel;
using sim::SchedulerKind;

constexpr int kRanks = 8;
constexpr int kCount = 40;
constexpr int kRoot = 5;

enum class Call { kSendRecv, kBcast, kReduce, kAllreduce, kScatter, kGather,
                  kBarrier };

struct GoldenRow {
  std::string name;
  Call call;
  CollAlgo algo;
  sim::Cycle cycles;
  std::uint64_t digest;
};

void PrintTo(const GoldenRow& row, std::ostream* os) { *os << row.name; }

std::int32_t Contrib(int rank, int i) { return i * 7 + rank * 1000; }

/// One rank's part of a row: `rcv` receives the call's output, `done` the
/// cycle at which the call returned.
Kernel GoldenApp(Context& ctx, const ShimConfig& shim, Call call,
                 std::vector<std::int32_t>& rcv, sim::Cycle& done) {
  Comm comm = MPI_Init(ctx, shim);
  const int me = comm.rank();
  const int n = comm.size();
  std::vector<std::int32_t> snd(static_cast<std::size_t>(kCount * n));
  for (int i = 0; i < kCount * n; ++i) {
    snd[static_cast<std::size_t>(i)] = Contrib(me, i);
  }
  rcv.assign(static_cast<std::size_t>(kCount * n), -1);
  switch (call) {
    case Call::kSendRecv: {
      // Forwarding ring: rank 0 originates, every other rank receives from
      // its left neighbour, adds its rank and passes the buffer on.
      const int right = (me + 1) % n;
      const int left = (me + n - 1) % n;
      if (me == 0) {
        co_await MPI_Send(snd.data(), kCount, right, comm);
        co_await MPI_Recv(rcv.data(), kCount, left, comm);
      } else {
        co_await MPI_Recv(rcv.data(), kCount, left, comm);
        for (int i = 0; i < kCount; ++i) {
          rcv[static_cast<std::size_t>(i)] += me;
        }
        co_await MPI_Send(rcv.data(), kCount, right, comm);
      }
      break;
    }
    case Call::kBcast:
      if (me == kRoot) rcv.assign(snd.begin(), snd.end());
      co_await MPI_Bcast(rcv.data(), kCount, kRoot, comm);
      for (int i = 0; i < kCount; ++i) {
        EXPECT_EQ(rcv[static_cast<std::size_t>(i)], Contrib(kRoot, i))
            << "rank " << me << " element " << i;
      }
      break;
    case Call::kReduce:
      co_await MPI_Reduce(snd.data(), rcv.data(), kCount, ReduceOp::kAdd,
                          kRoot, comm);
      break;
    case Call::kAllreduce:
      co_await MPI_Allreduce(snd.data(), rcv.data(), kCount, ReduceOp::kMax,
                             comm);
      break;
    case Call::kScatter:
      co_await MPI_Scatter(snd.data(), rcv.data(), kCount, kRoot, comm);
      break;
    case Call::kGather:
      co_await MPI_Gather(snd.data(), rcv.data(), kCount, kRoot, comm);
      break;
    case Call::kBarrier:
      // Staggered arrival: rank r burns 10*r cycles first.
      for (int i = 0; i < 10 * me; ++i) co_await sim::NextCycle{};
      co_await MPI_Barrier(comm);
      break;
  }
  done = *ctx.now_ptr();
}

struct RowResult {
  sim::Cycle cycles = 0;
  std::uint64_t digest = 0;
};

RowResult RunRow(const GoldenRow& row, SchedulerKind scheduler) {
  ShimConfig shim;
  shim.types = {DataType::kInt};
  shim.credits = 16;
  shim.selector =
      Selector({SelectorRule{std::nullopt, 0, 0, 0, 0, row.algo}});
  ClusterConfig config;
  config.engine.scheduler = scheduler;
  Cluster cluster(Topology::Torus2D(2, 4), WorldSpec(kRanks, shim), config);
  std::vector<std::vector<std::int32_t>> rcv(kRanks);
  std::vector<sim::Cycle> done(kRanks, 0);
  for (int r = 0; r < kRanks; ++r) {
    const auto at = static_cast<std::size_t>(r);
    cluster.AddKernel(r,
                      GoldenApp(cluster.context(r), shim, row.call, rcv[at],
                                done[at]),
                      "app");
  }
  RowResult out;
  out.cycles = cluster.Run().cycles;
  std::uint64_t h = 14695981039346656037ull;  // FNV-1a 64
  auto mix = [&h](const void* data, std::size_t bytes) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < bytes; ++i) {
      h ^= p[i];
      h *= 1099511628211ull;
    }
  };
  for (int r = 0; r < kRanks; ++r) {
    const auto at = static_cast<std::size_t>(r);
    mix(rcv[at].data(), rcv[at].size() * sizeof(std::int32_t));
    mix(&done[at], sizeof(sim::Cycle));
  }
  out.digest = h;
  return out;
}

class MpiGolden : public ::testing::TestWithParam<GoldenRow> {};

TEST_P(MpiGolden, MatchesUnderSyncAndEventDriven) {
  const GoldenRow& row = GetParam();
  for (const SchedulerKind scheduler :
       {SchedulerKind::kSynchronous, SchedulerKind::kEventDriven}) {
    const RowResult got = RunRow(row, scheduler);
    EXPECT_EQ(got.cycles, row.cycles)
        << row.name << " scheduler " << static_cast<int>(scheduler);
    EXPECT_EQ(got.digest, row.digest)
        << row.name << " scheduler " << static_cast<int>(scheduler);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Calls, MpiGolden,
    ::testing::Values(
        GoldenRow{"SendRecvRing", Call::kSendRecv, CollAlgo::kLinear, 1608,
                  9171959179676823364ull},
        GoldenRow{"BcastLinear", Call::kBcast, CollAlgo::kLinear, 778,
                  11438404694980775194ull},
        GoldenRow{"BcastTree", Call::kBcast, CollAlgo::kTree, 901,
                  6210784130581361729ull},
        GoldenRow{"ReduceLinear", Call::kReduce, CollAlgo::kLinear, 1954,
                  16314479246704289526ull},
        GoldenRow{"ReduceTree", Call::kReduce, CollAlgo::kTree, 2138,
                  14080674293123450615ull},
        GoldenRow{"AllreduceLinear", Call::kAllreduce, CollAlgo::kLinear,
                  28933, 9798151985708518878ull},
        GoldenRow{"AllreduceTree", Call::kAllreduce, CollAlgo::kTree,
                  38568, 8246871456839858483ull},
        GoldenRow{"Scatter", Call::kScatter, CollAlgo::kLinear, 880,
                  513636387992553256ull},
        GoldenRow{"Gather", Call::kGather, CollAlgo::kLinear, 3356,
                  17675168709905556453ull},
        GoldenRow{"Barrier", Call::kBarrier, CollAlgo::kLinear, 1052,
                  11881267996228344523ull}),
    [](const ::testing::TestParamInfo<GoldenRow>& info) {
      return info.param.name;
    });

}  // namespace
}  // namespace smi::mpi
