/// \file quickstart.cpp
/// The paper's Listing 1: an MPMD program with two ranks. Rank 0 opens a
/// send channel and streams N integers to rank 1, which opens a receive
/// channel and consumes them one element per cycle — communication
/// integrated directly into the pipelined loops.
///
/// Build & run:  ./build/examples/quickstart

#include <cstdio>

#include "core/smi.h"

namespace {

using namespace smi;

/// void Rank0(const int N, ...) — Listing 1, sender side.
sim::Kernel Rank0(core::Context& ctx, int n) {
  // SMI_Open_send_channel(N, SMI_INT, 1, 0, SMI_COMM_WORLD)
  core::SendChannel chs = ctx.OpenSendChannel(
      n, core::DataType::kInt, /*destination=*/1, /*port=*/0, ctx.world());
  for (int i = 0; i < n; ++i) {  // #pragma ii 1 — pipelined loop
    const std::int32_t data = i * i;  // create interesting data
    co_await chs.Push(data);          // SMI_Push(&chs, &data)
  }
  std::printf("[rank 0] sent %d elements\n", n);
}

/// void Rank1(const int N, ...) — Listing 1, receiver side.
sim::Kernel Rank1(core::Context& ctx, int n, std::int64_t& checksum) {
  // SMI_Open_recv_channel(N, SMI_INT, 0, 0, SMI_COMM_WORLD)
  core::RecvChannel chr = ctx.OpenRecvChannel(
      n, core::DataType::kInt, /*source=*/0, /*port=*/0, ctx.world());
  for (int i = 0; i < n; ++i) {  // pipelined loop
    const std::int32_t data = co_await chr.Pop<std::int32_t>();
    checksum += data;  // ...do something useful with data...
  }
  std::printf("[rank 1] received %d elements, checksum %lld\n", n,
              static_cast<long long>(checksum));
}

}  // namespace

int main() {
  // The "bitstream": one send and one recv endpoint on port 0, per rank.
  core::ProgramSpec spec;
  spec.Add(core::OpSpec::Send(0, core::DataType::kInt));
  spec.Add(core::OpSpec::Recv(0, core::DataType::kInt));

  // Two FPGAs connected by a serial cable; routes generated and uploaded.
  core::Cluster cluster(net::Topology::Bus(2), spec);

  const int n = 1000;
  cluster.AddKernel(0, Rank0(cluster.context(0), n), "rank0");
  std::int64_t checksum = 0;
  cluster.AddKernel(1, Rank1(cluster.context(1), n, checksum), "rank1");

  const core::RunResult result = cluster.Run();
  std::printf("completed in %llu cycles (%.2f us) — %.2f Gbit/s payload\n",
              static_cast<unsigned long long>(result.cycles),
              result.microseconds,
              static_cast<double>(n) * 4 * 8 / (result.microseconds * 1e3));
  // Sum of i*i for i < n.
  const std::int64_t expect =
      static_cast<std::int64_t>(n) * (n - 1) * (2 * n - 1) / 6;
  if (checksum != expect) {
    std::printf("checksum mismatch: expected %lld\n",
                static_cast<long long>(expect));
    return 1;
  }
  return 0;
}
