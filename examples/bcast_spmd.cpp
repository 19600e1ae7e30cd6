/// \file bcast_spmd.cpp
/// The paper's Listing 2: an SPMD program in which the root rank broadcasts
/// locally produced elements to the other ranks of the communicator, plus a
/// follow-up Reduce that aggregates a value back at the root — both over
/// the paper's 8-FPGA 2x4 torus, with the root chosen at runtime.
///
/// Build & run:  ./build/examples/bcast_spmd

#include <cstdio>
#include <vector>

#include "core/smi.h"

namespace {

using namespace smi;

/// void App(int N, int root, SMI_Comm comm, ...) — Listing 2.
sim::Kernel App(core::Context& ctx, int n, int root, float& total) {
  // SMI_Open_bcast_channel(N, SMI_FLOAT, 0, root, comm)
  core::BcastChannel chan = ctx.OpenBcastChannel(
      n, core::DataType::kFloat, /*port=*/0, root, ctx.world());
  const int my_rank = ctx.rank();  // SMI_Comm_rank(comm)
  double local_sum = 0.0;
  for (int i = 0; i < n; ++i) {
    float data = 0.0f;
    if (my_rank == root) {
      data = static_cast<float>(i) * 0.5f;  // create interesting data
    }
    co_await chan.Bcast(data);  // SMI_Bcast(&chan, &data)
    local_sum += data;          // ...do something useful with data...
  }

  // Aggregate every rank's local sum back at the root with SMI_Reduce.
  core::ReduceChannel rchan = ctx.OpenReduceChannel(
      1, core::DataType::kFloat, core::ReduceOp::kAdd, /*port=*/1, root,
      ctx.world());
  co_await rchan.Reduce(static_cast<float>(local_sum), total);
  if (my_rank == root) {
    std::printf("[root %d] broadcast %d elements; global sum across %d "
                "ranks: %.1f\n",
                root, n, ctx.world_size(), total);
  }
}

}  // namespace

int main() {
  core::ProgramSpec spec;  // SPMD: the same spec (bitstream) on every rank
  spec.Add(core::OpSpec::Bcast(0, core::DataType::kFloat));
  spec.Add(core::OpSpec::Reduce(1, core::DataType::kFloat));

  core::Cluster cluster(net::Topology::Torus2D(2, 4), spec);
  const int n = 512;
  const int root = 3;  // chosen at runtime, no rebuild
  std::vector<float> totals(static_cast<std::size_t>(cluster.num_ranks()));
  for (int r = 0; r < cluster.num_ranks(); ++r) {
    float& total = totals[static_cast<std::size_t>(r)];
    cluster.AddKernel(r, App(cluster.context(r), n, root, total), "app");
  }
  const core::RunResult result = cluster.Run();
  std::printf("completed in %llu cycles (%.2f us)\n",
              static_cast<unsigned long long>(result.cycles),
              result.microseconds);
  // Every rank sums 0.5*i for i < n; all partial sums are exact in float.
  const double expect = cluster.num_ranks() * 0.5 * n * (n - 1) / 2.0;
  if (totals[static_cast<std::size_t>(root)] != expect) {
    std::printf("global sum mismatch: expected %.1f\n", expect);
    return 1;
  }
  return 0;
}
