#include <gtest/gtest.h>

#include <climits>
#include <vector>

#include "core/coll_tree.h"
#include "core/smi.h"

namespace smi::core {
namespace {

using net::Topology;
using sim::Kernel;

TEST(BinomialTree, ParentChildStructure) {
  EXPECT_EQ(BinomialParent(0), -1);
  EXPECT_EQ(BinomialParent(1), 0);
  EXPECT_EQ(BinomialParent(2), 0);
  EXPECT_EQ(BinomialParent(3), 1);
  EXPECT_EQ(BinomialParent(5), 1);
  EXPECT_EQ(BinomialParent(6), 2);
  EXPECT_EQ(BinomialParent(7), 3);
  EXPECT_EQ(BinomialChildren(0, 8), (std::vector<int>{1, 2, 4}));
  EXPECT_EQ(BinomialChildren(1, 8), (std::vector<int>{3, 5}));
  EXPECT_EQ(BinomialChildren(2, 8), (std::vector<int>{6}));
  EXPECT_EQ(BinomialChildren(7, 8), (std::vector<int>{}));
  EXPECT_EQ(BinomialChildren(0, 5), (std::vector<int>{1, 2, 4}));
  EXPECT_EQ(BinomialChildren(2, 5), (std::vector<int>{}));
}

TEST(BinomialTree, EveryNodeReachableFromRoot) {
  for (int n = 1; n <= 32; ++n) {
    std::vector<bool> seen(static_cast<std::size_t>(n), false);
    std::vector<int> stack{0};
    seen[0] = true;
    int count = 1;
    while (!stack.empty()) {
      const int at = stack.back();
      stack.pop_back();
      for (const int child : BinomialChildren(at, n)) {
        ASSERT_FALSE(seen[static_cast<std::size_t>(child)]);
        EXPECT_EQ(BinomialParent(child), at);
        seen[static_cast<std::size_t>(child)] = true;
        ++count;
        stack.push_back(child);
      }
    }
    EXPECT_EQ(count, n) << "n=" << n;
  }
}

TEST(BinomialTree, Depth) {
  EXPECT_EQ(BinomialDepth(1), 0);
  EXPECT_EQ(BinomialDepth(2), 1);
  EXPECT_EQ(BinomialDepth(8), 3);
  EXPECT_EQ(BinomialDepth(9), 4);
}

TEST(BinomialTree, LargeRankBoundaries) {
  // The mask walk probes one bit above the rank's highest set bit; for
  // ranks at or above 2^30 that probe reaches 2^31, which is UB in signed
  // arithmetic. The unsigned implementation must stay exact up to INT_MAX.
  constexpr int kBit30 = 1 << 30;
  EXPECT_EQ(BinomialParent(kBit30), 0);
  EXPECT_EQ(BinomialParent(kBit30 + 5), 5);
  EXPECT_EQ(BinomialParent(INT_MAX), INT_MAX - kBit30);
  // The root of an INT_MAX-wide tree has one child per bit: 31 of them.
  const std::vector<int> root_children = BinomialChildren(0, INT_MAX);
  ASSERT_EQ(root_children.size(), 31u);
  for (std::size_t i = 0; i < root_children.size(); ++i) {
    EXPECT_EQ(root_children[i], 1 << i);
  }
  // INT_MAX - 1 = 0x7ffffffe: every candidate `rel | mask` with mask below
  // bit 30 is already set, so it is childless despite not being the last
  // rank numerically.
  EXPECT_EQ(BinomialChildren(INT_MAX - 1, INT_MAX), (std::vector<int>{}));
  EXPECT_EQ(BinomialChildren(kBit30, kBit30 + 1), (std::vector<int>{}));
  EXPECT_EQ(BinomialDepth(INT_MAX), 31);
  EXPECT_EQ(BinomialDepth(kBit30), 30);
  EXPECT_EQ(BinomialDepth(kBit30 + 1), 31);
}

TEST(BinomialTree, DegenerateShapes) {
  EXPECT_EQ(BinomialDepth(0), 0);
  EXPECT_EQ(BinomialDepth(1), 0);
  EXPECT_EQ(BinomialChildren(0, 1), (std::vector<int>{}));
  EXPECT_THROW(BinomialParent(-1), ConfigError);
  EXPECT_THROW(BinomialChildren(-1, 4), ConfigError);
  EXPECT_THROW(BinomialChildren(4, 4), ConfigError);
}

CollConfig ConfigOver(std::vector<int> comm_global, int root_comm) {
  CollConfig cfg;
  cfg.root_comm = root_comm;
  cfg.comm_global = std::move(comm_global);
  return cfg;
}

TEST(CollTree, FlatTreeServesCommOrderSkippingTheRoot) {
  // Communicator {10, 11, ..., 15} rooted at comm rank 3 (global 13).
  const CollConfig cfg = ConfigOver({10, 11, 12, 13, 14, 15}, 3);
  const CollTree root(cfg, 3, CollAlgo::kLinear);
  EXPECT_TRUE(root.is_root());
  EXPECT_EQ(root.children, (std::vector<int>{10, 11, 12, 14, 15}));
  for (const int me : {0, 1, 2, 4, 5}) {
    const CollTree leaf(cfg, me, CollAlgo::kLinear);
    EXPECT_EQ(leaf.parent, 13);
    EXPECT_TRUE(leaf.is_leaf());
  }
}

TEST(CollTree, BinomialTreeIsRootRelative) {
  // 8 ranks rooted at comm rank 5: relative rank r is comm rank (r+5)%8,
  // global 20 + comm rank.
  const CollConfig cfg = ConfigOver({20, 21, 22, 23, 24, 25, 26, 27}, 5);
  const CollTree root(cfg, 5, CollAlgo::kTree);
  EXPECT_TRUE(root.is_root());
  EXPECT_EQ(root.children, (std::vector<int>{26, 27, 21}));  // rel 1, 2, 4
  const CollTree rel1(cfg, 6, CollAlgo::kTree);
  EXPECT_EQ(rel1.parent, 25);
  EXPECT_EQ(rel1.children, (std::vector<int>{20, 22}));  // rel 3, 5
  const CollTree rel7(cfg, 4, CollAlgo::kTree);
  EXPECT_EQ(rel7.parent, 20);  // rel 3
  EXPECT_TRUE(rel7.is_leaf());
}

TEST(CollTree, InnetHasNoSupportKernelTree) {
  EXPECT_THROW(CollTree(ConfigOver({0, 1}, 0), 0, CollAlgo::kInnet),
               ConfigError);
}

// ---------------------------------------------------------------------------
// Tree Bcast / Reduce correctness: identical call sequences as the linear
// variants; only the OpSpec algo changes.
// ---------------------------------------------------------------------------

Kernel BcastApp(Context& ctx, int n, int root, std::vector<float>& sink) {
  BcastChannel chan =
      ctx.OpenBcastChannel(n, DataType::kFloat, 0, root, ctx.world());
  for (int i = 0; i < n; ++i) {
    float v = ctx.rank() == root ? static_cast<float>(i) * 2.0f : -1.0f;
    co_await chan.Bcast(v);
    sink.push_back(v);
  }
}

class TreeBcastSweep
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(TreeBcastSweep, AllRanksReceiveRootData) {
  const auto [ranks, count, root] = GetParam();
  ProgramSpec spec;
  spec.Add(OpSpec::Bcast(0, DataType::kFloat, CollAlgo::kTree));
  const Topology topo =
      ranks == 8 ? Topology::Torus2D(2, 4) : Topology::Bus(ranks);
  Cluster cluster(topo, spec);
  std::vector<std::vector<float>> sinks(static_cast<std::size_t>(ranks));
  for (int r = 0; r < ranks; ++r) {
    cluster.AddKernel(r, BcastApp(cluster.context(r), count, root,
                                  sinks[static_cast<std::size_t>(r)]),
                      "tree-bcast");
  }
  cluster.Run();
  for (int r = 0; r < ranks; ++r) {
    ASSERT_EQ(sinks[static_cast<std::size_t>(r)].size(),
              static_cast<std::size_t>(count));
    for (int i = 0; i < count; ++i) {
      EXPECT_EQ(sinks[static_cast<std::size_t>(r)][static_cast<std::size_t>(i)],
                static_cast<float>(i) * 2.0f)
          << "rank " << r << " elem " << i;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, TreeBcastSweep,
    ::testing::Values(std::tuple{2, 30, 0}, std::tuple{3, 25, 1},
                      std::tuple{4, 100, 0}, std::tuple{4, 64, 3},
                      std::tuple{8, 150, 0}, std::tuple{8, 77, 5}));

Kernel ReduceApp(Context& ctx, int n, int root, int credits,
                 std::vector<float>& results) {
  ReduceChannel chan =
      ctx.OpenReduceChannel(n, DataType::kFloat, ReduceOp::kAdd, 1, root,
                            ctx.world(), credits);
  for (int i = 0; i < n; ++i) {
    float rcv = -1.0f;
    co_await chan.Reduce(
        static_cast<float>(i) + static_cast<float>(ctx.rank() * 100), rcv);
    if (ctx.rank() == ctx.world().GlobalRank(root)) results.push_back(rcv);
  }
}

class TreeReduceSweep
    : public ::testing::TestWithParam<std::tuple<int, int, int, int>> {};

TEST_P(TreeReduceSweep, SumMatchesReference) {
  const auto [ranks, count, root, credits] = GetParam();
  ProgramSpec spec;
  spec.Add(OpSpec::Reduce(1, DataType::kFloat, CollAlgo::kTree));
  const Topology topo =
      ranks == 8 ? Topology::Torus2D(2, 4) : Topology::Bus(ranks);
  Cluster cluster(topo, spec);
  std::vector<float> results;
  for (int r = 0; r < ranks; ++r) {
    cluster.AddKernel(r, ReduceApp(cluster.context(r), count, root, credits,
                                   results),
                      "tree-reduce");
  }
  cluster.Run();
  ASSERT_EQ(results.size(), static_cast<std::size_t>(count));
  const float base = 100.0f * static_cast<float>(ranks * (ranks - 1) / 2);
  for (int i = 0; i < count; ++i) {
    EXPECT_EQ(results[static_cast<std::size_t>(i)],
              static_cast<float>(ranks * i) + base)
        << "elem " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, TreeReduceSweep,
    ::testing::Values(std::tuple{2, 40, 0, 16}, std::tuple{3, 33, 2, 8},
                      std::tuple{4, 100, 0, 16}, std::tuple{4, 65, 1, 1},
                      std::tuple{8, 120, 0, 32}, std::tuple{8, 50, 6, 4}));

TEST(TreeCollectives, SuccessiveTreeBcasts) {
  ProgramSpec spec;
  spec.Add(OpSpec::Bcast(0, DataType::kFloat, CollAlgo::kTree));
  Cluster cluster(Topology::Torus2D(2, 4), spec);
  std::vector<std::vector<float>> sinks(8);
  auto app = [](Context& ctx, std::vector<float>& sink) -> Kernel {
    for (int round = 0; round < 3; ++round) {
      BcastChannel chan = ctx.OpenBcastChannel(20, DataType::kFloat, 0,
                                               round % 3, ctx.world());
      for (int i = 0; i < 20; ++i) {
        float v = ctx.rank() == round % 3
                      ? static_cast<float>(round * 1000 + i)
                      : -1.0f;
        co_await chan.Bcast(v);
        sink.push_back(v);
      }
    }
  };
  for (int r = 0; r < 8; ++r) {
    cluster.AddKernel(r, app(cluster.context(r),
                             sinks[static_cast<std::size_t>(r)]),
                      "app");
  }
  cluster.Run();
  for (int r = 0; r < 8; ++r) {
    ASSERT_EQ(sinks[static_cast<std::size_t>(r)].size(), 60u);
    for (int round = 0; round < 3; ++round) {
      for (int i = 0; i < 20; ++i) {
        EXPECT_EQ(sinks[static_cast<std::size_t>(r)]
                       [static_cast<std::size_t>(round * 20 + i)],
                  static_cast<float>(round * 1000 + i));
      }
    }
  }
}

TEST(TreeCollectives, TreeScatterIsRejected) {
  ProgramSpec spec;
  OpSpec op = OpSpec::Scatter(0, DataType::kInt);
  op.algo = CollAlgo::kTree;
  spec.Add(op);
  EXPECT_THROW(Cluster(Topology::Bus(2), spec), ConfigError);
}

TEST(TreeCollectives, TreeBcastIsFasterAtScale) {
  // The point of the tree variant: logarithmic root fan-out. At 8 ranks and
  // a large message the tree broadcast must beat the linear one.
  auto run = [](CollAlgo algo) {
    ProgramSpec spec;
    spec.Add(OpSpec::Bcast(0, DataType::kFloat, algo));
    Cluster cluster(Topology::Torus2D(2, 4), spec);
    std::vector<std::vector<float>> sinks(8);
    for (int r = 0; r < 8; ++r) {
      cluster.AddKernel(r, BcastApp(cluster.context(r), 4096, 0,
                                    sinks[static_cast<std::size_t>(r)]),
                        "app");
    }
    return cluster.Run().cycles;
  };
  const sim::Cycle linear = run(CollAlgo::kLinear);
  const sim::Cycle tree = run(CollAlgo::kTree);
  EXPECT_LT(tree, linear);
}

}  // namespace
}  // namespace smi::core
