#include "sim/fidelity.h"

#include <gtest/gtest.h>

#include <string>

#include "common/error.h"
#include "sim/engine.h"
#include "sim/link.h"

namespace smi::sim {
namespace {

// --- PlanFlowTransfer closed forms -------------------------------------

TEST(PlanFlowTransfer, ZeroElapsedPlansNothing) {
  const FlowBatch b = PlanFlowTransfer(100, 100, 50, 50);
  EXPECT_EQ(b.accepts, 0u);
  EXPECT_EQ(b.interval_budget, 0u);
}

TEST(PlanFlowTransfer, EmptyTxPlansNothingButReportsBudget) {
  // Zero-length message stream: the wake still elapses a full interval.
  const FlowBatch b = PlanFlowTransfer(64, 96, 0, 50);
  EXPECT_EQ(b.accepts, 0u);
  EXPECT_EQ(b.interval_budget, 32u);
}

TEST(PlanFlowTransfer, SaturatedMatchesPerCycleSchedule) {
  // tx and window both exceed the elapsed budget: one pop per cycle,
  // last_wake + 1 .. now, exactly what the cycle-accurate link does.
  const FlowBatch b = PlanFlowTransfer(64, 96, 100, 100);
  EXPECT_EQ(b.accepts, 32u);
  EXPECT_EQ(b.interval_budget, 32u);
  EXPECT_EQ(b.first_pop, 65u);
  EXPECT_EQ(b.first_pop + b.accepts - 1, 96u);
}

TEST(PlanFlowTransfer, SingleCreditWindowIsLatestConsistent) {
  // The credit window caps the batch at one payload. The pop cycle of a
  // credit-gated payload is unknown within the window, so the plan must be
  // latest-consistent: the single pop lands on the wake cycle itself.
  const FlowBatch b = PlanFlowTransfer(64, 96, 100, 1);
  EXPECT_EQ(b.accepts, 1u);
  EXPECT_EQ(b.first_pop, 96u);
}

TEST(PlanFlowTransfer, ExhaustedWindowPlansNothing) {
  // Saturated-contention corner: no credit left at all.
  const FlowBatch b = PlanFlowTransfer(64, 96, 100, 0);
  EXPECT_EQ(b.accepts, 0u);
  EXPECT_EQ(b.interval_budget, 32u);
}

TEST(PlanFlowTransfer, DrainedTailIsEarliestConsistent) {
  // TX-bound partial batch: all five payloads were committed-available at
  // the previous wake and the window stays open, so the cycle-accurate link
  // would have popped them back-to-back right after it.
  const FlowBatch b = PlanFlowTransfer(64, 96, 5, 100);
  EXPECT_EQ(b.accepts, 5u);
  EXPECT_EQ(b.interval_budget, 32u);
  EXPECT_EQ(b.first_pop, 65u);
}

// --- Strict mode parsing -----------------------------------------------

TEST(ParseFidelityModeTest, AcceptsExactTokens) {
  EXPECT_EQ(ParseFidelityMode("cycle"), FidelityMode::kCycle);
  EXPECT_EQ(ParseFidelityMode("flow"), FidelityMode::kFlow);
  EXPECT_EQ(ParseFidelityMode("auto"), FidelityMode::kAuto);
}

TEST(ParseFidelityModeTest, RejectsPartialAndDecoratedTokens) {
  EXPECT_THROW(ParseFidelityMode(""), ConfigError);
  EXPECT_THROW(ParseFidelityMode("Auto"), ConfigError);
  EXPECT_THROW(ParseFidelityMode("flow,"), ConfigError);
  EXPECT_THROW(ParseFidelityMode(" cycle"), ConfigError);
  EXPECT_THROW(ParseFidelityMode("cycle "), ConfigError);
  EXPECT_THROW(ParseFidelityMode("fl"), ConfigError);
}

// --- Bulk modeled FIFO transfers ---------------------------------------

TEST(FifoBulkModeled, MovesSpansAndKeepsCommitSemantics) {
  Fifo<int> f("bulk", 8);
  int in[6] = {1, 2, 3, 4, 5, 6};
  f.Commit(0);
  EXPECT_EQ(f.ModeledPushBudget(), 8u);
  f.PushBulkModeled(in, 6, 1);
  // Staged but not committed: nothing is poppable yet.
  EXPECT_EQ(f.ModeledPopBudget(), 0u);
  EXPECT_EQ(f.ModeledPushBudget(), 2u);
  f.Commit(1);
  EXPECT_EQ(f.ModeledPopBudget(), 6u);
  int out[6] = {0};
  f.PopBulkModeled(out, 6, 2);
  for (int i = 0; i < 6; ++i) EXPECT_EQ(out[i], i + 1);
  f.Commit(2);
  EXPECT_EQ(f.ModeledPopBudget(), 0u);
}

TEST(FifoBulkModeled, WrapsAroundTheRing) {
  Fifo<int> f("wrap", 8);
  // Advance head/tail to force the two-span path.
  int seed[5] = {9, 9, 9, 9, 9};
  f.PushBulkModeled(seed, 5, 0);
  f.Commit(0);
  int drop[5];
  f.PopBulkModeled(drop, 5, 1);
  f.Commit(1);
  int in[6] = {1, 2, 3, 4, 5, 6};
  f.PushBulkModeled(in, 6, 2);  // crosses the ring boundary at 8
  f.Commit(2);
  int out[6] = {0};
  f.PopBulkModeled(out, 6, 3);
  for (int i = 0; i < 6; ++i) EXPECT_EQ(out[i], i + 1);
}

TEST(FifoBulkModeled, EnforcesBudgets) {
  Fifo<int> f("strict", 4);
  int in[5] = {1, 2, 3, 4, 5};
  EXPECT_THROW(f.PushBulkModeled(in, 5, 0), ConfigError);
  f.PushBulkModeled(in, 4, 0);
  f.Commit(0);
  int out[5];
  EXPECT_THROW(f.PopBulkModeled(out, 5, 1), ConfigError);
  // Zero-length transfers are no-ops, never errors.
  f.PopBulkModeled(out, 0, 1);
  f.PushBulkModeled(in, 0, 1);
}

// --- Flow-mode state machine of sim::Link --------------------------------------------

Kernel Produce(Fifo<int>& out, int n) {
  for (int i = 0; i < n; ++i) co_await fifo_push(out, i);
}

Kernel BurstyProduce(Fifo<int>& out, int bursts, int burst, int gap) {
  for (int b = 0; b < bursts; ++b) {
    for (int i = 0; i < burst; ++i) co_await fifo_push(out, b * burst + i);
    co_await WaitCycles{static_cast<Cycle>(gap)};
  }
}

Kernel Consume(Fifo<int>& in, int n, std::vector<int>& sink) {
  for (int i = 0; i < n; ++i) sink.push_back(co_await fifo_pop(in));
}

struct ChainResult {
  Cycle cycles = 0;
  std::vector<int> sink;
  std::uint64_t promotions = 0;
  std::uint64_t demotions_drain = 0;
  std::uint64_t thrash_warnings = 0;
  std::uint64_t modeled_cycles = 0;
};

ChainResult RunChain(FidelityMode mode, int hops, int payloads,
                     const FidelityPolicy& base) {
  EngineConfig config;
  config.fidelity = base;
  config.fidelity.mode = mode;
  Engine engine(config);
  std::vector<Fifo<int>*> fifos;
  for (int i = 0; i <= hops; ++i) {
    fifos.push_back(&engine.MakeFifo<int>("f" + std::to_string(i), 64));
  }
  for (int i = 0; i < hops; ++i) {
    engine.MakeComponent<Link<int>>(
        engine, "link" + std::to_string(i), *fifos[static_cast<std::size_t>(i)],
        *fifos[static_cast<std::size_t>(i) + 1], 8);
  }
  ChainResult r;
  engine.AddKernel(Produce(*fifos.front(), payloads), "p");
  engine.AddKernel(Consume(*fifos.back(), payloads, r.sink), "c");
  r.cycles = engine.Run().cycles;
  for (const FlowLinkControl* link : engine.flow_links()) {
    const obs::FidelityCounters& c = link->fidelity_counters();
    r.promotions += c.promotions;
    r.demotions_drain += c.demotions_drain;
    r.thrash_warnings += c.thrash_warnings;
    r.modeled_cycles += c.modeled_cycles;
  }
  return r;
}

TEST(FlowLinkStateMachine, CycleModeNeverPromotes) {
  FidelityPolicy policy;
  const ChainResult r = RunChain(FidelityMode::kCycle, 3, 5000, policy);
  EXPECT_EQ(r.promotions, 0u);
  EXPECT_EQ(r.modeled_cycles, 0u);
  ASSERT_EQ(r.sink.size(), 5000u);
}

TEST(FlowLinkStateMachine, AutoPromotesOnSteadyStateAndStaysAccurate) {
  FidelityPolicy policy;
  policy.steady_window = 128;
  policy.flow_interval = 16;
  const ChainResult cycle = RunChain(FidelityMode::kCycle, 3, 20000, policy);
  const ChainResult fast = RunChain(FidelityMode::kAuto, 3, 20000, policy);
  // Every link promoted at least once and drained back at the stream tail.
  EXPECT_GE(fast.promotions, 3u);
  EXPECT_GE(fast.demotions_drain, 3u);
  EXPECT_GT(fast.modeled_cycles, 0u);
  // Payload stream is bit-identical; total cycles within the 2% contract.
  EXPECT_EQ(fast.sink, cycle.sink);
  const double divergence =
      100.0 *
      (static_cast<double>(fast.cycles) - static_cast<double>(cycle.cycles)) /
      static_cast<double>(cycle.cycles);
  EXPECT_GE(divergence, 0.0);  // the flow model never finishes early
  EXPECT_LE(divergence, 2.0);
}

TEST(FlowLinkStateMachine, BurstyTrafficUnderFlowModeCountsThrash) {
  // kFlow with a tiny hysteresis window promotes on every burst and drains
  // in every gap: the thrash detector (more than 8 transitions within
  // 10000 cycles) must fire and count it.
  FidelityPolicy policy;
  policy.steady_window = 1;
  policy.flow_interval = 16;
  EngineConfig config;
  config.fidelity = policy;
  config.fidelity.mode = FidelityMode::kFlow;
  Engine engine(config);
  Fifo<int>& tx = engine.MakeFifo<int>("tx", 64);
  Fifo<int>& rx = engine.MakeFifo<int>("rx", 64);
  engine.MakeComponent<Link<int>>(engine, "link", tx, rx, 8);
  const int bursts = 20;
  const int burst = 40;
  std::vector<int> sink;
  engine.AddKernel(BurstyProduce(tx, bursts, burst, 200), "p");
  engine.AddKernel(Consume(rx, bursts * burst, sink), "c");
  engine.Run();
  ASSERT_EQ(sink.size(), static_cast<std::size_t>(bursts * burst));
  for (int i = 0; i < bursts * burst; ++i) EXPECT_EQ(sink[i], i);
  const obs::FidelityCounters& c =
      engine.flow_links().front()->fidelity_counters();
  EXPECT_GT(c.promotions, 1u);
  EXPECT_GT(c.demotions_drain, 1u);
  EXPECT_GE(c.thrash_warnings, 1u);
}

TEST(FlowLinkStateMachine, FidelityReportShapesUp) {
  FidelityPolicy policy;
  policy.steady_window = 64;
  policy.flow_interval = 16;
  EngineConfig config;
  config.fidelity = policy;
  config.fidelity.mode = FidelityMode::kAuto;
  Engine engine(config);
  Fifo<int>& tx = engine.MakeFifo<int>("tx", 64);
  Fifo<int>& rx = engine.MakeFifo<int>("rx", 64);
  engine.MakeComponent<Link<int>>(engine, "link", tx, rx, 8);
  std::vector<int> sink;
  engine.AddKernel(Produce(tx, 4000), "p");
  engine.AddKernel(Consume(rx, 4000, sink), "c");
  engine.Run();
  const std::vector<FlowLinkControl*>& regs = engine.flow_links();
  const std::vector<const FlowLinkControl*> links(regs.begin(), regs.end());
  const json::Value report = FidelityReportJson(FidelityMode::kAuto, links);
  ASSERT_TRUE(report.is_object());
  EXPECT_EQ(report.at("mode").as_string(), "auto");
  const double frac = report.at("modeled_fraction").as_double();
  EXPECT_GT(frac, 0.0);
  EXPECT_LE(frac, 1.0);
  ASSERT_TRUE(report.at("links").is_array());
  ASSERT_EQ(report.at("links").as_array().size(), 1u);
  const json::Value& row = report.at("links").as_array().front();
  EXPECT_EQ(row.at("link").as_string(), "link");
  EXPECT_TRUE(row.at("demotions").is_object());
}

}  // namespace
}  // namespace smi::sim
