#include "sim/link.h"

#include <gtest/gtest.h>

#include <memory>

#include "sim/engine.h"

namespace smi::sim {
namespace {

Kernel Produce(Fifo<int>& out, int n) {
  for (int i = 0; i < n; ++i) co_await fifo_push(out, i);
}

Kernel Consume(Fifo<int>& in, int n, std::vector<int>& sink) {
  for (int i = 0; i < n; ++i) sink.push_back(co_await fifo_pop(in));
}

Kernel TimestampedConsume(Fifo<int>& in, const Cycle* now, Cycle& first_pop) {
  (void)co_await fifo_pop(in);
  first_pop = *now;
}

TEST(Link, DeliversInOrder) {
  Engine engine;
  Fifo<int>& tx = engine.MakeFifo<int>("tx", 4);
  Fifo<int>& rx = engine.MakeFifo<int>("rx", 4);
  engine.MakeComponent<Link<int>>("link", tx, rx, 10);
  std::vector<int> sink;
  engine.AddKernel(Produce(tx, 200), "p");
  engine.AddKernel(Consume(rx, 200, sink), "c");
  engine.Run();
  ASSERT_EQ(sink.size(), 200u);
  for (int i = 0; i < 200; ++i) EXPECT_EQ(sink[i], i);
}

TEST(Link, LatencyIsRespected) {
  Engine engine;
  Fifo<int>& tx = engine.MakeFifo<int>("tx", 4);
  Fifo<int>& rx = engine.MakeFifo<int>("rx", 4);
  const Cycle latency = 100;
  engine.MakeComponent<Link<int>>("link", tx, rx, latency);
  Cycle first_pop = 0;
  engine.AddKernel(Produce(tx, 1), "p");
  engine.AddKernel(TimestampedConsume(rx, engine.now_ptr(), first_pop), "c");
  engine.Run();
  // Push at cycle 0 -> visible to link at 1 -> accepted at 1 -> delivered at
  // >= 1+latency -> visible to consumer one commit later.
  EXPECT_GE(first_pop, latency);
  EXPECT_LE(first_pop, latency + 5);
}

TEST(Link, SustainsOnePayloadPerCycle) {
  Engine engine;
  Fifo<int>& tx = engine.MakeFifo<int>("tx", 8);
  Fifo<int>& rx = engine.MakeFifo<int>("rx", 8);
  engine.MakeComponent<Link<int>>("link", tx, rx, 50);
  std::vector<int> sink;
  const int n = 2000;
  engine.AddKernel(Produce(tx, n), "p");
  engine.AddKernel(Consume(rx, n, sink), "c");
  const RunStats stats = engine.Run();
  // Time ~ n + latency + small constant; far below 2n.
  EXPECT_LE(stats.cycles, static_cast<Cycle>(n) + 100);
}

TEST(Link, BackpressuresWhenReceiverStalls) {
  Engine engine;
  Fifo<int>& tx = engine.MakeFifo<int>("tx", 2);
  Fifo<int>& rx = engine.MakeFifo<int>("rx", 2);
  engine.MakeComponent<Link<int>>("link", tx, rx, 5);
  std::vector<int> sink;
  engine.AddKernel(Produce(tx, 100), "p");
  // Slow consumer: one pop every 4 cycles.
  engine.AddKernel(
      [](Fifo<int>& in, std::vector<int>& s) -> Kernel {
        for (int i = 0; i < 100; ++i) {
          s.push_back(co_await fifo_pop(in));
          co_await WaitCycles{3};
        }
      }(rx, sink),
      "slow-consumer");
  engine.Run();
  ASSERT_EQ(sink.size(), 100u);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(sink[i], i);  // lossless
}

// ---------------------------------------------------------------------------
// Manually clocked unit tests for the credit window and the event-driven
// wake contract — these pin the exact behaviour the parallel scheduler's
// split-link implementation must reproduce (see CutLink in component.h).
//
// Each runs on two inputs: a cycle-only link, and a flow-capable link built
// under an engine policy of kAuto (it registers and tracks steady state but
// never promotes here). Both modes share one cycle step, so every
// expectation holds for both.

/// The cycle-only link when `engine` is null, else the flow-capable one.
std::unique_ptr<Link<int>> MakeManualLink(Engine* engine, Fifo<int>& tx,
                                          Fifo<int>& rx, Cycle latency) {
  if (engine == nullptr) {
    return std::make_unique<Link<int>>("link", tx, rx, latency);
  }
  return std::make_unique<Link<int>>(*engine, "link", tx, rx, latency);
}

EngineConfig AutoFidelity() {
  EngineConfig config;
  config.fidelity.mode = FidelityMode::kAuto;
  return config;
}

/// One simulated cycle: step the link, then commit both FIFOs (the cycle
/// boundary the engine would apply).
void StepManually(Link<int>& link, Fifo<int>& tx, Fifo<int>& rx, Cycle now) {
  link.Step(now);
  tx.Commit(now);
  rx.Commit(now);
}

TEST(Link, CreditWindowIsExactlyLatencyPlusOneUnderRxStall) {
  for (const bool flow_capable : {false, true}) {
    SCOPED_TRACE(flow_capable ? "flow-capable" : "cycle-only");
    Engine engine(AutoFidelity());
    Fifo<int> tx("tx", 16);
    Fifo<int> rx("rx", 1);
    const Cycle latency = 4;
    const std::unique_ptr<Link<int>> owned =
        MakeManualLink(flow_capable ? &engine : nullptr, tx, rx, latency);
    Link<int>& link = *owned;
    // Saturate TX and never pop RX: one delivery fills the RX FIFO, after
    // which the pipeline must stall holding exactly latency+1 payloads —
    // the credit window of the physical transceiver.
    int next = 0;
    for (Cycle now = 0; now < 200; ++now) {
      if (tx.CanPush(now)) tx.Push(next++, now);
      StepManually(link, tx, rx, now);
    }
    EXPECT_EQ(link.delivered(), 1u);
    EXPECT_EQ(tx.total_pops() - link.delivered(),
              static_cast<std::uint64_t>(latency) + 1);
    // Not latency, not latency+2: the accept count pins the window size.
    EXPECT_EQ(tx.total_pops(), static_cast<std::uint64_t>(latency) + 2);
    EXPECT_FALSE(link.in_flow_mode());
    EXPECT_EQ(engine.flow_links().size(), flow_capable ? 1u : 0u);
  }
}

TEST(Link, NextSelfWakeCoversMaturityButNotRxStall) {
  for (const bool flow_capable : {false, true}) {
    SCOPED_TRACE(flow_capable ? "flow-capable" : "cycle-only");
    Engine engine(AutoFidelity());
    Fifo<int> tx("tx", 4);
    Fifo<int> rx("rx", 1);
    const Cycle latency = 3;
    const std::unique_ptr<Link<int>> owned =
        MakeManualLink(flow_capable ? &engine : nullptr, tx, rx, latency);
    Link<int>& link = *owned;

    // Empty pipeline: no timed wake.
    EXPECT_EQ(link.NextSelfWake(0), kNeverCycle);

    // Two payloads, one push per cycle; the link accepts them at cycles 1
    // and 2, so they mature at 4 and 5.
    tx.Push(1, 0);
    StepManually(link, tx, rx, 0);
    tx.Push(2, 1);
    StepManually(link, tx, rx, 1);
    StepManually(link, tx, rx, 2);

    // In-flight head not yet matured: the wake is its maturity cycle.
    EXPECT_EQ(link.NextSelfWake(2), Cycle{4});
    StepManually(link, tx, rx, 3);
    EXPECT_EQ(link.NextSelfWake(3), Cycle{4});

    // Cycle 4 delivers the first payload, filling the depth-1 RX FIFO; the
    // second payload matures at 5 but finds RX full.
    StepManually(link, tx, rx, 4);
    EXPECT_EQ(link.delivered(), 1u);
    EXPECT_EQ(link.NextSelfWake(4), Cycle{5});
    StepManually(link, tx, rx, 5);
    EXPECT_EQ(link.delivered(), 1u);  // stalled

    // Matured-but-stalled head: NO timed wake. Only RX-pop activity can
    // unstall it, and FIFO activity wakes the link through DeclareWakeFifos,
    // so a timer here would be a pure busy-poll.
    EXPECT_EQ(link.NextSelfWake(5), kNeverCycle);

    // An RX pop unstalls the delivery on the following cycle.
    (void)rx.Pop(6);
    StepManually(link, tx, rx, 6);
    StepManually(link, tx, rx, 7);
    EXPECT_EQ(link.delivered(), 2u);
    EXPECT_EQ(link.NextSelfWake(7), kNeverCycle);  // pipeline drained
    EXPECT_FALSE(link.in_flow_mode());
  }
}

}  // namespace
}  // namespace smi::sim
