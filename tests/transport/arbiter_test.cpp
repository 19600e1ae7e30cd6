#include "transport/arbiter.h"

#include <gtest/gtest.h>

#include "common/error.h"

namespace smi::transport {
namespace {

net::Packet DataPacket(int src) {
  net::Packet p;
  p.hdr.src = static_cast<std::uint8_t>(src);
  p.hdr.op = net::OpType::kData;
  return p;
}

/// Drive the arbiter like a CK's Step loop: one Select per cycle, consuming
/// the packet when granted. Returns the grant pattern (input index or -1).
std::vector<int> Drive(PollingArbiter& arb,
                       std::vector<sim::Fifo<net::Packet>*> inputs,
                       int cycles, sim::Cycle& now) {
  std::vector<int> grants;
  for (int c = 0; c < cycles; ++c) {
    PacketFifo* in = arb.Select(now);
    int granted = -1;
    if (in != nullptr) {
      (void)in->Pop(now);
      arb.Serviced(now);
      for (std::size_t i = 0; i < inputs.size(); ++i) {
        if (inputs[i] == in) granted = static_cast<int>(i);
      }
    }
    for (sim::Fifo<net::Packet>* f : inputs) f->Commit(now);
    grants.push_back(granted);
    ++now;
  }
  return grants;
}

TEST(PollingArbiter, SingleSourceAtREqualsOneIsOneInFive) {
  sim::Cycle now = 0;
  std::vector<std::unique_ptr<sim::Fifo<net::Packet>>> fifos;
  std::vector<sim::Fifo<net::Packet>*> inputs;
  PollingArbiter arb(1);
  for (int i = 0; i < 5; ++i) {
    fifos.push_back(std::make_unique<sim::Fifo<net::Packet>>(
        "in" + std::to_string(i), 16));
    inputs.push_back(fifos.back().get());
    arb.AddInput(*fifos.back());
  }
  // Keep input 0 saturated.
  for (int c = 0; c < 3; ++c) {
    fifos[0]->Push(DataPacket(0), now);
    fifos[0]->Commit(now);
    ++now;
  }
  auto refill = [&](sim::Cycle at) {
    if (fifos[0]->CanPush(at)) fifos[0]->Push(DataPacket(0), at);
  };
  std::vector<int> grants;
  for (int c = 0; c < 20; ++c) {
    refill(now);
    PacketFifo* in = arb.Select(now);
    int granted = -1;
    if (in != nullptr) {
      (void)in->Pop(now);
      arb.Serviced(now);
      granted = 0;
    }
    for (auto& f : fifos) f->Commit(now);
    grants.push_back(granted);
    ++now;
  }
  // Exactly one grant per 5 cycles in steady state.
  int count = 0;
  for (const int g : grants) count += (g == 0);
  EXPECT_NEAR(count, 4, 1);
}

TEST(PollingArbiter, BurstsUpToRFromOneSource) {
  sim::Cycle now = 0;
  sim::Fifo<net::Packet> a("a", 32), b("b", 32);
  PollingArbiter arb(4);
  arb.AddInput(a);
  arb.AddInput(b);
  // Preload 8 packets into `a`.
  for (int i = 0; i < 8; ++i) {
    a.Push(DataPacket(0), now);
    a.Commit(now);
    b.Commit(now);
    ++now;
  }
  const std::vector<int> grants = Drive(arb, {&a, &b}, 12, now);
  // Pattern: 4 grants from a, 1 idle (scanning b), 4 grants, idle...
  int bursts = 0, idles = 0;
  for (const int g : grants) {
    if (g == 0) ++bursts;
    if (g == -1) ++idles;
  }
  EXPECT_EQ(bursts, 8);
  EXPECT_GE(idles, 2);
}

TEST(PollingArbiter, AlternatesBetweenTwoActiveSources) {
  sim::Cycle now = 0;
  sim::Fifo<net::Packet> a("a", 64), b("b", 64);
  PollingArbiter arb(2);
  arb.AddInput(a);
  arb.AddInput(b);
  for (int i = 0; i < 10; ++i) {
    a.Push(DataPacket(0), now);
    b.Push(DataPacket(1), now);
    a.Commit(now);
    b.Commit(now);
    ++now;
  }
  const std::vector<int> grants = Drive(arb, {&a, &b}, 20, now);
  // With both sources saturated and R=2, service alternates in bursts of 2
  // with no idle cycles.
  int idle = 0;
  for (const int g : grants) idle += (g == -1);
  EXPECT_EQ(idle, 0);
  // Both sources drained equally.
  EXPECT_EQ(a.total_pops(), 10u);
  EXPECT_EQ(b.total_pops(), 10u);
}

TEST(PollingArbiter, EmptyArbiterGrantsNothing) {
  PollingArbiter arb(8);
  EXPECT_EQ(arb.Select(0), nullptr);
}

TEST(PollingArbiter, StalledGrantRetriesSameInput) {
  sim::Cycle now = 0;
  sim::Fifo<net::Packet> a("a", 8), b("b", 8);
  PollingArbiter arb(1);
  arb.AddInput(a);
  arb.AddInput(b);
  a.Push(DataPacket(0), now);
  a.Commit(now);
  b.Commit(now);
  ++now;
  // Select grants input a; the caller stalls (output full).
  PacketFifo* first = arb.Select(now);
  ASSERT_EQ(first, &a);
  arb.Stalled(now);
  a.Commit(now);
  b.Commit(now);
  ++now;
  // Next cycle the same input must be offered again (hardware cannot drop
  // the latched packet).
  EXPECT_EQ(arb.Select(now), &a);
}

// The arbiter's count of inputs holding data follows every occupancy change
// its inputs see, staged or committed, and always equals a rescan.
TEST(PollingArbiter, CountsInputsWithDataThroughPushAndPop) {
  sim::Cycle now = 0;
  PacketFifo a("a", 4), b("b", 4);
  PollingArbiter arb(1);
  arb.AddInput(a);
  arb.AddInput(b);
  const auto expect_count = [&](std::size_t n) {
    EXPECT_EQ(arb.inputs_with_data(), n);
    EXPECT_EQ(arb.CountInputsWithData(), n);
    EXPECT_EQ(arb.AnyInputHasData(), n > 0);
  };
  expect_count(0);
  a.Push(DataPacket(0), now);  // staged data counts
  expect_count(1);
  a.Commit(now);
  b.Commit(now);
  ++now;
  a.Push(DataPacket(1), now);
  b.Push(DataPacket(2), now);
  expect_count(2);
  a.Commit(now);
  b.Commit(now);
  ++now;
  (void)a.Pop(now);  // a still holds one packet
  (void)b.Pop(now);
  expect_count(1);
  a.Commit(now);
  b.Commit(now);
  ++now;
  (void)a.Pop(now);
  expect_count(0);
}

// The flow-level link path moves packets with modeled bulk operations.
TEST(PollingArbiter, CountsInputsWithDataThroughModeledBulkOps) {
  sim::Cycle now = 0;
  PacketFifo a("a", 8), b("b", 8);
  PollingArbiter arb(2);
  arb.AddInput(a);
  arb.AddInput(b);
  std::vector<net::Packet> burst(3, DataPacket(0));
  a.PushBulkModeled(burst.data(), burst.size(), now);
  b.PushBulkModeled(burst.data(), 0, now);  // an empty bulk op is a no-op
  EXPECT_EQ(arb.inputs_with_data(), 1u);
  a.Commit(now);
  ++now;
  a.PopBulkModeled(burst.data(), 2, now);
  EXPECT_EQ(arb.inputs_with_data(), 1u);
  a.PushBulkModeled(burst.data(), 2, now);
  b.PushBulkModeled(burst.data(), 2, now);
  EXPECT_EQ(arb.inputs_with_data(), 2u);
  a.Commit(now);
  b.Commit(now);
  ++now;
  a.PopBulkModeled(burst.data(), 3, now);
  (void)b.PopModeled(now);
  EXPECT_EQ(arb.inputs_with_data(), 1u);
  EXPECT_EQ(arb.CountInputsWithData(), 1u);
  b.PopBulkModeled(burst.data(), 1, now);
  EXPECT_EQ(arb.inputs_with_data(), 0u);
  EXPECT_FALSE(arb.AnyInputHasData());
}

// Link failover drains a FIFO wholesale, staged pushes included.
TEST(PollingArbiter, CountsInputsWithDataThroughDrainAll) {
  sim::Cycle now = 0;
  PacketFifo a("a", 4), b("b", 4);
  a.Push(DataPacket(0), now);  // data before the FIFO is attached counts
  a.Commit(now);
  ++now;
  PollingArbiter arb(1);
  arb.AddInput(a);
  arb.AddInput(b);
  EXPECT_EQ(arb.inputs_with_data(), 1u);
  a.Push(DataPacket(1), now);
  b.Push(DataPacket(2), now);
  EXPECT_EQ(arb.inputs_with_data(), 2u);
  EXPECT_EQ(a.DrainAll(now).size(), 2u);
  EXPECT_EQ(arb.inputs_with_data(), 1u);
  EXPECT_EQ(b.DrainAll(now).size(), 1u);
  EXPECT_EQ(arb.inputs_with_data(), 0u);
  EXPECT_EQ(arb.CountInputsWithData(), 0u);
}

TEST(PollingArbiter, InputFeedsOnlyOneArbiter) {
  PacketFifo a("a", 4);
  PollingArbiter first(1), second(1);
  first.AddInput(a);
  EXPECT_THROW(second.AddInput(a), ConfigError);
  EXPECT_THROW(first.AddInput(a), ConfigError);
  EXPECT_EQ(first.num_inputs(), 1u);
  EXPECT_EQ(second.num_inputs(), 0u);
}

}  // namespace
}  // namespace smi::transport
