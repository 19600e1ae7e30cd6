/// \file handler_test.cpp
/// Unit and behavioral tests for the in-network packet handlers
/// (transport/handler.h): table lookup and validation, and
/// locally-delivered-packet fan-out at the CKR.
/// The reduce-combine handler is exercised end to end by the in-network
/// Reduce tests (tests/core/innet_test.cpp).

#include "transport/handler.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "common/error.h"
#include "common/json.h"
#include "obs/recorder.h"
#include "transport/fabric.h"

namespace smi::transport {
namespace {

using net::Header;
using net::OpType;
using net::Packet;
using net::RoutingScheme;
using net::Topology;
using sim::Engine;
using sim::Kernel;
using sim::fifo_pop;
using sim::fifo_push;

void NoopCombine(Packet&, const Packet&) {}

// ---------------------------------------------------------------------------
// Table lookup and validation.

TEST(HandlerTable, FindMatchesClassPortAndOp) {
  HandlerTable table;
  HandlerEntry combine;
  combine.cls = HandlerClass::kReduceCombine;
  combine.port = 2;
  combine.op = OpType::kData;
  combine.combine = NoopCombine;
  table.Add(combine);
  HandlerEntry fan;
  fan.cls = HandlerClass::kFanOut;
  fan.port = 2;
  fan.op = OpType::kCredit;
  fan.fan_dsts = {1};
  table.Add(fan);

  EXPECT_EQ(table.size(), 2u);
  EXPECT_NE(table.Find(HandlerClass::kReduceCombine, 2, OpType::kData),
            nullptr);
  EXPECT_EQ(table.Find(HandlerClass::kReduceCombine, 2, OpType::kCredit),
            nullptr);
  EXPECT_EQ(table.Find(HandlerClass::kReduceCombine, 3, OpType::kData),
            nullptr);
  EXPECT_NE(table.Find(HandlerClass::kFanOut, 2, OpType::kCredit), nullptr);
  EXPECT_EQ(table.Find(HandlerClass::kFanOut, 2, OpType::kData), nullptr);
}

TEST(HandlerTable, ValidateRejectsInconsistentEntries) {
  const auto tableWith = [](HandlerEntry e) {
    HandlerTable t;
    t.Add(std::move(e));
    return t;
  };

  HandlerEntry combine;
  combine.cls = HandlerClass::kReduceCombine;
  EXPECT_THROW(tableWith(combine).Validate(4), ConfigError);  // no fn
  combine.combine = NoopCombine;
  combine.hold_cycles = 0;
  EXPECT_THROW(tableWith(combine).Validate(4), ConfigError);  // hold < 1
  combine.hold_cycles = 8;
  combine.max_contribs = -1;
  EXPECT_THROW(tableWith(combine).Validate(4), ConfigError);
  combine.max_contribs = 3;
  EXPECT_NO_THROW(tableWith(combine).Validate(4));
  combine.port = -1;
  EXPECT_THROW(tableWith(combine).Validate(4), ConfigError);

  HandlerEntry fan;
  fan.cls = HandlerClass::kFanOut;
  EXPECT_THROW(tableWith(fan).Validate(4), ConfigError);  // no children
  fan.fan_dsts = {4};
  EXPECT_THROW(tableWith(fan).Validate(4), ConfigError);  // out of range
  fan.fan_dsts = {-1};
  EXPECT_THROW(tableWith(fan).Validate(4), ConfigError);
  fan.fan_dsts = {1, 3};
  EXPECT_NO_THROW(tableWith(fan).Validate(4));
}

// ---------------------------------------------------------------------------
// Behavioral: fan-out at the CKR.

Packet MakePacket(int src, int dst, int port, std::uint32_t seq) {
  Packet p;
  p.hdr = Header{static_cast<std::uint8_t>(src),
                 static_cast<std::uint8_t>(dst),
                 static_cast<std::uint8_t>(port), OpType::kData, 7};
  p.StoreBytes(0, &seq, sizeof(seq));
  return p;
}

std::uint32_t Seq(const Packet& p) {
  std::uint32_t seq = 0;
  p.LoadBytes(0, &seq, sizeof(seq));
  return seq;
}

Kernel SendPackets(PacketFifo& out, int src, int dst, int port, int n) {
  for (int i = 0; i < n; ++i) {
    co_await fifo_push(out,
                       MakePacket(src, dst, port, static_cast<std::uint32_t>(i)));
  }
}

Kernel RecvPackets(PacketFifo& in, int n, std::vector<std::uint32_t>& sink) {
  for (int i = 0; i < n; ++i) {
    sink.push_back(Seq(co_await fifo_pop(in)));
  }
}

Fabric MakeSimpleFabric(Engine& engine, const Topology& topo, int port) {
  RankEndpoints eps;
  eps.send_ports.push_back(port);
  eps.recv_ports.push_back(port);
  std::vector<RankEndpoints> all(static_cast<std::size_t>(topo.num_ranks()),
                                 eps);
  Fabric fabric(engine, topo, std::move(all));
  fabric.UploadRoutes(net::ComputeRoutes(topo, RoutingScheme::kAuto));
  return fabric;
}

/// Fan-out copies `ckr` injected, read from its telemetry counters.
std::uint64_t HandlerSplits(const Engine& engine, const Ckr& ckr) {
  const json::Value doc = engine.recorder()->CountersJson();
  for (const json::Value& row : doc.at("cks").as_array()) {
    if (row.at("name").as_string() != ckr.name()) continue;
    if (!row.contains("handler")) return 0;
    return static_cast<std::uint64_t>(
        row.at("handler").at("splits").as_int());
  }
  ADD_FAILURE() << "no counters for " << ckr.name();
  return 0;
}

sim::EngineConfig WithCounters() {
  sim::EngineConfig config;
  config.collect_counters = true;
  return config;
}

TEST(HandlerFilter, UploadRejectsInvalidTable) {
  Engine engine;
  const Topology topo = Topology::Bus(2);
  Fabric fabric = MakeSimpleFabric(engine, topo, 0);
  std::vector<HandlerTable> tables(2);
  HandlerEntry fan;
  fan.cls = HandlerClass::kFanOut;
  fan.fan_dsts = {7};  // out of range for 2 ranks
  tables[1].Add(fan);
  EXPECT_THROW(fabric.UploadHandlers(tables), ConfigError);
  EXPECT_THROW(fabric.UploadHandlers({HandlerTable{}}), ConfigError);  // size
}

TEST(HandlerFanOut, LocallyDeliveredPacketIsReplicatedToChildren) {
  // Bus(3): one packet 0 -> 1; rank 1 holds a fan entry toward rank 2, so
  // both 1 and 2 receive the payload and the source address is preserved.
  Engine engine(WithCounters());
  const Topology topo = Topology::Bus(3);
  Fabric fabric = MakeSimpleFabric(engine, topo, 0);
  std::vector<HandlerTable> tables(3);
  HandlerEntry fan;
  fan.cls = HandlerClass::kFanOut;
  fan.port = 0;
  fan.op = OpType::kData;
  fan.fan_dsts = {2};
  tables[1].Add(fan);
  fabric.UploadHandlers(tables);

  std::vector<std::uint32_t> sink1, sink2;
  engine.AddKernel(SendPackets(fabric.SendEndpoint(0, 0), 0, 1, 0, 10), "s");
  engine.AddKernel(RecvPackets(fabric.RecvEndpoint(1, 0), 10, sink1), "r1");
  engine.AddKernel(RecvPackets(fabric.RecvEndpoint(2, 0), 10, sink2), "r2");
  engine.Run();
  ASSERT_EQ(sink1.size(), 10u);
  ASSERT_EQ(sink2.size(), 10u);
  for (std::uint32_t i = 0; i < 10; ++i) {
    EXPECT_EQ(sink1[i], i);
    EXPECT_EQ(sink2[i], i);
  }
  EXPECT_EQ(HandlerSplits(engine, fabric.ckr(1, 0)), 10u);
  EXPECT_EQ(HandlerSplits(engine, fabric.ckr(2, 0)), 0u);
}

TEST(HandlerFanOut, TransitPacketsAreNotReplicated) {
  // Bus(3) again, but the stream is 0 -> 2, passing *through* rank 1. The
  // fan entry keys on local delivery only, so rank 1 must not replicate.
  Engine engine(WithCounters());
  const Topology topo = Topology::Bus(3);
  Fabric fabric = MakeSimpleFabric(engine, topo, 0);
  std::vector<HandlerTable> tables(3);
  HandlerEntry fan;
  fan.cls = HandlerClass::kFanOut;
  fan.port = 0;
  fan.op = OpType::kData;
  fan.fan_dsts = {0};
  tables[1].Add(fan);
  fabric.UploadHandlers(tables);

  std::vector<std::uint32_t> sink;
  engine.AddKernel(SendPackets(fabric.SendEndpoint(0, 0), 0, 2, 0, 15), "s");
  engine.AddKernel(RecvPackets(fabric.RecvEndpoint(2, 0), 15, sink), "r");
  engine.Run();
  ASSERT_EQ(sink.size(), 15u);
  EXPECT_EQ(HandlerSplits(engine, fabric.ckr(1, 0)), 0u);
}

}  // namespace
}  // namespace smi::transport
