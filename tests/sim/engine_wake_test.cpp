/// \file engine_wake_test.cpp
/// Wake-queue edge cases of the event-driven and parallel schedulers: wakes
/// requested by global events, RunFor slices that stop between queued wakes,
/// watch-free next-cycle re-polls and the cross-partition watch check. Every
/// case runs under the synchronous reference, the event-driven scheduler and
/// the parallel scheduler at 1/2/4/8 threads.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/error.h"
#include "sim/component.h"
#include "sim/engine.h"

namespace smi::sim {
namespace {

struct SchedulerCase {
  SchedulerKind kind;
  unsigned threads;
};

std::string CaseName(const testing::TestParamInfo<SchedulerCase>& info) {
  switch (info.param.kind) {
    case SchedulerKind::kSynchronous:
      return "Sync";
    case SchedulerKind::kEventDriven:
      return "Event";
    case SchedulerKind::kParallel:
      return "Parallel" + std::to_string(info.param.threads);
  }
  return "Unknown";
}

EngineConfig ConfigFor(const SchedulerCase& c) {
  EngineConfig config;
  config.scheduler = c.kind;
  config.threads = c.threads;
  return config;
}

/// Forwards one element per cycle; woken only by its input and output FIFOs.
class Forwarder final : public Component {
 public:
  Forwarder(Fifo<int>& in, Fifo<int>& out)
      : Component("forwarder"), in_(&in), out_(&out) {}
  void Step(Cycle now) override {
    if (in_->CanPop(now) && out_->CanPush(now)) out_->Push(in_->Pop(now), now);
  }
  void DeclareWakeFifos(std::vector<const FifoBase*>& out) const override {
    out.push_back(in_);
    out.push_back(out_);
  }
  Cycle NextSelfWake(Cycle /*now*/) const override { return kNeverCycle; }

 private:
  Fifo<int>* in_;
  Fifo<int>* out_;
};

/// Fires once per arming, at its first step at or after the armed cycle. It
/// declares no wake FIFOs and never self-wakes, so the event-driven
/// schedulers step it only when someone calls WakeComponentAt.
class ArmedProbe final : public Component {
 public:
  ArmedProbe() : Component("armed-probe") {}
  void Arm(Cycle target) {
    target_ = target;
    armed_ = true;
  }
  void Step(Cycle now) override {
    if (armed_ && now >= target_) {
      fired_.push_back(now);
      armed_ = false;
    }
  }
  Cycle NextSelfWake(Cycle /*now*/) const override { return kNeverCycle; }
  const std::vector<Cycle>& fired() const { return fired_; }

 private:
  Cycle target_ = 0;
  bool armed_ = false;
  std::vector<Cycle> fired_;
};

Kernel Produce(Fifo<int>& out, int n, Cycle gap) {
  for (int i = 0; i < n; ++i) {
    co_await fifo_push(out, i);
    if (gap > 0) co_await WaitCycles{gap};
  }
}

Kernel Consume(Fifo<int>& in, int n, std::vector<Cycle>& pops,
               const Cycle* now) {
  for (int i = 0; i < n; ++i) {
    const int v = co_await fifo_pop(in);
    if (v != i) throw Error("out-of-order element");
    pops.push_back(*now);
  }
}

class EngineWake : public testing::TestWithParam<SchedulerCase> {};

// A global event wakes a component both for the event's own cycle (while a
// busy stream keeps the next-cycle bucket full) and for a far cycle.
TEST_P(EngineWake, GlobalEventWakesComponentNowAndFar) {
  Engine engine(ConfigFor(GetParam()));
  std::vector<Cycle> pops;
  {
    PartitionTagScope tag(engine, 0);
    Fifo<int>& a = engine.MakeFifo<int>("a", 4);
    Fifo<int>& b = engine.MakeFifo<int>("b", 4);
    engine.MakeComponent<Forwarder>(a, b);
    engine.AddKernel(Produce(a, 900, 0), "producer");
    engine.AddKernel(Consume(b, 900, pops, engine.now_ptr()), "consumer");
  }
  ArmedProbe* probe = nullptr;
  {
    PartitionTagScope tag(engine, 1);
    probe = &engine.MakeComponent<ArmedProbe>();
  }
  engine.ScheduleGlobalEvent(100, 0, [&](Cycle now) {
    probe->Arm(now);
    engine.WakeComponentAt(*probe, now);
  });
  engine.ScheduleGlobalEvent(200, 0, [&](Cycle now) {
    probe->Arm(now + 500);
    engine.WakeComponentAt(*probe, now + 500);
  });
  const RunStats stats = engine.Run();
  EXPECT_EQ(probe->fired(), (std::vector<Cycle>{100, 700}));
  ASSERT_EQ(pops.size(), 900u);
  // One element per cycle once the two-FIFO pipeline is primed.
  EXPECT_EQ(pops.back() - pops.front(), 899u);
  EXPECT_EQ(stats.cycles, pops.back() + 1);
}

// RunFor slices of awkward lengths stop while a sparse producer sleeps on a
// far wake and the forwarder/consumer sit in the next-cycle bucket; a final
// Run (partitioned under kParallel) finishes the job. Every pop lands on the
// same cycle as under the synchronous reference.
TEST_P(EngineWake, RunForSlicesBetweenFarWakeAndBucket) {
  using Pops = std::vector<std::vector<Cycle>>;  // per rank
  const auto run = [](const SchedulerCase& c, Pops& pops) {
    Engine engine(ConfigFor(c));
    pops.assign(2, {});
    for (int rank = 0; rank < 2; ++rank) {
      PartitionTagScope tag(engine, rank);
      Fifo<int>& a = engine.MakeFifo<int>("a" + std::to_string(rank), 2);
      Fifo<int>& b = engine.MakeFifo<int>("b" + std::to_string(rank), 2);
      engine.MakeComponent<Forwarder>(a, b);
      engine.AddKernel(Produce(a, 24, 37 + 4 * static_cast<Cycle>(rank)),
                       "producer");
      engine.AddKernel(Consume(b, 24, pops[static_cast<std::size_t>(rank)],
                               engine.now_ptr()),
                       "consumer");
    }
    const Cycle slices[] = {1, 5, 36, 2, 37, 100, 3};
    std::vector<Cycle> stops;
    for (int round = 0; round < 3; ++round) {
      for (const Cycle slice : slices) {
        EXPECT_FALSE(engine.RunFor(slice));
        stops.push_back(engine.now());
      }
    }
    const RunStats stats = engine.Run();
    stops.push_back(stats.cycles);
    return stops;
  };
  Pops sync_pops;
  const std::vector<Cycle> sync_stops =
      run({SchedulerKind::kSynchronous, 1}, sync_pops);
  Pops pops;
  EXPECT_EQ(run(GetParam(), pops), sync_stops);
  EXPECT_EQ(pops, sync_pops);
  EXPECT_EQ(pops[1].size(), 24u);
}

/// Push awaitable that counts its polls (the await_suspend fast path
/// included). Like the channel awaitables, it asks for a next-cycle re-poll
/// when the FIFO's write port was used this cycle.
struct CountedPush final : detail::AwaitableBase<CountedPush> {
  CountedPush(Fifo<int>& f, int v, int& polls)
      : fifo(&f), value(v), polls(&polls) {}
  bool TryComplete(Cycle now) override {
    ++*polls;
    if (!fifo->CanPush(now)) return false;
    fifo->Push(value, now);
    return true;
  }
  std::string Describe() const override { return "counted push"; }
  void WatchFifos(std::vector<const FifoBase*>& out) const override {
    out.push_back(fifo);
  }
  Cycle NextPollCycle(Cycle now) const override {
    return fifo->push_port_used() ? now + 1 : kNeverCycle;
  }
  void await_resume() const noexcept {}

  Fifo<int>* fifo;
  int value;
  int* polls;
};

Kernel CountedProducer(Fifo<int>& out, int n, int& polls) {
  for (int i = 0; i < n; ++i) co_await CountedPush(out, i, polls);
}

/// Pops bursts of `burst` elements at II=1, resting `rest` cycles between
/// bursts, so the producer alternates unobstructed II=1 pushes with
/// backpressure stalls.
Kernel BurstyConsumer(Fifo<int>& in, int bursts, int burst, Cycle rest,
                      std::vector<Cycle>& pops, const Cycle* now) {
  int expect = 0;
  for (int b = 0; b < bursts; ++b) {
    for (int i = 0; i < burst; ++i) {
      if (co_await fifo_pop(in) != expect++) throw Error("bad element");
      pops.push_back(*now);
    }
    co_await WaitCycles{rest};
  }
}

// The producer is re-polled watch-free after each II=1 push; when such a
// re-poll meets a full FIFO the watch must be registered so the consumer's
// pop commit wakes it — a producer left polling every cycle through the
// 50-cycle rests would show up in its poll count.
TEST_P(EngineWake, BackpressuredIi1KernelIsWokenByCommit) {
  constexpr int kBursts = 10;
  constexpr int kBurst = 4;
  constexpr Cycle kRest = 50;
  using Pops = std::vector<std::vector<Cycle>>;  // per rank
  const auto run = [](const SchedulerCase& c, Pops& pops,
                      std::vector<int>& polls) {
    Engine engine(ConfigFor(c));
    polls.assign(2, 0);
    pops.assign(2, {});
    for (int rank = 0; rank < 2; ++rank) {
      PartitionTagScope tag(engine, rank);
      Fifo<int>& f = engine.MakeFifo<int>("f" + std::to_string(rank), 2);
      engine.AddKernel(CountedProducer(f, kBursts * kBurst,
                                       polls[static_cast<std::size_t>(rank)]),
                       "producer");
      engine.AddKernel(
          BurstyConsumer(f, kBursts, kBurst, kRest + rank,
                         pops[static_cast<std::size_t>(rank)],
                         engine.now_ptr()),
          "consumer");
    }
    return engine.Run().cycles;
  };
  Pops sync_pops;
  std::vector<int> sync_polls;
  const Cycle sync_cycles =
      run({SchedulerKind::kSynchronous, 1}, sync_pops, sync_polls);
  Pops pops;
  std::vector<int> polls;
  EXPECT_EQ(run(GetParam(), pops, polls), sync_cycles);
  EXPECT_EQ(pops, sync_pops);
  if (GetParam().kind == SchedulerKind::kSynchronous) return;
  // Per push: the fast-path attempt that meets the used port and the
  // next-cycle re-poll. Per stall: one failed re-poll and the commit wake.
  const int bound = 2 * kBursts * kBurst + 2 * kBursts + 2;
  for (const int p : polls) {
    EXPECT_LE(p, bound);
    EXPECT_GT(sync_polls[0], p + kBursts * (kRest - 10));
  }
}

/// Fails its first attempt, then succeeds; asks for a next-cycle re-poll and
/// reports `watched` as its wake FIFO.
struct NextCycleWithWatch final : detail::AwaitableBase<NextCycleWithWatch> {
  explicit NextCycleWithWatch(const FifoBase& f) : watched(&f) {}
  bool TryComplete(Cycle /*now*/) override { return attempts++ > 0; }
  std::string Describe() const override { return "next cycle with watch"; }
  void WatchFifos(std::vector<const FifoBase*>& out) const override {
    out.push_back(watched);
  }
  Cycle NextPollCycle(Cycle now) const override { return now + 1; }
  void await_resume() const noexcept {}

  const FifoBase* watched;
  int attempts = 0;
};

Kernel WatchElsewhere(const FifoBase& f) { co_await NextCycleWithWatch(f); }

// A kernel may only watch FIFOs of its own partition. The check must still
// fire at the park even though a next-cycle re-poll registers no watch.
TEST_P(EngineWake, CrossPartitionWatchIsRefusedAtThePark) {
  Engine engine(ConfigFor(GetParam()));
  FifoBase* remote = nullptr;
  {
    PartitionTagScope tag(engine, 1);
    remote = &engine.MakeFifo<int>("remote", 2);
  }
  {
    PartitionTagScope tag(engine, 0);
    engine.AddKernel(WatchElsewhere(*remote), "watcher");
  }
  const SchedulerCase c = GetParam();
  if (c.kind == SchedulerKind::kParallel && c.threads > 1) {
    EXPECT_THROW(engine.Run(), ConfigError);
    EXPECT_EQ(engine.now(), 0u);
  } else {
    EXPECT_EQ(engine.Run().cycles, 2u);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Schedulers, EngineWake,
    testing::Values(SchedulerCase{SchedulerKind::kSynchronous, 1},
                    SchedulerCase{SchedulerKind::kEventDriven, 1},
                    SchedulerCase{SchedulerKind::kParallel, 1},
                    SchedulerCase{SchedulerKind::kParallel, 2},
                    SchedulerCase{SchedulerKind::kParallel, 4},
                    SchedulerCase{SchedulerKind::kParallel, 8}),
    CaseName);

}  // namespace
}  // namespace smi::sim
