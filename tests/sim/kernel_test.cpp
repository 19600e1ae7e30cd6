#include "sim/kernel.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/error.h"
#include "sim/engine.h"

namespace smi::sim {
namespace {

Kernel Producer(Fifo<int>& out, int n) {
  for (int i = 0; i < n; ++i) {
    co_await fifo_push(out, i);
  }
}

Kernel Consumer(Fifo<int>& in, int n, std::vector<int>& sink) {
  for (int i = 0; i < n; ++i) {
    sink.push_back(co_await fifo_pop(in));
  }
}

TEST(Kernel, ProducerConsumerDeliversInOrder) {
  Engine engine;
  Fifo<int>& f = engine.MakeFifo<int>("pc", 4);
  std::vector<int> sink;
  engine.AddKernel(Producer(f, 100), "producer");
  engine.AddKernel(Consumer(f, 100, sink), "consumer");
  engine.Run();
  ASSERT_EQ(sink.size(), 100u);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(sink[i], i);
}

TEST(Kernel, ThroughputIsOneElementPerCycle) {
  // With a deep-enough FIFO the steady state is II=1: N elements need about
  // N cycles, not 2N.
  Engine engine;
  Fifo<int>& f = engine.MakeFifo<int>("pc", 16);
  std::vector<int> sink;
  engine.AddKernel(Producer(f, 1000), "producer");
  engine.AddKernel(Consumer(f, 1000, sink), "consumer");
  const RunStats stats = engine.Run();
  EXPECT_GE(stats.cycles, 1000u);
  EXPECT_LE(stats.cycles, 1010u);  // small pipeline fill/drain slack
}

TEST(Kernel, BackpressureWithCapacityOneStillCompletes) {
  Engine engine;
  Fifo<int>& f = engine.MakeFifo<int>("tight", 1);
  std::vector<int> sink;
  engine.AddKernel(Producer(f, 50), "producer");
  engine.AddKernel(Consumer(f, 50, sink), "consumer");
  engine.Run();
  ASSERT_EQ(sink.size(), 50u);
  for (int i = 0; i < 50; ++i) EXPECT_EQ(sink[i], i);
}

Kernel Relay(Fifo<int>& in, Fifo<int>& out, int n) {
  for (int i = 0; i < n; ++i) {
    const int v = co_await fifo_pop(in);
    co_await fifo_push(out, v + 1000);
  }
}

TEST(Kernel, PopThenPushInOneIterationRunsAtIiOne) {
  // A relay kernel popping and pushing in the same loop body must sustain
  // one element per cycle: the two operations touch different FIFOs.
  Engine engine;
  Fifo<int>& a = engine.MakeFifo<int>("a", 8);
  Fifo<int>& b = engine.MakeFifo<int>("b", 8);
  std::vector<int> sink;
  engine.AddKernel(Producer(a, 500), "producer");
  engine.AddKernel(Relay(a, b, 500), "relay");
  engine.AddKernel(Consumer(b, 500, sink), "consumer");
  const RunStats stats = engine.Run();
  ASSERT_EQ(sink.size(), 500u);
  EXPECT_EQ(sink[499], 499 + 1000);
  EXPECT_LE(stats.cycles, 520u);  // ~500 + pipeline depth
}

Kernel TwoPushesSameFifo(Fifo<int>& out, int iters) {
  for (int i = 0; i < iters; ++i) {
    co_await fifo_push(out, 2 * i);
    co_await fifo_push(out, 2 * i + 1);
  }
}

TEST(Kernel, TwoPushesToSameFifoTakeTwoCycles) {
  // One write port: two pushes to the same FIFO cannot share a cycle.
  Engine engine;
  Fifo<int>& f = engine.MakeFifo<int>("one-port", 64);
  std::vector<int> sink;
  engine.AddKernel(TwoPushesSameFifo(f, 20), "double-push");
  engine.AddKernel(Consumer(f, 40, sink), "consumer");
  const RunStats stats = engine.Run();
  ASSERT_EQ(sink.size(), 40u);
  EXPECT_GE(stats.cycles, 40u);
}

Kernel YieldingProducer(Fifo<int>& out, int n) {
  for (int i = 0; i < n; ++i) {
    co_await NextCycle{};
    co_await fifo_push(out, i);
  }
}

TEST(Kernel, NextCycleYieldsWithoutCostingThroughput) {
  // NextCycle re-polls at the following cycle; an op completing in the
  // resume cycle still gives II=1 — it is a yield point, not a stall.
  Engine engine;
  Fifo<int>& f = engine.MakeFifo<int>("yld", 64);
  std::vector<int> sink;
  engine.AddKernel(YieldingProducer(f, 50), "yielder");
  engine.AddKernel(Consumer(f, 50, sink), "consumer");
  const RunStats stats = engine.Run();
  EXPECT_LE(stats.cycles, 60u);
  EXPECT_EQ(sink.size(), 50u);
}

Kernel IiTwoProducer(Fifo<int>& out, int n) {
  for (int i = 0; i < n; ++i) {
    co_await fifo_push(out, i);
    co_await WaitCycles{2};  // iteration takes 2 cycles: II=2
  }
}

TEST(Kernel, WaitCyclesModelsInitiationIntervalTwo) {
  Engine engine;
  Fifo<int>& f = engine.MakeFifo<int>("ii2", 64);
  std::vector<int> sink;
  engine.AddKernel(IiTwoProducer(f, 50), "ii2-producer");
  engine.AddKernel(Consumer(f, 50, sink), "consumer");
  const RunStats stats = engine.Run();
  EXPECT_GE(stats.cycles, 100u);
  EXPECT_EQ(sink.size(), 50u);
}

Kernel Waits(Fifo<int>& out, Cycle delay) {
  co_await WaitCycles{delay};
  co_await fifo_push(out, 1);
}

TEST(Kernel, WaitCyclesDelaysByRequestedAmount) {
  Engine engine;
  Fifo<int>& f = engine.MakeFifo<int>("w", 2);
  std::vector<int> sink;
  engine.AddKernel(Waits(f, 200), "waiter");
  engine.AddKernel(Consumer(f, 1, sink), "consumer");
  const RunStats stats = engine.Run();
  EXPECT_GE(stats.cycles, 200u);
  EXPECT_LE(stats.cycles, 210u);
}

Kernel Thrower() {
  co_await NextCycle{};
  throw ConfigError("kernel failure");
}

TEST(Kernel, ExceptionsPropagateToRun) {
  Engine engine;
  engine.AddKernel(Thrower(), "thrower");
  EXPECT_THROW(engine.Run(), ConfigError);
}

TEST(Kernel, DeadlockIsDetected) {
  EngineConfig config;
  config.watchdog_cycles = 500;
  Engine engine(config);
  Fifo<int>& f = engine.MakeFifo<int>("never", 1);
  std::vector<int> sink;
  // A consumer with no producer can never complete.
  engine.AddKernel(Consumer(f, 1, sink), "orphan-consumer");
  try {
    engine.Run();
    FAIL() << "expected DeadlockError";
  } catch (const DeadlockError& e) {
    EXPECT_NE(std::string(e.what()).find("orphan-consumer"),
              std::string::npos);
    EXPECT_NE(std::string(e.what()).find("never"), std::string::npos);
  }
}

TEST(Kernel, DaemonKernelsDoNotKeepRunAlive) {
  Engine engine;
  Fifo<int>& f = engine.MakeFifo<int>("daemon-food", 4);
  std::vector<int> sink;
  // Daemon consumer waits forever after the producer is done; the run must
  // still terminate once the (non-daemon) producer finishes.
  engine.AddKernel(Consumer(f, 1000000, sink), "daemon", /*daemon=*/true);
  engine.AddKernel(Producer(f, 10), "producer");
  engine.Run();
  // The run stops as soon as the producer retires; the daemon may be one
  // commit behind the final push.
  EXPECT_GE(sink.size(), 9u);
  EXPECT_LE(sink.size(), 10u);
}

TEST(Kernel, DeterministicAcrossRuns) {
  auto run_once = [] {
    Engine engine;
    Fifo<int>& a = engine.MakeFifo<int>("a", 3);
    Fifo<int>& b = engine.MakeFifo<int>("b", 5);
    std::vector<int> sink;
    engine.AddKernel(Producer(a, 300), "p");
    engine.AddKernel(Relay(a, b, 300), "r");
    engine.AddKernel(Consumer(b, 300, sink), "c");
    return engine.Run().cycles;
  };
  const Cycle first = run_once();
  for (int i = 0; i < 3; ++i) EXPECT_EQ(run_once(), first);
}

// ---------------------------------------------------------------------------
// Task: shared sub-coroutines awaited by a kernel. Every case runs under the
// synchronous, event-driven and parallel {1,2,4}-thread schedulers.
// ---------------------------------------------------------------------------

struct SchedulerCase {
  SchedulerKind kind;
  unsigned threads;
};

constexpr SchedulerCase kSchedulers[] = {
    {SchedulerKind::kSynchronous, 1}, {SchedulerKind::kEventDriven, 1},
    {SchedulerKind::kParallel, 1},    {SchedulerKind::kParallel, 2},
    {SchedulerKind::kParallel, 4}};

EngineConfig ConfigFor(const SchedulerCase& c) {
  EngineConfig config;
  config.scheduler = c.kind;
  config.threads = c.threads;
  return config;
}

std::string Label(const SchedulerCase& c) {
  return "scheduler " + std::to_string(static_cast<int>(c.kind)) +
         " threads " + std::to_string(c.threads);
}

/// Adds pairs from `a` and `b` into `out`, `n` times.
Task AddPairs(Fifo<int>& a, Fifo<int>& b, Fifo<int>& out, int n) {
  for (int i = 0; i < n; ++i) {
    const int x = co_await fifo_pop(a);
    const int y = co_await fifo_pop(b);
    co_await fifo_push(out, x + y);
  }
}

/// Depth 2: a Task awaiting AddPairs once per segment.
Task AddSegments(Fifo<int>& a, Fifo<int>& b, Fifo<int>& out, int segments,
                 int len) {
  for (int s = 0; s < segments; ++s) co_await AddPairs(a, b, out, len);
}

Kernel AddNested(Fifo<int>& a, Fifo<int>& b, Fifo<int>& out, int segments,
                 int len) {
  co_await AddSegments(a, b, out, segments, len);
  co_await NextCycle{};
  co_await AddSegments(a, b, out, segments, len);
}

Kernel AddInlined(Fifo<int>& a, Fifo<int>& b, Fifo<int>& out, int segments,
                  int len) {
  for (int round = 0; round < 2; ++round) {
    if (round == 1) co_await NextCycle{};
    for (int i = 0; i < segments * len; ++i) {
      const int x = co_await fifo_pop(a);
      const int y = co_await fifo_pop(b);
      co_await fifo_push(out, x + y);
    }
  }
}

struct AddRun {
  RunStats stats;
  std::vector<int> sink;
};

AddRun RunAdd(const SchedulerCase& c, bool nested) {
  constexpr int kSegments = 5;
  constexpr int kLen = 7;
  constexpr int kTotal = 2 * kSegments * kLen;
  Engine engine(ConfigFor(c));
  Fifo<int>& a = engine.MakeFifo<int>("a", 2);
  Fifo<int>& b = engine.MakeFifo<int>("b", 3);
  Fifo<int>& out = engine.MakeFifo<int>("out", 2);
  AddRun run;
  engine.AddKernel(Producer(a, kTotal), "pa");
  engine.AddKernel(Producer(b, kTotal), "pb");
  engine.AddKernel(nested ? AddNested(a, b, out, kSegments, kLen)
                          : AddInlined(a, b, out, kSegments, kLen),
                   "add");
  engine.AddKernel(Consumer(out, kTotal, run.sink), "c");
  run.stats = engine.Run();
  return run;
}

TEST(Task, NestedTasksMatchInlinedCyclesAndResumes) {
  const AddRun reference =
      RunAdd({SchedulerKind::kSynchronous, 1}, /*nested=*/false);
  ASSERT_EQ(reference.sink.size(), 70u);
  EXPECT_EQ(reference.sink[69], 2 * 69);
  for (const SchedulerCase& c : kSchedulers) {
    for (const bool nested : {false, true}) {
      const AddRun run = RunAdd(c, nested);
      EXPECT_EQ(run.stats.cycles, reference.stats.cycles) << Label(c);
      EXPECT_EQ(run.stats.kernel_resumes, reference.stats.kernel_resumes)
          << Label(c) << (nested ? " nested" : " inlined");
      EXPECT_EQ(run.sink, reference.sink) << Label(c);
    }
  }
}

Task PushOnce(Fifo<int>& out, int v) { co_await fifo_push(out, v); }
Task Nothing() { co_return; }

Kernel ZeroCostEntry(Fifo<int>& out, const Cycle* now,
                     std::vector<Cycle>& at) {
  at.push_back(*now);
  co_await Nothing();
  co_await PushOnce(out, 1);  // the write port is free: completes at once
  at.push_back(*now);
  co_await PushOnce(out, 2);  // the port is used this cycle: parks
  at.push_back(*now);
}

TEST(Task, ImmediateFirstOperationCostsNoCycle) {
  for (const SchedulerCase& c : kSchedulers) {
    Engine engine(ConfigFor(c));
    Fifo<int>& f = engine.MakeFifo<int>("f", 4);
    std::vector<Cycle> at;
    engine.AddKernel(ZeroCostEntry(f, engine.now_ptr(), at), "k");
    const RunStats stats = engine.Run();
    ASSERT_EQ(at.size(), 3u) << Label(c);
    EXPECT_EQ(at[1], at[0]) << Label(c);
    EXPECT_EQ(at[2], at[0] + 1) << Label(c);
    // The start and the one parked push; Task entry and exit add none.
    EXPECT_EQ(stats.kernel_resumes, 2u) << Label(c);
  }
}

Task ThrowAfterACycle() {
  co_await NextCycle{};
  throw ConfigError("failure two levels down");
}
Task CallThrower() { co_await ThrowAfterACycle(); }
Kernel AwaitThrower() { co_await CallThrower(); }

TEST(Task, ExceptionTwoLevelsDownSurfacesFromRun) {
  for (const SchedulerCase& c : kSchedulers) {
    Engine engine(ConfigFor(c));
    engine.AddKernel(AwaitThrower(), "thrower");
    try {
      engine.Run();
      ADD_FAILURE() << "expected ConfigError, " << Label(c);
    } catch (const ConfigError& e) {
      EXPECT_NE(std::string(e.what()).find("two levels down"),
                std::string::npos)
          << Label(c);
    }
  }
}

Task PopOne(Fifo<int>& in) { co_await fifo_pop(in); }
Task PopViaTask(Fifo<int>& in) { co_await PopOne(in); }
Kernel StarvedInTask(Fifo<int>& in) { co_await PopViaTask(in); }

TEST(Task, DeadlockNamesTheInnermostBlocker) {
  for (const SchedulerCase& c : kSchedulers) {
    EngineConfig config = ConfigFor(c);
    config.watchdog_cycles = 500;
    Engine engine(config);
    Fifo<int>& f = engine.MakeFifo<int>("starved", 1);
    engine.AddKernel(StarvedInTask(f), "task-kernel");
    try {
      engine.Run();
      ADD_FAILURE() << "expected DeadlockError, " << Label(c);
    } catch (const DeadlockError& e) {
      EXPECT_NE(std::string(e.what()).find(
                    "task-kernel waiting on pop on FIFO 'starved'"),
                std::string::npos)
          << e.what();
    }
  }
}

}  // namespace
}  // namespace smi::sim
