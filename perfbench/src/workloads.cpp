#include "workloads.h"

#include <algorithm>
#include <array>
#include <chrono>
#include <cstring>
#include <exception>
#include <utility>

#include "apps/reference.h"
#include "apps/stencil.h"
#include "common/error.h"
#include "core/smi.h"
#include "net/routing.h"
#include "net/topology.h"

namespace perfbench {
namespace {

using smi::core::Cluster;
using smi::core::ClusterConfig;
using smi::core::CollAlgo;
using smi::core::Context;
using smi::core::DataType;
using smi::core::OpSpec;
using smi::core::ProgramSpec;
using smi::core::ReduceOp;
using smi::net::Topology;
using smi::sim::Kernel;
using Clock = std::chrono::steady_clock;

double Since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// SplitMix64 finaliser: every derived seed and payload value comes from it.
std::uint64_t Mix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

std::uint64_t Derive(std::uint64_t seed, std::uint64_t salt) {
  return Mix(seed ^ Mix(salt));
}

/// Payload element `i` of stream `stream`. Kept below 2^20 so that sums over
/// a few dozen ranks cannot overflow an int.
std::int32_t Payload(std::uint64_t seed, std::uint64_t stream, std::uint64_t i) {
  return static_cast<std::int32_t>(
      Mix(Derive(seed, stream) + i) & 0xfffffULL);
}

std::vector<std::int32_t> Payloads(std::uint64_t seed, std::uint64_t stream,
                                   std::size_t n) {
  std::vector<std::int32_t> v(n);
  for (std::size_t i = 0; i < n; ++i) v[i] = Payload(seed, stream, i);
  return v;
}

std::uint64_t Cap(const WorkloadOptions& o, std::uint64_t cap) {
  return o.cap_cycles != 0 ? o.cap_cycles : cap;
}

void Fail(JobResult& jr, std::string message, bool wrong) {
  ++jr.failed;
  if (wrong) ++jr.wrong;
  constexpr std::size_t kMaxErrors = 8;
  if (jr.errors.size() < kMaxErrors) jr.errors.push_back(std::move(message));
}

/// Build the cluster, timing the constructor as the job's set-up. A traced
/// job first times standalone calls of the route computation and the CDG
/// check the constructor performs, so that their share can be attributed.
std::unique_ptr<Cluster> Build(const Topology& topo, const ProgramSpec& spec,
                               const ClusterConfig& config, bool traced,
                               Spans& spans, JobResult& jr) {
  if (traced) {
    smi::net::RoutingTable routes(1);
    {
      const Spans::Scope s = spans.Open("net.routes");
      routes = smi::net::ComputeRoutes(topo, config.routing,
                                       config.routing_seed);
    }
    const Spans::Scope s = spans.Open("net.cdg");
    if (!smi::net::IsDeadlockFree(topo, routes)) {
      throw smi::RoutingError("benchmark routes are not deadlock-free");
    }
  }
  const Spans::Scope s = spans.Open("core.build");
  const Clock::time_point t0 = Clock::now();
  auto cluster = std::make_unique<Cluster>(topo, spec, config);
  jr.setup_s = Since(t0);
  return cluster;
}

/// Run the cluster started at `t0` (kernels already added). Returns the
/// error message of a run that threw (cycle cap, deadlock, ...), else "".
std::string Run(Cluster& cluster, Clock::time_point t0, JobResult& jr) {
  std::string error;
  try {
    jr.cycles = cluster.Run().cycles;
  } catch (const std::exception& e) {
    error = e.what();
    jr.cycles = cluster.engine().now();
  }
  jr.run_s = Since(t0);
  jr.link_packets = cluster.fabric().TotalLinkPackets();
  return error;
}

void Capture(Cluster& cluster, const Topology& topo, bool traced, Spans& spans,
             JobResult& jr) {
  if (!traced) return;
  const Spans::Scope s = spans.Open("obs.capture");
  const smi::core::RunTelemetry t = cluster.CaptureTelemetry();
  jr.counters = t.summary;
  jr.faults = t.faults;
  jr.num_links = 2 * static_cast<int>(topo.Connections().size());
}

/// One operation per stream: stream `i` must deliver `want` exactly.
void CheckStream(JobResult& jr, std::size_t i,
                 const std::vector<std::int32_t>& want,
                 const std::vector<std::int32_t>& got,
                 const std::string& error) {
  ++jr.attempted;
  if (got.size() != want.size()) {
    Fail(jr, "stream " + std::to_string(i) + ": " +
                 std::to_string(got.size()) + "/" +
                 std::to_string(want.size()) + " elements arrived" +
                 (error.empty() ? "" : " (" + error + ")"),
         false);
  } else if (got != want) {
    Fail(jr, "stream " + std::to_string(i) + ": wrong payload", true);
  }
}

ClusterConfig BaseConfig(bool traced, std::uint64_t cap) {
  ClusterConfig config;
  config.engine.collect_counters = traced;
  config.engine.max_cycles = cap;
  return config;
}

// ---------------------------------------------------------------------------
// ring-p2p: element-wise streams to the right torus neighbour.
// ---------------------------------------------------------------------------

Kernel ElementSender(Context& ctx, int dst, const std::vector<std::int32_t>& data) {
  smi::core::SendChannel ch = ctx.OpenSendChannel(
      static_cast<int>(data.size()), DataType::kInt, dst, 0, ctx.world());
  for (const std::int32_t v : data) co_await ch.Push(v);
}

Kernel ElementReceiver(Context& ctx, int src, int count,
                       std::vector<std::int32_t>& out) {
  smi::core::RecvChannel ch =
      ctx.OpenRecvChannel(count, DataType::kInt, src, 0, ctx.world());
  for (int i = 0; i < count; ++i) {
    out.push_back(co_await ch.Pop<std::int32_t>());
  }
}

ProgramSpec P2pSpec() {
  ProgramSpec spec;
  spec.Add(OpSpec::Send(0, DataType::kInt));
  spec.Add(OpSpec::Recv(0, DataType::kInt));
  return spec;
}

class RingP2p final : public Workload {
 public:
  explicit RingP2p(const WorkloadOptions& o)
      : rows_(o.size == Size::kFull ? 4 : 2),
        cols_(o.size == Size::kFull ? 8 : 4),
        count_(o.size == Size::kFull ? 16384 : 512),
        // A healthy job takes 16.5k cycles (642 tiny).
        cap_(Cap(o, o.size == Size::kFull ? 50000 : 20000)) {
    for (int r = 0; r < rows_ * cols_; ++r) {
      inputs_.push_back(Payloads(o.seed, static_cast<std::uint64_t>(r),
                                 static_cast<std::size_t>(count_)));
    }
  }
  const char* name() const override { return "ring-p2p"; }

  JobResult RunJob(bool traced, Spans& spans) override {
    const Spans::Scope job = spans.Open("job");
    JobResult jr;
    const int n = rows_ * cols_;
    const Topology topo = Topology::Torus2D(rows_, cols_);
    std::vector<std::vector<std::int32_t>> got(static_cast<std::size_t>(n));
    for (auto& g : got) g.reserve(static_cast<std::size_t>(count_));
    auto cluster = Build(topo, P2pSpec(), BaseConfig(traced, cap_), traced,
                         spans, jr);
    std::string error;
    {
      const Spans::Scope s = spans.Open("sim.run");
      const Clock::time_point t0 = Clock::now();
      for (int r = 0; r < n; ++r) {
        const int right = Right(r);
        cluster->AddKernel(r,
                           ElementSender(cluster->context(r), right,
                                         inputs_[static_cast<std::size_t>(r)]),
                           "send");
        cluster->AddKernel(right,
                           ElementReceiver(cluster->context(right), r, count_,
                                           got[static_cast<std::size_t>(right)]),
                           "recv");
      }
      error = Run(*cluster, t0, jr);
    }
    Capture(*cluster, topo, traced, spans, jr);
    const Spans::Scope s = spans.Open("check");
    for (int r = 0; r < n; ++r) {
      CheckStream(jr, static_cast<std::size_t>(r),
                  inputs_[static_cast<std::size_t>(r)],
                  got[static_cast<std::size_t>(Right(r))], error);
    }
    return jr;
  }

 private:
  int Right(int r) const {
    return (r / cols_) * cols_ + (r % cols_ + 1) % cols_;
  }
  int rows_, cols_, count_;
  std::uint64_t cap_;
  std::vector<std::vector<std::int32_t>> inputs_;
};

// ---------------------------------------------------------------------------
// fattree-bisect: 7-int packet streams across the fat-tree bisection.
// ---------------------------------------------------------------------------

constexpr int kPacketInts = 7;

Kernel PacketSender(Context& ctx, int dst,
                    const std::vector<std::int32_t>& data) {
  smi::core::SendChannel ch = ctx.OpenSendChannel(
      static_cast<int>(data.size()), DataType::kInt, dst, 0, ctx.world());
  for (std::size_t i = 0; i < data.size(); i += kPacketInts) {
    co_await ch.PushPacket<std::int32_t>(&data[i], kPacketInts);
  }
}

void Append(std::vector<std::int32_t>& out,
            std::pair<const std::int32_t*, int> packet) {
  out.insert(out.end(), packet.first, packet.first + packet.second);
}

Kernel PacketReceiver(Context& ctx, int src, int count,
                      std::vector<std::int32_t>& out) {
  smi::core::RecvChannel ch =
      ctx.OpenRecvChannel(count, DataType::kInt, src, 0, ctx.world());
  for (int i = 0; i < count; i += kPacketInts) {
    // The popped values live in the awaitable; copy them in this statement.
    Append(out, co_await ch.PopPacket<std::int32_t>());
  }
}

class FatTreeBisect final : public Workload {
 public:
  explicit FatTreeBisect(const WorkloadOptions& o)
      : topo_(o.size == Size::kFull ? Topology::FatTree(8, 64, 8)
                                    : Topology::FatTree(8, 4, 4)),
        // A healthy job takes ~2.8k cycles (1.7k tiny).
        config_(BaseConfig(false, Cap(o, 10000))) {
    config_.routing = smi::net::RoutingScheme::kMinimalAdaptive;
    config_.routing_seed = Derive(o.seed, 0x7007);
    compute_ = topo_.ComputeRankIds();
    const std::size_t pairs = compute_.size() / 2;
    // 256 packets of 7 ints = 7168 bytes per stream.
    for (std::size_t i = 0; i < pairs; ++i) {
      inputs_.push_back(Payloads(o.seed, i, 256 * kPacketInts));
    }
  }
  const char* name() const override { return "fattree-bisect"; }

  JobResult RunJob(bool traced, Spans& spans) override {
    const Spans::Scope job = spans.Open("job");
    JobResult jr;
    const std::size_t pairs = inputs_.size();
    std::vector<std::vector<std::int32_t>> got(pairs);
    for (auto& g : got) g.reserve(inputs_[0].size());
    ClusterConfig config = config_;
    config.engine.collect_counters = traced;
    auto cluster = Build(topo_, P2pSpec(), config, traced, spans, jr);
    std::string error;
    {
      const Spans::Scope s = spans.Open("sim.run");
      const Clock::time_point t0 = Clock::now();
      for (std::size_t i = 0; i < pairs; ++i) {
        const int src = compute_[i];
        const int dst = compute_[i + pairs];
        cluster->AddKernel(src,
                           PacketSender(cluster->context(src), dst, inputs_[i]),
                           "bisect-send");
        cluster->AddKernel(
            dst,
            PacketReceiver(cluster->context(dst), src,
                           static_cast<int>(inputs_[i].size()), got[i]),
            "bisect-recv");
      }
      error = Run(*cluster, t0, jr);
    }
    Capture(*cluster, topo_, traced, spans, jr);
    const Spans::Scope s = spans.Open("check");
    for (std::size_t i = 0; i < pairs; ++i) {
      CheckStream(jr, i, inputs_[i], got[i], error);
    }
    return jr;
  }

 private:
  Topology topo_;
  ClusterConfig config_;
  std::vector<int> compute_;
  std::vector<std::vector<std::int32_t>> inputs_;
};

// ---------------------------------------------------------------------------
// coll-mix: six collectives back to back on one fabric.
// ---------------------------------------------------------------------------

/// Step order of the coll-mix kernel; a step's index is also its collective
/// port. The in-network Reduce comes last so the steps before it are
/// measured while it fails (NOTES.md: today its livelock also starves the
/// Gather still in flight).
enum CollStep {
  kBcast,
  kReduceTree,
  kAllreduce,
  kScatter,
  kGather,
  kReduceInnet,
  kNumSteps
};
const char* const kStepNames[kNumSteps] = {
    "bcast", "reduce_tree", "allreduce", "scatter", "gather", "reduce_innet"};

constexpr int kCollRoot = 0;

/// Host-side inputs, outputs and step boundaries of one coll-mix job.
struct CollMixState {
  int count = 0;            ///< elements per rank of every step but one
  int allreduce_count = 0;  ///< Allreduce moves one element per packet
  const std::vector<std::vector<std::int32_t>>* in = nullptr;  // [rank]
  const std::vector<std::int32_t>* scatter_in = nullptr;       // root
  std::vector<std::vector<std::int32_t>> out[kNumSteps];       // [step][rank]
  std::vector<std::array<std::uint64_t, kNumSteps>> end_cycle;
  std::vector<std::array<Clock::time_point, kNumSteps>> end_time;
  std::vector<int> steps_done;
};

Kernel CollMixKernel(Context& ctx, CollMixState& st) {
  const int r = ctx.rank();
  const std::size_t ri = static_cast<std::size_t>(r);
  const int count = st.count;
  const int n = ctx.world_size();
  const bool root = r == kCollRoot;
  const std::vector<std::int32_t>& mine = (*st.in)[ri];
  const auto done = [&](int step) {
    st.end_cycle[ri][static_cast<std::size_t>(step)] = *ctx.now_ptr();
    st.end_time[ri][static_cast<std::size_t>(step)] = Clock::now();
    st.steps_done[ri] = step + 1;
  };
  const auto out = [&](int step) -> std::vector<std::int32_t>& {
    return st.out[step][ri];
  };

  {
    smi::core::BcastChannel ch = ctx.OpenBcastChannel(
        count, DataType::kInt, kBcast, kCollRoot, ctx.world());
    for (int i = 0; i < count; ++i) {
      std::int32_t v = root ? mine[static_cast<std::size_t>(i)] : 0;
      co_await ch.Bcast(v);
      out(kBcast).push_back(v);
    }
    done(kBcast);
  }
  {
    smi::core::ReduceChannel ch =
        ctx.OpenReduceChannel(count, DataType::kInt, ReduceOp::kAdd,
                              kReduceTree, kCollRoot, ctx.world());
    for (int i = 0; i < count; ++i) {
      std::int32_t v = 0;
      co_await ch.Reduce(mine[static_cast<std::size_t>(i)], v);
      if (root) out(kReduceTree).push_back(v);
    }
    done(kReduceTree);
  }
  {
    smi::core::AllreduceChannel ch = ctx.OpenAllreduceChannel(
        st.allreduce_count, DataType::kInt, ReduceOp::kAdd, kAllreduce,
        ctx.world());
    for (int i = 0; i < st.allreduce_count; ++i) {
      std::int32_t v = 0;
      co_await ch.Allreduce(mine[static_cast<std::size_t>(i)], v);
      out(kAllreduce).push_back(v);
    }
    done(kAllreduce);
  }
  {
    smi::core::ScatterChannel ch = ctx.OpenScatterChannel(
        count, DataType::kInt, kScatter, kCollRoot, ctx.world());
    const int calls = root ? count * n : count;
    for (int i = 0; i < calls; ++i) {
      std::int32_t v = 0;
      const std::int32_t* snd =
          root ? &(*st.scatter_in)[static_cast<std::size_t>(i)] : nullptr;
      if (co_await ch.Scatter<std::int32_t>(snd, v)) {
        out(kScatter).push_back(v);
      }
    }
    done(kScatter);
  }
  {
    smi::core::GatherChannel ch = ctx.OpenGatherChannel(
        count, DataType::kInt, kGather, kCollRoot, ctx.world());
    if (root) {
      // The root's own segment is consumed during its window, one element
      // per call; outside the window the value is ignored.
      int own = 0;
      for (int i = 0; i < count * n; ++i) {
        const std::int32_t snd =
            mine[static_cast<std::size_t>(own < count ? own : 0)];
        std::int32_t v = 0;
        co_await ch.Gather<std::int32_t>(snd, &v);
        if (i / count == kCollRoot && own < count) ++own;
        out(kGather).push_back(v);
      }
    } else {
      for (int i = 0; i < count; ++i) {
        co_await ch.Gather<std::int32_t>(mine[static_cast<std::size_t>(i)],
                                         nullptr);
      }
    }
    done(kGather);
  }
  {
    smi::core::ReduceChannel ch =
        ctx.OpenReduceChannel(count, DataType::kInt, ReduceOp::kAdd,
                              kReduceInnet, kCollRoot, ctx.world());
    for (int i = 0; i < count; ++i) {
      std::int32_t v = 0;
      co_await ch.Reduce(mine[static_cast<std::size_t>(i)], v);
      if (root) out(kReduceInnet).push_back(v);
    }
    done(kReduceInnet);
  }
}

class CollMix final : public Workload {
 public:
  explicit CollMix(const WorkloadOptions& o)
      : rows_(o.size == Size::kFull ? 4 : 2),
        cols_(o.size == Size::kFull ? 4 : 2),
        count_(o.size == Size::kFull ? 1024 : 32),
        // A healthy job takes ~422k cycles (17.6k tiny).
        cap_(Cap(o, o.size == Size::kFull ? 600000 : 100000)) {
    const int n = rows_ * cols_;
    for (int r = 0; r < n; ++r) {
      in_.push_back(Payloads(o.seed, 0x100 + static_cast<std::uint64_t>(r),
                             static_cast<std::size_t>(count_)));
    }
    scatter_in_ = Payloads(o.seed, 0x200, static_cast<std::size_t>(count_ * n));
    // Host references.
    const std::size_t c = static_cast<std::size_t>(count_);
    sum_.assign(c, 0);
    for (const auto& v : in_) {
      for (std::size_t i = 0; i < c; ++i) sum_[i] += v[i];
    }
    for (const auto& v : in_) gather_.insert(gather_.end(), v.begin(), v.end());
  }
  const char* name() const override { return "coll-mix"; }

  JobResult RunJob(bool traced, Spans& spans) override {
    const Spans::Scope job = spans.Open("job");
    JobResult jr;
    const int n = rows_ * cols_;
    const std::size_t nn = static_cast<std::size_t>(n);
    const Topology topo = Topology::Torus2D(rows_, cols_);
    ProgramSpec spec;
    spec.Add(OpSpec::Bcast(kBcast, DataType::kInt, CollAlgo::kTree));
    spec.Add(OpSpec::Reduce(kReduceTree, DataType::kInt, CollAlgo::kTree));
    spec.Add(OpSpec::Allreduce(kAllreduce, DataType::kInt, CollAlgo::kTree));
    spec.Add(OpSpec::Scatter(kScatter, DataType::kInt));
    spec.Add(OpSpec::Gather(kGather, DataType::kInt));
    spec.Add(OpSpec::Reduce(kReduceInnet, DataType::kInt, CollAlgo::kInnet,
                            ReduceOp::kAdd));

    CollMixState st;
    st.count = count_;
    st.allreduce_count = count_ / 4;
    st.in = &in_;
    st.scatter_in = &scatter_in_;
    for (auto& o : st.out) o.resize(nn);
    st.end_cycle.resize(nn);
    st.end_time.resize(nn);
    st.steps_done.assign(nn, 0);

    auto cluster =
        Build(topo, spec, BaseConfig(traced, cap_), traced, spans, jr);
    std::string error;
    Clock::time_point t0;
    {
      const Spans::Scope s = spans.Open("sim.run");
      t0 = Clock::now();
      for (int r = 0; r < n; ++r) {
        cluster->AddKernel(r, CollMixKernel(cluster->context(r), st),
                           "coll-mix");
      }
      error = Run(*cluster, t0, jr);
    }
    Capture(*cluster, topo, traced, spans, jr);
    const Spans::Scope s = spans.Open("check");

    // Step boundaries: the cycle and host time at which the last rank left
    // each step; a step some rank did not finish ends where the run stopped.
    const Clock::time_point t_end = t0 + std::chrono::duration_cast<
        Clock::duration>(std::chrono::duration<double>(jr.run_s));
    std::uint64_t prev_cycle = 0;
    Clock::time_point prev_time = t0;
    for (int k = 0; k < kNumSteps; ++k) {
      const std::size_t ki = static_cast<std::size_t>(k);
      bool all = true;
      std::uint64_t end_cycle = 0;
      Clock::time_point end_time = t0;
      for (std::size_t r = 0; r < nn; ++r) {
        if (st.steps_done[r] <= k) {
          all = false;
          continue;
        }
        end_cycle = std::max(end_cycle, st.end_cycle[r][ki]);
        end_time = std::max(end_time, st.end_time[r][ki]);
      }
      if (!all) {
        end_cycle = jr.cycles;
        end_time = t_end;
      }
      jr.steps.push_back(StepTime{
          kStepNames[k], end_cycle - std::min(prev_cycle, end_cycle),
          std::chrono::duration<double>(end_time - prev_time).count()});
      prev_cycle = std::max(prev_cycle, end_cycle);
      prev_time = std::max(prev_time, end_time);

      ++jr.attempted;
      const std::string what = std::string("step ") + kStepNames[k];
      if (!all) {
        Fail(jr, what + ": not completed by every rank" +
                     (error.empty() ? "" : " (" + error + ")"),
             false);
        continue;
      }
      if (!StepCorrect(k, st)) Fail(jr, what + ": wrong payload", true);
    }
    return jr;
  }

 private:
  bool StepCorrect(int k, const CollMixState& st) const {
    const auto& out = st.out[k];
    const std::size_t root = static_cast<std::size_t>(kCollRoot);
    const std::size_t c = static_cast<std::size_t>(count_);
    switch (k) {
      case kBcast:
        for (const auto& o : out) {
          if (o != in_[root]) return false;
        }
        return true;
      case kAllreduce:
        for (const auto& o : out) {
          if (!std::equal(o.begin(), o.end(), sum_.begin(),
                          sum_.begin() + static_cast<std::ptrdiff_t>(c / 4))) {
            return false;
          }
        }
        return true;
      case kReduceTree:
      case kReduceInnet:
        return out[root] == sum_;
      case kScatter:
        for (std::size_t r = 0; r < out.size(); ++r) {
          if (!std::equal(out[r].begin(), out[r].end(),
                          scatter_in_.begin() + static_cast<std::ptrdiff_t>(r * c),
                          scatter_in_.begin() +
                              static_cast<std::ptrdiff_t>((r + 1) * c))) {
            return false;
          }
        }
        return true;
      case kGather:
        return out[root] == gather_;
      default:
        return false;
    }
  }

  int rows_, cols_, count_;
  std::uint64_t cap_;
  std::vector<std::vector<std::int32_t>> in_;
  std::vector<std::int32_t> scatter_in_;
  std::vector<std::int32_t> sum_;     ///< reduce / allreduce reference
  std::vector<std::int32_t> gather_;  ///< gather reference (rank order)
};

// ---------------------------------------------------------------------------
// stencil-faults: the Fig. 15 Jacobi stencil over lossy reliable links.
// ---------------------------------------------------------------------------

class StencilFaults final : public Workload {
 public:
  static constexpr int kThreads = 2;
  static constexpr int kSetupRepeats = 5;
  explicit StencilFaults(const WorkloadOptions& o) {
    const bool full = o.size == Size::kFull;
    sc_.rx = 4;
    sc_.ry = 4;
    // The paper's Fig. 15 grid, 4 DRAM banks per rank.
    sc_.nx_global = full ? 4096 : 128;
    sc_.ny_global = full ? 4096 : 128;
    sc_.timesteps = full ? 8 : 2;
    sc_.banks = 4;
    sc_.seed = static_cast<unsigned>(Derive(o.seed, 0x57e) & 0x7fffffffU);
    ClusterConfig& c = sc_.cluster;
    c.engine.scheduler = smi::sim::SchedulerKind::kParallel;
    c.engine.threads = kThreads;
    // A healthy job takes ~132k cycles (1.6k tiny).
    c.engine.max_cycles = Cap(o, full ? 400000 : 20000);
    c.fabric.fault.enabled = true;
    c.fabric.fault.seed = Derive(o.seed, 0xfa17);
    c.fabric.fault.default_spec.drop_rate = 0.01;
  }
  const char* name() const override { return "stencil-faults"; }
  bool setup_in_run() const override { return true; }
  int threads() const override { return kThreads; }

  JobResult RunJob(bool traced, Spans& spans) override {
    const Spans::Scope job = spans.Open("job");
    JobResult jr;
    smi::apps::StencilConfig sc = sc_;
    sc.cluster.engine.collect_counters = traced;
    const Topology topo = Topology::Torus2D(sc.rx, sc.ry);
    {
      // RunStencilSmi builds its cluster internally; set-up is measured on
      // the same build (topology, halo endpoint spec, config) made here. It
      // is cheap and made apart from the run, so the job makes it several
      // times and keeps the median.
      ProgramSpec spec;
      for (int port = 1; port <= 4; ++port) {
        spec.Add(OpSpec::Send(port, DataType::kFloat));
        spec.Add(OpSpec::Recv(port, DataType::kFloat));
      }
      std::vector<double> setups;
      Spans untraced(false);  // spans cover the first build only
      for (int k = 0; k < kSetupRepeats; ++k) {
        Build(topo, spec, sc.cluster, traced && k == 0,
              k == 0 ? spans : untraced, jr);
        setups.push_back(jr.setup_s);
      }
      std::sort(setups.begin(), setups.end());
      jr.setup_s = setups[setups.size() / 2];
    }
    smi::apps::StencilResult result;
    std::string error;
    {
      const Spans::Scope s = spans.Open("sim.run");
      const Clock::time_point t0 = Clock::now();
      try {
        result = smi::apps::RunStencilSmi(sc);
        jr.cycles = result.run.cycles;
        jr.link_packets = result.run.link_packets;
      } catch (const std::exception& e) {
        error = e.what();
      }
      jr.run_s = Since(t0);
    }
    if (traced) {
      jr.counters = result.telemetry.summary;
      jr.faults = result.telemetry.faults;
      jr.num_links = 2 * static_cast<int>(topo.Connections().size());
    }
    const Spans::Scope s = spans.Open("check");
    ++jr.attempted;
    if (!error.empty()) {
      Fail(jr, "stencil: " + error, false);
      return jr;
    }
    if (reference_.empty()) {
      reference_ = smi::apps::ReferenceStencil(
          smi::apps::MakeStencilGrid(sc.nx_global, sc.ny_global, sc.seed),
          static_cast<std::size_t>(sc.nx_global),
          static_cast<std::size_t>(sc.ny_global), sc.timesteps);
    }
    if (result.grid.size() != reference_.size() ||
        std::memcmp(result.grid.data(), reference_.data(),
                    reference_.size() * sizeof(float)) != 0) {
      Fail(jr, "stencil: grid differs from the host reference", true);
    }
    return jr;
  }

 private:
  smi::apps::StencilConfig sc_;
  std::vector<float> reference_;
};

}  // namespace

std::unique_ptr<Workload> MakeWorkload(const std::string& name,
                                       const WorkloadOptions& options) {
  if (name == "ring-p2p") return std::make_unique<RingP2p>(options);
  if (name == "fattree-bisect") return std::make_unique<FatTreeBisect>(options);
  if (name == "coll-mix") return std::make_unique<CollMix>(options);
  if (name == "stencil-faults") return std::make_unique<StencilFaults>(options);
  throw smi::ConfigError("unknown workload '" + name + "'");
}

}  // namespace perfbench
