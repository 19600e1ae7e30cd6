/// \file bench_fidelity.cpp
/// Hybrid-fidelity link sweep: wall-clock speedup and cycle divergence of
/// the flow-level fast path (sim/fidelity.h, sim/link.h) against the
/// cycle-accurate baseline.
///
/// The workload is a relay chain of `ranks` serial links saturated by a
/// single source streaming `payloads` sequence numbers at line rate — the
/// steady-state regime the flow model is built for. Each (ranks, payloads)
/// shape runs under all three fidelity modes; the bench asserts that the
/// payload stream reaching the sink is bit-identical (FNV-1a digest) in
/// every mode and reports, per shape, the total-cycle divergence and the
/// wall-clock speedup of flow/auto over cycle. `--min-speedup` /
/// `--max-divergence` turn the reported figures into exit-code checks for
/// CI. The "fidelity" report section is the canonical document validated by
/// report_check: the auto run's per-link mode/demotion breakdown plus the
/// sweep table.

#include <cinttypes>
#include <vector>

#include "bench_common.h"
#include "sim/link.h"

namespace {

using namespace smi;
using namespace smi::bench;

sim::Kernel Source(sim::Fifo<std::uint32_t>& out, int n) {
  for (int i = 0; i < n; ++i) {
    co_await sim::fifo_push(out, static_cast<std::uint32_t>(i));
  }
}

sim::Kernel Sink(sim::Fifo<std::uint32_t>& in, int n, std::uint64_t& digest) {
  std::uint64_t h = 14695981039346656037ull;  // FNV-1a 64
  for (int i = 0; i < n; ++i) {
    h ^= co_await sim::fifo_pop(in);
    h *= 1099511628211ull;
  }
  digest = h;
}

struct Outcome {
  sim::Cycle cycles = 0;
  double wall_seconds = 0.0;
  std::uint64_t digest = 0;
  json::Value fidelity;  ///< FidelityReportJson (null in cycle mode)
};

Outcome RunChain(int hops, int payloads, std::size_t depth, sim::Cycle latency,
                 const sim::FidelityPolicy& policy) {
  sim::EngineConfig config;
  config.fidelity = policy;
  sim::Engine engine(config);

  std::vector<sim::Fifo<std::uint32_t>*> fifos;
  for (int i = 0; i <= hops; ++i) {
    fifos.push_back(
        &engine.MakeFifo<std::uint32_t>("f" + std::to_string(i), depth));
  }
  for (int i = 0; i < hops; ++i) {
    engine.MakeComponent<sim::Link<std::uint32_t>>(
        engine, "link" + std::to_string(i), *fifos[static_cast<std::size_t>(i)],
        *fifos[static_cast<std::size_t>(i) + 1], latency);
  }

  Outcome out;
  engine.AddKernel(Source(*fifos.front(), payloads), "source");
  engine.AddKernel(Sink(*fifos.back(), payloads, out.digest), "sink");
  const WallTimer timer;
  const sim::RunStats stats = engine.Run();
  out.cycles = stats.cycles;
  out.wall_seconds = timer.Seconds();
  if (policy.enabled()) {
    const std::vector<sim::FlowLinkControl*>& regs = engine.flow_links();
    const std::vector<const sim::FlowLinkControl*> links(regs.begin(),
                                                         regs.end());
    out.fidelity = sim::FidelityReportJson(policy.mode, links);
  }
  return out;
}

double Pct(sim::Cycle value, sim::Cycle reference) {
  if (reference == 0) return 0.0;
  const double d = static_cast<double>(value) - static_cast<double>(reference);
  return 100.0 * (d < 0 ? -d : d) / static_cast<double>(reference);
}

}  // namespace

int main(int argc, char** argv) {
  CliParser cli("bench_fidelity",
                "flow-level fast path: speedup and divergence vs cycle "
                "accuracy");
  cli.AddInt("ranks", 64, "largest relay-chain length; sweeps 8,16,..,ranks");
  cli.AddInt("payloads", 200000, "payloads streamed through the chain");
  cli.AddInt("fifo-depth", 128, "inter-hop FIFO depth");
  cli.AddInt("latency", 16, "per-hop link latency in cycles");
  cli.AddInt("interval", 32, "target cycles between modeled flow wakes");
  cli.AddDouble("min-speedup", 0.0,
                "fail unless auto beats cycle wall-clock by this factor on "
                "the largest shape (0 = report only)");
  cli.AddDouble("max-divergence", 2.0,
                "fail when an auto run at the full payload count diverges "
                "from the cycle-accurate cycles by more than this percentage "
                "(the quarter-size rows expose the stream-tail boundary "
                "error, which shrinks as ranks*interval/payloads)");
  AddJsonOption(cli);
  if (!cli.Parse(argc, argv)) return 2;

  const int max_ranks = static_cast<int>(cli.GetInt("ranks"));
  const int payloads = static_cast<int>(cli.GetInt("payloads"));
  const std::size_t depth = static_cast<std::size_t>(cli.GetInt("fifo-depth"));
  const sim::Cycle latency = static_cast<sim::Cycle>(cli.GetInt("latency"));
  const double min_speedup = cli.GetDouble("min-speedup");
  const double max_divergence = cli.GetDouble("max-divergence");

  sim::FidelityPolicy base;
  base.flow_interval = static_cast<sim::Cycle>(cli.GetInt("interval"));

  PerfReport report("fidelity");
  report.SetParameter("ranks", max_ranks);
  report.SetParameter("payloads", payloads);
  report.SetParameter("fifo-depth", cli.GetInt("fifo-depth"));
  report.SetParameter("latency", cli.GetInt("latency"));
  report.SetParameter("interval", cli.GetInt("interval"));

  std::vector<int> shapes;
  for (int r = 8; r < max_ranks; r *= 2) shapes.push_back(r);
  if (shapes.empty() || shapes.back() != max_ranks) shapes.push_back(max_ranks);
  const int sizes[2] = {payloads / 4 > 0 ? payloads / 4 : 1, payloads};

  PrintTitle("hybrid fidelity — relay chain, line-rate stream");
  std::printf("%6s %9s %6s %12s %12s %9s %9s %10s\n", "ranks", "payloads",
              "mode", "cycles", "wall [ms]", "speedup", "diverge", "modeled");

  json::Array sweep;
  json::Value headline_fidelity;
  double headline_speedup = 0.0;
  double worst_divergence = 0.0;
  bool ok = true;

  for (const int ranks : shapes) {
    for (const int n : sizes) {
      Outcome per_mode[3];
      const sim::FidelityMode modes[3] = {sim::FidelityMode::kCycle,
                                          sim::FidelityMode::kFlow,
                                          sim::FidelityMode::kAuto};
      for (int m = 0; m < 3; ++m) {
        sim::FidelityPolicy policy = base;
        policy.mode = modes[m];
        per_mode[m] = RunChain(ranks, n, depth, latency, policy);

        const Outcome& cyc = per_mode[0];
        const Outcome& cur = per_mode[m];
        const double speedup = cur.wall_seconds > 0.0
                                   ? cyc.wall_seconds / cur.wall_seconds
                                   : 0.0;
        const double divergence = Pct(cur.cycles, cyc.cycles);
        double modeled = 0.0;
        if (cur.fidelity.is_object()) {
          modeled = cur.fidelity.at("modeled_fraction").as_double();
        }
        const std::string label = std::to_string(ranks) + "ranks/" +
                                  std::to_string(n) + "msgs/" +
                                  sim::FidelityModeName(modes[m]);
        report.AddResult(label, cur.cycles, 0.0, cur.wall_seconds);
        std::printf("%6d %9d %6s %12llu %12.2f %8.2fx %8.2f%% %9.1f%%\n",
                    ranks, n, sim::FidelityModeName(modes[m]),
                    static_cast<unsigned long long>(cur.cycles),
                    cur.wall_seconds * 1e3, speedup, divergence,
                    100.0 * modeled);

        if (cur.digest != cyc.digest) {
          std::printf("PAYLOAD DIGEST MISMATCH: %s (%016" PRIx64
                      " vs cycle %016" PRIx64 ")\n",
                      label.c_str(), cur.digest, cyc.digest);
          ok = false;
        }
        if (modes[m] == sim::FidelityMode::kAuto && n == payloads) {
          if (divergence > worst_divergence) worst_divergence = divergence;
          if (ranks == shapes.back()) {
            headline_speedup = speedup;
            headline_fidelity = cur.fidelity;
          }
        }

        json::Object row;
        row["ranks"] = json::Value(static_cast<std::int64_t>(ranks));
        row["payloads"] = json::Value(static_cast<std::int64_t>(n));
        row["mode"] = json::Value(std::string(
            sim::FidelityModeName(modes[m])));
        row["cycles"] = json::Value(static_cast<std::uint64_t>(cur.cycles));
        row["wall_seconds"] = json::Value(cur.wall_seconds);
        row["speedup"] = json::Value(speedup);
        row["divergence_pct"] = json::Value(divergence);
        row["modeled_fraction"] = json::Value(modeled);
        sweep.push_back(json::Value(std::move(row)));
      }
    }
  }

  if (headline_fidelity.is_object()) {
    json::Object& section = headline_fidelity.as_object();
    section["speedup"] = json::Value(headline_speedup);
    section["worst_divergence_pct"] = json::Value(worst_divergence);
    section["sweep"] = json::Value(std::move(sweep));
    report.SetSection("fidelity", headline_fidelity);
  }

  std::printf("\nheadline: auto vs cycle on the largest shape: %.2fx "
              "wall-clock, worst auto divergence %.2f%%\n",
              headline_speedup, worst_divergence);

  if (worst_divergence > max_divergence) {
    std::printf("FAIL: divergence %.2f%% exceeds --max-divergence %.2f%%\n",
                worst_divergence, max_divergence);
    ok = false;
  }
  if (min_speedup > 0.0 && headline_speedup < min_speedup) {
    std::printf("FAIL: speedup %.2fx below --min-speedup %.2fx\n",
                headline_speedup, min_speedup);
    ok = false;
  }
  MaybeWriteReport(cli, report);
  return ok ? 0 : 1;
}
