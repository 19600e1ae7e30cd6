/// \file main.cpp
/// smi_perfbench: runs one benchmark workload (see workloads.h) for a fixed
/// host-time budget and reports its metrics.
///
///   smi_perfbench --workload ring-p2p --seed 1 --seconds 20 --trace 0
///
/// Every job is simulated to completion and checked against its host
/// reference. The first job is a warm-up: it is checked and fixes the
/// reference cycle count, but its times are not sampled. With --trace 0 the
/// jobs run untraced and give the end-to-end metrics. With --trace 1 untraced
/// and traced jobs alternate; traced jobs collect engine counters and
/// benchmark spans, and give the per-layer metrics. Host times are scaled
/// to reference seconds by a host-speed probe run around every job (see
/// ProbeSeconds). The last line of
/// standard output is one JSON object with the keys correct, attempted,
/// failed and metrics; a fuller report (host descriptor, samples, spans) is
/// written under --out.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <fstream>
#include <map>
#include <queue>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/error.h"
#include "common/json.h"
#include "spans.h"
#include "workloads.h"

namespace perfbench {
namespace {

using smi::json::Object;
using smi::json::Value;
using Clock = std::chrono::steady_clock;

/// Measured jobs a run makes even when they overrun --seconds.
constexpr int kMinJobs = 3;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 20.0;
  bool trace = false;
  Size size = Size::kFull;
  std::uint64_t cap_cycles = 0;
  std::string out;     ///< report directory; empty = no report file
  std::string commit = "unknown";
};

[[noreturn]] void Usage(const std::string& error) {
  std::fprintf(stderr,
               "error: %s\n"
               "usage: smi_perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1\n"
               "         [--size full|tiny] [--cap-cycles C]\n"
               "         [--out DIR] [--commit SHA]\n"
               "workloads: ring-p2p fattree-bisect coll-mix stencil-faults\n",
               error.c_str());
  std::exit(2);
}

std::uint64_t ParseUnsigned(const std::string& flag, const std::string& v) {
  std::size_t used = 0;
  unsigned long long x = 0;
  try {
    x = std::stoull(v, &used);
  } catch (const std::exception&) {
    used = 0;
  }
  if (used == 0 || used != v.size() || v[0] == '-') {
    Usage(flag + " expects a non-negative integer, got '" + v + "'");
  }
  return x;
}

Args ParseArgs(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) Usage("missing value for " + flag);
    const std::string v = argv[++i];
    if (flag == "--workload") {
      a.workload = v;
    } else if (flag == "--seed") {
      a.seed = ParseUnsigned(flag, v);
    } else if (flag == "--seconds") {
      a.seconds = static_cast<double>(ParseUnsigned(flag, v));
    } else if (flag == "--trace") {
      if (v != "0" && v != "1") Usage("--trace expects 0 or 1");
      a.trace = v == "1";
    } else if (flag == "--size") {
      if (v != "full" && v != "tiny") Usage("--size expects full or tiny");
      a.size = v == "full" ? Size::kFull : Size::kTiny;
    } else if (flag == "--cap-cycles") {
      a.cap_cycles = ParseUnsigned(flag, v);
    } else if (flag == "--out") {
      a.out = v;
    } else if (flag == "--commit") {
      a.commit = v;
    } else {
      Usage("unknown flag " + flag);
    }
  }
  if (a.workload.empty()) Usage("--workload is required");
  return a;
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Highest percentile with at least ten samples above it (nearest-rank),
/// or the maximum when there are too few samples for any tail percentile.
struct Tail {
  std::string label;
  double value = 0.0;
};
Tail TailOf(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const double n = static_cast<double>(v.size());
  for (const int p : {99, 95, 90, 75, 50}) {
    if (n * (100 - p) / 100.0 >= 10.0) {
      const std::size_t rank = static_cast<std::size_t>(
          std::ceil(n * p / 100.0));
      return {"p" + std::to_string(p), v[std::max<std::size_t>(rank, 1) - 1]};
    }
  }
  return {"max", v.empty() ? 0.0 : v.back()};
}

/// Host-speed probe: a fixed amount of work that shares no code with the
/// simulator (a bounded max-heap, a table and a hash map over a
/// cache-resident working set). On a shared host the speed of a core
/// changes by tens of percent for seconds at a time, and the probe tracks
/// it. Every host time of a job is scaled by kProbeRefS over the mean of the
/// probes run just before and just after the job, so reported times are
/// reference seconds: host seconds on a host where the probe takes
/// kProbeRefS. The raw host seconds are kept in the report file.
constexpr double kProbeRefS = 0.016;
volatile std::uint64_t probe_sink = 0;  // keeps the probe's work observable

void ProbeWork() {
  std::priority_queue<std::uint64_t> heap;
  std::vector<std::uint32_t> table(1 << 16);
  std::unordered_map<std::uint32_t, std::uint32_t> counts;
  std::uint64_t x = 1, acc = 0;
  for (int i = 0; i < 200000; ++i) {
    x = x * 6364136223846793005ULL + 1442695040888963407ULL;
    const std::uint64_t h = x ^ (x >> 29);
    heap.push(h);
    if (heap.size() > 4096) {
      acc += heap.top();
      heap.pop();
    }
    table[h & 0xffff] += static_cast<std::uint32_t>(h);
    if ((h >> 20) & 1) {
      ++counts[static_cast<std::uint32_t>(h >> 40) & 4095];
    } else {
      acc += table[(h >> 16) & 0xffff];
    }
  }
  probe_sink = acc + counts.size();
}

/// Median of three wall times for `threads` threads to each run ProbeWork
/// at once. A job is probed with as many threads as its simulation uses:
/// a two-thread job is as fast as the slower of its two cores.
double ProbeSeconds(int threads) {
  std::vector<double> t;
  for (int k = 0; k < 3; ++k) {
    const Clock::time_point t0 = Clock::now();
    std::vector<std::thread> others;
    for (int i = 1; i < threads; ++i) others.emplace_back(ProbeWork);
    ProbeWork();
    for (std::thread& th : others) th.join();
    t.push_back(std::chrono::duration<double>(Clock::now() - t0).count());
  }
  return Median(t);
}

/// Peak resident set of this process image, from VmHWM. (getrusage's
/// ru_maxrss would also count the parent's image before exec.)
double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // reported in kB
    }
  }
  throw smi::Error("VmHWM not found in /proc/self/status");
}

double Count(const Value& summary, const char* key) {
  return summary.is_null() ? 0.0 : summary.at(key).as_double();
}

Value Metric(double value, const char* unit) {
  Object m;
  m["value"] = value;
  m["unit"] = std::string(unit);
  return Value(std::move(m));
}

Object HostDescriptor(const Args& args) {
  Object host;
  host["nproc"] = static_cast<int>(std::thread::hardware_concurrency());
  host["compiler"] = std::string(PERFBENCH_COMPILER);
  host["build_type"] = std::string(PERFBENCH_BUILD_TYPE);
  host["release"] = std::string(PERFBENCH_BUILD_TYPE) == "Release";
  host["git_commit"] = args.commit;
  return host;
}

int Main(const Args& args) {
  WorkloadOptions options;
  options.seed = args.seed;
  options.size = args.size;
  options.cap_cycles = args.cap_cycles;
  const std::unique_ptr<Workload> workload =
      MakeWorkload(args.workload, options);
  const Object host = HostDescriptor(args);
  if (!host.at("release").as_bool()) {
    std::fprintf(stderr,
                 "warning: %s build; host times of a non-Release build mean "
                 "nothing\n",
                 PERFBENCH_BUILD_TYPE);
  }

  Spans spans(args.trace);
  const Clock::time_point start = Clock::now();
  const Clock::time_point deadline =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(args.seconds));

  int attempted = 0, failed = 0, wrong = 0, jobs = 0;
  std::uint64_t ref_cycles = 0;
  std::vector<std::string> errors;
  std::vector<double> run_s, setup_s;          // untraced, after warm-up
  std::vector<JobResult> traced;               // traced job results
  std::vector<double> traced_speed;            // their probe scale factors
  std::vector<double> host_run_s, host_setup_s, probe_s;  // unscaled
  std::vector<int> traced_ids;
  std::uint64_t link_packets = 0;

  // Job 0 is the warm-up. Under --trace 1, odd jobs are traced. No job
  // starts that would, at the pace of the last one, end past the deadline.
  Clock::duration last_job{};
  double probe_before = ProbeSeconds(workload->threads());
  probe_s.push_back(probe_before);
  for (int id = 0;; ++id) {
    const int timed = static_cast<int>(args.trace ? traced.size()
                                                  : run_s.size());
    if (id > 0 && Clock::now() + last_job > deadline &&
        timed >= kMinJobs && (!args.trace || !run_s.empty())) {
      break;
    }
    const bool is_traced = args.trace && id % 2 == 1;
    spans.set_job(id);
    const Clock::time_point job_start = Clock::now();
    JobResult jr = workload->RunJob(is_traced, spans);
    const double probe_after = ProbeSeconds(workload->threads());
    probe_s.push_back(probe_after);
    const double speed = kProbeRefS / (0.5 * (probe_before + probe_after));
    probe_before = probe_after;
    last_job = Clock::now() - job_start;
    ++jobs;
    // Simulated time and, in traced jobs, every counter are deterministic:
    // a drift from the first job fails the whole job.
    if (id == 0) {
      ref_cycles = jr.cycles;
      link_packets = jr.link_packets;
    } else if (jr.cycles != ref_cycles) {
      jr.failed = jr.attempted;
      jr.errors.push_back("sim_cycles " + std::to_string(jr.cycles) +
                          " differs from the first job's " +
                          std::to_string(ref_cycles));
    } else if (is_traced && !traced.empty() &&
               !(jr.counters == traced.front().counters)) {
      jr.failed = jr.attempted;
      jr.errors.push_back("counters differ from the first traced job's");
    }
    attempted += jr.attempted;
    failed += jr.failed;
    wrong += jr.wrong;
    for (const auto& e : jr.errors) {
      if (errors.size() < 8) {
        errors.push_back("job " + std::to_string(id) + ": " + e);
      }
    }
    if (id == 0) continue;
    if (is_traced) {
      traced_ids.push_back(id);
      traced_speed.push_back(speed);
      traced.push_back(std::move(jr));
    } else {
      run_s.push_back(jr.run_s * speed);
      setup_s.push_back(jr.setup_s * speed);
      host_run_s.push_back(jr.run_s);
      host_setup_s.push_back(jr.setup_s);
    }
  }
  const double elapsed =
      std::chrono::duration<double>(Clock::now() - start).count();

  std::vector<double> traced_run_s;
  for (std::size_t i = 0; i < traced.size(); ++i) {
    traced_run_s.push_back(traced[i].run_s * traced_speed[i]);
  }
  const double run_med = Median(run_s);
  const Tail run_tail = TailOf(run_s);
  const double fail_rate =
      static_cast<double>(failed) / static_cast<double>(attempted);
  const bool correct = wrong == 0;

  Object metrics;
  Value report_only;  // per-layer figures kept out of the metric list
  if (!args.trace) {
    metrics["run_s"] = Metric(run_med, "s");
    metrics["setup_s"] = Metric(Median(setup_s), "s");
    metrics["sim_cycles"] = Metric(static_cast<double>(ref_cycles), "cycles");
    metrics["peak_rss_mb"] = Metric(PeakRssMb(), "MB");
    metrics["pass_rate"] = Metric(1.0 - fail_rate, "ratio");
  } else {
    // Host-time attribution from the spans of each traced job (medians).
    std::map<std::string, std::vector<double>> self;
    std::map<std::string, std::vector<double>> step_cycles, step_s;
    for (std::size_t i = 0; i < traced.size(); ++i) {
      const auto s = spans.SelfSeconds(traced_ids[i]);
      const auto get = [&](const char* k) {
        const auto it = s.find(k);
        return it == s.end() ? 0.0 : it->second * traced_speed[i];
      };
      self["net.routes_s"].push_back(get("net.routes"));
      self["net.cdg_s"].push_back(get("net.cdg"));
      // The constructor recomputes the routes (and their CDG check) that
      // net.routes timed standalone.
      self["core.build_s"].push_back(get("core.build") - get("net.routes"));
      self["sim.run_s"].push_back(get("sim.run"));
      self["check_s"].push_back(get("check"));
      self["obs.capture_s"].push_back(get("obs.capture"));
      for (const StepTime& st : traced[i].steps) {
        step_cycles[st.name].push_back(static_cast<double>(st.cycles));
        step_s[st.name].push_back(st.seconds * traced_speed[i]);
      }
    }
    for (const char* k : {"net.routes_s", "net.cdg_s", "core.build_s",
                          "sim.run_s", "check_s"}) {
      metrics[k] = Metric(Median(self[k]), "s");
    }
    const double traced_med = Median(traced_run_s);
    metrics["obs.overhead_frac"] =
        Metric(run_med > 0 ? traced_med / run_med - 1.0 : 0.0, "ratio");

    const JobResult& t = traced.front();
    const Value& c = t.counters;
    const double cycles = static_cast<double>(ref_cycles);
    const double resumes = Count(c, "kernel_active_cycles");
    const Value& fwd = c.is_null() ? Value() : c.at("ck_forwarded");
    const double fwd_data = Count(fwd, "data");
    const double fwd_sync = Count(fwd, "sync");
    const double fwd_credit = Count(fwd, "credit");
    const double forwards = fwd_data + fwd_sync + fwd_credit;
    const double polls = Count(c, "ck_polls");
    const double hits = Count(c, "ck_hits");
    const double busy = Count(c, "link_busy_cycles");
    const double pkts = static_cast<double>(link_packets);
    const auto per = [](double num, double den) {
      return den > 0 ? num / den : 0.0;
    };
    // Rates use the untraced run time of this process.
    metrics["sim.cycles_per_s"] = Metric(per(cycles, run_med), "cycles/s");
    metrics["sim.resumes"] = Metric(resumes, "count");
    metrics["sim.ns_per_resume"] = Metric(per(run_med * 1e9, resumes), "ns");
    metrics["sim.link_packets"] = Metric(pkts, "count");
    metrics["sim.ns_per_link_packet"] = Metric(per(run_med * 1e9, pkts), "ns");
    metrics["transport.ck_polls"] = Metric(polls, "count");
    metrics["transport.ck_hits"] = Metric(hits, "count");
    metrics["transport.ck_hit_ratio"] = Metric(per(hits, polls), "ratio");
    metrics["transport.ck_stalls"] = Metric(Count(c, "ck_stalls"), "count");
    metrics["transport.ck_forwarded_data"] = Metric(fwd_data, "count");
    metrics["transport.ck_forwarded_sync"] = Metric(fwd_sync, "count");
    metrics["transport.ck_forwarded_credit"] = Metric(fwd_credit, "count");
    metrics["transport.ns_per_forward"] =
        Metric(per(run_med * 1e9, forwards), "ns");
    metrics["transport.handler_combined"] =
        Metric(Count(c, "ck_handler_combined"), "count");
    metrics["transport.handler_splits"] =
        Metric(Count(c, "ck_handler_splits"), "count");
    metrics["link.busy_cycles"] = Metric(busy, "cycles");
    metrics["link.utilization"] =
        Metric(per(busy, cycles * static_cast<double>(t.num_links)), "ratio");
    metrics["link.credit_stall_cycles"] =
        Metric(Count(c, "link_credit_stall_cycles"), "cycles");
    metrics["fifo.pushes"] = Metric(Count(c, "fifo_pushes"), "count");
    metrics["fifo.full_stall_cycles"] =
        Metric(Count(c, "fifo_full_stall_cycles"), "cycles");
    metrics["fifo.high_water"] = Metric(Count(c, "fifo_high_water"), "count");
    for (const char* step : {"bcast", "reduce_tree", "allreduce", "scatter",
                             "gather", "reduce_innet"}) {
      const std::string k = std::string("coll.") + step + "_cycles";
      metrics[k] = Metric(Median(step_cycles[step]), "cycles");
    }
    const Value& f = t.faults.is_null() ? Value() : t.faults.at("totals");
    metrics["fault.wire_drops"] = Metric(Count(f, "wire_drops"), "count");
    metrics["fault.retransmits"] = Metric(Count(f, "retransmits"), "count");
    metrics["fault.timeouts"] = Metric(Count(f, "timeouts"), "count");

    // Host seconds per collective step and span self times stay in the
    // report file: they exist on one workload only.
    Object extra;
    for (auto& [k, v] : step_s) extra["coll." + k + "_s"] = Median(v);
    extra["obs.capture_s"] = Median(self["obs.capture_s"]);
    report_only = Value(std::move(extra));
  }

  // Human-readable summary.
  std::printf("perfbench %s: seed %llu, trace %d, %d jobs (1 warm-up) in "
              "%.1f s\n",
              workload->name(), static_cast<unsigned long long>(args.seed),
              args.trace ? 1 : 0, jobs, elapsed);
  std::printf("  host: nproc %d, %s, %s build%s, commit %s\n",
              static_cast<int>(host.at("nproc").as_double()),
              PERFBENCH_COMPILER, PERFBENCH_BUILD_TYPE,
              host.at("release").as_bool() ? "" : " (NOT Release)",
              args.commit.c_str());
  std::printf("  run_s %.6f s median, %s %.6f s (n=%zu untraced jobs; "
              "reference seconds)\n",
              run_med, run_tail.label.c_str(), run_tail.value, run_s.size());
  std::printf("  host seconds: run %.6f, setup %.6f (medians); speed probe "
              "%.4f s median against %.4f s reference\n",
              Median(host_run_s), Median(host_setup_s), Median(probe_s),
              kProbeRefS);
  if (workload->setup_in_run()) {
    std::printf("  note: %s builds its cluster inside the run, so run_s "
                "includes one cluster build; setup_s times the same build "
                "made standalone\n",
                workload->name());
  }
  std::printf("  fail_rate %.6f (%d of %d operations failed, %d with a wrong "
              "payload)\n",
              fail_rate, failed, attempted, wrong);
  for (const auto& [k, v] : metrics) {
    std::printf("  %-32s %.6g %s\n", k.c_str(), v.at("value").as_double(),
                v.at("unit").as_string().c_str());
  }
  if (report_only.is_object()) {
    for (const auto& [k, v] : report_only.as_object()) {
      std::printf("  %-32s %.6g s (report file only)\n", k.c_str(),
                  v.as_double());
    }
  }
  for (const auto& e : errors) {
    std::fprintf(stderr, "  failure: %s\n", e.c_str());
  }

  if (!args.out.empty()) {
    std::filesystem::create_directories(args.out);
    const std::string stem = args.out + "/" + workload->name() + "-seed" +
                             std::to_string(args.seed) + "-trace" +
                             (args.trace ? "1" : "0");
    Object report;
    report["workload"] = std::string(workload->name());
    report["seed"] = static_cast<std::uint64_t>(args.seed);
    report["trace"] = args.trace;
    report["host"] = Value(host);
    report["jobs"] = jobs;
    report["elapsed_s"] = elapsed;
    report["attempted"] = attempted;
    report["failed"] = failed;
    report["fail_rate"] = fail_rate;
    report["errors"] = Value(smi::json::Array(errors.begin(), errors.end()));
    report["setup_in_run"] = workload->setup_in_run();
    Object run;
    run["median_s"] = run_med;
    run["tail_label"] = run_tail.label;
    run["tail_s"] = run_tail.value;
    run["samples"] = Value(smi::json::Array(run_s.begin(), run_s.end()));
    run["setup_samples"] =
        Value(smi::json::Array(setup_s.begin(), setup_s.end()));
    run["host_samples"] =
        Value(smi::json::Array(host_run_s.begin(), host_run_s.end()));
    run["host_setup_samples"] =
        Value(smi::json::Array(host_setup_s.begin(), host_setup_s.end()));
    run["probe_samples"] =
        Value(smi::json::Array(probe_s.begin(), probe_s.end()));
    run["probe_reference_s"] = kProbeRefS;
    run["traced_samples"] =
        Value(smi::json::Array(traced_run_s.begin(), traced_run_s.end()));
    report["run_s"] = Value(std::move(run));
    report["metrics"] = Value(metrics);
    if (args.trace) report["report_only"] = report_only;
    smi::json::WriteFile(stem + ".json", Value(std::move(report)));
    if (args.trace) {
      smi::json::WriteFile(stem + ".spans.json", spans.ChromeTrace());
    }
  }

  Object result;
  result["correct"] = correct;
  result["attempted"] = attempted;
  result["failed"] = failed;
  result["metrics"] = Value(std::move(metrics));
  std::printf("%s\n", Value(std::move(result)).dump().c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  const perfbench::Args args = perfbench::ParseArgs(argc, argv);
  try {
    return perfbench::Main(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
