#ifndef PERFBENCH_WORKLOADS_H
#define PERFBENCH_WORKLOADS_H

/// \file workloads.h
/// The benchmark's four closed batch jobs. Each job builds a cluster
/// through the public API, simulates a fixed amount of work to completion,
/// and checks every output against a host reference. The only input is the
/// workload seed; payload values, the fat-tree routing seed, the stencil
/// grid seed and the fault-plan seed are all derived from it.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/cluster.h"
#include "spans.h"

namespace perfbench {

/// Problem sizes: kFull is what the benchmark measures, kTiny is a
/// seconds-long pass of the same code paths for the benchmark's own tests.
enum class Size { kFull, kTiny };

struct WorkloadOptions {
  std::uint64_t seed = 1;
  Size size = Size::kFull;
  /// Overrides the workload's cycle cap when non-zero.
  std::uint64_t cap_cycles = 0;
};

/// One collective step of coll-mix: simulated cycles and host seconds from
/// the previous step boundary to the cycle at which the last rank left it.
struct StepTime {
  std::string name;
  std::uint64_t cycles = 0;
  double seconds = 0.0;
};

/// Outcome of one job. An operation is one checked stream, collective step
/// or stencil grid; it fails on a wrong payload, a thrown error or the
/// cycle cap.
struct JobResult {
  int attempted = 0;
  int failed = 0;
  /// Failures whose output was produced but differed from the reference
  /// (a subset of `failed`).
  int wrong = 0;
  std::vector<std::string> errors;
  std::uint64_t cycles = 0;      ///< simulated cycles at completion or abort
  double setup_s = 0.0;          ///< Cluster construction
  double run_s = 0.0;            ///< AddKernel + Cluster::Run
  std::uint64_t link_packets = 0;
  std::vector<StepTime> steps;   ///< coll-mix only
  /// Counter summary and fault report; null unless the job was traced
  /// (faults: also null without a fault plan).
  smi::json::Value counters;
  smi::json::Value faults;
  int num_links = 0;             ///< directed links, from the counters
};

class Workload {
 public:
  virtual ~Workload() = default;
  virtual const char* name() const = 0;
  /// True when the cluster is built inside the measured run (setup_s is
  /// then an equivalent standalone build, and run_s includes one build).
  virtual bool setup_in_run() const { return false; }
  /// Host threads the simulation runs on.
  virtual int threads() const { return 1; }
  /// Simulate one job. `traced` enables engine counters and the extra
  /// standalone routing/CDG calls; spans are recorded into `spans` when it
  /// is enabled.
  virtual JobResult RunJob(bool traced, Spans& spans) = 0;
};

/// Throws smi::ConfigError for an unknown name.
std::unique_ptr<Workload> MakeWorkload(const std::string& name,
                                       const WorkloadOptions& options);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H
