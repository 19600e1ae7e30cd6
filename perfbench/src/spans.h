#ifndef PERFBENCH_SPANS_H
#define PERFBENCH_SPANS_H

/// \file spans.h
/// In-memory host-time spans recorded by the benchmark around each call it
/// makes into a simulator layer (route computation, CDG check, cluster
/// build, run, telemetry capture, reference check). Spans nest: a span's
/// parent is the span open when it started, and every span of one job
/// carries that job's id. The recorder is a no-op when disabled, so the
/// untraced runs that produce the end-to-end metrics pay one branch per
/// call site.

#include <chrono>
#include <map>
#include <string>
#include <vector>

#include "common/json.h"

namespace perfbench {

class Spans {
 public:
  explicit Spans(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }

  /// Closes its span on destruction.
  class Scope {
   public:
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    ~Scope();

   private:
    friend class Spans;
    Scope(Spans* owner, int index) : owner_(owner), index_(index) {}
    Spans* owner_;
    int index_;
  };

  /// Open a span named `name` under the innermost open span, tagged with
  /// the current job id.
  [[nodiscard]] Scope Open(const char* name);

  /// Subsequent spans belong to job `id`.
  void set_job(int id) { job_ = id; }

  /// Self time (duration minus the time covered by direct children) of
  /// every span of job `job`, summed per span name.
  std::map<std::string, double> SelfSeconds(int job) const;

  /// Chrome trace-event document of every recorded span (one process, the
  /// job id as thread id, parent links in `args`).
  smi::json::Value ChromeTrace() const;

 private:
  using Clock = std::chrono::steady_clock;
  struct Record {
    const char* name;
    int job;
    int parent;  ///< index into records_, -1 for a root span
    Clock::time_point start;
    Clock::time_point end;
  };
  void Close(int index);

  bool enabled_;
  int job_ = 0;
  std::vector<Record> records_;
  std::vector<int> open_;  ///< stack of open span indices
  Clock::time_point origin_ = Clock::now();
};

}  // namespace perfbench

#endif  // PERFBENCH_SPANS_H
