// The benchmark's three workloads. Each runs a fixed-length history through
// the library's public API in repeated passes until the run's time budget
// is spent, checks every verdict against an oracle, and fills a Report.

#ifndef RTIC_PERFBENCH_WORKLOADS_H_
#define RTIC_PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "trace.h"

namespace perfbench {

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 0;         // time budget; required
  bool trace = false;         // traced run: per-layer metrics
  std::string workdir = ".bench_work";  // scratch space, relative to cwd
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// What one run found. `end_to_end` and `per_layer` hold exactly the
/// metrics BENCHMARK.json names, in its order; `detail` holds everything
/// else the text report prints (workload-specific metrics, per-constraint
/// and per-span breakdowns).
struct Report {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> errors;
  std::vector<std::string> notes;
  std::vector<Metric> end_to_end;
  std::vector<Metric> per_layer;
  std::vector<Metric> detail;
  SpanLog spans{true};

  /// Records an oracle mismatch or failed operation.
  void Fail(std::string why) {
    correct = false;
    ++failed;
    if (errors.size() < 20) errors.push_back(std::move(why));
  }
};

Report RunEmbedded(const RunOptions& options);
Report RunDurable(const RunOptions& options);
Report RunWire(const RunOptions& options);

}  // namespace perfbench

#endif  // RTIC_PERFBENCH_WORKLOADS_H_
