// rtic_perfbench: runs one benchmark workload and prints a text report,
// then, as the last line, one JSON object with the run's verdict and its
// end-to-end metrics (untraced run) or per-layer metrics (--trace 1).
//
//   rtic_perfbench --workload embedded|durable|wire --seed N --seconds S
//                  --trace 0|1
//
// Durable-mode files and span dumps go to .bench_work/ under the working
// directory.
//
// Exits 0 when every oracle agreed and no operation failed, 1 otherwise,
// 2 on a usage error. perfbench/run.py builds and invokes it.

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>

#include "trace.h"
#include "workloads.h"

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: rtic_perfbench --workload embedded|durable|wire "
               "--seed N --seconds S --trace 0|1\n");
  return 2;
}

void PrintMetrics(const std::vector<perfbench::Metric>& metrics) {
  for (const perfbench::Metric& m : metrics) {
    std::printf("  %-32s %.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
}

std::string JsonLine(const perfbench::Report& r, bool trace) {
  std::string out = "{\"correct\": ";
  out += r.correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(r.attempted);
  out += ", \"failed\": " + std::to_string(r.failed);
  out += ", \"metrics\": {";
  const auto& metrics = trace ? r.per_layer : r.end_to_end;
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", metrics[i].value);
    if (i > 0) out += ", ";
    out += "\"" + metrics[i].name + "\": {\"value\": " + value +
           ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  out += "}}";
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunOptions options;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      options.workload = value;
    } else if (key == "--seed") {
      options.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      options.seconds = std::strtod(value.c_str(), nullptr);
    } else if (key == "--trace") {
      options.trace = value == "1";
    } else {
      return Usage();
    }
  }
  if (argc % 2 == 0 || options.seconds <= 0) return Usage();

  std::error_code ec;
  std::filesystem::create_directories(options.workdir, ec);

  perfbench::Report report;
  if (options.workload == "embedded") {
    report = perfbench::RunEmbedded(options);
  } else if (options.workload == "durable") {
    report = perfbench::RunDurable(options);
  } else if (options.workload == "wire") {
    report = perfbench::RunWire(options);
  } else {
    return Usage();
  }

  std::printf("rtic perfbench: workload=%s seed=%llu seconds=%g trace=%d\n",
              options.workload.c_str(),
              static_cast<unsigned long long>(options.seed), options.seconds,
              options.trace ? 1 : 0);
  for (const std::string& note : report.notes) {
    std::printf("  %s\n", note.c_str());
  }
  std::printf("end-to-end metrics%s:\n",
              options.trace ? " (untraced passes of this run)" : "");
  PrintMetrics(report.end_to_end);
  std::printf("workload-specific metrics:\n");
  PrintMetrics(report.detail);
  if (options.trace) {
    std::printf("per-layer metrics (traced passes):\n");
    PrintMetrics(report.per_layer);
    const std::string spans = options.workdir + "/spans-" + options.workload +
                              "-" + std::to_string(options.seed) + ".csv";
    if (perfbench::WriteSpans(report.spans, spans)) {
      std::printf("spans: %zu written to %s\n", report.spans.spans().size(),
                  spans.c_str());
    }
  }
  for (const std::string& e : report.errors) {
    std::printf("ERROR: %s\n", e.c_str());
  }
  std::printf("%s\n", JsonLine(report, options.trace).c_str());
  return report.correct ? 0 : 1;
}
