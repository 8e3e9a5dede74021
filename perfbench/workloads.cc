#include "workloads.h"

#include <pthread.h>
#include <sched.h>
#include <sys/prctl.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <map>
#include <memory>
#include <thread>

#include "hostspeed.h"
#include "layers.h"
#include "monitor/monitor.h"
#include "server/client.h"
#include "server/server.h"
#include "workload/driver.h"
#include "workload/scenarios.h"

namespace perfbench {
namespace {

using rtic::CheckpointStats;
using rtic::ConstraintMonitor;
using rtic::ConstraintStats;
using rtic::MonitorOptions;
using rtic::Result;
using rtic::Status;
using rtic::workload::Workload;

// ---- Workload definitions ---------------------------------------------------
// History lengths are part of each workload's definition: on `embedded` and
// `durable` per-update cost and retained state rise with history by design,
// so a different length is a different workload. Both are the lengths of
// the probes that motivated the benchmark: payroll's per-update cost and
// SaveState() size were measured over 50k transitions, and the durable
// commit run's checkpoint share and p99 over 30k.

constexpr std::size_t kEmbeddedLength = 50000;  // payroll transitions
constexpr std::size_t kDurableLength = 30000;   // commit transitions
// Naive-engine oracle replay lengths (its cost grows with the square of
// the prefix; alarm's naive replay takes ~2.5 s at 2 000 batches).
constexpr std::size_t kClosedLoopNaivePrefix = 2000;
constexpr std::size_t kWireNaivePrefix = 1000;
constexpr int kMinPasses = 3;
constexpr int kSetupsPerPass = 30;
constexpr int kReopenings = 3;
// Host speed scaling (hostspeed.h). Closed loop: the probes run between
// chunks of kChunk updates (6-15 ms of work), and each chunk's timings are
// scaled by the mean of the readings on either side of it; on `durable`
// the chunk's time in file-system calls follows the disk probe instead of
// the CPU probe. Open loop: an idle-priority thread reads the probe every
// kWireProbeEveryNs, and each update is scaled by the readings within
// kWireProbeWindowNs of its send. The exponents are the ones that made the
// per-pass scaled figures steadiest on the development machine: over five
// sets of 4-10 runs (26-84 passes each), the closed-loop best lay between
// 0.45 and 0.85, and 0.7 was within 0.01 of the best in most sets;
// wire: 1.0 over two 20 s runs; disk: 1.0 over six 20 s `durable` runs.
constexpr std::size_t kChunk = 250;
constexpr double kClosedLoopExponent = 0.7;
constexpr double kWireExponent = 1.0;
constexpr double kDiskExponent = 1.0;
constexpr std::int64_t kWireProbeEveryNs = 10'000'000;
constexpr std::int64_t kWireProbeWindowNs = 100'000'000;

// Per-tenant offered rate: the middle point of the server series in
// EXPERIMENTS.md E19 (500 / 2 000 / 8 000 per connection). With all three
// tenants on one CPU it is a quarter to a half of the highest rate the
// ladder below sustains (4 000-8 000/s), so the core is busy but no
// backlog builds.
constexpr double kWireRate = 2000;         // per tenant, updates/s
constexpr double kWirePassSeconds = 1.0;   // fixed-rate phase per pass
constexpr double kRungSeconds = 0.5;       // ladder: time per rung
constexpr double kLadder[] = {500, 1000, 2000, 3000, 4000, 6000, 8000};
constexpr double kSloMicros = 1000;        // p99 from due, ladder SLO
constexpr double kBacklogGrowthMicros = 250;  // ladder backlog test
constexpr const char* kWireFamilies[] = {"alarm", "library", "freshness"};

// Transcript digests for the default seed (--seed 1), recorded from this
// benchmark's own runs. A changed digest means changed verdicts.
constexpr std::uint64_t kDefaultSeed = 1;
struct ReferenceDigest {
  const char* workload;
  std::uint64_t digest;
  std::size_t lines;
};
constexpr ReferenceDigest kReference[] = {
    {"embedded", 0xf757b9f7cbbd579bULL, 707},
    {"durable", 0x7af9f42271d59d04ULL, 3604},
    {"wire", 0xcbd12c5e97d04d2eULL, 1751},
};

double Seconds(std::int64_t ns) { return static_cast<double>(ns) / 1e9; }
double Micros(std::int64_t ns) { return static_cast<double>(ns) / 1e3; }

std::string Fmt(const char* format, double a, double b = 0, double c = 0) {
  char buf[256];
  std::snprintf(buf, sizeof(buf), format, a, b, c);
  return buf;
}

Result<Workload> MakeHistory(const std::string& family, std::size_t length,
                             std::uint64_t seed,
                             std::map<std::string, double> dials = {}) {
  dials["length"] = static_cast<double>(length);
  dials["seed"] = static_cast<double>(seed);
  return rtic::workload::MakeScenario(family, dials);
}

void CheckReference(const std::string& workload, std::uint64_t seed,
                    std::uint64_t digest, std::size_t lines, Report* r) {
  char buf[160];
  std::snprintf(buf, sizeof(buf), "transcript: %zu lines, digest %016llx",
                lines, static_cast<unsigned long long>(digest));
  r->notes.push_back(buf);
  if (seed != kDefaultSeed) return;
  for (const ReferenceDigest& ref : kReference) {
    if (workload != ref.workload) continue;
    if (ref.digest != digest || ref.lines != lines) {
      r->Fail("transcript digest differs from the default-seed reference");
    }
  }
}

void CheckNaivePrefix(const Workload& w, const Transcript& t,
                      std::size_t prefix, Report* r) {
  Result<Transcript> naive = NaivePrefix(w, prefix);
  if (!naive.ok()) {
    r->Fail("naive replay failed: " + naive.status().ToString());
  } else if (naive->prefix_lines() != t.prefix_lines()) {
    r->Fail("transcript differs from the naive-engine replay of the first " +
            std::to_string(prefix) + " batches");
  }
}

// ---- Per-layer metric set (BENCHMARK.json "per_layer", in order) -----------

struct Layers {
  double tl_parse_us = 0;
  double monitor_register_us = 0;
  double monitor_apply_us = 0;
  double monitor_unexplained_us = 0;
  double monitor_state_growth = 0;
  double monitor_ckpt_share = 0;
  double monitor_ckpt_bases = 0;
  double monitor_ckpt_deltas = 0;
  double monitor_ckpt_bytes_per_update = 0;
  double storage_validate_apply_us = 0;
  double storage_absorb_us = 0;
  double storage_encode_bytes = 0;
  double storage_domain_values_mid = 0;
  double storage_domain_values_end = 0;
  double engines_check_us = 0;
  double engines_check_max_us = 0;
  double engines_aux_valuations = 0;
  double engines_aux_anchors = 0;
  double engines_storage_rows = 0;
  double engines_shared_subplans = 0;
  double engines_violations = 0;
  double engines_relevant_frac = 0;
  double wal_share = 0;
  double wal_bytes_per_update = 0;
  double wal_append_calls = 0;
  double wal_sync_calls = 0;
  double wal_files_created = 0;
  double wal_files_removed = 0;
  double wal_rename_calls = 0;
  double wal_replayed_batches = 0;
  double wal_checkpoint_chain = 0;
  double server_share = 0;
  double server_overloaded = 0;
  double server_max_rate_within_slo = 0;
  double server_max_rate_sustained = 0;
  double trace_overhead_pct = 0;
};

void EmitLayers(const Layers& l, Report* r) {
  r->per_layer = {
      {"tl.parse_us", l.tl_parse_us, "us"},
      {"monitor.register_us", l.monitor_register_us, "us"},
      {"monitor.apply_us", l.monitor_apply_us, "us"},
      {"monitor.unexplained_us", l.monitor_unexplained_us, "us"},
      {"monitor.state_growth", l.monitor_state_growth, "ratio"},
      {"monitor.ckpt_share", l.monitor_ckpt_share, "ratio"},
      {"monitor.ckpt_bases", l.monitor_ckpt_bases, "count"},
      {"monitor.ckpt_deltas", l.monitor_ckpt_deltas, "count"},
      {"monitor.ckpt_bytes_per_update", l.monitor_ckpt_bytes_per_update,
       "bytes"},
      {"storage.validate_apply_us", l.storage_validate_apply_us, "us"},
      {"storage.absorb_us", l.storage_absorb_us, "us"},
      {"storage.encode_bytes", l.storage_encode_bytes, "bytes"},
      {"storage.domain_values_mid", l.storage_domain_values_mid, "count"},
      {"storage.domain_values_end", l.storage_domain_values_end, "count"},
      {"engines.check_us", l.engines_check_us, "us"},
      {"engines.check_max_us", l.engines_check_max_us, "us"},
      {"engines.aux_valuations", l.engines_aux_valuations, "count"},
      {"engines.aux_anchors", l.engines_aux_anchors, "count"},
      {"engines.storage_rows", l.engines_storage_rows, "count"},
      {"engines.shared_subplans", l.engines_shared_subplans, "count"},
      {"engines.violations", l.engines_violations, "count"},
      {"engines.relevant_frac", l.engines_relevant_frac, "ratio"},
      {"wal.share", l.wal_share, "ratio"},
      {"wal.bytes_per_update", l.wal_bytes_per_update, "bytes"},
      {"wal.append_calls", l.wal_append_calls, "count"},
      {"wal.sync_calls", l.wal_sync_calls, "count"},
      {"wal.files_created", l.wal_files_created, "count"},
      {"wal.files_removed", l.wal_files_removed, "count"},
      {"wal.rename_calls", l.wal_rename_calls, "count"},
      {"wal.replayed_batches", l.wal_replayed_batches, "count"},
      {"wal.checkpoint_chain", l.wal_checkpoint_chain, "count"},
      {"server.share", l.server_share, "ratio"},
      {"server.overloaded", l.server_overloaded, "count"},
      {"server.max_rate_within_slo", l.server_max_rate_within_slo, "1/s"},
      {"server.max_rate_sustained", l.server_max_rate_sustained, "1/s"},
      {"trace.overhead_pct", l.trace_overhead_pct, "%"},
  };
}

void EmitEndToEnd(double updates_per_s, double iqm, double d50,
                  double setup_s, double state_bytes, double mem_mb,
                  Report* r) {
  r->end_to_end = {
      {"updates_per_s", updates_per_s, "1/s"},
      {"apply_iqm_us", iqm, "us"},
      {"detect_p50_us", d50, "us"},
      {"setup_s", setup_s, "s"},
      {"state_bytes", state_bytes, "bytes"},
      {"mem_mb", mem_mb, "MB"},
  };
}

/// Engine counters summed over constraints, plus a per-constraint line
/// each in the notes.
void AddEngineLayers(const std::vector<ConstraintStats>& stats,
                     std::size_t transitions,
                     const std::map<std::string, double>& relevant,
                     Layers* l, Report* r) {
  double check_us = 0;
  for (const ConstraintStats& s : stats) {
    check_us += static_cast<double>(s.total_check_micros);
    l->engines_check_max_us = std::max(
        l->engines_check_max_us, static_cast<double>(s.max_check_micros));
    l->engines_aux_valuations += static_cast<double>(s.aux_valuations);
    l->engines_aux_anchors += static_cast<double>(s.aux_anchors);
    l->engines_storage_rows += static_cast<double>(s.storage_rows);
    l->engines_shared_subplans += static_cast<double>(s.shared_subplans);
    l->engines_violations += static_cast<double>(s.violations);
    const auto it = relevant.find(s.name);
    const double frac = it == relevant.end() ? 0.0 : it->second;
    char buf[320];
    std::snprintf(
        buf, sizeof(buf),
        "constraint %-28s check_us(floored)=%.3f check_max_us=%lld "
        "aux_valuations=%zu aux_anchors=%zu storage_rows=%zu "
        "shared_subplans=%zu violations=%zu relevant_frac=%.4f",
        s.name.c_str(),
        transitions == 0 ? 0.0
                         : static_cast<double>(s.total_check_micros) /
                               static_cast<double>(transitions),
        static_cast<long long>(s.max_check_micros), s.aux_valuations,
        s.aux_anchors, s.storage_rows, s.shared_subplans, s.violations, frac);
    r->notes.push_back(buf);
  }
  if (transitions > 0) {
    l->engines_check_us += check_us / static_cast<double>(transitions);
  }
}

std::map<std::string, double> RelevantFractions(const Workload& w) {
  std::map<std::string, double> out;
  for (const auto& [name, text] : w.constraints) {
    out[name] = RelevantFraction(w, ReadSet(text));
  }
  return out;
}

double MeanOf(const std::map<std::string, double>& m) {
  if (m.empty()) return 0.0;
  double sum = 0;
  for (const auto& [k, v] : m) sum += v;
  return sum / static_cast<double>(m.size());
}

void AddShadowLayers(const Workload& w, SpanLog* log, std::uint64_t base,
                     Layers* l, Report* r) {
  const ShadowStats shadow = ShadowReplay(w, log, base);
  if (!shadow.ok) r->Fail("shadow storage replay rejected a batch");
  l->storage_validate_apply_us += shadow.validate_apply_us;
  l->storage_absorb_us += shadow.absorb_us;
  l->storage_encode_bytes += shadow.encode_bytes;
  l->storage_domain_values_mid += static_cast<double>(shadow.domain_values_mid);
  l->storage_domain_values_end += static_cast<double>(shadow.domain_values_end);
}

/// Self time per span kind, one note line each.
void NoteSpans(const SpanLog& log, Report* r) {
  const SpanTotals t = Summarize(log);
  for (int k = 0; k < static_cast<int>(SpanKind::kCount); ++k) {
    if (t.calls[k] == 0) continue;
    char buf[200];
    std::snprintf(buf, sizeof(buf),
                  "span %-27s calls=%-8llu total_us=%-12.1f self_us=%.1f",
                  SpanName(static_cast<SpanKind>(k)),
                  static_cast<unsigned long long>(t.calls[k]), t.total_us[k],
                  t.self_us[k]);
    r->notes.push_back(buf);
  }
}

// ---- Closed loop: embedded and durable ---------------------------------------

/// Restricts the calling thread, and every thread it starts afterwards, to
/// the highest-numbered CPU it may run on. Returns that CPU, or -1.
int PinToOneCpu() {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0) return -1;
  for (int cpu = CPU_SETSIZE - 1; cpu >= 0; --cpu) {
    if (!CPU_ISSET(cpu, &allowed)) continue;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    return sched_setaffinity(0, sizeof(one), &one) == 0 ? cpu : -1;
  }
  return -1;
}

/// Keeps the pinned CPU from going idle for as long as it lives, and reads
/// the host speed probe while it does: a thread at SCHED_IDLE priority,
/// which yields to every other thread, spins on the CPU and runs the probe
/// every kWireProbeEveryNs. An idle virtual CPU is halted by the host and
/// woken late: a 250 us sleep_until loop on an idle vCPU measured p99
/// lateness of 2.6-4.4 ms, with the spinner 10-80 us. Only `wire` sleeps,
/// so only it uses this; on `durable` a spinner made throughput lower and
/// noisier (five seeds: median 15.6k vs 19.5k updates/s, spread 0.24 vs
/// 0.11).
class BusyProbeThread {
 public:
  /// `seconds` bounds how long it will run; room for that many readings is
  /// reserved up front, so it does not allocate while passes are timed.
  explicit BusyProbeThread(double seconds) {
    series_.Reserve(static_cast<std::size_t>(
        seconds * 1e9 / static_cast<double>(kWireProbeEveryNs)));
    thread_ = std::thread([this] {
      sched_param param{};
      pthread_setschedparam(pthread_self(), SCHED_IDLE, &param);
      SpeedProbe probe;
      std::int64_t next = NowNs();
      while (!stop_.load(std::memory_order_relaxed)) {
        if (NowNs() < next) continue;
        next += kWireProbeEveryNs;
        const double us = probe.MeasureUs();
        series_.Add(NowNs(), us);
      }
    });
  }
  ~BusyProbeThread() { Stop(); }

  /// Stops the thread; returns its readings, sorted by time.
  const SpeedSeries& Stop() {
    if (thread_.joinable()) {
      stop_.store(true);
      thread_.join();
      series_.Finish();
    }
    return series_;
  }

 private:
  std::atomic<bool> stop_{false};
  SpeedSeries series_;
  std::thread thread_;
};


/// One pass: set up a fresh monitor, apply the whole history closed-loop,
/// keep the monitor for the caller's checks.
struct Pass {
  bool traced = false;
  double register_us = 0;
  double wall_s = 0;        // timed phase (midpoint SaveState excluded)
  double apply_us_sum = 0;  // busy time inside ApplyUpdate
  std::vector<double> latency_us;
  std::vector<double> detect_us;
  // The same timings scaled to the reference host speed (hostspeed.h).
  double scaled_wall_s = 0;
  std::vector<double> scaled_latency_us;
  std::vector<double> scaled_detect_us;
  std::vector<double> probe_us;  // readings at the chunk boundaries
  std::vector<double> disk_us;   // disk probe readings there (durable)
  double heap_growth = 0;
  double rss_growth = 0;
  std::size_t state_mid = 0;
  std::string state;
  Transcript transcript{kClosedLoopNaivePrefix};
  std::vector<ConstraintStats> stats;
  CheckpointStats ckpt;
  FsCounters fs;
  std::unique_ptr<ConstraintMonitor> monitor;
};

/// Construction, tables, constraints and (durable) the empty Recover():
/// what setup_s times.
Result<std::unique_ptr<ConstraintMonitor>> SetUp(
    const Workload& w, const MonitorOptions& mo, SpanLog* log,
    double* register_us, rtic::wal::RecoveryStats* recovery = nullptr) {
  auto m = std::make_unique<ConstraintMonitor>(mo);
  RTIC_RETURN_IF_ERROR(Install(m.get(), w, log, register_us));
  if (!mo.wal_dir.empty()) {
    ScopedSpan span(log, SpanKind::kMonitorRecover);
    auto recovered = m->Recover();
    if (!recovered.ok()) return recovered.status();
    if (recovery != nullptr) *recovery = *recovered;
  }
  return m;
}

void FreshDir(const std::string& dir) {
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
  std::filesystem::create_directories(dir, ec);
}

/// `fs` and `disk` are null on the in-memory workload.
Pass RunPass(const Workload& w, const MonitorOptions& mo, CountingFs* fs,
             SpeedProbe* probe, DiskProbe* disk, SpanLog* log,
             std::uint64_t update_base, Report* r) {
  Pass p;
  p.traced = log->enabled();
  if (!mo.wal_dir.empty()) FreshDir(mo.wal_dir);
  const std::size_t n = w.batches.size();
  // Reserved up front so that the timed phase's heap growth is the
  // monitor's, not the benchmark's.
  for (auto* v : {&p.latency_us, &p.detect_us, &p.scaled_latency_us,
                  &p.scaled_detect_us}) {
    v->reserve(n);
  }
  p.probe_us.reserve(n / kChunk + 2);
  p.disk_us.reserve(n / kChunk + 2);

  auto m = SetUp(w, mo, log, &p.register_us);
  if (!m.ok()) {
    r->Fail("set-up failed: " + m.status().ToString());
    return p;
  }
  p.monitor = std::move(m).value();
  if (fs != nullptr) fs->Reset();

  const double heap0 = HeapBytesInUse();
  const double rss0 = ResidentBytes();
  std::int64_t excluded_ns = 0;
  std::int64_t chunk_excluded_ns = 0;
  std::size_t chunk_latencies = 0;  // latency_us entries before this chunk
  std::size_t chunk_detects = 0;
  auto fs_s = [&] {
    return fs == nullptr
               ? 0.0
               : (fs->counters().record_us + fs->counters().checkpoint_us) /
                     1e6;
  };
  auto read_probes = [&] {
    p.probe_us.push_back(probe->MeasureUs());
    if (disk != nullptr) p.disk_us.push_back(disk->MeasureUs());
  };
  // Mean of the readings before and after the chunk that just ended.
  auto around = [](const std::vector<double>& v) {
    return 0.5 * (v[v.size() - 2] + v.back());
  };
  read_probes();
  double chunk_fs_start = fs_s();
  std::int64_t chunk_start = NowNs();
  const std::int64_t start = chunk_start;
  // Closes the chunk that ends here: probes, then scales its timings by
  // the readings before and after it.
  auto end_chunk = [&] {
    const std::int64_t chunk_end = NowNs();
    const double io_s = fs_s() - chunk_fs_start;
    read_probes();
    const double f = SpeedFactor(kReferenceProbeUs, around(p.probe_us),
                                 kClosedLoopExponent);
    const double f_disk =
        disk == nullptr ? f
                        : SpeedFactor(kReferenceDiskProbeUs,
                                      around(p.disk_us), kDiskExponent);
    p.scaled_wall_s +=
        (Seconds(chunk_end - chunk_start - chunk_excluded_ns) - io_s) * f +
        io_s * f_disk;
    for (; chunk_latencies < p.latency_us.size(); ++chunk_latencies) {
      p.scaled_latency_us.push_back(p.latency_us[chunk_latencies] * f);
    }
    for (; chunk_detects < p.detect_us.size(); ++chunk_detects) {
      p.scaled_detect_us.push_back(p.detect_us[chunk_detects] * f);
    }
    excluded_ns += NowNs() - chunk_end;
    chunk_excluded_ns = 0;
    chunk_fs_start = fs_s();
    chunk_start = NowNs();
  };
  for (std::size_t i = 0; i < n; ++i) {
    log->set_update(update_base + i);
    const std::int64_t a = NowNs();
    Result<std::vector<rtic::Violation>> v = [&] {
      ScopedSpan span(log, SpanKind::kMonitorApply);
      return p.monitor->ApplyUpdate(w.batches[i]);
    }();
    const double us = Micros(NowNs() - a);
    ++r->attempted;
    if (!v.ok()) {
      r->Fail("ApplyUpdate failed: " + v.status().ToString());
    } else {
      p.apply_us_sum += us;
      p.latency_us.push_back(us);
      if (!v->empty()) {
        p.detect_us.push_back(us);
        p.transcript.Add(i, *v);
      }
    }
    if (i + 1 == n / 2) {
      const std::int64_t s0 = NowNs();
      auto mid = p.monitor->SaveState();
      p.state_mid = mid.ok() ? mid->size() : 0;
      chunk_excluded_ns += NowNs() - s0;
      excluded_ns += NowNs() - s0;
    }
    if ((i + 1) % kChunk == 0 || i + 1 == n) end_chunk();
  }
  p.wall_s = Seconds(NowNs() - start - excluded_ns);
  p.heap_growth = HeapBytesInUse() - heap0;
  p.rss_growth = ResidentBytes() - rss0;

  auto state = p.monitor->SaveState();
  if (!state.ok()) {
    r->Fail("SaveState failed: " + state.status().ToString());
  } else {
    p.state = std::move(state).value();
  }
  p.stats = p.monitor->Stats();
  p.ckpt = p.monitor->checkpoint_stats();
  if (fs != nullptr) p.fs = fs->counters();
  if (p.monitor->transition_count() != n) {
    r->Fail("monitor committed " +
            std::to_string(p.monitor->transition_count()) + " of " +
            std::to_string(n) + " transitions");
  }
  if (AuxValuations(p.stats) == 0) {
    r->Fail("aux valuations are zero at the end of the run");
  }
  return p;
}

template <typename F>
std::vector<double> PerPass(const std::vector<Pass>& passes, bool traced,
                            F f) {
  std::vector<double> v;
  for (const Pass& p : passes) {
    if (p.traced == traced) v.push_back(f(p));
  }
  return v;
}

/// Median of a per-pass quantity over the selected passes.
template <typename F>
double MedianOver(const std::vector<Pass>& passes, bool traced, F f) {
  return Median(PerPass(passes, traced, f));
}

double P(std::vector<double> v, double q) { return Percentile(&v, q); }

/// p50 of the first and the last tenth of a pass: how per-update cost
/// moves as history accumulates.
std::string TenthsNote(const std::vector<double>& latency_us) {
  const std::size_t tenth = latency_us.size() / 10;
  if (tenth == 0) return "";
  std::vector<double> first(latency_us.begin(), latency_us.begin() + tenth);
  std::vector<double> last(latency_us.end() - tenth, latency_us.end());
  return Fmt("apply p50 first tenth %.2f us, last tenth %.2f us (cost rises "
             "with history by design)",
             P(first, 0.5), P(last, 0.5));
}

Report RunClosedLoop(const RunOptions& o, bool durable) {
  Report r;
  const int cpu = PinToOneCpu();
  r.notes.push_back(cpu < 0 ? "not pinned: sched_setaffinity failed"
                            : Fmt("pinned to cpu %.0f",
                                  static_cast<double>(cpu)));
  const std::int64_t run_start = NowNs();
  const std::string family = durable ? "commit" : "payroll";
  const std::size_t length = durable ? kDurableLength : kEmbeddedLength;
  Result<Workload> made = MakeHistory(family, length, o.seed);
  if (!made.ok()) {
    r.Fail("workload generation failed: " + made.status().ToString());
    return r;
  }
  const Workload& w = *made;

  CountingFs fs(rtic::wal::DefaultFs());
  MonitorOptions mo;
  const std::string dir_root = o.workdir + "/" + o.workload;
  if (durable) {
    mo.wal_dir = dir_root + "/wal";
    mo.wal_fs = &fs;
    r.notes.push_back(Fmt(
        "durable monitor: sync_policy=batch checkpoint_interval=%.0f "
        "checkpoint_delta_chain=%.0f checkpoint_compression=off",
        static_cast<double>(mo.checkpoint_interval),
        static_cast<double>(mo.checkpoint_delta_chain)));
  }
  r.notes.push_back("workload: " + family +
                    Fmt(" family at default dials, %.0f transitions per "
                        "pass, closed loop, one thread",
                        static_cast<double>(length)));

  // Passes until the time budget is spent; in a traced run every other
  // pass is traced, so the untraced passes still give end-to-end numbers
  // and the difference is the tracing overhead.
  const std::int64_t budget_end =
      run_start + static_cast<std::int64_t>(o.seconds * 1e9);
  SpeedProbe probe;
  const std::string probe_dir = dir_root + "/probe";
  FreshDir(probe_dir);
  DiskProbe disk(probe_dir);
  std::vector<double> setup_samples;
  std::vector<Pass> passes;
  std::vector<double> register_samples, recover_samples;
  rtic::wal::RecoveryStats recovery_stats;
  std::int64_t longest = 0;
  for (int k = 0; k < kMinPasses || NowNs() + longest <= budget_end; ++k) {
    const std::int64_t pass_start = NowNs();
    // Set-up cost: a burst of back-to-back set-ups before every pass, so
    // the samples span the whole run.
    const double setup_scale = SpeedFactor(
        kReferenceProbeUs, probe.MeasureUs(), kClosedLoopExponent);
    for (int j = 0; j < kSetupsPerPass; ++j) {
      if (durable) FreshDir(mo.wal_dir);
      const std::int64_t t0 = NowNs();
      auto m = SetUp(w, mo, nullptr, nullptr);
      setup_samples.push_back(Seconds(NowNs() - t0) * setup_scale);
      if (!m.ok()) r.Fail("set-up failed: " + m.status().ToString());
    }
    SpanLog log(o.trace && k % 2 == 1);
    fs.set_log(&log);
    Pass p = RunPass(w, mo, durable ? &fs : nullptr, &probe,
                     durable ? &disk : nullptr, &log,
                     static_cast<std::uint64_t>(k) << 32, &r);
    register_samples.push_back(p.register_us /
                               static_cast<double>(w.constraints.size()));
    if (!passes.empty() && !(p.transcript == passes.front().transcript &&
                             p.state == passes.front().state)) {
      r.Fail("pass " + std::to_string(k) + " diverged from pass 0");
    }
    if (durable && p.monitor != nullptr) {
      const std::size_t live_transitions = p.monitor->transition_count();
      p.monitor.reset();  // clean shutdown
      for (int j = 0; j < kReopenings; ++j) {
        const std::int64_t t0 = NowNs();
        auto reopened = SetUp(w, mo, &log, nullptr, &recovery_stats);
        recover_samples.push_back(Seconds(NowNs() - t0));
        if (!reopened.ok()) {
          r.Fail("reopen failed: " + reopened.status().ToString());
          break;
        }
        auto saved = (*reopened)->SaveState();
        if ((*reopened)->transition_count() != live_transitions ||
            !saved.ok() || *saved != p.state) {
          r.Fail("reopened monitor differs from the live one");
        }
      }
    }
    p.monitor.reset();
    fs.set_log(nullptr);
    if (log.enabled()) r.spans.Append(log);
    passes.push_back(std::move(p));
    longest = std::max(longest, NowNs() - pass_start);
  }
  std::error_code ec;
  std::filesystem::remove_all(dir_root, ec);

  // Oracles: naive-engine prefix and the default-seed reference.
  const Pass& first = passes.front();
  CheckNaivePrefix(w, first.transcript, kClosedLoopNaivePrefix, &r);
  CheckReference(o.workload, o.seed, first.transcript.digest(),
                 first.transcript.lines(), &r);

  // End-to-end, from untraced passes: timings scaled to the reference host
  // speed (hostspeed.h), median over passes; set-up time is the median of
  // all the scaled set-up samples.
  const double n = static_cast<double>(w.batches.size());
  auto ups = [&](const Pass& p) { return n / p.wall_s; };
  auto mean = [&](const Pass& p) { return p.apply_us_sum / n; };
  auto p50 = [](const Pass& p) { return P(p.latency_us, 0.50); };
  auto p99 = [](const Pass& p) { return P(p.latency_us, 0.99); };
  auto scaled_ups = [&](const Pass& p) { return n / p.scaled_wall_s; };
  auto scaled_iqm = [](const Pass& p) {
    std::vector<double> v = p.scaled_latency_us;
    return InterquartileMean(&v);
  };
  auto scaled_d50 = [](const Pass& p) { return P(p.scaled_detect_us, 0.50); };
  auto probe_p50 = [](const Pass& p) { return P(p.probe_us, 0.50); };
  auto mem = [](const Pass& p) { return p.heap_growth / 1e6; };
  EmitEndToEnd(MedianOver(passes, false, scaled_ups),
               MedianOver(passes, false, scaled_iqm),
               MedianOver(passes, false, scaled_d50), Median(setup_samples),
               static_cast<double>(first.state.size()),
               MedianOver(passes, false, mem), &r);

  r.notes.push_back(Fmt("passes: %.0f (%.0f traced), %.0f updates each",
                        static_cast<double>(passes.size()),
                        static_cast<double>(std::count_if(
                            passes.begin(), passes.end(),
                            [](const Pass& p) { return p.traced; })),
                        n));
  r.notes.push_back(Fmt("samples per pass: %.0f applies, %.0f detections",
                        static_cast<double>(first.latency_us.size()),
                        static_cast<double>(first.detect_us.size())));
  r.notes.push_back(TenthsNote(first.latency_us));
  std::string per_pass =
      durable ? "per pass (updates/s raw and scaled, probe p50 us, apply IQM "
                "us scaled, disk probe p50 us):"
              : "per pass (updates/s raw and scaled, probe p50 us, apply IQM "
                "us scaled):";
  for (const Pass& p : passes) {
    per_pass += Fmt(" [%.0f %.0f", ups(p), scaled_ups(p));
    per_pass += Fmt(" %.1f %.2f", probe_p50(p), scaled_iqm(p));
    per_pass += durable ? Fmt(" %.0f]", P(p.disk_us, 0.50)) : "]";
  }
  r.notes.push_back(per_pass);

  r.detail.push_back({"error_rate",
                      static_cast<double>(r.failed) /
                          static_cast<double>(std::max<std::uint64_t>(
                              r.attempted, 1)),
                      "ratio"});
  r.detail.push_back({"apply_mean_us", MedianOver(passes, false, mean), "us"});
  r.detail.push_back({"apply_p50_us", MedianOver(passes, false, p50), "us"});
  r.detail.push_back({"apply_p99_us", MedianOver(passes, false, p99), "us"});
  r.detail.push_back({"rss_growth_mb", first.rss_growth / 1e6, "MB"});
  if (durable) {
    r.detail.push_back({"recover_s", Median(recover_samples), "s"});
    r.detail.push_back({"write_bytes_per_update",
                        static_cast<double>(first.fs.append_bytes) / n,
                        "bytes"});
  }

  if (!o.trace) return r;

  // Per-layer, from the traced pass with the median wall time.
  std::vector<const Pass*> traced_passes;
  for (const Pass& p : passes) {
    if (p.traced) traced_passes.push_back(&p);
  }
  std::sort(traced_passes.begin(), traced_passes.end(),
            [](const Pass* a, const Pass* b) { return a->wall_s < b->wall_s; });
  const Pass* traced = traced_passes[traced_passes.size() / 2];
  Layers l;
  SpanLog tl_log(true);
  l.tl_parse_us = ParseAnalyzeMicros(w, 25, &tl_log);
  r.spans.Append(tl_log);
  l.monitor_register_us = Median(register_samples);
  l.monitor_apply_us = traced->apply_us_sum / n;
  const std::map<std::string, double> relevant = RelevantFractions(w);
  AddEngineLayers(traced->stats, w.batches.size(), relevant, &l, &r);
  l.engines_relevant_frac = MeanOf(relevant);
  l.monitor_unexplained_us =
      (traced->apply_us_sum - traced->fs.record_us -
       static_cast<double>(traced->ckpt.total_micros)) / n -
      l.engines_check_us;
  l.monitor_state_growth = traced->state_mid == 0
                               ? 0.0
                               : static_cast<double>(traced->state.size()) /
                                     static_cast<double>(traced->state_mid);
  l.monitor_ckpt_share =
      static_cast<double>(traced->ckpt.total_micros) / traced->apply_us_sum;
  l.monitor_ckpt_bases = static_cast<double>(traced->ckpt.bases);
  l.monitor_ckpt_deltas = static_cast<double>(traced->ckpt.deltas);
  l.monitor_ckpt_bytes_per_update =
      static_cast<double>(traced->ckpt.base_bytes + traced->ckpt.delta_bytes) /
      n;
  SpanLog shadow_log(true);
  AddShadowLayers(w, &shadow_log, 1ull << 40, &l, &r);
  r.spans.Append(shadow_log);
  l.wal_share =
      (traced->fs.record_us + traced->fs.checkpoint_us) / traced->apply_us_sum;
  l.wal_bytes_per_update = static_cast<double>(traced->fs.append_bytes) / n;
  l.wal_append_calls = static_cast<double>(traced->fs.append_calls);
  l.wal_sync_calls = static_cast<double>(traced->fs.sync_calls);
  l.wal_files_created = static_cast<double>(traced->fs.files_created);
  l.wal_files_removed = static_cast<double>(traced->fs.files_removed);
  l.wal_rename_calls = static_cast<double>(traced->fs.rename_calls);
  l.wal_replayed_batches = static_cast<double>(recovery_stats.replayed_batches);
  l.wal_checkpoint_chain = static_cast<double>(recovery_stats.checkpoint_chain);
  const double untraced_mean = MedianOver(
      passes, false, [](const Pass& p) { return p.wall_s; });
  const double traced_mean =
      MedianOver(passes, true, [](const Pass& p) { return p.wall_s; });
  l.trace_overhead_pct = 100.0 * (traced_mean - untraced_mean) / untraced_mean;

  if (durable) {
    const FsCounters& f = traced->fs;
    r.detail.push_back({"wal.append_us",
                        f.append_calls ? f.append_us / f.append_calls : 0,
                        "us"});
    r.detail.push_back(
        {"wal.sync_us", f.sync_calls ? f.sync_us / f.sync_calls : 0, "us"});
    r.detail.push_back({"wal.record_us_per_update", f.record_us / n, "us"});
    const double ckpts =
        static_cast<double>(traced->ckpt.bases + traced->ckpt.deltas);
    r.detail.push_back(
        {"monitor.ckpt_us",
         ckpts > 0 ? static_cast<double>(traced->ckpt.total_micros) / ckpts
                   : 0,
         "us"});
    r.detail.push_back({"monitor.ckpt_max_us",
                        static_cast<double>(traced->ckpt.max_micros), "us"});
    r.detail.push_back(
        {"wal.recover_us", Median(recover_samples) * 1e6, "us"});
  }
  NoteSpans(r.spans, &r);
  EmitLayers(l, &r);
  return r;
}


// ---- Open loop: wire -----------------------------------------------------------

/// One tenant: its own history, arrival schedule and connection, plus the
/// library replay of the same history that its verdicts must match.
struct Tenant {
  std::string name;
  Workload w;
  std::vector<double> schedule;  // offsets in seconds from the phase start
  Transcript replay{kWireNaivePrefix};
  std::vector<double> replay_us;  // library ApplyUpdate time per batch
  std::size_t state_mid = 0;
  std::size_t state_end = 0;
  std::vector<ConstraintStats> replay_stats;
};

/// What one paced sender saw. Sleep wake-ups can arrive milliseconds late
/// on a virtual machine, so besides the raw due->verdict times the sender
/// keeps the times a punctual sender would see with the same round trips:
/// each request starts at max(due, previous verdict) and takes its measured
/// round trip. That keeps the wait behind a slow earlier request (backlog)
/// and drops only the generator's own lateness, which `lag_us` reports.
struct Sent {
  std::vector<double> from_due_us;      // punctual sender: due -> verdict
  std::vector<double> raw_from_due_us;  // as measured: due -> verdict
  std::vector<double> rtt_us;           // actual send -> verdict
  std::vector<double> lag_us;           // due -> actual send
  std::vector<double> wait_us;          // punctual sender: due -> send
  std::vector<double> detect_us;        // from_due_us of violating batches
  std::vector<std::int64_t> from_due_at_ns;  // send time per from_due_us
  std::vector<std::int64_t> detect_at_ns;    // send time per detect_us
  Transcript transcript{kWireNaivePrefix};
  std::size_t accepted = 0;
  std::size_t overloaded = 0;
  std::string error;
  std::int64_t last_done_ns = 0;
  SpanLog log;
};

Result<Tenant> MakeTenant(const std::string& family, const std::string& name,
                          std::size_t length, double rate,
                          std::uint64_t seed) {
  std::map<std::string, double> dials;
  if (family == "freshness") dials["decommission_prob"] = 0;
  Result<Workload> w = MakeHistory(family, length, seed, dials);
  if (!w.ok()) return w.status();
  Tenant t;
  t.name = name;
  t.w = std::move(w).value();
  rtic::workload::DriverOptions arrivals;
  arrivals.rate_per_sec = rate;
  arrivals.seed = seed ^ 0x9e3779b97f4a7c15ULL;
  t.schedule = rtic::workload::ArrivalSchedule(t.w.batches.size(), arrivals);
  return t;
}

/// Replays a tenant's history through an in-process monitor: the oracle
/// for its wire verdicts and the library-side cost of the same updates.
Status ReplayTenant(Tenant* t, SpanLog* log, std::uint64_t update_base) {
  ConstraintMonitor m;
  RTIC_RETURN_IF_ERROR(Install(&m, t->w, nullptr, nullptr));
  const std::size_t n = t->w.batches.size();
  t->replay_us.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    log->set_update(update_base + i);
    const std::int64_t a = NowNs();
    Result<std::vector<rtic::Violation>> v = [&] {
      ScopedSpan span(log, SpanKind::kMonitorApply);
      return m.ApplyUpdate(t->w.batches[i]);
    }();
    t->replay_us.push_back(Micros(NowNs() - a));
    if (!v.ok()) return v.status();
    t->replay.Add(i, *v);
    if (i + 1 == n / 2) {
      auto mid = m.SaveState();
      if (mid.ok()) t->state_mid = mid->size();
    }
  }
  auto end = m.SaveState();
  if (!end.ok()) return end.status();
  t->state_end = end->size();
  t->replay_stats = m.Stats();
  return Status::OK();
}

/// Sends a tenant's history on its own connection, each batch at its due
/// time (never early, never retried), timing every verdict from due.
void PacedSend(rtic::server::RticClient* client, const Tenant& t,
               std::int64_t start_ns, std::uint64_t update_base, Sent* out) {
  // The default 50 us timer slack would show up as generator lag.
  prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
  const std::size_t n = t.w.batches.size();
  double punctual_done_us = 0;  // offsets from start_ns
  for (std::size_t i = 0; i < n; ++i) {
    const double due_us = t.schedule[i] * 1e6;
    const std::int64_t due =
        start_ns + static_cast<std::int64_t>(std::llround(due_us * 1e3));
    if (NowNs() < due) {
      std::this_thread::sleep_until(Clock::time_point(
          std::chrono::duration_cast<Clock::duration>(
              std::chrono::nanoseconds(due))));
    }
    out->log.set_update(update_base + i);
    const std::int64_t sent = NowNs();
    auto applied = [&] {
      ScopedSpan span(&out->log, SpanKind::kServerApply);
      return client->Apply(t.w.batches[i]);
    }();
    const std::int64_t done = NowNs();
    out->last_done_ns = done;
    if (!applied.ok()) {
      out->error = applied.status().ToString();
      return;
    }
    const double rtt = Micros(done - sent);
    const double start_us = std::max(due_us, punctual_done_us);
    punctual_done_us = start_us + rtt;
    out->lag_us.push_back(Micros(sent - due));
    out->wait_us.push_back(start_us - due_us);
    if (applied->overloaded) {
      // A refusal misses any latency limit.
      ++out->overloaded;
      out->from_due_us.push_back(1e12);
      out->from_due_at_ns.push_back(sent);
      out->raw_from_due_us.push_back(1e12);
      continue;
    }
    ++out->accepted;
    const double from_due = punctual_done_us - due_us;
    out->from_due_us.push_back(from_due);
    out->from_due_at_ns.push_back(sent);
    out->raw_from_due_us.push_back(Micros(done - due));
    out->rtt_us.push_back(rtt);
    if (!applied->violations.empty()) {
      out->detect_us.push_back(from_due);
      out->detect_at_ns.push_back(sent);
      out->transcript.Add(i, applied->violations);
    }
  }
}

/// A server with one connected, installed client per tenant.
struct Fleet {
  std::unique_ptr<rtic::server::RticServer> server;
  std::vector<std::unique_ptr<rtic::server::RticClient>> clients;

  ~Fleet() {
    for (auto& c : clients) c->Close();
    if (server != nullptr) server->Stop();
  }
};

Status Connect(rtic::server::RticServer* server,
               const std::vector<Tenant>& tenants, SpanLog* log,
               std::vector<std::unique_ptr<rtic::server::RticClient>>* out) {
  for (const Tenant& t : tenants) {
    auto client = rtic::server::RticClient::Connect(server->address(), t.name);
    if (!client.ok()) return client.status();
    for (const auto& [table, schema] : t.w.schema) {
      RTIC_RETURN_IF_ERROR((*client)->CreateTable(table, schema));
    }
    for (const auto& [name, text] : t.w.constraints) {
      ScopedSpan span(log, SpanKind::kServerRegister);
      RTIC_RETURN_IF_ERROR((*client)->RegisterConstraint(name, text));
    }
    out->push_back(std::move(client).value());
  }
  return Status::OK();
}

/// Server start plus connect-and-install of every tenant: what setup_s
/// times on this workload.
Status StartFleet(const std::vector<Tenant>& tenants, SpanLog* log,
                  Fleet* fleet) {
  auto server = rtic::server::RticServer::Start(rtic::server::ServerOptions{});
  if (!server.ok()) return server.status();
  fleet->server = std::move(server).value();
  return Connect(fleet->server.get(), tenants, log, &fleet->clients);
}

/// One Sent per tenant, with its sample buffers allocated up front so the
/// timed phase's heap growth is the server's, not the benchmark's.
std::vector<Sent> MakeSent(const std::vector<Tenant>& tenants, bool traced) {
  std::vector<Sent> sent(tenants.size());
  for (std::size_t k = 0; k < tenants.size(); ++k) {
    sent[k].log.set_enabled(traced);
    for (auto* v : {&sent[k].from_due_us, &sent[k].raw_from_due_us,
                    &sent[k].rtt_us, &sent[k].lag_us, &sent[k].wait_us,
                    &sent[k].detect_us}) {
      v->reserve(tenants[k].w.batches.size());
    }
    sent[k].from_due_at_ns.reserve(tenants[k].w.batches.size());
    sent[k].detect_at_ns.reserve(tenants[k].w.batches.size());
  }
  return sent;
}

/// Drives every tenant concurrently, one sender thread each, and checks
/// each tenant's verdicts and server-side transition count.
void DriveTenants(const std::vector<Tenant>& tenants,
                  std::vector<std::unique_ptr<rtic::server::RticClient>>&
                      clients,
                  std::uint64_t update_base, std::int64_t* start_ns,
                  std::vector<Sent>* sent_out, Report* r) {
  std::vector<Sent>& sent = *sent_out;
  *start_ns = NowNs() + 2'000'000;  // every sender starts on the same clock
  std::vector<std::thread> threads;
  for (std::size_t k = 0; k < tenants.size(); ++k) {
    threads.emplace_back(PacedSend, clients[k].get(), std::cref(tenants[k]),
                         *start_ns, update_base + (k << 24), &sent[k]);
  }
  for (std::thread& t : threads) t.join();
  for (std::size_t k = 0; k < tenants.size(); ++k) {
    const Tenant& t = tenants[k];
    Sent& s = sent[k];
    r->attempted += t.w.batches.size();
    if (!s.error.empty()) {
      r->Fail(t.name + ": " + s.error);
      continue;
    }
    // One synchronous client per tenant keeps at most one request per
    // tenant in flight, below the server's per-tenant queue, so this
    // traffic cannot be refused; a refusal would be a server fault.
    for (std::size_t i = 0; i < s.overloaded; ++i) {
      r->Fail(t.name + ": OVERLOADED");
    }
    if (!(s.transcript == t.replay) ||
        s.transcript.prefix_lines() != t.replay.prefix_lines()) {
      r->Fail(t.name + ": wire transcript differs from the library replay");
    }
    auto stats = clients[k]->GetStats();
    if (!stats.ok()) {
      r->Fail(t.name + ": GetStats failed: " + stats.status().ToString());
      continue;
    }
    if (stats->transition_count != s.accepted) {
      r->Fail(t.name + ": server transition_count != accepted");
    }
    std::uint64_t aux = 0;
    for (const auto& c : stats->constraints) aux += c.aux_valuations;
    if (aux == 0) r->Fail(t.name + ": aux valuations are zero at the end");
  }
}

template <typename T>
std::vector<T> Pool(const std::vector<Sent>& sent, std::vector<T> Sent::*field) {
  std::vector<T> out;
  for (const Sent& s : sent) {
    out.insert(out.end(), (s.*field).begin(), (s.*field).end());
  }
  return out;
}

/// Median punctual-sender wait of the last quarter minus the first quarter
/// of a sender's run: positive and large when a backlog builds.
double BacklogGrowth(const Sent& s) {
  const std::size_t q = s.wait_us.size() / 4;
  if (q == 0) return 0.0;
  std::vector<double> head(s.wait_us.begin(), s.wait_us.begin() + q);
  std::vector<double> tail(s.wait_us.end() - q, s.wait_us.end());
  return Median(std::move(tail)) - Median(std::move(head));
}

struct WirePass {
  bool traced = false;
  double updates_per_s = 0;
  double mean = 0, iqm = 0, p50 = 0, p99 = 0, d50 = 0;
  double rtt_p50 = 0, rtt_p99 = 0, lag_p99 = 0;
  double raw_p50 = 0, raw_p99 = 0;
  double overhead_p50 = 0;  // RTT minus library apply, per update
  double heap_growth = 0;
  std::size_t samples = 0, detections = 0;
  // From-due timings with their send times, for host speed scaling once
  // the run's probe readings are all in.
  std::vector<double> from_due_us, detect_us;
  std::vector<std::int64_t> from_due_at_ns, detect_at_ns;
  double scaled_iqm = 0, scaled_d50 = 0;
};

Report RunOpenLoop(const RunOptions& o) {
  Report r;
  // Server threads and senders share one CPU, so a round trip is the
  // server's own work and same-CPU context switches rather than the
  // virtual machine's cross-CPU wake-up latency, which swung the round
  // trip 2x between back-to-back runs.
  const int cpu = PinToOneCpu();
  BusyProbeThread busy(o.seconds + 120);
  r.notes.push_back(cpu < 0 ? "not pinned: sched_setaffinity failed"
                            : Fmt("server and senders pinned to cpu %.0f, "
                                  "kept busy by an idle-priority probe thread",
                                  static_cast<double>(cpu)));
  const std::int64_t run_start = NowNs();
  const std::size_t length =
      static_cast<std::size_t>(kWireRate * kWirePassSeconds);
  std::vector<Tenant> tenants;
  for (std::size_t k = 0; k < std::size(kWireFamilies); ++k) {
    auto t = MakeTenant(kWireFamilies[k], kWireFamilies[k], length, kWireRate,
                        o.seed * 1000 + k);
    if (!t.ok()) {
      r.Fail("workload generation failed: " + t.status().ToString());
      return r;
    }
    tenants.push_back(std::move(t).value());
  }
  SpanLog replay_log(o.trace);
  for (std::size_t k = 0; k < tenants.size(); ++k) {
    Status s = ReplayTenant(&tenants[k], &replay_log, (1ull << 40) + (k << 24));
    if (!s.ok()) r.Fail("library replay failed: " + s.ToString());
    CheckNaivePrefix(tenants[k].w, tenants[k].replay, kWireNaivePrefix, &r);
  }
  r.notes.push_back(Fmt(
      "workload: 3 in-memory tenants (alarm, library, freshness with "
      "decommission_prob=0), one connection, sender thread and history "
      "each; Poisson open loop at %.0f updates/s per tenant, %.0f per "
      "tenant per pass",
      kWireRate, static_cast<double>(length)));

  // Fixed-rate passes, then the rate ladder, within the time budget.
  const double ladder_budget =
      static_cast<double>(std::size(kLadder)) * (kRungSeconds + 0.1);
  const std::int64_t budget_end =
      run_start +
      static_cast<std::int64_t>((o.seconds - ladder_budget) * 1e9);
  std::vector<std::pair<std::int64_t, double>> setup_samples;  // (at, s)
  std::vector<WirePass> passes;
  std::int64_t longest = 0;
  for (int k = 0; k < kMinPasses || NowNs() + longest <= budget_end; ++k) {
    const std::int64_t pass_start = NowNs();
    // Set-up cost: a burst of back-to-back server starts before every
    // pass, so the samples span the whole run.
    for (int j = 0; j < kSetupsPerPass; ++j) {
      Fleet fleet;
      const std::int64_t t0 = NowNs();
      Status started = StartFleet(tenants, nullptr, &fleet);
      setup_samples.emplace_back(t0, Seconds(NowNs() - t0));
      if (!started.ok()) r.Fail("server set-up failed: " + started.ToString());
    }
    WirePass p;
    p.traced = o.trace && k % 2 == 1;
    SpanLog setup_log(p.traced);
    Fleet fleet;
    Status started = StartFleet(tenants, &setup_log, &fleet);
    if (!started.ok()) {
      r.Fail("server set-up failed: " + started.ToString());
      break;
    }
    std::vector<Sent> sent = MakeSent(tenants, p.traced);
    const double heap0 = HeapBytesInUse();
    std::int64_t start_ns = 0;
    DriveTenants(tenants, fleet.clients, static_cast<std::uint64_t>(k) << 32,
                 &start_ns, &sent, &r);
    p.heap_growth = HeapBytesInUse() - heap0;
    std::int64_t last_done = start_ns;
    std::size_t accepted = 0;
    for (const Sent& s : sent) {
      last_done = std::max(last_done, s.last_done_ns);
      accepted += s.accepted;
    }
    p.updates_per_s =
        static_cast<double>(accepted) / Seconds(last_done - start_ns);
    std::vector<double> from_due = Pool(sent, &Sent::from_due_us);
    std::vector<double> detect = Pool(sent, &Sent::detect_us);
    std::vector<double> rtt = Pool(sent, &Sent::rtt_us);
    std::vector<double> lag = Pool(sent, &Sent::lag_us);
    std::vector<double> raw = Pool(sent, &Sent::raw_from_due_us);
    p.from_due_us = from_due;
    p.detect_us = detect;
    p.from_due_at_ns = Pool(sent, &Sent::from_due_at_ns);
    p.detect_at_ns = Pool(sent, &Sent::detect_at_ns);
    p.raw_p50 = Percentile(&raw, 0.50);
    p.raw_p99 = Percentile(&raw, 0.99);
    p.samples = from_due.size();
    p.detections = detect.size();
    double sum = 0;
    for (double v : from_due) sum += v;
    p.mean = from_due.empty() ? 0.0 : sum / static_cast<double>(from_due.size());
    p.iqm = InterquartileMean(&from_due);
    p.p50 = Percentile(&from_due, 0.50);
    p.p99 = Percentile(&from_due, 0.99);
    p.d50 = Percentile(&detect, 0.50);
    p.rtt_p50 = Percentile(&rtt, 0.50);
    p.rtt_p99 = Percentile(&rtt, 0.99);
    p.lag_p99 = Percentile(&lag, 0.99);
    std::vector<double> overhead;
    for (std::size_t t = 0; t < tenants.size(); ++t) {
      if (sent[t].rtt_us.size() != tenants[t].replay_us.size()) continue;
      for (std::size_t i = 0; i < sent[t].rtt_us.size(); ++i) {
        overhead.push_back(sent[t].rtt_us[i] - tenants[t].replay_us[i]);
      }
    }
    p.overhead_p50 = Median(std::move(overhead));
    if (p.traced) {
      r.spans.Append(setup_log);
      for (const Sent& s : sent) r.spans.Append(s.log);
    }
    passes.push_back(p);
    longest = std::max(longest, NowNs() - pass_start);
  }
  // Rate ladder: fresh tenants per rung on one server. A rung without
  // refusals whose backlog does not grow is sustained; the ladder stops at
  // the first rung that is not. max_rate_within_slo is the highest
  // sustained rung whose p99 from due also stays within the SLO.
  double max_rate = 0;
  double max_sustained = 0;
  std::size_t ladder_overloaded = 0;
  {
    Fleet fleet;
    auto server =
        rtic::server::RticServer::Start(rtic::server::ServerOptions{});
    if (!server.ok()) {
      r.Fail("ladder server failed: " + server.status().ToString());
    } else {
      fleet.server = std::move(server).value();
    }
    for (std::size_t rung = 0;
         fleet.server != nullptr && rung < std::size(kLadder); ++rung) {
      const double rate = kLadder[rung];
      const std::size_t n = static_cast<std::size_t>(rate * kRungSeconds);
      std::vector<Tenant> rung_tenants;
      SpanLog none(false);
      for (std::size_t k = 0; k < std::size(kWireFamilies); ++k) {
        auto t = MakeTenant(kWireFamilies[k],
                            std::string(kWireFamilies[k]) + "-" +
                                std::to_string(static_cast<int>(rate)),
                            n, rate, o.seed * 1000 + 10 * (rung + 1) + k);
        if (!t.ok() || !ReplayTenant(&*t, &none, 0).ok()) {
          r.Fail("ladder workload failed");
          break;
        }
        rung_tenants.push_back(std::move(t).value());
      }
      std::vector<std::unique_ptr<rtic::server::RticClient>> clients;
      Status connected =
          Connect(fleet.server.get(), rung_tenants, nullptr, &clients);
      if (!connected.ok()) {
        r.Fail("ladder connect failed: " + connected.ToString());
        break;
      }
      std::int64_t start_ns = 0;
      std::vector<Sent> sent = MakeSent(rung_tenants, false);
      DriveTenants(rung_tenants, clients, 0, &start_ns, &sent, &r);
      for (auto& c : clients) c->Close();
      std::vector<double> from_due = Pool(sent, &Sent::from_due_us);
      std::vector<double> lag = Pool(sent, &Sent::lag_us);
      std::vector<double> raw = Pool(sent, &Sent::raw_from_due_us);
      double growth = 0;
      std::size_t overloaded = 0;
      for (const Sent& s : sent) {
        growth = std::max(growth, BacklogGrowth(s));
        overloaded += s.overloaded;
      }
      ladder_overloaded += overloaded;
      const double p99 = Percentile(&from_due, 0.99);
      const bool sustained =
          overloaded == 0 && growth <= kBacklogGrowthMicros;
      const bool within = sustained && p99 <= kSloMicros;
      char buf[200];
      std::snprintf(buf, sizeof(buf),
                    "ladder %6.0f/s per tenant: p99 from due %.1f us (raw "
                    "%.1f us), lag p99 %.1f us, backlog growth %.1f us, "
                    "overloaded %zu -> %s",
                    rate, p99, Percentile(&raw, 0.99),
                    Percentile(&lag, 0.99), growth, overloaded,
                    !sustained ? "backlog"
                               : within ? "within SLO" : "misses SLO");
      r.notes.push_back(buf);
      if (!sustained) break;
      max_sustained = rate;
      if (within) max_rate = rate;
    }
  }

  // Timings scaled to the reference host speed (hostspeed.h) by the probe
  // readings taken around each update's send.
  const SpeedSeries& speed = busy.Stop();
  auto scaled = [&](const std::vector<double>& us,
                    const std::vector<std::int64_t>& at_ns) {
    std::vector<double> out(us.size());
    for (std::size_t i = 0; i < us.size(); ++i) {
      out[i] = us[i] *
               speed.FactorAt(at_ns[i], kWireProbeWindowNs, kWireExponent);
    }
    return out;
  };
  for (WirePass& p : passes) {
    std::vector<double> from_due = scaled(p.from_due_us, p.from_due_at_ns);
    std::vector<double> detect = scaled(p.detect_us, p.detect_at_ns);
    p.scaled_iqm = InterquartileMean(&from_due);
    p.scaled_d50 = Percentile(&detect, 0.50);
  }
  std::vector<double> scaled_setup;
  for (const auto& [at, seconds] : setup_samples) {
    scaled_setup.push_back(
        seconds * speed.FactorAt(at, kWireProbeWindowNs, kWireExponent));
  }

  // End-to-end, from untraced passes, median over them.
  auto per_pass = [&](auto f) {
    std::vector<double> v;
    for (const WirePass& p : passes) {
      if (!p.traced) v.push_back(f(p));
    }
    return v;
  };
  auto med = [&](auto f) { return Median(per_pass(f)); };
  double state_bytes = 0, state_mid = 0;
  for (const Tenant& t : tenants) {
    state_bytes += static_cast<double>(t.state_end);
    state_mid += static_cast<double>(t.state_mid);
  }
  EmitEndToEnd(med([](const WirePass& p) { return p.updates_per_s; }),
               med([](const WirePass& p) { return p.scaled_iqm; }),
               med([](const WirePass& p) { return p.scaled_d50; }),
               Median(scaled_setup), state_bytes,
               med([](const WirePass& p) { return p.heap_growth / 1e6; }), &r);

  std::uint64_t digest = 0;
  std::size_t lines = 0;
  for (const Tenant& t : tenants) {
    digest = digest * 1099511628211ULL ^ t.replay.digest();
    lines += t.replay.lines();
  }
  CheckReference(o.workload, o.seed, digest, lines, &r);
  r.notes.push_back(Fmt("passes: %.0f (%.0f traced); samples per pass: %.0f",
                        static_cast<double>(passes.size()),
                        static_cast<double>(std::count_if(
                            passes.begin(), passes.end(),
                            [](const WirePass& p) { return p.traced; })),
                        static_cast<double>(passes.front().samples)));
  r.notes.push_back(Fmt("detections per pass: %.0f",
                        static_cast<double>(passes.front().detections)));
  r.notes.push_back(Fmt("probe readings: %.0f, median %.1f us",
                        static_cast<double>(speed.size()), speed.MedianUs()));
  std::string pass_note =
      "per pass (iqm us raw and scaled, rtt p50 us, lag p99 us):";
  for (const WirePass& p : passes) {
    pass_note += Fmt(" [%.1f %.1f", p.iqm, p.scaled_iqm);
    pass_note += Fmt(" %.1f %.0f]", p.rtt_p50, p.lag_p99);
  }
  r.notes.push_back(pass_note);
  r.detail.push_back({"error_rate",
                      static_cast<double>(r.failed) /
                          static_cast<double>(std::max<std::uint64_t>(
                              r.attempted, 1)),
                      "ratio"});
  r.detail.push_back(
      {"apply_mean_us", med([](const WirePass& p) { return p.mean; }), "us"});
  r.detail.push_back(
      {"apply_p50_us", med([](const WirePass& p) { return p.p50; }), "us"});
  r.detail.push_back(
      {"apply_p99_us", med([](const WirePass& p) { return p.p99; }), "us"});
  r.detail.push_back({"max_rate_within_slo", max_rate, "1/s"});
  r.detail.push_back({"max_rate_sustained", max_sustained, "1/s"});
  r.detail.push_back(
      {"server.rtt_p50_us", med([](const WirePass& p) { return p.rtt_p50; }),
       "us"});
  r.detail.push_back(
      {"server.rtt_p99_us", med([](const WirePass& p) { return p.rtt_p99; }),
       "us"});
  r.detail.push_back({"server.wire_overhead_us",
                      med([](const WirePass& p) { return p.overhead_p50; }),
                      "us"});
  r.detail.push_back(
      {"driver.lag_p99_us", med([](const WirePass& p) { return p.lag_p99; }),
       "us"});
  r.detail.push_back({"driver.raw_from_due_p50_us",
                      med([](const WirePass& p) { return p.raw_p50; }), "us"});
  r.detail.push_back({"driver.raw_from_due_p99_us",
                      med([](const WirePass& p) { return p.raw_p99; }), "us"});

  if (!o.trace) return r;

  Layers l;
  SpanLog tl_log(true);
  double parse_us = 0, apply_sum = 0, n_sum = 0;
  for (const Tenant& t : tenants) {
    parse_us += ParseAnalyzeMicros(t.w, 25, &tl_log) / tenants.size();
  }
  r.spans.Append(tl_log);
  r.spans.Append(replay_log);
  l.tl_parse_us = parse_us;
  SpanLog shadow_log(true);
  std::size_t transitions = 0;
  std::map<std::string, double> relevant_all;
  std::vector<double> register_us;
  for (std::size_t k = 0; k < tenants.size(); ++k) {
    const Tenant& t = tenants[k];
    for (double us : t.replay_us) apply_sum += us;
    n_sum += static_cast<double>(t.replay_us.size());
    transitions += t.w.batches.size();
    std::map<std::string, double> relevant = RelevantFractions(t.w);
    relevant_all.insert(relevant.begin(), relevant.end());
    Layers part;
    AddEngineLayers(t.replay_stats, t.w.batches.size(), relevant, &part, &r);
    l.engines_aux_valuations += part.engines_aux_valuations;
    l.engines_aux_anchors += part.engines_aux_anchors;
    l.engines_storage_rows += part.engines_storage_rows;
    l.engines_shared_subplans += part.engines_shared_subplans;
    l.engines_violations += part.engines_violations;
    l.engines_check_max_us =
        std::max(l.engines_check_max_us, part.engines_check_max_us);
    for (const ConstraintStats& s : t.replay_stats) {
      l.engines_check_us += static_cast<double>(s.total_check_micros);
    }
    Layers shadow;
    AddShadowLayers(t.w, &shadow_log, (2ull << 40) + (k << 24), &shadow, &r);
    l.storage_validate_apply_us += shadow.storage_validate_apply_us / 3;
    l.storage_absorb_us += shadow.storage_absorb_us / 3;
    l.storage_encode_bytes += shadow.storage_encode_bytes / 3;
    l.storage_domain_values_mid += shadow.storage_domain_values_mid;
    l.storage_domain_values_end += shadow.storage_domain_values_end;
    ConstraintMonitor m;
    double reg = 0;
    if (Install(&m, t.w, nullptr, &reg).ok()) {
      register_us.push_back(reg / static_cast<double>(t.w.constraints.size()));
    }
  }
  r.spans.Append(shadow_log);
  l.monitor_register_us = Median(register_us);
  l.engines_check_us /= static_cast<double>(transitions);
  l.monitor_apply_us = apply_sum / n_sum;
  l.monitor_unexplained_us = l.monitor_apply_us - l.engines_check_us;
  l.monitor_state_growth = state_mid == 0 ? 0.0 : state_bytes / state_mid;
  l.engines_relevant_frac = MeanOf(relevant_all);
  const double rtt_p50 = med([](const WirePass& p) { return p.rtt_p50; });
  l.server_share = med([](const WirePass& p) { return p.overhead_p50; }) /
                   rtt_p50;
  l.server_overloaded = static_cast<double>(ladder_overloaded);
  l.server_max_rate_within_slo = max_rate;
  l.server_max_rate_sustained = max_sustained;
  std::vector<double> traced_rtt;
  for (const WirePass& p : passes) {
    if (p.traced) traced_rtt.push_back(p.rtt_p50);
  }
  l.trace_overhead_pct =
      100.0 * (Median(traced_rtt) - rtt_p50) / rtt_p50;
  NoteSpans(r.spans, &r);
  EmitLayers(l, &r);
  return r;
}

}  // namespace

Report RunEmbedded(const RunOptions& options) {
  return RunClosedLoop(options, /*durable=*/false);
}

Report RunDurable(const RunOptions& options) {
  return RunClosedLoop(options, /*durable=*/true);
}

Report RunWire(const RunOptions& options) {
  return RunOpenLoop(options);
}

}  // namespace perfbench
