// What the benchmark measures in each rtic layer from outside: a counting
// wal::Fs decorator, a shadow replay of the storage layer, the read set of
// each constraint, parse/analyze timing, and the transcript and oracle
// helpers every workload shares.

#ifndef RTIC_PERFBENCH_LAYERS_H_
#define RTIC_PERFBENCH_LAYERS_H_

#include <cstdint>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "monitor/monitor.h"
#include "trace.h"
#include "wal/file.h"
#include "workload/generators.h"

namespace perfbench {

// ---- wal: a counting file-system decorator ---------------------------------

/// What went through the decorator. The record path is Append and Flush on
/// WAL segment files (wal-*), which every logged batch pays. Every other
/// mutating call (segment open/sync/close, checkpoint files, renames,
/// unlinks, directory syncs) happens when the monitor writes a periodic
/// checkpoint and counts as checkpoint-side.
struct FsCounters {
  std::uint64_t append_calls = 0;
  std::uint64_t append_bytes = 0;
  std::uint64_t sync_calls = 0;
  std::uint64_t files_created = 0;
  std::uint64_t files_removed = 0;
  std::uint64_t rename_calls = 0;
  double append_us = 0;
  double sync_us = 0;
  double record_us = 0;      // Append + Flush on WAL segment files
  double checkpoint_us = 0;  // all other mutating calls
};

/// Decorates the real file system: counts and times every call and, when
/// its span log is enabled, records a span per call (nested in whatever
/// span the calling thread has open). Single-threaded use only, which is
/// how a monitor without group commit or shipping drives it.
class CountingFs final : public rtic::wal::Fs {
 public:
  explicit CountingFs(rtic::wal::Fs* base) : base_(base) {}

  void set_log(SpanLog* log) { log_ = log; }
  const FsCounters& counters() const { return counters_; }
  void Reset() { counters_ = FsCounters{}; }

  rtic::Result<std::unique_ptr<rtic::wal::WritableFile>> NewWritableFile(
      const std::string& path, bool truncate) override;
  rtic::Result<std::string> ReadFile(const std::string& path) override;
  rtic::Result<std::vector<std::string>> ListDir(
      const std::string& dir) override;
  rtic::Status CreateDir(const std::string& dir) override;
  rtic::Status Rename(const std::string& from, const std::string& to) override;
  rtic::Status Remove(const std::string& path) override;
  rtic::Status SyncDir(const std::string& dir) override;
  rtic::Status Truncate(const std::string& path, std::uint64_t size) override;
  rtic::Result<bool> FileExists(const std::string& path) override;

 private:
  friend class CountingFile;

  rtic::wal::Fs* base_;
  SpanLog* log_ = nullptr;
  FsCounters counters_;
};

// ---- storage: shadow replay ------------------------------------------------

/// Storage-layer costs of a history, measured by replaying it into a
/// benchmark-owned Database and DomainTracker.
struct ShadowStats {
  double validate_apply_us = 0;  // mean Validate + Apply per batch
  double absorb_us = 0;          // mean DomainTracker::Absorb per batch
  double encode_bytes = 0;       // mean EncodeTo size per batch
  std::size_t domain_values_mid = 0;
  std::size_t domain_values_end = 0;
  bool ok = true;
};
ShadowStats ShadowReplay(const rtic::workload::Workload& w, SpanLog* log,
                         std::uint64_t update_base);

// ---- tl: read sets and parse cost -------------------------------------------

/// Tables a constraint reads (every atom's predicate in the parsed text).
std::set<std::string> ReadSet(const std::string& text);

/// Share of batches touching at least one table in `reads`.
double RelevantFraction(const rtic::workload::Workload& w,
                        const std::set<std::string>& reads);

/// Mean time in tl::ParseFormula + tl::Analyze per constraint, the median
/// over `reps` repetitions of the workload's whole constraint set.
double ParseAnalyzeMicros(const rtic::workload::Workload& w, int reps,
                          SpanLog* log);

// ---- monitor: install, transcripts, oracles ---------------------------------

/// Creates the workload's tables and registers its constraints, one span
/// per registration. Returns the total registration time in microseconds
/// through `register_us` when non-null.
rtic::Status Install(rtic::MonitorLike* monitor,
                     const rtic::workload::Workload& w, SpanLog* log,
                     double* register_us);

/// Violation transcript of one history: the digest of every
/// Violation::ToString() line in order, plus the lines of the first
/// `prefix` batches kept verbatim for the naive-engine comparison.
class Transcript {
 public:
  explicit Transcript(std::size_t prefix = 0) : prefix_(prefix) {}

  void Add(std::size_t batch_index,
           const std::vector<rtic::Violation>& violations);

  std::uint64_t digest() const { return digest_; }
  std::size_t lines() const { return lines_; }
  const std::vector<std::string>& prefix_lines() const { return kept_; }

  bool operator==(const Transcript& o) const {
    return digest_ == o.digest_ && lines_ == o.lines_;
  }

 private:
  std::size_t prefix_;
  std::uint64_t digest_ = 1469598103934665603ULL;  // FNV-1a offset basis
  std::size_t lines_ = 0;
  std::vector<std::string> kept_;
};

/// Replays the first `prefix` batches through a naive-engine monitor and
/// returns its transcript (the full-history re-evaluation baseline).
rtic::Result<Transcript> NaivePrefix(const rtic::workload::Workload& w,
                                     std::size_t prefix);

/// Sum of aux valuations across a monitor's constraints.
std::size_t AuxValuations(const std::vector<rtic::ConstraintStats>& stats);

/// Heap bytes in use (all malloc arenas plus mmapped chunks).
double HeapBytesInUse();

/// Resident set size in bytes (/proc/self/statm).
double ResidentBytes();

}  // namespace perfbench

#endif  // RTIC_PERFBENCH_LAYERS_H_
