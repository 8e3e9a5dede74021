// Outside-in tracing for the benchmark: spans recorded around the calls the
// benchmark makes into each rtic layer, kept in memory and written out when
// the run ends. Nothing here reaches inside the library; layer time that
// the library does not expose through a public call shows up as the
// "unexplained" remainder of the enclosing span.

#ifndef RTIC_PERFBENCH_TRACE_H_
#define RTIC_PERFBENCH_TRACE_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Nanoseconds since an arbitrary fixed origin.
inline std::int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

/// Every span the benchmark records. The text before the first '.' names
/// the layer the call goes into.
enum class SpanKind : std::uint32_t {
  kTlParse,             // tl::ParseFormula
  kTlAnalyze,           // tl::Analyze
  kMonitorRegister,     // ConstraintMonitor::RegisterConstraint
  kMonitorApply,        // ConstraintMonitor::ApplyUpdate
  kMonitorRecover,      // ConstraintMonitor::Recover
  kStorageValidate,     // UpdateBatch::Validate (shadow replay)
  kStorageApply,        // UpdateBatch::Apply (shadow replay)
  kStorageAbsorb,       // DomainTracker::Absorb (shadow replay)
  kStorageEncode,       // UpdateBatch::EncodeTo (shadow replay)
  kWalAppend,           // WritableFile::Append through the Fs decorator
  kWalFlush,            // WritableFile::Flush
  kWalSync,             // WritableFile::Sync
  kWalClose,            // WritableFile::Close
  kWalOpen,             // Fs::NewWritableFile
  kWalRename,           // Fs::Rename
  kWalRemove,           // Fs::Remove
  kWalSyncDir,          // Fs::SyncDir
  kWalOther,            // reads, listings, mkdir, truncate, exists
  kServerRegister,      // RticClient::RegisterConstraint
  kServerApply,         // RticClient::Apply (one round trip)
  kCount,
};

/// "layer.call" name of a span kind.
const char* SpanName(SpanKind kind);

/// One recorded call.
struct Span {
  SpanKind kind;
  std::uint32_t parent;  // index into the same log; kNoParent at top level
  std::uint64_t update;  // update id shared by one update's spans
  std::int64_t start_ns;
  std::int64_t end_ns;
};

inline constexpr std::uint32_t kNoParent = 0xffffffffu;

/// An in-memory span log owned by one thread. Disabled logs record nothing
/// and cost one branch per call.
class SpanLog {
 public:
  explicit SpanLog(bool enabled = false) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }
  void set_enabled(bool enabled) { enabled_ = enabled; }

  /// The update id stamped on spans opened from now on.
  void set_update(std::uint64_t update) { update_ = update; }

  /// Opens a span nested in the innermost open one; returns its index.
  std::uint32_t Begin(SpanKind kind);
  void End(std::uint32_t index);

  const std::vector<Span>& spans() const { return spans_; }

  /// Moves another log's spans to the end of this one.
  void Append(const SpanLog& other);

 private:
  bool enabled_;
  std::uint64_t update_ = 0;
  std::vector<Span> spans_;
  std::vector<std::uint32_t> open_;
};

/// RAII span; no-op on a disabled or null log.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, SpanKind kind)
      : log_(log != nullptr && log->enabled() ? log : nullptr),
        index_(log_ != nullptr ? log_->Begin(kind) : 0) {}
  ~ScopedSpan() {
    if (log_ != nullptr) log_->End(index_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanLog* log_;
  std::uint32_t index_;
};

/// Per-kind totals over a log: calls, wall time, and self time (wall time
/// minus the part covered by child spans).
struct SpanTotals {
  std::uint64_t calls[static_cast<int>(SpanKind::kCount)] = {};
  double total_us[static_cast<int>(SpanKind::kCount)] = {};
  double self_us[static_cast<int>(SpanKind::kCount)] = {};
};
SpanTotals Summarize(const SpanLog& log);

/// Writes the log as CSV (index,name,parent,update,start_ns,end_ns).
bool WriteSpans(const SpanLog& log, const std::string& path);

/// Nearest-rank percentile (p in [0, 1]) of an unsorted sample; 0 when
/// empty. Sorts in place.
double Percentile(std::vector<double>* values, double p);

/// Median of a sample; 0 when empty.
double Median(std::vector<double> values);

/// Interquartile mean: the mean of the middle half of a sample (ranks
/// [n/4, 3n/4) once sorted); 0 when empty. Sorts in place.
double InterquartileMean(std::vector<double>* values);

}  // namespace perfbench

#endif  // RTIC_PERFBENCH_TRACE_H_
