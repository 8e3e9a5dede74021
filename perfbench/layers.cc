#include "layers.h"

#include <malloc.h>
#include <unistd.h>

#include <cstdio>
#include <functional>
#include <utility>

#include "storage/codec.h"
#include "storage/domain_tracker.h"
#include "tl/analyzer.h"
#include "tl/parser.h"

namespace perfbench {

using rtic::Result;
using rtic::Status;

namespace {

double MicrosSince(std::int64_t start_ns) {
  return static_cast<double>(NowNs() - start_ns) / 1e3;
}

/// True for WAL segment paths (basename wal-*).
bool IsLogPath(const std::string& path) {
  const std::size_t slash = path.find_last_of('/');
  const std::size_t base = slash == std::string::npos ? 0 : slash + 1;
  return path.compare(base, 4, "wal-") == 0;
}

}  // namespace

/// The decorator's file handle: forwards to the real file and charges each
/// call to the owning CountingFs.
class CountingFile final : public rtic::wal::WritableFile {
 public:
  CountingFile(CountingFs* fs, std::unique_ptr<rtic::wal::WritableFile> base,
               bool log_file)
      : fs_(fs), base_(std::move(base)), log_file_(log_file) {}

  Status Append(std::string_view data) override {
    ScopedSpan span(fs_->log_, SpanKind::kWalAppend);
    const std::int64_t t0 = NowNs();
    Status s = base_->Append(data);
    const double us = MicrosSince(t0);
    ++fs_->counters_.append_calls;
    fs_->counters_.append_bytes += data.size();
    fs_->counters_.append_us += us;
    ChargeRecordPath(us);
    return s;
  }
  Status Flush() override {
    ScopedSpan span(fs_->log_, SpanKind::kWalFlush);
    const std::int64_t t0 = NowNs();
    Status s = base_->Flush();
    ChargeRecordPath(MicrosSince(t0));
    return s;
  }
  Status Sync() override {
    ScopedSpan span(fs_->log_, SpanKind::kWalSync);
    const std::int64_t t0 = NowNs();
    Status s = base_->Sync();
    const double us = MicrosSince(t0);
    ++fs_->counters_.sync_calls;
    fs_->counters_.sync_us += us;
    fs_->counters_.checkpoint_us += us;
    return s;
  }
  Status Close() override {
    ScopedSpan span(fs_->log_, SpanKind::kWalClose);
    const std::int64_t t0 = NowNs();
    Status s = base_->Close();
    fs_->counters_.checkpoint_us += MicrosSince(t0);
    return s;
  }

 private:
  void ChargeRecordPath(double us) {
    (log_file_ ? fs_->counters_.record_us : fs_->counters_.checkpoint_us) +=
        us;
  }

  CountingFs* fs_;
  std::unique_ptr<rtic::wal::WritableFile> base_;
  bool log_file_;
};

Result<std::unique_ptr<rtic::wal::WritableFile>> CountingFs::NewWritableFile(
    const std::string& path, bool truncate) {
  ScopedSpan span(log_, SpanKind::kWalOpen);
  const std::int64_t t0 = NowNs();
  auto file = base_->NewWritableFile(path, truncate);
  const bool log_file = IsLogPath(path);
  counters_.checkpoint_us += MicrosSince(t0);
  if (!file.ok()) return file.status();
  ++counters_.files_created;
  return std::unique_ptr<rtic::wal::WritableFile>(
      new CountingFile(this, std::move(file).value(), log_file));
}

Result<std::string> CountingFs::ReadFile(const std::string& path) {
  ScopedSpan span(log_, SpanKind::kWalOther);
  return base_->ReadFile(path);
}

Result<std::vector<std::string>> CountingFs::ListDir(const std::string& dir) {
  ScopedSpan span(log_, SpanKind::kWalOther);
  return base_->ListDir(dir);
}

Status CountingFs::CreateDir(const std::string& dir) {
  ScopedSpan span(log_, SpanKind::kWalOther);
  const std::int64_t t0 = NowNs();
  Status s = base_->CreateDir(dir);
  counters_.checkpoint_us += MicrosSince(t0);
  return s;
}

Status CountingFs::Rename(const std::string& from, const std::string& to) {
  ScopedSpan span(log_, SpanKind::kWalRename);
  const std::int64_t t0 = NowNs();
  Status s = base_->Rename(from, to);
  counters_.checkpoint_us += MicrosSince(t0);
  ++counters_.rename_calls;
  return s;
}

Status CountingFs::Remove(const std::string& path) {
  ScopedSpan span(log_, SpanKind::kWalRemove);
  const std::int64_t t0 = NowNs();
  Status s = base_->Remove(path);
  counters_.checkpoint_us += MicrosSince(t0);
  if (s.ok()) ++counters_.files_removed;
  return s;
}

Status CountingFs::SyncDir(const std::string& dir) {
  ScopedSpan span(log_, SpanKind::kWalSyncDir);
  const std::int64_t t0 = NowNs();
  Status s = base_->SyncDir(dir);
  const double us = MicrosSince(t0);
  counters_.checkpoint_us += us;
  ++counters_.sync_calls;
  counters_.sync_us += us;
  return s;
}

Status CountingFs::Truncate(const std::string& path, std::uint64_t size) {
  ScopedSpan span(log_, SpanKind::kWalOther);
  const std::int64_t t0 = NowNs();
  Status s = base_->Truncate(path, size);
  counters_.checkpoint_us += MicrosSince(t0);
  return s;
}

Result<bool> CountingFs::FileExists(const std::string& path) {
  ScopedSpan span(log_, SpanKind::kWalOther);
  return base_->FileExists(path);
}

ShadowStats ShadowReplay(const rtic::workload::Workload& w, SpanLog* log,
                         std::uint64_t update_base) {
  ShadowStats out;
  rtic::Database db;
  for (const auto& [name, schema] : w.schema) {
    if (!db.CreateTable(name, schema).ok()) out.ok = false;
  }
  rtic::DomainTracker domain;
  double apply_us = 0, absorb_us = 0, bytes = 0;
  const std::size_t n = w.batches.size();
  for (std::size_t i = 0; i < n; ++i) {
    const rtic::UpdateBatch& batch = w.batches[i];
    if (log != nullptr) log->set_update(update_base + i);
    std::int64_t t0 = NowNs();
    {
      ScopedSpan span(log, SpanKind::kStorageValidate);
      if (!batch.Validate(db).ok()) out.ok = false;
    }
    {
      ScopedSpan span(log, SpanKind::kStorageApply);
      if (!batch.Apply(&db).ok()) out.ok = false;
    }
    apply_us += MicrosSince(t0);
    t0 = NowNs();
    {
      ScopedSpan span(log, SpanKind::kStorageAbsorb);
      domain.Absorb(db);
    }
    absorb_us += MicrosSince(t0);
    {
      ScopedSpan span(log, SpanKind::kStorageEncode);
      rtic::StateWriter writer;
      batch.EncodeTo(&writer);
      bytes += static_cast<double>(writer.str().size());
    }
    if (i + 1 == n / 2) out.domain_values_mid = domain.size();
  }
  out.domain_values_end = domain.size();
  if (n > 0) {
    out.validate_apply_us = apply_us / static_cast<double>(n);
    out.absorb_us = absorb_us / static_cast<double>(n);
    out.encode_bytes = bytes / static_cast<double>(n);
  }
  return out;
}

std::set<std::string> ReadSet(const std::string& text) {
  std::set<std::string> reads;
  auto parsed = rtic::tl::ParseFormula(text);
  if (!parsed.ok()) return reads;
  std::function<void(const rtic::tl::Formula&)> walk =
      [&](const rtic::tl::Formula& f) {
        if (f.kind() == rtic::tl::FormulaKind::kAtom) {
          reads.insert(f.predicate());
        }
        for (std::size_t i = 0; i < f.num_children(); ++i) walk(f.child(i));
      };
  walk(**parsed);
  return reads;
}

double RelevantFraction(const rtic::workload::Workload& w,
                        const std::set<std::string>& reads) {
  if (w.batches.empty()) return 0.0;
  std::size_t relevant = 0;
  for (const rtic::UpdateBatch& b : w.batches) {
    for (const std::string& t : b.TouchedTables()) {
      if (reads.count(t) != 0) {
        ++relevant;
        break;
      }
    }
  }
  return static_cast<double>(relevant) / static_cast<double>(w.batches.size());
}

double ParseAnalyzeMicros(const rtic::workload::Workload& w, int reps,
                          SpanLog* log) {
  const rtic::tl::PredicateCatalog catalog(w.schema.begin(), w.schema.end());
  std::vector<double> per_constraint;
  for (int r = 0; r < reps; ++r) {
    const std::int64_t t0 = NowNs();
    for (const auto& [name, text] : w.constraints) {
      Result<rtic::tl::FormulaPtr> parsed = [&] {
        ScopedSpan span(log, SpanKind::kTlParse);
        return rtic::tl::ParseFormula(text);
      }();
      if (!parsed.ok()) continue;
      ScopedSpan span(log, SpanKind::kTlAnalyze);
      (void)rtic::tl::Analyze(**parsed, catalog);
    }
    per_constraint.push_back(MicrosSince(t0) /
                             static_cast<double>(w.constraints.size()));
  }
  return Median(std::move(per_constraint));
}

Status Install(rtic::MonitorLike* monitor, const rtic::workload::Workload& w,
               SpanLog* log, double* register_us) {
  for (const auto& [name, schema] : w.schema) {
    RTIC_RETURN_IF_ERROR(monitor->CreateTable(name, schema));
  }
  const std::int64_t t0 = NowNs();
  for (const auto& [name, text] : w.constraints) {
    ScopedSpan span(log, SpanKind::kMonitorRegister);
    RTIC_RETURN_IF_ERROR(monitor->RegisterConstraint(name, text));
  }
  if (register_us != nullptr) *register_us = MicrosSince(t0);
  return Status::OK();
}

void Transcript::Add(std::size_t batch_index,
                     const std::vector<rtic::Violation>& violations) {
  for (const rtic::Violation& v : violations) {
    const std::string line = v.ToString();
    for (char c : line) {
      digest_ ^= static_cast<unsigned char>(c);
      digest_ *= 1099511628211ULL;
    }
    digest_ ^= static_cast<unsigned char>('\n');
    digest_ *= 1099511628211ULL;
    ++lines_;
    if (batch_index < prefix_) kept_.push_back(line);
  }
}

Result<Transcript> NaivePrefix(const rtic::workload::Workload& w,
                               std::size_t prefix) {
  rtic::MonitorOptions options;
  options.engine = rtic::EngineKind::kNaive;
  rtic::ConstraintMonitor naive(options);
  RTIC_RETURN_IF_ERROR(Install(&naive, w, nullptr, nullptr));
  Transcript t(prefix);
  for (std::size_t i = 0; i < prefix && i < w.batches.size(); ++i) {
    auto v = naive.ApplyUpdate(w.batches[i]);
    if (!v.ok()) return v.status();
    t.Add(i, *v);
  }
  return t;
}

std::size_t AuxValuations(const std::vector<rtic::ConstraintStats>& stats) {
  std::size_t total = 0;
  for (const rtic::ConstraintStats& s : stats) total += s.aux_valuations;
  return total;
}

double HeapBytesInUse() {
  const struct mallinfo2 mi = mallinfo2();
  return static_cast<double>(mi.uordblks + mi.hblkhd);
}

double ResidentBytes() {
  std::FILE* f = std::fopen("/proc/self/statm", "r");
  if (f == nullptr) return 0.0;
  unsigned long size = 0, resident = 0;
  const int got = std::fscanf(f, "%lu %lu", &size, &resident);
  std::fclose(f);
  if (got != 2) return 0.0;
  return static_cast<double>(resident) *
         static_cast<double>(sysconf(_SC_PAGESIZE));
}

}  // namespace perfbench
