#include "trace.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace perfbench {

const char* SpanName(SpanKind kind) {
  switch (kind) {
    case SpanKind::kTlParse: return "tl.ParseFormula";
    case SpanKind::kTlAnalyze: return "tl.Analyze";
    case SpanKind::kMonitorRegister: return "monitor.RegisterConstraint";
    case SpanKind::kMonitorApply: return "monitor.ApplyUpdate";
    case SpanKind::kMonitorRecover: return "monitor.Recover";
    case SpanKind::kStorageValidate: return "storage.Validate";
    case SpanKind::kStorageApply: return "storage.Apply";
    case SpanKind::kStorageAbsorb: return "storage.Absorb";
    case SpanKind::kStorageEncode: return "storage.EncodeTo";
    case SpanKind::kWalAppend: return "wal.Append";
    case SpanKind::kWalFlush: return "wal.Flush";
    case SpanKind::kWalSync: return "wal.Sync";
    case SpanKind::kWalClose: return "wal.Close";
    case SpanKind::kWalOpen: return "wal.NewWritableFile";
    case SpanKind::kWalRename: return "wal.Rename";
    case SpanKind::kWalRemove: return "wal.Remove";
    case SpanKind::kWalSyncDir: return "wal.SyncDir";
    case SpanKind::kWalOther: return "wal.Other";
    case SpanKind::kServerRegister: return "server.RegisterConstraint";
    case SpanKind::kServerApply: return "server.Apply";
    case SpanKind::kCount: break;
  }
  return "?";
}

std::uint32_t SpanLog::Begin(SpanKind kind) {
  const auto index = static_cast<std::uint32_t>(spans_.size());
  spans_.push_back(Span{kind, open_.empty() ? kNoParent : open_.back(),
                        update_, NowNs(), 0});
  open_.push_back(index);
  return index;
}

void SpanLog::End(std::uint32_t index) {
  spans_[index].end_ns = NowNs();
  open_.pop_back();
}

void SpanLog::Append(const SpanLog& other) {
  const auto offset = static_cast<std::uint32_t>(spans_.size());
  for (Span s : other.spans_) {
    if (s.parent != kNoParent) s.parent += offset;
    spans_.push_back(s);
  }
}

SpanTotals Summarize(const SpanLog& log) {
  SpanTotals t;
  const std::vector<Span>& spans = log.spans();
  std::vector<double> child_us(spans.size(), 0.0);
  for (const Span& s : spans) {
    if (s.parent != kNoParent) {
      child_us[s.parent] += static_cast<double>(s.end_ns - s.start_ns) / 1e3;
    }
  }
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const int k = static_cast<int>(spans[i].kind);
    const double us =
        static_cast<double>(spans[i].end_ns - spans[i].start_ns) / 1e3;
    ++t.calls[k];
    t.total_us[k] += us;
    t.self_us[k] += us - child_us[i];
  }
  return t;
}

bool WriteSpans(const SpanLog& log, const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "index,name,parent,update,start_ns,end_ns\n");
  const std::vector<Span>& spans = log.spans();
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    std::fprintf(f, "%zu,%s,%lld,%llu,%lld,%lld\n", i, SpanName(s.kind),
                 s.parent == kNoParent ? -1LL : static_cast<long long>(s.parent),
                 static_cast<unsigned long long>(s.update),
                 static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns));
  }
  return std::fclose(f) == 0;
}

double Percentile(std::vector<double>* values, double p) {
  if (values->empty()) return 0.0;
  std::sort(values->begin(), values->end());
  const double rank = std::ceil(p * static_cast<double>(values->size()));
  std::size_t idx = rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
  return (*values)[std::min(idx, values->size() - 1)];
}

double Median(std::vector<double> values) {
  return Percentile(&values, 0.5);
}

double InterquartileMean(std::vector<double>* values) {
  if (values->empty()) return 0.0;
  std::sort(values->begin(), values->end());
  const std::size_t lo = values->size() / 4;
  const std::size_t hi = std::max(lo + 1, values->size() * 3 / 4);
  double sum = 0;
  for (std::size_t i = lo; i < hi; ++i) sum += (*values)[i];
  return sum / static_cast<double>(hi - lo);
}

}  // namespace perfbench
