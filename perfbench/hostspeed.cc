#include "hostspeed.h"

#include <fcntl.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <numeric>
#include <random>
#include <string>

#include "trace.h"

namespace perfbench {
namespace {

constexpr std::uint64_t kKeys = 40000;  // ~2 MB of hash-table nodes
volatile std::uint64_t g_sink = 0;

std::int64_t ThreadCpuNs() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec;
}

}  // namespace

double SpeedFactor(double reference_us, double probe_us, double exponent) {
  return probe_us > 0 ? std::pow(reference_us / probe_us, exponent) : 1.0;
}

SpeedProbe::SpeedProbe() {
  table_.reserve(2 * kKeys);
  for (std::uint64_t k = 0; k < kKeys; ++k) table_.emplace(k, k);
}

double SpeedProbe::RunOnceUs() {
  const std::int64_t t0 = ThreadCpuNs();
  // The same work every time: the generator is re-seeded, and every key
  // erased is put back, so the table keeps its kKeys entries.
  std::mt19937_64 rng(7);
  std::uint64_t acc = 0;
  for (int i = 0; i < 3000; ++i) {
    const std::uint64_t k = rng() % kKeys;
    auto it = table_.find(k);
    acc += it->second++;
    if (i % 8 == 0) {
      const std::uint64_t v = it->second;
      table_.erase(it);
      table_.emplace(k, v);
    }
  }
  std::vector<std::uint64_t> v(1024);
  for (std::uint64_t& x : v) x = rng();
  std::sort(v.begin(), v.end());
  acc += v[17];
  std::string s;
  for (int i = 0; i < 200; ++i) {
    s += std::to_string(rng() % 100000);
    s.push_back(',');
  }
  acc += s.size();
  g_sink = g_sink + acc;
  return static_cast<double>(ThreadCpuNs() - t0) / 1e3;
}

double SpeedProbe::MeasureUs() {
  // The first run refills the caches the caller's work evicted; the median
  // is a warm run's time, which depends little on the caller's footprint.
  const double a = RunOnceUs();
  const double b = RunOnceUs();
  const double c = RunOnceUs();
  return std::max(std::min(a, b), std::min(std::max(a, b), c));
}

double DiskProbe::MeasureUs() {
  const std::string tmp = dir_ + "/probe.tmp";
  const std::string done = dir_ + "/probe";
  static const std::string kData(4096, 'x');
  const std::int64_t t0 = NowNs();
  const int fd = open(tmp.c_str(), O_CREAT | O_TRUNC | O_WRONLY, 0644);
  if (fd >= 0) {
    const ssize_t written = write(fd, kData.data(), kData.size());
    if (written > 0) fsync(fd);
    close(fd);
  }
  rename(tmp.c_str(), done.c_str());
  const int dir_fd = open(dir_.c_str(), O_RDONLY | O_DIRECTORY);
  if (dir_fd >= 0) {
    fsync(dir_fd);
    close(dir_fd);
  }
  unlink(done.c_str());
  return static_cast<double>(NowNs() - t0) / 1e3;
}

void SpeedSeries::Reserve(std::size_t readings) {
  at_ns_.reserve(readings);
  probe_us_.reserve(readings);
}

void SpeedSeries::Add(std::int64_t at_ns, double probe_us) {
  at_ns_.push_back(at_ns);
  probe_us_.push_back(probe_us);
}

void SpeedSeries::Finish() {
  std::vector<std::size_t> order(at_ns_.size());
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return at_ns_[a] < at_ns_[b];
  });
  std::vector<std::int64_t> at;
  std::vector<double> us;
  for (std::size_t i : order) {
    at.push_back(at_ns_[i]);
    us.push_back(probe_us_[i]);
  }
  at_ns_ = std::move(at);
  probe_us_ = std::move(us);
}

double SpeedSeries::FactorAt(std::int64_t at_ns, std::int64_t window_ns,
                             double exponent) const {
  const auto lo =
      std::lower_bound(at_ns_.begin(), at_ns_.end(), at_ns - window_ns);
  const auto hi =
      std::upper_bound(at_ns_.begin(), at_ns_.end(), at_ns + window_ns);
  if (lo == hi) return SpeedFactor(kReferenceProbeUs, MedianUs(), exponent);
  std::vector<double> near(probe_us_.begin() + (lo - at_ns_.begin()),
                           probe_us_.begin() + (hi - at_ns_.begin()));
  return SpeedFactor(kReferenceProbeUs, Median(std::move(near)), exponent);
}

double SpeedSeries::MedianUs() const { return Median(probe_us_); }

}  // namespace perfbench
