// Host speed probe. On a virtual machine shared with other tenants the
// benchmark's CPU changes speed by up to 2x from one tenth of a second to
// the next while steal time stays near zero, and every timing of a run
// moves with it: between runs of the same code the per-run figures spread
// by 25-50% of their median. The probe is a fixed piece of benchmark-owned
// work (hash-table lookups and updates with node allocation, a sort, string
// building: the kinds of work the check path does) whose time tracks that
// speed. The workloads run it next to their own work and scale each timing
// made at that moment by
//
//     (kReferenceProbeUs / probe_us) ^ exponent
//
// so a scaled timing reads as the time at the speed where the probe takes
// kReferenceProbeUs. The probe does not call the library, so a change to the
// library moves a scaled figure by the same factor as the raw one.

#ifndef RTIC_PERFBENCH_HOSTSPEED_H_
#define RTIC_PERFBENCH_HOSTSPEED_H_

#include <cstdint>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

namespace perfbench {

/// The probe's time at the reference speed. Unloaded, it reads 57-113 us
/// on the development machine (a 4-vCPU x86-64 virtual machine); next to
/// the workloads, 85-205 us.
constexpr double kReferenceProbeUs = 100.0;

/// The disk probe's (DiskProbe below) time at the reference speed: its
/// median reading next to the `durable` workload on the development
/// machine, where it read 470-1 140 us (10th-90th percentile).
constexpr double kReferenceDiskProbeUs = 600.0;

/// (reference_us / probe_us) ^ exponent: the factor that turns a timing
/// made while a probe read `probe_us` into one at the reference speed.
/// `exponent` is how strongly the workload's own time follows the probe's:
/// log(workload time) moves `exponent` times as much as log(probe time) as
/// the host's speed changes.
double SpeedFactor(double reference_us, double probe_us, double exponent);

class SpeedProbe {
 public:
  SpeedProbe();

  /// Runs the probe three times back to back and returns the median of the
  /// calling thread's CPU time for one run, in microseconds. CPU time
  /// leaves out time the thread spent preempted by other threads.
  double MeasureUs();

 private:
  double RunOnceUs();

  std::unordered_map<std::uint64_t, std::uint64_t> table_;
};

/// The disk's speed, for time spent in file-system calls, which waits on
/// the host's disk as much as on its CPU: a fixed sequence of benchmark-owned
/// POSIX calls in the shape of a checkpoint write (write 4 KiB to a new
/// file, fsync, rename, fsync the directory, unlink).
class DiskProbe {
 public:
  /// `dir` must exist; the probe's file lives there.
  explicit DiskProbe(std::string dir) : dir_(std::move(dir)) {}

  /// Runs the sequence once and returns its wall time in microseconds.
  double MeasureUs();

 private:
  std::string dir_;
};

/// Probe readings over time, for scaling timings made by other threads:
/// FactorAt(t) uses the median of the readings within `window_ns` of t,
/// or of all readings when there are none that close.
class SpeedSeries {
 public:
  void Reserve(std::size_t readings);
  void Add(std::int64_t at_ns, double probe_us);
  /// Sorts the readings by time; call once, after the last Add.
  void Finish();
  double FactorAt(std::int64_t at_ns, std::int64_t window_ns,
                  double exponent) const;
  std::size_t size() const { return at_ns_.size(); }
  double MedianUs() const;

 private:
  std::vector<std::int64_t> at_ns_;
  std::vector<double> probe_us_;
};

}  // namespace perfbench

#endif  // RTIC_PERFBENCH_HOSTSPEED_H_
