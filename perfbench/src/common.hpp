// Shared pieces of the perfbench workloads: options, the result record,
// clock helpers and order statistics.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;  ///< measured time per run (set-up excluded)
  bool trace = false;     ///< per-layer run instead of end-to-end run
  bool tiny = false;      ///< shrunken inputs and counts, for the self-tests
  std::string inject;     ///< "", "nan_loss" or "corrupt_output"
  std::string work_dir;   ///< scratch directory for fixture files
};

/// What one workload process reports.
class Result {
 public:
  void set(const std::string& name, double value) { metrics_[name] = value; }
  /// Records one checked operation; `ok == false` counts it as failed.
  void count(bool ok) {
    ++attempted_;
    if (!ok) ++failed_;
  }
  /// A check outside the per-operation count (e.g. serial = parallel).
  void fail(const std::string& why) { failures_.push_back(why); }
  /// A condition worth flagging that does not make the run wrong.
  void note(const std::string& what) { notes_.push_back(what); }

  bool correct() const { return failed_ == 0 && failures_.empty(); }
  std::uint64_t attempted() const { return attempted_; }
  std::uint64_t failed() const { return failed_; }
  const std::map<std::string, double>& metrics() const { return metrics_; }
  const std::vector<std::string>& failures() const { return failures_; }
  const std::vector<std::string>& notes() const { return notes_; }

 private:
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::map<std::string, double> metrics_;
  std::vector<std::string> failures_;
  std::vector<std::string> notes_;
};

/// Monotonic time through util::ClockSource (the library's only clock).
std::int64_t now_ns();
inline double ms(std::int64_t ns) { return static_cast<double>(ns) / 1e6; }
inline double seconds(std::int64_t ns) { return static_cast<double>(ns) / 1e9; }

/// Linear-interpolation quantile (q in [0, 1]); 0 for an empty sample.
double quantile(std::vector<double> values, double q);
inline double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}
/// Other tenants of the host only ever slow a stretch of a run down, and
/// on a busy host most of a run can be slow (see CpuPicker). So a rate is
/// reported as the 95th percentile of its blocks, and a latency percentile
/// as the 5th percentile of that percentile over short windows of the run:
/// both follow the code while staying clear of the slow stretches.
inline constexpr double kFastShare = 0.95;

/// Splits a time-ordered series into contiguous windows, each holding at
/// least ten samples beyond its q-quantile (at most kMaxWindows of them),
/// takes each window's q-quantile, and returns the (1 - kFastShare)-quantile
/// of those.
inline constexpr std::size_t kMaxWindows = 48;
double windowed_quantile(const std::vector<double>& series, double q);

/// Keeps the process on the least contended CPUs of a shared host. There a
/// vCPU whose hardware sibling another tenant keeps busy runs this code
/// about 1.5 times slower, which vCPUs those are changes every tenth of a
/// second or so, and the scheduler cannot tell. Left alone, a run's figures
/// depend on where it happened to land. pick(count) restricts every thread
/// of the process, and the threads it starts later, to the `count` fastest
/// CPUs: one per thread the next measured stretch keeps busy. It ranks the
/// CPUs by timing a short reference loop on each (under a millisecond
/// apiece) once the last ranking is kPickAgeNs old. The harness calls it
/// before every timed step, request block and set-up.
class CpuPicker {
 public:
  static constexpr std::int64_t kPickAgeNs = 50'000'000;

  CpuPicker();
  /// Call only while no other thread of the process is busy.
  void pick(std::size_t count);

 private:
  std::vector<int> allowed_;
  std::vector<int> ranked_;  ///< fastest first
  std::int64_t ranked_ns_ = 0;
  std::size_t count_ = 0;  ///< CPUs in the mask applied last
};

/// Times `set_up` `repeats` times, picking `threads` CPUs before each, and
/// returns the median in seconds. What set_up returns is destroyed after
/// the clock stopped: tear-down is not set-up.
template <class SetUp>
double time_setup(int repeats, CpuPicker& cpus, std::size_t threads,
                  SetUp&& set_up) {
  std::vector<double> times;
  for (int r = 0; r < repeats; ++r) {
    cpus.pick(threads);
    const std::int64_t begin = now_ns();
    const auto built = set_up();
    times.push_back(seconds(now_ns() - begin));
  }
  return median(times);
}

/// Peak resident set size of this process, in MB.
double peak_rss_mb();

Result run_mnist_select(const Options& options);
Result run_vgg_frozen(const Options& options);
Result run_serve_mix(const Options& options);

}  // namespace perfbench
