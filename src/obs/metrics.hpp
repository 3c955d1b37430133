// Process-wide metrics: counters, gauges, log-scale histograms. The
// serving layer (src/serve/) is their producer; training reports through
// the JSONL event stream (obs/event_stream.hpp) instead.
//
// Design goals:
//   * Cheap enough for per-step use: every write is a relaxed atomic op on a
//     pre-registered metric object — no locks, no allocation on the hot
//     path. Registration (name lookup) takes a mutex and should be done
//     once, outside loops; the returned references stay valid for the
//     registry's lifetime.
//   * Snapshot-able while being written: snapshot_json() can run
//     concurrently with writers from pool threads and sees a consistent
//     per-metric view (each field is an atomic; cross-metric skew is
//     acceptable for telemetry). TSan-clean by construction.
//   * Counter overflow wraps modulo 2^64 (documented, tested) — a counter is
//     a free-running odometer, not a saturating one.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace dropback::obs {

/// Monotonic (modulo 2^64) event counter.
class Counter {
 public:
  void add(std::uint64_t delta = 1) {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  std::uint64_t value() const {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// Last-write-wins instantaneous value.
class Gauge {
 public:
  void set(double v) { value_.store(v, std::memory_order_relaxed); }
  double value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

/// HDR-style log-scale histogram: base-2 octaves between min_value and
/// max_value, each refined into `sub_buckets` linear sub-buckets, plus an
/// underflow bin (v < min_value) and an overflow bin (v >= max_value).
/// Quantiles are accurate to a relative error of 1/sub_buckets across the
/// whole range — e.g. 32 sub-buckets keep p99/p999 within ~3% over 4+
/// decades without hand-tuned bounds. Writes are relaxed atomics
/// (pool-thread safe, snapshot-able while written); serving's
/// `serve.latency_ms` lives here.
class LogHistogram {
 public:
  LogHistogram(double min_value, double max_value, int sub_buckets = 32);

  void observe(double v);

  double min_value() const { return min_; }
  double max_value() const { return max_; }
  int sub_buckets() const { return sub_; }
  int octaves() const { return octaves_; }

  /// Total bins: octaves() * sub_buckets() + underflow + overflow.
  std::size_t num_buckets() const { return counts_.size(); }
  std::uint64_t bucket_count(std::size_t i) const {
    return counts_[i].load(std::memory_order_relaxed);
  }
  /// Bin index a value lands in (0 = underflow, num_buckets()-1 = overflow).
  std::size_t bucket_index(double v) const;
  /// Upper bound of bin `i`; min_value() for underflow. The overflow bin
  /// clamps to max_value(): quantiles never extrapolate past the range.
  double bucket_upper(std::size_t i) const;

  std::uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  double sum() const { return sum_.load(std::memory_order_relaxed); }

  /// Conservative quantile (upper bound of the bin holding rank
  /// ceil(q*count)); 0 when empty, clamped to [min_value, max_value].
  double quantile(double q) const;

 private:
  double min_;
  double max_;
  int sub_;
  int octaves_;
  std::vector<std::atomic<std::uint64_t>> counts_;
  std::atomic<std::uint64_t> count_{0};
  std::atomic<double> sum_{0.0};
};

/// Named metric store. counter()/gauge()/log_histogram() create on first
/// use and return the existing metric afterwards; references remain valid
/// until the registry is destroyed. A log histogram re-registered with a
/// different range keeps its original one (first registration wins).
class MetricsRegistry {
 public:
  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);
  LogHistogram& log_histogram(const std::string& name, double min_value,
                              double max_value, int sub_buckets = 32);

  /// One JSON object with every metric:
  ///   {"counters":{...},"gauges":{...},
  ///    "log_histograms":{"name":{"min":..,"max":..,"sub_buckets":..,
  ///                              "count":N,"sum":X,"p50":..,"p99":..,
  ///                              "p999":..,"buckets":[[idx,count],...]}}}
  /// Log-histogram buckets are sparse [index, count] pairs.
  /// Safe to call while other threads write metrics.
  std::string snapshot_json() const;

  /// Drops every metric (invalidates previously returned references).
  void reset();

  /// The process-wide registry used by the built-in instrumentation.
  static MetricsRegistry& global();

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<LogHistogram>> log_histograms_;
};

}  // namespace dropback::obs
