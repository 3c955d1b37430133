#include "obs/metrics.hpp"

#include <algorithm>
#include <cmath>

#include "util/check.hpp"
#include "util/json.hpp"

namespace dropback::obs {

LogHistogram::LogHistogram(double min_value, double max_value,
                           int sub_buckets)
    : min_(min_value), max_(max_value), sub_(sub_buckets) {
  DROPBACK_CHECK(min_ > 0.0, << "LogHistogram min_value must be > 0, got "
                             << min_);
  DROPBACK_CHECK(max_ > min_, << "LogHistogram needs max_value > min_value");
  DROPBACK_CHECK(sub_ >= 1, << "LogHistogram needs >= 1 sub-bucket");
  octaves_ = static_cast<int>(std::ceil(std::log2(max_ / min_)));
  if (octaves_ < 1) octaves_ = 1;
  counts_ = std::vector<std::atomic<std::uint64_t>>(
      static_cast<std::size_t>(octaves_ * sub_) + 2);
}

std::size_t LogHistogram::bucket_index(double v) const {
  if (!(v >= min_)) return 0;  // underflow; NaN compares false and lands here
  if (v >= max_) return counts_.size() - 1;
  int exp = 0;
  const double mant = std::frexp(v / min_, &exp);  // v/min_ = mant * 2^exp
  const int octave = exp - 1;  // mant in [0.5, 1) => v/min_ in [2^(exp-1), 2^exp)
  const double within = mant * 2.0 - 1.0;  // [0, 1) position inside the octave
  int sub = static_cast<int>(within * static_cast<double>(sub_));
  if (sub >= sub_) sub = sub_ - 1;
  const std::size_t idx =
      1 + static_cast<std::size_t>(octave * sub_ + sub);
  // The top octave may extend past max_ (octave count is rounded up); keep
  // every finite-bucket index below the overflow bin.
  return std::min(idx, counts_.size() - 2);
}

double LogHistogram::bucket_upper(std::size_t i) const {
  if (i == 0) return min_;
  if (i >= counts_.size() - 1) return max_;
  const std::size_t k = i - 1;
  const int octave = static_cast<int>(k) / sub_;
  const int sub = static_cast<int>(k) % sub_;
  const double upper =
      min_ * std::ldexp(1.0 + static_cast<double>(sub + 1) /
                                  static_cast<double>(sub_),
                        octave);
  return std::min(upper, max_);
}

void LogHistogram::observe(double v) {
  counts_[bucket_index(v)].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  sum_.fetch_add(v, std::memory_order_relaxed);
}

double LogHistogram::quantile(double q) const {
  DROPBACK_CHECK(q >= 0.0 && q <= 1.0, << "quantile q=" << q
                                       << " outside [0, 1]");
  const std::uint64_t total = count();
  if (total == 0) return 0.0;
  const std::uint64_t rank = std::max<std::uint64_t>(
      1, static_cast<std::uint64_t>(q * static_cast<double>(total) + 0.5));
  std::uint64_t seen = 0;
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    seen += bucket_count(i);
    if (seen >= rank) return bucket_upper(i);
  }
  return max_;
}

Counter& MetricsRegistry::counter(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = counters_[name];
  if (!slot) slot = std::make_unique<Counter>();
  return *slot;
}

Gauge& MetricsRegistry::gauge(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = gauges_[name];
  if (!slot) slot = std::make_unique<Gauge>();
  return *slot;
}

LogHistogram& MetricsRegistry::log_histogram(const std::string& name,
                                             double min_value,
                                             double max_value,
                                             int sub_buckets) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = log_histograms_[name];
  if (!slot) {
    slot = std::make_unique<LogHistogram>(min_value, max_value, sub_buckets);
  }
  return *slot;
}

std::string MetricsRegistry::snapshot_json() const {
  std::lock_guard<std::mutex> lock(mu_);
  util::JsonObject counters;
  for (const auto& [name, c] : counters_) {
    counters.add(name, static_cast<std::uint64_t>(c->value()));
  }
  util::JsonObject gauges;
  for (const auto& [name, g] : gauges_) gauges.add(name, g->value());
  util::JsonObject log_histograms;
  for (const auto& [name, h] : log_histograms_) {
    std::string buckets = "[";  // sparse [index, count] pairs
    bool first = true;
    for (std::size_t i = 0; i < h->num_buckets(); ++i) {
      const std::uint64_t c = h->bucket_count(i);
      if (c == 0) continue;
      if (!first) buckets += ',';
      first = false;
      buckets += '[' + std::to_string(i) + ',' + std::to_string(c) + ']';
    }
    buckets += ']';
    log_histograms.add_raw(name,
                           util::JsonObject()
                               .add("min", h->min_value())
                               .add("max", h->max_value())
                               .add("sub_buckets", h->sub_buckets())
                               .add("count", h->count())
                               .add("sum", h->sum())
                               .add("p50", h->quantile(0.5))
                               .add("p99", h->quantile(0.99))
                               .add("p999", h->quantile(0.999))
                               .add_raw("buckets", buckets)
                               .str());
  }
  return util::JsonObject()
      .add_raw("counters", counters.str())
      .add_raw("gauges", gauges.str())
      .add_raw("log_histograms", log_histograms.str())
      .str();
}

void MetricsRegistry::reset() {
  std::lock_guard<std::mutex> lock(mu_);
  counters_.clear();
  gauges_.clear();
  log_histograms_.clear();
}

MetricsRegistry& MetricsRegistry::global() {
  static MetricsRegistry* registry = new MetricsRegistry();  // never freed
  return *registry;
}

}  // namespace dropback::obs
