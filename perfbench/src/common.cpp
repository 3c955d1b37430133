#include "common.hpp"

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <system_error>
#include <utility>

#include "util/steady_clock.hpp"

namespace perfbench {

std::int64_t now_ns() {
  return dropback::util::steady_clock_source().now_ns();
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] +
         (values[hi] - values[lo]) * (pos - static_cast<double>(lo));
}

double windowed_quantile(const std::vector<double>& series, double q) {
  const std::size_t n = series.size();
  const auto least = static_cast<std::size_t>(std::ceil(10.0 / (1.0 - q)));
  const std::size_t w = std::clamp<std::size_t>(n / least, 1, kMaxWindows);
  std::vector<double> per_window;
  for (std::size_t i = 0; i < w; ++i) {
    const auto begin = series.begin() + static_cast<std::ptrdiff_t>(n * i / w);
    const auto end =
        series.begin() + static_cast<std::ptrdiff_t>(n * (i + 1) / w);
    per_window.push_back(quantile(std::vector<double>(begin, end), q));
  }
  return quantile(per_window, 1.0 - kFastShare);
}

#if defined(__linux__)
namespace {

/// A few tenths of a millisecond of float updates and a partial sort.
double reference_ms() {
  static std::vector<float> a(1 << 16);
  static std::vector<float> b(1 << 14);
  static volatile float sink = 0.0F;
  const std::int64_t begin = now_ns();
  for (std::size_t i = 0; i < a.size(); ++i) {
    a[i] = a[i] * 0.999F + static_cast<float>(i & 7U);
  }
  for (std::size_t i = 0; i < b.size(); ++i) {
    b[i] = static_cast<float>((i * 2654435761U) % 100003U);
  }
  std::nth_element(b.begin(), b.begin() + b.size() / 4, b.end());
  sink = sink + a[1] + b[b.size() / 4];
  return ms(now_ns() - begin);
}

cpu_set_t cpu_set_of(const std::vector<int>& cpus) {
  cpu_set_t set;
  CPU_ZERO(&set);
  for (const int cpu : cpus) CPU_SET(cpu, &set);
  return set;
}

}  // namespace
#endif

CpuPicker::CpuPicker() {
#if defined(__linux__)
  cpu_set_t set;
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &set)) allowed_.push_back(cpu);
  }
#endif
}

void CpuPicker::pick(std::size_t count) {
#if defined(__linux__)
  if (allowed_.size() < 2) return;
  if (ranked_ns_ == 0 || now_ns() - ranked_ns_ >= kPickAgeNs) {
    std::vector<std::pair<double, int>> speed;
    for (const int cpu : allowed_) {
      const cpu_set_t one = cpu_set_of({cpu});
      if (sched_setaffinity(0, sizeof(one), &one) != 0) continue;
      double best = reference_ms();
      for (int r = 0; r < 2; ++r) best = std::min(best, reference_ms());
      speed.emplace_back(best, cpu);
    }
    std::sort(speed.begin(), speed.end());
    ranked_.clear();
    for (const auto& [ms, cpu] : speed) ranked_.push_back(cpu);
    ranked_ns_ = now_ns();
    count_ = 0;  // probing moved this thread: apply the mask again
  }
  if (count == count_) return;
  count_ = count;
  const std::vector<int> fastest(
      ranked_.begin(),
      ranked_.begin() + static_cast<std::ptrdiff_t>(
                            std::min(count, ranked_.size())));
  const cpu_set_t set = cpu_set_of(fastest.empty() ? allowed_ : fastest);
  std::error_code error;
  for (const auto& task :
       std::filesystem::directory_iterator("/proc/self/task", error)) {
    // A thread that exited meanwhile fails harmlessly.
    const auto tid = static_cast<pid_t>(
        std::strtol(task.path().filename().c_str(), nullptr, 10));
    sched_setaffinity(tid, sizeof(set), &set);
  }
  sched_setaffinity(0, sizeof(set), &set);
#endif
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

}  // namespace perfbench
