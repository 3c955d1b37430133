#include "util/thread_pool.hpp"

#include <algorithm>
#include <condition_variable>
#include <cstdlib>
#include <exception>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "obs/trace.hpp"
#include "util/check.hpp"
#include "util/flags.hpp"

namespace dropback::util {

namespace {
// Set while a pool participant (worker or caller) executes shards, so
// nested run() calls degrade to serial instead of deadlocking on the pool.
thread_local bool t_in_dispatch = false;
}  // namespace

struct ThreadPool::Impl {
  std::vector<std::thread> workers;

  // Held by the thread whose dispatch owns the slot below; a caller that
  // cannot take it runs its shards inline instead of waiting.
  std::mutex caller_mu;
  std::mutex mu;
  std::condition_variable cv_start;
  std::condition_variable cv_done;
  std::uint64_t generation = 0;
  int shards = 0;
  const std::function<void(int)>* fn = nullptr;
  int pending = 0;  // workers that have not finished the current dispatch
  std::exception_ptr error;
  bool stop = false;
  // The dispatching caller's trace context, handed to workers so kernel
  // work done on their behalf lands in the caller's trace (obs/trace.hpp
  // propagation contract). Written in run() and read here under `mu`.
  obs::TraceContext trace_ctx;

  void worker_loop(int participant) {
    std::uint64_t seen = 0;
    std::unique_lock<std::mutex> lock(mu);
    for (;;) {
      cv_start.wait(lock, [&] { return stop || generation != seen; });
      if (stop) return;
      seen = generation;
      const int nshards = shards;
      const int total = static_cast<int>(workers.size()) + 1;
      const std::function<void(int)>* f = fn;
      const obs::TraceContext ctx = trace_ctx;
      lock.unlock();
      t_in_dispatch = true;
      // Adopt the caller's trace for the shard work: this worker's busy
      // interval becomes a "pool_shards" span in the caller's span tree,
      // and the spans its shards open nest under it. Idle time is the gap
      // between a worker's spans. Nothing here reads or writes shared
      // state, so dispatch order and shard math are untouched.
      std::optional<obs::ScopedTraceContext> trace_guard;
      std::optional<obs::TraceSpan> trace_span;
      if (obs::tracing_enabled()) {
        trace_guard.emplace(ctx);
        trace_span.emplace("pool_shards");
      }
      std::exception_ptr err;
      for (int s = participant; s < nshards; s += total) {
        try {
          (*f)(s);
        } catch (...) {
          err = std::current_exception();
          break;
        }
      }
      trace_span.reset();
      trace_guard.reset();
      t_in_dispatch = false;
      lock.lock();
      if (err && !error) error = err;
      if (--pending == 0) cv_done.notify_all();
    }
  }
};

ThreadPool::ThreadPool(int threads) : impl_(std::make_unique<Impl>()) {
  const int extra = std::max(0, threads - 1);
  impl_->workers.reserve(static_cast<std::size_t>(extra));
  for (int w = 0; w < extra; ++w) {
    impl_->workers.emplace_back([this, w] { impl_->worker_loop(w + 1); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(impl_->mu);
    impl_->stop = true;
  }
  impl_->cv_start.notify_all();
  for (auto& t : impl_->workers) t.join();
}

int ThreadPool::num_threads() const {
  return static_cast<int>(impl_->workers.size()) + 1;
}

void ThreadPool::run(int shards, const std::function<void(int)>& fn) {
  if (shards <= 0) return;
  const int total = num_threads();
  std::unique_lock<std::mutex> caller(impl_->caller_mu, std::defer_lock);
  if (total == 1 || shards == 1 || t_in_dispatch || !caller.try_lock()) {
    // Serial fallback: same shard order a 1-thread pool would use. A second
    // caller that finds a dispatch live lands here too, so any thread may
    // call run(): shards write disjoint outputs, so serial = parallel.
    for (int s = 0; s < shards; ++s) fn(s);
    return;
  }
  {
    std::lock_guard<std::mutex> lock(impl_->mu);
    impl_->fn = &fn;
    impl_->shards = shards;
    impl_->pending = static_cast<int>(impl_->workers.size());
    impl_->error = nullptr;
    impl_->trace_ctx = obs::tracing_enabled() ? obs::current_trace_context()
                                              : obs::TraceContext{};
    ++impl_->generation;
  }
  impl_->cv_start.notify_all();

  // The caller is participant 0.
  t_in_dispatch = true;
  std::exception_ptr caller_err;
  for (int s = 0; s < shards; s += total) {
    try {
      fn(s);
    } catch (...) {
      caller_err = std::current_exception();
      break;
    }
  }
  t_in_dispatch = false;

  std::unique_lock<std::mutex> lock(impl_->mu);
  impl_->cv_done.wait(lock, [&] { return impl_->pending == 0; });
  impl_->fn = nullptr;
  std::exception_ptr err = impl_->error ? impl_->error : caller_err;
  lock.unlock();
  if (err) std::rethrow_exception(err);
}

namespace {

int default_threads() {
  if (const char* env = std::getenv("DROPBACK_THREADS")) {
    const int n = std::atoi(env);
    if (n > 0) return n;
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

std::mutex g_pool_mu;
std::unique_ptr<ThreadPool> g_pool;

}  // namespace

ThreadPool& global_pool() {
  std::lock_guard<std::mutex> lock(g_pool_mu);
  if (!g_pool) g_pool = std::make_unique<ThreadPool>(default_threads());
  return *g_pool;
}

void set_num_threads(int n) {
  const int want = n > 0 ? n : default_threads();
  std::lock_guard<std::mutex> lock(g_pool_mu);
  if (g_pool && g_pool->num_threads() == want) return;
  g_pool.reset();  // join the old workers before replacing them
  g_pool = std::make_unique<ThreadPool>(want);
}

int num_threads() { return global_pool().num_threads(); }

void configure_threads(const Flags& flags) {
  const long long n = flags.get_int("threads", 0);
  DROPBACK_CHECK(n >= 0, << "--threads must be >= 0, got " << n);
  if (n > 0) set_num_threads(static_cast<int>(n));
}

void parallel_for(std::int64_t grain, std::int64_t n,
                  const std::function<void(std::int64_t, std::int64_t)>& fn) {
  if (n <= 0) return;
  const std::int64_t g = std::max<std::int64_t>(1, grain);
  ThreadPool& pool = global_pool();
  const std::int64_t max_shards = pool.num_threads();
  const int shards =
      static_cast<int>(std::clamp<std::int64_t>(n / g, 1, max_shards));
  if (shards == 1) {
    fn(0, n);
    return;
  }
  pool.run(shards, [&](int s) {
    const std::int64_t begin = n * s / shards;
    const std::int64_t end = n * (s + 1) / shards;
    if (begin < end) fn(begin, end);
  });
}

}  // namespace dropback::util
