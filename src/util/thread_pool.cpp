#include "util/thread_pool.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdlib>
#include <exception>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "obs/trace.hpp"
#include "simd/dispatch.hpp"
#include "util/check.hpp"
#include "util/flags.hpp"

namespace dropback::util {

namespace {
// Set while a pool participant (worker or caller) executes shards, so
// nested run() calls degrade to serial instead of deadlocking on the pool.
thread_local bool t_in_dispatch = false;

// How long a waiting worker (for the next dispatch) or caller (for the
// workers that took shards) spins before it parks on a condition variable.
// A step dispatches every few tens of microseconds, so workers between its
// dispatches never park; an idle pool parks within this long.
constexpr auto kSpinBudget = std::chrono::microseconds(50);

// The dispatch word: generation << 32 | shards not yet claimed.
constexpr std::uint64_t kLeftMask = 0xFFFFFFFFULL;

std::uint64_t generation_of(std::uint64_t word) { return word >> 32; }
int left_of(std::uint64_t word) { return static_cast<int>(word & kLeftMask); }

// Polls `done` for up to kSpinBudget; returns its last value.
template <class Done>
bool spin_until(const Done& done) {
  const auto deadline = std::chrono::steady_clock::now() + kSpinBudget;
  for (;;) {
    for (int i = 0; i < 64; ++i) {
      if (done()) return true;
      simd::cpu_relax();
    }
    if (std::chrono::steady_clock::now() >= deadline) return done();
  }
}
}  // namespace

struct ThreadPool::Impl {
  std::vector<std::thread> workers;

  // Held by the thread whose dispatch owns the slot below; a caller that
  // cannot take it runs its shards inline instead of waiting.
  std::mutex caller_mu;

  // The live dispatch. The caller writes the payload, then publishes the
  // word; a participant reads the payload only after it has claimed a
  // shard, and the caller returns only once every shard is claimed and no
  // worker is counted in `running`, so the payload never changes under a
  // participant that reads it.
  std::atomic<std::uint64_t> word{0};
  std::atomic<int> running{0};  // workers counted in to claim, not yet out
  int shards = 0;
  const std::function<void(int)>* fn = nullptr;
  // The dispatching caller's trace context, handed to workers so kernel
  // work done on their behalf lands in the caller's trace (obs/trace.hpp
  // propagation contract).
  obs::TraceContext trace_ctx;
  std::atomic<bool> failed{false};
  std::exception_ptr error;  // written by the first participant to fail

  // Parking. A waiter registers (under `mu`) before its last check of the
  // condition, and a waker checks the registration after changing the
  // condition, so one of the two always sees the other: no lost wakeup.
  std::mutex mu;
  std::condition_variable cv_start;  // workers: a new generation or stop
  std::condition_variable cv_done;   // caller: running fell to zero
  std::atomic<int> sleepers{0};
  std::atomic<bool> caller_parked{false};
  std::atomic<bool> stop{false};

  // Claims one shard of the live dispatch: returns its index, or -1 when
  // none is left, with `seen` set to the generation whose shards are all
  // claimed. Shards go out in ascending order, to whoever asks first.
  int claim(std::uint64_t& seen) {
    std::uint64_t w = word.load(std::memory_order_acquire);
    while (left_of(w) > 0) {
      if (word.compare_exchange_weak(w, w - 1, std::memory_order_acq_rel,
                                     std::memory_order_acquire)) {
        return shards - left_of(w);
      }
    }
    seen = generation_of(w);
    return -1;
  }

  // Runs shard s; on a throw records the first error and cancels every
  // shard not yet claimed. Returns false if the shard threw.
  bool run_shard(const std::function<void(int)>& f, int s) {
    try {
      f(s);
      return true;
    } catch (...) {
      if (!failed.exchange(true, std::memory_order_acq_rel)) {
        error = std::current_exception();
      }
      word.fetch_and(~kLeftMask, std::memory_order_acq_rel);
      return false;
    }
  }

  void publish(int n) {
    const std::uint64_t next =
        (generation_of(word.load(std::memory_order_relaxed)) + 1) << 32;
    word.store(next | static_cast<std::uint64_t>(n));
    if (sleepers.load() > 0) {
      std::lock_guard<std::mutex> lock(mu);
      cv_start.notify_all();
    }
  }

  // Caller side: waits until no worker is counted in.
  void await_workers() {
    const auto idle = [&] { return running.load() == 0; };
    if (spin_until(idle)) return;
    std::unique_lock<std::mutex> lock(mu);
    caller_parked.store(true);
    cv_done.wait(lock, idle);
    caller_parked.store(false);
  }

  void worker_loop() {
    t_in_dispatch = true;  // a worker only ever runs shards
    std::uint64_t seen = 0;
    const auto fresh = [&] {
      return stop.load() || generation_of(word.load()) != seen;
    };
    for (;;) {
      if (!spin_until(fresh)) {
        std::unique_lock<std::mutex> lock(mu);
        sleepers.fetch_add(1);
        cv_start.wait(lock, fresh);
        sleepers.fetch_sub(1);
      }
      if (stop.load()) return;
      // Count in before claiming, so the caller cannot finish the dispatch
      // (and its payload) between this worker's claim and its reads.
      running.fetch_add(1);
      int s = claim(seen);
      if (s >= 0) {
        const std::function<void(int)>& f = *fn;
        // Adopt the caller's trace for the shard work: this worker's busy
        // interval becomes a "pool_shards" span in the caller's span tree,
        // and the spans its shards open nest under it. Idle time is the
        // gap between a worker's spans. Nothing here reads or writes shared
        // state, so claims and shard math are untouched.
        std::optional<obs::ScopedTraceContext> trace_guard;
        std::optional<obs::TraceSpan> trace_span;
        if (obs::tracing_enabled()) {
          trace_guard.emplace(trace_ctx);
          trace_span.emplace("pool_shards");
        }
        while (s >= 0 && run_shard(f, s)) s = claim(seen);
        // A throw cancelled the rest: this generation is done, all the same.
        if (s >= 0) seen = generation_of(word.load());
      }
      if (running.fetch_sub(1) == 1 && caller_parked.load()) {
        std::lock_guard<std::mutex> lock(mu);
        cv_done.notify_all();
      }
    }
  }
};

ThreadPool::ThreadPool(int threads) : impl_(std::make_unique<Impl>()) {
  const int extra = std::max(0, threads - 1);
  impl_->workers.reserve(static_cast<std::size_t>(extra));
  for (int w = 0; w < extra; ++w) {
    impl_->workers.emplace_back([this] { impl_->worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  impl_->stop.store(true);
  {
    std::lock_guard<std::mutex> lock(impl_->mu);
    impl_->cv_start.notify_all();
  }
  for (auto& t : impl_->workers) t.join();
}

int ThreadPool::num_threads() const {
  return static_cast<int>(impl_->workers.size()) + 1;
}

void ThreadPool::run(int shards, const std::function<void(int)>& fn) {
  if (shards <= 0) return;
  std::unique_lock<std::mutex> caller(impl_->caller_mu, std::defer_lock);
  if (num_threads() == 1 || shards == 1 || t_in_dispatch ||
      !caller.try_lock()) {
    // Serial fallback: same shard order a 1-thread pool would use. A second
    // caller that finds a dispatch live lands here too, so any thread may
    // call run(): shards write disjoint outputs, so serial = parallel.
    for (int s = 0; s < shards; ++s) fn(s);
    return;
  }
  Impl& p = *impl_;
  p.fn = &fn;
  p.shards = shards;
  p.error = nullptr;
  p.failed.store(false, std::memory_order_relaxed);
  p.trace_ctx = obs::tracing_enabled() ? obs::current_trace_context()
                                       : obs::TraceContext{};
  p.publish(shards);

  // The caller claims like any worker, so it never waits on a worker that
  // has not woken: it runs whatever is left, then waits only for the
  // shards workers took.
  std::uint64_t seen = 0;
  t_in_dispatch = true;
  int s = p.claim(seen);
  while (s >= 0 && p.run_shard(fn, s)) s = p.claim(seen);
  t_in_dispatch = false;
  p.await_workers();
  p.fn = nullptr;
  if (p.error) std::rethrow_exception(p.error);
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
