// ParallelFor: the thread-pool primitive shared by the distributed prover
// (src/argument/parallel.h) and the multi-exponentiation kernels
// (src/crypto/multiexp.h). It lives in util/ so the crypto layer can chunk
// work across hardware threads without depending on the argument layer.
//
// OrderedParallelFor is its streaming sibling: results are produced out of
// order on a pool and consumed strictly in index order on the calling thread
// (the prover session proves a batch's instances this way while keeping the
// wire order of the one-at-a-time loop).
//
// Nesting: neither primitive starts more threads than the calling thread's
// parallelism cap (ScopedParallelismCap). OrderedParallelFor runs each of its
// workers under an explicit share of the caller's thread budget, so loops
// nested in its bodies (the kernels' own ParallelFors) do not multiply the
// thread count.

#ifndef SRC_UTIL_PARALLEL_FOR_H_
#define SRC_UTIL_PARALLEL_FOR_H_

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <exception>
#include <functional>
#include <mutex>
#include <optional>
#include <thread>
#include <utility>
#include <vector>

namespace zaatar {

namespace internal {

inline size_t& ThreadParallelismCap() {
  thread_local size_t cap = 0;  // 0 = uncapped
  return cap;
}

}  // namespace internal

// The most threads a ParallelFor started on this thread may use; 0 means
// uncapped (the top-level default).
inline size_t ParallelismCap() { return internal::ThreadParallelismCap(); }

// Sets this thread's parallelism cap for the guard's lifetime (0 lifts it).
class ScopedParallelismCap {
 public:
  explicit ScopedParallelismCap(size_t cap)
      : saved_(internal::ThreadParallelismCap()) {
    internal::ThreadParallelismCap() = cap;
  }
  ~ScopedParallelismCap() { internal::ThreadParallelismCap() = saved_; }

  ScopedParallelismCap(const ScopedParallelismCap&) = delete;
  ScopedParallelismCap& operator=(const ScopedParallelismCap&) = delete;

 private:
  size_t saved_;
};

// Hardware threads of this host (at least 1).
inline size_t HardwareThreads() {
  const unsigned hc = std::thread::hardware_concurrency();
  return hc == 0 ? size_t{1} : static_cast<size_t>(hc);
}

// Runs fn(i) for i in [0, n) across at most `workers` threads. A throw from
// fn(i) no longer escapes a worker thread (which would std::terminate the
// whole process — fatal for a verifier whose per-instance work is allowed to
// fail): the first exception is captured, remaining workers drain without
// starting new indices, and the exception is rethrown on the joining thread.
//
// The pool never spawns more threads than there are indices: with n < workers
// the surplus threads would only lose the fetch_add race and exit, so the
// spawn cost (~10-50us each) is pure waste on small batches. Nor does it
// spawn more than the calling thread's ParallelismCap().
//
// `spawned_threads`, when non-null, receives the number of OS threads the
// call actually created (0 when the loop ran inline on the caller).
inline void ParallelFor(size_t n, size_t workers,
                        const std::function<void(size_t)>& fn,
                        size_t* spawned_threads = nullptr) {
  workers = std::min(workers, n);
  if (const size_t cap = ParallelismCap(); cap != 0) {
    workers = std::min(workers, cap);
  }
  if (spawned_threads != nullptr) {
    *spawned_threads = workers <= 1 ? 0 : workers;
  }
  if (workers <= 1 || n <= 1) {
    for (size_t i = 0; i < n; i++) {
      fn(i);
    }
    return;
  }
  std::atomic<size_t> next{0};
  std::atomic<bool> failed{false};
  std::exception_ptr first_error;
  std::mutex error_mutex;
  std::vector<std::thread> threads;
  threads.reserve(workers);
  for (size_t w = 0; w < workers; w++) {
    threads.emplace_back([&] {
      for (;;) {
        if (failed.load(std::memory_order_relaxed)) {
          return;
        }
        size_t i = next.fetch_add(1);
        if (i >= n) {
          return;
        }
        try {
          fn(i);
        } catch (...) {
          std::lock_guard<std::mutex> lock(error_mutex);
          if (!first_error) {
            first_error = std::current_exception();
          }
          failed.store(true, std::memory_order_relaxed);
          return;
        }
      }
    });
  }
  for (auto& t : threads) {
    t.join();
  }
  if (first_error) {
    std::rethrow_exception(first_error);
  }
}

// Runs produce(i) for i in [begin, end) on up to `workers` threads and hands
// each result to consume(i, result) on the calling thread, strictly in index
// order, as soon as it and every earlier result are ready — so consuming
// index i overlaps producing the indices after it. The observable sequence
// of consume calls is exactly that of the inline loop
//   for i: { T r = produce(i); if (!consume(i, r)) break; }
// which is also what runs when fewer than two workers are useful.
//
//   - Bounded lookahead: at most 2·workers indices are produced or held
//     beyond the last consumed one, so the results held at once stay
//     proportional to the pool, not to end - begin.
//   - consume returning false stops the loop: no further index starts, and
//     the call returns once the workers have finished what they hold.
//   - An exception from produce(i) is rethrown on the calling thread when
//     the consumer reaches i, after every earlier index was consumed —
//     where the inline loop would have thrown. Later results are dropped.
//   - Each worker thread runs under ScopedParallelismCap(nested_cap), its
//     share of the caller's thread budget for loops nested in produce.
template <typename T>
void OrderedParallelFor(size_t begin, size_t end, size_t workers,
                        size_t nested_cap,
                        const std::function<T(size_t)>& produce,
                        const std::function<bool(size_t, T&)>& consume) {
  const size_t n = end > begin ? end - begin : 0;
  workers = std::min(workers, n);
  if (const size_t cap = ParallelismCap(); cap != 0) {
    workers = std::min(workers, cap);
  }
  if (workers <= 1) {
    for (size_t i = begin; i < end; i++) {
      T result = produce(i);
      if (!consume(i, result)) {
        return;
      }
    }
    return;
  }

  struct Slot {
    std::optional<T> value;
    std::exception_ptr error;
    bool ready = false;
  };
  const size_t lookahead = 2 * workers;
  std::vector<Slot> slots(n);
  std::mutex mu;
  std::condition_variable cv;
  size_t next = 0;      // first index (relative to begin) not yet claimed
  size_t consumed = 0;  // indices [0, consumed) were handed to consume
  bool stop = false;

  std::vector<std::thread> threads;
  // Stops the pool and joins it; runs on every exit path below, including a
  // throwing consume.
  auto stop_and_join = [&] {
    {
      std::lock_guard<std::mutex> lock(mu);
      stop = true;
    }
    cv.notify_all();
    for (auto& t : threads) {
      t.join();
    }
  };
  try {
    threads.reserve(workers);
    for (size_t w = 0; w < workers; w++) {
      threads.emplace_back([&] {
        ScopedParallelismCap share(std::max<size_t>(nested_cap, 1));
        for (;;) {
          size_t i;
          {
            std::unique_lock<std::mutex> lock(mu);
            cv.wait(lock, [&] {
              return stop || next >= n || next < consumed + lookahead;
            });
            if (stop || next >= n) {
              return;
            }
            i = next++;
          }
          Slot slot;
          try {
            slot.value.emplace(produce(begin + i));
          } catch (...) {
            slot.error = std::current_exception();
          }
          slot.ready = true;
          {
            std::lock_guard<std::mutex> lock(mu);
            slots[i] = std::move(slot);
          }
          cv.notify_all();
        }
      });
    }

    for (size_t i = 0; i < n; i++) {
      Slot slot;
      {
        std::unique_lock<std::mutex> lock(mu);
        cv.wait(lock, [&] { return slots[i].ready; });
        slot = std::move(slots[i]);
      }
      if (slot.error) {
        std::rethrow_exception(slot.error);
      }
      const bool go = consume(begin + i, *slot.value);
      {
        std::lock_guard<std::mutex> lock(mu);
        consumed = i + 1;
      }
      cv.notify_all();
      if (!go) {
        break;
      }
    }
  } catch (...) {
    stop_and_join();
    throw;
  }
  stop_and_join();
}

}  // namespace zaatar

#endif  // SRC_UTIL_PARALLEL_FOR_H_
