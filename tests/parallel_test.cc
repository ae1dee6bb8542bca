// ParallelFor thread-accounting tests. The exception-propagation and
// coverage behavior is exercised in cost_model_test.cc; this file pins the
// spawn policy: never more OS threads than indices (a pool of 60 workers on
// a 3-instance batch used to start 60 threads, 57 of which only lost the
// index race and exited), and never more than the caller's parallelism cap.
// It also pins OrderedParallelFor's contract: in-order consumption on the
// calling thread, bounded lookahead, early stop, and in-order exceptions.

#include "src/util/parallel_for.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <functional>
#include <mutex>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

namespace zaatar {
namespace {

TEST(ParallelForSpawnTest, ClampsThreadsToIndexCount) {
  size_t spawned = ~size_t{0};
  std::atomic<size_t> calls{0};
  ParallelFor(3, 16, [&](size_t) { calls.fetch_add(1); }, &spawned);
  EXPECT_EQ(spawned, 3u);
  EXPECT_EQ(calls.load(), 3u);

  // n == workers and n > workers keep the requested pool size.
  ParallelFor(8, 8, [&](size_t) {}, &spawned);
  EXPECT_EQ(spawned, 8u);
  ParallelFor(100, 4, [&](size_t) {}, &spawned);
  EXPECT_EQ(spawned, 4u);
}

TEST(ParallelForSpawnTest, DegenerateSizesRunInline) {
  // n <= 1 or workers <= 1 must not start any thread.
  for (auto [n, workers] : std::vector<std::pair<size_t, size_t>>{
           {0, 8}, {1, 8}, {10, 1}, {10, 0}, {0, 0}}) {
    size_t spawned = ~size_t{0};
    std::atomic<size_t> calls{0};
    std::set<std::thread::id> ids;
    std::mutex mu;
    ParallelFor(
        n, workers,
        [&](size_t) {
          calls.fetch_add(1);
          std::lock_guard<std::mutex> lock(mu);
          ids.insert(std::this_thread::get_id());
        },
        &spawned);
    EXPECT_EQ(spawned, 0u) << "n=" << n << " workers=" << workers;
    EXPECT_EQ(calls.load(), n);
    // The inline path runs on the calling thread only.
    for (const auto& id : ids) {
      EXPECT_EQ(id, std::this_thread::get_id());
    }
  }
}

TEST(ParallelForSpawnTest, ClampedPoolStillCoversAllIndices) {
  // The regression scenario: far more workers than indices. Every index runs
  // exactly once, and the set of distinct executing threads never exceeds
  // the clamp.
  const size_t n = 5;
  std::vector<std::atomic<int>> hits(n);
  std::set<std::thread::id> ids;
  std::mutex mu;
  size_t spawned = 0;
  ParallelFor(
      n, 64,
      [&](size_t i) {
        hits[i].fetch_add(1);
        std::lock_guard<std::mutex> lock(mu);
        ids.insert(std::this_thread::get_id());
      },
      &spawned);
  EXPECT_EQ(spawned, n);
  EXPECT_LE(ids.size(), n);
  for (size_t i = 0; i < n; i++) {
    EXPECT_EQ(hits[i].load(), 1);
  }
}

TEST(ParallelismCapTest, CapClampsThePoolAndTheGuardRestoresIt) {
  EXPECT_EQ(ParallelismCap(), 0u);
  {
    ScopedParallelismCap cap(2);
    size_t spawned = 0;
    ParallelFor(100, 8, [](size_t) {}, &spawned);
    EXPECT_EQ(spawned, 2u);
  }
  EXPECT_EQ(ParallelismCap(), 0u);
}

// Produces i*i with jittered delays on a pool; returns the consumed indices
// and checks every value and that consume ran on the calling thread.
std::vector<size_t> RunOrdered(size_t begin, size_t end, size_t workers,
                               const std::function<bool(size_t)>& keep_going) {
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<size_t> order;
  OrderedParallelFor<size_t>(
      begin, end, workers, 1,
      [](size_t i) {
        std::this_thread::sleep_for(std::chrono::microseconds((i * 37) % 200));
        return i * i;
      },
      [&](size_t i, size_t& value) {
        EXPECT_EQ(value, i * i);
        EXPECT_EQ(std::this_thread::get_id(), caller);
        order.push_back(i);
        return keep_going(i);
      });
  return order;
}

TEST(OrderedParallelForTest, ConsumesEveryIndexInOrder) {
  for (size_t workers : {0, 1, 2, 4, 16}) {
    std::vector<size_t> order =
        RunOrdered(3, 40, workers, [](size_t) { return true; });
    ASSERT_EQ(order.size(), 37u) << "workers=" << workers;
    for (size_t k = 0; k < order.size(); k++) {
      EXPECT_EQ(order[k], 3 + k) << "workers=" << workers;
    }
  }
  EXPECT_TRUE(RunOrdered(5, 5, 4, [](size_t) { return true; }).empty());
}

TEST(OrderedParallelForTest, StopsWhenConsumeSaysSo) {
  std::atomic<size_t> produced{0};
  std::vector<size_t> consumed;
  const size_t kWorkers = 3;
  OrderedParallelFor<size_t>(
      0, 1000, kWorkers, 1,
      [&](size_t i) {
        produced.fetch_add(1);
        return i;
      },
      [&](size_t i, size_t&) {
        consumed.push_back(i);
        return i < 5;
      });
  EXPECT_EQ(consumed, (std::vector<size_t>{0, 1, 2, 3, 4, 5}));
  // Nothing past the lookahead window of the last consumed index started.
  EXPECT_LE(produced.load(), 6 + 2 * kWorkers);
}

TEST(OrderedParallelForTest, LookaheadIsBounded) {
  const size_t kWorkers = 4;
  std::atomic<size_t> consumed{0};
  std::atomic<size_t> worst{0};
  OrderedParallelFor<size_t>(
      0, 200, kWorkers, 1,
      [&](size_t i) {
        const size_t ahead = i - consumed.load();
        size_t w = worst.load();
        while (ahead > w && !worst.compare_exchange_weak(w, ahead)) {
        }
        return i;
      },
      [&](size_t, size_t&) {
        std::this_thread::sleep_for(std::chrono::microseconds(50));
        consumed.fetch_add(1);
        return true;
      });
  EXPECT_EQ(consumed.load(), 200u);
  EXPECT_LT(worst.load(), 2 * kWorkers);
}

TEST(OrderedParallelForTest, RethrowsWhenTheConsumerReachesTheFailure) {
  for (size_t workers : {1, 4}) {
    std::vector<size_t> consumed;
    try {
      OrderedParallelFor<size_t>(
          0, 50, workers, 1,
          [](size_t i) -> size_t {
            if (i == 7 || i == 9) {
              throw std::runtime_error("boom " + std::to_string(i));
            }
            return i;
          },
          [&](size_t i, size_t&) {
            consumed.push_back(i);
            return true;
          });
      ADD_FAILURE() << "no exception, workers=" << workers;
    } catch (const std::runtime_error& e) {
      // The first failure in index order, after every earlier index.
      EXPECT_EQ(std::string(e.what()), "boom 7") << "workers=" << workers;
    }
    ASSERT_EQ(consumed.size(), 7u) << "workers=" << workers;
    EXPECT_EQ(consumed.back(), 6u);
  }
}

TEST(OrderedParallelForTest, WorkersGetTheirNestedShare) {
  std::set<size_t> caps;
  std::mutex mu;
  OrderedParallelFor<int>(
      0, 16, 4, 3,
      [&](size_t) {
        std::lock_guard<std::mutex> lock(mu);
        caps.insert(ParallelismCap());
        return 0;
      },
      [](size_t, int&) { return true; });
  EXPECT_EQ(caps, (std::set<size_t>{3}));

  // The inline path leaves the caller's cap alone.
  caps.clear();
  OrderedParallelFor<int>(
      0, 4, 1, 3,
      [&](size_t) {
        caps.insert(ParallelismCap());
        return 0;
      },
      [](size_t, int&) { return true; });
  EXPECT_EQ(caps, (std::set<size_t>{0}));
}

}  // namespace
}  // namespace zaatar
