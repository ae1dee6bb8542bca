// Named counters and histograms for the pipeline, collected alongside the
// span tree of src/obs/trace.h. The registry is ambient like the tracer:
// a thread installs a Metrics instance (ScopedThreadMetrics) and deep
// pipeline code records through the free functions MetricAdd/MetricObserve
// without signature changes — both are no-ops when nothing is installed.
//
// Histograms use power-of-two buckets: Observe(v) increments bucket
// ceil(log2(v+1)), i.e. bucket k counts values in [2^(k-1), 2^k). That is
// the right granularity for the quantities we track (bytes per transport
// frame, multiexp term counts) and keeps a histogram at a fixed 64 slots.

#ifndef SRC_OBS_METRICS_H_
#define SRC_OBS_METRICS_H_

#include <array>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <string_view>

namespace zaatar {
namespace obs {

class Metrics {
 public:
  struct Histogram {
    uint64_t count = 0;
    uint64_t sum = 0;
    std::array<uint64_t, 64> buckets{};  // bucket k: values in [2^(k-1), 2^k)
  };

  void Add(std::string_view name, uint64_t delta = 1) {
    std::lock_guard<std::mutex> lock(mu_);
    counters_[std::string(name)] += delta;
  }

  void Observe(std::string_view name, uint64_t value) {
    std::lock_guard<std::mutex> lock(mu_);
    Histogram& h = histograms_[std::string(name)];
    h.count++;
    h.sum += value;
    h.buckets[BucketIndex(value)]++;
  }

  uint64_t CounterValue(std::string_view name) const {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = counters_.find(std::string(name));
    return it == counters_.end() ? 0 : it->second;
  }

  Histogram HistogramValue(std::string_view name) const {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = histograms_.find(std::string(name));
    return it == histograms_.end() ? Histogram{} : it->second;
  }

  // Snapshots are std::map-ordered by name, so iteration (and therefore the
  // JSON export) is deterministic.
  std::map<std::string, uint64_t> Counters() const {
    std::lock_guard<std::mutex> lock(mu_);
    return counters_;
  }

  std::map<std::string, Histogram> Histograms() const {
    std::lock_guard<std::mutex> lock(mu_);
    return histograms_;
  }

  // 0 for value 0; otherwise the position of the highest set bit plus one,
  // so bucket k (k >= 1) covers [2^(k-1), 2^k). The top bucket (63) is
  // clamped to absorb values >= 2^63 rather than indexing past the array.
  static size_t BucketIndex(uint64_t value) {
    if (value == 0) {
      return 0;
    }
    const size_t k = 64 - static_cast<size_t>(__builtin_clzll(value));
    return k < 64 ? k : 63;
  }

 private:
  mutable std::mutex mu_;
  std::map<std::string, uint64_t> counters_;
  std::map<std::string, Histogram> histograms_;
};

namespace internal {

inline Metrics*& ThreadMetricsSlot() {
  thread_local Metrics* metrics = nullptr;
  return metrics;
}

}  // namespace internal

inline Metrics* ThreadMetrics() { return internal::ThreadMetricsSlot(); }

class ScopedThreadMetrics {
 public:
  explicit ScopedThreadMetrics(Metrics* metrics)
      : saved_(internal::ThreadMetricsSlot()) {
    internal::ThreadMetricsSlot() = metrics;
  }
  ~ScopedThreadMetrics() { internal::ThreadMetricsSlot() = saved_; }

  ScopedThreadMetrics(const ScopedThreadMetrics&) = delete;
  ScopedThreadMetrics& operator=(const ScopedThreadMetrics&) = delete;

 private:
  Metrics* saved_;
};

inline void MetricAdd(const char* name, uint64_t delta = 1) {
  if (Metrics* m = ThreadMetrics()) {
    m->Add(name, delta);
  }
}

inline void MetricObserve(const char* name, uint64_t value) {
  if (Metrics* m = ThreadMetrics()) {
    m->Observe(name, value);
  }
}

}  // namespace obs
}  // namespace zaatar

#endif  // SRC_OBS_METRICS_H_
