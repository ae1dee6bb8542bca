// Hierarchical tracing for the pipeline: thread-safe spans with steady-clock
// timing, collected into a Tracer and exported as a deterministic JSON tree
// (src/obs/export.h).
//
// Usage is ambient: a thread installs a Tracer once (ScopedThreadTracer),
// and any code below it on the stack opens RAII Span guards by name —
// no function signature changes anywhere in the pipeline. A Span's parent is
// whatever span is open on the same thread, or the thread's default parent
// when none is. Cross-thread stitching works by installing the same Tracer
// on a worker thread with the spawning span's id as the default parent: the
// prover thread's spans in MeasureBatch become children of the batch root
// even though they run on a different thread (each thread keeps its own
// current-span cursor, so the stacks never interleave).
//
// Cost model: with no tracer installed, a Span is one thread-local read and
// a branch, so code that records no spans (the serve daemon) pays only that.
// Tracing is always compiled in; DESIGN.md §12 gives the measured overhead.

#ifndef SRC_OBS_TRACE_H_
#define SRC_OBS_TRACE_H_

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace zaatar {
namespace obs {

inline constexpr uint32_t kNoSpan = 0xFFFFFFFFu;

// Append-only span collector. All methods are thread-safe; span ids are
// indices into the node vector and stable for the Tracer's lifetime.
class Tracer {
 public:
  struct Node {
    std::string name;
    uint32_t parent = kNoSpan;  // kNoSpan for roots
    uint64_t start_ns = 0;      // steady clock, relative to the Tracer epoch
    uint64_t end_ns = 0;        // 0 while the span is still open
  };

  Tracer() : epoch_(std::chrono::steady_clock::now()) {}

  uint32_t OpenSpan(std::string_view name, uint32_t parent) {
    const uint64_t now = NowNs();
    std::lock_guard<std::mutex> lock(mu_);
    nodes_.push_back(Node{std::string(name), parent, now, 0});
    return static_cast<uint32_t>(nodes_.size() - 1);
  }

  void CloseSpan(uint32_t id) {
    const uint64_t now = NowNs();
    std::lock_guard<std::mutex> lock(mu_);
    if (id < nodes_.size() && nodes_[id].end_ns == 0) {
      nodes_[id].end_ns = now;
    }
  }

  // A consistent copy of every span recorded so far.
  std::vector<Node> Snapshot() const {
    std::lock_guard<std::mutex> lock(mu_);
    return nodes_;
  }

  // Total duration (seconds) across all closed spans with this name. The
  // harness derives its per-phase cost fields from these sums.
  double SumSeconds(std::string_view name) const {
    std::lock_guard<std::mutex> lock(mu_);
    uint64_t total = 0;
    for (const Node& n : nodes_) {
      if (n.name == name && n.end_ns >= n.start_ns && n.end_ns != 0) {
        total += n.end_ns - n.start_ns;
      }
    }
    return static_cast<double>(total) * 1e-9;
  }

  size_t CountSpans(std::string_view name) const {
    std::lock_guard<std::mutex> lock(mu_);
    size_t c = 0;
    for (const Node& n : nodes_) {
      if (n.name == name) {
        c++;
      }
    }
    return c;
  }

  uint64_t NowNs() const {
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - epoch_)
            .count());
  }

 private:
  std::chrono::steady_clock::time_point epoch_;
  mutable std::mutex mu_;
  std::vector<Node> nodes_;
};

namespace internal {

// Per-thread tracing cursor: the ambient Tracer plus the innermost open
// span on this thread. Each thread has its own — concurrent spans from the
// prover and verifier threads never share a stack.
struct ThreadTraceState {
  Tracer* tracer = nullptr;
  uint32_t current = kNoSpan;
};

inline ThreadTraceState& ThreadTrace() {
  thread_local ThreadTraceState state;
  return state;
}

}  // namespace internal

inline Tracer* ThreadTracer() { return internal::ThreadTrace().tracer; }

// The innermost open span on this thread (or its default parent): what a
// worker passes to ScopedThreadTracer to stitch its spans in right here.
inline uint32_t CurrentSpan() { return internal::ThreadTrace().current; }

// Installs `tracer` as this thread's ambient collector for the guard's
// lifetime; spans opened with no enclosing span become children of
// `default_parent` (pass a span id from another thread to stitch this
// thread's subtree under it, or kNoSpan for a fresh root).
class ScopedThreadTracer {
 public:
  explicit ScopedThreadTracer(Tracer* tracer, uint32_t default_parent = kNoSpan)
      : saved_(internal::ThreadTrace()) {
    internal::ThreadTrace() = {tracer, default_parent};
  }
  ~ScopedThreadTracer() { internal::ThreadTrace() = saved_; }

  ScopedThreadTracer(const ScopedThreadTracer&) = delete;
  ScopedThreadTracer& operator=(const ScopedThreadTracer&) = delete;

 private:
  internal::ThreadTraceState saved_;
};

// RAII span guard. A no-op (one thread-local read) when no tracer is
// installed on the current thread.
class Span {
 public:
  explicit Span(const char* name) {
    internal::ThreadTraceState& st = internal::ThreadTrace();
    if (st.tracer != nullptr) {
      tracer_ = st.tracer;
      parent_ = st.current;
      id_ = tracer_->OpenSpan(name, parent_);
      st.current = id_;
    }
  }

  ~Span() {
    if (tracer_ != nullptr) {
      tracer_->CloseSpan(id_);
      internal::ThreadTrace().current = parent_;
    }
  }

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  // The span's id in its tracer (kNoSpan when tracing is inactive). Workers
  // pass this to ScopedThreadTracer to stitch their subtree under it.
  uint32_t id() const { return id_; }

 private:
  Tracer* tracer_ = nullptr;
  uint32_t id_ = kNoSpan;
  uint32_t parent_ = kNoSpan;
};

}  // namespace obs
}  // namespace zaatar

#endif  // SRC_OBS_TRACE_H_
