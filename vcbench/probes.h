// Measurement probes the benchmark owns: a clock, an in-memory span list, a
// timing decorator for the harness transport, and process CPU/RSS readers.
// Nothing here depends on src/obs, so the benchmark's numbers keep their
// meaning whatever the observability layer becomes.

#ifndef VCBENCH_PROBES_H_
#define VCBENCH_PROBES_H_

#include <sys/resource.h>
#include <unistd.h>

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "src/protocol/transport.h"

namespace vcbench {

using Clock = std::chrono::steady_clock;

inline double Seconds(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

// Append-only list of named [start, end) intervals. The verifier thread and
// the prover thread both append, so every access takes the lock.
class SpanList {
 public:
  struct Span {
    std::string name;
    Clock::time_point start;
    Clock::time_point end;
  };

  void Add(std::string name, Clock::time_point start, Clock::time_point end) {
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back({std::move(name), start, end});
  }

  // Summed duration of every span called `name`.
  double Sum(const std::string& name) const {
    std::lock_guard<std::mutex> lock(mu_);
    double s = 0;
    for (const Span& sp : spans_) {
      if (sp.name == name) {
        s += Seconds(sp.start, sp.end);
      }
    }
    return s;
  }

  // The first span called `name`, or nullptr. The pointer is only stable
  // once no thread appends any more (after the batch's threads are joined).
  const Span* First(const std::string& name) const {
    std::lock_guard<std::mutex> lock(mu_);
    for (const Span& sp : spans_) {
      if (sp.name == name) {
        return &sp;
      }
    }
    return nullptr;
  }

 private:
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

// What the verifier's endpoint saw during one batch. Only the verifier
// thread writes the scalar fields; `spans` (null in untraced batches) also
// takes the prover endpoint's frame spans.
struct WireLog {
  Clock::time_point batch_start;
  Clock::time_point first_send_end;  // the setup frame has left the verifier
  Clock::time_point last_send_end;   // the last verdict has left the verifier
  bool sent_any = false;
  uint64_t bytes_sent = 0;
  uint64_t bytes_received = 0;
  uint64_t setup_bytes = 0;  // size of the verifier's first frame
  uint32_t connections = 0;  // verifier-side decorator invocations
  SpanList* spans = nullptr;
};

// Decorator spliced in through MeasureOptions::wrap_transport. On the
// verifier side it always records frame times and bytes (the end-to-end
// metrics need them); on the prover side it only records frame spans, and
// only in traced batches.
class TimedTransport final : public zaatar::protocol::Transport {
 public:
  TimedTransport(std::unique_ptr<zaatar::protocol::Transport> inner,
                 bool verifier_side, WireLog* log)
      : inner_(std::move(inner)), verifier_side_(verifier_side), log_(log) {}

  zaatar::Status Send(const std::vector<uint8_t>& frame) override {
    const Clock::time_point t0 = Clock::now();
    zaatar::Status st = inner_->Send(frame);
    const Clock::time_point t1 = Clock::now();
    if (verifier_side_) {
      const bool setup = !log_->sent_any;
      log_->bytes_sent += frame.size();
      if (setup) {
        log_->sent_any = true;
        log_->first_send_end = t1;
        log_->setup_bytes = frame.size();
      }
      log_->last_send_end = t1;
      Record(setup ? "verifier.send_setup" : "verifier.send_verdict", t0, t1);
    } else {
      Record("prover.send_proof", t0, t1);
    }
    return st;
  }

  zaatar::StatusOr<std::vector<uint8_t>> Receive() override {
    const Clock::time_point t0 = Clock::now();
    auto frame = inner_->Receive();
    const Clock::time_point t1 = Clock::now();
    const bool first = receives_++ == 0;
    if (verifier_side_) {
      if (frame.ok()) {
        log_->bytes_received += frame->size();
      }
      Record("verifier.recv_proof", t0, t1);
    } else {
      Record(first ? "prover.recv_setup" : "prover.recv_verdict", t0, t1);
    }
    return frame;
  }

  void Close() override { inner_->Close(); }

 private:
  void Record(const char* name, Clock::time_point t0, Clock::time_point t1) {
    if (log_->spans != nullptr) {
      log_->spans->Add(name, t0, t1);
    }
  }

  std::unique_ptr<zaatar::protocol::Transport> inner_;
  bool verifier_side_;
  WireLog* log_;
  uint64_t receives_ = 0;
};

// User + system CPU seconds of the whole process (every thread).
inline double ProcessCpuSeconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return secs(ru.ru_utime) + secs(ru.ru_stime);
}

// CPU time the hypervisor has taken from this machine's CPUs since boot
// (the steal column of /proc/stat), in CPU-seconds; 0 where unreported.
// On a shared host it explains batches that ran slow for reasons outside
// the program.
inline double HostStealSeconds() {
  FILE* f = fopen("/proc/stat", "r");
  if (f == nullptr) {
    return 0;
  }
  unsigned long long t[8] = {};
  const int n = fscanf(f, "cpu %llu %llu %llu %llu %llu %llu %llu %llu", &t[0],
                       &t[1], &t[2], &t[3], &t[4], &t[5], &t[6], &t[7]);
  fclose(f);
  const long hz = sysconf(_SC_CLK_TCK);
  return n == 8 && hz > 0 ? static_cast<double>(t[7]) / hz : 0;
}

// A "Vm*:" line of /proc/self/status in MiB (VmRSS = now, VmHWM = peak);
// 0 if the line is missing.
inline double ProcStatusMb(const char* key) {
  FILE* f = fopen("/proc/self/status", "r");
  if (f == nullptr) {
    return 0;
  }
  char line[256];
  double kb = 0;
  const size_t n = strlen(key);
  while (fgets(line, sizeof(line), f) != nullptr) {
    if (strncmp(line, key, n) == 0 && line[n] == ':') {
      kb = strtod(line + n + 1, nullptr);
      break;
    }
  }
  fclose(f);
  return kb / 1024.0;
}

}  // namespace vcbench

#endif  // VCBENCH_PROBES_H_
