// zaatar-serve: a standing multi-client verifier daemon. One I/O thread
// runs a non-blocking readiness loop (epoll, poll fallback) over an AF_UNIX
// listening socket and every client connection; a fixed WorkerPool runs the
// expensive steps (per-Ψ setup builds, proof verification) off the I/O
// thread; the AmortizationCache shares per-Ψ setup material across
// connections. DESIGN.md §16 describes the architecture.
//
// Backpressure discipline — the properties the saturation tests pin:
//   - At most ONE in-flight worker job per connection; while it runs, the
//     connection's read interest is disarmed, so the kernel socket buffer
//     (not daemon memory) absorbs a flooding client.
//   - Frames already parsed queue per-connection up to a small cap; past it
//     the connection dies with a typed error (a protocol-abusing client,
//     since the one-in-flight rule means an honest one never gets there).
//   - The worker queue is globally bounded; a full queue REFUSES the frame
//     with a typed kResourceExhausted error the client may retry, and the
//     connection stays healthy.
//   - Admission control: connections past max_connections get the same
//     typed rejection at accept time, then close.
//   - Handshake and idle deadlines sweep dead connections, so a client that
//     connects and stalls cannot hold a slot forever.
//
// Threading: the connection table is owned exclusively by the I/O thread.
// Workers communicate results only through the completion queue + wakeup
// pipe, and touch per-connection state only via shared_ptrs captured into
// the job (BatchVerifier), so a connection that dies mid-job just drops the
// completion on the floor.

#ifndef SRC_SERVE_SERVER_H_
#define SRC_SERVE_SERVER_H_

#include <fcntl.h>
#include <unistd.h>

#include <sys/socket.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <deque>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "src/obs/export.h"
#include "src/obs/metrics.h"
#include "src/protocol/transport.h"
#include "src/serve/amortization_cache.h"
#include "src/serve/messages.h"
#include "src/serve/poller.h"
#include "src/serve/worker_pool.h"
#include "src/util/status.h"
#include "src/util/stopwatch.h"

namespace zaatar {
namespace serve {

struct ServerOptions {
  std::string socket_path;

  size_t workers = 2;
  size_t max_queue = 32;           // worker-pool job bound (global)
  size_t max_connections = 32;     // admission control at accept
  size_t max_pending_frames = 16;  // parsed-but-unprocessed frames per conn

  std::chrono::milliseconds handshake_deadline{30000};
  std::chrono::milliseconds idle_deadline{120000};

  AmortizationCache::Options cache;
};

class Server {
 public:
  // `builder` produces per-Ψ material on cache misses (production:
  // MakePsiBuilder from psi_material.h; tests substitute stubs to drive
  // saturation without cryptography).
  Server(ServerOptions options, AmortizationCache::Builder builder)
      : options_(options), cache_(options.cache, std::move(builder)) {}

  ~Server() { Stop(); }

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  // Binds the socket, spins up workers and the I/O thread. Returns once the
  // daemon is accepting (a client may connect immediately after).
  Status Start() {
    if (io_thread_.joinable()) {
      return PhaseViolationError("server already started");
    }
    ZAATAR_ASSIGN_OR_RETURN(
        auto listener, protocol::UnixListener::Bind(options_.socket_path));
    listener_ = std::make_unique<protocol::UnixListener>(std::move(listener));
    int pipe_fds[2];
    if (::pipe(pipe_fds) != 0) {
      listener_.reset();
      return TruncatedError(std::string("pipe failed: ") +
                            std::strerror(errno));
    }
    wakeup_rd_ = pipe_fds[0];
    wakeup_wr_ = pipe_fds[1];
    for (int fd : {wakeup_rd_, wakeup_wr_}) {
      const int flags = ::fcntl(fd, F_GETFL, 0);
      if (flags >= 0) {
        ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
      }
    }
    poller_ = MakePoller();
    ZAATAR_RETURN_IF_ERROR(poller_->Add(listener_->fd(), kListenerTag,
                                        /*want_read=*/true,
                                        /*want_write=*/false));
    ZAATAR_RETURN_IF_ERROR(poller_->Add(wakeup_rd_, kWakeupTag,
                                        /*want_read=*/true,
                                        /*want_write=*/false));
    pool_ = std::make_unique<WorkerPool>(options_.workers, options_.max_queue,
                                         &metrics_);
    stopping_.store(false, std::memory_order_release);
    io_thread_ = std::thread([this] { Run(); });
    return Status::Ok();
  }

  // Idempotent; joins the I/O thread and the pool. Open connections are
  // closed without ceremony (clients see EOF, a typed kTruncated).
  void Stop() {
    if (io_thread_.joinable()) {
      stopping_.store(true, std::memory_order_release);
      Wake();
      io_thread_.join();
    }
    if (pool_ != nullptr) {
      pool_->Stop();
    }
    if (wakeup_rd_ >= 0) {
      ::close(wakeup_rd_);
      ::close(wakeup_wr_);
      wakeup_rd_ = wakeup_wr_ = -1;
    }
    poller_.reset();
    listener_.reset();
  }

  bool stop_requested() const {
    return stopping_.load(std::memory_order_acquire);
  }

  AmortizationCache& cache() { return cache_; }
  obs::Metrics& metrics() { return metrics_; }
  const ServerOptions& options() const { return options_; }

  // The /stats document (schema zaatar.serve.stats.v1): connection and
  // queue state, cache hit/miss/evict accounting, per-tenant verdict and
  // latency counters, and the full obs metrics registry. Deterministically
  // ordered (std::map everywhere) and safe from any thread.
  std::string StatsJson() const {
    using obs::internal::AppendJsonString;
    using obs::internal::AppendU64;
    std::string out = "{\n  \"schema\": \"zaatar.serve.stats.v1\",\n";
    out += "  \"poller\": ";
    AppendJsonString(poller_ != nullptr ? poller_->name() : "none", &out);
    out += ",\n  \"connections\": {\"open\": ";
    AppendU64(open_connections_.load(std::memory_order_relaxed), &out);
    out += ", \"accepted\": ";
    AppendU64(accepted_connections_.load(std::memory_order_relaxed), &out);
    out += ", \"rejected\": ";
    AppendU64(rejected_connections_.load(std::memory_order_relaxed), &out);
    out += "},\n  \"queue\": {\"depth\": ";
    AppendU64(pool_ != nullptr ? pool_->queue_depth() : 0, &out);
    out += ", \"capacity\": ";
    AppendU64(pool_ != nullptr ? pool_->queue_capacity() : 0, &out);
    out += ", \"workers\": ";
    AppendU64(pool_ != nullptr ? pool_->thread_count() : 0, &out);
    out += ", \"shed\": ";
    AppendU64(load_shed_.load(std::memory_order_relaxed), &out);
    out += "},\n  \"cache\": ";
    AppendCacheJson(cache_.stats(), &out);
    out += ",\n  \"tenants\": {";
    {
      std::lock_guard<std::mutex> lock(stats_mu_);
      bool first = true;
      for (const auto& [name, t] : tenants_) {
        out += first ? "\n    " : ",\n    ";
        first = false;
        AppendJsonString(name, &out);
        out += ": {\"proofs\": ";
        AppendU64(t.proofs, &out);
        out += ", \"accepted\": ";
        AppendU64(t.accepted, &out);
        out += ", \"rejected\": ";
        AppendU64(t.rejected, &out);
        out += ", \"verify_us_sum\": ";
        AppendU64(t.verify_us_sum, &out);
        out += ", \"setup_waits\": ";
        AppendU64(t.setup_waits, &out);
        out += "}";
      }
      if (!first) {
        out += "\n  ";
      }
    }
    out += "},\n  \"obs\": ";
    std::string obs_json = obs::ExportJson(nullptr, &metrics_);
    while (!obs_json.empty() && obs_json.back() == '\n') {
      obs_json.pop_back();
    }
    out += obs_json;
    out += "\n}\n";
    return out;
  }

 private:
  static constexpr uint64_t kListenerTag = 0;
  static constexpr uint64_t kWakeupTag = 1;
  static constexpr uint64_t kFirstConnectionTag = 2;
  static constexpr size_t kReadChunk = 64 * 1024;

  // Incremental parser for [u32-LE length][payload] frames, the same wire
  // format PipeTransport speaks. Hostile lengths are screened against the
  // transport cap before any allocation.
  class FrameReader {
   public:
    Status Feed(const uint8_t* data, size_t n,
                std::deque<std::vector<uint8_t>>* out) {
      size_t pos = 0;
      while (pos < n) {
        if (header_fill_ < 4) {
          const size_t take = std::min(n - pos, 4 - header_fill_);
          std::memcpy(header_ + header_fill_, data + pos, take);
          header_fill_ += take;
          pos += take;
          if (header_fill_ < 4) {
            return Status::Ok();
          }
          uint32_t len = 0;
          for (int i = 0; i < 4; i++) {
            len |= static_cast<uint32_t>(header_[i]) << (8 * i);
          }
          if (len > protocol::kMaxFrameBytes) {
            return LengthOverflowError(
                "frame length prefix exceeds transport cap");
          }
          expected_ = len;
          body_.clear();
          body_.reserve(
              std::min<size_t>(len, protocol::kMaxEagerReserveBytes));
        }
        const size_t take = std::min<size_t>(n - pos, expected_ - body_.size());
        body_.insert(body_.end(), data + pos, data + pos + take);
        pos += take;
        if (body_.size() == expected_) {
          out->push_back(std::move(body_));
          body_ = {};
          header_fill_ = 0;
          expected_ = 0;
        }
      }
      return Status::Ok();
    }

   private:
    uint8_t header_[4] = {0, 0, 0, 0};
    size_t header_fill_ = 0;
    size_t expected_ = 0;
    std::vector<uint8_t> body_;
  };

  struct Connection {
    int fd = -1;
    uint64_t tag = 0;
    enum class State { kHandshake, kReady } state = State::kHandshake;
    FrameReader reader;
    std::deque<std::vector<uint8_t>> pending;  // parsed, unprocessed frames
    std::vector<uint8_t> write_buf;            // length-prefixed bytes
    size_t write_offset = 0;
    std::deque<std::vector<uint8_t>> outbox;   // frames not yet in write_buf
    bool in_flight = false;
    bool close_after_flush = false;
    std::chrono::steady_clock::time_point last_activity;
    std::string tenant;
    std::string psi;
    std::shared_ptr<BatchVerifier> batch;  // shared with in-flight jobs
  };

  struct Completion {
    uint64_t tag = 0;
    std::vector<std::vector<uint8_t>> frames;
    std::shared_ptr<BatchVerifier> batch;  // set on a successful hello
    bool ready = false;                    // move connection to kReady
    bool close_after = false;
  };

  struct TenantStats {
    uint64_t proofs = 0;
    uint64_t accepted = 0;
    uint64_t rejected = 0;
    uint64_t verify_us_sum = 0;
    uint64_t setup_waits = 0;  // hellos served (hit or miss)
  };

  // ----- I/O thread -----

  void Run() {
    obs::ScopedThreadMetrics ambient(&metrics_);
    while (!stop_requested()) {
      auto events = poller_->Wait(NextTimeoutMs());
      if (!events.ok()) {
        break;  // poller broke; nothing to do but shut down
      }
      for (const PollerEvent& ev : *events) {
        if (ev.tag == kListenerTag) {
          AcceptPending();
        } else if (ev.tag == kWakeupTag) {
          DrainWakeup();
          ApplyCompletions();
        } else {
          OnConnectionEvent(ev);
        }
      }
      SweepDeadlines();
    }
    for (auto& [tag, conn] : connections_) {
      ::close(conn.fd);
      open_connections_.fetch_sub(1, std::memory_order_relaxed);
    }
    connections_.clear();
  }

  int NextTimeoutMs() const {
    if (connections_.empty()) {
      return -1;
    }
    auto now = std::chrono::steady_clock::now();
    int64_t best = std::numeric_limits<int64_t>::max();
    for (const auto& [tag, conn] : connections_) {
      if (conn.in_flight) {
        continue;  // a working connection is not idle
      }
      const auto budget = conn.state == Connection::State::kHandshake
                              ? options_.handshake_deadline
                              : options_.idle_deadline;
      if (budget.count() <= 0) {
        continue;
      }
      const auto expires = conn.last_activity + budget;
      const int64_t left = std::chrono::duration_cast<std::chrono::milliseconds>(
                               expires - now)
                               .count();
      best = std::min(best, std::max<int64_t>(left, 0));
    }
    if (best == std::numeric_limits<int64_t>::max()) {
      return -1;
    }
    return static_cast<int>(std::min<int64_t>(best, 60000));
  }

  void AcceptPending() {
    for (;;) {
      auto accepted = listener_->Accept();
      if (!accepted.ok()) {
        return;  // listener broke; the sweep/stop path handles the rest
      }
      const int fd = *accepted;
      if (fd < 0) {
        return;  // accept queue drained
      }
      if (connections_.size() >= options_.max_connections) {
        // Typed rejection: one best-effort frame into the fresh (empty)
        // socket buffer, then close. The client sees RESOURCE_EXHAUSTED,
        // not a silent EOF.
        SendFrameBestEffort(
            fd, EncodeErrorFrame(ResourceExhaustedError(
                    "connection limit (" +
                    std::to_string(options_.max_connections) + ") reached")));
        ::close(fd);
        rejected_connections_.fetch_add(1, std::memory_order_relaxed);
        metrics_.Add("serve.connections_rejected");
        continue;
      }
      const uint64_t tag = next_tag_++;
      Connection conn;
      conn.fd = fd;
      conn.tag = tag;
      conn.last_activity = std::chrono::steady_clock::now();
      if (!poller_->Add(fd, tag, /*want_read=*/true, /*want_write=*/false)
               .ok()) {
        ::close(fd);
        continue;
      }
      connections_.emplace(tag, std::move(conn));
      open_connections_.fetch_add(1, std::memory_order_relaxed);
      accepted_connections_.fetch_add(1, std::memory_order_relaxed);
      metrics_.Add("serve.connections_accepted");
    }
  }

  void OnConnectionEvent(const PollerEvent& ev) {
    auto it = connections_.find(ev.tag);
    if (it == connections_.end()) {
      return;
    }
    Connection& conn = it->second;
    if (ev.readable || ev.hangup) {
      if (!ReadFrom(conn)) {
        CloseConnection(it);
        return;
      }
      ProcessPending(conn);
    }
    if (ev.writable) {
      if (!FlushWrites(conn)) {
        CloseConnection(it);
        return;
      }
    }
    if (conn.close_after_flush && conn.write_buf.empty() &&
        conn.outbox.empty()) {
      CloseConnection(it);
      return;
    }
    UpdateInterest(conn);
  }

  // One bounded read per readiness; level-triggered polling re-reports
  // anything left. False = the connection is dead.
  bool ReadFrom(Connection& conn) {
    uint8_t buf[kReadChunk];
    ssize_t r;
    do {
      r = ::read(conn.fd, buf, sizeof(buf));
    } while (r < 0 && errno == EINTR);
    if (r == 0) {
      return false;  // EOF
    }
    if (r < 0) {
      return errno == EAGAIN || errno == EWOULDBLOCK;
    }
    conn.last_activity = std::chrono::steady_clock::now();
    metrics_.Add("serve.bytes_read", static_cast<uint64_t>(r));
    Status fed =
        conn.reader.Feed(buf, static_cast<size_t>(r), &conn.pending);
    if (!fed.ok()) {
      QueueError(conn, fed, /*close_conn=*/true);
      return true;  // the error frame still wants flushing
    }
    if (conn.pending.size() > options_.max_pending_frames) {
      QueueError(conn,
                 ResourceExhaustedError(
                     "per-connection frame queue overflow (" +
                     std::to_string(options_.max_pending_frames) + ")"),
                 /*close_conn=*/true);
    }
    return true;
  }

  void ProcessPending(Connection& conn) {
    while (!conn.in_flight && !conn.close_after_flush &&
           !conn.pending.empty()) {
      std::vector<uint8_t> frame = std::move(conn.pending.front());
      conn.pending.pop_front();
      metrics_.Add("serve.frames_received");
      auto env = DecodeEnvelope(frame);
      if (!env.ok()) {
        QueueError(conn, env.status(), /*close_conn=*/true);
        return;
      }
      HandleEnvelope(conn, *env);
    }
  }

  void HandleEnvelope(Connection& conn, const Envelope& env) {
    switch (env.type) {
      case MessageType::kStatsRequest: {
        const std::string json = StatsJson();
        QueueFrame(conn,
                   EncodeEnvelope(MessageType::kStatsReply,
                                  reinterpret_cast<const uint8_t*>(
                                      json.data()),
                                  json.size()));
        return;
      }
      case MessageType::kShutdown: {
        QueueFrame(conn, EncodeEnvelope(MessageType::kShutdown));
        conn.close_after_flush = true;
        stopping_.store(true, std::memory_order_release);
        // Keep looping until this connection's ack flushes or its deadline
        // hits; the Run loop checks stop_requested() each iteration.
        FlushWrites(conn);
        return;
      }
      case MessageType::kHello:
        HandleHello(conn, env);
        return;
      case MessageType::kProve:
        HandleProveFrame(conn, env);
        return;
      default:
        QueueError(conn,
                   PhaseViolationError(std::string("unexpected ") +
                                       MessageTypeName(env.type) + " frame"),
                   /*close_conn=*/true);
        return;
    }
  }

  void HandleHello(Connection& conn, const Envelope& env) {
    if (conn.state != Connection::State::kHandshake) {
      QueueError(conn, PhaseViolationError("second hello on connection"),
                 /*close_conn=*/true);
      return;
    }
    auto hello = HelloMessage::DecodePayload(env.payload);
    if (!hello.ok()) {
      QueueError(conn, hello.status(), /*close_conn=*/true);
      return;
    }
    conn.tenant = hello->tenant.empty() ? "anonymous" : hello->tenant;
    conn.psi = hello->psi;
    const std::string psi = hello->psi;
    const uint8_t field_tag = hello->field_tag;
    const std::string tenant = conn.tenant;
    const uint64_t tag = conn.tag;
    Status submitted = pool_->Submit([this, tag, psi, field_tag, tenant] {
      Completion done;
      done.tag = tag;
      auto material = cache_.GetOrBuild(psi, field_tag);
      if (material.ok()) {
        done.batch = std::shared_ptr<BatchVerifier>((*material)->NewBatch());
        done.ready = true;
        done.frames.push_back(EncodeEnvelope(MessageType::kSetup,
                                             (*material)->setup_frame()));
        std::lock_guard<std::mutex> lock(stats_mu_);
        tenants_[tenant].setup_waits++;
      } else {
        done.frames.push_back(EncodeErrorFrame(material.status()));
        done.close_after = true;
      }
      Deliver(std::move(done));
    });
    if (!submitted.ok()) {
      // Queue full: typed, retryable, and the connection survives — the
      // client backs off and re-sends the hello.
      load_shed_.fetch_add(1, std::memory_order_relaxed);
      metrics_.Add("serve.load_shed");
      QueueFrame(conn, EncodeErrorFrame(submitted));
      return;
    }
    conn.in_flight = true;
  }

  void HandleProveFrame(Connection& conn, const Envelope& env) {
    if (conn.state != Connection::State::kReady || conn.batch == nullptr) {
      QueueError(conn, PhaseViolationError("prove before hello/setup"),
                 /*close_conn=*/true);
      return;
    }
    auto batch = conn.batch;
    auto payload = std::make_shared<std::vector<uint8_t>>(env.payload);
    const std::string tenant = conn.tenant;
    const uint64_t tag = conn.tag;
    Status submitted = pool_->Submit([this, tag, batch, payload, tenant] {
      Completion done;
      done.tag = tag;
      Stopwatch sw;
      auto verdict = batch->HandleProve(*payload);
      const uint64_t us =
          static_cast<uint64_t>(sw.ElapsedSeconds() * 1e6);
      if (verdict.ok()) {
        done.frames.push_back(
            EncodeEnvelope(MessageType::kVerdict, *verdict));
      } else {
        done.frames.push_back(EncodeErrorFrame(verdict.status()));
        done.close_after = true;
      }
      metrics_.Observe("serve.verify_us", us);
      metrics_.Observe(
          ("serve.tenant." + tenant + ".verify_us").c_str(), us);
      {
        std::lock_guard<std::mutex> lock(stats_mu_);
        TenantStats& t = tenants_[tenant];
        t.proofs++;
        t.verify_us_sum += us;
        if (verdict.ok()) {
          const size_t decided = batch->instances_decided();
          const size_t accepted = batch->instances_accepted();
          t.accepted = accepted;
          t.rejected = decided - accepted;
        }
      }
      Deliver(std::move(done));
    });
    if (!submitted.ok()) {
      load_shed_.fetch_add(1, std::memory_order_relaxed);
      metrics_.Add("serve.load_shed");
      QueueFrame(conn, EncodeErrorFrame(submitted));
      return;
    }
    conn.in_flight = true;
  }

  // ----- worker -> I/O handoff -----

  void Deliver(Completion done) {
    {
      std::lock_guard<std::mutex> lock(completions_mu_);
      completions_.push_back(std::move(done));
    }
    Wake();
  }

  void Wake() {
    const uint8_t byte = 1;
    ssize_t w;
    do {
      w = ::write(wakeup_wr_, &byte, 1);
    } while (w < 0 && errno == EINTR);
    // EAGAIN (pipe full) is fine: a wakeup is already pending.
  }

  void DrainWakeup() {
    uint8_t buf[256];
    while (::read(wakeup_rd_, buf, sizeof(buf)) > 0) {
    }
  }

  void ApplyCompletions() {
    std::deque<Completion> batch;
    {
      std::lock_guard<std::mutex> lock(completions_mu_);
      batch.swap(completions_);
    }
    for (Completion& done : batch) {
      auto it = connections_.find(done.tag);
      if (it == connections_.end()) {
        continue;  // connection died while the job ran
      }
      Connection& conn = it->second;
      conn.in_flight = false;
      conn.last_activity = std::chrono::steady_clock::now();
      if (done.ready) {
        conn.batch = std::move(done.batch);
        conn.state = Connection::State::kReady;
      }
      for (auto& frame : done.frames) {
        QueueFrame(conn, std::move(frame));
      }
      if (done.close_after) {
        conn.close_after_flush = true;
      }
      ProcessPending(conn);
      if (!FlushWrites(conn) || (conn.close_after_flush &&
                                 conn.write_buf.empty() &&
                                 conn.outbox.empty())) {
        CloseConnection(it);
        continue;
      }
      UpdateInterest(conn);
    }
  }

  // ----- outbound -----

  void QueueFrame(Connection& conn, std::vector<uint8_t> frame) {
    conn.outbox.push_back(std::move(frame));
    FlushWrites(conn);
    UpdateInterest(conn);
  }

  void QueueError(Connection& conn, const Status& s, bool close_conn) {
    metrics_.Add("serve.errors_sent");
    conn.outbox.push_back(EncodeErrorFrame(s));
    if (close_conn) {
      conn.close_after_flush = true;
    }
    FlushWrites(conn);
    UpdateInterest(conn);
  }

  // Non-blocking flush of the write buffer + outbox. False = dead socket.
  bool FlushWrites(Connection& conn) {
    for (;;) {
      if (conn.write_offset == conn.write_buf.size()) {
        conn.write_buf.clear();
        conn.write_offset = 0;
        if (conn.outbox.empty()) {
          return true;
        }
        std::vector<uint8_t> frame = std::move(conn.outbox.front());
        conn.outbox.pop_front();
        const uint32_t len = static_cast<uint32_t>(frame.size());
        conn.write_buf.reserve(4 + frame.size());
        for (int i = 0; i < 4; i++) {
          conn.write_buf.push_back(static_cast<uint8_t>(len >> (8 * i)));
        }
        conn.write_buf.insert(conn.write_buf.end(), frame.begin(),
                              frame.end());
      }
      ssize_t w;
      do {
        w = ::send(conn.fd, conn.write_buf.data() + conn.write_offset,
                   conn.write_buf.size() - conn.write_offset, MSG_NOSIGNAL);
      } while (w < 0 && errno == EINTR);
      if (w < 0) {
        return errno == EAGAIN || errno == EWOULDBLOCK;
      }
      conn.write_offset += static_cast<size_t>(w);
      metrics_.Add("serve.bytes_written", static_cast<uint64_t>(w));
    }
  }

  void UpdateInterest(Connection& conn) {
    const bool want_read = !conn.close_after_flush && !conn.in_flight &&
                           conn.pending.size() <= options_.max_pending_frames;
    const bool want_write =
        conn.write_offset < conn.write_buf.size() || !conn.outbox.empty();
    poller_->Update(conn.fd, conn.tag, want_read, want_write);
  }

  void CloseConnection(std::map<uint64_t, Connection>::iterator it) {
    poller_->Remove(it->second.fd);
    ::close(it->second.fd);
    open_connections_.fetch_sub(1, std::memory_order_relaxed);
    metrics_.Add("serve.connections_closed");
    connections_.erase(it);
  }

  void SweepDeadlines() {
    const auto now = std::chrono::steady_clock::now();
    for (auto it = connections_.begin(); it != connections_.end();) {
      Connection& conn = it->second;
      const auto budget = conn.state == Connection::State::kHandshake
                              ? options_.handshake_deadline
                              : options_.idle_deadline;
      if (!conn.in_flight && budget.count() > 0 &&
          now - conn.last_activity >= budget) {
        metrics_.Add("serve.deadline_closed");
        // Best-effort typed notice; the close is the real enforcement.
        SendFrameBestEffort(
            conn.fd,
            EncodeErrorFrame(DeadlineExceededError(
                conn.state == Connection::State::kHandshake
                    ? "handshake deadline exceeded"
                    : "idle deadline exceeded")));
        auto dead = it++;
        CloseConnection(dead);
      } else {
        ++it;
      }
    }
  }

  // One non-blocking length-prefixed frame write, for paths with no
  // Connection bookkeeping (admission rejection, deadline notices). A full
  // socket buffer silently drops it — these are courtesies, not protocol.
  static void SendFrameBestEffort(int fd, const std::vector<uint8_t>& frame) {
    std::vector<uint8_t> wire;
    wire.reserve(4 + frame.size());
    const uint32_t len = static_cast<uint32_t>(frame.size());
    for (int i = 0; i < 4; i++) {
      wire.push_back(static_cast<uint8_t>(len >> (8 * i)));
    }
    wire.insert(wire.end(), frame.begin(), frame.end());
    ssize_t ignored = ::send(fd, wire.data(), wire.size(), MSG_NOSIGNAL);
    (void)ignored;
  }

  static void AppendCacheJson(const AmortizationCache::Stats& s,
                              std::string* out) {
    using obs::internal::AppendU64;
    *out += "{\"hits\": ";
    AppendU64(s.hits, out);
    *out += ", \"misses\": ";
    AppendU64(s.misses, out);
    *out += ", \"evictions\": ";
    AppendU64(s.evictions, out);
    *out += ", \"build_failures\": ";
    AppendU64(s.build_failures, out);
    *out += ", \"entries\": ";
    AppendU64(s.entries, out);
    *out += ", \"epoch\": ";
    AppendU64(s.epoch, out);
    *out += ", \"memory_bytes\": ";
    AppendU64(s.memory_bytes, out);
    *out += "}";
  }

  const ServerOptions options_;
  AmortizationCache cache_;
  mutable obs::Metrics metrics_;

  std::unique_ptr<protocol::UnixListener> listener_;
  std::unique_ptr<Poller> poller_;
  std::unique_ptr<WorkerPool> pool_;
  std::thread io_thread_;
  std::atomic<bool> stopping_{false};
  int wakeup_rd_ = -1;
  int wakeup_wr_ = -1;

  // I/O-thread-owned.
  std::map<uint64_t, Connection> connections_;
  uint64_t next_tag_ = kFirstConnectionTag;

  std::mutex completions_mu_;
  std::deque<Completion> completions_;

  mutable std::mutex stats_mu_;
  std::map<std::string, TenantStats> tenants_;

  std::atomic<uint64_t> open_connections_{0};
  std::atomic<uint64_t> accepted_connections_{0};
  std::atomic<uint64_t> rejected_connections_{0};
  std::atomic<uint64_t> load_shed_{0};
};

}  // namespace serve
}  // namespace zaatar

#endif  // SRC_SERVE_SERVER_H_
