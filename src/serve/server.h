// zaatar-serve: a standing multi-client verifier daemon. An accept thread
// admits AF_UNIX connections, and each admitted connection gets one thread
// that receives a frame, handles it and replies over a
// protocol::PipeTransport, which owns the framing, the frame cap and the
// deadlines. The AmortizationCache shares per-Ψ setup material across
// connections. DESIGN.md §16 describes the architecture.
//
// Backpressure discipline — the properties the daemon tests pin:
//   - A connection thread reads its next frame only after its reply is
//     out, so a client that floods without reading fills the kernel socket
//     buffers and then blocks itself; daemon memory does not grow.
//   - Every receive and send carries the handshake deadline until a HELLO
//     succeeds and the idle deadline after it, so a client that stalls in
//     either direction is sent a typed kDeadlineExceeded notice and closed.
//   - The expensive steps (setup builds, proof verification) pass a job
//     gate: `workers` run at once, `max_queue` more wait, and the rest are
//     refused with a typed kResourceExhausted the client may retry; the
//     connection stays open.
//   - Admission control: connections past max_connections get the same
//     typed rejection at accept time, then close.
//
// Threading: each connection's session state (tenant, BatchVerifier) lives
// on its own thread. The accept thread and Stop() share the connection
// records under one mutex; the tenant table has its own.

#ifndef SRC_SERVE_SERVER_H_
#define SRC_SERVE_SERVER_H_

#include <poll.h>

#include <sys/socket.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <system_error>
#include <thread>
#include <utility>
#include <vector>

#include "src/obs/export.h"
#include "src/obs/metrics.h"
#include "src/protocol/transport.h"
#include "src/serve/amortization_cache.h"
#include "src/serve/messages.h"
#include "src/util/status.h"
#include "src/util/stopwatch.h"

namespace zaatar {
namespace serve {

struct ServerOptions {
  std::string socket_path;

  size_t workers = 2;              // jobs that run at once (global)
  size_t max_queue = 32;           // jobs that wait for a slot (global)
  size_t max_connections = 32;     // admission control at accept

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
      : options_(options),
        cache_(options.cache, std::move(builder)),
        gate_(options.workers, options.max_queue) {}

  ~Server() { Stop(); }

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  // Binds the socket and starts the accept thread. Returns once the daemon
  // is accepting (a client may connect immediately after). A server starts
  // once.
  Status Start() {
    if (accept_thread_.joinable() || stop_requested()) {
      return PhaseViolationError("server already started");
    }
    ZAATAR_ASSIGN_OR_RETURN(
        auto listener, protocol::UnixListener::Bind(options_.socket_path));
    listener_ = std::make_unique<protocol::UnixListener>(std::move(listener));
    accept_thread_ = std::thread([this] { AcceptLoop(); });
    return Status::Ok();
  }

  // Idempotent. Stops accepting, refuses waiting jobs, closes every
  // connection (clients see EOF, a typed kTruncated) and joins every
  // thread; a job that is already running finishes first.
  void Stop() {
    RequestStop();
    if (accept_thread_.joinable()) {
      accept_thread_.join();
    }
    gate_.Stop();
    std::list<Connection> connections;
    {
      std::lock_guard<std::mutex> lock(connections_mu_);
      for (Connection& conn : connections_) {
        conn.transport->Close();
      }
      connections.swap(connections_);
    }
    for (Connection& conn : connections) {
      conn.thread.join();
    }
    listener_.reset();
  }

  bool stop_requested() const {
    return stopping_.load(std::memory_order_acquire);
  }

  AmortizationCache& cache() { return cache_; }
  obs::Metrics& metrics() { return metrics_; }
  const ServerOptions& options() const { return options_; }

  // The /stats document (schema zaatar.serve.stats.v1): connection and
  // job-gate state, cache hit/miss/evict accounting, per-tenant verdict and
  // latency counters, and the full obs metrics registry. Deterministically
  // ordered (std::map everywhere) and safe from any thread.
  std::string StatsJson() const {
    using obs::internal::AppendJsonString;
    using obs::internal::AppendU64;
    std::string out = "{\n  \"schema\": \"zaatar.serve.stats.v1\",\n";
    out += "  \"connections\": {\"open\": ";
    AppendU64(open_connections_.load(std::memory_order_relaxed), &out);
    out += ", \"accepted\": ";
    AppendU64(accepted_connections_.load(std::memory_order_relaxed), &out);
    out += ", \"rejected\": ";
    AppendU64(rejected_connections_.load(std::memory_order_relaxed), &out);
    out += "},\n  \"queue\": {\"depth\": ";
    AppendU64(gate_.waiting(), &out);
    out += ", \"capacity\": ";
    AppendU64(gate_.max_waiting(), &out);
    out += ", \"workers\": ";
    AppendU64(gate_.slots(), &out);
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
  // Send budget for the courtesy frames that precede a close (admission
  // rejection, deadline notices): long enough for an empty socket buffer,
  // short enough that a peer which stopped reading is dropped at once.
  static constexpr std::chrono::milliseconds kNoticeDeadline{100};

  // Admission for the expensive steps: `slots` jobs run at once, up to
  // `max_waiting` more block for a slot, and the rest are refused with a
  // typed, retryable kResourceExhausted. Stop() refuses every waiter.
  class JobGate {
   public:
    JobGate(size_t slots, size_t max_waiting)
        : slots_(std::max<size_t>(slots, 1)),
          max_waiting_(std::max<size_t>(max_waiting, 1)) {}

    Status Enter() {
      std::unique_lock<std::mutex> lock(mu_);
      if (!stopping_ && running_ == slots_) {
        if (waiting_ == max_waiting_) {
          return ResourceExhaustedError(
              "worker queue full (" + std::to_string(max_waiting_) + " jobs)");
        }
        waiting_++;
        cv_.wait(lock, [this] { return stopping_ || running_ < slots_; });
        waiting_--;
      }
      if (stopping_) {
        return ResourceExhaustedError("server is stopping");
      }
      running_++;
      return Status::Ok();
    }

    void Leave() {
      {
        std::lock_guard<std::mutex> lock(mu_);
        running_--;
      }
      cv_.notify_one();
    }

    void Stop() {
      {
        std::lock_guard<std::mutex> lock(mu_);
        stopping_ = true;
      }
      cv_.notify_all();
    }

    size_t waiting() const {
      std::lock_guard<std::mutex> lock(mu_);
      return waiting_;
    }
    size_t slots() const { return slots_; }
    size_t max_waiting() const { return max_waiting_; }

   private:
    const size_t slots_;
    const size_t max_waiting_;
    mutable std::mutex mu_;
    std::condition_variable cv_;
    size_t running_ = 0;
    size_t waiting_ = 0;
    bool stopping_ = false;
  };

  // At a stable address (std::list): the connection's thread holds a
  // reference to its own record.
  struct Connection {
    std::unique_ptr<protocol::PipeTransport> transport;
    std::thread thread;
    std::atomic<bool> finished{false};
  };

  // One connection's protocol state, owned by its thread.
  struct Session {
    std::string tenant;
    std::unique_ptr<BatchVerifier> batch;  // set by a successful hello
  };

  struct Reply {
    std::vector<uint8_t> frame;
    bool close_after = false;
  };

  struct TenantStats {
    uint64_t proofs = 0;
    uint64_t accepted = 0;
    uint64_t rejected = 0;
    uint64_t verify_us_sum = 0;
    uint64_t setup_waits = 0;  // hellos served (hit or miss)
  };

  static protocol::TransportOptions Deadlines(std::chrono::milliseconds d) {
    return protocol::TransportOptions{d, d};
  }

  // Sets the stop flag and wakes the accept thread: shutdown(2) on the
  // listening socket wakes its poll(2) and fails any later accept. Safe
  // from a connection thread (a SHUTDOWN frame); the listener outlives
  // every thread.
  void RequestStop() {
    if (!stopping_.exchange(true, std::memory_order_acq_rel) &&
        listener_ != nullptr) {
      ::shutdown(listener_->fd(), SHUT_RDWR);
    }
  }

  // ----- accept thread -----

  void AcceptLoop() {
    obs::ScopedThreadMetrics ambient(&metrics_);
    for (;;) {
      struct pollfd pfd;
      pfd.fd = listener_->fd();
      pfd.events = POLLIN;
      pfd.revents = 0;
      if (::poll(&pfd, 1, -1) < 0 && errno != EINTR) {
        return;
      }
      if (stop_requested()) {
        return;
      }
      auto accepted = listener_->Accept();
      if (!accepted.ok()) {
        // Out of descriptors or memory, say: back off, then try again.
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
        continue;
      }
      if (*accepted >= 0) {
        Admit(*accepted);
      }
    }
  }

  void Admit(int fd) {
    auto link = std::make_unique<protocol::PipeTransport>(
        fd, Deadlines(options_.handshake_deadline));
    Status refusal = ResourceExhaustedError(
        "connection limit (" + std::to_string(options_.max_connections) +
        ") reached");
    {
      std::lock_guard<std::mutex> lock(connections_mu_);
      connections_.remove_if([](Connection& conn) {
        if (!conn.finished.load(std::memory_order_acquire)) {
          return false;
        }
        conn.thread.join();
        return true;
      });
      if (connections_.size() < options_.max_connections) {
        Connection& conn = connections_.emplace_back();
        conn.transport = std::move(link);
        open_connections_.fetch_add(1, std::memory_order_relaxed);
        try {
          conn.thread = std::thread([this, &conn] { Serve(conn); });
          accepted_connections_.fetch_add(1, std::memory_order_relaxed);
          metrics_.Add("serve.connections_accepted");
          return;
        } catch (const std::system_error& e) {
          open_connections_.fetch_sub(1, std::memory_order_relaxed);
          link = std::move(conn.transport);
          connections_.pop_back();
          refusal = ResourceExhaustedError(
              std::string("cannot start a connection thread: ") + e.what());
        }
      }
    }
    // Typed rejection into the fresh (empty) socket buffer, then close. The
    // client sees RESOURCE_EXHAUSTED, not a silent EOF.
    link->set_options(Deadlines(kNoticeDeadline));
    (void)link->Send(EncodeErrorFrame(refusal));
    rejected_connections_.fetch_add(1, std::memory_order_relaxed);
    metrics_.Add("serve.connections_rejected");
  }

  // ----- connection thread -----

  void Serve(Connection& conn) {
    obs::ScopedThreadMetrics ambient(&metrics_);
    protocol::PipeTransport& link = *conn.transport;
    Session session;
    Status ended;
    for (;;) {
      auto frame = link.Receive();
      if (!frame.ok()) {
        ended = frame.status();
        break;
      }
      metrics_.Add("serve.frames_received");
      Reply reply = Handle(session, link, *frame);
      ended = link.Send(reply.frame);
      if (!ended.ok() || reply.close_after) {
        break;
      }
    }
    if (ended.code() == StatusCode::kDeadlineExceeded) {
      metrics_.Add("serve.deadline_closed");
      link.set_options(Deadlines(kNoticeDeadline));
      (void)link.Send(EncodeErrorFrame(DeadlineExceededError(
          session.batch == nullptr ? "handshake deadline exceeded"
                                   : "idle deadline exceeded")));
    } else if (ended.code() == StatusCode::kLengthOverflow) {
      (void)link.Send(Fail(ended).frame);  // a length prefix past the cap
    }
    link.Close();
    open_connections_.fetch_sub(1, std::memory_order_relaxed);
    metrics_.Add("serve.connections_closed");
    conn.finished.store(true, std::memory_order_release);
  }

  Reply Handle(Session& session, protocol::PipeTransport& link,
               const std::vector<uint8_t>& frame) {
    auto env = DecodeEnvelope(frame);
    if (!env.ok()) {
      return Fail(env.status());
    }
    switch (env->type) {
      case MessageType::kStatsRequest: {
        const std::string json = StatsJson();
        return {EncodeEnvelope(
            MessageType::kStatsReply,
            reinterpret_cast<const uint8_t*>(json.data()), json.size())};
      }
      case MessageType::kShutdown:
        RequestStop();
        return {EncodeEnvelope(MessageType::kShutdown), true};
      case MessageType::kHello:
        return HandleHello(session, link, env->payload);
      case MessageType::kProve:
        return HandleProve(session, env->payload);
      default:
        return Fail(PhaseViolationError(std::string("unexpected ") +
                                        MessageTypeName(env->type) +
                                        " frame"));
    }
  }

  Reply HandleHello(Session& session, protocol::PipeTransport& link,
                    const std::vector<uint8_t>& payload) {
    if (session.batch != nullptr) {
      return Fail(PhaseViolationError("second hello on connection"));
    }
    auto hello = HelloMessage::DecodePayload(payload);
    if (!hello.ok()) {
      return Fail(hello.status());
    }
    if (Status entered = gate_.Enter(); !entered.ok()) {
      return Shed(entered);
    }
    auto material = cache_.GetOrBuild(hello->psi, hello->field_tag);
    gate_.Leave();
    if (!material.ok()) {
      return {EncodeErrorFrame(material.status()), true};
    }
    session.tenant = hello->tenant.empty() ? "anonymous" : hello->tenant;
    session.batch = (*material)->NewBatch();
    {
      std::lock_guard<std::mutex> lock(stats_mu_);
      tenants_[session.tenant].setup_waits++;
    }
    link.set_options(Deadlines(options_.idle_deadline));
    return {EncodeEnvelope(MessageType::kSetup, (*material)->setup_frame())};
  }

  Reply HandleProve(Session& session, const std::vector<uint8_t>& payload) {
    if (session.batch == nullptr) {
      return Fail(PhaseViolationError("prove before hello/setup"));
    }
    if (Status entered = gate_.Enter(); !entered.ok()) {
      return Shed(entered);
    }
    Stopwatch sw;
    auto verdict = session.batch->HandleProve(payload);
    const uint64_t us = static_cast<uint64_t>(sw.ElapsedSeconds() * 1e6);
    gate_.Leave();
    metrics_.Observe("serve.verify_us", us);
    metrics_.Observe(
        ("serve.tenant." + session.tenant + ".verify_us").c_str(), us);
    {
      std::lock_guard<std::mutex> lock(stats_mu_);
      TenantStats& t = tenants_[session.tenant];
      t.proofs++;
      t.verify_us_sum += us;
      if (verdict.ok()) {
        t.accepted = session.batch->instances_accepted();
        t.rejected = session.batch->instances_decided() - t.accepted;
      }
    }
    if (!verdict.ok()) {
      return {EncodeErrorFrame(verdict.status()), true};
    }
    return {EncodeEnvelope(MessageType::kVerdict, *verdict)};
  }

  // A refused job: typed, retryable, and the connection survives — the
  // client backs off and re-sends the same frame.
  Reply Shed(const Status& refused) {
    load_shed_.fetch_add(1, std::memory_order_relaxed);
    metrics_.Add("serve.load_shed");
    return {EncodeErrorFrame(refused)};
  }

  // A protocol error on the connection: one typed frame, then close.
  Reply Fail(const Status& s) {
    metrics_.Add("serve.errors_sent");
    return {EncodeErrorFrame(s), true};
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
  JobGate gate_;

  std::unique_ptr<protocol::UnixListener> listener_;
  std::thread accept_thread_;
  std::atomic<bool> stopping_{false};

  std::mutex connections_mu_;
  std::list<Connection> connections_;

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
