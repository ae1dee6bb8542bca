// Message transports for the two-party protocol. A Transport moves opaque
// frames (serialized messages) between the prover and verifier sessions;
// the sessions never see anything but bytes, so a decorator (chaos faults,
// timing, recording) can wrap the channel without touching protocol code.
//
// PipeTransport is the one channel: length-prefixed frames over a
// full-duplex AF_UNIX stream socket, a socketpair(2) in the harness and the
// dialed connection of zaatar-serve's client. The frame length is read as an
// untrusted u32 and validated against a hard cap before any allocation, and
// the body is read in bounded chunks — the same hostile-length discipline as
// ByteReader::GetLength.
//
// Failure model (DESIGN.md §13): the peer is not just untrusted about
// *content* — it may also stall, flood, or die. Every wait is therefore
// bounded by TransportOptions deadlines (poll(2)), expiring with a typed
// kDeadlineExceeded; a sender that outruns its peer blocks, within its send
// deadline, once the kernel socket buffer is full; and Receive() on a closed
// transport returns a typed kTruncated ("connection closed") — sessions
// surface both instead of ever hanging a thread.

#ifndef SRC_PROTOCOL_TRANSPORT_H_
#define SRC_PROTOCOL_TRANSPORT_H_

#include <fcntl.h>
#include <poll.h>
#include <unistd.h>

#include <sys/socket.h>
#include <sys/types.h>
#include <sys/un.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <limits>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/util/status.h"

namespace zaatar {
namespace protocol {

// Hard cap on a single frame. The largest honest frame is a SetupMessage
// (query matrices dominate): the 246,110,197 B frame of APSP m = 4 at the
// paper's parameters is 23% of the 1 GiB cap, which bounds what a hostile
// length prefix can make the receiver buffer.
inline constexpr uint64_t kMaxFrameBytes = 1ull << 30;

// Frames are read and written in bounded chunks so a large (but in-cap)
// frame never turns into one giant syscall, and a hostile length prefix on
// the read side fails fast once the sender stops producing bytes.
inline constexpr size_t kTransportChunkBytes = 1u << 20;

// How much of a claimed frame length the receiver commits to up front. A
// length prefix is a promise, not a delivery: the receiver reserves at most
// this much eagerly and grows only as bytes actually arrive, so a hostile
// "1 GiB incoming" prefix followed by silence costs one bounded allocation
// and then a deadline, never a gigabyte.
inline constexpr size_t kMaxEagerReserveBytes = 1u << 26;  // 64 MiB

// Per-endpoint failure-hardening knobs. A zero duration means "wait
// forever" — the pre-hardening behavior, and the right default for the
// trusted in-process harness paths; servers and the chaos suite set real
// deadlines.
struct TransportOptions {
  std::chrono::milliseconds recv_deadline{0};  // per Receive() call
  std::chrono::milliseconds send_deadline{0};  // per Send() call
  // Applied instead of recv_deadline to the FIRST Receive() on the endpoint
  // (waiting for a peer that may never come up); zero falls back to
  // recv_deadline.
  std::chrono::milliseconds handshake_deadline{0};
};

// True for failures of the channel itself — the peer stalled (deadline),
// the connection died (truncated), or the byte stream desynchronized into
// an impossible frame length. These are retryable by reconnecting; every
// other status is a protocol-level outcome or a local sequencing bug and
// must never be retried (a reject is final — see src/protocol/retry.h).
inline bool IsTransportFailure(const Status& s) {
  switch (s.code()) {
    case StatusCode::kTruncated:
    case StatusCode::kDeadlineExceeded:
    case StatusCode::kLengthOverflow:
      return true;
    default:
      return false;
  }
}

namespace internal {

// Shared per-frame accounting for every Transport implementation. Counters
// and the per-direction byte histograms land in whatever Metrics registry is
// installed on the calling thread (no-ops otherwise).
inline void RecordFrameSent(size_t bytes) {
  obs::MetricAdd("transport.frames_sent");
  obs::MetricObserve("transport.frame_bytes_sent", bytes);
}

inline void RecordFrameReceived(size_t bytes) {
  obs::MetricAdd("transport.frames_received");
  obs::MetricObserve("transport.frame_bytes_received", bytes);
}

inline void RecordDeadlineExceeded() {
  obs::MetricAdd("transport.deadline_exceeded");
}

// Absolute-deadline bookkeeping for one blocking call: constructed from a
// millisecond budget at call entry, consulted before each bounded wait so a
// multi-chunk read shares one deadline instead of resetting per chunk.
//
// Budget semantics: negative = infinite (never expires), zero = already
// expired — the caller gets exactly one non-blocking poll and then a typed
// kDeadlineExceeded, which is the immediate-or-fail probe admission control
// wants. (TransportOptions' "0 = wait forever" convention is translated at
// the call sites via OptionBudget; it never reaches this class as zero.)
class CallDeadline {
 public:
  explicit CallDeadline(std::chrono::milliseconds budget)
      : infinite_(budget.count() < 0),
        expires_at_(std::chrono::steady_clock::now() +
                    std::max(budget, std::chrono::milliseconds(0))) {}

  bool infinite() const { return infinite_; }

  // Remaining budget clamped to >= 0; meaningless when infinite().
  std::chrono::milliseconds Remaining() const {
    auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
        expires_at_ - std::chrono::steady_clock::now());
    return left.count() < 0 ? std::chrono::milliseconds(0) : left;
  }

  bool Expired() const {
    return !infinite_ && std::chrono::steady_clock::now() >= expires_at_;
  }

  // poll(2) timeout argument: -1 for infinite, else remaining ms.
  int PollTimeoutMs() const {
    if (infinite_) {
      return -1;
    }
    auto left = Remaining().count();
    return static_cast<int>(std::min<int64_t>(
        left, static_cast<int64_t>(std::numeric_limits<int>::max())));
  }

 private:
  bool infinite_;
  std::chrono::steady_clock::time_point expires_at_;
};

// Translates a TransportOptions deadline (where 0 means "wait forever", the
// trusted-harness default) into a CallDeadline budget (where 0 means
// "expire immediately" and negative means infinite).
inline std::chrono::milliseconds OptionBudget(std::chrono::milliseconds d) {
  return d.count() == 0 ? std::chrono::milliseconds(-1) : d;
}

}  // namespace internal

class Transport {
 public:
  virtual ~Transport() = default;

  // Delivers one frame to the peer, preserving message boundaries. Blocks
  // at most the configured send deadline; kDeadlineExceeded past it.
  virtual Status Send(const std::vector<uint8_t>& frame) = 0;

  // Blocks until a frame arrives, the peer closes (kTruncated), or the
  // configured recv/handshake deadline expires (kDeadlineExceeded).
  virtual StatusOr<std::vector<uint8_t>> Receive() = 0;

  // Closes both directions. Any blocked or future Receive() on either side
  // fails with kTruncated; used to unwind a two-threaded exchange when one
  // side dies. Must be safe to call concurrently with in-flight Send() /
  // Receive() on the same object.
  virtual void Close() = 0;
};

// A matched pair of endpoints: left talks to right and vice versa.
struct TransportPair {
  std::unique_ptr<Transport> left;
  std::unique_ptr<Transport> right;
};

// Length-prefixed frames over a full-duplex file descriptor (socketpair).
// This is the shape a networked deployment would use; the harness drives it
// from two threads to exercise real kernel buffering and partial reads.
//
// Shutdown discipline: Close() only shutdown(2)s the descriptor — it never
// close(2)s it while the object is alive. A concurrent ReadAll/WriteAll on
// another thread therefore always operates on a valid (if shut-down) fd;
// read() wakes with EOF and send() with EPIPE, and the descriptor number
// cannot be recycled out from under them. The fd is closed exactly once, in
// the destructor, when no concurrent user can exist.
class PipeTransport final : public Transport {
 public:
  explicit PipeTransport(int fd, TransportOptions options = {})
      : fd_(fd), options_(options) {
    // Non-blocking I/O with poll(2) is what makes deadlines sound: a
    // blocking send() of a chunk larger than the socket buffer would ignore
    // any deadline until the peer drained it. EAGAIN routes every wait
    // through WaitReady, which owns the deadline.
    const int flags = ::fcntl(fd_, F_GETFL, 0);
    if (flags >= 0) {
      ::fcntl(fd_, F_SETFL, flags | O_NONBLOCK);
    }
  }

  PipeTransport(const PipeTransport&) = delete;
  PipeTransport& operator=(const PipeTransport&) = delete;

  ~PipeTransport() override {
    Close();
    if (fd_ >= 0) {
      ::close(fd_);
    }
  }

  Status Send(const std::vector<uint8_t>& frame) override {
    obs::Span span("transport.send");
    if (frame.size() > kMaxFrameBytes) {
      return LengthOverflowError("frame exceeds transport cap");
    }
    internal::CallDeadline deadline(
        internal::OptionBudget(options_.send_deadline));
    uint8_t prefix[4];
    const uint32_t len = static_cast<uint32_t>(frame.size());
    for (int i = 0; i < 4; i++) {
      prefix[i] = static_cast<uint8_t>(len >> (8 * i));
    }
    ZAATAR_RETURN_IF_ERROR(WriteAll(prefix, 4, deadline));
    ZAATAR_RETURN_IF_ERROR(WriteAll(frame.data(), frame.size(), deadline));
    internal::RecordFrameSent(frame.size());
    return Status::Ok();
  }

  StatusOr<std::vector<uint8_t>> Receive() override {
    // "transport.recv" spans include the blocking wait for the peer, so the
    // harness's wall-time partition treats them as idle time, not compute.
    obs::Span span("transport.recv");
    internal::CallDeadline deadline(
        internal::OptionBudget(RecvDeadlineBudget()));
    uint8_t prefix[4];
    ZAATAR_RETURN_IF_ERROR(
        ReadAll(prefix, 4, /*eof_ok_at_start=*/true, deadline));
    uint32_t len = 0;
    for (int i = 0; i < 4; i++) {
      len |= static_cast<uint32_t>(prefix[i]) << (8 * i);
    }
    // The length prefix is untrusted: cap it before allocating, reserve at
    // most a bounded slab up front, and grow only as bytes actually arrive —
    // a liar that promises gigabytes and delivers silence costs one bounded
    // allocation and then a recv deadline, not memory or a wedged thread.
    if (len > kMaxFrameBytes) {
      return LengthOverflowError("frame length prefix exceeds transport cap");
    }
    std::vector<uint8_t> frame;
    frame.reserve(std::min<size_t>(len, kMaxEagerReserveBytes));
    size_t received = 0;
    while (received < len) {
      const size_t chunk =
          std::min<size_t>(kTransportChunkBytes, len - received);
      frame.resize(received + chunk);
      ZAATAR_RETURN_IF_ERROR(ReadAll(frame.data() + received, chunk,
                                     /*eof_ok_at_start=*/false, deadline));
      received += chunk;
    }
    received_any_.store(true, std::memory_order_relaxed);
    internal::RecordFrameReceived(frame.size());
    return frame;
  }

  void Close() override {
    // shutdown(2), never close(2): see the class comment. Both a blocked
    // peer (other endpoint of the socketpair) and a blocked sibling thread
    // on this endpoint wake up with EOF/EPIPE.
    if (!shutdown_.exchange(true, std::memory_order_acq_rel)) {
      ::shutdown(fd_, SHUT_RDWR);
    }
  }

  // Creates a connected socketpair; left and right are the two endpoints.
  // A pair that cannot be made (say, no descriptors left) is a channel
  // failure, kTruncated, so a TransportFactory that calls this hands the
  // retry loop a failure it backs off from and counts (retry.h).
  static StatusOr<TransportPair> CreatePair(TransportOptions options = {}) {
    int fds[2];
    if (::socketpair(AF_UNIX, SOCK_STREAM, 0, fds) != 0) {
      return TruncatedError(std::string("socketpair failed: ") +
                            std::strerror(errno));
    }
    TransportPair pair;
    pair.left = std::make_unique<PipeTransport>(fds[0], options);
    pair.right = std::make_unique<PipeTransport>(fds[1], options);
    return pair;
  }

 private:
  std::chrono::milliseconds RecvDeadlineBudget() const {
    if (!received_any_.load(std::memory_order_relaxed) &&
        options_.handshake_deadline.count() > 0) {
      return options_.handshake_deadline;
    }
    return options_.recv_deadline;
  }

  bool ShutDown() const {
    return shutdown_.load(std::memory_order_acquire);
  }

  // Bounded wait for the descriptor to become readable/writable. Returns
  // kDeadlineExceeded when the deadline expires first. POLLERR/POLLHUP fall
  // through to the read/write call, which reports the precise error. Polls
  // before checking expiry, so a zero budget (deadline already expired)
  // still gets exactly one non-blocking poll — an already-ready descriptor
  // succeeds, an immediate-or-fail probe fails typed instead of blocking.
  Status WaitReady(short events, const internal::CallDeadline& deadline) {
    for (;;) {
      struct pollfd pfd;
      pfd.fd = fd_;
      pfd.events = events;
      pfd.revents = 0;
      int rc = ::poll(&pfd, 1, deadline.PollTimeoutMs());
      if (rc < 0) {
        if (errno == EINTR) {
          continue;
        }
        return TruncatedError(std::string("transport poll failed: ") +
                              std::strerror(errno));
      }
      if (rc == 0) {
        internal::RecordDeadlineExceeded();
        return DeadlineExceededError(events == POLLIN
                                         ? "transport recv deadline exceeded"
                                         : "transport send deadline exceeded");
      }
      return Status::Ok();
    }
  }

  Status WriteAll(const uint8_t* data, size_t n,
                  const internal::CallDeadline& deadline) {
    if (ShutDown()) {
      return TruncatedError("transport closed");
    }
    size_t sent = 0;
    while (sent < n) {
      const size_t chunk = std::min<size_t>(kTransportChunkBytes, n - sent);
      // MSG_NOSIGNAL: a peer that closed mid-frame yields EPIPE (a typed
      // error below), not a process-killing SIGPIPE.
      ssize_t w = ::send(fd_, data + sent, chunk, MSG_NOSIGNAL);
      if (w > 0) {
        sent += static_cast<size_t>(w);
        continue;
      }
      if (w < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
        ZAATAR_RETURN_IF_ERROR(WaitReady(POLLOUT, deadline));
        continue;
      }
      if (w < 0 && errno == EINTR) {
        continue;
      }
      return TruncatedError(std::string("transport write failed: ") +
                            std::strerror(errno));
    }
    return Status::Ok();
  }

  Status ReadAll(uint8_t* data, size_t n, bool eof_ok_at_start,
                 const internal::CallDeadline& deadline) {
    if (ShutDown()) {
      return TruncatedError("transport closed");
    }
    size_t got = 0;
    while (got < n) {
      ssize_t r = ::read(fd_, data + got, n - got);
      if (r > 0) {
        got += static_cast<size_t>(r);
        continue;
      }
      if (r == 0) {
        return TruncatedError(got == 0 && eof_ok_at_start
                                  ? "transport closed"
                                  : "transport closed mid-frame");
      }
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        ZAATAR_RETURN_IF_ERROR(WaitReady(POLLIN, deadline));
        continue;
      }
      if (errno == EINTR) {
        continue;
      }
      return TruncatedError(std::string("transport read failed: ") +
                            std::strerror(errno));
    }
    return Status::Ok();
  }

  const int fd_;
  TransportOptions options_;
  std::atomic<bool> shutdown_{false};
  std::atomic<bool> received_any_{false};
};

// A bound, listening AF_UNIX stream socket — the accept side of a standing
// service (zaatar-serve). The descriptor is non-blocking so an event loop
// can register it with poll/epoll and drain the accept queue on readiness;
// accepted connections come back non-blocking too, ready to wrap in a
// PipeTransport or feed a framed connection buffer. Owns the fd and unlinks
// the socket path on destruction.
class UnixListener {
 public:
  UnixListener(UnixListener&& other) noexcept
      : fd_(other.fd_), path_(std::move(other.path_)) {
    other.fd_ = -1;
    other.path_.clear();
  }
  UnixListener& operator=(UnixListener&&) = delete;
  UnixListener(const UnixListener&) = delete;
  UnixListener& operator=(const UnixListener&) = delete;

  ~UnixListener() {
    if (fd_ >= 0) {
      ::close(fd_);
      ::unlink(path_.c_str());
    }
  }

  // Binds and listens at `path`, replacing any stale socket file (a prior
  // daemon that died without cleanup). Paths longer than sun_path are a
  // typed error, not silent truncation.
  static StatusOr<UnixListener> Bind(const std::string& path,
                                     int backlog = 64) {
    struct sockaddr_un addr;
    std::memset(&addr, 0, sizeof(addr));
    addr.sun_family = AF_UNIX;
    if (path.empty() || path.size() >= sizeof(addr.sun_path)) {
      return MalformedError("unix socket path empty or too long: " + path);
    }
    std::memcpy(addr.sun_path, path.data(), path.size());
    int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0) {
      return TruncatedError(std::string("socket failed: ") +
                            std::strerror(errno));
    }
    ::unlink(path.c_str());
    if (::bind(fd, reinterpret_cast<struct sockaddr*>(&addr),
               sizeof(addr)) != 0) {
      Status s = TruncatedError(std::string("bind failed: ") +
                                std::strerror(errno));
      ::close(fd);
      return s;
    }
    if (::listen(fd, backlog) != 0) {
      Status s = TruncatedError(std::string("listen failed: ") +
                                std::strerror(errno));
      ::close(fd);
      ::unlink(path.c_str());
      return s;
    }
    const int flags = ::fcntl(fd, F_GETFL, 0);
    if (flags >= 0) {
      ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
    }
    return UnixListener(fd, path);
  }

  // Drains one connection from the accept queue, or returns -1 when none is
  // pending (the readiness loop re-arms and waits) — that is flow control,
  // not an error. Accepted descriptors are returned non-blocking; the
  // caller owns them.
  StatusOr<int> Accept() {
    for (;;) {
      int conn = ::accept(fd_, nullptr, nullptr);
      if (conn >= 0) {
        const int flags = ::fcntl(conn, F_GETFL, 0);
        if (flags >= 0) {
          ::fcntl(conn, F_SETFL, flags | O_NONBLOCK);
        }
        return conn;
      }
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        return -1;
      }
      if (errno == EINTR || errno == ECONNABORTED) {
        continue;
      }
      return TruncatedError(std::string("accept failed: ") +
                            std::strerror(errno));
    }
  }

  int fd() const { return fd_; }
  const std::string& path() const { return path_; }

 private:
  UnixListener(int fd, std::string path) : fd_(fd), path_(std::move(path)) {}

  int fd_;
  std::string path_;
};

// Client-side dial: connects to a UnixListener's socket path and returns
// the connected descriptor (blocking connect — dialing a local daemon
// either succeeds immediately or fails with a typed error). The caller
// typically wraps it in a PipeTransport, which takes ownership and flips it
// non-blocking.
inline StatusOr<int> ConnectUnix(const std::string& path) {
  struct sockaddr_un addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sun_family = AF_UNIX;
  if (path.empty() || path.size() >= sizeof(addr.sun_path)) {
    return MalformedError("unix socket path empty or too long: " + path);
  }
  std::memcpy(addr.sun_path, path.data(), path.size());
  int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) {
    return TruncatedError(std::string("socket failed: ") +
                          std::strerror(errno));
  }
  for (;;) {
    if (::connect(fd, reinterpret_cast<struct sockaddr*>(&addr),
                  sizeof(addr)) == 0) {
      return fd;
    }
    if (errno == EINTR) {
      continue;
    }
    Status s = TruncatedError(std::string("connect(") + path +
                              ") failed: " + std::strerror(errno));
    ::close(fd);
    return s;
  }
}

}  // namespace protocol
}  // namespace zaatar

#endif  // SRC_PROTOCOL_TRANSPORT_H_
