// Readiness multiplexing for the serve daemon's I/O thread: a small Poller
// interface with an epoll(7) implementation on Linux and a portable poll(2)
// fallback where epoll is missing. MakePoller picks the platform's poller;
// the tests drive PollPoller directly, so it is covered on every platform.
//
// The interface is level-triggered everywhere — EpollPoller deliberately
// does not use EPOLLET — because the server's backpressure scheme depends on
// it: a connection with an in-flight verify job disarms its read interest,
// and when the job completes the re-armed level-triggered fd immediately
// reports the bytes that arrived in between. Edge-triggered would need a
// drain-until-EAGAIN loop on the I/O thread, exactly the unbounded work the
// worker pool exists to avoid.

#ifndef SRC_SERVE_POLLER_H_
#define SRC_SERVE_POLLER_H_

#include <poll.h>

#ifdef __linux__
#include <sys/epoll.h>
#endif

#include <unistd.h>

#include <cerrno>
#include <cstdint>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/util/status.h"

namespace zaatar {
namespace serve {

struct PollerEvent {
  uint64_t tag = 0;  // caller-chosen identity (connection id, listener, ...)
  bool readable = false;
  bool writable = false;
  // POLLERR/POLLHUP: the owner should read (to collect EOF/the error) and
  // tear the connection down.
  bool hangup = false;
};

class Poller {
 public:
  virtual ~Poller() = default;

  virtual Status Add(int fd, uint64_t tag, bool want_read,
                     bool want_write) = 0;
  virtual Status Update(int fd, uint64_t tag, bool want_read,
                        bool want_write) = 0;
  virtual Status Remove(int fd) = 0;

  // Blocks up to timeout_ms (-1 = forever, 0 = non-blocking probe) and
  // returns the ready set — possibly empty on timeout. EINTR retries
  // internally with the same timeout.
  virtual StatusOr<std::vector<PollerEvent>> Wait(int timeout_ms) = 0;

  virtual const char* name() const = 0;
};

// Portable fallback: rebuilds the pollfd array from the registration map on
// every Wait. O(n) per wait, which is fine at the daemon's connection caps.
class PollPoller final : public Poller {
 public:
  Status Add(int fd, uint64_t tag, bool want_read, bool want_write) override {
    if (fds_.count(fd) != 0) {
      return MalformedError("poller: fd already registered");
    }
    fds_[fd] = Registration{tag, want_read, want_write};
    return Status::Ok();
  }

  Status Update(int fd, uint64_t tag, bool want_read,
                bool want_write) override {
    auto it = fds_.find(fd);
    if (it == fds_.end()) {
      return MalformedError("poller: update of unregistered fd");
    }
    it->second = Registration{tag, want_read, want_write};
    return Status::Ok();
  }

  Status Remove(int fd) override {
    if (fds_.erase(fd) == 0) {
      return MalformedError("poller: remove of unregistered fd");
    }
    return Status::Ok();
  }

  StatusOr<std::vector<PollerEvent>> Wait(int timeout_ms) override {
    std::vector<struct pollfd> pfds;
    std::vector<uint64_t> tags;
    pfds.reserve(fds_.size());
    tags.reserve(fds_.size());
    for (const auto& [fd, reg] : fds_) {
      struct pollfd p;
      p.fd = fd;
      p.events = static_cast<short>((reg.want_read ? POLLIN : 0) |
                                    (reg.want_write ? POLLOUT : 0));
      p.revents = 0;
      pfds.push_back(p);
      tags.push_back(reg.tag);
    }
    for (;;) {
      int rc = ::poll(pfds.data(), pfds.size(), timeout_ms);
      if (rc < 0) {
        if (errno == EINTR) {
          continue;
        }
        return TruncatedError(std::string("poll failed: ") +
                              std::strerror(errno));
      }
      break;
    }
    std::vector<PollerEvent> out;
    for (size_t i = 0; i < pfds.size(); i++) {
      if (pfds[i].revents == 0) {
        continue;
      }
      PollerEvent ev;
      ev.tag = tags[i];
      ev.readable = (pfds[i].revents & POLLIN) != 0;
      ev.writable = (pfds[i].revents & POLLOUT) != 0;
      ev.hangup = (pfds[i].revents & (POLLERR | POLLHUP | POLLNVAL)) != 0;
      out.push_back(ev);
    }
    return out;
  }

  const char* name() const override { return "poll"; }

 private:
  struct Registration {
    uint64_t tag = 0;
    bool want_read = false;
    bool want_write = false;
  };
  std::map<int, Registration> fds_;
};

#ifdef __linux__

class EpollPoller final : public Poller {
 public:
  static StatusOr<std::unique_ptr<Poller>> Create() {
    int fd = ::epoll_create1(EPOLL_CLOEXEC);
    if (fd < 0) {
      return TruncatedError(std::string("epoll_create1 failed: ") +
                            std::strerror(errno));
    }
    return std::unique_ptr<Poller>(new EpollPoller(fd));
  }

  ~EpollPoller() override { ::close(epfd_); }

  Status Add(int fd, uint64_t tag, bool want_read, bool want_write) override {
    return Ctl(EPOLL_CTL_ADD, fd, tag, want_read, want_write);
  }

  Status Update(int fd, uint64_t tag, bool want_read,
                bool want_write) override {
    return Ctl(EPOLL_CTL_MOD, fd, tag, want_read, want_write);
  }

  Status Remove(int fd) override {
    struct epoll_event unused {};
    if (::epoll_ctl(epfd_, EPOLL_CTL_DEL, fd, &unused) != 0) {
      return MalformedError(std::string("epoll_ctl(DEL) failed: ") +
                            std::strerror(errno));
    }
    return Status::Ok();
  }

  StatusOr<std::vector<PollerEvent>> Wait(int timeout_ms) override {
    std::vector<struct epoll_event> events(64);
    int rc;
    for (;;) {
      rc = ::epoll_wait(epfd_, events.data(),
                        static_cast<int>(events.size()), timeout_ms);
      if (rc < 0) {
        if (errno == EINTR) {
          continue;
        }
        return TruncatedError(std::string("epoll_wait failed: ") +
                              std::strerror(errno));
      }
      break;
    }
    std::vector<PollerEvent> out;
    out.reserve(static_cast<size_t>(rc));
    for (int i = 0; i < rc; i++) {
      PollerEvent ev;
      ev.tag = events[static_cast<size_t>(i)].data.u64;
      const uint32_t mask = events[static_cast<size_t>(i)].events;
      ev.readable = (mask & EPOLLIN) != 0;
      ev.writable = (mask & EPOLLOUT) != 0;
      ev.hangup = (mask & (EPOLLERR | EPOLLHUP)) != 0;
      out.push_back(ev);
    }
    return out;
  }

  const char* name() const override { return "epoll"; }

 private:
  explicit EpollPoller(int epfd) : epfd_(epfd) {}

  Status Ctl(int op, int fd, uint64_t tag, bool want_read, bool want_write) {
    struct epoll_event ev {};
    ev.events = (want_read ? EPOLLIN : 0u) | (want_write ? EPOLLOUT : 0u);
    ev.data.u64 = tag;
    if (::epoll_ctl(epfd_, op, fd, &ev) != 0) {
      return MalformedError(std::string("epoll_ctl failed: ") +
                            std::strerror(errno));
    }
    return Status::Ok();
  }

  int epfd_;
};

#endif  // __linux__

// epoll on Linux; poll(2) where epoll is missing or cannot be created.
inline std::unique_ptr<Poller> MakePoller() {
#ifdef __linux__
  auto created = EpollPoller::Create();
  if (created.ok()) {
    return std::move(created).value();
  }
#endif
  return std::make_unique<PollPoller>();
}

}  // namespace serve
}  // namespace zaatar

#endif  // SRC_SERVE_POLLER_H_
