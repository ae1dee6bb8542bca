// Readiness multiplexing for the serve daemon's I/O thread: one poll(2)
// poller. Each Wait rebuilds the pollfd array from the registration map, an
// O(n) scan; at the daemon's connection cap (max_connections, default 32)
// that is at most 34 descriptors with the listener and the wakeup pipe, so
// nothing needs epoll(7).
//
// Readiness is level-triggered, and the server's backpressure scheme
// depends on it: a connection with an in-flight verify job disarms its read
// interest, and when the job completes the re-armed fd immediately reports
// the bytes that arrived in between. Edge-triggered would need a
// drain-until-EAGAIN loop on the I/O thread, exactly the unbounded work the
// worker pool exists to avoid.

#ifndef SRC_SERVE_POLLER_H_
#define SRC_SERVE_POLLER_H_

#include <poll.h>

#include <cerrno>
#include <cstdint>
#include <cstring>
#include <map>
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

class PollPoller {
 public:
  Status Add(int fd, uint64_t tag, bool want_read, bool want_write) {
    if (fds_.count(fd) != 0) {
      return MalformedError("poller: fd already registered");
    }
    fds_[fd] = Registration{tag, want_read, want_write};
    return Status::Ok();
  }

  Status Update(int fd, uint64_t tag, bool want_read, bool want_write) {
    auto it = fds_.find(fd);
    if (it == fds_.end()) {
      return MalformedError("poller: update of unregistered fd");
    }
    it->second = Registration{tag, want_read, want_write};
    return Status::Ok();
  }

  Status Remove(int fd) {
    if (fds_.erase(fd) == 0) {
      return MalformedError("poller: remove of unregistered fd");
    }
    return Status::Ok();
  }

  // Blocks up to timeout_ms (-1 = forever, 0 = non-blocking probe) and
  // returns the ready set — possibly empty on timeout. EINTR retries
  // internally with the same timeout.
  StatusOr<std::vector<PollerEvent>> Wait(int timeout_ms) {
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

  const char* name() const { return "poll"; }

 private:
  struct Registration {
    uint64_t tag = 0;
    bool want_read = false;
    bool want_write = false;
  };
  std::map<int, Registration> fds_;
};

}  // namespace serve
}  // namespace zaatar

#endif  // SRC_SERVE_POLLER_H_
