#include "http_load.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/epoll.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <ctime>
#include <limits>
#include <stdexcept>

#include "stats.hpp"

namespace perfbench {
namespace {

std::int64_t clock_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

sockaddr_in loopback(std::uint16_t port) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  return addr;
}

std::string request_text(const std::string& path) {
  return "GET " + path + " HTTP/1.1\r\nHost: 127.0.0.1\r\n" +
         "Connection: close\r\n\r\n";
}

/// Splits a raw response into status and body; status 0 if malformed.
void parse_response(const std::string& raw, int* status, std::string* body) {
  *status = 0;
  body->clear();
  if (raw.rfind("HTTP/1.", 0) != 0 || raw.size() < 12) return;
  *status = std::atoi(raw.c_str() + 9);
  const std::size_t head_end = raw.find("\r\n\r\n");
  if (head_end != std::string::npos) *body = raw.substr(head_end + 4);
}

/// One in-flight request.
struct Conn {
  int fd = -1;
  std::size_t request = 0;
  bool connected = false;
  std::string out;
  std::size_t sent = 0;
  std::string in;
};

}  // namespace

std::vector<HttpResult> run_open_loop(
    const OpenLoopConfig& config,
    const std::function<std::string(std::size_t)>& path,
    unsigned* max_outstanding) {
  const std::vector<double> due =
      poisson_schedule(config.rate, config.count, config.seed);
  std::vector<HttpResult> results(config.count);
  for (std::size_t i = 0; i < config.count; ++i) {
    results[i].due_ns = static_cast<std::uint64_t>(std::llround(due[i] * 1e9));
  }
  const int ep = ::epoll_create1(EPOLL_CLOEXEC);
  if (ep < 0) throw std::runtime_error("epoll_create1 failed");
  const unsigned slots = std::max(1u, config.max_connections);
  std::vector<Conn> conns(slots);
  const auto timeout_ns =
      static_cast<std::uint64_t>(config.timeout_s * 1e9);
  // The schedule starts 1 ms from now, so request 0 is not late by setup.
  const std::int64_t t0 = clock_ns() + 1'000'000;
  auto now = [t0]() -> std::uint64_t {
    return static_cast<std::uint64_t>(std::max<std::int64_t>(0, clock_ns() - t0));
  };
  std::size_t next = 0;
  std::size_t done = 0;
  unsigned open = 0;
  unsigned peak = 0;

  auto finish = [&](Conn& c, HttpResult::Fail fail) {
    HttpResult& r = results[c.request];
    r.done_ns = now();
    ::close(c.fd);  // also drops it from the epoll set
    c.fd = -1;
    r.fail = fail;
    if (fail == HttpResult::Fail::None) {
      parse_response(c.in, &r.status, &r.body);
      if (r.status != 200) r.fail = HttpResult::Fail::Non200;
    }
    --open;
    ++done;
  };
  auto send_some = [&](Conn& c) -> bool {
    while (c.sent < c.out.size()) {
      const ssize_t n = ::send(c.fd, c.out.data() + c.sent,
                               c.out.size() - c.sent, MSG_NOSIGNAL);
      if (n < 0) return errno == EAGAIN || errno == EWOULDBLOCK;
      c.sent += static_cast<std::size_t>(n);
    }
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.u32 = static_cast<std::uint32_t>(&c - conns.data());
    ::epoll_ctl(ep, EPOLL_CTL_MOD, c.fd, &ev);
    return true;
  };
  auto on_connected = [&](Conn& c) {
    c.connected = true;
    results[c.request].connected_ns = now();
    if (!send_some(c)) finish(c, HttpResult::Fail::Io);
  };
  auto start = [&](std::size_t i) {
    Conn* c = &*std::find_if(conns.begin(), conns.end(),
                             [](const Conn& x) { return x.fd < 0; });
    HttpResult& r = results[i];
    r.start_ns = now();
    c->request = i;
    c->connected = false;
    c->out = request_text(path(i));
    c->sent = 0;
    c->in.clear();
    c->fd = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
    ++open;
    peak = std::max(peak, open);
    if (c->fd < 0) {
      r.done_ns = r.start_ns;
      r.fail = HttpResult::Fail::Io;
      --open;
      ++done;
      return;
    }
    const sockaddr_in addr = loopback(config.port);
    const int rc = ::connect(c->fd, reinterpret_cast<const sockaddr*>(&addr),
                             sizeof addr);
    epoll_event ev{};
    ev.events = EPOLLOUT;
    ev.data.u32 = static_cast<std::uint32_t>(c - conns.data());
    ::epoll_ctl(ep, EPOLL_CTL_ADD, c->fd, &ev);
    if (rc == 0) {
      on_connected(*c);
    } else if (errno != EINPROGRESS) {
      finish(*c, errno == ECONNREFUSED ? HttpResult::Fail::Refused
                                       : HttpResult::Fail::Io);
    }
  };

  // Wake-ups within a microsecond of the due time (the default timer
  // slack is 50 us); restored on return.
  const int old_slack = ::prctl(PR_GET_TIMERSLACK);
  ::prctl(PR_SET_TIMERSLACK, 1000UL);
  char buf[4096];
  while (done < config.count) {
    while (next < config.count && open < slots &&
           results[next].due_ns <= now()) {
      start(next++);
    }
    for (Conn& c : conns) {
      if (c.fd >= 0 && now() - results[c.request].start_ns > timeout_ns) {
        finish(c, HttpResult::Fail::Timeout);
      }
    }
    // Sleep until the next request is due (or, with every connection
    // busy, until one answers or times out). The generator blocks instead
    // of spinning: a thread that burns its CPU continuously is the one a
    // hypervisor or CPU quota preempts for milliseconds, and every request
    // due meanwhile would carry that stall.
    std::uint64_t wake = std::numeric_limits<std::uint64_t>::max();
    if (next < config.count && open < slots) wake = results[next].due_ns;
    for (const Conn& c : conns) {
      if (c.fd >= 0) wake = std::min(wake, results[c.request].start_ns + timeout_ns);
    }
    const std::uint64_t t = now();
    const std::uint64_t wait_ns =
        wake > t ? std::min<std::uint64_t>(wake - t, 100'000'000) : 0;
    const timespec ts{static_cast<time_t>(wait_ns / 1'000'000'000),
                      static_cast<long>(wait_ns % 1'000'000'000)};
    epoll_event events[16];
    const int n = ::epoll_pwait2(ep, events, 16, &ts, nullptr);
    for (int k = 0; k < n; ++k) {
      Conn& c = conns[events[k].data.u32];
      if (c.fd < 0) continue;
      if (!c.connected) {
        int err = 0;
        socklen_t len = sizeof err;
        ::getsockopt(c.fd, SOL_SOCKET, SO_ERROR, &err, &len);
        if (err != 0) {
          finish(c, err == ECONNREFUSED ? HttpResult::Fail::Refused
                                        : HttpResult::Fail::Io);
        } else {
          on_connected(c);
        }
        continue;
      }
      if (c.sent < c.out.size()) {
        if (!send_some(c)) finish(c, HttpResult::Fail::Io);
        continue;
      }
      for (;;) {
        const ssize_t got = ::read(c.fd, buf, sizeof buf);
        if (got > 0) {
          if (c.in.empty()) results[c.request].first_byte_ns = now();
          c.in.append(buf, static_cast<std::size_t>(got));
          continue;
        }
        if (got == 0) {
          finish(c, HttpResult::Fail::None);
        } else if (errno != EAGAIN && errno != EWOULDBLOCK) {
          finish(c, HttpResult::Fail::Io);
        }
        break;
      }
    }
  }
  ::close(ep);
  if (old_slack > 0) ::prctl(PR_SET_TIMERSLACK, static_cast<unsigned long>(old_slack));
  if (max_outstanding != nullptr) *max_outstanding = peak;
  return results;
}

int http_get(std::uint16_t port, const std::string& path, std::string* body,
             double timeout_s) {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return 0;
  timeval tv{};
  tv.tv_sec = static_cast<time_t>(timeout_s);
  tv.tv_usec = static_cast<suseconds_t>((timeout_s - std::floor(timeout_s)) * 1e6);
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv);
  ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof tv);
  const sockaddr_in addr = loopback(port);
  int status = 0;
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) ==
      0) {
    const std::string req = request_text(path);
    if (::send(fd, req.data(), req.size(), MSG_NOSIGNAL) ==
        static_cast<ssize_t>(req.size())) {
      std::string raw;
      char buf[4096];
      ssize_t got = 0;
      while ((got = ::read(fd, buf, sizeof buf)) > 0) {
        raw.append(buf, static_cast<std::size_t>(got));
      }
      if (got == 0) parse_response(raw, &status, body);
    }
  }
  ::close(fd);
  return status;
}

}  // namespace perfbench
