// Tests of the benchmark's own logic: the percentile rule, the Poisson
// schedule, open-loop timing from the due time, and the capacity search.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <numeric>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "http_load.hpp"
#include "stats.hpp"

namespace perfbench {
namespace {

std::vector<double> one_to(std::size_t n, std::uint64_t shuffle_seed) {
  std::vector<double> v(n);
  std::iota(v.begin(), v.end(), 1.0);
  std::shuffle(v.begin(), v.end(), std::mt19937_64(shuffle_seed));
  return v;
}

TEST(PercentileRule, P99NeedsTenSamplesBeyondIt) {
  auto v = one_to(1000, 1);
  const Summary s = summarize(v);
  EXPECT_EQ(s.count, 1000u);
  EXPECT_EQ(s.p50, 500);
  EXPECT_EQ(s.tail, 990);  // 991..1000 lie beyond it
  EXPECT_DOUBLE_EQ(s.tail_q, 0.99);

  auto big = one_to(5000, 2);
  const Summary b = summarize(big);
  EXPECT_EQ(b.p50, 2500);
  EXPECT_EQ(b.tail, 4950);
}

TEST(PercentileRule, FewerSamplesFallBackToTheHighestSupportedPercentile) {
  auto v = one_to(100, 3);
  const Summary s = summarize(v);
  EXPECT_EQ(s.p50, 50);
  EXPECT_EQ(s.tail, 90);  // exactly ten beyond: the p90
  EXPECT_DOUBLE_EQ(s.tail_q, 0.90);

  auto few = one_to(7, 4);
  const Summary f = summarize(few);
  EXPECT_EQ(f.p50, 4);
  EXPECT_EQ(f.tail, 7);  // no percentile above the median has ten beyond
  EXPECT_DOUBLE_EQ(f.tail_q, 1.0);
}

TEST(PercentileRule, EverySizeLeavesTenBeyondTheTail) {
  for (std::size_t n = 21; n <= 3000; n += 7) {
    auto v = one_to(n, n);
    const Summary s = summarize(v);
    const auto beyond = n - static_cast<std::size_t>(s.tail);
    EXPECT_GE(beyond, kTailSupport) << n;
    EXPECT_GE(s.tail, s.p50) << n;
    if (n >= 1000) {
      EXPECT_LE(beyond, n / 100 + 1) << n;  // still the p99
    } else {
      EXPECT_EQ(beyond, kTailSupport) << n;
    }
  }
}

TEST(PercentileRule, WindowedTailIsTheMedianOfWindowP99s) {
  // Five windows of 1000 samples; one holds a burst of 100 slow samples
  // that would own a single p99 over all 5000.
  std::vector<double> v;
  for (int w = 0; w < 5; ++w) {
    auto part = one_to(1000, static_cast<std::uint64_t>(w));
    if (w == 2) {
      for (int i = 0; i < 100; ++i) part[static_cast<std::size_t>(i)] = 1e6;
    }
    v.insert(v.end(), part.begin(), part.end());
  }
  auto whole = v;
  EXPECT_EQ(summarize(whole).tail, 1e6);
  const Summary s = summarize_windows(v, 1000);
  EXPECT_EQ(s.count, 5000u);
  EXPECT_EQ(s.tail, 990);
  EXPECT_DOUBLE_EQ(s.tail_q, 0.99);
}

TEST(PoissonSchedule, HitsItsRate) {
  for (const double rate : {1000.0, 5000.0, 20000.0}) {
    const auto due = poisson_schedule(rate, 200000, 42);
    ASSERT_TRUE(std::is_sorted(due.begin(), due.end()));
    const double achieved = static_cast<double>(due.size()) / due.back();
    EXPECT_NEAR(achieved / rate, 1.0, 0.01) << rate;
  }
  EXPECT_EQ(poisson_schedule(5000, 100, 7), poisson_schedule(5000, 100, 7));
  EXPECT_NE(poisson_schedule(5000, 100, 7), poisson_schedule(5000, 100, 8));
}

TEST(CapacitySearch, FindsTheLastPassingStepOfAnyMonotoneVerdict) {
  constexpr std::size_t kSteps = 64;
  for (std::ptrdiff_t last = -1; last < static_cast<std::ptrdiff_t>(kSteps);
       ++last) {
    for (const std::size_t start : {std::size_t{0}, std::size_t{33}, kSteps - 1}) {
      int probes = 0;
      const auto got = capacity_search(kSteps, start, [&](std::size_t i) {
        ++probes;
        return static_cast<std::ptrdiff_t>(i) <= last;
      });
      if (last < 0) {
        EXPECT_FALSE(got.has_value());
      } else {
        ASSERT_TRUE(got.has_value());
        EXPECT_EQ(static_cast<std::ptrdiff_t>(*got), last);
      }
      EXPECT_LE(probes, 14) << last << " from " << start;
    }
  }
}

/// p99 open-loop latency (us) of a simulated FIFO server with a fixed
/// service time, fed by the benchmark's Poisson schedule and timed from
/// the due time.
double simulated_p99_us(double rate, double service_us, std::uint64_t seed) {
  const auto due = poisson_schedule(rate, 3000, seed);
  double free_at = 0;
  std::vector<double> latency;
  for (const double d : due) {
    free_at = std::max(d, free_at) + service_us * 1e-6;
    latency.push_back((free_at - d) * 1e6);
  }
  return summarize(latency).tail;
}

TEST(CapacitySearch, SameStepOnAFixedServiceTimeServer) {
  const auto grid = geometric_grid(1000, 1.05, 64);
  auto search = [&](double service_us) {
    return capacity_search(grid.size(), 33, [&](std::size_t i) {
      return simulated_p99_us(grid[i], service_us, 1000 + i) <= 1000;
    });
  };
  for (const double service_us : {50.0, 80.0, 150.0}) {
    const auto a = search(service_us);
    const auto b = search(service_us);
    ASSERT_TRUE(a.has_value());
    EXPECT_EQ(a, b);
    // The step found passes and the next one fails.
    EXPECT_LE(simulated_p99_us(grid[*a], service_us, 1000 + *a), 1000);
    if (*a + 1 < grid.size()) {
      EXPECT_GT(simulated_p99_us(grid[*a + 1], service_us, 1001 + *a), 1000);
    }
    // A fixed service time caps the rate below 1 / service time.
    EXPECT_LT(grid[*a], 1e6 / service_us);
  }
}

/// A loopback HTTP server answering every request with 200 after a fixed
/// service time, serving one connection at a time; the first request can
/// be made to stall.
class FakeServer {
 public:
  FakeServer(std::chrono::microseconds service, std::chrono::milliseconds stall)
      : service_(service), stall_(stall) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    EXPECT_EQ(::bind(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr), 0);
    EXPECT_EQ(::listen(fd_, 16), 0);
    socklen_t len = sizeof addr;
    ::getsockname(fd_, reinterpret_cast<sockaddr*>(&addr), &len);
    port_ = ntohs(addr.sin_port);
    thread_ = std::jthread([this](const std::stop_token& st) { serve(st); });
  }
  ~FakeServer() {
    thread_.request_stop();
    thread_.join();
    ::close(fd_);
  }
  FakeServer(const FakeServer&) = delete;
  FakeServer& operator=(const FakeServer&) = delete;

  [[nodiscard]] std::uint16_t port() const { return port_; }

 private:
  void serve(const std::stop_token& st) {
    bool first = true;
    while (!st.stop_requested()) {
      pollfd p{fd_, POLLIN, 0};
      if (::poll(&p, 1, 20) <= 0) continue;
      const int c = ::accept(fd_, nullptr, nullptr);
      if (c < 0) continue;
      std::string req;
      char buf[1024];
      while (req.find("\r\n\r\n") == std::string::npos) {
        const ssize_t n = ::read(c, buf, sizeof buf);
        if (n <= 0) break;
        req.append(buf, static_cast<std::size_t>(n));
      }
      std::this_thread::sleep_for(first ? stall_ : service_);
      first = false;
      const std::string resp =
          "HTTP/1.1 200 OK\r\nContent-Length: 2\r\nConnection: close\r\n\r\nok";
      (void)::write(c, resp.data(), resp.size());
      ::close(c);
    }
  }

  std::chrono::microseconds service_;
  std::chrono::milliseconds stall_;
  int fd_ = -1;
  std::uint16_t port_ = 0;
  std::jthread thread_;  // last: joined before the members it uses go
};

TEST(OpenLoop, LatencyFromTheDueTimeIncludesAStall) {
  constexpr auto kStall = std::chrono::milliseconds(60);
  const FakeServer server(std::chrono::microseconds(20), kStall);
  OpenLoopConfig cfg;
  cfg.port = server.port();
  cfg.rate = 1000;
  cfg.count = 200;
  cfg.seed = 5;
  cfg.max_connections = 2;
  unsigned peak = 0;
  const auto res = run_open_loop(
      cfg, [](std::size_t) { return std::string("/"); }, &peak);
  EXPECT_EQ(peak, 2u);
  const std::uint64_t stall_end =
      res[0].start_ns + static_cast<std::uint64_t>(
                            std::chrono::nanoseconds(kStall).count());
  std::size_t delayed = 0;
  for (const HttpResult& r : res) {
    ASSERT_EQ(r.fail, HttpResult::Fail::None);
    EXPECT_EQ(r.status, 200);
    EXPECT_EQ(r.body, "ok");
    EXPECT_GE(r.start_ns, r.due_ns);
    EXPECT_GE(r.done_ns, r.start_ns);
    // A request due during the stall cannot finish before it ends, and its
    // latency counts the whole wait since it was due — including the time
    // it sat in the generator because both connections were busy.
    if (r.due_ns < stall_end) {
      ++delayed;
      EXPECT_GE(r.latency_ns(), stall_end - r.due_ns);
    }
  }
  EXPECT_GE(delayed, 20u);  // ~60 requests are due within the 60 ms stall
  // The generator ran late while connections were stuck behind the stall.
  std::uint64_t max_lag = 0;
  for (const HttpResult& r : res) max_lag = std::max(max_lag, r.lag_ns());
  EXPECT_GT(max_lag, 30'000'000u);
}

TEST(OpenLoop, RefusedConnectionsAreFailures) {
  // Bind and close a socket to get a port nothing listens on.
  std::uint16_t port = 0;
  {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    ASSERT_EQ(::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr), 0);
    socklen_t len = sizeof addr;
    ::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len);
    port = ntohs(addr.sin_port);
    ::close(fd);
  }
  OpenLoopConfig cfg;
  cfg.port = port;
  cfg.rate = 2000;
  cfg.count = 20;
  const auto res =
      run_open_loop(cfg, [](std::size_t) { return std::string("/"); });
  for (const HttpResult& r : res) {
    EXPECT_EQ(r.fail, HttpResult::Fail::Refused);
  }
}

}  // namespace
}  // namespace perfbench
