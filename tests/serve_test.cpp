// Concurrency + correctness suite for the online serving layer
// (src/serve). Runs under the `hetero` ctest label, so CI exercises every
// test here under ThreadSanitizer: N reader threads hammering a snapshot
// while the stats endpoint is scraped, snapshot swaps under load (readers
// pinned to the old epoch finish on it — no use-after-free, no torn
// answers), and bitwise equality of the batched and scalar paths across
// execution modes.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <memory>
#include <random>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/distance_oracle.hpp"
#include "obs/metrics.hpp"
#include "obs/query_trace.hpp"
#include "obs/stats_server.hpp"
#include "obs/trace.hpp"
#include "serve/http_routes.hpp"
#include "serve/oracle_server.hpp"
#include "testing/families.hpp"

#if defined(__unix__)
#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>
#endif

namespace {

using namespace eardec;
using graph::VertexId;
using graph::Weight;

graph::Graph test_graph(std::uint64_t seed, std::uint32_t size = 40) {
  // block_cut: articulation-heavy, so all four route kinds occur.
  return eardec::testing::family("block_cut").make(seed, size);
}

std::vector<serve::Query> all_pairs(const graph::Graph& g) {
  std::vector<serve::Query> q;
  q.reserve(static_cast<std::size_t>(g.num_vertices()) * g.num_vertices());
  for (VertexId s = 0; s < g.num_vertices(); ++s) {
    for (VertexId t = 0; t < g.num_vertices(); ++t) q.push_back({s, t});
  }
  return q;
}

bool bitwise_equal(const std::vector<Weight>& a,
                   const std::vector<Weight>& b) {
  return a.size() == b.size() &&
         (a.empty() || std::memcmp(a.data(), b.data(),
                                   a.size() * sizeof(Weight)) == 0);
}

TEST(OracleServer, ScalarPathMatchesCompactOracle) {
  const graph::Graph g = test_graph(11);
  const serve::OracleServer server(g, {});
  const core::DistanceOracle reference(
      g, {.mode = core::ExecutionMode::Sequential});
  for (VertexId s = 0; s < g.num_vertices(); ++s) {
    for (VertexId t = 0; t < g.num_vertices(); ++t) {
      const Weight got = server.query(s, t);
      const Weight want = reference.distance(s, t);
      EXPECT_EQ(std::memcmp(&got, &want, sizeof(Weight)), 0)
          << "d(" << s << "," << t << ") got " << got << " want " << want;
    }
  }
}

TEST(OracleServer, BatchMatchesScalarBitwiseAcrossModes) {
  const graph::Graph g = test_graph(23);
  const std::vector<serve::Query> queries = all_pairs(g);

  // Scalar reference from one server; every build mode must reproduce it
  // bit for bit.
  const serve::OracleServer scalar_server(
      g, {.build = {.mode = core::ExecutionMode::Sequential}});
  std::vector<Weight> expected;
  expected.reserve(queries.size());
  for (const serve::Query& q : queries) {
    expected.push_back(scalar_server.query(q.s, q.t));
  }

  const core::ExecutionMode modes[] = {core::ExecutionMode::Sequential,
                                       core::ExecutionMode::Multicore,
                                       core::ExecutionMode::Heterogeneous};
  for (const auto mode : modes) {
    const serve::OracleServer server(
        g, {.build = {.mode = mode, .cpu_threads = 3}});
    const std::vector<Weight> got = server.query_batch(queries);
    EXPECT_TRUE(bitwise_equal(got, expected))
        << "mode " << static_cast<int>(mode);
  }
}

TEST(OracleServer, BatchHandlesEmptyAndTrivialQueries) {
  const graph::Graph g = test_graph(3);
  const serve::OracleServer server(g, {});
  EXPECT_TRUE(server.query_batch({}).empty());
  const std::vector<serve::Query> trivial{{0, 0}, {1, 1}};
  const std::vector<Weight> out = server.query_batch(trivial);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0], 0.0);
  EXPECT_EQ(out[1], 0.0);
}

TEST(OracleServer, BatchRejectsOutOfRangeVertices) {
  const graph::Graph g = test_graph(3);
  const serve::OracleServer server(g, {});
  const std::vector<serve::Query> bad{{0, g.num_vertices()}};
  EXPECT_THROW((void)server.query_batch(bad), std::out_of_range);
  EXPECT_THROW((void)server.query(g.num_vertices(), 0), std::out_of_range);
}

// The latency-attribution contract (docs/observability.md): with a
// QueryTrace installed, the serving path fills server_end_ns and the two
// server-side components so they chain gaplessly from the scheduled
// arrival — component sums must equal server_end_ns - arrival exactly,
// and each attr histogram must have seen one observation per query.
TEST(OracleServer, QueryTraceAttributionChainsGaplessly) {
  if (!obs::kTracingEnabled) GTEST_SKIP() << "tracing compiled out";
  const graph::Graph g = test_graph(13);
  const serve::OracleServer server(g, {});
  auto& reg = obs::MetricsRegistry::instance();
  obs::Histogram* attr[2] = {
      &reg.histogram("oracle.serve.attr.queue_wait_ns"),
      &reg.histogram("oracle.serve.attr.kernel_ns"),
  };
  for (obs::Histogram* h : attr) h->reset();

  const std::vector<serve::Query> queries = {{0, 1}, {2, 3}, {5, 9}, {1, 1}};
  const std::uint64_t arrival = obs::Tracer::now_ns();
  obs::QueryTrace qt(arrival);
  std::vector<Weight> batched;
  {
    const obs::QueryTraceScope scope(&qt);
    batched = server.query_batch(queries);
  }
  const std::uint64_t done = obs::Tracer::now_ns();

  ASSERT_EQ(batched.size(), queries.size());
  ASSERT_NE(qt.server_end_ns, 0u);
  EXPECT_GE(qt.server_end_ns, arrival);
  EXPECT_LE(qt.server_end_ns, done);
  std::uint64_t component_sum = 0;
  for (std::size_t i = 0; i < 2; ++i) component_sum += qt.attr_ns[i];
  EXPECT_EQ(component_sum, qt.server_end_ns - arrival);
  // The write component is the caller's; the server must leave it alone.
  EXPECT_EQ(qt.attr_ns[std::size_t(obs::AttrComponent::kWrite)], 0u);
  for (obs::Histogram* h : attr) EXPECT_EQ(h->count(), queries.size());

  // The scalar path fills the same contract.
  obs::QueryTrace scalar_qt(obs::Tracer::now_ns());
  {
    const obs::QueryTraceScope scope(&scalar_qt);
    (void)server.query(0, 5);
  }
  ASSERT_NE(scalar_qt.server_end_ns, 0u);
  std::uint64_t scalar_sum = 0;
  for (std::size_t i = 0; i < 2; ++i) scalar_sum += scalar_qt.attr_ns[i];
  EXPECT_EQ(scalar_sum, scalar_qt.server_end_ns - scalar_qt.arrival_ns);
}

// The epoch-swap contract under load: readers pin a snapshot and their
// answers stay bit-identical to that epoch's reference even while newer
// epochs are published; the published epoch only moves forward. TSan
// (label hetero) holds the pointer swap to being data-race-free and the
// drained old snapshots to being freed exactly once.
TEST(OracleServer, SnapshotSwapUnderLoadKeepsReadersConsistent) {
  constexpr int kEpochs = 4;
  constexpr int kReaders = 4;
  std::vector<graph::Graph> graphs;
  std::vector<std::vector<Weight>> expected(kEpochs);
  for (int k = 0; k < kEpochs; ++k) {
    graphs.push_back(test_graph(100 + static_cast<std::uint64_t>(k), 30));
    // The closed form is deterministic per graph, so an independently
    // built oracle is the per-epoch bitwise reference.
    const core::DistanceOracle ref(graphs.back(),
                                   {.mode = core::ExecutionMode::Sequential});
    const VertexId n = graphs.back().num_vertices();
    for (VertexId s = 0; s < n; ++s) {
      for (VertexId t = 0; t < n; ++t) {
        expected[static_cast<std::size_t>(k)].push_back(ref.distance(s, t));
      }
    }
  }

  serve::OracleServer server(graphs[0], {});
  const auto first = server.snapshot();
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> failures{0};
  std::vector<std::thread> readers;
  readers.reserve(kReaders);
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&, r] {
      std::mt19937_64 rng(static_cast<std::uint64_t>(r) + 1);
      std::uint64_t last_epoch = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        const auto snap = server.snapshot();
        const std::uint64_t e = snap->epoch();
        if (e < last_epoch) ++failures;  // epoch must be monotone
        last_epoch = e;
        const auto& want = expected[e - 1];
        const VertexId n = snap->graph().num_vertices();
        for (int i = 0; i < 64; ++i) {
          const auto s = static_cast<VertexId>(rng() % n);
          const auto t = static_cast<VertexId>(rng() % n);
          const Weight got = snap->query(s, t);
          const Weight ref = want[static_cast<std::size_t>(s) * n + t];
          if (std::memcmp(&got, &ref, sizeof(Weight)) != 0) ++failures;
        }
      }
    });
  }
  for (int k = 1; k < kEpochs; ++k) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    server.rebuild(graphs[static_cast<std::size_t>(k)]);
    EXPECT_EQ(server.epoch(), static_cast<std::uint64_t>(k) + 1);
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  stop.store(true, std::memory_order_relaxed);
  for (auto& t : readers) t.join();
  EXPECT_EQ(failures.load(), 0u);

  // The server's metered entry points answer on a caller-pinned snapshot,
  // not on the epoch published since.
  const VertexId n = graphs[0].num_vertices();
  std::vector<serve::Query> pairs;
  for (VertexId s = 0; s < n; ++s) {
    for (VertexId t = 0; t < n; ++t) pairs.push_back({s, t});
  }
  std::vector<Weight> via_query_on;
  for (const serve::Query& q : pairs) {
    via_query_on.push_back(server.query_on(*first, q.s, q.t));
  }
  EXPECT_TRUE(bitwise_equal(via_query_on, expected[0]));
  EXPECT_TRUE(bitwise_equal(server.query_batch_on(*first, pairs), expected[0]));
}

// The per-query pin under rebuilds: readers go through the server's own
// entry points (query, query_batch, epoch), never through snapshot(), so
// nothing but the pin keeps an old snapshot alive. Every answer must be
// bitwise the reference of an epoch published while it was served, a
// batch must come whole from one epoch, and rebuild() must have freed the
// previous snapshot by the time it returns. TSan and ASan (label hetero,
// tier-1) watch for a reader still on a freed snapshot.
TEST(OracleServer, RebuildDrainsPinnedReadersAndFreesOldSnapshot) {
  constexpr int kEpochs = 4;
  constexpr int kReaders = 4;
  constexpr std::uint64_t kQueriesPerEpoch = 2000;
  std::vector<graph::Graph> graphs;
  std::vector<std::vector<Weight>> expected(kEpochs);
  std::vector<VertexId> sizes;
  for (int k = 0; k < kEpochs; ++k) {
    graphs.push_back(test_graph(300 + static_cast<std::uint64_t>(k), 30));
    const core::DistanceOracle ref(graphs.back(),
                                   {.mode = core::ExecutionMode::Sequential});
    const VertexId n = graphs.back().num_vertices();
    sizes.push_back(n);
    for (VertexId s = 0; s < n; ++s) {
      for (VertexId t = 0; t < n; ++t) {
        expected[static_cast<std::size_t>(k)].push_back(ref.distance(s, t));
      }
    }
  }
  // Pairs valid on every epoch, so no query throws.
  const VertexId n = *std::min_element(sizes.begin(), sizes.end());
  // True iff `got` is epoch e's answer for s-t, for some e in [lo, hi].
  const auto from_epochs = [&](std::uint64_t lo, std::uint64_t hi,
                               VertexId s, VertexId t, Weight got) {
    for (std::uint64_t e = lo; e <= hi; ++e) {
      const Weight want = expected[e - 1][static_cast<std::size_t>(s) *
                                              sizes[e - 1] +
                                          t];
      if (std::memcmp(&got, &want, sizeof(Weight)) == 0) return true;
    }
    return false;
  };

  serve::OracleServer server(graphs[0], {});
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> answered{0};
  std::atomic<std::uint64_t> failures{0};
  std::vector<std::thread> readers;
  readers.reserve(kReaders);
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&, r] {
      std::mt19937_64 rng(static_cast<std::uint64_t>(r) + 7);
      std::uint64_t last_epoch = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        const std::uint64_t before = server.epoch();
        if (before < last_epoch) ++failures;  // epoch must be monotone
        std::vector<serve::Query> batch(1 + rng() % 8);
        for (serve::Query& q : batch) {
          q = {static_cast<VertexId>(rng() % n),
               static_cast<VertexId>(rng() % n)};
        }
        const Weight one = server.query(batch[0].s, batch[0].t);
        const std::vector<Weight> many = server.query_batch(batch);
        const std::uint64_t after = server.epoch();
        if (after < before) ++failures;
        last_epoch = after;
        if (!from_epochs(before, after, batch[0].s, batch[0].t, one)) {
          ++failures;
        }
        // One pin per batch: the whole batch answers from one epoch.
        bool whole = false;
        for (std::uint64_t e = before; e <= after && !whole; ++e) {
          whole = true;
          for (std::size_t i = 0; i < batch.size(); ++i) {
            whole = whole && from_epochs(e, e, batch[i].s, batch[i].t,
                                         many[i]);
          }
        }
        if (!whole) ++failures;
        answered.fetch_add(1 + batch.size(), std::memory_order_relaxed);
      }
    });
  }
  const auto wait_for_answers = [&] {
    const std::uint64_t from = answered.load();
    while (answered.load() < from + kQueriesPerEpoch) {
      std::this_thread::yield();
    }
  };
  for (int k = 1; k < kEpochs; ++k) {
    wait_for_answers();
    const std::weak_ptr<const serve::OracleSnapshot> previous =
        server.snapshot();
    EXPECT_FALSE(previous.expired());
    server.rebuild(graphs[static_cast<std::size_t>(k)]);
    // Readers were querying throughout; none pins via snapshot(), so the
    // old build is gone as soon as rebuild() returns.
    EXPECT_TRUE(previous.expired()) << "epoch " << k;
    EXPECT_EQ(server.epoch(), static_cast<std::uint64_t>(k) + 1);
  }
  wait_for_answers();
  stop.store(true, std::memory_order_relaxed);
  for (auto& t : readers) t.join();
  EXPECT_EQ(failures.load(), 0u);
}

#if defined(__unix__)

/// One blocking HTTP/1.1 request against 127.0.0.1:<port>; returns the
/// full response (headers + body), or "" on connection failure.
std::string http_request(std::uint16_t port, const char* method,
                         const std::string& path,
                         const std::string& body = "") {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return "";
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) !=
      0) {
    ::close(fd);
    return "";
  }
  std::string req = std::string(method) + " " + path +
                    " HTTP/1.1\r\nHost: localhost\r\nConnection: close\r\n";
  if (!body.empty()) {
    req += "Content-Length: " + std::to_string(body.size()) + "\r\n";
  }
  req += "\r\n" + body;
  std::size_t off = 0;
  while (off < req.size()) {
    const ssize_t n = ::send(fd, req.data() + off, req.size() - off, 0);
    if (n <= 0) break;
    off += static_cast<std::size_t>(n);
  }
  std::string resp;
  char buf[4096];
  for (;;) {
    const ssize_t n = ::recv(fd, buf, sizeof buf, 0);
    if (n <= 0) break;
    resp.append(buf, static_cast<std::size_t>(n));
  }
  ::close(fd);
  return resp;
}

class ServeHttpTest : public ::testing::Test {
 protected:
  void SetUp() override {
    if (!obs::StatsServer::kCompiledIn) {
      GTEST_SKIP() << "stats server compiled out";
    }
    g_ = test_graph(77);
    server_ = std::make_unique<serve::OracleServer>(g_, serve::ServeOptions{});
    serve::register_query_routes(*server_);
    auto& stats = obs::StatsServer::instance();
    stats.stop();
    ASSERT_TRUE(stats.start(0));
    port_ = stats.port();
    ASSERT_NE(port_, 0u);
  }
  void TearDown() override {
    // Join the serving thread before the handler's target dies.
    obs::StatsServer::instance().stop();
    serve::unregister_query_routes();
    server_.reset();
  }

  graph::Graph g_;
  std::unique_ptr<serve::OracleServer> server_;
  std::uint16_t port_ = 0;
};

TEST_F(ServeHttpTest, SingleQueryAnswersJsonWithExactDistance) {
  const std::string resp = http_request(port_, "GET", "/query?s=0&t=5");
  EXPECT_NE(resp.find("HTTP/1.1 200"), std::string::npos) << resp;
  EXPECT_NE(resp.find("application/json"), std::string::npos);
  const std::string want =
      "\"distance\": \"" + serve::format_distance(server_->query(0, 5)) +
      "\"";
  EXPECT_NE(resp.find(want), std::string::npos) << resp;
  EXPECT_NE(resp.find("\"epoch\": 1"), std::string::npos);
}

TEST_F(ServeHttpTest, BatchPostAnswersAllPairsInOrder) {
  const std::string resp =
      http_request(port_, "POST", "/query/batch", "0 1\n2 3\n0 0\n");
  EXPECT_NE(resp.find("HTTP/1.1 200"), std::string::npos) << resp;
  EXPECT_NE(resp.find("\"count\": 3"), std::string::npos);
  const std::string want = "\"" + serve::format_distance(server_->query(0, 1)) +
                           "\", \"" +
                           serve::format_distance(server_->query(2, 3)) +
                           "\", \"0\"";
  EXPECT_NE(resp.find(want), std::string::npos) << resp;
}

TEST_F(ServeHttpTest, MalformedRequestsAnswer400) {
  EXPECT_NE(http_request(port_, "GET", "/query?s=1").find("HTTP/1.1 400"),
            std::string::npos);
  EXPECT_NE(http_request(port_, "GET", "/query?s=a&t=b").find("HTTP/1.1 400"),
            std::string::npos);
  EXPECT_NE(http_request(port_, "GET", "/query?s=1&t=999999999")
                .find("HTTP/1.1 400"),
            std::string::npos);
  EXPECT_NE(
      http_request(port_, "POST", "/query/batch", "0 1 2").find("HTTP/1.1 400"),
      std::string::npos);
  EXPECT_NE(
      http_request(port_, "POST", "/query/batch", "x y").find("HTTP/1.1 400"),
      std::string::npos);
  // A valid pair before an out-of-range vertex fails the whole batch: 400
  // and no partial distances.
  const std::string partial = http_request(
      port_, "POST", "/query/batch", "0 1\n0 999999999\n");
  EXPECT_NE(partial.find("HTTP/1.1 400"), std::string::npos) << partial;
  EXPECT_EQ(partial.find("distances"), std::string::npos) << partial;
  // GET on the batch route is a usage error, not a fall-through.
  EXPECT_NE(http_request(port_, "GET", "/query/batch").find("HTTP/1.1 400"),
            std::string::npos);
}

TEST_F(ServeHttpTest, BuiltInRoutesStillWorkWithHandlerRegistered) {
  EXPECT_NE(http_request(port_, "GET", "/healthz").find("HTTP/1.1 200"),
            std::string::npos);
  EXPECT_NE(http_request(port_, "GET", "/metrics").find("oracle_serve_epoch"),
            std::string::npos);
  EXPECT_NE(http_request(port_, "GET", "/nope").find("HTTP/1.1 404"),
            std::string::npos);
  // POST to a route the handler declines still answers 405.
  EXPECT_NE(http_request(port_, "POST", "/metrics").find("HTTP/1.1 405"),
            std::string::npos);
}

/// The quoted value after `"key": ` in a flat JSON reply ("" if absent);
/// unquoted values (numbers) are returned up to the next ',' or '}'.
std::string json_field(const std::string& reply, const std::string& key) {
  const std::string tag = "\"" + key + "\": ";
  std::size_t at = reply.find(tag);
  if (at == std::string::npos) return "";
  at += tag.size();
  if (reply[at] == '"') {
    const std::size_t end = reply.find('"', at + 1);
    return end == std::string::npos ? "" : reply.substr(at + 1, end - at - 1);
  }
  const std::size_t end = reply.find_first_of(",}", at);
  return end == std::string::npos ? "" : reply.substr(at, end - at);
}

// The headline TSan scenario: reader threads hammer scalar and batched
// queries, a rebuilder swaps snapshots, and the HTTP side serves /query
// and /metrics scrapes — all concurrently. Every /query reply must carry
// the distance of the epoch it reports, however the swaps interleave.
TEST_F(ServeHttpTest, ReadersScrapesAndSwapsRaceFreely) {
  constexpr int kRebuilds = 3;
  // Epoch 1 is g_, epoch k + 2 is test_graph(200 + k).
  std::vector<std::string> want_0_3;
  const auto reference = [&want_0_3](const graph::Graph& g) {
    const core::DistanceOracle ref(g,
                                   {.mode = core::ExecutionMode::Sequential});
    want_0_3.push_back(serve::format_distance(ref.distance(0, 3)));
  };
  reference(g_);
  for (int k = 0; k < kRebuilds; ++k) {
    reference(test_graph(200 + static_cast<std::uint64_t>(k)));
  }

  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> failures{0};
  const std::vector<serve::Query> batch = {{0, 1}, {2, 3}, {4, 5}, {1, 0}};

  std::vector<std::thread> workers;
  for (int r = 0; r < 3; ++r) {
    workers.emplace_back([&, r] {
      std::mt19937_64 rng(static_cast<std::uint64_t>(r) + 9);
      while (!stop.load(std::memory_order_relaxed)) {
        // Random ids are valid only on the epoch they were drawn from, so
        // they are answered on that pinned snapshot; the fixed batch ids
        // exist in every epoch and go through the unpinned entry point.
        const auto snap = server_->snapshot();
        const auto n = snap->graph().num_vertices();
        const auto s = static_cast<VertexId>(rng() % n);
        const auto t = static_cast<VertexId>(rng() % n);
        (void)server_->query_on(*snap, s, t);
        const auto answers = server_->query_batch(batch);
        if (answers.size() != batch.size()) ++failures;
      }
    });
  }
  std::thread rebuilder([&] {
    for (int k = 0; k < kRebuilds && !stop.load(std::memory_order_relaxed);
         ++k) {
      server_->rebuild(test_graph(200 + static_cast<std::uint64_t>(k)));
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
  });

  for (int round = 0; round < 15; ++round) {
    const std::string one = http_request(port_, "GET", "/query?s=0&t=3");
    if (one.find("HTTP/1.1 200") == std::string::npos) ++failures;
    const std::string epoch = json_field(one, "epoch");
    const std::size_t e = epoch.empty() ? 0 : std::stoull(epoch);
    if (e < 1 || e > want_0_3.size()) {
      ADD_FAILURE() << "reply reports epoch " << e << ": " << one;
    } else {
      EXPECT_EQ(json_field(one, "distance"), want_0_3[e - 1])
          << "epoch " << e << " reply: " << one;
    }
    const std::string many =
        http_request(port_, "POST", "/query/batch", "0 1\n2 3\n");
    if (many.find("\"count\": 2") == std::string::npos) ++failures;
    const std::string metrics = http_request(port_, "GET", "/metrics");
    if (metrics.find("eardec_oracle_serve_queries") == std::string::npos) {
      ++failures;
    }
  }
  stop.store(true, std::memory_order_relaxed);
  rebuilder.join();
  for (auto& t : workers) t.join();
  EXPECT_EQ(failures.load(), 0u);
  EXPECT_GE(server_->epoch(), 1u);
}

#endif  // defined(__unix__)

}  // namespace
