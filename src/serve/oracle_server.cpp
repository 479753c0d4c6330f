#include "serve/oracle_server.hpp"

#include <atomic>
#include <cstddef>
#include <mutex>
#include <thread>
#include <utility>

#include "obs/metrics.hpp"
#include "obs/query_trace.hpp"
#include "obs/slow_log.hpp"
#include "obs/trace.hpp"

namespace eardec::serve {

struct OracleServer::Impl {
  ServeOptions options;

  /// The published snapshot, pinned SRCU-style. A reader counts itself in
  /// its thread's shard under the current parity, then loads `current`;
  /// publish() stores the next pointer, then waits for both parities'
  /// counts to drain, each while new readers count under the other one.
  /// Any reader that loaded the old pointer counted itself before that
  /// store (seq_cst orders both sides), so when the waits end nobody reads
  /// the old snapshot. In steady state a reader writes only its own
  /// shard's cache line.
  struct alignas(64) ReaderCount {
    std::atomic<std::uint64_t> n{0};
  };
  mutable ReaderCount readers[obs::kThreadShards][2];
  alignas(64) std::atomic<const OracleSnapshot*> current{nullptr};
  std::atomic<unsigned> parity{0};

  /// Serializes rebuilds; also owns the epoch sequence and the published
  /// snapshot's shared ownership.
  std::mutex rebuild_mutex;
  std::uint64_t last_epoch = 0;
  std::shared_ptr<const OracleSnapshot> owner;

  /// A reader's hold on the published snapshot, released on scope exit
  /// (exceptions included).
  class Pin {
   public:
    explicit Pin(const Impl& impl) noexcept
        : count_(&impl.readers[obs::thread_shard()][impl.parity.load()].n) {
      count_->fetch_add(1);
      snap_ = impl.current.load();
    }
    ~Pin() { count_->fetch_sub(1); }
    Pin(const Pin&) = delete;
    Pin& operator=(const Pin&) = delete;

    const OracleSnapshot& operator*() const noexcept { return *snap_; }
    const OracleSnapshot* operator->() const noexcept { return snap_; }

   private:
    std::atomic<std::uint64_t>* count_;
    const OracleSnapshot* snap_ = nullptr;
  };

  // Metric instruments are leaked-singleton references: resolve them once.
  obs::Histogram& scalar_latency;
  obs::Histogram& batch_query_latency;
  obs::Histogram& batch_latency;
  obs::Counter& queries_total;
  obs::Counter& batches_total;
  obs::Gauge& epoch_gauge;
  // Latency attribution components (docs/observability.md): every answered
  // query decomposes into queue_wait / kernel / write. The first two are
  // recorded here (a batch records its full values once per query in it,
  // so component means stay per-query comparable and sum to the open-loop
  // mean); `write` belongs to whoever serializes the reply (http_routes /
  // the bench) via QueryTrace::server_end_ns.
  obs::Histogram& attr_queue_wait;
  obs::Histogram& attr_kernel;

  explicit Impl(ServeOptions opts)
      : options(opts),
        scalar_latency(obs::MetricsRegistry::instance().histogram(
            "oracle.query.scalar.latency_ns")),
        batch_query_latency(obs::MetricsRegistry::instance().histogram(
            "oracle.query.batch.latency_ns")),
        batch_latency(obs::MetricsRegistry::instance().histogram(
            "oracle.serve.batch.latency_ns")),
        queries_total(
            obs::MetricsRegistry::instance().counter("oracle.serve.queries")),
        batches_total(
            obs::MetricsRegistry::instance().counter("oracle.serve.batches")),
        epoch_gauge(
            obs::MetricsRegistry::instance().gauge("oracle.serve.epoch")),
        attr_queue_wait(obs::MetricsRegistry::instance().histogram(
            "oracle.serve.attr.queue_wait_ns")),
        attr_kernel(obs::MetricsRegistry::instance().histogram(
            "oracle.serve.attr.kernel_ns")) {}

  /// Called with rebuild_mutex held. Drops the old snapshot only after no
  /// reader can still be on it.
  void publish(std::shared_ptr<const OracleSnapshot> next) {
    current.store(next.get());
    for (int k = 0; k < 2; ++k) {
      const unsigned drain = parity.load();
      parity.store(drain ^ 1u);
      for (const auto& shard : readers) {
        while (shard[drain].n.load() != 0) std::this_thread::yield();
      }
    }
    owner = std::move(next);
    epoch_gauge.set(static_cast<double>(last_epoch));
  }

  /// The queue_wait start: the installed QueryTrace's scheduled arrival
  /// when it is known and not in the future, else server entry.
  static std::uint64_t arrival_of(const obs::QueryTrace* qt,
                                  std::uint64_t entry_ns) {
    return qt != nullptr && qt->arrival_ns != 0 && qt->arrival_ns <= entry_ns
               ? qt->arrival_ns
               : entry_ns;
  }

  /// Closes a request's server side: fills the attribution components and
  /// server_end_ns, emits the root span and feeds the slow-query tracker.
  /// `entry_ns..end_ns` is the kernel bracket; the caller's metric
  /// bookkeeping after it lands in the `write` component, so the chain
  /// arrival -> entry -> end -> done stays gapless.
  static void close_trace(obs::QueryTrace& qt, const char* span_name,
                          std::uint64_t arrival, std::uint64_t entry_ns,
                          std::uint64_t end_ns, std::size_t queries,
                          const Query& first, std::uint64_t epoch) {
    qt.attr_ns[std::size_t(obs::AttrComponent::kQueueWait)] =
        entry_ns - arrival;
    qt.attr_ns[std::size_t(obs::AttrComponent::kKernel)] = end_ns - entry_ns;
    qt.server_end_ns = end_ns;
    qt.emit(qt.allocate_span(), obs::current_parent_span(), span_name,
            entry_ns, end_ns - entry_ns, "queries", queries);
    obs::SlowLog& slow = obs::SlowLog::instance();
    if (slow.armed()) {
      const std::uint64_t total = end_ns - arrival;
      const obs::SlowLog::Keep keep = slow.observe(total);
      if (keep != obs::SlowLog::Keep::kNo) {
        slow.retain(qt, total, keep, first.s, first.t,
                    static_cast<std::uint32_t>(queries), epoch);
      }
    }
  }

  [[nodiscard]] Weight answer(const OracleSnapshot& snap, VertexId s,
                              VertexId t, std::uint64_t entry_ns) const {
    obs::QueryTrace* const qt = obs::current_query_trace();
    const Weight d = snap.query(s, t);
    const std::uint64_t end_ns = obs::Tracer::now_ns();
    const std::uint64_t arrival = arrival_of(qt, entry_ns);
    scalar_latency.record(end_ns - entry_ns);
    queries_total.add(1);
    attr_queue_wait.record(entry_ns - arrival);
    attr_kernel.record(end_ns - entry_ns);
    if (qt != nullptr) {
      close_trace(*qt, "oracle.scalar", arrival, entry_ns, end_ns, 1, {s, t},
                  snap.epoch());
    }
    return d;
  }

  [[nodiscard]] std::vector<Weight> answer_batch(
      const OracleSnapshot& snap, std::span<const Query> queries) const {
    const std::uint64_t entry_ns = obs::Tracer::now_ns();
    obs::QueryTrace* const qt = obs::current_query_trace();
    const std::size_t q = queries.size();
    std::vector<Weight> out;
    out.reserve(q);
    for (const Query& query : queries) {
      out.push_back(snap.query(query.s, query.t));
    }
    const std::uint64_t end_ns = obs::Tracer::now_ns();
    const std::uint64_t ns = end_ns - entry_ns;
    const std::uint64_t arrival = arrival_of(qt, entry_ns);
    batch_latency.record(ns);
    batches_total.add(1);
    queries_total.add(q);
    batch_query_latency.record_n(q > 0 ? ns / q : 0, q);
    // Components at full batch values once per query in the batch — the
    // convention the open-loop bench uses for its latency histogram — so
    // per-component means sum to the open-loop mean (check_bench_smoke.py
    // enforces the 10% bound).
    attr_queue_wait.record_n(entry_ns - arrival, q);
    attr_kernel.record_n(ns, q);
    if (qt != nullptr) {
      close_trace(*qt, "oracle.batch", arrival, entry_ns, end_ns, q,
                  q > 0 ? queries[0] : Query{}, snap.epoch());
    }
    return out;
  }
};

OracleServer::OracleServer(graph::Graph g, ServeOptions options)
    : impl_(std::make_unique<Impl>(options)) {
  std::lock_guard<std::mutex> rebuild(impl_->rebuild_mutex);
  const std::uint64_t epoch = ++impl_->last_epoch;
  impl_->publish(std::make_shared<const OracleSnapshot>(
      std::move(g), impl_->options.build, epoch));
}

OracleServer::~OracleServer() = default;

std::shared_ptr<const OracleSnapshot> OracleServer::snapshot() const {
  const Impl::Pin snap(*impl_);
  return snap->shared_from_this();
}

std::uint64_t OracleServer::epoch() const noexcept {
  const Impl::Pin snap(*impl_);
  return snap->epoch();
}

void OracleServer::rebuild(graph::Graph g) {
  std::lock_guard<std::mutex> rebuild(impl_->rebuild_mutex);
  const std::uint64_t epoch = impl_->last_epoch + 1;
  // Build off to the side — readers keep answering on the old snapshot
  // for the whole (expensive) construction.
  auto next = std::make_shared<const OracleSnapshot>(
      std::move(g), impl_->options.build, epoch);
  impl_->last_epoch = epoch;
  impl_->publish(std::move(next));
}

Weight OracleServer::query(VertexId s, VertexId t) const {
  // The kernel bracket starts before the pin so it has no unattributed
  // gap.
  const std::uint64_t entry_ns = obs::Tracer::now_ns();
  const Impl::Pin snap(*impl_);
  return impl_->answer(*snap, s, t, entry_ns);
}

Weight OracleServer::query_on(const OracleSnapshot& snap, VertexId s,
                              VertexId t) const {
  return impl_->answer(snap, s, t, obs::Tracer::now_ns());
}

std::vector<Weight> OracleServer::query_batch(
    std::span<const Query> queries) const {
  const Impl::Pin snap(*impl_);
  return impl_->answer_batch(*snap, queries);
}

std::vector<Weight> OracleServer::query_batch_on(
    const OracleSnapshot& snap, std::span<const Query> queries) const {
  return impl_->answer_batch(snap, queries);
}

}  // namespace eardec::serve
