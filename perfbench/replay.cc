#include "replay.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <unordered_set>

#include "common/timing.h"
#include "net/client.h"
#include "stats.h"
#include "tensor/tensor.h"
#include "update/wal.h"
#include "workloads.h"

namespace perfbench {

namespace cluster = emblookup::cluster;
namespace core = emblookup::core;
namespace kg = emblookup::kg;
namespace net = emblookup::net;
namespace serve = emblookup::serve;
namespace update = emblookup::update;
using emblookup::Stopwatch;

namespace {

/// Mentions replayed through the in-isolation layer calls: the first
/// eighth of the timed lookups, at most this many.
constexpr size_t kReplayMentions = 2048;
/// Sequential calls for the router and direct shard RPC timings.
constexpr size_t kClusterCalls = 200;
/// Mentions routed through annotate's four-shard side deployment to count
/// shard encodes per lookup.
constexpr size_t kClusterDrive = 256;
/// Repetitions of each timed layer call; the median is reported. A call
/// is not repeated once the repetitions have taken kRepBudgetS.
constexpr int kReps = 5;
constexpr double kRepBudgetS = 1.0;

template <typename F>
double MedianSeconds(F&& f) {
  std::vector<double> times;
  double spent = 0.0;
  for (int r = 0; r < kReps && spent < kRepBudgetS; ++r) {
    Stopwatch watch;
    f();
    times.push_back(watch.ElapsedSeconds());
    spent += times.back();
  }
  return Median(times);
}

/// The first lookups of every connection's timed stream, round-robin.
std::vector<std::string> ReplayMentions(const WorkloadStreams& streams,
                                        size_t limit) {
  std::vector<std::string> out;
  std::vector<size_t> pos(streams.conns.size(), 0);
  bool progressed = true;
  while (out.size() < limit && progressed) {
    progressed = false;
    for (size_t c = 0; c < streams.conns.size() && out.size() < limit; ++c) {
      const auto& ops = streams.conns[c];
      while (pos[c] < ops.size() && ops[pos[c]].kind != OpKind::kLookup) {
        ++pos[c];
      }
      if (pos[c] < ops.size()) {
        out.push_back(ops[pos[c]++].mention.text);
        progressed = true;
      }
    }
  }
  return out;
}

void Set(LayerMetrics* out, const std::string& name, double value) {
  for (auto& [n, v] : *out) {
    if (n == name) {
      v = value;
      return;
    }
  }
  out->emplace_back(name, value);
}

double Get(const LayerMetrics& m, const std::string& name) {
  for (const auto& [n, v] : m) {
    if (n == name) return v;
  }
  return 0.0;
}

double Ratio(double num, double den) { return den <= 0.0 ? 0.0 : num / den; }

/// p50 of the in-process Submit replay: the workload's own stream prefix
/// and client shape (open or closed loop, 2 connections), no socket. It
/// runs on a fresh server over the same index, warmed with the pass's
/// warm-up stream, so its query cache starts where the pass's started.
double SubmitP50Ms(const ReplayInputs& in, core::EmbLookup* el) {
  serve::LookupServer server(el);
  // routed's lanes fold into the closed loop's connections.
  std::vector<std::vector<Op>> prefix(kConnections);
  for (size_t c = 0; c < in.streams->conns.size(); ++c) {
    const auto& ops = in.streams->conns[c];
    // A routed lane can be empty when a short stream has fewer tables
    // than lanes.
    const size_t n = ops.empty() ? 0 : std::max<size_t>(1, ops.size() / 4);
    for (size_t j = 0; j < n; ++j) {
      if (ops[j].kind == OpKind::kLookup) {
        prefix[c % kConnections].push_back(ops[j]);
      }
    }
  }
  std::vector<std::unique_ptr<Transport>> owned;
  std::vector<Transport*> transports;
  for (size_t c = 0; c < prefix.size(); ++c) {
    owned.push_back(InProcess(&server));
    transports.push_back(owned.back().get());
  }
  (void)Drive(WarmupOps(in.streams->warmup), transports, {});
  DriveOptions options;
  options.open_loop = in.workload == Workload::kInteractive;
  const DriveResult result = Drive(prefix, transports, options);
  std::vector<double> lat;
  for (const ConnResult& c : result.conns) {
    for (const OpResult& r : c.ops) {
      if (r.ok) lat.push_back(r.latency_us / 1e3);
    }
  }
  return Median(lat);
}

}  // namespace

const std::vector<std::pair<std::string, std::string>>& LayerMetricDefs() {
  static const std::vector<std::pair<std::string, std::string>> defs = {
      {"kg.catalog_load_s", "s"},
      {"embed.fasttext_load_s", "s"},
      {"store.snapshot_load_s", "s"},
      {"core.encode_us_per_query", "us"},
      {"core.lookup_us_per_query", "us"},
      {"core.encode_cache_hit_ratio", "ratio"},
      {"ann.search_us_per_query", "us"},
      {"ann.recall_at_10", "ratio"},
      {"serve.submit_ms_p50", "ms"},
      {"serve.queue_wait_ms_p50", "ms"},
      {"serve.batch_size_mean", "requests"},
      {"serve.cache_hit_ratio", "ratio"},
      {"serve.cache_stale_drop_ratio", "ratio"},
      {"net.overhead_ms_p50", "ms"},
      {"net.overload_rejections", "count"},
      {"update.wal_append_ms_p50", "ms"},
      {"update.mutation_ms_p50", "ms"},
      {"update.compactions", "count"},
      {"update.compaction_s", "s"},
      {"update.delta_rows", "rows"},
      {"cluster.route_ms_p50", "ms"},
      {"cluster.shard_rpc_ms_p50", "ms"},
      {"cluster.shard_encodes_per_lookup", "ratio"},
      {"cluster.shard_retries", "count"},
      {"bench.late_send_ratio", "ratio"},
      {"bench.trace_overhead_ratio", "ratio"},
  };
  return defs;
}

CounterBaseline CounterBaseline::Read(const Deployment& d) {
  CounterBaseline b;
  for (const auto& s : d.servers) {
    b.cache.push_back(s->CacheStats());
    b.encode_cache.push_back(s->EncodeCacheStats());
  }
  return b;
}

void ReplayLayers(const ReplayInputs& in, LayerMetrics* out) {
  Deployment& d = *in.deployment;

  // Cold-start loads, median over the run's cold starts.
  std::vector<double> catalog, fasttext, snapshot;
  for (const LoadTimes& t : in.cold_loads) {
    catalog.push_back(t.catalog_s);
    fasttext.push_back(t.fasttext_s);
    snapshot.push_back(t.snapshot_s);
  }
  Set(out, "kg.catalog_load_s", Median(catalog));
  Set(out, "embed.fasttext_load_s", Median(fasttext));
  Set(out, "store.snapshot_load_s", Median(snapshot));

  // Counters the modules expose, read before any replay adds to them.
  std::vector<double> queue_wait;
  double batch_sum = 0.0, batch_count = 0.0;
  double hits = 0.0, stale = 0.0, misses = 0.0;
  double enc_hits = 0.0, enc_probes = 0.0;
  for (size_t s = 0; s < d.servers.size(); ++s) {
    const serve::MetricsSnapshot m = d.servers[s]->Metrics();
    queue_wait.push_back(m.queue_wait_us.Percentile(0.5) / 1e3);
    batch_sum += m.batch_size.sum;
    batch_count += static_cast<double>(m.batch_size.total);
    const serve::QueryCacheStats c = d.servers[s]->CacheStats();
    const serve::QueryCacheStats& c0 = in.baseline.cache[s];
    hits += static_cast<double>(c.hits - c0.hits);
    misses += static_cast<double>(c.misses - c0.misses);
    stale += static_cast<double>(c.stale_drops - c0.stale_drops);
    const core::EncoderCacheStats e = d.servers[s]->EncodeCacheStats();
    const core::EncoderCacheStats& e0 = in.baseline.encode_cache[s];
    enc_hits += static_cast<double>(e.hits - e0.hits);
    enc_probes += static_cast<double>(e.hits - e0.hits + e.misses - e0.misses);
  }
  const double probes = hits + misses;
  Set(out, "serve.queue_wait_ms_p50", Median(queue_wait));
  Set(out, "serve.batch_size_mean", Ratio(batch_sum, batch_count));
  Set(out, "serve.cache_hit_ratio", Ratio(hits, probes));
  Set(out, "serve.cache_stale_drop_ratio", Ratio(stale, probes));
  Set(out, "core.encode_cache_hit_ratio", Ratio(enc_hits, enc_probes));
  uint64_t rejections = 0;
  for (const auto& n : d.nets) rejections += n->Stats().overload_rejections;
  Set(out, "net.overload_rejections", static_cast<double>(rejections));
  Set(out, "bench.late_send_ratio",
      Ratio(static_cast<double>(in.late_sends),
            in.workload == Workload::kInteractive
                ? static_cast<double>(in.sends)
                : 0.0));
  Set(out, "bench.trace_overhead_ratio",
      Ratio(in.traced_p50_ms, in.untraced_p50_ms));

  // Encode, lookup and search on the workload's mentions, in batches the
  // size the server formed.
  const std::vector<std::string> mentions =
      ReplayMentions(*in.streams,
                     std::min<size_t>(kReplayMentions,
                                      in.streams->NumLookups() / 8 + 1));
  const size_t n = mentions.size();
  const size_t batch = static_cast<size_t>(std::clamp(
      std::lround(Ratio(batch_sum, batch_count)), 1L, 32L));
  std::vector<std::vector<std::string>> batches;
  for (size_t i = 0; i < n; i += batch) {
    batches.emplace_back(mentions.begin() + i,
                         mentions.begin() + std::min(n, i + batch));
  }
  core::EmbLookup* el = d.lookups[0].get();
  const int64_t dim = el->encoder()->dim();
  std::vector<float> emb(n * static_cast<size_t>(dim));
  {
    emblookup::tensor::NoGradGuard no_grad;
    const double s = MedianSeconds([&] {
      size_t row = 0;
      for (const auto& b : batches) {
        const emblookup::tensor::Tensor t = el->encoder()->EncodeBatch(b);
        std::copy(t.data(), t.data() + t.size(),
                  emb.begin() + static_cast<std::ptrdiff_t>(row * dim));
        row += b.size();
      }
    });
    Set(out, "core.encode_us_per_query", s * 1e6 / static_cast<double>(n));
  }
  const double lookup_s = MedianSeconds([&] {
    for (const auto& b : batches) (void)el->BulkLookup(b, kTopK, true);
  });
  Set(out, "core.lookup_us_per_query", lookup_s * 1e6 / static_cast<double>(n));
  // On the serving index with the server's thread pool, as the bulk path
  // calls it.
  const auto index = el->IndexSnapshot();
  const double search_s = MedianSeconds([&] {
    (void)index->BatchSearch(emb.data(), static_cast<int64_t>(n), kTopK,
                             el->pool());
  });
  Set(out, "ann.search_us_per_query", search_s * 1e6 / static_cast<double>(n));

  // PQ top-10 against an exact flat scan of the same embeddings.
  {
    auto graph = kg::KnowledgeGraph::LoadTsv(in.fixture->catalog());
    double recall = 0.0;
    if (graph.ok()) {
      auto pq = LoadLookup(graph.value(), d.fasttext, false, 0,
                           in.fixture->pq_snapshot());
      auto flat = LoadLookup(graph.value(), d.fasttext, true, 0,
                             in.fixture->flat_snapshot());
      if (pq.ok() && flat.ok()) {
        const auto approx = pq.value()->index().BatchSearch(
            emb.data(), static_cast<int64_t>(n), kTopK);
        const auto exact = flat.value()->index().BatchSearch(
            emb.data(), static_cast<int64_t>(n), kTopK);
        double overlap = 0.0;
        for (size_t q = 0; q < n; ++q) {
          std::unordered_set<int64_t> truth;
          for (const auto& nb : exact[q]) truth.insert(nb.id);
          for (const auto& nb : approx[q]) overlap += truth.count(nb.id);
        }
        recall = overlap / static_cast<double>(n * kTopK);
      }
    }
    Set(out, "ann.recall_at_10", recall);
  }

  // In-process Submit with the same stream and shape; the socket's share
  // is what the end-to-end p50 adds on top.
  const double submit_ms = SubmitP50Ms(in, d.lookups[0].get());
  Set(out, "serve.submit_ms_p50", submit_ms);
  Set(out, "net.overhead_ms_p50", in.untraced_p50_ms - submit_ms);

  // The cluster layer: on the routed workload's own cluster, whose traced
  // pass sent the whole stream; on annotate's four-shard side deployment,
  // after the first mentions are routed through it with routed's client
  // shape; elsewhere through a one-shard router put in front of the
  // workload's own server for this replay only.
  Deployment* cl = d.router != nullptr ? &d : in.cluster;
  double routed_lookups = static_cast<double>(in.traced_lookups);
  double shard_misses = misses;
  if (cl != nullptr && cl != &d) {
    std::vector<std::vector<Op>> lanes(kRoutedLanes);
    for (size_t i = 0; i < std::min(kClusterDrive, n); ++i) {
      Op op;
      op.mention.text = mentions[i];
      lanes[i % lanes.size()].push_back(std::move(op));
    }
    const CounterBaseline before = CounterBaseline::Read(*cl);
    const DriveResult routed = DriveLanes(lanes, cl->port(), false);
    routed_lookups = 0.0;
    for (const ConnResult& c : routed.conns) {
      for (const OpResult& r : c.ops) routed_lookups += r.ok ? 1.0 : 0.0;
    }
    shard_misses = 0.0;
    for (size_t s = 0; s < cl->servers.size(); ++s) {
      shard_misses += static_cast<double>(cl->servers[s]->CacheStats().misses -
                                          before.cache[s].misses);
    }
  }
  if (cl != nullptr) {
    const auto rs = cl->router->Stats();
    Set(out, "cluster.shard_encodes_per_lookup",
        Ratio(shard_misses, routed_lookups));
    Set(out, "cluster.shard_retries",
        static_cast<double>(rs.shard_retries + rs.hedged_rpcs));
  } else {
    Set(out, "cluster.shard_encodes_per_lookup", 0.0);
    Set(out, "cluster.shard_retries", 0.0);
  }
  // Router::Route in process, and a scored RPC straight to one shard.
  cluster::Router* router = cl != nullptr ? cl->router.get() : nullptr;
  cluster::Router one_shard;
  if (router == nullptr) {
    cluster::RouterOptions options;
    options.shard_addrs = {"127.0.0.1:" + std::to_string(d.nets[0]->port())};
    if (one_shard.Start(options, /*port=*/0).ok()) router = &one_shard;
  }
  const size_t calls = std::min(kClusterCalls, n);
  std::vector<double> route, rpc;
  for (size_t i = 0; router != nullptr && i < calls; ++i) {
    Stopwatch watch;
    (void)router->Route(mentions[i], kTopK);
    route.push_back(watch.ElapsedSeconds() * 1e3);
  }
  one_shard.Stop();
  net::RemoteClient shard;
  const int shard_port = cl != nullptr ? cl->nets[0]->port() : d.nets[0]->port();
  if (shard.Connect("127.0.0.1", shard_port).ok()) {
    for (size_t i = 0; i < calls; ++i) {
      Stopwatch watch;
      (void)shard.LookupScored(mentions[i], kTopK);
      rpc.push_back(watch.ElapsedSeconds() * 1e3);
    }
  }
  Set(out, "cluster.route_ms_p50", Median(route));
  Set(out, "cluster.shard_rpc_ms_p50", Median(rpc));
}

void UpdateLayer(update::IndexUpdater* updater,
                 const std::vector<update::Mutation>& acked,
                 const std::string& scratch_dir, LayerMetrics* out) {
  const update::UpdaterStats stats = updater->stats();
  Set(out, "update.compactions", static_cast<double>(stats.compactions));
  Set(out, "update.delta_rows", static_cast<double>(stats.delta_rows));

  const std::string wal_path = scratch_dir + "/replay.wal";
  std::remove(wal_path.c_str());
  std::vector<double> append_ms;
  {
    update::WalWriter wal;
    if (wal.Open(wal_path, /*sync=*/true).ok()) {
      uint64_t seq = 0;
      for (update::Mutation m : acked) {
        m.seq = ++seq;
        Stopwatch watch;
        if (!wal.Append(m).ok()) break;
        append_ms.push_back(watch.ElapsedSeconds() * 1e3);
      }
    }
  }
  std::remove(wal_path.c_str());
  Set(out, "update.wal_append_ms_p50", Median(append_ms));

  Stopwatch watch;
  const emblookup::Status compacted = updater->Compact();
  Set(out, "update.compaction_s", compacted.ok() ? watch.ElapsedSeconds() : 0.0);
}

void PrintAttribution(Workload workload, double e2e_p50_ms,
                      const LayerMetrics& layers) {
  const double encode_ms = Get(layers, "core.encode_us_per_query") / 1e3;
  const double search_ms = Get(layers, "ann.search_us_per_query") / 1e3;
  const double queue_ms = Get(layers, "serve.queue_wait_ms_p50");
  const double miss = 1.0 - Get(layers, "serve.cache_hit_ratio");
  const double enc_miss = 1.0 - Get(layers, "core.encode_cache_hit_ratio");
  std::vector<std::pair<std::string, double>> path;
  switch (workload) {
    case Workload::kAnnotate:
    case Workload::kInteractive:
      path = {{"serve.queue_wait_ms_p50", queue_ms},
              {"core.encode x cache misses", miss * encode_ms},
              {"ann.search x cache misses", miss * search_ms}};
      break;
    case Workload::kCatalogWrites:
      path = {{"serve.queue_wait_ms_p50", queue_ms},
              {"core.encode x both cache misses", miss * enc_miss * encode_ms},
              {"ann.search x cache misses", miss * search_ms}};
      break;
    case Workload::kRouted:
      // Route, timed alone, covers the four sequential shard RPCs (each
      // one a shard's batch window, encode and scan); the remainder is
      // mostly the shards' queueing under the workload's concurrent lanes,
      // plus the client socket.
      path = {{"cluster.route_ms_p50", Get(layers, "cluster.route_ms_p50")}};
      break;
  }
  double sum = 0.0;
  std::printf("# attribution %s: e2e latency_p50_ms %.4f\n",
              WorkloadName(workload), e2e_p50_ms);
  for (const auto& [name, ms] : path) {
    std::printf("#   %-36s %10.4f ms\n", name.c_str(), ms);
    sum += ms;
  }
  std::printf("#   %-36s %10.4f ms\n", "sum of layers on the path", sum);
  std::printf("#   %-36s %10.4f ms\n", "unattributed remainder",
              e2e_p50_ms - sum);
}

}  // namespace perfbench
