// perfbench: the repository benchmark. Brings the serving stack up inside
// this process from the on-disk fixture, drives it over loopback with one
// workload, checks the answers, and prints the end-to-end metrics
// (--trace 0) or the per-layer metrics of a traced replay (--trace 1). The
// last stdout line is one JSON object; human-readable lines start with '#'.
//
//   perfbench --build-fixture DIR
//   perfbench --fixture DIR --scratch DIR --workload NAME --seed N
//             --seconds S --trace 0|1
//
// perfbench/run.py builds this program and its fixture and is the entry
// point to use.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <tuple>
#include <unordered_map>
#include <vector>

#include "checks.h"
#include "common/timing.h"
#include "deploy.h"
#include "fixture.h"
#include "net/client.h"
#include "replay.h"
#include "stats.h"
#include "streams.h"
#include "update/wal.h"
#include "workloads.h"

namespace perfbench {
namespace {

namespace kg = emblookup::kg;
namespace net = emblookup::net;
namespace update = emblookup::update;
using emblookup::Result;
using emblookup::Status;
using emblookup::Stopwatch;

/// Back-to-back cold starts per run; setup_s is their median.
constexpr int kColdStarts = 15;
/// Timed passes per run, each over the same streams on a fresh deployment.
/// Throughput and latency are the best of the passes' figures: host steal
/// only ever slows a pass, and on a shared host it comes in bursts, so the
/// best pass is the one closest to the program's own speed.
constexpr int kPasses = 9;
/// Answers compared against an in-process lookup after the timed phase.
constexpr size_t kCheckSample = 256;
constexpr size_t kRoutedCheckSample = 48;
/// Read mentions whose settled top-k gives catalog_writes' hit@k.
constexpr size_t kSettledHitSample = 2048;
/// catalog_writes sets its compaction trigger to adds / this, so every
/// run crosses it exactly twice with half a trigger of slack at the end.
constexpr double kTriggerDivisor = 2.5;

struct Flags {
  std::string build_fixture;
  std::string fixture;
  std::string scratch;
  std::string workload;
  uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
};

bool ParseFlags(int argc, char** argv, Flags* f) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--build-fixture") {
      f->build_fixture = value;
    } else if (key == "--fixture") {
      f->fixture = value;
    } else if (key == "--scratch") {
      f->scratch = value;
    } else if (key == "--workload") {
      f->workload = value;
    } else if (key == "--seed") {
      f->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      f->seconds = std::atoi(value.c_str());
    } else if (key == "--trace") {
      f->trace = value == "1";
    } else {
      return false;
    }
  }
  return argc % 2 == 1;
}

/// Phase markers on stderr, so a slow or stuck run shows where it is.
void Progress(const char* phase) {
  static const Stopwatch since_start;
  std::fprintf(stderr, "perfbench: %7.2f s  %s\n", since_start.ElapsedSeconds(),
               phase);
}

/// Failed output checks; any entry fails the run.
struct Checks {
  std::vector<std::string> failures;
  void Fail(const std::string& what) {
    std::printf("# CHECK FAILED: %s\n", what.c_str());
    failures.push_back(what);
  }
};

struct ColdStart {
  double setup_s = 0.0;
  LoadTimes load;
};

/// One cold start, timed until the first lookup answers over loopback.
Result<std::unique_ptr<Deployment>> StartCold(const DeployOptions& options,
                                              const std::string& first_query,
                                              ColdStart* out) {
  if (!options.wal_path.empty()) std::remove(options.wal_path.c_str());
  Stopwatch watch;
  EL_ASSIGN_OR_RETURN(std::unique_ptr<Deployment> d,
                      Deployment::Start(options, &out->load));
  net::RemoteClient client;
  EL_RETURN_NOT_OK(client.Connect("127.0.0.1", d->port()));
  EL_ASSIGN_OR_RETURN(const net::RemoteLookupResult first,
                      client.Lookup(first_query, kTopK));
  out->setup_s = watch.ElapsedSeconds();
  if (first.ids.empty()) return Status::Internal("first lookup answered none");
  return d;
}

struct PassResult {
  DriveResult drive;
  double steal_share = 0.0;  ///< Host steal during the timed ops.
  double load_avg = 0.0;
  double cpu_s = 0.0;  ///< CPU time the process used during the timed ops.
};

/// Warm-up (closed loop, untimed) then the timed ops over fresh loopback
/// connections.
Result<PassResult> RunPass(Deployment* d, const WorkloadStreams& streams,
                           Workload workload, bool trace,
                           CounterBaseline* baseline = nullptr) {
  std::vector<std::unique_ptr<Transport>> owned;
  std::vector<Transport*> transports;
  for (int c = 0; c < kConnections; ++c) {
    EL_ASSIGN_OR_RETURN(auto t, ConnectRemote(d->port()));
    transports.push_back(t.get());
    owned.push_back(std::move(t));
  }
  const DriveResult warm = Drive(WarmupOps(streams.warmup), transports, {});
  for (const ConnResult& c : warm.conns) {
    if (c.broken) return Status::Unavailable("warm-up connection broke");
  }
  if (baseline != nullptr) *baseline = CounterBaseline::Read(*d);
  DriveOptions options;
  options.open_loop = workload == Workload::kInteractive;
  options.trace = trace;
  options.server = d->servers[0].get();
  PassResult pass;
  const CpuTimes before = ReadCpuTimes();
  const double cpu_before = ProcessCpuSeconds();
  pass.drive = workload == Workload::kRouted
                   ? DriveLanes(streams.conns, d->port(), trace)
                   : Drive(streams.conns, transports, options);
  pass.cpu_s = ProcessCpuSeconds() - cpu_before;
  pass.steal_share = StealShare(before, ReadCpuTimes());
  pass.load_avg = LoadAverage1m();
  return pass;
}

/// Counts and samples of one pass.
struct Summary {
  int64_t lookups = 0, lookups_ok = 0, mutations = 0, mutations_ok = 0;
  int64_t shed = 0, late = 0, sends = 0;
  int64_t judged = 0, hit1 = 0, hit10 = 0;
  /// Latency (ms) of every acknowledged lookup and mutation.
  std::vector<double> lat, mut_lat;
  PhaseStats reads, writes;
  bool broken = false;
};

Summary Summarize(const WorkloadStreams& streams, const DriveResult& r) {
  Summary s;
  for (size_t c = 0; c < r.conns.size(); ++c) {
    const ConnResult& conn = r.conns[c];
    s.late += conn.late_sends;
    s.sends += conn.sends;
    s.broken = s.broken || conn.broken;
    for (size_t j = 0; j < conn.ops.size(); ++j) {
      const Op& op = streams.conns[c][j];
      const OpResult& res = conn.ops[j];
      if (op.kind != OpKind::kLookup) {
        ++s.mutations;
        if (res.ok) {
          ++s.mutations_ok;
          s.mut_lat.push_back(res.latency_us / 1e3);
        }
        continue;
      }
      ++s.lookups;
      s.shed += res.shed ? 1 : 0;
      if (!res.ok) continue;
      ++s.lookups_ok;
      s.lat.push_back(res.latency_us / 1e3);
      ++s.judged;
      if (!res.ids.empty() && res.ids[0] == op.mention.truth) ++s.hit1;
      for (const int64_t id : res.ids) {
        if (id == op.mention.truth) {
          ++s.hit10;
          break;
        }
      }
    }
  }
  s.reads = WholePhase(s.lat, r.wall_s);
  s.writes = WholePhase(s.mut_lat, r.wall_s);
  return s;
}

/// Totals and pooled samples over the passes; each rate is the highest and
/// each percentile the lowest of the passes' figures (kPasses), and hit@k
/// is the last pass's.
Summary Combine(const std::vector<Summary>& passes) {
  Summary out;
  std::vector<double> qps, p50, p90, mps, mp50, mp90;
  for (const Summary& s : passes) {
    out.lookups += s.lookups;
    out.lookups_ok += s.lookups_ok;
    out.mutations += s.mutations;
    out.mutations_ok += s.mutations_ok;
    out.shed += s.shed;
    out.late += s.late;
    out.sends += s.sends;
    out.broken = out.broken || s.broken;
    out.lat.insert(out.lat.end(), s.lat.begin(), s.lat.end());
    out.mut_lat.insert(out.mut_lat.end(), s.mut_lat.begin(), s.mut_lat.end());
    qps.push_back(s.reads.per_second);
    p50.push_back(s.reads.p50);
    p90.push_back(s.reads.p90);
    mps.push_back(s.writes.per_second);
    mp50.push_back(s.writes.p50);
    mp90.push_back(s.writes.p90);
  }
  auto best = [](const std::vector<double>& v, bool higher) {
    return higher ? *std::max_element(v.begin(), v.end())
                  : *std::min_element(v.begin(), v.end());
  };
  if (!passes.empty()) {
    out.reads = {best(qps, true), best(p50, false), best(p90, false)};
    out.writes = {best(mps, true), best(mp50, false), best(mp90, false)};
    out.judged = passes.back().judged;
    out.hit1 = passes.back().hit1;
    out.hit10 = passes.back().hit10;
  }
  return out;
}

/// One pass's figures and the host and process state while it ran.
void PrintPass(int pass, const Summary& s, const PassResult& r) {
  const int64_t ops = s.lookups + s.mutations;
  std::printf("# pass %d: %.2f lookups/s, p50 %.4f p90 %.4f ms over %.3f s; "
              "host steal %.4f, load average %.2f; process CPU %.2f cores "
              "busy, %.2f us per op\n",
              pass + 1, s.reads.per_second, s.reads.p50, s.reads.p90,
              r.drive.wall_s, r.steal_share, r.load_avg,
              r.drive.wall_s <= 0.0 ? 0.0 : r.cpu_s / r.drive.wall_s,
              ops == 0 ? 0.0 : r.cpu_s * 1e6 / static_cast<double>(ops));
  if (s.mutations > 0) {
    std::printf("#   %.2f mutations/s, mutation p50 %.4f p90 %.4f ms\n",
                s.writes.per_second, s.writes.p50, s.writes.p90);
  }
}

/// A write pass's acknowledged mutations per connection, and the removals
/// among them with their ack times.
struct AckedMutations {
  std::vector<std::vector<update::Mutation>> per_conn;
  std::unordered_map<int64_t, int64_t> removed;
};

AckedMutations CollectAcked(const DriveResult& run) {
  AckedMutations out;
  for (const ConnResult& c : run.conns) {
    out.per_conn.push_back(c.acked);
    out.removed.insert(c.removed_ack_ns.begin(), c.removed_ack_ns.end());
  }
  return out;
}

/// No answer sent after a removal was acknowledged may hold that entity.
void CheckRemovals(const DriveResult& run, Checks* checks) {
  std::vector<SentAnswer> answers;
  for (const ConnResult& c : run.conns) {
    for (const OpResult& r : c.ops) {
      if (!r.ids.empty()) answers.push_back({r.sent_ns, r.ids});
    }
  }
  const int64_t violations =
      CountRemovedInAnswers(answers, CollectAcked(run).removed);
  if (violations > 0) {
    checks->Fail(std::to_string(violations) +
                 " answers hold an entity after its removal was acked");
  }
}

/// A diagnostic line with the tail of a latency sample.
void PrintLatencyTail(const char* what, const std::vector<double>& lat) {
  std::printf("# %s latency ms: p50 %.3f p75 %.3f p90 %.3f p95 %.3f "
              "p99 %.3f over %zu ops\n",
              what, Percentile(lat, 0.5), Percentile(lat, 0.75),
              Percentile(lat, 0.9), Percentile(lat, 0.95),
              Percentile(lat, 0.99), lat.size());
}

std::vector<Mention> TimedLookups(const WorkloadStreams& streams,
                                  size_t limit) {
  std::vector<Mention> out;
  for (size_t j = 0; out.size() < limit; ++j) {
    bool any = false;
    for (const auto& ops : streams.conns) {
      if (j >= ops.size()) continue;
      any = true;
      if (ops[j].kind == OpKind::kLookup && out.size() < limit) {
        out.push_back(ops[j].mention);
      }
    }
    if (!any) break;
  }
  return out;
}

std::vector<Answer> InProcessAnswers(const emblookup::core::EmbLookup& el,
                                     const std::vector<Mention>& sample) {
  std::vector<std::string> queries;
  for (const Mention& m : sample) queries.push_back(m.text);
  std::vector<Answer> answers;
  for (const auto& hits : el.BulkLookup(queries, kTopK)) {
    Answer a;
    for (const auto& h : hits) {
      a.ids.push_back(h.entity);
      a.dists.push_back(h.dist);
    }
    answers.push_back(std::move(a));
  }
  return answers;
}

Result<std::vector<Answer>> ScoredAnswers(int port,
                                          const std::vector<Mention>& sample,
                                          Checks* checks) {
  net::RemoteClient client;
  EL_RETURN_NOT_OK(client.Connect("127.0.0.1", port));
  std::vector<Answer> answers;
  for (const Mention& m : sample) {
    EL_ASSIGN_OR_RETURN(net::RemoteLookupResult r,
                        client.LookupScored(m.text, kTopK));
    if (r.partial) checks->Fail("routed answer was partial");
    answers.push_back({std::move(r.ids), std::move(r.dists)});
  }
  return answers;
}

/// Remote answers (or routed answers) must equal the in-process answers of
/// `reference`, ids and distances.
void CheckAnswers(int port, const emblookup::core::EmbLookup& reference,
                  const std::vector<Mention>& sample, const char* what,
                  Checks* checks) {
  auto remote = ScoredAnswers(port, sample, checks);
  if (!remote.ok()) {
    checks->Fail(std::string(what) + ": " + remote.status().ToString());
    return;
  }
  const int64_t mismatches =
      CountMismatches(InProcessAnswers(reference, sample), remote.value());
  if (mismatches > 0) {
    checks->Fail(std::string(what) + ": " + std::to_string(mismatches) +
                 " of " + std::to_string(sample.size()) + " answers differ");
  }
}

/// Re-opens the run's WAL on a fresh catalog and snapshot: the replay must
/// hold exactly the acknowledged mutations.
void CheckWalReplay(const FixturePaths& fixture,
                    std::shared_ptr<emblookup::embed::FastTextModel> fasttext,
                    const std::string& wal_path,
                    const std::vector<std::vector<update::Mutation>>& acked,
                    Checks* checks) {
  const std::string diff = [&]() -> std::string {
    auto records = update::ReadWalFile(wal_path);
    if (!records.ok()) return records.status().ToString();
    return DiffWalReplay(acked, records.value().records);
  }();
  if (!diff.empty()) checks->Fail("WAL replay: " + diff);

  size_t total = 0;
  for (const auto& a : acked) total += a.size();
  auto graph = kg::KnowledgeGraph::LoadTsv(fixture.catalog());
  if (!graph.ok()) {
    checks->Fail("WAL replay: " + graph.status().ToString());
    return;
  }
  auto el = LoadLookup(graph.value(), std::move(fasttext), true, 0,
                       fixture.flat_snapshot());
  if (!el.ok()) {
    checks->Fail("WAL replay: " + el.status().ToString());
    return;
  }
  update::UpdaterOptions options;
  options.wal_path = wal_path;
  options.compact_delta_rows = 0;
  options.compact_masked_rows = 0;
  auto updater =
      update::IndexUpdater::Open(el.value().get(), &graph.value(), options);

  if (!updater.ok()) {
    checks->Fail("WAL replay: " + updater.status().ToString());
    return;
  }
  const update::UpdaterStats stats = updater.value()->stats();
  if (stats.replayed_mutations != total || stats.last_seq != total) {
    checks->Fail("WAL replay: Open replayed " +
                 std::to_string(stats.replayed_mutations) + " (last seq " +
                 std::to_string(stats.last_seq) + "), " +
                 std::to_string(total) + " were acknowledged");
  }
}

/// Waits out a background compaction the run's last mutations started.
void SettleCompaction(Deployment* d) {
  std::this_thread::sleep_for(std::chrono::milliseconds(150));
  (void)d->updater->stats();  // Blocks while a compaction holds the lock.
}

/// catalog_writes' hit@k: the timed read mentions whose entity still
/// exists, looked up once the writes have settled. Deterministic per seed,
/// unlike live reads racing the mutations.
void SettledHits(const Deployment& d, const WorkloadStreams& streams,
                 const std::unordered_map<int64_t, int64_t>& removed,
                 Summary* s) {
  std::vector<Mention> sample;
  for (const Mention& m : TimedLookups(streams, 4 * kSettledHitSample)) {
    if (removed.count(m.truth) == 0) sample.push_back(m);
    if (sample.size() == kSettledHitSample) break;
  }
  std::vector<std::string> queries;
  for (const Mention& m : sample) queries.push_back(m.text);
  const auto answers = d.lookups[0]->BulkLookup(queries, kTopK, true);
  s->judged = static_cast<int64_t>(sample.size());
  s->hit1 = s->hit10 = 0;
  for (size_t i = 0; i < sample.size(); ++i) {
    for (size_t k = 0; k < answers[i].size(); ++k) {
      if (answers[i][k].entity != sample[i].truth) continue;
      s->hit1 += k == 0 ? 1 : 0;
      ++s->hit10;
      break;
    }
  }
}

void WriteSpans(const std::string& path, const std::vector<Span>& spans) {
  std::ofstream out(path);
  for (const Span& s : spans) {
    out << "{\"request_id\":" << s.request_id << ",\"name\":\"" << s.name
        << "\",\"start_ns\":" << s.start_ns << ",\"end_ns\":" << s.end_ns
        << "}\n";
  }
}

std::string Num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

int Run(const Flags& flags) {
  Workload workload;
  if (!ParseWorkload(flags.workload, &workload) || flags.fixture.empty() ||
      flags.scratch.empty() || flags.seconds < 1) {
    std::fprintf(stderr, "perfbench: bad arguments\n");
    return 2;
  }
  FixturePaths fixture;
  fixture.dir = flags.fixture;
  Checks checks;
  Progress("start");

  // Streams come from the catalog alone; the program sees only them.
  auto catalog = kg::KnowledgeGraph::LoadTsv(fixture.catalog());
  if (!catalog.ok()) {
    std::fprintf(stderr, "perfbench: %s\n", catalog.status().ToString().c_str());
    return 1;
  }
  const WorkloadStreams streams = MakeStreams(
      catalog.value(), workload, flags.seed,
      static_cast<double>(flags.seconds) / kPasses);
  const std::string first_query = catalog.value().entity(0).label;
  std::printf("# workload %s seed %llu, %d passes of %lld lookups, "
              "%lld mutations and %zu warm-up each, stream digest %016llx\n",
              WorkloadName(workload),
              static_cast<unsigned long long>(flags.seed), kPasses,
              static_cast<long long>(streams.NumLookups()),
              static_cast<long long>(streams.NumMutations()),
              streams.warmup.size(),
              static_cast<unsigned long long>(StreamDigest(streams)));
  for (const auto& ops : streams.conns) {
    if (TargetsRemovedEntity(ops)) checks.Fail("script targets a removed entity");
  }
  {
    std::ifstream log(fixture.build_log());
    std::string key;
    double value;
    while (log >> key >> value) {
      std::printf("# fixture %s %.1f (built once per build, not timed)\n",
                  key.c_str(), value);
    }
  }

  DeployOptions deploy;
  deploy.fixture = fixture;
  switch (workload) {
    case Workload::kAnnotate:
    case Workload::kInteractive:
      deploy.kind = DeployKind::kPq;
      break;
    case Workload::kCatalogWrites:
      deploy.kind = DeployKind::kFlatWrites;
      deploy.wal_path = flags.scratch + "/catalog.wal";
      deploy.compact_delta_rows = static_cast<int64_t>(
          static_cast<double>(streams.NumAdds()) / kTriggerDivisor);
      break;
    case Workload::kRouted:
      deploy.kind = DeployKind::kShards;
      break;
  }

  // Set-up: several back-to-back cold starts, each torn down before the
  // next; the last one serves the run.
  std::vector<double> setups;
  std::vector<LoadTimes> loads;
  std::unique_ptr<Deployment> d;
  for (int i = 0; i < kColdStarts; ++i) {
    if (d != nullptr) d->Stop();
    d.reset();
    ColdStart cold;
    auto started = StartCold(deploy, first_query, &cold);
    if (!started.ok()) {
      std::fprintf(stderr, "perfbench: cold start failed: %s\n",
                   started.status().ToString().c_str());
      return 1;
    }
    d = std::move(started).value();
    setups.push_back(cold.setup_s);
    loads.push_back(cold.load);
  }
  const double setup_s = Median(setups);
  std::printf("# cold starts (s):");
  for (const double t : setups) std::printf(" %.4f", t);
  std::printf("\n");

  const bool writes = workload == Workload::kCatalogWrites;
  // The timed passes. Each runs on a fresh deployment (the first on the
  // last cold start), so every pass starts from the same state and sends
  // the same streams; each pass's figures cover all of its ops, its
  // compactions included.
  std::vector<Summary> passes;
  std::vector<PassResult> pass_results;
  double peak_rss_mb = 0.0;
  DriveResult last_drive;
  for (int p = 0; p < kPasses; ++p) {
    if (p > 0) {
      d->Stop();
      d.reset();
      ColdStart cold;
      auto started = StartCold(deploy, first_query, &cold);
      if (!started.ok()) {
        std::fprintf(stderr, "perfbench: %s\n",
                     started.status().ToString().c_str());
        return 1;
      }
      d = std::move(started).value();
    }
    Progress("timed pass");
    auto pass = RunPass(d.get(), streams, workload, /*trace=*/false);
    if (!pass.ok()) {
      std::fprintf(stderr, "perfbench: %s\n", pass.status().ToString().c_str());
      return 1;
    }
    Summary s = Summarize(streams, pass.value().drive);
    PrintPass(p, s, pass.value());
    if (writes) {
      SettleCompaction(d.get());
      CheckRemovals(pass.value().drive, &checks);
      const uint64_t compactions = d->updater->stats().compactions;
      std::printf("#   compaction trigger %lld delta rows, crossed %llu times\n",
                  static_cast<long long>(deploy.compact_delta_rows),
                  static_cast<unsigned long long>(compactions));
      if (compactions < 1) checks.Fail("no compaction ran");
    } else if (p > 0 && (s.hit1 != passes[0].hit1 ||
                         s.hit10 != passes[0].hit10)) {
      checks.Fail("hit@k differs between passes over the same stream");
    }
    passes.push_back(std::move(s));
    pass_results.push_back(std::move(pass).value());
    // The workload's own peak: one deployment and one pass, before later
    // passes, the traced deployment and the reference lookup exist.
    if (p == 0) peak_rss_mb = PeakRssMb();
    last_drive = std::move(pass_results.back().drive);
  }
  Summary sum = Combine(passes);
  const double p50 = sum.reads.p50;
  PrintLatencyTail("lookup (all passes)", sum.lat);
  if (writes) {
    PrintLatencyTail("mutation (all passes)", sum.mut_lat);
    std::printf("# %lld durable mutations acknowledged, best pass %.3f "
                "per second\n",
                static_cast<long long>(sum.mutations_ok),
                sum.writes.per_second);
  }
  std::vector<double> steal;
  for (const PassResult& r : pass_results) steal.push_back(r.steal_share);
  std::printf("# host: steal %.4f of CPU time in the least stolen pass, "
              "%.4f in the median one, %.4f in the most stolen\n",
              *std::min_element(steal.begin(), steal.end()), Median(steal),
              *std::max_element(steal.begin(), steal.end()));
  if (workload == Workload::kInteractive) {
    std::printf("# open loop: %lld of %lld sends more than 1 ms late "
                "(bench.late_send_ratio %.5f)\n",
                static_cast<long long>(sum.late),
                static_cast<long long>(sum.sends),
                sum.sends == 0 ? 0.0
                               : static_cast<double>(sum.late) / sum.sends);
  }

  // annotate's stream also goes through four flat shards behind the
  // cluster router, beside the workload's deployment: the routed answers
  // are checked against the single-node flat snapshot, and the traced run
  // measures the cluster layer on it.
  std::unique_ptr<Deployment> shards;
  if (workload == Workload::kAnnotate) {
    DeployOptions cluster;
    cluster.kind = DeployKind::kShards;
    cluster.fixture = fixture;
    LoadTimes unused;
    auto started = Deployment::Start(cluster, &unused);
    if (!started.ok()) {
      std::fprintf(stderr, "perfbench: %s\n",
                   started.status().ToString().c_str());
      return 1;
    }
    shards = std::move(started).value();
  }

  // The traced run: a second deployment, the same pass with spans on,
  // then the layer-by-layer replay.
  LayerMetrics layers;
  DriveResult traced_drive;
  std::unique_ptr<Deployment> traced;
  const DriveResult* run = &last_drive;
  Summary run_sum = passes.back();
  if (flags.trace) {
    d->Stop();
    ColdStart cold;
    auto started = StartCold(deploy, first_query, &cold);
    if (!started.ok()) {
      std::fprintf(stderr, "perfbench: %s\n",
                   started.status().ToString().c_str());
      return 1;
    }
    traced = std::move(started).value();
    Progress("traced pass");
    CounterBaseline baseline;
    auto traced_pass =
        RunPass(traced.get(), streams, workload, /*trace=*/true, &baseline);
    if (!traced_pass.ok()) {
      std::fprintf(stderr, "perfbench: %s\n",
                   traced_pass.status().ToString().c_str());
      return 1;
    }
    traced_drive = std::move(traced_pass.value().drive);
    run = &traced_drive;
    run_sum = Summarize(streams, traced_drive);
    if (writes) {
      // Durable mutation latency under the workload's reads.
      layers.emplace_back("update.mutation_ms_p50", run_sum.writes.p50);
      SettleCompaction(traced.get());
      CheckRemovals(traced_drive, &checks);
    }
    ReplayInputs in;
    in.workload = workload;
    in.fixture = &fixture;
    in.scratch_dir = flags.scratch;
    in.deployment = traced.get();
    in.streams = &streams;
    in.baseline = baseline;
    in.untraced_p50_ms = p50;
    in.traced_p50_ms = run_sum.reads.p50;
    in.traced_lookups = run_sum.lookups;
    in.late_sends = run_sum.late;
    in.sends = run_sum.sends;
    in.cold_loads = loads;
    in.cluster = shards.get();
    Progress("layer replay");
    ReplayLayers(in, &layers);
    const std::string span_path =
        flags.scratch + "/spans-" + WorkloadName(workload) + ".jsonl";
    const std::vector<Span> spans = traced_drive.Spans();
    WriteSpans(span_path, spans);
    std::printf("# %zu spans written to %s\n", spans.size(), span_path.c_str());
  }
  Deployment* live = flags.trace ? traced.get() : d.get();

  Progress("output checks");
  // Output checks on the live deployment.
  if (sum.broken || run_sum.broken) {
    checks.Fail("a client connection broke mid-run");
  }
  Deployment* cluster = workload == Workload::kRouted ? live : shards.get();
  if (cluster != nullptr) {
    auto reference = LoadLookup(*cluster->graph, cluster->fasttext, true, 0,
                                fixture.flat_snapshot());
    if (!reference.ok()) {
      checks.Fail("routed check: " + reference.status().ToString());
    } else {
      CheckAnswers(cluster->port(), *reference.value(),
                   TimedLookups(streams, kRoutedCheckSample),
                   "routed vs single-node flat", &checks);
    }
  }
  if (workload != Workload::kRouted) {
    CheckAnswers(live->port(), *live->lookups[0],
                 TimedLookups(streams, kCheckSample),
                 "remote vs in-process", &checks);
  }

  if (writes) {
    Progress("write checks");
    const AckedMutations acked = CollectAcked(*run);
    // The end-to-end hit@k of catalog_writes is the settled one.
    SettledHits(*live, streams, acked.removed, &sum);
    if (flags.trace) {
      std::vector<update::Mutation> all;
      for (const auto& a : acked.per_conn) {
        all.insert(all.end(), a.begin(), a.end());
      }
      UpdateLayer(live->updater.get(), all, flags.scratch, &layers);
    }
    const auto fasttext = live->fasttext;
    live->Stop();  // Closes the WAL.
    CheckWalReplay(fixture, fasttext, deploy.wal_path, acked.per_conn,
                   &checks);
    std::remove(deploy.wal_path.c_str());
  }
  if (shards != nullptr) shards->Stop();
  if (traced != nullptr) traced->Stop();
  if (d != nullptr) d->Stop();
  Progress("done");

  const int64_t attempted = sum.lookups + sum.mutations;
  const int64_t failed =
      (sum.lookups - sum.lookups_ok) + (sum.mutations - sum.mutations_ok);
  const double error_ratio =
      attempted == 0 ? 0.0 : static_cast<double>(failed) / attempted;
  std::printf("# error_ratio %.6f (%lld of %lld lookups and mutations "
              "failed, were shed or expired; %lld shed)\n",
              error_ratio, static_cast<long long>(failed),
              static_cast<long long>(attempted),
              static_cast<long long>(sum.shed));

  std::vector<std::tuple<std::string, double, std::string>> metrics;
  if (flags.trace) {
    for (const auto& [name, unit] : LayerMetricDefs()) {
      double value = 0.0;
      for (const auto& [n, v] : layers) {
        if (n == name) value = v;
      }
      metrics.emplace_back(name, value, unit);
    }
    PrintAttribution(workload, p50, layers);
  } else {
    const double judged = static_cast<double>(std::max<int64_t>(1, sum.judged));
    metrics = {
        {"setup_s", setup_s, "s"},
        {"throughput_qps", sum.reads.per_second, "1/s"},
        {"latency_p50_ms", sum.reads.p50, "ms"},
        {"latency_p90_ms", sum.reads.p90, "ms"},
        {"hit_at_1", static_cast<double>(sum.hit1) / judged, "ratio"},
        {"hit_at_10", static_cast<double>(sum.hit10) / judged, "ratio"},
        {"peak_rss_mb", peak_rss_mb, "MB"},
    };
  }
  for (const auto& [name, value, unit] : metrics) {
    std::printf("# %-34s %16.6f %s\n", name.c_str(), value, unit.c_str());
  }
  const bool correct = checks.failures.empty();
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(std::max<int64_t>(1, attempted));
  json += ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    const auto& [name, value, unit] = metrics[i];
    if (i > 0) json += ", ";
    json += "\"" + name + "\": {\"value\": " + Num(value) + ", \"unit\": \"" +
            unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  std::setvbuf(stdout, nullptr, _IOLBF, 0);
  perfbench::Flags flags;
  if (!perfbench::ParseFlags(argc, argv, &flags)) {
    std::fprintf(stderr,
                 "usage: perfbench --build-fixture DIR\n"
                 "       perfbench --fixture DIR --scratch DIR --workload W "
                 "--seed N --seconds S --trace 0|1\n");
    return 2;
  }
  if (!flags.build_fixture.empty()) {
    perfbench::FixturePaths paths;
    paths.dir = flags.build_fixture;
    const emblookup::Status built = perfbench::BuildFixture(paths);
    if (!built.ok()) {
      std::fprintf(stderr, "perfbench: fixture: %s\n",
                   built.ToString().c_str());
      return 1;
    }
    return 0;
  }
  return perfbench::Run(flags);
}
