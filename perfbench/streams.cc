#include "streams.h"

#include <algorithm>
#include <cmath>
#include <unordered_set>

#include "common/rng.h"
#include "kg/name_factory.h"
#include "kg/tabular.h"

namespace perfbench {

namespace kg = emblookup::kg;
using emblookup::Rng;

namespace {

// Fixed op budgets per second of timed work. They size the work; they are
// constants, never measured rates.
constexpr int64_t kAnnotateCellsPerSecond = 8000;
/// annotate's warm-up: half a second of cells, so the server's threads
/// and allocator are past their start-up transient when timing starts.
/// The query cache fills during the timed stream the same way in every
/// pass, since every pass starts a fresh deployment.
constexpr int64_t kAnnotateWarmupCells = kAnnotateCellsPerSecond / 2;
constexpr int64_t kCatalogOpsPerSecond = 700;
constexpr int64_t kRoutedCellsPerSecond = 250;
constexpr int64_t kInteractiveWarmup = 20000;
constexpr int64_t kCatalogWarmup = 1000;

/// Derives independent generator seeds from the run seed.
uint64_t Mix(uint64_t seed, uint64_t stream) {
  uint64_t x = seed * 0x9e3779b97f4a7c15ull + stream;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

/// ST-Wikidata-shaped tables with alias and typo cells (the paper's CEA
/// task in its noisy-mention setting), flattened to their entity cells.
/// Returns whole tables until at least `cells` cells are collected.
std::vector<std::vector<Mention>> MakeTables(const kg::KnowledgeGraph& graph,
                                             Rng* rng, int64_t cells) {
  kg::DatasetProfile profile = kg::DatasetProfile::StWikidataLike();
  profile.alias_cell_rate = 0.25;
  profile.typo_cell_rate = 0.25;
  std::vector<std::vector<Mention>> tables;
  int64_t collected = 0;
  while (collected < cells) {
    profile.num_tables = std::max<int64_t>(16, (cells - collected) / 16);
    const kg::TabularDataset dataset =
        kg::GenerateDataset(graph, profile, rng);
    for (const kg::Table& table : dataset.tables) {
      std::vector<Mention> mentions;
      for (const auto& row : table.rows) {
        for (const kg::Cell& cell : row) {
          if (cell.gt_entity == kg::kInvalidEntity) continue;
          mentions.push_back({cell.text, cell.gt_entity});
        }
      }
      if (mentions.empty()) continue;
      collected += static_cast<int64_t>(mentions.size());
      tables.push_back(std::move(mentions));
      if (collected >= cells) break;
    }
  }
  return tables;
}

/// The stream `remote-bench` sends: a Zipf(1.1) entity's label, or one of
/// its aliases 30 % of the time.
Mention ZipfMention(const kg::KnowledgeGraph& graph, Rng* rng) {
  const uint64_t n = static_cast<uint64_t>(graph.num_entities());
  const kg::EntityId id = static_cast<kg::EntityId>(rng->Zipf(n, 1.1));
  const kg::Entity& entity = graph.entity(id);
  const bool alias = !entity.aliases.empty() && rng->Bernoulli(0.3);
  return {alias ? rng->Choice(entity.aliases) : entity.label, id};
}

/// Closed-loop table streams: warm-up tables first, then the timed tables
/// dealt round-robin to `lists` op lists (connections or lanes).
WorkloadStreams TableStreams(const kg::KnowledgeGraph& graph, uint64_t seed,
                             int64_t warmup_cells, int64_t timed_cells,
                             int lists) {
  Rng rng(Mix(seed, 1));
  WorkloadStreams streams;
  for (auto& table : MakeTables(graph, &rng, warmup_cells)) {
    for (Mention& m : table) streams.warmup.push_back(std::move(m));
  }
  streams.conns.resize(static_cast<size_t>(lists));
  const auto tables = MakeTables(graph, &rng, timed_cells);
  for (size_t t = 0; t < tables.size(); ++t) {
    std::vector<Op>& ops = streams.conns[t % static_cast<size_t>(lists)];
    for (const Mention& m : tables[t]) {
      Op op;
      op.mention = m;
      op.table = static_cast<int64_t>(t);
      ops.push_back(std::move(op));
    }
  }
  return streams;
}

}  // namespace

const char* WorkloadName(Workload workload) {
  switch (workload) {
    case Workload::kAnnotate:
      return "annotate";
    case Workload::kInteractive:
      return "interactive";
    case Workload::kCatalogWrites:
      return "catalog_writes";
    case Workload::kRouted:
      return "routed";
  }
  return "?";
}

bool ParseWorkload(const std::string& name, Workload* workload) {
  for (Workload w : {Workload::kAnnotate, Workload::kInteractive,
                     Workload::kCatalogWrites, Workload::kRouted}) {
    if (name == WorkloadName(w)) {
      *workload = w;
      return true;
    }
  }
  return false;
}

int64_t WorkloadStreams::NumLookups() const {
  int64_t n = 0;
  for (const auto& ops : conns) {
    for (const Op& op : ops) n += op.kind == OpKind::kLookup ? 1 : 0;
  }
  return n;
}

int64_t WorkloadStreams::NumMutations() const {
  int64_t n = 0;
  for (const auto& ops : conns) {
    for (const Op& op : ops) n += op.kind == OpKind::kLookup ? 0 : 1;
  }
  return n;
}

int64_t WorkloadStreams::NumAdds() const {
  int64_t n = 0;
  for (const auto& ops : conns) {
    for (const Op& op : ops) n += op.kind == OpKind::kAdd ? 1 : 0;
  }
  return n;
}

WorkloadStreams MakeStreams(const kg::KnowledgeGraph& graph,
                            Workload workload, uint64_t seed, double seconds) {
  auto budget = [seconds](int64_t per_second) {
    return static_cast<int64_t>(static_cast<double>(per_second) * seconds);
  };
  switch (workload) {
    case Workload::kAnnotate:
      // Why: the paper's main user, a table-annotation pipeline. Mentions
      // are mostly unique, so encode and the PQ scan do most of the work,
      // and 2 x 16 in flight fills the server's 32-request batches.
      return TableStreams(graph, seed, kAnnotateWarmupCells,
                          budget(kAnnotateCellsPerSecond), kConnections);

    case Workload::kRouted:
      // Why: annotate's stream through the cluster router over four flat
      // shards, the only path through `cluster` (and where encode-once
      // routing would show). The router answers one request at a time per
      // connection, so the tables go to kRoutedLanes connections with one
      // lookup in flight each, enough to keep the shards busy.
      return TableStreams(graph, seed, kRoutedCellsPerSecond / 2,
                          budget(kRoutedCellsPerSecond), kRoutedLanes);

    case Workload::kInteractive: {
      // Why: interactive callers repeat keys, so the query cache answers
      // almost everything; `serve` queueing, the batch window and `net`
      // dominate, and an encode or scan change should not show here.
      Rng rng(Mix(seed, 2));
      WorkloadStreams streams;
      for (int64_t i = 0; i < kInteractiveWarmup; ++i) {
        streams.warmup.push_back(ZipfMention(graph, &rng));
      }
      streams.conns.resize(kConnections);
      const int64_t total = budget(static_cast<int64_t>(kInteractiveRate));
      const double conn_rate = kInteractiveRate / kConnections;
      for (int c = 0; c < kConnections; ++c) {
        Rng arrivals(Mix(seed, 100 + c));
        double t_ns = 0.0;
        for (int64_t i = c; i < total; i += kConnections) {
          t_ns += -std::log(1.0 - arrivals.UniformDouble()) / conn_rate * 1e9;
          Op op;
          op.mention = ZipfMention(graph, &rng);
          op.send_at_ns = static_cast<int64_t>(t_ns);
          streams.conns[c].push_back(std::move(op));
        }
      }
      return streams;
    }

    case Workload::kCatalogWrites: {
      // Why: interactive's reads with durable writes at fixed positions.
      // Every mutation bumps the serving epoch and voids the query cache,
      // so `update`, the encoder cache, delta search and compaction carry
      // the cost; a read gain that costs writes shows up here.
      Rng rng(Mix(seed, 3));
      WorkloadStreams streams;
      for (int64_t i = 0; i < kCatalogWarmup; ++i) {
        streams.warmup.push_back(ZipfMention(graph, &rng));
      }
      streams.conns.resize(kConnections);
      const int64_t per_conn = budget(kCatalogOpsPerSecond) / kConnections;
      for (int c = 0; c < kConnections; ++c) {
        std::vector<Op> script = MakeMutationScript(
            graph, seed, c, per_conn / kMutationEvery);
        size_t next_mutation = 0;
        for (int64_t i = 0; i < per_conn; ++i) {
          if (i % kMutationEvery == kMutationEvery - 1 &&
              next_mutation < script.size()) {
            streams.conns[c].push_back(std::move(script[next_mutation++]));
            continue;
          }
          Op op;
          op.mention = ZipfMention(graph, &rng);
          streams.conns[c].push_back(std::move(op));
        }
      }
      return streams;
    }
  }
  return {};
}

std::vector<Op> MakeMutationScript(const kg::KnowledgeGraph& graph,
                                   uint64_t seed, int conn, int64_t count) {
  Rng rng(Mix(seed, 200 + static_cast<uint64_t>(conn)));
  kg::NameFactory names(Mix(seed, 300 + static_cast<uint64_t>(conn)));
  const int64_t base = graph.num_entities();
  const int64_t slots = (base - conn + kConnections - 1) / kConnections;
  std::unordered_set<kg::EntityId> removed;
  auto pick_live = [&]() {
    for (;;) {
      const kg::EntityId id = static_cast<kg::EntityId>(
          rng.Uniform(static_cast<uint64_t>(slots)) * kConnections + conn);
      if (removed.count(id) == 0) return id;
    }
  };
  // Exact proportions per block of ten, in seeded order.
  static constexpr OpKind kBlock[10] = {
      OpKind::kAdd, OpKind::kAdd,           OpKind::kAdd,
      OpKind::kAdd, OpKind::kAdd,           OpKind::kAdd,
      OpKind::kUpdateAliases, OpKind::kUpdateAliases, OpKind::kUpdateAliases,
      OpKind::kRemove};
  std::vector<OpKind> order;
  std::vector<Op> script;
  script.reserve(static_cast<size_t>(count));
  for (int64_t i = 0; i < count; ++i) {
    if (order.empty()) {
      order.assign(std::begin(kBlock), std::end(kBlock));
      rng.Shuffle(&order);
    }
    Op op;
    op.kind = order.back();
    order.pop_back();
    switch (op.kind) {
      case OpKind::kAdd:
        op.label = kg::NameFactory::Capitalize(names.Word(2, 3)) + " " +
                   kg::NameFactory::Capitalize(names.Word(2, 4));
        op.qid = "QB" + std::to_string(conn) + "x" + std::to_string(i);
        op.aliases = {kg::NameFactory::Capitalize(names.Word(2, 3))};
        break;
      case OpKind::kUpdateAliases:
        op.target = pick_live();
        op.aliases = {kg::NameFactory::Capitalize(names.Word(2, 4))};
        break;
      case OpKind::kRemove:
        op.target = pick_live();
        removed.insert(op.target);
        break;
      case OpKind::kLookup:
        break;
    }
    script.push_back(std::move(op));
  }
  return script;
}

bool TargetsRemovedEntity(const std::vector<Op>& ops) {
  std::unordered_set<kg::EntityId> removed;
  for (const Op& op : ops) {
    if (op.kind != OpKind::kUpdateAliases && op.kind != OpKind::kRemove) {
      continue;
    }
    if (removed.count(op.target) > 0) return true;
    if (op.kind == OpKind::kRemove) removed.insert(op.target);
  }
  return false;
}

uint64_t StreamDigest(const WorkloadStreams& streams) {
  uint64_t h = 0xcbf29ce484222325ull;  // FNV-1a.
  auto mix_bytes = [&h](const void* data, size_t size) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (size_t i = 0; i < size; ++i) h = (h ^ p[i]) * 0x100000001b3ull;
  };
  auto mix_str = [&](const std::string& s) {
    mix_bytes(s.data(), s.size());
    mix_bytes("\0", 1);
  };
  for (const Mention& m : streams.warmup) {
    mix_str(m.text);
    mix_bytes(&m.truth, sizeof(m.truth));
  }
  for (const auto& ops : streams.conns) {
    mix_bytes("|", 1);
    for (const Op& op : ops) {
      mix_bytes(&op.kind, sizeof(op.kind));
      mix_str(op.mention.text);
      mix_bytes(&op.mention.truth, sizeof(op.mention.truth));
      mix_bytes(&op.table, sizeof(op.table));
      mix_bytes(&op.send_at_ns, sizeof(op.send_at_ns));
      mix_bytes(&op.target, sizeof(op.target));
      mix_str(op.label);
      mix_str(op.qid);
      for (const std::string& a : op.aliases) mix_str(a);
    }
  }
  return h;
}

}  // namespace perfbench
