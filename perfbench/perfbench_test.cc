// The benchmark's own tests: streams are deterministic per seed, the
// mutation script never targets a removed entity, and every output check
// fails on a deliberately corrupted answer. Plain asserts, no framework:
// run the binary; it exits non-zero on the first failure.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <set>
#include <string>
#include <vector>

#include "checks.h"
#include "kg/synthetic_kg.h"
#include "streams.h"

namespace perfbench {
namespace {

namespace kg = emblookup::kg;
namespace update = emblookup::update;

int failures = 0;

#define EXPECT(cond)                                                  \
  do {                                                                \
    if (!(cond)) {                                                    \
      std::fprintf(stderr, "%s:%d: expected %s\n", __FILE__, __LINE__, \
                   #cond);                                            \
      ++failures;                                                     \
    }                                                                 \
  } while (0)

const kg::KnowledgeGraph& Graph() {
  static const kg::KnowledgeGraph graph = [] {
    kg::SyntheticKgOptions options;
    options.num_entities = 2000;
    options.seed = 11;
    return kg::GenerateSyntheticKg(options);
  }();
  return graph;
}

constexpr Workload kAll[] = {Workload::kAnnotate, Workload::kInteractive,
                             Workload::kCatalogWrites, Workload::kRouted};

bool SameOps(const std::vector<Op>& a, const std::vector<Op>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    const Op& x = a[i];
    const Op& y = b[i];
    if (x.kind != y.kind || x.mention.text != y.mention.text ||
        x.mention.truth != y.mention.truth || x.table != y.table ||
        x.send_at_ns != y.send_at_ns || x.target != y.target ||
        x.label != y.label || x.qid != y.qid || x.aliases != y.aliases) {
      return false;
    }
  }
  return true;
}

void TestStreamsDeterministicPerSeed() {
  for (Workload w : kAll) {
    const WorkloadStreams a = MakeStreams(Graph(), w, 7, 1);
    const WorkloadStreams b = MakeStreams(Graph(), w, 7, 1);
    const WorkloadStreams c = MakeStreams(Graph(), w, 8, 1);
    EXPECT(a.NumLookups() > 0);
    EXPECT(!a.warmup.empty());
    EXPECT(a.conns.size() == static_cast<size_t>(
                                 w == Workload::kRouted ? kRoutedLanes
                                                        : kConnections));
    EXPECT(StreamDigest(a) == StreamDigest(b));
    EXPECT(StreamDigest(a) != StreamDigest(c));
    for (size_t i = 0; i < a.conns.size(); ++i) {
      EXPECT(SameOps(a.conns[i], b.conns[i]));
    }
    EXPECT(a.warmup.size() == b.warmup.size());
    for (size_t i = 0; i < a.warmup.size() && i < b.warmup.size(); ++i) {
      EXPECT(a.warmup[i].text == b.warmup[i].text);
    }
    // Fixed work: the counts depend on the arguments, not the seed.
    EXPECT(a.NumMutations() == c.NumMutations());
  }
}

void TestOpenLoopScheduleIsIncreasing() {
  const WorkloadStreams s = MakeStreams(Graph(), Workload::kInteractive, 3, 1);
  int64_t total = 0;
  for (const auto& ops : s.conns) {
    int64_t last = -1;
    for (const Op& op : ops) {
      EXPECT(op.send_at_ns > last);
      last = op.send_at_ns;
    }
    total += static_cast<int64_t>(ops.size());
  }
  EXPECT(total == static_cast<int64_t>(kInteractiveRate));
}

void TestWarmupTablesPrecedeTimedTables() {
  // Warm-up and timed tables are successive, distinct draws of one
  // generator: the timed stream's first table is not the warm-up's.
  const WorkloadStreams s = MakeStreams(Graph(), Workload::kAnnotate, 5, 1);
  std::vector<std::string> first_table;
  for (const Op& op : s.conns[0]) {
    if (op.table != s.conns[0][0].table) break;
    first_table.push_back(op.mention.text);
  }
  std::vector<std::string> warm_head;
  for (size_t i = 0; i < first_table.size() && i < s.warmup.size(); ++i) {
    warm_head.push_back(s.warmup[i].text);
  }
  EXPECT(first_table != warm_head);
}

void TestMutationScriptNeverTargetsRemoved() {
  for (uint64_t seed = 1; seed <= 40; ++seed) {
    std::set<int64_t> touched[kConnections];
    for (int c = 0; c < kConnections; ++c) {
      const std::vector<Op> script = MakeMutationScript(Graph(), seed, c, 400);
      EXPECT(!TargetsRemovedEntity(script));
      int kinds[4] = {0, 0, 0, 0};
      for (const Op& op : script) {
        ++kinds[static_cast<int>(op.kind)];
        if (op.kind == OpKind::kAdd) continue;
        EXPECT(op.target >= 0 && op.target < Graph().num_entities());
        EXPECT(op.target % kConnections == c);
        touched[c].insert(op.target);
      }
      EXPECT(kinds[static_cast<int>(OpKind::kAdd)] == 240);
      EXPECT(kinds[static_cast<int>(OpKind::kUpdateAliases)] == 120);
      EXPECT(kinds[static_cast<int>(OpKind::kRemove)] == 40);
    }
    for (int64_t id : touched[0]) EXPECT(touched[1].count(id) == 0);
  }
  const WorkloadStreams s =
      MakeStreams(Graph(), Workload::kCatalogWrites, 9, 2);
  for (const auto& ops : s.conns) {
    EXPECT(!TargetsRemovedEntity(ops));
    for (size_t j = 0; j < ops.size(); ++j) {
      const bool mutation = ops[j].kind != OpKind::kLookup;
      EXPECT(mutation == (j % kMutationEvery == kMutationEvery - 1));
    }
  }
}

void TestTargetsRemovedDetectsReuse() {
  Op remove;
  remove.kind = OpKind::kRemove;
  remove.target = 42;
  Op update;
  update.kind = OpKind::kUpdateAliases;
  update.target = 42;
  EXPECT(!TargetsRemovedEntity({update, remove}));
  EXPECT(TargetsRemovedEntity({remove, update}));
  EXPECT(TargetsRemovedEntity({remove, remove}));
}

void TestAnswerCheckFailsOnCorruption() {
  const std::vector<Answer> good = {{{1, 2, 3}, {0.1f, 0.2f, 0.3f}},
                                    {{4, 5}, {0.4f, 0.5f}}};
  EXPECT(CountMismatches(good, good) == 0);
  std::vector<Answer> bad_id = good;
  bad_id[1].ids[0] = 9;
  EXPECT(CountMismatches(good, bad_id) == 1);
  std::vector<Answer> bad_dist = good;
  uint32_t bits;
  std::memcpy(&bits, &bad_dist[0].dists[2], sizeof(bits));
  bits ^= 1u;  // One ulp: distances must match bit for bit.
  std::memcpy(&bad_dist[0].dists[2], &bits, sizeof(bits));
  EXPECT(CountMismatches(good, bad_dist) == 1);
  std::vector<Answer> truncated = good;
  truncated[0].ids.pop_back();
  truncated[0].dists.pop_back();
  EXPECT(CountMismatches(good, truncated) == 1);
  EXPECT(CountMismatches(good, {good[0]}) == 2);
}

void TestRemovedCheckFailsOnCorruption() {
  const std::unordered_map<int64_t, int64_t> removed = {{7, 1000}};
  EXPECT(CountRemovedInAnswers({{999, {7, 8}}}, removed) == 0);
  EXPECT(CountRemovedInAnswers({{1001, {8, 9}}}, removed) == 0);
  EXPECT(CountRemovedInAnswers({{1001, {8, 7}}}, removed) == 1);
}

update::Mutation Mut(update::MutationKind kind, int64_t entity,
                     std::string label = "", std::vector<std::string> aliases =
                                                  {}) {
  update::Mutation m;
  m.kind = kind;
  m.entity = entity;
  m.label = std::move(label);
  m.qid = m.label.empty() ? "" : "Q" + m.label;
  m.aliases = std::move(aliases);
  return m;
}

void TestWalCheckFailsOnCorruption() {
  using update::MutationKind;
  const std::vector<std::vector<update::Mutation>> acked = {
      {Mut(MutationKind::kAddEntity, 100, "a", {"x"}),
       Mut(MutationKind::kRemoveEntity, 4)},
      {Mut(MutationKind::kUpdateAliases, 5, "", {"y"}),
       Mut(MutationKind::kAddEntity, 101, "b")}};
  // An interleaving of the two connections that keeps each one's order.
  std::vector<update::Mutation> wal = {acked[1][0], acked[0][0], acked[0][1],
                                       acked[1][1]};
  for (size_t i = 0; i < wal.size(); ++i) wal[i].seq = i + 1;
  EXPECT(DiffWalReplay(acked, wal).empty());

  std::vector<update::Mutation> missing(wal.begin(), wal.end() - 1);
  EXPECT(!DiffWalReplay(acked, missing).empty());
  std::vector<update::Mutation> extra = wal;
  extra.push_back(Mut(MutationKind::kRemoveEntity, 6));
  extra.back().seq = 5;
  EXPECT(!DiffWalReplay(acked, extra).empty());
  std::vector<update::Mutation> reordered = wal;
  std::swap(reordered[1], reordered[2]);  // Connection 0 out of order.
  for (size_t i = 0; i < reordered.size(); ++i) reordered[i].seq = i + 1;
  EXPECT(!DiffWalReplay(acked, reordered).empty());
  std::vector<update::Mutation> gap = wal;
  gap[3].seq = 7;
  EXPECT(!DiffWalReplay(acked, gap).empty());
  std::vector<update::Mutation> altered = wal;
  altered[0].aliases = {"z"};
  EXPECT(!DiffWalReplay(acked, altered).empty());
}

}  // namespace
}  // namespace perfbench

int main() {
  using namespace perfbench;
  TestStreamsDeterministicPerSeed();
  TestOpenLoopScheduleIsIncreasing();
  TestWarmupTablesPrecedeTimedTables();
  TestMutationScriptNeverTargetsRemoved();
  TestTargetsRemovedDetectsReuse();
  TestAnswerCheckFailsOnCorruption();
  TestRemovedCheckFailsOnCorruption();
  TestWalCheckFailsOnCorruption();
  if (failures > 0) {
    std::fprintf(stderr, "perfbench_test: %d expectation(s) failed\n",
                 failures);
    return 1;
  }
  std::printf("perfbench_test: all tests passed\n");
  return 0;
}
