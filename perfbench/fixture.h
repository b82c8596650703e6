// The benchmark fixture: a synthetic catalog, an encoder trained on it,
// that encoder's fastText model, and the snapshots every deployment serves
// from. Built once per build of the code from fixed seeds; never timed.
#ifndef PERFBENCH_FIXTURE_H_
#define PERFBENCH_FIXTURE_H_

#include <string>

#include "common/status.h"
#include "core/emblookup.h"

namespace perfbench {

/// Shards the routed workload fans out to (cut the way `build-shards` cuts).
inline constexpr int kNumShards = 4;

/// File layout of a built fixture directory.
struct FixturePaths {
  std::string dir;
  std::string catalog() const { return dir + "/catalog.tsv"; }
  std::string fasttext() const { return dir + "/fasttext.bin"; }
  std::string pq_snapshot() const { return dir + "/pq.snap"; }
  std::string flat_snapshot() const { return dir + "/flat.snap"; }
  std::string shard_map() const { return dir + "/shards/shards.map"; }
  std::string shard_snapshot(int shard) const;
  std::string build_log() const { return dir + "/build_times.txt"; }
};

/// The options every fixture artifact is built and loaded with. `flat`
/// picks the exact index (the PQ index is the paper's EL setting).
emblookup::core::EmbLookupOptions FixtureOptions(bool flat);

/// Builds every fixture artifact into `paths.dir` and prints the time of
/// each step (fastText pre-train, encoder training, snapshot writes).
emblookup::Status BuildFixture(const FixturePaths& paths);

}  // namespace perfbench

#endif  // PERFBENCH_FIXTURE_H_
