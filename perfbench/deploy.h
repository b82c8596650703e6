// Brings a serving stack up inside the benchmark process from the on-disk
// fixture: catalog, fastText model, snapshot(s), LookupServer(s) with
// ServerOptions defaults, each behind a loopback NetServer, plus the
// updater or the router where the deployment has one.
#ifndef PERFBENCH_DEPLOY_H_
#define PERFBENCH_DEPLOY_H_

#include <memory>
#include <string>
#include <vector>

#include "cluster/router.h"
#include "common/status.h"
#include "core/emblookup.h"
#include "embed/fasttext.h"
#include "fixture.h"
#include "kg/knowledge_graph.h"
#include "net/server.h"
#include "serve/lookup_server.h"
#include "update/updater.h"

namespace perfbench {

enum class DeployKind {
  kPq,        ///< One server on the PQ snapshot.
  kFlatWrites,  ///< One server on the flat snapshot with a WAL'd updater.
  kShards,    ///< Four flat shard servers behind a cluster::Router.
};

struct DeployOptions {
  DeployKind kind = DeployKind::kPq;
  FixturePaths fixture;
  /// kFlatWrites: the WAL (must not exist yet) and the updater's
  /// compaction trigger in delta rows; 0 keeps compaction off.
  std::string wal_path;
  int64_t compact_delta_rows = 0;
};

/// Time spent in each loading call of one cold start.
struct LoadTimes {
  double catalog_s = 0.0;   ///< KnowledgeGraph::LoadTsv.
  double fasttext_s = 0.0;  ///< FastTextModel::Load.
  double snapshot_s = 0.0;  ///< EmbLookup::LoadSnapshot, summed over shards.
};

/// A running deployment. Members are public: the workload code and the
/// traced replay call straight into each layer.
struct Deployment {
  static emblookup::Result<std::unique_ptr<Deployment>> Start(
      const DeployOptions& options, LoadTimes* times);

  ~Deployment() { Stop(); }
  /// Tears everything down in dependency order. Idempotent.
  void Stop();

  /// The client-facing loopback port (router or the single NetServer).
  int port() const;

  DeployOptions options;
  std::unique_ptr<emblookup::kg::KnowledgeGraph> graph;
  std::shared_ptr<emblookup::embed::FastTextModel> fasttext;
  std::vector<std::unique_ptr<emblookup::core::EmbLookup>> lookups;
  std::vector<std::unique_ptr<emblookup::serve::LookupServer>> servers;
  std::vector<std::unique_ptr<emblookup::net::NetServer>> nets;
  std::unique_ptr<emblookup::update::IndexUpdater> updater;
  std::unique_ptr<emblookup::cluster::Router> router;
};

/// Loads the fixture's fastText model.
emblookup::Result<std::shared_ptr<emblookup::embed::FastTextModel>>
LoadFastText(const std::string& path);

/// Loads one snapshot as an EmbLookup over `graph`, adopting `fasttext`.
emblookup::Result<std::unique_ptr<emblookup::core::EmbLookup>> LoadLookup(
    const emblookup::kg::KnowledgeGraph& graph,
    std::shared_ptr<emblookup::embed::FastTextModel> fasttext, bool flat,
    size_t encode_cache_entries, const std::string& snapshot);

}  // namespace perfbench

#endif  // PERFBENCH_DEPLOY_H_
