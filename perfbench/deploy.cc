#include "deploy.h"

#include <fstream>

#include "common/timing.h"

namespace perfbench {

namespace core = emblookup::core;
namespace kg = emblookup::kg;
namespace net = emblookup::net;
namespace serve = emblookup::serve;
namespace update = emblookup::update;
using emblookup::Result;
using emblookup::Status;
using emblookup::Stopwatch;

namespace {

/// Entries in the encoder-output cache of the write deployment.
constexpr size_t kEncodeCacheEntries = 1u << 16;

}  // namespace

Result<std::shared_ptr<emblookup::embed::FastTextModel>> LoadFastText(
    const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::IoError("cannot open " + path);
  auto model = std::make_shared<emblookup::embed::FastTextModel>(
      FixtureOptions(false).fasttext,
      emblookup::embed::FastTextModel::SubwordOptions{});
  EL_RETURN_NOT_OK(model->Load(&in));
  return model;
}

Result<std::unique_ptr<core::EmbLookup>> LoadLookup(
    const kg::KnowledgeGraph& graph,
    std::shared_ptr<emblookup::embed::FastTextModel> fasttext, bool flat,
    size_t encode_cache_entries, const std::string& snapshot) {
  core::EmbLookupOptions options = FixtureOptions(flat);
  options.pretrained_semantic = std::move(fasttext);
  options.encode_cache_entries = encode_cache_entries;
  return core::EmbLookup::LoadSnapshot(graph, options, snapshot);
}

Result<std::unique_ptr<Deployment>> Deployment::Start(
    const DeployOptions& options, LoadTimes* times) {
  auto d = std::make_unique<Deployment>();
  d->options = options;
  const FixturePaths& fx = options.fixture;

  Stopwatch watch;
  EL_ASSIGN_OR_RETURN(kg::KnowledgeGraph graph,
                      kg::KnowledgeGraph::LoadTsv(fx.catalog()));
  d->graph = std::make_unique<kg::KnowledgeGraph>(std::move(graph));
  times->catalog_s = watch.ElapsedSeconds();

  watch.Reset();
  EL_ASSIGN_OR_RETURN(d->fasttext, LoadFastText(fx.fasttext()));
  times->fasttext_s = watch.ElapsedSeconds();

  watch.Reset();
  switch (options.kind) {
    case DeployKind::kPq: {
      EL_ASSIGN_OR_RETURN(auto el, LoadLookup(*d->graph, d->fasttext, false,
                                              0, fx.pq_snapshot()));
      d->lookups.push_back(std::move(el));
      break;
    }
    case DeployKind::kFlatWrites: {
      EL_ASSIGN_OR_RETURN(
          auto el, LoadLookup(*d->graph, d->fasttext, true,
                              kEncodeCacheEntries, fx.flat_snapshot()));
      d->lookups.push_back(std::move(el));
      break;
    }
    case DeployKind::kShards:
      for (int s = 0; s < kNumShards; ++s) {
        EL_ASSIGN_OR_RETURN(auto el, LoadLookup(*d->graph, d->fasttext, true,
                                                0, fx.shard_snapshot(s)));
        d->lookups.push_back(std::move(el));
      }
      break;
  }
  times->snapshot_s = watch.ElapsedSeconds();

  if (options.kind == DeployKind::kFlatWrites) {
    update::UpdaterOptions updater;
    updater.wal_path = options.wal_path;
    updater.fsync_wal = true;
    updater.background_compaction = options.compact_delta_rows > 0;
    updater.compact_delta_rows = options.compact_delta_rows;
    updater.compact_masked_rows = 0;  // Delta rows are the one trigger.
    EL_ASSIGN_OR_RETURN(d->updater,
                        update::IndexUpdater::Open(d->lookups[0].get(),
                                                   d->graph.get(), updater));
  }

  for (auto& el : d->lookups) {
    d->servers.push_back(std::make_unique<serve::LookupServer>(el.get()));
    if (d->updater != nullptr) d->servers.back()->AttachUpdater(d->updater.get());
    auto server = std::make_unique<net::NetServer>();
    EL_RETURN_NOT_OK(server->Start(d->servers.back().get(), /*port=*/0));
    d->nets.push_back(std::move(server));
  }

  if (options.kind == DeployKind::kShards) {
    emblookup::cluster::RouterOptions router;
    for (const auto& shard : d->nets) {
      router.shard_addrs.push_back("127.0.0.1:" +
                                   std::to_string(shard->port()));
    }
    d->router = std::make_unique<emblookup::cluster::Router>();
    EL_RETURN_NOT_OK(d->router->Start(router, /*port=*/0));
  }
  return d;
}

int Deployment::port() const {
  if (router != nullptr) return router->port();
  return nets.empty() ? -1 : nets[0]->port();
}

void Deployment::Stop() {
  if (router != nullptr) router->Stop();
  for (auto& n : nets) n->Stop();
  for (auto& s : servers) s->Shutdown();
  router.reset();
  nets.clear();
  servers.clear();  // Servers borrow the updater: drop them first.
  updater.reset();
  lookups.clear();
  graph.reset();
  fasttext.reset();
}

}  // namespace perfbench
