#include "fixture.h"

#include <sys/stat.h>

#include <cstdio>
#include <fstream>
#include <memory>
#include <unordered_set>

#include "cluster/shard_map.h"
#include "common/timing.h"
#include "embed/corpus.h"
#include "embed/fasttext.h"
#include "kg/synthetic_kg.h"

namespace perfbench {

using emblookup::Status;
using emblookup::Stopwatch;
namespace core = emblookup::core;
namespace kg = emblookup::kg;

namespace {

constexpr int64_t kCatalogEntities = 20000;
constexpr uint64_t kCatalogSeed = 2022;

}  // namespace

std::string FixturePaths::shard_snapshot(int shard) const {
  return dir + "/shards/shard-" + std::to_string(shard) + ".snap";
}

core::EmbLookupOptions FixtureOptions(bool flat) {
  core::EmbLookupOptions options;
  // Half the default fastText epochs: the pre-train is single-threaded
  // and, at 20 epochs, the largest part of building the fixture.
  options.fasttext.epochs = 10;
  options.trainer.epochs = 4;
  options.miner.triplets_per_entity = 8;
  options.index.compress = !flat;
  options.index.kind = flat ? core::IndexKind::kFlat : core::IndexKind::kPq;
  return options;
}

Status BuildFixture(const FixturePaths& paths) {
  ::mkdir(paths.dir.c_str(), 0755);
  ::mkdir((paths.dir + "/shards").c_str(), 0755);
  std::ofstream log(paths.build_log());

  kg::SyntheticKgOptions kg_options;
  kg_options.num_entities = kCatalogEntities;
  kg_options.seed = kCatalogSeed;
  const kg::KnowledgeGraph graph = kg::GenerateSyntheticKg(kg_options);
  EL_RETURN_NOT_OK(graph.SaveTsv(paths.catalog()));

  // The fastText branch is pre-trained once here and loaded by every
  // deployment; without it EmbLookup::LoadSnapshot would retrain it on
  // every start.
  core::EmbLookupOptions options = FixtureOptions(/*flat=*/false);
  Stopwatch watch;
  auto fasttext = std::make_shared<emblookup::embed::FastTextModel>(
      options.fasttext, emblookup::embed::FastTextModel::SubwordOptions{});
  fasttext->Train(emblookup::embed::BuildCorpus(graph, options.corpus));
  const double pretrain_s = watch.ElapsedSeconds();
  {
    std::ofstream out(paths.fasttext(), std::ios::binary);
    EL_RETURN_NOT_OK(fasttext->Save(&out));
    if (!out.good()) return Status::IoError("cannot write " + paths.fasttext());
  }
  std::fprintf(stderr, "fixture: fastText pre-train %.1f s\n", pretrain_s);
  log << "fasttext_pretrain_s " << pretrain_s << "\n";

  watch.Reset();
  options.pretrained_semantic = fasttext;
  EL_ASSIGN_OR_RETURN(std::unique_ptr<core::EmbLookup> el,
                      core::EmbLookup::TrainFromKg(graph, options));
  const double train_s = watch.ElapsedSeconds();
  std::fprintf(stderr, "fixture: encoder training %.1f s\n", train_s);
  log << "encoder_train_s " << train_s << "\n";

  watch.Reset();
  EL_RETURN_NOT_OK(el->SaveSnapshot(paths.pq_snapshot()));
  const core::IndexConfig flat = FixtureOptions(/*flat=*/true).index;
  EL_ASSIGN_OR_RETURN(auto flat_index, el->BuildIndexSnapshot(flat));
  EL_RETURN_NOT_OK(el->SwapIndex(std::move(flat_index)));
  EL_RETURN_NOT_OK(el->SaveSnapshot(paths.flat_snapshot()));

  // Per-shard flat snapshots, cut exactly as `emblookup_cli build-shards`.
  EL_ASSIGN_OR_RETURN(const emblookup::cluster::ShardMap map,
                      emblookup::cluster::BuildShardMap(graph, kNumShards));
  for (const emblookup::cluster::ShardInfo& shard : map.shards) {
    const std::unordered_set<kg::EntityId> exclude =
        emblookup::cluster::ShardExclusions(graph, shard.index, kNumShards);
    EL_ASSIGN_OR_RETURN(auto index, el->BuildIndexSnapshot(flat, &exclude));
    EL_RETURN_NOT_OK(el->SwapIndex(std::move(index)));
    EL_RETURN_NOT_OK(el->SaveSnapshot(paths.shard_snapshot(shard.index)));
  }
  EL_RETURN_NOT_OK(emblookup::cluster::SaveShardMap(map, paths.shard_map()));
  const double snapshots_s = watch.ElapsedSeconds();
  std::fprintf(stderr, "fixture: snapshots %.1f s\n", snapshots_s);
  log << "snapshots_s " << snapshots_s << "\n";
  return Status::OK();
}

}  // namespace perfbench
