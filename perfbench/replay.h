// The traced run's per-layer measurements: replays a workload's recorded
// inputs through each module's public entry point in isolation and reads
// the counters the modules already expose.
#ifndef PERFBENCH_REPLAY_H_
#define PERFBENCH_REPLAY_H_

#include <string>
#include <utility>
#include <vector>

#include "core/encoder_cache.h"
#include "deploy.h"
#include "serve/query_cache.h"
#include "streams.h"
#include "update/updater.h"

namespace perfbench {

/// Named per-layer values, in print order.
using LayerMetrics = std::vector<std::pair<std::string, double>>;

/// Every per-layer metric as (name, unit), in print order.
const std::vector<std::pair<std::string, std::string>>& LayerMetricDefs();

/// Counters read from every server just before the traced pass, so the
/// ratios cover that pass alone.
struct CounterBaseline {
  std::vector<emblookup::serve::QueryCacheStats> cache;
  std::vector<emblookup::core::EncoderCacheStats> encode_cache;
  static CounterBaseline Read(const Deployment& d);
};

struct ReplayInputs {
  Workload workload = Workload::kAnnotate;
  const FixturePaths* fixture = nullptr;
  std::string scratch_dir;
  Deployment* deployment = nullptr;  ///< After its traced pass.
  /// annotate: four flat shards behind a router, brought up beside the
  /// workload's deployment so the traced run measures the cluster layer.
  Deployment* cluster = nullptr;
  const WorkloadStreams* streams = nullptr;
  CounterBaseline baseline;
  double untraced_p50_ms = 0.0;
  double traced_p50_ms = 0.0;
  int64_t traced_lookups = 0;
  int64_t late_sends = 0;
  int64_t sends = 0;
  std::vector<LoadTimes> cold_loads;
};

/// Measures the layers that do not need the updater (kg, embed, store,
/// core, ann, serve, net, cluster, bench) into `out`.
void ReplayLayers(const ReplayInputs& in, LayerMetrics* out);

/// Measures the update layer on `updater` after the run's `acked`
/// mutations: stats, a WAL-append replay into a scratch WAL, and one
/// Compact on the final state.
void UpdateLayer(emblookup::update::IndexUpdater* updater,
                 const std::vector<emblookup::update::Mutation>& acked,
                 const std::string& scratch_dir, LayerMetrics* out);

/// Prints the end-to-end p50 next to the layer times on a request's path
/// and the unattributed remainder.
void PrintAttribution(Workload workload, double e2e_p50_ms,
                      const LayerMetrics& layers);

}  // namespace perfbench

#endif  // PERFBENCH_REPLAY_H_
