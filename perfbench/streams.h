// Deterministic operation streams for the benchmark's workloads. Every
// stream is a pure function of (catalog, workload, seed, seconds): the same
// seed gives byte-identical streams, and warm-up traffic is drawn from the
// same generator as, but disjoint from, the timed stream.
#ifndef PERFBENCH_STREAMS_H_
#define PERFBENCH_STREAMS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "kg/knowledge_graph.h"

namespace perfbench {

/// The four workloads. Each one's reason for existing sits next to its
/// stream definition in streams.cc.
enum class Workload { kAnnotate, kInteractive, kCatalogWrites, kRouted };

const char* WorkloadName(Workload workload);
bool ParseWorkload(const std::string& name, Workload* workload);

/// Load shape shared by all workloads: two client connections, at most
/// kWindow lookups in flight per connection on the closed loops, top-10.
inline constexpr int kConnections = 2;
inline constexpr int kWindow = 16;
inline constexpr int64_t kTopK = 10;
/// routed: loopback connections to the router, one lookup in flight on
/// each (the router answers one request at a time per connection).
inline constexpr int kRoutedLanes = 16;
/// catalog_writes: every kMutationEvery-th operation of a connection is a
/// durable mutation.
inline constexpr int kMutationEvery = 10;
/// interactive: aggregate Poisson arrival rate over both connections.
inline constexpr double kInteractiveRate = 10000.0;
/// interactive: a sender never has more lookups outstanding than this, so a
/// server stall (host steal) delays sends instead of crossing the
/// NetServer's default 256-request in-flight cap, which would shed them.
/// Latency still counts from the scheduled send, so the delay shows.
inline constexpr int kOpenLoopMaxInflight = 192;

/// A lookup mention and the entity it was drawn from (ground truth).
struct Mention {
  std::string text;
  emblookup::kg::EntityId truth = emblookup::kg::kInvalidEntity;
};

enum class OpKind : uint8_t { kLookup = 0, kAdd, kUpdateAliases, kRemove };

/// One client operation.
struct Op {
  OpKind kind = OpKind::kLookup;
  Mention mention;  ///< kLookup.
  /// Closed-loop table id: a connection finishes every cell of a table
  /// before it sends the next table (-1: no table barrier).
  int64_t table = -1;
  /// Open loop: scheduled send time, nanoseconds after the run starts.
  int64_t send_at_ns = 0;
  /// kUpdateAliases / kRemove target (an entity of the base catalog).
  emblookup::kg::EntityId target = emblookup::kg::kInvalidEntity;
  std::string label;                 ///< kAdd.
  std::string qid;                   ///< kAdd.
  std::vector<std::string> aliases;  ///< kAdd / kUpdateAliases.
};

struct WorkloadStreams {
  std::vector<Mention> warmup;         ///< Sent before timing starts.
  std::vector<std::vector<Op>> conns;  ///< Timed ops, one list per connection.

  int64_t NumLookups() const;
  int64_t NumMutations() const;
  int64_t NumAdds() const;
};

/// Builds the warm-up and timed streams for `workload`. `seconds` scales
/// the fixed amount of work (a constant per-second op budget per workload,
/// never a measured rate), so equal arguments always mean equal work.
WorkloadStreams MakeStreams(const emblookup::kg::KnowledgeGraph& graph,
                            Workload workload, uint64_t seed, double seconds);

/// `count` durable mutations (60 % adds, 30 % alias updates, 10 % removes,
/// in seeded order) for connection `conn`. Targets are base-catalog
/// entities with id % kConnections == conn, so two connections never touch
/// one entity, and no mutation ever targets an entity already removed.
std::vector<Op> MakeMutationScript(const emblookup::kg::KnowledgeGraph& graph,
                                   uint64_t seed, int conn, int64_t count);

/// True when some op in `ops` (in order) updates or removes an entity that
/// an earlier op removed.
bool TargetsRemovedEntity(const std::vector<Op>& ops);

/// A stable 64-bit digest of a stream (kinds, texts, targets, schedule),
/// printed with every run so equal seeds can be seen to give equal streams.
uint64_t StreamDigest(const WorkloadStreams& streams);

}  // namespace perfbench

#endif  // PERFBENCH_STREAMS_H_
