// Drives a workload's operation streams against a serving stack: one
// sender and one reader thread per connection, closed loop (at most
// kWindow lookups in flight, optional per-table barrier) or open loop
// (sends at their scheduled times, latency from the schedule). Mutations
// are called on the sender thread straight into the LookupServer.
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "serve/lookup_server.h"
#include "streams.h"
#include "update/wal.h"

namespace perfbench {

/// Steady-clock nanoseconds.
int64_t NowNs();

/// One lookup's path to the server: over a loopback socket, or straight
/// into LookupServer::SubmitAsync (the no-socket replay).
class Transport {
 public:
  struct Reply {
    uint64_t request_id = 0;
    bool ok = false;
    bool shed = false;  ///< Unavailable or DeadlineExceeded.
    std::vector<int64_t> ids;
  };
  virtual ~Transport() = default;
  virtual emblookup::Status Send(uint64_t request_id,
                                 const std::string& query) = 0;
  /// Blocks for the next reply; an error status means the transport broke.
  virtual emblookup::Result<Reply> Read() = 0;
  /// Unblocks a pending Read (called when a sender gives up).
  virtual void Abort() = 0;
};

/// Connects to a NetServer or Router on 127.0.0.1:`port`.
emblookup::Result<std::unique_ptr<Transport>> ConnectRemote(int port);
/// Submits into `server` in process.
std::unique_ptr<Transport> InProcess(emblookup::serve::LookupServer* server);

struct OpResult {
  int64_t sent_ns = 0;  ///< Open loop: the scheduled send time.
  double latency_us = 0.0;
  bool done = false;
  bool ok = false;
  bool shed = false;
  std::vector<int64_t> ids;  ///< Lookups: the answer.
};

/// A benchmark span: one per client call, sub-spans share its request id.
struct Span {
  uint64_t request_id = 0;
  const char* name = "";
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

struct ConnResult {
  std::vector<OpResult> ops;  ///< Parallel to the connection's op list.
  int64_t late_sends = 0;     ///< Open loop: sends > 1 ms behind schedule.
  int64_t sends = 0;
  bool broken = false;        ///< Transport failed mid-run.
  /// Acknowledged mutations in ack order (entity filled in for adds).
  std::vector<emblookup::update::Mutation> acked;
  std::unordered_map<int64_t, int64_t> removed_ack_ns;
  std::vector<Span> spans;
};

struct DriveResult {
  std::vector<ConnResult> conns;
  int64_t start_ns = 0;  ///< First send (open loop: first scheduled slot).
  int64_t end_ns = 0;    ///< Last completion.
  double wall_s = 0.0;   ///< end_ns - start_ns, in seconds.
  std::vector<Span> Spans() const;
};

struct DriveOptions {
  bool open_loop = false;
  bool trace = false;
  /// Lookups and mutations; mutations need `server`.
  emblookup::serve::LookupServer* server = nullptr;
};

/// Runs `conns[c]` over `transports[c]` for every connection.
DriveResult Drive(const std::vector<std::vector<Op>>& conns,
                  const std::vector<Transport*>& transports,
                  const DriveOptions& options);

/// Closed loop over one loopback connection per op list ("lane") to
/// 127.0.0.1:`port`, one lookup in flight per lane, all lanes driven by a
/// single thread with poll(). This is the shape for a server that answers
/// one request at a time per connection (cluster::Router), where
/// concurrency comes from connections rather than from pipelining.
DriveResult DriveLanes(const std::vector<std::vector<Op>>& lanes, int port,
                       bool trace);

/// Splits warm-up mentions into closed-loop, barrier-free op lists.
std::vector<std::vector<Op>> WarmupOps(const std::vector<Mention>& warmup);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
