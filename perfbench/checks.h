// Output checks that fail a benchmark run. Each takes plain data so the
// benchmark's own tests can feed it deliberately corrupted answers.
#ifndef PERFBENCH_CHECKS_H_
#define PERFBENCH_CHECKS_H_

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "kg/knowledge_graph.h"
#include "update/wal.h"

namespace perfbench {

/// A scored top-k answer.
struct Answer {
  std::vector<int64_t> ids;
  std::vector<float> dists;
};

/// Number of answers in `actual` that differ from `expected` in any id or
/// in any distance bit (a length mismatch counts every answer).
int64_t CountMismatches(const std::vector<Answer>& expected,
                        const std::vector<Answer>& actual);

/// A lookup answer with the time its request was sent (steady-clock ns).
struct SentAnswer {
  int64_t sent_ns = 0;
  std::vector<int64_t> ids;
};

/// Number of answers that hold an entity whose removal was acknowledged
/// (at `removed_ack_ns[entity]`) before the request was sent.
int64_t CountRemovedInAnswers(
    const std::vector<SentAnswer>& answers,
    const std::unordered_map<int64_t, int64_t>& removed_ack_ns);

/// Empty when `replayed` (the WAL's records) holds exactly the
/// acknowledged mutations: the same multiset of (kind, entity, label, qid,
/// aliases), seqs 1..n with no gap, and each connection's mutations in the
/// order it had them acknowledged. Otherwise a description of the first
/// difference.
std::string DiffWalReplay(
    const std::vector<std::vector<emblookup::update::Mutation>>& acked_by_conn,
    const std::vector<emblookup::update::Mutation>& replayed);

}  // namespace perfbench

#endif  // PERFBENCH_CHECKS_H_
