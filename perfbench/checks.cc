#include "checks.h"

#include <algorithm>
#include <cstring>
#include <map>
#include <tuple>

namespace perfbench {

namespace update = emblookup::update;

int64_t CountMismatches(const std::vector<Answer>& expected,
                        const std::vector<Answer>& actual) {
  if (expected.size() != actual.size()) {
    return static_cast<int64_t>(std::max(expected.size(), actual.size()));
  }
  int64_t mismatches = 0;
  for (size_t i = 0; i < expected.size(); ++i) {
    const Answer& a = expected[i];
    const Answer& b = actual[i];
    const bool same =
        a.ids == b.ids && a.dists.size() == b.dists.size() &&
        std::memcmp(a.dists.data(), b.dists.data(),
                    a.dists.size() * sizeof(float)) == 0;
    mismatches += same ? 0 : 1;
  }
  return mismatches;
}

int64_t CountRemovedInAnswers(
    const std::vector<SentAnswer>& answers,
    const std::unordered_map<int64_t, int64_t>& removed_ack_ns) {
  int64_t violations = 0;
  for (const SentAnswer& answer : answers) {
    for (const int64_t id : answer.ids) {
      auto it = removed_ack_ns.find(id);
      if (it != removed_ack_ns.end() && answer.sent_ns > it->second) {
        ++violations;
        break;
      }
    }
  }
  return violations;
}

namespace {

using MutationKey = std::tuple<int, int64_t, std::string, std::string,
                               std::vector<std::string>>;

MutationKey KeyOf(const update::Mutation& m) {
  return {static_cast<int>(m.kind), static_cast<int64_t>(m.entity), m.label,
          m.qid, m.aliases};
}

}  // namespace

std::string DiffWalReplay(
    const std::vector<std::vector<update::Mutation>>& acked_by_conn,
    const std::vector<update::Mutation>& replayed) {
  size_t acked = 0;
  // Mutation -> connection that acknowledged it.
  std::multimap<MutationKey, int> owner;
  for (size_t c = 0; c < acked_by_conn.size(); ++c) {
    for (const update::Mutation& m : acked_by_conn[c]) {
      owner.emplace(KeyOf(m), static_cast<int>(c));
      ++acked;
    }
  }
  if (replayed.size() != acked) {
    return "WAL replays " + std::to_string(replayed.size()) +
           " mutations, " + std::to_string(acked) + " were acknowledged";
  }
  std::vector<size_t> next(acked_by_conn.size(), 0);
  for (size_t i = 0; i < replayed.size(); ++i) {
    const update::Mutation& m = replayed[i];
    if (m.seq != i + 1) {
      return "WAL record " + std::to_string(i) + " has seq " +
             std::to_string(m.seq);
    }
    auto it = owner.find(KeyOf(m));
    if (it == owner.end()) {
      return "WAL seq " + std::to_string(m.seq) +
             " was never acknowledged (entity " + std::to_string(m.entity) +
             ")";
    }
    const int c = it->second;
    const update::Mutation& expected = acked_by_conn[c][next[c]++];
    if (KeyOf(expected) != KeyOf(m)) {
      return "WAL seq " + std::to_string(m.seq) +
             " is out of connection " + std::to_string(c) + "'s ack order";
    }
    owner.erase(it);
  }
  return "";
}

}  // namespace perfbench
