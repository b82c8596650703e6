// Small statistics and host-noise helpers shared by the benchmark.
#ifndef PERFBENCH_STATS_H_
#define PERFBENCH_STATS_H_

#include <sys/resource.h>
#include <sys/time.h>

#include <algorithm>
#include <cstdint>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

/// Linear-interpolated percentile, p in [0, 1]; 0 for an empty sample.
inline double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = p * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] * (1.0 - frac) + values[hi] * frac;
}

inline double Median(std::vector<double> values) {
  return Percentile(std::move(values), 0.5);
}

/// Aggregate CPU jiffies from the first line of /proc/stat.
struct CpuTimes {
  uint64_t total = 0;
  uint64_t steal = 0;
};

inline CpuTimes ReadCpuTimes() {
  CpuTimes t;
  std::ifstream in("/proc/stat");
  std::string cpu;
  in >> cpu;
  // user nice system idle iowait irq softirq steal (guest time is already
  // counted in user/nice).
  for (int field = 0; field < 8; ++field) {
    uint64_t v = 0;
    if (!(in >> v)) break;
    t.total += v;
    if (field == 7) t.steal = v;
  }
  return t;
}

/// Share of CPU time the hypervisor stole between two readings.
inline double StealShare(const CpuTimes& before, const CpuTimes& after) {
  const uint64_t total = after.total - before.total;
  return total == 0 ? 0.0
                    : static_cast<double>(after.steal - before.steal) /
                          static_cast<double>(total);
}

/// User plus system CPU seconds this process has used, all threads.
inline double ProcessCpuSeconds() {
  rusage usage;
  getrusage(RUSAGE_SELF, &usage);
  auto seconds = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + static_cast<double>(t.tv_usec) / 1e6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

/// The 1-minute load average.
inline double LoadAverage1m() {
  std::ifstream in("/proc/loadavg");
  double load = 0.0;
  in >> load;
  return load;
}

/// The process's peak resident set so far (VmHWM), in MB; 0 if unknown.
inline double PeakRssMb() {
  std::ifstream in("/proc/self/status");
  std::string key;
  while (in >> key) {
    if (key == "VmHWM:") {
      double kb = 0.0;
      in >> kb;
      return kb / 1024.0;
    }
    in.ignore(4096, '\n');
  }
  return 0.0;
}

/// Rate and latency percentiles of one timed phase.
struct PhaseStats {
  double per_second = 0.0;
  double p50 = 0.0;
  double p90 = 0.0;
};

/// Whole-phase figures: completions over the phase's wall time, and the
/// percentiles over every completed op, so a stall anywhere in the phase
/// (a compaction, a burst of host steal) counts.
inline PhaseStats WholePhase(const std::vector<double>& latencies,
                             double wall_s) {
  PhaseStats out;
  out.per_second =
      wall_s <= 0.0 ? 0.0 : static_cast<double>(latencies.size()) / wall_s;
  out.p50 = Percentile(latencies, 0.5);
  out.p90 = Percentile(latencies, 0.9);
  return out;
}

}  // namespace perfbench

#endif  // PERFBENCH_STATS_H_
