#ifndef CBFWW_PERFBENCH_STATS_H_
#define CBFWW_PERFBENCH_STATS_H_

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

/// Nearest-rank percentile `q` (0 < q < 1) of `samples`. Refuses (nullopt)
/// unless at least kMinBeyond samples lie strictly beyond the chosen rank:
/// a p99 needs 1000 samples, a p50 needs 20. A tail read from fewer
/// samples is one or two outliers, not a percentile.
inline constexpr uint64_t kMinBeyond = 10;
std::optional<double> Percentile(std::vector<double> samples, double q);

/// Percentile `q` as the median over up to `max_windows` consecutive time
/// windows (samples split by completion time `done_ns`), using the most
/// windows for which every window's percentile is supported. A burst of
/// host noise then moves one window, not the reported value.
std::optional<double> WindowedPercentile(const std::vector<double>& samples,
                                         const std::vector<uint64_t>& done_ns,
                                         double q, int max_windows);

/// Median of `values` (0 when empty).
double Median(std::vector<double> values);

/// Metric names are `[A-Za-z0-9_.-]+`, starting with a letter or digit.
bool ValidMetricName(std::string_view name);

/// Monotonic clock in nanoseconds.
uint64_t NowNs();
/// CPU time of the calling thread / the whole process, in seconds.
double ThreadCpuS();
double ProcessCpuS();
/// utime + stime of another process from /proc/<pid>/stat (0 if gone).
double ProcCpuS(int pid);
/// Peak resident set (VmHWM) of a process in MiB; pid 0 = self.
double PeakRssMb(int pid);

/// One metric as printed and written: value, unit, and the number of
/// samples it was computed from (0 when it is a count or a ratio).
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  uint64_t samples = 0;
};

/// JSON string escape (no quotes).
std::string JsonEscape(std::string_view text);
/// Shortest round-trip decimal for a double ("%.17g", trimmed).
std::string JsonNumber(double value);

}  // namespace perfbench

#endif  // CBFWW_PERFBENCH_STATS_H_
