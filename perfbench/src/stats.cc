#include "stats.h"

#include <algorithm>
#include <chrono>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>

#include <sys/resource.h>
#include <unistd.h>

namespace perfbench {

std::optional<double> Percentile(std::vector<double> samples, double q) {
  if (samples.empty() || !(q > 0.0 && q < 1.0)) return std::nullopt;
  const uint64_t n = samples.size();
  // Nearest rank: the smallest sample with at least q*n samples at or
  // below it. Work in integers so q*n rounding cannot move the rank.
  const uint64_t rank = static_cast<uint64_t>(
      std::ceil(q * static_cast<double>(n) - 1e-9));
  const uint64_t index = rank == 0 ? 0 : rank - 1;
  if (n - 1 - index < kMinBeyond) return std::nullopt;
  std::nth_element(samples.begin(), samples.begin() + index, samples.end());
  return samples[index];
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2.0;
}

std::optional<double> WindowedPercentile(const std::vector<double>& samples,
                                         const std::vector<uint64_t>& done_ns,
                                         double q, int max_windows) {
  if (samples.size() != done_ns.size()) return std::nullopt;
  std::vector<size_t> order(samples.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(),
            [&](size_t a, size_t b) { return done_ns[a] < done_ns[b]; });
  for (int k = std::max(1, max_windows); k >= 1; --k) {
    std::vector<double> per_window;
    for (int w = 0; w < k; ++w) {
      const size_t lo = order.size() * w / k;
      const size_t hi = order.size() * (w + 1) / k;
      std::vector<double> window;
      window.reserve(hi - lo);
      for (size_t i = lo; i < hi; ++i) window.push_back(samples[order[i]]);
      auto p = Percentile(std::move(window), q);
      if (!p) break;
      per_window.push_back(*p);
    }
    if (per_window.size() == static_cast<size_t>(k)) return Median(per_window);
  }
  return std::nullopt;
}

bool ValidMetricName(std::string_view name) {
  if (name.empty() || name.size() > 64) return false;
  if (!std::isalnum(static_cast<unsigned char>(name[0]))) return false;
  for (char c : name) {
    if (!std::isalnum(static_cast<unsigned char>(c)) && c != '_' &&
        c != '.' && c != '-') {
      return false;
    }
  }
  return true;
}

uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

double ThreadCpuS() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) / 1e9;
}

double ProcessCpuS() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) / 1e9;
}

double ProcCpuS(int pid) {
  char path[64];
  std::snprintf(path, sizeof(path), "/proc/%d/stat", pid);
  FILE* f = std::fopen(path, "r");
  if (f == nullptr) return 0.0;
  char buf[1024];
  size_t n = std::fread(buf, 1, sizeof(buf) - 1, f);
  std::fclose(f);
  buf[n] = '\0';
  // utime/stime are fields 14/15; scan from the last ')' so a command name
  // with spaces cannot shift them.
  const char* p = std::strrchr(buf, ')');
  unsigned long long utime = 0, stime = 0;
  if (p == nullptr ||
      std::sscanf(p + 1,
                  " %*s %*d %*d %*d %*d %*d %*u %*u %*u %*u %*u %llu %llu",
                  &utime, &stime) != 2) {
    return 0.0;
  }
  const long ticks = sysconf(_SC_CLK_TCK);
  return ticks > 0 ? static_cast<double>(utime + stime) /
                         static_cast<double>(ticks)
                   : 0.0;
}

double PeakRssMb(int pid) {
  char path[64];
  if (pid == 0) {
    std::snprintf(path, sizeof(path), "/proc/self/status");
  } else {
    std::snprintf(path, sizeof(path), "/proc/%d/status", pid);
  }
  FILE* f = std::fopen(path, "r");
  if (f == nullptr) return 0.0;
  char line[256];
  double kb = 0.0;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::strncmp(line, "VmHWM:", 6) == 0) {
      kb = std::strtod(line + 6, nullptr);
      break;
    }
  }
  std::fclose(f);
  return kb / 1024.0;
}

std::string JsonEscape(std::string_view text) {
  std::string out;
  out.reserve(text.size());
  for (char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string JsonNumber(double value) {
  if (!std::isfinite(value)) return "null";
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  // Prefer the shortest form that still round-trips.
  for (int precision = 6; precision < 17; ++precision) {
    char shorter[32];
    std::snprintf(shorter, sizeof(shorter), "%.*g", precision, value);
    if (std::strtod(shorter, nullptr) == value) return shorter;
  }
  return buf;
}

}  // namespace perfbench
