// Measurement helpers of the end-to-end benchmark: sample statistics, host
// readings from /proc, the in-memory span recorder behind the traced run,
// and a small JSON writer. Nothing here touches the k-SIR libraries.
#ifndef KSIR_E2EBENCH_SUPPORT_H_
#define KSIR_E2EBENCH_SUPPORT_H_

#include <time.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

namespace e2e {

using Clock = std::chrono::steady_clock;

inline double SecondsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

inline double MsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// CPU time of the whole process (every thread), in seconds. Unlike wall
/// time it leaves out time the process waited: for a runnable CPU, for a
/// sleeping worker to wake, or (with the kernel's paravirtual steal
/// accounting) while the hypervisor ran another guest on its CPU.
inline double ProcessCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         1e-9 * static_cast<double>(ts.tv_nsec);
}

/// Wall and process-CPU clocks read together.
struct Stamp {
  Clock::time_point wall;
  double cpu_s;

  static Stamp Now() { return {Clock::now(), ProcessCpuSeconds()}; }
};

/// Wall and CPU milliseconds between two stamps.
struct Elapsed {
  double wall_ms;
  double cpu_ms;
};

inline Elapsed Between(const Stamp& a, const Stamp& b) {
  return {MsBetween(a.wall, b.wall), 1000.0 * (b.cpu_s - a.cpu_s)};
}

/// Linear-interpolation quantile (the "type 7" estimator); 0 when empty.
inline double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

inline double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

/// Aggregate CPU jiffies from the first line of /proc/stat.
struct CpuTimes {
  std::uint64_t total = 0;
  std::uint64_t steal = 0;
};

inline CpuTimes ReadCpuTimes() {
  CpuTimes times;
  std::ifstream in("/proc/stat");
  std::string label;
  if (!(in >> label) || label != "cpu") return times;
  // user nice system idle iowait irq softirq steal guest guest_nice; guest
  // time is already included in user/nice, so it is not added again.
  std::uint64_t field[8] = {};
  for (std::uint64_t& f : field) {
    if (!(in >> f)) break;
    times.total += f;
  }
  times.steal = field[7];
  return times;
}

/// Share of host CPU time stolen by the hypervisor between two readings.
inline double StealShare(const CpuTimes& before, const CpuTimes& after) {
  const std::uint64_t total = after.total - before.total;
  if (total == 0) return 0.0;
  return static_cast<double>(after.steal - before.steal) /
         static_cast<double>(total);
}

/// A "Vm...:" line of /proc/self/status in MiB (0 when unavailable).
inline double StatusMb(const std::string& field) {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind(field, 0) == 0) {
      std::istringstream fields(line.substr(field.size()));
      double kb = 0.0;
      fields >> kb;
      return kb / 1024.0;
    }
  }
  return 0.0;
}

/// Peak resident set (VmHWM) of this process in MiB.
inline double PeakRssMb() { return StatusMb("VmHWM:"); }

/// Current resident set (VmRSS) of this process in MiB.
inline double RssMb() { return StatusMb("VmRSS:"); }

/// A fixed reference computation the benchmark times next to the program,
/// to read how fast the host runs memory-bound code at the moment: a
/// dependent walk of `hops` steps along one random cycle through a table of
/// `bytes` (too big for the private caches, so each hop waits on the shared
/// last-level cache or memory). It touches `hops` cache lines per walk, so
/// it leaves the program's cache contents nearly intact.
class HostProbe {
 public:
  HostProbe(std::size_t bytes, int hops)
      : next_(bytes / sizeof(std::uint32_t)), hops_(hops) {
    // Sattolo's shuffle: one cycle through every slot, so no walk shortcuts.
    for (std::size_t i = 0; i < next_.size(); ++i) {
      next_[i] = static_cast<std::uint32_t>(i);
    }
    std::uint64_t x = 0x9e3779b97f4a7c15ULL;
    for (std::size_t i = next_.size() - 1; i > 0; --i) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      std::swap(next_[i], next_[x % i]);
    }
  }

  /// Times one walk in process CPU time and keeps the sample.
  void Walk() {
    const double start = ProcessCpuSeconds();
    std::uint32_t at = position_;
    for (int i = 0; i < hops_; ++i) at = next_[at];
    samples_ms_.push_back(1000.0 * (ProcessCpuSeconds() - start));
    position_ = at;
  }

  const std::vector<double>& samples_ms() const { return samples_ms_; }

 private:
  std::vector<std::uint32_t> next_;
  int hops_;
  std::uint32_t position_ = 0;
  std::vector<double> samples_ms_;
};

/// FNV-1a accumulator for the run's work fingerprint.
class Fingerprint {
 public:
  void Add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      hash_ ^= (v >> (8 * i)) & 0xffu;
      hash_ *= 0x100000001b3ULL;
    }
  }
  void AddDouble(double v) {
    std::uint64_t bits = 0;
    static_assert(sizeof(bits) == sizeof(v));
    std::memcpy(&bits, &v, sizeof(v));
    Add(bits);
  }
  std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ULL;
};

/// Spans the traced run keeps in memory and writes at exit: one per public
/// call the benchmark makes, parented to the closed-loop step that issued
/// it. Every span of one step shares the step's id.
class SpanRecorder {
 public:
  struct Span {
    const char* name;
    double start_us;
    double end_us;
    std::int64_t parent;  // index into spans(), -1 for a root
    std::int64_t step;
  };

  explicit SpanRecorder(bool enabled)
      : enabled_(enabled), origin_(Clock::now()) {}

  /// Opens a span; returns its index (or -1 when disabled).
  std::int64_t Begin(const char* name, std::int64_t parent, std::int64_t step) {
    if (!enabled_) return -1;
    spans_.push_back({name, Now(), 0.0, parent, step});
    return static_cast<std::int64_t>(spans_.size()) - 1;
  }

  void End(std::int64_t index) {
    if (index < 0) return;
    spans_[static_cast<std::size_t>(index)].end_us = Now();
  }

  const std::vector<Span>& spans() const { return spans_; }

  /// chrome://tracing JSON ("X" complete events; parent and step in args).
  std::string ChromeTraceJson() const {
    std::string out = "{\"traceEvents\":[";
    char buf[256];
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::snprintf(buf, sizeof(buf),
                    "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                    "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"span\":%zu,"
                    "\"parent\":%lld,\"step\":%lld}}",
                    i == 0 ? "" : ",", s.name, s.start_us,
                    s.end_us - s.start_us, i,
                    static_cast<long long>(s.parent),
                    static_cast<long long>(s.step));
      out += buf;
    }
    out += "],\"displayTimeUnit\":\"ms\"}\n";
    return out;
  }

  /// Per span name: count, total time and self time (total minus the part
  /// covered by direct children), in ms.
  struct NameSummary {
    std::string name;
    std::size_t count = 0;
    double total_ms = 0.0;
    double self_ms = 0.0;
  };

  std::vector<NameSummary> Summarize() const {
    std::vector<double> child_ms(spans_.size(), 0.0);
    for (const Span& s : spans_) {
      if (s.parent >= 0) {
        child_ms[static_cast<std::size_t>(s.parent)] +=
            (s.end_us - s.start_us) / 1000.0;
      }
    }
    std::vector<NameSummary> out;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      auto it = std::find_if(out.begin(), out.end(), [&](const NameSummary& n) {
        return n.name == s.name;
      });
      if (it == out.end()) {
        out.push_back({s.name, 0, 0.0, 0.0});
        it = out.end() - 1;
      }
      const double ms = (s.end_us - s.start_us) / 1000.0;
      ++it->count;
      it->total_ms += ms;
      it->self_ms += ms - child_ms[i];
    }
    return out;
  }

 private:
  double Now() const {
    return std::chrono::duration<double, std::micro>(Clock::now() - origin_)
        .count();
  }

  bool enabled_;
  Clock::time_point origin_;
  std::vector<Span> spans_;
};

/// RAII span over one call; a no-op when the recorder is disabled.
class SpanScope {
 public:
  SpanScope(SpanRecorder* recorder, const char* name, std::int64_t parent,
            std::int64_t step)
      : recorder_(recorder), index_(recorder->Begin(name, parent, step)) {}
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;
  ~SpanScope() { recorder_->End(index_); }
  std::int64_t index() const { return index_; }

 private:
  SpanRecorder* recorder_;
  std::int64_t index_;
};

/// One named metric of the result line.
struct Metric {
  std::string name;
  double value;
  std::string unit;
};

/// The benchmark's last stdout line.
inline std::string ResultJson(bool correct, std::int64_t attempted,
                              std::int64_t failed,
                              const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  char buf[128];
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.17g, ",
                  i == 0 ? "" : ", ", metrics[i].name.c_str(), v);
    out += buf;
    out += "\"unit\": \"" + metrics[i].unit + "\"}";
  }
  out += "}}";
  return out;
}

}  // namespace e2e

#endif  // KSIR_E2EBENCH_SUPPORT_H_
