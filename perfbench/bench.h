// Shared pieces of the benchmark driver: the span recorder, sample
// statistics, the report types and the timed-phase helpers.
//
// Spans are taken from the benchmark's own code, around calls into the
// library's public functions. They are kept in memory and written once, at
// the end of a traced run, as Chrome trace-event JSON (opens in Perfetto).
// A disarmed tracer reads no clock and records nothing.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

class Tracer {
 public:
  struct Record {
    std::string name;
    int64_t start_ns = 0;  ///< relative to the tracer's epoch
    int64_t end_ns = 0;
    int parent = -1;  ///< index into records(); -1 = root
    uint64_t op = 0;  ///< operation id the span belongs to
  };

  /// One open span; closes (and records) when destroyed.
  class Span {
   public:
    Span(Tracer& t, std::string name);
    ~Span() { end(); }  // closes and records the span
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;
    /// Rename before the span closes (e.g. once an outcome is known).
    void rename(std::string name);

   private:
    void end();

    Tracer* t_;
    int index_ = -1;
  };

  void arm() {
    armed_ = true;
    epoch_ = Clock::now();
  }
  /// Operation id stamped on every span opened from now on.
  void set_op(uint64_t op) { op_ = op; }

  const std::vector<Record>& records() const { return records_; }

  /// Per-name self time (ms): a span's duration minus what its child spans
  /// cover, summed over all spans of that name; plus call counts.
  struct Self {
    double ms = 0;
    size_t calls = 0;
  };
  std::map<std::string, Self> self_times() const;
  /// Wall time (ms) covered by root spans inside [from, to].
  double root_covered_ms(Clock::time_point from, Clock::time_point to) const;

  /// Chrome trace-event JSON ("X" complete events, one pid/tid).
  void write_chrome_json(const std::string& path) const;

 private:
  int64_t now_ns() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                                epoch_)
        .count();
  }

  bool armed_ = false;
  Clock::time_point epoch_{};
  uint64_t op_ = 0;
  int open_ = -1;  ///< innermost open span
  std::vector<Record> records_;
};

/// Sorted-sample quantile by linear interpolation (q in [0, 1]).
double quantile(std::vector<double> v, double q);
/// Geometric mean of positive values (0 for an empty list).
double geomean(const std::vector<double>& v);
/// Peak resident set size of this process, in MB.
double peak_rss_mb();

/// One reported metric.
struct Metric {
  std::string name;
  std::string unit;
  double value = 0;
};

/// What a workload hands back to the driver for printing.
struct Outcome {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> end_to_end;
  std::vector<Metric> per_layer;
  std::vector<std::string> failures;  ///< one line per failed check
  void check(bool ok, const std::string& what) {
    if (!ok) {
      correct = false;
      failures.push_back(what);
    }
  }
};

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  std::string trace_path;  ///< empty = untraced
};

/// How many times a run builds its inputs; setup_s is the median.
constexpr int kSetups = 9;

/// Times kSetups calls of make() and keeps the last result; stores the
/// median set-up time in seconds.
template <typename F>
auto repeated_setup(double* median_s, F&& make) {
  std::vector<double> s;
  auto t0 = Clock::now();
  auto value = make();
  s.push_back(ms_between(t0, Clock::now()) / 1000.0);
  for (int i = 1; i < kSetups; ++i) {
    t0 = Clock::now();
    value = make();
    s.push_back(ms_between(t0, Clock::now()) / 1000.0);
  }
  *median_s = quantile(s, 0.5);
  return value;
}

/// What one timed phase did. A workload's round() appends to it.
struct Phase {
  bool traced = false;
  uint64_t rounds = 0;       ///< whole rounds finished before this one
  uint64_t ops = 0;
  double cells = 0;          ///< input cells of the operations
  std::vector<double> lat;   ///< per-operation latency (ms)
};

/// Runs whole rounds for `seconds` (at least one) and returns the wall ms.
double timed_rounds(double seconds, Phase& p,
                    const std::function<void(Phase&)>& round);

/// Self time per call (ms) of the spans named `span`; 0 if none ran.
double per_call(const std::map<std::string, Tracer::Self>& self,
                const std::string& span);

/// The timed part of every workload. An untraced run measures `seconds`
/// and reports setup_s and the timing end-to-end metrics. A traced run
/// measures an untraced half, then arms `tr` for the other half, writes the
/// span file, prints the self-time table, the unattributed share and the
/// tracing overhead, and returns the self times.
std::map<std::string, Tracer::Self> run_phases(
    const Args& a, double setup_s, Tracer& tr, Outcome& out,
    const std::function<void(Phase&)>& round);

void run_cold_compile(const Args& a, Outcome& out);
void run_serve_edit(const Args& a, Outcome& out);
void run_signoff(const Args& a, Outcome& out);

}  // namespace perfbench
