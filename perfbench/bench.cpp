#include "bench.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>

#include "base/common.h"
#include "base/json.h"

namespace perfbench {

Tracer::Span::Span(Tracer& t, std::string name) : t_(&t) {
  if (!t.armed_) return;
  index_ = static_cast<int>(t.records_.size());
  t.records_.push_back({std::move(name), t.now_ns(), 0, t.open_, t.op_});
  t.open_ = index_;
}

void Tracer::Span::rename(std::string name) {
  if (index_ >= 0) t_->records_[static_cast<size_t>(index_)].name =
      std::move(name);
}

void Tracer::Span::end() {
  if (index_ < 0) return;
  Record& r = t_->records_[static_cast<size_t>(index_)];
  r.end_ns = t_->now_ns();
  t_->open_ = r.parent;
  index_ = -1;
}

std::map<std::string, Tracer::Self> Tracer::self_times() const {
  // Children of one parent never overlap (spans nest on one thread), so the
  // covered part of a parent is the sum of its children's durations.
  std::vector<int64_t> child_ns(records_.size(), 0);
  for (const Record& r : records_) {
    if (r.parent >= 0) child_ns[static_cast<size_t>(r.parent)] +=
        r.end_ns - r.start_ns;
  }
  std::map<std::string, Self> out;
  for (size_t i = 0; i < records_.size(); ++i) {
    const Record& r = records_[i];
    Self& s = out[r.name];
    s.ms += static_cast<double>(r.end_ns - r.start_ns - child_ns[i]) / 1e6;
    ++s.calls;
  }
  return out;
}

double Tracer::root_covered_ms(Clock::time_point from,
                               Clock::time_point to) const {
  const auto rel = [&](Clock::time_point t) {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(t - epoch_)
        .count();
  };
  const int64_t lo = rel(from), hi = rel(to);
  int64_t covered = 0;
  for (const Record& r : records_) {
    if (r.parent >= 0) continue;
    covered += std::max<int64_t>(
        0, std::min(r.end_ns, hi) - std::max(r.start_ns, lo));
  }
  return static_cast<double>(covered) / 1e6;
}

void Tracer::write_chrome_json(const std::string& path) const {
  std::ofstream os(path);
  if (!os) desyn::fail("cannot write trace file ", path);
  os << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n";
  char buf[96];
  for (size_t i = 0; i < records_.size(); ++i) {
    const Record& r = records_[i];
    os << "{\"name\": \"" << desyn::json::escape(r.name)
       << "\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1";
    std::snprintf(buf, sizeof buf, ", \"ts\": %.3f, \"dur\": %.3f",
                  static_cast<double>(r.start_ns) / 1e3,
                  static_cast<double>(r.end_ns - r.start_ns) / 1e3);
    os << buf << ", \"args\": {\"op\": " << r.op << ", \"id\": " << i
       << ", \"parent\": " << r.parent << "}}"
       << (i + 1 < records_.size() ? ",\n" : "\n");
  }
  os << "]}\n";
  if (!os) desyn::fail("short write to trace file ", path);
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double geomean(const std::vector<double>& v) {
  if (v.empty()) return 0;
  double s = 0;
  for (double x : v) s += std::log(x);
  return std::exp(s / static_cast<double>(v.size()));
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

double timed_rounds(double seconds, Phase& p,
                    const std::function<void(Phase&)>& round) {
  const Clock::time_point t0 = Clock::now();
  double elapsed = 0;
  do {
    round(p);
    ++p.rounds;
    elapsed = ms_between(t0, Clock::now());
  } while (elapsed < seconds * 1000.0);
  return elapsed;
}

double per_call(const std::map<std::string, Tracer::Self>& self,
                const std::string& span) {
  auto it = self.find(span);
  return it == self.end() || it->second.calls == 0
             ? 0.0
             : it->second.ms / static_cast<double>(it->second.calls);
}

std::map<std::string, Tracer::Self> run_phases(
    const Args& a, double setup_s, Tracer& tr, Outcome& out,
    const std::function<void(Phase&)>& round) {
  const bool traced = !a.trace_path.empty();
  Phase p;
  const double wall_ms = timed_rounds(traced ? a.seconds / 2 : a.seconds, p,
                                      round);
  const double ops_per_s = static_cast<double>(p.ops) / (wall_ms / 1000.0);
  out.end_to_end = {
      {"setup_s", "s", setup_s},
      {"latency_ms.p50", "ms", quantile(p.lat, 0.5)},
      {"latency_ms.p90", "ms", quantile(p.lat, 0.9)},
      {"ops_per_s", "1/s", ops_per_s},
      {"kcells_per_s", "kcell/s", p.cells / 1000.0 / (wall_ms / 1000.0)},
  };
  std::printf("timed phase: %llu operations in %llu rounds, %.1f ms\n",
              static_cast<unsigned long long>(p.ops),
              static_cast<unsigned long long>(p.rounds), wall_ms);
  if (!traced) return {};

  Phase tp;
  tp.traced = true;
  tr.arm();
  const Clock::time_point from = Clock::now();
  const double phase_ms = timed_rounds(a.seconds / 2, tp, round);
  const Clock::time_point to = Clock::now();
  const double traced_ops_per_s =
      static_cast<double>(tp.ops) / (phase_ms / 1000.0);

  tr.write_chrome_json(a.trace_path);
  std::map<std::string, Tracer::Self> self = tr.self_times();
  std::vector<std::pair<std::string, Tracer::Self>> rows(self.begin(),
                                                         self.end());
  std::sort(rows.begin(), rows.end(), [](const auto& x, const auto& y) {
    return x.second.ms > y.second.ms;
  });
  std::printf("\nper-layer self time over a %.0f ms traced phase (%zu spans, "
              "written to %s)\n",
              phase_ms, tr.records().size(), a.trace_path.c_str());
  std::printf("  %-22s %12s %8s %7s\n", "span", "self ms", "calls", "share");
  for (const auto& [name, s] : rows) {
    std::printf("  %-22s %12.2f %8zu %6.1f%%\n", name.c_str(), s.ms, s.calls,
                100.0 * s.ms / phase_ms);
  }
  const double unattributed =
      100.0 * (1.0 - tr.root_covered_ms(from, to) / phase_ms);
  const double overhead = 100.0 * (1.0 - traced_ops_per_s / ops_per_s);
  std::printf("  unattributed: %.2f%% of the timed phase\n", unattributed);
  std::printf("  tracing overhead: %.2f%% (ops_per_s traced %.3f vs "
              "untraced %.3f)\n",
              overhead, traced_ops_per_s, ops_per_s);
  out.per_layer.push_back({"trace.unattributed_pct", "%", unattributed});
  out.per_layer.push_back({"trace.overhead_pct", "%", overhead});
  return self;
}

}  // namespace perfbench
