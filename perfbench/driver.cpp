// perfbench_driver — runs one benchmark workload and reports its metrics.
//
//   perfbench_driver --workload <cold-compile|serve-edit|signoff>
//                    [--seed N] [--seconds S] [--trace <path>]
//
// Prints a human-readable report, then as its last line one JSON object:
//   {"correct": ..., "attempted": N, "failed": N, "metrics": {...}}
// Untraced runs report the end-to-end metrics. A --trace run measures an
// untraced half and a traced half of the timed phase, writes the spans to
// <path> (Chrome trace-event JSON) and reports the per-layer metrics.
// Exit status: 0 when every check passed, 1 when a check failed, 2 on a
// usage error.
#include <malloc.h>

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>

#include "bench.h"
#include "base/common.h"

using namespace perfbench;

namespace {

struct MetricSpec {
  const char* name;
  const char* unit;
};

// Every run reports all of its table's metrics; BENCHMARK.json lists the
// same names. Per-layer metrics of a layer a workload never calls read 0.
constexpr MetricSpec kEndToEnd[] = {
    {"setup_s", "s"},
    {"peak_rss_mb", "MB"},
    {"latency_ms.p50", "ms"},
    {"latency_ms.p90", "ms"},
    {"ops_per_s", "1/s"},
    {"kcells_per_s", "kcell/s"},
    {"qor.predicted_period_ps", "ps"},
    {"qor.area_ratio", "ratio"},
};

constexpr MetricSpec kPerLayer[] = {
    {"ctl.synth_ms", "ms"},
    {"ctl.cells_added", "count"},
    {"core.latchify_ms", "ms"},
    {"core.adjacency_ms", "ms"},
    {"core.partition_ms", "ms"},
    {"core.optimize_ms", "ms"},
    {"core.candidates", "count"},
    {"pn.mcr_ms", "ms"},
    {"netlist.write_ms", "ms"},
    {"netlist.write_mb_per_s", "MB/s"},
    {"netlist.read_ms", "ms"},
    {"netlist.read_mb_per_s", "MB/s"},
    {"netlist.hash_ms", "ms"},
    {"flow.engine_ms", "ms"},
    {"flow.overhead_ms", "ms"},
    {"flow.hit_ms", "ms"},
    {"flow.eco_ms", "ms"},
    {"flow.cold_ms", "ms"},
    {"flow.result_hits", "count"},
    {"flow.adjacency_eco", "count"},
    {"flow.eco_banks_retimed", "count"},
    {"flow.synth_runs", "count"},
    {"flow.synth_patched", "count"},
    {"flow.mcr_warm", "count"},
    {"flow.lint_runs", "count"},
    {"flow.store_hit_ratio", "ratio"},
    {"svc.handle_ms", "ms"},
    {"svc.transport_ms", "ms"},
    {"svc.response_mb", "MB"},
    {"base.json_parse_ms", "ms"},
    {"base.json_escape_ms", "ms"},
    {"check.lint_ms", "ms"},
    {"check.paths_checked", "count"},
    {"flow.margins_ms", "ms"},
    {"pn.mc_samples_per_s", "1/s"},
    {"verif.flow_eq_ms", "ms"},
    {"verif.captures", "count"},
    {"sim.events", "count"},
    {"sim.kevents_per_s", "kevent/s"},
    {"qor.measured_period_ps", "ps"},
    {"trace.unattributed_pct", "%"},
    {"trace.overhead_pct", "%"},
};

int usage(const char* why) {
  if (why) std::fprintf(stderr, "perfbench_driver: %s\n", why);
  std::fprintf(stderr,
               "usage: perfbench_driver --workload "
               "<cold-compile|serve-edit|signoff>\n"
               "                        [--seed N] [--seconds S] "
               "[--trace <path>]\n");
  return 2;
}

/// Whole-string unsigned parse; false on anything else.
bool parse_u64(const char* s, uint64_t* v) {
  if (!*s || *s == '-') return false;
  char* end = nullptr;
  errno = 0;
  *v = std::strtoull(s, &end, 10);
  return errno == 0 && *end == '\0';
}

bool parse_seconds(const char* s, double* v) {
  char* end = nullptr;
  *v = std::strtod(s, &end);
  return *s && *end == '\0' && *v > 0 && *v <= 3600;
}

void print_metrics(const std::vector<Metric>& got, const MetricSpec* spec,
                   size_t n, bool fill_zero, Outcome& out, std::string& js) {
  std::map<std::string, Metric> by_name;
  for (const Metric& m : got) by_name[m.name] = m;
  for (size_t i = 0; i < n; ++i) {
    auto it = by_name.find(spec[i].name);
    if (it == by_name.end() && !fill_zero) {
      out.check(false, desyn::cat("metric ", spec[i].name, " not measured"));
      continue;
    }
    const double v = it == by_name.end() ? 0.0 : it->second.value;
    std::printf("metric %-26s %16.6f %s\n", spec[i].name, v, spec[i].unit);
    char buf[160];
    std::snprintf(buf, sizeof buf, "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  js.empty() ? "" : ", ", spec[i].name, v, spec[i].unit);
    js += buf;
  }
}

}  // namespace

int main(int argc, char** argv) {
  // One malloc arena for every thread: with per-thread arenas the in-process
  // server's worker threads make peak RSS (and with it the page-fault cost)
  // depend on which arena a round happens to reuse.
  mallopt(M_ARENA_MAX, 1);
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string f = argv[i];
    if (f == "--help" || f == "-h") {
      usage(nullptr);
      return 0;
    }
    if (i + 1 >= argc) return usage(("missing value for " + f).c_str());
    const char* v = argv[++i];
    if (f == "--workload") {
      a.workload = v;
    } else if (f == "--seed") {
      if (!parse_u64(v, &a.seed)) return usage("--seed needs an unsigned integer");
    } else if (f == "--seconds") {
      if (!parse_seconds(v, &a.seconds)) {
        return usage("--seconds needs a number in (0, 3600]");
      }
    } else if (f == "--trace") {
      a.trace_path = v;
      if (a.trace_path.empty()) return usage("--trace needs a path");
    } else {
      return usage(("unknown flag " + f).c_str());
    }
  }
  static const std::map<std::string, void (*)(const Args&, Outcome&)>
      kWorkloads = {{"cold-compile", run_cold_compile},
                    {"serve-edit", run_serve_edit},
                    {"signoff", run_signoff}};
  const auto workload = kWorkloads.find(a.workload);
  if (workload == kWorkloads.end()) {
    return usage("unknown or missing --workload");
  }

  Outcome out;
  try {
    workload->second(a, out);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_driver: %s\n", e.what());
    return 1;
  }
  out.end_to_end.push_back({"peak_rss_mb", "MB", peak_rss_mb()});

  std::printf("\n%s metrics (seed %llu, %s)\n", a.workload.c_str(),
              static_cast<unsigned long long>(a.seed),
              a.trace_path.empty() ? "untraced" : "traced");
  std::string e2e, layer;
  print_metrics(out.end_to_end, kEndToEnd, std::size(kEndToEnd), false, out,
                e2e);
  if (!a.trace_path.empty()) {
    print_metrics(out.per_layer, kPerLayer, std::size(kPerLayer), true, out,
                  layer);
  } else {
    for (const Metric& m : out.per_layer) {  // measured without tracing
      std::printf("metric %-26s %16.6f %s\n", m.name.c_str(), m.value,
                  m.unit.c_str());
    }
  }
  for (const std::string& f : out.failures) {
    std::printf("CHECK FAILED: %s\n", f.c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {%s}}\n",
              out.correct ? "true" : "false",
              static_cast<unsigned long long>(out.attempted),
              static_cast<unsigned long long>(out.failed),
              a.trace_path.empty() ? e2e.c_str() : layer.c_str());
  std::fflush(stdout);
  return out.correct ? 0 : 1;
}
