// A3 — ablation: analytic vs. measured cycle time, plus the MCR solver
// benchmark. Section 1 checks that the timed protocol model's maximum
// cycle ratio predicts the event-driven simulation period. Section 2 races
// Howard's policy iteration (the production solver) against the
// binary-search reference on every suite control model and on large
// generated fabrics (thousands of transitions), asserting agreement to
// 1e-6; docs/PERF.md records the baseline numbers.
//
//   bench_mcr [--json <path>]
//
// --json writes the solver-race rows as a machine-readable report (schema
// desyn-bench-v1) so per-commit perf trajectories can be tracked; CI
// uploads it as an artifact.
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include "base/cli_args.h"
#include "circuits/circuits.h"
#include "core/desynchronizer.h"
#include "pn/mcr.h"
#include "verif/flow_equivalence.h"

using namespace desyn;
using cell::Tech;

namespace {

template <typename F>
double time_ms(F&& f, int reps) {
  auto t0 = std::chrono::steady_clock::now();
  for (int i = 0; i < reps; ++i) f();
  auto t1 = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::milli>(t1 - t0).count() / reps;
}

struct RaceRow {
  std::string model;
  size_t transitions = 0, arcs = 0;
  double howard_ms = 0, ref_ms = 0;
  double ratio = 0;
  bool agree = false;
};

/// Time both solvers on one model, verify they agree to 1e-6, print a row.
/// Returns false on disagreement (the bench then exits nonzero).
bool race_solvers(const char* name, const pn::MarkedGraph& mg, int reps_h,
                  int reps_r, std::vector<RaceRow>* rows) {
  pn::CycleRatioResult h, r;
  double th = time_ms([&] { h = pn::max_cycle_ratio(mg); }, reps_h);
  double tr = time_ms([&] { r = pn::max_cycle_ratio_reference(mg); }, reps_r);
  bool agree = std::abs(h.ratio - r.ratio) <= 1e-6 * (1.0 + h.ratio);
  printf("  %-16s %6zu %6zu %10.3f %10.3f %8.0fx  %s\n", name,
         mg.num_transitions(), mg.num_arcs(), th, tr, tr / th,
         agree ? "" : "DISAGREE");
  rows->push_back({name, mg.num_transitions(), mg.num_arcs(), th, tr, h.ratio,
                   agree});
  return agree;
}

void write_json(const std::string& path, const std::vector<RaceRow>& rows) {
  std::ofstream out(path);
  if (!out) fail("cannot write ", path);
  char buf[160];
  out << "{\n  \"schema\": \"desyn-bench-v1\",\n"
      << "  \"bench\": \"bench_mcr\",\n  \"cases\": [\n";
  for (size_t i = 0; i < rows.size(); ++i) {
    const RaceRow& r = rows[i];
    out << "    {\"model\": \"" << r.model
        << "\", \"transitions\": " << r.transitions
        << ", \"arcs\": " << r.arcs << ",";
    std::snprintf(buf, sizeof buf,
                  " \"howard_ms\": %.6f, \"reference_ms\": %.6f, "
                  "\"ratio_ps\": %.6f, \"agree\": %s",
                  r.howard_ms, r.ref_ms, r.ratio, r.agree ? "true" : "false");
    out << buf << "}" << (i + 1 < rows.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
}

}  // namespace

int main(int argc, char** argv) {
  std::string json_path;
  cli::parse_args_or_exit("bench_mcr [--json <path>]", [&] {
    for (int i = 1; i < argc; ++i) {
      std::string a = argv[i];
      if (a == "--json") {
        json_path = cli::need_value(argc, argv, i, "--json");
      } else {
        fail("unknown argument '", a, "'");
      }
    }
  });
  const Tech& t = Tech::generic90();
  printf("== A3: analytic (max-cycle-ratio) vs. measured desync period ==\n\n");
  printf("  %-16s %12s %12s %8s\n", "circuit", "analytic", "measured", "err");
  for (auto& s : circuits::scaling_suite()) {
    flow::DesyncResult dr =
        flow::desynchronize(s.circuit.netlist, s.circuit.clock, t);
    auto mcr = pn::max_cycle_ratio(flow::timed_control_model(dr, t));

    verif::FlowEqOptions opt;
    opt.rounds = 25;
    auto r = verif::check_flow_equivalence(s.circuit.netlist, s.circuit.clock,
                                           verif::random_stimulus(5), t, opt);
    double err = 100.0 * (r.desync_period - mcr.ratio) / mcr.ratio;
    printf("  %-16s %10.0fps %10.0fps %7.1f%%  %s\n", s.name.c_str(),
           mcr.ratio, r.desync_period, err,
           r.equivalent ? "" : "(NOT EQUIVALENT)");
  }
  printf("\n  the model abstracts fanout-dependent gate delays and the\n"
         "  pulse-generation path, so small positive errors are expected.\n");

  printf("\n== MCR solvers: Howard policy iteration vs. binary-search "
         "reference ==\n\n");
  printf("  %-16s %6s %6s %10s %10s %9s\n", "model", "trans", "arcs",
         "howard(ms)", "ref(ms)", "speedup");
  bool ok = true;
  std::vector<RaceRow> rows;
  for (auto& s : circuits::scaling_suite()) {
    flow::DesyncResult dr =
        flow::desynchronize(s.circuit.netlist, s.circuit.clock, t);
    pn::MarkedGraph mg = flow::timed_control_model(dr, t);
    ok &= race_solvers(s.name.c_str(), mg, 50, 5, &rows);
  }
  // Large generated fabrics: thousands of control-model transitions, the
  // regime the reference's O(64 n m) cannot survive.
  {
    auto c = circuits::register_mesh(32, 32, 1);
    flow::DesyncResult dr = flow::desynchronize(c.netlist, c.clock, t);
    ok &= race_solvers("mesh32x32x1", flow::timed_control_model(dr, t), 5, 1,
                       &rows);
  }
  {
    auto c = circuits::random_pipeline(13, 1024, 4);
    flow::DesyncResult dr = flow::desynchronize(c.netlist, c.clock, t);
    ok &= race_solvers("rpipe1024x4", flow::timed_control_model(dr, t), 5, 1,
                       &rows);
  }
  if (!json_path.empty()) write_json(json_path, rows);
  if (!ok) {
    printf("\n  SOLVER DISAGREEMENT (see rows above)\n");
    return 1;
  }
  printf("\n  both solvers agree to 1e-6 on every model; Howard's policy\n"
         "  iteration visits each arc a handful of times instead of 64\n"
         "  Bellman-Ford sweeps, hence the widening gap with size.\n");
  return 0;
}
