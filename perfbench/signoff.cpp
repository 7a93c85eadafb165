// signoff: one design's verdict per operation — Engine::desynchronize, then
// check::lint, then flow::optimize_margins (256 Monte-Carlo samples), then
// verif::check_flow_equivalence of the margin-shaved design on the serial
// simulator. For the DLX the verdict adds an architectural comparison of
// the shaved, desynchronized processor against dlx::Iss.
//
// Inputs: the scaling suite, the DLX running a seeded dlx/programs
// workload, and a 50-group (102-bank) register fabric; operations cycle
// through the four protocols. The seed picks the DLX program, the
// Monte-Carlo seed and the flow-equivalence stimulus. The flow calls share
// the process-wide engine, as desyn_cli's commands do.
//
// Traced operations also run a direct simulation of each shaved design for
// a fixed number of environment rounds (sim.events, sim.kevents_per_s).
#include <cmath>
#include <cstdio>
#include <functional>

#include "base/rng.h"
#include "bench.h"
#include "check/check.h"
#include "circuits/circuits.h"
#include "dlx/cpu_builder.h"
#include "dlx/programs.h"
#include "flow/engine.h"
#include "flow/mc.h"
#include "netlist/query.h"
#include "sim/sim.h"
#include "verif/flow_equivalence.h"

namespace perfbench {
namespace {

using namespace desyn;

constexpr int kFlowEqRounds = 16;
constexpr int kDirectRounds = 10;
constexpr int kDlxCycles = 380;  // covers every program below (halt spin)

struct Design {
  std::string name;
  circuits::Circuit c;
  flow::DesyncOptions opt;
  size_t cells = 0;
  std::vector<uint32_t> program;  ///< DLX only
};

struct Inputs {
  std::vector<Design> designs;
};

Inputs make_inputs(uint64_t seed) {
  CounterRng rng(seed, 4);
  Inputs in;
  auto add = [&](std::string name, circuits::Circuit c) {
    Design d{std::move(name), std::move(c), {}, 0, {}};
    d.opt.protocol = ctl::kAllProtocols[in.designs.size() % 4];
    d.cells = d.c.netlist.num_live_cells();
    in.designs.push_back(std::move(d));
  };
  for (circuits::Suite& s : circuits::scaling_suite()) {
    add(s.name, std::move(s.circuit));
  }
  add("mesh5x10x1", circuits::register_mesh(5, 10, 1));
  const int n = 6 + static_cast<int>(rng.below(5));
  std::vector<uint32_t> program = rng.flip() ? dlx::fibonacci_program(n)
                                             : dlx::checksum_program(n);
  nl::Netlist dlx_nl("dlx");
  const dlx::DlxInfo info = dlx::build_dlx(dlx_nl, dlx::DlxConfig{}, program);
  add("dlx", {std::move(dlx_nl), info.clk});
  in.designs.back().program = std::move(program);
  return in;
}

/// Simulates a desynchronized netlist with every primary input held low
/// until the environment bank's enable has fallen `rounds` times, then hands
/// the simulator to `inspect`. Returns the events processed.
uint64_t simulate(const flow::DesyncResult& r, const cell::Tech& tech,
                  uint64_t rounds,
                  const std::function<void(const sim::Simulator&)>& inspect) {
  sim::Simulator sim(r.netlist, tech);
  for (nl::NetId in : r.netlist.inputs()) sim.set_input(in, cell::V::V0, 0);
  uint64_t seen = 0;
  sim.watch(r.env_src_enable(), [&seen](Ps, cell::V v) {
    if (v == cell::V::V0) ++seen;
  });
  Ps t = 0;
  while (seen < rounds) {
    const uint64_t before = seen;
    t += 1'000'000;
    sim.run_until(t);
    if (seen == before) fail("desynchronized circuit made no progress");
  }
  if (inspect) inspect(sim);
  return sim.events_processed();
}

/// The shaved, desynchronized DLX runs the program; its register file and
/// data memory must equal the ISS's after the same number of instructions.
bool dlx_matches_iss(const Design& d, const flow::DesyncResult& r,
                     const cell::Tech& tech, uint64_t* events) {
  const dlx::DlxConfig cfg;
  dlx::Iss iss(cfg, d.program);
  iss.run(kDlxCycles);
  nl::CellId dmem;
  for (nl::CellId c : r.netlist.cells()) {
    if (r.netlist.cell(c).kind == cell::Kind::Ram) dmem = c;
  }
  bool match = true;
  *events += simulate(r, tech, kDlxCycles + 10, [&](const sim::Simulator& sim) {
    for (int reg = 1; reg < cfg.regs; ++reg) {
      std::vector<nl::NetId> bits;
      for (int i = 0; i < 32; ++i) {
        bits.push_back(dlx::reg_bit_net(r.netlist, reg, i));
      }
      bool has_x = false;
      match &= sim::read_word(sim, bits, &has_x) == iss.reg(reg) && !has_x;
    }
    for (uint32_t a = 0; a < (1u << cfg.dmem_bits); ++a) {
      match &= sim.ram_word(dmem, a) == iss.dmem(a);
    }
  });
  return match;
}

/// What one verdict produced; later rounds must reproduce it exactly.
struct Verdict {
  size_t lint_errors = 0;
  size_t paths_checked = 0;
  std::vector<double> margins;
  bool equivalent = false;
  uint64_t setup_violations = 0;
  size_t captures = 0;
  double measured_period = 0;
  double predicted_period = 0;
  bool iss_match = true;
  bool operator==(const Verdict&) const = default;
};

flow::McOptions mc_options(uint64_t seed) {
  flow::McOptions mc;
  mc.samples = 256;
  mc.seed = seed;
  return mc;
}

}  // namespace

void run_signoff(const Args& a, Outcome& out) {
  const cell::Tech& tech = cell::Tech::generic90();
  double setup_s = 0;
  const Inputs in =
      repeated_setup(&setup_s, [&] { return make_inputs(a.seed); });
  size_t round_cells = 0;
  for (const Design& d : in.designs) round_cells += d.cells;
  std::printf("signoff: %zu designs per round, %zu input cells, seed %llu\n",
              in.designs.size(), round_cells,
              static_cast<unsigned long long>(a.seed));
  const verif::Stimulus stim = verif::random_stimulus(a.seed);
  flow::Engine& engine = flow::Engine::process(tech);

  std::vector<Verdict> first(in.designs.size());
  bool have_first = false;
  Tracer tr;
  std::map<std::string, double> sums;  // traced-phase totals

  const auto self = run_phases(a, setup_s, tr, out, [&](Phase& p) {
    for (size_t i = 0; i < in.designs.size(); ++i) {
      const Design& d = in.designs[i];
      const nl::Netlist& ff = d.c.netlist;
      tr.set_op(p.ops);
      ++out.attempted;
      ++p.ops;
      p.cells += static_cast<double>(d.cells);
      Verdict v;
      try {
        const Clock::time_point t0 = Clock::now();
        std::shared_ptr<const flow::DesyncResult> r;
        {
          Tracer::Span s(tr, "flow.engine");
          r = engine.desynchronize(ff, d.c.clock, d.opt);
        }
        {
          Tracer::Span s(tr, "check.lint");
          check::LintOptions lo;
          lo.margin = d.opt.margin;
          const check::LintReport rep = check::lint(*r, tech, lo);
          v.lint_errors = rep.errors();
          v.paths_checked = rep.paths_checked;
        }
        flow::DesyncOptions shaved = d.opt;
        {
          Tracer::Span s(tr, "flow.margins");
          const Clock::time_point tm = Clock::now();
          const flow::MarginOptResult mo = flow::optimize_margins(
              ff, d.c.clock, tech, d.opt, mc_options(a.seed));
          sums["mc.samples"] += static_cast<double>(mo.baseline.samples +
                                                    mo.optimized.samples);
          sums["mc.ms"] += ms_between(tm, Clock::now());
          shaved.margins = mo.margins;
          v.margins = mo.margins;
        }
        {
          Tracer::Span s(tr, "verif.flow_eq");
          verif::FlowEqOptions fo;
          fo.rounds = kFlowEqRounds;
          fo.desync = shaved;
          const verif::FlowEqResult eq =
              verif::check_flow_equivalence(ff, d.c.clock, stim, tech, fo);
          v.equivalent = eq.equivalent;
          v.setup_violations = eq.desync_setup_violations;
          v.captures = eq.captures_compared;
          v.measured_period = eq.desync_period;
          v.predicted_period = eq.predicted_period;
        }
        uint64_t events = 0;
        const Clock::time_point ts = Clock::now();
        if (!d.program.empty()) {
          Tracer::Span s(tr, "sim.dlx_iss");
          v.iss_match = dlx_matches_iss(
              d, *engine.desynchronize(ff, d.c.clock, shaved), tech, &events);
        }
        const double ms = ms_between(t0, Clock::now());
        if (!p.traced) p.lat.push_back(ms);
        if (p.traced) {
          Tracer::Span s(tr, "sim.direct");
          events += simulate(*engine.desynchronize(ff, d.c.clock, shaved),
                             tech, kDirectRounds, {});
          sums["sim.ms"] += ms_between(ts, Clock::now());
          sums["sim.events_all"] += static_cast<double>(events);
          if (p.rounds == 0) {
            sums["sim.events"] += static_cast<double>(events);
            sums["check.paths_checked"] +=
                static_cast<double>(v.paths_checked);
            sums["verif.captures"] += static_cast<double>(v.captures);
          }
        }
        out.check(v.lint_errors == 0, d.name + ": lint reports errors");
        out.check(v.equivalent && v.setup_violations == 0,
                  d.name + ": shaved design not flow-equivalent or has "
                           "setup violations");
        out.check(v.iss_match, d.name + ": DLX state differs from the ISS");
        if (!have_first) {
          first[i] = v;
        } else if (!(v == first[i])) {
          out.check(false, d.name + ": verdict differs between rounds");
        }
      } catch (const std::exception& e) {
        ++out.failed;
        out.check(false, d.name + ": " + e.what());
      }
    }
    have_first = true;
  });
  if (!a.trace_path.empty()) {
    for (const char* n :
         {"flow.engine", "check.lint", "flow.margins", "verif.flow_eq"}) {
      out.per_layer.push_back({std::string(n) + "_ms", "ms", per_call(self, n)});
    }
    out.per_layer.push_back({"pn.mc_samples_per_s", "1/s",
                             sums["mc.samples"] / (sums["mc.ms"] / 1e3)});
    out.per_layer.push_back({"sim.kevents_per_s", "kevent/s",
                             sums["sim.events_all"] / sums["sim.ms"]});
    for (const char* c : {"sim.events", "check.paths_checked",
                          "verif.captures"}) {
      out.per_layer.push_back({c, "count", sums[c]});
    }
  }

  // ---- checks, outside the timed phases ----------------------------------
  // The unshaved design must be flow-equivalent too, and the shaved one
  // must lint clean at its per-bank margins.
  std::vector<double> measured, predicted, area_ratios;
  std::printf("\n  %-14s %-15s %12s %12s %7s\n", "design", "protocol",
              "measured ps", "predicted ps", "ratio");
  for (size_t i = 0; i < in.designs.size(); ++i) {
    const Design& d = in.designs[i];
    const Verdict& v = first[i];
    if (!v.equivalent) continue;  // failed operation, already reported
    const nl::Netlist& ff = d.c.netlist;
    verif::FlowEqOptions fo;
    fo.rounds = kFlowEqRounds;
    fo.desync = d.opt;
    const verif::FlowEqResult eq =
        verif::check_flow_equivalence(ff, d.c.clock, stim, tech, fo);
    out.check(eq.equivalent && eq.desync_setup_violations == 0,
              d.name + ": unshaved design not flow-equivalent");
    flow::DesyncOptions shaved = d.opt;
    shaved.margins = v.margins;
    const flow::DesyncResult r =
        flow::desynchronize_reference(ff, d.c.clock, tech, shaved);
    check::LintOptions lo;
    lo.margin = shaved.margin;
    lo.margins = shaved.margins;
    out.check(check::lint(r, tech, lo).errors() == 0,
              d.name + ": shaved design has lint errors");
    measured.push_back(v.measured_period);
    predicted.push_back(v.predicted_period);
    area_ratios.push_back(nl::stats(r.netlist, tech).area /
                          nl::stats(ff, tech).area);
    std::printf("  %-14s %-15s %12.1f %12.1f %7.3f\n", d.name.c_str(),
                ctl::protocol_name(d.opt.protocol), v.measured_period,
                v.predicted_period, v.measured_period / v.predicted_period);
  }
  out.per_layer.push_back({"qor.measured_period_ps", "ps", geomean(measured)});
  out.end_to_end.push_back(
      {"qor.predicted_period_ps", "ps", geomean(predicted)});
  out.end_to_end.push_back({"qor.area_ratio", "ratio", geomean(area_ratios)});
}

}  // namespace perfbench
