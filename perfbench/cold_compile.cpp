// cold-compile: one flow::Engine::run on a fresh engine per operation —
// what every `desyn_cli` compile pays. No cache, socket, simulator or lint.
//
// Inputs: a fixed mix of generated designs from ~0.1k to ~20k cells whose
// seeded parts are the random pipelines' seeds, the three DLX programs, each
// design's matched-delay margin (1.05-1.20) and the order of a round.
// Operations cycle through the four protocols at the prefix strategy; a
// fixed minority (three small designs) use auto:1.05. The three DLX builds
// cost about the same and sit at the middle of the latency distribution, so
// that the median falls inside a cluster rather than in a gap between two
// designs.
//
// Traced operations also run the flow's stage functions one by one on a copy
// of the input, next to the engine call; the engine time the stages do not
// cover is flow.overhead_ms.
#include <algorithm>
#include <cmath>
#include <cstdio>

#include "base/rng.h"
#include "bench.h"
#include "circuits/circuits.h"
#include "dlx/cpu_builder.h"
#include "dlx/programs.h"
#include "flow/engine.h"
#include "netlist/hash.h"
#include "netlist/query.h"
#include "netlist/reader.h"
#include "netlist/writer.h"
#include "pn/mcr.h"

namespace perfbench {
namespace {

using namespace desyn;

struct Job {
  std::string name;
  circuits::Circuit c;
  flow::DesyncOptions opt;
  size_t cells = 0;
};

circuits::Circuit dlx_circuit(std::vector<uint32_t> program) {
  nl::Netlist n("dlx");
  const dlx::DlxInfo info = dlx::build_dlx(n, dlx::DlxConfig{}, program);
  return {std::move(n), info.clk};
}

std::vector<Job> make_jobs(uint64_t seed) {
  CounterRng rng(seed, 1);
  std::vector<Job> jobs;
  auto add = [&](const char* name, circuits::Circuit c, const char* strategy) {
    Job j{name, std::move(c), {}, 0};
    j.opt.strategy = flow::PartitionSpec::parse(strategy);
    j.opt.protocol = ctl::kAllProtocols[jobs.size() % 4];
    j.opt.margin = 1.05 + 0.01 * static_cast<double>(rng.below(16));
    jobs.push_back(std::move(j));
  };
  const auto seeded = [&] { return rng.next(); };
  const auto small = [&] { return 6 + static_cast<int>(rng.below(5)); };
  add("mesh8x8x2", circuits::register_mesh(8, 8, 2), "prefix");
  add("mesh16x16x1", circuits::register_mesh(16, 16, 1), "prefix");
  add("mesh32x32x1", circuits::register_mesh(32, 32, 1), "prefix");
  add("rpipe1024x4", circuits::random_pipeline(seeded(), 1024, 4), "prefix");
  add("rpipe256x8", circuits::random_pipeline(seeded(), 256, 8), "prefix");
  add("pipe16x32", circuits::pipeline(16, 32, 4), "prefix");
  add("fir16x16", circuits::fir_filter(16, 16), "prefix");
  add("lfsr64", circuits::lfsr(64), "prefix");
  add("crc32", circuits::crc32(), "prefix");
  add("dlx-fib", dlx_circuit(dlx::fibonacci_program(small())), "prefix");
  add("dlx-checksum", dlx_circuit(dlx::checksum_program(small())), "prefix");
  add("dlx-sort", dlx_circuit(dlx::sort_program(small() - 2)), "prefix");
  // The fixed auto minority: small designs only.
  add("fir8x12", circuits::fir_filter(8, 12), "auto:1.05");
  add("pipe8x16", circuits::pipeline(8, 16, 3), "auto:1.05");
  add("rpipe32x8", circuits::random_pipeline(seeded(), 32, 8), "auto:1.05");
  for (Job& j : jobs) j.cells = j.c.netlist.num_live_cells();
  // The seed also fixes the order of a round.
  for (size_t i = jobs.size(); i > 1; --i) {
    std::swap(jobs[i - 1], jobs[rng.below(i)]);
  }
  return jobs;
}

/// The flow's stages called one by one, as desynchronize_reference() does,
/// each under its own span; returns the summed stage time.
double traced_stages(Tracer& tr, const Job& j, const cell::Tech& tech,
                     std::map<std::string, double>& sums, bool first_round) {
  const Clock::time_point t0 = Clock::now();
  const flow::DesyncOptions& opt = j.opt;
  flow::DesyncResult r{j.c.netlist, {}, {}, {}, {}, -1, -1, opt.protocol};
  {
    Tracer::Span s(tr, "netlist.hash");
    (void)nl::content_hash(j.c.netlist);
  }
  if (opt.strategy.mode == flow::PartitionSpec::Mode::Auto) {
    Tracer::Span s(tr, "core.optimize");
    flow::PartitionOptOptions po;
    po.period_budget = opt.strategy.auto_budget;
    po.margin = opt.margin;
    po.protocol = opt.protocol;
    flow::PartitionOptResult pr =
        flow::optimize_partition(j.c.netlist, j.c.clock, tech, po);
    if (first_round) {
      sums["core.candidates"] += static_cast<double>(pr.stats.candidates);
    }
    r.partition = std::move(pr.partition);
  } else {
    Tracer::Span s(tr, "core.partition");
    r.partition = flow::make_partition(j.c.netlist, j.c.clock, opt.strategy,
                                       tech, opt.protocol, opt.margin);
  }
  {
    Tracer::Span s(tr, "core.latchify");
    r.banks = flow::latchify(r.netlist, j.c.clock, r.partition);
  }
  {
    Tracer::Span s(tr, "core.adjacency");
    flow::AdjacencyResult adj = flow::extract_control_graph(
        r.netlist, r.banks, j.c.clock, tech, flow::Margins(opt.margin),
        opt.protocol);
    r.cg = std::move(adj.cg);
    r.env_snk = adj.env_snk;
    r.env_src = adj.env_src;
  }
  {
    Tracer::Span s(tr, "ctl.synth");
    r.ctrl = flow::attach_controllers(r.netlist, r.banks, r.cg, opt.protocol,
                                      tech);
  }
  if (first_round) {
    sums["ctl.cells_added"] += static_cast<double>(r.ctrl.cells.size());
  }
  {
    Tracer::Span s(tr, "pn.mcr");
    (void)pn::max_cycle_ratio(flow::timed_control_model(r, tech));
  }
  std::string v;
  {
    Tracer::Span s(tr, "netlist.write");
    v = nl::to_verilog(r.netlist);
  }
  sums["netlist.write_bytes"] += static_cast<double>(v.size());
  return ms_between(t0, Clock::now());
}

}  // namespace

void run_cold_compile(const Args& a, Outcome& out) {
  const cell::Tech& tech = cell::Tech::generic90();
  double setup_s = 0;
  std::vector<Job> jobs =
      repeated_setup(&setup_s, [&] { return make_jobs(a.seed); });
  size_t round_cells = 0;
  for (const Job& j : jobs) round_cells += j.cells;
  std::printf("cold-compile: %zu designs per round, %zu input cells, "
              "seed %llu\n",
              jobs.size(), round_cells,
              static_cast<unsigned long long>(a.seed));

  // First-round outputs: every later round must reproduce them exactly, and
  // the checks below compare them against independent computations.
  std::vector<flow::FlowOutcome> first(jobs.size());
  bool have_first = false;
  Tracer tr;
  std::map<std::string, double> sums;  // traced-phase totals

  const auto self = run_phases(a, setup_s, tr, out, [&](Phase& p) {
    for (size_t i = 0; i < jobs.size(); ++i) {
      const Job& j = jobs[i];
      tr.set_op(p.ops);
      ++out.attempted;
      ++p.ops;
      p.cells += static_cast<double>(j.cells);
      try {
        const Clock::time_point t0 = Clock::now();
        flow::FlowOutcome o;
        {
          Tracer::Span s(tr, "flow.engine");
          flow::Engine engine(tech);
          o = engine.run(j.c.netlist, j.c.clock, j.opt);
        }
        const double ms = ms_between(t0, Clock::now());
        if (!p.traced) p.lat.push_back(ms);
        if (p.traced) {
          sums["flow.overhead"] +=
              ms - traced_stages(tr, j, tech, sums, p.rounds == 0);
        }
        if (!have_first) {
          first[i] = o;
        } else if (!first[i].verilog || *o.verilog != *first[i].verilog) {
          out.check(false, j.name + ": output differs between rounds");
        }
      } catch (const std::exception& e) {
        ++out.failed;
        out.check(false, j.name + ": " + e.what());
      }
    }
    have_first = true;
  });
  if (!a.trace_path.empty()) {
    for (const char* n : {"ctl.synth", "core.latchify", "core.adjacency",
                          "core.partition", "core.optimize", "pn.mcr",
                          "netlist.write", "netlist.hash", "flow.engine"}) {
      out.per_layer.push_back({std::string(n) + "_ms", "ms", per_call(self, n)});
    }
    const Tracer::Self& engine = self.at("flow.engine");
    const Tracer::Self& write = self.at("netlist.write");
    out.per_layer.push_back(
        {"flow.overhead_ms", "ms",
         sums["flow.overhead"] / static_cast<double>(engine.calls)});
    out.per_layer.push_back(
        {"netlist.write_mb_per_s", "MB/s",
         sums["netlist.write_bytes"] / 1e6 / (write.ms / 1000.0)});
    out.per_layer.push_back(
        {"ctl.cells_added", "count", sums["ctl.cells_added"]});
    out.per_layer.push_back(
        {"core.candidates", "count", sums["core.candidates"]});
  }

  // ---- checks, outside the timed phases ----------------------------------
  std::vector<double> periods, area_ratios;
  const auto clock_name = [](const Job& j) {
    return j.c.netlist.net(j.c.clock).name;
  };
  for (size_t i = 0; i < jobs.size(); ++i) {
    const Job& j = jobs[i];
    const flow::FlowOutcome& o = first[i];
    if (!o.verilog) continue;  // failed operation, already counted
    const std::string tag = cat(j.name, " (", ctl::protocol_name(j.opt.protocol),
                                ", ", j.opt.strategy.label(), ")");
    const nl::Netlist back = nl::read_verilog(*o.verilog, j.name);
    out.check(back.num_live_cells() == o.stats.cells_out,
              tag + ": read-back live cells differ from cells_out");
    const nl::Stats st = nl::stats(back, tech);
    out.check(st.flipflops == 0, tag + ": a flip-flop remains");
    const nl::NetId clk = back.find_net(clock_name(j));
    out.check(!clk.valid() || back.net(clk).fanout.empty(),
              tag + ": the clock net still drives cells");

    const flow::DesyncResult ref =
        flow::desynchronize_reference(j.c.netlist, j.c.clock, tech, j.opt);
    out.check(nl::to_verilog(ref.netlist) == *o.verilog,
              tag + ": Verilog differs from desynchronize_reference");
    const pn::MarkedGraph mg = flow::timed_control_model(ref, tech);
    // The binary-search reference solver is slow past a few hundred banks
    // (mesh32x32x1 takes seconds); larger designs are checked only
    // against the reference flow's Verilog.
    if (ref.cg.num_banks() <= 600) {
      const double want = pn::max_cycle_ratio_reference(mg).ratio;
      out.check(std::fabs(want - o.stats.predicted_period_ps) <= 1e-6,
                cat(tag, ": predicted period ", o.stats.predicted_period_ps,
                    " != reference MCR ", want));
    }
    periods.push_back(o.stats.predicted_period_ps);
    area_ratios.push_back(st.area / nl::stats(j.c.netlist, tech).area);
  }
  out.end_to_end.push_back(
      {"qor.predicted_period_ps", "ps", geomean(periods)});
  out.end_to_end.push_back({"qor.area_ratio", "ratio", geomean(area_ratios)});
}

}  // namespace perfbench
