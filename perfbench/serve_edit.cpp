// serve-edit: one desyn-svc-v1 round trip to an in-process svc::Server
// (memory tier only, default options) per operation, from one client
// connection in a closed loop.
//
// Inputs: a seeded, pre-generated request stream over a pool of 18 designs
// of 0.1k-1k cells (make_stream() has the schedule). About half the
// requests resubmit a design's latest version unchanged, most of the rest
// carry one single-cell field edit of it (Buf<->Inv, Xor<->Xnor, a
// flip-flop's init value), each design's first request is a first-time
// submission, and 5% ask for lint. The pool's artifacts outnumber the
// engine's default 96-entry store. A round replays the whole stream against
// a fresh server, so every round does the same work.
//
// Traced rounds replay each request a second time on a shadow server that
// is never started: its public parts (json::parse, nl::read_verilog,
// nl::content_hash, Engine::run, Engine::lint, json::escape) are timed one
// by one. The shadow engine sees exactly the request sequence the served
// engine sees, so its cache state is the same; the served round trip minus
// the shadow's handling time is the transport time.
#include <unistd.h>

#include <cstdio>
#include <map>

#include "base/json.h"
#include "base/rng.h"
#include "bench.h"
#include "circuits/circuits.h"
#include "flow/engine.h"
#include "netlist/hash.h"
#include "netlist/query.h"
#include "netlist/reader.h"
#include "netlist/writer.h"
#include "svc/client.h"
#include "svc/server.h"

namespace perfbench {
namespace {

using namespace desyn;

struct Request {
  std::string line;
  size_t design = 0;  ///< index into the design pool
  size_t cells = 0;
  bool lint = false;
};

struct Stream {
  std::vector<Request> requests;
  size_t designs = 0;
};

std::vector<circuits::Circuit> design_pool(uint64_t seed) {
  CounterRng rng(seed, 2);
  std::vector<circuits::Circuit> p;
  p.push_back(circuits::register_mesh(16, 16, 1));
  p.push_back(circuits::register_mesh(12, 12, 1));
  p.push_back(circuits::register_mesh(8, 8, 2));
  p.push_back(circuits::register_mesh(10, 6, 1));
  p.push_back(circuits::random_pipeline(rng.next(), 32, 8));
  p.push_back(circuits::random_pipeline(rng.next(), 48, 4));
  p.push_back(circuits::random_pipeline(rng.next(), 24, 6));
  p.push_back(circuits::pipeline(8, 16, 3));
  p.push_back(circuits::pipeline(4, 8, 2));
  p.push_back(circuits::pipeline(12, 12, 2));
  p.push_back(circuits::fir_filter(8, 12));
  p.push_back(circuits::fir_filter(6, 8));
  p.push_back(circuits::lfsr(16));
  p.push_back(circuits::lfsr(32));
  p.push_back(circuits::lfsr(64));
  p.push_back(circuits::crc32());
  p.push_back(circuits::counter_bank(4, 8));
  p.push_back(circuits::counter_bank(8, 6));
  return p;
}

/// Cells a field-only edit may touch: kind flips within one pin structure,
/// and flip-flop init values.
std::vector<nl::CellId> editable_cells(const nl::Netlist& n) {
  std::vector<nl::CellId> out;
  for (nl::CellId c : n.cells()) {
    switch (n.cell(c).kind) {
      case cell::Kind::Buf:
      case cell::Kind::Inv:
      case cell::Kind::Xor:
      case cell::Kind::Xnor:
      case cell::Kind::Dff:
        out.push_back(c);
        break;
      default:
        break;
    }
  }
  return out;
}

void edit_cell(nl::Netlist& n, nl::CellId c) {
  switch (n.cell(c).kind) {
    case cell::Kind::Buf: n.set_kind(c, cell::Kind::Inv); break;
    case cell::Kind::Inv: n.set_kind(c, cell::Kind::Buf); break;
    case cell::Kind::Xor: n.set_kind(c, cell::Kind::Xnor); break;
    case cell::Kind::Xnor: n.set_kind(c, cell::Kind::Xor); break;
    default:
      n.set_init(c, n.cell(c).init == cell::V::V0 ? cell::V::V1
                                                  : cell::V::V0);
  }
}

// The stream is a fixed schedule of waves. The seed picks the random
// pipelines' contents, each design's margin and the edited cells, not the
// schedule, so the share of requests each engine path answers is the same
// for every seed. Wave 0 submits every design for the first time. In each
// later wave every cold design is requested once, alternating between a
// single-cell edit and an exact resubmit of its latest version; a cold
// design's artifacts have left the 96-entry store by its next turn. Between
// every two cold requests comes a hot design, requested twice a wave, which
// stays cached: its resubmits are result-cache hits, and every third of its
// requests is an edit. Lint rides on a fixed set of requests (5%).
constexpr size_t kWaves = 13;
constexpr size_t kHot = 3;  // design_pool()'s first kHot designs

Stream make_stream(uint64_t seed) {
  CounterRng rng(seed, 3);
  std::vector<circuits::Circuit> pool = design_pool(seed);
  std::vector<std::vector<nl::CellId>> editable;
  for (const circuits::Circuit& c : pool) {
    editable.push_back(editable_cells(c.netlist));
  }
  Stream s;
  s.designs = pool.size();
  // Each design is served at its own seeded matched-delay margin.
  std::vector<double> margin;
  for (size_t d = 0; d < pool.size(); ++d) {
    margin.push_back(1.05 + 0.01 * static_cast<double>(rng.below(16)));
  }
  auto request = [&](size_t d, bool edit) {
    if (edit) {
      const auto& cand = editable[d];
      edit_cell(pool[d].netlist, cand[rng.below(cand.size())]);
    }
    Request r;
    r.design = d;
    const circuits::Circuit& c = pool[d];
    r.cells = c.netlist.num_live_cells();
    r.lint = s.requests.size() % 20 == 7;
    r.line = svc::make_request(nl::to_verilog(c.netlist),
                               c.netlist.net(c.clock).name, "prefix",
                               margin[d], "pulse");
    if (r.lint) r.line.insert(r.line.size() - 1, ", \"lint\": true");
    s.requests.push_back(std::move(r));
  };
  for (size_t d = 0; d < pool.size(); ++d) request(d, false);
  size_t hot_turn = 0;
  for (size_t wave = 1; wave < kWaves; ++wave) {
    for (size_t d = kHot; d < pool.size(); ++d) {
      request(d, (wave + d) % 2 == 0);
      if (d % 2 == 1) {
        request(hot_turn % kHot, hot_turn % 3 == 2);
        ++hot_turn;
      }
    }
  }
  return s;
}

/// The served round trip's parts, replayed on the shadow server: returns
/// its handling time (ms) and records the per-part spans and sizes.
double shadow_handle(Tracer& tr, svc::Server& shadow, const Request& r,
                     std::map<std::string, double>& sums) {
  double handle = 0;
  auto timed = [&](const char* name, auto&& f) {
    Tracer::Span s(tr, name);
    const Clock::time_point t0 = Clock::now();
    f();
    const double ms = ms_between(t0, Clock::now());
    return ms;
  };
  json::Value req;
  handle += timed("base.json_parse", [&] { req = json::parse(r.line); });
  const std::string& text = req.get("verilog")->string;
  nl::Netlist ff("");
  const double read = timed("netlist.read", [&] {
    ff = nl::read_verilog(text, "<request>");
  });
  handle += read;
  sums["netlist.read_bytes"] += static_cast<double>(text.size());
  sums["netlist.read_ms"] += read;
  const nl::NetId clock = ff.find_net(req.get_string("clock"));
  // Measured for the hash layer only: Engine::run hashes internally, so
  // this call is not part of the handling time.
  timed("netlist.hash", [&] { (void)nl::content_hash(ff); });

  flow::Engine& engine = shadow.engine();
  flow::DesyncOptions opt;  // prefix strategy and pulse protocol
  opt.margin = req.get_number("margin", 0);
  const flow::StageCounters before = engine.counters();
  flow::FlowOutcome out;
  {
    Tracer::Span s(tr, "flow.engine");
    const Clock::time_point t0 = Clock::now();
    out = engine.run(ff, clock, opt);
    handle += ms_between(t0, Clock::now());
    const flow::StageCounters after = engine.counters();
    if (after.result_hits > before.result_hits) {
      s.rename("flow.hit");
    } else if (after.adjacency_eco > before.adjacency_eco ||
               after.synth_patched > before.synth_patched) {
      s.rename("flow.eco");
    } else {
      s.rename("flow.cold");
    }
  }
  if (r.lint) {
    handle += timed("check.lint", [&] { (void)engine.lint(ff, clock, opt); });
  }
  handle += timed("base.json_escape", [&] { (void)json::escape(*out.verilog); });
  return handle;
}

}  // namespace

void run_serve_edit(const Args& a, Outcome& out) {
  const cell::Tech& tech = cell::Tech::generic90();
  double setup_s = 0;
  const Stream stream =
      repeated_setup(&setup_s, [&] { return make_stream(a.seed); });
  const std::vector<Request>& reqs = stream.requests;
  size_t lints = 0;
  for (const Request& r : reqs) lints += r.lint;
  std::printf("serve-edit: %zu requests per round (%zu designs, %zu with "
              "lint), seed %llu\n",
              reqs.size(), stream.designs, lints,
              static_cast<unsigned long long>(a.seed));

  // Relative to the working directory: a unix socket path is limited to
  // 108 bytes, and the checkout's absolute path may be longer.
  const std::string sock = cat("perfbench-", getpid(), ".sock");
  std::vector<std::string> first;  // first-round responses
  Tracer tr;
  std::map<std::string, double> sums;  // traced-phase totals

  const auto self = run_phases(a, setup_s, tr, out, [&](Phase& p) {
    svc::ServerOptions so;
    so.socket_path = sock;
    so.threads = 1;
    svc::Server server(tech, so);
    svc::Server shadow(tech, so);  // never started
    server.start();
    svc::Client client(sock);
    const bool record = first.empty();
    for (size_t i = 0; i < reqs.size(); ++i) {
      const Request& r = reqs[i];
      tr.set_op(p.ops);
      ++out.attempted;
      ++p.ops;
      p.cells += static_cast<double>(r.cells);
      std::string resp;
      double ms = 0;
      try {
        Tracer::Span s(tr, "svc.roundtrip");
        const Clock::time_point t0 = Clock::now();
        resp = client.roundtrip(r.line);
        ms = ms_between(t0, Clock::now());
      } catch (const std::exception& e) {
        resp = cat("{\"error\": \"", e.what(), "\"}");
      }
      const bool ok = resp.find("\"result\"") != std::string::npos;
      if (!ok) {
        ++out.failed;
        out.check(false, cat("request ", i, ": ", resp.substr(0, 200)));
      }
      if (!p.traced && ok) p.lat.push_back(ms);
      if (p.traced && ok) {
        const double handle = shadow_handle(tr, shadow, r, sums);
        sums["svc.ops"] += 1;
        sums["svc.handle"] += handle;
        sums["svc.transport"] += ms - handle;
        sums["svc.response_bytes"] += static_cast<double>(resp.size());
      }
      if (record) {
        first.push_back(std::move(resp));
      } else if (resp != first[i]) {
        out.check(false, cat("request ", i, ": response differs between "
                             "rounds"));
      }
    }
    if (p.traced && p.rounds == 0) {
      // Engine counters over one round of the stream (repeat exactly).
      const flow::StageCounters c = server.engine().counters();
      const flow::ArtifactStore::Stats st = server.engine().store_stats();
      const std::pair<const char*, size_t> counts[] = {
          {"flow.result_hits", c.result_hits},
          {"flow.adjacency_eco", c.adjacency_eco},
          {"flow.eco_banks_retimed", c.eco_banks_retimed},
          {"flow.synth_runs", c.synth_runs},
          {"flow.synth_patched", c.synth_patched},
          {"flow.mcr_warm", c.mcr_warm},
          {"flow.lint_runs", c.lint_runs},
      };
      for (const auto& [name, v] : counts) {
        out.per_layer.push_back({name, "count", static_cast<double>(v)});
      }
      out.per_layer.push_back({"flow.store_hit_ratio", "ratio",
                               static_cast<double>(st.hits) /
                                   static_cast<double>(st.hits + st.misses)});
    }
    server.stop();
  });
  if (!a.trace_path.empty()) {
    for (const char* n : {"base.json_parse", "base.json_escape",
                          "netlist.read", "netlist.hash", "flow.hit",
                          "flow.eco", "flow.cold", "check.lint"}) {
      out.per_layer.push_back({std::string(n) + "_ms", "ms", per_call(self, n)});
    }
    const double n = sums["svc.ops"];
    out.per_layer.push_back({"svc.handle_ms", "ms", sums["svc.handle"] / n});
    out.per_layer.push_back(
        {"svc.transport_ms", "ms", sums["svc.transport"] / n});
    out.per_layer.push_back(
        {"svc.response_mb", "MB", sums["svc.response_bytes"] / 1e6 / n});
    out.per_layer.push_back(
        {"netlist.read_mb_per_s", "MB/s",
         sums["netlist.read_bytes"] / 1e6 / (sums["netlist.read_ms"] / 1e3)});
  }

  // ---- checks, outside the timed phases ----------------------------------
  // Every distinct request, answered by a fresh server (a cold Engine::run
  // on a fresh engine), must give the served result object byte for byte.
  // The qor figures are taken over the designs, each at its last version
  // in the stream, so that the seeded request mix does not weight them.
  std::map<std::string, std::string> cold;  // request line -> result object
  std::map<size_t, size_t> last;  // design -> its last request
  for (size_t i = 0; i < first.size(); ++i) {
    const Request& r = reqs[i];
    auto it = cold.find(r.line);
    if (it == cold.end()) {
      svc::ServerOptions so;
      so.socket_path = sock;
      svc::Server fresh(tech, so);
      it = cold.emplace(r.line, svc::extract_result(fresh.handle_request(r.line)))
               .first;
    }
    std::string served;
    try {
      served = svc::extract_result(first[i]);
    } catch (const std::exception&) {
      continue;  // already counted as a failed operation
    }
    out.check(served == it->second,
              cat("request ", i, ": served result differs from a cold run"));
    last[r.design] = i;
  }
  std::vector<double> periods, area_ratios;
  for (const auto& [design, i] : last) {
    const json::Value res = json::parse(svc::extract_result(first[i]));
    periods.push_back(res.get_number("predicted_period_ps", 0));
    const nl::Netlist back =
        nl::read_verilog(res.get_string("verilog"), "<result>");
    const nl::Netlist in = nl::read_verilog(
        json::parse(reqs[i].line).get_string("verilog"), "<request>");
    area_ratios.push_back(nl::stats(back, tech).area /
                          nl::stats(in, tech).area);
  }
  out.end_to_end.push_back(
      {"qor.predicted_period_ps", "ps", geomean(periods)});
  out.end_to_end.push_back({"qor.area_ratio", "ratio", geomean(area_ratios)});
}

}  // namespace perfbench
