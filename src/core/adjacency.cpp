#include "core/adjacency.h"

#include <algorithm>
#include <cmath>
#include <unordered_map>

#include "sta/sta.h"

namespace desyn::flow {

namespace {

Ps with_margin(Ps delay, double margin) {
  return static_cast<Ps>(std::ceil(static_cast<double>(delay) * margin));
}

/// Shared machinery of full and ECO extraction: the STA, the
/// capture-endpoint watcher index, and the one-propagation-per-source-bank
/// destination aggregation. The ECO path reruns propagate_bank() for the
/// affected sources only, so everything a propagation needs lives here.
struct Extractor {
  const nl::Netlist& nl;
  const LatchifyResult& lr;
  const cell::Tech& tech;
  sta::Sta sta;
  /// Capture-endpoint index: the banks whose member data pins watch each
  /// net. With it, one sparse propagation aggregates destinations in
  /// O(touched nets) — per-flip-flop extraction runs one propagation per
  /// bank, and the old dense dest scan was O(banks^2 * member cells).
  std::vector<std::vector<int>> watchers;
  sta::Sta::SparseScratch scratch;
  std::vector<Ps> dest_worst;
  std::vector<int> dests;
  std::vector<sta::Source> sources;

  Extractor(const nl::Netlist& n, const LatchifyResult& l,
            const cell::Tech& t)
      : nl(n), lr(l), tech(t), sta(n, t) {
    watchers.assign(nl.num_nets(), {});
    for (size_t d = 0; d < lr.banks.size(); ++d) {
      const Bank& b = lr.banks[d];
      auto watch = [&](nl::CellId c) {
        const nl::CellData& cd = nl.cell(c);
        for (size_t i = 0; i < cd.ins.size(); ++i) {
          if (!sta::Sta::data_endpoint_pin(cd, i)) continue;
          auto& w = watchers[cd.ins[i].value()];
          if (w.empty() || w.back() != static_cast<int>(d)) {
            w.push_back(static_cast<int>(d));
          }
        }
      };
      for (nl::CellId c : b.latches) watch(c);
      for (nl::CellId c : b.rams) watch(c);
    }
    dest_worst.assign(lr.banks.size(), sta::kUnreached);
  }

  Ps setup_of(int bank) const {
    const Bank& b = lr.banks[static_cast<size_t>(bank)];
    return b.rams.empty() ? tech.latch_setup() : tech.dff_setup();
  }

  /// Worst data-pin arrival per reached bank under the scratch's map;
  /// restores its own state, leaves `dests` sorted for deterministic edge
  /// order (the order the dense scan produced).
  template <typename Emit>
  void collect_dests(int src_bank, Emit&& emit) {
    for (nl::NetId n : scratch.touched) {
      Ps a = scratch.arr[n.value()];
      for (int d : watchers[n.value()]) {
        if (d == src_bank) continue;
        if (dest_worst[static_cast<size_t>(d)] == sta::kUnreached) {
          dests.push_back(d);
        }
        dest_worst[static_cast<size_t>(d)] =
            std::max(dest_worst[static_cast<size_t>(d)], a);
      }
    }
    std::sort(dests.begin(), dests.end());
    for (int d : dests) {
      emit(d, dest_worst[static_cast<size_t>(d)]);
      dest_worst[static_cast<size_t>(d)] = sta::kUnreached;
    }
    dests.clear();
  }

  /// One arrival propagation from bank `s`'s launch points. Calls
  /// emit(dest_bank, worst_data_arrival) per reached destination in sorted
  /// order; returns the worst primary-output arrival (kUnreached when no
  /// PO is reached or the bank has no launch nets).
  template <typename Emit>
  Ps propagate_bank(size_t s, Emit&& emit) {
    const Bank& src = lr.banks[s];
    sources.clear();
    for (nl::CellId c : src.latches) {
      // Launch at the latch's propagation delay (enable -> Q).
      sources.push_back({nl.cell(c).outs[0], sta.cell_delay(c)});
    }
    for (nl::CellId c : src.rams) {
      // Read data launches at the RAM access time (relative to the write
      // pulse of this odd bank).
      for (nl::NetId rd : nl.cell(c).outs) {
        sources.push_back({rd, sta.cell_delay(c)});
      }
    }
    if (sources.empty()) return sta::kUnreached;
    sta.arrivals_sparse(sources, scratch);
    collect_dests(static_cast<int>(s), emit);
    // Primary outputs observed by the environment sink.
    Ps po = sta::kUnreached;
    for (nl::NetId out : nl.outputs()) {
      po = std::max(po, scratch.arr[out.value()]);
    }
    scratch.reset();
    return po;
  }

  /// One propagation from all non-clock primary inputs (the env_src
  /// launch). No-op when the design has none.
  template <typename Emit>
  void propagate_pis(nl::NetId clock, Emit&& emit) {
    sources.clear();
    for (nl::NetId in : nl.inputs()) {
      if (in == clock) continue;
      sources.push_back({in, 0});
    }
    if (sources.empty()) return;
    sta.arrivals_sparse(sources, scratch);
    collect_dests(-1, emit);
    scratch.reset();
  }
};

}  // namespace

AdjacencyResult extract_control_graph(const nl::Netlist& nl,
                                      const LatchifyResult& lr,
                                      nl::NetId clock,
                                      const cell::Tech& tech,
                                      const Margins& margins,
                                      ctl::Protocol protocol) {
  AdjacencyResult res;
  for (const Bank& b : lr.banks) res.cg.add_bank(b.name, b.even);
  res.env_snk = res.cg.add_bank("env_snk", true);
  res.env_src = res.cg.add_bank("env_src", false);

  Extractor ex(nl, lr, tech);

  // One arrival propagation per source bank. The margin is looked up per
  // *destination* bank: every matched delay protects the capture at its
  // endpoint, which is where optimize_margins shaves slack.
  for (size_t s = 0; s < lr.banks.size(); ++s) {
    Ps po = ex.propagate_bank(s, [&](int d, Ps a) {
      res.cg.add_edge(static_cast<int>(s), d,
                      with_margin(a + ex.setup_of(d), margins.of(d)));
    });
    if (po != sta::kUnreached && !lr.banks[s].even) {
      res.cg.add_edge(static_cast<int>(s), res.env_snk,
                      with_margin(po, margins.of(res.env_snk)));
    }
  }

  // Primary inputs: one propagation from all non-clock PIs.
  ex.propagate_pis(clock, [&](int d, Ps a) {
    res.cg.add_edge(res.env_src, d,
                    with_margin(a + ex.setup_of(d), margins.of(d)));
  });
  res.cg.add_edge(res.env_snk, res.env_src, 0);

  // Read-before-write ordering: a RAM's write pulse (odd bank) must follow
  // the captures of every bank that consumes its read data. Synchronous
  // circuits get this for free from edge-triggered simultaneity (the
  // capturing edge samples the pre-write value); the pulse protocol needs
  // the explicit reverse edge reader -> writer.
  {
    std::vector<std::pair<int, int>> ordering;
    for (size_t s = 0; s < lr.banks.size(); ++s) {
      if (lr.banks[s].rams.empty() || lr.banks[s].even) continue;
      for (const auto& e : res.cg.edges()) {
        if (e.from != static_cast<int>(s)) continue;
        if (e.to >= static_cast<int>(lr.banks.size())) continue;  // env
        if (!lr.banks[static_cast<size_t>(e.to)].even) continue;
        ordering.push_back({e.to, static_cast<int>(s)});
      }
    }
    for (auto [reader, writer] : ordering) {
      res.cg.add_edge(reader, writer, 0);
    }
  }

  // Command stability for the fully-decoupled protocol: a RAM commits its
  // write on the writer bank's opening (writer+), and the command pins are
  // held by master latches in other even banks. Lockstep and semi-decoupled
  // order writer+ after those masters' captures through their own arcs
  // (a- -> b- resp. a- -> b+); fully-decoupled has neither, so close the
  // loop explicitly with a writer -> command-source edge, whose b- -> a+
  // successor arc is exactly "commit only after every command source
  // captured".
  if (protocol == ctl::Protocol::FullyDecoupled) {
    std::vector<std::pair<int, int>> closures;
    for (size_t s = 0; s < lr.banks.size(); ++s) {
      if (lr.banks[s].rams.empty() || lr.banks[s].even) continue;
      for (const auto& e : res.cg.edges()) {
        if (e.to != static_cast<int>(s)) continue;
        if (e.from >= static_cast<int>(lr.banks.size())) continue;  // env
        closures.push_back({static_cast<int>(s), e.from});
      }
    }
    for (auto [writer, cmd_src] : closures) {
      res.cg.add_edge(writer, cmd_src, 0);
    }
  }

  // Banks without a predecessor or successor park on the environment so the
  // controller network stays connected (e.g. registers whose outputs are
  // unobservable).
  for (size_t i = 0; i < lr.banks.size(); ++i) {
    int bank = static_cast<int>(i);
    if (res.cg.in_edges(bank).empty()) {
      if (lr.banks[i].even) {
        res.cg.add_edge(res.env_src, bank, 0);
      } else {
        res.cg.add_edge(res.env_snk, bank, 0);
      }
    }
    if (res.cg.out_edges(bank).empty()) {
      if (lr.banks[i].even) {
        res.cg.add_edge(bank, res.env_src, 0);
      } else {
        res.cg.add_edge(bank, res.env_snk, 0);
      }
    }
  }
  res.cg.validate();
  return res;
}

AdjacencyResult extract_control_graph_eco(
    const nl::Netlist& nl, const LatchifyResult& lr, nl::NetId clock,
    const cell::Tech& tech, const Margins& margins, ctl::Protocol protocol,
    const AdjacencyResult& prev, std::span<const nl::CellId> changed,
    size_t* banks_recomputed) {
  (void)protocol;  // encoded in prev's ordering edges, which are copied
  const size_t nbanks = lr.banks.size();
  DESYN_ASSERT(prev.cg.num_banks() == nbanks + 2,
               "eco: prev built from a different partition");

  // Affected sources: walk *upstream* from the changed cells through
  // everything the STA propagates through (combinational cells, CElem/Gc,
  // the RAM/ROM read path). A storage cell reached on the walk launches
  // paths into the changed logic, so its bank's outgoing delays may move;
  // a primary input reached means the env_src propagation may move. Over-
  // approximation is safe (extra recomputation), under-approximation is a
  // correctness bug — so only latches/FFs stop the walk.
  std::vector<int> bank_of(nl.num_cells(), -1);
  for (size_t b = 0; b < nbanks; ++b) {
    for (nl::CellId c : lr.banks[b].latches) {
      bank_of[c.value()] = static_cast<int>(b);
    }
    for (nl::CellId c : lr.banks[b].rams) {
      bank_of[c.value()] = static_cast<int>(b);
    }
  }
  std::vector<char> affected(nbanks, 0);
  bool env_affected = false;
  std::vector<char> seen(nl.num_cells(), 0);
  std::vector<nl::CellId> work;
  auto enter = [&](nl::CellId c) {
    if (!seen[c.value()]) {
      seen[c.value()] = 1;
      work.push_back(c);
    }
  };
  for (nl::CellId c : changed) enter(c);
  while (!work.empty()) {
    nl::CellId c = work.back();
    work.pop_back();
    const nl::CellData& cd = nl.cell(c);
    if (cd.dead) continue;
    if (bank_of[c.value()] >= 0) affected[static_cast<size_t>(bank_of[c.value()])] = 1;
    if (cell::is_latch(cd.kind) || cd.kind == cell::Kind::Dff) continue;
    for (nl::NetId in : cd.ins) {
      const nl::NetData& nd = nl.net(in);
      if (!nd.driver.valid()) {
        env_affected = true;  // primary input (or undriven) in the cone
      } else {
        enter(nd.driver);
      }
    }
  }

  AdjacencyResult res;
  for (const Bank& b : lr.banks) res.cg.add_bank(b.name, b.even);
  res.env_snk = res.cg.add_bank("env_snk", true);
  res.env_src = res.cg.add_bank("env_src", false);
  DESYN_ASSERT(res.env_snk == prev.env_snk && res.env_src == prev.env_src);

  // Re-time the affected sources' outgoing edges.
  Extractor ex(nl, lr, tech);
  std::unordered_map<uint64_t, Ps> fresh;
  auto key = [](int f, int t) {
    return static_cast<uint64_t>(static_cast<uint32_t>(f)) << 32 |
           static_cast<uint32_t>(t);
  };
  size_t ran = 0;
  for (size_t s = 0; s < nbanks; ++s) {
    if (!affected[s]) continue;
    ++ran;
    Ps po = ex.propagate_bank(s, [&](int d, Ps a) {
      fresh[key(static_cast<int>(s), d)] =
          with_margin(a + ex.setup_of(d), margins.of(d));
    });
    if (po != sta::kUnreached && !lr.banks[s].even) {
      fresh[key(static_cast<int>(s), res.env_snk)] =
          with_margin(po, margins.of(res.env_snk));
    }
  }
  if (env_affected) {
    ex.propagate_pis(clock, [&](int d, Ps a) {
      fresh[key(res.env_src, d)] =
          with_margin(a + ex.setup_of(d), margins.of(d));
    });
  }
  if (banks_recomputed) *banks_recomputed = ran + (env_affected ? 1 : 0);

  // Replay the previous edge list in order. Identical structure means
  // identical reachability, so the full extraction would produce exactly
  // this edge set in exactly this order; only delays of re-timed sources
  // substitute. STA-sized delays are strictly positive (launch delay or
  // setup, margined), pure ordering/parking edges are 0 — the assert
  // catches a re-timed source whose timed edge the propagation missed.
  size_t used = 0;
  for (const auto& e : prev.cg.edges()) {
    Ps d = e.matched_delay;
    auto it = fresh.find(key(e.from, e.to));
    if (it != fresh.end()) {
      d = it->second;
      ++used;
    } else {
      bool retimed_src =
          e.from < static_cast<int>(nbanks)
              ? affected[static_cast<size_t>(e.from)] != 0
              : (e.from == res.env_src && env_affected);
      DESYN_ASSERT(!(retimed_src && e.matched_delay > 0),
                   "eco: timed edge of a re-timed source not re-timed "
                   "(structure changed?)");
    }
    res.cg.add_edge(e.from, e.to, d);
  }
  DESYN_ASSERT(used == fresh.size(),
               "eco: re-timed a pair the previous graph lacks "
               "(structure changed?)");
  res.cg.validate();
  return res;
}

ctl::ControlGraph quotient_control_graph(
    const ctl::ControlGraph& fine, std::span<const int> bank_map,
    std::span<const ctl::ControlGraph::Bank> banks) {
  DESYN_ASSERT(bank_map.size() == fine.num_banks());
  ctl::ControlGraph q;
  for (const ctl::ControlGraph::Bank& b : banks) q.add_bank(b.name, b.even);
  for (const ctl::ControlGraph::Edge& e : fine.edges()) {
    // add_edge merges duplicates keeping the larger delay: the quotient of
    // the max-plus arrival data is the max over member edges.
    q.add_edge(bank_map[static_cast<size_t>(e.from)],
               bank_map[static_cast<size_t>(e.to)], e.matched_delay);
  }
  q.validate();
  return q;
}

// ---------------------------------------------------------------------------
// IncrementalQuotient
// ---------------------------------------------------------------------------

IncrementalQuotient::IncrementalQuotient(const ctl::ControlGraph& fine,
                                         std::vector<char> mergeable)
    : fine_(fine), mergeable_(std::move(mergeable)) {
  G_ = mergeable_.size();
  live_ = G_;
  DESYN_ASSERT(fine.num_banks() == 2 * G_ + 2,
               "per-flip-flop layout: bank pair per group plus the env pair");
  cluster_.resize(G_);
  members_.resize(G_);
  for (size_t g = 0; g < G_; ++g) {
    cluster_[g] = static_cast<int>(g);
    members_[g] = {static_cast<int>(g)};
  }
  // Per-destination worst-in over the fine edges; a cluster bank's worst is
  // the max over its member banks' (the source of an edge never matters).
  fine_wi_.assign(fine.num_banks(), 0);
  for (const ctl::ControlGraph::Edge& e : fine.edges()) {
    Ps& w = fine_wi_[static_cast<size_t>(e.to)];
    w = std::max(w, e.matched_delay);
  }
  wi_.resize(2 * G_);
  for (size_t g = 0; g < G_; ++g) {
    wi_[2 * g] = fine_wi_[2 * g];          // even/master bank
    wi_[2 * g + 1] = fine_wi_[2 * g + 1];  // odd/slave bank
  }
}

void IncrementalQuotient::merge(int keep, int drop) {
  DESYN_ASSERT(keep != drop && live(keep) && live(drop));
  DESYN_ASSERT(mergeable(keep) && mergeable(drop));
  Delta d;
  d.is_merge = true;
  d.a = keep;
  d.b = drop;
  d.keep_size = members_[static_cast<size_t>(keep)].size();
  d.old_wi[0] = wi_[2 * static_cast<size_t>(keep)];
  d.old_wi[1] = wi_[2 * static_cast<size_t>(keep) + 1];
  auto& win = members_[static_cast<size_t>(keep)];
  auto& lose = members_[static_cast<size_t>(drop)];
  for (int g : lose) cluster_[static_cast<size_t>(g)] = keep;
  win.insert(win.end(), lose.begin(), lose.end());
  lose.clear();
  wi_[2 * static_cast<size_t>(keep)] =
      std::max(d.old_wi[0], wi_[2 * static_cast<size_t>(drop)]);
  wi_[2 * static_cast<size_t>(keep) + 1] =
      std::max(d.old_wi[1], wi_[2 * static_cast<size_t>(drop) + 1]);
  --live_;
  log_.push_back(d);
}

void IncrementalQuotient::move(int g, int to) {
  int from = cluster_[static_cast<size_t>(g)];
  DESYN_ASSERT(from != to && live(to));
  DESYN_ASSERT(mergeable(from) && mergeable(to));
  auto& donor = members_[static_cast<size_t>(from)];
  DESYN_ASSERT(donor.size() >= 2, "a move may not empty the donor cluster");
  Delta d;
  d.is_merge = false;
  d.a = g;
  d.b = to;
  d.from = from;
  d.old_wi[0] = wi_[2 * static_cast<size_t>(from)];
  d.old_wi[1] = wi_[2 * static_cast<size_t>(from) + 1];
  d.old_wi[2] = wi_[2 * static_cast<size_t>(to)];
  d.old_wi[3] = wi_[2 * static_cast<size_t>(to) + 1];
  auto it = std::find(donor.begin(), donor.end(), g);
  DESYN_ASSERT(it != donor.end());
  d.member_idx = static_cast<size_t>(it - donor.begin());
  donor.erase(it);
  members_[static_cast<size_t>(to)].push_back(g);
  cluster_[static_cast<size_t>(g)] = to;
  // Donor loses a max contributor: recompute from its member banks. The
  // receiver only gains one: max-combine.
  Ps we = 0, wo = 0;
  for (int m : donor) {
    we = std::max(we, fine_wi_[2 * static_cast<size_t>(m)]);
    wo = std::max(wo, fine_wi_[2 * static_cast<size_t>(m) + 1]);
  }
  wi_[2 * static_cast<size_t>(from)] = we;
  wi_[2 * static_cast<size_t>(from) + 1] = wo;
  wi_[2 * static_cast<size_t>(to)] =
      std::max(d.old_wi[2], fine_wi_[2 * static_cast<size_t>(g)]);
  wi_[2 * static_cast<size_t>(to) + 1] =
      std::max(d.old_wi[3], fine_wi_[2 * static_cast<size_t>(g) + 1]);
  log_.push_back(d);
}

void IncrementalQuotient::undo() {
  DESYN_ASSERT(!log_.empty(), "undo() without a pending delta");
  Delta d = log_.back();
  log_.pop_back();
  if (d.is_merge) {
    auto& win = members_[static_cast<size_t>(d.a)];
    auto& lose = members_[static_cast<size_t>(d.b)];
    DESYN_ASSERT(lose.empty() && win.size() > d.keep_size);
    lose.assign(win.begin() + static_cast<ptrdiff_t>(d.keep_size), win.end());
    win.resize(d.keep_size);
    for (int g : lose) cluster_[static_cast<size_t>(g)] = d.b;
    wi_[2 * static_cast<size_t>(d.a)] = d.old_wi[0];
    wi_[2 * static_cast<size_t>(d.a) + 1] = d.old_wi[1];
    ++live_;
  } else {
    auto& donor = members_[static_cast<size_t>(d.from)];
    auto& recv = members_[static_cast<size_t>(d.b)];
    DESYN_ASSERT(!recv.empty() && recv.back() == d.a);
    recv.pop_back();
    donor.insert(donor.begin() + static_cast<ptrdiff_t>(d.member_idx), d.a);
    cluster_[static_cast<size_t>(d.a)] = d.from;
    wi_[2 * static_cast<size_t>(d.from)] = d.old_wi[0];
    wi_[2 * static_cast<size_t>(d.from) + 1] = d.old_wi[1];
    wi_[2 * static_cast<size_t>(d.b)] = d.old_wi[2];
    wi_[2 * static_cast<size_t>(d.b) + 1] = d.old_wi[3];
  }
}

std::vector<int> IncrementalQuotient::bank_map(
    std::vector<ctl::ControlGraph::Bank>* banks) const {
  std::vector<int> qidx(G_, -1);
  int nq = 0;
  if (banks) banks->clear();
  for (size_t g = 0; g < G_; ++g) {
    int c = cluster_[g];
    if (qidx[static_cast<size_t>(c)] < 0) {
      qidx[static_cast<size_t>(c)] = nq++;
      if (banks) {
        banks->push_back({cat("q", nq - 1, ".m"), true});
        banks->push_back({cat("q", nq - 1, ".s"), false});
      }
    }
  }
  if (banks) {
    banks->push_back({"env_snk", true});
    banks->push_back({"env_src", false});
  }
  std::vector<int> map(fine_.num_banks());
  for (size_t g = 0; g < G_; ++g) {
    int q = qidx[static_cast<size_t>(cluster_[g])];
    map[2 * g] = 2 * q;
    map[2 * g + 1] = 2 * q + 1;
  }
  map[2 * G_] = 2 * nq;      // env_snk
  map[2 * G_ + 1] = 2 * nq + 1;  // env_src
  return map;
}

ctl::ControlGraph IncrementalQuotient::materialize() const {
  std::vector<ctl::ControlGraph::Bank> banks;
  std::vector<int> map = bank_map(&banks);
  return quotient_control_graph(fine_, map, banks);
}

}  // namespace desyn::flow
