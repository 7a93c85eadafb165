#include "sim/sim.h"

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <tuple>

#include "circuits/circuits.h"
#include "core/desynchronizer.h"
#include "netlist/builder.h"
#include "sim/power.h"
#include "sim/vcd.h"

namespace desyn::sim {
namespace {

using cell::Kind;
using cell::Tech;
using nl::Builder;
using nl::Netlist;
using nl::NetId;

TEST(Sim, CombinationalPropagationTiming) {
  Netlist nl("t");
  Builder b(nl);
  const Tech& t = Tech::generic90();
  NetId a = b.input("a");
  NetId c = b.input("c");
  NetId y = b.and_({a, c}, "y");
  b.output(y);

  Simulator sim(nl, t);
  std::vector<std::pair<Ps, V>> changes;
  sim.watch(y, [&](Ps at, V v) { changes.emplace_back(at, v); });
  sim.set_input(a, V::V1, 0);
  sim.set_input(c, V::V0, 0);
  sim.run_until(1000);
  EXPECT_EQ(sim.value(y), V::V0);
  sim.set_input(c, V::V1, 1000);
  sim.run_until(2000);
  EXPECT_EQ(sim.value(y), V::V1);
  Ps d_and = t.delay(Kind::And, 2, 0);
  ASSERT_FALSE(changes.empty());
  EXPECT_EQ(changes.back().first, 1000 + d_and);
  EXPECT_EQ(changes.back().second, V::V1);
}

TEST(Sim, InertialGlitchSwallowed) {
  Netlist nl("t");
  Builder b(nl);
  const Tech& t = Tech::generic90();
  NetId a = b.input("a");
  NetId y = b.buf(a, "y");
  b.output(y);

  Simulator sim(nl, t);
  int y_changes = 0;
  sim.watch(y, [&](Ps, V) { ++y_changes; });
  sim.set_input(a, V::V0, 0);
  sim.run_until(500);
  // Pulse narrower than the buffer delay: swallowed.
  Ps d = t.delay(Kind::Buf, 1, 0);
  ASSERT_GT(d, 2);
  sim.set_input(a, V::V1, 1000);
  sim.set_input(a, V::V0, 1000 + d / 2);
  sim.run_until(3000);
  EXPECT_EQ(sim.value(y), V::V0);
  // Only the initial X->0 settle may have fired; no 0->1->0 pair.
  EXPECT_LE(y_changes, 1);
}

TEST(Sim, DffShiftRegister) {
  Netlist nl("t");
  Builder b(nl);
  NetId d = b.input("d");
  NetId ck = b.input("ck");
  NetId q0 = b.dff(d, ck, V::V0, "q0");
  NetId q1 = b.dff(q0, ck, V::V0, "q1");
  NetId q2 = b.dff(q1, ck, V::V0, "q2");
  b.output(q2);

  Simulator sim(nl, Tech::generic90());
  sim.set_input(d, V::V1, 0);
  sim.add_clock(ck, 1000, 500);  // edges at 500, 1500, 2500, ...
  sim.run_until(400);
  EXPECT_EQ(sim.value(q2), V::V0);
  sim.run_until(1400);  // after 1st edge
  EXPECT_EQ(sim.value(q0), V::V1);
  EXPECT_EQ(sim.value(q2), V::V0);
  sim.run_until(3400);  // after 3rd edge
  EXPECT_EQ(sim.value(q2), V::V1);
  EXPECT_EQ(sim.setup_violation_count(), 0u);
}

TEST(Sim, ClockGeneratorTogglesAtPeriod) {
  Netlist nl("t");
  Builder b(nl);
  NetId ck = b.input("ck");
  b.output(b.buf(ck));
  Simulator sim(nl, Tech::generic90());
  std::vector<Ps> rises;
  sim.watch(ck, [&](Ps at, V v) {
    if (v == V::V1) rises.push_back(at);
  });
  sim.add_clock(ck, 2000, 1000);
  sim.run_until(9999);
  ASSERT_EQ(rises.size(), 5u);  // 1000, 3000, 5000, 7000, 9000
  EXPECT_EQ(rises[0], 1000);
  EXPECT_EQ(rises[4], 9000);
}

TEST(Sim, LatchTransparency) {
  Netlist nl("t");
  Builder b(nl);
  NetId d = b.input("d");
  NetId en = b.input("en");
  NetId q = b.latch(d, en, V::V0, "q");
  b.output(q);

  Simulator sim(nl, Tech::generic90());
  sim.set_input(en, V::V0, 0);
  sim.set_input(d, V::V0, 0);
  sim.run_until(1000);
  // Opaque: D changes do not pass.
  sim.set_input(d, V::V1, 1000);
  sim.run_until(2000);
  EXPECT_EQ(sim.value(q), V::V0);
  // Transparent: Q follows D.
  sim.set_input(en, V::V1, 2000);
  sim.run_until(3000);
  EXPECT_EQ(sim.value(q), V::V1);
  sim.set_input(d, V::V0, 3000);
  sim.run_until(4000);
  EXPECT_EQ(sim.value(q), V::V0);
  // Close, then change D: Q holds.
  sim.set_input(en, V::V0, 4000);
  sim.set_input(d, V::V1, 5000);
  sim.run_until(6000);
  EXPECT_EQ(sim.value(q), V::V0);
}

TEST(Sim, LatchNOppositePolarity) {
  Netlist nl("t");
  Builder b(nl);
  NetId d = b.input("d");
  NetId en = b.input("en");
  NetId q = b.latchn(d, en, V::V0, "q");
  b.output(q);
  Simulator sim(nl, Tech::generic90());
  sim.set_input(en, V::V1, 0);  // opaque for LatchN
  sim.set_input(d, V::V1, 0);
  sim.run_until(1000);
  EXPECT_EQ(sim.value(q), V::V0);
  sim.set_input(en, V::V0, 1000);  // transparent
  sim.run_until(2000);
  EXPECT_EQ(sim.value(q), V::V1);
}

TEST(Sim, LatchInitiallyTransparentFollowsAtReset) {
  Netlist nl("t");
  Builder b(nl);
  // EN tied high, D tied high, but init = 0: the settle kick must bring Q
  // to 1 shortly after t=0 (models reset release into a transparent latch).
  NetId q = b.latch(b.hi(), b.hi(), V::V0, "q");
  b.output(q);
  Simulator sim(nl, Tech::generic90());
  EXPECT_EQ(sim.value(q), V::V0);
  sim.run_until(1000);
  EXPECT_EQ(sim.value(q), V::V1);
}

TEST(Sim, RomRead) {
  Netlist nl("t");
  Builder b(nl);
  std::vector<NetId> addr = {b.input("a0"), b.input("a1")};
  auto data = b.rom(addr, 8, {0x11, 0x22, 0x33, 0x44}, "rom");
  for (NetId n : data) b.output(n);
  Simulator sim(nl, Tech::generic90());
  auto read_byte = [&] {
    uint64_t v = 0;
    for (size_t i = 0; i < data.size(); ++i) {
      if (sim.value(data[i]) == V::V1) v |= (1ull << i);
    }
    return v;
  };
  sim.set_input(addr[0], V::V0, 0);
  sim.set_input(addr[1], V::V1, 0);
  sim.run_until(1000);
  EXPECT_EQ(read_byte(), 0x33u);  // address 2
  sim.set_input(addr[0], V::V1, 1000);
  sim.run_until(2000);
  EXPECT_EQ(read_byte(), 0x44u);  // address 3
}

TEST(Sim, RamWriteThenRead) {
  Netlist nl("t");
  Builder b(nl);
  NetId ck = b.input("ck");
  NetId we = b.input("we");
  std::vector<NetId> wa = {b.input("wa0"), b.input("wa1")};
  std::vector<NetId> wd;
  for (int i = 0; i < 4; ++i) wd.push_back(b.input(cat("wd", i)));
  std::vector<NetId> ra = {b.input("ra0"), b.input("ra1")};
  auto rd = b.ram(ck, we, wa, wd, ra, 4, "m");
  for (NetId n : rd) b.output(n);

  Simulator sim(nl, Tech::generic90());
  nl::CellId ram = nl.find_cell("m");
  // Write 0b1010 to address 1.
  sim.set_input(ck, V::V0, 0);
  sim.set_input(we, V::V1, 0);
  sim.set_input(wa[0], V::V1, 0);
  sim.set_input(wa[1], V::V0, 0);
  for (int i = 0; i < 4; ++i) {
    sim.set_input(wd[i], (i % 2) ? V::V1 : V::V0, 0);
  }
  sim.set_input(ra[0], V::V1, 0);
  sim.set_input(ra[1], V::V0, 0);
  sim.run_until(500);
  sim.set_input(ck, V::V1, 1000);
  sim.run_until(2000);
  EXPECT_EQ(sim.ram_word(ram, 1), 0b1010u);
  // Write-through: read address == write address updates outputs.
  uint64_t out = 0;
  for (size_t i = 0; i < rd.size(); ++i) {
    if (sim.value(rd[i]) == V::V1) out |= (1ull << i);
  }
  EXPECT_EQ(out, 0b1010u);
  // WE low: no write.
  sim.set_input(we, V::V0, 2000);
  sim.set_input(wd[0], V::V1, 2000);
  sim.set_input(ck, V::V0, 2500);
  sim.set_input(ck, V::V1, 3000);
  sim.run_until(4000);
  EXPECT_EQ(sim.ram_word(ram, 1), 0b1010u);
}

TEST(Sim, CElemRendezvous) {
  Netlist nl("t");
  Builder b(nl);
  NetId a = b.input("a");
  NetId c = b.input("c");
  NetId y = b.celem({a, c}, V::V0, "y");
  b.output(y);
  Simulator sim(nl, Tech::generic90());
  sim.set_input(a, V::V0, 0);
  sim.set_input(c, V::V0, 0);
  sim.run_until(100);
  sim.set_input(a, V::V1, 100);
  sim.run_until(1000);
  EXPECT_EQ(sim.value(y), V::V0);  // only one input high: hold
  sim.set_input(c, V::V1, 1000);
  sim.run_until(2000);
  EXPECT_EQ(sim.value(y), V::V1);  // both high: rise
  sim.set_input(a, V::V0, 2000);
  sim.run_until(3000);
  EXPECT_EQ(sim.value(y), V::V1);  // hold
  sim.set_input(c, V::V0, 3000);
  sim.run_until(4000);
  EXPECT_EQ(sim.value(y), V::V0);  // both low: fall
}

TEST(Sim, GcSetResetOverTime) {
  Netlist nl("t");
  Builder b(nl);
  NetId s = b.input("s");
  NetId r = b.input("r");
  NetId y = b.gc(s, r, V::V0, "y");
  b.output(y);
  Simulator sim(nl, Tech::generic90());
  sim.set_input(s, V::V0, 0);
  sim.set_input(r, V::V0, 0);
  sim.run_until(100);
  sim.set_input(s, V::V1, 100);
  sim.run_until(1000);
  EXPECT_EQ(sim.value(y), V::V1);
  sim.set_input(s, V::V0, 1000);
  sim.run_until(2000);
  EXPECT_EQ(sim.value(y), V::V1);  // hold
  sim.set_input(r, V::V1, 2000);
  sim.run_until(3000);
  EXPECT_EQ(sim.value(y), V::V0);
}

TEST(Sim, LatchOscillatorRuns) {
  Netlist nl("t");
  Builder b(nl);
  NetId q = nl.add_net("q");
  NetId nq = b.inv(q, "nq");
  NetId en = b.hi();
  nl.add_cell(Kind::Latch, "l", {nq, en}, {q});
  b.output(q);

  Simulator sim(nl, Tech::generic90());
  int toggles_seen = 0;
  sim.watch(q, [&](Ps, V) { ++toggles_seen; });
  bool quiet = sim.run_until_quiet(20000);
  EXPECT_FALSE(quiet);  // oscillators never quiesce
  EXPECT_GT(toggles_seen, 10);
  EXPECT_GT(sim.toggles(q), 10u);
}

TEST(Sim, SetupViolationDetected) {
  Netlist nl("t");
  Builder b(nl);
  const Tech& t = Tech::generic90();
  NetId d = b.input("d");
  NetId ck = b.input("ck");
  NetId q = b.dff(d, ck, V::V0, "q");
  b.output(q);
  Simulator sim(nl, t);
  sim.set_input(d, V::V0, 0);
  sim.set_input(ck, V::V0, 0);
  sim.run_until(500);
  // D changes 10ps before the capture edge: violates the 45ps setup.
  sim.set_input(d, V::V1, 990);
  sim.set_input(ck, V::V1, 1000);
  sim.run_until(2000);
  ASSERT_EQ(sim.setup_violation_count(), 1u);
  EXPECT_EQ(sim.setup_violations()[0].data_net, d);
  EXPECT_EQ(sim.setup_violations()[0].slack, (1000 - 990) - t.dff_setup());
}

TEST(Sim, PowerEstimation) {
  Netlist nl("t");
  Builder b(nl);
  NetId a = b.input("a");
  NetId y = b.buf(a, "y");
  b.output(y);
  Simulator sim(nl, Tech::generic90());
  sim.set_input(a, V::V0, 0);
  sim.run_until(100);
  sim.clear_activity();
  for (int i = 1; i <= 10; ++i) {
    sim.set_input(a, i % 2 ? V::V1 : V::V0, 100 + i * 1000);
  }
  sim.run_until(20100);
  PowerReport rep = estimate_power(sim, Tech::generic90());
  EXPECT_GT(rep.total_mw, 0.0);
  EXPECT_GT(rep.net_switching_mw, 0.0);
  EXPECT_GT(rep.cell_internal_mw, 0.0);
  EXPECT_EQ(rep.window, 20000);
  EXPECT_DOUBLE_EQ(rep.clock_network_mw, 0.0);
  NetId clk_like[] = {a};
  PowerReport rep2 = estimate_power(sim, Tech::generic90(), clk_like);
  EXPECT_GT(rep2.clock_network_mw, 0.0);
  EXPECT_LT(rep2.clock_network_mw, rep2.total_mw);
}

TEST(Sim, VcdOutputWellFormed) {
  Netlist nl("t");
  Builder b(nl);
  NetId a = b.input("a");
  NetId y = b.inv(a, "y");
  b.output(y);
  Simulator sim(nl, Tech::generic90());
  std::ostringstream os;
  VcdWriter vcd(sim, os, {a, y});
  sim.set_input(a, V::V0, 0);
  sim.set_input(a, V::V1, 1000);
  sim.run_until(2000);
  vcd.finish();
  std::string s = os.str();
  EXPECT_NE(s.find("$timescale 1ps"), std::string::npos);
  EXPECT_NE(s.find("$var wire 1 ! a"), std::string::npos);
  EXPECT_NE(s.find("#1000"), std::string::npos);
  EXPECT_NE(s.find("1!"), std::string::npos);
}

TEST(Sim, ActivityWindowReset) {
  Netlist nl("t");
  Builder b(nl);
  NetId a = b.input("a");
  b.output(b.buf(a));
  Simulator sim(nl, Tech::generic90());
  sim.set_input(a, V::V0, 0);
  sim.set_input(a, V::V1, 100);
  sim.set_input(a, V::V0, 200);
  sim.run_until(300);
  EXPECT_EQ(sim.toggles(a), 2u);
  sim.clear_activity();
  EXPECT_EQ(sim.toggles(a), 0u);
  EXPECT_EQ(sim.activity_window_start(), 300);
}

// ---------------------------------------------------------------------------
// Determinism: the event queue breaks time ties FIFO by sequence number, so
// a simulation is a pure function of (netlist, stimulus). These tests guard
// that property against queue rearchitectures.
// ---------------------------------------------------------------------------

struct SimTrace {
  std::vector<uint64_t> toggles;
  std::vector<V> values;
  uint64_t events = 0;
  uint64_t violations = 0;

  static SimTrace of(const Simulator& sim) {
    SimTrace t;
    const nl::Netlist& netl = sim.netlist();
    for (uint32_t n = 0; n < netl.num_nets(); ++n) {
      t.toggles.push_back(sim.toggles(NetId(n)));
      t.values.push_back(sim.value(NetId(n)));
    }
    t.events = sim.events_processed();
    t.violations = sim.setup_violation_count();
    return t;
  }

  friend bool operator==(const SimTrace& a, const SimTrace& b) {
    return a.toggles == b.toggles && a.values == b.values &&
           a.events == b.events && a.violations == b.violations;
  }
};

TEST(Sim, DeterministicReplaySelfTimed) {
  // A desynchronized circuit is the hardest case: no global clock, the
  // controllers self-oscillate, and many events share timestamps.
  circuits::Circuit c = circuits::pipeline(4, 8, 2);
  const cell::Tech& t = cell::Tech::generic90();
  flow::DesyncResult dr = flow::desynchronize(c.netlist, c.clock, t);

  auto run = [&] {
    Simulator sim(dr.netlist, t);
    poke_word(sim, dr.netlist.inputs(), 0x5a, 0);
    sim.run_until(50000);
    return SimTrace::of(sim);
  };
  SimTrace first = run();
  EXPECT_GT(first.events, 100u);  // the circuit actually ran
  EXPECT_TRUE(first == run());
}

TEST(Sim, ChunkedRunMatchesOneShot) {
  // run_until() in odd-sized increments must be indistinguishable from one
  // call — the queue cursor may rest at any intermediate time. Stimulus is
  // scheduled far ahead so events also cross the calendar-queue horizon.
  const cell::Tech& t = cell::Tech::generic90();
  auto stimulate = [&](Simulator& sim, const circuits::Circuit& c) {
    sim.add_clock(c.clock, 2000, 1000);
    uint64_t word = 0x13;
    for (Ps at = 0; at < 30000; at += 7600) {
      poke_word(sim, sim.netlist().inputs(), word, at);
      word = word * 2862933555777941757ull + 3037000493ull;
    }
  };

  circuits::Circuit c = circuits::pipeline(3, 8, 2);
  Simulator oneshot(c.netlist, t);
  stimulate(oneshot, c);
  oneshot.run_until(40000);

  Simulator chunked(c.netlist, t);
  stimulate(chunked, c);
  for (Ps at = 137; at < 40000; at += 137) chunked.run_until(at);
  chunked.run_until(40000);

  EXPECT_GT(oneshot.events_processed(), 100u);
  EXPECT_TRUE(SimTrace::of(oneshot) == SimTrace::of(chunked));
}

TEST(Sim, StimulusAcrossRunsKeepsFifoOrder) {
  // Two stimulus events on the same net at the same picosecond must apply
  // in scheduling order even when the first is queued beyond the calendar
  // horizon and a bounded run_until() rests the cursor in between (the
  // second push then lands inside the wheel window directly).
  Netlist netl("fifo");
  Builder b(netl);
  NetId a = b.input("a");
  b.output(b.buf(a, "y"));
  const cell::Tech& t = cell::Tech::generic90();

  Simulator sim(netl, t);
  sim.set_input(a, V::V1, 5000);  // far beyond the wheel window
  sim.run_until(4000);            // cursor rests just short of the event
  sim.set_input(a, V::V0, 5000);  // same instant, scheduled later
  sim.run_until(10000);
  EXPECT_EQ(sim.value(a), V::V0);  // later-scheduled value wins the tie
}

/// Every applied change of the watched nets: (time, net name, value).
using WatchLog = std::vector<std::tuple<Ps, std::string, char>>;

void log_changes(Simulator& sim, std::initializer_list<NetId> nets,
                 WatchLog& log) {
  const Netlist& netl = sim.netlist();
  for (NetId n : nets) {
    sim.watch(n, [&log, &netl, n](Ps at, V v) {
      log.emplace_back(at, netl.net(n).name, cell::to_char(v));
    });
  }
}

TEST(Sim, SameTimestampBurstKeepsFifoOrder) {
  // Several stimulus events on two inputs at one picosecond, including
  // repeated changes of the same net: they apply in scheduling order (the
  // watchers see every intermediate value) and the last one wins. One-ps
  // pulses are narrower than a buffer delay and never reach its output.
  Netlist netl("burst");
  Builder b(netl);
  NetId a = b.input("a");
  NetId c = b.input("c");
  NetId ya = b.buf(a, "ya");
  NetId yc = b.buf(c, "yc");
  NetId both = b.and_({ya, yc}, "both");
  b.output(both);
  const cell::Tech& t = cell::Tech::generic90();

  Simulator sim(netl, t);
  WatchLog log;
  log_changes(sim, {a, c, ya, yc, both}, log);
  for (Ps at : {Ps{0}, Ps{1'000}, Ps{1'000}, Ps{2'500}}) {
    sim.set_input(a, V::V1, at);
    sim.set_input(c, V::V1, at);
    sim.set_input(a, V::V0, at);
    sim.set_input(c, V::V0, at + 1);
    sim.set_input(a, V::V1, at + 1);
  }
  sim.run_until(10'000);

  const Ps buf = t.delay(Kind::Buf, 1, 1);
  const Ps and2 = t.delay(Kind::And, 2, 0);
  const WatchLog expected = {
      {0, "a", '1'},           {0, "c", '1'},    {0, "a", '0'},
      {1, "c", '0'},           {1, "a", '1'},    {1 + buf, "yc", '0'},
      {1 + buf, "ya", '1'},    {1 + buf + and2, "both", '0'},
      {1'000, "c", '1'},       {1'000, "a", '0'}, {1'000, "a", '1'},
      {1'000, "a", '0'},       {1'001, "c", '0'}, {1'001, "a", '1'},
      {2'500, "c", '1'},       {2'500, "a", '0'}, {2'501, "c", '0'},
      {2'501, "a", '1'},
  };
  EXPECT_EQ(log, expected);
  EXPECT_EQ(sim.value(a), V::V1);
  EXPECT_EQ(sim.value(c), V::V0);
  EXPECT_EQ(sim.value(both), V::V0);
}

TEST(Sim, WatcherStimulusAtCurrentTimeAppliesSameTimestamp) {
  // A watcher may schedule stimulus at the current time (flow equivalence
  // applies each new input vector that way). It applies within the same
  // timestamp, after the change that fired the watcher.
  Netlist netl("react");
  Builder b(netl);
  NetId a = b.input("a");
  NetId c = b.input("c");
  NetId y = b.buf(c, "y");
  b.output(y);
  b.output(b.buf(a, "ya"));
  const cell::Tech& t = cell::Tech::generic90();

  Simulator sim(netl, t);
  WatchLog log;
  log_changes(sim, {a, c, y}, log);
  sim.watch(a, [&](Ps, V v) {
    if (v == V::V1) sim.set_input(c, V::V1, sim.now());
  });
  sim.set_input(c, V::V0, 0);
  sim.set_input(a, V::V1, 500);
  sim.run_until(2'000);

  const Ps buf = t.delay(Kind::Buf, 1, 1);
  const WatchLog expected = {
      {0, "c", '0'},
      {buf, "y", '0'},
      {500, "a", '1'},
      {500, "c", '1'},
      {500 + buf, "y", '1'},
  };
  EXPECT_EQ(log, expected);
}

TEST(Sim, DffCaptureCoincidentWithDataChange) {
  // The clock edge lands at the very picosecond D changes. Every event of
  // a timestamp commits before any cell evaluates, so the flip-flop
  // captures the new D and records a setup violation of slack -setup.
  Netlist netl("coincident");
  Builder b(netl);
  NetId d = b.input("d");
  NetId ck = b.input("ck");
  NetId x = b.buf(d, "x");
  NetId q = b.dff(x, ck, V::V0, "q");
  b.output(q);
  const cell::Tech& t = cell::Tech::generic90();
  const Ps x_change = 1'000 + t.delay(Kind::Buf, 1, 1);

  Simulator sim(netl, t);
  WatchLog log;
  log_changes(sim, {x, ck, q}, log);
  sim.set_input(d, V::V0, 0);
  sim.set_input(ck, V::V0, 0);
  sim.set_input(d, V::V1, 1'000);
  sim.set_input(ck, V::V1, x_change);  // rises exactly as x commits
  sim.run_until(10'000);

  const Ps dff = t.delay(Kind::Dff, 2, 0);
  const WatchLog expected = {
      {0, "ck", '0'},
      {x_change - 1'000, "x", '0'},
      {x_change, "ck", '1'},  // scheduled before x's event: FIFO
      {x_change, "x", '1'},
      {x_change + dff, "q", '1'},
  };
  EXPECT_EQ(log, expected);
  EXPECT_EQ(sim.value(q), V::V1);
  ASSERT_EQ(sim.setup_violation_count(), 1u);
  const SetupViolation& v = sim.setup_violations().front();
  EXPECT_EQ(v.at, x_change);
  EXPECT_EQ(v.cell.value(), netl.find_cell("q").value());
  EXPECT_EQ(v.data_net.value(), x.value());
  EXPECT_EQ(v.slack, -t.dff_setup());
}

TEST(Sim, ChunkedRunMatchesOneShotSelfTimed) {
  // Chunked run_until() on a desynchronized circuit: run boundaries land
  // mid-flight of in-progress handshakes (the chunk sizes do not divide
  // the horizon), and the trajectory must not notice.
  circuits::Circuit c = circuits::pipeline(4, 8, 2);
  const cell::Tech& t = cell::Tech::generic90();
  flow::DesyncResult dr = flow::desynchronize(c.netlist, c.clock, t);
  constexpr Ps kHorizon = 30'000;

  auto run = [&](Ps chunk) {
    Simulator sim(dr.netlist, t);
    uint64_t word = 0x5a;
    for (Ps at = 0; at < kHorizon; at += 4'100) {
      poke_word(sim, dr.netlist.inputs(), word, at);
      word = word * 2862933555777941757ull + 3037000493ull;
    }
    if (chunk > 0) {
      for (Ps at = chunk; at < kHorizon; at += chunk) sim.run_until(at);
    }
    sim.run_until(kHorizon);
    return SimTrace::of(sim);
  };
  const SimTrace once = run(0);
  EXPECT_GT(once.events, 1'000u);
  for (Ps chunk : {Ps{997}, Ps{7'001}}) {
    SCOPED_TRACE(cat("chunk=", chunk));
    EXPECT_TRUE(once == run(chunk));
  }
}

TEST(Sim, RunUntilQuietMatchesBoundedRun) {
  // Quiescing via run_until_quiet must leave the same state as running past
  // the quiesce point with run_until.
  Netlist netl("q");
  Builder b(netl);
  NetId a = b.input("a");
  NetId y = a;
  for (int i = 0; i < 8; ++i) y = b.inv(y, cat("n", i));
  b.output(y);
  const cell::Tech& t = cell::Tech::generic90();

  Simulator s1(netl, t);
  s1.set_input(a, V::V1, 10);
  EXPECT_TRUE(s1.run_until_quiet(100000));

  Simulator s2(netl, t);
  s2.set_input(a, V::V1, 10);
  s2.run_until(100000);
  EXPECT_EQ(s1.value(y), s2.value(y));
  EXPECT_EQ(s1.events_processed(), s2.events_processed());
}

}  // namespace
}  // namespace desyn::sim

namespace desyn::sim {
namespace {

TEST(Power, StorageClockPinsBurnInternalEnergy) {
  // Two identical circuits, one with the FF clocked, one with the clock
  // held still: the clocked one must burn the DFF's clock energy even
  // though D (and hence Q) never toggles.
  nl::Netlist netl("t");
  nl::Builder b(netl);
  nl::NetId d = b.input("d");
  nl::NetId ck = b.input("ck");
  b.output(b.dff(d, ck, V::V0, "r"));

  const cell::Tech& t = cell::Tech::generic90();
  Simulator sim(netl, t);
  sim.set_input(d, V::V0, 0);
  sim.add_clock(ck, 2000, 1000);
  sim.run_until(100);
  sim.clear_activity();
  sim.run_until(20100);
  PowerReport with_clock = estimate_power(sim, t);
  EXPECT_GT(with_clock.cell_internal_mw, 0.0);

  // Global wire factor raises the switching share when the net is global.
  nl::NetId globals[] = {ck};
  PowerReport global = estimate_power(sim, t, {}, globals);
  EXPECT_GT(global.net_switching_mw, with_clock.net_switching_mw);
}

}  // namespace
}  // namespace desyn::sim
