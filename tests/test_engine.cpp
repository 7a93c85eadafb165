// The staged flow engine (flow/engine.h): cached-vs-cold byte identity,
// the ECO fast paths, LRU eviction, and the untrusted on-disk tier.
#include "flow/engine.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <tuple>

#include "base/sha256.h"
#include "circuits/circuits.h"
#include "dlx/cpu_builder.h"
#include "dlx/programs.h"
#include "netlist/builder.h"
#include "netlist/writer.h"

namespace desyn::flow {
namespace {

using cell::Kind;
using cell::Tech;
using cell::V;
using nl::Builder;
using nl::Netlist;
using nl::NetId;

/// 3-stage XOR/INV pipeline (the canonical small flow circuit).
Netlist pipeline3(NetId* clock_out) {
  Netlist nl("pipe3");
  Builder b(nl);
  NetId clk = b.input("clk");
  NetId d0 = b.input("din0");
  NetId d1 = b.input("din1");
  NetId q0a = b.dff(d0, clk, V::V0, "s0.a");
  NetId q0b = b.dff(d1, clk, V::V0, "s0.b");
  NetId x1 = b.xor_(q0a, q0b);
  NetId q1 = b.dff(x1, clk, V::V0, "s1.a");
  NetId q1b = b.dff(q0b, clk, V::V1, "s1.b");
  NetId x2 = b.and_({b.inv(q1), q1b});
  NetId q2 = b.dff(x2, clk, V::V0, "s2.a");
  b.output(q2);
  *clock_out = clk;
  return nl;
}

/// 4-bit ripple counter with enable: feedback loops through the flow.
Netlist counter4(NetId* clock_out) {
  Netlist nl("counter4");
  Builder b(nl);
  NetId clk = b.input("clk");
  NetId en = b.input("en");
  std::vector<NetId> qnets(4);
  for (int i = 0; i < 4; ++i) qnets[i] = nl.add_net(cat("cnt.q", i));
  NetId carry = en;
  for (int i = 0; i < 4; ++i) {
    NetId sum = b.xor_(qnets[i], carry);
    carry = b.and_({qnets[i], carry});
    nl.add_cell(Kind::Dff, cat("cnt.r", i), {sum, clk}, {qnets[i]}, V::V0);
  }
  b.output(qnets[3]);
  *clock_out = clk;
  return nl;
}

/// Distinct tiny circuits for cache-pressure tests.
Netlist shifter(int stages, NetId* clock_out) {
  Netlist nl(cat("shift", stages));
  Builder b(nl);
  NetId clk = b.input("clk");
  NetId d = b.input("d");
  NetId q = d;
  for (int i = 0; i < stages; ++i) q = b.dff(q, clk, V::V0, cat("s", i, ".r"));
  b.output(q);
  *clock_out = clk;
  return nl;
}

nl::CellId find_kind(const Netlist& nl, Kind k) {
  for (nl::CellId c : nl.cells()) {
    if (nl.cell(c).kind == k) return c;
  }
  return {};
}

std::string fresh_dir(const char* tag) {
  std::filesystem::path p =
      std::filesystem::path(::testing::TempDir()) /
      (std::string("desyn_engine_") + tag + "_" +
       std::to_string(::getpid()));
  std::filesystem::remove_all(p);
  std::filesystem::create_directories(p);
  return p.string();
}

// ---------------------------------------------------------------------------
// Cached vs. cold: every circuit x protocol resubmission is a result-cache
// hit and byte-identical to the cold monolithic reference flow.
// ---------------------------------------------------------------------------

struct CircuitCase {
  const char* name;
  Netlist (*build)(NetId*);
};

class EngineCachedVsCold
    : public ::testing::TestWithParam<std::tuple<ctl::Protocol, CircuitCase>> {
};

TEST_P(EngineCachedVsCold, ResubmissionIsHitAndByteIdentical) {
  auto [proto, c] = GetParam();
  NetId clk;
  Netlist ff = c.build(&clk);
  DesyncOptions opt;
  opt.protocol = proto;

  Engine engine(Tech::generic90());
  FlowOutcome cold = engine.run(ff, clk, opt);
  EXPECT_FALSE(cold.cached);

  FlowOutcome warm = engine.run(ff, clk, opt);
  EXPECT_TRUE(warm.cached);
  EXPECT_EQ(*warm.verilog, *cold.verilog);

  StageCounters sc = engine.counters();
  EXPECT_EQ(sc.runs, 2u);
  EXPECT_EQ(sc.result_hits, 1u);
  EXPECT_EQ(sc.partition_runs, 1u);
  EXPECT_EQ(sc.synth_runs, 1u);

  // The determinism contract: byte-identical to the cold reference flow.
  DesyncResult ref = desynchronize_reference(ff, clk, Tech::generic90(), opt);
  EXPECT_EQ(*cold.verilog, nl::to_verilog(ref.netlist));

  // The stats mirror the emitted circuit.
  EXPECT_EQ(cold.stats.banks, ref.cg.num_banks());
  EXPECT_EQ(cold.stats.cells_out, ref.netlist.num_live_cells());
  EXPECT_GT(cold.stats.predicted_period_ps, 0.0);
}

INSTANTIATE_TEST_SUITE_P(
    ProtocolsByCircuits, EngineCachedVsCold,
    ::testing::Combine(::testing::ValuesIn(ctl::kAllProtocols),
                       ::testing::Values(CircuitCase{"pipe3", pipeline3},
                                         CircuitCase{"counter4", counter4})),
    [](const ::testing::TestParamInfo<std::tuple<ctl::Protocol, CircuitCase>>&
           info) {
      std::string n = ctl::protocol_name(std::get<0>(info.param));
      n.erase(std::remove(n.begin(), n.end(), '-'), n.end());
      return n + "_" + std::get<1>(info.param).name;
    });

// ---------------------------------------------------------------------------
// Cache-key sensitivity: the per-bank margin vector changes the hardware,
// so it must key every stage from adjacency on — but never the partition
// stage (bank ids do not exist before clustering; the partitioner always
// scores at the global margin). Job counts never key anything.
// ---------------------------------------------------------------------------

TEST(EngineTest, CacheKeySensitivity) {
  NetId clk;
  Netlist ff = pipeline3(&clk);
  Engine engine(Tech::generic90());
  DesyncOptions opt;
  FlowOutcome base = engine.run(ff, clk, opt);

  // Uniformly larger per-bank margins: longer delay lines, new Verilog.
  DesyncOptions widened = opt;
  widened.margins.assign(base.stats.banks, 2.0);
  FlowOutcome wide = engine.run(ff, clk, widened);
  EXPECT_FALSE(wide.cached);
  EXPECT_NE(*wide.verilog, *base.verilog);
  {
    StageCounters sc = engine.counters();
    // The partition stage was *reused* (margins are not in its key)...
    EXPECT_EQ(sc.partition_runs, 1u);
    EXPECT_EQ(sc.partition_hits, 1u);
    // ... while adjacency onward re-ran under the new margin key.
    EXPECT_EQ(sc.adjacency_runs, 2u);
    EXPECT_EQ(sc.synth_runs, 2u);
  }

  // The job knob is excluded from every key: changing it on the widened
  // coordinates is a pure result-cache hit.
  DesyncOptions jobs = widened;
  jobs.opt_jobs = 4;
  FlowOutcome hit = engine.run(ff, clk, jobs);
  EXPECT_TRUE(hit.cached);
  EXPECT_EQ(*hit.verilog, *wide.verilog);

  // An all-zero vector means "global margin everywhere" — the same
  // hardware as the empty vector, but a distinct cache coordinate (the
  // key hashes the vector structurally): a re-run, byte-identical output.
  DesyncOptions zeros = opt;
  zeros.margins.assign(base.stats.banks, 0.0);
  FlowOutcome z = engine.run(ff, clk, zeros);
  EXPECT_FALSE(z.cached);
  EXPECT_EQ(*z.verilog, *base.verilog);
}

// ---------------------------------------------------------------------------
// ECO fast paths
// ---------------------------------------------------------------------------

TEST(EngineEco, KindEditTakesConeLimitedStaAndStaysIdentical) {
  NetId clk;
  Netlist base = pipeline3(&clk);
  DesyncOptions opt;
  Engine engine(Tech::generic90());
  engine.run(base, clk, opt);

  // Flip the lone inverter to a buffer: a pin-compatible single-delay edit.
  nl::CellId inv = find_kind(base, Kind::Inv);
  ASSERT_TRUE(inv.valid());
  Netlist edit = base;
  edit.set_kind(inv, Kind::Buf);

  StageCounters before = engine.counters();
  FlowOutcome eco = engine.run(edit, clk, opt);
  StageCounters after = engine.counters();
  EXPECT_FALSE(eco.cached);
  // The edit diffs as field-only against the lineage: adjacency re-times
  // only the cones that contain the edited cell...
  EXPECT_EQ(after.adjacency_eco, before.adjacency_eco + 1);
  EXPECT_EQ(after.adjacency_runs, before.adjacency_runs);
  EXPECT_GT(after.eco_banks_retimed, before.eco_banks_retimed);
  // ...and synthesis either field-patches (delays stayed in their
  // quantization buckets) or honestly re-runs (they did not) — never a
  // stale cache hit.
  EXPECT_EQ(after.synth_patched + after.synth_runs,
            before.synth_patched + before.synth_runs + 1);
  EXPECT_EQ(after.synth_hits, before.synth_hits);

  // Whatever path ran, the bytes match a cold engine's.
  Engine fresh(Tech::generic90());
  EXPECT_EQ(*eco.verilog, *fresh.run(edit, clk, opt).verilog);
}

TEST(EngineEco, InitFlipFieldPatchesSynthAndHitsMcr) {
  NetId clk;
  Netlist base = counter4(&clk);
  DesyncOptions opt;
  Engine engine(Tech::generic90());
  engine.run(base, clk, opt);

  // Flip one flip-flop's initial value: no delay moves at all.
  nl::CellId ff = find_kind(base, Kind::Dff);
  ASSERT_TRUE(ff.valid());
  Netlist edit = base;
  edit.set_init(ff, base.cell(ff).init == V::V0 ? V::V1 : V::V0);

  StageCounters before = engine.counters();
  FlowOutcome eco = engine.run(edit, clk, opt);
  StageCounters after = engine.counters();
  EXPECT_FALSE(eco.cached);
  EXPECT_EQ(after.adjacency_eco, before.adjacency_eco + 1);
  // The control graph is unchanged, so the synthesized controllers are
  // field-patched and the MCR artifact is a straight cache hit.
  EXPECT_EQ(after.synth_patched, before.synth_patched + 1);
  EXPECT_EQ(after.synth_runs, before.synth_runs);
  EXPECT_EQ(after.mcr_hits, before.mcr_hits + 1);

  Engine fresh(Tech::generic90());
  EXPECT_EQ(*eco.verilog, *fresh.run(edit, clk, opt).verilog);
}

TEST(EngineEco, StructuralEditFallsBackToFullStages) {
  NetId clk;
  Netlist base = pipeline3(&clk);
  DesyncOptions opt;
  Engine engine(Tech::generic90());
  engine.run(base, clk, opt);

  // Adding a cell changes the structure: no ECO path may fire.
  Netlist edit = base;
  {
    Builder b(edit);
    NetId q2 = edit.outputs()[0];
    nl::CellId drv = edit.net(q2).driver;
    ASSERT_TRUE(drv.valid());
    (void)b.inv(edit.cell(drv).ins[0], "extra.inv");
  }
  StageCounters before = engine.counters();
  FlowOutcome eco = engine.run(edit, clk, opt);
  StageCounters after = engine.counters();
  EXPECT_EQ(after.adjacency_eco, before.adjacency_eco);
  EXPECT_EQ(after.synth_patched, before.synth_patched);

  Engine fresh(Tech::generic90());
  EXPECT_EQ(*eco.verilog, *fresh.run(edit, clk, opt).verilog);
}

// ---------------------------------------------------------------------------
// LRU eviction
// ---------------------------------------------------------------------------

TEST(EngineStore, EvictionRecomputesByteIdenticalResults) {
  // A store far too small for the working set: artifacts are evicted,
  // resubmissions recompute, and the bytes never change.
  EngineOptions eopt;
  eopt.capacity = 3;
  Engine engine(Tech::generic90(), eopt);
  DesyncOptions opt;

  NetId clk;
  Netlist first = pipeline3(&clk);
  std::string first_bytes = *engine.run(first, clk, opt).verilog;

  for (int stages : {2, 3, 4, 5}) {
    NetId c;
    Netlist nl = shifter(stages, &c);
    engine.run(nl, c, opt);
  }
  EXPECT_GT(engine.store_stats().evictions, 0u);

  FlowOutcome again = engine.run(first, clk, opt);
  EXPECT_EQ(*again.verilog, first_bytes);
}

// ---------------------------------------------------------------------------
// On-disk tier
// ---------------------------------------------------------------------------

TEST(EngineDisk, SecondEngineIsServedFromDisk) {
  std::string dir = fresh_dir("roundtrip");
  NetId clk;
  Netlist ff = counter4(&clk);
  DesyncOptions opt;
  EngineOptions eopt;
  eopt.cache_dir = dir;

  std::string cold_bytes;
  {
    Engine writer(Tech::generic90(), eopt);
    FlowOutcome cold = writer.run(ff, clk, opt);
    EXPECT_FALSE(cold.cached);
    cold_bytes = *cold.verilog;
  }

  // A brand-new engine (empty memory tier) on the same directory: the
  // result artifact is read back, verified, and served as a cache hit.
  Engine reader(Tech::generic90(), eopt);
  FlowOutcome warm = reader.run(ff, clk, opt);
  EXPECT_TRUE(warm.cached);
  EXPECT_EQ(*warm.verilog, cold_bytes);
  EXPECT_GE(reader.store_stats().disk_hits, 1u);
  EXPECT_EQ(reader.counters().synth_runs, 0u);  // nothing recomputed

  std::filesystem::remove_all(dir);
}

TEST(EngineDisk, CorruptEntriesAreRejectedAndRecomputed) {
  std::string dir = fresh_dir("corrupt");
  NetId clk;
  Netlist ff = pipeline3(&clk);
  DesyncOptions opt;
  EngineOptions eopt;
  eopt.cache_dir = dir;

  std::string cold_bytes;
  {
    Engine writer(Tech::generic90(), eopt);
    cold_bytes = *writer.run(ff, clk, opt).verilog;
  }

  // Vandalize every artifact file: flip bytes, truncate, or empty them.
  int mangled = 0;
  for (const auto& e : std::filesystem::recursive_directory_iterator(dir)) {
    if (!e.is_regular_file()) continue;
    std::ofstream out(e.path(), std::ios::binary | std::ios::trunc);
    out << (mangled % 2 ? "" : "desyn-garbage not an artifact\n");
    ++mangled;
  }
  ASSERT_GT(mangled, 0);

  // The integrity header rejects every entry; the flow recomputes and the
  // bytes still match the original cold run.
  Engine reader(Tech::generic90(), eopt);
  FlowOutcome redo = reader.run(ff, clk, opt);
  EXPECT_FALSE(redo.cached);
  EXPECT_EQ(*redo.verilog, cold_bytes);
  EXPECT_GE(reader.store_stats().disk_corrupt, 1u);

  std::filesystem::remove_all(dir);
}

// ---------------------------------------------------------------------------
// The staged desynchronize() vs. the monolithic reference
// ---------------------------------------------------------------------------

TEST(EngineDesynchronize, MatchesReferenceAndSharesArtifacts) {
  NetId clk;
  Netlist ff = counter4(&clk);
  DesyncOptions opt;
  Engine engine(Tech::generic90());

  auto dr = engine.desynchronize(ff, clk, opt);
  DesyncResult ref = desynchronize_reference(ff, clk, Tech::generic90(), opt);
  EXPECT_EQ(nl::to_verilog(dr->netlist), nl::to_verilog(ref.netlist));

  // A run() after desynchronize() reuses every stage below the result.
  StageCounters before = engine.counters();
  engine.run(ff, clk, opt);
  StageCounters after = engine.counters();
  EXPECT_EQ(after.synth_runs, before.synth_runs);
  EXPECT_EQ(after.synth_hits, before.synth_hits + 1);
}

// ---------------------------------------------------------------------------
// Pinned output bytes: the engine-vs-reference tests above compare two
// paths through the same netlist code, so a change to that shared code
// could move both sides at once. These digests were recorded from a
// known-good build and pin the emitted Verilog, the input content hash
// (the cache key primitive) and the MCR prediction against the past.
// ---------------------------------------------------------------------------

struct PinnedDesign {
  const char* name;
  circuits::Circuit (*build)();
  const char* strategy;
};

circuits::Circuit dlx_fib() {
  Netlist n("dlx");
  const dlx::DlxInfo info =
      dlx::build_dlx(n, dlx::DlxConfig{}, dlx::fibonacci_program(6));
  return {std::move(n), info.clk};
}

const PinnedDesign kPinnedDesigns[] = {
    {"pipe4x8", [] { return circuits::pipeline(4, 8, 3); }, "prefix"},
    {"lfsr16", [] { return circuits::lfsr(16); }, "prefix"},
    {"crc32", [] { return circuits::crc32(); }, "prefix"},
    {"fir8x12", [] { return circuits::fir_filter(8, 12); }, "auto:1.05"},
    {"mesh6x6x2", [] { return circuits::register_mesh(6, 6, 2); }, "prefix"},
    {"rpipe32x8", [] { return circuits::random_pipeline(7, 32, 8); },
     "prefix"},
    {"counters4x8", [] { return circuits::counter_bank(4, 8); }, "perff"},
    {"dlx-fib", dlx_fib, "prefix"},
};

struct PinnedDigest {
  const char* design;
  int protocol;            ///< index into ctl::kAllProtocols
  const char* verilog;     ///< SHA-256 of the Engine::run Verilog
  const char* input;       ///< nl::content_hash of the submitted netlist
  double period_ps;        ///< FlowStats::predicted_period_ps
};

const PinnedDigest kPinnedDigests[] = {
    {"pipe4x8", 0,
     "8ab446f2523c86fa62331cd93fd05eedd003e2a6fbaa23678b66a610226c6e08",
     "19ab70626f765681ae9673ffec984707ee40f60449646749fe5b669a8bdd39a1",
     668},
    {"pipe4x8", 1,
     "bb2e4e3bbba7ee39737a3fe48ddee8c8739ad8bffe9fc9ade20311d49157255d",
     "19ab70626f765681ae9673ffec984707ee40f60449646749fe5b669a8bdd39a1",
     668},
    {"pipe4x8", 2,
     "fc2b2e9f5c67d2d4b32737af2327fd95fcc935dcd8c945a3c356bbc6d3d90544",
     "19ab70626f765681ae9673ffec984707ee40f60449646749fe5b669a8bdd39a1",
     488},
    {"pipe4x8", 3,
     "dd8eab83741c3c6536a8975a2d561397b2903145707260b2265d06425967baa5",
     "19ab70626f765681ae9673ffec984707ee40f60449646749fe5b669a8bdd39a1",
     488},
    {"lfsr16", 0,
     "3d80e68f5834b1f68bb7618e92543e5fae0636a9d19611f55bce43955f52e915",
     "7af12d3427e93f3577afb405b8fb407d3b3a219f1085707df8bd42a3e3f0eea6",
     572},
    {"lfsr16", 1,
     "ba5e6b084e4f1201f389716bddc2db7e988173d3b18d00f88a98d8562d0572e7",
     "7af12d3427e93f3577afb405b8fb407d3b3a219f1085707df8bd42a3e3f0eea6",
     572},
    {"lfsr16", 2,
     "f0eef3aa311d33bcb2eb187d5f136295934759566d92d3a86ccf4f40da60041c",
     "7af12d3427e93f3577afb405b8fb407d3b3a219f1085707df8bd42a3e3f0eea6",
     392},
    {"lfsr16", 3,
     "3761a27b1aba98513eb68c2baa42b14a6e1c043fc276e3f630187e60e778c166",
     "7af12d3427e93f3577afb405b8fb407d3b3a219f1085707df8bd42a3e3f0eea6",
     392},
    {"crc32", 0,
     "ca32c24c6af0fa2d606ab280b1b4f8e57ecefc657268721f55fcd75a6a0fdff8",
     "09585bb1f8aa91616dd583b800d9a9d79737941ca3ca9358204dc38a909600a7",
     692},
    {"crc32", 1,
     "c6b08dafa1e9fcb90911009bb71b7f6066a9df58aa98381f4b4d42b37bff4cde",
     "09585bb1f8aa91616dd583b800d9a9d79737941ca3ca9358204dc38a909600a7",
     692},
    {"crc32", 2,
     "343a7fcdcb163cfaf66ca3be1bdcb9f260757b187fdd39a0da9ac31073702109",
     "09585bb1f8aa91616dd583b800d9a9d79737941ca3ca9358204dc38a909600a7",
     512},
    {"crc32", 3,
     "0652d4ff20c0544cb9813864a7ead5ffe39c816c5b305fd6401e614e0ee1f7e6",
     "09585bb1f8aa91616dd583b800d9a9d79737941ca3ca9358204dc38a909600a7",
     512},
    {"fir8x12", 0,
     "f671a4686d77723f0d37f01deeb98070e7890274c7eb464e925bf7eed7b77396",
     "3d280ba06f27fb76f66b86d6fd5a408f7e0792c510714cdd6d62d603ad0ae1b0",
     1952},
    {"fir8x12", 1,
     "e7fd07d9d603db011a07632933455edd847ad45a4a5bb6896bf1754ff706abad",
     "3d280ba06f27fb76f66b86d6fd5a408f7e0792c510714cdd6d62d603ad0ae1b0",
     1952},
    {"fir8x12", 2,
     "754551416110dc721a8802b4bc5079cd82772d1e2616dfa39308da0606181dd8",
     "3d280ba06f27fb76f66b86d6fd5a408f7e0792c510714cdd6d62d603ad0ae1b0",
     1832},
    {"fir8x12", 3,
     "54881fce278492f950f803b298f5f9ffbd520f3737e168ac22cdf4085aea4bd2",
     "3d280ba06f27fb76f66b86d6fd5a408f7e0792c510714cdd6d62d603ad0ae1b0",
     1772},
    {"mesh6x6x2", 0,
     "1de43e9e9c5035f787350221516cc1cd13c4a04fc4b02b293bfec554fa104848",
     "6e5072cb35a139416a8c5abf3e4a59cf466a261bac11592842decb091cb21865",
     692},
    {"mesh6x6x2", 1,
     "e762969c4a9be507c41284ca3fd7dc20cfa5b635d819f306a69391533606c920",
     "6e5072cb35a139416a8c5abf3e4a59cf466a261bac11592842decb091cb21865",
     692},
    {"mesh6x6x2", 2,
     "d20a76fac7ab19d3ba835c2e35388d18f5210db994022ce88142a0c45bfb05ec",
     "6e5072cb35a139416a8c5abf3e4a59cf466a261bac11592842decb091cb21865",
     512},
    {"mesh6x6x2", 3,
     "bdcdd2f85325b281d10a4790f99ed67410bac140e399c9d6de2e18e31eeaaf7d",
     "6e5072cb35a139416a8c5abf3e4a59cf466a261bac11592842decb091cb21865",
     512},
    {"rpipe32x8", 0,
     "e501b62d7a33adb58ece1108319ad61ef50d86dbc238e019f9f9c78d3cd2ea2f",
     "7494b72ad8278958af7cdd5710f4d59c8e22f709a6cc26479eca42db93c5bb24",
     692},
    {"rpipe32x8", 1,
     "3aad56d5752642a033aed572a34e8095d306f25edc461d59b35230f3f09bf11f",
     "7494b72ad8278958af7cdd5710f4d59c8e22f709a6cc26479eca42db93c5bb24",
     692},
    {"rpipe32x8", 2,
     "91b4db7d1cebc9c12be88ff7eb78a9c0cb5a56b56c771f1bb4c2a932e37f0180",
     "7494b72ad8278958af7cdd5710f4d59c8e22f709a6cc26479eca42db93c5bb24",
     512},
    {"rpipe32x8", 3,
     "7e4d97584d922f064e322a33bab38f56b45fd76443d0590861faa58b26acbf0b",
     "7494b72ad8278958af7cdd5710f4d59c8e22f709a6cc26479eca42db93c5bb24",
     512},
    {"counters4x8", 0,
     "3d6f0b443bd6c5e41b85e5531c4fced18ed75ddba2c604beadc2e307ea2416bc",
     "2ac9ba94fc99786472b2f814995f52eebb297ea27356c3fdbcb08eecb7e2c74d",
     1172},
    {"counters4x8", 1,
     "05e79876bb59fc5b819301ac995f96c4546ed39424dc985d90e469665dad3681",
     "2ac9ba94fc99786472b2f814995f52eebb297ea27356c3fdbcb08eecb7e2c74d",
     1172},
    {"counters4x8", 2,
     "9ef2558851340829bb39db0cde5c648d177d4a2dd77192c46099f4f3b35d39aa",
     "2ac9ba94fc99786472b2f814995f52eebb297ea27356c3fdbcb08eecb7e2c74d",
     992},
    {"counters4x8", 3,
     "d95777dc0591a07f9088259772a30b57d427969f0063e59e810d8478b7210804",
     "2ac9ba94fc99786472b2f814995f52eebb297ea27356c3fdbcb08eecb7e2c74d",
     992},
    {"dlx-fib", 0,
     "e69eadf6443a1fcd4fa891c3d2cd223613b9951fc74d3dda36fee0302557539d",
     "5c73c4295e1a8d77b42977ad26271c617345b7021416c16ec7ff3817c610debf",
     3452},
    {"dlx-fib", 1,
     "3be74d84a09c06df0c6a5513f4be2699bb2ca3ad2f24199e4f47fb721b0d16ea",
     "5c73c4295e1a8d77b42977ad26271c617345b7021416c16ec7ff3817c610debf",
     3452},
    {"dlx-fib", 2,
     "eed53777bc1ac384cc0aab07487d1d58247cbf67614ab11898a27c7dd718f226",
     "5c73c4295e1a8d77b42977ad26271c617345b7021416c16ec7ff3817c610debf",
     3362},
    {"dlx-fib", 3,
     "085e221cee6e7310fbfbd971487ef0ff298ef7868f02c3e0004b35f21ba74aec",
     "5c73c4295e1a8d77b42977ad26271c617345b7021416c16ec7ff3817c610debf",
     3272},
};

TEST(EngineTest, PinnedVerilogDigests) {
  std::string actual;
  size_t row = 0;
  for (const PinnedDesign& d : kPinnedDesigns) {
    circuits::Circuit c = d.build();
    const std::string input = nl::content_hash(c.netlist).hex();
    Engine engine(Tech::generic90());
    for (int p = 0; p < 4; ++p) {
      DesyncOptions opt;
      opt.strategy = PartitionSpec::parse(d.strategy);
      opt.protocol = ctl::kAllProtocols[p];
      FlowOutcome out = engine.run(c.netlist, c.clock, opt);
      const std::string verilog = sha256(*out.verilog).hex();
      char line[256];
      std::snprintf(line, sizeof line, "    {\"%s\", %d,\n     \"%s\",\n"
                    "     \"%s\",\n     %.17g},\n", d.name, p,
                    verilog.c_str(), input.c_str(),
                    out.stats.predicted_period_ps);
      actual += line;
      if (row >= std::size(kPinnedDigests)) {
        ADD_FAILURE() << "no pinned row for " << d.name << " protocol " << p;
        ++row;
        continue;
      }
      const PinnedDigest& want = kPinnedDigests[row++];
      SCOPED_TRACE(cat(d.name, " protocol ", p));
      EXPECT_STREQ(want.design, d.name);
      EXPECT_EQ(want.protocol, p);
      EXPECT_EQ(verilog, want.verilog);
      EXPECT_EQ(input, want.input);
      EXPECT_EQ(out.stats.predicted_period_ps, want.period_ps);
    }
  }
  EXPECT_EQ(row, std::size(kPinnedDigests));
  if (HasFailure()) std::printf("actual digests:\n%s", actual.c_str());
}

}  // namespace
}  // namespace desyn::flow
