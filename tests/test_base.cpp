#include "base/common.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <set>
#include <sstream>
#include <vector>

#include "base/rng.h"
#include "base/sha256.h"

namespace desyn {
namespace {

TEST(Cat, ConcatenatesValues) {
  EXPECT_EQ(cat("a", 1, "b", 2.5), "a1b2.5");
  EXPECT_EQ(cat(), "");
}

/// What cat() promises to equal: one ostream rendering the values in turn.
template <typename... Args>
std::string streamed(const Args&... args) {
  std::ostringstream os;
  (os << ... << args);
  return os.str();
}

TEST(Cat, MatchesStreamRenderingForEveryArgumentKind) {
  struct Tag {};
  enum Plain { kSeven = 7 };
  const auto check = [](const std::string& got, const std::string& want) {
    EXPECT_EQ(got, want);
  };
  for (int64_t v : {int64_t{0}, int64_t{-1}, int64_t{42}, int64_t{-9000},
                    std::numeric_limits<int64_t>::min(),
                    std::numeric_limits<int64_t>::max()}) {
    check(cat(v), streamed(v));
    check(cat(static_cast<int32_t>(v)), streamed(static_cast<int32_t>(v)));
    check(cat(static_cast<int16_t>(v)), streamed(static_cast<int16_t>(v)));
    check(cat(static_cast<int8_t>(v)), streamed(static_cast<int8_t>(v)));
    check(cat(static_cast<uint64_t>(v)), streamed(static_cast<uint64_t>(v)));
    check(cat(static_cast<uint32_t>(v)), streamed(static_cast<uint32_t>(v)));
    check(cat(static_cast<uint16_t>(v)), streamed(static_cast<uint16_t>(v)));
    check(cat(static_cast<uint8_t>(v)), streamed(static_cast<uint8_t>(v)));
    check(cat(static_cast<long long>(v)), streamed(static_cast<long long>(v)));
    check(cat(static_cast<unsigned long>(v)),
          streamed(static_cast<unsigned long>(v)));
  }
  check(cat(std::numeric_limits<uint64_t>::max()),
        streamed(std::numeric_limits<uint64_t>::max()));
  check(cat('x', static_cast<unsigned char>('y'), static_cast<signed char>('z')),
        streamed('x', static_cast<unsigned char>('y'),
                 static_cast<signed char>('z')));
  check(cat(true, false), streamed(true, false));
  for (double d : {0.0, -0.5, 2.5, 1.0 / 3.0, 1e-9, 6.02e23}) {
    check(cat(d), streamed(d));
    check(cat(static_cast<float>(d)), streamed(static_cast<float>(d)));
  }
  check(cat(Id<Tag>(17), Id<Tag>()), streamed(Id<Tag>(17), Id<Tag>()));
  check(cat(kSeven), streamed(kSeven));
  const std::string str = "str";
  const std::string_view view = "view";
  const char* cstr = "cstr";
  char buf[] = "buf";
  check(cat(str, view, cstr, buf, "lit"), streamed(str, view, cstr, buf, "lit"));
  check(cat("", std::string(), std::string_view()), "");
  check(cat("n", 3, "_", -4, ".", 0.25, 'c', view),
        streamed("n", 3, "_", -4, ".", 0.25, 'c', view));
}

TEST(Cat, ReservesTheExactLength) {
  // Longer than any small-string buffer: one allocation, no growth slack.
  const std::string a(40, 'a');
  const std::string_view b = "a view of some length, past SSO";
  std::string s = cat(a, b, "literal tail");
  EXPECT_EQ(s.size(), a.size() + b.size() + 12);
  EXPECT_EQ(s.capacity(), s.size());
  std::string t = cat(a, 123456789, "x");
  EXPECT_EQ(t.capacity(), t.size());
}

TEST(Ids, DefaultInvalid) {
  struct Tag {};
  Id<Tag> id;
  EXPECT_FALSE(id.valid());
  Id<Tag> a(3), b(3), c(4);
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  EXPECT_LT(a, c);
  EXPECT_TRUE(a.valid());
}

TEST(Fail, ThrowsError) {
  EXPECT_THROW(fail("boom ", 42), Error);
  try {
    fail("boom ", 42);
  } catch (const Error& e) {
    EXPECT_STREQ(e.what(), "boom 42");
  }
}

TEST(Rng, DeterministicAcrossInstances) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, BelowStaysInRange) {
  Rng r(7);
  std::set<uint64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    uint64_t v = r.below(10);
    EXPECT_LT(v, 10u);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 10u);  // all buckets hit over 1000 draws
}

TEST(Rng, RangeInclusive) {
  Rng r(9);
  bool lo_seen = false, hi_seen = false;
  for (int i = 0; i < 2000; ++i) {
    int64_t v = r.range(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    lo_seen |= v == -3;
    hi_seen |= v == 3;
  }
  EXPECT_TRUE(lo_seen);
  EXPECT_TRUE(hi_seen);
}

TEST(Rng, FlipProbabilityRoughlyRespected) {
  Rng r(11);
  int heads = 0;
  for (int i = 0; i < 10000; ++i) heads += r.flip(0.25);
  EXPECT_GT(heads, 2000);
  EXPECT_LT(heads, 3000);
}

TEST(CounterRng, DrawsArePureFunctionsOfTheirCoordinates) {
  // Any evaluation order — forward, backward, interleaved across streams —
  // yields the same draw for the same (seed, stream, counter) triple.
  for (uint64_t c = 0; c < 50; ++c) {
    EXPECT_EQ(rng_draw(1, 2, c), rng_draw(1, 2, c));
  }
  std::vector<uint64_t> forward, backward;
  for (uint64_t c = 0; c < 50; ++c) forward.push_back(rng_draw(9, 4, c));
  for (uint64_t c = 50; c-- > 0;) backward.push_back(rng_draw(9, 4, c));
  std::reverse(backward.begin(), backward.end());
  EXPECT_EQ(forward, backward);
}

TEST(CounterRng, FacadeMatchesRawDraws) {
  CounterRng r(77, 5);
  for (uint64_t c = 0; c < 100; ++c) {
    EXPECT_EQ(r.next(), rng_draw(77, 5, c));
  }
}

TEST(CounterRng, StreamsAndSeedsDecorrelate) {
  // Distinct (seed, stream, counter) coordinates should essentially never
  // collide in 64 bits across a few thousand draws.
  std::set<uint64_t> seen;
  size_t n = 0;
  for (uint64_t seed : {1ull, 2ull, 0xdeadbeefull}) {
    for (uint64_t stream = 0; stream < 8; ++stream) {
      for (uint64_t c = 0; c < 64; ++c) {
        seen.insert(rng_draw(seed, stream, c));
        ++n;
      }
    }
  }
  EXPECT_EQ(seen.size(), n);
}

TEST(CounterRng, UnitIsInHalfOpenIntervalAndUniformish) {
  double sum = 0;
  for (uint64_t c = 0; c < 10000; ++c) {
    double u = rng_unit(3, 1, c);
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(SplitWs, SplitsAndSkipsRuns) {
  auto t = split_ws("  a bb\t c\n");
  ASSERT_EQ(t.size(), 3u);
  EXPECT_EQ(t[0], "a");
  EXPECT_EQ(t[1], "bb");
  EXPECT_EQ(t[2], "c");
  EXPECT_TRUE(split_ws("").empty());
  EXPECT_TRUE(split_ws("   ").empty());
}

TEST(StartsWith, Basics) {
  EXPECT_TRUE(starts_with("foobar", "foo"));
  EXPECT_FALSE(starts_with("fo", "foo"));
  EXPECT_TRUE(starts_with("x", ""));
}

// ---------------------------------------------------------------------------
// SHA-256 — pinned against the FIPS 180-4 test vectors. The implementation
// dispatches to a hardware (SHA-NI) compressor when the CPU has one, so
// these vectors guard both code paths on whatever machine runs them.
// ---------------------------------------------------------------------------

TEST(Sha256, Fips180Vectors) {
  EXPECT_EQ(
      sha256("").hex(),
      "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
  EXPECT_EQ(
      sha256("abc").hex(),
      "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
  // Two-block message (56 bytes: the padding spills into a second block).
  EXPECT_EQ(
      sha256("abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq").hex(),
      "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256, MillionAs) {
  // The classic long-message vector; exercises the multi-block bulk path
  // (and the hardware compressor's block loop when present).
  Sha256 h;
  std::string a(1000000, 'a');
  h.update(a);
  EXPECT_EQ(
      h.digest().hex(),
      "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST(Sha256, ChunkedFeedingMatchesOneShot) {
  // Any split of the input across update() calls produces the same digest:
  // buffered partial blocks and the bulk fast path must agree.
  std::string data(10000, '\0');
  Rng rng(99);
  for (char& c : data) c = static_cast<char>(rng.below(256));
  const Hash256 want = sha256(data);
  for (size_t chunk : {1u, 7u, 63u, 64u, 65u, 192u, 4096u}) {
    Sha256 h;
    for (size_t off = 0; off < data.size(); off += chunk) {
      h.update(data.data() + off, std::min(chunk, data.size() - off));
    }
    EXPECT_EQ(h.digest(), want) << "chunk " << chunk;
  }
}

TEST(Sha256, FieldMixersDoNotAlias) {
  // Length-prefixed fields: ("ab","c") and ("a","bc") must differ, as must
  // a field boundary vs. raw concatenation.
  Sha256 a, b, c;
  a.field("ab").field("c");
  b.field("a").field("bc");
  c.field("abc");
  Hash256 ha = a.digest(), hb = b.digest(), hc = c.digest();
  EXPECT_NE(ha, hb);
  EXPECT_NE(ha, hc);
  EXPECT_NE(hb, hc);

  Sha256 u, v;
  u.field_u64(1).field_u64(2);
  v.field_u64(2).field_u64(1);
  EXPECT_NE(u.digest(), v.digest());
}

TEST(Sha256, HexIsLowercase64Chars) {
  std::string hex = sha256("x").hex();
  EXPECT_EQ(hex.size(), 64u);
  for (char c : hex) {
    EXPECT_TRUE((c >= '0' && c <= '9') || (c >= 'a' && c <= 'f')) << c;
  }
}

}  // namespace
}  // namespace desyn
