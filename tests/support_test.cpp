// Unit tests for the support library.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include "support/hash.hpp"
#include "support/intern.hpp"
#include "support/rng.hpp"
#include "support/stats.hpp"

namespace mcsym::support {
namespace {

// --- StateHasher -------------------------------------------------------

TEST(StateHasherTest, DeterministicAndOrderSensitive) {
  StateHasher a;
  a.mix(1);
  a.mix(2);
  StateHasher b;
  b.mix(1);
  b.mix(2);
  EXPECT_EQ(a.digest(), b.digest());

  StateHasher c;
  c.mix(2);
  c.mix(1);
  EXPECT_FALSE(a.digest() == c.digest()) << "mix order must matter";
}

TEST(StateHasherTest, LanesAreIndependent) {
  // A 64-bit collision in one lane must not imply one in the other: check
  // that across many inputs no digest repeats and lo != hi.
  std::set<std::pair<std::uint64_t, std::uint64_t>> seen;
  for (std::uint64_t v = 0; v < 4096; ++v) {
    StateHasher h;
    h.mix(v);
    const Hash128 d = h.digest();
    EXPECT_NE(d.lo, d.hi) << v;
    EXPECT_TRUE(seen.emplace(d.lo, d.hi).second) << "collision at " << v;
  }
}

TEST(StateHasherTest, UnorderedMixIsCommutative) {
  StateHasher x;
  x.mix(7);
  StateHasher y;
  y.mix(9);

  StateHasher ab;
  ab.mix(1);
  ab.mix_unordered(x.digest());
  ab.mix_unordered(y.digest());
  StateHasher ba;
  ba.mix(1);
  ba.mix_unordered(y.digest());
  ba.mix_unordered(x.digest());
  EXPECT_EQ(ab.digest(), ba.digest());
}

TEST(StateHasherTest, SignedValuesRoundTrip) {
  StateHasher neg;
  neg.mix_signed(-5);
  StateHasher pos;
  pos.mix_signed(5);
  EXPECT_FALSE(neg.digest() == pos.digest());
}

// --- Rng ---------------------------------------------------------------

TEST(RngTest, DeterministicForSeed) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(RngTest, DifferentSeedsDiverge) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.next_u64() == b.next_u64()) ++same;
  }
  EXPECT_LT(same, 2);
}

TEST(RngTest, BelowStaysInRange) {
  Rng rng(7);
  for (std::uint64_t bound : {1ull, 2ull, 3ull, 10ull, 1000ull}) {
    for (int i = 0; i < 200; ++i) EXPECT_LT(rng.below(bound), bound);
  }
}

TEST(RngTest, BelowCoversAllResidues) {
  Rng rng(9);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 500; ++i) seen.insert(rng.below(7));
  EXPECT_EQ(seen.size(), 7u);
}

TEST(RngTest, RangeInclusive) {
  Rng rng(11);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 500; ++i) {
    const std::int64_t v = rng.range(-2, 2);
    EXPECT_GE(v, -2);
    EXPECT_LE(v, 2);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 5u);
}

TEST(RngTest, DoubleInUnitInterval) {
  Rng rng(13);
  for (int i = 0; i < 1000; ++i) {
    const double d = rng.next_double();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RngTest, ReseedResets) {
  Rng rng(5);
  const std::uint64_t first = rng.next_u64();
  rng.next_u64();
  rng.reseed(5);
  EXPECT_EQ(rng.next_u64(), first);
}

// --- Interner ----------------------------------------------------------

TEST(InternerTest, SameStringSameSymbol) {
  Interner in;
  EXPECT_EQ(in.intern("abc"), in.intern("abc"));
}

TEST(InternerTest, DifferentStringsDifferentSymbols) {
  Interner in;
  EXPECT_NE(in.intern("abc"), in.intern("abd"));
}

TEST(InternerTest, SpellingRoundTrip) {
  Interner in;
  const Symbol s = in.intern("hello");
  EXPECT_EQ(in.spelling(s), "hello");
}

TEST(InternerTest, FindDoesNotCreate) {
  Interner in;
  EXPECT_FALSE(in.find("missing").valid());
  in.intern("present");
  EXPECT_TRUE(in.find("present").valid());
  EXPECT_EQ(in.size(), 1u);
}

TEST(InternerTest, ManySymbolsStayStable) {
  Interner in;
  std::vector<Symbol> syms;
  for (int i = 0; i < 1000; ++i) syms.push_back(in.intern("sym" + std::to_string(i)));
  for (int i = 0; i < 1000; ++i) {
    EXPECT_EQ(in.spelling(syms[static_cast<std::size_t>(i)]),
              "sym" + std::to_string(i));
    EXPECT_EQ(in.find("sym" + std::to_string(i)), syms[static_cast<std::size_t>(i)]);
  }
}

TEST(InternerTest, InvalidSymbolIsFalsy) {
  Symbol s;
  EXPECT_FALSE(s.valid());
}

// --- Stopwatch -------------------------------------------------------------

TEST(StopwatchTest, MonotoneNonNegative) {
  Stopwatch w;
  const double a = w.seconds();
  const double b = w.seconds();
  EXPECT_GE(a, 0.0);
  EXPECT_GE(b, a);
}

}  // namespace
}  // namespace mcsym::support
