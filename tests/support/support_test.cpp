#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "support/hash.hpp"
#include "support/rng.hpp"

namespace sde::support {
namespace {

TEST(Hash, Fnv1aIsStableAndDistinguishes) {
  EXPECT_EQ(fnv1a("abc"), fnv1a("abc"));
  EXPECT_NE(fnv1a("abc"), fnv1a("abd"));
  EXPECT_NE(fnv1a(""), fnv1a(std::string_view("\0", 1)));
}

TEST(Hash, HasherOrderSensitive) {
  Hasher a;
  a.u64(1).u64(2);
  Hasher b;
  b.u64(2).u64(1);
  EXPECT_NE(a.digest(), b.digest());
}

TEST(Hash, HasherFieldsMatter) {
  EXPECT_NE(Hasher().u64(0).digest(), Hasher().u64(0).u64(0).digest());
  EXPECT_NE(Hasher().str("a").digest(), Hasher().str("b").digest());
}

TEST(Hash, CombineAvalanches) {
  // Flipping one input bit should change the output (sanity, not a
  // statistical test).
  const std::uint64_t base = hashCombine(42, 100);
  for (int bit = 0; bit < 64; ++bit)
    EXPECT_NE(base, hashCombine(42, 100 ^ (1ULL << bit)));
}

TEST(Rng, DeterministicForSeed) {
  Rng a(7);
  Rng b(7);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1);
  Rng b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) equal += (a.next() == b.next());
  EXPECT_LT(equal, 3);
}

TEST(Rng, BelowRespectsBound) {
  Rng rng(3);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.below(17), 17u);
    EXPECT_EQ(rng.below(1), 0u);
  }
}

TEST(Rng, RangeIsInclusiveAndCoversEndpoints) {
  Rng rng(11);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 2000; ++i) {
    const std::int64_t v = rng.range(-2, 2);
    EXPECT_GE(v, -2);
    EXPECT_LE(v, 2);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 5u);
}

}  // namespace
}  // namespace sde::support
