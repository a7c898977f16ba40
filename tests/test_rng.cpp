#include "util/rng.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <stdexcept>
#include <unordered_set>

namespace qsp {
namespace {

TEST(Rng, Deterministic) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.next_u64(), b.next_u64());
  }
}

TEST(Rng, SeedsDiffer) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.next_u64() == b.next_u64()) ++equal;
  }
  EXPECT_LT(equal, 4);
}

TEST(Rng, NextBelowRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.next_below(17), 17u);
  }
  EXPECT_THROW(rng.next_below(0), std::invalid_argument);
}

TEST(Rng, NextBelowCoversAllValues) {
  Rng rng(9);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 500; ++i) seen.insert(rng.next_below(8));
  EXPECT_EQ(seen.size(), 8u);
}

TEST(Rng, DoubleInUnitInterval) {
  Rng rng(3);
  double sum = 0.0;
  for (int i = 0; i < 10000; ++i) {
    const double d = rng.next_double();
    ASSERT_GE(d, 0.0);
    ASSERT_LT(d, 1.0);
    sum += d;
  }
  EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(Rng, SampleDistinct) {
  Rng rng(5);
  const auto sample = rng.sample_distinct(1000, 50);
  EXPECT_EQ(sample.size(), 50u);
  EXPECT_TRUE(std::is_sorted(sample.begin(), sample.end()));
  const std::set<std::uint64_t> unique(sample.begin(), sample.end());
  EXPECT_EQ(unique.size(), 50u);
  for (const auto v : sample) EXPECT_LT(v, 1000u);
}

TEST(Rng, SampleDistinctFullPool) {
  Rng rng(6);
  const auto sample = rng.sample_distinct(16, 16);
  EXPECT_EQ(sample.size(), 16u);
  for (std::size_t i = 0; i < 16; ++i) EXPECT_EQ(sample[i], i);
  EXPECT_THROW(rng.sample_distinct(4, 5), std::invalid_argument);
}

TEST(Rng, SampleDistinctMatchesHashSetFloyd) {
  // Small pools sample through a bitmap, large ones through a hash set;
  // both must give the sample (and leave the generator in the state) of
  // Floyd's algorithm over a hash set, so seeded corpora never change.
  const auto reference = [](Rng& rng, std::uint64_t pool, std::size_t k) {
    std::unordered_set<std::uint64_t> chosen;
    for (std::uint64_t j = pool - k; j < pool; ++j) {
      const std::uint64_t t = rng.next_below(j + 1);
      if (!chosen.insert(t).second) chosen.insert(j);
    }
    std::vector<std::uint64_t> out(chosen.begin(), chosen.end());
    std::sort(out.begin(), out.end());
    return out;
  };
  Rng a(21);
  Rng b(21);
  for (const std::uint64_t pool :
       {1ull, 2ull, 63ull, 64ull, 65ull, 256ull, 1000ull, 1ull << 12,
        1ull << 20}) {
    for (const std::size_t k : {0, 1, 2, 5, 16, 20, 64, 128, 256}) {
      if (k > pool) continue;
      EXPECT_EQ(a.sample_distinct(pool, k), reference(b, pool, k))
          << "pool " << pool << " k " << k;
    }
  }
  EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, ShuffleIsPermutation) {
  Rng rng(11);
  std::vector<int> v{0, 1, 2, 3, 4, 5, 6, 7};
  rng.shuffle(v);
  std::vector<int> sorted = v;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(sorted, (std::vector<int>{0, 1, 2, 3, 4, 5, 6, 7}));
}

}  // namespace
}  // namespace qsp
