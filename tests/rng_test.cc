#include "src/util/rng.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <numeric>
#include <set>
#include <thread>
#include <utility>

namespace clara {
namespace {

TEST(Rng, DeterministicForSameSeed) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.NextU64(), b.NextU64());
  }
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.NextU64() == b.NextU64()) {
      ++same;
    }
  }
  EXPECT_LT(same, 2);
}

TEST(Rng, BoundedStaysInRange) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.NextBounded(17), 17u);
  }
}

TEST(Rng, NextIntInclusiveRange) {
  Rng rng(9);
  bool saw_lo = false;
  bool saw_hi = false;
  for (int i = 0; i < 5000; ++i) {
    int64_t v = rng.NextInt(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    saw_lo |= v == -3;
    saw_hi |= v == 3;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, DoubleInUnitInterval) {
  Rng rng(11);
  for (int i = 0; i < 10000; ++i) {
    double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(Rng, GaussianRoughMoments) {
  Rng rng(13);
  double sum = 0;
  double sq = 0;
  const int n = 40000;
  for (int i = 0; i < n; ++i) {
    double g = rng.NextGaussian(2.0);
    sum += g;
    sq += g * g;
  }
  double mean = sum / n;
  double var = sq / n - mean * mean;
  EXPECT_NEAR(mean, 0.0, 0.1);
  EXPECT_NEAR(var, 4.0, 0.3);
}

TEST(Rng, WeightedRespectsWeights) {
  Rng rng(17);
  std::vector<double> w = {0.0, 1.0, 3.0};
  std::vector<int> counts(3, 0);
  for (int i = 0; i < 20000; ++i) {
    ++counts[rng.NextWeighted(w)];
  }
  EXPECT_EQ(counts[0], 0);
  EXPECT_GT(counts[2], counts[1] * 2);
  EXPECT_LT(counts[2], counts[1] * 4);
}

TEST(Rng, WeightedAllZeroFallsBackToUniform) {
  Rng rng(19);
  std::vector<double> w = {0.0, 0.0, 0.0, 0.0};
  std::set<size_t> seen;
  for (int i = 0; i < 200; ++i) {
    seen.insert(rng.NextWeighted(w));
  }
  EXPECT_EQ(seen.size(), 4u);
}

TEST(Rng, PermutationIsAPermutation) {
  Rng rng(23);
  auto p = rng.Permutation(50);
  std::set<size_t> s(p.begin(), p.end());
  EXPECT_EQ(s.size(), 50u);
  EXPECT_EQ(*s.begin(), 0u);
  EXPECT_EQ(*s.rbegin(), 49u);
}

TEST(ZipfSampler, SkewFavorsLowRanks) {
  Rng rng(29);
  ZipfSampler zipf(1000, 1.2);
  std::vector<int> counts(1000, 0);
  for (int i = 0; i < 50000; ++i) {
    ++counts[zipf.Sample(rng)];
  }
  EXPECT_GT(counts[0], counts[10] * 2);
  EXPECT_GT(counts[0], 1000);
}

TEST(ZipfSampler, CoversSupport) {
  Rng rng(31);
  ZipfSampler zipf(4, 0.5);
  std::set<size_t> seen;
  for (int i = 0; i < 1000; ++i) {
    seen.insert(zipf.Sample(rng));
  }
  EXPECT_EQ(seen.size(), 4u);
}

// Bitwise equality: the shared CDF must be the very doubles a fresh build
// produces, not merely close.
bool SameBits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

TEST(ZipfSampler, SharedCdfMatchesFreshBuildBitForBit) {
  for (auto [n, s] : {std::pair<size_t, double>{65536, 0.4}, {64, 1.1}, {1000, 1.2}}) {
    ZipfSampler first(n, s);
    ZipfSampler second(n, s);
    EXPECT_EQ(&first.cdf(), &second.cdf()) << "(n, s) seen before reuses the CDF";
    EXPECT_TRUE(SameBits(second.cdf(), ZipfSampler::BuildCdf(n, s))) << n << " " << s;
  }
}

TEST(ZipfSampler, CdfAboveTheMemoLimitIsNotKept) {
  // More ranks than the largest preset: built per sampler, never pinned.
  ZipfSampler first(65537, 0.4);
  ZipfSampler second(65537, 0.4);
  EXPECT_NE(&first.cdf(), &second.cdf());
  EXPECT_TRUE(SameBits(second.cdf(), ZipfSampler::BuildCdf(65537, 0.4)));
}

TEST(ZipfSampler, SharedSamplersDrawIdenticalStreams) {
  ZipfSampler a(4096, 0.9);
  ZipfSampler b(4096, 0.9);
  Rng ra(37);
  Rng rb(37);
  for (int i = 0; i < 2000; ++i) {
    ASSERT_EQ(a.Sample(ra), b.Sample(rb));
  }
}

TEST(ZipfSampler, ConcurrentConstructionYieldsFreshBits) {
  // Threads race to build and evict memo entries for more distinct (n, s)
  // keys than the memo holds; every sampler must still see exact CDFs.
  const std::vector<std::pair<size_t, double>> keys = {
      {2048, 0.4}, {512, 1.1}, {1024, 0.7}, {256, 1.3}, {4096, 0.5}, {128, 0.9}};
  std::vector<std::vector<double>> fresh;
  for (const auto& [n, s] : keys) {
    fresh.push_back(ZipfSampler::BuildCdf(n, s));
  }
  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < 60; ++i) {
        size_t k = static_cast<size_t>(i * 5 + t) % keys.size();
        ZipfSampler z(keys[k].first, keys[k].second);
        if (!SameBits(z.cdf(), fresh[k])) {
          mismatches.fetch_add(1);
        }
      }
    });
  }
  for (auto& th : threads) {
    th.join();
  }
  EXPECT_EQ(mismatches.load(), 0);
}

}  // namespace
}  // namespace clara
