#include "src/util/rng.h"

#include <cmath>
#include <deque>
#include <mutex>
#include <numeric>

namespace clara {
namespace {

uint64_t SplitMix64(uint64_t& x) {
  x += 0x9e3779b97f4a7c15ULL;
  uint64_t z = x;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

// Most recent distinct (n, s) CDFs kept for reuse. Small on purpose: the
// workload presets use two, and each entry holds n doubles.
constexpr size_t kZipfMemoEntries = 4;
// CDFs over more ranks than the SmallFlows preset are built per sampler and
// never kept, so the memo pins at most kZipfMemoEntries * 512 KiB.
constexpr size_t kZipfMemoMaxRanks = 65536;

struct ZipfMemoEntry {
  size_t n;
  double s;
  std::shared_ptr<const std::vector<double>> cdf;
};

std::shared_ptr<const std::vector<double>> SharedZipfCdf(size_t n, double s) {
  if (n > kZipfMemoMaxRanks) {
    return std::make_shared<const std::vector<double>>(ZipfSampler::BuildCdf(n, s));
  }
  static std::mutex mu;
  static std::deque<ZipfMemoEntry> memo;  // most recently used first
  // Held while building too: threads wanting the same new key wait for one
  // build instead of each paying for it.
  std::lock_guard<std::mutex> lock(mu);
  for (auto it = memo.begin(); it != memo.end(); ++it) {
    if (it->n == n && it->s == s) {
      ZipfMemoEntry hit = *it;
      memo.erase(it);
      memo.push_front(hit);
      return hit.cdf;
    }
  }
  memo.push_front(ZipfMemoEntry{
      n, s, std::make_shared<const std::vector<double>>(ZipfSampler::BuildCdf(n, s))});
  if (memo.size() > kZipfMemoEntries) {
    memo.pop_back();
  }
  return memo.front().cdf;
}

}  // namespace

Rng::Rng(uint64_t seed) {
  uint64_t sm = seed;
  for (auto& s : s_) {
    s = SplitMix64(sm);
  }
}

uint64_t Rng::NextBounded(uint64_t bound) {
  // Lemire's multiply-shift rejection method.
  uint64_t x = NextU64();
  __uint128_t m = static_cast<__uint128_t>(x) * static_cast<__uint128_t>(bound);
  uint64_t l = static_cast<uint64_t>(m);
  if (l < bound) {
    uint64_t t = -bound % bound;
    while (l < t) {
      x = NextU64();
      m = static_cast<__uint128_t>(x) * static_cast<__uint128_t>(bound);
      l = static_cast<uint64_t>(m);
    }
  }
  return static_cast<uint64_t>(m >> 64);
}

int64_t Rng::NextInt(int64_t lo, int64_t hi) {
  return lo + static_cast<int64_t>(NextBounded(static_cast<uint64_t>(hi - lo + 1)));
}

double Rng::NextDouble() { return static_cast<double>(NextU64() >> 11) * 0x1.0p-53; }

double Rng::NextGaussian(double stddev) {
  double u1 = NextDouble();
  double u2 = NextDouble();
  if (u1 < 1e-300) {
    u1 = 1e-300;
  }
  return stddev * std::sqrt(-2.0 * std::log(u1)) * std::cos(2.0 * M_PI * u2);
}

bool Rng::NextBool(double p_true) { return NextDouble() < p_true; }

size_t Rng::NextWeighted(const std::vector<double>& weights) {
  double total = std::accumulate(weights.begin(), weights.end(), 0.0);
  if (total <= 0.0) {
    return NextBounded(weights.size());
  }
  double r = NextDouble() * total;
  double acc = 0.0;
  for (size_t i = 0; i < weights.size(); ++i) {
    acc += weights[i];
    if (r < acc) {
      return i;
    }
  }
  return weights.size() - 1;
}

std::vector<size_t> Rng::Permutation(size_t n) {
  std::vector<size_t> p(n);
  std::iota(p.begin(), p.end(), 0);
  for (size_t i = n; i > 1; --i) {
    std::swap(p[i - 1], p[NextBounded(i)]);
  }
  return p;
}

std::vector<double> ZipfSampler::BuildCdf(size_t n, double s) {
  std::vector<double> cdf(n);
  double acc = 0.0;
  for (size_t i = 0; i < n; ++i) {
    acc += 1.0 / std::pow(static_cast<double>(i + 1), s);
    cdf[i] = acc;
  }
  for (auto& v : cdf) {
    v /= acc;
  }
  return cdf;
}

ZipfSampler::ZipfSampler(size_t n, double s) : cdf_(SharedZipfCdf(n, s)) {}

size_t ZipfSampler::Sample(Rng& rng) const {
  const std::vector<double>& cdf = *cdf_;
  double r = rng.NextDouble();
  size_t lo = 0;
  size_t hi = cdf.size() - 1;
  while (lo < hi) {
    size_t mid = (lo + hi) / 2;
    if (cdf[mid] < r) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo;
}

}  // namespace clara
