// Deterministic pseudo-random number generation used throughout Clara.
//
// All randomized components (program synthesis, workload generation, ML weight
// initialization) draw from this engine so that experiments are reproducible
// run-to-run given a seed.
#ifndef SRC_UTIL_RNG_H_
#define SRC_UTIL_RNG_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

namespace clara {

// xoshiro256** generator: small, fast, and good statistical quality. We avoid
// std::mt19937 so streams are stable across standard library versions.
class Rng {
 public:
  explicit Rng(uint64_t seed = 0x9e3779b97f4a7c15ULL);

  // Uniform 64-bit value. Inline: trace generation draws ~70 per packet.
  uint64_t NextU64() {
    const uint64_t result = Rotl(s_[1] * 5, 7) * 9;
    const uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = Rotl(s_[3], 45);
    return result;
  }

  // Uniform in [0, bound). bound must be > 0.
  uint64_t NextBounded(uint64_t bound);

  // Uniform integer in [lo, hi] inclusive. Requires lo <= hi.
  int64_t NextInt(int64_t lo, int64_t hi);

  // Uniform double in [0, 1).
  double NextDouble();

  // Gaussian via Box-Muller; mean 0, given stddev.
  double NextGaussian(double stddev = 1.0);

  // Bernoulli trial.
  bool NextBool(double p_true = 0.5);

  // Samples an index according to the given non-negative weights.
  // An all-zero weight vector yields a uniform draw.
  size_t NextWeighted(const std::vector<double>& weights);

  // Fisher-Yates shuffle of indices [0, n).
  std::vector<size_t> Permutation(size_t n);

 private:
  static uint64_t Rotl(uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

  uint64_t s_[4];
};

// Zipf(s) sampler over ranks [0, n). Used by the workload generator for
// skewed flow popularity.
//
// The normalised CDF depends only on (n, s), so samplers share it: the
// process keeps the most recently built CDFs (a fixed handful, each over at
// most 65,536 ranks) in an immutable, thread-safe memo, and a sampler for a
// (n, s) seen before costs a lookup instead of n pow() calls. A shared CDF
// is bit-identical to a freshly built one.
class ZipfSampler {
 public:
  ZipfSampler(size_t n, double s);

  size_t Sample(Rng& rng) const;

  size_t size() const { return cdf_->size(); }

  // The CDF this sampler draws from (shared with other samplers).
  const std::vector<double>& cdf() const { return *cdf_; }

  // Builds the normalised CDF for (n, s) without consulting the memo.
  static std::vector<double> BuildCdf(size_t n, double s);

 private:
  std::shared_ptr<const std::vector<double>> cdf_;
};

}  // namespace clara

#endif  // SRC_UTIL_RNG_H_
