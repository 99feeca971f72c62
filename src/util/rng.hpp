// Deterministic, fast pseudo-random generation for the synthetic GDELT
// world model and for test/benchmark workloads.
//
// xoshiro256** (Blackman & Vigna) is used instead of std::mt19937_64: it is
// ~4x faster, has a tiny state that can be split per worker thread via
// jump(), and gives identical streams across platforms (std distributions
// are not portable, so all distributions here are hand-rolled).
#pragma once

#include <array>
#include <cmath>
#include <cstdint>
#include <vector>

namespace gdelt {

/// xoshiro256** PRNG. Satisfies UniformRandomBitGenerator.
class Xoshiro256 {
 public:
  using result_type = std::uint64_t;

  /// Seeds the four 64-bit words from `seed` via SplitMix64 so that even
  /// adjacent seeds produce decorrelated streams.
  explicit Xoshiro256(std::uint64_t seed = 0x9E3779B97F4A7C15ull) noexcept {
    std::uint64_t x = seed;
    for (auto& w : state_) w = SplitMix64(x);
  }

  static constexpr result_type min() noexcept { return 0; }
  static constexpr result_type max() noexcept { return ~0ull; }

  result_type operator()() noexcept {
    const std::uint64_t result = Rotl(state_[1] * 5, 7) * 9;
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = Rotl(state_[3], 45);
    return result;
  }

  /// Advances the stream by 2^128 steps; used to derive per-thread
  /// independent substreams from one master seed.
  void Jump() noexcept {
    static constexpr std::uint64_t kJump[] = {
        0x180ec6d33cfd0abaull, 0xd5a61266f0c9392cull,
        0xa9582618e03fc9aaull, 0x39abdc4529b1661cull};
    std::uint64_t s0 = 0, s1 = 0, s2 = 0, s3 = 0;
    for (std::uint64_t jump : kJump) {
      for (int b = 0; b < 64; ++b) {
        if (jump & (1ull << b)) {
          s0 ^= state_[0];
          s1 ^= state_[1];
          s2 ^= state_[2];
          s3 ^= state_[3];
        }
        (*this)();
      }
    }
    state_ = {s0, s1, s2, s3};
  }

  /// A generator 2^128 steps ahead; leaves *this unchanged.
  Xoshiro256 Split() const noexcept {
    Xoshiro256 child = *this;
    child.Jump();
    return child;
  }

 private:
  static std::uint64_t SplitMix64(std::uint64_t& x) noexcept {
    x += 0x9E3779B97F4A7C15ull;
    std::uint64_t z = x;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  }
  static constexpr std::uint64_t Rotl(std::uint64_t v, int k) noexcept {
    return (v << k) | (v >> (64 - k));
  }

  std::array<std::uint64_t, 4> state_;
};

/// Uniform double in [0, 1). Uses the top 53 bits for full mantissa entropy.
inline double UniformDouble(Xoshiro256& rng) noexcept {
  return static_cast<double>(rng() >> 11) * 0x1.0p-53;
}

/// Uniform integer in [0, bound). Lemire's multiply-shift rejection method.
inline std::uint64_t UniformBelow(Xoshiro256& rng,
                                  std::uint64_t bound) noexcept {
  if (bound == 0) return 0;
  // Rejection loop terminates quickly: the acceptance probability per round
  // is > 1 - bound/2^64.
  const std::uint64_t threshold = (-bound) % bound;
  for (;;) {
    const std::uint64_t x = rng();
    const unsigned __int128 m =
        static_cast<unsigned __int128>(x) * static_cast<unsigned __int128>(bound);
    if (static_cast<std::uint64_t>(m) >= threshold) {
      return static_cast<std::uint64_t>(m >> 64);
    }
  }
}

/// Uniform integer in [lo, hi] inclusive.
inline std::int64_t UniformInt(Xoshiro256& rng, std::int64_t lo,
                               std::int64_t hi) noexcept {
  const auto span = static_cast<std::uint64_t>(hi - lo) + 1;
  return lo + static_cast<std::int64_t>(UniformBelow(rng, span));
}

/// Standard normal via Box-Muller (deterministic across platforms).
inline double NormalDouble(Xoshiro256& rng) noexcept {
  double u1 = UniformDouble(rng);
  if (u1 <= 0.0) u1 = 0x1.0p-53;  // avoid log(0)
  const double u2 = UniformDouble(rng);
  constexpr double kTwoPi = 6.283185307179586476925286766559;
  return std::sqrt(-2.0 * std::log(u1)) * std::cos(kTwoPi * u2);
}

/// Log-normal with the given parameters of the underlying normal.
inline double LogNormalDouble(Xoshiro256& rng, double mu,
                              double sigma) noexcept {
  return std::exp(mu + sigma * NormalDouble(rng));
}

/// Exponential with rate lambda.
inline double ExponentialDouble(Xoshiro256& rng, double lambda) noexcept {
  double u = UniformDouble(rng);
  if (u <= 0.0) u = 0x1.0p-53;
  return -std::log(u) / lambda;
}

/// Bernoulli trial with success probability p.
inline bool Bernoulli(Xoshiro256& rng, double p) noexcept {
  return UniformDouble(rng) < p;
}

/// Poisson-distributed count (Knuth for small mean, normal approx above 64).
inline std::uint64_t PoissonCount(Xoshiro256& rng, double mean) noexcept {
  if (mean <= 0.0) return 0;
  if (mean > 64.0) {
    const double v = mean + std::sqrt(mean) * NormalDouble(rng);
    return v <= 0.0 ? 0 : static_cast<std::uint64_t>(v + 0.5);
  }
  const double limit = std::exp(-mean);
  double prod = UniformDouble(rng);
  std::uint64_t n = 0;
  while (prod > limit) {
    ++n;
    prod *= UniformDouble(rng);
  }
  return n;
}

/// Samples integers in [1, n] with P(k) proportional to k^-alpha.
///
/// Precomputes the inverse CDF once; sampling is then a binary search.
/// This is the workhorse behind the paper's power-law event-popularity and
/// source-activity distributions (Figure 2).
class ZipfDistribution {
 public:
  /// `n` >= 1 elements, exponent `alpha` > 0.
  ZipfDistribution(std::uint64_t n, double alpha);

  /// A value in [1, n].
  std::uint64_t operator()(Xoshiro256& rng) const noexcept;

  std::uint64_t n() const noexcept { return cdf_.size(); }
  double alpha() const noexcept { return alpha_; }

 private:
  std::vector<double> cdf_;  ///< cdf_[k-1] = P(X <= k)
  double alpha_ = 0.0;
};

/// Fisher-Yates shuffle using our deterministic RNG.
template <typename T>
void Shuffle(std::vector<T>& v, Xoshiro256& rng) {
  for (std::size_t i = v.size(); i > 1; --i) {
    const std::size_t j = UniformBelow(rng, i);
    using std::swap;
    swap(v[i - 1], v[j]);
  }
}

/// Samples an index from a discrete distribution given cumulative weights.
/// `cumulative` must be non-decreasing with a positive final element.
std::size_t SampleCumulative(const std::vector<double>& cumulative,
                             Xoshiro256& rng) noexcept;

}  // namespace gdelt
