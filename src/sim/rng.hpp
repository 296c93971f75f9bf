#pragma once
// Deterministic random number generation.
//
// Every stochastic component of the simulator draws from its own named
// stream derived from a single scenario seed, so runs are reproducible and
// adding a new consumer does not perturb existing streams.

#include <array>
#include <cstddef>
#include <cstdint>
#include <string_view>

namespace pet::sim {

/// SplitMix64 — used to expand seeds into xoshiro state.
[[nodiscard]] constexpr std::uint64_t splitmix64(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9E3779B97F4A7C15ULL);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

/// xoshiro256** 1.0 (Blackman & Vigna), a fast high-quality 64-bit PRNG.
class Rng {
 public:
  using result_type = std::uint64_t;

  explicit Rng(std::uint64_t seed = 0x2545F4914F6CDD1DULL) { reseed(seed); }

  void reseed(std::uint64_t seed) {
    std::uint64_t sm = seed;
    for (auto& word : s_) word = splitmix64(sm);
  }

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~0ULL; }

  result_type operator()() {
    const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
    const std::uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = rotl(s_[3], 45);
    return result;
  }

  /// Uniform double in [0, 1).
  [[nodiscard]] double uniform() {
    return static_cast<double>((*this)() >> 11) * 0x1.0p-53;
  }

  /// Uniform double in [lo, hi).
  [[nodiscard]] double uniform(double lo, double hi) {
    return lo + (hi - lo) * uniform();
  }

  /// Uniform integer in [0, n) for n > 0 (unbiased via rejection).
  [[nodiscard]] std::uint64_t uniform_int(std::uint64_t n);

  /// Exponential with the given mean (> 0).
  [[nodiscard]] double exponential(double mean);

  /// Standard normal via Box-Muller.
  [[nodiscard]] double normal(double mean = 0.0, double stddev = 1.0);

  /// Bernoulli trial with probability p.
  [[nodiscard]] bool bernoulli(double p) { return uniform() < p; }

  /// Current stream position: two generators with equal states draw
  /// equal sequences from here on.
  [[nodiscard]] std::array<std::uint64_t, 4> state() const {
    return {s_[0], s_[1], s_[2], s_[3]};
  }

 private:
  static constexpr std::uint64_t rotl(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }
  std::uint64_t s_[4] = {};
};

/// Derive a child seed from a parent seed and a stream name; collisions are
/// as unlikely as 64-bit hash collisions. Used to give each component
/// (arrivals, flow sizes, ECMP, agents, ...) an independent stream.
[[nodiscard]] std::uint64_t derive_seed(std::uint64_t parent, std::string_view stream_name);

/// Numeric-index variant for homogeneous families (property case 0..N-1,
/// agent queue 0..Q-1) where a name would just be a formatted integer.
[[nodiscard]] std::uint64_t derive_seed(std::uint64_t parent, std::uint64_t index);

/// A node in the deterministic seed tree rooted at the scenario seed.
///
/// Components receive a Stream instead of a raw seed and split it further
/// (`child("bg")`, `child(case_index)`), so every consumer owns an
/// independent reproducible sequence and adding a consumer never perturbs
/// its siblings. The testkit property runner leans on this: case i of a
/// property draws from `Stream(seed).child("case").child(i)`, a pure
/// function of (seed, i), so a failing case replays from its seed alone.
class Stream {
 public:
  constexpr explicit Stream(std::uint64_t seed) : seed_(seed) {}

  [[nodiscard]] Stream child(std::string_view name) const {
    return Stream(derive_seed(seed_, name));
  }
  [[nodiscard]] Stream child(std::uint64_t index) const {
    return Stream(derive_seed(seed_, index));
  }

  [[nodiscard]] std::uint64_t seed() const { return seed_; }
  /// Materialize a generator at this node.
  [[nodiscard]] Rng rng() const { return Rng(seed_); }

 private:
  std::uint64_t seed_;
};

}  // namespace pet::sim
