// Deterministic random-number utilities.
//
// All stochastic components in the library (measurement noise, random
// search, BO initialization) draw from an explicitly seeded Rng so that
// every experiment is reproducible bit-for-bit. `fork()` derives an
// independent child stream, which lets a parent seed fan out into many
// uncorrelated streams (one per probed deployment, per repetition, ...)
// without the classic "seed + i" correlation pitfalls.
//
// The engine behind Rng is Mt19937_64: its output is bit-identical to
// std::mt19937_64 for every seed, copy and discard, but it seeds and
// twists its first 312-word block one word at a time, as draws ask for
// them. A forked child that makes a few dozen draws (a probe's noise and
// backoff) then pays for those draws, not for seeding and twisting a
// whole block it never reads. From the second block on it regenerates
// the full block, exactly as the standard engine does.
#pragma once

#include <cstddef>
#include <cstdint>
#include <random>
#include <string_view>

namespace mlcd::util {

/// std::mt19937_64 with a lazily seeded first block. A
/// UniformRandomBitGenerator whose output sequence equals
/// std::mt19937_64's for the same seed (tests/util_test.cpp holds the
/// standard engine as the reference).
///
/// State: words [0, ready_) of x_ hold twisted output, words
/// [ready_, seeded_) hold seed-schedule values still to be twisted, and
/// pos_ is the next word to temper and return. In the first block word k
/// is twisted when it is first drawn, from seed words k+1 and k+156,
/// which are seeded on demand; after word 311 every refill is the
/// ordinary full regeneration, and ready_ == seeded_ == 312.
class Mt19937_64 {
 public:
  using result_type = std::uint64_t;
  static constexpr std::size_t state_size = 312;
  static constexpr std::size_t shift_size = 156;

  static constexpr result_type min() noexcept { return 0; }
  static constexpr result_type max() noexcept { return ~result_type{0}; }

  explicit Mt19937_64(result_type seed) noexcept { x_[0] = seed; }

  result_type operator()() noexcept {
    if (pos_ == ready_) refill();
    result_type z = x_[pos_++];
    z ^= (z >> 29) & 0x5555555555555555ULL;
    z ^= (z << 17) & 0x71d67fffeda60000ULL;
    z ^= (z << 37) & 0xfff7eee000000000ULL;
    return z ^ (z >> 43);
  }

  /// Advances the stream by `n` draws without tempering them.
  void discard(unsigned long long n) noexcept {
    while (n > 0) {
      if (pos_ == ready_) refill();
      const std::size_t step =
          n < ready_ - pos_ ? static_cast<std::size_t>(n) : ready_ - pos_;
      pos_ += step;
      n -= step;
    }
  }

 private:
  /// The generator's recurrence for word k, in place: mixes word k with
  /// word k+1 and the word 156 places on (mod 312).
  void twist_word(std::size_t k) noexcept;
  /// Makes word pos_ drawable: the next word of the first block, or a
  /// full regeneration once a block is used up.
  void refill() noexcept;

  result_type x_[state_size] = {};
  std::size_t pos_ = 0;
  std::size_t ready_ = 0;
  std::size_t seeded_ = 1;  ///< x_[0] is the seed itself
};

/// Seeded pseudo-random generator wrapping Mt19937_64 with the
/// distribution helpers the library needs.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : engine_(seed), seed_(seed) {}

  /// The seed this stream was constructed with.
  std::uint64_t seed() const noexcept { return seed_; }

  /// Uniform double in [0, 1).
  double uniform();

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi);

  /// Uniform integer in [lo, hi] (inclusive).
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi);

  /// Standard normal draw.
  double normal();

  /// Normal draw with the given mean and standard deviation.
  double normal(double mean, double stddev);

  /// Lognormal draw such that the *median* of the distribution is
  /// `median` and the underlying normal has standard deviation `sigma`.
  /// Used for multiplicative measurement noise around a true value.
  double lognormal_median(double median, double sigma);

  /// Derives an independent child stream. Mixing uses splitmix64 so
  /// nearby labels produce statistically unrelated child seeds.
  Rng fork(std::uint64_t label);

  /// Derives an independent child stream from a string label
  /// (e.g. an instance-type name), via FNV-1a hashing.
  Rng fork(std::string_view label);

  /// Access to the raw engine for std::shuffle and friends.
  Mt19937_64& engine() noexcept { return engine_; }

 private:
  Mt19937_64 engine_;
  std::uint64_t seed_;
};

/// splitmix64 mixing function (public-domain constant schedule).
std::uint64_t splitmix64(std::uint64_t x) noexcept;

/// FNV-1a 64-bit hash of a string.
std::uint64_t fnv1a64(std::string_view s) noexcept;

}  // namespace mlcd::util
