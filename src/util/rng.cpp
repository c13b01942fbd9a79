#include "util/rng.hpp"

#include <algorithm>
#include <cmath>

namespace mlcd::util {

void Mt19937_64::twist_word(std::size_t k) noexcept {
  constexpr std::size_t n = state_size;
  constexpr std::size_t m = shift_size;
  constexpr result_type upper = ~result_type{0} << 31;
  const result_type y = (x_[k] & upper) | (x_[k + 1 < n ? k + 1 : 0] & ~upper);
  x_[k] = x_[k < n - m ? k + m : k + m - n] ^ (y >> 1) ^
          ((y & 1U) != 0 ? 0xb5026f5aa96619e9ULL : 0);
}

void Mt19937_64::refill() noexcept {
  if (pos_ == state_size) {
    // A block is used up: regenerate the whole next one.
    for (std::size_t k = 0; k < state_size; ++k) twist_word(k);
    pos_ = 0;
    ready_ = state_size;
    return;
  }
  // First block: word k reads seed words k+1 and, while k < 156, k+156
  // (after that its partner word k-156 is already twisted).
  const std::size_t need = std::min(pos_ + shift_size + 1, state_size);
  for (; seeded_ < need; ++seeded_) {
    const result_type prev = x_[seeded_ - 1];
    x_[seeded_] = 6364136223846793005ULL * (prev ^ (prev >> 62)) + seeded_;
  }
  twist_word(pos_);
  ready_ = pos_ + 1;
}

double Rng::uniform() {
  return std::uniform_real_distribution<double>(0.0, 1.0)(engine_);
}

double Rng::uniform(double lo, double hi) {
  return std::uniform_real_distribution<double>(lo, hi)(engine_);
}

std::int64_t Rng::uniform_int(std::int64_t lo, std::int64_t hi) {
  return std::uniform_int_distribution<std::int64_t>(lo, hi)(engine_);
}

double Rng::normal() {
  return std::normal_distribution<double>(0.0, 1.0)(engine_);
}

double Rng::normal(double mean, double stddev) {
  return std::normal_distribution<double>(mean, stddev)(engine_);
}

double Rng::lognormal_median(double median, double sigma) {
  // exp(N(log median, sigma)) has median `median`.
  return std::exp(normal(std::log(median), sigma));
}

Rng Rng::fork(std::uint64_t label) {
  // Mix the parent seed with the label, then advance the parent engine so
  // consecutive unlabeled forks also differ.
  const std::uint64_t salt = engine_();
  return Rng(splitmix64(seed_ ^ splitmix64(label) ^ salt));
}

Rng Rng::fork(std::string_view label) { return fork(fnv1a64(label)); }

std::uint64_t splitmix64(std::uint64_t x) noexcept {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

std::uint64_t fnv1a64(std::string_view s) noexcept {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (unsigned char c : s) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  return h;
}

}  // namespace mlcd::util
