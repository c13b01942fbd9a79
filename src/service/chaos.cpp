#include "service/chaos.hpp"

#include <cmath>
#include <stdexcept>
#include <string>

#include "util/rng.hpp"

namespace mlcd::service {

namespace {

constexpr std::uint64_t kSaltLaneCrash = 0x6c616e65u;    // "lane"
constexpr std::uint64_t kSaltRevocation = 0x73706f74u;   // "spot"
constexpr std::uint64_t kSaltProbeLoss = 0x6c6f7373u;    // "loss"
constexpr std::uint64_t kSaltStall = 0x7374616cu;        // "stal"
constexpr std::uint64_t kSaltBackoff = 0x77616974u;      // "wait"

void check_rate(double rate, const char* name) {
  if (!std::isfinite(rate) || rate < 0.0 || rate > 1.0) {
    throw std::invalid_argument(std::string("chaos: '") + name +
                                "' must be a finite rate in [0, 1]");
  }
}

}  // namespace

bool ChaosOptions::enabled() const noexcept {
  return lane_crash_rate > 0.0 || revocation_rate > 0.0 ||
         probe_loss_rate > 0.0 || stall_rate > 0.0;
}

void ChaosOptions::validate() const {
  check_rate(lane_crash_rate, "lane_crash_rate");
  check_rate(revocation_rate, "revocation_rate");
  check_rate(probe_loss_rate, "probe_loss_rate");
  check_rate(stall_rate, "stall_rate");
  if (retry.max_attempts < 1) {
    throw std::invalid_argument("chaos: retry.max_attempts must be >= 1");
  }
  if (!std::isfinite(retry.base_backoff_hours) ||
      retry.base_backoff_hours < 0.0 ||
      !std::isfinite(retry.max_backoff_hours) ||
      retry.max_backoff_hours < 0.0) {
    throw std::invalid_argument(
        "chaos: retry backoff bounds must be finite and >= 0");
  }
}

ChaosInjector::ChaosInjector(ChaosOptions options)
    : options_(options) {
  options_.validate();
}

std::uint64_t ChaosInjector::job_key(std::string_view job_name) noexcept {
  return util::fnv1a64(job_name);
}

double ChaosInjector::draw(std::uint64_t job_key, int step,
                           std::uint64_t salt) const noexcept {
  // Pure hash-based Bernoulli source: no shared stream to advance, so
  // the schedule cannot depend on which lane or thread asks first.
  std::uint64_t x = util::splitmix64(options_.seed ^ salt);
  x = util::splitmix64(x ^ job_key);
  x = util::splitmix64(x + static_cast<std::uint64_t>(step));
  return static_cast<double>(x >> 11) * 0x1.0p-53;
}

ChaosFault ChaosInjector::roll(std::uint64_t job_key,
                               int step) const noexcept {
  if (options_.lane_crash_rate > 0.0 &&
      draw(job_key, step, kSaltLaneCrash) < options_.lane_crash_rate) {
    return ChaosFault::kLaneCrash;
  }
  if (options_.revocation_rate > 0.0 &&
      draw(job_key, step, kSaltRevocation) < options_.revocation_rate) {
    return ChaosFault::kSpotRevocation;
  }
  if (options_.probe_loss_rate > 0.0 &&
      draw(job_key, step, kSaltProbeLoss) < options_.probe_loss_rate) {
    return ChaosFault::kProbeLoss;
  }
  if (options_.stall_rate > 0.0 &&
      draw(job_key, step, kSaltStall) < options_.stall_rate) {
    return ChaosFault::kSchedulerStall;
  }
  return ChaosFault::kNone;
}

double ChaosInjector::revocation_backoff_hours(std::uint64_t job_key,
                                               int ordinal) const {
  // A fresh forked stream per (job, ordinal): the jittered delay is a
  // pure function of the chaos identity, like every other decision.
  util::Rng rng(util::splitmix64(options_.seed ^ kSaltBackoff) ^
                util::splitmix64(job_key +
                                 static_cast<std::uint64_t>(ordinal)));
  return options_.retry.backoff_hours_after(ordinal + 1, rng);
}

}  // namespace mlcd::service
