#include "profiler/profiler.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstring>
#include <exception>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>

#include "stats/summary.hpp"
#include "util/logging.hpp"

namespace mlcd::profiler {

namespace {

std::uint64_t fault_stream_seed(std::uint64_t profiler_seed,
                                const ProfilerOptions& options) {
  if (options.fault_seed != 0) return options.fault_seed;
  return util::splitmix64(profiler_seed ^ 0xfa'17'5e'edULL);
}

}  // namespace

bool run_with_deadline(std::function<void()> task, double timeout_seconds) {
  if (timeout_seconds <= 0.0) {
    task();
    return true;
  }
  struct Shared {
    std::mutex mutex;
    std::condition_variable cv;
    bool done = false;
    bool abandoned = false;
    std::exception_ptr error;
  };
  auto shared = std::make_shared<Shared>();
  // Detached on purpose: a hung task would otherwise hang the join. The
  // helper signals through the shared block, which outlives both sides.
  std::thread([shared, task = std::move(task)] {
    std::exception_ptr error;
    try {
      task();
    } catch (...) {
      error = std::current_exception();
    }
    const std::lock_guard<std::mutex> lock(shared->mutex);
    shared->done = true;
    if (!shared->abandoned) shared->error = error;
    shared->cv.notify_all();
  }).detach();

  std::unique_lock<std::mutex> lock(shared->mutex);
  const auto deadline =
      std::chrono::steady_clock::now() +
      std::chrono::duration_cast<std::chrono::steady_clock::duration>(
          std::chrono::duration<double>(timeout_seconds));
  if (!shared->cv.wait_until(lock, deadline, [&] { return shared->done; })) {
    shared->abandoned = true;
    return false;
  }
  if (shared->error) std::rethrow_exception(shared->error);
  return true;
}

std::size_t ProbeKeyHash::operator()(const ProbeKey& key) const noexcept {
  std::uint64_t sample_bits = 0;
  static_assert(sizeof(sample_bits) == sizeof(key.sample_fraction));
  std::memcpy(&sample_bits, &key.sample_fraction, sizeof(sample_bits));
  std::uint64_t h = key.substrate;
  h = util::splitmix64(h ^ key.history);
  h = util::splitmix64(h ^ static_cast<std::uint64_t>(key.probe_index));
  h = util::splitmix64(h ^ static_cast<std::uint64_t>(key.type_index));
  h = util::splitmix64(h ^ static_cast<std::uint64_t>(key.nodes));
  h = util::splitmix64(h ^ sample_bits);
  h = util::splitmix64(h ^ static_cast<std::uint64_t>(key.iteration_tier));
  return static_cast<std::size_t>(h);
}

std::uint64_t hash_options(const ProfilerOptions& o) noexcept {
  journal::HashStream h;
  h.mix(o.base_profile_hours)
      .mix(o.extra_hours_per_3_nodes)
      .mix(o.iterations)
      .mix(o.min_window_iterations)
      .mix(o.noise_sigma)
      .mix(o.cov_threshold)
      .mix(o.max_extensions)
      .mix(o.extension_hours);
  const cloud::FaultModelOptions& f = o.faults;
  // Slot layout: the per-node launch hazard occupies the slot of the
  // retired `failure_rate` alias, and the alias's successor slot mixes a
  // constant 0.0. Configurations the alias could express keep their
  // pre-removal digest, so their journals still fingerprint-match.
  h.mix(f.launch_failure_per_node)
      .mix(0.0)
      .mix(f.spot_revocation_scale)
      .mix(f.outage_episodes_per_100h)
      .mix(f.outage_mean_hours)
      .mix(f.outage_horizon_hours)
      .mix(static_cast<std::uint64_t>(f.scheduled_outages.size()));
  for (const auto& [type, episode] : f.scheduled_outages) {
    h.mix(static_cast<std::uint64_t>(type))
        .mix(episode.start_hours)
        .mix(episode.end_hours);
  }
  h.mix(f.straggler_rate)
      .mix(f.straggler_slowdown)
      .mix(f.launch_failure_fraction)
      .mix(f.revocation_fraction_floor)
      .mix(f.outage_wall_fraction);
  const cloud::RetryPolicy& r = o.retry;
  h.mix(r.max_attempts)
      .mix(r.base_backoff_hours)
      .mix(r.backoff_multiplier)
      .mix(r.max_backoff_hours)
      .mix(r.backoff_jitter_sigma);
  h.mix(o.fault_seed)
      .mix(o.probe_attempt_timeout_hours)
      .mix(o.watchdog_wall_seconds);
  // Mixed only when enabled: ladder-free configurations keep the digest
  // they had before the fidelity axis existed, so their journals and
  // cache keys stay valid across the engine versions.
  if (o.fidelity.enabled()) h.mix(hash_fidelity_ladder(o.fidelity));
  return h.digest();
}

double fidelity_speed_bias(const ProfilerOptions& options,
                           const Fidelity& fidelity) noexcept {
  if (fidelity.is_full()) return 0.0;
  return options.fidelity.max_speed_bias * (1.0 - fidelity.sample_fraction);
}

int fidelity_iterations(const ProfilerOptions& options,
                        const Fidelity& fidelity) noexcept {
  if (fidelity.is_full()) return options.iterations;
  const double w = fidelity_window_fraction(fidelity.iteration_tier);
  return std::max(
      2, static_cast<int>(std::lround(options.iterations * w)));
}

double fidelity_noise_multiplier(const ProfilerOptions& options,
                                 const Fidelity& fidelity) noexcept {
  if (fidelity.is_full()) return 1.0;
  // Sigma inflation from sub-sampling x the sqrt-of-n penalty of a
  // shorter measurement window. The floor keeps the ratio finite for a
  // (degenerate) noise-free profiler.
  const double base_sigma = std::max(options.noise_sigma, 1e-9);
  const double low_sigma =
      base_sigma +
      options.fidelity.max_extra_noise * (1.0 - fidelity.sample_fraction);
  const double iteration_ratio =
      static_cast<double>(options.iterations) /
      static_cast<double>(fidelity_iterations(options, fidelity));
  return (low_sigma / base_sigma) * std::sqrt(iteration_ratio);
}

journal::ProbeRecord measurement_record(const ProfileResult& result) {
  journal::ProbeRecord rec;
  rec.type_index = result.deployment.type_index;
  rec.nodes = result.deployment.nodes;
  rec.sample_fraction = result.fidelity.sample_fraction;
  rec.iteration_tier = result.fidelity.iteration_tier;
  rec.failed = result.failed;
  rec.feasible = result.feasible;
  rec.measured_speed = result.measured_speed;
  rec.true_speed = result.true_speed;
  rec.profile_hours = result.profile_hours;
  rec.profile_cost = result.profile_cost;
  rec.attempts = result.attempts;
  rec.fault = static_cast<int>(result.fault);
  rec.backoff_hours = result.backoff_hours;
  rec.attempt_log.reserve(result.attempt_log.size());
  for (const cloud::AttemptRecord& a : result.attempt_log) {
    rec.attempt_log.push_back(
        {static_cast<int>(a.fault), a.hours, a.cost, a.backoff_hours});
  }
  return rec;
}

Profiler::Profiler(const perf::TrainingPerfModel& perf,
                   const cloud::DeploymentSpace& space,
                   cloud::BillingMeter& meter, std::uint64_t seed,
                   ProfilerOptions options)
    : perf_(&perf),
      space_(&space),
      meter_(&meter),
      rng_(seed),
      options_(options),
      fault_model_(space.catalog(), fault_stream_seed(seed, options),
                   options.faults) {
  if (options_.iterations < 2) {
    throw std::invalid_argument("Profiler: need at least 2 iterations");
  }
  if (options_.base_profile_hours <= 0.0 || options_.noise_sigma < 0.0 ||
      options_.max_extensions < 0) {
    throw std::invalid_argument("Profiler: invalid options");
  }
  for (const Fidelity& rung : options_.fidelity.rungs) {
    if (!(rung.sample_fraction > 0.0) || rung.sample_fraction > 1.0 ||
        rung.iteration_tier < 0 || rung.iteration_tier > 8 ||
        rung.is_full()) {
      throw std::invalid_argument(
          "Profiler: invalid fidelity rung (sample fraction must be in "
          "(0, 1], tier in [0, 8], and the full rung is implicit)");
    }
  }
  if (options_.fidelity.max_speed_bias < 0.0 ||
      options_.fidelity.max_speed_bias >= 1.0 ||
      options_.fidelity.max_extra_noise < 0.0) {
    throw std::invalid_argument("Profiler: invalid fidelity options");
  }
  if (options_.retry.max_attempts < 1 ||
      options_.retry.base_backoff_hours < 0.0 ||
      options_.retry.max_backoff_hours < 0.0 ||
      options_.retry.backoff_multiplier < 1.0) {
    throw std::invalid_argument("Profiler: invalid retry policy");
  }
  if (options_.probe_attempt_timeout_hours < 0.0 ||
      options_.watchdog_wall_seconds < 0.0) {
    throw std::invalid_argument("Profiler: negative watchdog deadline");
  }
}

void Profiler::set_replay(std::vector<journal::ProbeRecord> records) {
  replay_ = std::move(records);
  replay_pos_ = 0;
}

double Profiler::expected_profile_hours(const perf::TrainingConfig& config,
                                        const cloud::Deployment& d,
                                        const Fidelity& fidelity) const {
  const int extra_nodes = d.nodes - 1;
  const double base = options_.base_profile_hours +
                      options_.extra_hours_per_3_nodes * (extra_nodes / 3);
  // Window stretch: half the base window is measurement budget; models
  // whose iterations cannot fit min_window_iterations into it stretch
  // the probe (huge models are expensive to profile *anywhere*).
  const perf::IterationBreakdown b = perf_->breakdown(config, d);
  if (fidelity.is_full()) {
    // The exact legacy arithmetic, kept on its own branch: restructuring
    // it through the reduced-fidelity formula below would not be bitwise
    // identical, and the full-fidelity engine must be.
    if (!b.feasible) return base;
    const double needed_h =
        options_.min_window_iterations * b.iteration_s / 3600.0;
    return base + std::max(0.0, needed_h - 0.5 * base);
  }
  // Reduced fidelity. Half the base window is setup/warm-up; dataset
  // sub-sampling shrinks that half linearly (a smaller working set
  // stages and warms faster). The other half is measurement budget —
  // equivalently max(0.5 * base, needed_h) of window — scaled by the
  // tier's window fraction.
  const double w = fidelity_window_fraction(fidelity.iteration_tier);
  const double setup = 0.5 * base * (0.5 + 0.5 * fidelity.sample_fraction);
  if (!b.feasible) return setup + 0.5 * base * w;
  const double needed_h =
      options_.min_window_iterations * b.iteration_s / 3600.0;
  return setup + std::max(0.5 * base, needed_h) * w;
}

double Profiler::expected_profile_cost(const perf::TrainingConfig& config,
                                       const cloud::Deployment& d,
                                       const Fidelity& fidelity) const {
  return expected_profile_hours(config, d, fidelity) *
         space_->hourly_price(d);
}

double Profiler::worst_case_profile_hours(const perf::TrainingConfig& config,
                                          const cloud::Deployment& d,
                                          const Fidelity& fidelity) const {
  const double planned = expected_profile_hours(config, d, fidelity);
  const bool faults_on = fault_model_.enabled(space_->market());
  const double timeout = options_.probe_attempt_timeout_hours;
  if (!faults_on && timeout <= 0.0) return planned;
  const auto& faults = fault_model_.options();
  const double slowdown = (faults_on && faults.straggler_rate > 0.0)
                              ? std::max(1.0, faults.straggler_slowdown)
                              : 1.0;
  const double extension_hours =
      fidelity.is_full()
          ? options_.extension_hours
          : options_.extension_hours *
                fidelity_window_fraction(fidelity.iteration_tier);
  // Worst success: fully extended window on a straggling cluster. The
  // watchdog caps every attempt's wall time at its deadline (an attempt
  // that would run longer is killed and retried), so the deadline also
  // caps the bound.
  const double success_natural =
      (planned + options_.max_extensions * extension_hours) * slowdown;
  const double success =
      timeout > 0.0 ? std::min(success_natural, timeout) : success_natural;
  // Worst retry chain: every preceding attempt fails at the costliest
  // fault and every backoff hits its (hard) cap.
  double per_failed_wall =
      faults_on
          ? planned * fault_model_.worst_failed_wall_fraction(space_->market())
          : 0.0;
  if (timeout > 0.0) {
    per_failed_wall = std::min(per_failed_wall, timeout);
    // When even a clean window overruns the deadline, measurement
    // attempts themselves time out after a full deadline's worth of wall.
    if (success_natural > timeout) per_failed_wall = timeout;
  }
  if (!faults_on && per_failed_wall <= 0.0) return success;  // cannot fail
  const int retries = options_.retry.max_attempts - 1;
  return success +
         retries * (per_failed_wall + options_.retry.max_backoff_hours);
}

double Profiler::worst_case_profile_cost(const perf::TrainingConfig& config,
                                         const cloud::Deployment& d,
                                         const Fidelity& fidelity) const {
  const bool faults_on = fault_model_.enabled(space_->market());
  const double timeout = options_.probe_attempt_timeout_hours;
  if (!faults_on && timeout <= 0.0) {
    return expected_profile_cost(config, d, fidelity);
  }
  const double planned = expected_profile_hours(config, d, fidelity);
  const double price = space_->hourly_price(d);
  const auto& faults = fault_model_.options();
  const double slowdown = (faults_on && faults.straggler_rate > 0.0)
                              ? std::max(1.0, faults.straggler_slowdown)
                              : 1.0;
  const double extension_hours =
      fidelity.is_full()
          ? options_.extension_hours
          : options_.extension_hours *
                fidelity_window_fraction(fidelity.iteration_tier);
  // The meter rounds every charge up to whole seconds with a 60 s
  // minimum; bound each attempt's charge by hours + 1 s, floored at 60 s.
  const auto billed = [&](double hours) {
    return std::max(hours + 1.0 / 3600.0, 60.0 / 3600.0) * price;
  };
  const double success_natural =
      (planned + options_.max_extensions * extension_hours) * slowdown;
  const double success = billed(
      timeout > 0.0 ? std::min(success_natural, timeout) : success_natural);
  double per_failed_bill =
      faults_on
          ? planned * fault_model_.worst_failed_bill_fraction(space_->market())
          : 0.0;
  if (timeout > 0.0) {
    per_failed_bill = std::min(per_failed_bill, timeout);
    // A timed-out measurement attempt bills the full deadline it ran.
    if (success_natural > timeout) per_failed_bill = timeout;
  }
  if (!faults_on && per_failed_bill <= 0.0) return success;  // cannot fail
  const int retries = options_.retry.max_attempts - 1;
  return success + retries * billed(per_failed_bill);
}

ProfileResult Profiler::profile(const perf::TrainingConfig& config,
                                const ProbeRequest& request) {
  const cloud::Deployment& d = request.deployment;
  if (!space_->contains(d)) {
    throw std::invalid_argument("Profiler::profile: deployment out of space");
  }
  ProfileResult result;
  if (replay_pending()) {
    result = replay_next(config, request);
  } else if (gate_ != nullptr) {
    const ProbeKey key = next_probe_key(request);
    if (std::optional<journal::ProbeRecord> hit = gate_->admit(key, d)) {
      // Another job already measured this exact probe (same fidelity
      // included — the key forbids cross-fidelity aliasing): serve the
      // shared record the way journal resume would, but trace-neutrally.
      result = serve_record(config, request, *hit, /*from_journal=*/false);
    } else {
      // Admitted: capacity for d.nodes is held until publish/abandon.
      try {
        result = profile_live(config, request);
      } catch (...) {
        gate_->abandon(d);
        throw;
      }
      gate_->publish(key, d, measurement_record(result));
    }
  } else {
    result = profile_live(config, request);
  }
  note_history(result);
  return result;
}

ProfileResult Profiler::profile_live(const perf::TrainingConfig& config,
                                     const ProbeRequest& request) {
  const cloud::Deployment& d = request.deployment;
  const Fidelity& fidelity = request.fidelity;
  ++probes_;
  util::Rng probe_rng = rng_.fork(static_cast<std::uint64_t>(probes_));

  ProfileResult result;
  result.deployment = d;
  result.fidelity = fidelity;
  result.true_speed = perf_->true_speed(config, d);
  const double planned = expected_profile_hours(config, d, fidelity);

  const bool faults_on = fault_model_.enabled(space_->market());
  const double timeout = options_.probe_attempt_timeout_hours;
  // Timed-out attempts are retryable even on a fault-free cloud.
  const int max_attempts =
      (faults_on || timeout > 0.0) ? options_.retry.max_attempts : 1;

  // Watchdog conversion: an attempt that outruns its deadline is killed
  // at the deadline — the cluster ran that long, so the deadline's worth
  // of wall time is billed and charged to the clock, and the attempt
  // becomes a retryable kProbeTimeout failure.
  const auto kill_at_deadline = [&](double wall_hours, double bill_hours,
                                    int attempt) {
    double cost = 0.0;
    if (bill_hours > 0.0) {
      cost = meter_->charge(d, bill_hours, cloud::UsageKind::kProfiling,
                            "probe attempt failed: probe-timeout");
    }
    result.fault = cloud::FaultKind::kProbeTimeout;
    result.profile_hours += wall_hours;
    result.profile_cost += cost;
    clock_hours_ += wall_hours;
    double backoff = 0.0;
    if (attempt < max_attempts) {
      backoff = options_.retry.backoff_hours_after(attempt, probe_rng);
      result.backoff_hours += backoff;
      result.profile_hours += backoff;
      clock_hours_ += backoff;
    }
    result.attempt_log.push_back(
        {cloud::FaultKind::kProbeTimeout, wall_hours, cost, backoff});
    MLCD_LOG(kDebug, "profiler")
        << "probe attempt " << attempt << "/" << max_attempts << " at "
        << space_->describe(d) << " killed by watchdog after " << wall_hours
        << " h";
  };

  for (int attempt = 1; attempt <= max_attempts; ++attempt) {
    result.attempts = attempt;
    cloud::AttemptOutcome outcome;
    if (faults_on) {
      outcome =
          fault_model_.attempt(d, space_->market(), planned, clock_hours_);
    }

    if (outcome.failed()) {
      if (timeout > 0.0 && planned * outcome.wall_fraction > timeout) {
        // The watchdog fires before the underlying fault is diagnosed.
        kill_at_deadline(
            timeout,
            outcome.bill_fraction > 0.0
                ? std::min(planned * outcome.bill_fraction, timeout)
                : 0.0,
            attempt);
        continue;
      }
      // The attempt died before producing a measurement. Whatever ran is
      // billed (a real cloud charges for the nodes that came up), the
      // wall clock advances, and — unless this was the last attempt — a
      // jittered backoff charges the deadline clock only.
      const double hours = planned * outcome.wall_fraction;
      double cost = 0.0;
      if (outcome.bill_fraction > 0.0) {
        cost = meter_->charge(
            d, planned * outcome.bill_fraction, cloud::UsageKind::kProfiling,
            "probe attempt failed: " +
                std::string(cloud::fault_kind_name(outcome.fault)));
      }
      result.fault = outcome.fault;
      result.profile_hours += hours;
      result.profile_cost += cost;
      clock_hours_ += hours;
      double backoff = 0.0;
      if (attempt < max_attempts) {
        backoff = options_.retry.backoff_hours_after(attempt, probe_rng);
        result.backoff_hours += backoff;
        result.profile_hours += backoff;
        clock_hours_ += backoff;
      }
      result.attempt_log.push_back({outcome.fault, hours, cost, backoff});
      MLCD_LOG(kDebug, "profiler")
          << "probe attempt " << attempt << "/" << max_attempts << " at "
          << space_->describe(d) << " failed: "
          << cloud::fault_kind_name(outcome.fault);
      continue;
    }

    // Launch succeeded (possibly on a straggling cluster).
    result.fault = outcome.fault;  // kNone or kStraggler

    if (result.true_speed <= 0.0) {
      // The job fails to launch (out of memory); the cluster time until
      // the failure is diagnosed is still billed. Infeasibility is a
      // property of the deployment, not of the weather — never retried.
      const double hours = planned * outcome.slowdown;
      if (timeout > 0.0 && hours > timeout) {
        // Killed before the diagnosis completes: from the controller's
        // side a hang and a slow OOM are indistinguishable.
        kill_at_deadline(timeout, timeout, attempt);
        continue;
      }
      const double cost = meter_->charge(
          d, hours, cloud::UsageKind::kProfiling, "probe (infeasible)");
      result.feasible = false;
      result.profile_hours += hours;
      result.profile_cost += cost;
      clock_hours_ += hours;
      result.attempt_log.push_back({outcome.fault, hours, cost, 0.0});
      MLCD_LOG(kDebug, "profiler")
          << "infeasible probe " << space_->describe(d);
      return result;
    }

    // Measure noisy per-iteration throughput; extend while unstable. The
    // measurement runs on a self-contained state block so the real-time
    // watchdog can abandon a hung computation without sharing any state
    // with it; when the watchdog is off (or the task finishes in time)
    // the block is copied back and the draws are bit-identical to the
    // historical inline path.
    struct MeasureState {
      util::Rng rng;
      stats::RunningStats window;
      int extensions = 0;
      double attempt_hours = 0.0;
    };
    auto state = std::make_shared<MeasureState>(
        MeasureState{probe_rng, stats::RunningStats{}, 0, 0.0});
    state->extensions = result.extensions;
    state->attempt_hours = planned;
    // Fidelity semantics, each on an is_full() branch so the full path
    // reuses the exact values (and therefore the exact draws) of the
    // single-fidelity engine: a sub-sampled dataset biases the measured
    // throughput optimistically and adds measurement noise; a truncated
    // tier measures fewer iterations per (cheaper) window.
    const double median_speed =
        fidelity.is_full()
            ? result.true_speed
            : result.true_speed *
                  (1.0 + fidelity_speed_bias(options_, fidelity));
    const double sigma =
        fidelity.is_full()
            ? options_.noise_sigma
            : options_.noise_sigma + options_.fidelity.max_extra_noise *
                                         (1.0 - fidelity.sample_fraction);
    const int window_iterations = fidelity_iterations(options_, fidelity);
    const double extension_hours =
        fidelity.is_full()
            ? options_.extension_hours
            : options_.extension_hours *
                  fidelity_window_fraction(fidelity.iteration_tier);
    const ProfilerOptions& opts = options_;
    const auto measure = [state, median_speed, sigma, window_iterations,
                          extension_hours, &opts] {
      auto measure_iterations = [&](int count) {
        for (int i = 0; i < count; ++i) {
          state->window.add(
              state->rng.lognormal_median(median_speed, sigma));
        }
      };
      measure_iterations(window_iterations);
      while (state->window.coefficient_of_variation() > opts.cov_threshold &&
             state->extensions < opts.max_extensions) {
        ++state->extensions;
        state->attempt_hours += extension_hours;
        measure_iterations(window_iterations);
      }
    };
    if (!run_with_deadline(measure, options_.watchdog_wall_seconds)) {
      // Real-time expiry: the measurement computation itself hung. The
      // simulated cluster ran its (deadline-capped) window for nothing.
      const double wall = planned * outcome.slowdown;
      const double capped =
          timeout > 0.0 ? std::min(wall, timeout) : wall;
      kill_at_deadline(capped, capped, attempt);
      continue;
    }
    probe_rng = state->rng;
    result.extensions = state->extensions;
    const stats::RunningStats& window = state->window;
    double attempt_hours = state->attempt_hours;
    attempt_hours *= outcome.slowdown;

    if (timeout > 0.0 && attempt_hours > timeout) {
      // The (possibly straggler-stretched, possibly extended) window
      // overran the per-attempt deadline: the watchdog kills the cluster
      // at the deadline and the measurement is discarded.
      kill_at_deadline(timeout, timeout, attempt);
      continue;
    }

    result.feasible = true;
    result.measured_speed = window.mean();
    result.iterations = static_cast<int>(window.count());
    const double cost =
        meter_->charge(d, attempt_hours, cloud::UsageKind::kProfiling,
                       "probe " + space_->describe(d));
    result.profile_hours += attempt_hours;
    result.profile_cost += cost;
    clock_hours_ += attempt_hours;
    result.attempt_log.push_back({outcome.fault, attempt_hours, cost, 0.0});
    MLCD_LOG(kDebug, "profiler")
        << "probe " << space_->describe(d)
        << " speed=" << result.measured_speed << " (true "
        << result.true_speed << ") hours=" << result.profile_hours
        << " cost=$" << result.profile_cost
        << " attempts=" << result.attempts;
    return result;
  }

  // Every launch attempt failed: billed but uninformative.
  result.failed = true;
  MLCD_LOG(kDebug, "profiler")
      << "probe failed operationally at " << space_->describe(d) << " after "
      << result.attempts << " attempts ("
      << cloud::fault_kind_name(result.fault) << ")";
  return result;
}

ProfileResult Profiler::replay_next(const perf::TrainingConfig& config,
                                    const ProbeRequest& request) {
  const journal::ProbeRecord& rec = replay_[replay_pos_];
  ++replay_pos_;
  return serve_record(config, request, rec, /*from_journal=*/true);
}

ProfileResult Profiler::serve_record(const perf::TrainingConfig& config,
                                     const ProbeRequest& request,
                                     const journal::ProbeRecord& rec,
                                     bool from_journal) {
  const cloud::Deployment& d = request.deployment;
  const int probe_number = probes_ + 1;
  const auto diverged = [&](const std::string& what) -> void {
    const std::string context =
        from_journal
            ? "replaying probe " + std::to_string(probe_number)
            : "probe-cache hit at probe " + std::to_string(probe_number);
    throw journal::JournalError(
        journal::JournalErrorCode::kReplayDiverged,
        context + " at " + space_->describe(d) + ": " + what +
            " — the run configuration or binary has drifted since the " +
            (from_journal ? "journal was written" : "record was cached"));
  };
  if (rec.type_index != d.type_index || rec.nodes != d.nodes) {
    diverged("record holds type " + std::to_string(rec.type_index) + " x " +
             std::to_string(rec.nodes) +
             " but the search requested a different deployment");
  }
  if (rec.sample_fraction != request.fidelity.sample_fraction ||
      rec.iteration_tier != request.fidelity.iteration_tier) {
    diverged("record was measured at a different fidelity than requested");
  }
  ++probes_;
  // Advance the parent stream exactly as the original run's probe fork
  // did: fork's only effect on the parent is one engine draw. The child
  // stream fed only this probe's noise and backoff draws, which the
  // record already holds, so it is never built.
  rng_.engine().discard(1);

  ProfileResult result;
  result.deployment = d;
  result.fidelity = request.fidelity;
  result.true_speed = perf_->true_speed(config, d);
  if (result.true_speed != rec.true_speed) {
    diverged("substrate true speed differs from the recorded value");
  }
  // The fault stream re-roll below must see the window the original run
  // planned — which depends on the record's fidelity.
  const double planned = expected_profile_hours(config, d, request.fidelity);
  const bool faults_on = fault_model_.enabled(space_->market());

  for (std::size_t i = 0; i < rec.attempt_log.size(); ++i) {
    const journal::AttemptEntry& entry = rec.attempt_log[i];
    const auto kind = static_cast<cloud::FaultKind>(entry.fault);
    if (faults_on) {
      // Re-roll the fault stream: attempt() is a pure function of
      // (seed, deployment, market, window, clock), so this advances the
      // stream to exactly where the original run left it — and doubles
      // as a divergence check. A journaled timeout may wrap any
      // underlying outcome (the watchdog fired first), so it matches all.
      const cloud::AttemptOutcome outcome =
          fault_model_.attempt(d, space_->market(), planned, clock_hours_);
      if (kind != cloud::FaultKind::kProbeTimeout && outcome.fault != kind) {
        diverged("fault stream produced '" +
                 std::string(cloud::fault_kind_name(outcome.fault)) +
                 "' where the journal recorded '" +
                 std::string(cloud::fault_kind_name(kind)) + "'");
      }
    }
    double cost = 0.0;
    if (entry.cost > 0.0) {
      // Re-bill through the meter with the recorded wall hours (billed
      // hours equal wall hours on every charging path), reproducing the
      // original charge — and its ledger line — bit-identically.
      const bool last = i + 1 == rec.attempt_log.size();
      std::string note;
      if (!last || rec.failed) {
        note = "probe attempt failed: " +
               std::string(cloud::fault_kind_name(kind));
      } else if (!rec.feasible) {
        note = "probe (infeasible)";
      } else {
        note = "probe " + space_->describe(d);
      }
      cost = meter_->charge(d, entry.hours, cloud::UsageKind::kProfiling,
                            note);
      if (cost != entry.cost) {
        diverged("re-derived charge differs from the journaled cost");
      }
    }
    clock_hours_ += entry.hours + entry.backoff_hours;
    result.attempt_log.push_back({kind, entry.hours, cost,
                                  entry.backoff_hours});
  }

  result.failed = rec.failed;
  result.feasible = rec.feasible;
  result.measured_speed = rec.measured_speed;
  result.profile_hours = rec.profile_hours;
  result.profile_cost = rec.profile_cost;
  result.attempts = rec.attempts;
  result.fault = static_cast<cloud::FaultKind>(rec.fault);
  result.backoff_hours = rec.backoff_hours;
  if (from_journal) {
    result.replayed = true;
    ++replayed_;
    MLCD_LOG(kDebug, "profiler")
        << "replayed probe " << replayed_ << " at " << space_->describe(d)
        << " from journal";
  } else {
    // Cache service is trace-neutral: the result is indistinguishable
    // from a live execution, so solo and batch traces stay bit-identical.
    ++cache_served_;
    MLCD_LOG(kDebug, "profiler")
        << "served probe " << probe_number << " at " << space_->describe(d)
        << " from the shared probe cache";
  }
  return result;
}

void Profiler::note_history(const ProfileResult& result) {
  const journal::ProbeRecord rec = measurement_record(result);
  journal::HashStream h;
  h.mix(history_)
      .mix(static_cast<std::uint64_t>(rec.type_index))
      .mix(rec.nodes)
      .mix(rec.failed)
      .mix(rec.feasible)
      .mix(rec.measured_speed)
      .mix(rec.true_speed)
      .mix(rec.profile_hours)
      .mix(rec.profile_cost)
      .mix(rec.attempts)
      .mix(rec.fault)
      .mix(rec.backoff_hours)
      .mix(static_cast<std::uint64_t>(rec.attempt_log.size()));
  for (const journal::AttemptEntry& a : rec.attempt_log) {
    h.mix(a.fault).mix(a.hours).mix(a.cost).mix(a.backoff_hours);
  }
  // Full-fidelity records mix nothing extra so a ladder-free run keeps
  // the exact pre-multi-fidelity history digest (and hence ProbeKeys).
  if (!(rec.sample_fraction == 1.0 && rec.iteration_tier == 0)) {
    h.mix(rec.sample_fraction).mix(rec.iteration_tier);
  }
  history_ = h.digest();
}

}  // namespace mlcd::profiler
