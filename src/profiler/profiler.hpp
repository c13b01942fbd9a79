// The MLCD Profiler (paper §IV).
//
// Executes a short training run on a candidate deployment and reports the
// measured throughput together with what the probe cost. Time accounting
// follows the paper's evaluation protocol (§V-A): a single-node probe
// takes 10 minutes including cluster setup and warm-up, plus 1 minute for
// every 3 additional nodes. For statistical stability the profiler
// monitors throughput across iterations and extends the measurement
// window while the coefficient of variation stays high.
//
// Measurements are the *only* noisy quantity in the substrate: the
// performance model's true_speed is deterministic and the profiler
// perturbs each iteration with seeded lognormal noise.
//
// Operational faults are injected through a cloud::FaultModel and
// recovered from with a cloud::RetryPolicy: each probe launches up to
// max_attempts clusters, every failed attempt bills the meter and the
// clock (a real cloud charges for the nodes that came up), and backoff
// delays between attempts charge the deadline clock only. The fault
// model draws from its own seeded stream, so a fault-free configuration
// is bit-identical to a profiler without the fault layer.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "cloud/billing.hpp"
#include "cloud/deployment.hpp"
#include "cloud/fault_model.hpp"
#include "journal/journal.hpp"
#include "perf/perf_model.hpp"
#include "profiler/fidelity.hpp"
#include "profiler/probe_gate.hpp"
#include "util/rng.hpp"

namespace mlcd::profiler {

struct ProfilerOptions {
  /// Wall time of a single-node probe including setup/warm-up, hours.
  double base_profile_hours = 10.0 / 60.0;
  /// Additional wall time per 3 extra nodes, hours.
  double extra_hours_per_3_nodes = 1.0 / 60.0;
  /// Iterations measured inside one probe window.
  int iterations = 20;
  /// The probe window must contain at least this many training
  /// iterations to be meaningful; when a model's iteration takes so long
  /// that the base window cannot fit them (huge models on small
  /// deployments), the window — and the bill — stretches accordingly.
  /// This is the second face of heterogeneous profiling cost: probing a
  /// 20B-parameter model is expensive *everywhere*.
  int min_window_iterations = 10;
  /// Per-iteration multiplicative noise (lognormal sigma).
  double noise_sigma = 0.03;
  /// Extend the window while the across-iteration coefficient of
  /// variation exceeds this.
  double cov_threshold = 0.08;
  /// Maximum number of window extensions.
  int max_extensions = 3;
  /// Wall time added per extension, hours.
  double extension_hours = 2.0 / 60.0;
  /// The fidelity ladder low-cost exploratory probes may descend (see
  /// fidelity.hpp). Empty (the default) disables multi-fidelity: every
  /// probe runs at full fidelity and the profiler is bit-identical to
  /// the single-fidelity engine.
  FidelityOptions fidelity;
  /// Operational hazards injected per launch attempt.
  cloud::FaultModelOptions faults;
  /// Recovery discipline when an attempt fails.
  cloud::RetryPolicy retry;
  /// Seed of the fault stream; 0 derives one from the profiler seed.
  std::uint64_t fault_seed = 0;
  /// Probe watchdog: simulated wall-hours deadline per launch attempt.
  /// An attempt whose window would run longer than this is killed at the
  /// deadline and surfaces as a retryable FaultKind::kProbeTimeout that
  /// bills the elapsed (capped) window — the loop never stalls on a
  /// straggler-stretched or runaway probe, and the reserve still pays
  /// for the time the cluster ran. 0 disables. Timeouts are retried per
  /// `retry` even when no cloud faults are configured.
  double probe_attempt_timeout_hours = 0.0;
  /// Probe watchdog, real-time face: wall-clock seconds the measurement
  /// computation itself may take before the attempt is abandoned (for
  /// hangs in the measurement path, not the simulated cluster). Runs the
  /// measurement under run_with_deadline with a self-contained state
  /// block. 0 disables (the default — when enabled, an expiry depends on
  /// host speed, so bit-identical traces across machines are only
  /// guaranteed while it never fires).
  double watchdog_wall_seconds = 0.0;
};

/// What to probe, and how hard: the single entry point of
/// Profiler::profile. Strategies propose (deployment, fidelity) jointly
/// — a cheap low-fidelity sweep of a deployment and its full-fidelity
/// confirmation are different probes with different cost and different
/// information content.
struct ProbeRequest {
  cloud::Deployment deployment;
  Fidelity fidelity{};  ///< default: a full-fidelity probe
};

/// Outcome of one profiling probe.
struct ProfileResult {
  cloud::Deployment deployment;
  /// The fidelity the probe ran at (echoed from the request).
  Fidelity fidelity{};
  bool failed = false;          ///< all launch attempts failed (retryable)
  bool feasible = false;        ///< false when the model cannot run there
  double measured_speed = 0.0;  ///< samples/s (mean over iterations)
  double true_speed = 0.0;      ///< substrate ground truth (diagnostics)
  double profile_hours = 0.0;   ///< wall time consumed, incl. retries+backoff
  double profile_cost = 0.0;    ///< dollars billed across all attempts
  int iterations = 0;           ///< iterations actually measured
  int extensions = 0;           ///< stability extensions performed
  int attempts = 1;             ///< launch attempts made (>= 1)
  /// Fault on the final attempt: kNone for a clean success, kStraggler
  /// for a stretched success, otherwise why the probe ultimately failed.
  cloud::FaultKind fault = cloud::FaultKind::kNone;
  double backoff_hours = 0.0;   ///< retry delays (clock only, never billed)
  /// Per-attempt accounting; profile_cost == sum of attempt costs.
  std::vector<cloud::AttemptRecord> attempt_log;
  /// True when this result was served from a resume journal instead of
  /// executing the probe (spend re-accounted, nothing re-run).
  bool replayed = false;
};

/// The real-time face of the probe watchdog: runs `task` with a
/// wall-clock deadline and returns true when it finished within
/// `timeout_seconds`, false when the deadline expired first.
/// `timeout_seconds <= 0` runs the task inline (no deadline, always
/// true). A task that misses its deadline is *abandoned*, not cancelled:
/// its helper thread runs on to completion in the background, so the
/// task must exclusively own all state it touches (share nothing with
/// the caller). Exceptions from a task that finished in time are
/// rethrown on the caller; exceptions after abandonment are swallowed
/// with the thread.
bool run_with_deadline(std::function<void()> task, double timeout_seconds);

/// Fingerprint of every profiler knob (fault hazards, retry policy,
/// watchdog deadlines, noise, fidelity ladder): the journal header and
/// the service's probe-cache keys both refuse to match runs whose knobs
/// differ. The fidelity ladder is mixed only when enabled, so digests
/// of ladder-free configurations are stable across engine versions.
std::uint64_t hash_options(const ProfilerOptions& options) noexcept;

/// Expected optimistic throughput bias of a probe at `fidelity`:
/// measured_speed over-estimates true throughput by a factor of
/// (1 + bias). Exactly 0.0 at full fidelity.
double fidelity_speed_bias(const ProfilerOptions& options,
                           const Fidelity& fidelity) noexcept;

/// Measurement-noise inflation of a probe at `fidelity` relative to a
/// full-fidelity probe (sigma ratio x sqrt of the iteration-count
/// ratio) — the per-observation noise multiplier the search's GP uses
/// to de-weight cheap observations (TrimTuner's heteroscedastic
/// treatment). Exactly 1.0 at full fidelity.
double fidelity_noise_multiplier(const ProfilerOptions& options,
                                 const Fidelity& fidelity) noexcept;

/// Iterations one measurement window contains at `fidelity`
/// (options.iterations at full fidelity, halved per tier, floored at 2).
int fidelity_iterations(const ProfilerOptions& options,
                        const Fidelity& fidelity) noexcept;

/// The measurement image of a probe outcome: the journal-record fields
/// the profiler itself produces. Session-side fields (cumulative spend,
/// acquisition score, reason) are left zero — they belong to the search
/// trace, not the measurement, and the service's probe cache must store
/// records that are identical for every job that reuses them.
journal::ProbeRecord measurement_record(const ProfileResult& result);

/// Profiles deployments against the simulated substrate, charging every
/// probe to the supplied billing meter.
class Profiler {
 public:
  Profiler(const perf::TrainingPerfModel& perf,
           const cloud::DeploymentSpace& space, cloud::BillingMeter& meter,
           std::uint64_t seed, ProfilerOptions options = {});

  /// Runs one probe at the requested fidelity. Infeasible deployments
  /// still consume (and bill) the base probe time — discovering that a
  /// model does not fit costs real money on a real cloud too. Under
  /// injected faults the probe retries failed launches per the
  /// RetryPolicy, billing every attempt. A full-fidelity request is
  /// bit-identical (draws, charges, clock) to the pre-multi-fidelity
  /// engine; a reduced request shrinks the window and the bill, biases
  /// the measured throughput optimistically by fidelity_speed_bias, and
  /// widens its noise by fidelity_noise_multiplier.
  ProfileResult profile(const perf::TrainingConfig& config,
                        const ProbeRequest& request);

  /// Deterministic expected wall time of probing `d` at `fidelity` (the
  /// quantity HeterBO's penalty terms use), hours — the paper's t(m, n).
  /// Includes the window stretch needed to fit min_window_iterations of
  /// the given model (static arithmetic on model FLOPs and instance
  /// specs — no profiling required to estimate it). Sub-sampled probes
  /// shrink setup/warm-up, truncated tiers shrink the measurement
  /// window; the full-fidelity default reproduces the legacy arithmetic
  /// bit-for-bit.
  double expected_profile_hours(const perf::TrainingConfig& config,
                                const cloud::Deployment& d,
                                const Fidelity& fidelity = {}) const;

  /// Expected dollar cost of probing `d` — the paper's PL_C
  /// = P(m) * n * t(m, n).
  double expected_profile_cost(const perf::TrainingConfig& config,
                               const cloud::Deployment& d,
                               const Fidelity& fidelity = {}) const;

  /// Upper bound on the wall time one probe of `d` at `fidelity` can
  /// consume: every attempt fails at the worst fault, every backoff hits
  /// its cap, and a straggler stretches a fully-extended window. Equals
  /// expected_profile_hours when no faults are configured. The protective
  /// reserve budgets probes against this, which is what keeps the
  /// deadline guarantee intact under injected failures.
  double worst_case_profile_hours(const perf::TrainingConfig& config,
                                  const cloud::Deployment& d,
                                  const Fidelity& fidelity = {}) const;

  /// Dollar analogue of worst_case_profile_hours (backoff is free).
  double worst_case_profile_cost(const perf::TrainingConfig& config,
                                 const cloud::Deployment& d,
                                 const Fidelity& fidelity = {}) const;

  const ProfilerOptions& options() const noexcept { return options_; }
  int probes_performed() const noexcept { return probes_; }

  /// Arms crash-recovery replay: the next `records.size()` profile()
  /// calls are served from the journal instead of being executed —
  /// billing, the profiling clock, and every seeded stream advance
  /// exactly as they did in the original run, so the continuation is
  /// bit-identical to an uninterrupted search. Each served call verifies
  /// the requested deployment, the fault sequence, and the re-derived
  /// charges against the record and throws
  /// journal::JournalError(kReplayDiverged) on any mismatch.
  void set_replay(std::vector<journal::ProbeRecord> records);
  /// True while journaled records remain to be served.
  bool replay_pending() const noexcept {
    return replay_pos_ < replay_.size();
  }
  /// Probes served from the journal so far.
  int replayed_probes() const noexcept { return replayed_; }

  /// Arms the multi-tenant probe gate (service layer): every live probe
  /// is first offered to `gate` under a ProbeKey derived from
  /// `substrate` and the probe history. A record returned by admit() is
  /// served exactly like a journal replay — billing, clock, and every
  /// seeded stream advance as if the probe had run — except the result
  /// is *not* marked replayed: cache service is trace-neutral, so a
  /// gated run's trace is bit-identical to a solo run. Not owned;
  /// nullptr disarms.
  void set_gate(ProbeGate* gate, std::uint64_t substrate) noexcept {
    gate_ = gate;
    substrate_ = substrate;
  }
  /// Probes served from the shared probe cache so far.
  int cache_served_probes() const noexcept { return cache_served_; }

  /// The ProbeKey the *next* profile() call for `request` would carry —
  /// the same fingerprint profile() derives before consulting the gate.
  /// Lets a probe-granularity scheduler pre-check the shared cache (a
  /// hit needs no capacity) before deciding whether to run, park, or
  /// serve the session's pending probe.
  ProbeKey next_probe_key(const ProbeRequest& request) const noexcept {
    ProbeKey key;
    key.substrate = substrate_;
    key.history = history_;
    key.probe_index = probes_ + 1;
    key.type_index = request.deployment.type_index;
    key.nodes = request.deployment.nodes;
    key.sample_fraction = request.fidelity.sample_fraction;
    key.iteration_tier = request.fidelity.iteration_tier;
    return key;
  }

  const cloud::FaultModel& fault_model() const noexcept {
    return fault_model_;
  }
  /// Wall-clock hours of profiling performed so far (drives the fault
  /// model's outage calendar).
  double clock_hours() const noexcept { return clock_hours_; }
  /// True when `type_index` is under a capacity outage right now.
  bool type_in_outage(std::size_t type_index) const {
    return fault_model_.in_outage(type_index, clock_hours_);
  }

 private:
  /// Executes one probe against the substrate (the historical profile()
  /// body); profile() wraps it with replay service and the probe gate.
  ProfileResult profile_live(const perf::TrainingConfig& config,
                             const ProbeRequest& request);
  ProfileResult replay_next(const perf::TrainingConfig& config,
                            const ProbeRequest& request);
  /// Serves a recorded outcome instead of executing: advances billing,
  /// the clock, and every seeded stream exactly as the original
  /// execution did, verifying the record against the substrate at each
  /// step (JournalError(kReplayDiverged) on mismatch). `from_journal`
  /// selects the replayed flag/counter vs the cache-served counter.
  ProfileResult serve_record(const perf::TrainingConfig& config,
                             const ProbeRequest& request,
                             const journal::ProbeRecord& rec,
                             bool from_journal);
  /// Folds a completed probe into the history fingerprint ProbeKeys
  /// carry. Called for live, replayed, and cache-served probes alike —
  /// all three mix the identical measurement image, so the fingerprint
  /// tracks the probe *sequence*, not how each outcome was obtained.
  void note_history(const ProfileResult& result);

  const perf::TrainingPerfModel* perf_;
  const cloud::DeploymentSpace* space_;
  cloud::BillingMeter* meter_;
  util::Rng rng_;
  ProfilerOptions options_;
  cloud::FaultModel fault_model_;
  double clock_hours_ = 0.0;
  int probes_ = 0;
  std::vector<journal::ProbeRecord> replay_;
  std::size_t replay_pos_ = 0;
  int replayed_ = 0;
  ProbeGate* gate_ = nullptr;
  std::uint64_t substrate_ = 0;
  std::uint64_t history_ = 0xcbf29ce484222325ULL;  // FNV offset basis
  int cache_served_ = 0;
};

}  // namespace mlcd::profiler
