// Service-level chaos injection (fault domain above the profiler).
//
// PR 1's FaultModel injects *probe-level* hazards — launch failures,
// stragglers, capacity outages — inside the profiler, where they are
// part of a job's own simulated accounting. This file adds the fault
// domain the multi-tenant service itself lives in: scheduler lanes
// crash, spot capacity grants are revoked mid-search, probe-result
// envelopes are lost between execution and admission, and the scheduler
// itself stalls. None of these are the tenant's fault and none may
// corrupt the tenant's search: the scheduler absorbs every injected
// fault through its recovery machinery (journal/replay re-staging,
// elastic re-admission, write-ahead record recovery) and reports the
// damage in BatchReport v3. See docs/chaos.md.
//
// Determinism contract: every fault decision is a pure function of
// (chaos seed, job name, per-job step index) — independent of lane
// assignment, thread count, wall-clock interleaving, and cache state —
// so the same workload + seed reproduces bit-identical fault schedules
// and BatchReport counters at any --threads.
#pragma once

#include <cstdint>
#include <string_view>

#include "cloud/fault_model.hpp"

namespace mlcd::service {

/// The service-level fault taxonomy (contrast cloud::FaultKind, the
/// probe-level taxonomy billed inside a job's own trace).
enum class ChaosFault {
  kNone,
  /// The lane driving the session dies; the in-flight session is
  /// re-staged on another lane from its ask/tell state with zero
  /// re-executed probes (journal / in-memory record replay).
  kLaneCrash,
  /// The session's capacity grant (or pre-launch reservation) is spot-
  /// revoked; nodes are reclaimed reserve-safely and the session
  /// re-admits elastically through the parked-session FIFO, billing a
  /// capped jittered RetryPolicy backoff at the service level.
  kSpotRevocation,
  /// The probe's in-memory result envelope is lost after execution; the
  /// write-ahead record is re-admitted instead — the WAL discipline's
  /// payoff made observable.
  kProbeLoss,
  /// The scheduler stalls: the session loses its lane turn and is
  /// requeued, trace-neutrally.
  kSchedulerStall,
};

/// Knobs for the injector, declared in workload JSON ("chaos" object)
/// and overridable per-flag from `mlcd batch --chaos-*`.
struct ChaosOptions {
  /// Seed of the fault schedule. Recorded in BatchReport v3 so any
  /// chaotic run can be reproduced bit-identically.
  std::uint64_t seed = 0;
  /// Per-step-boundary hazard of each fault kind, in [0, 1]. At most
  /// one fault fires per (job, step); kinds are tried in the fixed
  /// order lane-crash, revocation, probe-loss, stall.
  double lane_crash_rate = 0.0;
  double revocation_rate = 0.0;
  double probe_loss_rate = 0.0;
  double stall_rate = 0.0;
  /// Re-admission backoff after a revocation (PR 1's capped jittered
  /// policy, billed at the *service* level — never the job's simulated
  /// clock, which stays solo-identical).
  cloud::RetryPolicy retry;

  /// True when any hazard is non-zero (the injector is constructed and
  /// the batch is considered chaotic).
  bool enabled() const noexcept;
  /// Throws std::invalid_argument on non-finite or out-of-range rates.
  void validate() const;
};

/// Seeded, deterministic fault source. Stateless between calls: each
/// decision hashes (seed, job, step), so callers may roll in any order
/// from any thread and still observe one fixed schedule. The scheduler
/// guarantees at-most-one roll per (job, step) via a per-job cursor,
/// which is what makes recovery convergent: a crashed step, once
/// replayed, is never re-crashed.
class ChaosInjector {
 public:
  explicit ChaosInjector(ChaosOptions options);

  const ChaosOptions& options() const noexcept { return options_; }

  /// Stable per-job key (FNV-1a of the job name).
  static std::uint64_t job_key(std::string_view job_name) noexcept;

  /// The fault injected at this job's `step`-th live probe boundary
  /// (kNone for the overwhelming majority of steps).
  ChaosFault roll(std::uint64_t job_key, int step) const noexcept;

  /// Deterministic service-billed backoff (simulated hours) before the
  /// job's `ordinal`-th re-admission after a revocation. Capped and
  /// jittered per ChaosOptions::retry.
  double revocation_backoff_hours(std::uint64_t job_key,
                                  int ordinal) const;

 private:
  double draw(std::uint64_t job_key, int step,
              std::uint64_t salt) const noexcept;

  ChaosOptions options_;
};

}  // namespace mlcd::service
