// BatchReport: the versioned result document of one scheduled workload.
//
// Sits alongside RunReport (v3): one JobOutcome per workload job — the
// job's full solo-equivalent RunReport plus the scheduler-side stats
// that only exist in batch mode (queue wait, capacity stalls, probe-
// cache reuse) — topped with fleet-level aggregates (makespan, peak
// capacity occupancy, cache totals). Scheduler-side numbers are real
// wall-clock observations and deliberately live *outside* the embedded
// RunReports, which stay byte-identical to their solo runs.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "mlcd/mlcd.hpp"
#include "service/chaos.hpp"
#include "service/probe_cache.hpp"

namespace mlcd::service {

/// Which SLO a job breached (kNone = within SLO). A breached job is not
/// an error: its session was finalized early through the safe-mode path
/// (best-known deployment from the trace so far) and its outcome is
/// typed `slo_exceeded`.
enum class SloBreach { kNone, kDeadline, kBudget, kProbes };

std::string_view slo_breach_name(SloBreach breach) noexcept;

/// The typed outcome code of an SLO-breached job ("slo_exceeded").
inline constexpr std::string_view kSloExceeded = "slo_exceeded";

/// Scheduler-side accounting for one job (never part of the job's own
/// simulated accounting).
struct JobStats {
  /// Real seconds between workload admission and the job starting.
  double queue_wait_seconds = 0.0;
  /// Real seconds the job's search ran.
  double run_seconds = 0.0;
  /// Probes served from the shared cache instead of measuring.
  int cache_hits = 0;
  /// Live probes this job measured and offered to the cache.
  int cache_publishes = 0;
  /// Simulated dollars of probe spend this job re-accounted from records
  /// another tenant already paid to measure (reused probes bill only the
  /// first tenant at the service level; the job's *internal* accounting
  /// still books them, keeping its trace solo-identical).
  double reused_probe_cost = 0.0;
  /// Probes that queued for pool capacity / their cumulative wall wait.
  /// A stall is a *park*: the session leaves its lane and the wait
  /// accrues off-lane.
  int capacity_stalls = 0;
  double capacity_stall_seconds = 0.0;
  /// Times the session was parked off its lane for capacity.
  int session_parks = 0;
  /// Real seconds the job actually occupied a scheduler lane, excluding
  /// parked time. The gap between total lane-busy time and lanes x
  /// makespan is the fleet's lane-idle fraction — the quantity the
  /// probe-granularity scheduler exists to shrink.
  double lane_busy_seconds = 0.0;

  // --- Service-level chaos & SLO counters (schema v3). Unlike the
  // wall-clock numbers above, every field below is a deterministic
  // function of (workload, chaos seed): bit-identical across runs and
  // thread counts, which is what makes a chaotic batch reproducible.

  /// Injected lane crashes this job survived (each one re-staged the
  /// session on another lane with zero re-executed probes).
  int lane_crashes = 0;
  /// Spot revocations of the job's capacity grant / reservation (each
  /// one parked the session for elastic re-admission).
  int grant_revocations = 0;
  /// Probe results lost after execution and re-admitted from the
  /// write-ahead record image.
  int probe_losses = 0;
  /// Injected scheduler stalls absorbed (the session lost a lane turn).
  int scheduler_stalls = 0;
  /// Simulated hours of capped jittered re-admission backoff billed at
  /// the service level for revocations — never on the job's own clock,
  /// which stays solo-identical.
  double chaos_backoff_hours = 0.0;

  // --- Multi-fidelity counters (schema v4). Derived from the job's
  // final trace: how many probes ran at a reduced fidelity rung versus
  // at full fidelity. A ladder-free job reports 0 / N.

  /// Probes measured at a reduced fidelity rung (sub-sampled dataset
  /// and/or shortened iteration window).
  int low_fidelity_probes = 0;
  /// Probes measured at full fidelity (the only kind a ladder-free
  /// job ever runs).
  int full_fidelity_probes = 0;

  // --- Durable-batch counters (schema v5). Set only by a batch running
  // under --journal-dir --resume: which recovery path revived this job
  // after the previous process died. Both false for fresh jobs and for
  // every job of a non-resumed batch.

  /// The job was in flight when the previous process died and resumed
  /// from the batch log (its logged prefix replayed, the rest executed
  /// live).
  bool resumed_from_journal = false;
  /// The job had already finished when the previous process died; its
  /// whole report was replayed bit-identically from the batch log with
  /// zero probes re-executed (digest-verified against its finished
  /// record).
  bool replayed_from_journal = false;

  /// Probe steps replayed to re-stage this job's crashed sessions, summed
  /// over every lane crash (each re-stage replays the whole trace so
  /// far). SearchResult::replayed_probes counts only the last session's
  /// replay. Not part of to_json().
  int crash_replayed_probes = 0;
};

/// One workload job's outcome: either a RunReport or a typed JobError,
/// plus scheduler stats either way.
struct JobOutcome {
  std::string name;
  std::string tenant;
  bool ok = false;
  /// Set when !ok (mirrors system::JobError).
  std::string error_code;
  std::string error_message;
  /// Set when ok; bit-identical to the solo run of the same JobSpec
  /// (unless the job breached its SLO or was crash-re-staged, in which
  /// case only the replay bookkeeping fields differ).
  system::RunReport report;
  JobStats stats;
  /// kNone unless the scheduler cut the search short for an SLO breach;
  /// the report then carries the best-known deployment and the outcome
  /// is typed kSloExceeded ("slo_exceeded").
  SloBreach slo = SloBreach::kNone;
};

struct BatchReport {
  /// Version of the to_json() layout. History: 1 = first release;
  /// 2 = adds scheduler.probe_granularity / scheduler.lane_idle_fraction
  /// and the per-job session_parks / lane_busy_seconds stats;
  /// 3 = adds scheduler.chaos_seed + scheduler.chaos, the per-job fault
  /// counters (lane_crashes, grant_revocations, probe_losses,
  /// scheduler_stalls, chaos_backoff_hours), the per-job "slo" object,
  /// and the fleet "faults" totals. Every v2 key is unchanged — v2
  /// readers keep working.
  /// 4 = adds the per-job multi-fidelity probe counters
  /// (low_fidelity_probes, full_fidelity_probes) and the fleet
  /// "fidelity" totals. Every v3 key is unchanged — v3 readers keep
  /// working; ladder-free jobs simply report zero low-fidelity probes.
  /// 5 = adds the durable-batch keys: per-job stats
  /// resumed_from_journal / replayed_from_journal, the fleet
  /// scheduler.resumed_jobs / scheduler.replayed_reports counters, and
  /// the sparse scheduler.batch_journal_degraded(+_reason) warning keys
  /// (emitted only when a degrade-policy batch lost its manifest).
  /// Every v4 key is unchanged — v4 readers keep working; a batch run
  /// without --journal-dir simply reports all-zero counters.
  /// 6 = adds scheduler.mode, scheduler.lane_steals, and the
  /// probe_cache.stripes / probe_cache.stripe_max_imbalance keys for the
  /// sharded service core. Every v5 key is unchanged — v5 readers keep
  /// working. With one scheduler left, scheduler.mode is always
  /// "sharded" and scheduler.probe_granularity always true.
  static constexpr int kJsonSchemaVersion = 6;

  /// Scheduler configuration this batch ran under.
  int threads = 1;
  int capacity_nodes = 0;    ///< 0 = unlimited
  int tenant_max_jobs = 0;   ///< 0 = unlimited
  /// Sessions a lane took from another lane's run queue (a
  /// wall-clock-dependent quantity like makespan).
  std::int64_t lane_steals = 0;
  /// Outcomes in workload order.
  std::vector<JobOutcome> jobs;
  /// Real seconds from first job start to last job finish.
  double makespan_seconds = 0.0;
  /// High-water mark of concurrently occupied simulated nodes.
  int peak_capacity_nodes = 0;
  /// High-water mark of concurrently running jobs of any single tenant
  /// (the quota invariant's observable: <= tenant_max_jobs when set).
  int peak_tenant_jobs = 0;
  /// Fleet-level probe-cache totals.
  ProbeCache::Stats cache;
  /// The fault environment this batch ran under (all-zero rates for a
  /// fault-free batch). chaos.seed is the batch-level `chaos_seed` that
  /// makes every chaotic run bit-reproducible.
  ChaosOptions chaos;
  /// Set when a degrade-policy batch lost its write-ahead batch log to a
  /// storage fault: results are complete and correct, but the batch is
  /// no longer kill-resumable. Never set under the abort policy, which
  /// fails every job whose records the log lost with a typed
  /// journal_error instead.
  bool batch_journal_degraded = false;
  std::string batch_journal_degrade_reason;
  /// Durable batches: commit rounds and records of this run's batch log
  /// (BatchLog::commits / records). Wall-clock grouping decides the
  /// commit count, so neither is part of to_json().
  std::int64_t log_commits = 0;
  std::int64_t log_records = 0;
  /// High-water mark of jobs running at once, parked sessions included
  /// (a durable batch holds it at or below kDurableRunningJobs). Wall-clock
  /// scheduling decides it, so it is not part of to_json() either.
  int peak_running_jobs = 0;

  /// Jobs that completed with a RunReport.
  int succeeded() const noexcept;
  /// Fleet fault totals (deterministic; see JobStats).
  int total_lane_crashes() const noexcept;
  int total_revocations() const noexcept;
  int total_probe_losses() const noexcept;
  int total_scheduler_stalls() const noexcept;
  /// Jobs finalized early for an SLO breach.
  int slo_exceeded_count() const noexcept;
  /// Fleet multi-fidelity totals (how many probes the batch ran at a
  /// reduced rung versus at full fidelity; schema v4).
  int total_low_fidelity_probes() const noexcept;
  int total_full_fidelity_probes() const noexcept;
  /// Durable-batch recovery totals (schema v5): jobs revived from their
  /// per-job journals after a process kill — in-flight resumes and
  /// finished-report replays respectively. Zero for a fresh batch.
  int resumed_jobs() const noexcept;
  int replayed_reports() const noexcept;
  /// Sum of per-job cache hits (probes the fleet did not re-measure).
  int total_cache_hits() const noexcept;
  /// Sum of per-job capacity parks.
  int total_session_parks() const noexcept;
  /// Sum of per-job lane-occupancy seconds.
  double total_lane_busy_seconds() const noexcept;
  /// Fraction of the batch's lane-time (lanes x makespan, where lanes =
  /// min(threads, jobs)) that no job occupied, clamped to [0, 1]. This
  /// is the headline scheduler-efficiency number: a session waiting for
  /// capacity parks and frees its lane, so idle lane-time means the
  /// fleet ran out of runnable sessions.
  double lane_idle_fraction() const noexcept;

  /// Multi-line human-readable summary.
  std::string render() const;

  /// Machine-readable document: batch metadata + per-job scheduler stats
  /// with each job's RunReport embedded verbatim (its own
  /// schema_version intact) under "report". Versioned via the top-level
  /// "schema_version" key.
  std::string to_json() const;
};

}  // namespace mlcd::service
