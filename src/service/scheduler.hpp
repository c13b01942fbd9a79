// Multi-tenant search scheduler (service layer tentpole).
//
// Takes an admitted Workload and multiplexes its search sessions over a
// fixed set of lanes at *probe granularity*: a lane prepares a job via
// Mlcd::prepare(), then repeatedly asks the session for its pending
// probe (search_session.hpp) and executes one ProbeDriver::step at a
// time. A probe that does not fit the capacity pool right now *parks*
// the session — the lane is released to drive some other job, and the
// parked session resumes (FIFO) on whichever lane is free once running
// probes return enough nodes, so no lane ever idles on a capacity wait.
//
// The scheduler composes the pieces the service adds on top of
// `mlcd deploy`:
//
//   * admission control — a workload whose jobs could never fit the
//     capacity pool is refused up front (no wedged queues later);
//   * per-tenant quotas — at most `tenant_max_jobs` of one tenant's
//     jobs run concurrently; eligible jobs of other tenants overtake
//     quota-blocked ones (work-conserving);
//   * a global capacity pool — concurrent simulated nodes across all
//     in-flight probes; over-capacity probes park their session (real
//     wall time, never simulated time) rather than launch;
//   * a shared ProbeCache — identical probes are measured once and
//     served to every later job, billing only the first tenant.
//
// It also hosts the service-level fault domain (docs/chaos.md): a
// workload-declared ChaosInjector fires lane crashes (session re-staged
// from its ask/tell state via replay, zero probes re-executed), spot
// revocations (grant reclaimed, session parked for elastic re-admission
// with service-billed backoff), probe-result losses (recovered from the
// write-ahead record image), and scheduler stalls — plus per-tenant SLO
// enforcement: a job over its declared SLO is finalized early through
// the safe-mode path (best-known deployment, typed "slo_exceeded")
// instead of aborting the batch.
//
// The hard invariant, enforced by tests/service_test.cpp at every
// thread count: each job's RunReport — trace included — is bit-identical
// to running that JobSpec solo with the same seed. Scheduling order,
// quotas, capacity waits, and cache hits are all trace-neutral; chaos
// decisions are deterministic in (seed, job, step), so the invariant
// extends to chaotic batches for every job the schedule leaves
// untouched.
#pragma once

#include <string>

#include "journal/journal.hpp"
#include "mlcd/mlcd.hpp"
#include "service/batch_report.hpp"
#include "service/workload.hpp"

namespace mlcd::service {

/// Jobs a durable batch runs at once, fleet-wide. A session parked on the
/// commit fence is what fills the next commit round: a lane claims a
/// fresh job only once everything it could run (its own queue, then a
/// steal) waits, so the more jobs run, the more records share one fsync.
/// Each running job pins a prepared search, though: about 13 KB, from
/// the peak RSS (VmHWM) of a 256-job, 4-lane durable batch at bounds of
/// 16 and 64. The budget for those sessions is 0.8 MB, about 5% of the
/// 15 MB that perfbench's durable_fleet peaks at, which holds 64 of them.
/// Batches without a log run unbounded.
inline constexpr int kDurableRunningJobs = 64;

struct SchedulerOptions {
  /// Concurrent jobs (scheduler lanes, the batch's only threads; each
  /// job's candidate scan runs on the lane that drives it). Clamped to
  /// >= 1.
  int threads = 1;
  /// Global pool of concurrent simulated nodes across all in-flight
  /// probes; 0 = unlimited. Workloads containing a job whose max_nodes
  /// exceeds this are refused at admission.
  int capacity_nodes = 0;
  /// Max concurrently-running jobs per tenant; 0 = unlimited.
  int tenant_max_jobs = 0;
  /// Route probes through the shared cross-job cache (on by default;
  /// off, every probe launches live).
  bool share_probes = true;
  /// Non-empty makes the batch durable: the scheduler writes one
  /// group-committed write-ahead log, `batch.mlcdb`, under this directory
  /// (created if missing) — the roster, each job's lifecycle, and every
  /// probe record, a probe admitted only once its record is durable — so
  /// a killed `mlcd batch` process can be resumed. Jobs declaring their
  /// own journal/resume paths are refused at admission (the log owns
  /// every job's durability). See docs/crash-safety.md.
  std::string journal_dir;
  /// With journal_dir: resume the batch recorded in the log instead of
  /// starting fresh. Finished jobs replay their logged probes
  /// bit-identically (zero probes re-executed, digest-verified);
  /// in-flight jobs replay their prefix and continue; jobs with no
  /// probe record run fresh.
  bool resume = false;
  /// What a *write* failure of the batch log does: kAbort (default)
  /// fails every job whose records the log lost with a typed
  /// journal_error, kDegrade continues log-less with a reported warning
  /// (results stay correct; the batch is just no longer kill-resumable).
  /// Either way the log accepts nothing after its first failure.
  /// Resume-side *read* failures always refuse regardless of policy.
  journal::OnError journal_on_error = journal::OnError::kAbort;
};

class Scheduler {
 public:
  /// `mlcd` is borrowed and must outlive the scheduler. Throws
  /// std::invalid_argument on nonsensical options (negative capacity or
  /// quota).
  Scheduler(const system::Mlcd& mlcd, SchedulerOptions options = {});

  /// Admits and runs the workload to completion. Throws
  /// std::invalid_argument when admission fails (empty workload, or a
  /// job's max_nodes exceeds capacity_nodes). Per-job failures (unknown
  /// model/method, journal errors) do not abort the batch — they come
  /// back as failed JobOutcomes. With journal_dir, batch-level journal
  /// failures (unreadable/mismatched log on resume; a log that cannot
  /// be created under the abort policy) throw journal::JournalError.
  BatchReport run(const Workload& workload) const;

  const SchedulerOptions& options() const noexcept { return options_; }

 private:
  const system::Mlcd* mlcd_;
  SchedulerOptions options_;
};

}  // namespace mlcd::service
