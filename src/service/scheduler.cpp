#include "service/scheduler.hpp"

#include <algorithm>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <filesystem>
#include <memory>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "journal/journal.hpp"
#include "search/probe_driver.hpp"
#include "search/search_result.hpp"
#include "service/batch_journal.hpp"
#include "service/capacity.hpp"
#include "service/chaos.hpp"
#include "service/dispatch.hpp"
#include "service/probe_cache.hpp"
#include "util/logging.hpp"
#include "util/thread_pool.hpp"

namespace mlcd::service {

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// SLO check against the session's *simulated* spend — deterministic at
/// any thread count, unlike every wall-clock quantity the scheduler
/// tracks.
SloBreach slo_breach(const SloPolicy& slo,
                     const search::SearchSession& session) {
  if (!slo.enabled()) return SloBreach::kNone;
  if (slo.max_probes > 0 &&
      static_cast<int>(session.trace().size()) >= slo.max_probes) {
    return SloBreach::kProbes;
  }
  if (slo.deadline_hours > 0.0 &&
      session.spent_hours() >= slo.deadline_hours) {
    return SloBreach::kDeadline;
  }
  if (slo.budget_dollars > 0.0 &&
      session.spent_cost() >= slo.budget_dollars) {
    return SloBreach::kBudget;
  }
  return SloBreach::kNone;
}

// --------------------------------------------------------------------
// Durable batches (--journal-dir)
// --------------------------------------------------------------------

/// How one job of a durable batch starts, decided from the manifest
/// before any lane runs: fresh (create its journal), resumed (continue
/// an in-flight journal), or replayed (re-materialize a finished report
/// from its journal with zero probes re-executed).
struct DurablePlan {
  /// Full path of the job's auto-managed run journal.
  std::string journal_file;
  /// Request wiring: true sets journal_path (create/truncate), false
  /// sets resume_path (replay + continue).
  bool fresh_create = true;
  bool resumed = false;
  bool replayed = false;
  /// The manifest's finished-record digest; a replayed report that
  /// hashes differently diverged and is refused (kReplayDiverged).
  std::uint64_t expected_digest = 0;
};

/// The batch manifest plus the batch-level write-failure policy.
/// append() never throws: a write failure latches the first error,
/// stops all further manifest writes (both policies — a half-written
/// manifest must not keep growing), and Scheduler::run settles the
/// policy after the fleet drains: kAbort rethrows it as a typed
/// JournalError, kDegrade flags the report and carries on. Either way
/// no in-memory job state is touched.
class ManifestHandle {
 public:
  /// `initial_error` non-empty latches the handle immediately: the
  /// manifest failed to even be created under the degrade policy, so
  /// `manifest` is null and every append is a no-op.
  ManifestHandle(std::unique_ptr<BatchJournal> manifest,
                 journal::OnError on_error,
                 std::string initial_error = {})
      : manifest_(std::move(manifest)),
        on_error_(on_error),
        error_(std::move(initial_error)) {}

  void append(const BatchJobRecord& record) noexcept {
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      if (!error_.empty() || manifest_ == nullptr) return;
    }
    try {
      manifest_->append(record);
    } catch (const journal::JournalError& e) {
      const std::lock_guard<std::mutex> lock(mutex_);
      if (error_.empty()) error_ = e.what();
    } catch (const std::exception& e) {
      const std::lock_guard<std::mutex> lock(mutex_);
      if (error_.empty()) error_ = e.what();
    }
  }

  journal::OnError on_error() const noexcept { return on_error_; }

  /// First write error, empty while the manifest is healthy.
  std::string error() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    return error_;
  }

 private:
  std::unique_ptr<BatchJournal> manifest_;
  journal::OnError on_error_;
  mutable std::mutex mutex_;
  std::string error_;
};

/// Basename of job i's auto-managed journal: stable across resumes
/// (index + sanitized name), so a resumed process derives the same path
/// without trusting manifest contents.
std::string job_journal_name(std::size_t i, const std::string& name) {
  std::string safe;
  safe.reserve(name.size());
  for (const char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '.' || c == '_' ||
                    c == '-';
    safe.push_back(ok ? c : '_');
  }
  return "job-" + std::to_string(i) + "-" + safe + ".mlcdj";
}

/// Refuses a resume whose workload or capacity/quota configuration does
/// not fingerprint-match the manifest: it describes a different batch.
void verify_manifest_header(const BatchManifestHeader& recorded,
                            const BatchManifestHeader& expected,
                            const std::string& path) {
  std::string diff;
  if (recorded.workload_hash != expected.workload_hash) {
    diff = "workload";
  } else if (recorded.chaos_seed != expected.chaos_seed) {
    diff = "chaos_seed";
  } else if (recorded.job_count != expected.job_count) {
    diff = "job_count";
  } else if (recorded.capacity_nodes != expected.capacity_nodes) {
    diff = "capacity_nodes";
  } else if (recorded.tenant_max_jobs != expected.tenant_max_jobs) {
    diff = "tenant_max_jobs";
  }
  if (!diff.empty()) {
    throw journal::JournalError(
        journal::JournalErrorCode::kHeaderMismatch,
        "batch manifest '" + path + "' records a different batch: " + diff +
            " differs");
  }
}

/// Plans a durable batch: verifies no job claims its own journal,
/// creates/resumes the manifest, decides each job's recovery path, and
/// rewrites the workload copy `durable` with the auto-managed journal
/// wiring. Throws journal::JournalError for every manifest-read problem
/// (resume-side read failures refuse regardless of policy) and
/// std::invalid_argument for admission conflicts.
std::vector<DurablePlan> plan_durable_batch(
    const Workload& workload, const SchedulerOptions& options,
    Workload& durable, std::unique_ptr<BatchJournal>& manifest,
    std::string& create_error) {
  namespace fs = std::filesystem;
  for (const JobSpec& spec : workload.jobs) {
    if (!spec.request.journal_path.empty() ||
        !spec.request.resume_path.empty() ||
        !spec.request.replay_records.empty()) {
      throw std::invalid_argument(
          "Scheduler: admission refused — job '" + spec.name +
          "' declares its own journal/resume, but --journal-dir manages "
          "every per-job journal");
    }
  }
  std::error_code ec;
  fs::create_directories(options.journal_dir, ec);
  if (ec) {
    journal::JournalError error(
        journal::JournalErrorCode::kIo,
        "cannot create journal dir '" + options.journal_dir + "' (" +
            ec.message() + ")");
    // Resume cannot proceed without reading the manifest, and abort
    // surfaces the failure before any probe spends. Degrade runs the
    // batch journal-less: each job's own journal create will fail and
    // degrade the same way, so the batch still completes correctly.
    if (options.resume ||
        options.journal_on_error == journal::OnError::kAbort) {
      throw error;
    }
    create_error = error.what();
  }

  const std::size_t n = workload.jobs.size();
  const std::string manifest_path = options.journal_dir + "/batch.mlcdb";
  const BatchManifestHeader header = make_manifest_header(
      workload, options.capacity_nodes, options.tenant_max_jobs);
  std::vector<DurablePlan> plans(n);
  for (std::size_t i = 0; i < n; ++i) {
    plans[i].journal_file = options.journal_dir + "/" +
                            job_journal_name(i, workload.jobs[i].name);
  }

  if (options.resume) {
    const BatchManifestContents contents = read_manifest(manifest_path);
    verify_manifest_header(contents.header, header, manifest_path);
    int replays = 0;
    int resumes = 0;
    for (std::size_t i = 0; i < n; ++i) {
      const BatchJobState& state = contents.jobs[i];
      const bool have_file = fs::exists(plans[i].journal_file);
      if (state.finished && state.ok && have_file) {
        // Finished before the kill: replay the whole report from the
        // per-job journal, bit-identically and probe-free, then verify
        // it against the manifest digest.
        plans[i].fresh_create = false;
        plans[i].replayed = true;
        plans[i].expected_digest = state.report_digest;
        ++replays;
      } else if (state.assigned && have_file) {
        // In flight when the process died: replay the journaled prefix
        // and execute the rest live, continuing the same journal.
        plans[i].fresh_create = false;
        plans[i].resumed = true;
        ++resumes;
      }
      // Everything else — never started, finished-but-failed (failures
      // are deterministic), or a journal file lost from disk — runs
      // fresh, re-creating its journal.
    }
    manifest = BatchJournal::append_to(manifest_path, contents.valid_bytes);
    MLCD_LOG(kInfo, "service")
        << "resuming batch from " << manifest_path << ": " << replays
        << " finished reports to replay, " << resumes
        << " in-flight jobs to resume, "
        << (n - static_cast<std::size_t>(replays + resumes))
        << " to run fresh"
        << (contents.truncated_tail ? " (torn manifest tail dropped)" : "");
  } else if (create_error.empty()) {
    try {
      manifest = BatchJournal::create(manifest_path, header);
      // Write-ahead: the whole fleet is journaled as admitted before any
      // probe runs, so a kill during job 0 still knows the batch roster.
      for (std::size_t i = 0; i < n; ++i) {
        BatchJobRecord record;
        record.phase = BatchJobPhase::kAdmitted;
        record.job = static_cast<int>(i);
        record.name = workload.jobs[i].name;
        manifest->append(record);
      }
    } catch (const journal::JournalError& e) {
      // Write failures obey the batch policy even this early: degrade
      // runs the batch manifest-less (per-job journals may still work),
      // abort surfaces the typed error before any probe spends.
      if (options.journal_on_error == journal::OnError::kAbort) throw;
      manifest.reset();
      create_error = e.what();
    }
  }

  durable = workload;
  for (std::size_t i = 0; i < n; ++i) {
    system::JobRequest& request = durable.jobs[i].request;
    request.journal_on_error = options.journal_on_error;
    if (plans[i].fresh_create) {
      request.journal_path = plans[i].journal_file;
    } else {
      request.resume_path = plans[i].journal_file;
    }
  }
  return plans;
}

// --------------------------------------------------------------------
// The probe-granularity batch
// --------------------------------------------------------------------

class ProbeBatch;

/// ProbeGate whose admission decision is made *by the scheduler before*
/// ProbeDriver::step runs, not inside the profiler: the lane stages
/// either a cache hit or a pre-acquired capacity grant, then steps the
/// session, and admit() merely consumes what was staged. This is what
/// lets a lane decide run-vs-park without ever blocking: a probe that
/// does not fit parks its session in the scheduler's own FIFO.
///
/// Only the lane currently driving the session touches the staged state
/// — except stage_admitted() from the sweep in release_and_sweep(),
/// which runs strictly while the session is parked (on no lane at all),
/// so the state is still never touched concurrently.
class StagedGate final : public profiler::ProbeGate {
 public:
  void bind(ProbeBatch* batch, ProbeCache* cache, JobStats* stats) {
    batch_ = batch;
    cache_ = cache;
    stats_ = stats;
  }

  /// Stage the shared-cache record for the session's pending probe.
  void stage_hit(journal::ProbeRecord record) {
    staged_ = Staged::kHit;
    record_ = std::move(record);
  }

  /// Stage a capacity grant (the scheduler already holds the nodes).
  void stage_admitted() { staged_ = Staged::kAdmitted; }

  bool staged() const noexcept { return staged_ != Staged::kNone; }

  /// Drops whatever is staged without running a probe (the chaos / SLO
  /// early-exit paths). Returns true when an admitted capacity grant
  /// was staged — the caller must return those nodes to the pool. A
  /// dropped cache hit needs no cleanup: the record stays in the shared
  /// cache and will simply be looked up again.
  bool unstage() noexcept {
    const bool admitted = staged_ == Staged::kAdmitted;
    staged_ = Staged::kNone;
    record_.reset();
    return admitted;
  }

  std::optional<journal::ProbeRecord> admit(
      const profiler::ProbeKey& /*key*/, const cloud::Deployment&) override {
    switch (staged_) {
      case Staged::kHit: {
        staged_ = Staged::kNone;
        ++stats_->cache_hits;
        stats_->reused_probe_cost += record_->profile_cost;
        std::optional<journal::ProbeRecord> hit = std::move(record_);
        record_.reset();
        return hit;
      }
      case Staged::kAdmitted:
        staged_ = Staged::kNone;
        return std::nullopt;
      case Staged::kNone:
        break;
    }
    throw std::logic_error(
        "StagedGate::admit: probe stepped without a staged admission "
        "(scheduler bug)");
  }

  void publish(const profiler::ProbeKey& key, const cloud::Deployment& d,
               const journal::ProbeRecord& outcome) override;

  void abandon(const cloud::Deployment& d) noexcept override;

 private:
  enum class Staged { kNone, kHit, kAdmitted };

  ProbeBatch* batch_ = nullptr;
  ProbeCache* cache_ = nullptr;
  JobStats* stats_ = nullptr;
  Staged staged_ = Staged::kNone;
  std::optional<journal::ProbeRecord> record_;
};

/// One workload run under the probe-granularity scheduler: M sessions
/// multiplexed over N lanes, parked sessions queued FIFO.
///
/// The probe-granularity machinery is split three ways (dispatch.hpp)
/// so that no per-probe step ever takes a batch-wide lock: JobClaims
/// (fresh jobs + tenant quotas, touched once per job lifetime),
/// ParkQueue (the capacity FIFO with a lock-free admission fast path),
/// and ShardedDispatcher (per-lane run queues with work stealing).
///
/// Liveness invariant: a session parks only while some other session
/// holds pool capacity, capacity is only held across one
/// ProbeDriver::step executing on some lane, and every step ends in
/// publish()/abandon() — which releases the nodes and sweeps the parked
/// queue. So a parked session is always eventually restaged, and a
/// restaged (enqueued) session is always eventually picked up by a
/// lane: no deadlock, and parked sessions resume in strict FIFO order.
class ProbeBatch {
 public:
  /// `manifest` / `plans` are both null for a non-durable batch; for a
  /// durable one `plans` holds one entry per workload job.
  ProbeBatch(const system::Mlcd& mlcd, const SchedulerOptions& options,
             const Workload& workload, BatchReport& report,
             ProbeCache* cache, CapacityPool& capacity,
             Clock::time_point batch_start,
             ManifestHandle* manifest = nullptr,
             const std::vector<DurablePlan>* plans = nullptr)
      : mlcd_(&mlcd),
        workload_(&workload),
        report_(&report),
        cache_(cache),
        capacity_(&capacity),
        manifest_(manifest),
        plans_(plans),
        batch_start_(batch_start),
        lane_count_(std::min<std::size_t>(
            static_cast<std::size_t>(options.threads),
            workload.jobs.size())),
        claims_(tenants_of(workload), options.tenant_max_jobs),
        dispatcher_(lane_count_, &claims_),
        states_(workload.jobs.size()) {
    if (workload.chaos.enabled()) chaos_.emplace(workload.chaos);
    for (std::size_t i = 0; i < states_.size(); ++i) {
      states_[i].gate.bind(this, cache_, &report_->jobs[i].stats);
      states_[i].chaos_key = ChaosInjector::job_key(workload.jobs[i].name);
    }
  }

  void run() {
    util::ThreadPool pool(static_cast<int>(lane_count_));
    pool.parallel_for(
        lane_count_, [this](std::size_t begin, std::size_t end) {
          // One drive loop per lane (chunks are [w, w+1)).
          for (std::size_t lane = begin; lane < end; ++lane) {
            for (std::size_t i = dispatcher_.next_job(lane); i != kNoJob;
                 i = dispatcher_.next_job(lane)) {
              drive(i, lane);
            }
          }
        });
  }

  int peak_tenant() const { return claims_.peak_tenant(); }
  std::int64_t steals() const noexcept { return dispatcher_.steals(); }

  /// Returns a finished probe's nodes to the pool and restages every
  /// parked session (FIFO) that now fits, handing each its capacity
  /// grant before it ever reaches a lane. Called from
  /// StagedGate::publish / abandon on whichever lane ran the probe.
  void release_and_sweep(int nodes) noexcept {
    restage(park_.release_and_sweep(*capacity_, nodes));
  }

  /// Like release_and_sweep, but the nodes come back through a spot
  /// revocation: the pool counts the reclamation, and the freed
  /// capacity goes to the *head* parked session first — the revoked
  /// session itself re-admits behind every earlier-parked one, so
  /// strict FIFO holds under revocation too.
  void revoke_and_sweep(int nodes) noexcept {
    restage(park_.revoke_and_sweep(*capacity_, nodes));
  }

 private:
  struct JobState {
    StagedGate gate;
    /// The prepared session, pinned here across parks. Engaged from
    /// first lane assignment until finish().
    std::optional<system::PreparedJob> prepared;
    bool started = false;
    Clock::time_point job_start{};
    /// Stable chaos identity (hash of the job name).
    std::uint64_t chaos_key = 0;
    /// First step index whose chaos roll is still outstanding. Fault
    /// decisions fire at most once per (job, step): a crashed step,
    /// once replayed, is never re-crashed — which is what makes every
    /// recovery loop convergent.
    int chaos_cursor = 0;
    /// Revocations absorbed so far (the backoff ordinal).
    int revocations = 0;
    /// An injected probe-result loss armed for the next executed step.
    bool pending_loss = false;
    /// An injected spot revocation armed for the next capacity
    /// acquisition.
    bool pending_revocation = false;
  };

  static std::vector<std::string> tenants_of(const Workload& workload) {
    std::vector<std::string> tenants;
    tenants.reserve(workload.jobs.size());
    for (const JobSpec& spec : workload.jobs) tenants.push_back(spec.tenant);
    return tenants;
  }

  /// Routes swept sessions back into circulation. Each arrives with its
  /// capacity grant already acquired and *exclusively owned by the
  /// sweeping thread* (the ParkQueue popped it under its lock): the
  /// gate is staged and the stall wait booked before the enqueue makes
  /// the session visible to any lane, so no lock beyond the run-queue
  /// handoff is needed.
  void restage(const std::vector<ParkQueue::Resumed>& resumed) noexcept {
    for (const ParkQueue::Resumed& r : resumed) {
      states_[r.job].gate.stage_admitted();
      report_->jobs[r.job].stats.capacity_stall_seconds += r.waited_seconds;
      dispatcher_.enqueue(r.job, r.owner_lane);
    }
  }

  /// Drives job `i` on lane `lane` until it finishes, fails, or parks
  /// for capacity. The tenant-quota slot is held across parks — a
  /// parked job is still "running" from the tenant's point of view —
  /// which is deadlock-free because parked sessions resume off probe
  /// completions, never off quota slots.
  ///
  /// Lane migration: the lane binds itself as the session's exclusive
  /// driver on entry and releases inside the park callback (under the
  /// park lock, *before* the entry becomes sweepable) or before a
  /// requeue — the last point where this lane still owns the session.
  /// A finished/failed session is destroyed while bound; the next lane
  /// to drive a crash-re-staged replacement binds the fresh session.
  void drive(std::size_t i, std::size_t lane) {
    const Clock::time_point segment_start = Clock::now();
    const std::uint32_t driver = static_cast<std::uint32_t>(lane);
    JobState& job = states_[i];
    const JobSpec& spec = workload_->jobs[i];
    JobOutcome& outcome = report_->jobs[i];

    if (!job.started) {
      job.started = true;
      outcome.stats.queue_wait_seconds = seconds_since(batch_start_);
      job.job_start = Clock::now();
      if (manifest_ != nullptr && plans_ != nullptr) {
        const DurablePlan& plan = (*plans_)[i];
        // Write-ahead: the assigned record lands *before* prepare()
        // touches the per-job journal file, so a kill in between leaves
        // an assigned-but-fileless job — which a resume simply reruns
        // fresh. Resumed/replayed jobs are already assigned on disk.
        if (!plan.resumed && !plan.replayed) {
          BatchJobRecord record;
          record.phase = BatchJobPhase::kAssigned;
          record.job = static_cast<int>(i);
          record.name = spec.name;
          record.journal_file = plan.journal_file;
          manifest_->append(record);
        }
      }
      system::JobRequest request = spec.request;
      request.probe_gate = &job.gate;
      system::PrepareResult prepared = mlcd_->prepare(request);
      if (!prepared.ok()) {
        outcome.error_code = std::string(
            system::job_error_code_name(prepared.error().code));
        outcome.error_message = prepared.error().message;
        finish_job(i, segment_start);
        return;
      }
      job.prepared.emplace(std::move(prepared.job()));
    }

    job.prepared->session().bind_driver(driver);
    try {
      for (;;) {
        // Re-fetched each iteration: a lane-crash re-staging replaces
        // the prepared job (and with it the session object) in place.
        search::SearchSession& session = job.prepared->session();
        const search::ProbeRequest* request = session.next();
        if (request == nullptr) {
          finalize(i);
          finish_job(i, segment_start);
          return;
        }
        if (!session.replaying()) {
          // Per-tenant SLO: checked in *simulated* units before the
          // next probe launches, so a breach fires at the same step at
          // any thread count. The session is finalized through the
          // safe-mode path — best-known deployment from the trace so
          // far — instead of aborting the batch.
          const SloBreach breach = slo_breach(spec.slo, session);
          if (breach != SloBreach::kNone) {
            drop_staged(i, request->deployment.nodes, /*revoked=*/false);
            outcome.slo = breach;
            MLCD_LOG(kWarn, "service")
                << "job '" << spec.name << "' exceeded its "
                << slo_breach_name(breach)
                << " SLO; finalizing with best-known deployment";
            finalize(i);
            finish_job(i, segment_start);
            return;
          }
          // Chaos rolls fire at most once per (job, step): pure
          // functions of (seed, job, step), independent of lanes,
          // threads, and cache state.
          const int step = static_cast<int>(session.trace().size());
          if (chaos_.has_value() && step >= job.chaos_cursor) {
            job.chaos_cursor = step + 1;
            const ChaosFault fault = chaos_->roll(job.chaos_key, step);
            if (fault != ChaosFault::kNone &&
                !absorb_fault(i, lane, fault, request->deployment.nodes,
                              segment_start)) {
              return;  // the session left this lane (or failed)
            }
          }
        }
        // Journal-replayed probes bypass the gate entirely (no capacity,
        // no cache — same as solo resume); a park-resumed session
        // already carries its staged grant.
        if (!session.replaying() && !job.gate.staged()) {
          // Everything the lane must settle before a park makes the
          // session visible to other lanes: stats (they would race the
          // resuming lane otherwise) and the driver-token release. Runs
          // under the park lock, before the entry becomes sweepable.
          const auto on_park = [&]() {
            ++outcome.stats.capacity_stalls;
            ++outcome.stats.session_parks;
            outcome.stats.lane_busy_seconds += seconds_since(segment_start);
            session.release_driver(driver);
          };
          if (job.pending_revocation) {
            // The capacity this probe reserved is spot-revoked as it
            // launches: reclaim any grant reserve-safely and park for
            // elastic re-admission through the same FIFO as every
            // capacity wait.
            job.pending_revocation = false;
            restage(park_.park_revoked(*capacity_, i,
                                       request->deployment.nodes, lane,
                                       on_park));
            return;  // lane freed; the sweep will restage this session
          }
          const profiler::ProbeKey key = session.profiler().next_probe_key(
              profiler::ProbeRequest{request->deployment, request->fidelity});
          std::optional<journal::ProbeRecord> hit =
              cache_ != nullptr ? cache_->lookup(key) : std::nullopt;
          if (hit.has_value()) {
            job.gate.stage_hit(std::move(*hit));
          } else if (park_.admit_or_park(*capacity_, i,
                                         request->deployment.nodes, lane,
                                         on_park)) {
            job.gate.stage_admitted();
          } else {
            return;  // parked; the sweep will restage this session
          }
        }
        if (job.pending_loss && !session.replaying()) {
          // The probe executes and is journaled normally, but its
          // in-memory result envelope is lost before admission; the
          // write-ahead record image recovers it bit-identically —
          // zero probes re-executed.
          job.pending_loss = false;
          ++outcome.stats.probe_losses;
          const journal::ProbeRecord image =
              search::ProbeDriver::step_losing_result(session);
          search::ProbeDriver::admit_recovered(session, image);
        } else {
          search::ProbeDriver::step(session);
        }
      }
    } catch (const journal::JournalError& e) {
      // Mid-search journal failures are typed rejections, exactly as
      // Mlcd::deploy reports them.
      outcome.error_code = std::string(system::job_error_code_name(
          system::JobErrorCode::kJournalError));
      outcome.error_message = e.what();
    } catch (const std::exception& e) {
      // One job's internal failure must not take the fleet down.
      outcome.error_code = "internal";
      outcome.error_message = e.what();
    }
    finish_job(i, segment_start);
  }

  /// Finalizes the session via Searcher::finish and records the
  /// outcome. For an unfinished session (the SLO breach path) this is
  /// the safe-mode finalization: the best-known deployment is selected
  /// from the trace so far.
  void finalize(std::size_t i) {
    JobState& job = states_[i];
    JobOutcome& outcome = report_->jobs[i];
    system::DeployResult result = job.prepared->finish();
    if (result.ok()) {
      outcome.ok = true;
      outcome.report = std::move(result).report();
      // Schema-v4 fidelity counters, derived from the final trace so
      // replays and cache hits are counted exactly once each.
      for (const search::ProbeStep& step : outcome.report.result.trace) {
        if (step.fidelity.is_full()) {
          ++outcome.stats.full_fidelity_probes;
        } else {
          ++outcome.stats.low_fidelity_probes;
        }
      }
    } else {
      outcome.error_code = std::string(
          system::job_error_code_name(result.error().code));
      outcome.error_message = result.error().message;
    }
    if (outcome.ok && plans_ != nullptr &&
        (*plans_)[i].replayed) {
      // Replay verification: the re-materialized report must hash to
      // exactly what the manifest's finished record promised
      // (kReplayDiverged otherwise) — the journal is not allowed to
      // drift underneath a finished result.
      const DurablePlan& plan = (*plans_)[i];
      const std::uint64_t digest = digest_run_report(outcome.report);
      if (digest != plan.expected_digest) {
        outcome.ok = false;
        outcome.report = system::RunReport{};
        outcome.stats.low_fidelity_probes = 0;
        outcome.stats.full_fidelity_probes = 0;
        outcome.error_code = std::string(system::job_error_code_name(
            system::JobErrorCode::kJournalError));
        outcome.error_message =
            journal::JournalError(
                journal::JournalErrorCode::kReplayDiverged,
                "journal '" + plan.journal_file +
                    "' replayed a report that diverged from the batch "
                    "manifest digest")
                .what();
      }
    }
  }

  /// Hands a live session back into circulation (chaos crash / stall
  /// paths): it re-enters `lane`'s run queue, and that lane — or a
  /// stealing one — drives it next. The caller must have released the
  /// driver token (or replaced the session) first.
  void requeue(std::size_t i, std::size_t lane) {
    dispatcher_.enqueue(i, lane);
  }

  /// Returns a staged-but-unused capacity grant to the pool (released
  /// or spot-revoked) and sweeps the parked FIFO. No-op when nothing
  /// admitted was staged. Defensive on the chaos paths: faults roll
  /// only at fresh step boundaries, which never carry a staged grant.
  void drop_staged(std::size_t i, int nodes, bool revoked) noexcept {
    if (!states_[i].gate.unstage()) return;
    if (revoked) {
      revoke_and_sweep(nodes);
    } else {
      release_and_sweep(nodes);
    }
  }

  /// Applies one injected fault at a step boundary. Returns true when
  /// the lane should keep driving the session (revocation and probe
  /// loss arm a pending flag and continue), false when the session left
  /// this lane (crash re-staging, stall) or failed to re-stage — lane
  /// accounting is already settled in that case.
  bool absorb_fault(std::size_t i, std::size_t lane, ChaosFault fault,
                    int nodes, Clock::time_point segment_start) {
    JobState& job = states_[i];
    JobOutcome& outcome = report_->jobs[i];
    switch (fault) {
      case ChaosFault::kLaneCrash:
        ++outcome.stats.lane_crashes;
        drop_staged(i, nodes, /*revoked=*/false);
        // The crashed session dies bound to this lane; the fresh
        // re-staged one is unbound until whichever lane pops the
        // requeue binds it.
        if (!restage_crashed(i)) {
          finish_job(i, segment_start);  // typed error already recorded
          return false;
        }
        outcome.stats.lane_busy_seconds += seconds_since(segment_start);
        requeue(i, lane);
        return false;
      case ChaosFault::kSpotRevocation:
        ++outcome.stats.grant_revocations;
        // The re-admission delay: PR 1's capped jittered backoff,
        // billed at the service level (the job's own clock and meter
        // stay solo-identical).
        outcome.stats.chaos_backoff_hours +=
            chaos_->revocation_backoff_hours(job.chaos_key,
                                             job.revocations++);
        job.pending_revocation = true;
        return true;
      case ChaosFault::kProbeLoss:
        job.pending_loss = true;
        return true;
      case ChaosFault::kSchedulerStall:
        ++outcome.stats.scheduler_stalls;
        outcome.stats.lane_busy_seconds += seconds_since(segment_start);
        // Stats settled and driver released before the enqueue makes
        // the session visible to another lane.
        job.prepared->session().release_driver(
            static_cast<std::uint32_t>(lane));
        requeue(i, lane);
        return false;
      case ChaosFault::kNone:
        break;
    }
    return true;
  }

  /// Rebuilds a crashed lane's in-flight session from its ask/tell
  /// state: every admitted step is captured as a journal-record image
  /// and replayed through a fresh PreparedJob — billing, clock, and
  /// every seeded stream advance exactly as the original — so the
  /// re-staged session continues bit-identically with zero re-executed
  /// probes. Journaled jobs re-stage through their own WAL file (the
  /// same path a process crash would resume from). Returns false with
  /// the typed error recorded when re-preparation fails.
  bool restage_crashed(std::size_t i) {
    JobState& job = states_[i];
    const JobSpec& spec = workload_->jobs[i];
    JobOutcome& outcome = report_->jobs[i];
    system::JobRequest request = spec.request;
    request.probe_gate = &job.gate;
    if (!request.journal_path.empty() || !request.resume_path.empty()) {
      request.resume_path = !request.journal_path.empty()
                                ? request.journal_path
                                : request.resume_path;
    } else {
      const search::SearchSession& session = job.prepared->session();
      request.replay_records.reserve(session.trace().size());
      for (const search::ProbeStep& step : session.trace()) {
        request.replay_records.push_back(search::to_journal_record(step));
      }
    }
    job.prepared.reset();  // the crashed lane's context dies with it
                           // (closing any journal writer before reopen)
    system::PrepareResult prepared = mlcd_->prepare(request);
    if (!prepared.ok()) {
      outcome.error_code = std::string(
          system::job_error_code_name(prepared.error().code));
      outcome.error_message = prepared.error().message;
      return false;
    }
    job.prepared.emplace(std::move(prepared.job()));
    return true;
  }

  void finish_job(std::size_t i, Clock::time_point segment_start) {
    JobState& job = states_[i];
    JobOutcome& outcome = report_->jobs[i];
    outcome.stats.lane_busy_seconds += seconds_since(segment_start);
    outcome.stats.run_seconds = seconds_since(job.job_start);
    job.prepared.reset();  // release the session before the lane moves on
                           // (and close its journal writer first)
    if (manifest_ != nullptr && plans_ != nullptr &&
        !(*plans_)[i].replayed) {
      // Durably record the outcome *after* the per-job journal writer
      // closed, so a kill from here on replays the finished report
      // instead of re-running anything. Replayed jobs already carry
      // their finished record.
      BatchJobRecord record;
      record.phase = BatchJobPhase::kFinished;
      record.job = static_cast<int>(i);
      record.name = workload_->jobs[i].name;
      record.journal_file = (*plans_)[i].journal_file;
      record.ok = outcome.ok;
      record.outcome =
          outcome.ok ? (outcome.slo != SloBreach::kNone
                            ? std::string(kSloExceeded)
                            : std::string("ok"))
                     : outcome.error_code;
      record.report_digest =
          outcome.ok ? digest_run_report(outcome.report) : 0;
      manifest_->append(record);
    }
    if (!outcome.ok) {
      MLCD_LOG(kWarn, "service")
          << "job '" << workload_->jobs[i].name << "' failed ["
          << outcome.error_code << "]: " << outcome.error_message;
    }
    claims_.finished(i);
    dispatcher_.on_job_finished();
  }

  const system::Mlcd* mlcd_;
  const Workload* workload_;
  BatchReport* report_;
  ProbeCache* cache_;
  CapacityPool* capacity_;
  ManifestHandle* manifest_;              ///< null: batch not durable
  const std::vector<DurablePlan>* plans_; ///< null: batch not durable
  const Clock::time_point batch_start_;
  const std::size_t lane_count_;

  /// Engaged when the workload declares a chaotic fault environment.
  std::optional<ChaosInjector> chaos_;

  // The three lock domains that replaced the old batch-wide mutex —
  // see dispatch.hpp for what each one guards and why.
  JobClaims claims_;
  ParkQueue park_;
  ShardedDispatcher dispatcher_;

  std::vector<JobState> states_;
};

void StagedGate::publish(const profiler::ProbeKey& key,
                         const cloud::Deployment& d,
                         const journal::ProbeRecord& outcome) {
  batch_->release_and_sweep(d.nodes);
  if (cache_ != nullptr) {
    cache_->insert(key, outcome);
    ++stats_->cache_publishes;
  }
}

void StagedGate::abandon(const cloud::Deployment& d) noexcept {
  batch_->release_and_sweep(d.nodes);
}

}  // namespace

Scheduler::Scheduler(const system::Mlcd& mlcd, SchedulerOptions options)
    : mlcd_(&mlcd), options_(options) {
  if (options_.threads < 1) options_.threads = 1;
  if (options_.capacity_nodes < 0) {
    throw std::invalid_argument("Scheduler: negative capacity_nodes");
  }
  if (options_.tenant_max_jobs < 0) {
    throw std::invalid_argument("Scheduler: negative tenant_max_jobs");
  }
  if (options_.cache_stripes < 0 ||
      (options_.cache_stripes > 0 &&
       (options_.cache_stripes & (options_.cache_stripes - 1)) != 0)) {
    throw std::invalid_argument(
        "Scheduler: cache_stripes must be 0 (default) or a power of two "
        "(got " +
        std::to_string(options_.cache_stripes) + ")");
  }
}

BatchReport Scheduler::run(const Workload& workload) const {
  const std::size_t n = workload.jobs.size();
  if (n == 0) {
    throw std::invalid_argument("Scheduler: empty workload");
  }
  // Admission control: a probe larger than the whole pool would wedge
  // the FIFO queue forever — refuse the workload instead of deadlocking
  // mid-batch. (Searchers never probe beyond the job's max_nodes.)
  if (options_.capacity_nodes > 0) {
    for (const JobSpec& spec : workload.jobs) {
      if (spec.request.max_nodes > options_.capacity_nodes) {
        throw std::invalid_argument(
            "Scheduler: admission refused — job '" + spec.name +
            "' may probe up to " + std::to_string(spec.request.max_nodes) +
            " nodes but the capacity pool holds only " +
            std::to_string(options_.capacity_nodes));
      }
    }
  }

  workload.chaos.validate();
  if (options_.resume && options_.journal_dir.empty()) {
    throw std::invalid_argument(
        "Scheduler: --resume requires --journal-dir (the manifest to "
        "resume from lives there)");
  }

  // Durable batches: plan every job's recovery path from the manifest
  // (or write a fresh one) before any lane runs, and swap in the
  // workload copy carrying the auto-managed journal wiring.
  std::unique_ptr<BatchJournal> manifest;
  std::optional<ManifestHandle> manifest_handle;
  std::vector<DurablePlan> plans;
  Workload durable;
  const Workload* active = &workload;
  if (!options_.journal_dir.empty()) {
    std::string create_error;
    plans = plan_durable_batch(workload, options_, durable, manifest,
                               create_error);
    manifest_handle.emplace(std::move(manifest), options_.journal_on_error,
                            std::move(create_error));
    active = &durable;
  }

  BatchReport report;
  report.chaos = workload.chaos;
  report.threads = options_.threads;
  report.capacity_nodes = options_.capacity_nodes;
  report.tenant_max_jobs = options_.tenant_max_jobs;
  report.jobs.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    report.jobs[i].name = workload.jobs[i].name;
    report.jobs[i].tenant = workload.jobs[i].tenant;
    if (!plans.empty()) {
      report.jobs[i].stats.resumed_from_journal = plans[i].resumed;
      report.jobs[i].stats.replayed_from_journal = plans[i].replayed;
    }
  }

  ProbeCache cache(options_.cache_stripes);
  ProbeCache* shared_cache = options_.share_probes ? &cache : nullptr;
  CapacityPool capacity(options_.capacity_nodes);

  const Clock::time_point batch_start = Clock::now();
  ProbeBatch batch(*mlcd_, options_, *active, report, shared_cache,
                   capacity, batch_start,
                   manifest_handle ? &*manifest_handle : nullptr,
                   plans.empty() ? nullptr : &plans);
  batch.run();

  // Settle the manifest write-failure policy only after every lane
  // drained: no in-memory job state depends on the manifest, so all
  // results above are complete and correct either way.
  if (manifest_handle.has_value()) {
    const std::string manifest_error = manifest_handle->error();
    if (!manifest_error.empty()) {
      if (options_.journal_on_error == journal::OnError::kAbort) {
        throw journal::JournalError(
            journal::JournalErrorCode::kIo,
            "batch manifest append failed: " + manifest_error);
      }
      report.batch_journal_degraded = true;
      report.batch_journal_degrade_reason = manifest_error;
      MLCD_LOG(kWarn, "service")
          << "batch manifest write failed (" << manifest_error
          << "); continuing without a manifest — this batch is no "
             "longer kill-resumable";
    }
  }

  report.makespan_seconds = seconds_since(batch_start);
  report.peak_capacity_nodes = capacity.peak_in_use();
  report.peak_tenant_jobs = batch.peak_tenant();
  report.lane_steals = batch.steals();
  report.cache = cache.stats();
  MLCD_LOG(kInfo, "service")
      << "batch of " << n << " jobs done in " << report.makespan_seconds
      << " s (" << report.succeeded() << " ok, "
      << report.total_cache_hits() << " cache hits, "
      << report.total_session_parks() << " parks, peak "
      << report.peak_capacity_nodes << " nodes)";
  return report;
}

}  // namespace mlcd::service
