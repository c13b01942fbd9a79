#include "service/scheduler.hpp"

#include <algorithm>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <filesystem>
#include <memory>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "journal/journal.hpp"
#include "search/probe_driver.hpp"
#include "search/search_result.hpp"
#include "service/batch_journal.hpp"
#include "service/chaos.hpp"
#include "service/dispatch.hpp"
#include "service/probe_cache.hpp"
#include "util/logging.hpp"

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

/// How one job of a durable batch starts, decided from the batch log
/// before any lane runs: fresh (log an assigned record and run), resumed
/// (replay its logged probes, then continue live), or replayed
/// (re-materialize a finished report from its logged probes with zero
/// probes re-executed).
struct DurablePlan {
  bool resumed = false;
  bool replayed = false;
  /// Where the job's logged probe records sit in the log; they are read
  /// when the job starts.
  std::vector<journal::RecordSpan> replay;
  /// The search the log's assigned record describes; a resumed or
  /// replayed job whose own header differs is refused (kHeaderMismatch).
  journal::JournalHeader header;
  /// The finished record's digest; a replayed report that hashes
  /// differently diverged and is refused (kReplayDiverged).
  std::uint64_t expected_digest = 0;
};

/// Refuses a resume whose workload or capacity/quota configuration does
/// not fingerprint-match the log: it describes a different batch.
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
        "batch log '" + path + "' records a different batch: " + diff +
            " differs");
  }
}

/// Creates `dir` (and its parents) and fsyncs the parent of each
/// directory it created, so the log's directory entry survives a power
/// loss along with the log. Throws journal::JournalError(kIo).
void create_journal_dir(const std::string& dir) {
  namespace fs = std::filesystem;
  const fs::path path = fs::path(dir).lexically_normal();
  std::vector<fs::path> created;
  std::error_code ec;
  for (fs::path at = path; !at.empty() && !fs::exists(at, ec);
       at = at.parent_path()) {
    created.push_back(at);
    if (at == at.parent_path()) break;
  }
  fs::create_directories(path, ec);
  if (ec) {
    throw journal::JournalError(
        journal::JournalErrorCode::kIo,
        "cannot create journal dir '" + dir + "' (" + ec.message() + ")");
  }
  for (const fs::path& made : created) {
    const fs::path parent = made.parent_path();
    journal::fsync_directory(parent.empty() ? "." : parent.string());
  }
}

/// Plans a durable batch: verifies no job claims its own journal,
/// creates or reopens the batch log, and decides each job's recovery
/// path in one streaming pass over the log. Throws journal::JournalError
/// for every log-read problem (resume-side read failures refuse
/// regardless of policy) and for creation failures under the abort
/// policy, std::invalid_argument for admission conflicts. Under the
/// degrade policy a log that cannot be created comes back failed: the
/// batch runs log-less.
std::vector<DurablePlan> plan_durable_batch(const Workload& workload,
                                            const SchedulerOptions& options,
                                            std::unique_ptr<BatchLog>& log) {
  for (const JobSpec& spec : workload.jobs) {
    if (!spec.request.journal_path.empty() ||
        !spec.request.resume_path.empty() ||
        !spec.request.replay_records.empty()) {
      throw std::invalid_argument(
          "Scheduler: admission refused — job '" + spec.name +
          "' declares its own journal/resume, but --journal-dir logs "
          "every job");
    }
  }
  const std::size_t n = workload.jobs.size();
  const std::string path = options.journal_dir + "/batch.mlcdb";
  const BatchManifestHeader header = make_manifest_header(
      workload, options.capacity_nodes, options.tenant_max_jobs);
  std::vector<DurablePlan> plans(n);

  if (options.resume) {
    BatchManifestContents contents = read_manifest(path);
    verify_manifest_header(contents.header, header, path);
    int replays = 0;
    int resumes = 0;
    for (std::size_t i = 0; i < n; ++i) {
      BatchJobState& state = contents.jobs[i];
      DurablePlan& plan = plans[i];
      if (state.finished && state.ok) {
        // Finished before the kill: replay the whole report from its
        // logged probes, bit-identically and probe-free, then verify it
        // against the finished record's digest.
        plan.replayed = true;
        plan.expected_digest = state.report_digest;
        ++replays;
      } else if (!state.finished && !state.probe_spans.empty()) {
        // In flight when the process died: replay the logged prefix and
        // execute the rest live, logging on.
        plan.resumed = true;
        ++resumes;
      } else {
        // Never started, finished-but-failed (failures are
        // deterministic), or assigned with no probe record yet: run
        // fresh under a new assigned record.
        continue;
      }
      plan.replay = std::move(state.probe_spans);
      plan.header = state.header;
    }
    log = BatchLog::append_to(path, contents.valid_bytes);
    MLCD_LOG(kInfo, "service")
        << "resuming batch from " << path << ": " << replays
        << " finished reports to replay, " << resumes
        << " in-flight jobs to resume, "
        << (n - static_cast<std::size_t>(replays + resumes))
        << " to run fresh"
        << (contents.truncated_tail ? " (torn log tail dropped)" : "");
    return plans;
  }

  try {
    create_journal_dir(options.journal_dir);
    std::vector<std::string> roster;
    roster.reserve(n);
    for (const JobSpec& spec : workload.jobs) roster.push_back(spec.name);
    log = BatchLog::create(path, header, roster);
  } catch (const journal::JournalError& e) {
    // Write failures obey the batch policy even this early: abort
    // surfaces the typed error before any probe spends; degrade runs
    // the batch log-less, every job's session degrading at its first
    // probe record.
    if (options.journal_on_error == journal::OnError::kAbort) throw;
    log = BatchLog::failed(path, e.what());
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
/// CapacityQueue (the node pool and its parked FIFO, one small lock
/// taken per cache miss and per finished probe), and ShardedDispatcher
/// (per-lane run queues with work stealing).
///
/// Liveness invariant: a session parks only while some other session
/// holds pool capacity, capacity is only held across one
/// ProbeDriver::step executing on some lane, and every step ends in
/// publish()/abandon() — which releases the nodes and sweeps the parked
/// queue. So a parked session is always eventually restaged, and a
/// restaged (enqueued) session is always eventually picked up by a
/// lane: no deadlock, and parked sessions resume in strict FIFO order.
/// A durable batch adds the commit fence (see fenced_step): a session
/// parks there only after staging its record, and the parking lane then
/// commits unless a round is already in flight — whose committer
/// re-checks for staged records before it stops — so every fenced
/// session is restaged by a commit that covers its record.
class ProbeBatch {
 public:
  /// `log` / `plans` are both null for a non-durable batch; for a
  /// durable one `plans` holds one entry per workload job.
  ProbeBatch(const system::Mlcd& mlcd, const SchedulerOptions& options,
             const Workload& workload, BatchReport& report,
             ProbeCache* cache, Clock::time_point batch_start,
             BatchLog* log = nullptr,
             std::vector<DurablePlan>* plans = nullptr)
      : mlcd_(&mlcd),
        workload_(&workload),
        report_(&report),
        cache_(cache),
        log_(log),
        plans_(plans),
        on_error_(options.journal_on_error),
        batch_start_(batch_start),
        lane_count_(std::min<std::size_t>(
            static_cast<std::size_t>(options.threads),
            workload.jobs.size())),
        claims_(tenants_of(workload), options.tenant_max_jobs,
                log == nullptr ? 0 : kDurableRunningJobs),
        capacity_(options.capacity_nodes),
        dispatcher_(lane_count_, &claims_,
                    log == nullptr ? std::function<bool()>()
                                   : [this] { return pump_log(); }),
        states_(workload.jobs.size()) {
    if (workload.chaos.enabled()) chaos_.emplace(workload.chaos);
    for (std::size_t i = 0; i < states_.size(); ++i) {
      states_[i].gate.bind(this, cache_, &report_->jobs[i].stats);
      states_[i].chaos_key = ChaosInjector::job_key(workload.jobs[i].name);
      if (log_ != nullptr) states_[i].sink.bind(log_, static_cast<int>(i));
    }
  }

  /// Runs lane 0 on the calling thread and every other lane on a
  /// thread of its own, so the batch has exactly lane_count_ threads.
  /// Joins every lane, then rethrows the first exception a lane threw.
  void run() {
    std::mutex error_mutex;
    std::exception_ptr error;
    const auto drive_lane = [&](std::size_t lane) {
      try {
        for (std::size_t i = dispatcher_.next_job(lane); i != kNoJob;
             i = dispatcher_.next_job(lane)) {
          drive(i, lane);
        }
      } catch (...) {
        const std::lock_guard<std::mutex> lock(error_mutex);
        if (!error) error = std::current_exception();
      }
    };
    {
      // jthreads: every started lane is joined at the end of this scope,
      // also when starting a later one throws.
      std::vector<std::jthread> lanes;
      lanes.reserve(lane_count_ - 1);
      for (std::size_t lane = 1; lane < lane_count_; ++lane) {
        lanes.emplace_back(drive_lane, lane);
      }
      drive_lane(0);
    }
    if (error) std::rethrow_exception(error);
  }

  int peak_tenant() const { return claims_.peak_tenant(); }
  int peak_running() const { return claims_.peak_running(); }
  int peak_capacity() const { return capacity_.peak_in_use(); }

  /// Durable batches under the abort policy, once the lanes drained:
  /// fails typed every job with a record the failed log lost — staged
  /// into a failed commit, or refused after it — unless it already
  /// failed, so no result the log lost is reported as a success.
  void fail_lost_jobs() {
    const std::string error = log_->error();
    for (const int job : log_->lost_jobs()) {
      const std::size_t i = static_cast<std::size_t>(job);
      if (!report_->jobs[i].error_code.empty()) continue;
      fail_journaled(i, journal::JournalError(
                            journal::JournalErrorCode::kIo,
                            "batch log lost this job's records (" + error +
                                ")"));
      MLCD_LOG(kWarn, "service")
          << "job '" << workload_->jobs[i].name << "' failed ["
          << report_->jobs[i].error_code
          << "]: " << report_->jobs[i].error_message;
    }
  }
  std::int64_t steals() const noexcept { return dispatcher_.steals(); }

  /// Returns a finished probe's nodes to the pool and restages every
  /// parked session (FIFO) that now fits, handing each its capacity
  /// grant before it ever reaches a lane. Called from
  /// StagedGate::publish / abandon on whichever lane ran the probe.
  void release_and_sweep(int nodes) noexcept {
    restage(capacity_.release_and_sweep(nodes));
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
    /// Durable batches: the job's share of the batch log, and the record
    /// image of a probe held on the commit fence (engaged from staging
    /// until admission) with how its commit settled.
    BatchLogSink sink;
    std::optional<journal::ProbeRecord> fenced;
    bool fence_failed = false;
  };

  static std::vector<std::string> tenants_of(const Workload& workload) {
    std::vector<std::string> tenants;
    tenants.reserve(workload.jobs.size());
    for (const JobSpec& spec : workload.jobs) tenants.push_back(spec.tenant);
    return tenants;
  }

  /// Routes swept sessions back into circulation. Each arrives with its
  /// capacity grant already acquired and *exclusively owned by the
  /// sweeping thread* (the CapacityQueue popped it under its lock): the
  /// gate is staged and the stall wait booked before the enqueue makes
  /// the session visible to any lane, so no lock beyond the run-queue
  /// handoff is needed.
  void restage(const std::vector<CapacityQueue::Resumed>& resumed) noexcept {
    for (const CapacityQueue::Resumed& r : resumed) {
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
  /// capacity lock, *before* the entry becomes sweepable) or before a
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
      system::JobRequest request = job_request(i);
      if (log_ != nullptr && !load_replay(i, request)) {
        finish_job(i, segment_start);
        return;
      }
      system::PrepareResult prepared = mlcd_->prepare(request);
      if (!prepared.ok()) {
        outcome.error_code = std::string(
            system::job_error_code_name(prepared.error().code));
        outcome.error_message = prepared.error().message;
        finish_job(i, segment_start);
        return;
      }
      job.prepared.emplace(std::move(prepared.job()));
      if (log_ != nullptr && !log_start(i)) {
        finish_job(i, segment_start);
        return;
      }
    }

    job.prepared->session().bind_driver(driver);
    try {
      // Back from the commit fence: settle the held probe first.
      if (job.fenced.has_value()) admit_fenced(i, !job.fence_failed);
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
            drop_staged(i, request->deployment.nodes);
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
          // under the capacity lock, before the entry becomes sweepable.
          const auto on_park = [&]() {
            ++outcome.stats.capacity_stalls;
            ++outcome.stats.session_parks;
            outcome.stats.lane_busy_seconds += seconds_since(segment_start);
            session.release_driver(driver);
          };
          if (job.pending_revocation) {
            // The capacity this probe reserved is spot-revoked as it
            // launches: the session parks at the tail for elastic
            // re-admission through the same FIFO as every capacity wait.
            job.pending_revocation = false;
            restage(capacity_.park(i, request->deployment.nodes, lane,
                                   on_park));
            return;  // lane freed; the sweep will restage this session
          }
          const profiler::ProbeKey key = session.profiler().next_probe_key(
              profiler::ProbeRequest{request->deployment, request->fidelity});
          std::optional<journal::ProbeRecord> hit =
              cache_ != nullptr ? cache_->lookup(key) : std::nullopt;
          if (hit.has_value()) {
            job.gate.stage_hit(std::move(*hit));
          } else if (capacity_.admit_or_park(i, request->deployment.nodes,
                                              lane, on_park)) {
            job.gate.stage_admitted();
          } else {
            return;  // parked; the sweep will restage this session
          }
        }
        if (log_ != nullptr && !session.replaying() &&
            session.journal() != nullptr) {
          // Every logged step already admits from its record image, so
          // an injected result loss needs no recovery of its own.
          if (job.pending_loss) {
            job.pending_loss = false;
            ++outcome.stats.probe_losses;
          }
          if (!fenced_step(i, driver, session, segment_start)) {
            return;  // parked on the fence; a commit restages it
          }
        } else if (job.pending_loss && !session.replaying()) {
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
    if (outcome.ok && plans_ != nullptr && (*plans_)[i].replayed &&
        digest_run_report(outcome.report) != (*plans_)[i].expected_digest) {
      // Replay verification: the re-materialized report must hash to
      // exactly what the finished record promised (kReplayDiverged
      // otherwise) — the log is not allowed to drift underneath a
      // finished result.
      fail_journaled(i, journal::JournalError(
                            journal::JournalErrorCode::kReplayDiverged,
                            "batch log '" + log_->path() +
                                "' replayed a report for job '" +
                                workload_->jobs[i].name +
                                "' that diverged from its finished "
                                "record's digest"));
    }
  }

  /// Records a typed journal failure as job i's outcome, dropping any
  /// report it had.
  void fail_journaled(std::size_t i, const journal::JournalError& error) {
    JobOutcome& outcome = report_->jobs[i];
    outcome.ok = false;
    outcome.report = system::RunReport{};
    outcome.stats.low_fidelity_probes = 0;
    outcome.stats.full_fidelity_probes = 0;
    outcome.error_code = std::string(
        system::job_error_code_name(system::JobErrorCode::kJournalError));
    outcome.error_message = error.what();
  }

  /// Job i's request as the scheduler runs it: the staged gate, and in a
  /// durable batch the job's share of the batch log under the batch's
  /// write-failure policy.
  system::JobRequest job_request(std::size_t i) {
    JobState& job = states_[i];
    system::JobRequest request = workload_->jobs[i].request;
    request.probe_gate = &job.gate;
    if (log_ != nullptr) {
      request.journal_sink = &job.sink;
      request.journal_on_error = on_error_;
    }
    return request;
  }

  /// Durable batches: reads the probe records job i replays from the
  /// log into `request`. Returns false with the typed error recorded
  /// when they cannot be read back.
  bool load_replay(std::size_t i, system::JobRequest& request) {
    std::vector<journal::RecordSpan>& spans = (*plans_)[i].replay;
    try {
      request.replay_records = read_probe_records(log_->path(), spans);
    } catch (const journal::JournalError& e) {
      fail_journaled(i, e);
      return false;
    }
    spans = {};
    return true;
  }

  /// Durable batches, once job i is prepared: a resumed or replayed job
  /// must still be the search its assigned record describes, and a
  /// fresh one logs that record now — a lifecycle record, which never
  /// waits on the fence (the job's first probe record commits it). A
  /// record the failed log refuses is settled when the batch drains.
  /// Returns false with the typed error recorded when the job must not
  /// run.
  bool log_start(std::size_t i) {
    const DurablePlan& plan = (*plans_)[i];
    const journal::JournalHeader& header =
        states_[i].prepared->journal_header();
    if (plan.resumed || plan.replayed) {
      const std::string diff = journal::header_diff(plan.header, header);
      if (diff.empty()) return true;
      fail_journaled(i, journal::JournalError(
                            journal::JournalErrorCode::kHeaderMismatch,
                            "batch log '" + log_->path() +
                                "' records a different search for job '" +
                                workload_->jobs[i].name + "': " + diff +
                                " differs"));
      return false;
    }
    BatchJobRecord record;
    record.phase = BatchJobPhase::kAssigned;
    record.job = static_cast<int>(i);
    record.name = workload_->jobs[i].name;
    record.header = header;
    log_->stage(record);
    return true;
  }

  /// Durable batches: executes the pending probe, stages its record, and
  /// holds the step on the commit fence — write-ahead: the probe is
  /// admitted only once its record is durable. Returns false when the
  /// session parked (it left this lane, whose accounting is settled);
  /// true when it was admitted and the lane keeps driving.
  bool fenced_step(std::size_t i, std::uint32_t driver,
                   search::SearchSession& session,
                   Clock::time_point segment_start) {
    JobState& job = states_[i];
    journal::ProbeRecord image =
        search::ProbeDriver::step_losing_result(session);
    const std::optional<std::uint64_t> lsn = job.sink.take_staged();
    if (!lsn.has_value()) {
      // Staging was refused and the session went journal-less (degrade
      // policy): nothing to wait for.
      search::ProbeDriver::admit_recovered(session, image);
      return true;
    }
    job.fenced.emplace(std::move(image));
    JobStats& stats = report_->jobs[i].stats;
    const auto on_park = [&]() {
      stats.lane_busy_seconds += seconds_since(segment_start);
      session.release_driver(driver);
    };
    switch (log_->park(*lsn, BatchLog::Waiter{i, driver, false}, on_park)) {
      case BatchLog::Fence::kDurable:
        admit_fenced(i, true);
        return true;
      case BatchLog::Fence::kFailed:
        admit_fenced(i, false);
        return true;
      case BatchLog::Fence::kParked:
        break;
    }
    pump_log();
    return false;
  }

  /// Admits job i's fenced probe once its commit settled. A failed
  /// commit may have lost the record: under abort the job fails typed
  /// and the probe is never admitted; under degrade the session goes
  /// journal-less and the probe is admitted as usual.
  void admit_fenced(std::size_t i, bool durable) {
    JobState& job = states_[i];
    search::SearchSession& session = job.prepared->session();
    const journal::ProbeRecord image = std::move(*job.fenced);
    job.fenced.reset();
    if (!durable) {
      const journal::JournalError error(
          journal::JournalErrorCode::kIo,
          "the batch log commit holding this probe's record failed (" +
              log_->error() + ")");
      if (on_error_ == journal::OnError::kAbort) throw error;
      session.degrade_journal(error.what());
    }
    search::ProbeDriver::admit_recovered(session, image);
  }

  /// Runs commit rounds while staged records wait and no other round is
  /// in flight, restaging every fenced session each round settles.
  /// Returns true when at least one round ran.
  bool pump_log() {
    bool ran = false;
    std::vector<BatchLog::Waiter> released;
    while (log_->commit(released)) {
      ran = true;
      for (const BatchLog::Waiter& waiter : released) {
        states_[waiter.job].fence_failed = !waiter.durable;
        dispatcher_.enqueue(waiter.job, waiter.lane);
      }
      released.clear();
    }
    return ran;
  }

  /// Hands a live session back into circulation (chaos crash / stall
  /// paths): it re-enters `lane`'s run queue, and that lane — or a
  /// stealing one — drives it next. The caller must have released the
  /// driver token (or replaced the session) first.
  void requeue(std::size_t i, std::size_t lane) {
    dispatcher_.enqueue(i, lane);
  }

  /// Returns a staged-but-unused capacity grant to the pool and sweeps
  /// the parked FIFO. No-op when nothing admitted was staged. Defensive
  /// on the chaos paths: faults roll only at fresh step boundaries,
  /// which never carry a staged grant.
  void drop_staged(std::size_t i, int nodes) noexcept {
    if (states_[i].gate.unstage()) release_and_sweep(nodes);
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
        drop_staged(i, nodes);
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
  /// probes. Jobs declaring their own journal re-stage through that WAL
  /// file (the same path a process crash would resume from); a durable
  /// batch's jobs replay their in-memory trace, whose records the batch
  /// log already holds. Returns false with the typed error recorded when
  /// re-preparation fails.
  bool restage_crashed(std::size_t i) {
    JobState& job = states_[i];
    JobOutcome& outcome = report_->jobs[i];
    system::JobRequest request = job_request(i);
    // Either way the fresh session replays every step the crashed one
    // admitted.
    outcome.stats.crash_replayed_probes +=
        static_cast<int>(job.prepared->session().trace().size());
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
    if (log_ != nullptr && !(*plans_)[i].replayed) {
      // Logged after every probe record of the job, so once durable a
      // kill from here on replays the finished report instead of
      // re-running anything. A lifecycle record: it rides the next
      // commit. Replayed jobs already carry their finished record.
      BatchJobRecord record;
      record.phase = BatchJobPhase::kFinished;
      record.job = static_cast<int>(i);
      record.name = workload_->jobs[i].name;
      record.ok = outcome.ok;
      record.outcome =
          outcome.ok ? (outcome.slo != SloBreach::kNone
                            ? std::string(kSloExceeded)
                            : std::string("ok"))
                     : outcome.error_code;
      record.report_digest =
          outcome.ok ? digest_run_report(outcome.report) : 0;
      log_->stage(record);
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
  BatchLog* log_;                    ///< null: batch not durable
  std::vector<DurablePlan>* plans_;  ///< null: batch not durable
  const journal::OnError on_error_;
  const Clock::time_point batch_start_;
  const std::size_t lane_count_;

  /// Engaged when the workload declares a chaotic fault environment.
  std::optional<ChaosInjector> chaos_;

  // The three lock domains that replaced the old batch-wide mutex —
  // see dispatch.hpp for what each one guards and why.
  JobClaims claims_;
  CapacityQueue capacity_;
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
        "Scheduler: --resume requires --journal-dir (the batch log "
        "batch.mlcdb to resume from lives there)");
  }

  // Durable batches: plan every job's recovery path from the batch log
  // (or create a fresh one) before any lane runs.
  std::unique_ptr<BatchLog> log;
  std::vector<DurablePlan> plans;
  if (!options_.journal_dir.empty()) {
    plans = plan_durable_batch(workload, options_, log);
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

  ProbeCache cache;
  ProbeCache* shared_cache = options_.share_probes ? &cache : nullptr;
  const Clock::time_point batch_start = Clock::now();
  ProbeBatch batch(*mlcd_, options_, workload, report, shared_cache,
                   batch_start, log.get(),
                   plans.empty() ? nullptr : &plans);
  batch.run();

  if (log != nullptr) {
    // Finished records the lanes staged after the last commit round.
    log->flush();
    report.log_commits = log->commits();
    report.log_records = log->records();
    // Settle the write-failure policy once every lane drained. Under
    // degrade every result stands; the batch is just no longer
    // kill-resumable.
    const std::string log_error = log->error();
    if (!log_error.empty()) {
      if (options_.journal_on_error == journal::OnError::kAbort) {
        batch.fail_lost_jobs();
      } else {
        report.batch_journal_degraded = true;
        report.batch_journal_degrade_reason = log_error;
        MLCD_LOG(kWarn, "service")
            << "batch log write failed (" << log_error
            << "); continuing without it — this batch is no longer "
               "kill-resumable";
      }
    }
  }

  report.makespan_seconds = seconds_since(batch_start);
  report.peak_capacity_nodes = batch.peak_capacity();
  report.peak_tenant_jobs = batch.peak_tenant();
  report.peak_running_jobs = batch.peak_running();
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
