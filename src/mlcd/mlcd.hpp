// MLCD — the fully automated MLaaS training Cloud Deployment system
// (paper §IV). The facade examples and downstream users program against:
// submit a training job with its requirements, get back the deployment
// MLCD selected together with the full cost/time accounting.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "journal/journal.hpp"
#include "mlcd/cloud_interface.hpp"
#include "mlcd/deployment_engine.hpp"
#include "mlcd/platform_interface.hpp"
#include "mlcd/scenario_analyzer.hpp"
#include "profiler/profiler.hpp"
#include "search/heter_bo.hpp"
#include "models/model_zoo.hpp"
#include "search/search_result.hpp"
#include "search/search_session.hpp"

namespace mlcd::system {

/// A training job as submitted by an MLaaS user.
struct JobRequest {
  std::string model;                 ///< zoo model name ("resnet", ...)
  std::string platform = "tensorflow";
  std::optional<perf::CommTopology> topology;  ///< auto when unset
  UserRequirements requirements;
  /// Scale-out bound of the search space (paper default: 50).
  int max_nodes = 50;
  /// Restrict the scale-up dimension to these instance types
  /// (empty = full catalog).
  std::vector<std::string> instance_types;
  /// Buy spot capacity instead of on-demand: ~3x cheaper per hour, but
  /// revocations inflate effective training time.
  bool use_spot = false;
  std::string search_method = "heterbo";
  /// Measurements carried over from a previous search of a similar job
  /// (heterbo only; see search::warm_start_points / trace_io.hpp).
  std::vector<search::WarmStartPoint> warm_start;
  std::uint64_t seed = 1;
  /// Profiler knobs, including injected fault hazards and the retry
  /// policy (see docs/fault-model.md and the CLI chaos flags).
  profiler::ProfilerOptions profiler_options;
  /// Requested scan threads (CLI --threads, workload "threads"):
  /// validated (>= 1) and echoed in the report, but it has no effect —
  /// a job's candidate scan runs on the thread that drives it. Kept so
  /// RunReports and request files stay unchanged.
  int threads = 1;
  /// GP retune cadence (CLI --gp-refit-every): rebuild the BO surrogates
  /// from scratch every this many probes, extending incrementally in
  /// between. 1 = retune on every probe (exact legacy behavior).
  int gp_refit_every = 1;
  /// Durable run journal (CLI --journal): every probe outcome is framed,
  /// checksummed, and fsync'd to this file *before* it is admitted into
  /// the search trace, so a crash never loses spend accounting. Empty
  /// disables. See docs/crash-safety.md.
  std::string journal_path;
  /// Crash resume (CLI --resume): replay the journal at this path —
  /// restoring billing, the profiling clock, and every seeded stream —
  /// then continue the search bit-identically to an uninterrupted run,
  /// appending new probes to the same file. The journal's header must
  /// match this request exactly (typed kJournalError otherwise). Empty
  /// disables. Mutually exclusive with journal_path naming a different
  /// file.
  std::string resume_path;
  /// What a journal write failure does to the run (CLI
  /// --journal-on-error): kAbort (default) fails the job with the typed
  /// kJournalError; kDegrade drops to journal-less operation with a
  /// reported warning while the search continues correctly. Resume-side
  /// *read* failures (corruption, header mismatch) always refuse — a
  /// degraded policy never resumes from history it cannot trust.
  journal::OnError journal_on_error = journal::OnError::kAbort;
  /// Multi-tenant probe gate (service layer): when set, the search's
  /// probes are offered to this gate for cross-job cache reuse and
  /// capacity admission (see probe_gate.hpp). Trace-neutral:
  /// the resulting RunReport is bit-identical to the gate-free run.
  /// Not owned; nullptr (default) disables.
  profiler::ProbeGate* probe_gate = nullptr;
  /// In-memory crash re-staging (service layer): replay these journal-
  /// record images — billing, the profiling clock, and every seeded
  /// stream advance exactly as the original run — then continue the
  /// search bit-identically, with zero probes re-executed. This is the
  /// file-less sibling of resume_path, used by the scheduler to re-stage
  /// a crashed lane's session from its captured ask/tell state when the
  /// job keeps no durable journal. Mutually exclusive with resume_path
  /// and journal_path (journaled jobs re-stage through their own WAL
  /// file instead). Empty disables.
  std::vector<journal::ProbeRecord> replay_records;
  /// Write-ahead sink owned by the caller (service layer): a durable
  /// batch routes every probe and degrade record of the job into its one
  /// batch log through this sink instead of a per-job journal file.
  /// Mutually exclusive with journal_path and resume_path. Not owned;
  /// nullptr (default) disables.
  journal::RecordSink* journal_sink = nullptr;
};

/// MLCD's answer: the selected deployment plus all accounting.
struct RunReport {
  /// Version of the to_json() document layout. Bumped whenever a key is
  /// renamed, removed, or changes meaning; consumers should check it
  /// before parsing. History: 1 = unversioned PR-1 layout; 2 = adds
  /// schema_version, threads/gp_refit_every, and the failure-accounting
  /// counters under stable snake_case keys; 3 = adds the crash-safety
  /// fields (request.journal / request.resumed_from, result
  /// replayed_probes / probe_timeouts / degraded_iterations, per-step
  /// replayed flag); 4 = adds the multi-fidelity keys
  /// (request.fidelity_rungs / fidelity_max_bias / fidelity_max_noise,
  /// result low_fidelity_probes / full_fidelity_probes, per-step
  /// sample_fraction / iteration_tier). The v4 keys are emitted only
  /// when the fidelity ladder is enabled; ladder-free runs keep emitting
  /// the byte-identical v3 document. PR 8 adds the sparse
  /// journal_degraded / journal_degrade_reason result keys without a
  /// version bump: they are emitted only when a journal write failure
  /// degraded the run under --journal-on-error=degrade, so every
  /// fault-free document keeps its prior bytes.
  static constexpr int kJsonSchemaVersion = 4;

  JobRequest request;
  search::Scenario scenario;
  search::SearchResult result;
  /// Journal path this run was resumed from (empty for a fresh run).
  std::string resumed_from;
  /// True when a journal write failure dropped the run to journal-less
  /// operation (--journal-on-error=degrade). The search completed
  /// correctly but the run is no longer crash-resumable.
  bool journal_degraded = false;
  std::string journal_degrade_reason;

  /// Multi-line human-readable report.
  std::string render() const;

  /// Machine-readable report (request, scenario, chosen deployment,
  /// accounting, full probe trace) as a JSON document. The layout is
  /// versioned via the top-level "schema_version" key
  /// (kJsonSchemaVersion); every key is snake_case.
  std::string to_json() const;
};

/// Why a job was rejected before any search ran.
enum class JobErrorCode {
  kUnknownModel,
  kUnknownPlatform,
  kUnknownMethod,
  kUnknownInstanceType,
  kInvalidRequest,
  /// Journal could not be created, read, verified, or replayed (wraps
  /// journal::JournalError — the message carries its typed code name).
  kJournalError,
};

std::string_view job_error_code_name(JobErrorCode code);

/// A rejected job: machine-checkable code plus a human-readable message
/// (the message of kUnknownMethod lists every registered method).
struct JobError {
  JobErrorCode code = JobErrorCode::kInvalidRequest;
  std::string message;
};

/// std::expected-style result of Mlcd::deploy: either a RunReport or a
/// typed JobError. Invalid requests are data, not control flow — callers
/// branch on ok() / the error code instead of catching exceptions.
/// (Internal invariant violations still throw.)
class DeployResult {
 public:
  static DeployResult success(RunReport report);
  static DeployResult failure(JobError error);

  bool ok() const noexcept { return report_.has_value(); }
  explicit operator bool() const noexcept { return ok(); }

  /// The report. Throws std::runtime_error carrying the JobError message
  /// when the job was rejected — the value()-style accessor for callers
  /// that have nothing useful to do with a rejection.
  const RunReport& report() const&;
  RunReport&& report() &&;

  /// The rejection. Throws std::logic_error when the job succeeded.
  const JobError& error() const;

 private:
  DeployResult() = default;

  std::optional<RunReport> report_;
  std::optional<JobError> error_;
};

/// A validated job whose search session is ready to drive — the
/// ask/tell face of Mlcd::deploy. Owns everything the session borrows
/// (scenario, restricted catalog, deployment space, perf view, searcher,
/// journal writer), heap-pinned so the object can be moved freely while
/// the session's internal pointers stay valid. Drive the session with
/// search::ProbeDriver (step-at-a-time from a scheduler, or drive() to
/// completion), then call finish() exactly once.
class PreparedJob {
 public:
  PreparedJob(PreparedJob&&) noexcept;
  PreparedJob& operator=(PreparedJob&&) noexcept;
  ~PreparedJob();

  /// The resumable search session. Probes execute only when a driver
  /// steps it — preparing a job spends nothing.
  search::SearchSession& session() noexcept;

  /// The journal header of this search: everything that shapes its probe
  /// sequence. A batch log records it so a resume can refuse a job whose
  /// search changed (journal::header_diff).
  const journal::JournalHeader& journal_header() const noexcept;

  /// Final deployment selection + report assembly for a session whose
  /// strategy has finished. The returned report is byte-identical to the
  /// one Mlcd::deploy would have produced for the same request.
  DeployResult finish();

 private:
  friend class Mlcd;
  struct Context;
  explicit PreparedJob(std::unique_ptr<Context> context);

  std::unique_ptr<Context> context_;
};

/// std::expected-style result of Mlcd::prepare: a ready-to-drive job or
/// a typed JobError (same codes deploy() reports).
class PrepareResult {
 public:
  static PrepareResult success(PreparedJob job);
  static PrepareResult failure(JobError error);

  bool ok() const noexcept { return job_.has_value(); }
  explicit operator bool() const noexcept { return ok(); }

  /// The prepared job. Throws std::runtime_error carrying the JobError
  /// message when preparation was rejected.
  PreparedJob& job();

  /// The rejection. Throws std::logic_error when preparation succeeded.
  const JobError& error() const;

 private:
  PrepareResult() = default;

  std::optional<PreparedJob> job_;
  std::optional<JobError> error_;
};

class Mlcd {
 public:
  /// Uses the simulated provider and the paper's model zoo.
  Mlcd();

  /// Custom provider / zoo (tests, custom-model example).
  Mlcd(const CloudInterface& cloud, const models::ModelZoo& zoo);

  /// Runs the full pipeline: Scenario Analyzer -> Deployment Engine
  /// (Profiler inside) -> report. Request problems (unknown model /
  /// platform / method / instance type, inconsistent requirements) come
  /// back as a typed JobError in the DeployResult rather than an
  /// exception. Equivalent to prepare() + ProbeDriver::drive() +
  /// finish().
  DeployResult deploy(const JobRequest& request) const;

  /// Validation + journal recovery/creation + session construction, with
  /// no probe executed: the pull-style half of deploy() the service
  /// scheduler uses to multiplex many jobs over a few lanes at probe
  /// granularity.
  PrepareResult prepare(const JobRequest& request) const;

  const models::ModelZoo& zoo() const noexcept { return *zoo_; }
  const CloudInterface& cloud() const noexcept { return *cloud_; }

 private:
  // Declaration order matters: the owned provider must outlive (and be
  // initialized before) the pointers and engine referring to it.
  std::unique_ptr<SimulatedCloud> owned_cloud_;
  const CloudInterface* cloud_;
  const models::ModelZoo* zoo_;
  ScenarioAnalyzer analyzer_;
  MlPlatformInterface platforms_;
  DeploymentEngine engine_;
};

}  // namespace mlcd::system
