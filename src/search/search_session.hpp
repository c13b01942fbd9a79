// Ask/tell search session: the resumable half of every searcher.
//
// The search layer is split into three pieces (docs/architecture.md):
//
//   SearchStrategy  — pure probe-selection policy, an explicit state
//                     machine advanced one proposal at a time;
//   SearchSession   — the strategy plus all per-run state (billing
//                     meter, profiler, RNG, trace, incumbent), exposing
//                     the pull-style ask/tell surface next()/observe();
//   ProbeDriver     — executes proposals against the profiler and owns
//                     the write-ahead journaling discipline.
//
// A session never blocks: next() returns the pending ProbeRequest (or
// finished), and whoever drives it — Mlcd::deploy solo or the service
// scheduler multiplexing many sessions over a few lanes — decides when
// to execute. next() is idempotent until observe() lands the outcome, so
// a capacity-parked session can be resumed later and re-ask for exactly
// the same probe.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "cloud/billing.hpp"
#include "cloud/deployment.hpp"
#include "journal/journal.hpp"
#include "perf/perf_model.hpp"
#include "profiler/profiler.hpp"
#include "search/completion_model.hpp"
#include "search/scenario.hpp"
#include "search/search_result.hpp"
#include "util/rng.hpp"

namespace mlcd::search {

/// Everything that defines one deployment-search task.
struct SearchProblem {
  perf::TrainingConfig config;
  const cloud::DeploymentSpace* space = nullptr;
  Scenario scenario;
  std::uint64_t seed = 1;
  profiler::ProfilerOptions profiler_options;
  /// BO-surrogate retune cadence: the searchers rebuild their GPs from
  /// scratch (hyperparameter MLE + target renormalization) every this
  /// many incorporated probes and extend them incrementally in between
  /// (O(n²) bordered-Cholesky adds with frozen hyperparameters).
  /// 1 (default) retunes on every probe — the exact legacy behavior;
  /// <= 0 never retunes after the first build.
  int gp_refit_every = 1;
  /// Write-ahead sink the ProbeDriver appends each probe outcome to
  /// *before* it is admitted into the trace: a RunJournal (which must
  /// already contain its header) or a job's share of the service batch
  /// log. nullptr = no journaling. Not owned.
  journal::RecordSink* journal = nullptr;
  /// What a journal append failure mid-run does: kAbort surfaces the
  /// typed JournalError (the run fails as kJournalError); kDegrade drops
  /// the session to journal-less operation with a reported warning and
  /// the search continues correctly — either way the failed append never
  /// corrupts in-memory search state.
  journal::OnError journal_on_error = journal::OnError::kAbort;
  /// Crash-resume replay: probe outcomes recovered from a journal, in
  /// original order. The session's profiler serves these for the first
  /// `replay.size()` probes instead of executing them — billing, clock,
  /// and every seeded stream advance exactly as in the original run —
  /// then switches back to live execution, making the continuation
  /// bit-identical to an uninterrupted search.
  std::vector<journal::ProbeRecord> replay;
  /// Test seam: when set, searchers treat iterations for which this
  /// returns true as if the surrogate refit had failed, exercising the
  /// graceful-degradation safe mode without needing a pathological GP.
  std::function<bool(int iteration)> chaos_degrade_hook;
  /// Multi-tenant probe gate (service layer): when set, every live probe
  /// is offered to the gate for cross-job cache reuse and capacity
  /// admission (see profiler/probe_gate.hpp). Trace-neutral — a gated
  /// run's trace is bit-identical to the same problem run solo. Not
  /// owned.
  profiler::ProbeGate* probe_gate = nullptr;
  /// Job-invariant fingerprint the gate's ProbeKeys carry (model,
  /// platform, topology, seed, catalog, market, profiler knobs).
  std::uint64_t probe_substrate = 0;
};

/// How the final deployment is chosen from the probe history.
enum class IncumbentPolicy {
  /// Highest scenario objective, constraints ignored — what the
  /// constraint-oblivious baselines do (and why they overshoot).
  kObjectiveOnly,
  /// Highest objective among probes whose projected completion still
  /// satisfies the scenario constraints; least-violating otherwise.
  kConstraintAware,
};

/// One probe the strategy wants executed next. Strategies propose the
/// deployment and the fidelity jointly: a cheap low-fidelity sweep and a
/// full-fidelity confirmation of the same deployment are different
/// requests with different cost, noise, and information content.
struct ProbeRequest {
  cloud::Deployment deployment;
  /// Acquisition score recorded in the trace (0 for non-BO probes).
  double acquisition = 0.0;
  /// Trace label: "init", "curve", "tei", "ei", "confirm", ...
  std::string reason;
  /// Requested probe fidelity (Fidelity{} = full). Only meaningful when
  /// the problem's fidelity ladder is enabled.
  profiler::Fidelity fidelity{};
};

class SearchSession;

/// Probe-selection policy as an explicit resumable state machine.
///
/// propose() is called exactly once per executed probe: the session
/// caches the returned request until its outcome is observed, so a
/// strategy may advance internal cursors in propose() without ever
/// seeing the same decision point twice. Returning nullopt finishes the
/// session permanently. All lazy setup (candidate enumeration, RNG
/// draws, option validation) belongs in the first propose() call — never
/// in the constructor — so that building a session has no observable
/// effect on seeded streams.
class SearchStrategy {
 public:
  virtual ~SearchStrategy() = default;

  virtual std::optional<ProbeRequest> propose(SearchSession& session) = 0;
};

/// Per-run state plus the ask/tell surface. Created via
/// Searcher::start(); driven by ProbeDriver (or any scheduler speaking
/// the same protocol); finished via Searcher::finish().
class SearchSession {
 public:
  /// `strategy` may be null for probe-free planners (Paleo): the session
  /// is then born finished. Throws std::invalid_argument when the
  /// problem has no deployment space.
  SearchSession(const perf::TrainingPerfModel& perf,
                const SearchProblem& problem,
                std::unique_ptr<SearchStrategy> strategy);

  // ---------------------------------------------------------- ask/tell

  /// The pending probe request, asking the strategy for one when none is
  /// outstanding. Idempotent: repeated calls return the same request
  /// until observe() consumes it — this is what lets a capacity-parked
  /// session resume on a different lane. Returns nullptr once the
  /// strategy is finished (permanently).
  const ProbeRequest* next();

  bool finished() const noexcept { return finished_; }

  /// Accounting half of "tell": folds a profile outcome into the
  /// cumulative spend and builds the full trace step (including the
  /// cum_* fields a journal record needs). Does NOT touch the trace —
  /// the driver journals the returned step first (write-ahead), then
  /// admits it via observe().
  ProbeStep account(const ProbeRequest& request,
                    const profiler::ProfileResult& outcome);

  /// Admission half of "tell": appends the accounted step to the trace,
  /// updates the incumbent, and clears the pending request so the next
  /// next() advances the strategy. Returns the admitted step.
  const ProbeStep& observe(ProbeStep step);

  // ----------------------------------------- state shared with strategies

  const SearchProblem& problem() const noexcept { return *problem_; }
  const cloud::DeploymentSpace& space() const noexcept {
    return *problem_->space;
  }
  const Scenario& scenario() const noexcept { return problem_->scenario; }
  const perf::TrainingPerfModel& perf() const noexcept { return *perf_; }
  profiler::Profiler& profiler() noexcept { return profiler_; }
  const profiler::Profiler& profiler() const noexcept { return profiler_; }
  util::Rng& rng() noexcept { return rng_; }

  const std::vector<ProbeStep>& trace() const noexcept { return trace_; }
  /// True when `d` has a *full-fidelity* probe in the trace. Low-fidelity
  /// observations do not count: the search may still want to confirm the
  /// deployment at full fidelity.
  bool already_probed(const cloud::Deployment& d) const noexcept;
  /// True when `d` was probed at exactly `fidelity`.
  bool already_probed(const cloud::Deployment& d,
                      const profiler::Fidelity& fidelity) const noexcept;

  double spent_hours() const noexcept { return cum_hours_; }
  double spent_cost() const noexcept { return cum_cost_; }

  /// Scenario objective of a probed step (0 when infeasible).
  double objective_of(const ProbeStep& step) const;

  /// Incumbent = best feasible probe by scenario objective.
  bool has_incumbent() const noexcept { return incumbent_.has_value(); }
  const ProbeStep& incumbent() const;

  /// The shared completion arithmetic bound to this problem.
  const CompletionModel& completion() const noexcept { return completion_; }

  /// Projected hours to finish training at a probed point, from its
  /// measured speed.
  double projected_training_hours(const ProbeStep& step) const;
  /// Projected dollars to finish training at a probed point.
  double projected_training_cost(const ProbeStep& step) const;

  /// Bias-corrected completion projections for a low-fidelity step: the
  /// optimistically biased measured speed is divided back down by the
  /// fidelity's bias envelope before projecting, so the result is
  /// conservative. Identical to the uncorrected projections for
  /// full-fidelity steps (bias is exactly zero there).
  double corrected_projected_training_hours(const ProbeStep& step) const;
  double corrected_projected_training_cost(const ProbeStep& step) const;

  /// Cheapest way to finish training from any probed point so far:
  /// minimum projected training hours / dollars over feasible probes.
  /// +inf when nothing feasible has been probed.
  double min_completion_hours() const;
  double min_completion_cost() const;

  /// Protective reserve check (HeterBO §III-C "stop condition"):
  /// after spending `extra_hours` / `extra_cost` on one more probe,
  /// could we still finish training within the constraints from the
  /// best fallback probed so far? Always true for Scenario 1.
  ///
  /// When no probed point satisfies a constraint yet, that constraint
  /// does not veto further probes: a violation is already guaranteed,
  /// and exploring is the only way to find a compliant deployment.
  bool reserve_allows(double extra_hours, double extra_cost) const;

  /// Reserve check for probing `d` specifically, budgeted at the probe's
  /// *worst-case* spend (every retry fails, every backoff maxes out,
  /// stragglers stretch a fully extended window) — identical to the
  /// expected spend when no faults are injected. Anything less would let
  /// retry-inflated probes eat the training reserve and break the
  /// constraint guarantee. Shared by HeterBO's reserve filter and the
  /// budget-aware BO-loop variants.
  bool reserve_allows_probe(const cloud::Deployment& d) const;
  /// Same reserve check budgeted at the worst-case spend of a probe at
  /// `fidelity` (cheaper than full for reduced rungs — this is precisely
  /// how low-fidelity sweeps stretch the exploration budget without
  /// weakening the worst-case guarantee).
  bool reserve_allows_probe(const cloud::Deployment& d,
                            const profiler::Fidelity& fidelity) const;

  /// Records one graceful-degradation episode (surrogate refit failed;
  /// the iteration ran in the prior-mean safe mode). Journaled unless
  /// the session is still replaying — a replayed iteration re-derives
  /// the same episode deterministically and must not duplicate it.
  void note_degraded(int iteration, const std::string& why);
  int degraded_iterations() const noexcept { return degraded_; }

  /// True while probes are still being served from journal replay.
  bool replaying() const noexcept { return profiler_.replay_pending(); }

  /// The problem's journal, or nullptr once a mid-run append failure
  /// degraded this session to journal-less operation. Drivers append
  /// through this accessor, never through the problem directly.
  journal::RecordSink* journal() const noexcept {
    return journal_degraded_ ? nullptr : problem_->journal;
  }

  /// Drops the session to journal-less operation after an append (or,
  /// under the degrade policy, creation) failure. In-memory search state
  /// is untouched — the run continues correctly, it just stops being
  /// crash-resumable — and the episode is surfaced in the final report.
  void degrade_journal(const std::string& why);
  bool journal_degraded() const noexcept { return journal_degraded_; }
  const std::string& journal_degrade_reason() const noexcept {
    return journal_degrade_reason_;
  }

  /// True when the chaos hook asks this iteration to degrade.
  bool chaos_degrade(int iteration) const {
    return problem_->chaos_degrade_hook &&
           problem_->chaos_degrade_hook(iteration);
  }

  // ------------------------------------------------------ lane migration

  /// "No driver bound": the session is parked, queued, or not yet
  /// scheduled.
  static constexpr std::uint32_t kNoDriver = 0xffffffffu;

  /// Binds the calling scheduler lane as this session's exclusive
  /// driver. Sessions have no hidden thread affinity — any lane may
  /// drive any session — but at most one lane at a time: the service
  /// scheduler binds before touching next()/observe() and releases
  /// before the session becomes visible to another lane (park, requeue,
  /// finish). The token turns a scheduler handoff bug (two lanes
  /// driving one session) into an immediate std::logic_error instead of
  /// a silent trace corruption. Solo drivers (Mlcd::deploy) never bind;
  /// an unbound session is simply owned by whoever holds its pointer.
  void bind_driver(std::uint32_t lane);

  /// Releases the binding. Throws std::logic_error when `lane` is not
  /// the bound driver (a double release or a foreign release — both
  /// scheduler bugs).
  void release_driver(std::uint32_t lane);

  /// The bound lane, or kNoDriver.
  std::uint32_t driver() const noexcept {
    return driver_.load(std::memory_order_acquire);
  }

 private:
  const perf::TrainingPerfModel* perf_;
  const SearchProblem* problem_;
  cloud::BillingMeter meter_;
  profiler::Profiler profiler_;
  util::Rng rng_;
  CompletionModel completion_;
  std::unique_ptr<SearchStrategy> strategy_;
  std::vector<ProbeStep> trace_;
  std::optional<ProbeRequest> pending_;
  bool finished_ = false;
  double cum_hours_ = 0.0;
  double cum_cost_ = 0.0;
  std::optional<std::size_t> incumbent_;
  int degraded_ = 0;
  bool journal_degraded_ = false;
  std::string journal_degrade_reason_;
  std::atomic<std::uint32_t> driver_{kNoDriver};
};

}  // namespace mlcd::search
