// Shared conventional-BO probe strategy.
//
// ConvBO, CherryPick and their budget-aware "improved" variants
// (Fig. 18) all run the same machinery — random initialization, a
// Matérn-5/2 GP surrogate over the normalized (type, nodes) plane, and
// EI-maximizing probe selection with a relative-EI stop rule — differing
// only in the candidate set and a few thresholds. BoLoopStrategy
// implements that machinery once, as an explicit ask/tell state machine
// on top of SearchSession (phase + cursor instead of the legacy blocking
// loop; one proposal per executed probe).
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "bo/acquisition.hpp"
#include "bo/normalizer.hpp"
#include "cloud/deployment.hpp"
#include "gp/gp_regressor.hpp"
#include "search/search_session.hpp"

namespace mlcd::search {

struct BoLoopOptions {
  /// Acquisition function: "ei" (default; the paper's and CherryPick's
  /// choice), "ucb", or "poi" (§II-D surveys all three). The stop rule
  /// adapts: for EI/UCB it is the maximum expected/plausible improvement
  /// in log-objective units; for POI it is the maximum improvement
  /// probability.
  std::string acquisition = "ei";
  /// Random initial probes before the GP drives selection.
  int init_points = 3;
  /// No EI-based stopping before this many total probes. ConvBO's high
  /// floor reproduces the "over exploration" the paper criticizes
  /// (Figs. 2, 5): most of these steps bring no improvement yet are paid
  /// for at full heterogeneous cost.
  int min_probes = 16;
  /// Hard probe cap.
  int max_probes = 28;
  /// Stop when the maximum expected improvement falls below this many
  /// log-objective units, i.e. when no candidate promises more than
  /// roughly this multiplicative gain (CherryPick's published rule is
  /// 10% -> 0.10; plain ConvBO keeps digging until ~0.5%).
  double ei_stop_improvement = 0.01;
  /// When true, apply the protective reserve filter before every probe —
  /// this is what turns ConvBO/CherryPick into BO_imprd/CP_imprd.
  bool budget_aware = false;
};

/// Normalizer spanning a deployment space's (type, nodes) plane.
bo::InputNormalizer make_space_normalizer(const cloud::DeploymentSpace& space);

/// Deployment coordinates as a raw input vector {type_index, nodes}.
std::vector<double> deployment_coords(const cloud::Deployment& d);

/// Log-space target of a probe: log(max(objective, floor)). All BO
/// surrogates in this repo model the *logarithm* of the scenario
/// objective — speeds span orders of magnitude across the deployment
/// plane and the type x nodes interaction is multiplicative, which a
/// log-additive GP captures where a raw-space ARD kernel cannot.
double log_objective(const SearchSession& session, const ProbeStep& step);

/// Fits a Matérn-5/2 GP to a session's probe history on log-objective
/// targets. Requires a non-empty trace. The returned regressor has its
/// internal refit schedule disabled (GpOptions::refit_every = 0): the
/// search loops own the retune policy via TraceSurrogate, so direct
/// add_observation() calls extend it incrementally with frozen
/// hyperparameters.
gp::GpRegressor fit_gp_on_trace(const SearchSession& session,
                                const bo::InputNormalizer& normalizer);

/// Persistent 2-D surrogate over a session's probe history. Legacy
/// searchers called fit_gp_on_trace() — a fresh O(n³) build plus a full
/// hyperparameter MLE — on every iteration; this wrapper keeps one
/// regressor alive across iterations, folds new probes in with O(n²)
/// incremental updates, and rebuilds from scratch only on the
/// SearchProblem::gp_refit_every cadence. At refit_every = 1 every new
/// usable probe triggers a rebuild, which makes the surrogate — and
/// therefore every probe trace — identical to the legacy per-iteration
/// refit (rebuilding from unchanged data is deterministic, so skipping
/// the no-new-data rebuilds changes nothing).
class TraceSurrogate {
 public:
  /// `refit_every`: SearchProblem::gp_refit_every semantics (1 = rebuild
  /// on every usable probe, k > 1 = rebuild every k-th, <= 0 = never
  /// after the first build).
  TraceSurrogate(const bo::InputNormalizer& normalizer, int refit_every);

  /// Folds trace entries added since the last call into the surrogate.
  /// Returns true when a fitted GP is available (at least one usable
  /// probe exists).
  bool update(const SearchSession& session);

  /// The live regressor. Throws std::logic_error when update() has not
  /// yet seen a usable probe.
  const gp::GpRegressor& gp() const;

  /// Drops the fitted regressor and rewinds the trace cursor so the next
  /// update() rebuilds from the full history. Called when a refit fails
  /// (graceful degradation): the stale GP may be inconsistent with the
  /// staged observations, so nothing short of a clean rebuild is safe.
  void invalidate();

 private:
  const bo::InputNormalizer* normalizer_;
  int refit_every_;
  std::optional<gp::GpRegressor> gp_;
  std::size_t next_trace_index_ = 0;
  int adds_since_build_ = 0;
};

/// Safe-mode probe selection for a degraded (surrogate-less) iteration:
/// the cheapest-to-profile candidate passing `allowed` that has not been
/// probed yet — a CherryPick-style prior-mean choice that spends as
/// little of the reserve as possible while still making progress.
/// Returns nullptr when no candidate qualifies (the loop should stop).
const cloud::Deployment* degraded_fallback(
    const SearchSession& session,
    const std::vector<cloud::Deployment>& candidates,
    const std::function<bool(const cloud::Deployment&)>& allowed);

/// The shared BO loop as a resumable strategy. The candidate set is
/// produced lazily at the first proposal (it needs the session's
/// deployment space); option validation also happens there, so a
/// misconfigured loop throws on the first next(), exactly where the
/// legacy blocking call threw.
class BoLoopStrategy final : public SearchStrategy {
 public:
  using CandidateFn =
      std::function<std::vector<cloud::Deployment>(SearchSession&)>;

  BoLoopStrategy(BoLoopOptions options, CandidateFn candidates);

  std::optional<ProbeRequest> propose(SearchSession& session) override;

 private:
  enum class Phase { kBegin, kInit, kLoop, kDone };

  void begin(SearchSession& session);
  std::optional<ProbeRequest> init_next(SearchSession& session);
  void enter_loop(SearchSession& session);
  std::optional<ProbeRequest> loop_next(SearchSession& session);
  bool probe_allowed(const SearchSession& session,
                     const cloud::Deployment& d) const;

  BoLoopOptions options_;
  CandidateFn make_candidates_;
  Phase phase_ = Phase::kBegin;

  // --- init state
  std::vector<cloud::Deployment> candidates_;
  std::vector<cloud::Deployment> pool_;  // shuffled candidates
  std::size_t init_cursor_ = 0;
  int init_probes_ = 0;

  // --- loop state (built by enter_loop)
  std::optional<bo::InputNormalizer> normalizer_;
  std::unique_ptr<bo::AcquisitionFunction> acquisition_;
  bool ucb_ = false;
  std::vector<std::vector<double>> unit_coords_;
  std::vector<gp::GpRegressor::PredictCache> caches_;
  std::optional<TraceSurrogate> surrogate_;
  std::vector<gp::Prediction> predictions_;
  std::vector<double> scores_;
  std::vector<char> probed_;
  int iteration_ = 0;
};

}  // namespace mlcd::search
