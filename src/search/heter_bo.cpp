#include "search/heter_bo.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <optional>
#include <span>
#include <stdexcept>
#include <utility>
#include <vector>

#include "bo/acquisition.hpp"
#include "search/bo_loop.hpp"
#include "stats/normal.hpp"
#include "util/logging.hpp"

namespace mlcd::search {
namespace {

/// HeterBO models each instance type's scale-out curve with its own 1-D
/// GP over the node count — exactly the "fit the probed points into a
/// concave-shape curve" view the paper's trajectory figures describe
/// (Figs. 9a, 15-17). A shared 2-D GP would let a slow type's
/// observations suppress the posterior of a fast neighbouring type (the
/// type axis is not a metric space); per-type curves cannot contaminate
/// each other. A type with no observation at all, real or warm-start,
/// falls back to the global 2-D surrogate, which is fitted only while
/// some scannable type is in that state.
///
/// The bank is persistent across BO iterations. The legacy code rebuilt
/// every surrogate from scratch each iteration; here a type's curve is
/// rebuilt only when that type received a new measurement (identical
/// data refits deterministically to the identical GP, so skipping
/// untouched types cannot change a trace), and mature curves extend
/// incrementally between scheduled retunes per
/// SearchProblem::gp_refit_every. Young types (< 4 real probes) always
/// rebuild: their data composition is still changing — warm-start
/// points drop out at two real probes and the hyperparameter MLE gate
/// opens at four.
class SurrogateBank {
 public:
  /// `scannable[t]`: type t can ever be a scan candidate (memory-feasible
  /// and not cost-excluded) — the only types predict() is asked about.
  SurrogateBank(const SearchSession& session,
                const bo::InputNormalizer& normalizer2d,
                const std::vector<WarmStartPoint>& warm_start,
                std::vector<bool> scannable, int refit_every)
      : warm_start_(&warm_start),
        scannable_(std::move(scannable)),
        refit_every_(refit_every),
        global_(normalizer2d, refit_every),
        types_(session.space().type_count()) {}

  /// Folds trace entries added since the last call into the per-type
  /// curves and, while some scannable type has no curve, the global
  /// surrogate.
  void update(const SearchSession& session) {
    const auto& trace = session.trace();
    std::vector<std::vector<std::size_t>> fresh(types_.size());
    for (std::size_t i = next_trace_index_; i < trace.size(); ++i) {
      if (!trace[i].failed) {
        fresh[trace[i].deployment.type_index].push_back(i);
      }
    }
    next_trace_index_ = trace.size();
    for (std::size_t t = 0; t < types_.size(); ++t) {
      // The first pass builds every type (warm-start-only curves
      // included); later passes touch only types with new measurements.
      if (built_ && fresh[t].empty()) continue;
      TypeState& state = types_[t];
      const bool rebuild =
          !built_ || !state.gp.has_value() || refit_every_ == 1 ||
          state.real_obs < 4 ||
          (refit_every_ > 1 &&
           state.adds_since_build + static_cast<int>(fresh[t].size()) >=
               refit_every_);
      state.real_obs += fresh[t].size();
      if (rebuild) {
        rebuild_type(session, t);
        state.adds_since_build = 0;
        continue;
      }
      for (std::size_t i : fresh[t]) {
        const double n_unit =
            static_cast<double>(trace[i].deployment.nodes) /
            session.space().max_nodes(t);
        const double q[1] = {n_unit};
        state.gp->add_observation(
            q, log_objective(session, trace[i]),
            profiler::fidelity_noise_multiplier(
                session.problem().profiler_options, trace[i].fidelity));
      }
      state.adds_since_build += static_cast<int>(fresh[t].size());
    }
    built_ = true;
    // A curve, once built, is dropped only by invalidate(), which rebuilds
    // every type from the same (grown) data: real probes accumulate and
    // warm-start points are fixed. So the set of curve-less scannable
    // types only shrinks, and once it is empty predict() never reads the
    // global surrogate again, so skipping its refits from then on cannot
    // change a trace.
    global_ready_ = global_needed() && global_.update(session);
  }

  /// Drops every fitted curve and rewinds the trace cursor so the next
  /// update() rebuilds the whole bank from the full history. Called when
  /// a refit throws mid-update: some types may already hold new
  /// observations while others do not, and only a clean rebuild restores
  /// a consistent state.
  void invalidate() {
    for (TypeState& state : types_) {
      state.gp.reset();
      state.real_obs = 0;
      state.adds_since_build = 0;
    }
    global_.invalidate();
    global_ready_ = false;
    next_trace_index_ = 0;
    built_ = false;
  }

  /// Posterior for one candidate of a scannable type; `cache` is the
  /// candidate's own (see GpRegressor::predict_cached).
  gp::Prediction predict(const SearchSession& session,
                         const cloud::Deployment& d,
                         std::span<const double> unit2d,
                         gp::GpRegressor::PredictCache& cache) const {
    if (types_[d.type_index].gp) {
      const double n_unit =
          static_cast<double>(d.nodes) /
          session.space().max_nodes(d.type_index);
      const double q[1] = {n_unit};
      return types_[d.type_index].gp->predict_cached(q, cache);
    }
    if (global_ready_) {
      return global_.gp().predict_cached(unit2d, cache);
    }
    // Nothing measured and no carry-over for this type: wide prior.
    gp::Prediction p;
    p.mean = 0.0;
    p.variance = 4.0;
    return p;
  }

 private:
  struct TypeState {
    std::optional<gp::GpRegressor> gp;
    std::size_t real_obs = 0;  // non-failed probes incorporated so far
    int adds_since_build = 0;
  };

  bool global_needed() const {
    for (std::size_t t = 0; t < types_.size(); ++t) {
      if (scannable_[t] && !types_[t].gp) return true;
    }
    return false;
  }

  /// Legacy per-type construction, verbatim: real probes of the type
  /// from the full trace, warm-start fallback below two real points,
  /// MLE above four.
  void rebuild_type(const SearchSession& session, std::size_t t) {
    const cloud::DeploymentSpace& space = session.space();
    std::vector<double> xs;
    std::vector<double> ys;
    std::vector<double> ms;
    for (const ProbeStep& step : session.trace()) {
      if (step.deployment.type_index != t || step.failed) continue;
      xs.push_back(static_cast<double>(step.deployment.nodes) /
                   space.max_nodes(t));
      ys.push_back(log_objective(session, step));
      ms.push_back(profiler::fidelity_noise_multiplier(
          session.problem().profiler_options, step.fidelity));
    }
    // Warm-start pseudo-observations shape the surrogate of types the
    // new search has not measured yet. Once the type has two real
    // probes of its own, the carried-over points are dropped — they
    // describe a *similar* job, not this one.
    if (xs.size() < 2) {
      for (const WarmStartPoint& w : *warm_start_) {
        if (w.deployment.type_index != t || w.measured_speed <= 0.0 ||
            !space.contains(w.deployment)) {
          continue;
        }
        xs.push_back(static_cast<double>(w.deployment.nodes) /
                     space.max_nodes(t));
        ys.push_back(std::log(std::max(
            scenario_objective(session.scenario(), w.measured_speed,
                               space.hourly_price(w.deployment)),
            1e-9)));
        ms.push_back(1.0);  // warm-start points were full measurements
      }
    }
    // Even a single observation pins the type's level (with wide
    // bands); only unprobed types fall back to the global surrogate.
    if (xs.empty()) {
      types_[t].gp.reset();
      return;
    }
    linalg::Matrix design(xs.size(), 1);
    linalg::Vector targets(xs.size());
    linalg::Vector noise_mult(xs.size());
    for (std::size_t i = 0; i < xs.size(); ++i) {
      design(i, 0) = xs[i];
      targets[i] = ys[i];
      noise_mult[i] = ms[i];
    }
    gp::GpOptions options;
    options.noise_stddev = 0.05;
    options.optimize_hyperparameters = xs.size() >= 4;
    options.optimizer_restarts = 2;
    // The bank owns the retune cadence; add_observation() between
    // rebuilds must always take the incremental path.
    options.refit_every = 0;
    options.log_param_lower = {std::log(0.1), std::log(0.05),
                               std::log(1e-3)};
    options.log_param_upper = {std::log(3.0), std::log(0.45),
                               std::log(0.3)};
    auto kernel = std::make_unique<gp::Matern52Kernel>(1);
    kernel->set_lengthscale(0, 0.25);
    gp::GpRegressor fit(std::move(kernel), options);
    fit.fit(design, targets, noise_mult);
    types_[t].gp.emplace(std::move(fit));
  }

  const std::vector<WarmStartPoint>* warm_start_;
  std::vector<bool> scannable_;
  int refit_every_;
  TraceSurrogate global_;
  bool global_ready_ = false;
  std::vector<TypeState> types_;
  std::size_t next_trace_index_ = 0;
  bool built_ = false;
};

/// HeterBO's probe policy as an explicit state machine: two
/// initialization waves (one cursor each), then the cost-aware
/// acquisition loop. Each propose() emits exactly the probe the legacy
/// blocking loop would have issued at the same trace state — waves check
/// the reserve and outage clocks at decision time, which is identical to
/// the legacy order because the cursor advances once per executed probe.
class HeterBoStrategy final : public SearchStrategy {
 public:
  explicit HeterBoStrategy(const HeterBoOptions& options)
      : options_(options) {}

  std::optional<ProbeRequest> propose(SearchSession& session) override {
    if (phase_ == Phase::kBegin) begin(session);
    if (phase_ == Phase::kWave1) {
      if (std::optional<ProbeRequest> request = wave1_next(session)) {
        return request;
      }
      phase_ = Phase::kWave2;
    }
    if (phase_ == Phase::kWave2) {
      if (std::optional<ProbeRequest> request = wave2_next(session)) {
        return request;
      }
      if (session.trace().empty() && options_.warm_start.empty()) {
        MLCD_LOG(kWarn, "heterbo") << "no initial probe affordable";
        phase_ = Phase::kDone;
        return std::nullopt;
      }
      enter_loop(session);
    }
    if (phase_ == Phase::kLoop) {
      if (std::optional<ProbeRequest> request = loop_next(session)) {
        return request;
      }
      // With a fidelity ladder the loop explored cheaply; before
      // finishing, the best unconfirmed low-fidelity findings are
      // re-measured at full fidelity (nothing to confirm in a
      // ladder-free run — the phase proposes nothing and falls through).
      phase_ = Phase::kConfirm;
    }
    if (phase_ == Phase::kConfirm) {
      if (std::optional<ProbeRequest> request = confirm_next(session)) {
        return request;
      }
      phase_ = Phase::kDone;
    }
    return std::nullopt;
  }

 private:
  enum class Phase { kBegin, kWave1, kWave2, kLoop, kConfirm, kDone };

  bool reserve_ok(const SearchSession& session, const cloud::Deployment& d,
                  const profiler::Fidelity& fidelity = {}) const {
    // The reserve budgets each candidate at its *worst-case* spend at
    // the fidelity it would be probed at — see
    // SearchSession::reserve_allows_probe.
    if (!options_.protective_reserve) return true;
    return session.reserve_allows_probe(d, fidelity);
  }

  // A type under a capacity outage cannot be launched right now; it is
  // demoted until the profiling clock leaves the episode.
  static bool outaged(const SearchSession& session, std::size_t type_index) {
    return session.profiler().type_in_outage(type_index);
  }

  bool init_affordable(const SearchSession& session,
                       const cloud::Deployment& d) const {
    return session.profiler().expected_profile_cost(
               session.problem().config, d) <=
           options_.init_cost_ratio_cap * median_init_;
  }

  /// Per-type scale-out prune limit from the concavity prior:
  /// candidates of type t with nodes > limit[t] are skipped.
  std::vector<int> concavity_limits(const SearchSession& session) const {
    const std::size_t types = session.space().type_count();
    std::vector<int> limit(types, std::numeric_limits<int>::max());
    if (!options_.use_concavity_prior) return limit;

    for (std::size_t t = 0; t < types; ++t) {
      // Collect feasible probes of this type, ordered by node count.
      // Speeds are only comparable within one fidelity (a low rung's
      // optimism could fake a down-slope against a full neighbour), so
      // each point carries its fidelity and the decline test below only
      // fires between equal-fidelity neighbours.
      struct CurvePoint {
        int nodes;
        double speed;
        profiler::Fidelity fidelity;
      };
      std::vector<CurvePoint> points;
      for (const ProbeStep& step : session.trace()) {
        if (step.deployment.type_index == t && step.feasible) {
          points.push_back(
              {step.deployment.nodes, step.measured_speed, step.fidelity});
        }
      }
      std::stable_sort(points.begin(), points.end(),
                       [](const CurvePoint& a, const CurvePoint& b) {
                         return a.nodes < b.nodes;
                       });
      // Two neighbouring probed scale-outs with declining speed put us on
      // the concave curve's down-slope: prune everything beyond.
      for (std::size_t i = 1; i < points.size(); ++i) {
        if (points[i].fidelity == points[i - 1].fidelity &&
            points[i].speed < points[i - 1].speed) {
          limit[t] = points[i].nodes;
          break;
        }
      }
    }
    return limit;
  }

  /// Paper Eq. 5/6: constraint headroom if we probe `d` and then train
  /// at the EI-projected improved speed. Positive TEI = worth exploring.
  double true_expected_improvement(const SearchSession& session,
                                   const cloud::Deployment& d,
                                   double projected_speed) const {
    const Scenario& s = session.scenario();
    if (projected_speed <= 0.0) {
      return -std::numeric_limits<double>::infinity();
    }
    // Eqs. 5/6 price the nominal run — no restart multiplier.
    const double train_hours =
        session.completion().raw_training_hours(projected_speed);
    if (s.kind == ScenarioKind::kCheapestUnderDeadline) {
      // Eq. 5: T_max - T_profile - S / EI-projected speed.
      return s.deadline_hours - session.spent_hours() -
             session.profiler().expected_profile_hours(
                 session.problem().config, d) -
             train_hours;
    }
    if (s.kind == ScenarioKind::kFastestUnderBudget) {
      // Eq. 6: C_max - C_profile - (S / EI-projected speed) * P(m).
      return s.budget_dollars - session.spent_cost() -
             session.profiler().expected_profile_cost(
                 session.problem().config, d) -
             train_hours * session.space().hourly_price(d);
    }
    // Scenario 1 has no constraint; TEI degenerates to +inf headroom.
    return std::numeric_limits<double>::infinity();
  }

  void begin(SearchSession& session) {
    const cloud::DeploymentSpace& space = session.space();
    const Scenario& scenario = session.scenario();
    // Exploration fidelity: the ladder's cheapest rung when enabled,
    // Fidelity{} (full) otherwise — in which case every request below is
    // exactly the legacy full-fidelity probe.
    explore_ = session.problem().profiler_options.fidelity.exploration_rung();
    // The penalty currency is whatever the scenario actually pressures:
    // wall time under a deadline, dollars otherwise (profiling *time* is
    // nearly uniform across probes — the heterogeneity is monetary).
    time_penalty_ = scenario.kind == ScenarioKind::kCheapestUnderDeadline;

    const perf::TrainingConfig& config = session.problem().config;
    // --- Initialization: one probe per instance type at the smallest
    // scale that can hold the model at all (§III-C "Initial points" —
    // single node for everything except ZeRO-scale models, whose state
    // must be partitioned across a minimum number of nodes; that minimum
    // is static arithmetic, not something worth paying a doomed probe to
    // discover).
    min_feasible_.assign(space.type_count(), -1);
    for (std::size_t t = 0; t < space.type_count(); ++t) {
      for (int n = 1; n <= space.max_nodes(t); ++n) {
        if (session.perf().memory_feasible(config, {t, n})) {
          min_feasible_[t] = n;
          break;
        }
      }
    }
    // Types whose minimum viable cluster is disproportionately expensive
    // to probe are skipped during initialization (they stay reachable
    // through the acquisition later). "Disproportionate" is measured
    // against the median min-feasible probe cost across types.
    std::vector<double> init_costs;
    for (std::size_t t = 0; t < space.type_count(); ++t) {
      if (min_feasible_[t] < 0) continue;
      init_costs.push_back(session.profiler().expected_profile_cost(
          config, {t, min_feasible_[t]}));
    }
    median_init_ = 0.0;
    if (!init_costs.empty()) {
      std::sort(init_costs.begin(), init_costs.end());
      median_init_ = init_costs[init_costs.size() / 2];
    }
    // A type whose *minimum viable* probe already breaks the cap can
    // never be examined cheaply; in the spirit of §III-C ("judiciously
    // limit the search in a small range") it is excluded from the search
    // outright rather than left to soak up the exploration allowance
    // later.
    excluded_.assign(space.type_count(), false);
    for (std::size_t t = 0; t < space.type_count(); ++t) {
      if (min_feasible_[t] < 0) continue;
      const cloud::Deployment d{t, min_feasible_[t]};
      if (!init_affordable(session, d)) {
        excluded_[t] = true;
        MLCD_LOG(kInfo, "heterbo")
            << "excluding " << space.catalog().at(t).name
            << ": its smallest viable probe costs "
            << session.profiler().expected_profile_cost(config, d)
            << " (cap " << options_.init_cost_ratio_cap * median_init_
            << ")";
      }
    }
    // Warm-start coverage: a type with at least two carried-over points
    // already has a usable curve estimate, so its mandatory init/curve
    // probes are skipped (the acquisition re-measures where it matters).
    warm_points_.assign(space.type_count(), 0);
    for (const WarmStartPoint& w : options_.warm_start) {
      if (w.deployment.type_index < warm_points_.size() &&
          space.contains(w.deployment) && w.measured_speed > 0.0) {
        ++warm_points_[w.deployment.type_index];
      }
    }
    phase_ = Phase::kWave1;
  }

  std::optional<ProbeRequest> wave1_next(SearchSession& session) {
    const cloud::DeploymentSpace& space = session.space();
    while (wave1_t_ < space.type_count()) {
      const std::size_t t = wave1_t_;
      if (min_feasible_[t] < 0 || excluded_[t] || warm_points_[t] >= 2 ||
          outaged(session, t)) {
        ++wave1_t_;
        continue;
      }
      if (static_cast<int>(session.trace().size()) >= options_.max_probes) {
        wave1_t_ = space.type_count();
        break;
      }
      ++wave1_t_;
      const cloud::Deployment d{t, min_feasible_[t]};
      if (reserve_ok(session, d, explore_)) {
        return ProbeRequest{d, 0.0, "init", explore_};
      }
    }
    return std::nullopt;
  }

  // Second wave: one small-scale probe per type so the surrogate sees
  // each type's scaling *slope*, not just its intercept — without this,
  // a type whose single node is slow but which scales steeply (the
  // typical winner) can be starved by the cost-aware acquisition and the
  // search stops early. This mirrors the paper's observed traces
  // (Figs. 15-17, steps 4-6: one small/mid probe per panel). A
  // single-type space gets its curve point at mid-range instead
  // (Fig. 9a's second initial point before the "third in between").
  std::optional<ProbeRequest> wave2_next(SearchSession& session) {
    const cloud::DeploymentSpace& space = session.space();
    while (wave2_t_ < space.type_count()) {
      const std::size_t t = wave2_t_;
      if (min_feasible_[t] < 0 || excluded_[t] || warm_points_[t] >= 2 ||
          outaged(session, t)) {
        ++wave2_t_;
        continue;
      }
      if (static_cast<int>(session.trace().size()) >= options_.max_probes) {
        wave2_t_ = space.type_count();
        break;
      }
      ++wave2_t_;
      int curve_n = space.type_count() == 1
                        ? (1 + space.max_nodes(t)) / 2
                        : std::min(space.max_nodes(t),
                                   std::max(3, space.max_nodes(t) / 6));
      curve_n = std::max(curve_n, std::min(space.max_nodes(t),
                                           min_feasible_[t] + 2));
      const cloud::Deployment d{t, curve_n};
      // The single-type midpoint is exempt from the cost cap: it is the
      // only way to seed the curve fit when there is just one type.
      const bool affordable =
          space.type_count() == 1 || init_affordable(session, d);
      if (curve_n > min_feasible_[t] &&
          !session.already_probed(d, explore_) &&
          reserve_ok(session, d, explore_) && affordable) {
        return ProbeRequest{d, 0.0, "curve", explore_};
      }
    }
    return std::nullopt;
  }

  void enter_loop(SearchSession& session) {
    const cloud::DeploymentSpace& space = session.space();
    const Scenario& scenario = session.scenario();
    // EI-based stopping is allowed only after the surrogate has seen a
    // few exploratory probes beyond initialization; the confidence-
    // interval stop, which trusts the GP's error bars, waits a little
    // longer still (young GPs are routinely overconfident about
    // unexplored regions).
    const int init_count = static_cast<int>(session.trace().size());
    min_probes_ = init_count + 4;
    min_probes_ci_ = init_count + 6;

    normalizer_.emplace(make_space_normalizer(space));
    z_ = stats::normal_quantile(0.5 + options_.ci_confidence / 2.0);
    all_ = space.enumerate();

    // A warm-started search should not chase "improvements" below what
    // the previous run already achieved: the best carried-over
    // observation seeds the EI baseline until real probes take over.
    warm_floor_ = -std::numeric_limits<double>::infinity();
    for (const WarmStartPoint& w : options_.warm_start) {
      if (w.measured_speed <= 0.0 || !space.contains(w.deployment)) continue;
      warm_floor_ = std::max(
          warm_floor_,
          std::log(std::max(
              scenario_objective(scenario, w.measured_speed,
                                 space.hourly_price(w.deployment)),
              1e-9)));
    }

    // Candidate geometry and the surrogate bank persist across
    // iterations: 2-D coordinates are normalized once, per-candidate
    // PredictCaches make repeated scans O(n) per candidate, and GPs are
    // rebuilt/extended per the SearchProblem::gp_refit_every cadence.
    const std::size_t m = all_.size();
    unit2d_.resize(m);
    for (std::size_t i = 0; i < m; ++i) {
      unit2d_[i] = normalizer_->normalize(deployment_coords(all_[i]));
    }
    caches_.resize(m);
    std::vector<bool> scannable(space.type_count());
    for (std::size_t t = 0; t < scannable.size(); ++t) {
      scannable[t] = min_feasible_[t] >= 0 && !excluded_[t];
    }
    surrogates_ = std::make_unique<SurrogateBank>(
        session, *normalizer_, options_.warm_start, std::move(scannable),
        session.problem().gp_refit_every);
    phase_ = Phase::kLoop;
  }

  std::optional<ProbeRequest> loop_next(SearchSession& session) {
    // Ladder runs reserve a slice of the probe budget for the
    // confirmation stage: low-fidelity observations never become the
    // incumbent, so a loop that spent the whole budget exploring would
    // end holding nothing but optimistically-biased hypotheses.
    const int confirm_reserve =
        explore_.is_full()
            ? 0
            : std::min(3, std::max(1, options_.max_probes / 8));
    if (static_cast<int>(session.trace().size()) >=
        options_.max_probes - confirm_reserve) {
      return std::nullopt;
    }
    const cloud::DeploymentSpace& space = session.space();
    const Scenario& scenario = session.scenario();
    const perf::TrainingConfig& config = session.problem().config;
    ++iteration_;
    const std::vector<int> prune = concavity_limits(session);

    // Graceful degradation: a failed bank refit (non-PSD covariance, NaN
    // likelihood, diverged MLE) demotes this iteration to a surrogate-
    // free safe mode — the cheapest affordable unprobed candidate that
    // passes every hard filter — instead of aborting the search. The
    // bank rebuilds from the full trace on the next iteration, which
    // re-promotes the loop as soon as a refit succeeds again.
    bool degraded = session.chaos_degrade(iteration_);
    std::string why = degraded ? "chaos degrade hook" : "";
    if (!degraded) {
      try {
        surrogates_->update(session);
      } catch (const std::runtime_error& e) {
        degraded = true;
        why = e.what();
      }
    }
    if (degraded) {
      session.note_degraded(iteration_, why);
      surrogates_->invalidate();
      auto safe_allowed = [&](const cloud::Deployment& d) {
        return d.nodes <= prune[d.type_index] &&
               min_feasible_[d.type_index] >= 0 &&
               !excluded_[d.type_index] &&
               d.nodes >= min_feasible_[d.type_index] &&
               !outaged(session, d.type_index) &&
               reserve_ok(session, d, explore_);
      };
      const cloud::Deployment* fallback =
          degraded_fallback(session, all_, safe_allowed);
      if (fallback == nullptr) return std::nullopt;
      return ProbeRequest{*fallback, 0.0, "degraded", explore_};
    }

    // EI baseline: the incumbent's log objective. (Using only
    // constraint-compliant probes as the baseline is tempting but
    // unstable: as profiling spend grows the compliant set shrinks, the
    // baseline falls, and EI re-inflates — a feedback loop that
    // encourages more spending. The reserve filter plus the constraint-
    // aware final pick already deliver the compliance guarantee.)
    double best = std::log(1e-9);
    if (session.has_incumbent()) {
      best = log_objective(session, session.incumbent());
    } else if (!explore_.is_full()) {
      // A ladder run has no full-fidelity incumbent during the loop, so
      // baseline EI on the best de-biased low-fidelity observation
      // instead — otherwise EI never decays and the stopping rules
      // cannot engage.
      for (const ProbeStep& step : session.trace()) {
        if (step.failed || !step.feasible) continue;
        best = std::max(best, log_objective(session, step));
      }
    }
    best = std::max(best, warm_floor_);

    const cloud::Deployment* chosen = nullptr;
    double chosen_score = -std::numeric_limits<double>::infinity();
    double chosen_projected_speed = 0.0;
    double ei_max = 0.0;
    double ucb_max = -std::numeric_limits<double>::infinity();
    std::size_t affordable = 0;

    // One pass in candidate order: filters, posterior, acquisition
    // score, the ei/ucb maxima and the first-max argmax.
    const std::size_t m = all_.size();
    for (std::size_t i = 0; i < m; ++i) {
      const cloud::Deployment& d = all_[i];
      if (d.nodes > prune[d.type_index]) continue;  // concavity prior
      // Static memory check: never pay for a probe that arithmetic
      // already proves cannot run; cost-excluded types stay out too.
      if (min_feasible_[d.type_index] < 0 || excluded_[d.type_index] ||
          d.nodes < min_feasible_[d.type_index]) {
        continue;
      }
      // Skip points already measured at the exploration fidelity *or*
      // already confirmed at full fidelity (identical checks when the
      // ladder is disabled).
      if (session.already_probed(d) || session.already_probed(d, explore_)) {
        continue;
      }
      if (outaged(session, d.type_index)) continue;     // outage: demoted
      if (!reserve_ok(session, d, explore_)) continue;  // reserve
      ++affordable;

      const gp::Prediction p =
          surrogates_->predict(session, d, unit2d_[i], caches_[i]);
      const double ei_value = ei_.score(p, best);
      const double ucb_value = p.mean + z_ * p.stddev();
      ei_max = std::max(ei_max, ei_value);
      ucb_max = std::max(ucb_max, ucb_value);

      // Heterogeneous-cost penalty (Eqs. 7/8): improvement per unit
      // of what the scenario actually constrains.
      // The penalty is the spend of the probe as it would actually run
      // — at the exploration fidelity when the ladder is enabled.
      double penalty =
          time_penalty_
              ? session.profiler().expected_profile_hours(config, d,
                                                          explore_)
              : session.profiler().expected_profile_cost(config, d,
                                                         explore_);
      penalty = std::max(penalty, 1e-9);
      const double score =
          options_.cost_aware_acquisition
              ? ei_value / std::pow(penalty, options_.cost_penalty_exponent)
              : ei_value;
      if (score > chosen_score) {
        chosen_score = score;
        chosen = &d;
        // Projected speed if this candidate realizes its expected
        // improvement (used for the TEI bookkeeping below). The
        // surrogate lives in log space, so the projection exponentiates
        // back.
        const double projected_objective = std::exp(best + ei_value);
        chosen_projected_speed =
            scenario.kind == ScenarioKind::kCheapestUnderDeadline
                ? projected_objective * space.hourly_price(d)
                : projected_objective;
      }
    }

    if (chosen == nullptr) {
      MLCD_LOG(kDebug, "heterbo")
          << "stop: reserve/prior left no candidate (" << affordable
          << " affordable)";
      return std::nullopt;
    }
    const int probes_done = static_cast<int>(session.trace().size());
    if (probes_done >= min_probes_ &&
        ei_max < options_.ei_stop_improvement) {
      MLCD_LOG(kDebug, "heterbo") << "stop: EI " << ei_max
                                  << " below threshold";
      return std::nullopt;
    }
    if (probes_done >= min_probes_ci_ && session.has_incumbent() &&
        ucb_max <= best) {
      MLCD_LOG(kDebug, "heterbo")
          << "stop: no candidate plausibly improves at "
          << options_.ci_confidence << " confidence";
      return std::nullopt;
    }

    // TEI (Eqs. 5/6) is recorded for diagnostics: the constraint
    // headroom assuming the chosen probe realizes its expected
    // improvement. The hard guarantee itself comes from the reserve
    // filter above, which is immune to early GP pessimism (a tiny EI
    // would make TEI negative for every far-from-probed candidate long
    // before the surrogate has seen the curve).
    const double tei = true_expected_improvement(session, *chosen,
                                                 chosen_projected_speed);
    MLCD_LOG(kTrace, "heterbo") << "probe TEI headroom " << tei;
    return ProbeRequest{*chosen, chosen_score, "tei", explore_};
  }

  /// Confirmation stage (ladder runs only): the loop's low-fidelity
  /// observations are hypotheses, not answers — their speeds carry a
  /// known optimistic bias and never become the incumbent. Re-measure
  /// the most promising unconfirmed ones at full fidelity, best first,
  /// until none could beat the incumbent even after bias correction.
  std::optional<ProbeRequest> confirm_next(SearchSession& session) {
    if (explore_.is_full()) return std::nullopt;  // ladder disabled
    if (static_cast<int>(session.trace().size()) >= options_.max_probes) {
      return std::nullopt;
    }
    const double incumbent_objective =
        session.has_incumbent()
            ? session.objective_of(session.incumbent())
            : 0.0;
    const profiler::ProfilerOptions& popts =
        session.problem().profiler_options;
    const Scenario& scenario = session.scenario();
    const perf::TrainingConfig& config = session.problem().config;
    // Only compliant candidates are worth confirming: the compliance
    // check charges the confirm probe's own expected full-fidelity
    // spend up front, so a hypothesis whose completion no longer fits
    // *after* paying for its confirmation is skipped rather than
    // confirmed into a stranded measurement. When nothing is compliant
    // and no incumbent exists, the least-violating candidate (the one
    // finalize would fall back to) is confirmed instead, so even a
    // doomed-to-violate run ends with one trustworthy measurement.
    const ProbeStep* best_step = nullptr;
    double best_corrected = incumbent_objective;
    const ProbeStep* fallback_step = nullptr;
    double fallback_penalty = -std::numeric_limits<double>::infinity();
    for (const ProbeStep& step : session.trace()) {
      if (step.failed || !step.feasible || step.fidelity.is_full()) continue;
      // Already attempted at full fidelity — confirmed, independently
      // measured, or failed (a failed confirm is not retried: each
      // deployment gets at most one confirmation attempt, which bounds
      // this stage).
      bool attempted_full = false;
      for (const ProbeStep& other : session.trace()) {
        if (other.deployment == step.deployment &&
            other.fidelity.is_full()) {
          attempted_full = true;
          break;
        }
      }
      if (attempted_full) continue;
      if (outaged(session, step.deployment.type_index)) continue;
      if (!reserve_ok(session, step.deployment)) continue;  // full-cost
      const double h = session.corrected_projected_training_hours(step);
      const double c = session.corrected_projected_training_cost(step);
      const double probe_h = session.profiler().expected_profile_hours(
          config, step.deployment);
      const double probe_c = session.profiler().expected_profile_cost(
          config, step.deployment);
      const bool compliant =
          (!scenario.has_deadline() ||
           session.spent_hours() + probe_h + h <= scenario.deadline_hours) &&
          (!scenario.has_budget() ||
           session.spent_cost() + probe_c + c <= scenario.budget_dollars);
      const double bias = profiler::fidelity_speed_bias(popts, step.fidelity);
      const double corrected = session.objective_of(step) / (1.0 + bias);
      if (compliant) {
        // Never confirm what cannot beat the incumbent even after the
        // optimistic bias is corrected away.
        if (corrected > best_corrected) {
          best_corrected = corrected;
          best_step = &step;
        }
      } else if (!session.has_incumbent()) {
        const double penalty = scenario.has_budget() ? -(probe_c + c)
                                                     : -(probe_h + h);
        if (penalty > fallback_penalty) {
          fallback_penalty = penalty;
          fallback_step = &step;
        }
      }
    }
    const ProbeStep* chosen =
        best_step != nullptr
            ? best_step
            : (session.has_incumbent() ? nullptr : fallback_step);
    if (chosen == nullptr) return std::nullopt;
    return ProbeRequest{chosen->deployment, 0.0, "confirm",
                        profiler::Fidelity{}};
  }

  HeterBoOptions options_;
  Phase phase_ = Phase::kBegin;

  // --- begin() products
  bool time_penalty_ = false;
  profiler::Fidelity explore_;  // full when the ladder is disabled
  std::vector<int> min_feasible_;
  double median_init_ = 0.0;
  std::vector<bool> excluded_;
  std::vector<int> warm_points_;

  // --- wave cursors
  std::size_t wave1_t_ = 0;
  std::size_t wave2_t_ = 0;

  // --- enter_loop() products
  int min_probes_ = 0;
  int min_probes_ci_ = 0;
  std::optional<bo::InputNormalizer> normalizer_;
  bo::ExpectedImprovement ei_;
  double z_ = 0.0;
  std::vector<cloud::Deployment> all_;
  double warm_floor_ = -std::numeric_limits<double>::infinity();
  std::vector<std::vector<double>> unit2d_;
  std::vector<gp::GpRegressor::PredictCache> caches_;
  std::unique_ptr<SurrogateBank> surrogates_;
  int iteration_ = 0;
};

}  // namespace

std::vector<WarmStartPoint> warm_start_points(const SearchResult& result) {
  std::vector<WarmStartPoint> points;
  for (const ProbeStep& step : result.trace) {
    if (step.feasible && step.measured_speed > 0.0) {
      points.push_back(WarmStartPoint{step.deployment, step.measured_speed});
    }
  }
  return points;
}

HeterBoSearcher::HeterBoSearcher(const perf::TrainingPerfModel& perf,
                                 HeterBoOptions options)
    : Searcher(perf, IncumbentPolicy::kConstraintAware), options_(options) {
  if (options_.max_probes < 2 || options_.ei_stop_improvement < 0.0 ||
      !(options_.ci_confidence > 0.0 && options_.ci_confidence < 1.0)) {
    throw std::invalid_argument("HeterBoSearcher: invalid options");
  }
}

std::unique_ptr<SearchStrategy> HeterBoSearcher::make_strategy(
    const SearchProblem& /*problem*/) const {
  return std::make_unique<HeterBoStrategy>(options_);
}

}  // namespace mlcd::search
