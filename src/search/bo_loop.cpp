#include "search/bo_loop.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <stdexcept>
#include <utility>

#include "util/logging.hpp"

namespace mlcd::search {

bo::InputNormalizer make_space_normalizer(
    const cloud::DeploymentSpace& space) {
  int max_nodes = 1;
  for (std::size_t t = 0; t < space.type_count(); ++t) {
    max_nodes = std::max(max_nodes, space.max_nodes(t));
  }
  return bo::InputNormalizer(
      {0.0, 1.0},
      {static_cast<double>(space.type_count() - 1),
       static_cast<double>(max_nodes)});
}

std::vector<double> deployment_coords(const cloud::Deployment& d) {
  return {static_cast<double>(d.type_index), static_cast<double>(d.nodes)};
}

double log_objective(const SearchSession& session,
                     const ProbeStep& step) {
  // Floor keeps infeasible probes (objective 0) representable: they land
  // far below any real measurement, which is exactly the signal we want
  // the surrogate to carry.
  constexpr double kFloor = 1e-9;
  const double raw = std::log(std::max(session.objective_of(step), kFloor));
  if (step.fidelity.is_full()) return raw;
  // Low-fidelity measurements are optimistically biased by a known
  // envelope (TrimTuner's sub-sampling effect); subtracting log1p(bias)
  // centers them on the full-fidelity surface so the surrogate can mix
  // fidelities without inheriting the optimism.
  return raw - std::log1p(profiler::fidelity_speed_bias(
                   session.problem().profiler_options, step.fidelity));
}

gp::GpRegressor fit_gp_on_trace(const SearchSession& session,
                                const bo::InputNormalizer& normalizer) {
  const auto& trace = session.trace();
  if (trace.empty()) {
    throw std::invalid_argument("fit_gp_on_trace: empty trace");
  }
  // Failed probes carry no measurement (unlike infeasible ones, whose
  // floor value is real information) and are excluded.
  std::vector<const ProbeStep*> usable;
  usable.reserve(trace.size());
  for (const ProbeStep& step : trace) {
    if (!step.failed) usable.push_back(&step);
  }
  if (usable.empty()) {
    throw std::invalid_argument("fit_gp_on_trace: no usable probes");
  }
  linalg::Matrix x(usable.size(), 2);
  linalg::Vector y(usable.size());
  linalg::Vector noise_mult(usable.size());
  for (std::size_t i = 0; i < usable.size(); ++i) {
    const std::vector<double> unit =
        normalizer.normalize(deployment_coords(usable[i]->deployment));
    x(i, 0) = unit[0];
    x(i, 1) = unit[1];
    y[i] = log_objective(session, *usable[i]);
    // Exactly 1.0 for full-fidelity probes, so a ladder-free trace fits
    // through the bit-exact homoscedastic path.
    noise_mult[i] = profiler::fidelity_noise_multiplier(
        session.problem().profiler_options, usable[i]->fidelity);
  }
  gp::GpOptions options;
  options.noise_stddev = 0.05;
  options.optimize_hyperparameters = trace.size() >= 4;
  options.optimizer_restarts = 2;
  // The search loop owns the retune cadence (TraceSurrogate); direct
  // add_observation() calls must always take the incremental path.
  options.refit_every = 0;
  // MLE bounds (log space) over [signal, l_type, l_nodes, noise]: the
  // node-axis lengthscale is capped well below the domain width so the
  // surrogate never becomes confidently flat across unexplored scale-out
  // ranges from a handful of clustered probes.
  options.log_param_lower = {std::log(0.1), std::log(0.08), std::log(0.05),
                             std::log(1e-3)};
  options.log_param_upper = {std::log(3.0), std::log(1.0), std::log(0.45),
                             std::log(0.3)};
  auto kernel = std::make_unique<gp::Matern52Kernel>(2);
  // Initial lengthscales in normalized coordinates: performance surfaces
  // vary substantially across a quarter of the type axis / node axis.
  // These seed the MLE (and stand alone for tiny traces, where a unit
  // lengthscale would make the surrogate overconfident between two
  // far-apart observations).
  kernel->set_lengthscale(0, 0.30);
  kernel->set_lengthscale(1, 0.25);
  gp::GpRegressor gp(std::move(kernel), options);
  gp.fit(x, y, noise_mult);
  return gp;
}

TraceSurrogate::TraceSurrogate(const bo::InputNormalizer& normalizer,
                               int refit_every)
    : normalizer_(&normalizer), refit_every_(refit_every) {}

bool TraceSurrogate::update(const SearchSession& session) {
  const auto& trace = session.trace();
  // Stage the new usable probes, then decide once whether the batch
  // lands incrementally or triggers a scheduled rebuild.
  std::vector<std::size_t> fresh;
  for (std::size_t i = next_trace_index_; i < trace.size(); ++i) {
    if (!trace[i].failed) fresh.push_back(i);
  }
  next_trace_index_ = trace.size();
  if (fresh.empty()) return gp_.has_value();

  const bool rebuild =
      !gp_.has_value() || refit_every_ == 1 ||
      (refit_every_ > 1 &&
       adds_since_build_ + static_cast<int>(fresh.size()) >= refit_every_);
  if (rebuild) {
    gp_.emplace(fit_gp_on_trace(session, *normalizer_));
    adds_since_build_ = 0;
    return true;
  }
  for (std::size_t i : fresh) {
    gp_->add_observation(
        normalizer_->normalize(deployment_coords(trace[i].deployment)),
        log_objective(session, trace[i]),
        profiler::fidelity_noise_multiplier(
            session.problem().profiler_options, trace[i].fidelity));
  }
  adds_since_build_ += static_cast<int>(fresh.size());
  return true;
}

const gp::GpRegressor& TraceSurrogate::gp() const {
  if (!gp_) {
    throw std::logic_error("TraceSurrogate: no usable probe seen yet");
  }
  return *gp_;
}

void TraceSurrogate::invalidate() {
  gp_.reset();
  next_trace_index_ = 0;
  adds_since_build_ = 0;
}

const cloud::Deployment* degraded_fallback(
    const SearchSession& session,
    const std::vector<cloud::Deployment>& candidates,
    const std::function<bool(const cloud::Deployment&)>& allowed) {
  const perf::TrainingConfig& config = session.problem().config;
  const cloud::Deployment* best = nullptr;
  double best_cost = std::numeric_limits<double>::infinity();
  for (const cloud::Deployment& d : candidates) {
    if (session.already_probed(d)) continue;
    if (allowed && !allowed(d)) continue;
    const double cost = session.profiler().expected_profile_cost(config, d);
    if (cost < best_cost) {
      best_cost = cost;
      best = &d;
    }
  }
  return best;
}

BoLoopStrategy::BoLoopStrategy(BoLoopOptions options, CandidateFn candidates)
    : options_(std::move(options)), make_candidates_(std::move(candidates)) {}

bool BoLoopStrategy::probe_allowed(const SearchSession& session,
                                   const cloud::Deployment& d) const {
  // Budget-aware variants reserve at the worst-case probe spend (retries
  // + capped backoff + straggler stretch); equal to the expected spend
  // when no faults are injected. Types under a capacity outage are
  // demoted for as long as the episode lasts.
  if (session.profiler().type_in_outage(d.type_index)) return false;
  if (!options_.budget_aware) return true;
  return session.reserve_allows_probe(d);
}

void BoLoopStrategy::begin(SearchSession& session) {
  candidates_ = make_candidates_(session);
  if (candidates_.empty()) {
    throw std::invalid_argument("bo loop: no candidates");
  }
  if (options_.init_points < 1 || options_.max_probes < options_.init_points) {
    throw std::invalid_argument("bo loop: inconsistent probe counts");
  }
  // Validate the acquisition name before the first probe spends money —
  // make_acquisition throws on an unknown name.
  normalizer_.emplace(make_space_normalizer(session.space()));
  acquisition_ = bo::make_acquisition(options_.acquisition);
  ucb_ = options_.acquisition == "ucb";
  // Random initialization order (distinct points).
  pool_ = candidates_;
  std::shuffle(pool_.begin(), pool_.end(), session.rng().engine());
  phase_ = Phase::kInit;
}

std::optional<ProbeRequest> BoLoopStrategy::init_next(
    SearchSession& session) {
  while (init_cursor_ < pool_.size() &&
         init_probes_ < options_.init_points) {
    const cloud::Deployment& d = pool_[init_cursor_++];
    if (session.already_probed(d)) continue;
    if (!probe_allowed(session, d)) continue;
    ++init_probes_;
    return ProbeRequest{d, 0.0, "init"};
  }
  return std::nullopt;
}

void BoLoopStrategy::enter_loop(SearchSession& session) {
  // Candidate geometry is fixed for the whole run: normalize the
  // coordinates once, and keep one PredictCache per candidate so
  // repeated scans reuse kernel rows across iterations (O(n) per
  // candidate after an incremental GP update instead of O(n²)).
  const std::size_t m = candidates_.size();
  unit_coords_.resize(m);
  for (std::size_t i = 0; i < m; ++i) {
    unit_coords_[i] =
        normalizer_->normalize(deployment_coords(candidates_[i]));
  }
  caches_.resize(m);
  surrogate_.emplace(*normalizer_, session.problem().gp_refit_every);
  predictions_.resize(m);
  scores_.resize(m);
  probed_.resize(m);
  phase_ = Phase::kLoop;
}

std::optional<ProbeRequest> BoLoopStrategy::loop_next(
    SearchSession& session) {
  if (static_cast<int>(session.trace().size()) >= options_.max_probes) {
    return std::nullopt;
  }
  ++iteration_;
  // Every probe so far may have exhausted its retries (billed but
  // uninformative); the surrogate has nothing to fit, so keep drawing
  // random points until one measurement lands.
  bool any_usable = false;
  for (const ProbeStep& step : session.trace()) {
    if (!step.failed) {
      any_usable = true;
      break;
    }
  }
  if (!any_usable) {
    for (const cloud::Deployment& d : pool_) {
      if (!session.already_probed(d) && probe_allowed(session, d)) {
        return ProbeRequest{d, 0.0, "init"};
      }
    }
    return std::nullopt;
  }
  // Graceful degradation: a refit can fail on pathological evidence
  // (non-PSD covariance, NaN likelihood, diverged MLE). Rather than
  // abort the whole search, demote this iteration to a surrogate-free
  // safe mode — probe the cheapest affordable unprobed candidate — and
  // let the next successful refit re-promote the loop. The invalidated
  // surrogate rebuilds from the full trace, so one bad batch cannot
  // leave a half-updated GP behind.
  bool degraded = session.chaos_degrade(iteration_);
  std::string why = degraded ? "chaos degrade hook" : "";
  if (!degraded) {
    try {
      surrogate_->update(session);
    } catch (const std::runtime_error& e) {
      degraded = true;
      why = e.what();
    }
  }
  if (degraded) {
    session.note_degraded(iteration_, why);
    surrogate_->invalidate();
    const cloud::Deployment* fallback = degraded_fallback(
        session, candidates_,
        [&](const cloud::Deployment& d) { return probe_allowed(session, d); });
    if (fallback == nullptr) return std::nullopt;
    return ProbeRequest{*fallback, 0.0, "degraded"};
  }
  const gp::GpRegressor& gp = surrogate_->gp();
  double best = std::log(1e-9);
  if (session.has_incumbent()) {
    best = log_objective(session, session.incumbent());
  }

  // Posteriors for every unprobed candidate, then the batched
  // acquisition scoring, both in candidate order.
  const std::size_t m = candidates_.size();
  for (std::size_t i = 0; i < m; ++i) {
    probed_[i] = session.already_probed(candidates_[i]) ? 1 : 0;
    if (!probed_[i]) {
      predictions_[i] = gp.predict_cached(unit_coords_[i], caches_[i]);
    }
  }
  bo::score_batch(*acquisition_, predictions_, best, scores_);

  // Keep the unprobed candidates ordered by EI so the budget-aware
  // variant can fall through to cheaper alternatives.
  struct Scored {
    double ei_value;
    const cloud::Deployment* d;
  };
  std::vector<Scored> scored;
  scored.reserve(m);
  for (std::size_t i = 0; i < m; ++i) {
    if (probed_[i]) continue;
    // For UCB the ranking score is mu + kappa*sigma; the *improvement*
    // the stop rule monitors is that bound minus the incumbent.
    const double score = ucb_ ? scores_[i] - best : scores_[i];
    scored.push_back(Scored{score, &candidates_[i]});
  }
  if (scored.empty()) return std::nullopt;
  std::stable_sort(scored.begin(), scored.end(),
                   [](const Scored& a, const Scored& b) {
                     return a.ei_value > b.ei_value;
                   });

  const double ei_max = scored.front().ei_value;
  if (static_cast<int>(session.trace().size()) >= options_.min_probes &&
      ei_max < options_.ei_stop_improvement) {
    MLCD_LOG(kDebug, "search")
        << "bo loop: EI " << ei_max << " below threshold, stopping";
    return std::nullopt;
  }

  for (const Scored& s : scored) {
    if (probe_allowed(session, *s.d)) {
      return ProbeRequest{*s.d, s.ei_value, "ei"};
    }
  }
  MLCD_LOG(kDebug, "search")
      << "bo loop: protective reserve exhausted, stopping";
  return std::nullopt;
}

std::optional<ProbeRequest> BoLoopStrategy::propose(SearchSession& session) {
  if (phase_ == Phase::kBegin) begin(session);
  if (phase_ == Phase::kInit) {
    if (std::optional<ProbeRequest> request = init_next(session)) {
      return request;
    }
    if (session.trace().empty()) {  // nothing affordable at all
      phase_ = Phase::kDone;
      return std::nullopt;
    }
    enter_loop(session);
  }
  if (phase_ == Phase::kLoop) {
    if (std::optional<ProbeRequest> request = loop_next(session)) {
      return request;
    }
    phase_ = Phase::kDone;
  }
  return std::nullopt;
}

}  // namespace mlcd::search
