#include "search/search_session.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>

#include "util/logging.hpp"

namespace mlcd::search {

SearchSession::SearchSession(const perf::TrainingPerfModel& perf,
                             const SearchProblem& problem,
                             std::unique_ptr<SearchStrategy> strategy)
    : perf_(&perf),
      problem_(&problem),
      meter_(*problem.space),
      profiler_(perf, *problem.space, meter_, problem.seed,
                problem.profiler_options),
      rng_(util::splitmix64(problem.seed ^ 0x5ea6c4e2u)),
      completion_(problem.config.model.samples_to_train, *problem.space),
      strategy_(std::move(strategy)) {
  if (problem.space == nullptr) {
    throw std::invalid_argument("SearchProblem: null deployment space");
  }
  if (!problem.replay.empty()) {
    profiler_.set_replay(problem.replay);
  }
  if (problem.probe_gate != nullptr) {
    profiler_.set_gate(problem.probe_gate, problem.probe_substrate);
  }
}

const ProbeRequest* SearchSession::next() {
  if (finished_) return nullptr;
  if (!pending_.has_value()) {
    if (strategy_ == nullptr) {
      finished_ = true;
      return nullptr;
    }
    pending_ = strategy_->propose(*this);
    if (!pending_.has_value()) {
      finished_ = true;
      return nullptr;
    }
  }
  return &*pending_;
}

ProbeStep SearchSession::account(const ProbeRequest& request,
                                 const profiler::ProfileResult& outcome) {
  cum_hours_ += outcome.profile_hours;
  cum_cost_ += outcome.profile_cost;

  ProbeStep step;
  step.deployment = request.deployment;
  step.failed = outcome.failed;
  step.feasible = outcome.feasible;
  step.measured_speed = outcome.measured_speed;
  step.true_speed = outcome.true_speed;
  step.profile_hours = outcome.profile_hours;
  step.profile_cost = outcome.profile_cost;
  step.cum_profile_hours = cum_hours_;
  step.cum_profile_cost = cum_cost_;
  step.acquisition = request.acquisition;
  step.reason = request.reason;
  step.attempts = outcome.attempts;
  step.fault = outcome.fault;
  step.backoff_hours = outcome.backoff_hours;
  step.attempt_log = outcome.attempt_log;
  step.replayed = outcome.replayed;
  step.fidelity = outcome.fidelity;
  return step;
}

const ProbeStep& SearchSession::observe(ProbeStep step) {
  trace_.push_back(std::move(step));
  const std::size_t idx = trace_.size() - 1;
  // Only full-fidelity measurements may become the incumbent: a low-
  // fidelity speed is optimistically biased, and promoting it would let
  // the search "finish" on a deployment it never actually confirmed.
  if (trace_[idx].feasible && trace_[idx].fidelity.is_full() &&
      (!incumbent_.has_value() ||
       objective_of(trace_[idx]) > objective_of(trace_[*incumbent_]))) {
    incumbent_ = idx;
  }
  pending_.reset();
  return trace_[idx];
}

void SearchSession::note_degraded(int iteration, const std::string& why) {
  ++degraded_;
  MLCD_LOG(kWarn, "search")
      << "surrogate refit failed at iteration " << iteration << " (" << why
      << "); degrading to prior-mean safe mode for this iteration";
  if (journal() != nullptr && !replaying()) {
    try {
      journal()->append_degrade({iteration, why});
    } catch (const journal::JournalError& e) {
      if (problem_->journal_on_error == journal::OnError::kAbort) throw;
      degrade_journal(e.what());
    }
  }
}

void SearchSession::bind_driver(std::uint32_t lane) {
  std::uint32_t expected = kNoDriver;
  if (!driver_.compare_exchange_strong(expected, lane,
                                       std::memory_order_acq_rel,
                                       std::memory_order_acquire)) {
    throw std::logic_error(
        "SearchSession: lane " + std::to_string(lane) +
        " tried to bind a session already driven by lane " +
        std::to_string(expected));
  }
}

void SearchSession::release_driver(std::uint32_t lane) {
  std::uint32_t expected = lane;
  if (!driver_.compare_exchange_strong(expected, kNoDriver,
                                       std::memory_order_acq_rel,
                                       std::memory_order_acquire)) {
    throw std::logic_error(
        "SearchSession: lane " + std::to_string(lane) +
        " tried to release a session it does not drive (held by " +
        (expected == kNoDriver ? std::string("nobody")
                               : std::to_string(expected)) +
        ")");
  }
}

void SearchSession::degrade_journal(const std::string& why) {
  if (journal_degraded_) return;
  journal_degraded_ = true;
  journal_degrade_reason_ = why;
  MLCD_LOG(kWarn, "search")
      << "journal write failed (" << why
      << "); continuing without a journal — this run is no longer "
         "crash-resumable";
}

bool SearchSession::already_probed(
    const cloud::Deployment& d) const noexcept {
  for (const ProbeStep& s : trace_) {
    // A transiently failed probe produced no measurement; the point may
    // be retried. A low-fidelity measurement does not make the point
    // "probed" either — full-fidelity confirmation is still informative.
    if (s.deployment == d && !s.failed && s.fidelity.is_full()) return true;
  }
  return false;
}

bool SearchSession::already_probed(
    const cloud::Deployment& d,
    const profiler::Fidelity& fidelity) const noexcept {
  for (const ProbeStep& s : trace_) {
    if (s.deployment == d && !s.failed && s.fidelity == fidelity) return true;
  }
  return false;
}

double SearchSession::objective_of(const ProbeStep& step) const {
  if (!step.feasible) return 0.0;
  const Scenario& s = problem_->scenario;
  // Under a deadline, a deployment whose *training run alone* cannot
  // finish in time has no utility at any price — without this, the
  // cost-efficiency objective degenerates to the smallest (slowest)
  // cluster. Note this uses only the deadline itself, not the time
  // already spent: constraint-oblivious methods still burn profiling
  // time on top and overshoot moderately, as the paper reports.
  if (s.has_deadline() &&
      projected_training_hours(step) > s.deadline_hours) {
    return 0.0;
  }
  return scenario_objective(s, step.measured_speed,
                            problem_->space->hourly_price(step.deployment));
}

const ProbeStep& SearchSession::incumbent() const {
  if (!incumbent_) throw std::logic_error("SearchSession: no incumbent yet");
  return trace_[*incumbent_];
}

double SearchSession::projected_training_hours(
    const ProbeStep& step) const {
  if (!step.feasible || step.measured_speed <= 0.0) {
    return std::numeric_limits<double>::infinity();
  }
  return completion_.training_hours(step.deployment, step.measured_speed);
}

double SearchSession::projected_training_cost(
    const ProbeStep& step) const {
  const double hours = projected_training_hours(step);
  if (!std::isfinite(hours)) return hours;
  return hours * problem_->space->hourly_price(step.deployment);
}

double SearchSession::corrected_projected_training_hours(
    const ProbeStep& step) const {
  if (!step.feasible || step.measured_speed <= 0.0) {
    return std::numeric_limits<double>::infinity();
  }
  const double bias = profiler::fidelity_speed_bias(
      problem_->profiler_options, step.fidelity);
  return completion_.training_hours(step.deployment,
                                    step.measured_speed / (1.0 + bias));
}

double SearchSession::corrected_projected_training_cost(
    const ProbeStep& step) const {
  const double hours = corrected_projected_training_hours(step);
  if (!std::isfinite(hours)) return hours;
  return hours * problem_->space->hourly_price(step.deployment);
}

double SearchSession::min_completion_hours() const {
  // Completion fallbacks consider only full-fidelity probes: a biased
  // low-fidelity speed would overstate how fast a fallback could finish
  // and silently weaken the reserve guarantee. While a ladder run has
  // nothing confirmed yet, the *bias-corrected* low-fidelity projection
  // — conservative by construction — stands in so the reserve is never
  // toothless mid-exploration.
  double best = std::numeric_limits<double>::infinity();
  for (const ProbeStep& step : trace_) {
    if (step.feasible && step.fidelity.is_full()) {
      best = std::min(best, projected_training_hours(step));
    }
  }
  if (!std::isfinite(best)) {
    for (const ProbeStep& step : trace_) {
      if (step.feasible && !step.fidelity.is_full()) {
        best = std::min(best, corrected_projected_training_hours(step));
      }
    }
  }
  return best;
}

double SearchSession::min_completion_cost() const {
  double best = std::numeric_limits<double>::infinity();
  for (const ProbeStep& step : trace_) {
    if (step.feasible && step.fidelity.is_full()) {
      best = std::min(best, projected_training_cost(step));
    }
  }
  if (!std::isfinite(best)) {
    for (const ProbeStep& step : trace_) {
      if (step.feasible && !step.fidelity.is_full()) {
        best = std::min(best, corrected_projected_training_cost(step));
      }
    }
  }
  return best;
}

namespace {
// Completion projections come from noisy measured speeds while the final
// accounting uses the substrate's true speed; the reserve keeps this much
// relative headroom so measurement noise cannot turn a "just fits" into a
// violation.
constexpr double kReserveMargin = 0.03;
}  // namespace

bool SearchSession::reserve_allows(double extra_hours,
                                   double extra_cost) const {
  // The reserve protects the *best compliant* deployment found so far
  // (the paper's "reserves the training budget for the current best"):
  // spending that would forfeit the ability to finish training there is
  // vetoed. This is stronger than only protecting the cheapest fallback
  // — without it the search can keep probing until nothing but a slow,
  // cheap deployment still fits the constraint.
  const Scenario& s = problem_->scenario;

  // Select the best-objective probe whose completion currently satisfies
  // every constraint; its completion time/cost is what we reserve.
  double reserve_hours = std::numeric_limits<double>::infinity();
  double reserve_cost = std::numeric_limits<double>::infinity();
  {
    double best_objective = -std::numeric_limits<double>::infinity();
    for (const ProbeStep& step : trace_) {
      if (!step.feasible || !step.fidelity.is_full()) continue;
      const double h = projected_training_hours(step);
      const double c = projected_training_cost(step);
      const bool compliant =
          (!s.has_deadline() || cum_hours_ + h <= s.deadline_hours) &&
          (!s.has_budget() || cum_cost_ + c <= s.budget_dollars);
      if (!compliant) continue;
      const double objective = objective_of(step);
      if (objective > best_objective) {
        best_objective = objective;
        reserve_hours = h;
        reserve_cost = c;
      }
    }
    if (!std::isfinite(reserve_hours)) {
      // A ladder run reaches here while nothing is confirmed yet:
      // protect the best *bias-corrected* low-fidelity fallback so the
      // reserve has teeth before the confirm stage. The correction
      // divides the optimistic speed back down, so the reserved
      // completion is conservative. (Ladder-free runs never enter this
      // scan — every feasible step is full-fidelity.)
      double best_fallback_objective = -std::numeric_limits<double>::infinity();
      for (const ProbeStep& step : trace_) {
        if (!step.feasible || step.fidelity.is_full()) continue;
        const double h = corrected_projected_training_hours(step);
        const double c = corrected_projected_training_cost(step);
        const bool compliant =
            (!s.has_deadline() || cum_hours_ + h <= s.deadline_hours) &&
            (!s.has_budget() || cum_cost_ + c <= s.budget_dollars);
        if (!compliant) continue;
        const double objective = objective_of(step);
        if (objective > best_fallback_objective) {
          best_fallback_objective = objective;
          reserve_hours = h;
          reserve_cost = c;
        }
      }
    }
    if (!std::isfinite(reserve_hours)) {
      // Nothing compliant yet: protect the cheapest way to finish, if
      // any exists (when even that violates, the constraint does not
      // veto further probes — exploring is the only path to compliance).
      reserve_hours = min_completion_hours();
      reserve_cost = min_completion_cost();
    }
  }

  if (s.has_deadline() && std::isfinite(reserve_hours)) {
    const double limit = s.deadline_hours * (1.0 - kReserveMargin);
    if (cum_hours_ + reserve_hours <= limit &&
        cum_hours_ + extra_hours + reserve_hours > limit) {
      return false;
    }
  }
  if (s.has_budget() && std::isfinite(reserve_cost)) {
    const double limit = s.budget_dollars * (1.0 - kReserveMargin);
    if (cum_cost_ + reserve_cost <= limit &&
        cum_cost_ + extra_cost + reserve_cost > limit) {
      return false;
    }
  }
  return true;
}

bool SearchSession::reserve_allows_probe(const cloud::Deployment& d) const {
  return reserve_allows(
      profiler_.worst_case_profile_hours(problem_->config, d),
      profiler_.worst_case_profile_cost(problem_->config, d));
}

bool SearchSession::reserve_allows_probe(
    const cloud::Deployment& d, const profiler::Fidelity& fidelity) const {
  return reserve_allows(
      profiler_.worst_case_profile_hours(problem_->config, d, fidelity),
      profiler_.worst_case_profile_cost(problem_->config, d, fidelity));
}

}  // namespace mlcd::search
