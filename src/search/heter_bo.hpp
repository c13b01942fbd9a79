// HeterBO — heterogeneous-profiling-cost-aware Bayesian optimization
// (paper §III). The four ingredients that distinguish it from ConvBO:
//
//  1. Cost-aware acquisition: candidates are ranked by expected
//     improvement *per unit profiling cost*, where the cost is the
//     paper's penalty term — profiling time t(m, n) (Eq. 7) for
//     time-bound scenarios and P(m) * n * t(m, n) (Eq. 8) for
//     budget-bound ones. Expensive probes must promise proportionally
//     more improvement.
//  2. Constraint guarantees via a protective reserve: before any probe,
//     HeterBO checks that deadline/budget headroom remains for the probe
//     *plus* finishing training at the current best. This is the paper's
//     mechanism against "over exploration" — constraints are never
//     knowingly violated.
//  3. ML-specific concavity prior: when two probed scale-out points of a
//     type show declining speed (the down-slope of the concave curve),
//     all larger scale-outs of that type are pruned — eliminating the
//     most expensive region of the space.
//  4. Single-node initialization: one cheap 1-node probe per instance
//     type instead of random (possibly huge) initial clusters. A
//     single-type space gets (1, max) endpoints to seed curve discovery.
//
// The stop condition combines the protective reserve (no affordable
// candidate left), a relative-EI threshold, and a 95%-confidence check
// that no candidate plausibly beats the incumbent (§III-C).
//
// The True Expected Improvement (TEI) of Eqs. 5/6 — the constraint
// headroom after probing a candidate and training at its projected
// improved speed — is computed for every selected probe and recorded in
// the trace.
#pragma once

#include <memory>
#include <vector>

#include "search/searcher.hpp"

namespace mlcd::search {

/// A remembered measurement from a previous search, used to warm-start a
/// new one (see HeterBoOptions::warm_start).
struct WarmStartPoint {
  cloud::Deployment deployment;
  double measured_speed = 0.0;
};

struct HeterBoOptions {
  int max_probes = 30;
  /// EI-based stop: maximum expected improvement in log-objective units
  /// (~fractional speed gain) below which the search ends.
  double ei_stop_improvement = 0.035;
  /// Confidence level of the no-plausible-improvement stop check.
  double ci_confidence = 0.95;
  /// Skip a type's initialization probe when its expected cost exceeds
  /// this multiple of the cheapest type's init probe — a type that needs
  /// a huge minimum cluster just to hold the model is not worth a
  /// mandatory look (the acquisition can still reach it later if the
  /// surrogate points there).
  double init_cost_ratio_cap = 20.0;
  /// Exponent on the profiling-cost penalty: score = EI / penalty^gamma.
  /// 1.0 is the literal EI-per-cost rule, which is known to be myopic
  /// when the optimum itself is expensive (it keeps re-probing cheap
  /// regions); 0.5 keeps strong cost pressure while letting large
  /// expected improvements justify pricier probes.
  double cost_penalty_exponent = 1.0;
  /// Ablation knobs (the paper_claims ablation-heterbo case exercises
  /// these).
  bool cost_aware_acquisition = true;
  bool use_concavity_prior = true;
  bool protective_reserve = true;
  /// Measurements carried over from a previous search of a *similar* job
  /// (e.g. the same model after a batch-size change — the situation the
  /// paper's Fig. 2 motivates: "if there are any changes made in the
  /// training job, the expensive search needs to be re-performed").
  /// Warm points seed the surrogate only: they are never eligible as the
  /// final deployment (the new job must confirm by probing), and the
  /// type-initialization waves are skipped for types they already cover.
  std::vector<WarmStartPoint> warm_start;
};

/// Extracts warm-start points from a finished search's probe history
/// (feasible probes only).
std::vector<WarmStartPoint> warm_start_points(const SearchResult& result);

class HeterBoSearcher final : public Searcher {
 public:
  HeterBoSearcher(const perf::TrainingPerfModel& perf,
                  HeterBoOptions options = {});

  std::string name() const override { return "heterbo"; }

  const HeterBoOptions& options() const noexcept { return options_; }

 protected:
  std::unique_ptr<SearchStrategy> make_strategy(
      const SearchProblem& problem) const override;

 private:
  HeterBoOptions options_;
};

}  // namespace mlcd::search
