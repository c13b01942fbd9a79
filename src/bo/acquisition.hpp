// Acquisition functions for Bayesian optimization.
//
// The paper surveys the three standard choices (§II-D): Expected
// Improvement, Upper Confidence Bound and Probability of Improvement, and
// builds HeterBO on EI (§III-C) because it is hyperparameter-free and
// composes cleanly with the stop condition. All three are provided; the
// searchers consume them through the AcquisitionFunction interface.
//
// Convention: we MAXIMIZE the objective (training speed in samples/s).
// `best` is the incumbent (largest observed value) and improvement means
// exceeding it.
#pragma once

#include <memory>
#include <span>
#include <string>

#include "gp/gp_regressor.hpp"

namespace mlcd::bo {

/// Scores a candidate from its GP posterior; larger is more attractive.
class AcquisitionFunction {
 public:
  virtual ~AcquisitionFunction() = default;

  /// Value given the posterior (mean, stddev) at a candidate and the
  /// incumbent best observation.
  virtual double score(double mean, double stddev, double best) const = 0;

  virtual std::string name() const = 0;

  double score(const gp::Prediction& p, double best) const {
    return score(p.mean, p.stddev(), best);
  }
};

/// Expected Improvement (paper Eq. 4, maximization form):
///   EI = (mu - best) * Phi(z) + sigma * phi(z),  z = (mu - best) / sigma.
/// With sigma = 0 this degenerates to max(mu - best, 0).
class ExpectedImprovement final : public AcquisitionFunction {
 public:
  /// `xi` is the optional exploration margin (0 = paper's form).
  explicit ExpectedImprovement(double xi = 0.0) : xi_(xi) {}

  using AcquisitionFunction::score;

  double score(double mean, double stddev, double best) const override;
  std::string name() const override { return "ei"; }

 private:
  double xi_;
};

/// Upper Confidence Bound: mu + kappa * sigma.
class UpperConfidenceBound final : public AcquisitionFunction {
 public:
  explicit UpperConfidenceBound(double kappa = 2.0);

  using AcquisitionFunction::score;

  double score(double mean, double stddev, double best) const override;
  std::string name() const override { return "ucb"; }

 private:
  double kappa_;
};

/// Probability of Improvement: Phi((mu - best - xi) / sigma).
class ProbabilityOfImprovement final : public AcquisitionFunction {
 public:
  explicit ProbabilityOfImprovement(double xi = 1e-3) : xi_(xi) {}

  using AcquisitionFunction::score;

  double score(double mean, double stddev, double best) const override;
  std::string name() const override { return "poi"; }

 private:
  double xi_;
};

/// Factory by name ("ei", "ucb", "poi"); throws std::invalid_argument on
/// an unknown name.
std::unique_ptr<AcquisitionFunction> make_acquisition(
    const std::string& name);

/// Scores a batch of posteriors against one incumbent:
/// out[i] = acquisition.score(predictions[i], best). `out` must be the
/// same length as `predictions`. Throws std::invalid_argument on a size
/// mismatch.
void score_batch(const AcquisitionFunction& acquisition,
                 std::span<const gp::Prediction> predictions, double best,
                 std::span<double> out);

}  // namespace mlcd::bo
