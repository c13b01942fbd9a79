#include "bo/acquisition.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "stats/normal.hpp"

namespace mlcd::bo {

double ExpectedImprovement::score(double mean, double stddev,
                                  double best) const {
  const double improvement = mean - best - xi_;
  if (stddev <= 0.0) return std::max(improvement, 0.0);
  const double z = improvement / stddev;
  return improvement * stats::normal_cdf(z) +
         stddev * stats::normal_pdf(z);
}

UpperConfidenceBound::UpperConfidenceBound(double kappa) : kappa_(kappa) {
  if (!(kappa > 0.0)) {
    throw std::invalid_argument("UpperConfidenceBound: kappa must be > 0");
  }
}

double UpperConfidenceBound::score(double mean, double stddev,
                                   double /*best*/) const {
  return mean + kappa_ * stddev;
}

double ProbabilityOfImprovement::score(double mean, double stddev,
                                       double best) const {
  const double improvement = mean - best - xi_;
  if (stddev <= 0.0) return improvement > 0.0 ? 1.0 : 0.0;
  return stats::normal_cdf(improvement / stddev);
}

std::unique_ptr<AcquisitionFunction> make_acquisition(
    const std::string& name) {
  if (name == "ei") return std::make_unique<ExpectedImprovement>();
  if (name == "ucb") return std::make_unique<UpperConfidenceBound>();
  if (name == "poi") return std::make_unique<ProbabilityOfImprovement>();
  throw std::invalid_argument("make_acquisition: unknown name " + name);
}

void score_batch(const AcquisitionFunction& acquisition,
                 std::span<const gp::Prediction> predictions, double best,
                 std::span<double> out) {
  if (predictions.size() != out.size()) {
    throw std::invalid_argument("score_batch: size mismatch");
  }
  for (std::size_t i = 0; i < predictions.size(); ++i) {
    out[i] = acquisition.score(predictions[i], best);
  }
}

}  // namespace mlcd::bo
