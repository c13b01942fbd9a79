#include "gp/nelder_mead.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

namespace mlcd::gp {
namespace {

double safe_eval(
    const std::function<double(const std::vector<double>&)>& objective,
    const std::vector<double>& x) {
  const double v = objective(x);
  return std::isnan(v) ? std::numeric_limits<double>::infinity() : v;
}

}  // namespace

NelderMeadResult nelder_mead(
    const std::function<double(const std::vector<double>&)>& objective,
    const std::vector<double>& start, const NelderMeadOptions& options) {
  const std::size_t n = start.size();
  if (n == 0) {
    throw std::invalid_argument("nelder_mead: empty start point");
  }

  // Standard coefficients: reflection, expansion, contraction, shrink.
  constexpr double alpha = 1.0;
  constexpr double gamma = 2.0;
  constexpr double rho = 0.5;
  constexpr double sigma = 0.5;

  std::vector<std::vector<double>> simplex(n + 1, start);
  for (std::size_t i = 0; i < n; ++i) {
    double& coord = simplex[i + 1][i];
    coord += (std::abs(coord) > 1e-12) ? options.initial_step * coord
                                       : options.initial_step;
  }

  std::vector<double> values(n + 1);
  for (std::size_t i = 0; i <= n; ++i) {
    values[i] = safe_eval(objective, simplex[i]);
  }

  // Work vectors live for the whole call: an iteration allocates nothing
  // beyond what the objective itself does.
  std::vector<std::size_t> order(n + 1);
  std::vector<double> centroid(n);
  std::vector<double> reflected(n);
  std::vector<double> expanded(n);
  std::vector<double> contracted(n);

  NelderMeadResult result;
  int iter = 0;
  for (; iter < options.max_iterations; ++iter) {
    // Order vertices by objective value.
    for (std::size_t i = 0; i <= n; ++i) order[i] = i;
    std::sort(order.begin(), order.end(),
              [&](std::size_t a, std::size_t b) {
                return values[a] < values[b];
              });
    const std::size_t best = order[0];
    const std::size_t worst = order[n];
    const std::size_t second_worst = order[n - 1];

    // Convergence: value spread and simplex size.
    double diameter = 0.0;
    for (std::size_t i = 0; i <= n; ++i) {
      double d = 0.0;
      for (std::size_t k = 0; k < n; ++k) {
        d = std::max(d, std::abs(simplex[i][k] - simplex[best][k]));
      }
      diameter = std::max(diameter, d);
    }
    if (std::abs(values[worst] - values[best]) < options.f_tolerance &&
        diameter < options.x_tolerance) {
      result.converged = true;
      break;
    }

    // Centroid of all but the worst vertex.
    std::fill(centroid.begin(), centroid.end(), 0.0);
    for (std::size_t i = 0; i <= n; ++i) {
      if (i == worst) continue;
      for (std::size_t k = 0; k < n; ++k) centroid[k] += simplex[i][k];
    }
    for (double& c : centroid) c /= static_cast<double>(n);

    auto blend = [&](double coeff, std::vector<double>& p) {
      for (std::size_t k = 0; k < n; ++k) {
        p[k] = centroid[k] + coeff * (simplex[worst][k] - centroid[k]);
      }
    };

    blend(-alpha, reflected);
    const double f_reflected = safe_eval(objective, reflected);

    if (f_reflected < values[best]) {
      blend(-gamma, expanded);
      const double f_expanded = safe_eval(objective, expanded);
      if (f_expanded < f_reflected) {
        simplex[worst] = expanded;
        values[worst] = f_expanded;
      } else {
        simplex[worst] = reflected;
        values[worst] = f_reflected;
      }
      continue;
    }
    if (f_reflected < values[second_worst]) {
      simplex[worst] = reflected;
      values[worst] = f_reflected;
      continue;
    }

    blend(rho, contracted);
    const double f_contracted = safe_eval(objective, contracted);
    if (f_contracted < values[worst]) {
      simplex[worst] = contracted;
      values[worst] = f_contracted;
      continue;
    }

    // Shrink toward the best vertex.
    for (std::size_t i = 0; i <= n; ++i) {
      if (i == best) continue;
      for (std::size_t k = 0; k < n; ++k) {
        simplex[i][k] =
            simplex[best][k] + sigma * (simplex[i][k] - simplex[best][k]);
      }
      values[i] = safe_eval(objective, simplex[i]);
    }
  }

  std::size_t best = 0;
  for (std::size_t i = 1; i <= n; ++i) {
    if (values[i] < values[best]) best = i;
  }
  result.x = simplex[best];
  result.value = values[best];
  result.iterations = iter;
  return result;
}

}  // namespace mlcd::gp
