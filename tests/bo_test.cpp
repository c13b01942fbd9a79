// Unit and property tests for src/bo: acquisitions and input
// normalization.
#include <gtest/gtest.h>

#include <cmath>

#include "bo/acquisition.hpp"
#include "bo/normalizer.hpp"

namespace mlcd::bo {
namespace {

// ------------------------------------------------------------ acquisition

TEST(ExpectedImprovement, NonNegativeEverywhere) {
  const ExpectedImprovement ei;
  for (double mu : {-2.0, 0.0, 1.0, 5.0}) {
    for (double sd : {0.0, 0.1, 1.0, 10.0}) {
      EXPECT_GE(ei.score(mu, sd, 1.0), 0.0);
    }
  }
}

TEST(ExpectedImprovement, ZeroWhenCertainAndWorse) {
  const ExpectedImprovement ei;
  EXPECT_DOUBLE_EQ(ei.score(0.5, 0.0, 1.0), 0.0);
}

TEST(ExpectedImprovement, EqualsImprovementWhenCertainAndBetter) {
  const ExpectedImprovement ei;
  EXPECT_DOUBLE_EQ(ei.score(3.0, 0.0, 1.0), 2.0);
}

TEST(ExpectedImprovement, MonotoneInMean) {
  const ExpectedImprovement ei;
  double prev = -1.0;
  for (double mu = -3.0; mu <= 3.0; mu += 0.25) {
    const double v = ei.score(mu, 1.0, 0.0);
    EXPECT_GE(v, prev);
    prev = v;
  }
}

TEST(ExpectedImprovement, MonotoneInStddevAtEqualMean) {
  // With mu == best, all upside comes from uncertainty.
  const ExpectedImprovement ei;
  double prev = -1.0;
  for (double sd : {0.0, 0.5, 1.0, 2.0, 4.0}) {
    const double v = ei.score(1.0, sd, 1.0);
    EXPECT_GE(v, prev);
    prev = v;
  }
}

TEST(ExpectedImprovement, ClosedFormSpotCheck) {
  // mu=1, sd=1, best=0: EI = 1*Phi(1) + phi(1).
  const ExpectedImprovement ei;
  const double expected = 0.8413447460685429 + 0.24197072451914337;
  EXPECT_NEAR(ei.score(1.0, 1.0, 0.0), expected, 1e-9);
}

TEST(ExpectedImprovement, XiShiftsThreshold) {
  const ExpectedImprovement eager(0.0), cautious(0.5);
  EXPECT_GT(eager.score(1.2, 0.01, 1.0), cautious.score(1.2, 0.01, 1.0));
}

TEST(Ucb, LinearInKappaAndStddev) {
  const UpperConfidenceBound ucb(2.0);
  EXPECT_DOUBLE_EQ(ucb.score(1.0, 0.5, /*best=*/99.0), 2.0);
  EXPECT_THROW(UpperConfidenceBound(0.0), std::invalid_argument);
}

TEST(Poi, ProbabilityBounds) {
  const ProbabilityOfImprovement poi;
  for (double mu : {-5.0, 0.0, 5.0}) {
    const double v = poi.score(mu, 1.0, 0.0);
    EXPECT_GE(v, 0.0);
    EXPECT_LE(v, 1.0);
  }
  EXPECT_DOUBLE_EQ(poi.score(5.0, 0.0, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(poi.score(-5.0, 0.0, 0.0), 0.0);
}

TEST(AcquisitionFactory, KnownNamesAndErrors) {
  EXPECT_EQ(make_acquisition("ei")->name(), "ei");
  EXPECT_EQ(make_acquisition("ucb")->name(), "ucb");
  EXPECT_EQ(make_acquisition("poi")->name(), "poi");
  EXPECT_THROW(make_acquisition("nope"), std::invalid_argument);
}

TEST(Acquisition, PredictionOverloadMatchesScalar) {
  const ExpectedImprovement ei;
  gp::Prediction p;
  p.mean = 2.0;
  p.variance = 4.0;
  EXPECT_DOUBLE_EQ(ei.score(p, 1.0), ei.score(2.0, 2.0, 1.0));
}

// ------------------------------------------------------------- normalizer

TEST(Normalizer, MapsBoundsToUnitBox) {
  const InputNormalizer norm({0.0, 1.0}, {61.0, 50.0});
  const auto lo = norm.normalize(std::vector<double>{0.0, 1.0});
  const auto hi = norm.normalize(std::vector<double>{61.0, 50.0});
  EXPECT_DOUBLE_EQ(lo[0], 0.0);
  EXPECT_DOUBLE_EQ(lo[1], 0.0);
  EXPECT_DOUBLE_EQ(hi[0], 1.0);
  EXPECT_DOUBLE_EQ(hi[1], 1.0);
}

TEST(Normalizer, RoundTrips) {
  const InputNormalizer norm({-5.0, 2.0}, {5.0, 12.0});
  const std::vector<double> raw{1.25, 7.5};
  const auto back = norm.denormalize(norm.normalize(raw));
  EXPECT_NEAR(back[0], raw[0], 1e-12);
  EXPECT_NEAR(back[1], raw[1], 1e-12);
}

TEST(Normalizer, DegenerateDimensionMapsToHalf) {
  const InputNormalizer norm({3.0}, {3.0});
  EXPECT_DOUBLE_EQ(norm.normalize(std::vector<double>{3.0})[0], 0.5);
}

TEST(Normalizer, Errors) {
  EXPECT_THROW(InputNormalizer({}, {}), std::invalid_argument);
  EXPECT_THROW(InputNormalizer({1.0}, {0.0}), std::invalid_argument);
  EXPECT_THROW(InputNormalizer({1.0}, {2.0, 3.0}), std::invalid_argument);
  const InputNormalizer norm({0.0}, {1.0});
  EXPECT_THROW(norm.normalize(std::vector<double>{1.0, 2.0}),
               std::invalid_argument);
  EXPECT_THROW(norm.denormalize(std::vector<double>{0.5, 0.5}),
               std::invalid_argument);
}

}  // namespace
}  // namespace mlcd::bo
