// Unit tests for the cloud fault-injection layer: hazard math, outage
// scheduling and retry backoff.
#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>
#include <vector>

#include "cloud/fault_model.hpp"
#include "cloud/instance.hpp"
#include "util/rng.hpp"

namespace mlcd {
namespace {

cloud::InstanceCatalog small_catalog() {
  return cloud::aws_catalog().subset(
      std::vector<std::string>{"c5.xlarge", "c5.4xlarge", "p3.2xlarge"});
}

// ------------------------------------------------------------ hazard math

TEST(FaultModel, LaunchFailureProbabilityScalesWithNodes) {
  const auto cat = small_catalog();
  cloud::FaultModelOptions options;
  options.launch_failure_per_node = 0.02;
  cloud::FaultModel fm(cat, 1, options);

  EXPECT_DOUBLE_EQ(fm.launch_failure_probability(0), 0.0);
  EXPECT_NEAR(fm.launch_failure_probability(1), 0.02, 1e-12);
  EXPECT_NEAR(fm.launch_failure_probability(50),
              1.0 - std::pow(0.98, 50), 1e-12);
  EXPECT_GT(fm.launch_failure_probability(50),
            10.0 * fm.launch_failure_probability(1));
}

TEST(FaultModel, RevocationProbabilityUsesCatalogRates) {
  const auto cat = small_catalog();
  cloud::FaultModel fm(cat, 1, {});
  const auto p3 = cat.find("p3.2xlarge");
  ASSERT_TRUE(p3.has_value());
  const double rate = cat.at(*p3).spot_revocations_per_hour;
  ASSERT_GT(rate, 0.0);
  EXPECT_NEAR(fm.revocation_probability(*p3, 4, 0.5),
              1.0 - std::exp(-4.0 * rate * 0.5), 1e-12);
  // More nodes, longer window: strictly riskier.
  EXPECT_GT(fm.revocation_probability(*p3, 8, 0.5),
            fm.revocation_probability(*p3, 4, 0.5));
  EXPECT_GT(fm.revocation_probability(*p3, 4, 1.0),
            fm.revocation_probability(*p3, 4, 0.5));
}

TEST(FaultModel, EnabledIsMarketAware) {
  const auto cat = small_catalog();
  // Default options: the only live hazard is the catalog's spot
  // revocation rates, which cannot fire on the on-demand market.
  cloud::FaultModel fm(cat, 1, {});
  EXPECT_FALSE(fm.enabled(cloud::Market::kOnDemand));
  EXPECT_TRUE(fm.enabled(cloud::Market::kSpot));

  cloud::FaultModelOptions launch;
  launch.launch_failure_per_node = 0.1;
  cloud::FaultModel fm2(cat, 1, launch);
  EXPECT_TRUE(fm2.enabled(cloud::Market::kOnDemand));
}

TEST(FaultModel, InvalidHazardsThrow) {
  const auto cat = small_catalog();
  cloud::FaultModelOptions bad;
  bad.launch_failure_per_node = 1.0;
  EXPECT_THROW(cloud::FaultModel(cat, 1, bad), std::invalid_argument);
  cloud::FaultModelOptions bad2;
  bad2.straggler_rate = -0.5;
  EXPECT_THROW(cloud::FaultModel(cat, 1, bad2), std::invalid_argument);
  cloud::FaultModelOptions bad3;
  bad3.scheduled_outages = {{99, {0.0, 1.0}}};
  EXPECT_THROW(cloud::FaultModel(cat, 1, bad3), std::invalid_argument);
}

// ---------------------------------------------------------------- outages

TEST(FaultModel, ScheduledOutagesGateTheType) {
  const auto cat = small_catalog();
  cloud::FaultModelOptions options;
  options.scheduled_outages = {{1, {2.0, 5.0}}};
  cloud::FaultModel fm(cat, 1, options);

  EXPECT_FALSE(fm.in_outage(1, 1.9));
  EXPECT_TRUE(fm.in_outage(1, 2.0));
  EXPECT_TRUE(fm.in_outage(1, 4.99));
  EXPECT_FALSE(fm.in_outage(1, 5.0));
  EXPECT_FALSE(fm.in_outage(0, 3.0));
  EXPECT_NEAR(fm.outage_remaining_hours(1, 3.0), 2.0, 1e-12);

  const auto outcome =
      fm.attempt(cloud::Deployment{1, 4}, cloud::Market::kOnDemand,
                 0.25, 3.0);
  EXPECT_EQ(outcome.fault, cloud::FaultKind::kCapacityOutage);
  EXPECT_DOUBLE_EQ(outcome.bill_fraction, 0.0);  // nothing ever started
  EXPECT_GT(outcome.wall_fraction, 0.0);         // diagnosing is not free
}

TEST(FaultModel, EpisodeCalendarIsSeedDeterministic) {
  const auto cat = small_catalog();
  cloud::FaultModelOptions options;
  options.outage_episodes_per_100h = 50.0;
  cloud::FaultModel a(cat, 42, options);
  cloud::FaultModel b(cat, 42, options);
  bool any = false;
  for (double t = 0.0; t < 200.0; t += 0.5) {
    for (std::size_t type = 0; type < cat.size(); ++type) {
      EXPECT_EQ(a.in_outage(type, t), b.in_outage(type, t));
      any = any || a.in_outage(type, t);
    }
  }
  EXPECT_TRUE(any);  // 50 episodes / 100 h must actually materialize
}

// ---------------------------------------------------------------- backoff

TEST(RetryPolicy, BackoffGrowsAndIsHardCapped) {
  cloud::RetryPolicy retry;
  retry.base_backoff_hours = 1.0 / 60.0;
  retry.backoff_multiplier = 2.0;
  retry.max_backoff_hours = 3.0 / 60.0;
  retry.backoff_jitter_sigma = 0.0;  // deterministic for exact checks

  util::Rng rng(1);
  EXPECT_DOUBLE_EQ(retry.backoff_hours_after(0, rng), 0.0);
  EXPECT_NEAR(retry.backoff_hours_after(1, rng), 1.0 / 60.0, 1e-12);
  EXPECT_NEAR(retry.backoff_hours_after(2, rng), 2.0 / 60.0, 1e-12);
  // 4/60 would exceed the cap.
  EXPECT_NEAR(retry.backoff_hours_after(3, rng), 3.0 / 60.0, 1e-12);

  // The cap holds after jitter too — it is what the worst-case reserve
  // accounting relies on.
  retry.backoff_jitter_sigma = 1.5;
  for (int i = 0; i < 200; ++i) {
    EXPECT_LE(retry.backoff_hours_after(3, rng), retry.max_backoff_hours);
  }
}

TEST(FaultKindNames, AreStable) {
  EXPECT_EQ(cloud::fault_kind_name(cloud::FaultKind::kNone), "none");
  EXPECT_EQ(cloud::fault_kind_name(cloud::FaultKind::kLaunchFailure),
            "launch-failure");
  EXPECT_EQ(cloud::fault_kind_name(cloud::FaultKind::kSpotRevocation),
            "spot-revocation");
  EXPECT_EQ(cloud::fault_kind_name(cloud::FaultKind::kCapacityOutage),
            "capacity-outage");
  EXPECT_EQ(cloud::fault_kind_name(cloud::FaultKind::kStraggler),
            "straggler");
}

}  // namespace
}  // namespace mlcd
