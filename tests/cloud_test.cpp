// Unit tests for src/cloud: catalog, deployment space, billing, simulator.
#include <gtest/gtest.h>

#include <fstream>
#include <limits>
#include <set>

#include <filesystem>

#include "cloud/billing.hpp"
#include "cloud/catalog_io.hpp"
#include "cloud/deployment.hpp"
#include "cloud/instance.hpp"

namespace mlcd::cloud {
namespace {

// ----------------------------------------------------------------- catalog

TEST(Catalog, HasExactly62Types) {
  // The paper's search-space arithmetic: 62 scale-up options (§III-B).
  EXPECT_EQ(aws_catalog().size(), 62u);
}

TEST(Catalog, NamesAreUnique) {
  std::set<std::string> names;
  for (const InstanceSpec& s : aws_catalog().all()) names.insert(s.name);
  EXPECT_EQ(names.size(), aws_catalog().size());
}

TEST(Catalog, Fig1aCostAnchor) {
  // Paper Fig. 1a: p2.8xlarge is 42.5x the hourly cost of c5.xlarge.
  const auto& cat = aws_catalog();
  const double p28 = cat.at(*cat.find("p2.8xlarge")).price_per_hour;
  const double c5x = cat.at(*cat.find("c5.xlarge")).price_per_hour;
  EXPECT_NEAR(p28 / c5x, 42.5, 0.1);
}

TEST(Catalog, PaperEvaluationFamiliesPresent) {
  // §V-A: c5, c5n, c4, p3 (V100), p2 (K80).
  const auto& cat = aws_catalog();
  for (const char* family : {"c5", "c5n", "c4", "p2", "p3"}) {
    EXPECT_FALSE(cat.family_indices(family).empty()) << family;
  }
}

TEST(Catalog, GpuFlagsConsistent) {
  for (const InstanceSpec& s : aws_catalog().all()) {
    EXPECT_EQ(s.is_gpu_instance(), is_gpu(s.device)) << s.name;
    if (s.is_gpu_instance()) EXPECT_GT(s.gpus, 0) << s.name;
  }
}

TEST(Catalog, FindMissingReturnsNullopt) {
  EXPECT_FALSE(aws_catalog().find("x1e.32xlarge").has_value());
}

TEST(Catalog, SubsetPreservesOrderAndRejectsUnknown) {
  const std::vector<std::string> names{"p2.xlarge", "c5.xlarge"};
  const InstanceCatalog sub = aws_catalog().subset(names);
  EXPECT_EQ(sub.size(), 2u);
  EXPECT_EQ(sub.at(0).name, "p2.xlarge");
  EXPECT_EQ(sub.at(1).name, "c5.xlarge");
  const std::vector<std::string> bad{"c5.xlarge", "bogus"};
  EXPECT_THROW(aws_catalog().subset(bad), std::invalid_argument);
}

TEST(Catalog, AtBoundsChecked) {
  EXPECT_THROW(aws_catalog().at(aws_catalog().size()), std::out_of_range);
}

TEST(Catalog, InvalidSpecRejected) {
  InstanceSpec bad;
  bad.name = "broken";
  bad.price_per_hour = -1.0;
  EXPECT_THROW(InstanceCatalog({bad}), std::invalid_argument);
  EXPECT_THROW(InstanceCatalog(std::vector<InstanceSpec>{}),
               std::invalid_argument);
}

TEST(Catalog, StrictValidationNamesTheField) {
  const InstanceSpec good = aws_catalog().at(0);

  auto expect_rejected = [&](auto&& mutate, const std::string& field) {
    InstanceSpec s = good;
    mutate(s);
    try {
      InstanceCatalog({s});
      FAIL() << "spec with bad " << field << " was accepted";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(field), std::string::npos)
          << e.what();
    }
  };

  expect_rejected([](InstanceSpec& s) { s.name.clear(); }, "name");
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  expect_rejected([&](InstanceSpec& s) { s.price_per_hour = nan; },
                  "price_per_hour");
  expect_rejected([&](InstanceSpec& s) { s.price_per_hour = inf; },
                  "price_per_hour");
  expect_rejected([&](InstanceSpec& s) { s.price_per_hour = 0.0; },
                  "price_per_hour");
  expect_rejected([&](InstanceSpec& s) { s.effective_tflops = nan; },
                  "effective_tflops");
  expect_rejected([&](InstanceSpec& s) { s.network_gbps = -1.0; },
                  "network_gbps");
  expect_rejected([&](InstanceSpec& s) { s.mem_gib = nan; }, "mem_gib");
  expect_rejected([&](InstanceSpec& s) { s.spot_price_per_hour = -0.5; },
                  "spot_price_per_hour");
  expect_rejected([&](InstanceSpec& s) { s.vcpus = 0; }, "vcpus");
  expect_rejected([&](InstanceSpec& s) { s.gpus = -1; }, "gpus");
}

TEST(Catalog, DuplicateNamesRejected) {
  const InstanceSpec spec = aws_catalog().at(0);
  try {
    InstanceCatalog({spec, spec});
    FAIL() << "duplicate type names were accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("duplicate"), std::string::npos)
        << e.what();
    EXPECT_NE(std::string(e.what()).find(spec.name), std::string::npos)
        << e.what();
  }
}

TEST(Catalog, PricesScaleWithinFamily) {
  // Within a family, bigger instances cost more.
  const auto& cat = aws_catalog();
  for (const char* family : {"c5", "m5", "p2", "p3"}) {
    const auto idx = cat.family_indices(family);
    for (std::size_t i = 1; i < idx.size(); ++i) {
      EXPECT_GT(cat.at(idx[i]).price_per_hour,
                cat.at(idx[i - 1]).price_per_hour)
          << family;
    }
  }
}

TEST(Catalog, DeviceKindNames) {
  EXPECT_EQ(device_kind_name(DeviceKind::kGpuV100), "gpu-v100");
  EXPECT_EQ(device_kind_name(DeviceKind::kCpuAvx512), "cpu-avx512");
}

// --------------------------------------------------------------- space

TEST(Space, PaperSizeIs3100) {
  const DeploymentSpace space(aws_catalog(), 50);
  EXPECT_EQ(space.size(), 3100u);  // 62 x 50, §III-B
  EXPECT_EQ(space.enumerate().size(), 3100u);
}

TEST(Space, ContainsRespectsBounds) {
  const DeploymentSpace space(aws_catalog(), 50);
  EXPECT_TRUE(space.contains({0, 1}));
  EXPECT_TRUE(space.contains({61, 50}));
  EXPECT_FALSE(space.contains({0, 0}));
  EXPECT_FALSE(space.contains({0, 51}));
  EXPECT_FALSE(space.contains({62, 1}));
}

TEST(Space, PerTypeLimits) {
  const InstanceCatalog sub =
      aws_catalog().subset(std::vector<std::string>{"c5.xlarge", "p2.xlarge"});
  const DeploymentSpace space(sub, std::vector<int>{100, 50});
  EXPECT_EQ(space.size(), 150u);
  EXPECT_TRUE(space.contains({0, 100}));
  EXPECT_FALSE(space.contains({1, 51}));
  EXPECT_THROW(DeploymentSpace(sub, std::vector<int>{100}),
               std::invalid_argument);
  EXPECT_THROW(DeploymentSpace(sub, std::vector<int>{100, 0}),
               std::invalid_argument);
}

TEST(Space, GridEnumerationSkipsOutOfRange) {
  const InstanceCatalog sub =
      aws_catalog().subset(std::vector<std::string>{"c5.xlarge"});
  const DeploymentSpace space(sub, 10);
  const auto grid = space.enumerate_grid({1, 4, 8, 16});
  EXPECT_EQ(grid.size(), 3u);  // 16 out of range
  EXPECT_EQ(grid[2].nodes, 8);
}

TEST(Space, HourlyPriceIsLinearInNodes) {
  const DeploymentSpace space(aws_catalog(), 50);
  const std::size_t c5x = *aws_catalog().find("c5.xlarge");
  EXPECT_NEAR(space.hourly_price({c5x, 40}), 40 * 0.17, 1e-9);
  EXPECT_THROW(space.hourly_price({c5x, 51}), std::invalid_argument);
}

TEST(Space, DescribeFormat) {
  const DeploymentSpace space(aws_catalog(), 50);
  const std::size_t c54 = *aws_catalog().find("c5.4xlarge");
  EXPECT_EQ(space.describe({c54, 10}), "10 x c5.4xlarge");
}

// ----------------------------------------------------------------- spot

TEST(Spot, CatalogCarriesSpotFields) {
  for (const InstanceSpec& s : aws_catalog().all()) {
    EXPECT_GT(s.spot_price_per_hour, 0.0) << s.name;
    EXPECT_LT(s.spot_price_per_hour, s.price_per_hour) << s.name;
    EXPECT_GT(s.spot_revocations_per_hour, 0.0) << s.name;
    if (s.is_gpu_instance()) {
      // GPUs are reclaimed more aggressively.
      EXPECT_GE(s.spot_revocations_per_hour, 0.05) << s.name;
    }
  }
}

TEST(Spot, SpotSpacePricesSpotMarket) {
  const DeploymentSpace on_demand(aws_catalog(), 50);
  const DeploymentSpace spot(aws_catalog(), 50, Market::kSpot);
  const std::size_t c54 = *aws_catalog().find("c5.4xlarge");
  const Deployment d{c54, 10};
  EXPECT_LT(spot.hourly_price(d), 0.5 * on_demand.hourly_price(d));
  EXPECT_EQ(spot.market(), Market::kSpot);
  EXPECT_EQ(on_demand.market(), Market::kOnDemand);
}

TEST(Spot, RestartOverheadScalesWithNodes) {
  const DeploymentSpace spot(aws_catalog(), 50, Market::kSpot);
  const std::size_t c54 = *aws_catalog().find("c5.4xlarge");
  const double one = spot.restart_overhead_multiplier({c54, 1});
  const double many = spot.restart_overhead_multiplier({c54, 40});
  EXPECT_GT(one, 1.0);
  EXPECT_GT(many, one);
  // On-demand has no overhead.
  const DeploymentSpace od(aws_catalog(), 50);
  EXPECT_DOUBLE_EQ(od.restart_overhead_multiplier({c54, 40}), 1.0);
}

TEST(Spot, GpuOverheadExceedsCpuAtSameScale) {
  const DeploymentSpace spot(aws_catalog(), 50, Market::kSpot);
  const std::size_t cpu = *aws_catalog().find("c5.4xlarge");
  const std::size_t gpu = *aws_catalog().find("p3.2xlarge");
  EXPECT_GT(spot.restart_overhead_multiplier({gpu, 10}),
            spot.restart_overhead_multiplier({cpu, 10}));
}

// ------------------------------------------------------------- catalog io

TEST(CatalogIo, RoundTripPreservesEveryField) {
  const std::string path = testing::TempDir() + "/mlcd_catalog.csv";
  save_catalog_csv(aws_catalog(), path);
  const InstanceCatalog loaded = load_catalog_csv(path);
  ASSERT_EQ(loaded.size(), aws_catalog().size());
  for (std::size_t i = 0; i < loaded.size(); ++i) {
    const InstanceSpec& a = aws_catalog().at(i);
    const InstanceSpec& b = loaded.at(i);
    EXPECT_EQ(a.name, b.name);
    EXPECT_EQ(a.family, b.family);
    EXPECT_EQ(a.device, b.device);
    EXPECT_EQ(a.vcpus, b.vcpus);
    EXPECT_EQ(a.gpus, b.gpus);
    EXPECT_DOUBLE_EQ(a.mem_gib, b.mem_gib);
    EXPECT_DOUBLE_EQ(a.network_gbps, b.network_gbps);
    EXPECT_DOUBLE_EQ(a.price_per_hour, b.price_per_hour);
    EXPECT_DOUBLE_EQ(a.spot_price_per_hour, b.spot_price_per_hour);
    EXPECT_DOUBLE_EQ(a.spot_revocations_per_hour,
                     b.spot_revocations_per_hour);
    EXPECT_DOUBLE_EQ(a.effective_tflops, b.effective_tflops);
  }
  std::filesystem::remove(path);
}

TEST(CatalogIo, RejectsMalformedFiles) {
  const std::string path = testing::TempDir() + "/mlcd_catalog_bad.csv";
  EXPECT_THROW(load_catalog_csv("/nonexistent-zzz/cat.csv"),
               std::runtime_error);
  {
    std::ofstream out(path);
    out << "wrong,header\n";
  }
  EXPECT_THROW(load_catalog_csv(path), std::invalid_argument);
  {
    std::ofstream out(path);
    out << "name,family,device,vcpus,gpus,mem_gib,network_gbps,"
           "price_per_hour,spot_price_per_hour,spot_revocations_per_hour,"
           "effective_tflops\n";
    out << "x,f,warp-core,1,0,1,1,1,0.3,0.01,1\n";
  }
  EXPECT_THROW(load_catalog_csv(path), std::invalid_argument);
  {
    std::ofstream out(path);
    out << "name,family,device,vcpus,gpus,mem_gib,network_gbps,"
           "price_per_hour,spot_price_per_hour,spot_revocations_per_hour,"
           "effective_tflops\n";
    out << "x,f,cpu-avx512,1,0,1,1,abc,0.3,0.01,1\n";
  }
  EXPECT_THROW(load_catalog_csv(path), std::invalid_argument);
  std::filesystem::remove(path);
}

TEST(CatalogIo, DeviceKindNamesRoundTrip) {
  for (DeviceKind kind :
       {DeviceKind::kCpuAvx2, DeviceKind::kCpuAvx512, DeviceKind::kCpuBurst,
        DeviceKind::kGpuK80, DeviceKind::kGpuV100, DeviceKind::kGpuM60}) {
    EXPECT_EQ(device_kind_from_name(std::string(device_kind_name(kind))),
              kind);
  }
  EXPECT_THROW(device_kind_from_name("tpu-v4"), std::invalid_argument);
}

// -------------------------------------------------------------- billing

TEST(Billing, ChargesPricePerHourTimesNodes) {
  const DeploymentSpace space(aws_catalog(), 50);
  BillingMeter meter(space);
  const std::size_t c5x = *aws_catalog().find("c5.xlarge");
  const double cost = meter.charge({c5x, 10}, 2.0, UsageKind::kTraining);
  EXPECT_NEAR(cost, 10 * 0.17 * 2.0, 1e-6);
  EXPECT_NEAR(meter.total_cost(), cost, 1e-12);
}

TEST(Billing, MinimumBillingApplies) {
  const DeploymentSpace space(aws_catalog(), 50);
  BillingMeter meter(space, /*minimum_seconds=*/60.0);
  const std::size_t c5x = *aws_catalog().find("c5.xlarge");
  // 10 seconds of usage billed as 60 seconds.
  const double cost =
      meter.charge({c5x, 1}, 10.0 / 3600.0, UsageKind::kProfiling);
  EXPECT_NEAR(cost, 0.17 * 60.0 / 3600.0, 1e-9);
}

TEST(Billing, SecondsRoundedUp) {
  const DeploymentSpace space(aws_catalog(), 50);
  BillingMeter meter(space, 0.0);
  const std::size_t c5x = *aws_catalog().find("c5.xlarge");
  meter.charge({c5x, 1}, 100.4 / 3600.0, UsageKind::kProfiling);
  EXPECT_NEAR(meter.records()[0].billed_hours, 101.0 / 3600.0, 1e-12);
}

TEST(Billing, SplitsByUsageKind) {
  const DeploymentSpace space(aws_catalog(), 50);
  BillingMeter meter(space);
  const std::size_t c5x = *aws_catalog().find("c5.xlarge");
  meter.charge({c5x, 1}, 1.0, UsageKind::kProfiling);
  meter.charge({c5x, 1}, 2.0, UsageKind::kTraining);
  EXPECT_NEAR(meter.total_cost(UsageKind::kProfiling), 0.17, 1e-9);
  EXPECT_NEAR(meter.total_cost(UsageKind::kTraining), 0.34, 1e-9);
  EXPECT_NEAR(meter.total_hours(UsageKind::kProfiling), 1.0, 1e-12);
  EXPECT_NEAR(meter.total_hours(UsageKind::kTraining), 2.0, 1e-12);
}

TEST(Billing, NegativeHoursThrow) {
  const DeploymentSpace space(aws_catalog(), 50);
  BillingMeter meter(space);
  EXPECT_THROW(meter.charge({0, 1}, -1.0, UsageKind::kTraining),
               std::invalid_argument);
}

TEST(Billing, ResetClearsRecords) {
  const DeploymentSpace space(aws_catalog(), 50);
  BillingMeter meter(space);
  meter.charge({0, 1}, 1.0, UsageKind::kTraining);
  meter.reset();
  EXPECT_EQ(meter.records().size(), 0u);
  EXPECT_DOUBLE_EQ(meter.total_cost(), 0.0);
}

}  // namespace
}  // namespace mlcd::cloud
