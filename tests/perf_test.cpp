// Unit and property tests for src/perf: the training performance model.
//
// These tests pin the *qualitative* behaviours the paper's search method
// depends on: concave scale-out curves, non-linear scale-up, CPU/GPU
// efficiency crossovers by model kind, topology and platform effects, and
// memory feasibility (incl. ZeRO partitioning).
#include <gtest/gtest.h>

#include <cmath>
#include <ostream>
#include <string>
#include <vector>

#include "cloud/instance.hpp"
#include "models/model_zoo.hpp"
#include "perf/perf_model.hpp"
#include "perf/platform.hpp"

namespace mlcd::perf {
namespace {

TrainingConfig config_for(const char* model, const char* platform,
                          CommTopology topology) {
  TrainingConfig c;
  c.model = models::paper_zoo().model(model);
  c.platform = platform_by_name(platform);
  c.topology = topology;
  return c;
}

std::size_t type_of(const char* name) {
  return *cloud::aws_catalog().find(name);
}

class PerfModelTest : public testing::Test {
 protected:
  TrainingPerfModel perf_{cloud::aws_catalog()};
};

// ------------------------------------------------------------ basic sanity

TEST_F(PerfModelTest, SingleNodeHasNoCommunication) {
  const auto cfg = config_for("resnet", "tensorflow",
                              CommTopology::kParameterServer);
  const IterationBreakdown b = perf_.breakdown(cfg, {type_of("c5.xlarge"), 1});
  EXPECT_TRUE(b.feasible);
  EXPECT_DOUBLE_EQ(b.comm_s, 0.0);
  EXPECT_DOUBLE_EQ(b.iteration_s, b.compute_s);
  EXPECT_GT(b.speed, 0.0);
}

TEST_F(PerfModelTest, SpeedDeterministic) {
  const auto cfg = config_for("resnet", "tensorflow",
                              CommTopology::kParameterServer);
  const cloud::Deployment d{type_of("c5.4xlarge"), 10};
  EXPECT_DOUBLE_EQ(perf_.true_speed(cfg, d), perf_.true_speed(cfg, d));
}

TEST_F(PerfModelTest, TrainingHoursMatchesSpeed) {
  const auto cfg = config_for("resnet", "tensorflow",
                              CommTopology::kParameterServer);
  const cloud::Deployment d{type_of("c5.4xlarge"), 10};
  const double speed = perf_.true_speed(cfg, d);
  const auto hours = perf_.training_hours(cfg, d);
  ASSERT_TRUE(hours.has_value());
  EXPECT_NEAR(*hours, cfg.model.samples_to_train / speed / 3600.0, 1e-9);
}

TEST_F(PerfModelTest, InvalidOptionsThrow) {
  PerfModelOptions bad;
  bad.ps_incast_alpha = -1.0;
  EXPECT_THROW(TrainingPerfModel(cloud::aws_catalog(), bad),
               std::invalid_argument);
  PerfModelOptions bad2;
  bad2.zero_comm_factor = 0.5;
  EXPECT_THROW(TrainingPerfModel(cloud::aws_catalog(), bad2),
               std::invalid_argument);
}

TEST_F(PerfModelTest, ZeroNodesThrows) {
  const auto cfg = config_for("resnet", "tensorflow",
                              CommTopology::kParameterServer);
  EXPECT_THROW(perf_.breakdown(cfg, {0, 0}), std::invalid_argument);
}

// -------------------------------------------------- concave scale-out (3b)

// Property over (model x type): the scale-out curve rises, peaks, then
// declines — and never collapses between n=1 and n=2 (the shape the
// concavity prior depends on).
struct ScaleOutCase {
  const char* model;
  const char* type;
  CommTopology topology;
};

// Prints the case by value. Without it gtest dumps the struct's raw
// bytes — two string pointers and padding — so the parameterized test
// names would change with every build and every address-space layout.
void PrintTo(const ScaleOutCase& c, std::ostream* os) {
  *os << c.model << ' ' << c.type << ' ' << comm_topology_name(c.topology);
}

class ScaleOutShape : public testing::TestWithParam<ScaleOutCase> {};

TEST_P(ScaleOutShape, ConcaveWithInteriorPeak) {
  const ScaleOutCase& c = GetParam();
  TrainingPerfModel perf(cloud::aws_catalog());
  const auto cfg = config_for(c.model, "tensorflow", c.topology);
  const std::size_t t = type_of(c.type);

  std::vector<double> speed;
  for (int n = 1; n <= 50; ++n) {
    speed.push_back(perf.true_speed(cfg, {t, n}));
  }
  // Find the peak.
  std::size_t peak = 0;
  for (std::size_t i = 1; i < speed.size(); ++i) {
    if (speed[i] > speed[peak]) peak = i;
  }
  // Rises to the peak...
  for (std::size_t i = 1; i <= peak; ++i) {
    EXPECT_GE(speed[i], speed[i - 1] * 0.999) << "dip before peak at n="
                                              << i + 1;
  }
  // ...and declines monotonically after it.
  for (std::size_t i = peak + 1; i < speed.size(); ++i) {
    EXPECT_LE(speed[i], speed[i - 1] * 1.001) << "rise after peak at n="
                                              << i + 1;
  }
  // Scale-out helps at all before communication wins.
  EXPECT_GT(speed[peak], speed[0] * 1.5);
  // The peak is interior: the curve does decline inside the space.
  EXPECT_LT(peak, speed.size() - 1);
}

INSTANTIATE_TEST_SUITE_P(
    PaperWorkloads, ScaleOutShape,
    testing::Values(
        ScaleOutCase{"resnet", "c5.4xlarge", CommTopology::kParameterServer},
        ScaleOutCase{"resnet", "c5.xlarge", CommTopology::kParameterServer},
        ScaleOutCase{"alexnet", "c5.4xlarge", CommTopology::kParameterServer},
        ScaleOutCase{"char_rnn", "c5.xlarge", CommTopology::kParameterServer},
        ScaleOutCase{"char_rnn", "p2.xlarge", CommTopology::kParameterServer},
        ScaleOutCase{"resnet", "c5.4xlarge", CommTopology::kRingAllReduce}));

// ------------------------------------------------ non-linear scale-up (3a)

TEST_F(PerfModelTest, ScaleUpIsSublinearWithinFamily) {
  const auto cfg = config_for("char_rnn", "tensorflow",
                              CommTopology::kParameterServer);
  const double s_x = perf_.true_speed(cfg, {type_of("c5.xlarge"), 1});
  const double s_4x = perf_.true_speed(cfg, {type_of("c5.4xlarge"), 1});
  // 4x the vCPUs helps, but less than 4x (paper Fig. 3a's non-linearity).
  EXPECT_GT(s_4x, 2.0 * s_x);
  EXPECT_LT(s_4x, 4.0 * s_x);
}

TEST_F(PerfModelTest, ScaleUpMonotoneWithinFamily) {
  const auto cfg = config_for("char_rnn", "tensorflow",
                              CommTopology::kParameterServer);
  const auto& cat = cloud::aws_catalog();
  double prev = 0.0;
  for (std::size_t idx : cat.family_indices("c5")) {
    const double s = perf_.true_speed(cfg, {idx, 1});
    EXPECT_GT(s, prev) << cat.at(idx).name;
    prev = s;
  }
}

// ---------------------------------------------- device efficiency (Fig 1b)

TEST(DeviceEfficiency, RnnsUnderutilizeGpus) {
  EXPECT_LT(model_device_efficiency(models::ModelKind::kRnn,
                                    cloud::DeviceKind::kGpuK80),
            0.5);
  EXPECT_DOUBLE_EQ(model_device_efficiency(models::ModelKind::kRnn,
                                           cloud::DeviceKind::kCpuAvx512),
                   1.0);
}

TEST(DeviceEfficiency, TransformersPreferGpus) {
  EXPECT_GT(model_device_efficiency(models::ModelKind::kTransformer,
                                    cloud::DeviceKind::kGpuV100),
            model_device_efficiency(models::ModelKind::kTransformer,
                                    cloud::DeviceKind::kCpuAvx512));
}

TEST_F(PerfModelTest, Fig1bEqualCostComparison) {
  // Paper Fig. 1b: at equal $/h, 10 x c5.4xlarge beats both 40 x
  // c5.xlarge and 9 x p2.xlarge for Char-RNN, by roughly 3x over the
  // worst option.
  const auto cfg = config_for("char_rnn", "tensorflow",
                              CommTopology::kParameterServer);
  const double many_small =
      perf_.true_speed(cfg, {type_of("c5.xlarge"), 40});
  const double balanced =
      perf_.true_speed(cfg, {type_of("c5.4xlarge"), 10});
  const double few_gpu = perf_.true_speed(cfg, {type_of("p2.xlarge"), 9});
  EXPECT_GT(balanced, many_small);
  EXPECT_GT(balanced, few_gpu);
  EXPECT_GT(balanced / few_gpu, 2.0);
}

TEST_F(PerfModelTest, CnnFastestOnV100) {
  const auto cfg = config_for("resnet", "tensorflow",
                              CommTopology::kParameterServer);
  const double gpu = perf_.true_speed(cfg, {type_of("p3.2xlarge"), 1});
  const double cpu = perf_.true_speed(cfg, {type_of("c5.4xlarge"), 1});
  EXPECT_GT(gpu, cpu);
}

// ------------------------------------------------------- topology effects

TEST_F(PerfModelTest, RingBeatsPsForLargeGradientsAtScale) {
  // BERT's 1.36 GB gradient: ring all-reduce's bandwidth-optimal exchange
  // should beat PS incast at moderate scale.
  const auto ps = config_for("bert", "tensorflow",
                             CommTopology::kParameterServer);
  const auto ring = config_for("bert", "tensorflow",
                               CommTopology::kRingAllReduce);
  const cloud::Deployment d{type_of("c5n.4xlarge"), 16};
  EXPECT_GT(perf_.true_speed(ring, d), perf_.true_speed(ps, d));
}

TEST_F(PerfModelTest, TopologyIrrelevantOnSingleNode) {
  const auto ps = config_for("resnet", "tensorflow",
                             CommTopology::kParameterServer);
  const auto ring = config_for("resnet", "tensorflow",
                               CommTopology::kRingAllReduce);
  const cloud::Deployment d{type_of("c5.4xlarge"), 1};
  EXPECT_DOUBLE_EQ(perf_.true_speed(ps, d), perf_.true_speed(ring, d));
}

TEST_F(PerfModelTest, BetterNicHelpsCommBoundWorkloads) {
  // c5n.4xlarge has 3x the NIC of c5.4xlarge at the same compute: a
  // comm-bound workload (BERT PS at scale) must benefit.
  const auto cfg = config_for("bert", "tensorflow",
                              CommTopology::kRingAllReduce);
  const double c5 = perf_.true_speed(cfg, {type_of("c5.4xlarge"), 16});
  const double c5n = perf_.true_speed(cfg, {type_of("c5n.4xlarge"), 16});
  EXPECT_GT(c5n, c5 * 1.25);
}

// ------------------------------------------------------- platform effects

TEST(Platform, ByNameAndErrors) {
  EXPECT_EQ(platform_by_name("tensorflow").name, "tensorflow");
  EXPECT_EQ(platform_by_name("mxnet").name, "mxnet");
  EXPECT_THROW(platform_by_name("caffe"), std::invalid_argument);
}

TEST(Platform, TopologyNames) {
  EXPECT_EQ(comm_topology_name(CommTopology::kParameterServer),
            "parameter-server");
  EXPECT_EQ(comm_topology_name(CommTopology::kRingAllReduce),
            "ring-all-reduce");
}

TEST_F(PerfModelTest, PlatformsDifferButAgreeQualitatively) {
  const auto tf = config_for("bert", "tensorflow",
                             CommTopology::kRingAllReduce);
  const auto mx = config_for("bert", "mxnet", CommTopology::kRingAllReduce);
  const cloud::Deployment d{type_of("c5n.4xlarge"), 8};
  const double s_tf = perf_.true_speed(tf, d);
  const double s_mx = perf_.true_speed(mx, d);
  EXPECT_NE(s_tf, s_mx);
  EXPECT_NEAR(s_tf / s_mx, 1.0, 0.35);  // same ballpark
}

TEST(Platform, OverlapSelection) {
  const PlatformProfile tf = tensorflow_profile();
  EXPECT_DOUBLE_EQ(tf.overlap(CommTopology::kParameterServer),
                   tf.overlap_ps);
  EXPECT_DOUBLE_EQ(tf.overlap(CommTopology::kRingAllReduce),
                   tf.overlap_ring);
}

// --------------------------------------------------- feasibility and ZeRO

TEST_F(PerfModelTest, LargeModelDoesNotFitWithoutPartitioning) {
  // 20B params x 16 B = 298 GiB of training state vs 128 GiB of GPU
  // memory on p3.16xlarge: infeasible without state partitioning.
  PerfModelOptions no_zero;
  no_zero.allow_zero_partitioning = false;
  TrainingPerfModel perf(cloud::aws_catalog(), no_zero);
  const auto cfg = config_for("zero_20b", "tensorflow",
                              CommTopology::kRingAllReduce);
  EXPECT_DOUBLE_EQ(perf.true_speed(cfg, {type_of("p3.16xlarge"), 1}), 0.0);
  EXPECT_FALSE(
      perf.training_hours(cfg, {type_of("p3.16xlarge"), 1}).has_value());
}

TEST_F(PerfModelTest, ZeroPartitioningUnlocksLargeModels) {
  const auto cfg = config_for("zero_20b", "tensorflow",
                              CommTopology::kRingAllReduce);
  // 298 GiB of state split across 4 x 128 GiB nodes fits.
  const IterationBreakdown b =
      perf_.breakdown(cfg, {type_of("p3.16xlarge"), 4});
  EXPECT_TRUE(b.feasible);
  EXPECT_TRUE(b.used_zero_partitioning);
}

TEST_F(PerfModelTest, Bert8bFitsBigGpuNodeWithoutPartitioning) {
  // 8B x 16 B = 119 GiB just fits p3.16xlarge's 128 GiB — no ZeRO needed.
  const auto cfg = config_for("zero_8b", "tensorflow",
                              CommTopology::kRingAllReduce);
  const IterationBreakdown b =
      perf_.breakdown(cfg, {type_of("p3.16xlarge"), 1});
  EXPECT_TRUE(b.feasible);
  EXPECT_FALSE(b.used_zero_partitioning);
}

TEST_F(PerfModelTest, ZeroPartitioningStillBoundedByNodeCount) {
  const auto cfg = config_for("zero_20b", "tensorflow",
                              CommTopology::kRingAllReduce);
  // 20B x 16 B = 320 GB over 2 K80 nodes (12 GB each) cannot fit.
  EXPECT_DOUBLE_EQ(perf_.true_speed(cfg, {type_of("p2.xlarge"), 2}), 0.0);
}

TEST_F(PerfModelTest, SmallModelsNeverUseZero) {
  const auto cfg = config_for("alexnet", "tensorflow",
                              CommTopology::kParameterServer);
  const IterationBreakdown b =
      perf_.breakdown(cfg, {type_of("c5.xlarge"), 10});
  EXPECT_TRUE(b.feasible);
  EXPECT_FALSE(b.used_zero_partitioning);
}

// ------------------------------------------- full catalog x model sweep

// Property sweep over the entire 62-type catalog x the full model zoo:
// the substrate must be well-behaved everywhere — finite non-negative
// speeds, memory-consistent feasibility, breakdown components that add
// up — because searchers may probe any point.
class SubstrateSweep : public testing::TestWithParam<const char*> {};

TEST_P(SubstrateSweep, WellBehavedEverywhere) {
  TrainingPerfModel perf(cloud::aws_catalog());
  const auto cfg = config_for(GetParam(), "tensorflow",
                              CommTopology::kRingAllReduce);
  for (std::size_t t = 0; t < cloud::aws_catalog().size(); ++t) {
    for (int n : {1, 2, 7, 20, 50}) {
      const cloud::Deployment d{t, n};
      const IterationBreakdown b = perf.breakdown(cfg, d);
      // Feasibility agrees with the static memory check.
      EXPECT_EQ(b.feasible, perf.memory_feasible(cfg, d))
          << cloud::aws_catalog().at(t).name << " n=" << n;
      if (!b.feasible) {
        EXPECT_DOUBLE_EQ(b.speed, 0.0);
        continue;
      }
      EXPECT_TRUE(std::isfinite(b.speed));
      EXPECT_GT(b.speed, 0.0);
      EXPECT_GT(b.compute_s, 0.0);
      EXPECT_GE(b.comm_s, 0.0);
      // The iteration cannot be shorter than compute, nor longer than
      // compute + comm (overlap only helps).
      EXPECT_GE(b.iteration_s, b.compute_s - 1e-12);
      EXPECT_LE(b.iteration_s, b.compute_s + b.comm_s + 1e-12);
      // Aggregate speed is n*batch per iteration.
      EXPECT_NEAR(b.speed,
                  n * cfg.model.batch_per_node / b.iteration_s,
                  1e-6 * b.speed);
    }
  }
}

TEST_P(SubstrateSweep, SingleNodeCommFreeEverywhere) {
  TrainingPerfModel perf(cloud::aws_catalog());
  const auto cfg = config_for(GetParam(), "mxnet",
                              CommTopology::kParameterServer);
  for (std::size_t t = 0; t < cloud::aws_catalog().size(); ++t) {
    const IterationBreakdown b = perf.breakdown(cfg, {t, 1});
    if (b.feasible) EXPECT_DOUBLE_EQ(b.comm_s, 0.0);
  }
}

INSTANTIATE_TEST_SUITE_P(AllModels, SubstrateSweep,
                         testing::Values("alexnet", "resnet",
                                         "inception_v3", "char_rnn",
                                         "bert", "zero_8b", "zero_20b"));

// ------------------------------------------------------ Paleo-style knobs

TEST(PerfOptions, RemovingNuancesInflatesLargeScaleSpeed) {
  // Zeroing congestion/straggler/scale-up losses (what the Paleo baseline
  // plans with) must over-predict speed at scale but match at n=1 apart
  // from scale-up efficiency.
  PerfModelOptions ideal;
  ideal.ps_incast_alpha = 0.0;
  ideal.ps_incast_beta = 0.0;
  ideal.ring_straggler_beta = 0.0;
  ideal.cpu_scaleup_exponent = 0.0;
  ideal.gpu_scaleup_exponent = 0.0;
  TrainingPerfModel real(cloud::aws_catalog());
  TrainingPerfModel paleo(cloud::aws_catalog(), ideal);
  const auto cfg = config_for("resnet", "tensorflow",
                              CommTopology::kParameterServer);
  const cloud::Deployment big{type_of("c5.4xlarge"), 40};
  EXPECT_GT(paleo.true_speed(cfg, big), real.true_speed(cfg, big) * 1.3);
}

}  // namespace
}  // namespace mlcd::perf
