// Unit tests for src/profiler: probe accounting, noise, stability
// extension, billing integration, and the watchdog's real-time deadline.
#include <gtest/gtest.h>

#include <latch>
#include <memory>
#include <stdexcept>
#include <thread>

#include "cloud/billing.hpp"
#include "models/model_zoo.hpp"
#include "perf/perf_model.hpp"
#include "profiler/profiler.hpp"

namespace mlcd::profiler {
namespace {

class ProfilerTest : public testing::Test {
 protected:
  ProfilerTest()
      : space_(cloud::aws_catalog(), 50),
        perf_(cloud::aws_catalog()),
        meter_(space_) {}

  perf::TrainingConfig config(const char* model = "resnet") const {
    perf::TrainingConfig c;
    c.model = models::paper_zoo().model(model);
    c.platform = perf::tensorflow_profile();
    c.topology = perf::CommTopology::kParameterServer;
    return c;
  }

  std::size_t type_of(const char* name) const {
    return *cloud::aws_catalog().find(name);
  }

  cloud::DeploymentSpace space_;
  perf::TrainingPerfModel perf_;
  cloud::BillingMeter meter_;
};

TEST_F(ProfilerTest, TimeRuleMatchesPaper) {
  // §V-A: 10 minutes for a single node, +1 minute per 3 extra nodes.
  // resnet iterations are fast enough that no window stretch applies.
  Profiler profiler(perf_, space_, meter_, 1);
  const auto cfg = config();
  EXPECT_NEAR(profiler.expected_profile_hours(cfg, {0, 1}), 10.0 / 60.0,
              1e-12);
  EXPECT_NEAR(profiler.expected_profile_hours(cfg, {0, 4}), 11.0 / 60.0,
              1e-12);
  EXPECT_NEAR(profiler.expected_profile_hours(cfg, {0, 7}), 12.0 / 60.0,
              1e-12);
  EXPECT_NEAR(profiler.expected_profile_hours(cfg, {0, 49}), 26.0 / 60.0,
              1e-12);
}

TEST_F(ProfilerTest, CostIsPriceTimesNodesTimesTime) {
  // Paper Eq. 8: PL_C = P(m) * n * t(m, n).
  Profiler profiler(perf_, space_, meter_, 1);
  const cloud::Deployment d{type_of("c5.xlarge"), 10};
  EXPECT_NEAR(profiler.expected_profile_cost(config(), d),
              0.17 * 10 * (13.0 / 60.0), 1e-9);
}

TEST_F(ProfilerTest, HugeModelStretchesTheWindow) {
  // A 20B-parameter model's iterations cannot fit the 10-minute window
  // on a small deployment: the probe (and its bill) stretches. This is
  // the second face of heterogeneous profiling cost.
  Profiler profiler(perf_, space_, meter_, 1);
  const auto big = config("zero_20b");
  const cloud::Deployment d{type_of("p3.16xlarge"), 4};
  EXPECT_GT(profiler.expected_profile_hours(big, d), 10.0 / 60.0);
}

TEST_F(ProfilerTest, MeasurementNearTruth) {
  Profiler profiler(perf_, space_, meter_, 7);
  const cloud::Deployment d{type_of("c5.4xlarge"), 10};
  const ProfileResult r = profiler.profile(config(), {d});
  EXPECT_TRUE(r.feasible);
  EXPECT_GT(r.true_speed, 0.0);
  EXPECT_NEAR(r.measured_speed / r.true_speed, 1.0, 0.05);
}

TEST_F(ProfilerTest, MeasurementsAreNoisyAcrossProbes) {
  Profiler profiler(perf_, space_, meter_, 7);
  const cloud::Deployment d{type_of("c5.4xlarge"), 10};
  const ProfileResult a = profiler.profile(config(), {d});
  const ProfileResult b = profiler.profile(config(), {d});
  EXPECT_NE(a.measured_speed, b.measured_speed);
  EXPECT_DOUBLE_EQ(a.true_speed, b.true_speed);
}

TEST_F(ProfilerTest, DeterministicPerSeed) {
  cloud::BillingMeter m1(space_), m2(space_);
  Profiler p1(perf_, space_, m1, 42), p2(perf_, space_, m2, 42);
  const cloud::Deployment d{type_of("c5.4xlarge"), 10};
  EXPECT_DOUBLE_EQ(p1.profile(config(), {d}).measured_speed,
                   p2.profile(config(), {d}).measured_speed);
}

TEST_F(ProfilerTest, ChargesBillingMeter) {
  Profiler profiler(perf_, space_, meter_, 1);
  const cloud::Deployment d{type_of("c5.xlarge"), 1};
  const ProfileResult r = profiler.profile(config(), {d});
  EXPECT_NEAR(meter_.total_cost(cloud::UsageKind::kProfiling),
              r.profile_cost, 1e-12);
  EXPECT_DOUBLE_EQ(meter_.total_cost(cloud::UsageKind::kTraining), 0.0);
}

TEST_F(ProfilerTest, HighNoiseTriggersExtension) {
  ProfilerOptions options;
  options.noise_sigma = 0.5;     // very unstable measurements
  options.cov_threshold = 0.05;  // strict stability requirement
  options.max_extensions = 3;
  Profiler profiler(perf_, space_, meter_, 3, options);
  const ProfileResult r =
      profiler.profile(config(), {type_of("c5.4xlarge"), 4});
  EXPECT_GT(r.extensions, 0);
  EXPECT_GT(r.profile_hours, profiler.expected_profile_hours(
                                 config(), {type_of("c5.4xlarge"), 4}));
  EXPECT_GT(r.iterations, options.iterations);
}

TEST_F(ProfilerTest, LowNoiseNeedsNoExtension) {
  ProfilerOptions options;
  options.noise_sigma = 0.005;
  Profiler profiler(perf_, space_, meter_, 3, options);
  const ProfileResult r =
      profiler.profile(config(), {type_of("c5.4xlarge"), 4});
  EXPECT_EQ(r.extensions, 0);
}

TEST_F(ProfilerTest, InfeasibleDeploymentStillBilled) {
  // zero_20b cannot fit on 2 K80 nodes; the probe discovers this but the
  // cluster time is still paid for.
  Profiler profiler(perf_, space_, meter_, 1);
  const ProfileResult r =
      profiler.profile(config("zero_20b"), {type_of("p2.xlarge"), 2});
  EXPECT_FALSE(r.feasible);
  EXPECT_DOUBLE_EQ(r.measured_speed, 0.0);
  EXPECT_GT(r.profile_cost, 0.0);
  EXPECT_GT(meter_.total_cost(), 0.0);
}

TEST_F(ProfilerTest, OutOfSpaceThrows) {
  Profiler profiler(perf_, space_, meter_, 1);
  EXPECT_THROW(profiler.profile(config(), {0, 51}), std::invalid_argument);
}

TEST_F(ProfilerTest, InvalidOptionsThrow) {
  ProfilerOptions bad;
  bad.iterations = 1;
  EXPECT_THROW(Profiler(perf_, space_, meter_, 1, bad),
               std::invalid_argument);
  ProfilerOptions bad2;
  bad2.base_profile_hours = 0.0;
  EXPECT_THROW(Profiler(perf_, space_, meter_, 1, bad2),
               std::invalid_argument);
}

TEST_F(ProfilerTest, ProbeCountIncrements) {
  Profiler profiler(perf_, space_, meter_, 1);
  EXPECT_EQ(profiler.probes_performed(), 0);
  profiler.profile(config(), {type_of("c5.xlarge"), 1});
  profiler.profile(config(), {type_of("c5.xlarge"), 2});
  EXPECT_EQ(profiler.probes_performed(), 2);
}

// A served probe (journal replay, cache hit) must leave the profiler's
// seeded stream exactly where running the probe would have: the next
// live probe's noise and retry backoffs are drawn from it.
TEST_F(ProfilerTest, ServedProbeLeavesTheStreamWhereALiveProbeDoes) {
  ProfilerOptions options;
  options.faults.launch_failure_per_node = 0.05;  // retries draw backoffs
  cloud::BillingMeter live_meter(space_), served_meter(space_);
  Profiler live(perf_, space_, live_meter, 11, options);
  Profiler served(perf_, space_, served_meter, 11, options);
  const cloud::Deployment d{type_of("c5.4xlarge"), 6};
  constexpr int k = 3;
  for (int i = 1; i < k; ++i) {
    live.profile(config(), {d});
    served.profile(config(), {d});
  }
  const ProfileResult measured = live.profile(config(), {d});
  served.set_replay({measurement_record(measured)});
  const ProfileResult replayed = served.profile(config(), {d});
  ASSERT_TRUE(replayed.replayed);
  EXPECT_EQ(replayed.measured_speed, measured.measured_speed);

  int retries = 0;
  for (int i = 0; i < 6; ++i) {
    const ProfileResult a = live.profile(config(), {d});
    const ProfileResult b = served.profile(config(), {d});
    ASSERT_FALSE(b.replayed);
    EXPECT_EQ(a.measured_speed, b.measured_speed) << "probe " << k + 1 + i;
    ASSERT_EQ(a.attempt_log.size(), b.attempt_log.size());
    for (std::size_t j = 0; j < a.attempt_log.size(); ++j) {
      EXPECT_EQ(a.attempt_log[j].fault, b.attempt_log[j].fault);
      EXPECT_EQ(a.attempt_log[j].hours, b.attempt_log[j].hours);
      EXPECT_EQ(a.attempt_log[j].cost, b.attempt_log[j].cost);
      EXPECT_EQ(a.attempt_log[j].backoff_hours,
                b.attempt_log[j].backoff_hours);
    }
    retries += static_cast<int>(a.attempt_log.size()) - 1;
  }
  // The comparison covered jittered backoffs, not only noise draws.
  EXPECT_GT(retries, 0);
}

// ------------------------------------------------------ run_with_deadline

TEST(RunWithDeadline, BlockedTaskExpiresAndIsAbandonedNotCancelled) {
  // The task owns everything it touches (shared_ptrs into the latches),
  // as an abandoned task must.
  const auto release = std::make_shared<std::latch>(1);
  const auto finished = std::make_shared<std::latch>(1);
  EXPECT_FALSE(run_with_deadline(
      [release, finished] {
        release->wait();
        finished->count_down();
      },
      0.05));
  // Nothing cancelled the task: once the latch opens, the abandoned
  // helper runs it to completion.
  release->count_down();
  finished->wait();
}

TEST(RunWithDeadline, TaskFinishedInTimeReturnsTrueOrRethrows) {
  const auto ran_on = std::make_shared<std::thread::id>();
  EXPECT_TRUE(run_with_deadline(
      [ran_on] { *ran_on = std::this_thread::get_id(); }, 60.0));
  EXPECT_NE(*ran_on, std::this_thread::get_id());

  EXPECT_THROW(run_with_deadline(
                   [] { throw std::runtime_error("measurement failed"); },
                   60.0),
               std::runtime_error);
}

TEST(RunWithDeadline, NonPositiveTimeoutRunsInlineOnTheCaller) {
  for (const double timeout : {0.0, -1.0}) {
    std::thread::id ran_on;
    EXPECT_TRUE(run_with_deadline(
        [&ran_on] { ran_on = std::this_thread::get_id(); }, timeout));
    EXPECT_EQ(ran_on, std::this_thread::get_id()) << timeout;
  }
}

}  // namespace
}  // namespace mlcd::profiler
