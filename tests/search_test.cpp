// Unit and property tests for src/search: scenarios, result accounting,
// HeterBO and the baselines.
#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>
#include <fstream>
#include <set>
#include <string>
#include <vector>

#include "models/model_zoo.hpp"
#include "search/cherrypick.hpp"
#include "search/conv_bo.hpp"
#include "search/exhaustive.hpp"
#include "search/heter_bo.hpp"
#include "search/paleo.hpp"
#include "search/pareto.hpp"
#include "search/trace_io.hpp"
#include "search/random_search.hpp"

namespace mlcd::search {
namespace {

// Shared fixtures: a single-type scale-out space (the paper's §V-B
// setting) and a three-type space (the Fig. 15 setting).
class SearchTest : public testing::Test {
 protected:
  SearchTest()
      : cat1_(cloud::aws_catalog().subset(
            std::vector<std::string>{"c5.4xlarge"})),
        cat3_(cloud::aws_catalog().subset(std::vector<std::string>{
            "c5.xlarge", "c5.4xlarge", "p2.xlarge"})),
        space1_(cat1_, 50),
        space3_(cat3_, 50),
        perf1_(cat1_),
        perf3_(cat3_) {}

  SearchProblem problem1(Scenario scenario, std::uint64_t seed = 7) const {
    SearchProblem p;
    p.config.model = models::paper_zoo().model("resnet");
    p.config.platform = perf::tensorflow_profile();
    p.config.topology = perf::CommTopology::kParameterServer;
    p.space = &space1_;
    p.scenario = scenario;
    p.seed = seed;
    return p;
  }

  SearchProblem problem3(Scenario scenario, std::uint64_t seed = 7) const {
    SearchProblem p = problem1(scenario, seed);
    p.config.model = models::paper_zoo().model("char_rnn");
    p.space = &space3_;
    return p;
  }

  cloud::InstanceCatalog cat1_, cat3_;
  cloud::DeploymentSpace space1_, space3_;
  perf::TrainingPerfModel perf1_, perf3_;
};

// ---------------------------------------------------------------- scenario

TEST(Scenario, FactoriesSetKinds) {
  EXPECT_EQ(Scenario::fastest().kind, ScenarioKind::kFastest);
  EXPECT_EQ(Scenario::cheapest_under_deadline(6.0).kind,
            ScenarioKind::kCheapestUnderDeadline);
  EXPECT_EQ(Scenario::fastest_under_budget(100.0).kind,
            ScenarioKind::kFastestUnderBudget);
  EXPECT_FALSE(Scenario::fastest().has_deadline());
  EXPECT_FALSE(Scenario::fastest().has_budget());
  EXPECT_TRUE(Scenario::cheapest_under_deadline(6.0).has_deadline());
  EXPECT_TRUE(Scenario::fastest_under_budget(100.0).has_budget());
}

TEST(Scenario, InvalidBoundsThrow) {
  EXPECT_THROW(Scenario::cheapest_under_deadline(0.0),
               std::invalid_argument);
  EXPECT_THROW(Scenario::fastest_under_budget(-5.0), std::invalid_argument);
}

TEST(Scenario, ObjectiveBySpeedOrEfficiency) {
  EXPECT_DOUBLE_EQ(scenario_objective(Scenario::fastest(), 100.0, 2.0),
                   100.0);
  EXPECT_DOUBLE_EQ(
      scenario_objective(Scenario::fastest_under_budget(50.0), 100.0, 2.0),
      100.0);
  EXPECT_DOUBLE_EQ(
      scenario_objective(Scenario::cheapest_under_deadline(5.0), 100.0, 2.0),
      50.0);
  EXPECT_DOUBLE_EQ(scenario_objective(Scenario::fastest(), 0.0, 2.0), 0.0);
}

TEST(Scenario, DescribeMentionsBounds) {
  EXPECT_NE(Scenario::cheapest_under_deadline(6.0).describe().find("6.00"),
            std::string::npos);
  EXPECT_NE(Scenario::fastest_under_budget(100.0).describe().find("100.00"),
            std::string::npos);
}

// ------------------------------------------------------------ SearchResult

TEST(SearchResultTest, ConstraintChecks) {
  SearchResult r;
  r.found = true;
  r.profile_hours = 2.0;
  r.training_hours = 5.0;
  r.profile_cost = 20.0;
  r.training_cost = 70.0;
  EXPECT_TRUE(r.meets_constraints(Scenario::fastest()));
  EXPECT_TRUE(r.meets_constraints(Scenario::cheapest_under_deadline(7.5)));
  EXPECT_FALSE(r.meets_constraints(Scenario::cheapest_under_deadline(6.9)));
  EXPECT_TRUE(r.meets_constraints(Scenario::fastest_under_budget(90.0)));
  EXPECT_FALSE(r.meets_constraints(Scenario::fastest_under_budget(89.0)));
  r.found = false;
  EXPECT_FALSE(r.meets_constraints(Scenario::fastest()));
}

TEST(SearchResultTest, SummaryMentionsOutcome) {
  SearchResult r;
  r.method = "test-method";
  const std::string empty = r.summary(Scenario::fastest());
  EXPECT_NE(empty.find("no feasible"), std::string::npos);
  r.found = true;
  r.best_description = "10 x c5.4xlarge";
  const std::string ok = r.summary(Scenario::fastest());
  EXPECT_NE(ok.find("10 x c5.4xlarge"), std::string::npos);
}

// ----------------------------------------------------------------- HeterBO

TEST_F(SearchTest, HeterBoInitProbesEveryTypeSingleNode) {
  HeterBoSearcher hb(perf3_);
  const SearchResult r = hb.run(problem3(Scenario::fastest()));
  ASSERT_GE(r.trace.size(), 3u);
  std::set<std::size_t> init_types;
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(r.trace[i].reason, "init");
    EXPECT_EQ(r.trace[i].deployment.nodes, 1);
    init_types.insert(r.trace[i].deployment.type_index);
  }
  EXPECT_EQ(init_types.size(), 3u);
}

TEST_F(SearchTest, HeterBoSingleTypeInitUsesMidpoint) {
  HeterBoSearcher hb(perf1_);
  const SearchResult r = hb.run(problem1(Scenario::fastest()));
  ASSERT_GE(r.trace.size(), 2u);
  EXPECT_EQ(r.trace[0].deployment.nodes, 1);
  EXPECT_EQ(r.trace[1].deployment.nodes, 25);
  EXPECT_EQ(r.trace[1].reason, "curve");
}

TEST_F(SearchTest, HeterBoFindsNearOptimalScaleOut) {
  HeterBoSearcher hb(perf1_);
  const SearchResult r = hb.run(problem1(Scenario::fastest()));
  const auto opt = optimal_deployment(perf1_, problem1(Scenario::fastest()).config,
                                      space1_, Scenario::fastest());
  ASSERT_TRUE(r.found);
  ASSERT_TRUE(opt.has_value());
  // Within 10% of the optimal training speed.
  EXPECT_GT(r.best_true_speed, 0.9 * opt->best_true_speed);
}

// The paper's headline guarantee: HeterBO never violates user constraints.
// Property-tested across seeds and budget levels.
class HeterBoBudgetCompliance
    : public testing::TestWithParam<std::tuple<int, double>> {};

TEST_P(HeterBoBudgetCompliance, NeverExceedsBudget) {
  const auto [seed, budget] = GetParam();
  const auto cat = cloud::aws_catalog().subset(
      std::vector<std::string>{"c5.xlarge", "c5.4xlarge", "p2.xlarge"});
  const cloud::DeploymentSpace space(cat, 50);
  const perf::TrainingPerfModel perf(cat);

  SearchProblem p;
  p.config.model = models::paper_zoo().model("resnet");
  p.config.platform = perf::tensorflow_profile();
  p.config.topology = perf::CommTopology::kParameterServer;
  p.space = &space;
  p.scenario = Scenario::fastest_under_budget(budget);
  p.seed = static_cast<std::uint64_t>(seed);

  HeterBoSearcher hb(perf);
  const SearchResult r = hb.run(p);
  ASSERT_TRUE(r.found) << "seed=" << seed << " budget=" << budget;
  EXPECT_LE(r.total_cost(), budget)
      << "seed=" << seed << " budget=" << budget << " " << r.summary(p.scenario);
}

INSTANTIATE_TEST_SUITE_P(
    SeedsAndBudgets, HeterBoBudgetCompliance,
    testing::Combine(testing::Values(1, 2, 3, 5, 8, 13),
                     testing::Values(60.0, 100.0, 140.0, 220.0)));

class HeterBoDeadlineCompliance : public testing::TestWithParam<int> {};

TEST_P(HeterBoDeadlineCompliance, MeetsDeadlineWhenFeasible) {
  const int seed = GetParam();
  const auto cat = cloud::aws_catalog().subset(
      std::vector<std::string>{"c5.4xlarge"});
  const cloud::DeploymentSpace space(cat, 50);
  const perf::TrainingPerfModel perf(cat);

  SearchProblem p;
  p.config.model = models::paper_zoo().model("resnet");
  p.config.platform = perf::tensorflow_profile();
  p.config.topology = perf::CommTopology::kParameterServer;
  p.space = &space;
  p.scenario = Scenario::cheapest_under_deadline(8.0);
  p.seed = static_cast<std::uint64_t>(seed);

  HeterBoSearcher hb(perf);
  const SearchResult r = hb.run(p);
  ASSERT_TRUE(r.found);
  EXPECT_LE(r.total_hours(), 8.0) << r.summary(p.scenario);
}

INSTANTIATE_TEST_SUITE_P(Seeds, HeterBoDeadlineCompliance,
                         testing::Range(1, 9));

TEST_F(SearchTest, HeterBoConcavityPrunesDownSlope) {
  // After the search, verify no probe of a type landed beyond a node
  // count at which two earlier probes of that type already showed
  // declining speed.
  HeterBoSearcher hb(perf1_);
  const SearchResult r = hb.run(problem1(Scenario::fastest()));
  // Replay the trace: once a decline between consecutive (by n) probed
  // points is known, later probes must not exceed that n.
  std::vector<std::pair<int, double>> seen;  // (n, speed), kept sorted
  for (const ProbeStep& step : r.trace) {
    int prune_limit = std::numeric_limits<int>::max();
    std::vector<std::pair<int, double>> sorted = seen;
    std::sort(sorted.begin(), sorted.end());
    for (std::size_t i = 1; i < sorted.size(); ++i) {
      if (sorted[i].second < sorted[i - 1].second) {
        prune_limit = sorted[i].first;
        break;
      }
    }
    EXPECT_LE(step.deployment.nodes, prune_limit)
        << "probed past the known down-slope";
    seen.emplace_back(step.deployment.nodes, step.measured_speed);
  }
}

TEST_F(SearchTest, HeterBoCheaperProfilingThanConvBo) {
  // The headline mechanism: cost-aware acquisition + cheap init =>
  // substantially lower profiling spend (paper reports 16-21% on the
  // scale-out search; we assert the direction with margin there, and a
  // weaker margin on the harder multi-type space whose optimum sits at
  // the expensive far end).
  const SearchProblem p1 = problem1(Scenario::fastest());
  const SearchResult hb1 = HeterBoSearcher(perf1_).run(p1);
  const SearchResult cb1 = ConvBoSearcher(perf1_).run(p1);
  ASSERT_TRUE(hb1.found);
  ASSERT_TRUE(cb1.found);
  EXPECT_LT(hb1.profile_cost, 0.5 * cb1.profile_cost);

  const SearchProblem p3 = problem3(Scenario::fastest());
  const SearchResult hb3 = HeterBoSearcher(perf3_).run(p3);
  const SearchResult cb3 = ConvBoSearcher(perf3_).run(p3);
  EXPECT_LT(hb3.profile_cost, 0.95 * cb3.profile_cost);
}

TEST_F(SearchTest, HeterBoAblationKnobsChangeBehavior) {
  // The knobs must actually alter the probe strategy (the paper_claims
  // case ablation-heterbo quantifies their cost effect per workload),
  // and every variant that keeps the protective reserve must still meet
  // the budget.
  const SearchProblem p = problem3(Scenario::fastest_under_budget(120.0));

  HeterBoOptions no_cost;
  no_cost.cost_aware_acquisition = false;
  const SearchResult plain = HeterBoSearcher(perf3_).run(p);
  const SearchResult blind = HeterBoSearcher(perf3_, no_cost).run(p);

  auto traces_equal = [](const SearchResult& a, const SearchResult& b) {
    if (a.trace.size() != b.trace.size()) return false;
    for (std::size_t i = 0; i < a.trace.size(); ++i) {
      if (!(a.trace[i].deployment == b.trace[i].deployment)) return false;
    }
    return true;
  };
  EXPECT_FALSE(traces_equal(plain, blind));
  EXPECT_TRUE(plain.meets_constraints(p.scenario));
  EXPECT_TRUE(blind.meets_constraints(p.scenario));
}

TEST_F(SearchTest, HeterBoInvalidOptionsThrow) {
  HeterBoOptions bad;
  bad.max_probes = 1;
  EXPECT_THROW(HeterBoSearcher(perf1_, bad), std::invalid_argument);
  HeterBoOptions bad2;
  bad2.ci_confidence = 1.5;
  EXPECT_THROW(HeterBoSearcher(perf1_, bad2), std::invalid_argument);
}

TEST_F(SearchTest, HeterBoRespectsMaxProbes) {
  HeterBoOptions options;
  options.max_probes = 5;
  HeterBoSearcher hb(perf3_, options);
  const SearchResult r = hb.run(problem3(Scenario::fastest()));
  EXPECT_LE(r.trace.size(), 5u);
}

TEST_F(SearchTest, WarmStartPointsExtractFeasibleProbes) {
  const SearchResult first =
      HeterBoSearcher(perf3_).run(problem3(Scenario::fastest()));
  const auto points = warm_start_points(first);
  EXPECT_FALSE(points.empty());
  std::size_t feasible = 0;
  for (const ProbeStep& s : first.trace) {
    if (s.feasible) ++feasible;
  }
  EXPECT_EQ(points.size(), feasible);
  for (const WarmStartPoint& p : points) {
    EXPECT_GT(p.measured_speed, 0.0);
  }
}

TEST_F(SearchTest, WarmStartSkipsInitWaves) {
  const SearchProblem p = problem3(Scenario::fastest_under_budget(120.0));
  const SearchResult first = HeterBoSearcher(perf3_).run(p);

  HeterBoOptions warm;
  warm.warm_start = warm_start_points(first);
  SearchProblem again = p;
  again.seed = 99;
  const SearchResult second = HeterBoSearcher(perf3_, warm).run(again);
  ASSERT_TRUE(second.found);
  // No mandatory init/curve probes for warm-covered types.
  for (const ProbeStep& s : second.trace) {
    EXPECT_NE(s.reason, "init");
    EXPECT_NE(s.reason, "curve");
  }
  // And the constraint guarantee still holds.
  EXPECT_LE(second.total_cost(), 120.0);
}

TEST_F(SearchTest, WarmStartReducesProbeCount) {
  const SearchProblem p = problem3(Scenario::fastest_under_budget(120.0));
  const SearchResult first = HeterBoSearcher(perf3_).run(p);

  // The "changed job": same model, doubled per-node batch.
  SearchProblem changed = p;
  changed.config.model.batch_per_node *= 2;
  changed.seed = 11;

  const SearchResult cold = HeterBoSearcher(perf3_).run(changed);
  HeterBoOptions options;
  options.warm_start = warm_start_points(first);
  const SearchResult warm = HeterBoSearcher(perf3_, options).run(changed);

  ASSERT_TRUE(cold.found);
  ASSERT_TRUE(warm.found);
  EXPECT_LT(warm.trace.size(), cold.trace.size());
  EXPECT_LE(warm.total_cost(), 120.0);
}

TEST_F(SearchTest, TraceRoundTripsThroughCsv) {
  const SearchResult r =
      HeterBoSearcher(perf3_).run(problem3(Scenario::fastest()));
  const std::string path = testing::TempDir() + "/mlcd_trace.csv";
  save_trace_csv(path, r, space3_);

  const auto points = load_warm_start_csv(path, cat3_);
  const auto direct = warm_start_points(r);
  ASSERT_EQ(points.size(), direct.size());
  for (std::size_t i = 0; i < points.size(); ++i) {
    EXPECT_EQ(points[i].deployment, direct[i].deployment);
    EXPECT_NEAR(points[i].measured_speed, direct[i].measured_speed,
                1e-6 * direct[i].measured_speed);
  }
  std::filesystem::remove(path);
}

TEST_F(SearchTest, LoadWarmStartSkipsUnknownTypes) {
  const SearchResult r =
      HeterBoSearcher(perf3_).run(problem3(Scenario::fastest()));
  const std::string path = testing::TempDir() + "/mlcd_trace_subset.csv";
  save_trace_csv(path, r, space3_);

  // Resolve against a catalog missing two of the three types.
  const auto only_c54 =
      cloud::aws_catalog().subset(std::vector<std::string>{"c5.4xlarge"});
  const auto points = load_warm_start_csv(path, only_c54);
  EXPECT_FALSE(points.empty());
  for (const WarmStartPoint& p : points) {
    EXPECT_EQ(p.deployment.type_index, 0u);
  }
  std::filesystem::remove(path);
}

TEST_F(SearchTest, LoadWarmStartRejectsMalformedFiles) {
  EXPECT_THROW(load_warm_start_csv("/nonexistent-zzz/trace.csv", cat3_),
               std::runtime_error);
  const std::string path = testing::TempDir() + "/mlcd_trace_bad.csv";
  {
    std::ofstream out(path);
    out << "wrong,header\n";
  }
  EXPECT_THROW(load_warm_start_csv(path, cat3_), std::invalid_argument);
  {
    std::ofstream out(path);
    out << "instance,nodes,measured_speed,feasible,failed,reason\n";
    out << "c5.4xlarge,-3,100,1,0,init\n";
  }
  EXPECT_THROW(load_warm_start_csv(path, cat3_), std::invalid_argument);
  std::filesystem::remove(path);
}

// ----------------------------------------------------------------- ConvBO

TEST_F(SearchTest, ConvBoViolatesBudgetSometimes) {
  // Constraint-oblivious search picks the fastest deployment regardless
  // of what it costs (the failure mode of Figs. 10/11/14).
  bool violated = false;
  for (std::uint64_t seed = 1; seed <= 5 && !violated; ++seed) {
    const SearchProblem p =
        problem3(Scenario::fastest_under_budget(120.0), seed);
    const SearchResult r = ConvBoSearcher(perf3_).run(p);
    if (r.found && r.total_cost() > 120.0) violated = true;
  }
  EXPECT_TRUE(violated);
}

TEST_F(SearchTest, BudgetAwareConvBoComplies) {
  ConvBoOptions options;
  options.budget_aware = true;
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    const SearchProblem p =
        problem3(Scenario::fastest_under_budget(120.0), seed);
    const SearchResult r = ConvBoSearcher(perf3_, options).run(p);
    ASSERT_TRUE(r.found);
    EXPECT_LE(r.total_cost(), 120.0) << "seed " << seed;
  }
}

class ConvBoAcquisition : public testing::TestWithParam<const char*> {};

TEST_P(ConvBoAcquisition, EveryAcquisitionFindsGoodDeployments) {
  const auto cat =
      cloud::aws_catalog().subset(std::vector<std::string>{"c5.4xlarge"});
  const cloud::DeploymentSpace space(cat, 50);
  const perf::TrainingPerfModel perf(cat);
  SearchProblem p;
  p.config.model = models::paper_zoo().model("resnet");
  p.config.platform = perf::tensorflow_profile();
  p.config.topology = perf::CommTopology::kParameterServer;
  p.space = &space;
  p.scenario = Scenario::fastest();
  p.seed = 7;

  ConvBoOptions options;
  options.loop.acquisition = GetParam();
  const SearchResult r = ConvBoSearcher(perf, options).run(p);
  const auto opt =
      optimal_deployment(perf, p.config, space, Scenario::fastest());
  ASSERT_TRUE(r.found) << GetParam();
  EXPECT_GT(r.best_true_speed, 0.85 * opt->best_true_speed) << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Acquisitions, ConvBoAcquisition,
                         testing::Values("ei", "ucb", "poi"));

TEST_F(SearchTest, UnknownAcquisitionThrows) {
  ConvBoOptions options;
  options.loop.acquisition = "thompson";
  EXPECT_THROW(ConvBoSearcher(perf1_, options)
                   .run(problem1(Scenario::fastest())),
               std::invalid_argument);
}

TEST_F(SearchTest, ConvBoNamesVariants) {
  EXPECT_EQ(ConvBoSearcher(perf1_).name(), "conv-bo");
  ConvBoOptions options;
  options.budget_aware = true;
  EXPECT_EQ(ConvBoSearcher(perf1_, options).name(), "bo-improved");
}

TEST_F(SearchTest, ConvBoDeterministicPerSeed) {
  const SearchProblem p = problem3(Scenario::fastest(), 11);
  const SearchResult a = ConvBoSearcher(perf3_).run(p);
  const SearchResult b = ConvBoSearcher(perf3_).run(p);
  ASSERT_EQ(a.trace.size(), b.trace.size());
  for (std::size_t i = 0; i < a.trace.size(); ++i) {
    EXPECT_EQ(a.trace[i].deployment, b.trace[i].deployment);
    EXPECT_DOUBLE_EQ(a.trace[i].measured_speed, b.trace[i].measured_speed);
  }
}

// -------------------------------------------------------------- CherryPick

TEST_F(SearchTest, CherryPickUsesCoarseGrid) {
  CherryPickOptions options;
  CherryPickSearcher cp(perf3_, options);
  const SearchResult r = cp.run(problem3(Scenario::fastest()));
  const std::set<int> grid(options.node_grid.begin(),
                           options.node_grid.end());
  for (const ProbeStep& step : r.trace) {
    EXPECT_TRUE(grid.count(step.deployment.nodes))
        << "probed off-grid n=" << step.deployment.nodes;
  }
}

TEST_F(SearchTest, CherryPickFamilyTrimRestrictsProbes) {
  CherryPickOptions options;
  options.allowed_families = {"c5"};
  CherryPickSearcher cp(perf3_, options);
  const SearchResult r = cp.run(problem3(Scenario::fastest()));
  for (const ProbeStep& step : r.trace) {
    EXPECT_EQ(cat3_.at(step.deployment.type_index).family, "c5");
  }
}

TEST_F(SearchTest, CherryPickEmptyTrimFallsBackToFullSpace) {
  CherryPickOptions options;
  options.allowed_families = {"nonexistent-family"};
  CherryPickSearcher cp(perf3_, options);
  const SearchResult r = cp.run(problem3(Scenario::fastest()));
  EXPECT_TRUE(r.found);
}

TEST_F(SearchTest, CherryPickNamesVariants) {
  EXPECT_EQ(CherryPickSearcher(perf1_).name(), "cherrypick");
  CherryPickOptions options;
  options.budget_aware = true;
  EXPECT_EQ(CherryPickSearcher(perf1_, options).name(),
            "cherrypick-improved");
}

// ------------------------------------------------------------------ Random

TEST_F(SearchTest, RandomSearchProbesExactlyK) {
  RandomSearchOptions options;
  options.probes = 12;
  RandomSearcher rs(perf3_, options);
  const SearchResult r = rs.run(problem3(Scenario::fastest()));
  EXPECT_EQ(r.trace.size(), 12u);
  EXPECT_EQ(rs.name(), "random-12");
}

TEST_F(SearchTest, RandomSearchProbesAreDistinct) {
  RandomSearchOptions options;
  options.probes = 20;
  const SearchResult r =
      RandomSearcher(perf3_, options).run(problem3(Scenario::fastest()));
  std::set<std::pair<std::size_t, int>> seen;
  for (const ProbeStep& s : r.trace) {
    EXPECT_TRUE(
        seen.insert({s.deployment.type_index, s.deployment.nodes}).second);
  }
}

TEST_F(SearchTest, RandomSearchInvalidOptionsThrow) {
  RandomSearchOptions bad;
  bad.probes = 0;
  EXPECT_THROW(RandomSearcher(perf1_, bad), std::invalid_argument);
}

// -------------------------------------------------------------- Exhaustive

TEST_F(SearchTest, ExhaustiveFindsTheOptimum) {
  ExhaustiveSearcher ex(perf1_);
  const SearchResult r = ex.run(problem1(Scenario::fastest()));
  const auto opt = optimal_deployment(
      perf1_, problem1(Scenario::fastest()).config, space1_,
      Scenario::fastest());
  ASSERT_TRUE(r.found);
  // Exhaustive measures everything; its pick is within noise of optimal.
  EXPECT_GT(r.best_true_speed, 0.97 * opt->best_true_speed);
  EXPECT_EQ(r.trace.size(), space1_.size());
}

TEST_F(SearchTest, ExhaustiveSubsampleRespectsCap) {
  ExhaustiveOptions options;
  options.max_probes = 10;
  ExhaustiveSearcher ex(perf1_, options);
  const SearchResult r = ex.run(problem1(Scenario::fastest()));
  EXPECT_LE(r.trace.size(), 10u);
  EXPECT_EQ(ex.name(), "exhaustive-10");
}

TEST_F(SearchTest, ExhaustiveParallelCampaignShortensWallTime) {
  ExhaustiveOptions serial_options;
  serial_options.max_probes = 20;
  ExhaustiveOptions parallel_options = serial_options;
  parallel_options.parallel_clusters = 5;

  const SearchProblem p = problem1(Scenario::fastest());
  const SearchResult serial =
      ExhaustiveSearcher(perf1_, serial_options).run(p);
  const SearchResult parallel =
      ExhaustiveSearcher(perf1_, parallel_options).run(p);

  // Same probes, same dollars, ~5x less wall time (within round-robin
  // imbalance).
  ASSERT_EQ(serial.trace.size(), parallel.trace.size());
  EXPECT_NEAR(serial.profile_cost, parallel.profile_cost, 1e-9);
  EXPECT_LT(parallel.profile_hours, serial.profile_hours / 4.0);
  EXPECT_GE(parallel.profile_hours, serial.profile_hours / 5.0 - 1e-9);
  EXPECT_EQ(serial.best, parallel.best);
}

TEST_F(SearchTest, ExhaustiveParallelInvalidOptionsThrow) {
  ExhaustiveOptions bad;
  bad.parallel_clusters = 0;
  EXPECT_THROW(ExhaustiveSearcher(perf1_, bad), std::invalid_argument);
}

TEST_F(SearchTest, ExhaustiveProfilingDwarfsBoMethods) {
  // Fig. 2's point: exhaustive profiling costs more than BO search.
  const SearchProblem p = problem1(Scenario::fastest());
  const SearchResult ex = ExhaustiveSearcher(perf1_).run(p);
  const SearchResult cb = ConvBoSearcher(perf1_).run(p);
  EXPECT_GT(ex.profile_cost, 2.0 * cb.profile_cost);
}

// ------------------------------------------------------------------- Paleo

TEST_F(SearchTest, PaleoPaysNoProfiling) {
  PaleoSearcher paleo(perf3_);
  const SearchResult r = paleo.run(problem3(Scenario::fastest()));
  ASSERT_TRUE(r.found);
  EXPECT_DOUBLE_EQ(r.profile_cost, 0.0);
  EXPECT_DOUBLE_EQ(r.profile_hours, 0.0);
  EXPECT_TRUE(r.trace.empty());
}

TEST_F(SearchTest, PaleoOverestimatesAtScale) {
  PaleoSearcher paleo(perf3_);
  const SearchProblem p = problem3(Scenario::fastest());
  const cloud::Deployment big{1, 40};
  EXPECT_GT(paleo.predicted_speed(p.config, big),
            perf3_.true_speed(p.config, big));
}

TEST_F(SearchTest, PaleoPickWorseThanOracle) {
  // Because its model ignores congestion nuances, Paleo's chosen
  // deployment underdelivers relative to the oracle (Fig. 13).
  PaleoSearcher paleo(perf3_);
  const SearchProblem p = problem3(Scenario::fastest());
  const SearchResult r = paleo.run(p);
  const auto opt =
      optimal_deployment(perf3_, p.config, space3_, Scenario::fastest());
  ASSERT_TRUE(r.found);
  EXPECT_LE(r.best_true_speed, opt->best_true_speed);
}

// -------------------------------------------------------------------- Spot

TEST_F(SearchTest, SpotSearchCheaperButSlowerTraining) {
  const cloud::DeploymentSpace spot_space(cat1_, 50, cloud::Market::kSpot);
  SearchProblem od = problem1(Scenario::fastest());
  SearchProblem sp = od;
  sp.space = &spot_space;

  const SearchResult r_od = HeterBoSearcher(perf1_).run(od);
  const SearchResult r_sp = HeterBoSearcher(perf1_).run(sp);
  ASSERT_TRUE(r_od.found);
  ASSERT_TRUE(r_sp.found);
  // Spot money goes much further...
  EXPECT_LT(r_sp.total_cost(), 0.6 * r_od.total_cost());
  // ...but the same cluster trains longer under revocations.
  const auto opt_od = optimal_deployment(perf1_, od.config, space1_,
                                         Scenario::fastest());
  const auto opt_sp = optimal_deployment(perf1_, sp.config, spot_space,
                                         Scenario::fastest());
  EXPECT_GT(opt_sp->training_hours, opt_od->training_hours);
}

TEST_F(SearchTest, SpotBudgetComplianceStillHolds) {
  const cloud::DeploymentSpace spot_space(cat3_, 50, cloud::Market::kSpot);
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    SearchProblem p = problem3(Scenario::fastest_under_budget(60.0), seed);
    p.space = &spot_space;
    const SearchResult r = HeterBoSearcher(perf3_).run(p);
    ASSERT_TRUE(r.found) << seed;
    EXPECT_LE(r.total_cost(), 60.0) << seed;
  }
}

// ------------------------------------------------------------------ Pareto

TEST(ParetoFront, KeepsOnlyNonDominatedPoints) {
  std::vector<ParetoPoint> points;
  auto add = [&](double h, double c) {
    ParetoPoint p;
    p.training_hours = h;
    p.training_cost = c;
    points.push_back(p);
  };
  add(1.0, 10.0);  // fast, expensive  -> front
  add(10.0, 1.0);  // slow, cheap      -> front
  add(5.0, 5.0);   // middle           -> front
  add(6.0, 6.0);   // dominated by (5,5)
  add(1.0, 11.0);  // dominated by (1,10)
  const auto front = pareto_front(points);
  ASSERT_EQ(front.size(), 3u);
  // Sorted by training time.
  EXPECT_DOUBLE_EQ(front[0].training_hours, 1.0);
  EXPECT_DOUBLE_EQ(front[2].training_hours, 10.0);
  // Non-domination property.
  for (const auto& a : front) {
    for (const auto& b : front) {
      if (&a == &b) continue;
      EXPECT_FALSE(a.training_hours <= b.training_hours &&
                   a.training_cost <= b.training_cost &&
                   (a.training_hours < b.training_hours ||
                    a.training_cost < b.training_cost));
    }
  }
}

TEST(ParetoFront, DropsDuplicates) {
  std::vector<ParetoPoint> points(3);
  for (auto& p : points) {
    p.training_hours = 2.0;
    p.training_cost = 3.0;
  }
  EXPECT_EQ(pareto_front(points).size(), 1u);
}

TEST_F(SearchTest, ParetoSearcherProbesNonAdaptively) {
  ParetoSearchOptions options;
  options.probes = 9;
  ParetoSearcher pareto(perf3_, options);
  const SearchResult a = pareto.run(problem3(Scenario::fastest(), 1));
  const SearchResult b = pareto.run(problem3(Scenario::fastest(), 2));
  // Non-adaptive: the probe plan ignores observations (and the seed).
  ASSERT_EQ(a.trace.size(), b.trace.size());
  for (std::size_t i = 0; i < a.trace.size(); ++i) {
    EXPECT_EQ(a.trace[i].deployment, b.trace[i].deployment);
  }
  EXPECT_LE(a.trace.size(), 9u);
}

TEST_F(SearchTest, ParetoFrontOfRunIsNonEmpty) {
  ParetoSearcher pareto(perf3_);
  const SearchProblem p = problem3(Scenario::fastest());
  const SearchResult r = pareto.run(p);
  const auto front =
      pareto.front_of(r, space3_, p.config.model.samples_to_train);
  EXPECT_FALSE(front.empty());
  EXPECT_LE(front.size(), r.trace.size());
}

TEST_F(SearchTest, ParetoUnderperformsHeterBo) {
  // The paper's §I claim: PO "falls short in performance" against BO.
  double pareto_speed = 0.0, heterbo_speed = 0.0;
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    const SearchProblem p = problem3(Scenario::fastest(), seed);
    pareto_speed += ParetoSearcher(perf3_).run(p).best_true_speed;
    heterbo_speed += HeterBoSearcher(perf3_).run(p).best_true_speed;
  }
  EXPECT_GT(heterbo_speed, pareto_speed);
}

TEST_F(SearchTest, ParetoInvalidOptionsThrow) {
  ParetoSearchOptions bad;
  bad.probes = 1;
  EXPECT_THROW(ParetoSearcher(perf3_, bad), std::invalid_argument);
}

// ------------------------------------------------------------------ Oracle

TEST_F(SearchTest, OracleRespectsConstraints) {
  const SearchProblem p = problem1(Scenario::fastest());
  const auto within = optimal_deployment(perf1_, p.config, space1_,
                                         Scenario::fastest_under_budget(80.0));
  ASSERT_TRUE(within.has_value());
  EXPECT_LE(within->training_cost, 80.0);

  const auto impossible = optimal_deployment(
      perf1_, p.config, space1_, Scenario::fastest_under_budget(0.01));
  EXPECT_FALSE(impossible.has_value());
}

TEST_F(SearchTest, OracleDeadlineFiltersSlowDeployments) {
  const SearchProblem p = problem1(Scenario::fastest());
  const auto opt = optimal_deployment(
      perf1_, p.config, space1_, Scenario::cheapest_under_deadline(8.0));
  ASSERT_TRUE(opt.has_value());
  EXPECT_LE(opt->training_hours, 8.0);
  // Cheapest-within-deadline is slower but cheaper than the pure-speed
  // optimum.
  const auto fastest =
      optimal_deployment(perf1_, p.config, space1_, Scenario::fastest());
  EXPECT_LE(opt->training_cost, fastest->training_cost);
}

}  // namespace
}  // namespace mlcd::search
