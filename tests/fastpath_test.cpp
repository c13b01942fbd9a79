// Fast-path BO engine tests: incremental GP golden equivalence, batched
// acquisition scoring, the searcher registry and the JSON report
// round-trip.
//
// The contract this file enforces end-to-end (docs/performance.md): an
// incrementally-updated GP posterior matches the full-refit reference
// to 1e-8.
#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "bo/acquisition.hpp"
#include "gp/gp_regressor.hpp"
#include "gp/kernel.hpp"
#include "linalg/cholesky.hpp"
#include "mlcd/mlcd.hpp"
#include "models/model_zoo.hpp"
#include "search/conv_bo.hpp"
#include "search/heter_bo.hpp"
#include "search/registry.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"

namespace mlcd {
namespace {

// ------------------------------------------------- incremental Cholesky

// Builds the Gram-like SPD matrix used by the incremental tests.
linalg::Matrix spd_matrix(std::size_t n, util::Rng& rng) {
  std::vector<std::vector<double>> pts(n);
  for (auto& p : pts) p = {rng.uniform(-2, 2), rng.uniform(-2, 2)};
  linalg::Matrix a(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      const double dx = pts[i][0] - pts[j][0];
      const double dy = pts[i][1] - pts[j][1];
      a(i, j) = std::exp(-0.5 * (dx * dx + dy * dy));
    }
    a(i, i) += 0.01;
  }
  return a;
}

TEST(IncrementalCholesky, GrownFactorIsBitIdenticalToFresh) {
  util::Rng rng(11);
  const std::size_t n = 14;
  const linalg::Matrix a = spd_matrix(n, rng);

  // Grow from the 1x1 leading block one border at a time.
  linalg::Matrix seed(1, 1);
  seed(0, 0) = a(0, 0);
  linalg::CholeskyFactor grown(seed);
  for (std::size_t m = 1; m < n; ++m) {
    linalg::Vector col(m);
    for (std::size_t i = 0; i < m; ++i) col[i] = a(i, m);
    ASSERT_TRUE(grown.try_extend(col, a(m, m), 1e-12)) << "border " << m;
  }

  const linalg::CholeskyFactor fresh(a);
  ASSERT_EQ(grown.dim(), fresh.dim());
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j <= i; ++j) {
      EXPECT_EQ(grown.lower()(i, j), fresh.lower()(i, j))
          << "L(" << i << "," << j << ")";
    }
  }

  // The incrementally grown forward solve matches a fresh one bitwise:
  // re-grow a factor border by border, appending one solution entry per
  // step the way the GP's add_observation path does.
  util::Rng rng2(12);
  linalg::Vector b(n);
  for (double& v : b) v = rng2.normal();
  linalg::CholeskyFactor regrown(seed);
  linalg::Vector partial;
  regrown.extend_solve_lower(partial, std::span<const double>(b.data(), 1));
  for (std::size_t m = 1; m < n; ++m) {
    linalg::Vector col(m);
    for (std::size_t i = 0; i < m; ++i) col[i] = a(i, m);
    ASSERT_TRUE(regrown.try_extend(col, a(m, m), 1e-12));
    regrown.extend_solve_lower(
        partial, std::span<const double>(b.data(), m + 1));
  }
  const linalg::Vector direct = fresh.solve_lower(b);
  ASSERT_EQ(partial.size(), direct.size());
  for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(partial[i], direct[i]);
}

TEST(IncrementalCholesky, RejectsUnsafeBorderLeavingFactorIntact) {
  linalg::Matrix a(2, 2);
  a(0, 0) = 1.0;
  a(0, 1) = a(1, 0) = 0.0;
  a(1, 1) = 1.0;
  linalg::CholeskyFactor factor(a);

  // A border that duplicates row 0 has Schur complement ~0.
  const linalg::Vector col{1.0, 0.0};
  EXPECT_FALSE(factor.try_extend(col, 1.0, 1e-6));
  EXPECT_EQ(factor.dim(), 2u);  // untouched

  // The same border passes with no tolerance only if truly PD.
  EXPECT_FALSE(factor.try_extend(col, 1.0 - 1e-18, 0.0));
  EXPECT_TRUE(factor.try_extend(col, 1.5, 1e-6));
  EXPECT_EQ(factor.dim(), 3u);
}

// ------------------------------------------------------ GP golden tests

std::vector<std::vector<double>> query_grid() {
  std::vector<std::vector<double>> grid;
  for (double a : {-1.5, -0.4, 0.0, 0.7, 1.8}) {
    for (double b : {-1.0, 0.3, 1.2}) grid.push_back({a, b});
  }
  return grid;
}

// The tentpole's golden equivalence: a GP updated incrementally over many
// add_observation calls agrees with the O(n^3) full-refit reference
// (same frozen hyperparameters) to 1e-8 in both posterior moments.
TEST(GpFastPath, IncrementalPosteriorMatchesFullRefit) {
  util::Rng rng(21);
  gp::GpOptions options;
  options.refit_every = 0;  // never retune after the first build
  options.noise_stddev = 0.05;
  gp::GpRegressor model(std::make_unique<gp::Matern52Kernel>(2), options);

  const auto target = [](double a, double b) {
    return std::sin(1.7 * a) + 0.5 * std::cos(2.3 * b);
  };

  linalg::Matrix x0(4, 2);
  linalg::Vector y0;
  for (std::size_t i = 0; i < 4; ++i) {
    x0(i, 0) = rng.uniform(-2, 2);
    x0(i, 1) = rng.uniform(-2, 2);
    y0.push_back(target(x0(i, 0), x0(i, 1)) + 0.01 * rng.normal());
  }
  model.fit(x0, y0);
  const std::uint64_t version = model.fit_version();

  for (int add = 0; add < 16; ++add) {
    const double a = rng.uniform(-2, 2), b = rng.uniform(-2, 2);
    const double x[2] = {a, b};
    model.add_observation(x, target(a, b) + 0.01 * rng.normal());
  }
  EXPECT_EQ(model.fit_version(), version);  // stayed on the fast path
  EXPECT_EQ(model.adds_since_refit(), 16);

  gp::GpRegressor reference = model;
  reference.refit_full(/*retune_hyperparameters=*/false);
  EXPECT_EQ(reference.adds_since_refit(), 0);

  for (const auto& q : query_grid()) {
    const gp::Prediction fast = model.predict(q);
    const gp::Prediction gold = reference.predict(q);
    EXPECT_NEAR(fast.mean, gold.mean, 1e-8);
    EXPECT_NEAR(fast.variance, gold.variance, 1e-8);
  }
  EXPECT_NEAR(model.log_marginal_likelihood(),
              reference.log_marginal_likelihood(), 1e-6);
}

// refit_every = k alternates incremental adds with scheduled full
// retunes; the posterior after any number of adds must stay close to a
// freshly fitted model over the same data.
TEST(GpFastPath, ScheduledRefitTracksFreshFit) {
  util::Rng rng(22);
  gp::GpOptions scheduled;
  scheduled.refit_every = 4;
  scheduled.noise_stddev = 0.05;
  gp::GpRegressor model(std::make_unique<gp::Matern52Kernel>(1), scheduled);

  linalg::Matrix x0(3, 1);
  linalg::Vector y0;
  linalg::Matrix all_x(3, 1);
  for (std::size_t i = 0; i < 3; ++i) {
    x0(i, 0) = all_x(i, 0) = rng.uniform(0, 1);
    y0.push_back(std::sin(6.0 * x0(i, 0)));
  }
  model.fit(x0, y0);
  linalg::Vector all_y = y0;

  std::uint64_t version = model.fit_version();
  int retunes = 0;
  for (int add = 0; add < 12; ++add) {
    const double q = rng.uniform(0, 1);
    const double x[1] = {q};
    model.add_observation(x, std::sin(6.0 * q));
    linalg::Matrix grown(all_x.rows() + 1, 1);
    for (std::size_t i = 0; i < all_x.rows(); ++i) grown(i, 0) = all_x(i, 0);
    grown(all_x.rows(), 0) = q;
    all_x = std::move(grown);
    all_y.push_back(std::sin(6.0 * q));
    if (model.fit_version() != version) {
      ++retunes;
      version = model.fit_version();
      EXPECT_EQ(model.adds_since_refit(), 0);
    }
  }
  EXPECT_EQ(retunes, 3);  // every 4th of 12 adds

  // A scheduled refit is a real fit(): identical to fitting from scratch.
  gp::GpRegressor fresh(std::make_unique<gp::Matern52Kernel>(1), scheduled);
  // Land the fresh fit on the same data right after a retune boundary.
  fresh.fit(all_x, all_y);
  for (double q : {0.1, 0.35, 0.62, 0.9}) {
    const std::vector<double> point{q};
    const gp::Prediction a = model.predict(point);
    const gp::Prediction b = fresh.predict(point);
    // Hyperparameters were frozen since the last retune (8 obs in), so
    // only closeness — not equality — is expected here.
    EXPECT_NEAR(a.mean, b.mean, 0.2) << q;
  }
}

TEST(GpFastPath, PredictCachedMatchesPredictAndSurvivesAdds) {
  util::Rng rng(23);
  gp::GpOptions options;
  options.refit_every = 0;
  options.noise_stddev = 0.05;
  gp::GpRegressor model(std::make_unique<gp::SquaredExponentialKernel>(2),
                        options);

  linalg::Matrix x0(5, 2);
  linalg::Vector y0;
  for (std::size_t i = 0; i < 5; ++i) {
    x0(i, 0) = rng.uniform(-1, 1);
    x0(i, 1) = rng.uniform(-1, 1);
    y0.push_back(rng.normal());
  }
  model.fit(x0, y0);

  const auto queries = query_grid();
  std::vector<gp::GpRegressor::PredictCache> caches(queries.size());
  for (int add = 0; add < 10; ++add) {
    for (std::size_t i = 0; i < queries.size(); ++i) {
      const gp::Prediction cached = model.predict_cached(queries[i], caches[i]);
      const gp::Prediction direct = model.predict(queries[i]);
      EXPECT_NEAR(cached.mean, direct.mean, 1e-9);
      EXPECT_NEAR(cached.variance, direct.variance, 1e-9);
      // The cache is warm: it holds exactly one entry per observation.
      EXPECT_EQ(caches[i].k_star.size(), model.observation_count());
    }
    const double x[2] = {rng.uniform(-1, 1), rng.uniform(-1, 1)};
    model.add_observation(x, rng.normal());
  }
}

TEST(GpFastPath, StaleCacheFromOtherModelIsDiscarded) {
  gp::GpOptions options;
  options.optimize_hyperparameters = false;
  options.normalize_targets = false;
  linalg::Matrix x(2, 1);
  x(0, 0) = 0.0;
  x(1, 0) = 1.0;
  const linalg::Vector y{0.5, -0.25};

  gp::GpRegressor a(std::make_unique<gp::Matern32Kernel>(1), options);
  gp::GpRegressor b(std::make_unique<gp::Matern52Kernel>(1), options);
  a.fit(x, y);
  b.fit(x, y);
  EXPECT_NE(a.fit_version(), b.fit_version());  // globally unique

  const std::vector<double> q{0.4};
  gp::GpRegressor::PredictCache cache;
  const gp::Prediction via_a = a.predict_cached(q, cache);
  EXPECT_NEAR(via_a.mean, a.predict(q).mean, 1e-12);
  // Reusing the same cache against model b must not leak a's kernel rows.
  const gp::Prediction via_b = b.predict_cached(q, cache);
  EXPECT_NEAR(via_b.mean, b.predict(q).mean, 1e-12);
}

// -------------------------------------------------- batched acquisition

TEST(ScoreBatch, MatchesSerialScoringBitwise) {
  util::Rng rng(31);
  std::vector<gp::Prediction> predictions(257);
  for (auto& p : predictions) {
    p.mean = rng.normal();
    p.variance = std::abs(rng.normal()) + 1e-6;
  }
  const bo::ExpectedImprovement ei(0.01);
  const double best = 0.3;

  std::vector<double> serial(predictions.size());
  for (std::size_t i = 0; i < predictions.size(); ++i) {
    serial[i] = ei.score(predictions[i], best);
  }
  std::vector<double> batch(predictions.size());
  bo::score_batch(ei, predictions, best, batch);
  for (std::size_t i = 0; i < predictions.size(); ++i) {
    EXPECT_EQ(batch[i], serial[i]) << "i=" << i;
  }
}

TEST(ScoreBatch, RejectsMismatchedSpans) {
  const bo::UpperConfidenceBound ucb(2.0);
  std::vector<gp::Prediction> predictions(4);
  std::vector<double> out(3);
  EXPECT_THROW(bo::score_batch(ucb, predictions, 0.0, out),
               std::invalid_argument);
}

// ---------------------------------------------------- trace determinism

search::SearchProblem heterogeneous_problem(const cloud::DeploymentSpace& space,
                                            std::uint64_t seed) {
  search::SearchProblem p;
  p.config.model = models::paper_zoo().model("char_rnn");
  p.config.platform = perf::tensorflow_profile();
  p.config.topology = perf::CommTopology::kParameterServer;
  p.space = &space;
  p.scenario = search::Scenario::fastest_under_budget(120.0);
  p.seed = seed;
  return p;
}

// Bitwise comparison of two probe traces: deployments, measured bits,
// acquisition bits, reasons — everything a downstream consumer can see.
void expect_traces_identical(const std::vector<search::ProbeStep>& a,
                             const std::vector<search::ProbeStep>& b,
                             const std::string& label) {
  ASSERT_EQ(a.size(), b.size()) << label;
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].deployment.type_index, b[i].deployment.type_index)
        << label << " step " << i;
    EXPECT_EQ(a[i].deployment.nodes, b[i].deployment.nodes)
        << label << " step " << i;
    EXPECT_EQ(a[i].measured_speed, b[i].measured_speed)
        << label << " step " << i;
    EXPECT_EQ(a[i].acquisition, b[i].acquisition) << label << " step " << i;
    EXPECT_EQ(a[i].reason, b[i].reason) << label << " step " << i;
    EXPECT_EQ(a[i].feasible, b[i].feasible) << label << " step " << i;
  }
}

class TraceDeterminism : public testing::Test {
 protected:
  TraceDeterminism()
      : catalog_(cloud::aws_catalog().subset(std::vector<std::string>{
            "c5.xlarge", "c5.4xlarge", "p2.xlarge"})),
        space_(catalog_, 40),
        perf_(catalog_) {}

  cloud::InstanceCatalog catalog_;
  cloud::DeploymentSpace space_;
  perf::TrainingPerfModel perf_;
};

TEST_F(TraceDeterminism, RelaxedRefitScheduleStillFindsDeployments) {
  search::SearchProblem problem = heterogeneous_problem(space_, 7);
  problem.gp_refit_every = 5;
  search::HeterBoSearcher searcher(perf_);
  const search::SearchResult result = searcher.run(problem);
  EXPECT_TRUE(result.found);
  EXPECT_TRUE(result.meets_constraints(problem.scenario));

  // And the relaxed schedule is itself deterministic.
  search::HeterBoSearcher searcher2(perf_);
  const search::SearchResult again = searcher2.run(problem);
  expect_traces_identical(again.trace, result.trace, "refit_every=5");
}

// ------------------------------------------------------ searcher registry

TEST(SearcherRegistryTest, BuiltinsCreateAndNamesAreSorted) {
  const cloud::InstanceCatalog catalog = cloud::aws_catalog().subset(
      std::vector<std::string>{"c5.4xlarge"});
  const perf::TrainingPerfModel perf(catalog);
  search::SearcherRegistry& registry = search::SearcherRegistry::instance();

  const std::vector<std::string> names = registry.names();
  ASSERT_FALSE(names.empty());
  EXPECT_TRUE(std::is_sorted(names.begin(), names.end()));
  for (const std::string& name : names) {
    const std::unique_ptr<search::Searcher> searcher =
        registry.create(name, perf);
    ASSERT_NE(searcher, nullptr) << name;
    EXPECT_FALSE(searcher->name().empty()) << name;
  }
  EXPECT_TRUE(registry.contains("heterbo"));
  EXPECT_FALSE(registry.contains("gradient-descent"));
}

TEST(SearcherRegistryTest, UnknownNameErrorListsEveryChoice) {
  const cloud::InstanceCatalog catalog = cloud::aws_catalog().subset(
      std::vector<std::string>{"c5.4xlarge"});
  const perf::TrainingPerfModel perf(catalog);
  search::SearcherRegistry& registry = search::SearcherRegistry::instance();
  try {
    registry.create("gradient-descent", perf);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string message = e.what();
    EXPECT_NE(message.find("gradient-descent"), std::string::npos);
    for (const std::string& name : registry.names()) {
      EXPECT_NE(message.find(name), std::string::npos) << name;
    }
  }
}

TEST(SearcherRegistryTest, CustomMethodRegistersIntoIsolatedRegistry) {
  search::SearcherRegistry registry;
  EXPECT_THROW(registry.register_method("", nullptr),
               std::invalid_argument);
  registry.register_method(
      "conv-bo-again",
      [](const perf::TrainingPerfModel& perf,
         const search::SearcherOptions&) {
        return std::make_unique<search::ConvBoSearcher>(perf);
      });
  EXPECT_TRUE(registry.contains("conv-bo-again"));
  EXPECT_EQ(registry.names().size(), 1u);
}

// ------------------------------------------------------- JSON round-trip

TEST(JsonParser, ParsesScalarsContainersAndEscapes) {
  const util::JsonValue doc = util::parse_json(
      R"({"a":[1,2.5,-3e2,true,false,null],"s":"q\"\\\n\u0041\u00e9","z":{}})");
  ASSERT_TRUE(doc.is_object());
  EXPECT_EQ(doc.size(), 3u);
  const util::JsonValue& a = doc.at("a");
  ASSERT_TRUE(a.is_array());
  EXPECT_DOUBLE_EQ(a.at(0u).as_number(), 1.0);
  EXPECT_DOUBLE_EQ(a.at(1u).as_number(), 2.5);
  EXPECT_DOUBLE_EQ(a.at(2u).as_number(), -300.0);
  EXPECT_TRUE(a.at(3u).as_bool());
  EXPECT_FALSE(a.at(4u).as_bool());
  EXPECT_TRUE(a.at(5u).is_null());
  EXPECT_EQ(doc.at("s").as_string(), "q\"\\\nA\xc3\xa9");
  EXPECT_TRUE(doc.at("z").is_object());
  EXPECT_FALSE(doc.contains("missing"));
  EXPECT_THROW(doc.at("missing"), std::out_of_range);
  EXPECT_THROW(doc.at("a").as_string(), std::logic_error);
}

TEST(JsonParser, RejectsMalformedDocuments) {
  for (const char* bad :
       {"", "{", "[1,]", "{\"a\":}", "{\"a\":1,}", "01", "1 2",
        "\"unterminated", "{\"a\" 1}", "[1] trailing", "nul",
        "\"bad\\q\"", "\"\\ud800\"",
        // Overflowing number literals parse to +/-inf, which JSON cannot
        // represent; trailing garbage after a complete document is
        // rejected rather than silently ignored.
        "1e999", "-1e999", "{\"a\":1e999}", "{\"a\":1} x", "[1][2]"}) {
    EXPECT_THROW(util::parse_json(bad), std::invalid_argument) << bad;
  }
}

TEST(JsonParser, RoundTripsWriterOutput) {
  util::JsonWriter writer;
  writer.begin_object()
      .key("name")
      .value("run \"42\"\n")
      .key("count")
      .value(7)
      .key("ratio")
      .value(0.125)
      .key("flags")
      .begin_array()
      .value(true)
      .value(false)
      .null()
      .end_array()
      .end_object();
  const util::JsonValue doc = util::parse_json(writer.str());
  EXPECT_EQ(doc.at("name").as_string(), "run \"42\"\n");
  EXPECT_DOUBLE_EQ(doc.at("count").as_number(), 7.0);
  EXPECT_DOUBLE_EQ(doc.at("ratio").as_number(), 0.125);
  EXPECT_EQ(doc.at("flags").size(), 3u);
}

// Satellite (c): the versioned RunReport schema survives a full
// serialize -> parse round trip with every section intact.
TEST(RunReportJson, RoundTripsThroughParser) {
  const system::Mlcd mlcd;
  system::JobRequest request;
  request.model = "resnet";
  request.instance_types = {"c5.4xlarge"};
  request.requirements.budget_dollars = 100.0;
  request.threads = 3;
  request.gp_refit_every = 4;
  request.seed = 7;
  const system::RunReport report = mlcd.deploy(request).report();

  const util::JsonValue doc = util::parse_json(report.to_json());
  // Ladder-free runs keep emitting the byte-identical v3 document; the
  // v4 keys appear only when the fidelity ladder is enabled.
  EXPECT_DOUBLE_EQ(doc.at("schema_version").as_number(), 3.0);

  const util::JsonValue& req = doc.at("request");
  EXPECT_EQ(req.at("model").as_string(), "resnet");
  EXPECT_DOUBLE_EQ(req.at("threads").as_number(), 3.0);
  EXPECT_DOUBLE_EQ(req.at("gp_refit_every").as_number(), 4.0);
  EXPECT_DOUBLE_EQ(doc.at("scenario").at("budget_dollars").as_number(),
                   100.0);

  const util::JsonValue& result = doc.at("result");
  EXPECT_TRUE(result.at("found").as_bool());
  // The writer emits 10 significant digits, so round-tripped doubles
  // agree to relative 1e-9, not bitwise.
  EXPECT_NEAR(result.at("total_cost").as_number(),
              report.result.total_cost(),
              1e-8 * std::abs(report.result.total_cost()));
  // PR-1 fault counters are part of schema v2.
  EXPECT_TRUE(result.contains("failed_probes"));
  EXPECT_TRUE(result.contains("probe_attempts"));

  const util::JsonValue& trace = result.at("trace");
  ASSERT_TRUE(trace.is_array());
  ASSERT_EQ(trace.size(), report.result.trace.size());
  EXPECT_EQ(trace.at(0u).at("reason").as_string(),
            report.result.trace[0].reason);
}

}  // namespace
}  // namespace mlcd
