// PR-2 fast-path performance gate.
//
// Measures the two throughputs the fast-path BO engine exists for —
// incremental GP updates and cached acquisition scans — plus one
// HeterBO run's wall time and the cost of write-ahead journaling, and
// records them in the observatory's pr2-fastpath-gate suite
// (bench_out/obs/pr2-fastpath-gate.json, appended to the history under
// MLCD_OBS_HISTORY_DIR). Regressions against earlier runs are
// `mlcd perfcheck`'s job; this binary hard-gates only the journaling
// claim.
//
// Absolute ops/sec are machine-dependent, so perfcheck compares the
// throughputs calibration-normalized: each is divided by the machine's
// serial GP-fit throughput measured in the same process.
//
// The binary also carries the PR-7 multi-fidelity gate: a deterministic
// HeterBO ladder-vs-full series over the paper's two constrained
// scenarios, recorded in the pr7-multi-fidelity-gate suite. Gated
// claims: probe cost >= 5% lower with the ladder, final deployment
// within 10% of the full-fidelity pick, constraints preserved.
//
// Usage:
//   bench_perf_gate [--quick]
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "bo/acquisition.hpp"
#include "common.hpp"
#include "gp/gp_regressor.hpp"
#include "gp/kernel.hpp"
#include "journal/journal.hpp"
#include "profiler/fidelity.hpp"
#include "search/heter_bo.hpp"
#include "util/rng.hpp"

namespace {

using namespace mlcd;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Best-of-trials wall time of op(), seconds. Minimum, not mean: the
/// minimum is the least noisy estimator of the true cost on a shared
/// machine.
template <typename Op>
double best_time(int trials, Op&& op) {
  double best = std::numeric_limits<double>::infinity();
  for (int t = 0; t < trials; ++t) {
    const Clock::time_point start = Clock::now();
    op();
    best = std::min(best, seconds_since(start));
  }
  return best;
}

void make_data(std::size_t n, linalg::Matrix& x, linalg::Vector& y) {
  util::Rng rng(7);
  x = linalg::Matrix(n, 2);
  y.clear();
  for (std::size_t i = 0; i < n; ++i) {
    x(i, 0) = rng.uniform();
    x(i, 1) = rng.uniform();
    y.push_back(std::sin(6.0 * x(i, 0)) + x(i, 1) + 0.01 * rng.normal());
  }
}

gp::GpRegressor frozen_gp(std::size_t n) {
  linalg::Matrix x;
  linalg::Vector y;
  make_data(n, x, y);
  gp::GpOptions options;
  options.optimize_hyperparameters = false;
  options.normalize_targets = false;
  options.refit_every = 0;
  gp::GpRegressor gp(std::make_unique<gp::Matern52Kernel>(2), options);
  gp.fit(x, y);
  return gp;
}

/// Machine-speed calibration: serial fixed-hyperparameter GP fits/sec.
double calibration_fits_per_sec(int fits_per_trial, int trials) {
  linalg::Matrix x;
  linalg::Vector y;
  make_data(48, x, y);
  gp::GpOptions options;
  options.optimize_hyperparameters = false;
  const double secs = best_time(trials, [&] {
    for (int i = 0; i < fits_per_trial; ++i) {
      gp::GpRegressor gp(std::make_unique<gp::Matern52Kernel>(2), options);
      gp.fit(x, y);
    }
  });
  return fits_per_trial / secs;
}

/// Incremental add_observation throughput (frozen hyperparameters,
/// O(n^2) bordered-Cholesky path), ops/sec while growing 64 -> 64+adds.
double gp_incremental_adds_per_sec(int adds, int trials) {
  util::Rng rng(11);
  std::vector<std::vector<double>> points;
  for (int i = 0; i < adds; ++i) points.push_back({rng.uniform(), rng.uniform()});
  const double secs = best_time(trials, [&] {
    gp::GpRegressor gp = frozen_gp(64);
    for (const auto& p : points) gp.add_observation(p, 0.5);
  });
  // Subtract nothing for the initial fit: every run measures the
  // identical workload, so runs stay comparable.
  return adds / secs;
}

/// Full O(n^3) refit throughput at the same terminal size, refits/sec.
double gp_full_refits_per_sec(int trials) {
  gp::GpRegressor gp = frozen_gp(96);
  const double secs = best_time(
      trials, [&] { gp.refit_full(/*retune_hyperparameters=*/false); });
  return 1.0 / secs;
}

/// One acquisition scan exactly as the searchers run it: cached
/// prediction into pre-sized slots, then score_batch.
double scan_candidates_per_sec(int scans, int trials) {
  gp::GpRegressor gp = frozen_gp(48);
  util::Rng rng(17);
  const std::size_t m = 8192;
  std::vector<std::vector<double>> candidates(m);
  for (auto& c : candidates) c = {rng.uniform(), rng.uniform()};
  std::vector<gp::GpRegressor::PredictCache> caches(m);
  std::vector<gp::Prediction> predictions(m);
  std::vector<double> scores(m);
  const bo::ExpectedImprovement ei(0.01);

  const auto scan = [&] {
    for (std::size_t i = 0; i < m; ++i) {
      predictions[i] = gp.predict_cached(candidates[i], caches[i]);
    }
    bo::score_batch(ei, predictions, 0.5, scores);
  };
  scan();  // warm the per-candidate caches once, outside the timing
  const double secs = best_time(trials, [&] {
    for (int s = 0; s < scans; ++s) scan();
  });
  return static_cast<double>(m) * scans / secs;
}

/// Wall time of one HeterBO run on the Fig. 15 workload, seconds.
double heterbo_run_secs() {
  const cloud::InstanceCatalog cat =
      bench::subset_catalog({"c5.xlarge", "c5.4xlarge", "p2.xlarge"});
  const cloud::DeploymentSpace space(cat, 50);
  const perf::TrainingPerfModel perf(cat);
  const perf::TrainingConfig config = bench::make_config("char_rnn");
  const search::SearchProblem problem = bench::make_problem(
      config, space, search::Scenario::fastest_under_budget(120.0));
  const Clock::time_point start = Clock::now();
  bench::run_method(perf, problem, "heterbo");
  return seconds_since(start);
}

/// Wall-time cost of write-ahead journaling: a full-catalog HeterBO
/// search with and without a journal attached, best-of-trials.
///
/// The gated quantity is journal cost against *search wall time* — the
/// time a search occupies end to end, which is dominated by the probes'
/// execution windows (simulated hours here; real rented hours on a real
/// cloud). The engine's own compute is microseconds per probe thanks to
/// the fast path, so gating the fsync against it would measure the
/// filesystem, not the journal: an fsync (~100us) can never be small
/// next to 13us of search compute, and is always negligible next to a
/// >= 10-minute probe window. docs/crash-safety.md states the < 5%
/// claim in these terms. The raw per-record cost is also reported so
/// regressions in the journaling path itself stay visible.
struct JournalOverheadReport {
  double plain_secs = 0.0;
  double journaled_secs = 0.0;
  std::size_t records = 0;
  double us_per_record = 0.0;
  double search_wall_hours = 0.0;   ///< simulated profiling wall time
  double overhead_vs_search_wall = 0.0;
};

JournalOverheadReport journal_overhead(int trials) {
  // Full 62-type catalog at 50 nodes: a representative search (30
  // probes), not the 3-type Fig. 15 workload.
  const cloud::InstanceCatalog& cat = cloud::aws_catalog();
  const cloud::DeploymentSpace space(cat, 50);
  const perf::TrainingPerfModel perf(cat);
  const perf::TrainingConfig config = bench::make_config("char_rnn");
  search::SearchProblem problem = bench::make_problem(
      config, space, search::Scenario::fastest_under_budget(120.0));

  JournalOverheadReport report;
  report.plain_secs = best_time(
      trials, [&] { bench::run_method(perf, problem, "heterbo"); });

  const std::string path = "bench_journal_overhead.mlcdj";
  journal::JournalHeader header;
  header.method = "heterbo";
  header.model = "char_rnn";
  search::SearchResult result;
  report.journaled_secs = best_time(trials, [&] {
    journal::RunJournal writer = journal::RunJournal::create(path, header);
    problem.journal = &writer;
    result = bench::run_method(perf, problem, "heterbo");
    problem.journal = nullptr;
  });
  std::remove(path.c_str());

  report.records = result.trace.size() + 1;  // + header record
  const double journal_secs =
      std::max(0.0, report.journaled_secs - report.plain_secs);
  report.us_per_record =
      report.records > 0 ? 1e6 * journal_secs / report.records : 0.0;
  report.search_wall_hours = result.profile_hours;
  report.overhead_vs_search_wall =
      report.search_wall_hours > 0.0
          ? journal_secs / (report.search_wall_hours * 3600.0)
          : 1.0;
  return report;
}

// --------------------------------------------- PR-7 multi-fidelity gate

/// One scenario's ladder-vs-full HeterBO comparison, seed-averaged.
struct FidelityScenarioReport {
  std::string name;
  double ladder_probe_cost = 0.0;  ///< mean dollars spent probing
  double full_probe_cost = 0.0;
  double ladder_quality = 0.0;  ///< mean scenario metric (lower = better)
  double full_quality = 0.0;
  int seeds = 0;
  bool all_found = true;           ///< both modes found a deployment
  bool constraints_ok = true;      ///< ladder met constraints wherever
                                   ///< the full-fidelity run did
};

/// Runs HeterBO with the fidelity ladder on and off over the paper's two
/// constrained scenarios (restricted 3-type catalog, several seeds) and
/// reports probe spend vs final-deployment quality. The gated claim:
/// cheap low-fidelity sweeps plus full-fidelity confirmation reach the
/// same-or-comparable deployment at measurably lower total probe cost.
std::vector<FidelityScenarioReport> multi_fidelity_comparison() {
  const cloud::InstanceCatalog cat =
      bench::subset_catalog({"c5.xlarge", "c5.4xlarge", "p2.xlarge"});
  const cloud::DeploymentSpace space(cat, 50);
  const perf::TrainingPerfModel perf(cat);

  struct Case {
    const char* name;
    const char* model;
    search::Scenario scenario;
    // The scenario's own "minimize this" metric of the final pick.
    double (*quality)(const search::SearchResult&);
  };
  const Case cases[] = {
      {"budget", "char_rnn", search::Scenario::fastest_under_budget(120.0),
       [](const search::SearchResult& r) { return r.training_hours; }},
      {"deadline", "resnet", search::Scenario::cheapest_under_deadline(24.0),
       [](const search::SearchResult& r) { return r.training_cost; }},
  };

  std::vector<FidelityScenarioReport> reports;
  for (const Case& c : cases) {
    FidelityScenarioReport report;
    report.name = c.name;
    const perf::TrainingConfig config = bench::make_config(c.model);
    for (const std::uint64_t seed : {1ULL, 7ULL, 13ULL, 21ULL}) {
      search::SearchProblem full_problem =
          bench::make_problem(config, space, c.scenario, seed);
      const search::SearchResult full =
          bench::run_method(perf, full_problem, "heterbo");

      search::SearchProblem ladder_problem =
          bench::make_problem(config, space, c.scenario, seed);
      ladder_problem.profiler_options.fidelity.rungs =
          profiler::parse_fidelity_rungs("0.5:1,0.25:2");
      const search::SearchResult ladder =
          bench::run_method(perf, ladder_problem, "heterbo");

      ++report.seeds;
      report.all_found = report.all_found && full.found && ladder.found;
      if (full.meets_constraints(c.scenario) &&
          !ladder.meets_constraints(c.scenario)) {
        report.constraints_ok = false;
      }
      report.ladder_probe_cost += ladder.profile_cost;
      report.full_probe_cost += full.profile_cost;
      report.ladder_quality += c.quality(ladder);
      report.full_quality += c.quality(full);
    }
    report.ladder_probe_cost /= report.seeds;
    report.full_probe_cost /= report.seeds;
    report.ladder_quality /= report.seeds;
    report.full_quality /= report.seeds;
    reports.push_back(std::move(report));
  }
  return reports;
}

int usage(const char* argv0) {
  std::fprintf(stderr, "usage: %s [--quick]\n", argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--quick") {
      quick = true;
    } else {
      return usage(argv[0]);
    }
  }

  // Opening the suites up front starts the observatory's resource
  // probe (wall time, RSS, allocations) for the whole run; both suites
  // share this binary, so both history records carry the same series.
  bench::metrics("pr2-fastpath-gate");
  bench::metrics("pr7-multi-fidelity-gate");

  const int trials = quick ? 3 : 7;
  std::printf("PR-2 fast-path gate: measuring (trials=%d)...\n", trials);

  const double calibration = calibration_fits_per_sec(quick ? 4 : 10, trials);
  const double gp_adds = gp_incremental_adds_per_sec(64, trials);
  const double gp_refits = gp_full_refits_per_sec(trials);
  const double scan_t1 = scan_candidates_per_sec(quick ? 2 : 5, trials);
  const double heterbo_secs = heterbo_run_secs();
  const JournalOverheadReport journal_report = journal_overhead(trials);

  std::map<std::string, double> metrics;
  metrics["calibration_fits_per_sec"] = calibration;
  metrics["gp_incremental_adds_per_sec"] = gp_adds;
  metrics["gp_full_refits_per_sec"] = gp_refits;
  metrics["acq_scan_candidates_per_sec_t1"] = scan_t1;
  metrics["heterbo_run_secs_t1"] = heterbo_secs;
  metrics["journal_run_secs_plain"] = journal_report.plain_secs;
  metrics["journal_run_secs_journaled"] = journal_report.journaled_secs;
  metrics["journal_us_per_record"] = journal_report.us_per_record;
  metrics["journal_search_wall_hours"] = journal_report.search_wall_hours;
  metrics["journal_overhead_vs_search_wall"] =
      journal_report.overhead_vs_search_wall;

  for (const auto& [name, value] : metrics) {
    std::printf("  %-34s %.4g\n", name.c_str(), value);
    bench::record_gate_metric("pr2-fastpath-gate", name, value);
  }

  bool ok = true;
  if (journal_report.overhead_vs_search_wall > 0.05) {
    std::fprintf(stderr,
                 "GATE FAIL: write-ahead journaling costs %.1f%% of the "
                 "search wall time (> 5%% allowed; %.0f us/record over "
                 "%.2f h of search)\n",
                 100.0 * journal_report.overhead_vs_search_wall,
                 journal_report.us_per_record,
                 journal_report.search_wall_hours);
    ok = false;
  }

  // ------------------------------------------ PR-7 multi-fidelity gate
  //
  // Everything below is deterministic simulation (dollars and simulated
  // hours, not wall time), so the numbers are machine-independent and
  // need no calibration.
  std::printf("PR-7 multi-fidelity gate: running HeterBO ladder-vs-full "
              "series...\n");
  const std::vector<FidelityScenarioReport> fidelity =
      multi_fidelity_comparison();

  for (const FidelityScenarioReport& r : fidelity) {
    const double cost_ratio =
        r.full_probe_cost > 0.0 ? r.ladder_probe_cost / r.full_probe_cost
                                : 1.0;
    const double quality_ratio =
        r.full_quality > 0.0 ? r.ladder_quality / r.full_quality : 1.0;
    std::printf(
        "  %-10s probe cost $%.2f vs $%.2f (%.0f%%), quality %.4g vs "
        "%.4g (%+.1f%%), seeds=%d\n",
        r.name.c_str(), r.ladder_probe_cost, r.full_probe_cost,
        100.0 * cost_ratio, r.ladder_quality, r.full_quality,
        100.0 * (quality_ratio - 1.0), r.seeds);

    const std::string prefix = r.name + ".";
    bench::record_gate_metric("pr7-multi-fidelity-gate", prefix + "seeds",
                              r.seeds);
    bench::record_gate_metric("pr7-multi-fidelity-gate",
                              prefix + "ladder_probe_cost",
                              r.ladder_probe_cost);
    bench::record_gate_metric("pr7-multi-fidelity-gate",
                              prefix + "full_probe_cost", r.full_probe_cost);
    bench::record_gate_metric("pr7-multi-fidelity-gate",
                              prefix + "probe_cost_ratio", cost_ratio);
    bench::record_gate_metric("pr7-multi-fidelity-gate",
                              prefix + "ladder_quality", r.ladder_quality);
    bench::record_gate_metric("pr7-multi-fidelity-gate",
                              prefix + "full_quality", r.full_quality);
    bench::record_gate_metric("pr7-multi-fidelity-gate",
                              prefix + "quality_ratio", quality_ratio);

    if (!r.all_found) {
      std::fprintf(stderr,
                   "GATE FAIL: %s: a HeterBO run found no deployment\n",
                   r.name.c_str());
      ok = false;
    }
    if (!r.constraints_ok) {
      std::fprintf(stderr,
                   "GATE FAIL: %s: the ladder run violated constraints "
                   "the full-fidelity run satisfied\n",
                   r.name.c_str());
      ok = false;
    }
    // The tentpole claim: measurably (>= 5%) cheaper probing...
    if (cost_ratio > 0.95) {
      std::fprintf(stderr,
                   "GATE FAIL: %s: multi-fidelity probe cost is %.0f%% "
                   "of full-fidelity (<= 95%% required)\n",
                   r.name.c_str(), 100.0 * cost_ratio);
      ok = false;
    }
    // ...at a same-or-comparable final deployment (the confirm stage
    // may settle on a near-optimal neighbor; 10% is the envelope the
    // de-biased low-fidelity measurements guarantee).
    if (quality_ratio > 1.10) {
      std::fprintf(stderr,
                   "GATE FAIL: %s: ladder final deployment is %.1f%% "
                   "worse than full-fidelity (<= 10%% allowed)\n",
                   r.name.c_str(), 100.0 * (quality_ratio - 1.0));
      ok = false;
    }
  }

  if (ok) std::printf("gate passed\n");
  return bench::finish_metrics(ok ? 0 : 1);
}
