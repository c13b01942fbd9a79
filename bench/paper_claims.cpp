// The paper's evaluation as checked claims.
//
// One case per data-bearing figure of the paper's evaluation (DESIGN.md
// §4) plus the two ablations. Each case rebuilds the figure's setting,
// prints its rows/series next to the paper's own numbers, writes the raw
// series as CSV under ./bench_out/, and then checks the paper's shape
// claim as a predicate, printing one line:
//
//   claim <case>: holds|FAIL — <measured>
//
// Where this reproduction knowingly deviates from the paper
// (EXPERIMENTS.md, "Notes on deviations"), the deviation is the checked
// result, so a change that moves a figure in either direction is caught.
//
// Usage: paper_claims [case...]   no argument runs every case
// Exit:  0 every claim holds, 1 some claim fails, 2 an unknown case name.
#include "common.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <exception>
#include <memory>
#include <optional>
#include <string_view>
#include <utility>

#include "search/cherrypick.hpp"
#include "search/conv_bo.hpp"
#include "search/heter_bo.hpp"
#include "search/random_search.hpp"
#include "stats/summary.hpp"
#include "util/ascii_plot.hpp"

using namespace mlcd;

namespace {

struct Claim {
  bool holds = false;
  std::string measured;
};

// ------------------------------------------------------------- helpers

/// The paper's §V-A testbed: every c4, c5, c5n, p2 and p3 instance type
/// (25 scale-up options).
cloud::InstanceCatalog paper_testbed_catalog() {
  std::vector<std::string> names;
  for (const char* family : {"c5", "c5n", "c4", "p2", "p3"}) {
    for (std::size_t i : cloud::aws_catalog().family_indices(family)) {
      names.push_back(cloud::aws_catalog().at(i).name);
    }
  }
  return cloud::aws_catalog().subset(names);
}

/// The moderate-size testbed slice of Figs. 13, 14 and 18
/// (EXPERIMENTS.md, "Space slices").
cloud::InstanceCatalog testbed_slice() {
  return bench::subset_catalog(
      {"c5.xlarge", "c5.2xlarge", "c5.4xlarge", "c5n.xlarge",
       "c5n.2xlarge", "c5n.4xlarge", "c4.xlarge", "c4.4xlarge",
       "p2.xlarge", "p3.2xlarge"});
}

/// Runs `run(problem)` for seeds 1..`seeds` and averages the cost/time
/// fields over the runs that found a deployment; the trace and best
/// deployment come from seed 1.
template <typename Run>
search::SearchResult mean_over_seeds(search::SearchProblem problem, Run run,
                                     int seeds = 3) {
  search::SearchResult mean;
  int found = 0;
  for (int s = 1; s <= seeds; ++s) {
    problem.seed = static_cast<std::uint64_t>(s);
    const search::SearchResult r = run(problem);
    if (s == 1) {
      mean = r;
      mean.profile_hours = 0.0;
      mean.profile_cost = 0.0;
      mean.training_hours = 0.0;
      mean.training_cost = 0.0;
    }
    if (!r.found) continue;
    ++found;
    mean.profile_hours += r.profile_hours;
    mean.profile_cost += r.profile_cost;
    mean.training_hours += r.training_hours;
    mean.training_cost += r.training_cost;
  }
  if (found > 0) {
    mean.profile_hours /= found;
    mean.profile_cost /= found;
    mean.training_hours /= found;
    mean.training_cost /= found;
  }
  return mean;
}

search::SearchResult run_method_mean(const perf::TrainingPerfModel& perf,
                                     const search::SearchProblem& problem,
                                     const std::string& method) {
  return mean_over_seeds(problem, [&](const search::SearchProblem& p) {
    return bench::run_method(perf, p, method);
  });
}

util::TablePrinter make_result_table() {
  return util::TablePrinter({"method", "best", "probes", "profile (h)",
                             "profile ($)", "train (h)", "train ($)",
                             "total (h)", "total ($)", "constraints"});
}

void add_result_row(util::TablePrinter& table, const search::SearchResult& r,
                    const search::Scenario& scenario) {
  if (!r.found) {
    table.add_row({r.method, "(none)", std::to_string(r.trace.size()), "-",
                   "-", "-", "-", "-", "-", "n/a"});
    return;
  }
  table.add_row({r.method, r.best_description,
                 std::to_string(r.trace.size()),
                 util::fmt_fixed(r.profile_hours, 2),
                 util::fmt_fixed(r.profile_cost, 2),
                 util::fmt_fixed(r.training_hours, 2),
                 util::fmt_fixed(r.training_cost, 2),
                 util::fmt_fixed(r.total_hours(), 2),
                 util::fmt_fixed(r.total_cost(), 2),
                 r.meets_constraints(scenario) ? "met" : "VIOLATED"});
}

/// Prints a search trace as the trajectory figures show it.
void print_trace(const cloud::DeploymentSpace& space,
                 const search::SearchResult& r) {
  util::TablePrinter table(
      {"step", "why", "deployment", "speed (samples/s)", "cum profile (h)",
       "cum profile ($)"});
  int step = 1;
  for (const search::ProbeStep& s : r.trace) {
    table.add_row({std::to_string(step++), s.reason,
                   space.describe(s.deployment),
                   s.feasible ? util::fmt_fixed(s.measured_speed, 1)
                              : "infeasible",
                   util::fmt_fixed(s.cum_profile_hours, 2),
                   util::fmt_fixed(s.cum_profile_cost, 2)});
  }
  table.print();
}

std::string pct(double fraction) { return util::fmt_percent(fraction, 0); }

/// Training within 5% of the oracle's: the pick is "near the optimum".
bool near_oracle(const search::SearchResult& r,
                 const search::SearchResult& opt) {
  return r.found && r.training_hours <= 1.05 * opt.training_hours;
}

/// Declared deviation of Figs. 9–11: HeterBO's profiling spend is 18–29%
/// of ConvBO's here, against the paper's 16–21% (our ConvBO stops after
/// ~16 probes via its relative-EI rule).
bool profiling_ratio_as_declared(double ratio) {
  const double percent = std::round(100.0 * ratio);
  return percent >= 18.0 && percent <= 29.0;
}

/// Whether the first three probes are single-node looks at three
/// different instance types (the trajectory figures' initialization).
bool single_node_init(const search::SearchResult& r) {
  if (r.trace.size() < 3) return false;
  for (int i = 0; i < 3; ++i) {
    if (r.trace[i].deployment.nodes != 1) return false;
  }
  const std::size_t a = r.trace[0].deployment.type_index;
  const std::size_t b = r.trace[1].deployment.type_index;
  const std::size_t c = r.trace[2].deployment.type_index;
  return a != b && b != c && a != c;
}

// ------------------------------------------------------------- cases
//
// Each case's banner (print_header) names the figure, what the paper
// reports and the setting run here.

Claim fig01() {
  bench::print_header(
      "Fig. 1a — normalized hourly cost of EC2 instance types",
      "cost of popular CPU/GPU instances normalized to c5.xlarge = 1; "
      "p2.8xlarge = 42.5x",
      "same normalization over the simulated catalog's on-demand prices");

  const auto& cat = cloud::aws_catalog();
  const double base = cat.at(*cat.find("c5.xlarge")).price_per_hour;

  util::TablePrinter prices({"instance", "$/h", "normalized"});
  auto prices_csv = bench::open_csv(
      "fig01a_prices.csv", {"instance", "price_per_hour", "normalized"});
  for (const char* name :
       {"c5.large", "c5.xlarge", "c5.2xlarge", "c5.4xlarge", "c5n.xlarge",
        "c5n.4xlarge", "c4.xlarge", "c4.4xlarge", "p2.xlarge", "p2.8xlarge",
        "p3.2xlarge", "p3.8xlarge"}) {
    const auto& spec = cat.at(*cat.find(name));
    prices.add_row({name, util::fmt_fixed(spec.price_per_hour, 3),
                    util::fmt_speedup(spec.price_per_hour / base, 1)});
    prices_csv.add_row({name, util::fmt_fixed(spec.price_per_hour, 4),
                        util::fmt_fixed(spec.price_per_hour / base, 3)});
  }
  prices.print();
  const double anchor = cat.at(*cat.find("p2.8xlarge")).price_per_hour / base;

  bench::print_header(
      "Fig. 1b — Char-RNN training time at (near-)equal hourly spend",
      "40 x c5.xlarge vs 10 x c5.4xlarge vs 9 x p2.xlarge; the balanced "
      "CPU fleet wins by ~3x over the GPU option",
      "identical three deployments on the simulated substrate "
      "(9 x p2.xlarge is $8.10/h vs $6.80/h for the others — the paper "
      "rounded the GPU fleet down to nine nodes)");

  const cloud::DeploymentSpace space(cat, 50);
  const perf::TrainingPerfModel perf(cat);
  const auto config = bench::make_config("char_rnn");

  util::TablePrinter table(
      {"deployment", "$/h", "speed (samples/s)", "training time (h)"});
  auto csv = bench::open_csv(
      "fig01b_equal_cost.csv",
      {"deployment", "hourly_price", "speed", "training_hours"});
  std::vector<double> hours;
  for (auto [name, n] : {std::pair<const char*, int>{"c5.xlarge", 40},
                         {"c5.4xlarge", 10},
                         {"p2.xlarge", 9}}) {
    const cloud::Deployment d{*cat.find(name), n};
    const double speed = perf.true_speed(config, d);
    hours.push_back(config.model.samples_to_train / speed / 3600.0);
    table.add_row({space.describe(d),
                   util::fmt_fixed(space.hourly_price(d), 2),
                   util::fmt_fixed(speed, 1),
                   util::fmt_fixed(hours.back(), 2)});
    csv.add_row({space.describe(d),
                 util::fmt_fixed(space.hourly_price(d), 3),
                 util::fmt_fixed(speed, 2), util::fmt_fixed(hours.back(), 3)});
  }
  table.print();

  // 1b: the balanced CPU fleet wins, the GPU fleet loses, by "~3x".
  const double spread = hours[2] / hours[1];
  return {std::abs(anchor - 42.5) < 0.05 && hours[1] < hours[0] &&
              hours[0] < hours[2] && spread >= 2.0 && spread <= 5.0,
          "1a p2.8xlarge = " + util::fmt_speedup(anchor, 1) +
              " c5.xlarge (paper 42.5x); 1b 10 x c5.4xlarge fastest, "
              "9 x p2.xlarge slowest, " +
              util::fmt_speedup(spread, 2) + " best/worst (paper ~3x)"};
}

Claim fig02() {
  bench::print_header(
      "Fig. 2 — exhaustive profiling vs conventional BO (ResNet/CIFAR-10)",
      "exhaustive search limited to 180 of 3,100 choices still costs more "
      "than training; ConvBO is cheaper but its profiling remains on par "
      "with training",
      "same workload over the full 62-type x 50-node space (3,100 "
      "choices); exhaustive strided to 180 probes");

  const auto& cat = cloud::aws_catalog();
  const cloud::DeploymentSpace space(cat, 50);
  const perf::TrainingPerfModel perf(cat);
  const auto config = bench::make_config("resnet");
  const auto problem = bench::make_problem(config, space,
                                           search::Scenario::fastest());

  search::ExhaustiveOptions exhaustive_options;
  exhaustive_options.max_probes = 180;
  const search::SearchResult exhaustive =
      search::ExhaustiveSearcher(perf, exhaustive_options).run(problem);
  // Even parallelized over ten concurrent clusters, exhaustive
  // profiling's dollars do not shrink — only its wall time does.
  search::ExhaustiveOptions parallel_options = exhaustive_options;
  parallel_options.parallel_clusters = 10;
  search::SearchResult exhaustive_par =
      search::ExhaustiveSearcher(perf, parallel_options).run(problem);
  exhaustive_par.method = "exhaustive-180 (10 clusters)";
  const search::SearchResult convbo =
      bench::run_method(perf, problem, "conv-bo");
  const auto opt = search::optimal_deployment(perf, config, space,
                                              problem.scenario);

  auto table = make_result_table();
  add_result_row(table, exhaustive, problem.scenario);
  add_result_row(table, exhaustive_par, problem.scenario);
  add_result_row(table, convbo, problem.scenario);
  if (opt) add_result_row(table, *opt, problem.scenario);
  table.print();

  auto csv = bench::open_csv(
      "fig02_exhaustive_vs_bo.csv",
      {"method", "profile_hours", "profile_cost", "train_hours",
       "train_cost"});
  for (const auto* r : {&exhaustive, &convbo}) {
    csv.add_row({r->method, util::fmt_fixed(r->profile_hours, 3),
                 util::fmt_fixed(r->profile_cost, 2),
                 util::fmt_fixed(r->training_hours, 3),
                 util::fmt_fixed(r->training_cost, 2)});
  }

  const double exhaustive_ratio =
      exhaustive.profile_cost / std::max(exhaustive.training_cost, 1e-9);
  const double convbo_ratio =
      convbo.profile_cost / std::max(convbo.training_cost, 1e-9);
  // Declared deviation: ConvBO's profiling exceeds its training rather
  // than sitting on par with it, because the simulated training run is
  // shorter than the paper's.
  return {exhaustive_ratio >= 10.0 && convbo_ratio > 1.0 &&
              convbo_ratio < exhaustive_ratio &&
              exhaustive_par.profile_cost == exhaustive.profile_cost &&
              exhaustive_par.profile_hours < exhaustive.profile_hours,
          "profile/train $: exhaustive " +
              util::fmt_speedup(exhaustive_ratio, 1) + ", convbo " +
              util::fmt_speedup(convbo_ratio, 2) +
              " (declared deviation: above the paper's 'on par'); 10 "
              "clusters cut exhaustive's profiling time, not its dollars"};
}

Claim fig03() {
  const auto& cat = cloud::aws_catalog();
  const perf::TrainingPerfModel perf(cat);
  const auto config = bench::make_config("char_rnn");

  bench::print_header(
      "Fig. 3a — Char-RNN scale-up (single node, c5 family)",
      "training speed grows non-linearly with instance size",
      "single-node speed across every c5 size on the simulated substrate");
  std::vector<double> per_vcpu;
  {
    util::TablePrinter table(
        {"instance", "vCPUs", "speed (samples/s)", "speed per vCPU"});
    auto csv = bench::open_csv("fig03a_scale_up.csv",
                               {"instance", "vcpus", "speed"});
    for (std::size_t idx : cat.family_indices("c5")) {
      const double speed = perf.true_speed(config, {idx, 1});
      per_vcpu.push_back(speed / cat.at(idx).vcpus);
      table.add_row({cat.at(idx).name, std::to_string(cat.at(idx).vcpus),
                     util::fmt_fixed(speed, 1),
                     util::fmt_fixed(per_vcpu.back(), 2)});
      csv.add_row({cat.at(idx).name, std::to_string(cat.at(idx).vcpus),
                   util::fmt_fixed(speed, 2)});
    }
    table.print();
  }

  bench::print_header(
      "Fig. 3b — Char-RNN scale-out (1..50 nodes)",
      "speed rises, peaks and falls: the concave shape HeterBO's prior "
      "uses to prune expensive large deployments",
      "scale-out series for c5.xlarge, c5.4xlarge and p2.xlarge");
  util::Series a{"c5.xlarge", 'o', {}, {}};
  util::Series b{"c5.4xlarge", '*', {}, {}};
  util::Series c{"p2.xlarge", '+', {}, {}};
  {
    util::TablePrinter table(
        {"nodes", "c5.xlarge", "c5.4xlarge", "p2.xlarge"});
    auto csv = bench::open_csv(
        "fig03b_scale_out.csv",
        {"nodes", "c5_xlarge", "c5_4xlarge", "p2_xlarge"});
    const std::size_t small = *cat.find("c5.xlarge");
    const std::size_t medium = *cat.find("c5.4xlarge");
    const std::size_t gpu = *cat.find("p2.xlarge");
    for (int n : {1, 5, 10, 15, 20, 25, 30, 35, 40, 45, 50}) {
      const double sa = perf.true_speed(config, {small, n});
      const double sb = perf.true_speed(config, {medium, n});
      const double sc = perf.true_speed(config, {gpu, n});
      table.add_row({std::to_string(n), util::fmt_fixed(sa, 0),
                     util::fmt_fixed(sb, 0), util::fmt_fixed(sc, 0)});
      csv.add_row({std::to_string(n), util::fmt_fixed(sa, 2),
                   util::fmt_fixed(sb, 2), util::fmt_fixed(sc, 2)});
    }
    table.print();

    // The claim is the *shape*; draw it.
    for (int n = 1; n <= 50; ++n) {
      a.x.push_back(n);
      a.y.push_back(perf.true_speed(config, {small, n}));
      b.x.push_back(n);
      b.y.push_back(perf.true_speed(config, {medium, n}));
      c.x.push_back(n);
      c.y.push_back(perf.true_speed(config, {gpu, n}));
    }
    util::AsciiChartOptions chart;
    chart.x_label = "nodes";
    chart.y_label = "training speed (samples/s)";
    std::fputs(util::render_chart({a, b, c}, chart).c_str(), stdout);
  }

  // 3a: per-vCPU speed never rises with size (sub-linear scale-up).
  bool sublinear = per_vcpu.back() < per_vcpu.front();
  for (std::size_t i = 1; i < per_vcpu.size(); ++i) {
    sublinear = sublinear && per_vcpu[i] <= per_vcpu[i - 1] * (1.0 + 1e-9);
  }
  // 3b: every series peaks strictly inside 1..50 nodes, then declines.
  bool concave = true;
  std::string peaks;
  for (const util::Series* s : {&a, &b, &c}) {
    const auto peak = std::max_element(s->y.begin(), s->y.end());
    const auto at = peak - s->y.begin();
    concave = concave && at > 0 && s->y.back() < *peak;
    peaks += (peaks.empty() ? "" : "/") + std::to_string(at + 1);
  }
  return {sublinear && concave,
          "3a per-vCPU speed falls " + util::fmt_fixed(per_vcpu.front(), 2) +
              " -> " + util::fmt_fixed(per_vcpu.back(), 2) + " over " +
              std::to_string(per_vcpu.size()) +
              " c5 sizes; 3b c5.xlarge/c5.4xlarge/p2.xlarge peak at " +
              peaks + " nodes, then decline"};
}

// Metric reproduction: after each probing step we project the total cost
// (cumulative profiling + training at the incumbent) and the total time;
// the figure plots the step-over-step change (positive = the step helped).
Claim fig05() {
  bench::print_header(
      "Fig. 5 — per-step gain of conventional BO (AlexNet/CIFAR-10)",
      "most ConvBO profiling steps bring no cost saving / speedup; "
      "several make things worse",
      "ConvBO on the paper's 25-type testbed space; step-over-step change "
      "of projected total cost and total time");

  const auto cat = paper_testbed_catalog();
  const cloud::DeploymentSpace space(cat, 50);
  const perf::TrainingPerfModel perf(cat);
  const auto config = bench::make_config("alexnet");
  const auto problem = bench::make_problem(config, space,
                                           search::Scenario::fastest());
  const search::SearchResult r = bench::run_method(perf, problem, "conv-bo");

  util::TablePrinter table({"step", "probed", "cost saving ($)",
                            "speedup (h)", "verdict"});
  auto csv = bench::open_csv(
      "fig05_convbo_steps.csv",
      {"step", "deployment", "delta_cost", "delta_hours"});

  double best_speed = 0.0;
  double prev_total_cost = 0.0, prev_total_hours = 0.0;
  bool have_prev = false;
  int step = 0;
  int helpful = 0, harmful = 0;
  for (const search::ProbeStep& s : r.trace) {
    ++step;
    if (s.feasible) best_speed = std::max(best_speed, s.measured_speed);
    if (best_speed <= 0.0) continue;
    const double train_hours =
        config.model.samples_to_train / best_speed / 3600.0;
    // Projected totals if we stopped now and trained at the incumbent.
    // (Training price uses the incumbent's deployment; find it.)
    double best_price = 0.0;
    for (const search::ProbeStep& t : r.trace) {
      if (&t > &s) break;
      if (t.feasible && t.measured_speed >= best_speed - 1e-12) {
        best_price = space.hourly_price(t.deployment);
      }
    }
    const double total_cost = s.cum_profile_cost + train_hours * best_price;
    const double total_hours = s.cum_profile_hours + train_hours;
    if (have_prev) {
      const double dc = prev_total_cost - total_cost;   // + = saved money
      const double dh = prev_total_hours - total_hours; // + = saved time
      const char* verdict =
          (dc > 0.01 || dh > 0.01) ? "gain"
                                   : (dc < -0.01 || dh < -0.01 ? "WORSE"
                                                               : "no gain");
      if (dc > 0.01 || dh > 0.01) {
        ++helpful;
      } else {
        ++harmful;
      }
      table.add_row({std::to_string(step), space.describe(s.deployment),
                     util::fmt_fixed(dc, 2), util::fmt_fixed(dh, 2),
                     verdict});
      csv.add_row({std::to_string(step), space.describe(s.deployment),
                   util::fmt_fixed(dc, 3), util::fmt_fixed(dh, 3)});
    }
    prev_total_cost = total_cost;
    prev_total_hours = total_hours;
    have_prev = true;
  }
  table.print();
  return {helpful < harmful, std::to_string(helpful) + " helpful vs " +
                                 std::to_string(harmful) +
                                 " unhelpful/harmful steps"};
}

/// Figs. 9–11 share one setting: ResNet/CIFAR-10 scale-out over
/// c5.4xlarge. Prints (a) HeterBO's seed-7 trace and (b) the 3-seed
/// totals of HeterBO, ConvBO and the oracle.
struct ScenarioTotals {
  search::SearchResult heterbo;
  search::SearchResult convbo;
  std::optional<search::SearchResult> opt;
};

ScenarioTotals run_scale_out_scenario(const search::Scenario& scenario) {
  const auto cat = bench::subset_catalog({"c5.4xlarge"});
  const cloud::DeploymentSpace space(cat, 50);
  const perf::TrainingPerfModel perf(cat);
  const auto config = bench::make_config("resnet");
  const auto problem = bench::make_problem(config, space, scenario);

  std::printf("\n(a) HeterBO search process (seed 7):\n");
  print_trace(space, bench::run_method(perf, problem, "heterbo"));

  std::printf("\n(b) totals (3-seed means):\n");
  ScenarioTotals totals{run_method_mean(perf, problem, "heterbo"),
                        run_method_mean(perf, problem, "conv-bo"),
                        search::optimal_deployment(perf, config, space,
                                                   scenario)};
  auto table = make_result_table();
  add_result_row(table, totals.heterbo, scenario);
  add_result_row(table, totals.convbo, scenario);
  if (totals.opt) add_result_row(table, *totals.opt, scenario);
  table.print();
  return totals;
}

Claim fig09() {
  bench::print_header(
      "Fig. 9 — Scenario 1 (fastest, unlimited budget)",
      "ResNet/CIFAR-10, scale-out over c5.4xlarge; HeterBO finds the "
      "optimum with ~16% of ConvBO's profiling cost",
      "same single-type scale-out space (1..50 nodes) on the simulated "
      "substrate, 3-seed means");
  const auto [hb, cb, opt] =
      run_scale_out_scenario(search::Scenario::fastest());

  auto csv = bench::open_csv("fig09_scenario1.csv",
                             {"method", "profile_hours", "profile_cost",
                              "train_hours", "train_cost"});
  for (const auto* r : {&hb, &cb}) {
    csv.add_row({r->method, util::fmt_fixed(r->profile_hours, 3),
                 util::fmt_fixed(r->profile_cost, 2),
                 util::fmt_fixed(r->training_hours, 3),
                 util::fmt_fixed(r->training_cost, 2)});
  }

  const double ratio = hb.profile_cost / cb.profile_cost;
  return {profiling_ratio_as_declared(ratio) && opt &&
              near_oracle(hb, *opt) && near_oracle(cb, *opt),
          "HeterBO profiling cost " + pct(ratio) +
              " of ConvBO's (declared deviation: 18-29% vs the paper's "
              "16%); picks " +
              hb.best_description + " / " + cb.best_description +
              " vs oracle " + (opt ? opt->best_description : "(none)")};
}

Claim fig10() {
  bench::print_header(
      "Fig. 10 — Scenario 2 (cheapest under a 6 h total-time limit)",
      "ResNet/CIFAR-10, scale-out over c5.4xlarge; HeterBO complies at "
      "~20% of ConvBO's profiling cost; ConvBO overruns by 3.4 h",
      "same space and limit on the simulated substrate, 3-seed means");
  const auto scenario = search::Scenario::cheapest_under_deadline(6.0);
  const auto [hb, cb, opt] = run_scale_out_scenario(scenario);

  auto csv = bench::open_csv("fig10_scenario2.csv",
                             {"method", "profile_cost", "train_cost",
                              "total_hours", "deadline_met"});
  for (const auto* r : {&hb, &cb}) {
    csv.add_row({r->method, util::fmt_fixed(r->profile_cost, 2),
                 util::fmt_fixed(r->training_cost, 2),
                 util::fmt_fixed(r->total_hours(), 3),
                 r->meets_constraints(scenario) ? "yes" : "no"});
  }

  const double ratio = hb.profile_cost / cb.profile_cost;
  const double overrun = cb.total_hours() - 6.0;
  return {hb.meets_constraints(scenario) && overrun > 0.0 &&
              profiling_ratio_as_declared(ratio),
          "HeterBO complies (" + util::fmt_hours(hb.total_hours()) +
              ") at " + pct(ratio) +
              " of ConvBO's profiling cost (declared deviation: 18-29% vs "
              "the paper's 20%); ConvBO overruns by " +
              util::fmt_hours(overrun) + " (paper 3.4 h)"};
}

Claim fig11() {
  bench::print_header(
      "Fig. 11 — Scenario 3 (fastest under a $100 total budget)",
      "ResNet/CIFAR-10, scale-out over c5.4xlarge; HeterBO finishes at "
      "$96 (~21% of ConvBO's profiling), ConvBO blows the budget at $225",
      "same space and budget on the simulated substrate, 3-seed means");
  const auto scenario = search::Scenario::fastest_under_budget(100.0);
  const auto [hb, cb, opt] = run_scale_out_scenario(scenario);

  auto csv = bench::open_csv("fig11_scenario3.csv",
                             {"method", "total_cost", "total_hours",
                              "budget_met"});
  for (const auto* r : {&hb, &cb}) {
    csv.add_row({r->method, util::fmt_fixed(r->total_cost(), 2),
                 util::fmt_fixed(r->total_hours(), 3),
                 r->meets_constraints(scenario) ? "yes" : "no"});
  }

  const double ratio = hb.profile_hours / cb.profile_hours;
  return {hb.meets_constraints(scenario) && !cb.meets_constraints(scenario) &&
              profiling_ratio_as_declared(ratio),
          "HeterBO " + util::fmt_dollars(hb.total_cost()) +
              " (met; paper $96), ConvBO " +
              util::fmt_dollars(cb.total_cost()) +
              " (violated; paper $225); HeterBO profiling time " +
              pct(ratio) +
              " of ConvBO's (declared deviation: 18-29% vs the paper's "
              "21%)"};
}

Claim fig12() {
  bench::print_header(
      "Fig. 12 — random profiling vs HeterBO (total time distribution)",
      "whisker plot of total hours for 1..36 random probes; HeterBO's "
      "mean line beats random search everywhere",
      "ResNet/CIFAR-10 scale-out over c5.4xlarge; 20 repetitions per "
      "probe count");

  const auto cat = bench::subset_catalog({"c5.4xlarge"});
  const cloud::DeploymentSpace space(cat, 50);
  const perf::TrainingPerfModel perf(cat);
  const auto config = bench::make_config("resnet");
  auto problem = bench::make_problem(config, space,
                                     search::Scenario::fastest());

  util::TablePrinter table(
      {"probes", "min", "q1", "median", "q3", "max"});
  auto csv = bench::open_csv(
      "fig12_random_search.csv",
      {"probes", "min", "q1", "median", "q3", "max"});

  std::vector<std::pair<int, stats::WhiskerStats>> whiskers;
  for (int probes : {1, 3, 6, 9, 12, 15, 18, 24, 30, 36}) {
    std::vector<double> totals;
    for (int rep = 1; rep <= 20; ++rep) {
      problem.seed = static_cast<std::uint64_t>(1000 * probes + rep);
      search::RandomSearchOptions options;
      options.probes = probes;
      const search::SearchResult r =
          search::RandomSearcher(perf, options).run(problem);
      if (r.found) totals.push_back(r.total_hours());
    }
    const stats::WhiskerStats w = stats::whisker_stats(totals);
    whiskers.emplace_back(probes, w);
    table.add_row({std::to_string(probes), util::fmt_fixed(w.min, 1),
                   util::fmt_fixed(w.q1, 1), util::fmt_fixed(w.median, 1),
                   util::fmt_fixed(w.q3, 1), util::fmt_fixed(w.max, 1)});
    csv.add_row({std::to_string(probes), util::fmt_fixed(w.min, 3),
                 util::fmt_fixed(w.q1, 3), util::fmt_fixed(w.median, 3),
                 util::fmt_fixed(w.q3, 3), util::fmt_fixed(w.max, 3)});
  }
  table.print();

  // HeterBO mean line.
  double hb_total = 0.0;
  for (int rep = 1; rep <= 10; ++rep) {
    problem.seed = static_cast<std::uint64_t>(rep);
    hb_total += bench::run_method(perf, problem, "heterbo").total_hours();
  }
  hb_total /= 10.0;
  std::printf("HeterBO mean total: %s\n",
              util::fmt_hours(hb_total).c_str());

  // Wide whiskers at one probe; medians rising with every probe count
  // from 3 on. Declared deviation: HeterBO's mean beats the random
  // median only from 6 probes on — on this flat-topped curve one or three
  // random picks often land near the optimum for less profiling.
  const double first_spread = whiskers[0].second.max - whiskers[0].second.min;
  bool holds = true;
  double widest_other = 0.0;
  for (std::size_t i = 1; i < whiskers.size(); ++i) {
    const stats::WhiskerStats& w = whiskers[i].second;
    widest_other = std::max(widest_other, w.max - w.min);
    holds = holds && (i < 2 || w.median > whiskers[i - 1].second.median);
  }
  for (const auto& [probes, w] : whiskers) {
    holds = holds && (probes >= 6) == (hb_total < w.median);
  }
  holds = holds && first_spread > widest_other;
  return {holds,
          "spread " + util::fmt_hours(first_spread, 1) +
              " at 1 probe vs <= " + util::fmt_hours(widest_other, 1) +
              " elsewhere; medians rise " +
              util::fmt_hours(whiskers[1].second.median, 1) + " -> " +
              util::fmt_hours(whiskers.back().second.median, 1) +
              " from 3 to 36 probes; HeterBO mean " +
              util::fmt_hours(hb_total) +
              " below the random median from 6 probes on, above it at 1-3 "
              "(declared deviation: the paper's beats random everywhere)"};
}

Claim fig13() {
  bench::print_header(
      "Fig. 13 — vs Paleo (Inception-v3/ImageNet, $80 budget)",
      "Paleo profiles nothing but picks a sub-optimal cluster (its "
      "analytic model misses topology nuances); HeterBO is near-optimal "
      "and under budget; ConvBO overshoots",
      "moderate-size slice of the testbed, up to 100 CPU / 50 GPU nodes "
      "per §V-A (giant 8x-18x instances would trivialize the job; see "
      "EXPERIMENTS.md), 3-seed means");

  const auto cat = testbed_slice();
  // §V-A: up to 100 CPU instances, 50 GPU instances.
  std::vector<int> limits;
  for (const auto& spec : cat.all()) {
    limits.push_back(spec.is_gpu_instance() ? 50 : 100);
  }
  const cloud::DeploymentSpace space(cat, limits);
  const perf::TrainingPerfModel perf(cat);
  const auto config = bench::make_config("inception_v3");
  const auto scenario = search::Scenario::fastest_under_budget(80.0);
  const auto problem = bench::make_problem(config, space, scenario);

  const auto cb = run_method_mean(perf, problem, "conv-bo");
  const auto paleo = bench::run_method(perf, problem, "paleo");
  const auto hb = run_method_mean(perf, problem, "heterbo");
  const auto opt =
      search::optimal_deployment(perf, config, space, scenario);

  auto table = make_result_table();
  add_result_row(table, cb, scenario);
  add_result_row(table, paleo, scenario);
  add_result_row(table, hb, scenario);
  if (opt) add_result_row(table, *opt, scenario);
  table.print();

  auto csv = bench::open_csv("fig13_vs_paleo.csv",
                             {"method", "total_cost", "total_hours",
                              "budget_met"});
  for (const auto* r : {&cb, &paleo, &hb}) {
    csv.add_row({r->method, util::fmt_fixed(r->total_cost(), 2),
                 util::fmt_fixed(r->total_hours(), 3),
                 r->meets_constraints(scenario) ? "yes" : "no"});
  }

  if (!opt || !paleo.found) return {false, "no oracle or no Paleo pick"};
  // Paleo over-scales: more nodes than the oracle, slower training and
  // over budget, for zero profiling. HeterBO complies; its pick is
  // compliant but not the oracle's (reported, not claimed).
  return {paleo.profile_cost == 0.0 && paleo.best.nodes > opt->best.nodes &&
              paleo.training_hours > opt->training_hours &&
              !paleo.meets_constraints(scenario) &&
              !cb.meets_constraints(scenario) &&
              hb.meets_constraints(scenario),
          "Paleo profiles $0 but picks " + paleo.best_description +
              " (oracle " + opt->best_description + "), trains " +
              pct(1.0 - opt->training_hours / paleo.training_hours) +
              " slower and costs " + util::fmt_dollars(paleo.total_cost()) +
              " > $80; ConvBO " + util::fmt_dollars(cb.total_cost()) +
              " (violated); HeterBO " + util::fmt_dollars(hb.total_cost()) +
              " (met), training " + util::fmt_hours(hb.training_hours) +
              " vs the oracle's " + util::fmt_hours(opt->training_hours)};
}

// The paper's limit is 20 h for its AWS-scale job; our simulated job is
// smaller, so the limit sits at the same *relative* position (a few
// hours above the cheapest compliant training run): 16 h.
Claim fig14() {
  bench::print_header(
      "Fig. 14 — vs CherryPick (Char-RNN, 16 h total-time limit)",
      "CherryPick (favored: worse-performing types excluded) still "
      "overruns the limit; HeterBO complies with low profiling cost",
      "moderate-size slice of the testbed; CherryPick trimmed to the "
      "c5/c5n families; violations tallied over 5 seeds");

  const auto cat = testbed_slice();
  const cloud::DeploymentSpace space(cat, 50);
  const perf::TrainingPerfModel perf(cat);
  const auto config = bench::make_config("char_rnn");
  const auto scenario = search::Scenario::cheapest_under_deadline(16.0);
  auto problem = bench::make_problem(config, space, scenario);

  // Constraint compliance is the figure's point and it is a per-run
  // property, so each method runs per seed and violations are tallied
  // (the table shows seed 1's run).
  constexpr int kSeeds = 5;
  auto tally = [&](auto&& make) {
    std::pair<search::SearchResult, int> out{{}, 0};
    for (int s = 1; s <= kSeeds; ++s) {
      problem.seed = static_cast<std::uint64_t>(s);
      const search::SearchResult r = make()->run(problem);
      if (s == 1) out.first = r;
      if (!r.found || !r.meets_constraints(scenario)) ++out.second;
    }
    return out;
  };

  const auto [cb, cb_viol] = tally(
      [&] { return std::make_unique<search::ConvBoSearcher>(perf); });
  const auto [cp, cp_viol] = tally([&] {
    search::CherryPickOptions options;
    options.allowed_families = {"c5", "c5n"};
    return std::make_unique<search::CherryPickSearcher>(perf, options);
  });
  const auto [hb, hb_viol] = tally(
      [&] { return std::make_unique<search::HeterBoSearcher>(perf); });
  const auto opt =
      search::optimal_deployment(perf, config, space, scenario);

  std::printf("\n(seed-1 runs; violations tallied over %d seeds):\n",
              kSeeds);
  auto table = make_result_table();
  add_result_row(table, cb, scenario);
  add_result_row(table, cp, scenario);
  add_result_row(table, hb, scenario);
  if (opt) add_result_row(table, *opt, scenario);
  table.print();

  auto csv = bench::open_csv("fig14_vs_cherrypick.csv",
                             {"method", "total_cost", "total_hours",
                              "violations", "seeds"});
  const auto add_csv_row = [&](const search::SearchResult& r,
                               int violations) {
    csv.add_row({r.method, util::fmt_fixed(r.total_cost(), 2),
                 util::fmt_fixed(r.total_hours(), 3),
                 std::to_string(violations), std::to_string(kSeeds)});
  };
  add_csv_row(cb, cb_viol);
  add_csv_row(cp, cp_viol);
  add_csv_row(hb, hb_viol);

  return {hb_viol == 0 && cp_viol > 0,
          "violations over " + std::to_string(kSeeds) + " seeds: conv-bo " +
              std::to_string(cb_viol) + ", cherrypick " +
              std::to_string(cp_viol) + ", heterbo " +
              std::to_string(hb_viol) + "; seed-1 profiling heterbo " +
              util::fmt_dollars(hb.profile_cost) + " vs cherrypick " +
              util::fmt_dollars(cp.profile_cost)};
}

/// Figs. 15–17: one seed-7 HeterBO run over three instance types, the
/// trajectory printed as the paper's figures show it (unless `csv_name`
/// is empty, which runs it silently).
search::SearchResult run_trajectory(const std::vector<std::string>& types,
                                    int max_nodes,
                                    const perf::TrainingConfig& config,
                                    double budget,
                                    const std::string& csv_name) {
  const auto cat = bench::subset_catalog(types);
  const cloud::DeploymentSpace space(cat, max_nodes);
  const perf::TrainingPerfModel perf(cat);
  const auto scenario = search::Scenario::fastest_under_budget(budget);
  const auto problem = bench::make_problem(config, space, scenario);

  const search::SearchResult r = bench::run_method(perf, problem, "heterbo");
  if (csv_name.empty()) return r;
  print_trace(space, r);

  auto csv = bench::open_csv(
      csv_name, {"step", "type", "nodes", "speed", "reason"});
  int step = 1;
  for (const search::ProbeStep& s : r.trace) {
    csv.add_row({std::to_string(step++),
                 cat.at(s.deployment.type_index).name,
                 std::to_string(s.deployment.nodes),
                 util::fmt_fixed(s.measured_speed, 2), s.reason});
  }

  std::printf("\nfinal pick: %s — total %s / %s (%s)\n",
              r.best_description.c_str(),
              util::fmt_hours(r.total_hours()).c_str(),
              util::fmt_dollars(r.total_cost()).c_str(),
              r.meets_constraints(scenario) ? "budget met"
                                            : "BUDGET VIOLATED");
  return r;
}

Claim fig15() {
  bench::print_header(
      "Fig. 15 — HeterBO trajectory, Char-RNN (budget $120)",
      "9 steps: single-node probes of each type (1-3), interval discovery "
      "(4-6), exploitation near the optimum (7-9)",
      "same three types x 1..50 nodes on the simulated substrate, seed 7");
  const std::vector<std::string> types = {"c5.xlarge", "c5.4xlarge",
                                          "p2.xlarge"};
  const auto config = bench::make_config("char_rnn");
  const search::SearchResult r =
      run_trajectory(types, 50, config, 120.0, "fig15_trace.csv");

  // The expensive region beyond a type's scale-out peak is never probed.
  const auto cat = bench::subset_catalog(types);
  const perf::TrainingPerfModel perf(cat);
  int beyond_peak = 0;
  for (const search::ProbeStep& s : r.trace) {
    int peak = 1;
    for (int n = 2; n <= 50; ++n) {
      if (perf.true_speed(config, {s.deployment.type_index, n}) >
          perf.true_speed(config, {s.deployment.type_index, peak})) {
        peak = n;
      }
    }
    if (s.deployment.nodes > peak) ++beyond_peak;
  }
  return {r.found && r.total_cost() <= 120.0 && single_node_init(r) &&
              beyond_peak == 0,
          "single-node probe of each type first, " +
              std::to_string(r.trace.size()) + " probes, " +
              std::to_string(beyond_peak) +
              " beyond a type's scale-out peak; pick " +
              r.best_description + " at " +
              util::fmt_dollars(r.total_cost()) + " <= $120"};
}

Claim fig16() {
  bench::print_header(
      "Fig. 16 — HeterBO trajectory, BERT/TensorFlow (budget $100)",
      "8 steps over c5n.xlarge / c5n.4xlarge / p2.xlarge with ring "
      "all-reduce; exploration then exploitation on the winning type",
      "same three types x 1..20 nodes on the simulated substrate, seed 7");
  const search::SearchResult r = run_trajectory(
      {"c5n.xlarge", "c5n.4xlarge", "p2.xlarge"}, 20,
      bench::make_config("bert", "tensorflow",
                         perf::CommTopology::kRingAllReduce),
      100.0, "fig16_trace.csv");
  return {r.found && r.total_cost() <= 100.0 && single_node_init(r),
          "single-node probe of each type first, " +
              std::to_string(r.trace.size()) + " probes; pick " +
              r.best_description + " at " +
              util::fmt_dollars(r.total_cost()) + " <= $100"};
}

Claim fig17() {
  bench::print_header(
      "Fig. 17 — HeterBO trajectory, BERT/MXNet (budget $120)",
      "same explore/exploit pattern as the TensorFlow run, confirming "
      "platform independence",
      "c5n.xlarge / c5n.4xlarge / p2.xlarge x 1..20 nodes, MXNet ring "
      "all-reduce, seed 7");
  const std::vector<std::string> types = {"c5n.xlarge", "c5n.4xlarge",
                                          "p2.xlarge"};
  const search::SearchResult r = run_trajectory(
      types, 20,
      bench::make_config("bert", "mxnet", perf::CommTopology::kRingAllReduce),
      120.0, "fig17_trace.csv");
  // The same search on TensorFlow, run silently: platform independence
  // means the same sequence of stages.
  const search::SearchResult tf = run_trajectory(
      types, 20,
      bench::make_config("bert", "tensorflow",
                         perf::CommTopology::kRingAllReduce),
      120.0, "");
  const auto stages = [](const search::SearchResult& run) {
    std::string out;
    for (const search::ProbeStep& s : run.trace) out += s.reason + " ";
    return out;
  };
  return {r.found && r.total_cost() <= 120.0 && single_node_init(r) &&
              stages(r) == stages(tf),
          "same stage sequence as the TensorFlow run over " +
              std::to_string(r.trace.size()) + " probes; pick " +
              r.best_description + " at " +
              util::fmt_dollars(r.total_cost()) + " <= $120"};
}

Claim fig18() {
  bench::print_header(
      "Fig. 18 — budget sensitivity (ResNet/CIFAR-10)",
      "total cost & time vs budget for ConvBO, BO_imprd, CherryPick, "
      "CP_imprd, HeterBO and Opt; headline: HeterBO up to 3.1x faster "
      "than ConvBO and 2.34x than CherryPick, never over budget",
      "moderate-size slice of the testbed (the paper's §V-D narrows the "
      "search similarly; the giant 18x/16x instances would trivialize "
      "this CIFAR-scale job); CherryPick favored with a c5n-only trim; "
      "3-seed means");

  const auto cat = testbed_slice();
  const cloud::DeploymentSpace space(cat, 50);
  const perf::TrainingPerfModel perf(cat);
  const auto config = bench::make_config("resnet");

  auto csv = bench::open_csv(
      "fig18_sensitivity.csv",
      {"budget", "method", "total_cost", "total_hours", "budget_met"});

  // The paper favors CherryPick in this experiment by narrowing it to
  // the known-good instance type (c5n.4xlarge).
  const auto cherrypick = [&](bool budget_aware) {
    search::CherryPickOptions options;
    options.allowed_families = {"c5n"};
    options.budget_aware = budget_aware;
    return [&perf, options](const search::SearchProblem& p) {
      return search::CherryPickSearcher(perf, options).run(p);
    };
  };

  double worst_speedup_cb = 0.0, worst_speedup_cp = 0.0;
  bool holds = true;
  int cp_faster = 0, cbi_violations = 0;
  constexpr int kBudgets = 4;
  for (double budget : {100.0, 140.0, 180.0, 220.0}) {
    const auto scenario = search::Scenario::fastest_under_budget(budget);
    const auto problem = bench::make_problem(config, space, scenario);

    const auto cb = run_method_mean(perf, problem, "conv-bo");
    const auto cbi = run_method_mean(perf, problem, "bo-improved");
    const auto cp = mean_over_seeds(problem, cherrypick(false));
    const auto cpi = mean_over_seeds(problem, cherrypick(true));
    const auto hb = run_method_mean(perf, problem, "heterbo");
    const auto opt =
        search::optimal_deployment(perf, config, space, scenario);

    std::printf("\n--- budget %s\n", util::fmt_dollars(budget, 0).c_str());
    auto table = make_result_table();
    add_result_row(table, cb, scenario);
    add_result_row(table, cbi, scenario);
    add_result_row(table, cp, scenario);
    add_result_row(table, cpi, scenario);
    add_result_row(table, hb, scenario);
    if (opt) add_result_row(table, *opt, scenario);
    table.print();

    for (const auto* r : {&cb, &cbi, &cp, &cpi, &hb}) {
      csv.add_row({util::fmt_fixed(budget, 0), r->method,
                   util::fmt_fixed(r->total_cost(), 2),
                   util::fmt_fixed(r->total_hours(), 3),
                   r->meets_constraints(scenario) ? "yes" : "no"});
    }
    worst_speedup_cb =
        std::max(worst_speedup_cb, cb.total_hours() / hb.total_hours());
    worst_speedup_cp =
        std::max(worst_speedup_cp, cp.total_hours() / hb.total_hours());

    holds = holds && opt && hb.meets_constraints(scenario) &&
            near_oracle(hb, *opt) && !cb.meets_constraints(scenario) &&
            hb.total_hours() < cb.total_hours() &&
            cp.meets_constraints(scenario);
    if (cp.total_hours() < hb.total_hours()) ++cp_faster;
    if (!cbi.meets_constraints(scenario)) ++cbi_violations;
  }

  // HeterBO is the only method without the type trim that meets every
  // budget. Declared deviation: CherryPick, hand-narrowed to the optimal
  // type, meets every budget and beats HeterBO's wall time at some.
  return {holds && cbi_violations > 0 && cp_faster > 0,
          "HeterBO meets all " + std::to_string(kBudgets) +
              " budgets with near-oracle picks; ConvBO violates " +
              std::to_string(kBudgets) + ", budget-aware ConvBO " +
              std::to_string(cbi_violations) + " of " +
              std::to_string(kBudgets) + "; HeterBO up to " +
              util::fmt_speedup(worst_speedup_cb, 2) +
              " faster than ConvBO (paper 3.1x), " +
              util::fmt_speedup(worst_speedup_cp, 2) +
              " vs CherryPick (paper 2.34x); declared deviation: trimmed "
              "CherryPick meets all budgets and beats HeterBO's wall time "
              "at " +
              std::to_string(cp_faster) + " of " + std::to_string(kBudgets)};
}

Claim fig19() {
  bench::print_header(
      "Fig. 19 — scalability with model size (HeterBO vs ConvBO)",
      "speedup 1.3x -> 6.5x and cost saving 69% -> 92% as the model "
      "grows from 6.4M to 20B parameters",
      "c5n.xlarge / c5n.4xlarge / c5n.9xlarge / p3.2xlarge x 1..20 "
      "nodes; ZeRO points rely on state partitioning, as in the paper; "
      "3-seed means");

  const auto cat = bench::subset_catalog(
      {"c5n.xlarge", "c5n.4xlarge", "c5n.9xlarge", "p3.2xlarge"});
  const cloud::DeploymentSpace space(cat, 20);
  const perf::TrainingPerfModel perf(cat);

  util::TablePrinter table({"model", "params", "speedup (total time)",
                            "search-cost saving", "total-cost saving"});
  std::vector<std::pair<std::string, double>> savings;
  std::vector<double> speedups;
  auto csv = bench::open_csv(
      "fig19_scalability.csv",
      {"model", "params", "time_speedup", "search_cost_saving",
       "total_cost_saving"});

  for (const char* model :
       {"alexnet", "resnet", "bert", "zero_8b", "zero_20b"}) {
    const auto config = bench::make_config(
        model, "tensorflow", perf::CommTopology::kRingAllReduce);
    const auto problem = bench::make_problem(config, space,
                                             search::Scenario::fastest());
    const auto hb = run_method_mean(perf, problem, "heterbo");
    const auto cb = run_method_mean(perf, problem, "conv-bo");

    const double speedup = cb.total_hours() / hb.total_hours();
    const double search_saving = 1.0 - hb.profile_cost / cb.profile_cost;
    const double total_saving = 1.0 - hb.total_cost() / cb.total_cost();
    savings.emplace_back(model, std::max(0.0, search_saving));
    speedups.push_back(speedup);
    table.add_row({model,
                   util::fmt_fixed(config.model.params / 1e6, 1) + "M",
                   util::fmt_speedup(speedup, 2),
                   util::fmt_percent(search_saving, 0),
                   util::fmt_percent(total_saving, 0)});
    csv.add_row({model, util::fmt_fixed(config.model.params, 0),
                 util::fmt_fixed(speedup, 3),
                 util::fmt_fixed(search_saving, 3),
                 util::fmt_fixed(total_saving, 3)});
  }
  table.print();

  std::printf("\nsearch-cost saving by model size:\n");
  for (const auto& [label, saving] : savings) {
    std::printf("%s\n",
                util::render_bar(label, saving,
                                 util::fmt_percent(saving, 0))
                    .c_str());
  }

  // The search-cost saving — the quantity HeterBO's mechanism controls —
  // grows from the smallest to the largest model. Declared deviation:
  // it dips at mid-size models, and both series are compressed (the
  // 20B training run dominates both methods' totals here).
  const double first = savings.front().second;
  const double last = savings.back().second;
  double dip = first;
  for (std::size_t i = 1; i + 1 < savings.size(); ++i) {
    dip = std::min(dip, savings[i].second);
  }
  const auto [slowest, fastest] =
      std::minmax_element(speedups.begin(), speedups.end());
  return {last > first && dip < first && last < 0.92 && *slowest > 1.0 &&
              *fastest < 2.0,
          "search-cost saving " + pct(first) + " -> " + pct(last) +
              " from 6.4M to 20B, dipping to " + pct(dip) +
              " at mid size; total-time speedup " +
              util::fmt_speedup(*slowest, 2) + "-" +
              util::fmt_speedup(*fastest, 2) +
              " (declared deviation: compressed from the paper's "
              "69% -> 92% and 1.3x -> 6.5x)"};
}

Claim ablation_heterbo() {
  bench::print_header(
      "Ablation — HeterBO design choices (Char-RNN, budget $120)",
      "(not a paper figure) isolates the contribution of each HeterBO "
      "ingredient the paper motivates in §III",
      "Fig. 15 workload: c5.xlarge / c5.4xlarge / p2.xlarge x 1..50, "
      "3-seed means");

  const auto cat =
      bench::subset_catalog({"c5.xlarge", "c5.4xlarge", "p2.xlarge"});
  const cloud::DeploymentSpace space(cat, 50);
  const perf::TrainingPerfModel perf(cat);
  const auto config = bench::make_config("char_rnn");
  const auto scenario = search::Scenario::fastest_under_budget(120.0);
  const auto problem = bench::make_problem(config, space, scenario);

  search::HeterBoOptions full;
  search::HeterBoOptions no_cost = full;
  no_cost.cost_aware_acquisition = false;
  search::HeterBoOptions no_prior = full;
  no_prior.use_concavity_prior = false;
  search::HeterBoOptions no_reserve = full;
  no_reserve.protective_reserve = false;

  auto table = make_result_table();
  auto csv = bench::open_csv(
      "ablation_heterbo.csv",
      {"variant", "profile_cost", "total_cost", "budget_met"});
  std::vector<search::SearchResult> runs;
  for (const auto& [label, options] :
       std::vector<std::pair<std::string, search::HeterBoOptions>>{
           {"heterbo (full)", full},
           {"- cost-aware acq", no_cost},
           {"- concavity prior", no_prior},
           {"- protective reserve", no_reserve}}) {
    search::SearchResult r =
        mean_over_seeds(problem, [&](const search::SearchProblem& p) {
          return search::HeterBoSearcher(perf, options).run(p);
        });
    r.method = label;
    add_result_row(table, r, scenario);
    csv.add_row({label, util::fmt_fixed(r.profile_cost, 2),
                 util::fmt_fixed(r.total_cost(), 2),
                 r.meets_constraints(scenario) ? "yes" : "no"});
    runs.push_back(std::move(r));
  }
  table.print();

  // The protective reserve is the compliance mechanism: without it the
  // search overspends on probes and is forced onto a slow cheap fallback.
  // Declared: on this narrow space neither the cost-aware acquisition
  // nor the prior raises profiling spend when removed (they shape which
  // deployments get probed; tests/search_test.cpp asserts that).
  const search::SearchResult& hb = runs[0];
  const search::SearchResult& cost = runs[1];
  const search::SearchResult& prior = runs[2];
  const search::SearchResult& reserve = runs[3];
  const bool reserve_spends_most =
      reserve.profile_cost > std::max({hb.profile_cost, cost.profile_cost,
                                       prior.profile_cost});
  return {reserve_spends_most &&
              reserve.training_hours > 5.0 * hb.training_hours &&
              cost.profile_cost <= hb.profile_cost + 0.005 &&
              prior.profile_cost <= hb.profile_cost + 0.005 &&
              cost.meets_constraints(scenario) &&
              prior.meets_constraints(scenario),
          "- protective reserve spends " +
              util::fmt_dollars(reserve.profile_cost) +
              " on profiling (the most) and trains " +
              util::fmt_hours(reserve.training_hours) + " vs " +
              util::fmt_hours(hb.training_hours) +
              "; declared no-inflation on this narrow space: - cost-aware "
              "acq " +
              util::fmt_dollars(cost.profile_cost) + ", - concavity prior " +
              util::fmt_dollars(prior.profile_cost) + " vs full " +
              util::fmt_dollars(hb.profile_cost)};
}

Claim ablation_acquisition() {
  bench::print_header(
      "Ablation — acquisition functions (ResNet scale-out, Scenario 1)",
      "(not a paper figure) §II-D surveys EI / UCB / POI; the paper "
      "builds on EI",
      "identical ConvBO loop with each acquisition; 5-seed means");

  const auto cat = bench::subset_catalog({"c5.4xlarge"});
  const cloud::DeploymentSpace space(cat, 50);
  const perf::TrainingPerfModel perf(cat);
  const auto config = bench::make_config("resnet");
  auto problem = bench::make_problem(config, space,
                                     search::Scenario::fastest());
  const auto opt =
      search::optimal_deployment(perf, config, space, problem.scenario);

  util::TablePrinter table({"acquisition", "probes (mean)",
                            "profile $ (mean)", "pick speed vs opt"});
  auto csv = bench::open_csv(
      "ablation_acquisition.csv",
      {"acquisition", "probes", "profile_cost", "speed_ratio"});

  double min_ratio = 1.0, min_probes = 1e9, max_probes = 0.0;
  for (const char* name : {"ei", "ucb", "poi"}) {
    double probes = 0, cost = 0, ratio = 0;
    constexpr int kSeeds = 5;
    for (int seed = 1; seed <= kSeeds; ++seed) {
      problem.seed = static_cast<std::uint64_t>(seed);
      search::ConvBoOptions options;
      options.loop.acquisition = name;
      const search::SearchResult r =
          search::ConvBoSearcher(perf, options).run(problem);
      probes += static_cast<double>(r.trace.size());
      cost += r.profile_cost;
      if (r.found && opt) {
        ratio += r.best_true_speed / opt->best_true_speed;
      }
    }
    probes /= kSeeds;
    cost /= kSeeds;
    ratio /= kSeeds;
    min_ratio = std::min(min_ratio, ratio);
    min_probes = std::min(min_probes, probes);
    max_probes = std::max(max_probes, probes);
    table.add_row({name, util::fmt_fixed(probes, 1),
                   util::fmt_fixed(cost, 2), util::fmt_percent(ratio, 1)});
    csv.add_row({name, util::fmt_fixed(probes, 2),
                 util::fmt_fixed(cost, 2), util::fmt_fixed(ratio, 4)});
  }
  table.print();

  // All three land within 0.5% of the oracle's speed at comparable probe
  // counts: EI matches the others with no hyperparameter to tune.
  return {min_ratio >= 0.995 && max_probes <= 1.2 * min_probes,
          "every acquisition picks >= " + util::fmt_percent(min_ratio, 1) +
              " of the oracle's speed with " +
              util::fmt_fixed(min_probes, 1) + "-" +
              util::fmt_fixed(max_probes, 1) + " probes"};
}

struct Case {
  std::string_view name;
  Claim (*run)();
};

constexpr Case kCases[] = {
    {"fig01", fig01},
    {"fig02", fig02},
    {"fig03", fig03},
    {"fig05", fig05},
    {"fig09", fig09},
    {"fig10", fig10},
    {"fig11", fig11},
    {"fig12", fig12},
    {"fig13", fig13},
    {"fig14", fig14},
    {"fig15", fig15},
    {"fig16", fig16},
    {"fig17", fig17},
    {"fig18", fig18},
    {"fig19", fig19},
    {"ablation-heterbo", ablation_heterbo},
    {"ablation-acquisition", ablation_acquisition},
};

}  // namespace

int main(int argc, char** argv) {
  std::vector<const Case*> selected;
  for (int i = 1; i < argc; ++i) {
    const auto it = std::find_if(
        std::begin(kCases), std::end(kCases),
        [&](const Case& c) { return c.name == argv[i]; });
    if (it == std::end(kCases)) {
      std::fprintf(stderr, "paper_claims: unknown case '%s'; cases:",
                   argv[i]);
      for (const Case& c : kCases) {
        std::fprintf(stderr, " %.*s", static_cast<int>(c.name.size()),
                     c.name.data());
      }
      std::fprintf(stderr, "\n");
      return 2;
    }
    selected.push_back(&*it);
  }
  if (selected.empty()) {
    for (const Case& c : kCases) selected.push_back(&c);
  }

  int failed = 0;
  for (const Case* c : selected) {
    Claim claim;
    try {
      claim = c->run();
    } catch (const std::exception& e) {
      claim = {false, std::string("threw: ") + e.what()};
    }
    if (!claim.holds) ++failed;
    std::printf("claim %.*s: %s — %s\n", static_cast<int>(c->name.size()),
                c->name.data(), claim.holds ? "holds" : "FAIL",
                claim.measured.c_str());
  }
  std::printf("\npaper_claims: %zu of %zu claims hold\n",
              selected.size() - static_cast<std::size_t>(failed),
              selected.size());
  return failed > 0 ? 1 : 0;
}
