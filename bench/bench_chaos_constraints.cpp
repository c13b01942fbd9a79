// Chaos harness: constraint safety under injected cloud failures.
//
// Not a paper figure — a robustness gate for the fault-model subsystem
// (docs/fault-model.md). HeterBO's protective reserve promises that the
// moment any probed point is constraint-compliant with margin, that
// compliance can never be forfeited. This harness sweeps failure rate x
// scenario x seed, injecting launch failures, stragglers and capacity
// outages (plus the catalog's native spot revocations on the spot
// market), and fails — exit code 1 — on any of:
//   * a guaranteed run (one with a protectable probe) missing its
//     deadline or budget,
//   * a billed dollar not traceable to a recorded attempt
//     (run != sum-of-steps or step != sum-of-attempts).
// Runs where chaos denied every compliant point are reported as
// "denied"; they end flagged VIOLATED or not-found, which is honest
// reporting, not a safety failure.
#include "common.hpp"

#include <cmath>
#include <cstdio>

using namespace mlcd;

namespace {

struct Case {
  const char* name;
  const cloud::DeploymentSpace* space;
  search::Scenario scenario;
};

// A feasible probe that, when it completed, still left 10% of the
// constraint for its own training run — well inside the reserve's 3%
// protection band, so the guarantee binds from then on.
bool has_protectable_probe(const search::SearchResult& r,
                           const search::SearchProblem& p) {
  for (const search::ProbeStep& s : r.trace) {
    if (!s.feasible || s.measured_speed <= 0.0) continue;
    const double train_h =
        p.config.model.samples_to_train / s.measured_speed / 3600.0 *
        p.space->restart_overhead_multiplier(s.deployment);
    const double train_c = train_h * p.space->hourly_price(s.deployment);
    const bool within_t =
        !p.scenario.has_deadline() ||
        s.cum_profile_hours + train_h <= 0.90 * p.scenario.deadline_hours;
    const bool within_c =
        !p.scenario.has_budget() ||
        s.cum_profile_cost + train_c <= 0.90 * p.scenario.budget_dollars;
    if (within_t && within_c) return true;
  }
  return false;
}

bool billing_identity_holds(const search::SearchResult& r) {
  double step_sum = 0.0;
  for (const search::ProbeStep& s : r.trace) {
    step_sum += s.profile_cost;
    double attempt_sum = 0.0;
    for (const cloud::AttemptRecord& rec : s.attempt_log) {
      attempt_sum += rec.cost;
    }
    if (std::abs(s.profile_cost - attempt_sum) > 1e-9) return false;
  }
  return std::abs(r.profile_cost - step_sum) <= 1e-9;
}

}  // namespace

int main() {
  bench::print_header(
      "Chaos — constraint safety under injected failures",
      "(beyond the paper) §III-C claims constraints are never knowingly "
      "violated; here the cloud actively misbehaves",
      "launch failures + stragglers + capacity outages at rate r in "
      "{0, 0.1, 0.3}, catalog spot revocations on the spot market; "
      "3 scenarios x 10 seeds per rate; HeterBO with retry/backoff");

  const auto cat = bench::subset_catalog(
      {"c5.xlarge", "c5.4xlarge", "p2.xlarge"});
  const cloud::DeploymentSpace on_demand(cat, 20);
  const cloud::DeploymentSpace spot(cat, 20, cloud::Market::kSpot);
  const perf::TrainingPerfModel perf(cat);
  const auto config = bench::make_config("resnet");

  const Case cases[] = {
      {"cheapest<=24h", &on_demand,
       search::Scenario::cheapest_under_deadline(24.0)},
      {"fastest<=$120", &on_demand,
       search::Scenario::fastest_under_budget(120.0)},
      {"spot fastest<=$60", &spot,
       search::Scenario::fastest_under_budget(60.0)},
  };

  auto csv = bench::open_csv(
      "chaos_constraints.csv",
      {"rate", "scenario", "seed", "found", "probes", "attempts",
       "probes_lost", "backoff_h", "profile_cost", "total_hours",
       "total_cost", "guaranteed", "compliant"});

  util::TablePrinter table({"rate", "scenario", "runs", "guaranteed",
                            "denied", "violations", "mean attempts/probe",
                            "mean backoff (h)"});
  int safety_failures = 0;
  int billing_failures = 0;
  for (const double rate : {0.0, 0.1, 0.3}) {
    for (const Case& c : cases) {
      int guaranteed = 0, denied = 0, violations = 0;
      double attempts_sum = 0.0, probes_sum = 0.0, backoff_sum = 0.0;
      for (int seed = 1; seed <= 10; ++seed) {
        search::SearchProblem p =
            bench::make_problem(config, *c.space, c.scenario,
                                static_cast<std::uint64_t>(seed));
        p.profiler_options.faults.launch_failure_per_node = rate;
        p.profiler_options.faults.straggler_rate = rate;
        p.profiler_options.faults.outage_episodes_per_100h = 100.0 * rate;

        const search::SearchResult r =
            bench::run_method(perf, p, "heterbo");
        const bool protectable = has_protectable_probe(r, p);
        const bool compliant = r.meets_constraints(p.scenario);
        if (protectable) {
          ++guaranteed;
          if (!compliant) {
            ++violations;
            ++safety_failures;
            std::printf("SAFETY VIOLATION: %s rate=%.1f seed=%d\n%s\n",
                        c.name, rate, seed,
                        r.summary(p.scenario).c_str());
          }
        } else {
          ++denied;
        }
        if (!billing_identity_holds(r)) {
          ++billing_failures;
          std::printf("BILLING MISMATCH: %s rate=%.1f seed=%d\n", c.name,
                      rate, seed);
        }
        attempts_sum += r.total_probe_attempts();
        probes_sum += static_cast<double>(r.trace.size());
        backoff_sum += r.total_backoff_hours();
        csv.add_row({util::fmt_fixed(rate, 1), c.name,
                     std::to_string(seed), r.found ? "yes" : "no",
                     std::to_string(r.trace.size()),
                     std::to_string(r.total_probe_attempts()),
                     std::to_string(r.failed_probe_count()),
                     util::fmt_fixed(r.total_backoff_hours(), 3),
                     util::fmt_fixed(r.profile_cost, 2),
                     util::fmt_fixed(r.total_hours(), 2),
                     util::fmt_fixed(r.total_cost(), 2),
                     protectable ? "yes" : "no",
                     compliant ? "yes" : "no"});
      }
      table.add_row({util::fmt_fixed(rate, 1), c.name, "10",
                     std::to_string(guaranteed), std::to_string(denied),
                     std::to_string(violations),
                     util::fmt_fixed(
                         probes_sum > 0 ? attempts_sum / probes_sum : 0.0,
                         2),
                     util::fmt_fixed(backoff_sum / 10.0, 2)});
    }
  }
  table.print();

  if (safety_failures + billing_failures > 0) {
    std::printf("\nCHAOS GATE FAILED: %d safety violation(s), "
                "%d billing mismatch(es)\n",
                safety_failures, billing_failures);
    return 1;
  }
  bench::print_note(
      "no guaranteed run ever exceeded its deadline or budget, and every "
      "billed dollar traces to a recorded attempt; denied runs (chaos "
      "withheld every compliant point) end flagged VIOLATED, never "
      "silently ok");
  return 0;
}
