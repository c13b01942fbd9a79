#include "obs/gate_metrics.hpp"

namespace mlcd::obs {

namespace {

// Durability-gate caveat (PR 8): the workload's probes complete in
// microseconds, so fsync cost dominates and the per-probe overhead
// ratio is honest but enormous relative to real MLaaS probes that run
// for minutes. Gated with a deliberately wide window so only an
// order-of-magnitude movement (a second fsync per record, a lost batch
// of buffering) alerts.
constexpr const char* kDurabilityNote =
    "fsync-per-record over microsecond-scale probes; real probes run "
    "minutes, so this ratio is a stress ceiling, not a deployment cost. "
    "Wide threshold: alert only on order-of-magnitude movement.";

struct Spec {
  const char* suite;  ///< suite name, or "" = any suite
  const char* name;   ///< metric name (dotted names match final segment)
  const char* unit;
  bool lower_is_better;
  bool should_alert;
  double alert_threshold;
  const char* normalize_by;  ///< "" = none
  NormalizeOp normalize_op;
  int min_threads;
  const char* note;
  /// Absolute floor (ceiling when lower_is_better) on the normalized
  /// value; perfcheck ALERTs on violation even with no baseline. 0 =
  /// no floor — omitted by the entries that predate the field.
  double floor = 0.0;
};

constexpr NormalizeOp kDiv = NormalizeOp::kDivide;
constexpr NormalizeOp kMul = NormalizeOp::kMultiply;

// Direction legend: lower_is_better=true for times/costs/overheads,
// false for throughputs/speedups/qualities. Informational series
// (should_alert=false) are machine- or timing-dependent numbers whose
// correctness the bench binaries already hard-gate.
constexpr Spec kSpecs[] = {
    // ---- pr2-fastpath-gate --------------------------------------
    // calibration_fits_per_sec is the machine-speed yardstick the
    // other throughputs divide by; raw, it only measures the runner.
    {"pr2-fastpath-gate", "calibration_fits_per_sec", "per_sec", false,
     false, 0.10, "", kDiv, 0, "machine-speed yardstick, never gated"},
    {"pr2-fastpath-gate", "gp_incremental_adds_per_sec", "per_sec", false,
     true, 0.25, "calibration_fits_per_sec", kDiv, 0, ""},
    {"pr2-fastpath-gate", "gp_full_refits_per_sec", "per_sec", false,
     true, 0.25, "calibration_fits_per_sec", kDiv, 0, ""},
    {"pr2-fastpath-gate", "acq_scan_candidates_per_sec_t1", "per_sec", false,
     true, 0.25, "calibration_fits_per_sec", kDiv, 0, ""},
    {"pr2-fastpath-gate", "heterbo_run_secs_t1", "seconds", true,
     true, 0.30, "calibration_fits_per_sec", kMul, 0, ""},
    {"pr2-fastpath-gate", "journal_run_secs_plain", "seconds", true,
     false, 0.30, "", kDiv, 0, ""},
    {"pr2-fastpath-gate", "journal_run_secs_journaled", "seconds", true,
     false, 0.30, "", kDiv, 0, ""},
    {"pr2-fastpath-gate", "journal_us_per_record", "us", true,
     true, 0.50, "calibration_fits_per_sec", kMul, 0, ""},
    {"pr2-fastpath-gate", "journal_search_wall_hours", "hours", true,
     true, 0.10, "", kDiv, 0, "simulated clock, deterministic"},
    {"pr2-fastpath-gate", "journal_overhead_vs_search_wall", "ratio", true,
     false, 0.50, "", kDiv, 0, ""},

    // ---- pr7-multi-fidelity-gate (scenario-dotted names) ---------
    // All deterministic simulator outputs: tight windows.
    {"pr7-multi-fidelity-gate", "probe_cost_ratio", "ratio", true,
     true, 0.20, "", kDiv, 0, "ladder cost / full-fidelity cost"},
    {"pr7-multi-fidelity-gate", "quality_ratio", "ratio", true,
     true, 0.10, "", kDiv, 0, "ladder regret / full-fidelity regret"},
    {"pr7-multi-fidelity-gate", "ladder_probe_cost", "dollars", true,
     true, 0.10, "", kDiv, 0, ""},
    {"pr7-multi-fidelity-gate", "full_probe_cost", "dollars", true,
     true, 0.10, "", kDiv, 0, ""},
    {"pr7-multi-fidelity-gate", "ladder_quality", "cost", true,
     true, 0.10, "", kDiv, 0, ""},
    {"pr7-multi-fidelity-gate", "full_quality", "cost", true,
     true, 0.10, "", kDiv, 0, ""},
    {"pr7-multi-fidelity-gate", "seeds", "count", false,
     false, 0.10, "", kDiv, 0, ""},

    // ---- pr4-service-gate ----------------------------------------
    {"pr4-service-gate", "jobs_per_sec_t1", "per_sec", false,
     false, 0.25, "", kDiv, 0, "uncalibrated wall throughput"},
    {"pr4-service-gate", "jobs_per_sec_t2", "per_sec", false,
     false, 0.25, "", kDiv, 0, "uncalibrated wall throughput"},
    {"pr4-service-gate", "jobs_per_sec_t4", "per_sec", false,
     false, 0.25, "", kDiv, 0, "uncalibrated wall throughput"},
    // Floor 1.0: probe-granularity at 4 threads must never be slower
    // than one thread — an absolute contract, not a baseline-relative
    // one, so it holds from the first committed record.
    {"pr4-service-gate", "jobs_per_sec_speedup_t4", "ratio", false,
     true, 0.25, "", kDiv, 4, "", 1.0},
    {"pr4-service-gate", "cache_hit_rate_t4", "ratio", false,
     true, 0.10, "", kDiv, 0, ""},
    {"pr4-service-gate", "cache_hits_t4", "count", false,
     true, 0.05, "", kDiv, 0, "deterministic workload"},
    {"pr4-service-gate", "cache_inserts_t4", "count", true,
     true, 0.05, "", kDiv, 0, "deterministic workload"},
    {"pr4-service-gate", "capacity_stall_fraction", "ratio", true,
     false, 0.50, "", kDiv, 0, "timing-dependent"},
    {"pr4-service-gate", "capacity_stall_seconds", "seconds", true,
     false, 0.50, "", kDiv, 0, "timing-dependent"},
    {"pr4-service-gate", "pressured_peak_capacity_nodes", "count", true,
     false, 0.25, "", kDiv, 0, "hard-gated in the bench binary"},
    {"pr4-service-gate", "pressured_peak_tenant_jobs", "count", true,
     false, 0.25, "", kDiv, 0, "hard-gated in the bench binary"},

    // ---- pr6-chaos-gate ------------------------------------------
    {"pr6-chaos-gate", "chaos_throughput_ratio", "ratio", false,
     true, 0.25, "", kDiv, 0, "chaos / fault-free throughput"},
    {"pr6-chaos-gate", "chaos_makespan_overhead", "ratio", true,
     false, 0.50, "", kDiv, 0, ""},
    {"pr6-chaos-gate", "chaos_lane_crashes", "count", true,
     false, 0.50, "", kDiv, 0, "seeded fault schedule"},
    {"pr6-chaos-gate", "chaos_replayed_probes", "count", true,
     false, 0.50, "", kDiv, 0, ""},
    {"pr6-chaos-gate", "chaos_session_parks", "count", true,
     false, 0.50, "", kDiv, 0, "timing-dependent"},
    {"pr6-chaos-gate", "chaos_secs", "seconds", true,
     false, 0.30, "", kDiv, 0, ""},
    {"pr6-chaos-gate", "fault_free_secs", "seconds", true,
     false, 0.30, "", kDiv, 0, ""},

    // ---- pr8-durability-gate -------------------------------------
    {"pr8-durability-gate", "batch_journal_overhead_ratio", "ratio", true,
     true, 0.10, "", kDiv, 0,
     "journaled / plain batch wall time; bench hard-gates at 1.05"},
    {"pr8-durability-gate", "journal_throughput_ratio", "ratio", false,
     true, 0.25, "", kDiv, 0, ""},
    {"pr8-durability-gate", "durability_overhead_ratio", "ratio", true,
     true, 1.50, "", kDiv, 0, kDurabilityNote},
    {"pr8-durability-gate", "journaled_secs", "seconds", true,
     false, 0.50, "", kDiv, 0, ""},
    {"pr8-durability-gate", "self_journaled_secs", "seconds", true,
     false, 0.50, "", kDiv, 0, ""},
    {"pr8-durability-gate", "plain_secs", "seconds", true,
     false, 0.50, "", kDiv, 0, ""},
    {"pr8-durability-gate", "replay_secs", "seconds", true,
     false, 0.50, "", kDiv, 0, ""},
    {"pr8-durability-gate", "replay_speedup", "ratio", false,
     false, 0.50, "", kDiv, 0, ""},
    {"pr8-durability-gate", "replayed_reports", "count", false,
     true, 0.05, "", kDiv, 0, "deterministic workload"},
    {"pr8-durability-gate", "replayed_probes", "count", false,
     true, 0.05, "", kDiv, 0, "deterministic workload"},

    // ---- pr10-sharded-gate ---------------------------------------
    // Contention series for the sharded service core (striped probe
    // cache + per-lane run queues with work stealing). The speedup and
    // idle-fraction gates carry absolute floors — the whole point of
    // the sharded core is that more lanes help and lanes stay fed.
    {"pr10-sharded-gate", "jobs_per_sec_l1", "per_sec", false,
     false, 0.25, "", kDiv, 0, "uncalibrated wall throughput"},
    {"pr10-sharded-gate", "jobs_per_sec_l2", "per_sec", false,
     false, 0.25, "", kDiv, 0, "uncalibrated wall throughput"},
    {"pr10-sharded-gate", "jobs_per_sec_l4", "per_sec", false,
     false, 0.25, "", kDiv, 0, "uncalibrated wall throughput"},
    {"pr10-sharded-gate", "jobs_per_sec_l16", "per_sec", false,
     false, 0.25, "", kDiv, 0, "uncalibrated wall throughput"},
    {"pr10-sharded-gate", "jobs_per_sec_speedup_t4", "ratio", false,
     true, 0.25, "", kDiv, 4, "sharded 4-lane / 1-lane throughput", 1.0},
    {"pr10-sharded-gate", "lane_idle_fraction", "ratio", true,
     true, 0.30, "", kDiv, 4,
     "probe-mode idle fraction under contention", 0.35},
    {"pr10-sharded-gate", "steal_count", "count", false,
     false, 0.50, "", kDiv, 0,
     "timing-dependent; bench hard-gates steals > 0"},
    {"pr10-sharded-gate", "cache_stripe_max_imbalance", "ratio", true,
     false, 0.50, "", kDiv, 0, "key-distribution-dependent"},
};

// Dotted names carry a scenario prefix ("budget.probe_cost_ratio");
// the catalog keys on the final segment.
std::string final_segment(const std::string& name) {
  const auto dot = name.rfind('.');
  return dot == std::string::npos ? name : name.substr(dot + 1);
}

}  // namespace

MetricSample gate_metric(const std::string& suite, const std::string& name,
                         double value) {
  const std::string key = final_segment(name);
  MetricSample sample;
  sample.name = name;
  sample.values.push_back(value);
  for (const Spec& spec : kSpecs) {
    if (suite != spec.suite) continue;
    if (key != spec.name) continue;
    sample.unit = spec.unit;
    sample.lower_is_better = spec.lower_is_better;
    sample.should_alert = spec.should_alert;
    sample.alert_threshold = spec.alert_threshold;
    sample.normalize_by = spec.normalize_by;
    sample.normalize_op = spec.normalize_op;
    if (spec.floor != 0.0) sample.alert_floor = spec.floor;
    sample.min_threads = spec.min_threads;
    sample.note = spec.note;
    return sample;
  }
  // Unknown metric: publish as informational until the catalog learns
  // its alerting contract — an uncatalogued series must never page.
  sample.unit = "value";
  sample.lower_is_better = true;
  sample.should_alert = false;
  sample.note = "uncatalogued metric; informational only";
  return sample;
}

}  // namespace mlcd::obs
