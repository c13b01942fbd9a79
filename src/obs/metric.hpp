// Uniform metric schema for the performance observatory.
//
// Every bench binary publishes its numbers as one record type that all
// emitters share. A MetricSample names one measured quantity — its
// unit, its direction (lower_is_better), its replicate values, and the
// alerting contract the regression checker (perfcheck.hpp) applies
// against the committed time-series. The schema is deliberately
// Perfherder-shaped: the fields mirror the `perfherder_metrics` entries
// (name / unit / shouldAlert) that project-foxhound's model perf tests
// publish, extended with the calibration-normalization rule our
// cross-machine gates already rely on (docs/performance.md).
#pragma once

#include <cmath>
#include <limits>
#include <string>
#include <vector>

namespace mlcd::obs {

/// Schema version of one serialized observatory record (the `"obs"` key
/// in a suite snapshot or one line of a history .jsonl). Bump on any
/// incompatible field change; perfcheck refuses records from the future.
inline constexpr int kObsSchemaVersion = 1;

/// How a metric is normalized against its suite's calibration metric
/// before cross-run comparison. Machine speed cancels out of a
/// throughput by *dividing* by the machine's calibration throughput, and
/// out of a wall time by *multiplying* (seconds ~ 1/speed).
enum class NormalizeOp {
  kDivide,
  kMultiply,
};

const char* normalize_op_name(NormalizeOp op);

/// One measured quantity of one run.
struct MetricSample {
  /// Stable identifier, unique within a suite ("gp_incremental_adds_per_sec").
  std::string name;

  /// Human unit tag: "per_sec", "seconds", "us", "ratio", "count",
  /// "mb", "dollars", ... Informational (rendered in tables), not
  /// interpreted by the checker.
  std::string unit;

  /// Direction: true when a drop is an improvement (latency, RSS,
  /// allocation counts); false for throughputs.
  bool lower_is_better = false;

  /// Replicate values of this run. The comparable value of the run is
  /// the median (value()), so one noisy replicate cannot fake or mask a
  /// regression.
  std::vector<double> values;

  /// Whether perfcheck may fail CI over this metric. Purely
  /// informational series (machine-dependent absolute wall times,
  /// core-count-dependent speedups on unknown runners) set this false
  /// and stay tracked without gating.
  bool should_alert = true;

  /// Relative regression (vs the rolling-median baseline, after
  /// normalization) that raises an alert. perfcheck widens this with
  /// the metric's observed noise window but never narrows it, and a
  /// change exactly at the threshold does NOT alert (strictly-greater
  /// semantics). 0.10 = alert beyond a 10% regression.
  double alert_threshold = 0.10;

  /// Optional name of the suite's calibration metric (e.g.
  /// "calibration_fits_per_sec"). When set, this metric is normalized
  /// against the *same record's* calibration median before any cross-run
  /// comparison, so runs from machines of different speeds share one
  /// time-series. Empty = compare raw values.
  std::string normalize_by;
  NormalizeOp normalize_op = NormalizeOp::kDivide;

  /// Optional absolute floor on the *normalized* value — a contract
  /// independent of the rolling baseline. For lower_is_better=false
  /// metrics the latest value must be >= the floor; for
  /// lower_is_better=true it must be <= it (a ceiling). Violations
  /// ALERT even on the very first run, when no baseline exists to
  /// compare against — this is how "the sharded scheduler must actually
  /// be faster than one lane" stays enforced from day one. Honors
  /// min_threads like the relative gate. NaN = no floor.
  double alert_floor = std::numeric_limits<double>::quiet_NaN();

  bool has_floor() const noexcept { return !std::isnan(alert_floor); }

  /// Minimum hardware_threads a record needs for this metric to be
  /// meaningful (parallel speedups measure ~1.0x on a 1-core box).
  /// perfcheck skips alerting when either side is below it. 0 = always.
  int min_threads = 0;

  /// Free-text caveat recorded next to the data (e.g. the
  /// durability_overhead_ratio's "simulated probes are microseconds, so
  /// this ratio measures fsync latency" note). Rendered in alert tables.
  std::string note;

  /// The run's comparable value: the median of `values` (even count:
  /// mean of the middle two). NaN when no replicates were recorded.
  double value() const;
};

/// Median helper shared by MetricSample::value() and perfcheck's
/// rolling baselines. NaN on an empty vector.
double median(std::vector<double> values);

}  // namespace mlcd::obs
