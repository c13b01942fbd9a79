// Metadata catalog for the gate benches' metric series.
//
// One table declares unit, direction, alerting contract, and
// normalization rule for every metric the PR-2..PR-10 gate benches
// (bench_perf_gate, bench_service_throughput) publish, so every record
// a run appends to a suite's history carries the same schema and the
// series stays comparable for perfcheck (perfcheck.hpp).
#pragma once

#include <string>

#include "obs/metric.hpp"

namespace mlcd::obs {

/// A fully-annotated sample for `name` in `suite` carrying one
/// replicate `value`. Known names get the catalog's metadata; unknown
/// names default to an informational (never-alerting) series, so a
/// bench can always publish a new number before the catalog learns its
/// contract. Dotted names ("budget.probe_cost_ratio") match on the
/// final segment.
MetricSample gate_metric(const std::string& suite, const std::string& name,
                         double value);

}  // namespace mlcd::obs
