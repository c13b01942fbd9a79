// perfcheck: regression alerting over the committed time-series.
//
// For every suite history file, the latest record is compared against
// the rolling median of the `window` records before it. Each metric's
// allowed movement is its declared alert_threshold widened — never
// narrowed — by the observed baseline noise, so a metric that naturally
// jitters 15% cannot page at a 10% contract while a rock-steady one
// still alerts at its declared window. Alerts fire only on movement
// strictly greater than the allowed window (a change exactly at the
// threshold passes), in the metric's bad direction only — improvements
// never alert.
#pragma once

#include <string>
#include <vector>

#include "obs/history.hpp"

namespace mlcd::obs {

struct PerfcheckOptions {
  std::string history_dir = "bench_out/history";
  std::string suite_filter;      ///< empty = every *.jsonl in history_dir
  int window = 5;                ///< baseline records per metric (max)
  double min_noise = 0.02;       ///< floor on the widened window
  double noise_multiplier = 3.0; ///< allowed = max(threshold, k * MAD/med)
  /// Thread count of the machine evaluating the latest record; metrics
  /// declaring min_threads above this are skipped, not alerted. 0 means
  /// "use the latest record's own hardware_threads".
  int hardware_threads = 0;
};

enum class VerdictStatus {
  kOk,        ///< within the allowed window (or improved)
  kAlert,     ///< regression beyond the allowed window
  kMissing,   ///< alerting metric present in baseline, absent in latest
  kFirstRun,  ///< no baseline record carries this metric yet
  kSkipped,   ///< min_threads unmet, or calibration metric unavailable
  kInfo,      ///< should_alert=false — tracked, never gated
};

const char* verdict_status_name(VerdictStatus status);

struct MetricVerdict {
  std::string suite;
  std::string name;
  std::string unit;
  VerdictStatus status = VerdictStatus::kOk;
  double baseline = 0.0;  ///< normalized rolling median (when computed)
  double latest = 0.0;    ///< normalized latest value (when computed)
  double change = 0.0;    ///< signed relative movement; positive = worse
  double allowed = 0.0;   ///< the widened window that applied
  std::string detail;     ///< human-readable explanation (skips, notes)
};

struct PerfcheckReport {
  std::vector<MetricVerdict> verdicts;
  std::vector<std::string> suites;

  /// Number of verdicts that should fail the build (alert + missing).
  int alert_count() const;

  /// Human-readable regression table: alerting verdicts first, then a
  /// per-suite summary. Pass verbose=true to list every metric.
  std::string render(bool verbose = false) const;
};

/// Pure checker over one suite's in-memory history (last record =
/// latest, up to options.window records before it = baseline). Unit
/// tests drive this directly; run_perfcheck() feeds it from disk.
std::vector<MetricVerdict> check_suite(const std::vector<HistoryRecord>& records,
                                       const PerfcheckOptions& options);

/// Loads every suite history under options.history_dir and checks each.
/// Throws std::invalid_argument on malformed history and
/// std::runtime_error when the directory is missing or holds no suites.
PerfcheckReport run_perfcheck(const PerfcheckOptions& options);

}  // namespace mlcd::obs
