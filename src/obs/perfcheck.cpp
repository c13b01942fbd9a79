#include "obs/perfcheck.hpp"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <iomanip>
#include <limits>
#include <set>
#include <sstream>
#include <stdexcept>


namespace mlcd::obs {

namespace {

constexpr double kZeroEps = 1e-12;

/// Normalized value of `meta`'s series inside `record`, using the
/// calibration series from the *same* record so machine speed cancels.
/// Returns false (with `why` set) when the record lacks the metric or a
/// usable calibration value.
bool normalized_value(const HistoryRecord& record, const MetricSample& meta,
                      double* out, std::string* why) {
  const MetricSample* sample = record.find(meta.name);
  if (sample == nullptr) {
    if (why) *why = "metric absent from record " + record.run_id;
    return false;
  }
  double value = sample->value();
  if (!meta.normalize_by.empty()) {
    const MetricSample* cal = record.find(meta.normalize_by);
    if (cal == nullptr) {
      if (why) {
        *why = "calibration metric '" + meta.normalize_by +
               "' absent from record " + record.run_id;
      }
      return false;
    }
    const double cal_value = cal->value();
    if (!(cal_value > 0.0)) {
      if (why) {
        *why = "calibration metric '" + meta.normalize_by +
               "' is non-positive in record " + record.run_id;
      }
      return false;
    }
    value = meta.normalize_op == NormalizeOp::kDivide ? value / cal_value
                                                      : value * cal_value;
  }
  *out = value;
  return true;
}

/// Signed relative movement in the metric's bad direction; positive =
/// regression. A zero baseline yields 0 on no movement/improvement and
/// +inf on any regression (relative change is undefined there).
double signed_change(const MetricSample& meta, double baseline,
                     double latest) {
  const double raw = latest - baseline;
  const bool regressed = meta.lower_is_better ? raw > kZeroEps
                                              : raw < -kZeroEps;
  if (std::abs(baseline) < kZeroEps) {
    return regressed ? std::numeric_limits<double>::infinity() : 0.0;
  }
  const double rel = raw / std::abs(baseline);
  return meta.lower_is_better ? rel : -rel;
}

std::string percent(double fraction) {
  if (std::isinf(fraction)) return fraction > 0 ? "+inf%" : "-inf%";
  std::ostringstream out;
  out << std::showpos << std::fixed << std::setprecision(1)
      << fraction * 100.0 << "%";
  return out.str();
}

std::string compact(double value) {
  std::ostringstream out;
  out << std::setprecision(6) << value;
  return out.str();
}

}  // namespace

const char* verdict_status_name(VerdictStatus status) {
  switch (status) {
    case VerdictStatus::kOk: return "ok";
    case VerdictStatus::kAlert: return "ALERT";
    case VerdictStatus::kMissing: return "MISSING";
    case VerdictStatus::kFirstRun: return "first-run";
    case VerdictStatus::kSkipped: return "skipped";
    case VerdictStatus::kInfo: return "info";
  }
  return "?";
}

std::vector<MetricVerdict> check_suite(
    const std::vector<HistoryRecord>& records,
    const PerfcheckOptions& options) {
  std::vector<MetricVerdict> verdicts;
  if (records.empty()) return verdicts;
  if (options.window < 1) {
    throw std::invalid_argument("perfcheck: window must be >= 1");
  }

  const HistoryRecord& latest = records.back();
  const std::size_t first_prior =
      records.size() - 1 >= static_cast<std::size_t>(options.window)
          ? records.size() - 1 - static_cast<std::size_t>(options.window)
          : 0;
  std::vector<const HistoryRecord*> priors;
  for (std::size_t i = first_prior; i + 1 < records.size(); ++i) {
    priors.push_back(&records[i]);
  }
  const int hardware_threads = options.hardware_threads > 0
                                   ? options.hardware_threads
                                   : latest.hardware_threads;

  for (const MetricSample& meta : latest.metrics) {
    MetricVerdict v;
    v.suite = latest.suite;
    v.name = meta.name;
    v.unit = meta.unit;
    if (!meta.should_alert) {
      v.status = VerdictStatus::kInfo;
      v.detail = meta.note;
      double value = 0.0;
      std::string why;
      if (normalized_value(latest, meta, &value, &why)) v.latest = value;
      verdicts.push_back(std::move(v));
      continue;
    }
    if (meta.min_threads > 0 && hardware_threads < meta.min_threads) {
      v.status = VerdictStatus::kSkipped;
      v.detail = "needs >= " + std::to_string(meta.min_threads) +
                 " hardware threads, machine has " +
                 std::to_string(hardware_threads);
      verdicts.push_back(std::move(v));
      continue;
    }

    double latest_value = 0.0;
    std::string why;
    if (!normalized_value(latest, meta, &latest_value, &why)) {
      v.status = VerdictStatus::kSkipped;
      v.detail = why;
      verdicts.push_back(std::move(v));
      continue;
    }

    // Absolute floor (ceiling for lower_is_better): a violated contract
    // alerts regardless of the rolling baseline — including on the very
    // first committed record, which the relative gate cannot judge.
    // A value exactly at the floor passes (strict-violation semantics,
    // matching the relative gate's strictly-greater rule).
    if (meta.has_floor()) {
      const bool violated = meta.lower_is_better
                                ? latest_value > meta.alert_floor
                                : latest_value < meta.alert_floor;
      if (violated) {
        v.status = VerdictStatus::kAlert;
        v.latest = latest_value;
        v.baseline = meta.alert_floor;
        v.change = signed_change(meta, meta.alert_floor, latest_value);
        v.detail = "latest " + compact(latest_value) + " violates absolute " +
                   (meta.lower_is_better ? "ceiling " : "floor ") +
                   compact(meta.alert_floor);
        if (!meta.note.empty()) v.detail += " — " + meta.note;
        verdicts.push_back(std::move(v));
        continue;
      }
    }

    std::vector<double> baseline_values;
    for (const HistoryRecord* prior : priors) {
      // Baselines from machines too small for this metric would mix
      // serial and parallel numbers into one series.
      if (meta.min_threads > 0 &&
          prior->hardware_threads < meta.min_threads) {
        continue;
      }
      double value = 0.0;
      if (normalized_value(*prior, meta, &value, nullptr)) {
        baseline_values.push_back(value);
      }
    }
    if (baseline_values.empty()) {
      v.status = VerdictStatus::kFirstRun;
      v.latest = latest_value;
      v.detail = "no comparable baseline record yet";
      verdicts.push_back(std::move(v));
      continue;
    }

    const double baseline = median(baseline_values);
    std::vector<double> deviations;
    deviations.reserve(baseline_values.size());
    for (const double b : baseline_values) {
      deviations.push_back(std::abs(b - baseline));
    }
    const double mad = median(deviations);
    const double rel_noise =
        std::abs(baseline) > kZeroEps ? mad / std::abs(baseline) : 0.0;

    // The declared contract can only be widened by observed noise,
    // never narrowed: a jittery metric stops paging, a steady one keeps
    // its declared sensitivity.
    double allowed = std::max(meta.alert_threshold,
                              options.noise_multiplier * rel_noise);
    allowed = std::max(allowed, options.min_noise);

    v.baseline = baseline;
    v.latest = latest_value;
    v.change = signed_change(meta, baseline, latest_value);
    v.allowed = allowed;
    // Strictly greater: a movement exactly at the window passes.
    v.status = v.change > allowed ? VerdictStatus::kAlert
                                  : VerdictStatus::kOk;
    if (v.status == VerdictStatus::kAlert) {
      v.detail = "regressed " + percent(v.change) + " vs rolling median " +
                 compact(baseline) + " (allowed " + percent(allowed) + ")";
      if (!meta.note.empty()) v.detail += " — " + meta.note;
    }
    verdicts.push_back(std::move(v));
  }

  // Alerting metrics the baseline knows but the latest run dropped: a
  // silently vanished series must fail as loudly as a regressed one.
  std::set<std::string> reported;
  for (const MetricSample& meta : latest.metrics) reported.insert(meta.name);
  std::set<std::string> missing_seen;
  for (auto it = priors.rbegin(); it != priors.rend(); ++it) {
    for (const MetricSample& meta : (*it)->metrics) {
      if (reported.count(meta.name) || missing_seen.count(meta.name)) {
        continue;
      }
      missing_seen.insert(meta.name);
      if (!meta.should_alert) continue;
      if (meta.min_threads > 0 && hardware_threads < meta.min_threads) {
        continue;  // this machine could not have produced it
      }
      MetricVerdict v;
      v.suite = latest.suite;
      v.name = meta.name;
      v.unit = meta.unit;
      v.status = VerdictStatus::kMissing;
      v.detail = "present in baseline (run " + (*it)->run_id +
                 "), absent from latest run " + latest.run_id;
      verdicts.push_back(std::move(v));
    }
  }
  return verdicts;
}

int PerfcheckReport::alert_count() const {
  int count = 0;
  for (const MetricVerdict& v : verdicts) {
    if (v.status == VerdictStatus::kAlert ||
        v.status == VerdictStatus::kMissing) {
      ++count;
    }
  }
  return count;
}

std::string PerfcheckReport::render(bool verbose) const {
  std::ostringstream out;
  const int alerts = alert_count();
  out << "perfcheck: " << suites.size() << " suite(s), " << verdicts.size()
      << " metric(s), " << alerts << " alert(s)\n";

  const auto row = [&out](const MetricVerdict& v) {
    out << "  " << std::left << std::setw(11)
        << verdict_status_name(v.status)
        << std::setw(26) << v.suite << std::setw(38) << v.name;
    if (v.status == VerdictStatus::kOk || v.status == VerdictStatus::kAlert) {
      out << std::setw(14) << compact(v.baseline) << std::setw(14)
          << compact(v.latest) << std::setw(9) << percent(v.change)
          << " (allowed " << percent(v.allowed) << ")";
    } else if (!v.detail.empty()) {
      out << v.detail;
    }
    out << "\n";
  };

  if (alerts > 0) {
    out << "\nregressions:\n";
    out << "  " << std::left << std::setw(11) << "status" << std::setw(26)
        << "suite" << std::setw(38) << "metric" << std::setw(14)
        << "baseline" << std::setw(14) << "latest" << "change\n";
    for (const MetricVerdict& v : verdicts) {
      if (v.status == VerdictStatus::kAlert) {
        row(v);
        if (!v.detail.empty()) out << "           " << v.detail << "\n";
      }
    }
    for (const MetricVerdict& v : verdicts) {
      if (v.status == VerdictStatus::kMissing) row(v);
    }
  }
  if (verbose) {
    out << "\nall metrics:\n";
    for (const MetricVerdict& v : verdicts) row(v);
  }

  // Per-suite tallies keep the quiet path readable: one line per suite.
  for (const std::string& suite : suites) {
    int ok = 0, alert = 0, info = 0, skipped = 0, first = 0, missing = 0;
    for (const MetricVerdict& v : verdicts) {
      if (v.suite != suite) continue;
      switch (v.status) {
        case VerdictStatus::kOk: ++ok; break;
        case VerdictStatus::kAlert: ++alert; break;
        case VerdictStatus::kMissing: ++missing; break;
        case VerdictStatus::kFirstRun: ++first; break;
        case VerdictStatus::kSkipped: ++skipped; break;
        case VerdictStatus::kInfo: ++info; break;
      }
    }
    out << "  " << std::left << std::setw(26) << suite << " ok=" << ok
        << " alert=" << alert << " missing=" << missing
        << " first-run=" << first << " skipped=" << skipped
        << " info=" << info << "\n";
  }
  out << (alerts > 0 ? "RESULT: ALERT" : "RESULT: OK") << "\n";
  return out.str();
}

PerfcheckReport run_perfcheck(const PerfcheckOptions& options) {
  namespace fs = std::filesystem;
  std::vector<std::string> paths;
  if (!options.suite_filter.empty()) {
    paths.push_back(history_path(options.history_dir, options.suite_filter));
  } else {
    if (!fs::is_directory(options.history_dir)) {
      throw std::runtime_error("perfcheck: history directory '" +
                               options.history_dir + "' does not exist");
    }
    for (const fs::directory_entry& entry :
         fs::directory_iterator(options.history_dir)) {
      if (entry.is_regular_file() && entry.path().extension() == ".jsonl") {
        paths.push_back(entry.path().string());
      }
    }
    std::sort(paths.begin(), paths.end());
  }

  PerfcheckReport report;
  for (const std::string& path : paths) {
    const std::vector<HistoryRecord> records = load_history_file(path);
    if (records.empty()) {
      if (!options.suite_filter.empty()) {
        throw std::runtime_error("perfcheck: no history at '" + path + "'");
      }
      continue;
    }
    report.suites.push_back(records.back().suite);
    std::vector<MetricVerdict> verdicts = check_suite(records, options);
    for (MetricVerdict& v : verdicts) {
      report.verdicts.push_back(std::move(v));
    }
  }
  if (report.suites.empty()) {
    throw std::runtime_error("perfcheck: no suite history found under '" +
                             options.history_dir + "'");
  }
  return report;
}

}  // namespace mlcd::obs
