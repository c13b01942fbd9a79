// Performance observatory tests: schema round-trip, history I/O,
// allocation-counter thread safety, perfcheck edge cases, the gate
// metric catalog, and the end-to-end CLI contract (including the
// acceptance criterion: a synthetic 2x latency regression must exit
// nonzero and name the offending metric).
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <unistd.h>

#include "cli/cli.hpp"
#include "obs/gate_metrics.hpp"
#include "obs/history.hpp"
#include "obs/metric.hpp"
#include "obs/perfcheck.hpp"
#include "obs/registry.hpp"
#include "obs/resource.hpp"
#include "util/json.hpp"
#include "util/thread_pool.hpp"

namespace {

using namespace mlcd;
using obs::HistoryRecord;
using obs::MetricSample;
using obs::MetricVerdict;
using obs::PerfcheckOptions;
using obs::VerdictStatus;

namespace fs = std::filesystem;

// Unique scratch directory per test, removed on teardown.
class ObsTempDir : public ::testing::Test {
 protected:
  void SetUp() override {
    const auto* info =
        ::testing::UnitTest::GetInstance()->current_test_info();
    dir_ = fs::temp_directory_path() /
           (std::string("mlcd_obs_") + info->test_suite_name() + "_" +
            info->name());
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  std::string dir() const { return dir_.string(); }

 private:
  fs::path dir_;
};

MetricSample make_sample(const std::string& name, double value,
                         bool lower_is_better = true,
                         double alert_threshold = 0.10) {
  MetricSample s;
  s.name = name;
  s.unit = "ms";
  s.lower_is_better = lower_is_better;
  s.values.push_back(value);
  s.alert_threshold = alert_threshold;
  return s;
}

HistoryRecord make_record(const std::string& run_id,
                          std::vector<MetricSample> metrics,
                          const std::string& suite = "test-suite") {
  HistoryRecord r;
  r.suite = suite;
  r.run_id = run_id;
  r.hardware_threads = 1;
  r.metrics = std::move(metrics);
  return r;
}

const MetricVerdict* find_verdict(const std::vector<MetricVerdict>& vs,
                                  const std::string& name) {
  for (const MetricVerdict& v : vs) {
    if (v.name == name) return &v;
  }
  return nullptr;
}

// ---------------------------------------------------------- schema

TEST(ObsSchema, MetricSampleValueIsMedianOfReplicates) {
  MetricSample s = make_sample("lat", 100.0);
  s.values = {100.0, 5000.0, 90.0};  // one straggler replicate
  EXPECT_DOUBLE_EQ(s.value(), 100.0);
  s.values = {10.0, 20.0};
  EXPECT_DOUBLE_EQ(s.value(), 15.0);
}

TEST(ObsSchema, MedianOfEmptyIsNaN) {
  EXPECT_TRUE(std::isnan(obs::median({})));
}

TEST(ObsSchema, HistoryRecordRoundTripsThroughJson) {
  MetricSample rich = make_sample("scan_per_sec", 123.5, false, 0.25);
  rich.unit = "candidates/s";
  rich.values = {123.5, 130.25, 119.0};
  rich.normalize_by = "calibration_fits_per_sec";
  rich.normalize_op = obs::NormalizeOp::kMultiply;
  rich.min_threads = 4;
  rich.alert_floor = 1.5;
  rich.note = "per-thread scan";
  MetricSample info = make_sample("wall_s", 1.25);
  info.should_alert = false;

  const HistoryRecord before = make_record("pr9", {rich, info});
  const HistoryRecord after =
      HistoryRecord::from_json(util::parse_json(before.to_json()));

  EXPECT_EQ(after.schema_version, obs::kObsSchemaVersion);
  EXPECT_EQ(after.suite, before.suite);
  EXPECT_EQ(after.run_id, "pr9");
  EXPECT_EQ(after.hardware_threads, 1);
  ASSERT_EQ(after.metrics.size(), 2u);

  const MetricSample* r = after.find("scan_per_sec");
  ASSERT_NE(r, nullptr);
  EXPECT_EQ(r->unit, "candidates/s");
  EXPECT_FALSE(r->lower_is_better);
  EXPECT_EQ(r->values, rich.values);
  EXPECT_TRUE(r->should_alert);
  EXPECT_DOUBLE_EQ(r->alert_threshold, 0.25);
  EXPECT_EQ(r->normalize_by, "calibration_fits_per_sec");
  EXPECT_EQ(r->normalize_op, obs::NormalizeOp::kMultiply);
  EXPECT_EQ(r->min_threads, 4);
  ASSERT_TRUE(r->has_floor());
  EXPECT_DOUBLE_EQ(r->alert_floor, 1.5);
  EXPECT_EQ(r->note, "per-thread scan");

  const MetricSample* i = after.find("wall_s");
  ASSERT_NE(i, nullptr);
  EXPECT_FALSE(i->should_alert);
  EXPECT_TRUE(i->normalize_by.empty());
  EXPECT_EQ(i->min_threads, 0);
  EXPECT_FALSE(i->has_floor());
}

TEST(ObsSchema, RejectsRecordsFromANewerSchema) {
  HistoryRecord r = make_record("pr9", {make_sample("m", 1.0)});
  std::string json = r.to_json();
  const std::string key = "\"obs_schema_version\":1";
  const auto pos = json.find(key);
  ASSERT_NE(pos, std::string::npos);
  json.replace(pos, key.size(), "\"obs_schema_version\":99");
  EXPECT_THROW(HistoryRecord::from_json(util::parse_json(json)),
               std::invalid_argument);
}

// ---------------------------------------------------------- history

TEST_F(ObsTempDir, HistoryAppendsAndLoadsInOrder) {
  const std::string path = obs::history_path(dir(), "pr2-fastpath-gate");
  obs::append_history(path, make_record("pr2", {make_sample("m", 1.0)}));
  obs::append_history(path, make_record("pr3", {make_sample("m", 2.0)}));

  const auto records = obs::load_history_file(path);
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[0].run_id, "pr2");
  EXPECT_EQ(records[1].run_id, "pr3");
  EXPECT_DOUBLE_EQ(records[1].find("m")->value(), 2.0);
}

TEST_F(ObsTempDir, MissingHistoryFileLoadsEmpty) {
  EXPECT_TRUE(obs::load_history_file(dir() + "/nope.jsonl").empty());
}

TEST_F(ObsTempDir, MalformedHistoryLineNamesTheLine) {
  const std::string path = obs::history_path(dir(), "suite");
  obs::append_history(path, make_record("pr2", {make_sample("m", 1.0)}));
  {
    std::ofstream out(path, std::ios::app);
    out << "this is not json\n";
  }
  try {
    obs::load_history_file(path);
    FAIL() << "expected invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find(":2"), std::string::npos)
        << e.what();
  }
}

TEST(ObsHistory, PathSanitizesSuiteName) {
  const std::string path = obs::history_path("h", "a/b c");
  EXPECT_EQ(path.find('/'), 1u);  // only the directory separator
  EXPECT_EQ(path.find(' '), std::string::npos);
  EXPECT_NE(path.find(".jsonl"), std::string::npos);
}

// ---------------------------------------------------------- registry

TEST(ObsRegistry, DuplicateAndEmptyNamesThrow) {
  obs::MetricRegistry reg("suite");
  reg.add(make_sample("m", 1.0));
  EXPECT_THROW(reg.add(make_sample("m", 2.0)), std::logic_error);
  EXPECT_THROW(reg.add(make_sample("", 2.0)), std::logic_error);
}

TEST(ObsRegistry, RecordAppendsReplicates) {
  obs::MetricRegistry reg("suite");
  reg.record("lat", "ms", true, 10.0);
  reg.record("lat", "ms", true, 12.0);
  const MetricSample* m = reg.find("lat");
  ASSERT_NE(m, nullptr);
  EXPECT_EQ(m->values.size(), 2u);
  EXPECT_DOUBLE_EQ(m->value(), 11.0);
}

TEST(ObsRegistry, ResourceSeriesIncludesMemoryAccounting) {
  // This binary links mlcd_obs_alloc, so the full series must appear.
  ASSERT_TRUE(obs::alloc_hook_active());
  obs::ResourceProbe probe;
  std::vector<std::string> churn;
  for (int i = 0; i < 64; ++i) churn.emplace_back(256, 'x');

  obs::MetricRegistry reg("suite");
  reg.record_resources(probe);
  ASSERT_NE(reg.find("process_wall_seconds"), nullptr);
  EXPECT_FALSE(reg.find("process_wall_seconds")->should_alert);
  ASSERT_NE(reg.find("peak_rss_mb"), nullptr);
  EXPECT_GT(reg.find("peak_rss_mb")->value(), 0.0);
  ASSERT_NE(reg.find("alloc_count"), nullptr);
  EXPECT_GE(reg.find("alloc_count")->value(), 64.0);
  ASSERT_NE(reg.find("alloc_mb"), nullptr);

  const HistoryRecord snap = reg.snapshot("pr9");
  EXPECT_EQ(snap.suite, "suite");
  EXPECT_GE(snap.hardware_threads, 1);
}

/// VmHWM from /proc/self/status, bytes; -1 when the line is absent.
long long vm_hwm_bytes() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    long long kb = 0;
    if (std::sscanf(line.c_str(), "VmHWM: %lld kB", &kb) == 1) {
      return kb * 1024;
    }
  }
  return -1;
}

TEST(ObsResource, PeakRssIsThisImagesHighWaterMark) {
  // ru_maxrss would carry the peak of whatever process exec'd this
  // binary; VmHWM starts afresh at exec. Bracket the call so a page the
  // read itself faults in cannot fail the comparison.
  const long long before = vm_hwm_bytes();
  if (before < 0) GTEST_SKIP() << "no VmHWM in /proc/self/status";
  const auto peak = static_cast<long long>(obs::peak_rss_bytes());
  const long long after = vm_hwm_bytes();
  const long long page = ::sysconf(_SC_PAGESIZE);
  EXPECT_GE(peak + page, before);
  EXPECT_LE(peak, after + page);
}

TEST(ObsResource, AllocCounterIsThreadSafeUnderThreadPool) {
  ASSERT_TRUE(obs::alloc_hook_active());
  constexpr std::size_t kTasks = 2000;
  constexpr std::size_t kBytes = 1024;

  obs::ResourceProbe probe;
  util::ThreadPool pool(4);
  pool.parallel_for(kTasks, [&](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) {
      volatile char* p = new char[kBytes];
      p[0] = static_cast<char>(i);
      delete[] const_cast<char*>(p);
    }
  });

  // Concurrent counting must lose nothing: the pool itself allocates
  // too, so the delta is a floor, not an equality.
  const obs::AllocCounters delta = probe.alloc_delta();
  EXPECT_GE(delta.allocations, kTasks);
  EXPECT_GE(delta.bytes, kTasks * kBytes);
}

// ---------------------------------------------------------- perfcheck

PerfcheckOptions test_options() {
  PerfcheckOptions o;
  o.hardware_threads = 1;
  return o;
}

TEST(Perfcheck, FirstEverRunPassesAsFirstRun) {
  const auto verdicts = obs::check_suite(
      {make_record("pr2", {make_sample("lat", 100.0)})}, test_options());
  const MetricVerdict* v = find_verdict(verdicts, "lat");
  ASSERT_NE(v, nullptr);
  EXPECT_EQ(v->status, VerdictStatus::kFirstRun);
}

TEST(Perfcheck, ExactlyAtThresholdPasses) {
  // Identical baselines: MAD is zero, so allowed = alert_threshold.
  // +10% on a 10% contract is at the line, not over it.
  std::vector<HistoryRecord> records;
  for (int i = 0; i < 3; ++i) {
    records.push_back(
        make_record("pr" + std::to_string(i), {make_sample("lat", 100.0)}));
  }
  records.push_back(make_record("latest", {make_sample("lat", 110.0)}));
  const auto verdicts = obs::check_suite(records, test_options());
  const MetricVerdict* v = find_verdict(verdicts, "lat");
  ASSERT_NE(v, nullptr);
  EXPECT_EQ(v->status, VerdictStatus::kOk);
  EXPECT_NEAR(v->change, 0.10, 1e-12);
}

TEST(Perfcheck, TwoTimesLatencyRegressionAlerts) {
  std::vector<HistoryRecord> records;
  for (int i = 0; i < 3; ++i) {
    records.push_back(
        make_record("pr" + std::to_string(i), {make_sample("lat", 100.0)}));
  }
  records.push_back(make_record("latest", {make_sample("lat", 200.0)}));
  const auto verdicts = obs::check_suite(records, test_options());
  const MetricVerdict* v = find_verdict(verdicts, "lat");
  ASSERT_NE(v, nullptr);
  EXPECT_EQ(v->status, VerdictStatus::kAlert);
  EXPECT_NEAR(v->change, 1.0, 1e-12);
  EXPECT_NEAR(v->baseline, 100.0, 1e-12);
  EXPECT_NEAR(v->latest, 200.0, 1e-12);
}

TEST(Perfcheck, ImprovementsNeverAlert) {
  std::vector<HistoryRecord> records;
  for (int i = 0; i < 3; ++i) {
    records.push_back(
        make_record("pr" + std::to_string(i), {make_sample("lat", 100.0)}));
  }
  records.push_back(make_record("latest", {make_sample("lat", 50.0)}));
  const auto verdicts = obs::check_suite(records, test_options());
  EXPECT_EQ(find_verdict(verdicts, "lat")->status, VerdictStatus::kOk);
  EXPECT_LT(find_verdict(verdicts, "lat")->change, 0.0);
}

TEST(Perfcheck, MissingAlertingMetricAlerts) {
  std::vector<HistoryRecord> records;
  records.push_back(make_record(
      "pr2", {make_sample("lat", 100.0), make_sample("rss", 50.0)}));
  records.push_back(make_record("latest", {make_sample("lat", 100.0)}));
  const auto verdicts = obs::check_suite(records, test_options());
  const MetricVerdict* v = find_verdict(verdicts, "rss");
  ASSERT_NE(v, nullptr);
  EXPECT_EQ(v->status, VerdictStatus::kMissing);

  obs::PerfcheckReport report;
  report.verdicts = verdicts;
  EXPECT_EQ(report.alert_count(), 1);
}

TEST(Perfcheck, NoisyReplicatesUseTheMedian) {
  // The latest run has one wild replicate; the median keeps it honest.
  std::vector<HistoryRecord> records;
  for (int i = 0; i < 3; ++i) {
    records.push_back(
        make_record("pr" + std::to_string(i), {make_sample("lat", 100.0)}));
  }
  MetricSample noisy = make_sample("lat", 100.0);
  noisy.values = {98.0, 5000.0, 102.0};
  records.push_back(make_record("latest", {noisy}));
  const auto verdicts = obs::check_suite(records, test_options());
  EXPECT_EQ(find_verdict(verdicts, "lat")->status, VerdictStatus::kOk);
}

TEST(Perfcheck, BaselineNoiseWidensTheWindowNeverNarrows) {
  // Baselines jitter ~15% MAD around 100; a 5% contract would page on
  // every run, so the window widens to 3x the observed noise.
  const std::vector<double> base = {70.0, 100.0, 130.0, 100.0, 85.0};
  std::vector<HistoryRecord> records;
  for (std::size_t i = 0; i < base.size(); ++i) {
    records.push_back(make_record("pr" + std::to_string(i),
                                  {make_sample("lat", base[i], true, 0.05)}));
  }
  records.push_back(
      make_record("latest", {make_sample("lat", 130.0, true, 0.05)}));
  const auto verdicts = obs::check_suite(records, test_options());
  const MetricVerdict* v = find_verdict(verdicts, "lat");
  ASSERT_NE(v, nullptr);
  EXPECT_EQ(v->status, VerdictStatus::kOk);
  EXPECT_GT(v->allowed, 0.05);
}

TEST(Perfcheck, MinThreadsSkipsOnSmallMachines) {
  MetricSample mt = make_sample("speedup", 3.5, false);
  mt.min_threads = 4;
  std::vector<HistoryRecord> records;
  records.push_back(make_record("pr4", {mt}));
  records.push_back(make_record("latest", {mt}));
  PerfcheckOptions options = test_options();
  options.hardware_threads = 1;
  const auto verdicts = obs::check_suite(records, options);
  const MetricVerdict* v = find_verdict(verdicts, "speedup");
  ASSERT_NE(v, nullptr);
  EXPECT_EQ(v->status, VerdictStatus::kSkipped);
}

TEST(Perfcheck, AbsoluteFloorAlertsEvenOnFirstRun) {
  MetricSample speedup = make_sample("speedup_t4", 0.8, false);
  speedup.alert_floor = 1.0;
  std::vector<HistoryRecord> records;
  records.push_back(make_record("first", {speedup}));
  const auto verdicts = obs::check_suite(records, test_options());
  const MetricVerdict* v = find_verdict(verdicts, "speedup_t4");
  ASSERT_NE(v, nullptr);
  EXPECT_EQ(v->status, VerdictStatus::kAlert);
  EXPECT_NE(v->detail.find("floor"), std::string::npos);
}

TEST(Perfcheck, ValueAtTheFloorPassesToTheRelativeGate) {
  MetricSample speedup = make_sample("speedup_t4", 1.0, false);
  speedup.alert_floor = 1.0;
  std::vector<HistoryRecord> records;
  records.push_back(make_record("first", {speedup}));
  const auto verdicts = obs::check_suite(records, test_options());
  const MetricVerdict* v = find_verdict(verdicts, "speedup_t4");
  ASSERT_NE(v, nullptr);
  EXPECT_EQ(v->status, VerdictStatus::kFirstRun);
}

TEST(Perfcheck, FloorActsAsCeilingForLowerIsBetter) {
  // lane_idle_fraction style: lower_is_better with a 0.35 cap. A value
  // above the cap alerts even when the rolling baseline would pass it.
  MetricSample idle = make_sample("idle_fraction", 0.30, true);
  idle.alert_floor = 0.35;
  std::vector<HistoryRecord> records;
  for (int i = 0; i < 3; ++i) {
    records.push_back(make_record("pr" + std::to_string(i), {idle}));
  }
  MetricSample blown = idle;
  blown.values = {0.40};  // only +33% vs baseline, but over the cap
  blown.alert_threshold = 1.0;
  records.push_back(make_record("latest", {blown}));
  const auto verdicts = obs::check_suite(records, test_options());
  const MetricVerdict* v = find_verdict(verdicts, "idle_fraction");
  ASSERT_NE(v, nullptr);
  EXPECT_EQ(v->status, VerdictStatus::kAlert);
  EXPECT_NE(v->detail.find("ceiling"), std::string::npos);
}

TEST(Perfcheck, FloorStillHonorsMinThreadsSkip) {
  MetricSample speedup = make_sample("speedup_t4", 0.5, false);
  speedup.alert_floor = 1.0;
  speedup.min_threads = 4;
  std::vector<HistoryRecord> records;
  records.push_back(make_record("first", {speedup}));
  PerfcheckOptions options = test_options();
  options.hardware_threads = 1;
  const auto verdicts = obs::check_suite(records, options);
  const MetricVerdict* v = find_verdict(verdicts, "speedup_t4");
  ASSERT_NE(v, nullptr);
  EXPECT_EQ(v->status, VerdictStatus::kSkipped);
}

TEST(GateMetrics, ServiceSpeedupCarriesTheAbsoluteFloor) {
  const MetricSample pr4 =
      obs::gate_metric("pr4-service-gate", "jobs_per_sec_speedup_t4", 1.4);
  ASSERT_TRUE(pr4.has_floor());
  EXPECT_DOUBLE_EQ(pr4.alert_floor, 1.0);
  const MetricSample pr10 =
      obs::gate_metric("pr10-sharded-gate", "jobs_per_sec_speedup_t4", 1.4);
  ASSERT_TRUE(pr10.has_floor());
  EXPECT_DOUBLE_EQ(pr10.alert_floor, 1.0);
  EXPECT_EQ(pr10.min_threads, 4);
  const MetricSample idle =
      obs::gate_metric("pr10-sharded-gate", "lane_idle_fraction", 0.1);
  ASSERT_TRUE(idle.has_floor());
  EXPECT_DOUBLE_EQ(idle.alert_floor, 0.35);
  EXPECT_TRUE(idle.lower_is_better);
  const MetricSample steals =
      obs::gate_metric("pr10-sharded-gate", "steal_count", 12.0);
  EXPECT_FALSE(steals.should_alert);
  EXPECT_FALSE(steals.has_floor());
}

TEST(Perfcheck, InformationalMetricsNeverGate) {
  MetricSample info = make_sample("wall_s", 1.0);
  info.should_alert = false;
  std::vector<HistoryRecord> records;
  records.push_back(make_record("pr2", {info}));
  MetricSample blown = info;
  blown.values = {100.0};  // 100x "regression" on an info metric
  records.push_back(make_record("latest", {blown}));
  const auto verdicts = obs::check_suite(records, test_options());
  EXPECT_EQ(find_verdict(verdicts, "wall_s")->status, VerdictStatus::kInfo);
}

TEST(Perfcheck, CalibrationNormalizationCancelsMachineSpeed) {
  auto record_at = [](const std::string& run, double throughput,
                      double calibration) {
    MetricSample m = make_sample("scan_per_sec", throughput, false, 0.10);
    m.normalize_by = "calibration_fits_per_sec";
    m.normalize_op = obs::NormalizeOp::kDivide;
    MetricSample cal = make_sample("calibration_fits_per_sec", calibration,
                                   false);
    cal.should_alert = false;
    return make_record(run, {m, cal});
  };

  // Latest ran on a machine 2x faster: raw throughput doubled, but so
  // did the calibration metric — normalized, nothing moved.
  std::vector<HistoryRecord> fast_machine = {
      record_at("pr2", 1000.0, 50.0), record_at("pr3", 1000.0, 50.0),
      record_at("latest", 2000.0, 100.0)};
  auto verdicts = obs::check_suite(fast_machine, test_options());
  EXPECT_EQ(find_verdict(verdicts, "scan_per_sec")->status,
            VerdictStatus::kOk);

  // Same machine, throughput halved: a real regression survives the
  // normalization.
  std::vector<HistoryRecord> real_regression = {
      record_at("pr2", 1000.0, 50.0), record_at("pr3", 1000.0, 50.0),
      record_at("latest", 500.0, 50.0)};
  verdicts = obs::check_suite(real_regression, test_options());
  EXPECT_EQ(find_verdict(verdicts, "scan_per_sec")->status,
            VerdictStatus::kAlert);

  // Calibration absent from the latest record: skip (with a reason),
  // never a spurious alert.
  std::vector<HistoryRecord> no_calibration = {
      record_at("pr2", 1000.0, 50.0),
      make_record("latest",
                  {[] {
                    MetricSample m =
                        make_sample("scan_per_sec", 1000.0, false, 0.10);
                    m.normalize_by = "calibration_fits_per_sec";
                    return m;
                  }()})};
  verdicts = obs::check_suite(no_calibration, test_options());
  EXPECT_EQ(find_verdict(verdicts, "scan_per_sec")->status,
            VerdictStatus::kSkipped);
}

// ------------------------------------------------ gate-metric catalog

TEST(GateMetrics, DurabilityOverheadRatioHasTheWideThreshold) {
  // Satellite contract: fsync-per-record over microsecond-scale probes
  // is a stress ceiling, so only order-of-magnitude movement alerts.
  const MetricSample m =
      obs::gate_metric("pr8-durability-gate", "durability_overhead_ratio",
                       40.0);
  EXPECT_TRUE(m.should_alert);
  EXPECT_TRUE(m.lower_is_better);
  EXPECT_DOUBLE_EQ(m.alert_threshold, 1.50);
  EXPECT_NE(m.note.find("microsecond"), std::string::npos);
}

TEST(GateMetrics, UnknownNamesAreInformational) {
  const MetricSample m = obs::gate_metric("pr4-service-gate",
                                          "surprise_metric", 1.0);
  EXPECT_FALSE(m.should_alert);
  EXPECT_DOUBLE_EQ(m.value(), 1.0);
}

TEST(GateMetrics, DottedScenarioNamesMatchOnTheFinalSegment) {
  const MetricSample m = obs::gate_metric(
      "pr7-multi-fidelity-gate", "budget.probe_cost_ratio", 0.4);
  EXPECT_TRUE(m.should_alert);
  EXPECT_TRUE(m.lower_is_better);
}

TEST(GateMetrics, FormerShadowGateKeysAlert) {
  // Every key the retired fixed-20% snapshot comparisons checked stays
  // an alerting series, so perfcheck still gates each one.
  struct Key {
    const char* suite;
    const char* name;
    bool lower_is_better;
    const char* normalize_by;
  };
  const Key keys[] = {
      {"pr2-fastpath-gate", "gp_incremental_adds_per_sec", false,
       "calibration_fits_per_sec"},
      {"pr2-fastpath-gate", "acq_scan_candidates_per_sec_t1", false,
       "calibration_fits_per_sec"},
      {"pr7-multi-fidelity-gate", "budget.probe_cost_ratio", true, ""},
      {"pr7-multi-fidelity-gate", "deadline.probe_cost_ratio", true, ""},
      {"pr4-service-gate", "jobs_per_sec_speedup_t4", false, ""},
      {"pr4-service-gate", "cache_hit_rate_t4", false, ""},
      {"pr6-chaos-gate", "chaos_throughput_ratio", false, ""},
      {"pr8-durability-gate", "journal_throughput_ratio", false, ""},
      {"pr10-sharded-gate", "jobs_per_sec_speedup_t4", false, ""},
  };
  for (const Key& key : keys) {
    SCOPED_TRACE(std::string(key.suite) + " " + key.name);
    const MetricSample m = obs::gate_metric(key.suite, key.name, 1.0);
    EXPECT_TRUE(m.should_alert);
    EXPECT_EQ(m.lower_is_better, key.lower_is_better);
    EXPECT_EQ(m.normalize_by, key.normalize_by);
  }
}

// ------------------------------------------------------------- CLI

int drive(std::vector<const char*> argv, std::string* out_text = nullptr,
          std::string* err_text = nullptr) {
  argv.insert(argv.begin(), "mlcd");
  std::ostringstream out, err;
  const int rc =
      cli::run(static_cast<int>(argv.size()), argv.data(), out, err);
  if (out_text) *out_text = out.str();
  if (err_text) *err_text = err.str();
  return rc;
}

class PerfcheckCli : public ObsTempDir {
 protected:
  void write_suite(const std::string& suite, std::vector<double> runs,
                   double alert_threshold = 0.10) {
    const std::string path = obs::history_path(dir(), suite);
    int n = 0;
    for (const double value : runs) {
      obs::append_history(
          path,
          make_record("run" + std::to_string(n++),
                      {make_sample("latency_ms", value, true,
                                   alert_threshold)},
                      suite));
    }
  }
};

TEST_F(PerfcheckCli, CleanHistoryPasses) {
  write_suite("svc", {100.0, 101.0, 99.0, 100.0});
  std::string out;
  EXPECT_EQ(drive({"perfcheck", "--history-dir", dir().c_str()}, &out), 0);
  EXPECT_NE(out.find("RESULT: OK"), std::string::npos) << out;
}

TEST_F(PerfcheckCli, SyntheticTwoTimesRegressionFailsAndNamesTheMetric) {
  // The acceptance criterion: inject a 2x latency regression as the
  // latest record and the check must exit nonzero, naming the metric.
  write_suite("svc", {100.0, 101.0, 99.0, 200.0});
  std::string out;
  EXPECT_EQ(drive({"perfcheck", "--history-dir", dir().c_str()}, &out), 1);
  EXPECT_NE(out.find("latency_ms"), std::string::npos) << out;
  EXPECT_NE(out.find("RESULT: ALERT"), std::string::npos) << out;
}

TEST_F(PerfcheckCli, SuiteFilterChecksOneSuite) {
  write_suite("good", {100.0, 100.0, 100.0});
  write_suite("bad", {100.0, 100.0, 200.0});
  EXPECT_EQ(drive({"perfcheck", "--history-dir", dir().c_str(), "--suite",
                   "good"}),
            0);
  EXPECT_EQ(drive({"perfcheck", "--history-dir", dir().c_str(), "--suite",
                   "bad"}),
            1);
  EXPECT_EQ(drive({"perfcheck", "--history-dir", dir().c_str()}), 1);
}

TEST_F(PerfcheckCli, MissingHistoryDirIsAnArtifactError) {
  const std::string missing = dir() + "/does-not-exist";
  std::string err;
  EXPECT_EQ(drive({"perfcheck", "--history-dir", missing.c_str()}, nullptr,
                  &err),
            3);
  EXPECT_FALSE(err.empty());
}

}  // namespace
