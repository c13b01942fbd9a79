// Service benchmark program: one workload per process.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--out-dir DIR]
//
// --trace 0 measures the end-to-end metrics: the fleet runs through
// service::Scheduler::run on 4 lanes, back to back, for S seconds, and
// every batch is checked against a solo reference run of the same jobs.
// --trace 1 measures the per-layer metrics: rounds of one scheduled run
// (service counters, allocation deltas, journal size), one traced solo
// run (spans around every call into mlcd/search/probe) and one untraced
// solo run (tracing overhead), for S seconds. Spans of the last round are
// written to DIR/spans-NAME.jsonl; journals live in a fresh directory
// under DIR that is removed before exit.
//
// The last line of standard output is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// Exit status: 0 when every check passed, 1 on a correctness mismatch,
// 2 on bad arguments or an error before any result.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include <sched.h>
#include <unistd.h>

#include "fleet.hpp"
#include "journal/journal.hpp"
#include "obs/resource.hpp"
#include "service/batch_journal.hpp"
#include "service/scheduler.hpp"
#include "solo.hpp"
#include "spans.hpp"
#include "util/logging.hpp"

namespace {

namespace fs = std::filesystem;
using mlcd::service::BatchReport;
using mlcd::service::JobOutcome;
using mlcd::service::Workload;
using perfbench::FleetPlan;
using perfbench::JobPrint;
using Clock = std::chrono::steady_clock;

// Set-up samples per end-to-end run, taken between batches and paced
// evenly over the run. A sample is the fastest set-up of a block that
// runs kSetupsPerCpu set-ups pinned to each CPU the process may use. On a
// shared host each virtual CPU can flip every second or two between a calm
// speed and one up to 60% slower, with the load of other tenants, so one
// set-up, or a block left on one CPU, measures which CPU it landed on.
// The fastest CPU of a block tracks the calm speed, and a change to the
// program moves the set-ups on every CPU. Each CPU keeps the block for at
// least kSetupSecondsPerCpu, so a block of 1 ms set-ups still outlasts a
// moment in which every CPU is slow.
constexpr int kSetupBlocks = 16;
constexpr int kSetupsPerCpu = 3;
constexpr double kSetupSecondsPerCpu = 0.02;
// Enough job latencies that p95 has at least 10 samples beyond it.
constexpr std::size_t kMinLatencySamples = 200;

double since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Linear-interpolated quantile of an unsorted sample (0 when empty).
double quantile(std::vector<double> xs, double q) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  const double pos = q * static_cast<double>(xs.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, xs.size() - 1);
  return xs[lo] + (xs[hi] - xs[lo]) * (pos - static_cast<double>(lo));
}

double median(std::vector<double> xs) { return quantile(std::move(xs), 0.5); }

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir = ".bench_build/perfbench-out";
};

/// A directory under the output directory, created empty and removed
/// (with everything in it) when the object dies.
class TempDir {
 public:
  explicit TempDir(const fs::path& path) : path_(path) {
    fs::remove_all(path_);
    fs::create_directories(path_);
  }
  ~TempDir() {
    std::error_code ignored;
    fs::remove_all(path_, ignored);
  }
  TempDir(const TempDir&) = delete;
  TempDir& operator=(const TempDir&) = delete;
  /// A fresh, empty subdirectory.
  std::string fresh(const std::string& name) const {
    const fs::path sub = path_ / name;
    fs::remove_all(sub);
    fs::create_directories(sub);
    return sub.string();
  }

 private:
  fs::path path_;
};

std::uint64_t directory_bytes(const std::string& dir) {
  std::uint64_t bytes = 0;
  for (const auto& entry : fs::recursive_directory_iterator(dir)) {
    if (entry.is_regular_file()) bytes += entry.file_size();
  }
  return bytes;
}

/// Probe and degrade records of every per-job journal in a batch journal
/// directory, plus the manifest's lifecycle records.
std::int64_t journal_records(const std::string& dir) {
  std::int64_t records = 0;
  for (const auto& entry : fs::directory_iterator(dir)) {
    if (entry.path().extension() != ".mlcdj") continue;
    const mlcd::journal::JournalContents contents =
        mlcd::journal::read_journal(entry.path().string());
    records += static_cast<std::int64_t>(contents.probes.size() +
                                         contents.degraded.size());
  }
  const mlcd::service::BatchManifestContents manifest =
      mlcd::service::read_manifest(dir + "/batch.mlcdb");
  for (const mlcd::service::BatchJobState& job : manifest.jobs) {
    records += job.admitted + job.assigned + job.finished;
  }
  return records;
}

struct Fleet {
  std::unique_ptr<mlcd::system::Mlcd> mlcd;
  FleetPlan plan;
  Workload workload;
};

/// What a user pays before the first job runs: the service object, the
/// generated fleet, and admission parsing.
Fleet set_up(const std::string& name, std::uint64_t seed) {
  Fleet fleet;
  fleet.mlcd = std::make_unique<mlcd::system::Mlcd>();
  fleet.plan = perfbench::make_fleet(name, seed);
  fleet.workload = mlcd::service::parse_workload(fleet.plan.workload_json);
  return fleet;
}

/// Appends `blocks` set-up samples, each the fastest of a block that
/// visits every CPU of the process's affinity mask for at least
/// kSetupsPerCpu set-ups and kSetupSecondsPerCpu; the mask is restored
/// after each block.
void time_set_up(const Args& args, int blocks, std::vector<double>& samples) {
  cpu_set_t allowed;
  if (::sched_getaffinity(0, sizeof allowed, &allowed) != 0) {
    throw std::runtime_error("sched_getaffinity failed");
  }
  for (int b = 0; b < blocks; ++b) {
    double fastest = std::numeric_limits<double>::infinity();
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (!CPU_ISSET(cpu, &allowed)) continue;
      cpu_set_t one;
      CPU_ZERO(&one);
      CPU_SET(cpu, &one);
      ::sched_setaffinity(0, sizeof one, &one);
      const Clock::time_point visit = Clock::now();
      for (int i = 0; i < kSetupsPerCpu || since(visit) < kSetupSecondsPerCpu; ++i) {
        const Clock::time_point start = Clock::now();
        const Fleet fleet = set_up(args.workload, args.seed);
        fastest = std::min(fastest, since(start));
      }
    }
    ::sched_setaffinity(0, sizeof allowed, &allowed);
    samples.push_back(fastest);
  }
}

/// High-water resident set of this process image, MB. VmHWM starts afresh
/// at exec; getrusage's ru_maxrss (obs::peak_rss_bytes) keeps the peak of
/// the process that exec'd the benchmark, which can exceed the fleet's.
double peak_rss_mb() {
  if (std::FILE* status = std::fopen("/proc/self/status", "r")) {
    char line[256];
    long long kb = -1;
    while (std::fgets(line, sizeof line, status) != nullptr) {
      if (std::sscanf(line, "VmHWM: %lld kB", &kb) == 1) break;
    }
    std::fclose(status);
    if (kb >= 0) return static_cast<double>(kb) * 1024.0 / 1e6;
  }
  return static_cast<double>(mlcd::obs::peak_rss_bytes()) / 1e6;
}

struct Batch {
  BatchReport report;
  double wall_s = 0.0;
  mlcd::obs::AllocCounters alloc;  ///< delta over the scheduled run
  // Durable fleets only.
  std::optional<BatchReport> resumed;
  double resume_s = 0.0;
  std::uint64_t journal_bytes = 0;
  std::int64_t journal_records = 0;
  std::int64_t journal_records_after_resume = 0;
};

/// One scheduled run of the fleet; a durable fleet runs in a fresh
/// journal directory and is then resumed from it.
Batch run_batch(const Fleet& fleet, const TempDir& tmp, bool inspect_journal) {
  Batch batch;
  mlcd::service::SchedulerOptions options = fleet.plan.options;
  if (fleet.plan.durable) options.journal_dir = tmp.fresh("batch");
  const mlcd::service::Scheduler scheduler(*fleet.mlcd, options);
  const mlcd::obs::AllocCounters before = mlcd::obs::alloc_counters();
  const Clock::time_point start = Clock::now();
  batch.report = scheduler.run(fleet.workload);
  batch.wall_s = since(start);
  const mlcd::obs::AllocCounters after = mlcd::obs::alloc_counters();
  batch.alloc.allocations = after.allocations - before.allocations;
  batch.alloc.bytes = after.bytes - before.bytes;
  if (!fleet.plan.durable) return batch;

  if (inspect_journal) {
    batch.journal_bytes = directory_bytes(options.journal_dir);
    batch.journal_records = journal_records(options.journal_dir);
  }
  options.resume = true;
  const mlcd::service::Scheduler resumer(*fleet.mlcd, options);
  const Clock::time_point resume_start = Clock::now();
  batch.resumed = resumer.run(fleet.workload);
  batch.resume_s = since(resume_start);
  if (inspect_journal) {
    batch.journal_records_after_resume = journal_records(options.journal_dir);
  }
  fs::remove_all(options.journal_dir);
  return batch;
}

/// Collects correctness failures; keeps the first few messages.
struct Checks {
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::int64_t mismatches = 0;
  std::vector<std::string> messages;

  void fail(const std::string& message) {
    ++mismatches;
    if (messages.size() < 8) messages.push_back(message);
  }
  bool correct() const noexcept { return mismatches == 0; }
};

void check_batch(const Batch& batch, const std::vector<JobPrint>& reference,
                 const FleetPlan& plan, bool inspect_journal, Checks& checks) {
  const BatchReport& report = batch.report;
  checks.attempted += static_cast<std::int64_t>(report.jobs.size());
  if (report.jobs.size() != reference.size()) {
    checks.fail("scheduled run returned " + std::to_string(report.jobs.size()) +
                " outcomes for " + std::to_string(reference.size()) + " jobs");
    return;
  }
  for (std::size_t i = 0; i < report.jobs.size(); ++i) {
    if (!report.jobs[i].ok) ++checks.failed;
    const std::string mismatch = perfbench::compare(report.jobs[i], reference[i]);
    if (!mismatch.empty()) checks.fail(mismatch);
  }
  if (!plan.durable) return;

  if (report.total_lane_crashes() <= 0 || report.total_revocations() <= 0 ||
      report.total_probe_losses() <= 0) {
    checks.fail("durable_fleet: a chaos counter stayed 0 (crashes " +
                std::to_string(report.total_lane_crashes()) + ", revocations " +
                std::to_string(report.total_revocations()) + ", losses " +
                std::to_string(report.total_probe_losses()) + ")");
  }
  const BatchReport& resumed = *batch.resumed;
  if (resumed.jobs.size() != report.jobs.size() ||
      resumed.replayed_reports() != static_cast<int>(report.jobs.size())) {
    checks.fail("durable_fleet: the resume replayed " +
                std::to_string(resumed.replayed_reports()) + " of " +
                std::to_string(report.jobs.size()) + " finished jobs");
    return;
  }
  for (std::size_t i = 0; i < resumed.jobs.size(); ++i) {
    const JobOutcome& job = resumed.jobs[i];
    const std::uint64_t fresh_digest =
        mlcd::service::digest_run_report(report.jobs[i].report);
    if (!job.ok || !job.stats.replayed_from_journal ||
        job.report.result.replayed_probes !=
            static_cast<int>(job.report.result.trace.size())) {
      checks.fail(job.name + ": resume re-executed probes or did not replay");
      continue;
    }
    if (mlcd::service::digest_run_report(job.report) != fresh_digest) {
      checks.fail(job.name + ": replayed report differs from the fresh run");
    }
  }
  if (inspect_journal &&
      batch.journal_records_after_resume != batch.journal_records) {
    checks.fail("durable_fleet: the resume appended " +
                std::to_string(batch.journal_records_after_resume -
                               batch.journal_records) +
                " journal records");
  }
}

int probe_steps(const BatchReport& report) {
  int steps = 0;
  for (const JobOutcome& job : report.jobs) {
    if (job.ok) steps += static_cast<int>(job.report.result.trace.size());
  }
  return steps;
}

int ok_jobs(const BatchReport& report) {
  int ok = 0;
  for (const JobOutcome& job : report.jobs) ok += job.ok ? 1 : 0;
  return ok;
}

/// Mean of the middle 80%: one budget job that never finds a fast
/// deployment trains for hundreds of hours and would swamp a plain mean.
double trimmed_mean(std::vector<double> xs) {
  std::sort(xs.begin(), xs.end());
  const std::size_t cut = xs.size() / 10;
  if (xs.size() <= 2 * cut) return 0.0;
  double sum = 0.0;
  for (std::size_t i = cut; i < xs.size() - cut; ++i) sum += xs[i];
  return sum / static_cast<double>(xs.size() - 2 * cut);
}

/// The simulated, deterministic outcome of the fleet for its tenants:
/// fleet-wide profiling spend, and what a deadline (budget) job pays
/// (waits) in total, profiling included.
void simulated_metrics(const BatchReport& report, std::vector<Metric>& out) {
  double profile_cost = 0.0;
  double profile_hours = 0.0;
  std::vector<double> deadline_job_cost;
  std::vector<double> budget_job_hours;
  for (const JobOutcome& job : report.jobs) {
    if (!job.ok) continue;
    const mlcd::search::SearchResult& r = job.report.result;
    profile_cost += r.profile_cost;
    profile_hours += r.profile_hours;
    if (job.report.request.requirements.deadline_hours) {
      deadline_job_cost.push_back(r.total_cost());
    } else {
      budget_job_hours.push_back(r.total_hours());
    }
  }
  out.push_back({"profiling_cost_usd", profile_cost, "USD"});
  out.push_back({"profiling_hours", profile_hours, "h"});
  out.push_back({"deployment_cost_usd", trimmed_mean(deadline_job_cost), "USD"});
  out.push_back({"deployment_hours", trimmed_mean(budget_job_hours), "h"});
}

/// End-to-end run: scheduled batches back to back for `seconds`.
std::vector<Metric> measure_end_to_end(const Fleet& fleet, const Args& args,
                                       const TempDir& tmp, Checks& checks) {
  // Reference for the correctness check, and a warm-up batch whose
  // first-in-process costs (thread creation, allocator growth) are not
  // what a long-running service pays per batch.
  const perfbench::SoloRun reference = perfbench::drive_solo(
      *fleet.mlcd, fleet.workload, perfbench::kLanes, nullptr, std::string());
  const Batch warm = run_batch(fleet, tmp, false);
  check_batch(warm, reference.jobs, fleet.plan, false, checks);
  std::vector<double> setup_s;

  std::vector<double> jobs_per_s;
  std::vector<double> probes_per_s;
  std::vector<double> latencies;
  const Clock::time_point start = Clock::now();
  do {
    const Batch batch = run_batch(fleet, tmp, false);
    check_batch(batch, reference.jobs, fleet.plan, false, checks);
    jobs_per_s.push_back(ok_jobs(batch.report) / batch.wall_s);
    probes_per_s.push_back(probe_steps(batch.report) / batch.wall_s);
    for (const JobOutcome& job : batch.report.jobs) {
      latencies.push_back(job.stats.queue_wait_seconds + job.stats.run_seconds);
    }
    const double done = std::min(1.0, since(start) / args.seconds);
    time_set_up(args,
                static_cast<int>(kSetupBlocks * done) - static_cast<int>(setup_s.size()),
                setup_s);
  } while (since(start) < args.seconds || latencies.size() < kMinLatencySamples);

  std::printf("# %zu batches, %zu job latency samples, %zu set-up blocks\n",
              jobs_per_s.size(), latencies.size(), setup_s.size());
  std::vector<Metric> out;
  out.push_back({"setup_s", median(setup_s), "s"});
  out.push_back({"jobs_per_s", median(jobs_per_s), "1/s"});
  out.push_back({"probes_per_s", median(probes_per_s), "1/s"});
  out.push_back({"job_latency_p50_s", quantile(latencies, 0.50), "s"});
  out.push_back({"job_latency_p95_s", quantile(latencies, 0.95), "s"});
  out.push_back({"peak_rss_mb", peak_rss_mb(), "MB"});
  simulated_metrics(warm.report, out);
  return out;
}

struct LayerTimes {
  std::vector<double> us;  ///< per-call self time
  double total_s = 0.0;
};

/// One traced round's per-layer numbers.
std::vector<Metric> trace_round(const Fleet& fleet, const TempDir& tmp,
                                bool traced_first, Checks& checks,
                                std::vector<perfbench::Span>* keep) {
  const Batch batch = run_batch(fleet, tmp, true);
  const BatchReport& report = batch.report;

  const int lanes = perfbench::kLanes;
  std::vector<perfbench::SpanLog> logs(static_cast<std::size_t>(lanes));
  std::optional<perfbench::SoloRun> traced;
  std::optional<perfbench::SoloRun> plain;
  const auto journal_dir = [&](const char* name) {
    return fleet.plan.durable ? tmp.fresh(name) : std::string();
  };
  for (int pass = 0; pass < 2; ++pass) {
    if ((pass == 0) == traced_first) {
      traced = perfbench::drive_solo(*fleet.mlcd, fleet.workload, lanes, &logs,
                                     journal_dir("solo-traced"));
    } else {
      plain = perfbench::drive_solo(*fleet.mlcd, fleet.workload, lanes, nullptr,
                                    journal_dir("solo-plain"));
    }
  }
  check_batch(batch, traced->jobs, fleet.plan, true, checks);
  for (std::size_t i = 0; i < traced->jobs.size(); ++i) {
    if (traced->jobs[i].report != plain->jobs[i].report) {
      checks.fail(fleet.workload.jobs[i].name + ": tracing changed the trace");
    }
  }

  std::vector<perfbench::Span> spans = perfbench::merge_logs(logs);
  perfbench::compute_self_times(spans);
  std::map<std::string, LayerTimes> layers;
  double layer_s = 0.0;
  double job_s = 0.0;
  for (const perfbench::Span& span : spans) {
    const double self_s = static_cast<double>(span.self_ns) / 1e9;
    if (std::string_view(span.name) == "job") {
      job_s += static_cast<double>(span.end_ns - span.start_ns) / 1e9;
      continue;
    }
    LayerTimes& layer = layers[span.name];
    layer.us.push_back(self_s * 1e6);
    layer.total_s += self_s;
    layer_s += self_s;
  }
  const LayerTimes& propose = layers["search.propose"];
  const LayerTimes& step = layers["probe.step"];

  const int probes = probe_steps(report);
  std::vector<double> waits;
  double stall_s = 0.0;
  double busy_s = 0.0;
  int failures = 0;
  int misses = 0;
  for (const JobOutcome& job : report.jobs) {
    waits.push_back(job.stats.queue_wait_seconds);
    stall_s += job.stats.capacity_stall_seconds;
    busy_s += job.stats.lane_busy_seconds;
    if (!job.ok || job.slo != mlcd::service::SloBreach::kNone) ++failures;
    if (!job.ok || !job.report.result.meets_constraints(job.report.scenario)) {
      ++misses;
    }
  }
  const double jobs = static_cast<double>(report.jobs.size());
  const double per_probe = probes > 0 ? 1.0 / probes : 0.0;
  const auto& cache = report.cache;
  const double hit_ratio =
      cache.lookups > 0
          ? static_cast<double>(cache.hits) / static_cast<double>(cache.lookups)
          : 0.0;
  const double trace_overhead =
      plain->wall_seconds > 0.0 ? traced->wall_seconds / plain->wall_seconds : 1.0;
  // The scheduled run served `hit_ratio` of its probes from the cache and
  // ran only the rest through ProbeDriver::step; the solo run ran them all,
  // and its spans add the tracing overhead of this round.
  const double live_layer_s = (layer_s - step.total_s * hit_ratio) / trace_overhead;

  std::vector<Metric> m = {
      {"mlcd.prepare_us_p50", quantile(layers["mlcd.prepare"].us, 0.5), "us"},
      {"mlcd.finish_us_p50", quantile(layers["mlcd.finish"].us, 0.5), "us"},
      {"mlcd.s_total", layers["mlcd.prepare"].total_s + layers["mlcd.finish"].total_s, "s"},
      {"search.propose_us_p50", quantile(propose.us, 0.5), "us"},
      {"search.propose_us_p99", quantile(propose.us, 0.99), "us"},
      {"search.propose_s_total", propose.total_s, "s"},
      {"search.propose_share", job_s > 0.0 ? propose.total_s / job_s : 0.0, "ratio"},
      {"search.proposals", static_cast<double>(propose.us.size()), "count"},
      {"probe.step_us_p50", quantile(step.us, 0.5), "us"},
      {"probe.step_us_p99", quantile(step.us, 0.99), "us"},
      {"probe.step_s_total", step.total_s, "s"},
      {"probe.steps", static_cast<double>(step.us.size()), "count"},
      {"service.lane_idle_fraction", report.lane_idle_fraction(), "ratio"},
      {"service.queue_wait_p50_s", quantile(waits, 0.5), "s"},
      {"service.capacity_stall_s_total", stall_s, "s"},
      {"service.parks_per_probe", report.total_session_parks() * per_probe, "ratio"},
      {"service.steals", static_cast<double>(report.lane_steals), "count"},
      {"service.cache_hit_ratio", hit_ratio, "ratio"},
      {"service.cache_stripe_max_imbalance", cache.max_stripe_imbalance, "ratio"},
      {"service.peak_capacity_nodes", static_cast<double>(report.peak_capacity_nodes),
       "count"},
      {"service.overhead_share", busy_s > 0.0 ? (busy_s - live_layer_s) / busy_s : 0.0,
       "ratio"},
      {"service.lane_crashes", static_cast<double>(report.total_lane_crashes()), "count"},
      {"service.revocations", static_cast<double>(report.total_revocations()), "count"},
      {"service.probe_losses", static_cast<double>(report.total_probe_losses()), "count"},
      {"job_failure_rate", failures / jobs, "ratio"},
      {"constraint_miss_rate", misses / jobs, "ratio"},
      {"journal.records", static_cast<double>(batch.journal_records), "count"},
      {"journal.bytes", static_cast<double>(batch.journal_bytes), "B"},
      {"journal.replay_s", batch.resume_s, "s"},
      {"alloc.per_probe", static_cast<double>(batch.alloc.allocations) * per_probe, "count"},
      {"alloc.bytes_per_probe", static_cast<double>(batch.alloc.bytes) * per_probe, "B"},
      {"trace.overhead_ratio", trace_overhead, "ratio"},
  };
  if (keep != nullptr) *keep = std::move(spans);
  return m;
}

/// Per-layer run: traced rounds for `seconds`; each metric is the median
/// over rounds.
std::vector<Metric> measure_layers(const Fleet& fleet, const TempDir& tmp,
                                   double seconds, const std::string& spans_path,
                                   Checks& checks) {
  std::vector<Metric> out;
  std::vector<std::vector<double>> rounds;
  std::vector<perfbench::Span> spans;
  run_batch(fleet, tmp, false);  // warm-up, as in the end-to-end run
  const Clock::time_point start = Clock::now();
  do {
    out = trace_round(fleet, tmp, rounds.size() % 2 == 0, checks, &spans);
    rounds.resize(out.size());
    for (std::size_t i = 0; i < out.size(); ++i) rounds[i].push_back(out[i].value);
  } while (since(start) < seconds);

  std::printf("# %zu traced rounds, %zu spans in the last\n", rounds.front().size(),
              spans.size());
  if (!perfbench::write_spans(spans, spans_path)) {
    throw std::runtime_error("cannot write spans to " + spans_path);
  }
  std::printf("# spans written to %s\n", spans_path.c_str());
  for (std::size_t i = 0; i < out.size(); ++i) out[i].value = median(rounds[i]);
  return out;
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--out-dir DIR]\n");
  return 2;
}

std::optional<Args> parse_args(int argc, char** argv) {
  Args args;
  bool have_workload = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      args.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0' || value.empty()) return std::nullopt;
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(args.seconds > 0.0)) return std::nullopt;
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return std::nullopt;
      args.trace = value == "1";
    } else if (flag == "--out-dir") {
      args.out_dir = value;
    } else {
      return std::nullopt;
    }
  }
  if (argc % 2 != 1 || !have_workload) return std::nullopt;
  return args;
}

void print_result(const Checks& checks, const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::printf("  %-36s %16.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  for (const std::string& message : checks.messages) {
    std::printf("# MISMATCH %s\n", message.c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": {",
              checks.correct() ? "true" : "false",
              static_cast<long long>(checks.attempted),
              static_cast<long long>(checks.failed));
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(),
                std::isfinite(metrics[i].value) ? metrics[i].value : 0.0,
                metrics[i].unit.c_str());
  }
  std::printf("}}\n");
}

}  // namespace

int main(int argc, char** argv) {
  const std::optional<Args> args = parse_args(argc, argv);
  if (!args) return usage();
  // durable_fleet plants SLO breaches; their per-job warnings would be
  // printed on every batch.
  mlcd::util::set_log_level(mlcd::util::LogLevel::kError);
  try {
    const Fleet fleet = set_up(args->workload, args->seed);
    std::printf("# workload %s seed %llu: %zu jobs on %d lanes, trace %d\n",
                args->workload.c_str(),
                static_cast<unsigned long long>(args->seed),
                fleet.workload.jobs.size(), perfbench::kLanes, args->trace ? 1 : 0);
    fs::create_directories(args->out_dir);
    const TempDir tmp(fs::path(args->out_dir) /
                      ("tmp-" + args->workload + "-" + std::to_string(::getpid())));
    Checks checks;
    std::vector<Metric> metrics;
    if (args->trace) {
      metrics = measure_layers(
          fleet, tmp, args->seconds,
          (fs::path(args->out_dir) / ("spans-" + args->workload + ".jsonl")).string(),
          checks);
    } else {
      metrics = measure_end_to_end(fleet, *args, tmp, checks);
    }
    print_result(checks, metrics);
    return checks.correct() ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
}
