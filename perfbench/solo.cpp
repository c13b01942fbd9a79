#include "solo.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <exception>
#include <optional>
#include <stdexcept>
#include <thread>

#include "journal/journal.hpp"
#include "search/probe_driver.hpp"
#include "service/batch_journal.hpp"

namespace perfbench {
namespace {

/// A step's digest with the fields service::digest_run_report mixes for
/// it, attempt log included, which leaves out the `replayed` flag.
std::uint64_t step_digest(const mlcd::search::ProbeStep& s) {
  mlcd::journal::HashStream h;
  h.mix(static_cast<std::uint64_t>(s.deployment.type_index))
      .mix(s.deployment.nodes)
      .mix(s.failed)
      .mix(s.feasible)
      .mix(s.measured_speed)
      .mix(s.true_speed)
      .mix(s.profile_hours)
      .mix(s.profile_cost)
      .mix(s.cum_profile_hours)
      .mix(s.cum_profile_cost)
      .mix(s.acquisition)
      .mix(s.reason)
      .mix(s.attempts)
      .mix(static_cast<int>(s.fault))
      .mix(s.backoff_hours)
      .mix(static_cast<std::uint64_t>(s.attempt_log.size()))
      .mix(s.fidelity.sample_fraction)
      .mix(s.fidelity.iteration_tier);
  for (const mlcd::cloud::AttemptRecord& attempt : s.attempt_log) {
    h.mix(static_cast<int>(attempt.fault))
        .mix(attempt.hours)
        .mix(attempt.cost)
        .mix(attempt.backoff_hours);
  }
  return h.digest();
}

/// Opens a span when tracing, and closes it when the scope ends.
class Scope {
 public:
  Scope(SpanLog* log, const char* name, std::int32_t job, std::int32_t parent)
      : log_(log), id_(log != nullptr ? log->open(name, job, parent) : -1) {}
  ~Scope() {
    if (log_ != nullptr) log_->close(id_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;
  std::int32_t id() const noexcept { return id_; }

 private:
  SpanLog* log_;
  std::int32_t id_;
};

JobPrint drive_one(const mlcd::system::Mlcd& mlcd,
                   mlcd::system::JobRequest request, std::int32_t job,
                   SpanLog* log, const std::string& journal_dir) {
  if (!journal_dir.empty()) {
    request.journal_path = journal_dir + "/solo-" + std::to_string(job) + ".mlcdj";
  }
  const Scope root(log, "job", job, -1);
  JobPrint print;
  std::optional<mlcd::system::PrepareResult> prepared;
  {
    const Scope span(log, "mlcd.prepare", job, root.id());
    prepared.emplace(mlcd.prepare(request));
  }
  if (!prepared->ok()) {
    print.error = prepared->error().message;
    return print;
  }
  mlcd::system::PreparedJob& prepared_job = prepared->job();
  mlcd::search::SearchSession& session = prepared_job.session();
  for (;;) {
    const mlcd::search::ProbeRequest* pending = nullptr;
    {
      const Scope span(log, "search.propose", job, root.id());
      pending = session.next();
    }
    if (pending == nullptr) break;
    const Scope span(log, "probe.step", job, root.id());
    mlcd::search::ProbeDriver::step(session);
  }
  std::optional<mlcd::system::DeployResult> result;
  {
    const Scope span(log, "mlcd.finish", job, root.id());
    result.emplace(prepared_job.finish());
  }
  if (!result->ok()) {
    print.error = result->error().message;
    return print;
  }
  return fingerprint(result->report());
}

}  // namespace

JobPrint fingerprint(const mlcd::system::RunReport& report) {
  JobPrint print;
  print.ok = true;
  print.steps.reserve(report.result.trace.size());
  for (const mlcd::search::ProbeStep& step : report.result.trace) {
    print.steps.push_back(step_digest(step));
  }
  print.report = mlcd::service::digest_run_report(report);
  return print;
}

SoloRun drive_solo(const mlcd::system::Mlcd& mlcd,
                   const mlcd::service::Workload& workload, int threads,
                   std::vector<SpanLog>* logs, const std::string& journal_dir) {
  if (logs != nullptr && static_cast<int>(logs->size()) != threads) {
    throw std::invalid_argument("drive_solo: need one span log per thread");
  }
  SoloRun run;
  run.jobs.resize(workload.jobs.size());
  std::atomic<std::size_t> next{0};
  std::vector<std::exception_ptr> errors(static_cast<std::size_t>(threads));
  const auto worker = [&](int t) {
    try {
      SpanLog* log = logs != nullptr ? &(*logs)[static_cast<std::size_t>(t)] : nullptr;
      for (std::size_t i = next.fetch_add(1); i < workload.jobs.size();
           i = next.fetch_add(1)) {
        run.jobs[i] = drive_one(mlcd, workload.jobs[i].request,
                                static_cast<std::int32_t>(i), log, journal_dir);
      }
    } catch (...) {
      errors[static_cast<std::size_t>(t)] = std::current_exception();
    }
  };
  const auto start = std::chrono::steady_clock::now();
  {
    std::vector<std::jthread> pool;
    for (int t = 1; t < threads; ++t) pool.emplace_back(worker, t);
    worker(0);
  }  // joins
  run.wall_seconds = std::chrono::duration<double>(
                         std::chrono::steady_clock::now() - start)
                         .count();
  for (const std::exception_ptr& e : errors) {
    if (e) std::rethrow_exception(e);
  }
  return run;
}

std::string compare(const mlcd::service::JobOutcome& got, const JobPrint& want) {
  if (!got.ok) return got.name + ": scheduled run failed: " + got.error_message;
  if (!want.ok) return got.name + ": solo run failed: " + want.error;
  const JobPrint print = fingerprint(got.report);
  if (got.slo != mlcd::service::SloBreach::kNone) {
    const bool prefix =
        print.steps.size() <= want.steps.size() &&
        std::equal(print.steps.begin(), print.steps.end(), want.steps.begin());
    return prefix ? std::string()
                  : got.name + ": SLO-capped trace is not a prefix of the solo trace";
  }
  if (print.report != want.report) {
    return got.name + ": deployment or probe trace differs from the solo run";
  }
  return {};
}

}  // namespace perfbench
