#include "service/batch_journal.hpp"

#include <algorithm>
#include <cerrno>
#include <cstdlib>
#include <utility>

#include "profiler/fidelity.hpp"
#include "profiler/profiler.hpp"
#include "util/json.hpp"

namespace mlcd::service {
namespace {

using journal::JournalError;
using journal::JournalErrorCode;

[[noreturn]] void fail(JournalErrorCode code, const std::string& message) {
  throw JournalError(code, message);
}

std::string_view phase_name(BatchJobPhase phase) {
  switch (phase) {
    case BatchJobPhase::kAdmitted:
      return "admitted";
    case BatchJobPhase::kAssigned:
      return "assigned";
    case BatchJobPhase::kFinished:
      return "finished";
  }
  return "admitted";
}

double require_number(const util::JsonValue& obj, std::string_view key) {
  if (!obj.contains(key) || !obj.at(key).is_number()) {
    fail(JournalErrorCode::kCorrupt,
         "batch log record missing numeric field '" + std::string(key) +
             "'");
  }
  return obj.at(key).as_number();
}

int require_int(const util::JsonValue& obj, std::string_view key) {
  return static_cast<int>(require_number(obj, key));
}

bool require_bool(const util::JsonValue& obj, std::string_view key) {
  if (!obj.contains(key) || !obj.at(key).is_bool()) {
    fail(JournalErrorCode::kCorrupt,
         "batch log record missing boolean field '" + std::string(key) +
             "'");
  }
  return obj.at(key).as_bool();
}

std::string require_string(const util::JsonValue& obj, std::string_view key) {
  if (!obj.contains(key) || !obj.at(key).is_string()) {
    fail(JournalErrorCode::kCorrupt,
         "batch log record missing string field '" + std::string(key) +
             "'");
  }
  return obj.at(key).as_string();
}

std::uint64_t require_u64(const util::JsonValue& obj, std::string_view key) {
  const std::string text = require_string(obj, key);
  errno = 0;
  char* end = nullptr;
  const std::uint64_t value = std::strtoull(text.c_str(), &end, 10);
  if (errno != 0 || end == text.c_str() || *end != '\0') {
    fail(JournalErrorCode::kCorrupt,
         "batch log field '" + std::string(key) + "' is not a uint64");
  }
  return value;
}

BatchManifestHeader parse_batch_header(const util::JsonValue& record) {
  BatchManifestHeader h;
  h.version = require_int(record, "version");
  if (h.version != kBatchManifestVersion) {
    fail(JournalErrorCode::kVersionMismatch,
         "batch log version " + std::to_string(h.version) +
             " is not supported (expected " +
             std::to_string(kBatchManifestVersion) + ")");
  }
  h.workload_hash = require_u64(record, "workload_hash");
  h.chaos_seed = require_u64(record, "chaos_seed");
  h.job_count = require_int(record, "job_count");
  h.capacity_nodes = require_int(record, "capacity_nodes");
  h.tenant_max_jobs = require_int(record, "tenant_max_jobs");
  return h;
}

}  // namespace

std::string batch_header_payload(const BatchManifestHeader& h) {
  journal::Composer c;
  c.field("t", "batch_header")
      .field("version", h.version)
      .field_u64("workload_hash", h.workload_hash)
      .field_u64("chaos_seed", h.chaos_seed)
      .field("job_count", h.job_count)
      .field("capacity_nodes", h.capacity_nodes)
      .field("tenant_max_jobs", h.tenant_max_jobs);
  return c.finish();
}

std::string job_record_payload(const BatchJobRecord& r) {
  journal::Composer c;
  c.field("t", "job")
      .field("phase", phase_name(r.phase))
      .field("job", r.job)
      .field("name", r.name);
  if (r.phase == BatchJobPhase::kAssigned) {
    c.open_object("header");
    journal::header_fields(c, r.header);
    c.close_object();
  }
  if (r.phase == BatchJobPhase::kFinished) {
    c.field("ok", r.ok)
        .field("outcome", r.outcome)
        .field_u64("report_digest", r.report_digest);
  }
  return c.finish();
}

// --------------------------------------------------------------------
// BatchLog
// --------------------------------------------------------------------

BatchLog::BatchLog(std::string path,
                   std::optional<journal::FramedWriter> writer,
                   std::string error)
    : path_(std::move(path)),
      writer_(std::move(writer)),
      error_(std::move(error)) {}

std::unique_ptr<BatchLog> BatchLog::create(
    const std::string& path, const BatchManifestHeader& header,
    const std::vector<std::string>& roster) {
  std::unique_ptr<BatchLog> log(new BatchLog(
      path, journal::FramedWriter::create(path, batch_header_payload(header)),
      std::string()));
  // Write-ahead: the whole fleet is logged as admitted before any probe
  // runs, so a kill during job 0 still knows the batch roster — one
  // commit for the lot.
  for (std::size_t i = 0; i < roster.size(); ++i) {
    BatchJobRecord record;
    record.phase = BatchJobPhase::kAdmitted;
    record.job = static_cast<int>(i);
    record.name = roster[i];
    log->stage(record);
  }
  log->flush();
  const std::string failure = log->error();
  if (!failure.empty()) throw JournalError(JournalErrorCode::kIo, failure);
  return log;
}

std::unique_ptr<BatchLog> BatchLog::append_to(const std::string& path,
                                              std::uint64_t valid_bytes) {
  return std::unique_ptr<BatchLog>(new BatchLog(
      path, journal::FramedWriter::append_to(path, valid_bytes),
      std::string()));
}

std::unique_ptr<BatchLog> BatchLog::failed(const std::string& path,
                                           const std::string& reason) {
  return std::unique_ptr<BatchLog>(
      new BatchLog(path, std::nullopt, reason));
}

std::optional<std::uint64_t> BatchLog::stage(const BatchJobRecord& record) {
  return stage_payload(record.job, job_record_payload(record));
}

std::optional<std::uint64_t> BatchLog::stage_probe(
    int job, const journal::ProbeRecord& record) {
  return stage_payload(job, journal::probe_payload(record, job));
}

std::optional<std::uint64_t> BatchLog::stage_degrade(
    int job, const journal::DegradeRecord& record) {
  return stage_payload(job, journal::degrade_payload(record, job));
}

std::optional<std::uint64_t> BatchLog::stage_payload(
    int job, std::string_view payload) {
  // The frame's length and CRC are computed before the lock every lane
  // shares; under it the record is only copied in.
  const journal::FrameHead head(payload);
  const std::lock_guard<std::mutex> lock(mutex_);
  if (!error_.empty()) {
    lost_jobs_.push_back(job);
    return std::nullopt;
  }
  const std::size_t offset = staged_.size();
  staged_.append(head.view()).append(payload).push_back('\n');
  // One draw per staged record, in staging order: `fail_at` indexes
  // records exactly as it indexes run-journal appends.
  if (journal::IoFaultInjector* injector = journal::io_fault_injector()) {
    if (const std::optional<journal::IoFaultKind> kind =
            injector->next_append()) {
      if (!staged_fault_.has_value()) {
        staged_fault_ =
            journal::PendingFault{*kind, offset, staged_.size() - offset};
      }
    }
  }
  staged_jobs_.push_back(job);
  return ++staged_lsn_;
}

BatchLog::Fence BatchLog::park(std::uint64_t lsn, const Waiter& waiter,
                               const std::function<void()>& on_park) {
  const std::lock_guard<std::mutex> lock(mutex_);
  if (lsn <= durable_lsn_) return Fence::kDurable;
  if (!error_.empty()) return Fence::kFailed;
  waiters_.push_back(Parked{lsn, waiter});
  if (on_park) on_park();
  return Fence::kParked;
}

bool BatchLog::commit(std::vector<Waiter>& released) {
  std::optional<journal::PendingFault> fault;
  std::uint64_t lsn = 0;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    if (in_flight_ || staged_.empty() || !error_.empty()) return false;
    in_flight_ = true;
    writing_.swap(staged_);
    writing_jobs_.swap(staged_jobs_);
    fault = staged_fault_;
    staged_fault_.reset();
    lsn = staged_lsn_;
  }
  // The disk work runs outside the lock: lanes keep staging into the
  // other buffer while this round writes.
  std::string failure;
  try {
    writer_->write_durably(writing_, fault);
  } catch (const JournalError& e) {
    failure = e.what();
  }
  const std::lock_guard<std::mutex> lock(mutex_);
  in_flight_ = false;
  if (failure.empty()) {
    durable_lsn_ = lsn;
    ++commits_;
    std::size_t kept = 0;
    for (Parked& parked : waiters_) {
      if (parked.lsn <= lsn) {
        released.push_back(parked.waiter);
        released.back().durable = true;
      } else {
        waiters_[kept++] = parked;
      }
    }
    waiters_.resize(kept);
  } else {
    // Nothing staged so far is known durable, and nothing more will be:
    // fail every waiter and every record staged behind this round.
    error_ = failure;
    lost_jobs_.insert(lost_jobs_.end(), writing_jobs_.begin(),
                      writing_jobs_.end());
    lost_jobs_.insert(lost_jobs_.end(), staged_jobs_.begin(),
                      staged_jobs_.end());
    staged_.clear();
    staged_jobs_.clear();
    staged_fault_.reset();
    for (const Parked& parked : waiters_) {
      released.push_back(parked.waiter);
      released.back().durable = false;
    }
    waiters_.clear();
  }
  writing_.clear();
  writing_jobs_.clear();
  return true;
}

void BatchLog::flush() {
  std::vector<Waiter> released;
  while (commit(released)) {
  }
}

std::string BatchLog::error() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return error_;
}

std::vector<int> BatchLog::lost_jobs() const {
  std::vector<int> jobs;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    jobs = lost_jobs_;
  }
  std::sort(jobs.begin(), jobs.end());
  jobs.erase(std::unique(jobs.begin(), jobs.end()), jobs.end());
  if (!jobs.empty() && jobs.front() < 0) jobs.erase(jobs.begin());
  return jobs;
}

std::int64_t BatchLog::commits() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return commits_;
}

std::int64_t BatchLog::records() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return static_cast<std::int64_t>(staged_lsn_);
}

void BatchLogSink::append_probe(const journal::ProbeRecord& record) {
  staged_ = log_->stage_probe(job_, record);
  if (!staged_.has_value()) refuse();
}

void BatchLogSink::append_degrade(const journal::DegradeRecord& record) {
  if (!log_->stage_degrade(job_, record).has_value()) refuse();
}

void BatchLogSink::refuse() const {
  throw JournalError(JournalErrorCode::kIo, "batch log '" + log_->path() +
                                                "' accepts no more records: " +
                                                log_->error());
}

// --------------------------------------------------------------------
// Read-back
// --------------------------------------------------------------------

namespace {

/// Parses one probe payload of the log at `path` (kCorrupt if it is not
/// a JSON object).
journal::ProbeRecord parse_probe_payload(const std::string& path,
                                         std::string_view payload) {
  util::JsonValue record;
  try {
    record = util::parse_json(payload);
  } catch (const std::invalid_argument&) {
    record = util::JsonValue();
  }
  if (!record.is_object()) {
    fail(JournalErrorCode::kCorrupt,
         "batch log '" + path + "' contains an unparsable probe record");
  }
  return journal::parse_probe(record);
}

/// The job index of a probe payload as the writer composes it — type
/// and job first — or -1 when the payload does not start that way.
int tagged_probe_job(std::string_view payload) {
  constexpr std::string_view kPrefix = R"({"t":"probe","job":)";
  if (payload.substr(0, kPrefix.size()) != kPrefix) return -1;
  int job = 0;
  std::size_t at = kPrefix.size();
  const std::size_t digits = at;
  while (at < payload.size() && payload[at] >= '0' && payload[at] <= '9' &&
         at - digits < 9) {
    job = job * 10 + (payload[at] - '0');
    ++at;
  }
  if (at == digits || at >= payload.size() || payload[at] != ',') return -1;
  return job;
}

}  // namespace

BatchManifestContents read_manifest(const std::string& path) {
  BatchManifestContents contents;
  bool have_header = false;
  const auto probe_of = [&](int job) -> BatchJobState& {
    if (job < 0 || job >= contents.header.job_count) {
      fail(JournalErrorCode::kCorrupt,
           "batch log '" + path + "' names out-of-range job index " +
               std::to_string(job));
    }
    BatchJobState& state = contents.jobs[static_cast<std::size_t>(job)];
    if (!state.assigned || state.finished) {
      fail(JournalErrorCode::kCorrupt,
           "batch log '" + path + "' holds a probe record of job " +
               std::to_string(job) + " outside its run");
    }
    return state;
  };
  const journal::FramedScan scan = journal::scan_framed_file(
      path, [&](std::string_view payload, const journal::RecordSpan& span) {
        // The bulk of a log is probe records; planning a resume needs
        // only where they are, so their payloads are parsed when the
        // job that replays them starts.
        if (have_header) {
          const int job = tagged_probe_job(payload);
          if (job >= 0) {
            probe_of(job).probe_spans.push_back(span);
            return true;
          }
        }
        util::JsonValue record;
        try {
          record = util::parse_json(payload);
        } catch (const std::invalid_argument&) {
          // The frame's CRC was valid, so this is not a torn write — the
          // writer stored garbage. Refuse.
          fail(JournalErrorCode::kCorrupt,
               "batch log '" + path + "' contains an unparsable record");
        }
        if (!record.is_object() || !record.contains("t") ||
            !record.at("t").is_string()) {
          fail(JournalErrorCode::kCorrupt,
               "batch log '" + path + "' contains an untyped record");
        }
        const std::string& type = record.at("t").as_string();
        if (!have_header) {
          if (type != "batch_header") {
            fail(JournalErrorCode::kCorrupt,
                 "batch log '" + path +
                     "' does not begin with a batch_header record");
          }
          contents.header = parse_batch_header(record);
          if (contents.header.job_count < 0) {
            fail(JournalErrorCode::kCorrupt,
                 "batch log '" + path + "' declares a negative job count");
          }
          contents.jobs.assign(
              static_cast<std::size_t>(contents.header.job_count),
              BatchJobState{});
          have_header = true;
          return true;
        }
        if (type == "batch_header") {
          fail(JournalErrorCode::kCorrupt,
               "batch log '" + path + "' contains a second header record");
        }
        if (type != "job" && type != "probe" && type != "degrade") {
          fail(JournalErrorCode::kCorrupt,
               "batch log '" + path + "' contains unknown record type '" +
                   type + "'");
        }
        const int job = require_int(record, "job");
        if (job < 0 || job >= contents.header.job_count) {
          fail(JournalErrorCode::kCorrupt,
               "batch log '" + path + "' names out-of-range job index " +
                   std::to_string(job));
        }
        if (type == "probe") {
          journal::parse_probe(record);  // an untagged layout: check it now
          probe_of(job).probe_spans.push_back(span);
          return true;
        }
        BatchJobState& state = contents.jobs[static_cast<std::size_t>(job)];
        if (type == "degrade") {
          if (!state.assigned || state.finished) {
            fail(JournalErrorCode::kCorrupt,
                 "batch log '" + path + "' holds a degrade record of job " +
                     std::to_string(job) + " outside its run");
          }
          journal::parse_degrade(record);  // validated, never replayed
          return true;
        }
        const std::string phase = require_string(record, "phase");
        if (phase == "admitted") {
          state.admitted = true;
        } else if (phase == "assigned") {
          // A fresh (re)start: records of an earlier run of this job —
          // one that failed, or one whose log held no probe — are void.
          if (!record.contains("header") ||
              !record.at("header").is_object()) {
            fail(JournalErrorCode::kCorrupt,
                 "batch log '" + path + "' has an assigned record without "
                 "its journal header");
          }
          const bool admitted = state.admitted;
          state = BatchJobState{};
          state.admitted = admitted;
          state.assigned = true;
          state.header = journal::parse_header(record.at("header"));
        } else if (phase == "finished") {
          state.admitted = true;
          state.assigned = true;
          state.finished = true;
          state.ok = require_bool(record, "ok");
          state.outcome = require_string(record, "outcome");
          state.report_digest = require_u64(record, "report_digest");
        } else {
          fail(JournalErrorCode::kCorrupt,
               "batch log '" + path + "' contains unknown job phase '" +
                   phase + "'");
        }
        return true;
      });
  if (!have_header) {
    fail(JournalErrorCode::kCorrupt,
         "batch log '" + path + "' has no readable header record");
  }
  contents.valid_bytes = scan.valid_bytes;
  contents.truncated_tail = scan.truncated_tail;
  return contents;
}

std::vector<journal::ProbeRecord> read_probe_records(
    const std::string& path, const std::vector<journal::RecordSpan>& spans) {
  std::vector<journal::ProbeRecord> probes;
  probes.reserve(spans.size());
  journal::read_framed_records(path, spans, [&](std::string_view payload) {
    probes.push_back(parse_probe_payload(path, payload));
  });
  return probes;
}

std::uint64_t hash_job(const JobSpec& job) {
  const system::JobRequest& r = job.request;
  journal::HashStream h;
  h.mix(job.name)
      .mix(job.tenant)
      .mix(r.model)
      .mix(r.platform)
      .mix(r.topology.has_value())
      .mix(r.topology ? static_cast<int>(*r.topology) : 0)
      .mix(r.requirements.deadline_hours.has_value())
      .mix(r.requirements.deadline_hours.value_or(0.0))
      .mix(r.requirements.budget_dollars.has_value())
      .mix(r.requirements.budget_dollars.value_or(0.0))
      .mix(r.max_nodes)
      .mix(static_cast<std::uint64_t>(r.instance_types.size()));
  for (const std::string& type : r.instance_types) h.mix(type);
  h.mix(r.use_spot)
      .mix(r.search_method)
      .mix(r.seed)
      .mix(profiler::hash_options(r.profiler_options))
      .mix(r.gp_refit_every)
      .mix(job.slo.deadline_hours)
      .mix(job.slo.budget_dollars)
      .mix(job.slo.max_probes);
  return h.digest();
}

BatchManifestHeader make_manifest_header(const Workload& workload,
                                         int capacity_nodes,
                                         int tenant_max_jobs) {
  BatchManifestHeader header;
  journal::HashStream h;
  h.mix(static_cast<std::uint64_t>(workload.jobs.size()));
  for (const JobSpec& job : workload.jobs) h.mix(hash_job(job));
  header.workload_hash = h.digest();
  header.chaos_seed =
      workload.chaos.enabled() ? workload.chaos.seed : 0;
  header.job_count = static_cast<int>(workload.jobs.size());
  header.capacity_nodes = capacity_nodes;
  header.tenant_max_jobs = tenant_max_jobs;
  return header;
}

std::uint64_t digest_run_report(const system::RunReport& report) {
  const search::SearchResult& r = report.result;
  journal::HashStream h;
  h.mix(r.method)
      .mix(r.found)
      .mix(static_cast<std::uint64_t>(r.best.type_index))
      .mix(r.best.nodes)
      .mix(r.best_description)
      .mix(r.best_measured_speed)
      .mix(r.best_true_speed)
      .mix(r.profile_hours)
      .mix(r.profile_cost)
      .mix(r.training_hours)
      .mix(r.training_cost)
      .mix(r.degraded_iterations)
      .mix(static_cast<std::uint64_t>(r.trace.size()));
  // The per-step `replayed` flag and the result-level replayed_probes /
  // resumed_from bookkeeping are deliberately excluded: they are the only
  // fields a bit-identical replay legitimately changes.
  for (const search::ProbeStep& step : r.trace) {
    h.mix(static_cast<std::uint64_t>(step.deployment.type_index))
        .mix(step.deployment.nodes)
        .mix(step.failed)
        .mix(step.feasible)
        .mix(step.measured_speed)
        .mix(step.true_speed)
        .mix(step.profile_hours)
        .mix(step.profile_cost)
        .mix(step.cum_profile_hours)
        .mix(step.cum_profile_cost)
        .mix(step.acquisition)
        .mix(step.reason)
        .mix(step.attempts)
        .mix(static_cast<int>(step.fault))
        .mix(step.backoff_hours)
        .mix(static_cast<std::uint64_t>(step.attempt_log.size()))
        .mix(step.fidelity.sample_fraction)
        .mix(step.fidelity.iteration_tier);
    for (const cloud::AttemptRecord& attempt : step.attempt_log) {
      h.mix(static_cast<int>(attempt.fault))
          .mix(attempt.hours)
          .mix(attempt.cost)
          .mix(attempt.backoff_hours);
    }
  }
  return h.digest();
}

}  // namespace mlcd::service
