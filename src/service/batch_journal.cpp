#include "service/batch_journal.hpp"

#include <cinttypes>
#include <cstdio>
#include <sstream>
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

std::string format_u64(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%" PRIu64, v);
  return buf;
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

std::string compose_header(const BatchManifestHeader& h) {
  std::ostringstream out;
  out << "{\"t\":\"batch_header\",\"version\":" << h.version
      << ",\"workload_hash\":\"" << format_u64(h.workload_hash)
      << "\",\"chaos_seed\":\"" << format_u64(h.chaos_seed)
      << "\",\"job_count\":" << h.job_count
      << ",\"capacity_nodes\":" << h.capacity_nodes
      << ",\"tenant_max_jobs\":" << h.tenant_max_jobs << "}";
  return out.str();
}

std::string compose_record(const BatchJobRecord& r) {
  std::ostringstream out;
  out << "{\"t\":\"job\",\"phase\":\"" << phase_name(r.phase)
      << "\",\"job\":" << r.job << ",\"name\":\""
      << util::JsonWriter::escape(r.name) << "\"";
  if (r.phase != BatchJobPhase::kAdmitted) {
    out << ",\"journal_file\":\"" << util::JsonWriter::escape(r.journal_file)
        << "\"";
  }
  if (r.phase == BatchJobPhase::kFinished) {
    out << ",\"ok\":" << (r.ok ? "true" : "false") << ",\"outcome\":\""
        << util::JsonWriter::escape(r.outcome) << "\",\"report_digest\":\""
        << format_u64(r.report_digest) << "\"";
  }
  out << "}";
  return out.str();
}

double require_number(const util::JsonValue& obj, std::string_view key) {
  if (!obj.contains(key) || !obj.at(key).is_number()) {
    fail(JournalErrorCode::kCorrupt,
         "batch manifest record missing numeric field '" + std::string(key) +
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
         "batch manifest record missing boolean field '" + std::string(key) +
             "'");
  }
  return obj.at(key).as_bool();
}

std::string require_string(const util::JsonValue& obj, std::string_view key) {
  if (!obj.contains(key) || !obj.at(key).is_string()) {
    fail(JournalErrorCode::kCorrupt,
         "batch manifest record missing string field '" + std::string(key) +
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
    fail(JournalErrorCode::kCorrupt, "batch manifest field '" +
                                         std::string(key) +
                                         "' is not a uint64");
  }
  return value;
}

}  // namespace

BatchJournal::BatchJournal(journal::FramedWriter writer)
    : writer_(std::move(writer)) {}

std::unique_ptr<BatchJournal> BatchJournal::create(
    const std::string& path, const BatchManifestHeader& header) {
  return std::unique_ptr<BatchJournal>(new BatchJournal(
      journal::FramedWriter::create(path, compose_header(header))));
}

std::unique_ptr<BatchJournal> BatchJournal::append_to(
    const std::string& path, std::uint64_t valid_bytes) {
  return std::unique_ptr<BatchJournal>(
      new BatchJournal(journal::FramedWriter::append_to(path, valid_bytes)));
}

void BatchJournal::append(const BatchJobRecord& record) {
  const std::string payload = compose_record(record);
  const std::lock_guard<std::mutex> lock(mutex_);
  writer_.append(payload);
}

BatchManifestContents read_manifest(const std::string& path) {
  const journal::FramedFile framed = journal::read_framed_file(path);

  BatchManifestContents contents;
  contents.valid_bytes = framed.valid_bytes;
  contents.truncated_tail = framed.truncated_tail;

  bool have_header = false;
  for (const std::string& payload : framed.payloads) {
    util::JsonValue record;
    try {
      record = util::parse_json(payload);
    } catch (const std::invalid_argument&) {
      // The frame's CRC was valid, so this is not a torn write — the
      // writer stored garbage. Refuse.
      fail(JournalErrorCode::kCorrupt,
           "batch manifest '" + path + "' contains an unparsable record");
    }
    if (!record.is_object() || !record.contains("t") ||
        !record.at("t").is_string()) {
      fail(JournalErrorCode::kCorrupt,
           "batch manifest '" + path + "' contains an untyped record");
    }
    const std::string type = record.at("t").as_string();

    if (!have_header) {
      if (type != "batch_header") {
        fail(JournalErrorCode::kCorrupt,
             "batch manifest '" + path +
                 "' does not begin with a batch_header record");
      }
      BatchManifestHeader& h = contents.header;
      h.version = require_int(record, "version");
      if (h.version < 1 || h.version > kBatchManifestVersion) {
        fail(JournalErrorCode::kVersionMismatch,
             "batch manifest version " + std::to_string(h.version) +
                 " is not supported (expected 1.." +
                 std::to_string(kBatchManifestVersion) + ")");
      }
      h.workload_hash = require_u64(record, "workload_hash");
      h.chaos_seed = require_u64(record, "chaos_seed");
      h.job_count = require_int(record, "job_count");
      h.capacity_nodes = require_int(record, "capacity_nodes");
      h.tenant_max_jobs = require_int(record, "tenant_max_jobs");
      if (h.job_count < 0) {
        fail(JournalErrorCode::kCorrupt,
             "batch manifest '" + path + "' declares a negative job count");
      }
      contents.jobs.assign(static_cast<std::size_t>(h.job_count),
                           BatchJobState{});
      have_header = true;
      continue;
    }

    if (type == "batch_header") {
      fail(JournalErrorCode::kCorrupt,
           "batch manifest '" + path + "' contains a second header record");
    }
    if (type != "job") {
      fail(JournalErrorCode::kCorrupt,
           "batch manifest '" + path + "' contains unknown record type '" +
               type + "'");
    }
    const int job = require_int(record, "job");
    if (job < 0 || job >= contents.header.job_count) {
      fail(JournalErrorCode::kCorrupt,
           "batch manifest '" + path + "' names out-of-range job index " +
               std::to_string(job));
    }
    BatchJobState& state = contents.jobs[static_cast<std::size_t>(job)];
    const std::string phase = require_string(record, "phase");
    if (phase == "admitted") {
      state.admitted = true;
    } else if (phase == "assigned") {
      state.admitted = true;
      state.assigned = true;
      state.journal_file = require_string(record, "journal_file");
    } else if (phase == "finished") {
      state.admitted = true;
      state.assigned = true;
      state.finished = true;
      state.journal_file = require_string(record, "journal_file");
      state.ok = require_bool(record, "ok");
      state.outcome = require_string(record, "outcome");
      state.report_digest = require_u64(record, "report_digest");
    } else {
      fail(JournalErrorCode::kCorrupt,
           "batch manifest '" + path + "' contains unknown job phase '" +
               phase + "'");
    }
  }
  if (!have_header) {
    fail(JournalErrorCode::kCorrupt,
         "batch manifest '" + path + "' has no readable header record");
  }
  return contents;
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
