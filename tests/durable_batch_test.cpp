// Durable batch service tests: the group-committed batch log
// (round-trip, torn tail, typed corruption refusals), the workload /
// report fingerprints replay verification rests on, storage-fault
// injection under both --journal-on-error policies (run journals and
// the batch log's commit fence alike), in-process batch resume across
// every log state a kill can leave behind, capacity-pool revocation
// edges, and the process-kill harness: SIGKILL the real `mlcd batch`
// binary at a sweep of points across the batch, resume, and assert the
// batch comes back bit-identical. See docs/crash-safety.md.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "journal/journal.hpp"
#include "mlcd/mlcd.hpp"
#include "service/batch_journal.hpp"
#include "service/batch_report.hpp"
#include "service/scheduler.hpp"
#include "service/workload.hpp"
#include "util/json.hpp"

#if defined(__unix__) || defined(__APPLE__)
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>
#define MLCD_HAVE_POSIX_SPAWN 1
#endif

namespace mlcd::service {
namespace {

std::string temp_path(const std::string& name) {
  return (std::filesystem::path(testing::TempDir()) / name).string();
}

/// A fresh, empty directory under the test temp root.
std::string fresh_dir(const std::string& name) {
  const std::string dir = temp_path(name);
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

void write_file(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(out.good()) << path;
}

/// Byte offsets of every record boundary (just after each '\n'),
/// including 0 and the file size.
std::vector<std::size_t> record_boundaries(const std::string& bytes) {
  std::vector<std::size_t> offsets = {0};
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    if (bytes[i] == '\n') offsets.push_back(i + 1);
  }
  return offsets;
}

/// Installs a storage-fault injector for the lifetime of the scope.
class FaultScope {
 public:
  explicit FaultScope(const journal::IoFaultInjector::Options& options)
      : injector_(options) {
    journal::set_io_fault_injector(&injector_);
  }
  ~FaultScope() { journal::set_io_fault_injector(nullptr); }
  FaultScope(const FaultScope&) = delete;
  FaultScope& operator=(const FaultScope&) = delete;

 private:
  journal::IoFaultInjector injector_;
};

journal::IoFaultInjector::Options fail_at(long long index,
                                          journal::IoFaultKind kind =
                                              journal::IoFaultKind::kFsyncFail) {
  journal::IoFaultInjector::Options options;
  options.fail_at = index;
  options.kind = kind;
  return options;
}

/// The two-job fleet every durable test runs: small, fast, and with two
/// different methods so the jobs' logged probes differ.
Workload durable_fleet() {
  return parse_workload(R"({
    "jobs": [
      {"name": "a", "tenant": "t1", "model": "resnet", "seed": 7,
       "max_nodes": 8},
      {"name": "b", "tenant": "t2", "model": "alexnet", "seed": 9,
       "max_nodes": 8, "method": "random"}
    ]
  })");
}

/// `count` jobs with distinct seeds, alternating methods and tenants.
Workload wide_fleet(int count) {
  Workload workload;
  const Workload base = durable_fleet();
  for (int i = 0; i < count; ++i) {
    JobSpec spec = base.jobs[static_cast<std::size_t>(i % 2)];
    spec.name = "j" + std::to_string(i);
    spec.tenant = "t" + std::to_string(i % 3);
    spec.request.seed = 100 + static_cast<std::uint64_t>(i);
    workload.jobs.push_back(std::move(spec));
  }
  return workload;
}

SchedulerOptions durable_options(const std::string& dir) {
  SchedulerOptions options;
  options.threads = 1;  // deterministic global staging order
  options.journal_dir = dir;
  return options;
}

/// Stages `records` into a fresh log at `path` (roster: `roster`) and
/// commits them.
void write_log(const std::string& path, const BatchManifestHeader& header,
               const std::vector<std::string>& roster,
               const std::vector<BatchJobRecord>& records = {}) {
  std::unique_ptr<BatchLog> log = BatchLog::create(path, header, roster);
  for (const BatchJobRecord& record : records) log->stage(record);
  log->flush();
}

/// A job's journal header as a resume would compare it.
journal::JournalHeader sample_job_header() {
  journal::JournalHeader header;
  header.method = "heterbo";
  header.model = "resnet";
  header.platform = "tensorflow";
  header.seed = 7;
  header.max_nodes = 8;
  header.catalog_hash = 0x1234;
  return header;
}

/// The probe records the log at `path` holds for job `job`, read back
/// the way a resume reads them.
std::vector<journal::ProbeRecord> logged_probes(const std::string& path,
                                                std::size_t job) {
  return read_probe_records(path, read_manifest(path).jobs[job].probe_spans);
}

BatchJobRecord assigned_record(int job, const std::string& name) {
  BatchJobRecord record;
  record.phase = BatchJobPhase::kAssigned;
  record.job = job;
  record.name = name;
  record.header = sample_job_header();
  return record;
}

journal::ProbeRecord sample_probe(int nodes) {
  journal::ProbeRecord probe;
  probe.type_index = 3;
  probe.nodes = nodes;
  probe.feasible = true;
  probe.measured_speed = 0.1 + 0.2;
  probe.cum_profile_cost = 1.0 / 3.0;
  probe.reason = "tei \"quoted\"";
  probe.attempt_log = {{1, 0.05, 0.25, 0.031}};
  return probe;
}

BatchManifestHeader sample_batch_header() {
  BatchManifestHeader header;
  header.workload_hash = 0xDEADBEEFCAFEF00DULL;
  header.chaos_seed = 11;
  header.job_count = 2;
  header.capacity_nodes = 30;
  header.tenant_max_jobs = 2;
  return header;
}

// --------------------------------------------------------------- manifest

TEST(BatchManifest, RoundTripsJobLifecycle) {
  const std::string path = temp_path("roundtrip.mlcdb");
  const BatchManifestHeader header = sample_batch_header();
  {
    std::unique_ptr<BatchLog> log = BatchLog::create(path, header, {"a", "b"});
    log->stage(assigned_record(0, "a"));
    log->stage_probe(0, sample_probe(2));
    log->stage_degrade(0, {1, "refit failed"});
    log->stage_probe(0, sample_probe(5));

    BatchJobRecord finished;
    finished.phase = BatchJobPhase::kFinished;
    finished.job = 0;
    finished.name = "a";
    finished.ok = true;
    finished.outcome = "ok";
    finished.report_digest = 0xFFFFFFFFFFFFFFFFULL;
    log->stage(finished);
    log->flush();
    EXPECT_EQ(log->records(), 7);
    EXPECT_TRUE(log->error().empty());
  }

  const BatchManifestContents back = read_manifest(path);
  EXPECT_FALSE(back.truncated_tail);
  EXPECT_EQ(back.valid_bytes, read_file(path).size());
  EXPECT_EQ(back.header.version, kBatchManifestVersion);
  EXPECT_EQ(back.header.workload_hash, header.workload_hash);
  EXPECT_EQ(back.header.chaos_seed, header.chaos_seed);
  EXPECT_EQ(back.header.job_count, 2);
  EXPECT_EQ(back.header.capacity_nodes, 30);
  EXPECT_EQ(back.header.tenant_max_jobs, 2);

  ASSERT_EQ(back.jobs.size(), 2u);
  EXPECT_TRUE(back.jobs[0].admitted);
  EXPECT_TRUE(back.jobs[0].assigned);
  EXPECT_TRUE(back.jobs[0].finished);
  EXPECT_TRUE(back.jobs[0].ok);
  EXPECT_EQ(back.jobs[0].outcome, "ok");
  EXPECT_EQ(back.jobs[0].report_digest, 0xFFFFFFFFFFFFFFFFULL);
  // The assigned record carries the job's journal header, and the
  // job-tagged probe records come back bit-exactly, in order.
  EXPECT_TRUE(journal::header_diff(back.jobs[0].header, sample_job_header())
                  .empty());
  const std::vector<journal::ProbeRecord> probes = logged_probes(path, 0);
  ASSERT_EQ(probes.size(), 2u);
  EXPECT_EQ(probes[0].nodes, 2);
  EXPECT_EQ(probes[1].nodes, 5);
  EXPECT_EQ(probes[1].measured_speed, 0.1 + 0.2);
  EXPECT_EQ(probes[1].cum_profile_cost, 1.0 / 3.0);
  EXPECT_EQ(probes[1].reason, "tei \"quoted\"");
  ASSERT_EQ(probes[1].attempt_log.size(), 1u);
  EXPECT_EQ(probes[1].attempt_log[0].backoff_hours, 0.031);
  EXPECT_TRUE(back.jobs[1].admitted);
  EXPECT_FALSE(back.jobs[1].assigned);
  EXPECT_FALSE(back.jobs[1].finished);
  EXPECT_TRUE(back.jobs[1].probe_spans.empty());
}

// A second assigned record is a fresh restart of the job: the probes of
// its earlier run are void.
TEST(BatchManifest, ReassignedJobStartsItsProbesAfresh) {
  const std::string path = temp_path("reassigned.mlcdb");
  {
    std::unique_ptr<BatchLog> log =
        BatchLog::create(path, sample_batch_header(), {"a", "b"});
    log->stage(assigned_record(0, "a"));
    log->stage_probe(0, sample_probe(2));
    log->stage(assigned_record(0, "a"));
    log->stage_probe(0, sample_probe(4));
    log->flush();
  }
  EXPECT_TRUE(read_manifest(path).jobs[0].admitted);
  const std::vector<journal::ProbeRecord> probes = logged_probes(path, 0);
  ASSERT_EQ(probes.size(), 1u);
  EXPECT_EQ(probes[0].nodes, 4);
}

TEST(BatchManifest, TornTailIsDroppedNotFatal) {
  const std::string path = temp_path("torn.mlcdb");
  {
    BatchJobRecord finished;
    finished.phase = BatchJobPhase::kFinished;
    finished.ok = true;
    finished.outcome = "ok";
    write_log(path, sample_batch_header(), {},
              {assigned_record(0, "a"), finished});
  }
  const std::string bytes = read_file(path);
  const std::vector<std::size_t> offsets = record_boundaries(bytes);
  ASSERT_EQ(offsets.size(), 4u);  // header + 2 records + EOF

  // Cut mid-way through the finished record: the kill landed mid-append.
  const std::size_t cut = offsets[2] + (offsets[3] - offsets[2]) / 2;
  write_file(path, bytes.substr(0, cut));
  const BatchManifestContents back = read_manifest(path);
  EXPECT_TRUE(back.truncated_tail);
  EXPECT_EQ(back.valid_bytes, offsets[2]);
  EXPECT_TRUE(back.jobs[0].assigned);
  EXPECT_FALSE(back.jobs[0].finished);  // the torn record never happened
}

TEST(BatchManifest, MidFileCorruptionRefusedTyped) {
  const std::string path = temp_path("corrupt.mlcdb");
  write_log(path, sample_batch_header(), {},
            {assigned_record(0, "a"), assigned_record(1, "b")});
  std::string bytes = read_file(path);
  const std::vector<std::size_t> offsets = record_boundaries(bytes);
  bytes[offsets[1] + 20] ^= 0x20;  // flip a byte before the tail
  write_file(path, bytes);
  try {
    read_manifest(path);
    FAIL() << "corrupt log was accepted";
  } catch (const journal::JournalError& e) {
    EXPECT_EQ(e.code(), journal::JournalErrorCode::kCorrupt);
  }
}

TEST(BatchManifest, ValidFrameWithGarbagePayloadRefusedTyped) {
  const std::string path = temp_path("garbage.mlcdb");
  write_log(path, sample_batch_header(), {"a", "b"});
  // A correctly-framed record whose payload is not a log record is not
  // a torn write — the writer stored garbage. Refuse, typed. A probe of
  // a job the log never assigned is out of place the same way.
  for (const std::string payload :
       {"not json at all", "[1,2,3]", R"({"t":"alien"})",
        R"({"t":"job","phase":"warped","job":0})",
        R"({"t":"job","phase":"assigned","job":0,"name":"a"})",
        R"({"t":"probe","job":1,"type_index":0})"}) {
    const std::string base = read_file(path);
    write_file(path, base + journal::frame_record(payload));
    try {
      read_manifest(path);
      FAIL() << "accepted garbage payload: " << payload;
    } catch (const journal::JournalError& e) {
      EXPECT_EQ(e.code(), journal::JournalErrorCode::kCorrupt) << payload;
    }
    write_file(path, base);
  }
}

TEST(BatchManifest, UnsupportedVersionRefusedTyped) {
  const std::string path = temp_path("version.mlcdb");
  // A future version, and version 1 — the manifest that sat beside one
  // run journal per job, which this reader no longer plans from.
  for (const int version : {kBatchManifestVersion + 1, 1}) {
    BatchManifestHeader header = sample_batch_header();
    header.version = version;
    write_log(path, header, {});
    try {
      read_manifest(path);
      FAIL() << "log version " << version << " was accepted";
    } catch (const journal::JournalError& e) {
      EXPECT_EQ(e.code(), journal::JournalErrorCode::kVersionMismatch);
    }
  }
}

TEST(BatchManifest, OutOfRangeJobIndexRefusedTyped) {
  const std::string path = temp_path("range.mlcdb");
  BatchJobRecord record;
  record.job = 2;  // header declares job_count = 2 -> valid are 0, 1
  write_log(path, sample_batch_header(), {}, {record});
  try {
    read_manifest(path);
    FAIL() << "out-of-range job index was accepted";
  } catch (const journal::JournalError& e) {
    EXPECT_EQ(e.code(), journal::JournalErrorCode::kCorrupt);
  }
}

TEST(BatchManifest, SecondHeaderRefusedTyped) {
  const std::string path = temp_path("twohead.mlcdb");
  write_log(path, sample_batch_header(), {});
  const std::string bytes = read_file(path);
  write_file(path, bytes + bytes);  // duplicate the header record
  try {
    read_manifest(path);
    FAIL() << "second header was accepted";
  } catch (const journal::JournalError& e) {
    EXPECT_EQ(e.code(), journal::JournalErrorCode::kCorrupt);
  }
}

TEST(BatchManifest, HeaderlessOrEmptyFileRefusedTyped) {
  const std::string path = temp_path("headless.mlcdb");
  write_file(path, "");
  EXPECT_THROW(read_manifest(path), journal::JournalError);
  // A job record where the header should be.
  write_log(path, sample_batch_header(), {"a"});
  const std::string bytes = read_file(path);
  const std::vector<std::size_t> offsets = record_boundaries(bytes);
  write_file(path, bytes.substr(offsets[1]));  // strip the header line
  try {
    read_manifest(path);
    FAIL() << "headerless log was accepted";
  } catch (const journal::JournalError& e) {
    EXPECT_EQ(e.code(), journal::JournalErrorCode::kCorrupt);
  }
}

// ----------------------------------------------------------- fingerprints

TEST(BatchFingerprint, HashJobIgnoresTraceNeutralKnobs) {
  Workload workload = durable_fleet();
  const std::uint64_t base = hash_job(workload.jobs[0]);

  // Trace-neutral knobs: a resume may change them freely.
  workload.jobs[0].request.threads = 7;
  workload.jobs[0].request.journal_path = "elsewhere.mlcdj";
  EXPECT_EQ(hash_job(workload.jobs[0]), base);

  // Everything that shapes the probe trace or admission must bind.
  Workload seed = durable_fleet();
  seed.jobs[0].request.seed = 8;
  EXPECT_NE(hash_job(seed.jobs[0]), base);
  Workload model = durable_fleet();
  model.jobs[0].request.model = "bert";
  EXPECT_NE(hash_job(model.jobs[0]), base);
  Workload slo = durable_fleet();
  slo.jobs[0].slo.max_probes = 5;
  EXPECT_NE(hash_job(slo.jobs[0]), base);
  Workload tenant = durable_fleet();
  tenant.jobs[0].tenant = "t9";
  EXPECT_NE(hash_job(tenant.jobs[0]), base);
}

TEST(BatchFingerprint, HeaderBindsWorkloadAndServiceConfig) {
  const Workload workload = durable_fleet();
  const BatchManifestHeader base = make_manifest_header(workload, 30, 2);
  EXPECT_EQ(base.job_count, 2);

  // Different capacity/quota or job order describe a different batch.
  EXPECT_NE(make_manifest_header(workload, 10, 2).capacity_nodes,
            base.capacity_nodes);
  Workload swapped = workload;
  std::swap(swapped.jobs[0], swapped.jobs[1]);
  EXPECT_NE(make_manifest_header(swapped, 30, 2).workload_hash,
            base.workload_hash);
  Workload chaotic = workload;
  chaotic.chaos.seed = 99;
  chaotic.chaos.probe_loss_rate = 0.01;
  EXPECT_NE(make_manifest_header(chaotic, 30, 2).chaos_seed,
            base.chaos_seed);
}

TEST(BatchFingerprint, ReportDigestIsResumeInvariant) {
  const system::Mlcd mlcd;
  const std::string path = temp_path("digest.mlcdj");
  system::JobRequest request = durable_fleet().jobs[0].request;
  request.journal_path = path;
  const system::RunReport original = mlcd.deploy(request).report();

  // Replaying the finished journal reconstructs the report probe-free;
  // only the resume bookkeeping differs, which the digest excludes.
  system::JobRequest resume = durable_fleet().jobs[0].request;
  resume.resume_path = path;
  const system::RunReport replayed = mlcd.deploy(resume).report();
  EXPECT_EQ(replayed.result.replayed_probes,
            static_cast<int>(replayed.result.trace.size()));
  EXPECT_EQ(digest_run_report(replayed), digest_run_report(original));

  // A genuinely different run hashes differently.
  system::JobRequest other = durable_fleet().jobs[0].request;
  other.seed = 8;
  const system::RunReport different = mlcd.deploy(other).report();
  EXPECT_NE(digest_run_report(different), digest_run_report(original));
}

// --------------------------------------------------- storage-fault injection

TEST(StorageFaults, InjectorFiresAtTheSeededIndex) {
  journal::IoFaultInjector::Options options;
  options.fail_at = 2;
  options.kind = journal::IoFaultKind::kEnospc;
  journal::IoFaultInjector injector(options);
  EXPECT_FALSE(injector.next_append().has_value());  // append 0
  EXPECT_FALSE(injector.next_append().has_value());  // append 1
  const std::optional<journal::IoFaultKind> fault = injector.next_append();
  ASSERT_TRUE(fault.has_value());
  EXPECT_EQ(*fault, journal::IoFaultKind::kEnospc);
  EXPECT_FALSE(injector.next_append().has_value());  // one-shot
  EXPECT_EQ(injector.appends(), 4u);

  journal::IoFaultInjector::Options always;
  always.fault_rate = 1.0;
  journal::IoFaultInjector storm(always);
  EXPECT_TRUE(storm.next_append().has_value());
  EXPECT_TRUE(storm.next_append().has_value());
}

TEST(StorageFaults, AppendFaultUnderAbortFailsTheJobTyped) {
  const system::Mlcd mlcd;
  for (const journal::IoFaultKind kind :
       {journal::IoFaultKind::kFsyncFail, journal::IoFaultKind::kEnospc,
        journal::IoFaultKind::kShortWrite}) {
    const std::string path = temp_path("abort.mlcdj");
    system::JobRequest request = durable_fleet().jobs[0].request;
    request.journal_path = path;
    FaultScope scope(fail_at(3, kind));  // header + 2 probes land first
    const system::DeployResult result = mlcd.deploy(request);
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.error().code, system::JobErrorCode::kJournalError);
    // The failed append never corrupts what already reached the disk:
    // the journal reads back as a valid (possibly torn-tail) prefix.
    journal::set_io_fault_injector(nullptr);
    const journal::JournalContents back = journal::read_journal(path);
    EXPECT_LE(back.probes.size(), 3u);
  }
}

TEST(StorageFaults, AppendFaultUnderDegradeKeepsTheRunCorrect) {
  const system::Mlcd mlcd;
  system::JobRequest plain = durable_fleet().jobs[0].request;
  const system::RunReport bare = mlcd.deploy(plain).report();

  system::JobRequest request = durable_fleet().jobs[0].request;
  request.journal_path = temp_path("degrade.mlcdj");
  request.journal_on_error = journal::OnError::kDegrade;
  FaultScope scope(fail_at(3));
  const system::DeployResult result = mlcd.deploy(request);
  ASSERT_TRUE(result.ok());
  const system::RunReport& report = result.report();
  EXPECT_TRUE(report.journal_degraded);
  EXPECT_FALSE(report.journal_degrade_reason.empty());
  // The search itself is untouched: bit-identical to the bare run.
  EXPECT_EQ(digest_run_report(report), digest_run_report(bare));
  // The degradation is reported, not silent.
  EXPECT_NE(report.render().find("WARNING"), std::string::npos);
  EXPECT_NE(report.to_json().find("\"journal_degraded\":true"),
            std::string::npos);
  EXPECT_EQ(bare.to_json().find("journal_degraded"), std::string::npos);
}

TEST(StorageFaults, CreateFaultObeysThePolicy) {
  const system::Mlcd mlcd;
  system::JobRequest request = durable_fleet().jobs[0].request;
  request.journal_path = temp_path("create.mlcdj");
  {
    FaultScope scope(fail_at(0));  // the header write at create
    const system::DeployResult aborted = mlcd.deploy(request);
    ASSERT_FALSE(aborted.ok());
    EXPECT_EQ(aborted.error().code, system::JobErrorCode::kJournalError);
  }
  {
    request.journal_on_error = journal::OnError::kDegrade;
    FaultScope scope(fail_at(0));
    const system::DeployResult degraded = mlcd.deploy(request);
    ASSERT_TRUE(degraded.ok());
    EXPECT_TRUE(degraded.report().journal_degraded);
  }
}

// With one lane the global record order is: log header (0), the two
// admitted records (1, 2), then job 0's assigned record (3), which
// commits together with job 0's first probe record. Under abort that
// failed commit fails job 0 typed without admitting its probe, and job 1
// — whose records the failed log refuses — fails typed too: no result
// the log lost is reported as a success.
TEST(StorageFaults, LogCommitFaultUnderAbortFailsTheJobsItLost) {
  const std::string dir = fresh_dir("log_abort");
  const Workload workload = durable_fleet();
  const system::Mlcd mlcd;
  BatchReport report;
  {
    FaultScope scope(fail_at(3));
    report = Scheduler(mlcd, durable_options(dir)).run(workload);
  }
  ASSERT_EQ(report.jobs.size(), 2u);
  for (const JobOutcome& job : report.jobs) {
    EXPECT_FALSE(job.ok) << job.name;
    EXPECT_EQ(job.error_code, "journal_error") << job.name;
    EXPECT_NE(job.error_message.find("[io]"), std::string::npos) << job.name;
    EXPECT_NE(job.error_message.find("batch log"), std::string::npos)
        << job.name;
  }
  EXPECT_FALSE(report.batch_journal_degraded);
  // What reached the disk is a readable prefix: the roster, and at most
  // the failed group — no finished record, nothing after the failure.
  const BatchManifestContents back = read_manifest(dir + "/batch.mlcdb");
  for (const BatchJobState& state : back.jobs) {
    EXPECT_TRUE(state.admitted);
    EXPECT_FALSE(state.finished);
  }
  EXPECT_LE(back.jobs[0].probe_spans.size(), 1u);
  EXPECT_TRUE(back.jobs[1].probe_spans.empty());
}

TEST(StorageFaults, ManifestAppendFaultUnderDegradeFlagsTheReport) {
  const std::string dir = fresh_dir("manifest_degrade");
  const Workload workload = durable_fleet();
  const system::Mlcd mlcd;
  SchedulerOptions options = durable_options(dir);
  options.journal_on_error = journal::OnError::kDegrade;
  FaultScope scope(fail_at(3));
  const BatchReport report = Scheduler(mlcd, options).run(workload);
  // Every job still completed correctly — only durability was lost.
  EXPECT_EQ(report.succeeded(), 2);
  EXPECT_TRUE(report.batch_journal_degraded);
  EXPECT_FALSE(report.batch_journal_degrade_reason.empty());
  EXPECT_NE(report.to_json().find("\"batch_journal_degraded\":true"),
            std::string::npos);
  EXPECT_NE(report.render().find("WARNING"), std::string::npos);
  for (const JobOutcome& job : report.jobs) {
    EXPECT_TRUE(job.report.journal_degraded) << job.name;
  }
}

TEST(StorageFaults, ManifestCreateFaultObeysThePolicy) {
  const Workload workload = durable_fleet();
  const system::Mlcd mlcd;
  {
    const std::string dir = fresh_dir("manifest_create_abort");
    FaultScope scope(fail_at(0));  // the manifest header write
    EXPECT_THROW(Scheduler(mlcd, durable_options(dir)).run(workload),
                 journal::JournalError);
  }
  {
    const std::string dir = fresh_dir("manifest_create_degrade");
    SchedulerOptions options = durable_options(dir);
    options.journal_on_error = journal::OnError::kDegrade;
    FaultScope scope(fail_at(0));
    const BatchReport report = Scheduler(mlcd, options).run(workload);
    EXPECT_EQ(report.succeeded(), 2);
    EXPECT_TRUE(report.batch_journal_degraded);
  }
}

// The dir itself failing to come up (a path under a regular file) is
// the earliest possible storage failure and obeys the same policy:
// degrade runs the whole batch journal-less — manifest and per-job
// journals both flagged — while abort refuses before any probe spends.
TEST(StorageFaults, JournalDirCreateFailureObeysThePolicy) {
  const std::string file = temp_path("not-a-dir");
  write_file(file, "x");
  const Workload workload = durable_fleet();
  const system::Mlcd mlcd;
  SchedulerOptions options;
  options.threads = 1;
  options.journal_dir = file + "/sub";
  try {
    Scheduler(mlcd, options).run(workload);
    FAIL() << "journal-dir create failure was swallowed under abort";
  } catch (const journal::JournalError& e) {
    EXPECT_EQ(e.code(), journal::JournalErrorCode::kIo);
    EXPECT_NE(std::string(e.what()).find("journal dir"), std::string::npos);
  }
  options.journal_on_error = journal::OnError::kDegrade;
  const BatchReport report = Scheduler(mlcd, options).run(workload);
  EXPECT_EQ(report.succeeded(), 2);
  EXPECT_TRUE(report.batch_journal_degraded);
  for (const JobOutcome& job : report.jobs) {
    EXPECT_TRUE(job.report.journal_degraded) << job.name;
  }
}

// ------------------------------------------------------ durable batch runs

TEST(DurableBatch, FreshRunWritesOneLog) {
  const std::string dir = fresh_dir("fresh");
  const Workload workload = durable_fleet();
  const system::Mlcd mlcd;
  const BatchReport report =
      Scheduler(mlcd, durable_options(dir)).run(workload);
  ASSERT_EQ(report.succeeded(), 2);
  EXPECT_EQ(report.resumed_jobs(), 0);
  EXPECT_EQ(report.replayed_reports(), 0);
  EXPECT_FALSE(report.batch_journal_degraded);

  // The log is the directory's only file: no per-job journal, and no
  // temporary left behind by the create.
  std::vector<std::string> files;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    files.push_back(entry.path().filename().string());
  }
  EXPECT_EQ(files, std::vector<std::string>{"batch.mlcdb"});

  const BatchManifestContents log = read_manifest(dir + "/batch.mlcdb");
  ASSERT_EQ(log.jobs.size(), 2u);
  for (std::size_t i = 0; i < 2; ++i) {
    const BatchJobState& state = log.jobs[i];
    EXPECT_TRUE(state.finished) << "job " << i;
    EXPECT_TRUE(state.ok) << "job " << i;
    EXPECT_EQ(state.outcome, "ok") << "job " << i;
    EXPECT_EQ(state.report_digest, digest_run_report(report.jobs[i].report))
        << "job " << i;
    EXPECT_EQ(state.header.model, workload.jobs[i].request.model);
    EXPECT_EQ(state.header.seed, workload.jobs[i].request.seed);
    // One probe record per trace step, in trace order.
    const std::vector<search::ProbeStep>& trace =
        report.jobs[i].report.result.trace;
    const std::vector<journal::ProbeRecord> probes =
        logged_probes(dir + "/batch.mlcdb", i);
    ASSERT_EQ(probes.size(), trace.size()) << "job " << i;
    for (std::size_t k = 0; k < trace.size(); ++k) {
      EXPECT_EQ(probes[k].nodes, trace[k].deployment.nodes);
      EXPECT_EQ(probes[k].cum_profile_cost, trace[k].cum_profile_cost);
    }
  }
  // Records: header-free roster (2) + per job assigned, probes,
  // finished; the roster alone was one commit, and commits group.
  EXPECT_EQ(report.log_records,
            static_cast<std::int64_t>(2 + 2 * 2 +
                                      log.jobs[0].probe_spans.size() +
                                      log.jobs[1].probe_spans.size()));
  EXPECT_GE(report.log_commits, 1);
  EXPECT_LE(report.log_commits, report.log_records);
}

// Four lanes race their records into the one batch log through the
// commit fence; the lane count is trace-neutral (same digests as the
// serial durable run) and the finished batch still replays probe-free.
TEST(DurableBatch, FourLaneDurableBatchMatchesSerial) {
  Workload workload = durable_fleet();
  for (std::size_t j = 0; j < 2; ++j) {
    service::JobSpec spec = workload.jobs[j];
    spec.name += "-2";
    spec.request.seed += 100;
    workload.jobs.push_back(std::move(spec));
  }
  const system::Mlcd mlcd;
  const BatchReport serial =
      Scheduler(mlcd, durable_options(fresh_dir("lanes-serial")))
          .run(workload);
  SchedulerOptions options = durable_options(fresh_dir("lanes-par"));
  options.threads = 4;
  const BatchReport laned = Scheduler(mlcd, options).run(workload);
  ASSERT_EQ(serial.succeeded(), 4);
  ASSERT_EQ(laned.succeeded(), 4);
  for (std::size_t i = 0; i < workload.jobs.size(); ++i) {
    EXPECT_EQ(digest_run_report(laned.jobs[i].report),
              digest_run_report(serial.jobs[i].report))
        << "job " << i;
  }
  options.resume = true;
  const BatchReport replay = Scheduler(mlcd, options).run(workload);
  EXPECT_EQ(replay.replayed_reports(), 4);
  EXPECT_EQ(replay.cache.inserts, 0);
}

TEST(DurableBatch, ResumeOfFinishedBatchReplaysProbeFree) {
  const std::string dir = fresh_dir("replay");
  const Workload workload = durable_fleet();
  const system::Mlcd mlcd;
  const BatchReport first =
      Scheduler(mlcd, durable_options(dir)).run(workload);
  ASSERT_EQ(first.succeeded(), 2);

  SchedulerOptions options = durable_options(dir);
  options.resume = true;
  const BatchReport second = Scheduler(mlcd, options).run(workload);
  ASSERT_EQ(second.succeeded(), 2);
  EXPECT_EQ(second.replayed_reports(), 2);
  EXPECT_EQ(second.resumed_jobs(), 0);

  for (std::size_t i = 0; i < 2; ++i) {
    EXPECT_TRUE(second.jobs[i].stats.replayed_from_journal) << "job " << i;
    // Bit-identical modulo resume bookkeeping...
    EXPECT_EQ(digest_run_report(second.jobs[i].report),
              digest_run_report(first.jobs[i].report))
        << "job " << i;
    // ... with zero probes re-executed: every step is a replay.
    const search::SearchResult& result = second.jobs[i].report.result;
    EXPECT_EQ(result.replayed_probes,
              static_cast<int>(result.trace.size()))
        << "job " << i;
    for (const search::ProbeStep& step : result.trace) {
      EXPECT_TRUE(step.replayed);
    }
  }
  // Nothing was measured, so nothing reached the shared cache, and
  // nothing was logged: the resume appended zero records.
  EXPECT_EQ(second.cache.inserts, 0);
  EXPECT_EQ(second.cache.lookups, 0);
  EXPECT_EQ(second.peak_capacity_nodes, 0);
  EXPECT_EQ(second.log_records, 0);
  EXPECT_EQ(read_manifest(dir + "/batch.mlcdb").valid_bytes,
            std::filesystem::file_size(dir + "/batch.mlcdb"));
}

TEST(DurableBatch, ResumeRunsNeverStartedJobsFresh) {
  // A kill right after admission: the log has only the header and the
  // admitted roster.
  const std::string dir = fresh_dir("admitted_only");
  const Workload workload = durable_fleet();
  const system::Mlcd mlcd;
  write_log(dir + "/batch.mlcdb", make_manifest_header(workload, 0, 0),
            {workload.jobs[0].name, workload.jobs[1].name});

  SchedulerOptions options = durable_options(dir);
  options.resume = true;
  const BatchReport resumed = Scheduler(mlcd, options).run(workload);
  ASSERT_EQ(resumed.succeeded(), 2);
  EXPECT_EQ(resumed.resumed_jobs(), 0);
  EXPECT_EQ(resumed.replayed_reports(), 0);

  // Fresh execution lands the same reports as an uninterrupted batch...
  const std::string fresh = fresh_dir("admitted_only_baseline");
  const BatchReport baseline =
      Scheduler(mlcd, durable_options(fresh)).run(workload);
  for (std::size_t i = 0; i < 2; ++i) {
    EXPECT_EQ(digest_run_report(resumed.jobs[i].report),
              digest_run_report(baseline.jobs[i].report))
        << "job " << i;
  }
  // ... and the continued log now records both jobs finished.
  const BatchManifestContents log = read_manifest(dir + "/batch.mlcdb");
  EXPECT_TRUE(log.jobs[0].finished);
  EXPECT_TRUE(log.jobs[1].finished);
}

/// A one-lane durable run of `workload` in `dir`, whose log then has the
/// deterministic order header, roster, and per job: assigned, probes,
/// finished.
BatchReport baseline_run(const Workload& workload, const std::string& dir) {
  const system::Mlcd mlcd;
  return Scheduler(mlcd, durable_options(dir)).run(workload);
}

TEST(DurableBatch, ResumeContinuesInFlightJobs) {
  // A kill mid-job: the log holds job 0's assigned record and its first
  // five probe records; job 1 never started.
  const std::string baseline_dir = fresh_dir("inflight_baseline");
  const Workload workload = durable_fleet();
  const system::Mlcd mlcd;
  const BatchReport baseline = baseline_run(workload, baseline_dir);
  ASSERT_EQ(baseline.succeeded(), 2);

  const std::string dir = fresh_dir("inflight");
  const std::string bytes = read_file(baseline_dir + "/batch.mlcdb");
  const std::vector<std::size_t> offsets = record_boundaries(bytes);
  // header (0), roster (1, 2), assigned (3), probes (4..8).
  ASSERT_GT(offsets.size(), 10u);
  write_file(dir + "/batch.mlcdb", bytes.substr(0, offsets[9]));
  ASSERT_EQ(read_manifest(dir + "/batch.mlcdb").jobs[0].probe_spans.size(),
            5u);

  SchedulerOptions options = durable_options(dir);
  options.resume = true;
  const BatchReport resumed = Scheduler(mlcd, options).run(workload);
  ASSERT_EQ(resumed.succeeded(), 2);
  EXPECT_EQ(resumed.resumed_jobs(), 1);
  EXPECT_EQ(resumed.replayed_reports(), 0);
  EXPECT_TRUE(resumed.jobs[0].stats.resumed_from_journal);
  EXPECT_FALSE(resumed.jobs[1].stats.resumed_from_journal);
  for (std::size_t i = 0; i < 2; ++i) {
    EXPECT_EQ(digest_run_report(resumed.jobs[i].report),
              digest_run_report(baseline.jobs[i].report))
        << "job " << i;
  }
  // Only the logged prefix was replayed; the rest ran live.
  EXPECT_EQ(resumed.jobs[0].report.result.replayed_probes, 5);
  EXPECT_GT(resumed.jobs[0].report.result.trace.size(), 5u);
  // The continued log holds job 0's whole trace, once.
  const BatchManifestContents log = read_manifest(dir + "/batch.mlcdb");
  EXPECT_EQ(log.jobs[0].probe_spans.size(),
            resumed.jobs[0].report.result.trace.size());
  EXPECT_TRUE(log.jobs[0].finished);
}

TEST(DurableBatch, AssignedJobWithNoProbeRecordsRunsFresh) {
  // A kill between job 0's assigned record and its first probe record.
  const std::string baseline_dir = fresh_dir("assigned_baseline");
  const Workload workload = durable_fleet();
  const system::Mlcd mlcd;
  const BatchReport baseline = baseline_run(workload, baseline_dir);
  const std::string dir = fresh_dir("assigned_only");
  const std::string bytes = read_file(baseline_dir + "/batch.mlcdb");
  const std::vector<std::size_t> offsets = record_boundaries(bytes);
  write_file(dir + "/batch.mlcdb", bytes.substr(0, offsets[4]));
  ASSERT_TRUE(read_manifest(dir + "/batch.mlcdb").jobs[0].assigned);

  SchedulerOptions options = durable_options(dir);
  options.resume = true;
  const BatchReport resumed = Scheduler(mlcd, options).run(workload);
  ASSERT_EQ(resumed.succeeded(), 2);
  EXPECT_EQ(resumed.resumed_jobs(), 0);
  EXPECT_FALSE(resumed.jobs[0].stats.resumed_from_journal);
  EXPECT_EQ(resumed.jobs[0].report.result.replayed_probes, 0);
  EXPECT_EQ(digest_run_report(resumed.jobs[0].report),
            digest_run_report(baseline.jobs[0].report));
  // The fresh run logged a new assigned record and its whole trace.
  const BatchManifestContents log = read_manifest(dir + "/batch.mlcdb");
  EXPECT_TRUE(log.jobs[0].finished);
  EXPECT_EQ(log.jobs[0].probe_spans.size(),
            resumed.jobs[0].report.result.trace.size());
}

TEST(DurableBatch, ResumeRefusesMismatchedWorkload) {
  const std::string dir = fresh_dir("mismatch");
  const system::Mlcd mlcd;
  ASSERT_EQ(Scheduler(mlcd, durable_options(dir)).run(durable_fleet())
                .succeeded(),
            2);

  Workload altered = durable_fleet();
  altered.jobs[0].request.seed = 8;  // a different search
  SchedulerOptions options = durable_options(dir);
  options.resume = true;
  try {
    Scheduler(mlcd, options).run(altered);
    FAIL() << "mismatched workload was resumed";
  } catch (const journal::JournalError& e) {
    EXPECT_EQ(e.code(), journal::JournalErrorCode::kHeaderMismatch);
    EXPECT_NE(std::string(e.what()).find("workload"), std::string::npos);
  }

  // A different capacity config is a different batch too.
  SchedulerOptions capacity = durable_options(dir);
  capacity.resume = true;
  capacity.capacity_nodes = 16;
  try {
    Scheduler(mlcd, capacity).run(durable_fleet());
    FAIL() << "mismatched capacity config was resumed";
  } catch (const journal::JournalError& e) {
    EXPECT_EQ(e.code(), journal::JournalErrorCode::kHeaderMismatch);
  }
}

TEST(DurableBatch, ResumeRefusesMissingManifest) {
  const std::string dir = fresh_dir("missing_manifest");
  SchedulerOptions options = durable_options(dir);
  options.resume = true;
  const system::Mlcd mlcd;
  EXPECT_THROW(Scheduler(mlcd, options).run(durable_fleet()),
               journal::JournalError);
}

TEST(DurableBatch, TamperedDigestIsTypedReplayDivergence) {
  const std::string dir = fresh_dir("diverged");
  const Workload workload = durable_fleet();
  const system::Mlcd mlcd;
  ASSERT_EQ(Scheduler(mlcd, durable_options(dir)).run(workload).succeeded(),
            2);

  // Rewrite job 0's finished record with a wrong digest (re-framed, so
  // the file itself stays valid — only the recorded history lies).
  const std::string path = dir + "/batch.mlcdb";
  const std::string bytes = read_file(path);
  std::string rebuilt;
  std::size_t at = 0;
  while (at < bytes.size()) {
    const std::size_t eol = bytes.find('\n', at);
    std::string line = bytes.substr(at, eol - at + 1);
    if (line.find("\"phase\":\"finished\",\"job\":0") != std::string::npos) {
      std::size_t payload_at = 0;
      for (int spaces = 0; spaces < 3; ++spaces) {
        payload_at = line.find(' ', payload_at) + 1;
      }
      std::string payload =
          line.substr(payload_at, line.size() - payload_at - 1);
      const std::size_t digest_at = payload.find("\"report_digest\":\"") +
                                    std::string("\"report_digest\":\"").size();
      payload.replace(digest_at, payload.find('"', digest_at) - digest_at,
                      "1234567");
      line = journal::frame_record(payload);
    }
    rebuilt += line;
    at = eol + 1;
  }
  write_file(path, rebuilt);

  SchedulerOptions options = durable_options(dir);
  options.resume = true;
  const BatchReport resumed = Scheduler(mlcd, options).run(workload);
  EXPECT_FALSE(resumed.jobs[0].ok);
  EXPECT_EQ(resumed.jobs[0].error_code, "journal_error");
  EXPECT_NE(resumed.jobs[0].error_message.find("diverged"),
            std::string::npos);
  // The untampered job replays fine; the batch is not poisoned.
  EXPECT_TRUE(resumed.jobs[1].ok);
  EXPECT_TRUE(resumed.jobs[1].stats.replayed_from_journal);
}

TEST(DurableBatch, RefusesJobsDeclaringTheirOwnJournals) {
  const std::string dir = fresh_dir("own_journal");
  Workload workload = durable_fleet();
  workload.jobs[0].request.journal_path = temp_path("mine.mlcdj");
  const system::Mlcd mlcd;
  EXPECT_THROW(Scheduler(mlcd, durable_options(dir)).run(workload),
               std::invalid_argument);
}

TEST(DurableBatch, OptionValidationIsStrict) {
  const system::Mlcd mlcd;
  SchedulerOptions dirless;
  dirless.resume = true;
  EXPECT_THROW(Scheduler(mlcd, dirless).run(durable_fleet()),
               std::invalid_argument);
}

TEST(DurableBatch, ResumeRefusesVersionOneLog) {
  // A directory written before the batch log: a version-1 manifest (its
  // per-job journal files beside it). Resume refuses it typed.
  const std::string dir = fresh_dir("version_one");
  const Workload workload = durable_fleet();
  BatchManifestHeader header = make_manifest_header(workload, 0, 0);
  header.version = 1;
  write_log(dir + "/batch.mlcdb", header, {"a", "b"});
  SchedulerOptions options = durable_options(dir);
  options.resume = true;
  const system::Mlcd mlcd;
  try {
    Scheduler(mlcd, options).run(workload);
    FAIL() << "a version-1 batch directory was resumed";
  } catch (const journal::JournalError& e) {
    EXPECT_EQ(e.code(), journal::JournalErrorCode::kVersionMismatch);
  }
}

TEST(DurableBatch, ResumeRefusesAJobWhoseSearchChanged) {
  // The workload fingerprint matches, but job 0's assigned record says
  // its search ran against another catalog: that job is refused typed
  // with the differing field named; the other still replays.
  const std::string dir = fresh_dir("search_changed");
  const Workload workload = durable_fleet();
  const system::Mlcd mlcd;
  ASSERT_EQ(baseline_run(workload, dir).succeeded(), 2);
  const std::string path = dir + "/batch.mlcdb";
  const std::string bytes = read_file(path);
  std::string rebuilt;
  for (std::size_t at = 0; at < bytes.size();) {
    const std::size_t eol = bytes.find('\n', at);
    std::string line = bytes.substr(at, eol - at + 1);
    if (line.find("\"phase\":\"assigned\",\"job\":0") != std::string::npos) {
      std::string payload = line.substr(0, line.size() - 1);
      for (int spaces = 0; spaces < 3; ++spaces) {
        payload = payload.substr(payload.find(' ') + 1);
      }
      const std::string key = "\"catalog_hash\":\"";
      const std::size_t value = payload.find(key) + key.size();
      payload.replace(value, payload.find('"', value) - value, "42");
      line = journal::frame_record(payload);
    }
    rebuilt += line;
    at = eol + 1;
  }
  write_file(path, rebuilt);

  SchedulerOptions options = durable_options(dir);
  options.resume = true;
  const BatchReport resumed = Scheduler(mlcd, options).run(workload);
  EXPECT_FALSE(resumed.jobs[0].ok);
  EXPECT_EQ(resumed.jobs[0].error_code, "journal_error");
  EXPECT_NE(resumed.jobs[0].error_message.find("[header-mismatch]"),
            std::string::npos);
  EXPECT_NE(resumed.jobs[0].error_message.find("catalog contents"),
            std::string::npos);
  EXPECT_TRUE(resumed.jobs[1].ok);
  EXPECT_TRUE(resumed.jobs[1].stats.replayed_from_journal);
}

/// Solo digests of every job of `workload` (the trace-neutrality
/// reference every scheduled run must match).
std::vector<std::uint64_t> solo_digests(const Workload& workload) {
  const system::Mlcd mlcd;
  std::vector<std::uint64_t> digests;
  for (const JobSpec& spec : workload.jobs) {
    digests.push_back(digest_run_report(mlcd.deploy(spec.request).report()));
  }
  return digests;
}

// The commit fence groups records: a 4-lane, 32-job batch commits far
// fewer times than it logs records, the roster alone being one commit.
TEST(DurableBatch, GroupCommitTakesFewerCommitsThanRecords) {
  const Workload workload = wide_fleet(32);
  std::vector<std::string> roster;
  for (const JobSpec& spec : workload.jobs) roster.push_back(spec.name);
  {
    const std::string dir = fresh_dir("roster_commit");
    const std::unique_ptr<BatchLog> log = BatchLog::create(
        dir + "/batch.mlcdb", make_manifest_header(workload, 0, 0), roster);
    EXPECT_EQ(log->commits(), 1);
    EXPECT_EQ(log->records(), 32);
  }
  const system::Mlcd mlcd;
  SchedulerOptions options = durable_options(fresh_dir("group_commit"));
  options.threads = 4;
  const BatchReport report = Scheduler(mlcd, options).run(workload);
  ASSERT_EQ(report.succeeded(), 32);
  EXPECT_GT(report.log_records, 32 * 3);
  EXPECT_LT(report.log_commits, report.log_records);
  const std::vector<std::uint64_t> solo = solo_digests(workload);
  for (std::size_t i = 0; i < workload.jobs.size(); ++i) {
    EXPECT_EQ(digest_run_report(report.jobs[i].report), solo[i]) << i;
  }
}

TEST(DurableBatch, OneFourAndSixteenLanesLogIdenticalReports) {
  const Workload workload = wide_fleet(32);
  const std::vector<std::uint64_t> solo = solo_digests(workload);
  const system::Mlcd mlcd;
  for (const int lanes : {1, 4, 16}) {
    SchedulerOptions options =
        durable_options(fresh_dir("lanes_" + std::to_string(lanes)));
    options.threads = lanes;
    const BatchReport report = Scheduler(mlcd, options).run(workload);
    ASSERT_EQ(report.succeeded(), 32) << lanes << " lanes";
    for (std::size_t i = 0; i < workload.jobs.size(); ++i) {
      EXPECT_EQ(digest_run_report(report.jobs[i].report), solo[i])
          << lanes << " lanes, job " << i;
    }
    // And the log replays every one of them probe-free.
    options.resume = true;
    const BatchReport replay = Scheduler(mlcd, options).run(workload);
    EXPECT_EQ(replay.replayed_reports(), 32) << lanes << " lanes";
  }
}

// A fleet larger than the durable running bound: lanes keep claiming
// fresh jobs while their sessions wait on the commit fence until the
// bound blocks the claim, and only a finish frees a slot. The blocking
// path is trace-neutral, never lets more jobs run than the bound, and
// the finished log replays every report probe-free.
TEST(DurableBatch, FleetLargerThanTheRunningBoundMatchesSoloAndReplays) {
  const int jobs = kDurableRunningJobs + 32;
  const Workload workload = wide_fleet(jobs);
  const std::vector<std::uint64_t> solo = solo_digests(workload);
  const system::Mlcd mlcd;
  for (const int lanes : {4, 16}) {
    SchedulerOptions options =
        durable_options(fresh_dir("bounded_" + std::to_string(lanes)));
    options.threads = lanes;
    const BatchReport report = Scheduler(mlcd, options).run(workload);
    ASSERT_EQ(report.succeeded(), jobs) << lanes << " lanes";
    EXPECT_GE(report.peak_running_jobs, 1) << lanes << " lanes";
    EXPECT_LE(report.peak_running_jobs, kDurableRunningJobs)
        << lanes << " lanes";
    EXPECT_LT(report.log_commits, report.log_records) << lanes << " lanes";
    for (std::size_t i = 0; i < workload.jobs.size(); ++i) {
      EXPECT_EQ(digest_run_report(report.jobs[i].report), solo[i])
          << lanes << " lanes, job " << i;
    }

    options.resume = true;
    const BatchReport replay = Scheduler(mlcd, options).run(workload);
    ASSERT_EQ(replay.succeeded(), jobs) << lanes << " lanes";
    EXPECT_EQ(replay.replayed_reports(), jobs) << lanes << " lanes";
    EXPECT_EQ(replay.resumed_jobs(), 0) << lanes << " lanes";
    EXPECT_LE(replay.peak_running_jobs, kDurableRunningJobs)
        << lanes << " lanes";
    for (std::size_t i = 0; i < workload.jobs.size(); ++i) {
      const search::SearchResult& result = replay.jobs[i].report.result;
      EXPECT_EQ(result.replayed_probes, static_cast<int>(result.trace.size()))
          << lanes << " lanes, job " << i;
      EXPECT_EQ(digest_run_report(replay.jobs[i].report), solo[i])
          << lanes << " lanes, job " << i;
    }
    // Nothing was measured or logged on the way back.
    EXPECT_EQ(replay.cache.lookups, 0) << lanes << " lanes";
    EXPECT_EQ(replay.log_records, 0) << lanes << " lanes";
  }
}

/// Six exhaustive searches probing back-to-back through an 8-node pool
/// with the shared cache off: every probe launches live, so every probe
/// is a durable record.
Workload contended_fleet() {
  static constexpr const char* kModels[] = {"resnet", "alexnet"};
  Workload workload;
  for (int j = 0; j < 6; ++j) {
    JobSpec spec;
    spec.tenant = "t" + std::to_string(j);
    spec.name = spec.tenant + "-" + kModels[j % 2];
    spec.request.model = kModels[j % 2];
    spec.request.search_method = "exhaustive";
    spec.request.seed = 100 + static_cast<std::uint64_t>(j);
    spec.request.max_nodes = 8;
    spec.request.requirements.deadline_hours = 24.0;
    workload.jobs.push_back(std::move(spec));
  }
  return workload;
}

// The batch log costs no more than the per-job run journals it stands
// in for: on the contended fleet its bytes stay under 1.05x theirs, and
// it never commits more often than their one fsync per record, at 1 and
// 4 lanes alike. Both ways of journaling stay trace-neutral.
TEST(DurableBatch, ContendedLogCostsNoMoreThanPerJobJournals) {
  const Workload workload = contended_fleet();
  const std::vector<std::uint64_t> solo = solo_digests(workload);
  const system::Mlcd mlcd;
  SchedulerOptions options;
  options.threads = 4;
  options.capacity_nodes = 8;  // == every job's max_nodes
  options.share_probes = false;

  const std::string self_dir = fresh_dir("contended_self");
  Workload self_journaled = workload;
  for (std::size_t i = 0; i < workload.jobs.size(); ++i) {
    self_journaled.jobs[i].request.journal_path =
        self_dir + "/job-" + std::to_string(i) + ".mlcdj";
  }
  const BatchReport self = Scheduler(mlcd, options).run(self_journaled);
  std::uintmax_t journal_bytes = 0;
  for (std::size_t i = 0; i < workload.jobs.size(); ++i) {
    ASSERT_TRUE(self.jobs[i].ok) << self.jobs[i].error_message;
    EXPECT_EQ(digest_run_report(self.jobs[i].report), solo[i]) << i;
    journal_bytes +=
        std::filesystem::file_size(self_journaled.jobs[i].request.journal_path);
  }

  std::vector<std::uintmax_t> log_bytes;
  for (const int lanes : {1, 4}) {
    const std::string dir = fresh_dir("contended_log");
    options.threads = lanes;
    options.journal_dir = dir;
    const BatchReport report = Scheduler(mlcd, options).run(workload);
    for (std::size_t i = 0; i < workload.jobs.size(); ++i) {
      ASSERT_TRUE(report.jobs[i].ok) << report.jobs[i].error_message;
      EXPECT_EQ(digest_run_report(report.jobs[i].report), solo[i])
          << lanes << " lanes, job " << i;
    }
    EXPECT_LE(report.log_commits, report.log_records) << lanes << " lanes";
    log_bytes.push_back(std::filesystem::file_size(dir + "/batch.mlcdb"));
  }
  EXPECT_LT(static_cast<double>(log_bytes[0]), 1.05 * journal_bytes)
      << log_bytes[0] << " log bytes vs " << journal_bytes
      << " per-job journal bytes";
  EXPECT_EQ(log_bytes[1], log_bytes[0]);
}

// ------------------------------------------------ commit fence under faults

TEST(StorageFaults, FailedCommitLatchesTheLog) {
  const std::string path = temp_path("latch.mlcdb");
  std::unique_ptr<BatchLog> log =
      BatchLog::create(path, sample_batch_header(), {"a", "b"});
  log->stage(assigned_record(0, "a"));
  log->stage(assigned_record(1, "b"));
  log->flush();
  const std::uintmax_t before = std::filesystem::file_size(path);
  std::uint64_t failed_lsn = 0;
  {
    // The injector is consulted once per staged record, so fail_at = 1
    // is the second record staged from here.
    FaultScope scope(fail_at(1, journal::IoFaultKind::kEnospc));
    ASSERT_TRUE(log->stage_probe(0, sample_probe(1)).has_value());
    const std::optional<std::uint64_t> lsn =
        log->stage_probe(1, sample_probe(2));
    ASSERT_TRUE(lsn.has_value());
    failed_lsn = *lsn;
    bool parked_hook_ran = false;
    EXPECT_EQ(log->park(*lsn, BatchLog::Waiter{1, 0, false},
                        [&] { parked_hook_ran = true; }),
              BatchLog::Fence::kParked);
    EXPECT_TRUE(parked_hook_ran);
    std::vector<BatchLog::Waiter> released;
    ASSERT_TRUE(log->commit(released));
    ASSERT_EQ(released.size(), 1u);
    EXPECT_EQ(released[0].job, 1u);
    EXPECT_FALSE(released[0].durable);
  }
  EXPECT_FALSE(log->error().empty());
  EXPECT_EQ(log->lost_jobs(), (std::vector<int>{0, 1}));
  // ENOSPC landed the record before the faulty one, nothing after it...
  const std::uintmax_t after = std::filesystem::file_size(path);
  EXPECT_GT(after, before);
  // ... and the failed log accepts nothing more.
  EXPECT_FALSE(log->stage_probe(0, sample_probe(3)).has_value());
  EXPECT_EQ(log->park(failed_lsn, BatchLog::Waiter{0, 0, false}, nullptr),
            BatchLog::Fence::kFailed);
  std::vector<BatchLog::Waiter> released;
  EXPECT_FALSE(log->commit(released));
  log->flush();
  EXPECT_EQ(std::filesystem::file_size(path), after);
  EXPECT_EQ(log->commits(), 2);  // the roster's and the assigned pair's
  // What did land reads back cleanly.
  EXPECT_NO_THROW(read_manifest(path));
}

/// Probe records logged for each job are a prefix of its solo trace.
void expect_logged_prefixes(const std::string& path, const Workload& workload) {
  const system::Mlcd mlcd;
  for (std::size_t i = 0; i < workload.jobs.size(); ++i) {
    const std::vector<search::ProbeStep> trace =
        mlcd.deploy(workload.jobs[i].request).report().result.trace;
    const std::vector<journal::ProbeRecord> probes = logged_probes(path, i);
    ASSERT_LE(probes.size(), trace.size()) << "job " << i;
    for (std::size_t k = 0; k < probes.size(); ++k) {
      EXPECT_EQ(probes[k].cum_profile_cost, trace[k].cum_profile_cost)
          << "job " << i << " probe " << k;
    }
  }
}

// An fsync failure at one commit of a 4-lane batch. Under abort every
// job whose record was in the failed group — and every job that logs
// after it — fails typed and never admits the held probe; every job that
// did complete is solo-identical, and the log on disk is a clean prefix.
TEST(StorageFaults, FsyncFailureAtOneCommitUnderAbortFailsItsGroupTyped) {
  const Workload workload = wide_fleet(32);
  const std::vector<std::uint64_t> solo = solo_digests(workload);
  const system::Mlcd mlcd;
  const std::string dir = fresh_dir("fence_abort");
  SchedulerOptions options = durable_options(dir);
  options.threads = 4;
  BatchReport report;
  {
    FaultScope scope(fail_at(120));  // mid-batch: past the 33 roster records
    report = Scheduler(mlcd, options).run(workload);
  }
  int failed = 0;
  for (std::size_t i = 0; i < workload.jobs.size(); ++i) {
    const JobOutcome& job = report.jobs[i];
    if (job.ok) {
      EXPECT_EQ(digest_run_report(job.report), solo[i]) << job.name;
      continue;
    }
    ++failed;
    EXPECT_EQ(job.error_code, "journal_error") << job.name;
    EXPECT_TRUE(job.report.result.trace.empty()) << job.name;
  }
  EXPECT_GT(failed, 0);
  EXPECT_FALSE(report.batch_journal_degraded);
  expect_logged_prefixes(dir + "/batch.mlcdb", workload);
}

// The same fault under degrade: every report equals the solo run's; the
// batch only stops being kill-resumable.
TEST(StorageFaults, FsyncFailureAtOneCommitUnderDegradeKeepsReportsSolo) {
  const Workload workload = wide_fleet(32);
  const std::vector<std::uint64_t> solo = solo_digests(workload);
  const system::Mlcd mlcd;
  const std::string dir = fresh_dir("fence_degrade");
  SchedulerOptions options = durable_options(dir);
  options.threads = 4;
  options.journal_on_error = journal::OnError::kDegrade;
  BatchReport report;
  {
    FaultScope scope(fail_at(120));
    report = Scheduler(mlcd, options).run(workload);
  }
  ASSERT_EQ(report.succeeded(), 32);
  EXPECT_TRUE(report.batch_journal_degraded);
  for (std::size_t i = 0; i < workload.jobs.size(); ++i) {
    EXPECT_EQ(digest_run_report(report.jobs[i].report), solo[i]) << i;
  }
  expect_logged_prefixes(dir + "/batch.mlcdb", workload);
}

// --------------------------------------------------- process-kill harness

#if defined(MLCD_HAVE_POSIX_SPAWN) && defined(MLCD_CLI_BIN)

/// Forks and execs `mlcd batch --threads <threads>` against `workload`,
/// output discarded.
pid_t spawn_batch(const std::string& workload, const std::string& dir,
                  const std::string& out, bool resume, int threads) {
  const std::string lanes = std::to_string(threads);
  const pid_t pid = fork();
  if (pid == 0) {
    std::freopen("/dev/null", "w", stdout);
    std::freopen("/dev/null", "w", stderr);
    std::vector<const char*> argv = {
        MLCD_CLI_BIN,  "batch",      workload.c_str(), "--journal-dir",
        dir.c_str(),   "--out",      out.c_str(),      "--threads",
        lanes.c_str()};
    if (resume) argv.push_back("--resume");
    argv.push_back(nullptr);
    execv(MLCD_CLI_BIN, const_cast<char* const*>(argv.data()));
    _exit(127);
  }
  return pid;
}

/// Spawns `mlcd batch` against `workload`, optionally SIGKILLs it after
/// `kill_after_us`, and returns the exit code (-1 when killed).
int run_batch(const std::string& workload, const std::string& dir,
              const std::string& out, bool resume, int threads,
              long kill_after_us = -1) {
  const pid_t pid = spawn_batch(workload, dir, out, resume, threads);
  if (kill_after_us >= 0) {
    usleep(static_cast<useconds_t>(kill_after_us));
    kill(pid, SIGKILL);
  }
  int status = 0;
  waitpid(pid, &status, 0);
  return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

/// A fresh `mlcd batch` run to completion, timed from the fork: when
/// `dir/batch.mlcdb` first appeared (polled; -1 if never seen) and when
/// the process exited.
struct BatchTiming {
  int rc = -1;
  long log_us = -1;
  long exit_us = 0;
};

BatchTiming time_batch(const std::string& workload, const std::string& dir,
                       const std::string& out, int threads) {
  const auto start = std::chrono::steady_clock::now();
  const auto elapsed_us = [&start] {
    return static_cast<long>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now() - start)
            .count());
  };
  const pid_t pid = spawn_batch(workload, dir, out, false, threads);
  BatchTiming timing;
  int status = 0;
  while (waitpid(pid, &status, WNOHANG) == 0) {
    if (timing.log_us < 0 &&
        std::filesystem::exists(dir + "/batch.mlcdb")) {
      timing.log_us = elapsed_us();
    }
    usleep(20);
  }
  timing.exit_us = elapsed_us();
  timing.rc = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  return timing;
}

/// The trace array of one job in a BatchReport JSON document, with the
/// per-step `replayed` flag (the only legitimate difference between a
/// fresh and a replayed step) normalized away.
std::string scrubbed_trace(const std::string& doc, const std::string& job) {
  const std::size_t at = doc.find("\"name\":\"" + job);
  EXPECT_NE(at, std::string::npos);
  const std::size_t begin = doc.find("\"trace\":[", at);
  EXPECT_NE(begin, std::string::npos);
  // Fault-free steps carry no nested arrays: the first ']' closes it.
  const std::size_t end = doc.find(']', begin);
  std::string trace = doc.substr(begin, end - begin + 1);
  for (std::size_t flag = trace.find("\"replayed\":");
       flag != std::string::npos; flag = trace.find("\"replayed\":", flag)) {
    const std::size_t value = flag + std::string("\"replayed\":").size();
    const std::size_t comma = trace.find_first_of(",}", value);
    trace.replace(value, comma - value, "X");
    flag = value;
  }
  return trace;
}

/// The kill-point sweep: runs `mlcd batch --threads <threads>` over the
/// workload file once uninterrupted (the golden batch), then SIGKILLs a
/// fresh run at each kill point, resumes it, and expects every job's
/// trace to come back bit-identical to the golden one. At least one
/// point must have interrupted a running batch: its resume found a job
/// in flight, or replayed some finished jobs but not all of them.
void expect_kill_sweep_resumes_bit_identically(
    const std::string& workload, const std::vector<std::string>& jobs,
    int threads, const std::string& tag) {
  // The uninterrupted run is the golden batch every kill point must
  // reproduce. It is timed: from the fork to the log's appearance, and
  // to the process's exit.
  const std::string golden_dir = fresh_dir(tag + "_golden");
  const std::string golden_out = temp_path(tag + "_golden.json");
  const BatchTiming golden_run =
      time_batch(workload, golden_dir, golden_out, threads);
  ASSERT_EQ(golden_run.rc, 0);
  const std::string golden = read_file(golden_out);
  ASSERT_NE(golden.find("\"schema_version\":6"), std::string::npos);

  // Two early kill points (at process start-up, before the log exists)
  // plus six seeded points inside the golden run's measured lifetime
  // with the log on disk, so the sweep kills while the batch runs rather
  // than before it starts or after it has ended.
  const long live_from_us = std::max(0L, golden_run.log_us);
  const auto live_us = static_cast<std::uint64_t>(
      std::max(1L, golden_run.exit_us - live_from_us));
  std::uint64_t state = 42;
  std::vector<long> kill_points_us = {0, 500};
  for (int i = 0; i < 6; ++i) {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    kill_points_us.push_back(live_from_us +
                             static_cast<long>(state % live_us));
  }

  int interrupted_points = 0;
  for (const long kill_after_us : kill_points_us) {
    const std::string point = tag + "_" + std::to_string(kill_after_us);
    const std::string dir = fresh_dir(point);
    const std::string out = temp_path(point + ".json");
    run_batch(workload, dir, out, false, threads, kill_after_us);

    // A kill can land before the journal dir was even created; resume
    // then refuses (no manifest) and a fresh durable run finishes the
    // job. Either way the sweep point must converge to the golden batch.
    std::remove(out.c_str());
    int rc = run_batch(workload, dir, out, true, threads);
    if (rc == 4 && !std::filesystem::exists(dir + "/batch.mlcdb")) {
      rc = run_batch(workload, dir, out, false, threads);
    }
    ASSERT_EQ(rc, 0) << "kill point " << kill_after_us << " us";

    const std::string resumed = read_file(out);
    const util::JsonValue scheduler =
        util::parse_json(resumed).at("scheduler");
    const auto replayed =
        static_cast<std::size_t>(scheduler.at("replayed_reports").as_number());
    if (scheduler.at("resumed_jobs").as_number() > 0 ||
        (replayed > 0 && replayed < jobs.size())) {
      ++interrupted_points;
    }
    for (const std::string& job : jobs) {
      EXPECT_EQ(scrubbed_trace(resumed, job), scrubbed_trace(golden, job))
          << "kill point " << kill_after_us << " us, job " << job;
    }
  }
  EXPECT_GT(interrupted_points, 0)
      << "no kill point landed inside a running batch (golden run: log at "
      << golden_run.log_us << " us, exit at " << golden_run.exit_us
      << " us)";
}

TEST(KillHarness, KillPointSweepResumesBitIdentically) {
  const std::string workload = temp_path("kill_workload.json");
  write_file(workload, R"({"jobs": [
    {"name": "a", "tenant": "t1", "model": "resnet", "seed": 7,
     "max_nodes": 8},
    {"name": "b", "tenant": "t2", "model": "alexnet", "seed": 9,
     "max_nodes": 8, "method": "random"}
  ]})");
  expect_kill_sweep_resumes_bit_identically(workload, {"a", "b"}, 1, "kill");
  std::remove(workload.c_str());
}

// The same sweep over a 4-lane batch with more jobs than the durable
// running bound, so kills land while many sessions sit on the commit
// fence and fresh claims wait on the bound.
TEST(KillHarness, MultiLaneKillSweepOverMoreJobsThanTheBound) {
  const int count = kDurableRunningJobs + 16;
  std::vector<std::string> jobs;
  std::string doc = R"({"jobs": [)";
  for (int i = 0; i < count; ++i) {
    // Zero-padded names, so no job's name is a prefix of another's.
    std::string name = std::to_string(1000 + i);
    name[0] = 'j';
    jobs.push_back(name);
    doc += (i == 0 ? "" : ",");
    doc += R"({"name": ")" + name + R"(", "tenant": "t)" +
           std::to_string(i % 3) + R"(", "seed": )" +
           std::to_string(100 + i) + R"(, "max_nodes": 8, )" +
           (i % 2 == 0 ? R"("model": "resnet"})"
                       : R"("model": "alexnet", "method": "random"})");
  }
  doc += "]}";
  const std::string workload = temp_path("kill_wide_workload.json");
  write_file(workload, doc);
  expect_kill_sweep_resumes_bit_identically(workload, jobs, 4, "kill_wide");
  std::remove(workload.c_str());
}

#endif  // MLCD_HAVE_POSIX_SPAWN && MLCD_CLI_BIN

}  // namespace
}  // namespace mlcd::service
