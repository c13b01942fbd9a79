// BatchJournal: the write-ahead manifest that makes the batch service
// itself durable.
//
// PR 3 made one run crash-safe (journal/journal.hpp) and the chaos layer
// made the scheduler survive in-process lane crashes, but a death of the
// `mlcd batch` process still lost every job not explicitly journaled by
// its tenant. The batch manifest closes that gap: one MLCDJ1-framed,
// fsync'd file under the batch's `--journal-dir` records the workload
// fingerprint and each job's lifecycle —
//
//   admitted  — the job passed admission control (written up front for
//               the whole fleet, before any probe runs);
//   assigned  — the job started and owns a per-job run journal file;
//   finished  — the job completed, with its outcome and a digest of its
//               RunReport for replay verification.
//
// `mlcd batch --journal-dir D --resume` reads the manifest back,
// verifies the workload fingerprint, and re-plans the fleet: finished
// jobs replay their per-job journals bit-identically with zero probes
// re-executed, in-flight (assigned) jobs resume through the existing
// resume_path machinery, and never-started jobs run fresh. The resulting
// BatchReport is byte-identical to an uninterrupted run modulo the
// resume counters. See docs/crash-safety.md.
//
// The manifest shares the run journal's framing, fsync discipline, and
// storage-fault injection hook (journal::FramedWriter), so every
// durability test exercises both writers the same way.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "journal/journal.hpp"
#include "mlcd/mlcd.hpp"
#include "service/workload.hpp"

namespace mlcd::service {

/// Batch manifest format version. Bumped on any change to the record
/// layout; an unsupported version refuses with kVersionMismatch.
inline constexpr int kBatchManifestVersion = 1;

/// Fingerprint of the workload a manifest belongs to. A resume whose own
/// workload/config hashes differently is refused (kHeaderMismatch): the
/// manifest describes a different batch.
struct BatchManifestHeader {
  int version = kBatchManifestVersion;
  /// FNV-1a over every job's hash_job, in workload order.
  std::uint64_t workload_hash = 0;
  std::uint64_t chaos_seed = 0;
  int job_count = 0;
  int capacity_nodes = 0;
  int tenant_max_jobs = 0;
};

/// Lifecycle phase a manifest job record advances a job to.
enum class BatchJobPhase {
  kAdmitted,
  kAssigned,
  kFinished,
};

/// One manifest record: job `job` (index into the workload's job list)
/// reached `phase`. journal_file is meaningful from kAssigned on; the
/// outcome fields only for kFinished.
struct BatchJobRecord {
  BatchJobPhase phase = BatchJobPhase::kAdmitted;
  int job = 0;
  std::string name;
  std::string journal_file;
  bool ok = false;
  std::string outcome;  ///< JobStats outcome label ("ok", "journal_error", ...)
  std::uint64_t report_digest = 0;
};

/// Latest manifest state of one job, distilled from a read-back.
struct BatchJobState {
  bool admitted = false;
  bool assigned = false;
  bool finished = false;
  std::string journal_file;
  bool ok = false;
  std::string outcome;
  std::uint64_t report_digest = 0;
};

/// A manifest read back from disk (torn tail dropped, like read_journal).
struct BatchManifestContents {
  BatchManifestHeader header;
  std::vector<BatchJobState> jobs;  ///< sized header.job_count
  std::uint64_t valid_bytes = 0;
  bool truncated_tail = false;
};

/// Append-only batch manifest writer. Thread-safe: the scheduler's lanes
/// append job transitions concurrently. Every append is framed, written,
/// and fsync'd before returning (journal::FramedWriter underneath), so a
/// transition that returned survives a process kill.
class BatchJournal {
 public:
  /// Starts a fresh manifest at `path` and durably writes the header.
  /// Throws journal::JournalError(kIo).
  static std::unique_ptr<BatchJournal> create(
      const std::string& path, const BatchManifestHeader& header);

  /// Reopens an existing manifest for continuation after a resume,
  /// truncating a torn tail first.
  static std::unique_ptr<BatchJournal> append_to(const std::string& path,
                                                 std::uint64_t valid_bytes);

  BatchJournal(const BatchJournal&) = delete;
  BatchJournal& operator=(const BatchJournal&) = delete;

  void append(const BatchJobRecord& record);

  const std::string& path() const noexcept { return writer_.path(); }

 private:
  explicit BatchJournal(journal::FramedWriter writer);

  std::mutex mutex_;
  journal::FramedWriter writer_;
};

/// Reads a manifest back: header first, then every job transition folded
/// into per-job latest state. Torn tail dropped; corruption at rest,
/// a missing/alien header, an out-of-range job index, or an unsupported
/// version throw typed journal::JournalError.
BatchManifestContents read_manifest(const std::string& path);

/// FNV-1a fingerprint of one job spec: every field that shapes the job's
/// probe trace or its admission (name, tenant, request knobs, SLOs).
/// Trace-neutral knobs — threads, per-run journal paths —
/// are deliberately excluded, so a resume may change them freely.
std::uint64_t hash_job(const JobSpec& job);

/// Manifest header for a workload about to run under the given capacity
/// and quota configuration.
BatchManifestHeader make_manifest_header(const Workload& workload,
                                         int capacity_nodes,
                                         int tenant_max_jobs);

/// Resume-invariant FNV-1a digest of a RunReport: the selection, the
/// accounting, and the full probe trace — excluding the resume
/// bookkeeping (replayed flags/counters, journal paths) that legitimately
/// differs between an uninterrupted run and its replayed twin. A replay
/// whose digest differs from the manifest's finished record diverged and
/// is refused (kReplayDiverged).
std::uint64_t digest_run_report(const system::RunReport& report);

}  // namespace mlcd::service
