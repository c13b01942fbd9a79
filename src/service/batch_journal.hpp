// BatchLog: the group-committed write-ahead log that makes a durable
// batch (`mlcd batch --journal-dir D`) survive a kill of the process.
//
// One MLCDJ1-framed, append-only file, `D/batch.mlcdb`, holds the whole
// batch in order:
//
//   batch_header — the workload fingerprint (version 2);
//   admitted     — the roster: every job that passed admission control,
//                  written up front and committed as one group;
//   assigned     — a job started; the record carries the job's
//                  journal::JournalHeader so a resume still refuses a job
//                  whose search changed (kHeaderMismatch);
//   probe, degrade — the job's write-ahead run records, the same payloads
//                  a solo run journal holds, tagged with `"job"`;
//   finished     — the job completed, with its outcome and a digest of
//                  its RunReport for replay verification.
//
// Records are *staged* into one in-memory buffer and made durable by a
// commit: one write plus one fsync for every record staged so far. A
// probe's record must be durable before the probe is admitted, so the
// scheduler parks the session on the log's commit fence — the same way
// it parks for capacity — and the lane moves on. A lane that finds staged
// bytes and no commit in flight becomes the committer; when its round
// ends it restages every waiter the round made durable. No thread waits
// on the disk for anyone else, and a commit carries every record its
// lanes staged meanwhile: a batch pays one fsync per commit round, not
// one per record.
//
// Lifecycle records never wait on the fence. Order in one append-only
// file gives the prefix property: whatever survives a kill is a prefix of
// what was staged, so a job's probe records are never durable without
// its assigned record, and a lost finished record only costs the resume
// a replay. The staging buffer is bounded by the batch itself: each job
// has at most one probe record in flight, plus its lifecycle records.
//
// `mlcd batch --journal-dir D --resume` streams the log once
// (read_manifest), verifies the fingerprint, and re-plans the fleet:
// finished jobs replay their logged probes bit-identically with zero
// probes re-executed, in-flight jobs replay their prefix and continue
// live, and jobs with no probe records run fresh. A version-1 directory
// (manifest plus per-job `.mlcdj` files) is refused with kVersionMismatch.
// See docs/crash-safety.md.
//
// Storage faults: the process-global journal::IoFaultInjector is
// consulted once per staged record, so `fail_at` indexes records; the
// fault fires when the commit holding that record writes. A failed
// commit fails every record staged so far, and the log then accepts
// nothing more.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "journal/journal.hpp"
#include "mlcd/mlcd.hpp"
#include "service/workload.hpp"

namespace mlcd::service {

/// Batch log format version. Bumped on any change to the record layout;
/// an unsupported version refuses with kVersionMismatch. Version 1 was a
/// lifecycle-only manifest beside one run journal file per job.
inline constexpr int kBatchManifestVersion = 2;

/// Fingerprint of the workload a log belongs to. A resume whose own
/// workload/config hashes differently is refused (kHeaderMismatch): the
/// log describes a different batch.
struct BatchManifestHeader {
  int version = kBatchManifestVersion;
  /// FNV-1a over every job's hash_job, in workload order.
  std::uint64_t workload_hash = 0;
  std::uint64_t chaos_seed = 0;
  int job_count = 0;
  int capacity_nodes = 0;
  int tenant_max_jobs = 0;
};

/// Lifecycle phase a job record advances a job to.
enum class BatchJobPhase {
  kAdmitted,
  kAssigned,
  kFinished,
};

/// One lifecycle record: job `job` (index into the workload's job list)
/// reached `phase`. `header` is meaningful for kAssigned, the outcome
/// fields only for kFinished.
struct BatchJobRecord {
  BatchJobPhase phase = BatchJobPhase::kAdmitted;
  int job = 0;
  std::string name;
  journal::JournalHeader header;
  bool ok = false;
  std::string outcome;  ///< JobStats outcome label ("ok", "journal_error", ...)
  std::uint64_t report_digest = 0;
};

/// Latest logged state of one job, distilled from a read-back.
struct BatchJobState {
  bool admitted = false;
  bool assigned = false;
  bool finished = false;
  bool ok = false;
  std::string outcome;
  std::uint64_t report_digest = 0;
  /// The job's search, from its latest assigned record.
  journal::JournalHeader header;
  /// Where the probe records logged since that assigned record sit in
  /// the log, in log order: the replay a resume feeds the job
  /// (read_probe_records).
  std::vector<journal::RecordSpan> probe_spans;
};

/// A log read back from disk (torn tail dropped, like read_journal).
struct BatchManifestContents {
  BatchManifestHeader header;
  std::vector<BatchJobState> jobs;  ///< sized header.job_count
  std::uint64_t valid_bytes = 0;
  bool truncated_tail = false;
};

/// The group-committed batch log. Thread-safe: every lane stages and
/// commits through one instance.
class BatchLog {
 public:
  /// How a probe record's commit fence settled for its session.
  enum class Fence {
    kDurable,  ///< already committed: admit the probe now
    kFailed,   ///< the log failed: the record may be lost
    kParked,   ///< waiting; a committer restages the session
  };

  /// A session parked on the fence, or released by a commit round.
  struct Waiter {
    std::size_t job = 0;
    std::size_t lane = 0;     ///< lane whose run queue the restage targets
    bool durable = false;     ///< set on release: false = the commit failed
  };

  /// Creates the log at `path` (the header made durable under a
  /// temporary name and renamed into place, directory fsync'd), then
  /// stages one admitted record per `roster` name and commits them as a
  /// single group. Throws journal::JournalError(kIo).
  static std::unique_ptr<BatchLog> create(
      const std::string& path, const BatchManifestHeader& header,
      const std::vector<std::string>& roster);

  /// Reopens an existing log for continuation after a resume, truncating
  /// a torn tail first. Throws journal::JournalError(kIo).
  static std::unique_ptr<BatchLog> append_to(const std::string& path,
                                             std::uint64_t valid_bytes);

  /// A log that failed before it existed (degrade policy): it accepts
  /// nothing, and error() is `reason`.
  static std::unique_ptr<BatchLog> failed(const std::string& path,
                                          const std::string& reason);

  BatchLog(const BatchLog&) = delete;
  BatchLog& operator=(const BatchLog&) = delete;

  /// Stages a record without touching the disk. Returns its log sequence
  /// number (LSN), or nullopt once the log has failed — the record is
  /// then lost and its job counted in lost_jobs().
  std::optional<std::uint64_t> stage(const BatchJobRecord& record);
  std::optional<std::uint64_t> stage_probe(int job,
                                           const journal::ProbeRecord& record);
  std::optional<std::uint64_t> stage_degrade(
      int job, const journal::DegradeRecord& record);

  /// Parks `waiter` until record `lsn` is durable. kParked runs
  /// `on_park` under the log lock, before any committer can release the
  /// waiter — the caller's last chance to touch the session's state.
  Fence park(std::uint64_t lsn, const Waiter& waiter,
             const std::function<void()>& on_park);

  /// Runs one commit round — one write and one fsync of every staged
  /// record — when records are staged and no other round is in flight;
  /// returns false without doing anything otherwise. Waiters the round
  /// settles (durable, or failed with the log) are appended to
  /// `released` for the caller to restage.
  bool commit(std::vector<Waiter>& released);

  /// Commits until nothing is staged. For single-threaded use (the
  /// roster, the end of a batch): it assumes no round is in flight.
  void flush();

  /// First failure, empty while the log is healthy.
  std::string error() const;
  /// Jobs with a record the failure lost (staged into a failed commit,
  /// or refused after it), each listed once, ascending.
  std::vector<int> lost_jobs() const;
  /// Commit rounds that made records durable, and records staged (the
  /// header excluded).
  std::int64_t commits() const;
  std::int64_t records() const;

  const std::string& path() const noexcept { return path_; }

 private:
  BatchLog(std::string path, std::optional<journal::FramedWriter> writer,
           std::string error);
  std::optional<std::uint64_t> stage_payload(int job,
                                             std::string_view payload);

  const std::string path_;
  /// Written only by the lane holding the in-flight round.
  std::optional<journal::FramedWriter> writer_;

  mutable std::mutex mutex_;
  std::string staged_;            ///< framed records awaiting a commit
  std::vector<int> staged_jobs_;  ///< job of each staged record (-1: none)
  std::optional<journal::PendingFault> staged_fault_;  ///< first injected
  std::string writing_;           ///< the in-flight round's bytes
  std::vector<int> writing_jobs_;
  std::uint64_t staged_lsn_ = 0;   ///< LSN of the last staged record
  std::uint64_t durable_lsn_ = 0;  ///< LSN of the last committed record
  bool in_flight_ = false;
  struct Parked {
    std::uint64_t lsn;
    Waiter waiter;
  };
  std::vector<Parked> waiters_;
  std::string error_;
  std::vector<int> lost_jobs_;
  std::int64_t commits_ = 0;
};

/// One job's share of the batch log as its session's write-ahead sink.
/// append_probe() only stages: the scheduler reads the record's LSN with
/// take_staged() and holds the step back on the commit fence until the
/// record is durable. Once the log has failed both appends throw
/// journal::JournalError(kIo), so the session's --journal-on-error
/// policy applies exactly as for a run journal.
class BatchLogSink final : public journal::RecordSink {
 public:
  void bind(BatchLog* log, int job) noexcept {
    log_ = log;
    job_ = job;
  }

  void append_probe(const journal::ProbeRecord& record) override;
  void append_degrade(const journal::DegradeRecord& record) override;

  /// LSN of the probe record staged since the last call, if any.
  std::optional<std::uint64_t> take_staged() noexcept {
    std::optional<std::uint64_t> lsn = staged_;
    staged_.reset();
    return lsn;
  }

 private:
  [[noreturn]] void refuse() const;

  BatchLog* log_ = nullptr;
  int job_ = 0;
  std::optional<std::uint64_t> staged_;
};

/// The log's own payloads, composed by journal::Composer: the header
/// record that opens the log, and one job's lifecycle record (an
/// assigned record nests the job's journal::header_payload fields under
/// `"header"`).
std::string batch_header_payload(const BatchManifestHeader& header);
std::string job_record_payload(const BatchJobRecord& record);

/// Reads a log back in one streaming pass: header first, then every
/// record folded into per-job state — lifecycle flags, the latest
/// assigned header, and where the probes logged since it sit. Torn tail
/// dropped; corruption at rest, a missing/alien header, an out-of-range
/// job index, a probe for a job never assigned, or an unsupported
/// version throw typed journal::JournalError. Probe payloads are parsed
/// only when read back with read_probe_records — a resume does that as
/// each job starts, so the log's records are never all in memory at
/// once.
BatchManifestContents read_manifest(const std::string& path);

/// Reads and parses the probe records at `spans` of the log at `path`.
/// Throws typed journal::JournalError (kCorrupt for a record that no
/// longer frames or parses, kIo for a read failure).
std::vector<journal::ProbeRecord> read_probe_records(
    const std::string& path, const std::vector<journal::RecordSpan>& spans);

/// FNV-1a fingerprint of one job spec: every field that shapes the job's
/// probe trace or its admission (name, tenant, request knobs, SLOs).
/// Trace-neutral knobs — threads, per-run journal paths —
/// are deliberately excluded, so a resume may change them freely.
std::uint64_t hash_job(const JobSpec& job);

/// Log header for a workload about to run under the given capacity and
/// quota configuration.
BatchManifestHeader make_manifest_header(const Workload& workload,
                                         int capacity_nodes,
                                         int tenant_max_jobs);

/// Resume-invariant FNV-1a digest of a RunReport: the selection, the
/// accounting, and the full probe trace — excluding the resume
/// bookkeeping (replayed flags/counters, journal paths) that legitimately
/// differs between an uninterrupted run and its replayed twin. A replay
/// whose digest differs from the log's finished record diverged and is
/// refused (kReplayDiverged).
std::uint64_t digest_run_report(const system::RunReport& report);

}  // namespace mlcd::service
