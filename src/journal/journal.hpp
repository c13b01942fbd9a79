// Durable run journal: the crash-safety layer of the search controller.
//
// The paper's protective stop condition guarantees the *search* never
// overspends the user's budget, but the controller process itself is a
// single point of failure: if it dies mid-search, every dollar already
// spent on probes is lost and a rerun spends it again — exactly the
// over-spend the stop condition forbids. The RunJournal makes probe
// spend durable: a write-ahead, append-only JSONL file that the search
// session appends every probe outcome to (fsync'd) *before* the probe
// is admitted into the in-memory trace. `mlcd --resume <journal>`
// replays the valid records (truncating a torn tail), restores the
// profiler's stream positions and spend accounting, and continues the
// search bit-identically to an uninterrupted run — with zero probes
// re-executed against the cloud.
//
// File format (one record per line):
//
//   MLCDJ1 <payload-bytes> <crc32-hex> <payload-json>\n
//
// The fixed magic pins the framing version; the length and CRC-32 (of
// the payload bytes) make torn writes detectable. A record that fails
// to frame at the *end* of the file is a torn tail — the crash landed
// mid-append — and is dropped on replay. A frame or checksum failure
// anywhere *before* the tail means the file was corrupted at rest and
// the journal is refused with a typed error: resuming from silently
// patched history could re-spend probes or violate the reserve.
//
// The first record is a versioned header capturing everything that
// shapes the probe sequence (scenario, seed, method, catalog hash,
// profiler/fault knobs, surrogate cadence, warm-start hash). A resume
// request whose own configuration hashes differently is refused: the
// journal describes a different search.
//
// The service's batch log (service/batch_journal.hpp) shares this
// framing and these record payloads: its probe and degrade records are
// the same payloads tagged with a `"job"` index, and it stages them
// into one file that a commit fence makes durable a group at a time.
// The storage-fault injector is consulted once per record either way —
// per run-journal append, and per record staged into the batch log — so
// `fail_at` indexes records, not fsyncs.
#pragma once

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace mlcd::cloud {
class InstanceCatalog;
}  // namespace mlcd::cloud

namespace mlcd::util {
class JsonValue;
}  // namespace mlcd::util

namespace mlcd::journal {

/// Why a journal could not be written, read, or resumed from.
enum class JournalErrorCode {
  kIo,              ///< open/write/fsync failure
  kCorrupt,         ///< framing/CRC failure before the tail record
  kVersionMismatch, ///< journal written by an incompatible format version
  kHeaderMismatch,  ///< journal describes a different search than requested
  kReplayDiverged,  ///< replayed outcome contradicts the seeded substrate
};

std::string_view journal_error_code_name(JournalErrorCode code) noexcept;

/// Typed journal failure: machine-checkable code + human message.
class JournalError : public std::runtime_error {
 public:
  JournalError(JournalErrorCode code, const std::string& message);
  JournalErrorCode code() const noexcept { return code_; }

 private:
  JournalErrorCode code_;
};

/// Policy for journal append failures mid-run (`--journal-on-error`).
/// Either way a failed append must never corrupt in-memory search
/// state: the write-ahead record is composed from the outcome before
/// the trace admits it, so the failure leaves at worst a torn record
/// prefix on disk.
enum class OnError {
  kAbort,    ///< surface the typed JournalError; the run fails
  kDegrade,  ///< drop to journal-less operation with a reported warning
};

/// Which storage fault the injector fires.
enum class IoFaultKind {
  kShortWrite,  ///< torn line: only a prefix of the framed record lands
  kFsyncFail,   ///< data buffered but the durability barrier fails
  kEnospc,      ///< no space: nothing of the record reaches the disk
};

/// Seeded storage-fault injector for the framed journal writers. Tests
/// install one process-globally (set_io_fault_injector); every record —
/// each run-journal append and each record staged into the batch log —
/// consults it once, so `fail_at` indexes the global record sequence. A
/// fault drawn for a staged batch-log record fires when the commit that
/// holds it writes. Thread-safe: concurrent records each draw a
/// distinct index.
class IoFaultInjector {
 public:
  struct Options {
    std::uint64_t seed = 1;
    double fault_rate = 0.0;  ///< per-append fault probability
    long long fail_at = -1;   ///< 0-based append index to fail; -1 = off
    IoFaultKind kind = IoFaultKind::kFsyncFail;
  };
  explicit IoFaultInjector(const Options& options) : options_(options) {}

  /// Fate of the next record: the fault to inject, or nullopt.
  std::optional<IoFaultKind> next_append() noexcept;

  /// Records observed so far (for sweeping fail_at over a run's length).
  std::uint64_t appends() const noexcept {
    return counter_.load(std::memory_order_relaxed);
  }

 private:
  Options options_;
  std::atomic<std::uint64_t> counter_{0};
};

/// Installs (or clears, with nullptr) the process-global fault injector
/// consulted by every framed record. The injector must outlive its
/// installation window; tests clear the hook before destroying it.
void set_io_fault_injector(IoFaultInjector* injector) noexcept;
IoFaultInjector* io_fault_injector() noexcept;

/// Journal format version (the number in the MLCDJ1 frame magic and the
/// header record). Bumped on any change to framing or record layout.
/// Version 2 adds the fidelity ladder: a `fidelity_ladder` header field
/// and per-record `sample_fraction`/`iteration_tier` keys. Both are
/// emitted sparsely — a run with the ladder disabled writes a version-1
/// journal byte-identically, and version-1 journals read back as
/// full-fidelity runs.
inline constexpr int kJournalFormatVersion = 2;

/// Everything that shapes the probe sequence of a run. Two runs whose
/// headers are equal and whose binaries match produce bit-identical
/// probe traces — which is what makes replay + continue sound.
struct JournalHeader {
  int version = kJournalFormatVersion;
  std::string method;    ///< searcher name ("heterbo", ...)
  std::string model;     ///< zoo model name
  std::string platform;  ///< "tensorflow" | "mxnet"
  int scenario_kind = 0; ///< search::ScenarioKind as int
  double deadline_hours = 0.0;  ///< 0 = unconstrained
  double budget_dollars = 0.0;  ///< 0 = unconstrained
  std::uint64_t seed = 1;
  int max_nodes = 0;
  bool use_spot = false;
  int gp_refit_every = 1;
  /// FNV-1a over the catalog view the search runs on (restricted subset
  /// included): a journal recorded against different instances/prices
  /// must not seed a resume.
  std::uint64_t catalog_hash = 0;
  /// FNV-1a over every profiler knob (fault hazards, retry policy,
  /// watchdog deadlines, noise): these shape outcomes and stream draws.
  std::uint64_t profiler_options_hash = 0;
  /// FNV-1a over the warm-start points (they steer the surrogate).
  std::uint64_t warm_start_hash = 0;
  /// profiler::hash_fidelity_ladder of the run's fidelity ladder; 0 when
  /// the ladder is disabled (and for every version-1 journal). A resume
  /// under a different ladder proposes different probes and is refused.
  std::uint64_t fidelity_ladder_hash = 0;
};

/// One journaled launch attempt (mirrors cloud::AttemptRecord).
struct AttemptEntry {
  int fault = 0;               ///< cloud::FaultKind as int
  double hours = 0.0;          ///< wall time the attempt consumed
  double cost = 0.0;           ///< dollars billed for the attempt
  double backoff_hours = 0.0;  ///< delay before the next attempt
};

/// One journaled probe outcome (mirrors search::ProbeStep; kept in
/// primitive terms so the journal layer stays below the search layer).
struct ProbeRecord {
  std::size_t type_index = 0;
  int nodes = 0;
  bool failed = false;
  bool feasible = false;
  double measured_speed = 0.0;
  double true_speed = 0.0;
  double profile_hours = 0.0;
  double profile_cost = 0.0;
  double cum_profile_hours = 0.0;
  double cum_profile_cost = 0.0;
  double acquisition = 0.0;
  std::string reason;
  int attempts = 1;
  int fault = 0;  ///< cloud::FaultKind as int
  double backoff_hours = 0.0;
  std::vector<AttemptEntry> attempt_log;
  /// Probe fidelity (profiler::Fidelity in primitive terms; the journal
  /// layer stays below the profiler layer). Defaults are the full probe;
  /// the fields are serialized only when reduced.
  double sample_fraction = 1.0;
  int iteration_tier = 0;
};

/// One journaled searcher-degradation episode (surrogate refit failed;
/// the iteration fell back to the prior-mean safe mode).
struct DegradeRecord {
  int iteration = 0;
  std::string why;
};

/// A journal read back from disk.
struct JournalContents {
  JournalHeader header;
  std::vector<ProbeRecord> probes;
  std::vector<DegradeRecord> degraded;
  /// Bytes of the file that framed cleanly; a resume reopens the file
  /// truncated to this length before appending.
  std::uint64_t valid_bytes = 0;
  /// True when a torn tail record was dropped.
  bool truncated_tail = false;
};

/// A fault the injector drew for one record, applied when the bytes
/// holding that record are written: the record starts `offset` bytes
/// into the write and frames to `size` bytes.
struct PendingFault {
  IoFaultKind kind = IoFaultKind::kFsyncFail;
  std::size_t offset = 0;
  std::size_t size = 0;
};

/// Append-only writer of MLCDJ1-framed records. RunJournal appends one
/// record per call; the service batch log writes a whole commit group of
/// pre-framed records with one write_durably(). Either way the bytes are
/// written, flushed, and fsync'd before the call returns, so storage-
/// fault injection and the write-ahead discipline behave identically.
class FramedWriter {
 public:
  /// Starts a fresh framed file at `path` whose first record is
  /// `header`, replacing any existing file. The header is written and
  /// fsync'd under `<path>.tmp`, which is then renamed onto `path` and
  /// the parent directory fsync'd, so `path` is only ever visible with a
  /// durable header and its name survives a power loss. Throws
  /// JournalError(kIo).
  static FramedWriter create(const std::string& path,
                             const std::string& header);

  /// Reopens an existing framed file for appending, truncating it to
  /// `valid_bytes` first (drops a torn tail record).
  static FramedWriter append_to(const std::string& path,
                                std::uint64_t valid_bytes);

  FramedWriter(FramedWriter&& other) noexcept;
  FramedWriter& operator=(FramedWriter&& other) noexcept;
  FramedWriter(const FramedWriter&) = delete;
  FramedWriter& operator=(const FramedWriter&) = delete;
  ~FramedWriter();

  /// Frames `payload`, draws its fate from the installed IoFaultInjector,
  /// and durably appends it. Throws JournalError(kIo) on any
  /// write/flush/fsync failure, real or injected. A failed append leaves
  /// no in-memory residue — at worst a torn record prefix on disk, which
  /// readers drop as a torn tail.
  void append(const std::string& payload);

  /// Appends already-framed `bytes` with one write and one fsync. A
  /// `fault` lands what a real one would (nothing of its record on
  /// ENOSPC, half of it on a short write, everything on an fsync
  /// failure) and then throws JournalError(kIo), as does a real failure.
  void write_durably(std::string_view bytes,
                     const std::optional<PendingFault>& fault = std::nullopt);

  const std::string& path() const noexcept { return path_; }

 private:
  FramedWriter(std::string path, std::FILE* file);

  std::string path_;
  std::FILE* file_ = nullptr;
};

/// Fsyncs directory `dir` so the names created or renamed in it survive a
/// power loss. A no-op where directories cannot be opened for fsync
/// (Windows). Throws JournalError(kIo).
void fsync_directory(const std::string& dir);

/// Where a search session's write-ahead records go: a RunJournal file
/// (solo runs, `mlcd deploy --journal`) or one job's share of the
/// service's batch log. append_probe() must have made the record
/// durable — or handed it to a caller that holds the step back until it
/// is — before the step is admitted. Throws JournalError on failure.
class RecordSink {
 public:
  virtual ~RecordSink() = default;
  virtual void append_probe(const ProbeRecord& record) = 0;
  virtual void append_degrade(const DegradeRecord& record) = 0;
};

/// Append-only journal writer. Every append is framed, written, and
/// fsync'd before returning — when append_probe() returns, the probe's
/// spend survives a crash of this process (write-ahead discipline: the
/// caller admits the probe into its in-memory trace only afterwards).
class RunJournal final : public RecordSink {
 public:
  /// Starts a fresh journal at `path` (replacing any existing file)
  /// whose first record is the durable header (FramedWriter::create).
  /// Throws JournalError(kIo).
  static RunJournal create(const std::string& path,
                           const JournalHeader& header);

  /// Reopens an existing journal for continuation after replay,
  /// truncating it to `valid_bytes` first (drops a torn tail record).
  static RunJournal append_to(const std::string& path,
                              std::uint64_t valid_bytes);

  RunJournal(RunJournal&& other) noexcept;
  RunJournal& operator=(RunJournal&& other) noexcept;
  RunJournal(const RunJournal&) = delete;
  RunJournal& operator=(const RunJournal&) = delete;
  ~RunJournal() override;

  void append_probe(const ProbeRecord& record) override;
  void append_degrade(const DegradeRecord& record) override;

  const std::string& path() const noexcept { return writer_.path(); }

 private:
  explicit RunJournal(FramedWriter writer);

  FramedWriter writer_;
};

/// Reads a journal back: frames and parses every record, validating
/// length + CRC. A torn final record is dropped (truncated_tail set);
/// any earlier framing/CRC/parse failure throws JournalError(kCorrupt),
/// a missing/alien header throws kCorrupt, and an unsupported format
/// version throws kVersionMismatch.
JournalContents read_journal(const std::string& path);

/// Frames a payload into one MLCDJ1 journal line (magic, byte length,
/// CRC-32 of the payload, payload, newline).
std::string frame_record(const std::string& payload);

/// The head of a payload's MLCDJ1 line, "MLCDJ1 <payload-bytes>
/// <crc32-hex> ": the line is this head, the payload and a newline.
/// Computing it apart from the append lets a writer that shares its
/// buffer run the CRC before it takes the buffer's lock.
class FrameHead {
 public:
  explicit FrameHead(std::string_view payload) noexcept;
  std::string_view view() const noexcept { return {bytes_, size_}; }

 private:
  char bytes_[40] = {};  ///< magic, space, <= 20 digits, space, 8 hex, space
  std::size_t size_ = 0;
};

/// Composes one single-line JSON record payload into one reserved
/// string, fields in the order they are added. Integers are written in
/// decimal and doubles by std::to_chars in `general` format at precision
/// 17, which the standard defines as printf's `%.17g`: the shortest
/// fixed precision that round-trips every IEEE double through strtod,
/// which resume's bit-identity needs (util::JsonWriter's display-oriented
/// %.10g does not). Strings are escaped in place
/// (util::JsonWriter::escape_to); keys are written as given.
class Composer {
 public:
  Composer();

  Composer& field(std::string_view key, std::string_view text);
  /// String literals must not fall into the bool overload (const char* ->
  /// bool is a standard conversion and would beat string_view).
  Composer& field(std::string_view key, const char* text) {
    return field(key, std::string_view(text));
  }
  Composer& field(std::string_view key, double v);
  Composer& field(std::string_view key, int v);
  Composer& field(std::string_view key, std::size_t v);
  Composer& field(std::string_view key, bool v);
  /// uint64 values (seeds, hashes) exceed the double-exact JSON number
  /// range, so they travel as decimal strings.
  Composer& field_u64(std::string_view key, std::uint64_t v);

  /// Nested values: `open_object(key)` starts `"key":{`, `open_object()`
  /// an element of the enclosing array, `open_array(key)` `"key":[`.
  Composer& open_object(std::string_view key);
  Composer& open_object();
  Composer& close_object();
  Composer& open_array(std::string_view key);
  Composer& close_array();

  /// Closes the record and hands over its bytes; the composer is spent.
  std::string finish();

 private:
  void key(std::string_view key);

  std::string out_;
};

/// Record payloads, shared by the run journal and the batch log. `job`
/// >= 0 tags a probe/degrade record with its batch job index (a `"job"`
/// key right after the type); -1 writes the untagged run-journal bytes.
std::string header_payload(const JournalHeader& header);
/// The header payload's fields, added to `c` (the batch log nests them
/// in a job's assigned record).
void header_fields(Composer& c, const JournalHeader& header);
std::string probe_payload(const ProbeRecord& record, int job = -1);
std::string degrade_payload(const DegradeRecord& record, int job = -1);

/// Parsers for those payloads (already parsed as JSON objects). Missing
/// or mistyped fields throw JournalError(kCorrupt); an unsupported header
/// version throws kVersionMismatch. Unknown keys — such as a batch log's
/// `"job"` tag — are ignored.
JournalHeader parse_header(const util::JsonValue& record);
ProbeRecord parse_probe(const util::JsonValue& record);
DegradeRecord parse_degrade(const util::JsonValue& record);

/// Name of the first header field on which `got` (what a journal
/// recorded) differs from `want` (what this run would record); empty
/// when they describe the same search.
std::string header_diff(const JournalHeader& got, const JournalHeader& want);

/// Where one record sits in a framed file: the byte offset of its line
/// and the line's length, newline included.
struct RecordSpan {
  std::uint64_t offset = 0;
  std::uint64_t size = 0;
};

/// How far a streaming scan read cleanly.
struct FramedScan {
  /// Bytes of the file that framed cleanly; a writer reopening the file
  /// truncates to this length before appending.
  std::uint64_t valid_bytes = 0;
  /// True when a torn tail record was dropped.
  bool truncated_tail = false;
};

/// Streams a framed file record by record — holding one read buffer,
/// never the whole file — and hands each cleanly framed payload, with
/// the span of its line, to `on_payload`. A record that fails to frame,
/// or whose payload `on_payload` rejects by returning false, is a torn
/// append when it is the final record (dropped, truncated_tail set) and
/// corruption at rest anywhere earlier (JournalError(kCorrupt)).
/// Exceptions from `on_payload` propagate. Throws JournalError(kIo) when
/// the file cannot be read.
FramedScan scan_framed_file(
    const std::string& path,
    const std::function<bool(std::string_view payload,
                             const RecordSpan& span)>& on_payload);

/// Reads back the records at `spans` (found by an earlier scan of the
/// same file), handing each payload to `on_payload` in order. A span
/// that no longer frames throws JournalError(kCorrupt); a read failure
/// throws kIo.
void read_framed_records(
    const std::string& path, const std::vector<RecordSpan>& spans,
    const std::function<void(std::string_view payload)>& on_payload);

/// CRC-32 (IEEE 802.3, reflected) of a byte string.
std::uint32_t crc32(std::string_view bytes) noexcept;

/// FNV-1a content hash of a catalog view: names, device kinds, prices,
/// spot prices, revocation rates, specs — everything that shapes probe
/// outcomes or billing.
std::uint64_t hash_catalog(const cloud::InstanceCatalog& catalog) noexcept;

/// Incremental FNV-1a hasher for mixed field streams (used to fingerprint
/// option structs into the journal header).
class HashStream {
 public:
  HashStream& mix(std::uint64_t v) noexcept;
  HashStream& mix(double v) noexcept;  ///< by bit pattern (NaN-stable)
  HashStream& mix(int v) noexcept;
  HashStream& mix(bool v) noexcept;
  HashStream& mix(std::string_view s) noexcept;
  std::uint64_t digest() const noexcept { return hash_; }

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ULL;
};

}  // namespace mlcd::journal
