#include "journal/journal.hpp"

#include <array>
#include <cerrno>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <sstream>
#include <utility>

#include "cloud/instance.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"

#if defined(_WIN32)
#include <io.h>
#else
#include <unistd.h>
#endif

namespace mlcd::journal {
namespace {

// The journal demands bit-exact double round-trips (resume must
// reproduce the uninterrupted trace to the last bit), so records are
// composed locally at %.17g — the shortest precision guaranteed to
// round-trip IEEE doubles through strtod — rather than with
// util::JsonWriter's display-oriented %.10g.
std::string format_double(double v) {
  char buf[48];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string format_u64(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%" PRIu64, v);
  return buf;
}

class Composer {
 public:
  Composer& field(std::string_view key, std::string_view text) {
    sep();
    out_ << '"' << key << "\":\"" << util::JsonWriter::escape(text) << '"';
    return *this;
  }
  /// String literals must not fall into the bool overload (const char* ->
  /// bool is a standard conversion and would beat string_view).
  Composer& field(std::string_view key, const char* text) {
    return field(key, std::string_view(text));
  }
  Composer& field(std::string_view key, double v) {
    return raw(key, format_double(v));
  }
  Composer& field(std::string_view key, int v) {
    return raw(key, std::to_string(v));
  }
  Composer& field(std::string_view key, std::size_t v) {
    return raw(key, std::to_string(v));
  }
  Composer& field(std::string_view key, bool v) {
    return raw(key, v ? "true" : "false");
  }
  /// uint64 values (seeds, hashes) exceed the double-exact JSON number
  /// range, so they travel as decimal strings.
  Composer& field_u64(std::string_view key, std::uint64_t v) {
    return field(key, format_u64(v));
  }
  Composer& raw(std::string_view key, std::string_view json) {
    sep();
    out_ << '"' << key << "\":" << json;
    return *this;
  }
  std::string str() const { return "{" + out_.str() + "}"; }

 private:
  void sep() {
    if (!first_) out_ << ',';
    first_ = false;
  }
  std::ostringstream out_;
  bool first_ = true;
};

std::string compose_header(const JournalHeader& h) {
  // Version is derived from content, not from h.version: a run without a
  // fidelity ladder writes a version-1 header byte-identically to the
  // pre-ladder format (the golden suite pins those bytes), and only a
  // run that actually uses the ladder stamps version 2.
  const int version = h.fidelity_ladder_hash != 0 ? 2 : 1;
  Composer c;
  c.field("t", "header")
      .field("version", version)
      .field("method", h.method)
      .field("model", h.model)
      .field("platform", h.platform)
      .field("scenario_kind", h.scenario_kind)
      .field("deadline_hours", h.deadline_hours)
      .field("budget_dollars", h.budget_dollars)
      .field_u64("seed", h.seed)
      .field("max_nodes", h.max_nodes)
      .field("use_spot", h.use_spot)
      .field("gp_refit_every", h.gp_refit_every)
      .field_u64("catalog_hash", h.catalog_hash)
      .field_u64("profiler_options_hash", h.profiler_options_hash)
      .field_u64("warm_start_hash", h.warm_start_hash);
  if (h.fidelity_ladder_hash != 0) {
    c.field_u64("fidelity_ladder", h.fidelity_ladder_hash);
  }
  return c.str();
}

std::string compose_probe(const ProbeRecord& p) {
  std::ostringstream attempts;
  attempts << '[';
  for (std::size_t i = 0; i < p.attempt_log.size(); ++i) {
    if (i > 0) attempts << ',';
    Composer a;
    a.field("fault", p.attempt_log[i].fault)
        .field("hours", p.attempt_log[i].hours)
        .field("cost", p.attempt_log[i].cost)
        .field("backoff_hours", p.attempt_log[i].backoff_hours);
    attempts << a.str();
  }
  attempts << ']';
  Composer c;
  c.field("t", "probe")
      .field("type_index", p.type_index)
      .field("nodes", p.nodes)
      .field("failed", p.failed)
      .field("feasible", p.feasible)
      .field("measured_speed", p.measured_speed)
      .field("true_speed", p.true_speed)
      .field("profile_hours", p.profile_hours)
      .field("profile_cost", p.profile_cost)
      .field("cum_profile_hours", p.cum_profile_hours)
      .field("cum_profile_cost", p.cum_profile_cost)
      .field("acquisition", p.acquisition)
      .field("reason", p.reason)
      .field("attempts", p.attempts)
      .field("fault", p.fault)
      .field("backoff_hours", p.backoff_hours)
      .raw("attempt_log", attempts.str());
  // Fidelity fields travel sparsely: full-fidelity records (and thus
  // every record of a ladder-free run) keep the version-1 byte layout.
  if (p.sample_fraction != 1.0 || p.iteration_tier != 0) {
    c.field("sample_fraction", p.sample_fraction)
        .field("iteration_tier", p.iteration_tier);
  }
  return c.str();
}

std::string compose_degrade(const DegradeRecord& d) {
  Composer c;
  c.field("t", "degrade").field("iteration", d.iteration).field("why", d.why);
  return c.str();
}

[[noreturn]] void fail(JournalErrorCode code, const std::string& message) {
  throw JournalError(code, message);
}

double require_number(const util::JsonValue& obj, std::string_view key) {
  if (!obj.contains(key) || !obj.at(key).is_number()) {
    fail(JournalErrorCode::kCorrupt,
         "journal record missing numeric field '" + std::string(key) + "'");
  }
  return obj.at(key).as_number();
}

int require_int(const util::JsonValue& obj, std::string_view key) {
  return static_cast<int>(require_number(obj, key));
}

bool require_bool(const util::JsonValue& obj, std::string_view key) {
  if (!obj.contains(key) || !obj.at(key).is_bool()) {
    fail(JournalErrorCode::kCorrupt,
         "journal record missing boolean field '" + std::string(key) + "'");
  }
  return obj.at(key).as_bool();
}

std::string require_string(const util::JsonValue& obj, std::string_view key) {
  if (!obj.contains(key) || !obj.at(key).is_string()) {
    fail(JournalErrorCode::kCorrupt,
         "journal record missing string field '" + std::string(key) + "'");
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
         "journal field '" + std::string(key) + "' is not a uint64");
  }
  return value;
}

JournalHeader parse_header(const util::JsonValue& obj) {
  JournalHeader h;
  h.version = require_int(obj, "version");
  if (h.version < 1 || h.version > kJournalFormatVersion) {
    fail(JournalErrorCode::kVersionMismatch,
         "journal format version " + std::to_string(h.version) +
             " is not supported (expected 1.." +
             std::to_string(kJournalFormatVersion) + ")");
  }
  h.method = require_string(obj, "method");
  h.model = require_string(obj, "model");
  h.platform = require_string(obj, "platform");
  h.scenario_kind = require_int(obj, "scenario_kind");
  h.deadline_hours = require_number(obj, "deadline_hours");
  h.budget_dollars = require_number(obj, "budget_dollars");
  h.seed = require_u64(obj, "seed");
  h.max_nodes = require_int(obj, "max_nodes");
  h.use_spot = require_bool(obj, "use_spot");
  h.gp_refit_every = require_int(obj, "gp_refit_every");
  h.catalog_hash = require_u64(obj, "catalog_hash");
  h.profiler_options_hash = require_u64(obj, "profiler_options_hash");
  h.warm_start_hash = require_u64(obj, "warm_start_hash");
  // Absent in version-1 headers (and in version-2 headers of ladder-free
  // runs, which are never written — but tolerate them): ladder disabled.
  h.fidelity_ladder_hash =
      obj.contains("fidelity_ladder") ? require_u64(obj, "fidelity_ladder") : 0;
  return h;
}

ProbeRecord parse_probe(const util::JsonValue& obj) {
  ProbeRecord p;
  p.type_index = static_cast<std::size_t>(require_number(obj, "type_index"));
  p.nodes = require_int(obj, "nodes");
  p.failed = require_bool(obj, "failed");
  p.feasible = require_bool(obj, "feasible");
  p.measured_speed = require_number(obj, "measured_speed");
  p.true_speed = require_number(obj, "true_speed");
  p.profile_hours = require_number(obj, "profile_hours");
  p.profile_cost = require_number(obj, "profile_cost");
  p.cum_profile_hours = require_number(obj, "cum_profile_hours");
  p.cum_profile_cost = require_number(obj, "cum_profile_cost");
  p.acquisition = require_number(obj, "acquisition");
  p.reason = require_string(obj, "reason");
  p.attempts = require_int(obj, "attempts");
  p.fault = require_int(obj, "fault");
  p.backoff_hours = require_number(obj, "backoff_hours");
  if (!obj.contains("attempt_log") || !obj.at("attempt_log").is_array()) {
    fail(JournalErrorCode::kCorrupt,
         "journal probe record missing attempt_log array");
  }
  for (const util::JsonValue& item : obj.at("attempt_log").as_array()) {
    if (!item.is_object()) {
      fail(JournalErrorCode::kCorrupt,
           "journal attempt_log entry is not an object");
    }
    AttemptEntry e;
    e.fault = require_int(item, "fault");
    e.hours = require_number(item, "hours");
    e.cost = require_number(item, "cost");
    e.backoff_hours = require_number(item, "backoff_hours");
    p.attempt_log.push_back(e);
  }
  // Absent on full-fidelity records and every version-1 record.
  p.sample_fraction = obj.contains("sample_fraction")
                          ? require_number(obj, "sample_fraction")
                          : 1.0;
  p.iteration_tier =
      obj.contains("iteration_tier") ? require_int(obj, "iteration_tier") : 0;
  return p;
}

DegradeRecord parse_degrade(const util::JsonValue& obj) {
  DegradeRecord d;
  d.iteration = require_int(obj, "iteration");
  d.why = require_string(obj, "why");
  return d;
}

constexpr std::string_view kMagic = "MLCDJ1";

/// Frames a payload into one journal line.
std::string frame(const std::string& payload) {
  char head[48];
  std::snprintf(head, sizeof head, "%s %zu %08x ", kMagic.data(),
                payload.size(), crc32(payload));
  return std::string(head) + payload + "\n";
}

struct FrameResult {
  bool ok = false;
  std::string payload;
};

/// Attempts to unframe one line (without its trailing '\n').
FrameResult unframe(std::string_view line) {
  FrameResult r;
  if (line.size() < kMagic.size() + 1 ||
      line.substr(0, kMagic.size()) != kMagic ||
      line[kMagic.size()] != ' ') {
    return r;
  }
  std::size_t pos = kMagic.size() + 1;
  std::size_t length = 0;
  bool any_digit = false;
  while (pos < line.size() && line[pos] >= '0' && line[pos] <= '9') {
    length = length * 10 + static_cast<std::size_t>(line[pos] - '0');
    if (length > line.size()) return r;  // cannot possibly fit
    ++pos;
    any_digit = true;
  }
  if (!any_digit || pos >= line.size() || line[pos] != ' ') return r;
  ++pos;
  if (line.size() < pos + 8 + 1) return r;
  std::uint32_t expected = 0;
  for (int i = 0; i < 8; ++i) {
    const char c = line[pos + static_cast<std::size_t>(i)];
    std::uint32_t digit = 0;
    if (c >= '0' && c <= '9') {
      digit = static_cast<std::uint32_t>(c - '0');
    } else if (c >= 'a' && c <= 'f') {
      digit = static_cast<std::uint32_t>(c - 'a' + 10);
    } else {
      return r;
    }
    expected = (expected << 4) | digit;
  }
  pos += 8;
  if (line[pos] != ' ') return r;
  ++pos;
  if (line.size() - pos != length) return r;  // short, long, or trailing junk
  const std::string_view payload = line.substr(pos);
  if (crc32(payload) != expected) return r;
  r.ok = true;
  r.payload.assign(payload);
  return r;
}

}  // namespace

std::string_view journal_error_code_name(JournalErrorCode code) noexcept {
  switch (code) {
    case JournalErrorCode::kIo:
      return "io";
    case JournalErrorCode::kCorrupt:
      return "corrupt";
    case JournalErrorCode::kVersionMismatch:
      return "version-mismatch";
    case JournalErrorCode::kHeaderMismatch:
      return "header-mismatch";
    case JournalErrorCode::kReplayDiverged:
      return "replay-diverged";
  }
  return "unknown";
}

JournalError::JournalError(JournalErrorCode code, const std::string& message)
    : std::runtime_error("journal: [" +
                         std::string(journal_error_code_name(code)) + "] " +
                         message),
      code_(code) {}

namespace {
std::atomic<IoFaultInjector*> g_io_fault_injector{nullptr};
}  // namespace

std::optional<IoFaultKind> IoFaultInjector::next_append() noexcept {
  const std::uint64_t index =
      counter_.fetch_add(1, std::memory_order_relaxed);
  if (options_.fail_at >= 0 &&
      index == static_cast<std::uint64_t>(options_.fail_at)) {
    return options_.kind;
  }
  if (options_.fault_rate > 0.0) {
    // Pure hash draw over (seed, append index): deterministic for a
    // given sweep regardless of the thread interleaving that produced
    // each index.
    const std::uint64_t draw =
        util::splitmix64(options_.seed ^ (index + 0x9e3779b97f4a7c15ULL));
    const double u = static_cast<double>(draw >> 11) * 0x1.0p-53;
    if (u < options_.fault_rate) return options_.kind;
  }
  return std::nullopt;
}

void set_io_fault_injector(IoFaultInjector* injector) noexcept {
  g_io_fault_injector.store(injector, std::memory_order_release);
}

IoFaultInjector* io_fault_injector() noexcept {
  return g_io_fault_injector.load(std::memory_order_acquire);
}

std::uint32_t crc32(std::string_view bytes) noexcept {
  static const std::array<std::uint32_t, 256> table = [] {
    std::array<std::uint32_t, 256> t{};
    for (std::uint32_t n = 0; n < 256; ++n) {
      std::uint32_t c = n;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1u) ? 0xedb88320u ^ (c >> 1) : (c >> 1);
      }
      t[n] = c;
    }
    return t;
  }();
  std::uint32_t crc = 0xffffffffu;
  for (const char ch : bytes) {
    crc = table[(crc ^ static_cast<unsigned char>(ch)) & 0xffu] ^ (crc >> 8);
  }
  return crc ^ 0xffffffffu;
}

HashStream& HashStream::mix(std::uint64_t v) noexcept {
  for (int i = 0; i < 8; ++i) {
    hash_ ^= (v >> (8 * i)) & 0xffu;
    hash_ *= 0x100000001b3ULL;
  }
  return *this;
}

HashStream& HashStream::mix(double v) noexcept {
  std::uint64_t bits = 0;
  static_assert(sizeof bits == sizeof v);
  std::memcpy(&bits, &v, sizeof bits);
  return mix(bits);
}

HashStream& HashStream::mix(int v) noexcept {
  return mix(static_cast<std::uint64_t>(static_cast<std::int64_t>(v)));
}

HashStream& HashStream::mix(bool v) noexcept {
  return mix(static_cast<std::uint64_t>(v ? 1 : 0));
}

HashStream& HashStream::mix(std::string_view s) noexcept {
  mix(static_cast<std::uint64_t>(s.size()));
  for (const char ch : s) {
    hash_ ^= static_cast<unsigned char>(ch);
    hash_ *= 0x100000001b3ULL;
  }
  return *this;
}

std::uint64_t hash_catalog(const cloud::InstanceCatalog& catalog) noexcept {
  HashStream h;
  h.mix(static_cast<std::uint64_t>(catalog.size()));
  for (const cloud::InstanceSpec& spec : catalog.all()) {
    h.mix(spec.name)
        .mix(spec.family)
        .mix(static_cast<int>(spec.device))
        .mix(spec.vcpus)
        .mix(spec.gpus)
        .mix(spec.mem_gib)
        .mix(spec.network_gbps)
        .mix(spec.price_per_hour)
        .mix(spec.spot_price_per_hour)
        .mix(spec.spot_revocations_per_hour)
        .mix(spec.effective_tflops);
  }
  return h.digest();
}

FramedWriter::FramedWriter(std::string path, std::FILE* file)
    : path_(std::move(path)), file_(file) {}

FramedWriter::FramedWriter(FramedWriter&& other) noexcept
    : path_(std::move(other.path_)), file_(other.file_) {
  other.file_ = nullptr;
}

FramedWriter& FramedWriter::operator=(FramedWriter&& other) noexcept {
  if (this != &other) {
    if (file_ != nullptr) std::fclose(file_);
    path_ = std::move(other.path_);
    file_ = other.file_;
    other.file_ = nullptr;
  }
  return *this;
}

FramedWriter::~FramedWriter() {
  if (file_ != nullptr) std::fclose(file_);
}

FramedWriter FramedWriter::create(const std::string& path,
                                  const std::string& header) {
  // The header is made durable in a sibling file that is then renamed
  // onto `path`, so `path` never exists without a readable header: a
  // kill at any point leaves either no journal or one a resume accepts.
  const std::string tmp = path + ".tmp";
  std::FILE* file = std::fopen(tmp.c_str(), "wb");
  if (file == nullptr) {
    fail(JournalErrorCode::kIo, "cannot open journal '" + tmp +
                                    "' for writing: " + std::strerror(errno));
  }
  FramedWriter writer(path, file);
  try {
    writer.append(header);
  } catch (const JournalError&) {
    std::remove(tmp.c_str());
    throw;
  }
#if defined(_WIN32)
  std::remove(path.c_str());  // rename() does not replace on Windows
#endif
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    const int err = errno;
    std::remove(tmp.c_str());
    fail(JournalErrorCode::kIo, "cannot rename journal '" + tmp +
                                    "' onto '" + path +
                                    "': " + std::strerror(err));
  }
  return writer;
}

FramedWriter FramedWriter::append_to(const std::string& path,
                                     std::uint64_t valid_bytes) {
#if defined(_WIN32)
  // Truncation via reopen; torn tails are rare enough that portability
  // beats elegance here.
  {
    std::FILE* file = std::fopen(path.c_str(), "rb");
    if (file == nullptr) {
      fail(JournalErrorCode::kIo, "cannot reopen journal '" + path +
                                      "': " + std::strerror(errno));
    }
    std::string keep(valid_bytes, '\0');
    const std::size_t got = std::fread(keep.data(), 1, keep.size(), file);
    std::fclose(file);
    keep.resize(got);
    std::FILE* out = std::fopen(path.c_str(), "wb");
    if (out == nullptr) {
      fail(JournalErrorCode::kIo, "cannot rewrite journal '" + path +
                                      "': " + std::strerror(errno));
    }
    std::fwrite(keep.data(), 1, keep.size(), out);
    std::fclose(out);
  }
#else
  if (::truncate(path.c_str(), static_cast<off_t>(valid_bytes)) != 0) {
    fail(JournalErrorCode::kIo, "cannot truncate journal '" + path +
                                    "': " + std::strerror(errno));
  }
#endif
  std::FILE* file = std::fopen(path.c_str(), "ab");
  if (file == nullptr) {
    fail(JournalErrorCode::kIo, "cannot open journal '" + path +
                                    "' for appending: " + std::strerror(errno));
  }
  return FramedWriter(path, file);
}

void FramedWriter::append(const std::string& payload) {
  const std::string line = frame(payload);
  if (IoFaultInjector* injector = io_fault_injector()) {
    if (const std::optional<IoFaultKind> fault = injector->next_append()) {
      switch (*fault) {
        case IoFaultKind::kEnospc:
          // Nothing of the record reaches the disk.
          fail(JournalErrorCode::kIo,
               "cannot append to journal '" + path_ +
                   "': injected ENOSPC (" + std::strerror(ENOSPC) + ")");
        case IoFaultKind::kShortWrite: {
          // A real torn prefix lands on disk so the stored state matches
          // a crash mid-append; readers drop it as a torn tail.
          const std::size_t cut = line.size() / 2;
          if (cut > 0 &&
              std::fwrite(line.data(), 1, cut, file_) == cut) {
            std::fflush(file_);
          }
          fail(JournalErrorCode::kIo,
               "injected short write to journal '" + path_ + "'");
        }
        case IoFaultKind::kFsyncFail:
          // The record is buffered in full but its durability barrier
          // fails: it may or may not survive, exactly like a real fsync
          // error. Either on-disk state replays soundly (write-ahead:
          // the record precedes trace admission).
          if (std::fwrite(line.data(), 1, line.size(), file_) ==
              line.size()) {
            std::fflush(file_);
          }
          fail(JournalErrorCode::kIo,
               "injected fsync failure on journal '" + path_ + "'");
      }
    }
  }
  if (std::fwrite(line.data(), 1, line.size(), file_) != line.size()) {
    fail(JournalErrorCode::kIo,
         "short write to journal '" + path_ + "': " + std::strerror(errno));
  }
  if (std::fflush(file_) != 0) {
    fail(JournalErrorCode::kIo,
         "cannot flush journal '" + path_ + "': " + std::strerror(errno));
  }
  // Write-ahead discipline: the record must be on stable storage before
  // the caller acts on the probe it describes.
#if defined(_WIN32)
  if (_commit(_fileno(file_)) != 0) {
#else
  if (::fsync(fileno(file_)) != 0) {
#endif
    fail(JournalErrorCode::kIo,
         "cannot fsync journal '" + path_ + "': " + std::strerror(errno));
  }
}

std::string frame_record(const std::string& payload) {
  return frame(payload);
}

RunJournal::RunJournal(FramedWriter writer) : writer_(std::move(writer)) {}

RunJournal::RunJournal(RunJournal&& other) noexcept = default;
RunJournal& RunJournal::operator=(RunJournal&& other) noexcept = default;
RunJournal::~RunJournal() = default;

RunJournal RunJournal::create(const std::string& path,
                              const JournalHeader& header) {
  return RunJournal(FramedWriter::create(path, compose_header(header)));
}

RunJournal RunJournal::append_to(const std::string& path,
                                 std::uint64_t valid_bytes) {
  return RunJournal(FramedWriter::append_to(path, valid_bytes));
}

void RunJournal::append_probe(const ProbeRecord& record) {
  append_record(compose_probe(record));
}

void RunJournal::append_degrade(const DegradeRecord& record) {
  append_record(compose_degrade(record));
}

void RunJournal::append_record(const std::string& payload) {
  writer_.append(payload);
}

JournalContents read_journal(const std::string& path) {
  std::FILE* file = std::fopen(path.c_str(), "rb");
  if (file == nullptr) {
    fail(JournalErrorCode::kIo, "cannot open journal '" + path +
                                    "' for reading: " + std::strerror(errno));
  }
  std::string text;
  char buffer[1 << 16];
  std::size_t got = 0;
  while ((got = std::fread(buffer, 1, sizeof buffer, file)) > 0) {
    text.append(buffer, got);
  }
  const bool read_error = std::ferror(file) != 0;
  std::fclose(file);
  if (read_error) {
    fail(JournalErrorCode::kIo, "error reading journal '" + path + "'");
  }

  JournalContents contents;
  bool have_header = false;
  std::size_t offset = 0;
  while (offset < text.size()) {
    const std::size_t newline = text.find('\n', offset);
    const bool is_tail = newline == std::string::npos ||
                         newline + 1 >= text.size();
    const std::string_view line =
        newline == std::string::npos
            ? std::string_view(text).substr(offset)
            : std::string_view(text).substr(offset, newline - offset);

    FrameResult framed = unframe(line);
    util::JsonValue record;
    bool parsed = false;
    std::string record_type;
    if (framed.ok) {
      try {
        record = util::parse_json(framed.payload);
        if (record.is_object() && record.contains("t") &&
            record.at("t").is_string()) {
          record_type = record.at("t").as_string();
          parsed = true;
        }
      } catch (const std::invalid_argument&) {
        parsed = false;
      }
    }
    // A bad or unterminated record at the very end of the file is a torn
    // append from the crash — drop it (the probe it described was never
    // admitted to the trace, and deterministic re-execution reproduces
    // it). Anywhere else it is corruption at rest: refuse.
    if (!parsed || newline == std::string::npos) {
      if (is_tail) {
        contents.truncated_tail = true;
        break;
      }
      fail(JournalErrorCode::kCorrupt,
           "journal '" + path + "' is corrupt at byte offset " +
               std::to_string(offset));
    }

    if (!have_header) {
      if (record_type != "header") {
        fail(JournalErrorCode::kCorrupt,
             "journal '" + path + "' does not begin with a header record");
      }
      contents.header = parse_header(record);
      have_header = true;
    } else if (record_type == "probe") {
      contents.probes.push_back(parse_probe(record));
    } else if (record_type == "degrade") {
      contents.degraded.push_back(parse_degrade(record));
    } else if (record_type == "header") {
      fail(JournalErrorCode::kCorrupt,
           "journal '" + path + "' contains a second header record");
    } else {
      fail(JournalErrorCode::kCorrupt, "journal '" + path +
                                           "' contains unknown record type '" +
                                           record_type + "'");
    }
    offset = newline + 1;
    contents.valid_bytes = offset;
  }
  if (!have_header) {
    fail(JournalErrorCode::kCorrupt,
         "journal '" + path + "' has no readable header record");
  }
  return contents;
}

FramedFile read_framed_file(const std::string& path) {
  std::FILE* file = std::fopen(path.c_str(), "rb");
  if (file == nullptr) {
    fail(JournalErrorCode::kIo, "cannot open journal '" + path +
                                    "' for reading: " + std::strerror(errno));
  }
  std::string text;
  char buffer[1 << 16];
  std::size_t got = 0;
  while ((got = std::fread(buffer, 1, sizeof buffer, file)) > 0) {
    text.append(buffer, got);
  }
  const bool read_error = std::ferror(file) != 0;
  std::fclose(file);
  if (read_error) {
    fail(JournalErrorCode::kIo, "error reading journal '" + path + "'");
  }

  FramedFile out;
  std::size_t offset = 0;
  while (offset < text.size()) {
    const std::size_t newline = text.find('\n', offset);
    const bool is_tail =
        newline == std::string::npos || newline + 1 >= text.size();
    const std::string_view line =
        newline == std::string::npos
            ? std::string_view(text).substr(offset)
            : std::string_view(text).substr(offset, newline - offset);

    FrameResult framed = unframe(line);
    // Same torn-tail rule as read_journal: a bad or unterminated record
    // at the very end is a torn append (dropped); earlier it is
    // corruption at rest (refused).
    if (!framed.ok || newline == std::string::npos) {
      if (is_tail) {
        out.truncated_tail = true;
        break;
      }
      fail(JournalErrorCode::kCorrupt,
           "journal '" + path + "' is corrupt at byte offset " +
               std::to_string(offset));
    }
    out.payloads.push_back(std::move(framed.payload));
    offset = newline + 1;
    out.valid_bytes = offset;
  }
  return out;
}

}  // namespace mlcd::journal
