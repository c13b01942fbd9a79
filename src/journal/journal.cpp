#include "journal/journal.hpp"

#include <algorithm>
#include <array>
#include <cerrno>
#include <charconv>
#include <cstdio>
#include <cstring>
#include <utility>

#include "cloud/instance.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"

#if defined(_WIN32)
#include <io.h>
#else
#include <fcntl.h>
#include <unistd.h>
#endif

namespace mlcd::journal {
namespace {

/// A probe record with a short attempt log fits, so composing one
/// allocates once.
constexpr std::size_t kRecordReserve = 512;

template <typename Int>
void append_integer(std::string& out, Int v) {
  char buf[24];
  out.append(buf, std::to_chars(buf, buf + sizeof buf, v).ptr);
}

}  // namespace

Composer::Composer() {
  out_.reserve(kRecordReserve);
  out_.push_back('{');
}

void Composer::key(std::string_view key) {
  const char last = out_.back();
  if (last != '{' && last != '[') out_.push_back(',');
  out_.push_back('"');
  out_.append(key);
  out_.append("\":");
}

Composer& Composer::field(std::string_view k, std::string_view text) {
  key(k);
  out_.push_back('"');
  util::JsonWriter::escape_to(out_, text);
  out_.push_back('"');
  return *this;
}

Composer& Composer::field(std::string_view k, double v) {
  key(k);
  char buf[32];  // sign, 17 digits, point, exponent: at most 24
  const std::to_chars_result r =
      std::to_chars(buf, buf + sizeof buf, v, std::chars_format::general, 17);
  out_.append(buf, r.ptr);
  return *this;
}

Composer& Composer::field(std::string_view k, int v) {
  key(k);
  append_integer(out_, v);
  return *this;
}

Composer& Composer::field(std::string_view k, std::size_t v) {
  key(k);
  append_integer(out_, v);
  return *this;
}

Composer& Composer::field(std::string_view k, bool v) {
  key(k);
  out_.append(v ? "true" : "false");
  return *this;
}

Composer& Composer::field_u64(std::string_view k, std::uint64_t v) {
  key(k);
  out_.push_back('"');
  append_integer(out_, v);
  out_.push_back('"');
  return *this;
}

Composer& Composer::open_object(std::string_view k) {
  key(k);
  out_.push_back('{');
  return *this;
}

Composer& Composer::open_object() {
  if (out_.back() != '[') out_.push_back(',');
  out_.push_back('{');
  return *this;
}

Composer& Composer::close_object() {
  out_.push_back('}');
  return *this;
}

Composer& Composer::open_array(std::string_view k) {
  key(k);
  out_.push_back('[');
  return *this;
}

Composer& Composer::close_array() {
  out_.push_back(']');
  return *this;
}

std::string Composer::finish() {
  out_.push_back('}');
  return std::move(out_);
}

void header_fields(Composer& c, const JournalHeader& h) {
  // Version is derived from content, not from h.version: a run without a
  // fidelity ladder writes a version-1 header byte-identically to the
  // pre-ladder format (the golden suite pins those bytes), and only a
  // run that actually uses the ladder stamps version 2.
  const int version = h.fidelity_ladder_hash != 0 ? 2 : 1;
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
}

std::string header_payload(const JournalHeader& h) {
  Composer c;
  header_fields(c, h);
  return c.finish();
}

std::string probe_payload(const ProbeRecord& p, int job) {
  Composer c;
  c.field("t", "probe");
  if (job >= 0) c.field("job", job);
  c.field("type_index", p.type_index)
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
      .open_array("attempt_log");
  for (const AttemptEntry& a : p.attempt_log) {
    c.open_object()
        .field("fault", a.fault)
        .field("hours", a.hours)
        .field("cost", a.cost)
        .field("backoff_hours", a.backoff_hours)
        .close_object();
  }
  c.close_array();
  // Fidelity fields travel sparsely: full-fidelity records (and thus
  // every record of a ladder-free run) keep the version-1 byte layout.
  if (p.sample_fraction != 1.0 || p.iteration_tier != 0) {
    c.field("sample_fraction", p.sample_fraction)
        .field("iteration_tier", p.iteration_tier);
  }
  return c.finish();
}

std::string degrade_payload(const DegradeRecord& d, int job) {
  Composer c;
  c.field("t", "degrade");
  if (job >= 0) c.field("job", job);
  c.field("iteration", d.iteration).field("why", d.why);
  return c.finish();
}

namespace {

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

}  // namespace

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

std::string header_diff(const JournalHeader& got, const JournalHeader& want) {
  if (got.method != want.method) return "method";
  if (got.model != want.model) return "model";
  if (got.platform != want.platform) return "platform";
  if (got.scenario_kind != want.scenario_kind) return "scenario kind";
  if (got.deadline_hours != want.deadline_hours) return "deadline_hours";
  if (got.budget_dollars != want.budget_dollars) return "budget_dollars";
  if (got.seed != want.seed) return "seed";
  if (got.max_nodes != want.max_nodes) return "max_nodes";
  if (got.use_spot != want.use_spot) return "use_spot";
  if (got.gp_refit_every != want.gp_refit_every) return "gp_refit_every";
  if (got.catalog_hash != want.catalog_hash) return "catalog contents";
  // A version-1 journal carries hash 0 (ladder disabled), so resuming an
  // old journal with a ladder configured — or vice versa — is refused
  // here: the ladder changes which probes the strategies propose. The
  // check precedes the profiler-options check because the ladder is
  // also mixed into that hash — this order names the precise culprit.
  if (got.fidelity_ladder_hash != want.fidelity_ladder_hash) {
    return "fidelity ladder";
  }
  if (got.profiler_options_hash != want.profiler_options_hash) {
    return "profiler/fault options";
  }
  if (got.warm_start_hash != want.warm_start_hash) {
    return "warm-start points";
  }
  return "";
}

namespace {

constexpr std::string_view kMagic = "MLCDJ1";

/// Appends `payload`'s MLCDJ1 line to `out`.
void append_framed(std::string& out, std::string_view payload) {
  const FrameHead head(payload);
  out.append(head.view()).append(payload).push_back('\n');
}

/// Attempts to unframe one line (without its trailing '\n'); the
/// returned payload views into `line`. nullopt when the line does not
/// frame.
std::optional<std::string_view> unframe(std::string_view line) {
  const std::optional<std::string_view> r;
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
  return payload;
}

/// Closes a stdio stream on scope exit.
struct FileCloser {
  std::FILE* file;
  ~FileCloser() { std::fclose(file); }
};

#if !defined(_WIN32)
/// Closes a raw descriptor on scope exit.
struct FdCloser {
  int fd;
  ~FdCloser() { ::close(fd); }
};
#endif

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
  // Slicing-by-8: table k advances the CRC past a byte followed by k
  // zero bytes, so eight table lookups fold eight input bytes at once.
  // A resume checks every record of a batch log twice (planning, then
  // the job's own read), so the bytewise loop's cost showed there.
  using Tables = std::array<std::array<std::uint32_t, 256>, 8>;
  static const Tables tables = [] {
    Tables t{};
    for (std::uint32_t n = 0; n < 256; ++n) {
      std::uint32_t c = n;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1u) ? 0xedb88320u ^ (c >> 1) : (c >> 1);
      }
      t[0][n] = c;
    }
    for (std::size_t k = 1; k < t.size(); ++k) {
      for (std::size_t n = 0; n < 256; ++n) {
        t[k][n] = (t[k - 1][n] >> 8) ^ t[0][t[k - 1][n] & 0xffu];
      }
    }
    return t;
  }();
  const auto byte = [&](std::size_t i) {
    return static_cast<std::uint32_t>(static_cast<unsigned char>(bytes[i]));
  };
  std::uint32_t crc = 0xffffffffu;
  std::size_t i = 0;
  for (; i + 8 <= bytes.size(); i += 8) {
    const std::uint32_t lo = crc ^ (byte(i) | byte(i + 1) << 8 |
                                    byte(i + 2) << 16 | byte(i + 3) << 24);
    crc = tables[7][lo & 0xffu] ^ tables[6][(lo >> 8) & 0xffu] ^
          tables[5][(lo >> 16) & 0xffu] ^ tables[4][lo >> 24] ^
          tables[3][byte(i + 4)] ^ tables[2][byte(i + 5)] ^
          tables[1][byte(i + 6)] ^ tables[0][byte(i + 7)];
  }
  for (; i < bytes.size(); ++i) {
    crc = tables[0][(crc ^ byte(i)) & 0xffu] ^ (crc >> 8);
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
  // The rename is durable only once the directory entry is: without
  // this a power loss could drop the journal's name with its contents.
  const std::size_t slash = path.find_last_of('/');
  fsync_directory(slash == std::string::npos ? std::string(".")
                  : slash == 0               ? std::string("/")
                                             : path.substr(0, slash));
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
  std::string line;
  append_framed(line, payload);
  std::optional<PendingFault> fault;
  if (IoFaultInjector* injector = io_fault_injector()) {
    if (const std::optional<IoFaultKind> kind = injector->next_append()) {
      fault = PendingFault{*kind, 0, line.size()};
    }
  }
  write_durably(line, fault);
}

void FramedWriter::write_durably(std::string_view bytes,
                                 const std::optional<PendingFault>& fault) {
  if (fault.has_value()) {
    // What lands on disk matches the real failure, so readers see the
    // state a crash would leave: records before the faulty one, plus a
    // torn prefix of it on a short write (dropped as a torn tail), or
    // all of it when only the durability barrier fails — either state
    // replays soundly, since the records precede trace admission.
    std::size_t lands = fault->offset;
    std::string what;
    switch (fault->kind) {
      case IoFaultKind::kEnospc:
        what = std::string("injected ENOSPC (") + std::strerror(ENOSPC) + ")";
        break;
      case IoFaultKind::kShortWrite:
        lands += fault->size / 2;
        what = "injected short write";
        break;
      case IoFaultKind::kFsyncFail:
        lands = bytes.size();
        what = "injected fsync failure";
        break;
    }
    if (lands > 0 && std::fwrite(bytes.data(), 1, lands, file_) == lands) {
      std::fflush(file_);
    }
    fail(JournalErrorCode::kIo,
         "cannot append to journal '" + path_ + "': " + what);
  }
  if (std::fwrite(bytes.data(), 1, bytes.size(), file_) != bytes.size()) {
    fail(JournalErrorCode::kIo,
         "short write to journal '" + path_ + "': " + std::strerror(errno));
  }
  if (std::fflush(file_) != 0) {
    fail(JournalErrorCode::kIo,
         "cannot flush journal '" + path_ + "': " + std::strerror(errno));
  }
  // Write-ahead discipline: the records must be on stable storage before
  // the caller acts on the probes they describe.
#if defined(_WIN32)
  if (_commit(_fileno(file_)) != 0) {
#else
  if (::fsync(fileno(file_)) != 0) {
#endif
    fail(JournalErrorCode::kIo,
         "cannot fsync journal '" + path_ + "': " + std::strerror(errno));
  }
}

void fsync_directory(const std::string& dir) {
#if !defined(_WIN32)
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd < 0) {
    fail(JournalErrorCode::kIo, "cannot open directory '" + dir +
                                    "' to fsync it: " + std::strerror(errno));
  }
  const FdCloser closer{fd};
  if (::fsync(fd) != 0) {
    fail(JournalErrorCode::kIo, "cannot fsync directory '" + dir +
                                    "': " + std::strerror(errno));
  }
#else
  (void)dir;
#endif
}

std::string frame_record(const std::string& payload) {
  std::string line;
  append_framed(line, payload);
  return line;
}

FrameHead::FrameHead(std::string_view payload) noexcept {
  static constexpr char kHex[] = "0123456789abcdef";
  char* p = std::copy(kMagic.begin(), kMagic.end(), bytes_);
  *p++ = ' ';
  p = std::to_chars(p, bytes_ + sizeof bytes_, payload.size()).ptr;
  *p++ = ' ';
  const std::uint32_t crc = crc32(payload);
  for (int shift = 28; shift >= 0; shift -= 4) *p++ = kHex[(crc >> shift) & 15];
  *p++ = ' ';
  size_ = static_cast<std::size_t>(p - bytes_);
}

RunJournal::RunJournal(FramedWriter writer) : writer_(std::move(writer)) {}

RunJournal::RunJournal(RunJournal&& other) noexcept = default;
RunJournal& RunJournal::operator=(RunJournal&& other) noexcept = default;
RunJournal::~RunJournal() = default;

RunJournal RunJournal::create(const std::string& path,
                              const JournalHeader& header) {
  return RunJournal(FramedWriter::create(path, header_payload(header)));
}

RunJournal RunJournal::append_to(const std::string& path,
                                 std::uint64_t valid_bytes) {
  return RunJournal(FramedWriter::append_to(path, valid_bytes));
}

void RunJournal::append_probe(const ProbeRecord& record) {
  writer_.append(probe_payload(record));
}

void RunJournal::append_degrade(const DegradeRecord& record) {
  writer_.append(degrade_payload(record));
}

FramedScan scan_framed_file(
    const std::string& path,
    const std::function<bool(std::string_view payload,
                             const RecordSpan& span)>& on_payload) {
  std::FILE* file = std::fopen(path.c_str(), "rb");
  if (file == nullptr) {
    fail(JournalErrorCode::kIo, "cannot open journal '" + path +
                                    "' for reading: " + std::strerror(errno));
  }
  const FileCloser closer{file};

  constexpr std::size_t kChunk = std::size_t{1} << 16;
  FramedScan scan;
  std::string buffer;    // bytes read but not yet consumed start at `pos`
  std::size_t pos = 0;
  bool eof = false;
  for (;;) {
    std::size_t newline = buffer.find('\n', pos);
    // A line can be classified only once it is known whether anything
    // follows it: read on until a byte lies past its newline, or EOF.
    while (!eof && (newline == std::string::npos ||
                    newline + 1 >= buffer.size())) {
      buffer.erase(0, pos);  // compact: keep only the unconsumed bytes
      if (newline != std::string::npos) newline -= pos;
      pos = 0;
      const std::size_t had = buffer.size();
      buffer.resize(had + kChunk);
      const std::size_t got = std::fread(buffer.data() + had, 1, kChunk, file);
      buffer.resize(had + got);
      if (got == 0) {
        if (std::ferror(file) != 0) {
          fail(JournalErrorCode::kIo, "error reading journal '" + path + "'");
        }
        eof = true;
      }
      if (newline == std::string::npos) newline = buffer.find('\n', had);
    }
    if (pos >= buffer.size()) break;
    const bool is_tail =
        newline == std::string::npos || newline + 1 >= buffer.size();
    const std::string_view line = std::string_view(buffer).substr(
        pos, newline == std::string::npos ? std::string::npos : newline - pos);
    const std::optional<std::string_view> payload = unframe(line);
    // A bad or unterminated record at the very end of the file is a torn
    // append from the crash — drop it (the probe it described was never
    // admitted to the trace, and deterministic re-execution reproduces
    // it). Anywhere else it is corruption at rest: refuse.
    if (!payload.has_value() || newline == std::string::npos ||
        !on_payload(*payload,
                    RecordSpan{scan.valid_bytes, newline + 1 - pos})) {
      if (is_tail) {
        scan.truncated_tail = true;
        break;
      }
      fail(JournalErrorCode::kCorrupt,
           "journal '" + path + "' is corrupt at byte offset " +
               std::to_string(scan.valid_bytes));
    }
    scan.valid_bytes += newline + 1 - pos;
    pos = newline + 1;
  }
  return scan;
}

void read_framed_records(
    const std::string& path, const std::vector<RecordSpan>& spans,
    const std::function<void(std::string_view payload)>& on_payload) {
  if (spans.empty()) return;
  std::FILE* file = std::fopen(path.c_str(), "rb");
  if (file == nullptr) {
    fail(JournalErrorCode::kIo, "cannot open journal '" + path +
                                    "' for reading: " + std::strerror(errno));
  }
  const FileCloser closer{file};
  // Unbuffered: each record is one short read at a seek, which a buffer
  // would turn into a whole buffer's refill.
  std::setvbuf(file, nullptr, _IONBF, 0);
  std::string line;
  for (const RecordSpan& span : spans) {
    line.resize(static_cast<std::size_t>(span.size));
    if (std::fseek(file, static_cast<long>(span.offset), SEEK_SET) != 0 ||
        std::fread(line.data(), 1, line.size(), file) != line.size()) {
      fail(JournalErrorCode::kIo, "error reading journal '" + path +
                                      "' at byte offset " +
                                      std::to_string(span.offset));
    }
    const std::optional<std::string_view> payload =
        line.empty() || line.back() != '\n'
            ? std::nullopt
            : unframe(std::string_view(line).substr(0, line.size() - 1));
    if (!payload.has_value()) {
      fail(JournalErrorCode::kCorrupt,
           "journal '" + path + "' is corrupt at byte offset " +
               std::to_string(span.offset));
    }
    on_payload(*payload);
  }
}

JournalContents read_journal(const std::string& path) {
  JournalContents contents;
  bool have_header = false;
  const FramedScan scan = scan_framed_file(
      path, [&](std::string_view payload, const RecordSpan&) {
        util::JsonValue record;
        try {
          record = util::parse_json(payload);
        } catch (const std::invalid_argument&) {
          return false;
        }
        if (!record.is_object() || !record.contains("t") ||
            !record.at("t").is_string()) {
          return false;
        }
        const std::string& type = record.at("t").as_string();
        if (!have_header) {
          if (type != "header") {
            fail(JournalErrorCode::kCorrupt,
                 "journal '" + path + "' does not begin with a header record");
          }
          contents.header = parse_header(record);
          have_header = true;
        } else if (type == "probe") {
          contents.probes.push_back(parse_probe(record));
        } else if (type == "degrade") {
          contents.degraded.push_back(parse_degrade(record));
        } else if (type == "header") {
          fail(JournalErrorCode::kCorrupt,
               "journal '" + path + "' contains a second header record");
        } else {
          fail(JournalErrorCode::kCorrupt,
               "journal '" + path + "' contains unknown record type '" +
                   type + "'");
        }
        return true;
      });
  if (!have_header) {
    fail(JournalErrorCode::kCorrupt,
         "journal '" + path + "' has no readable header record");
  }
  contents.valid_bytes = scan.valid_bytes;
  contents.truncated_tail = scan.truncated_tail;
  return contents;
}

}  // namespace mlcd::journal
