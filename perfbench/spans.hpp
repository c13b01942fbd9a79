// In-memory spans for the traced run.
//
// The benchmark records one span around each call it makes into a layer
// (Mlcd::prepare, SearchSession::next, ProbeDriver::step,
// PreparedJob::finish) plus one root span per job. Each thread owns one
// SpanLog, so recording takes no lock; the logs are merged when the run
// ends, self times are computed, and the spans are written out.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
  const char* name = "";       ///< static string: "job", "mlcd.prepare", ...
  std::int64_t start_ns = 0;   ///< steady clock
  std::int64_t end_ns = 0;
  std::int32_t parent = -1;    ///< index in the same log, -1 for a root
  std::int32_t job = -1;       ///< workload job index
  std::int64_t self_ns = 0;    ///< filled in by compute_self_times
};

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

class SpanLog {
 public:
  /// Opens a span and returns its index for close().
  std::int32_t open(const char* name, std::int32_t job, std::int32_t parent) {
    Span span;
    span.name = name;
    span.job = job;
    span.parent = parent;
    span.start_ns = now_ns();
    spans_.push_back(span);
    return static_cast<std::int32_t>(spans_.size() - 1);
  }
  void close(std::int32_t id) { spans_[static_cast<std::size_t>(id)].end_ns = now_ns(); }

  std::vector<Span>& spans() noexcept { return spans_; }

 private:
  std::vector<Span> spans_;
};

/// Appends every log's spans into one vector, rebasing parent indices.
std::vector<Span> merge_logs(std::vector<SpanLog>& logs);

/// self = duration minus the durations of the span's direct children
/// (children of one span never overlap: each log is single-threaded).
void compute_self_times(std::vector<Span>& spans);

/// Writes one JSON object per line (name, job, id, parent, start/end/self
/// in microseconds relative to the first span). Returns false on I/O
/// failure.
bool write_spans(const std::vector<Span>& spans, const std::string& path);

}  // namespace perfbench
