#include "spans.hpp"

#include <algorithm>
#include <cstdio>
#include <memory>

namespace perfbench {

std::vector<Span> merge_logs(std::vector<SpanLog>& logs) {
  std::vector<Span> merged;
  for (SpanLog& log : logs) {
    const auto base = static_cast<std::int32_t>(merged.size());
    for (Span span : log.spans()) {
      if (span.parent >= 0) span.parent += base;
      merged.push_back(span);
    }
  }
  return merged;
}

void compute_self_times(std::vector<Span>& spans) {
  for (Span& span : spans) span.self_ns = span.end_ns - span.start_ns;
  for (const Span& span : spans) {
    if (span.parent >= 0) {
      spans[static_cast<std::size_t>(span.parent)].self_ns -=
          span.end_ns - span.start_ns;
    }
  }
}

bool write_spans(const std::vector<Span>& spans, const std::string& path) {
  const std::unique_ptr<std::FILE, int (*)(std::FILE*)> out(
      std::fopen(path.c_str(), "w"), &std::fclose);
  if (!out) return false;
  std::int64_t origin = spans.empty() ? 0 : spans.front().start_ns;
  for (const Span& span : spans) origin = std::min(origin, span.start_ns);
  const auto us = [origin](std::int64_t ns) {
    return static_cast<double>(ns - origin) / 1e3;
  };
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    std::fprintf(out.get(),
                 "{\"id\":%zu,\"parent\":%d,\"job\":%d,\"name\":\"%s\","
                 "\"start_us\":%.3f,\"end_us\":%.3f,\"self_us\":%.3f}\n",
                 i, s.parent, s.job, s.name, us(s.start_ns), us(s.end_ns),
                 static_cast<double>(s.self_ns) / 1e3);
  }
  return std::fflush(out.get()) == 0 && std::ferror(out.get()) == 0;
}

}  // namespace perfbench
