// In-memory span log for the benchmark's traced runs.
//
// A span is (name, start, end, parent, id): `parent` indexes the span that
// caused it (-1 for a root) and `id` is shared by every span of one message
// or request (0 when the span belongs to no single one). Spans are kept in
// memory while the workload runs and written once, at exit, as Chrome
// trace_event JSON (Perfetto and chrome://tracing open it).
//
// A layer's self time is its span's duration minus the part of that
// interval its child spans cover; `self_ns_by_name` sums it per span name.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
  const char* name = "";
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int32_t parent = -1;
  std::uint64_t id = 0;
};

class SpanLog {
 public:
  using Clock = std::chrono::steady_clock;

  SpanLog() : origin_(Clock::now()) {}

  /// Nanoseconds since the log was created.
  [[nodiscard]] std::int64_t now_ns() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now() - origin_)
        .count();
  }
  [[nodiscard]] std::int64_t to_ns(Clock::time_point t) const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(t - origin_)
        .count();
  }

  /// Opens a span starting now; returns its index for `close` and for
  /// children's `parent`.
  std::int32_t open(const char* name, std::int32_t parent = -1,
                    std::uint64_t id = 0) {
    return add(name, now_ns(), now_ns(), parent, id);
  }
  /// Ends span `index` now.
  void close(std::int32_t index) { spans_[index].end_ns = now_ns(); }
  /// Records a span with known bounds.
  std::int32_t add(const char* name, std::int64_t start_ns,
                   std::int64_t end_ns, std::int32_t parent = -1,
                   std::uint64_t id = 0) {
    spans_.push_back(Span{name, start_ns, end_ns, parent, id});
    return static_cast<std::int32_t>(spans_.size() - 1);
  }

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }
  [[nodiscard]] std::size_t size() const { return spans_.size(); }

  /// Sum of self time per span name (duration minus the union of its
  /// children's intervals, clipped to the span).
  [[nodiscard]] std::map<std::string, double> self_ns_by_name() const;

  /// Writes the first `limit` spans as Chrome trace_event JSON. Spans
  /// without an id are complete ("X") events on one track; spans of a
  /// message or request are async ("b"/"e") events keyed by that id, so
  /// overlapping requests stay readable. Returns false on an I/O error.
  [[nodiscard]] bool write_chrome_trace(const std::string& path,
                                        std::size_t limit) const;

 private:
  Clock::time_point origin_;
  std::vector<Span> spans_;
};

/// RAII span: open on construction, close on destruction.
class SpanScope {
 public:
  SpanScope(SpanLog* log, const char* name, std::int32_t parent = -1,
            std::uint64_t id = 0)
      : log_(log), index_(log != nullptr ? log->open(name, parent, id) : -1) {}
  ~SpanScope() {
    if (log_ != nullptr) log_->close(index_);
  }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  SpanLog* log_;
  std::int32_t index_;
};

}  // namespace perfbench
