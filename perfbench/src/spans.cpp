#include "spans.hpp"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <utility>

#include "obs/json.hpp"

namespace perfbench {

std::map<std::string, double> SpanLog::self_ns_by_name() const {
  std::vector<std::vector<std::int32_t>> children(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    if (spans_[i].parent >= 0) {
      children[static_cast<std::size_t>(spans_[i].parent)].push_back(
          static_cast<std::int32_t>(i));
    }
  }
  std::map<std::string, double> self;
  std::vector<std::pair<std::int64_t, std::int64_t>> cover;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    cover.clear();
    for (const std::int32_t c : children[i]) {
      const Span& k = spans_[static_cast<std::size_t>(c)];
      const std::int64_t a = std::max(k.start_ns, s.start_ns);
      const std::int64_t b = std::min(k.end_ns, s.end_ns);
      if (a < b) cover.emplace_back(a, b);
    }
    std::sort(cover.begin(), cover.end());
    std::int64_t covered = 0;
    std::int64_t reach = s.start_ns;
    for (const auto& [a, b] : cover) {
      const std::int64_t from = std::max(a, reach);
      if (b > from) covered += b - from;
      reach = std::max(reach, b);
    }
    self[s.name] += static_cast<double>(s.end_ns - s.start_ns - covered);
  }
  return self;
}

bool SpanLog::write_chrome_trace(const std::string& path,
                                 std::size_t limit) const {
  limit = std::min(limit, spans_.size());
  std::ofstream out(path);
  if (!out) return false;
  char buf[64];
  const auto us = [&](std::int64_t ns) {
    std::snprintf(buf, sizeof(buf), "%.3f", static_cast<double>(ns) / 1e3);
    return std::string(buf);
  };
  out << "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[";
  bool first = true;
  const auto event = [&](const Span& s, std::size_t index, const char* ph,
                         std::int64_t ts) {
    out << (first ? "\n" : ",\n")
        << "{\"name\":" << stig::obs::json_quote(s.name)
        << ",\"cat\":\"perfbench\",\"ph\":\"" << ph << "\",\"ts\":" << us(ts)
        << ",\"pid\":1,\"tid\":1";
    first = false;
    if (ph[0] == 'X') out << ",\"dur\":" << us(s.end_ns - s.start_ns);
    if (ph[0] != 'X') out << ",\"id\":" << s.id;
    out << ",\"args\":{\"span\":" << index << ",\"parent\":" << s.parent
        << ",\"id\":" << s.id << "}}";
  };
  // Async begins and ends must pair up per id, so events go out in time
  // order; at equal times ends precede begins, and an inner (later-opened)
  // span ends before its parent.
  struct Mark {
    std::int64_t ts;
    int kind;  // 0 = end, 1 = begin/complete
    std::int64_t tie;
    std::size_t index;
    bool operator<(const Mark& o) const {
      if (ts != o.ts) return ts < o.ts;
      if (kind != o.kind) return kind < o.kind;
      return tie < o.tie;
    }
  };
  std::vector<Mark> marks;
  marks.reserve(limit * 2);
  for (std::size_t i = 0; i < limit; ++i) {
    const auto si = static_cast<std::int64_t>(i);
    marks.push_back(Mark{spans_[i].start_ns, 1, si, i});
    if (spans_[i].id != 0) marks.push_back(Mark{spans_[i].end_ns, 0, -si, i});
  }
  std::sort(marks.begin(), marks.end());
  for (const Mark& m : marks) {
    const Span& s = spans_[m.index];
    if (s.id == 0) {
      event(s, m.index, "X", s.start_ns);
    } else {
      event(s, m.index, m.kind == 1 ? "b" : "e", m.ts);
    }
  }
  out << "\n]}\n";
  return static_cast<bool>(out);
}

}  // namespace perfbench
