// somrm_bench/spans.hpp
//
// The benchmark's own span recorder. Spans are taken around the
// benchmark's calls into each library layer (never inside the library), so
// the per-layer numbers come from public entry points only. A span is
// (name, start, end, id, parent, request): the name is "<layer>.<what>",
// the parent is the enclosing span (0 for a root), and spans of one query
// share a request id. Spans are kept in per-thread buffers in memory and
// read out after every recording thread has been joined.
//
// Recording is off unless Tracer::enable(true) was called; a disabled
// ScopedSpan costs one branch.

#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace somrm_bench {

/// steady_clock in nanoseconds; the one clock every timing here uses.
std::int64_t now_ns();

struct Span {
  const char* name = "";  ///< static string "<layer>.<what>"
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::uint64_t id = 0;
  std::uint64_t parent = 0;   ///< 0 = root
  std::uint64_t request = 0;  ///< 0 = not part of a query
  std::uint32_t tid = 0;      ///< recording thread, numbered from 1
};

class Tracer {
 public:
  static void enable(bool on);
  static bool enabled();
  /// A fresh span id (also used as the request id of a query's root span).
  static std::uint64_t next_id();
  /// Appends a finished span to the calling thread's buffer. No-op when
  /// disabled. The span's tid is filled in here.
  static void record(Span span);
  /// Every span recorded so far. Call only when no thread is recording.
  static std::vector<Span> collect();
};

/// Records [construction, destruction) as a span whose parent is the
/// innermost ScopedSpan open on this thread.
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name, std::uint64_t request = 0);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  std::uint64_t id() const { return span_.id; }

 private:
  Span span_;
  std::uint64_t outer_ = 0;
  bool active_ = false;
};

/// Span durations in microseconds, grouped by span name.
std::map<std::string, std::vector<double>> durations_us(
    const std::vector<Span>& spans);

/// Per-layer self time: each span's duration minus the part of it covered
/// by its children, summed over the spans of a layer (the name up to the
/// first '.').
struct LayerTime {
  std::size_t spans = 0;
  double self_ms = 0.0;
};
std::map<std::string, LayerTime> layer_self_times(
    const std::vector<Span>& spans);

/// Writes the spans as Chrome-trace JSON ("X" events, microsecond times),
/// at most @p max_events of them, in recording order. Returns false when
/// the file cannot be written.
bool write_chrome_trace(const std::string& path,
                        const std::vector<Span>& spans,
                        std::size_t max_events);

}  // namespace somrm_bench
