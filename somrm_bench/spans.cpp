#include "spans.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <memory>
#include <mutex>
#include <string_view>
#include <unordered_map>
#include <utility>

namespace somrm_bench {

namespace {

struct Buffer {
  std::uint32_t tid = 0;
  std::vector<Span> spans;
};

std::atomic<bool> g_enabled{false};
std::atomic<std::uint64_t> g_next_id{0};

// Buffers outlive the threads that filled them: a thread's buffer is owned
// here, and the thread only keeps a pointer to it.
std::mutex g_buffers_mutex;
std::vector<std::unique_ptr<Buffer>> g_buffers;

thread_local Buffer* t_buffer = nullptr;
thread_local std::uint64_t t_open_span = 0;

Buffer& thread_buffer() {
  if (t_buffer == nullptr) {
    std::lock_guard<std::mutex> lock(g_buffers_mutex);
    g_buffers.push_back(std::make_unique<Buffer>());
    g_buffers.back()->tid = static_cast<std::uint32_t>(g_buffers.size());
    t_buffer = g_buffers.back().get();
  }
  return *t_buffer;
}

}  // namespace

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void Tracer::enable(bool on) { g_enabled.store(on); }

bool Tracer::enabled() { return g_enabled.load(std::memory_order_relaxed); }

std::uint64_t Tracer::next_id() {
  return g_next_id.fetch_add(1, std::memory_order_relaxed) + 1;
}

void Tracer::record(Span span) {
  if (!enabled()) return;
  Buffer& buffer = thread_buffer();
  span.tid = buffer.tid;
  buffer.spans.push_back(span);
}

std::vector<Span> Tracer::collect() {
  std::lock_guard<std::mutex> lock(g_buffers_mutex);
  std::vector<Span> out;
  for (const auto& buffer : g_buffers)
    out.insert(out.end(), buffer->spans.begin(), buffer->spans.end());
  return out;
}

ScopedSpan::ScopedSpan(const char* name, std::uint64_t request) {
  if (!Tracer::enabled()) return;
  active_ = true;
  span_.name = name;
  span_.id = Tracer::next_id();
  span_.parent = t_open_span;
  span_.request = request;
  outer_ = t_open_span;
  t_open_span = span_.id;
  span_.start_ns = now_ns();
}

ScopedSpan::~ScopedSpan() {
  if (!active_) return;
  span_.end_ns = now_ns();
  t_open_span = outer_;
  Tracer::record(span_);
}

std::map<std::string, std::vector<double>> durations_us(
    const std::vector<Span>& spans) {
  std::map<std::string, std::vector<double>> out;
  for (const Span& s : spans)
    out[s.name].push_back(static_cast<double>(s.end_ns - s.start_ns) * 1e-3);
  return out;
}

std::map<std::string, LayerTime> layer_self_times(
    const std::vector<Span>& spans) {
  std::unordered_map<std::uint64_t, std::vector<std::size_t>> children;
  for (std::size_t i = 0; i < spans.size(); ++i)
    if (spans[i].parent != 0) children[spans[i].parent].push_back(i);

  std::map<std::string, LayerTime> out;
  std::vector<std::pair<std::int64_t, std::int64_t>> cover;
  for (const Span& s : spans) {
    cover.clear();
    if (auto it = children.find(s.id); it != children.end())
      for (std::size_t c : it->second) {
        const std::int64_t b = std::max(spans[c].start_ns, s.start_ns);
        const std::int64_t e = std::min(spans[c].end_ns, s.end_ns);
        if (e > b) cover.emplace_back(b, e);
      }
    std::sort(cover.begin(), cover.end());
    std::int64_t covered = 0;
    std::int64_t reach = s.start_ns;
    for (const auto& [b, e] : cover) {
      const std::int64_t from = std::max(b, reach);
      if (e > from) covered += e - from;
      reach = std::max(reach, e);
    }
    const std::string name = s.name;
    LayerTime& layer = out[name.substr(0, name.find('.'))];
    ++layer.spans;
    layer.self_ms +=
        static_cast<double>(s.end_ns - s.start_ns - covered) * 1e-6;
  }
  return out;
}

bool write_chrome_trace(const std::string& path,
                        const std::vector<Span>& spans,
                        std::size_t max_events) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const std::int64_t origin =
      spans.empty() ? 0
                    : std::min_element(spans.begin(), spans.end(),
                                       [](const Span& a, const Span& b) {
                                         return a.start_ns < b.start_ns;
                                       })
                          ->start_ns;
  std::fprintf(f, "{\"traceEvents\":[\n");
  const std::size_t n = std::min(spans.size(), max_events);
  for (std::size_t i = 0; i < n; ++i) {
    const Span& s = spans[i];
    std::fprintf(f,
                 "{\"name\":\"%s\",\"cat\":\"%.*s\",\"ph\":\"X\",\"pid\":1,"
                 "\"tid\":%u,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%llu,"
                 "\"parent\":%llu,\"request\":%llu}}%s\n",
                 s.name,
                 static_cast<int>(std::string_view(s.name).find('.')), s.name,
                 s.tid, static_cast<double>(s.start_ns - origin) * 1e-3,
                 static_cast<double>(s.end_ns - s.start_ns) * 1e-3,
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent),
                 static_cast<unsigned long long>(s.request),
                 i + 1 < n ? "," : "");
  }
  std::fprintf(f, "],\"otherData\":{\"spans\":%zu,\"written\":%zu}}\n",
               spans.size(), n);
  return std::fclose(f) == 0;
}

}  // namespace somrm_bench
