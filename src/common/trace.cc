#include "common/trace.h"

#include <algorithm>
#include <iomanip>
#include <sstream>

#include "common/json.h"
#include "common/telemetry.h"

namespace prc::trace {

namespace {

// Per-thread stack of open span ids; parent/child links are intra-thread.
thread_local std::vector<std::uint64_t> t_open_spans;

// Small stable per-thread id (1, 2, ...) in thread-creation order — Chrome
// trace viewers want compact integer tids, not pthread handles.
std::uint32_t current_tid() {
  static std::atomic<std::uint32_t> next_tid{0};
  thread_local const std::uint32_t tid =
      next_tid.fetch_add(1, std::memory_order_relaxed) + 1;
  return tid;
}

}  // namespace

Tracer::Tracer() : epoch_ns_(telemetry::steady_now_ns()) {}

Tracer& Tracer::instance() {
  static Tracer tracer;
  return tracer;
}

std::int64_t Tracer::now_ns() const {
  return telemetry::steady_now_ns() - epoch_ns_;
}

void Tracer::set_capacity(std::size_t capacity) {
  std::lock_guard<std::mutex> lock(mutex_);
  capacity_ = std::max<std::size_t>(1, capacity);
  while (ring_.size() > capacity_) {
    ring_.pop_front();
    ++dropped_;
  }
}

void Tracer::record(SpanRecord span) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (ring_.size() >= capacity_) {
    ring_.pop_front();
    ++dropped_;
  }
  ring_.push_back(std::move(span));
}

std::vector<SpanRecord> Tracer::snapshot() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return {ring_.begin(), ring_.end()};
}

std::uint64_t Tracer::dropped() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return dropped_;
}

void Tracer::clear() {
  std::lock_guard<std::mutex> lock(mutex_);
  ring_.clear();
  dropped_ = 0;
}

std::string Tracer::flame_text() const {
  auto spans = snapshot();
  std::stable_sort(spans.begin(), spans.end(),
                   [](const SpanRecord& a, const SpanRecord& b) {
                     return a.start_ns < b.start_ns;
                   });
  std::ostringstream out;
  out << "# trace (" << spans.size() << " spans";
  const std::uint64_t evicted = dropped();
  if (evicted != 0) out << ", " << evicted << " evicted";
  out << ")\n";
  if (evicted != 0) {
    out << "# WARNING: " << evicted
        << " span(s) evicted from the ring buffer (oldest first); this "
           "flamegraph is incomplete — raise Tracer::set_capacity() or "
           "scope tracing tighter\n";
  }
  out << std::fixed << std::setprecision(3);
  for (const auto& span : spans) {
    out << std::string(2 * span.depth, ' ') << span.name << "  "
        << static_cast<double>(span.duration_ns) / 1e6 << " ms  @ +"
        << static_cast<double>(span.start_ns) / 1e6 << " ms\n";
  }
  return out.str();
}

std::string Tracer::to_chrome_json() const {
  auto spans = snapshot();
  std::stable_sort(spans.begin(), spans.end(),
                   [](const SpanRecord& a, const SpanRecord& b) {
                     return a.start_ns < b.start_ns;
                   });
  std::ostringstream out;
  out << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [";
  const auto previous = out.precision();
  out.precision(3);
  out << std::fixed;
  bool first = true;
  for (const auto& span : spans) {
    out << (first ? "\n" : ",\n");
    first = false;
    // "X" = complete event; ts/dur are microseconds per the trace_event
    // spec.  pid is constant (single process); tid preserves per-thread
    // nesting exactly as the viewer's flame lanes expect.
    out << "  {\"name\": \"" << json_escape(span.name)
        << "\", \"cat\": \"prc\", \"ph\": \"X\", \"ts\": "
        << static_cast<double>(span.start_ns) / 1e3
        << ", \"dur\": " << static_cast<double>(span.duration_ns) / 1e3
        << ", \"pid\": 1, \"tid\": " << span.tid << ", \"args\": {\"id\": "
        << span.id << ", \"parent_id\": " << span.parent_id
        << ", \"depth\": " << span.depth << "}}";
  }
  out.precision(previous);
  out << (first ? "]" : "\n]") << "}\n";
  return out.str();
}

void publish_telemetry() {
  telemetry::gauge("trace.spans_dropped")
      .set(static_cast<double>(Tracer::instance().dropped()));
}

ScopedSpan::ScopedSpan(const char* name) : name_(name) {
  auto& tracer = Tracer::instance();
  if (!tracer.enabled()) return;
  active_ = true;
  id_ = tracer.next_id();
  parent_id_ = t_open_spans.empty() ? 0 : t_open_spans.back();
  depth_ = static_cast<std::uint32_t>(t_open_spans.size());
  t_open_spans.push_back(id_);
  start_ns_ = tracer.now_ns();
}

ScopedSpan::~ScopedSpan() {
  if (!active_) return;
  auto& tracer = Tracer::instance();
  SpanRecord span;
  span.id = id_;
  span.parent_id = parent_id_;
  span.depth = depth_;
  span.tid = current_tid();
  span.name = name_;
  span.start_ns = start_ns_;
  span.duration_ns = tracer.now_ns() - start_ns_;
  t_open_spans.pop_back();
  tracer.record(std::move(span));
}

}  // namespace prc::trace
