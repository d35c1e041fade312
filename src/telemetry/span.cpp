#include "telemetry/span.hpp"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <fstream>
#include <map>
#include <mutex>
#include <ostream>
#include <vector>

#include "telemetry/registry.hpp"
#include "telemetry/stopwatch.hpp"
#include "telemetry/trace_context.hpp"
#include "util/error.hpp"
#include "util/failpoint.hpp"
#include "util/json.hpp"

namespace wcm::telemetry {

namespace {

std::atomic<bool> g_tracing{false};

/// Per-thread event cap (satellite: a long-running daemon must degrade
/// its trace on overflow, never OOM) and the overflow tally behind
/// dropped_spans().
std::atomic<std::size_t> g_max_spans{std::size_t{1} << 20};
std::atomic<u64> g_dropped_spans{0};

// Spans read the library-wide clock (telemetry/stopwatch.hpp) so trace
// timestamps line up with every other reported duration.
[[nodiscard]] u64 now_ns() noexcept { return monotonic_ns(); }

}  // namespace

namespace detail {

/// One completed span.  The trace fields are zero / empty when the span
/// ran outside any TraceContext, and the export omits "args" for them.
struct Event {
  const char* name;
  u64 start_ns;
  u64 dur_ns;
  u32 depth;  ///< nesting level at entry (0 = top of this thread's stack)
  u64 seq;    ///< per-thread entry order — the deterministic sort key
  u64 trace_id = 0;        ///< correlation id of the owning request
  u64 span_id = 0;         ///< this span's own id
  u64 parent_span_id = 0;  ///< enclosing span (possibly on another thread)
  std::string tenant;      ///< the context's tenant, for per-tenant filters
};

/// Per-thread span storage.  `depth`/`next_seq` are touched only by the
/// owning thread; `events` is appended by the owner and drained by the
/// exporter, so it rides under `mu` (keeps TSan clean without putting an
/// atomic on the span hot path).
struct ThreadBuf {
  std::mutex mu;
  std::vector<Event> events;
  u32 depth = 0;
  u64 next_seq = 0;
  u64 registration_order = 0;
};

namespace {

struct TraceState {
  std::mutex mu;
  std::vector<std::shared_ptr<ThreadBuf>> buffers;  // outlive their threads
  u64 next_registration = 0;
  std::string path;
};

TraceState& trace_state() {
  static TraceState s;
  return s;
}

/// Registers the calling thread's buffer globally and keeps it alive past
/// thread exit (shared_ptr held by TraceState), so export after join is
/// safe.
thread_local std::shared_ptr<ThreadBuf> t_buf;

}  // namespace

ThreadBuf* thread_buf() {
  if (t_buf == nullptr) {
    t_buf = std::make_shared<ThreadBuf>();
    TraceState& s = trace_state();
    std::lock_guard<std::mutex> lock(s.mu);
    t_buf->registration_order = s.next_registration++;
    s.buffers.push_back(t_buf);
  }
  return t_buf.get();
}

void span_begin(ThreadBuf* buf, const char* /*name*/, u32& depth_out,
                u64& seq_out, u64& start_ns_out, u64& span_id_out,
                u64& parent_span_id_out) noexcept {
  depth_out = buf->depth++;
  seq_out = buf->next_seq++;
  // Become the current parent for nested spans (restored in span_end);
  // the ids cost one relaxed atomic and keep the causal tree linked even
  // across the thread hops a TraceContext makes.
  TraceContext& ctx = detail::mutable_trace_context();
  parent_span_id_out = ctx.span_id;
  span_id_out = next_span_id();
  ctx.span_id = span_id_out;
  start_ns_out = now_ns();
}

void span_end(ThreadBuf* buf, const char* name, u32 depth, u64 seq,
              u64 start_ns, u64 span_id, u64 parent_span_id) noexcept {
  const u64 end_ns = now_ns();
  buf->depth = depth;  // unwind even if inner spans leaked depth
  TraceContext& ctx = detail::mutable_trace_context();
  ctx.span_id = parent_span_id;
  Event event{name, start_ns, end_ns - start_ns, depth, seq, 0, 0, 0, {}};
  if (ctx.active()) {
    event.trace_id = ctx.trace_id;
    event.span_id = span_id;
    event.parent_span_id = parent_span_id;
    event.tenant = ctx.tenant;
  }
  std::lock_guard<std::mutex> lock(buf->mu);
  if (buf->events.size() >= trace_max_spans()) {
    g_dropped_spans.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  buf->events.push_back(std::move(event));
}

}  // namespace detail

bool tracing() noexcept { return g_tracing.load(std::memory_order_relaxed); }

void set_tracing(bool on) noexcept {
  g_tracing.store(on, std::memory_order_relaxed);
}

namespace {

struct ThreadView {
  u64 tid = 0;  ///< dense index, assigned deterministically
  std::vector<detail::Event> events;
};

/// Copy out every thread's events and assign dense thread-ids ordered by
/// (first event start, registration order) — OS thread ids never leak
/// into the export, so re-runs with different pool threads compare equal.
std::vector<ThreadView> collect_views() {
  detail::TraceState& s = detail::trace_state();
  std::vector<std::pair<u64, std::shared_ptr<detail::ThreadBuf>>> bufs;
  {
    std::lock_guard<std::mutex> lock(s.mu);
    for (const auto& buf : s.buffers) {
      bufs.emplace_back(buf->registration_order, buf);
    }
  }
  std::vector<ThreadView> views;
  std::vector<std::pair<std::pair<u64, u64>, std::size_t>> order;
  for (const auto& [reg, buf] : bufs) {
    ThreadView view;
    {
      std::lock_guard<std::mutex> lock(buf->mu);
      view.events = buf->events;
    }
    if (view.events.empty()) {
      continue;
    }
    std::sort(view.events.begin(), view.events.end(),
              [](const detail::Event& a, const detail::Event& b) {
                return a.seq < b.seq;
              });
    order.push_back({{view.events.front().start_ns, reg}, views.size()});
    views.push_back(std::move(view));
  }
  std::sort(order.begin(), order.end());
  std::vector<ThreadView> sorted;
  sorted.reserve(views.size());
  for (const auto& [key, idx] : order) {
    views[idx].tid = sorted.size();
    sorted.push_back(std::move(views[idx]));
  }
  return sorted;
}

/// Print `ns` nanoseconds as a decimal microsecond literal (e.g. 1234 ->
/// "1.234") — exact, so strict-JSON parsing and golden comparisons never
/// see float rounding.
void write_us(std::ostream& os, u64 ns) {
  os << ns / 1000 << '.';
  const u64 frac = ns % 1000;
  os << static_cast<char>('0' + frac / 100)
     << static_cast<char>('0' + (frac / 10) % 10)
     << static_cast<char>('0' + frac % 10);
}

}  // namespace

std::size_t trace_event_count() {
  detail::TraceState& s = detail::trace_state();
  std::vector<std::shared_ptr<detail::ThreadBuf>> bufs;
  {
    std::lock_guard<std::mutex> lock(s.mu);
    bufs = s.buffers;
  }
  std::size_t n = 0;
  for (const auto& buf : bufs) {
    std::lock_guard<std::mutex> lock(buf->mu);
    n += buf->events.size();
  }
  return n;
}

void set_trace_max_spans(std::size_t cap) noexcept {
  g_max_spans.store(cap == 0 ? 1 : cap, std::memory_order_relaxed);
}

std::size_t trace_max_spans() noexcept {
  return g_max_spans.load(std::memory_order_relaxed);
}

u64 dropped_spans() noexcept {
  return g_dropped_spans.load(std::memory_order_relaxed);
}

void reset_trace() {
  detail::TraceState& s = detail::trace_state();
  std::lock_guard<std::mutex> lock(s.mu);
  for (const auto& buf : s.buffers) {
    std::lock_guard<std::mutex> buf_lock(buf->mu);
    buf->events.clear();
  }
  g_dropped_spans.store(0, std::memory_order_relaxed);
}

void write_chrome_trace(std::ostream& os) {
  WCM_FAILPOINT("telemetry.export.write", io_error,
                "injected trace export failure");
  const std::vector<ThreadView> views = collect_views();
  u64 t0 = ~u64{0};
  for (const ThreadView& view : views) {
    for (const detail::Event& e : view.events) {
      t0 = std::min(t0, e.start_ns);
    }
  }
  os << "{\"traceEvents\":[";
  bool first = true;
  for (const ThreadView& view : views) {
    for (const detail::Event& e : view.events) {
      if (!first) {
        os << ',';
      }
      first = false;
      os << "{\"name\":\"" << e.name
         << "\",\"cat\":\"wcm\",\"ph\":\"X\",\"pid\":0,\"tid\":" << view.tid
         << ",\"ts\":";
      write_us(os, e.start_ns - t0);
      os << ",\"dur\":";
      write_us(os, e.dur_ns);
      if (e.trace_id != 0) {
        // The causal tree: every span of one request carries that
        // request's trace_id, whatever thread recorded it.  Keys sorted
        // so exports stay canonical.
        os << ",\"args\":{\"parent_span_id\":\"" << trace_hex(e.parent_span_id)
           << "\",\"span_id\":\"" << trace_hex(e.span_id) << "\",\"tenant\":";
        json::write_string(os, e.tenant);
        os << ",\"trace_id\":\"" << trace_hex(e.trace_id) << "\"}";
      }
      os << '}';
    }
  }
  os << "]}\n";
  if (!os) {
    throw io_error("trace export stream failed");
  }
}

void write_flamegraph(std::ostream& os) {
  const std::vector<ThreadView> views = collect_views();
  struct PathStats {
    u64 count = 0;
    u64 total_ns = 0;
  };
  std::map<std::string, PathStats> paths;
  for (const ThreadView& view : views) {
    // Events are in entry (seq) order; `depth` reconstructs the stack.
    std::vector<const char*> stack;
    for (const detail::Event& e : view.events) {
      stack.resize(e.depth);
      stack.push_back(e.name);
      std::string path;
      for (const char* frame : stack) {
        if (!path.empty()) {
          path.push_back(';');
        }
        path += frame;
      }
      PathStats& ps = paths[path];
      ps.count += 1;
      ps.total_ns += e.dur_ns;
    }
  }
  for (const auto& [path, ps] : paths) {
    os << path << "  count=" << ps.count << "  total_us=";
    write_us(os, ps.total_ns);
    os << '\n';
  }
}

void set_trace_path(std::string path) {
  detail::TraceState& s = detail::trace_state();
  std::lock_guard<std::mutex> lock(s.mu);
  s.path = std::move(path);
}

std::string trace_path() {
  detail::TraceState& s = detail::trace_state();
  std::lock_guard<std::mutex> lock(s.mu);
  return s.path;
}

void configure_from_env() {
  // NOLINTNEXTLINE(concurrency-mt-unsafe): read-only env probe; nothing
  // in the process calls setenv.
  const char* trace_out = std::getenv("WCM_TRACE_OUT");
  if (trace_out != nullptr && trace_out[0] != '\0') {
    set_trace_path(trace_out);
    set_tracing(true);
  }
  // NOLINTNEXTLINE(concurrency-mt-unsafe): read-only env probe.
  const char* metrics_on = std::getenv("WCM_TELEMETRY");
  if (metrics_on != nullptr && metrics_on[0] != '\0') {
    set_enabled(true);
  }
  // NOLINTNEXTLINE(concurrency-mt-unsafe): read-only env probe.
  const char* max_spans = std::getenv("WCM_TRACE_MAX_SPANS");
  if (max_spans != nullptr && max_spans[0] != '\0') {
    char* end = nullptr;
    const unsigned long long cap = std::strtoull(max_spans, &end, 10);
    if (end != max_spans && *end == '\0') {
      set_trace_max_spans(static_cast<std::size_t>(cap));
    }
  }
}

bool flush_trace(std::ostream* warn) noexcept {
  const std::string path = trace_path();
  if (path.empty()) {
    return true;  // nothing requested
  }
  set_trace_path("");  // one flush per configuration
  try {
    std::ofstream out(path, std::ios::binary);
    if (!out) {
      throw io_error("cannot open trace output", path);
    }
    write_chrome_trace(out);
    out.close();
    if (!out) {
      throw io_error("trace write failed", path);
    }
    return true;
  } catch (const std::exception& e) {
    if (warn != nullptr) {
      *warn << "warning: telemetry: trace export failed: " << e.what()
            << " (run continues)\n";
    }
    return false;
  }
}

}  // namespace wcm::telemetry
