// Structured trace sink: scoped spans collected into Chrome-trace-format
// JSON (loadable in chrome://tracing / Perfetto) and JSONL.
//
// A global sink pointer gates everything: with no sink registered, starting
// a span is a single pointer load — no clock read, no allocation. Front ends
// own the sink; library code only ever emits through the global.
#ifndef SRC_OBS_TRACE_H_
#define SRC_OBS_TRACE_H_

#include <chrono>
#include <cstdint>
#include <deque>
#include <mutex>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace clara {
namespace obs {

struct TraceEvent {
  std::string name;
  std::string cat;
  char ph = 'X';       // 'X' complete span, 'C' counter, 'i' instant
  int64_t ts_us = 0;   // microseconds since sink epoch
  int64_t dur_us = 0;  // span duration ('X' only)
  uint32_t tid = 0;
  double value = 0;    // counter value ('C' only)
  // Request correlation: spans belonging to one traced request share a
  // nonzero trace_id, emitted as args.trace_id in the Chrome JSON so
  // chrome://tracing / check_trace.py can group nested per-stage spans.
  uint64_t trace_id = 0;
};

class TraceSink {
 public:
  TraceSink();
  TraceSink(const TraceSink&) = delete;
  TraceSink& operator=(const TraceSink&) = delete;

  // Microseconds since this sink was created (monotonic).
  int64_t NowUs() const;

  void AddComplete(const std::string& name, const std::string& cat, int64_t ts_us,
                   int64_t dur_us);
  // One complete span of a request's tree.
  struct RequestSpan {
    std::string_view name;
    int64_t ts_us;
    int64_t dur_us;
  };
  // Appends a request's span tree under one lock. Every span lands on the
  // request's own track (trace_id % 100000), so nesting renders intact even
  // though queue wait and dispatch run on different threads, and carries
  // trace_id in args.trace_id. The serving hot path emits one per request.
  void AddRequestSpans(std::string_view cat, uint64_t trace_id,
                       std::span<const RequestSpan> spans);
  void AddCounter(const std::string& name, double value);
  void AddInstant(const std::string& name, const std::string& cat);

  size_t size() const;
  std::vector<TraceEvent> Events() const;

  // {"traceEvents":[...],"displayTimeUnit":"ms"} — chrome://tracing format.
  std::string ToChromeJson() const;
  // One JSON object per line.
  std::string ToJsonl() const;
  bool WriteChromeJson(const std::string& path) const;
  bool WriteJsonl(const std::string& path) const;

 private:
  static uint32_t CurrentTid();

  // Stored form of a TraceEvent, with name and category interned: a traced
  // request then writes 48 bytes of fresh memory per span instead of two
  // std::strings' worth, and never reallocates what is already recorded.
  struct Record {
    uint32_t name;
    uint32_t cat;
    uint32_t tid;
    char ph;
    int64_t ts_us;
    int64_t dur_us;
    double value;
    uint64_t trace_id;
  };
  uint32_t InternLocked(std::string_view s);
  void AddLocked(std::string_view name, std::string_view cat, char ph, int64_t ts_us,
                 int64_t dur_us, uint32_t tid, double value, uint64_t trace_id);

  std::chrono::steady_clock::time_point epoch_;
  mutable std::mutex mu_;
  std::deque<Record> events_;
  std::deque<std::string> names_;  // interned; a deque keeps the views below valid
  std::unordered_map<std::string_view, uint32_t> name_ids_;
};

// Global sink registration. Not owned; caller keeps the sink alive for the
// duration. nullptr (the default) disables span collection entirely.
TraceSink* GlobalTrace();
void SetGlobalTrace(TraceSink* sink);

// RAII span against the global sink. `name` and `cat` must outlive the span
// only until the destructor runs (string literals in practice).
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name, const char* cat = "clara")
      : sink_(GlobalTrace()), name_(name), cat_(cat),
        start_us_(sink_ != nullptr ? sink_->NowUs() : 0) {}

  ~ScopedSpan() {
    if (sink_ != nullptr) {
      sink_->AddComplete(name_, cat_, start_us_, sink_->NowUs() - start_us_);
    }
  }

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  TraceSink* sink_;
  const char* name_;
  const char* cat_;
  int64_t start_us_;
};

// Emit a counter sample to the global sink, if any.
void TraceCounter(const char* name, double value);

// Pipeline-stage instrumentation in one RAII: a span against the global
// trace sink plus a wall-time histogram sample (milliseconds) under
// `metric_name` in the global registry. Costs one Enabled() check when
// telemetry is off.
class StageTimer {
 public:
  StageTimer(const char* span_name, const char* metric_name, const char* cat = "pipeline");
  ~StageTimer();
  StageTimer(const StageTimer&) = delete;
  StageTimer& operator=(const StageTimer&) = delete;

 private:
  ScopedSpan span_;
  const char* metric_;
  bool timing_;
  std::chrono::steady_clock::time_point start_;
};

}  // namespace obs
}  // namespace clara

// Span macro: compiles away entirely under CLARA_OBS_DISABLE; otherwise a
// no-op pointer check when no sink is registered.
#define CLARA_OBS_CONCAT_INNER_(a, b) a##b
#define CLARA_OBS_CONCAT_(a, b) CLARA_OBS_CONCAT_INNER_(a, b)
#ifdef CLARA_OBS_DISABLE
#define CLARA_TRACE_SPAN(name, cat) \
  do {                              \
  } while (0)
#else
#define CLARA_TRACE_SPAN(name, cat) \
  ::clara::obs::ScopedSpan CLARA_OBS_CONCAT_(clara_obs_span_, __LINE__)(name, cat)
#endif

#endif  // SRC_OBS_TRACE_H_
