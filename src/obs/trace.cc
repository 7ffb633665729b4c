#include "src/obs/trace.h"

#include <atomic>
#include <cstdio>
#include <functional>
#include <sstream>
#include <thread>

#include "src/obs/json_util.h"
#include "src/obs/metrics.h"
#include "src/obs/obs.h"

namespace clara {
namespace obs {

namespace {

std::atomic<TraceSink*> g_sink{nullptr};

void AppendEventJson(std::ostringstream& os, const TraceEvent& e) {
  os << "{\"name\":\"" << JsonEscape(e.name) << "\",\"cat\":\"" << JsonEscape(e.cat)
     << "\",\"ph\":\"" << e.ph << "\",\"ts\":" << e.ts_us << ",\"pid\":1,\"tid\":" << e.tid;
  if (e.ph == 'X') {
    os << ",\"dur\":" << e.dur_us;
    if (e.trace_id != 0) {
      os << ",\"args\":{\"trace_id\":" << e.trace_id << "}";
    }
  }
  if (e.ph == 'C') {
    os << ",\"args\":{\"value\":" << JsonNumber(e.value) << "}";
  }
  if (e.ph == 'i') {
    os << ",\"s\":\"g\"";
  }
  os << "}";
}

}  // namespace

TraceSink::TraceSink() : epoch_(std::chrono::steady_clock::now()) {}

int64_t TraceSink::NowUs() const {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now() - epoch_)
      .count();
}

uint32_t TraceSink::CurrentTid() {
  return static_cast<uint32_t>(
      std::hash<std::thread::id>{}(std::this_thread::get_id()) % 100000);
}

uint32_t TraceSink::InternLocked(std::string_view s) {
  auto it = name_ids_.find(s);
  if (it != name_ids_.end()) {
    return it->second;
  }
  auto id = static_cast<uint32_t>(names_.size());
  names_.emplace_back(s);
  name_ids_.emplace(names_.back(), id);
  return id;
}

void TraceSink::AddLocked(std::string_view name, std::string_view cat, char ph, int64_t ts_us,
                          int64_t dur_us, uint32_t tid, double value, uint64_t trace_id) {
  uint32_t cat_id = InternLocked(cat);
  events_.push_back(Record{InternLocked(name), cat_id, tid, ph, ts_us, dur_us, value, trace_id});
}

void TraceSink::AddComplete(const std::string& name, const std::string& cat, int64_t ts_us,
                            int64_t dur_us) {
  uint32_t tid = CurrentTid();
  std::lock_guard<std::mutex> lock(mu_);
  AddLocked(name, cat, 'X', ts_us, dur_us, tid, 0, 0);
}

void TraceSink::AddRequestSpans(std::string_view cat, uint64_t trace_id,
                                std::span<const RequestSpan> spans) {
  auto tid = static_cast<uint32_t>(trace_id % 100000);
  std::lock_guard<std::mutex> lock(mu_);
  uint32_t cat_id = InternLocked(cat);
  for (const RequestSpan& s : spans) {
    events_.push_back(
        Record{InternLocked(s.name), cat_id, tid, 'X', s.ts_us, s.dur_us, 0, trace_id});
  }
}

void TraceSink::AddCounter(const std::string& name, double value) {
  int64_t ts_us = NowUs();
  uint32_t tid = CurrentTid();
  std::lock_guard<std::mutex> lock(mu_);
  AddLocked(name, "counter", 'C', ts_us, 0, tid, value, 0);
}

void TraceSink::AddInstant(const std::string& name, const std::string& cat) {
  int64_t ts_us = NowUs();
  uint32_t tid = CurrentTid();
  std::lock_guard<std::mutex> lock(mu_);
  AddLocked(name, cat, 'i', ts_us, 0, tid, 0, 0);
}

size_t TraceSink::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return events_.size();
}

std::vector<TraceEvent> TraceSink::Events() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<TraceEvent> out;
  out.reserve(events_.size());
  for (const Record& r : events_) {
    TraceEvent e;
    e.name = names_[r.name];
    e.cat = names_[r.cat];
    e.ph = r.ph;
    e.ts_us = r.ts_us;
    e.dur_us = r.dur_us;
    e.tid = r.tid;
    e.value = r.value;
    e.trace_id = r.trace_id;
    out.push_back(std::move(e));
  }
  return out;
}

std::string TraceSink::ToChromeJson() const {
  std::ostringstream os;
  os << "{\"traceEvents\":[";
  bool first = true;
  for (const TraceEvent& e : Events()) {
    if (!first) {
      os << ",\n";
    }
    first = false;
    AppendEventJson(os, e);
  }
  os << "],\"displayTimeUnit\":\"ms\"}\n";
  return os.str();
}

std::string TraceSink::ToJsonl() const {
  std::ostringstream os;
  for (const TraceEvent& e : Events()) {
    std::ostringstream line;
    AppendEventJson(line, e);
    os << line.str() << "\n";
  }
  return os.str();
}

namespace {

bool WriteFile(const std::string& path, const std::string& content) {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return false;
  }
  size_t n = std::fwrite(content.data(), 1, content.size(), f);
  bool ok = n == content.size();
  ok = std::fclose(f) == 0 && ok;
  return ok;
}

}  // namespace

bool TraceSink::WriteChromeJson(const std::string& path) const {
  return WriteFile(path, ToChromeJson());
}

bool TraceSink::WriteJsonl(const std::string& path) const {
  return WriteFile(path, ToJsonl());
}

StageTimer::StageTimer(const char* span_name, const char* metric_name, const char* cat)
    : span_(span_name, cat), metric_(metric_name), timing_(Enabled()) {
  if (timing_) {
    start_ = std::chrono::steady_clock::now();
  }
}

StageTimer::~StageTimer() {
  if (timing_) {
    double ms = std::chrono::duration<double, std::milli>(
                    std::chrono::steady_clock::now() - start_)
                    .count();
    MetricsRegistry::Global()
        .GetHistogram(metric_, Histogram::ExponentialBuckets(0.001, 2, 40))
        .Observe(ms);
  }
}

TraceSink* GlobalTrace() { return g_sink.load(std::memory_order_acquire); }

void SetGlobalTrace(TraceSink* sink) { g_sink.store(sink, std::memory_order_release); }

void TraceCounter(const char* name, double value) {
  TraceSink* sink = GlobalTrace();
  if (sink != nullptr) {
    sink->AddCounter(name, value);
  }
}

}  // namespace obs
}  // namespace clara
