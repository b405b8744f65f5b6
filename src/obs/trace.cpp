#include "obs/trace.hpp"

#include <cstdio>

#include "wire/lexer.hpp"

namespace hs::obs {

using wire::json_escape;

TraceRecorder::TraceRecorder(std::uint32_t pid)
    : pid_(pid), epoch_(std::chrono::steady_clock::now()) {}

std::uint32_t TraceRecorder::register_thread(const std::string& name) {
  std::lock_guard<std::mutex> lock(mutex_);
  const std::uint32_t tid = next_tid_++;
  TraceEvent meta;
  meta.name = "thread_name";
  meta.category = "__metadata";
  meta.phase = 'M';
  meta.ts_ns = 0;
  meta.tid = tid;
  meta.args_json = "{\"name\":\"" + json_escape(name) + "\"}";
  events_.push_back(std::move(meta));
  return tid;
}

void TraceRecorder::add(std::vector<TraceEvent>& events) {
  if (events.empty()) return;
  std::lock_guard<std::mutex> lock(mutex_);
  for (TraceEvent& e : events) events_.push_back(std::move(e));
  events.clear();
}

// steady_clock and the %.3f timestamp rendering below are allowlisted
// in LINT.toml (steady-clock-scope, float-format): trace timestamps
// label the timeline for humans and are excluded from every
// byte-identity comparison.
std::uint64_t TraceRecorder::now_ns() const {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - epoch_)
          .count());
}

std::vector<TraceEvent> TraceRecorder::events() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return events_;
}

std::string TraceRecorder::to_json() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::string out;
  out.reserve(events_.size() * 96 + 128);
  char buf[64];
  std::snprintf(buf, sizeof buf,
                "{\"otherData\":{\"format\":\"hs-trace\",\"version\":%d},\n",
                kTraceVersion);
  out += buf;
  out += "\"displayTimeUnit\":\"ms\",\n\"traceEvents\":[\n";
  for (std::size_t i = 0; i < events_.size(); ++i) {
    const TraceEvent& e = events_[i];
    out += "{\"name\":\"";
    out += json_escape(e.name);
    out += "\",\"cat\":\"";
    out += json_escape(e.category);
    out += "\",\"ph\":\"";
    out += e.phase;
    // Microseconds with nanosecond resolution, the trace-event ts unit.
    std::snprintf(buf, sizeof buf, "\",\"ts\":%.3f,\"pid\":%u,\"tid\":%u",
                  static_cast<double>(e.ts_ns) / 1e3, pid_, e.tid);
    out += buf;
    if (e.phase == 'i') out += ",\"s\":\"t\"";
    if (!e.args_json.empty()) {
      out += ",\"args\":";
      out += e.args_json;
    }
    out += i + 1 < events_.size() ? "},\n" : "}\n";
  }
  out += "]}\n";
  return out;
}

}  // namespace hs::obs
