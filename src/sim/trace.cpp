#include "sim/trace.hpp"

#include <sstream>

#include "snapshot/state_io.hpp"

namespace hs::sim {

const char* event_kind_name(EventKind kind) {
  switch (kind) {
    case EventKind::kTxStart:
      return "tx-start";
    case EventKind::kTxEnd:
      return "tx-end";
    case EventKind::kFrameReceived:
      return "frame-received";
    case EventKind::kFrameCorrupted:
      return "frame-corrupted";
    case EventKind::kCommandExecuted:
      return "command-executed";
    case EventKind::kJamStart:
      return "jam-start";
    case EventKind::kJamEnd:
      return "jam-end";
    case EventKind::kAlarm:
      return "alarm";
    case EventKind::kProbe:
      return "probe";
    case EventKind::kInfo:
      return "info";
  }
  return "unknown";
}

void EventLog::record(double time_s, std::string source, EventKind kind,
                      std::string detail) {
  events_.push_back({time_s, std::move(source), kind, std::move(detail)});
}

std::vector<Event> EventLog::filter(EventKind kind,
                                    std::string_view source) const {
  std::vector<Event> out;
  for (const auto& e : events_) {
    if (e.kind == kind && (source.empty() || e.source == source)) {
      out.push_back(e);
    }
  }
  return out;
}

std::size_t EventLog::count(EventKind kind, std::string_view source) const {
  std::size_t n = 0;
  for (const auto& e : events_) {
    if (e.kind == kind && (source.empty() || e.source == source)) ++n;
  }
  return n;
}

void EventLog::save_state(snapshot::StateWriter& w) const {
  w.begin("event-log");
  w.u64("events", events_.size());
  for (const Event& e : events_) {
    w.f64("t", e.time_s);
    w.str("source", e.source);
    w.u64("kind", static_cast<std::uint64_t>(e.kind));
    w.str("detail", e.detail);
  }
  w.end("event-log");
}

std::string EventLog::to_string() const {
  std::ostringstream os;
  for (const auto& e : events_) {
    os << e.time_s << "s  [" << e.source << "] " << event_kind_name(e.kind);
    if (!e.detail.empty()) os << "  " << e.detail;
    os << '\n';
  }
  return os.str();
}

}  // namespace hs::sim
