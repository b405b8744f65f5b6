// Structured event log shared by all nodes: who transmitted/received/
// jammed/alarmed and when. Experiments assert on and print from this.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

namespace hs::snapshot {
class StateWriter;
}  // namespace hs::snapshot

namespace hs::sim {

enum class EventKind {
  kTxStart,
  kTxEnd,
  kFrameReceived,   ///< CRC-valid frame decoded
  kFrameCorrupted,  ///< frame detected but CRC failed
  kCommandExecuted,
  kJamStart,
  kJamEnd,
  kAlarm,
  kProbe,
  kInfo,
};

const char* event_kind_name(EventKind kind);

struct Event {
  double time_s = 0.0;
  std::string source;
  EventKind kind = EventKind::kInfo;
  std::string detail;
};

class EventLog {
 public:
  void record(double time_s, std::string source, EventKind kind,
              std::string detail = {});

  const std::vector<Event>& events() const { return events_; }
  void clear() { events_.clear(); }

  /// All events of the given kind, optionally filtered by source.
  std::vector<Event> filter(EventKind kind, std::string_view source = {}) const;

  /// Count of events of the given kind (optionally by source).
  std::size_t count(EventKind kind, std::string_view source = {}) const;

  /// Human-readable dump (for examples and debugging).
  std::string to_string() const;

  /// Writes every event into a warm-state snapshot: experiments read
  /// warm-up events back out of the log (e.g. jam-end timestamps), so
  /// they are part of the post-warm-up state.
  void save_state(snapshot::StateWriter& w) const;

 private:
  std::vector<Event> events_;
};

}  // namespace hs::sim
