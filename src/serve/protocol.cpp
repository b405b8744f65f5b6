#include "serve/protocol.hpp"

#include <cinttypes>
#include <cstdio>

#include "wire/lexer.hpp"

namespace hs::serve {

namespace {

using wire::json_escape;

/// The request grammar's number: an unsigned integer, with a clearer
/// message for the float a client might send.
std::uint64_t integer(wire::Lexer& lx) {
  const std::uint64_t v = lx.u64();
  if (lx.consume(".") || lx.consume("e") || lx.consume("E")) {
    lx.fail("expected an integer, not a float");
  }
  return v;
}

bool boolean(wire::Lexer& lx) {
  if (lx.consume("true")) return true;
  if (lx.consume("false")) return false;
  lx.fail("expected true or false");
}

}  // namespace

// Objects, strings, unsigned integers and booleans — the whole request
// grammar. Tolerant of key order and whitespace (clients serialize with
// stock JSON libraries), strict about everything else: duplicate keys,
// unknown keys, wrong value types, trailing bytes and unsupported JSON
// (floats, arrays, null, nested objects outside "overrides") all fail.
Request parse_request(std::string_view line) try {
  if (line.size() > kMaxRequestBytes) {
    throw ProtocolError("request: line exceeds " +
                        std::to_string(kMaxRequestBytes) + " bytes");
  }
  wire::Lexer lx(line, wire::Lexer::Blanks::kSkip);
  Request req;
  std::string cmd;
  bool have_cmd = false, have_preset = false, have_id = false;
  bool have_seed = false, have_trials = false, have_chunk_size = false;
  bool have_priority = false, have_overrides = false;

  lx.expect("{");
  if (!lx.consume("}")) {
    for (;;) {
      const std::string key = lx.string();
      lx.expect(":");
      const auto once = [&lx, &key](bool& seen) {
        if (seen) lx.fail("duplicate key '" + key + "'");
        seen = true;
      };
      if (key == "cmd") {
        once(have_cmd);
        cmd = lx.string();
      } else if (key == "preset") {
        once(have_preset);
        req.run.preset = lx.string();
      } else if (key == "seed") {
        once(have_seed);
        req.run.seed = integer(lx);
      } else if (key == "trials") {
        once(have_trials);
        req.run.trials = static_cast<std::size_t>(integer(lx));
      } else if (key == "chunk_size") {
        once(have_chunk_size);
        req.run.chunk_size = static_cast<std::size_t>(integer(lx));
      } else if (key == "priority") {
        once(have_priority);
        const std::uint64_t p = integer(lx);
        if (p < kMinPriority || p > kMaxPriority) {
          lx.fail("priority must be in [" + std::to_string(kMinPriority) +
                  ", " + std::to_string(kMaxPriority) + "]");
        }
        req.run.priority = static_cast<unsigned>(p);
      } else if (key == "overrides") {
        once(have_overrides);
        lx.expect("{");
        if (!lx.consume("}")) {
          bool have_snapshots = false;
          for (;;) {
            const std::string okey = lx.string();
            lx.expect(":");
            if (okey == "snapshots") {
              if (have_snapshots) lx.fail("duplicate override 'snapshots'");
              have_snapshots = true;
              req.run.snapshots = boolean(lx);
            } else {
              // Only execution-shaping knobs that cannot change report
              // bytes are overridable; reject the rest loudly so a
              // client cannot believe it changed something it did not.
              lx.fail("unknown override '" + okey +
                      "' (allowed: snapshots)");
            }
            if (lx.consume(",")) continue;
            lx.expect("}");
            break;
          }
        }
      } else if (key == "id") {
        once(have_id);
        req.cancel_id = integer(lx);
      } else {
        lx.fail("unknown key '" + key + "'");
      }
      if (lx.consume(",")) continue;
      lx.expect("}");
      break;
    }
  }
  if (!lx.at_end()) lx.fail("trailing bytes after request object");
  if (!have_cmd) throw ProtocolError("request: missing 'cmd'");

  const bool run_keys = have_preset || have_seed || have_trials ||
                        have_chunk_size || have_priority || have_overrides;
  if (cmd == "run") {
    req.kind = RequestKind::kRun;
    if (!have_preset || req.run.preset.empty()) {
      throw ProtocolError("request: run needs a non-empty 'preset'");
    }
    if (have_chunk_size && req.run.chunk_size == 0) {
      throw ProtocolError("request: chunk_size must be >= 1");
    }
    if (req.run.trials > 100000000) {
      throw ProtocolError("request: trials too large (max 100000000)");
    }
    if (have_id) throw ProtocolError("request: 'id' is not valid for run");
  } else if (cmd == "cancel") {
    req.kind = RequestKind::kCancel;
    if (!have_id) throw ProtocolError("request: cancel needs 'id'");
    if (run_keys) {
      throw ProtocolError("request: run-only keys are not valid for cancel");
    }
  } else if (cmd == "stats" || cmd == "ping") {
    req.kind = cmd == "stats" ? RequestKind::kStats : RequestKind::kPing;
    if (run_keys || have_id) {
      throw ProtocolError("request: extra keys are not valid for '" + cmd +
                          "'");
    }
  } else {
    throw ProtocolError("request: unknown cmd '" + cmd + "'");
  }
  return req;
} catch (const wire::Error& e) {
  throw ProtocolError("request: " + std::string(e.what()) + " (byte " +
                      std::to_string(e.offset) + ")");
}

std::string admitted_line(std::uint64_t id, std::string_view preset,
                          std::size_t total_chunks,
                          std::size_t queue_depth) {
  char buf[256];
  std::snprintf(buf, sizeof buf,
                "{\"type\":\"admitted\",\"id\":%" PRIu64
                ",\"preset\":\"%s\",\"total_chunks\":%zu,"
                "\"queue_depth\":%zu}",
                id, json_escape(preset).c_str(), total_chunks, queue_depth);
  return buf;
}

std::string rejected_line(std::uint64_t retry_after_ms,
                          std::string_view reason) {
  char buf[256];
  std::snprintf(buf, sizeof buf,
                "{\"type\":\"rejected\",\"code\":429,\"retry_after_ms\":%" PRIu64
                ",\"reason\":\"%s\"}",
                retry_after_ms, json_escape(reason).c_str());
  return buf;
}

std::string error_line(std::string_view reason) {
  return "{\"type\":\"error\",\"reason\":\"" + json_escape(reason) + "\"}";
}

std::string framed_line(std::string_view type, std::uint64_t id,
                        std::string_view v3_line) {
  std::string out = "{\"type\":\"";
  out += type;
  out += "\",\"id\":";
  out += std::to_string(id);
  out += ",\"line\":\"";
  out += json_escape(v3_line);
  out += "\"}";
  return out;
}

std::string report_line(std::uint64_t id, std::string_view csv,
                        std::string_view json) {
  std::string out = "{\"type\":\"report\",\"id\":";
  out += std::to_string(id);
  out += ",\"csv\":\"";
  out += json_escape(csv);
  out += "\",\"json\":\"";
  out += json_escape(json);
  out += "\"}";
  return out;
}

std::string done_line(std::uint64_t id, std::size_t chunks, double wall_ms,
                      double queue_wait_ms) {
  char buf[192];
  std::snprintf(buf, sizeof buf,
                "{\"type\":\"done\",\"id\":%" PRIu64
                ",\"chunks\":%zu,\"wall_ms\":%.3f,\"queue_wait_ms\":%.3f}",
                id, chunks, wall_ms, queue_wait_ms);
  return buf;
}

std::string cancelled_line(std::uint64_t id, std::size_t chunks_completed) {
  char buf[128];
  std::snprintf(buf, sizeof buf,
                "{\"type\":\"cancelled\",\"id\":%" PRIu64
                ",\"chunks_completed\":%zu}",
                id, chunks_completed);
  return buf;
}

std::string pong_line() { return "{\"type\":\"pong\"}"; }

std::string stats_line(const obs::ServiceStatsSnapshot& s) {
  const auto lat = [](const obs::LatencyWindow::Percentiles& p) {
    char buf[160];
    std::snprintf(buf, sizeof buf,
                  "{\"count\":%" PRIu64
                  ",\"p50_ms\":%.3f,\"p90_ms\":%.3f,\"p99_ms\":%.3f,"
                  "\"max_ms\":%.3f}",
                  p.count, p.p50, p.p90, p.p99, p.max);
    return std::string(buf);
  };
  char buf[512];
  std::snprintf(buf, sizeof buf,
                "{\"type\":\"stats\",\"requests_admitted\":%" PRIu64
                ",\"requests_rejected\":%" PRIu64
                ",\"requests_cancelled\":%" PRIu64
                ",\"requests_completed\":%" PRIu64
                ",\"chunks_executed\":%" PRIu64
                ",\"queue_depth\":%zu,\"active_requests\":%zu"
                ",\"accept_backoffs\":%" PRIu64
                ",\"clients_dropped\":%" PRIu64,
                s.requests_admitted, s.requests_rejected,
                s.requests_cancelled, s.requests_completed,
                s.chunks_executed, s.queue_depth, s.active_requests,
                s.accept_backoffs, s.clients_dropped);
  std::string out = buf;
  out += ",\"wall\":";
  out += lat(s.wall_ms);
  out += ",\"queue_wait\":";
  out += lat(s.queue_wait_ms);
  out += "}";
  return out;
}

}  // namespace hs::serve
