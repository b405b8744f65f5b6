/// @file
/// Line-delimited JSON protocol for campaign_serverd.
///
/// Requests (client -> server), one JSON object per line:
///
///   {"cmd":"run","preset":"fig9-eaves-ber","seed":1,"trials":40,
///    "chunk_size":1,"priority":2}
///   {"cmd":"cancel","id":7}
///   {"cmd":"stats"}
///   {"cmd":"ping"}
///
/// Only "cmd" (and, for run, "preset") is required. The request parser
/// is deliberately tolerant — any key order, arbitrary whitespace —
/// because clients are external programs (tools/hs_client.py sends
/// json.dumps output); unknown keys and malformed values are still hard
/// errors, never silently ignored. Tokens are the strict wire codec's
/// (wire/lexer.hpp): integers are digits only, and strings take only the
/// escapes json_escape writes (\" \\ \n \r \t). Everything that could
/// alter aggregates (seed, trials, chunk_size) is a first-class field of
/// the request, so the serial CLI command the report must byte-match is
/// derivable from the request alone. A cancel reaches only the runs
/// submitted on the same connection.
///
/// Responses (server -> client), one JSON object per line, "type"-keyed:
///
///   {"type":"admitted","id":N,"preset":"...","total_chunks":C,
///    "queue_depth":D}             accepted; results will stream
///   {"type":"rejected","code":429,"retry_after_ms":M,"reason":"..."}
///                                 admission queue full — back off
///   {"type":"error","reason":"..."}  malformed request / unknown preset
///   {"type":"header","id":N,"line":"<v3 header line>"}
///   {"type":"chunk","id":N,"line":"<v3 chunk record>"}   (per chunk,
///                                 completion order, NOT sorted by id)
///   {"type":"trailer","id":N,"line":"<v3 metrics trailer>"}
///   {"type":"report","id":N,"csv":"...","json":"..."}  canonical final
///                                 report, byte-identical to the serial
///                                 CLI run of the same request
///   {"type":"done","id":N,"chunks":C,"wall_ms":...,"queue_wait_ms":...}
///   {"type":"cancelled","id":N,"chunks_completed":K}
///   {"type":"stats",...}          see stats_line()
///   {"type":"pong"}
///
/// The "line" payloads of header/chunk/trailer frames are the exact
/// sealed v3 chunk-stream lines (campaign/chunk_stream.hpp), JSON-string
/// escaped; a client that unescapes them, sorts the chunk records by
/// ascending chunk id, and joins header + records + trailer with '\n'
/// holds a stream that `campaign_runner --merge` accepts and folds into
/// the same canonical report.
#pragma once

#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>

#include "obs/service_stats.hpp"

namespace hs::serve {

/// Request parse/validation failure; the message is safe to send back
/// verbatim in an error_line().
class ProtocolError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Hard cap on one request line (bytes, newline excluded). A legitimate
/// request is < 1 KiB; anything larger is a protocol violation and the
/// connection is dropped before the buffer grows unbounded.
inline constexpr std::size_t kMaxRequestBytes = 16 * 1024;

/// Weighted-fair scheduling weight bounds (see serve/scheduler.hpp).
inline constexpr unsigned kMinPriority = 1;
inline constexpr unsigned kMaxPriority = 8;

struct RunRequest {
  std::string preset;
  std::uint64_t seed = 1;
  std::size_t trials = 0;      ///< 0 = the preset's default_trials
  std::size_t chunk_size = 1;
  unsigned priority = 1;       ///< kMinPriority..kMaxPriority
};

enum class RequestKind { kRun, kCancel, kStats, kPing };

struct Request {
  RequestKind kind = RequestKind::kPing;
  RunRequest run;               ///< kind == kRun
  std::uint64_t cancel_id = 0;  ///< kind == kCancel
};

/// Parses one request line. Throws ProtocolError on anything malformed:
/// non-JSON bytes, duplicate or unknown keys, wrong value types,
/// out-of-range priority, zero chunk_size, or an unknown cmd.
Request parse_request(std::string_view line);

// -- response builders (no trailing newline) --------------------------------

std::string admitted_line(std::uint64_t id, std::string_view preset,
                          std::size_t total_chunks, std::size_t queue_depth);
std::string rejected_line(std::uint64_t retry_after_ms,
                          std::string_view reason);
std::string error_line(std::string_view reason);
/// `type` is "header", "chunk" or "trailer"; `v3_line` the sealed
/// chunk-stream line to frame.
std::string framed_line(std::string_view type, std::uint64_t id,
                        std::string_view v3_line);
std::string report_line(std::uint64_t id, std::string_view csv,
                        std::string_view json);
std::string done_line(std::uint64_t id, std::size_t chunks, double wall_ms,
                      double queue_wait_ms);
std::string cancelled_line(std::uint64_t id, std::size_t chunks_completed);
std::string pong_line();
std::string stats_line(const obs::ServiceStatsSnapshot& s);

}  // namespace hs::serve
