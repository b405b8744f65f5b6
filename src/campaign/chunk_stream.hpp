/// @file
/// Versioned, self-describing chunk-stream serialization (JSONL) for
/// sharded multi-process campaigns, and the merge that folds shard
/// streams back into aggregates bit-identical to a serial run.
///
/// Wire format — one JSON object per line, each line ending in a
/// CRC-16/CCITT checksum field (v3) so any single-byte corruption of a
/// line is detected rather than merged:
///
///   line 1    header: {"format":"hs-chunk-stream","version":3,
///             "scenario":...,"seed":...,"trials_per_point":...,
///             "chunk_size":...,"shard_count":K,"shard_index":i,
///             "point_count":...,"total_chunks":...,"chunk_count":N,
///             "mode":"deal"|"repair","crc":"xxxx"}
///   lines 2+  exactly N chunk records in ascending global chunk id:
///             {"chunk":id,"point":p,"trial_begin":a,"trial_end":b,
///              "metrics":{"<metric_name>":{"count":n,"mean":"0x...",
///              "m2":"0x...","min":"0x...","max":"0x..."}},"crc":"xxxx"}
///   last line metrics trailer (v2+, mandatory): the shard's merged
///             observability report, so `--merge` can aggregate all K
///             shards' counters and phase timers:
///             {"trailer":"hs-metrics","version":3,"threads":T,
///              "wall_ns":W,"counters":{"<counter>":n,... every
///              obs::Counter in enum order},"phases":{"<phase>":
///              {"calls":c,"ns":t},... every obs::Phase in enum order},
///              "crc":"xxxx"}
///
/// The "crc" value is the CRC-16/CCITT-FALSE of the line as it would
/// read WITHOUT the crc field (payload bytes up to the ',"crc"' suffix
/// plus the closing '}'), as four lowercase hex digits. A CRC-16 detects
/// every burst error up to 16 bits, so any single-byte mutation of a
/// line fails the check even when the mutated line would still parse.
///
/// "mode" is "deal" for a stream produced by the round-robin shard plan
/// (every chunk id satisfies id % K == i) and "repair" for a re-deal
/// stream produced by the fault-tolerant dispatcher (explicit chunk ids;
/// see dispatch.hpp). The strict merge accepts only "deal" streams;
/// repair streams are folded by the dispatcher's recovery merge.
///
/// Doubles travel as C99 hex-float strings ("0x1.5bf0a8b145769p+1"):
/// exact binary round trip, no decimal rounding, locale-proof. Only
/// metrics with samples are written; trailer counters/phases are always
/// written (integers, zero included) so the trailer layout is fixed.
///
/// The parser and merge are strict by design: truncated lines, CRC
/// mismatches, missing or duplicate chunk ids, chunk metadata that
/// disagrees with the shard plan, a missing or malformed trailer, and
/// header mismatches across streams (different scenario, seed, trial
/// count, chunk size, shard count or version) are hard errors — never a
/// silent partial merge. salvage_chunk_stream() is the one sanctioned
/// relaxation: it returns the longest valid prefix of records from a
/// truncated or corrupted stream (each record re-validated by exactly
/// the strict rules) so the dispatcher can re-deal only what was lost.
#pragma once

#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "campaign/runner.hpp"

namespace hs::campaign {

/// Parse/validation failure in a chunk stream; the message names the
/// offending source and line.
class ChunkStreamError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// v2 appended the mandatory metrics trailer line; v3 added the per-line
/// CRC and the header "mode" field (deal vs repair). Older streams are
/// rejected — regenerate with --emit-chunks.
inline constexpr int kChunkStreamVersion = 3;

struct ChunkStreamHeader {
  int version = kChunkStreamVersion;
  std::string scenario;
  std::uint64_t seed = 0;
  std::size_t trials_per_point = 0;
  std::size_t chunk_size = 1;
  std::size_t shard_count = 1;
  std::size_t shard_index = 0;
  std::size_t point_count = 0;
  std::size_t total_chunks = 0;  ///< across ALL shards
  std::size_t chunk_count = 0;   ///< records in THIS stream
  /// Repair streams carry an explicit chunk set (re-dealt by the
  /// dispatcher) instead of the round-robin deal, so the per-record
  /// `id % shard_count == shard_index` membership rule does not apply.
  bool repair = false;
};

struct ChunkRecord {
  ChunkRef ref;
  std::array<StreamingStats, kMetricCount> metrics;
  /// 1-based line in the source stream — the locator merge/salvage
  /// diagnostics report.
  std::size_t lineno = 0;
};

/// The shard's observability report as carried by the v2+ trailer line.
struct ShardMetricsTrailer {
  int version = obs::kMetricsVersion;
  unsigned threads = 1;
  std::uint64_t wall_ns = 0;
  obs::Report report;
};

struct ChunkStream {
  ChunkStreamHeader header;
  std::vector<ChunkRecord> chunks;
  ShardMetricsTrailer trailer;
  /// The stream's name (file path) as given to the parser; merge
  /// diagnostics quote it alongside the shard index.
  std::string source;
};

/// Aggregated observability across the K merged shard streams: thread
/// counts and wall time are summed (total CPU budget, not elapsed time),
/// the reports merged counter-by-counter. Kept separate from the
/// canonical CampaignResult, whose runtime fields stay zeroed.
struct MergedMetrics {
  std::size_t shards = 0;
  unsigned threads = 0;
  std::uint64_t wall_ns = 0;
  obs::Report report;
};

/// Best-effort parse of a possibly truncated or corrupted stream: the
/// longest prefix of lines that the strict rules accept. Never throws.
///
/// Salvage semantics (pinned by test_shard_merge's SalvageMode suite):
///   - the header must parse strictly, else nothing is salvaged;
///   - records are accepted one by one under exactly the strict parser's
///     checks (CRC, field layout, ordering, plan membership) and
///     acceptance stops at the first offending line — every salvaged
///     chunk is one the strict parser would also accept, and a salvaged
///     prefix is always a prefix of what the intact stream carried;
///   - `complete` is true iff the whole stream is strictly valid
///     (records fulfil the header's promise and the trailer checks out),
///     in which case `trailer` is meaningful. parse_chunk_stream is this
///     salvage plus a throw when it is not complete, so the two agree by
///     construction.
struct SalvagedStream {
  bool header_valid = false;
  ChunkStreamHeader header;
  std::vector<ChunkRecord> chunks;
  bool complete = false;
  ShardMetricsTrailer trailer;
  std::string source;
  /// Why salvage stopped short (empty when complete): the message of the
  /// ChunkStreamError parse_chunk_stream throws for this stream.
  std::string truncation_reason;
};

SalvagedStream salvage_chunk_stream(std::string_view text,
                                    std::string_view source);

/// Reads `path` and salvages it. An unreadable file yields an empty
/// salvage (header_valid=false) with the reason recorded — a dead
/// shard's missing stream is data loss, not a crash.
SalvagedStream salvage_chunk_stream_file(const std::string& path);

/// Serializes one shard's execution. `options` supplies the campaign
/// seed; the resolved geometry comes from exec.plan.
std::string serialize_chunk_stream(const Scenario& scenario,
                                   const CampaignOptions& options,
                                   const ShardExecution& exec);

/// Single-line serializers for incremental producers — the service
/// daemon frames these in its responses as chunks complete. Each
/// returns the exact sealed line (no trailing newline) that
/// serialize_chunk_stream would have written, so a client that collects
/// the header, every record sorted by ascending chunk id, and the
/// trailer, joined by '\n', holds a byte-identical, strictly parseable
/// v3 stream it can feed back through `--merge`.
std::string serialize_stream_header(const Scenario& scenario,
                                    const CampaignOptions& options,
                                    const ShardPlan& plan);
std::string serialize_chunk_record(
    const ChunkRef& ref,
    const std::array<StreamingStats, kMetricCount>& metrics);
std::string serialize_metrics_trailer(unsigned threads, double wall_seconds,
                                      const obs::Report& report);

/// Parses and validates one stream: salvage_chunk_stream, throwing
/// ChunkStreamError with the truncation reason unless the stream is
/// complete. `source` names the stream (file path) in error messages.
ChunkStream parse_chunk_stream(std::string_view text,
                               std::string_view source);

/// Reads `path` and parses it. Throws ChunkStreamError (including for
/// unreadable files).
ChunkStream load_chunk_stream(const std::string& path);

/// Folds K shard streams into a CampaignResult whose per-point
/// aggregates — and therefore CSV/JSON reports — are bit-identical to
/// the serial single-process run of the same (scenario, seed, trials,
/// chunk size). Validates that the streams agree on every header field,
/// cover shard indices 0..K-1 exactly once, and match the recomputed
/// shard plans chunk-for-chunk; those plans partition the global chunk
/// ids, so the streams jointly hold each exactly once. Repair streams
/// are rejected — recovered campaigns merge through the dispatcher
/// (dispatch.hpp), which validates an explicit chunk cover instead.
/// Every rejection names the offending shard, stream source and record
/// line. The result's runtime fields (wall time, threads) are zeroed —
/// reports are canonical.
/// With `metrics` non-null the shard trailers are aggregated into it
/// (merge order never matters: Report::merge is integer addition).
/// Throws ChunkStreamError.
CampaignResult merge_chunk_streams(const Scenario& scenario,
                                   const std::vector<ChunkStream>& streams,
                                   MergedMetrics* metrics = nullptr);

}  // namespace hs::campaign
