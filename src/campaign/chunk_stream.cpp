#include "campaign/chunk_stream.hpp"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <set>
#include <utility>

#include "phy/crc.hpp"
#include "wire/file.hpp"
#include "wire/lexer.hpp"

namespace hs::campaign {

namespace {

/// CRC-16/CCITT over the line as it reads without the crc field: the
/// payload bytes up to the ',"crc"' suffix plus a closing '}'. The writer
/// computes it over the complete v2-style line before splicing the crc
/// field in; the parser reconstructs the same byte sequence.
std::uint16_t line_crc(std::string_view payload_without_close) {
  phy::Crc16 crc;
  for (const char c : payload_without_close) {
    crc.update(static_cast<std::uint8_t>(c));
  }
  crc.update(static_cast<std::uint8_t>('}'));
  return crc.value();
}

/// Replaces a finished line's closing '}' with the checksum suffix:
/// `{...}` -> `{...,"crc":"xxxx"}`.
void seal_line(std::string& line) {
  const std::uint16_t crc =
      line_crc(std::string_view(line).substr(0, line.size() - 1));
  char buf[24];
  std::snprintf(buf, sizeof buf, ",\"crc\":\"%04x\"}", crc);
  line.resize(line.size() - 1);
  line += buf;
}

/// The ChunkStreamError for `what` in `source`, naming the 1-based line
/// at fault (0 when the stream as a whole is). The line parsers below run
/// a strict wire::Lexer and report its failures through this, so any
/// deviation from the writer's byte layout fails with that context — a
/// truncated or hand-edited line cannot parse into a half-read record.
ChunkStreamError stream_error(std::string_view source, std::size_t lineno,
                              const std::string& what) {
  std::string msg = "chunk-stream: " + std::string(source);
  if (lineno != 0) msg += " line " + std::to_string(lineno);
  return ChunkStreamError(msg + ": " + what);
}

/// `"name":` for the keys spelled by enum order (counters, phases).
void expect_key(wire::Lexer& lx, std::string_view name) {
  lx.expect("\"");
  lx.expect(name);
  lx.expect("\":");
}

/// A double field: `key` (ending in the opening quote), the hex-float,
/// the closing quote — doubles travel as hex-float strings.
double hex_double_field(wire::Lexer& lx, std::string_view key) {
  lx.expect(key);
  const double v = lx.hex_double();
  lx.expect("\"");
  return v;
}

/// The v3 line tail: `,"crc":"xxxx"}` then end of line. Verifies the
/// checksum over every payload byte scanned so far plus the closing
/// brace the v2 layout would have had — so a mutation anywhere in the
/// line, even one that still parses field-by-field, is rejected here.
void expect_crc_and_end(wire::Lexer& lx, std::string_view line) {
  const std::size_t payload_end = lx.pos();
  lx.expect(",\"crc\":");
  const std::string hex = lx.string();
  const auto got = hex.size() == 4 ? wire::parse_hex(hex) : std::nullopt;
  if (!got) lx.fail("crc must be four lowercase hex digits");
  lx.expect("}");
  if (!lx.at_end()) lx.fail("trailing bytes after record");
  const std::uint16_t want = line_crc(line.substr(0, payload_end));
  if (*got != want) {
    char buf[64];
    std::snprintf(buf, sizeof buf,
                  "crc mismatch (line says %04x, payload is %04x)",
                  static_cast<unsigned>(*got), want);
    lx.fail(buf);
  }
}

ChunkStreamHeader parse_header(std::string_view line,
                               std::string_view source) try {
  wire::Lexer lx(line);
  ChunkStreamHeader h;
  lx.expect("{\"format\":");
  if (lx.string() != "hs-chunk-stream") {
    lx.fail("not an hs-chunk-stream file");
  }
  lx.expect(",\"version\":");
  const std::uint64_t version = lx.u64();
  if (version != static_cast<std::uint64_t>(kChunkStreamVersion)) {
    lx.fail("unsupported chunk-stream version " + std::to_string(version) +
            " (this build reads version " +
            std::to_string(kChunkStreamVersion) + ")");
  }
  h.version = static_cast<int>(version);
  lx.expect(",\"scenario\":");
  h.scenario = lx.string();
  lx.expect(",\"seed\":");
  h.seed = lx.u64();
  lx.expect(",\"trials_per_point\":");
  h.trials_per_point = lx.u64();
  lx.expect(",\"chunk_size\":");
  h.chunk_size = lx.u64();
  lx.expect(",\"shard_count\":");
  h.shard_count = lx.u64();
  lx.expect(",\"shard_index\":");
  h.shard_index = lx.u64();
  lx.expect(",\"point_count\":");
  h.point_count = lx.u64();
  lx.expect(",\"total_chunks\":");
  h.total_chunks = lx.u64();
  lx.expect(",\"chunk_count\":");
  h.chunk_count = lx.u64();
  lx.expect(",\"mode\":");
  const std::string mode = lx.string();
  if (mode == "deal") {
    h.repair = false;
  } else if (mode == "repair") {
    h.repair = true;
  } else {
    lx.fail("mode must be 'deal' or 'repair', not '" + mode + "'");
  }
  expect_crc_and_end(lx, line);

  if (h.shard_count == 0) lx.fail("shard_count must be >= 1");
  if (h.shard_index >= h.shard_count) {
    lx.fail("shard_index " + std::to_string(h.shard_index) +
            " out of range for shard_count " + std::to_string(h.shard_count));
  }
  if (h.chunk_size == 0) lx.fail("chunk_size must be >= 1");
  if (h.trials_per_point == 0) lx.fail("trials_per_point must be >= 1");
  return h;
} catch (const wire::Error& e) {
  throw stream_error(source, 1, e.what());
}

ChunkRecord parse_chunk_record(std::string_view line,
                               std::string_view source, std::size_t lineno,
                               const ChunkStreamHeader& h) try {
  wire::Lexer lx(line);
  ChunkRecord rec;
  rec.lineno = lineno;
  lx.expect("{\"chunk\":");
  rec.ref.chunk_index = lx.u64();
  lx.expect(",\"point\":");
  rec.ref.point_index = lx.u64();
  lx.expect(",\"trial_begin\":");
  rec.ref.trial_begin = lx.u64();
  lx.expect(",\"trial_end\":");
  rec.ref.trial_end = lx.u64();
  lx.expect(",\"metrics\":{");
  std::array<bool, kMetricCount> seen{};
  if (!lx.consume("}")) {
    for (;;) {
      const std::string name = lx.string();
      Metric metric;
      if (!metric_from_name(name, &metric)) {
        lx.fail("unknown metric '" + name + "'");
      }
      if (std::exchange(seen[static_cast<std::size_t>(metric)], true)) {
        lx.fail("duplicate metric '" + name + "'");
      }
      StreamingStats::Moments m;
      lx.expect(":{\"count\":");
      m.count = lx.u64();
      m.mean = hex_double_field(lx, ",\"mean\":\"");
      m.m2 = hex_double_field(lx, ",\"m2\":\"");
      m.min = hex_double_field(lx, ",\"min\":\"");
      m.max = hex_double_field(lx, ",\"max\":\"");
      lx.expect("}");
      if (m.count == 0) lx.fail("metric '" + name + "' with zero count");
      rec.metrics[static_cast<std::size_t>(metric)] =
          StreamingStats::from_moments(m);
      if (lx.consume(",")) continue;
      lx.expect("}");
      break;
    }
  }
  expect_crc_and_end(lx, line);

  if (rec.ref.chunk_index >= h.total_chunks) {
    lx.fail("chunk id " + std::to_string(rec.ref.chunk_index) +
            " out of range (total_chunks " + std::to_string(h.total_chunks) +
            ")");
  }
  if (!h.repair && rec.ref.chunk_index % h.shard_count != h.shard_index) {
    lx.fail("chunk id " + std::to_string(rec.ref.chunk_index) +
            " does not belong to shard " + std::to_string(h.shard_index) +
            "/" + std::to_string(h.shard_count));
  }
  if (rec.ref.point_index >= h.point_count ||
      rec.ref.trial_begin >= rec.ref.trial_end ||
      rec.ref.trial_end > h.trials_per_point) {
    lx.fail("chunk " + std::to_string(rec.ref.chunk_index) +
            " has an out-of-range point or trial window");
  }
  return rec;
} catch (const wire::Error& e) {
  throw stream_error(source, lineno, e.what());
}

/// The metrics trailer is as strict as the records: fixed key order,
/// every counter and phase present (enum order), the line checksum, and
/// nothing after the closing brace.
ShardMetricsTrailer parse_metrics_trailer(std::string_view line,
                                          std::string_view source,
                                          std::size_t lineno) try {
  wire::Lexer lx(line);
  ShardMetricsTrailer t;
  lx.expect("{\"trailer\":");
  if (lx.string() != "hs-metrics") {
    lx.fail("expected the hs-metrics trailer record");
  }
  lx.expect(",\"version\":");
  const std::uint64_t version = lx.u64();
  if (version != static_cast<std::uint64_t>(obs::kMetricsVersion)) {
    lx.fail("unsupported metrics trailer version " + std::to_string(version) +
            " (this build reads version " +
            std::to_string(obs::kMetricsVersion) + ")");
  }
  t.version = static_cast<int>(version);
  lx.expect(",\"threads\":");
  t.threads = static_cast<unsigned>(lx.u64());
  if (t.threads == 0) lx.fail("trailer threads must be >= 1");
  lx.expect(",\"wall_ns\":");
  t.wall_ns = lx.u64();
  lx.expect(",\"counters\":{");
  for (std::size_t i = 0; i < obs::kCounterCount; ++i) {
    if (i > 0) lx.expect(",");
    expect_key(lx, obs::counter_name(static_cast<obs::Counter>(i)));
    t.report.counters[i] = lx.u64();
  }
  lx.expect("},\"phases\":{");
  for (std::size_t i = 0; i < obs::kPhaseCount; ++i) {
    if (i > 0) lx.expect(",");
    expect_key(lx, obs::phase_name(static_cast<obs::Phase>(i)));
    lx.expect("{\"calls\":");
    t.report.phases[i].calls = lx.u64();
    lx.expect(",\"ns\":");
    t.report.phases[i].ns = lx.u64();
    lx.expect("}");
  }
  lx.expect("}");
  expect_crc_and_end(lx, line);
  return t;
} catch (const wire::Error& e) {
  throw stream_error(source, lineno, e.what());
}

std::vector<std::string_view> split_lines(std::string_view text) {
  std::vector<std::string_view> lines;
  std::size_t start = 0;
  while (start < text.size()) {
    const std::size_t end = text.find('\n', start);
    if (end == std::string_view::npos) break;  // caller handles the tail
    lines.push_back(text.substr(start, end - start));
    start = end + 1;
  }
  return lines;
}

/// The one walk over a stream under the strict rules: the header, then
/// the records it promises, then the metrics trailer. Each piece lands in
/// `out` as it is accepted; the first offending line throws, leaving the
/// valid prefix behind.
void walk_chunk_stream(std::string_view text, std::string_view source,
                       SalvagedStream& out) {
  if (text.empty()) throw stream_error(source, 0, "empty stream");
  // A missing final newline means the last line was cut mid-write; the
  // complete lines before it are still candidates.
  const std::vector<std::string_view> lines = split_lines(text);
  if (lines.empty()) throw stream_error(source, 0, "no complete line");
  out.header = parse_header(lines[0], source);
  out.header_valid = true;

  const std::size_t promised = out.header.chunk_count;
  out.chunks.reserve(std::min(promised, lines.size() - 1));
  for (std::size_t i = 1; i <= promised; ++i) {
    if (i == lines.size()) {
      throw stream_error(source, 0,
                         "stream ends after " + std::to_string(i - 1) +
                             " of " + std::to_string(promised) +
                             " promised records");
    }
    ChunkRecord rec = parse_chunk_record(lines[i], source, i + 1, out.header);
    if (!out.chunks.empty() &&
        rec.ref.chunk_index <= out.chunks.back().ref.chunk_index) {
      throw stream_error(source, i + 1,
                         "duplicate or out-of-order chunk id " +
                             std::to_string(rec.ref.chunk_index));
    }
    out.chunks.push_back(std::move(rec));
  }

  // The stream is complete only if the trailer line follows, checks out,
  // and nothing trails it.
  const std::size_t trailer_at = promised + 1;
  if (lines.size() == trailer_at) {
    throw stream_error(source, 0, "metrics trailer missing or cut short");
  }
  out.trailer =
      parse_metrics_trailer(lines[trailer_at], source, trailer_at + 1);
  if (lines.size() > trailer_at + 1 || text.back() != '\n') {
    throw stream_error(source, trailer_at + 2,
                       "unexpected bytes after the metrics trailer");
  }
  out.complete = true;
}

/// The strict reading of a salvage: the stream when it is complete,
/// otherwise the ChunkStreamError that stopped the walk.
ChunkStream require_complete(SalvagedStream s) {
  if (!s.complete) throw ChunkStreamError(s.truncation_reason);
  return {std::move(s.header), std::move(s.chunks), s.trailer,
          std::move(s.source)};
}

}  // namespace

std::string serialize_stream_header(const Scenario& scenario,
                                    const CampaignOptions& options,
                                    const ShardPlan& plan) {
  char buf[512];
  std::snprintf(buf, sizeof buf,
                "{\"format\":\"hs-chunk-stream\",\"version\":%d,"
                "\"scenario\":\"%s\",\"seed\":%" PRIu64
                ",\"trials_per_point\":%zu,\"chunk_size\":%zu,"
                "\"shard_count\":%zu,\"shard_index\":%zu,"
                "\"point_count\":%zu,\"total_chunks\":%zu,"
                "\"chunk_count\":%zu,\"mode\":\"%s\"}",
                kChunkStreamVersion, wire::json_escape(scenario.name).c_str(),
                options.seed, plan.trials_per_point, plan.chunk_size,
                plan.shard_count, plan.shard_index, plan.point_count,
                plan.total_chunks, plan.chunks.size(),
                plan.repair ? "repair" : "deal");
  std::string line = buf;
  seal_line(line);
  return line;
}

std::string serialize_chunk_record(
    const ChunkRef& ref,
    const std::array<StreamingStats, kMetricCount>& metrics) {
  char buf[160];
  std::snprintf(buf, sizeof buf,
                "{\"chunk\":%zu,\"point\":%zu,\"trial_begin\":%zu,"
                "\"trial_end\":%zu,\"metrics\":{",
                ref.chunk_index, ref.point_index, ref.trial_begin,
                ref.trial_end);
  std::string line = buf;
  // The exact bits of each double, as a hex-float string.
  const auto hex_double_field = [&line](const char* key, double v) {
    line += key;
    wire::append_hex_double(line, v);
    line += '"';
  };
  bool first = true;
  for (std::size_t m = 0; m < kMetricCount; ++m) {
    const auto moments = metrics[m].moments();
    if (moments.count == 0) continue;
    if (!first) line += ',';
    first = false;
    line += '"';
    line += metric_name(static_cast<Metric>(m));
    line += "\":{\"count\":";
    line += std::to_string(moments.count);
    hex_double_field(",\"mean\":\"", moments.mean);
    hex_double_field(",\"m2\":\"", moments.m2);
    hex_double_field(",\"min\":\"", moments.min);
    hex_double_field(",\"max\":\"", moments.max);
    line += '}';
  }
  line += "}}";
  seal_line(line);
  return line;
}

std::string serialize_metrics_trailer(unsigned threads, double wall_seconds,
                                      const obs::Report& report) {
  // Always written, every counter and phase in enum order, so the line
  // layout (and the strict parser above) never depends on what a run
  // happened to count.
  char buf[160];
  std::snprintf(buf, sizeof buf,
                "{\"trailer\":\"hs-metrics\",\"version\":%d,\"threads\":%u,"
                "\"wall_ns\":%" PRIu64 ",\"counters\":{",
                obs::kMetricsVersion, threads,
                static_cast<std::uint64_t>(wall_seconds * 1e9));
  std::string line = buf;
  for (std::size_t i = 0; i < obs::kCounterCount; ++i) {
    if (i > 0) line += ',';
    line += '"';
    line += obs::counter_name(static_cast<obs::Counter>(i));
    line += "\":";
    line += std::to_string(report.counters[i]);
  }
  line += "},\"phases\":{";
  for (std::size_t i = 0; i < obs::kPhaseCount; ++i) {
    if (i > 0) line += ',';
    line += '"';
    line += obs::phase_name(static_cast<obs::Phase>(i));
    line += "\":{\"calls\":";
    line += std::to_string(report.phases[i].calls);
    line += ",\"ns\":";
    line += std::to_string(report.phases[i].ns);
    line += '}';
  }
  line += "}}";
  seal_line(line);
  return line;
}

std::string serialize_chunk_stream(const Scenario& scenario,
                                   const CampaignOptions& options,
                                   const ShardExecution& exec) {
  const ShardPlan& plan = exec.plan;
  std::string out;
  out += serialize_stream_header(scenario, options, plan);
  out += '\n';
  for (std::size_t c = 0; c < plan.chunks.size(); ++c) {
    out += serialize_chunk_record(plan.chunks[c], exec.chunk_metrics[c]);
    out += '\n';
  }
  // Trailer: the shard's merged observability report.
  out += serialize_metrics_trailer(exec.threads, exec.wall_seconds,
                                   exec.metrics);
  out += '\n';
  return out;
}

SalvagedStream salvage_chunk_stream(std::string_view text,
                                    std::string_view source) {
  SalvagedStream out;
  out.source = std::string(source);
  try {
    walk_chunk_stream(text, source, out);
  } catch (const ChunkStreamError& e) {
    out.truncation_reason = e.what();
  }
  return out;
}

SalvagedStream salvage_chunk_stream_file(const std::string& path) {
  std::string text;
  const wire::FileReadStatus status = wire::read_whole_file(path, text);
  if (status == wire::FileReadStatus::kOk) {
    return salvage_chunk_stream(text, path);
  }
  SalvagedStream out;
  out.source = path;
  out.truncation_reason =
      stream_error(path, 0,
                   status == wire::FileReadStatus::kOpenFailed
                       ? "cannot open stream file"
                       : "error reading stream file")
          .what();
  return out;
}

ChunkStream parse_chunk_stream(std::string_view text,
                               std::string_view source) {
  return require_complete(salvage_chunk_stream(text, source));
}

ChunkStream load_chunk_stream(const std::string& path) {
  return require_complete(salvage_chunk_stream_file(path));
}

CampaignResult merge_chunk_streams(const Scenario& scenario,
                                   const std::vector<ChunkStream>& streams,
                                   MergedMetrics* metrics) {
  if (streams.empty()) {
    throw ChunkStreamError("chunk-stream merge: no streams given");
  }
  // Shard index + source + line locator for every merge diagnostic, so a
  // rejected multi-gigabyte campaign names the record to look at instead
  // of just failing.
  const auto locate = [](const ChunkStream& s, std::size_t lineno) {
    return "shard " + std::to_string(s.header.shard_index) + " (" +
           s.source + ") line " + std::to_string(lineno);
  };
  const ChunkStreamHeader& h0 = streams.front().header;
  if (h0.scenario != scenario.name) {
    throw ChunkStreamError("chunk-stream merge: stream is for scenario '" +
                           h0.scenario + "', not '" + scenario.name + "'");
  }
  if (streams.size() != h0.shard_count) {
    throw ChunkStreamError(
        "chunk-stream merge: campaign was split into " +
        std::to_string(h0.shard_count) + " shards but " +
        std::to_string(streams.size()) + " streams were given");
  }

  CampaignOptions options;
  options.seed = h0.seed;
  options.trials_per_point = h0.trials_per_point;
  options.chunk_size = h0.chunk_size;
  options.threads = 0;

  std::set<std::size_t> shard_indices;
  for (const ChunkStream& s : streams) {
    const ChunkStreamHeader& h = s.header;
    if (h.repair) {
      throw ChunkStreamError(
          "chunk-stream merge: " + s.source + " is a repair stream (shard " +
          std::to_string(h.shard_index) +
          "); recovered campaigns merge through the dispatcher, not "
          "--merge");
    }
    if (h.scenario != h0.scenario || h.seed != h0.seed ||
        h.trials_per_point != h0.trials_per_point ||
        h.chunk_size != h0.chunk_size || h.shard_count != h0.shard_count ||
        h.point_count != h0.point_count ||
        h.total_chunks != h0.total_chunks) {
      throw ChunkStreamError(
          "chunk-stream merge: header of shard " +
          std::to_string(h.shard_index) + " (" + s.source +
          ") disagrees with shard " + std::to_string(h0.shard_index) + " (" +
          streams.front().source +
          ") (scenario/seed/trials_per_point/chunk_size/shard_count/"
          "point_count/total_chunks must match across all shards)");
    }
    if (!shard_indices.insert(h.shard_index).second) {
      throw ChunkStreamError("chunk-stream merge: shard index " +
                             std::to_string(h.shard_index) + " (" + s.source +
                             ") appears in more than one stream");
    }

    // Re-derive this shard's plan from the scenario and reject any stream
    // whose recorded chunk geometry disagrees — the scenario preset (or
    // its trial count) is not the one the shard actually ran.
    const ShardPlan plan =
        plan_shard(scenario, options, h.shard_count, h.shard_index);
    if (plan.point_count != h.point_count ||
        plan.total_chunks != h.total_chunks ||
        plan.chunks.size() != s.chunks.size()) {
      throw ChunkStreamError(
          "chunk-stream merge: shard " + std::to_string(h.shard_index) +
          " (" + s.source + ") geometry disagrees with scenario '" +
          scenario.name + "'");
    }
    for (std::size_t c = 0; c < plan.chunks.size(); ++c) {
      if (!(s.chunks[c].ref == plan.chunks[c])) {
        throw ChunkStreamError(
            "chunk-stream merge: " + locate(s, s.chunks[c].lineno) +
            ": record " + std::to_string(c) +
            " does not match the planned chunk (id " +
            std::to_string(plan.chunks[c].chunk_index) + ")");
      }
    }
  }

  // K streams with distinct shard indices, each matching its own
  // round-robin plan record for record, hold every chunk id exactly once.
  std::vector<ChunkMetrics> chunk_metrics(h0.total_chunks);
  for (const ChunkStream& s : streams) {
    for (const ChunkRecord& rec : s.chunks) {
      chunk_metrics[rec.ref.chunk_index] = rec.metrics;
    }
  }
  const ShardPlan global = plan_shard(scenario, options, 1, 0);
  CampaignResult result = fold_chunks(scenario, options, global, chunk_metrics);

  if (metrics != nullptr) {
    *metrics = MergedMetrics{};
    metrics->shards = streams.size();
    for (const ChunkStream& s : streams) {
      metrics->threads += s.trailer.threads;
      metrics->wall_ns += s.trailer.wall_ns;
      metrics->report.merge(s.trailer.report);
    }
  }
  return result;
}

}  // namespace hs::campaign
