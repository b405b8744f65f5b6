#include "campaign/chunk_stream.hpp"

#include <cerrno>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <set>

#include "campaign/report.hpp"
#include "phy/crc.hpp"
#include "snapshot/state_io.hpp"

namespace hs::campaign {

namespace {

/// Hex-float text ("%a"): the exact bits of the double, so parse(print(x))
/// reproduces x with no decimal rounding anywhere. The determinism
/// linter's float-format rule forces every round-tripping double in
/// this file through here; std::to_string stays allowlisted in
/// LINT.toml for integer ids and diagnostics only.
void append_hex_double(std::string& out, double v) {
  char buf[48];
  std::snprintf(buf, sizeof buf, "\"%a\"", v);
  out += buf;
}

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

/// Strict scanner over one serialized line. Any deviation from the
/// writer's byte layout fails with the source/line context — a truncated
/// or hand-edited line cannot parse into a half-read record.
class Scanner {
 public:
  Scanner(std::string_view line, std::string_view source, std::size_t lineno)
      : s_(line), source_(source), lineno_(lineno) {}

  [[noreturn]] void fail(const std::string& what) const {
    throw ChunkStreamError("chunk-stream: " + std::string(source_) +
                           " line " + std::to_string(lineno_) + ": " + what);
  }

  void expect(std::string_view lit) {
    if (s_.substr(pos_, lit.size()) != lit) {
      fail("expected '" + std::string(lit) + "'" +
           (pos_ + lit.size() > s_.size() ? " (truncated line?)" : ""));
    }
    pos_ += lit.size();
  }

  bool consume(std::string_view lit) {
    if (s_.substr(pos_, lit.size()) != lit) return false;
    pos_ += lit.size();
    return true;
  }

  void expect_key(std::string_view name) {
    expect("\"");
    expect(name);
    expect("\":");
  }

  std::string string_value() {
    expect("\"");
    std::string out;
    while (pos_ < s_.size() && s_[pos_] != '"') {
      char c = s_[pos_++];
      if (c == '\\') {
        if (pos_ >= s_.size()) fail("unterminated escape in string");
        const char e = s_[pos_++];
        switch (e) {
          case '"': c = '"'; break;
          case '\\': c = '\\'; break;
          case 'n': c = '\n'; break;
          case 'r': c = '\r'; break;
          case 't': c = '\t'; break;
          default: fail("unsupported string escape");
        }
      }
      out += c;
    }
    expect("\"");
    return out;
  }

  std::uint64_t u64_value() {
    const std::size_t begin = pos_;
    while (pos_ < s_.size() && s_[pos_] >= '0' && s_[pos_] <= '9') ++pos_;
    if (pos_ == begin) fail("expected unsigned integer");
    const std::string digits(s_.substr(begin, pos_ - begin));
    errno = 0;
    const std::uint64_t v = std::strtoull(digits.c_str(), nullptr, 10);
    if (errno == ERANGE) {
      fail("integer '" + digits + "' does not fit in 64 bits");
    }
    return v;
  }

  double hex_double_value() {
    const std::string text = string_value();
    char* end = nullptr;
    const double v = std::strtod(text.c_str(), &end);
    if (end != text.c_str() + text.size() || text.empty()) {
      fail("malformed hex-float '" + text + "'");
    }
    return v;
  }

  /// The v3 line tail: `,"crc":"xxxx"}` then end of line. Verifies the
  /// checksum over every payload byte scanned so far plus the closing
  /// brace the v2 layout would have had — so a mutation anywhere in the
  /// line, even one that still parses field-by-field, is rejected here.
  void expect_crc_and_end() {
    const std::size_t payload_end = pos_;
    expect(",");
    expect_key("crc");
    const std::string hex = string_value();
    expect("}");
    if (pos_ != s_.size()) fail("trailing bytes after record");
    if (hex.size() != 4) fail("crc must be four hex digits");
    char* end = nullptr;
    const unsigned long got = std::strtoul(hex.c_str(), &end, 16);
    if (end != hex.c_str() + hex.size()) {
      fail("malformed crc '" + hex + "'");
    }
    const std::uint16_t want = line_crc(s_.substr(0, payload_end));
    if (static_cast<std::uint16_t>(got) != want) {
      char buf[64];
      std::snprintf(buf, sizeof buf,
                    "crc mismatch (line says %04lx, payload is %04x)", got,
                    want);
      fail(buf);
    }
  }

 private:
  std::string_view s_;
  std::size_t pos_ = 0;
  std::string_view source_;
  std::size_t lineno_;
};

ChunkStreamHeader parse_header(std::string_view line,
                               std::string_view source) {
  Scanner sc(line, source, 1);
  ChunkStreamHeader h;
  sc.expect("{");
  sc.expect_key("format");
  if (sc.string_value() != "hs-chunk-stream") {
    sc.fail("not an hs-chunk-stream file");
  }
  sc.expect(",");
  sc.expect_key("version");
  const std::uint64_t version = sc.u64_value();
  if (version != static_cast<std::uint64_t>(kChunkStreamVersion)) {
    sc.fail("unsupported chunk-stream version " + std::to_string(version) +
            " (this build reads version " +
            std::to_string(kChunkStreamVersion) + ")");
  }
  h.version = static_cast<int>(version);
  sc.expect(",");
  sc.expect_key("scenario");
  h.scenario = sc.string_value();
  sc.expect(",");
  sc.expect_key("seed");
  h.seed = sc.u64_value();
  sc.expect(",");
  sc.expect_key("trials_per_point");
  h.trials_per_point = sc.u64_value();
  sc.expect(",");
  sc.expect_key("chunk_size");
  h.chunk_size = sc.u64_value();
  sc.expect(",");
  sc.expect_key("shard_count");
  h.shard_count = sc.u64_value();
  sc.expect(",");
  sc.expect_key("shard_index");
  h.shard_index = sc.u64_value();
  sc.expect(",");
  sc.expect_key("point_count");
  h.point_count = sc.u64_value();
  sc.expect(",");
  sc.expect_key("total_chunks");
  h.total_chunks = sc.u64_value();
  sc.expect(",");
  sc.expect_key("chunk_count");
  h.chunk_count = sc.u64_value();
  sc.expect(",");
  sc.expect_key("mode");
  const std::string mode = sc.string_value();
  if (mode == "deal") {
    h.repair = false;
  } else if (mode == "repair") {
    h.repair = true;
  } else {
    sc.fail("mode must be 'deal' or 'repair', not '" + mode + "'");
  }
  sc.expect_crc_and_end();

  if (h.shard_count == 0) sc.fail("shard_count must be >= 1");
  if (h.shard_index >= h.shard_count) {
    sc.fail("shard_index " + std::to_string(h.shard_index) +
            " out of range for shard_count " + std::to_string(h.shard_count));
  }
  if (h.chunk_size == 0) sc.fail("chunk_size must be >= 1");
  if (h.trials_per_point == 0) sc.fail("trials_per_point must be >= 1");
  return h;
}

ChunkRecord parse_chunk_record(std::string_view line,
                               std::string_view source, std::size_t lineno,
                               const ChunkStreamHeader& h) {
  Scanner sc(line, source, lineno);
  ChunkRecord rec;
  rec.lineno = lineno;
  sc.expect("{");
  sc.expect_key("chunk");
  rec.ref.chunk_index = sc.u64_value();
  sc.expect(",");
  sc.expect_key("point");
  rec.ref.point_index = sc.u64_value();
  sc.expect(",");
  sc.expect_key("trial_begin");
  rec.ref.trial_begin = sc.u64_value();
  sc.expect(",");
  sc.expect_key("trial_end");
  rec.ref.trial_end = sc.u64_value();
  sc.expect(",");
  sc.expect_key("metrics");
  sc.expect("{");
  std::set<std::size_t> seen;
  if (!sc.consume("}")) {
    for (;;) {
      const std::string name = sc.string_value();
      Metric metric;
      if (!metric_from_name(name, &metric)) {
        sc.fail("unknown metric '" + name + "'");
      }
      if (!seen.insert(static_cast<std::size_t>(metric)).second) {
        sc.fail("duplicate metric '" + name + "'");
      }
      sc.expect(":{");
      StreamingStats::Moments m;
      sc.expect_key("count");
      m.count = sc.u64_value();
      sc.expect(",");
      sc.expect_key("mean");
      m.mean = sc.hex_double_value();
      sc.expect(",");
      sc.expect_key("m2");
      m.m2 = sc.hex_double_value();
      sc.expect(",");
      sc.expect_key("min");
      m.min = sc.hex_double_value();
      sc.expect(",");
      sc.expect_key("max");
      m.max = sc.hex_double_value();
      sc.expect("}");
      if (m.count == 0) sc.fail("metric '" + name + "' with zero count");
      rec.metrics[static_cast<std::size_t>(metric)] =
          StreamingStats::from_moments(m);
      if (sc.consume(",")) continue;
      sc.expect("}");
      break;
    }
  }
  sc.expect_crc_and_end();

  if (rec.ref.chunk_index >= h.total_chunks) {
    sc.fail("chunk id " + std::to_string(rec.ref.chunk_index) +
            " out of range (total_chunks " + std::to_string(h.total_chunks) +
            ")");
  }
  if (!h.repair && rec.ref.chunk_index % h.shard_count != h.shard_index) {
    sc.fail("chunk id " + std::to_string(rec.ref.chunk_index) +
            " does not belong to shard " + std::to_string(h.shard_index) +
            "/" + std::to_string(h.shard_count));
  }
  if (rec.ref.point_index >= h.point_count ||
      rec.ref.trial_begin >= rec.ref.trial_end ||
      rec.ref.trial_end > h.trials_per_point) {
    sc.fail("chunk " + std::to_string(rec.ref.chunk_index) +
            " has an out-of-range point or trial window");
  }
  return rec;
}

/// The metrics trailer is as strict as the records: fixed key order,
/// every counter and phase present (enum order), the line checksum, and
/// nothing after the closing brace.
ShardMetricsTrailer parse_metrics_trailer(std::string_view line,
                                          std::string_view source,
                                          std::size_t lineno) {
  Scanner sc(line, source, lineno);
  ShardMetricsTrailer t;
  sc.expect("{");
  sc.expect_key("trailer");
  if (sc.string_value() != "hs-metrics") {
    sc.fail("expected the hs-metrics trailer record");
  }
  sc.expect(",");
  sc.expect_key("version");
  const std::uint64_t version = sc.u64_value();
  if (version != static_cast<std::uint64_t>(obs::kMetricsVersion)) {
    sc.fail("unsupported metrics trailer version " + std::to_string(version) +
            " (this build reads version " +
            std::to_string(obs::kMetricsVersion) + ")");
  }
  t.version = static_cast<int>(version);
  sc.expect(",");
  sc.expect_key("threads");
  t.threads = static_cast<unsigned>(sc.u64_value());
  if (t.threads == 0) sc.fail("trailer threads must be >= 1");
  sc.expect(",");
  sc.expect_key("wall_ns");
  t.wall_ns = sc.u64_value();
  sc.expect(",");
  sc.expect_key("counters");
  sc.expect("{");
  for (std::size_t i = 0; i < obs::kCounterCount; ++i) {
    if (i > 0) sc.expect(",");
    sc.expect_key(obs::counter_name(static_cast<obs::Counter>(i)));
    t.report.counters[i] = sc.u64_value();
  }
  sc.expect("}");
  sc.expect(",");
  sc.expect_key("phases");
  sc.expect("{");
  for (std::size_t i = 0; i < obs::kPhaseCount; ++i) {
    if (i > 0) sc.expect(",");
    sc.expect_key(obs::phase_name(static_cast<obs::Phase>(i)));
    sc.expect("{");
    sc.expect_key("calls");
    t.report.phases[i].calls = sc.u64_value();
    sc.expect(",");
    sc.expect_key("ns");
    t.report.phases[i].ns = sc.u64_value();
    sc.expect("}");
  }
  sc.expect("}");
  sc.expect_crc_and_end();
  return t;
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
                kChunkStreamVersion, json_escape(scenario.name).c_str(),
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
    line += ",\"mean\":";
    append_hex_double(line, moments.mean);
    line += ",\"m2\":";
    append_hex_double(line, moments.m2);
    line += ",\"min\":";
    append_hex_double(line, moments.min);
    line += ",\"max\":";
    append_hex_double(line, moments.max);
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

ChunkStream parse_chunk_stream(std::string_view text,
                               std::string_view source) {
  if (text.empty()) {
    throw ChunkStreamError("chunk-stream: " + std::string(source) +
                           ": empty stream");
  }
  if (text.back() != '\n') {
    throw ChunkStreamError("chunk-stream: " + std::string(source) +
                           ": truncated stream (missing final newline)");
  }

  const std::vector<std::string_view> lines = split_lines(text);

  ChunkStream stream;
  stream.source = std::string(source);
  stream.header = parse_header(lines[0], source);
  // Layout: header + chunk_count records + metrics trailer.
  if (lines.size() != 1 + stream.header.chunk_count + 1) {
    throw ChunkStreamError(
        "chunk-stream: " + std::string(source) + ": header promises " +
        std::to_string(stream.header.chunk_count) +
        " chunk records plus a metrics trailer, found " +
        std::to_string(lines.size() - 1) +
        " lines after the header (truncated or padded stream)");
  }
  stream.chunks.reserve(stream.header.chunk_count);
  for (std::size_t i = 1; i + 1 < lines.size(); ++i) {
    ChunkRecord rec =
        parse_chunk_record(lines[i], source, i + 1, stream.header);
    if (!stream.chunks.empty() &&
        rec.ref.chunk_index <= stream.chunks.back().ref.chunk_index) {
      throw ChunkStreamError(
          "chunk-stream: " + std::string(source) + " line " +
          std::to_string(i + 1) + ": duplicate or out-of-order chunk id " +
          std::to_string(rec.ref.chunk_index));
    }
    stream.chunks.push_back(std::move(rec));
  }
  stream.trailer =
      parse_metrics_trailer(lines.back(), source, lines.size());
  return stream;
}

ChunkStream load_chunk_stream(const std::string& path) {
  std::string text;
  switch (snapshot::read_whole_file(path, text)) {
    case snapshot::FileReadStatus::kOpenFailed:
      throw ChunkStreamError("chunk-stream: cannot open " + path);
    case snapshot::FileReadStatus::kReadError:
      throw ChunkStreamError("chunk-stream: error reading " + path);
    case snapshot::FileReadStatus::kOk: break;
  }
  return parse_chunk_stream(text, path);
}

SalvagedStream salvage_chunk_stream(std::string_view text,
                                    std::string_view source) {
  SalvagedStream out;
  out.source = std::string(source);
  if (text.empty()) {
    out.truncation_reason = "empty stream";
    return out;
  }
  // A missing final newline means the last line was cut mid-write; the
  // complete lines before it are still candidates.
  const bool clean_tail = text.back() == '\n';
  const std::vector<std::string_view> lines = split_lines(text);
  if (lines.empty()) {
    out.truncation_reason = "no complete line";
    return out;
  }

  try {
    out.header = parse_header(lines[0], source);
  } catch (const ChunkStreamError& e) {
    out.truncation_reason = e.what();
    return out;
  }
  out.header_valid = true;

  // Accept records under exactly the strict rules; the first offending
  // line ends the salvage. A line that parses as the trailer instead of
  // a record ends record acceptance too (handled below).
  const std::size_t record_lines =
      std::min(lines.size() - 1, out.header.chunk_count);
  std::size_t accepted = 0;
  for (; accepted < record_lines; ++accepted) {
    const std::size_t lineno = accepted + 2;
    try {
      ChunkRecord rec = parse_chunk_record(lines[accepted + 1], source,
                                           lineno, out.header);
      if (!out.chunks.empty() &&
          rec.ref.chunk_index <= out.chunks.back().ref.chunk_index) {
        out.truncation_reason =
            "line " + std::to_string(lineno) +
            ": duplicate or out-of-order chunk id " +
            std::to_string(rec.ref.chunk_index);
        return out;
      }
      out.chunks.push_back(std::move(rec));
    } catch (const ChunkStreamError& e) {
      out.truncation_reason = e.what();
      return out;
    }
  }

  // All promised records were valid; the stream is complete only if the
  // trailer line follows, checks out, and nothing trails it.
  if (accepted < out.header.chunk_count) {
    out.truncation_reason =
        "stream ends after " + std::to_string(accepted) + " of " +
        std::to_string(out.header.chunk_count) + " promised records";
    return out;
  }
  if (lines.size() < out.header.chunk_count + 2 || !clean_tail) {
    out.truncation_reason = "metrics trailer missing or cut short";
    return out;
  }
  if (lines.size() > out.header.chunk_count + 2) {
    out.truncation_reason = "unexpected lines after the metrics trailer";
    return out;
  }
  try {
    out.trailer = parse_metrics_trailer(lines.back(), source, lines.size());
  } catch (const ChunkStreamError& e) {
    out.truncation_reason = e.what();
    return out;
  }
  out.complete = true;
  return out;
}

SalvagedStream salvage_chunk_stream_file(const std::string& path) {
  std::string text;
  switch (snapshot::read_whole_file(path, text)) {
    case snapshot::FileReadStatus::kOpenFailed: {
      SalvagedStream out;
      out.source = path;
      out.truncation_reason = "cannot open stream file";
      return out;
    }
    case snapshot::FileReadStatus::kReadError: {
      SalvagedStream out;
      out.source = path;
      out.truncation_reason = "error reading stream file";
      return out;
    }
    case snapshot::FileReadStatus::kOk: break;
  }
  return salvage_chunk_stream(text, path);
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

  // Every global chunk id exactly once across the shard set.
  std::vector<const ChunkRecord*> by_id(h0.total_chunks, nullptr);
  std::vector<const ChunkStream*> owner(h0.total_chunks, nullptr);
  for (const ChunkStream& s : streams) {
    for (const ChunkRecord& rec : s.chunks) {
      if (by_id[rec.ref.chunk_index] != nullptr) {
        const ChunkRecord* first = by_id[rec.ref.chunk_index];
        throw ChunkStreamError(
            "chunk-stream merge: " + locate(s, rec.lineno) +
            ": duplicate chunk id " + std::to_string(rec.ref.chunk_index) +
            " (first seen at " +
            locate(*owner[rec.ref.chunk_index], first->lineno) + ")");
      }
      by_id[rec.ref.chunk_index] = &rec;
      owner[rec.ref.chunk_index] = &s;
    }
  }
  for (std::size_t id = 0; id < by_id.size(); ++id) {
    if (by_id[id] == nullptr) {
      throw ChunkStreamError("chunk-stream merge: chunk id " +
                             std::to_string(id) +
                             " is missing from every stream");
    }
  }

  std::vector<ChunkMetrics> chunk_metrics;
  chunk_metrics.reserve(by_id.size());
  for (const ChunkRecord* rec : by_id) chunk_metrics.push_back(rec->metrics);
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
