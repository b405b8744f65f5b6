#include "snapshot/state_io.hpp"

#include "crypto/sha256.hpp"
#include "dsp/rng.hpp"
#include "wire/lexer.hpp"

namespace hs::snapshot {

namespace {

using wire::append_hex_double;

constexpr std::string_view kHeader = "hs-snapshot v1\n";

[[noreturn]] void fail(std::string_view source, std::size_t lineno,
                       const std::string& what) {
  throw SnapshotError("snapshot: " + std::string(source) + " line " +
                      std::to_string(lineno) + ": " + what);
}

std::string escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          const auto byte = static_cast<std::uint8_t>(c);
          out += "\\x";
          wire::append_hex(out, &byte, 1);
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string unescape(std::string_view s, std::string_view source,
                     std::size_t lineno) {
  std::string out;
  out.reserve(s.size());
  for (std::size_t i = 0; i < s.size(); ++i) {
    char c = s[i];
    if (c != '\\') {
      out += c;
      continue;
    }
    if (++i >= s.size()) fail(source, lineno, "unterminated escape");
    switch (s[i]) {
      case '\\': out += '\\'; break;
      case 'n': out += '\n'; break;
      case 'r': out += '\r'; break;
      case 't': out += '\t'; break;
      case 'x': {
        if (i + 2 >= s.size()) fail(source, lineno, "truncated \\x escape");
        const auto v = wire::parse_hex(s.substr(i + 1, 2));
        if (!v) fail(source, lineno, "malformed \\x escape");
        out += static_cast<char>(*v);
        i += 2;
        break;
      }
      default: fail(source, lineno, "unsupported string escape");
    }
  }
  return out;
}

/// Splits off the next space-separated token of `line`, advancing `pos`.
std::string_view token(std::string_view line, std::size_t& pos,
                       std::string_view source, std::size_t lineno) {
  if (pos >= line.size()) fail(source, lineno, "truncated entry");
  const std::size_t sp = line.find(' ', pos);
  const std::size_t end = sp == std::string_view::npos ? line.size() : sp;
  std::string_view t = line.substr(pos, end - pos);
  pos = sp == std::string_view::npos ? line.size() : sp + 1;
  return t;
}

std::uint64_t u64_token(std::string_view text, std::string_view source,
                        std::size_t lineno) {
  const auto v = wire::parse_u64(text);
  if (!v) {
    fail(source, lineno,
         "malformed unsigned integer '" + std::string(text) + "'");
  }
  return *v;
}

double hex_double_token(std::string_view text, std::string_view source,
                        std::size_t lineno) {
  const auto v = wire::parse_hex_double(text);
  if (!v) {
    fail(source, lineno, "malformed hex-float '" + std::string(text) + "'");
  }
  return *v;
}

}  // namespace

std::string sha256_hex(std::string_view data) {
  const auto digest = crypto::Sha256::hash(crypto::ByteView(
      reinterpret_cast<const std::uint8_t*>(data.data()), data.size()));
  std::string out;
  wire::append_hex(out, digest.data(), digest.size());
  return out;
}

// ---- StateWriter ----------------------------------------------------------

void StateWriter::line(char tag, std::string_view key,
                       std::string_view payload) {
  body_ += tag;
  body_ += ' ';
  body_ += key;
  if (!payload.empty()) {
    body_ += ' ';
    body_ += payload;
  }
  body_ += '\n';
}

void StateWriter::begin(std::string_view section) { line('(', section, {}); }
void StateWriter::end(std::string_view section) { line(')', section, {}); }

// std::to_string below is allowlisted in LINT.toml
// (to-string-serializer): every use is integer-only (exact in decimal);
// doubles go through the '%a' hex-float path in f64().
void StateWriter::u64(std::string_view key, std::uint64_t v) {
  line('u', key, std::to_string(v));
}

void StateWriter::f64(std::string_view key, double v) {
  std::string payload;
  append_hex_double(payload, v);
  line('f', key, payload);
}

void StateWriter::boolean(std::string_view key, bool v) {
  line('b', key, v ? "1" : "0");
}

void StateWriter::str(std::string_view key, std::string_view v) {
  // Strings may be empty; keep the separating space so the payload is
  // unambiguous ("s key " vs a truncated line).
  body_ += 's';
  body_ += ' ';
  body_ += key;
  body_ += ' ';
  body_ += escape(v);
  body_ += '\n';
}

void StateWriter::cx(std::string_view key, dsp::cplx v) {
  std::string payload = "2 ";
  append_hex_double(payload, v.real());
  payload += ' ';
  append_hex_double(payload, v.imag());
  line('v', key, payload);
}

void StateWriter::f64_vec(std::string_view key, const double* data,
                          std::size_t n) {
  std::string payload = std::to_string(n);
  for (std::size_t i = 0; i < n; ++i) {
    payload += ' ';
    append_hex_double(payload, data[i]);
  }
  line('v', key, payload);
}

void StateWriter::f64_vec(std::string_view key,
                          const std::vector<double>& v) {
  f64_vec(key, v.data(), v.size());
}

void StateWriter::samples(std::string_view key, dsp::SampleView v) {
  // Interleaved re/im — 2n doubles.
  std::string payload = std::to_string(2 * v.size());
  for (const dsp::cplx& x : v) {
    payload += ' ';
    append_hex_double(payload, x.real());
    payload += ' ';
    append_hex_double(payload, x.imag());
  }
  line('v', key, payload);
}

void StateWriter::soa(std::string_view key, dsp::SoaView v) {
  // Plane order (all re, then all im) so restore is two straight copies.
  std::string payload = std::to_string(2 * v.size());
  for (std::size_t i = 0; i < v.size(); ++i) {
    payload += ' ';
    append_hex_double(payload, v.re[i]);
  }
  for (std::size_t i = 0; i < v.size(); ++i) {
    payload += ' ';
    append_hex_double(payload, v.im[i]);
  }
  line('v', key, payload);
}

void StateWriter::bytes(std::string_view key, const std::uint8_t* data,
                        std::size_t n) {
  std::string payload = std::to_string(n);
  payload += ' ';
  wire::append_hex(payload, data, n);
  if (n == 0) payload.pop_back();  // no trailing space for empty runs
  line('y', key, payload);
}

void StateWriter::bytes(std::string_view key,
                        const std::vector<std::uint8_t>& v) {
  bytes(key, v.data(), v.size());
}

std::string StateWriter::finish() const {
  std::string out(kHeader);
  out += body_;
  out += "sha256 ";
  out += sha256_hex(body_);
  out += '\n';
  return out;
}

// ---- StateDoc -------------------------------------------------------------

StateDoc StateDoc::parse(std::string_view text, std::string_view source) {
  if (text.size() < kHeader.size() ||
      text.substr(0, kHeader.size()) != kHeader) {
    // Distinguish "not a snapshot" from "snapshot of another version" for
    // actionable errors on format evolution.
    const std::size_t nl = text.find('\n');
    const std::string first(text.substr(0, std::min<std::size_t>(
                                               nl == std::string_view::npos
                                                   ? text.size()
                                                   : nl,
                                               64)));
    if (first.rfind("hs-snapshot ", 0) == 0) {
      throw SnapshotError("snapshot: " + std::string(source) +
                          ": unsupported version '" + first +
                          "' (this build reads v" +
                          std::to_string(kSnapshotVersion) + ")");
    }
    throw SnapshotError("snapshot: " + std::string(source) +
                        ": not an hs-snapshot file");
  }
  if (text.back() != '\n') {
    throw SnapshotError("snapshot: " + std::string(source) +
                        ": truncated file (missing final newline)");
  }

  // Separate the trailer line and verify the checksum over the body.
  const std::size_t last_nl = text.find_last_of('\n', text.size() - 2);
  if (last_nl == std::string_view::npos || last_nl < kHeader.size() - 1) {
    throw SnapshotError("snapshot: " + std::string(source) +
                        ": missing checksum trailer");
  }
  const std::string_view trailer =
      text.substr(last_nl + 1, text.size() - last_nl - 2);
  if (trailer.rfind("sha256 ", 0) != 0 || trailer.size() != 7 + 64) {
    throw SnapshotError("snapshot: " + std::string(source) +
                        ": malformed checksum trailer (truncated file?)");
  }
  const std::string_view body =
      text.substr(kHeader.size(), last_nl + 1 - kHeader.size());
  if (sha256_hex(body) != trailer.substr(7)) {
    throw SnapshotError("snapshot: " + std::string(source) +
                        ": checksum mismatch (corrupted file)");
  }

  StateDoc doc;
  std::size_t lineno = 1;  // header was line 1
  std::size_t start = 0;
  std::vector<std::string> open_sections;
  while (start < body.size()) {
    ++lineno;
    const std::size_t end = body.find('\n', start);
    const std::string_view line = body.substr(start, end - start);
    start = end + 1;

    if (line.size() < 2 || line[1] != ' ') {
      fail(source, lineno, "malformed entry line");
    }
    StateEntry e;
    e.tag = line[0];
    std::size_t pos = 2;
    const auto next = [&] { return token(line, pos, source, lineno); };
    e.key = std::string(next());
    switch (e.tag) {
      case '(':
        open_sections.push_back(e.key);
        break;
      case ')':
        if (open_sections.empty() || open_sections.back() != e.key) {
          fail(source, lineno, "unbalanced section ')" + e.key + "'");
        }
        open_sections.pop_back();
        break;
      case 'u':
        e.u = u64_token(next(), source, lineno);
        break;
      case 'b': {
        const std::string_view v = next();
        if (v != "0" && v != "1") fail(source, lineno, "bool must be 0|1");
        e.u = v == "1" ? 1 : 0;
        break;
      }
      case 'f':
        e.f = hex_double_token(next(), source, lineno);
        break;
      case 's':
        // The remainder (possibly empty) is the escaped payload.
        e.s = unescape(line.substr(pos), source, lineno);
        pos = line.size();
        break;
      case 'v': {
        const std::uint64_t n = u64_token(next(), source, lineno);
        // Bound the count by the bytes actually present (each element is
        // at least two characters) BEFORE reserving, so a corrupted count
        // fails as a SnapshotError, never as std::length_error/bad_alloc
        // escaping the cold-fallback handlers.
        if (n > line.size() - pos) {
          fail(source, lineno, "vector count exceeds line length");
        }
        e.fv.reserve(n);
        for (std::uint64_t i = 0; i < n; ++i) {
          e.fv.push_back(hex_double_token(next(), source, lineno));
        }
        break;
      }
      case 'y': {
        const std::uint64_t n = u64_token(next(), source, lineno);
        const std::string_view hexrun = n > 0 ? next() : std::string_view{};
        if (hexrun.size() != 2 * n) {
          fail(source, lineno, "byte run length mismatch");
        }
        e.yv.reserve(n);
        for (std::uint64_t i = 0; i < n; ++i) {
          const auto byte = wire::parse_hex(hexrun.substr(2 * i, 2));
          if (!byte) fail(source, lineno, "malformed byte run");
          e.yv.push_back(static_cast<std::uint8_t>(*byte));
        }
        break;
      }
      default:
        fail(source, lineno,
             std::string("unknown entry tag '") + e.tag + "'");
    }
    if (pos != line.size()) fail(source, lineno, "trailing bytes");
    doc.entries_.push_back(std::move(e));
  }
  if (!open_sections.empty()) {
    throw SnapshotError("snapshot: " + std::string(source) +
                        ": unclosed section '(" + open_sections.back() +
                        "' (truncated file?)");
  }
  return doc;
}

// ---- StateReader ----------------------------------------------------------

const StateEntry& StateReader::next(char tag, std::string_view key) {
  if (pos_ >= doc_.entries().size()) {
    throw SnapshotError("snapshot: read past end at '" + std::string(key) +
                        "' — snapshot shape differs from this build");
  }
  const StateEntry& e = doc_.entries()[pos_++];
  if (e.tag != tag || e.key != key) {
    throw SnapshotError("snapshot: expected '" + std::string(1, tag) + " " +
                        std::string(key) + "', found '" +
                        std::string(1, e.tag) + " " + e.key +
                        "' — snapshot shape differs from this build");
  }
  return e;
}

void StateReader::begin(std::string_view section) { next('(', section); }
void StateReader::end(std::string_view section) { next(')', section); }

std::uint64_t StateReader::u64(std::string_view key) {
  return next('u', key).u;
}

double StateReader::f64(std::string_view key) { return next('f', key).f; }

bool StateReader::boolean(std::string_view key) {
  return next('b', key).u != 0;
}

const std::string& StateReader::str(std::string_view key) {
  return next('s', key).s;
}

dsp::cplx StateReader::cx(std::string_view key) {
  const StateEntry& e = next('v', key);
  if (e.fv.size() != 2) {
    throw SnapshotError("snapshot: '" + std::string(key) +
                        "' is not a complex value");
  }
  return {e.fv[0], e.fv[1]};
}

const std::vector<double>& StateReader::f64_vec(std::string_view key) {
  return next('v', key).fv;
}

dsp::Samples StateReader::samples(std::string_view key) {
  const StateEntry& e = next('v', key);
  if (e.fv.size() % 2 != 0) {
    throw SnapshotError("snapshot: '" + std::string(key) +
                        "' has an odd interleaved length");
  }
  dsp::Samples out(e.fv.size() / 2);
  for (std::size_t i = 0; i < out.size(); ++i) {
    out[i] = {e.fv[2 * i], e.fv[2 * i + 1]};
  }
  return out;
}

void StateReader::soa(std::string_view key, dsp::SoaSamples& out) {
  const StateEntry& e = next('v', key);
  if (e.fv.size() % 2 != 0) {
    throw SnapshotError("snapshot: '" + std::string(key) +
                        "' has an odd plane length");
  }
  const std::size_t n = e.fv.size() / 2;
  out.resize(n);
  double* re = out.re();
  double* im = out.im();
  for (std::size_t i = 0; i < n; ++i) re[i] = e.fv[i];
  for (std::size_t i = 0; i < n; ++i) im[i] = e.fv[n + i];
}

const std::vector<std::uint8_t>& StateReader::bytes(std::string_view key) {
  return next('y', key).yv;
}

void write_rng(StateWriter& w, std::string_view key, const dsp::Rng& rng) {
  const auto st = rng.state();
  const std::string base(key);
  for (std::size_t i = 0; i < st.size(); ++i) {
    w.u64(base + ".s" + std::to_string(i), st[i]);
  }
}

void read_rng(StateReader& r, std::string_view key, dsp::Rng& rng) {
  std::array<std::uint64_t, 4> st{};
  const std::string base(key);
  for (std::size_t i = 0; i < st.size(); ++i) {
    st[i] = r.u64(base + ".s" + std::to_string(i));
  }
  rng.set_state(st);
}

void StateReader::expect_exhausted() const {
  if (pos_ != doc_.entries().size()) {
    throw SnapshotError(
        "snapshot: " + std::to_string(doc_.entries().size() - pos_) +
        " unread entries after restore — snapshot shape differs from this "
        "build");
  }
}

}  // namespace hs::snapshot
