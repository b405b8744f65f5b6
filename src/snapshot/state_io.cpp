#include "snapshot/state_io.hpp"

#include "crypto/sha256.hpp"
#include "dsp/rng.hpp"
#include "wire/lexer.hpp"

namespace hs::snapshot {

namespace {

using wire::append_hex_double;

constexpr std::string_view kHeader = "hs-snapshot v1\n";

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

void write_rng(StateWriter& w, std::string_view key, const dsp::Rng& rng) {
  const auto st = rng.state();
  const std::string base(key);
  for (std::size_t i = 0; i < st.size(); ++i) {
    w.u64(base + ".s" + std::to_string(i), st[i]);
  }
}

}  // namespace hs::snapshot
