#include "wire/lexer.hpp"

#include <cmath>
#include <cstdio>
#include <limits>

namespace hs::wire {

namespace {

bool is_digit(char c) { return c >= '0' && c <= '9'; }

int hex_value(char c) {
  if (c >= '0' && c <= '9') return c - '0';
  if (c >= 'a' && c <= 'f') return c - 'a' + 10;
  return -1;
}

/// Every byte a hex-float token can contain, "inf" and "nan" included.
bool is_hex_float_char(char c) {
  constexpr std::string_view kOther = "xp.+-in";
  return hex_value(c) >= 0 || kOther.find(c) != std::string_view::npos;
}

}  // namespace

std::optional<std::uint64_t> parse_u64(std::string_view digits) {
  if (digits.empty()) return std::nullopt;
  std::uint64_t v = 0;
  for (const char c : digits) {
    if (!is_digit(c)) return std::nullopt;
    const auto digit = static_cast<std::uint64_t>(c - '0');
    if (v > (UINT64_MAX - digit) / 10) return std::nullopt;
    v = v * 10 + digit;
  }
  return v;
}

std::optional<std::uint64_t> parse_hex(std::string_view digits) {
  if (digits.empty() || digits.size() > 16) return std::nullopt;
  std::uint64_t v = 0;
  for (const char c : digits) {
    const int digit = hex_value(c);
    if (digit < 0) return std::nullopt;
    v = (v << 4) | static_cast<std::uint64_t>(digit);
  }
  return v;
}

std::optional<double> parse_hex_double(std::string_view text) {
  const bool negative = !text.empty() && text.front() == '-';
  if (negative) text.remove_prefix(1);
  double v = 0.0;
  if (text == "inf") {
    v = std::numeric_limits<double>::infinity();
  } else if (text == "nan") {
    v = std::numeric_limits<double>::quiet_NaN();
  } else {
    // "%a" writes 0x1.<13 hex>p<exp> (0x0 for zero and subnormals), so
    // the mantissa fits in 53 bits and ldexp's one scaling is exact.
    if (text.substr(0, 2) != "0x" || text.size() < 3 ||
        (text[2] != '0' && text[2] != '1')) {
      return std::nullopt;
    }
    std::uint64_t mantissa = static_cast<std::uint64_t>(text[2] - '0');
    std::size_t i = 3;
    int fraction_bits = 0;
    if (i < text.size() && text[i] == '.') {
      for (++i; i < text.size() && fraction_bits < 52; ++i) {
        const int digit = hex_value(text[i]);
        if (digit < 0) break;
        mantissa = (mantissa << 4) | static_cast<std::uint64_t>(digit);
        fraction_bits += 4;
      }
      if (fraction_bits == 0) return std::nullopt;
    }
    if (i == text.size() || text[i] != 'p') return std::nullopt;
    ++i;
    const bool negative_exponent = i < text.size() && text[i] == '-';
    if (i < text.size() && (text[i] == '+' || negative_exponent)) ++i;
    const auto exponent = parse_u64(text.substr(i));
    if (!exponent || *exponent > 2000) return std::nullopt;
    const int e = static_cast<int>(*exponent);
    v = std::ldexp(static_cast<double>(mantissa),
                   (negative_exponent ? -e : e) - fraction_bits);
    // Out of range: never written by "%a".
    if (std::isinf(v) || (v == 0.0 && mantissa != 0)) return std::nullopt;
  }
  return negative ? -v : v;
}

void append_hex_double(std::string& out, double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%a", v);
  out += buf;
}

void append_hex(std::string& out, const std::uint8_t* data, std::size_t n) {
  static constexpr char kDigits[] = "0123456789abcdef";
  for (std::size_t i = 0; i < n; ++i) {
    out += kDigits[data[i] >> 4];
    out += kDigits[data[i] & 0xf];
  }
}

std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          const auto byte = static_cast<std::uint8_t>(c);
          out += "\\u00";
          append_hex(out, &byte, 1);
        } else {
          out += c;
        }
    }
  }
  return out;
}

// ---- Lexer ----------------------------------------------------------------

void Lexer::skip_blanks() {
  while (skip_blanks_ && pos_ < s_.size() &&
         (s_[pos_] == ' ' || s_[pos_] == '\t' || s_[pos_] == '\r')) {
    ++pos_;
  }
}

bool Lexer::at_end() {
  skip_blanks();
  return pos_ == s_.size();
}

void Lexer::fail(const std::string& what) const { throw Error(what, pos_); }

bool Lexer::consume(std::string_view literal) {
  skip_blanks();
  if (s_.substr(pos_, literal.size()) != literal) return false;
  pos_ += literal.size();
  return true;
}

void Lexer::expect(std::string_view literal) {
  if (!consume(literal)) {
    fail("expected '" + std::string(literal) + "'" +
         (pos_ + literal.size() > s_.size() ? " (truncated line?)" : ""));
  }
}

std::string Lexer::string() {
  expect("\"");
  std::string out;
  for (;;) {
    if (pos_ == s_.size()) fail("unterminated string");
    char c = s_[pos_++];
    if (c == '"') return out;
    if (c == '\\') {
      if (pos_ == s_.size()) fail("unterminated escape in string");
      switch (s_[pos_++]) {
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
}

std::string_view Lexer::token(bool (*accept)(char)) {
  skip_blanks();
  const std::size_t begin = pos_;
  while (pos_ < s_.size() && accept(s_[pos_])) ++pos_;
  return s_.substr(begin, pos_ - begin);
}

std::uint64_t Lexer::u64() {
  const std::string_view digits = token(is_digit);
  if (digits.empty()) fail("expected an unsigned integer");
  const auto v = parse_u64(digits);
  if (!v) fail("integer does not fit in 64 bits");
  return *v;
}

double Lexer::hex_double() {
  const std::string_view text = token(is_hex_float_char);
  const auto v = parse_hex_double(text);
  if (!v) fail("malformed hex-float '" + std::string(text) + "'");
  return *v;
}

}  // namespace hs::wire
