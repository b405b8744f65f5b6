/// @file
/// The strict text codec under every wire format in this repo: chunk
/// streams (campaign/chunk_stream.hpp), service requests
/// (serve/protocol.hpp) and warm-state snapshots (snapshot/state_io.hpp).
///
/// Each token kind has one strict grammar:
///   - unsigned decimal: digits only — no sign, blank or "0x" — and at
///     most 2^64-1;
///   - hex digits: lowercase [0-9a-f] only;
///   - hex-float: the C99 text "%a" writes, [-]0x(0|1)[.<1-13 hex>]p
///     [+|-]<dec> or [-]inf / [-]nan, read back to the exact bits;
///   - JSON string: double-quoted, with the escapes json_escape() writes
///     for '"', '\\', '\n', '\r' and '\t' and no others.
///
/// The whole-token decoders return nothing on any deviation. Lexer walks
/// a line with them and throws wire::Error with the byte offset, which
/// each format rethrows as its own error type and message.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>

namespace hs::wire {

/// A lexing failure: what was wrong and the byte offset it was found at.
struct Error : std::runtime_error {
  Error(const std::string& what, std::size_t at)
      : std::runtime_error(what), offset(at) {}
  std::size_t offset;
};

std::optional<std::uint64_t> parse_u64(std::string_view digits);
/// 1 to 16 lowercase hex digits.
std::optional<std::uint64_t> parse_hex(std::string_view digits);
std::optional<double> parse_hex_double(std::string_view text);

/// Appends `v` as "%a" hex-float text — the exact bits, no decimal
/// rounding, locale-proof.
void append_hex_double(std::string& out, double v);
/// Appends two lowercase hex digits per byte.
void append_hex(std::string& out, const std::uint8_t* data, std::size_t n);

/// JSON string body for `s`: '"', '\\', '\n', '\r' and '\t' get their
/// short escapes, other control bytes \u00xx.
std::string json_escape(std::string_view s);

/// A cursor over one line of text, which must outlive the lexer.
class Lexer {
 public:
  /// kSkip lets blanks (' ', '\t', '\r') precede every token and trail
  /// the text — the request grammar's JSON tolerance. kStrict allows no
  /// byte the writer would not have written.
  enum class Blanks { kStrict, kSkip };

  explicit Lexer(std::string_view text, Blanks blanks = Blanks::kStrict)
      : s_(text), skip_blanks_(blanks == Blanks::kSkip) {}

  std::size_t pos() const { return pos_; }
  bool at_end();
  [[noreturn]] void fail(const std::string& what) const;

  bool consume(std::string_view literal);
  void expect(std::string_view literal);
  std::string string();
  std::uint64_t u64();
  double hex_double();

 private:
  void skip_blanks();
  /// The longest run of bytes `accept` takes, after any blanks.
  std::string_view token(bool (*accept)(char));

  std::string_view s_;
  std::size_t pos_ = 0;
  bool skip_blanks_;
};

}  // namespace hs::wire
