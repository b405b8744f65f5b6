/// @file
/// Versioned, deterministic state serialization for warm-state snapshots.
///
/// A snapshot is a line-based text document:
///
///   line 1    header: `hs-snapshot v1`
///   lines 2+  one entry per line, `<tag> <key> <payload>`:
///               u <key> <decimal u64>
///               f <key> <C99 hex-float>       (exact binary round trip)
///               b <key> 0|1
///               s <key> <escaped string>      (\\ \n \r \t \x.. escapes)
///               v <key> <n> <hex-float>*n     (vector of doubles)
///               y <key> <n> <2n hex chars>    (vector of bytes)
///               ( <name>                      (section open)
///               ) <name>                      (section close)
///   last line  trailer: `sha256 <64 hex chars>` over every byte after
///              the header line through the final entry line.
///
/// Doubles travel as C99 hex-floats ("%a"), the same convention the
/// sharded chunk streams use: the exact bits of the double, no decimal
/// rounding, locale-proof. The reader is strict by design — a wrong
/// version, a mangled line, a tag/key that differs from what the caller
/// asks for, a truncated file or a checksum mismatch is a hard
/// SnapshotError, never a silently partial restore.
///
/// StateWriter produces the text; StateDoc::parse validates and decodes
/// it once into an immutable entry list (shareable across threads);
/// StateReader is a cheap sequential cursor over a StateDoc — every
/// restore walks the same fixed field order the save wrote.
#pragma once

#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "dsp/types.hpp"

namespace hs::snapshot {

/// Any structural problem with a snapshot: bad version, corruption,
/// truncation, or a read that does not match what was written.
class SnapshotError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

inline constexpr int kSnapshotVersion = 1;

class StateWriter {
 public:
  /// Section markers make save/load pairs self-checking: a load that
  /// drifts out of sync fails at the next section boundary with both
  /// names in the error.
  void begin(std::string_view section);
  void end(std::string_view section);

  void u64(std::string_view key, std::uint64_t v);
  void f64(std::string_view key, double v);
  void boolean(std::string_view key, bool v);
  void str(std::string_view key, std::string_view v);
  void cx(std::string_view key, dsp::cplx v);
  void f64_vec(std::string_view key, const double* data, std::size_t n);
  void f64_vec(std::string_view key, const std::vector<double>& v);
  void samples(std::string_view key, dsp::SampleView v);
  void soa(std::string_view key, dsp::SoaView v);
  void bytes(std::string_view key, const std::uint8_t* data, std::size_t n);
  void bytes(std::string_view key, const std::vector<std::uint8_t>& v);

  /// Assembles header + entries + sha256 trailer.
  std::string finish() const;

 private:
  void line(char tag, std::string_view key, std::string_view payload);

  std::string body_;
};

/// One decoded entry of a parsed snapshot.
struct StateEntry {
  char tag = 0;          ///< 'u','f','b','s','v' (f64 vec), 'y' (bytes),
                         ///< '(' / ')'
  std::string key;
  std::uint64_t u = 0;   ///< tag 'u' / 'b'
  double f = 0.0;        ///< tag 'f'
  std::string s;         ///< tag 's'
  std::vector<double> fv;        ///< tag 'v'
  std::vector<std::uint8_t> yv;  ///< tag 'y'
};

/// An immutable, fully validated snapshot document. Parsing happens once;
/// restores share the parsed entries (the campaign keeps one StateDoc per
/// cache key and every worker restores from it).
class StateDoc {
 public:
  /// Parses and validates `text` (header, every entry, checksum trailer).
  /// Throws SnapshotError on any deviation; never returns a partial doc.
  /// `source` names the origin (file path) in error messages.
  static StateDoc parse(std::string_view text, std::string_view source);

  const std::vector<StateEntry>& entries() const { return entries_; }

 private:
  std::vector<StateEntry> entries_;
};

/// Sequential typed cursor over a StateDoc. Each read checks the entry's
/// tag and key against the request — save/load skew is a hard error at
/// the first mismatched field, with both sides named.
class StateReader {
 public:
  explicit StateReader(const StateDoc& doc) : doc_(doc) {}

  void begin(std::string_view section);
  void end(std::string_view section);

  std::uint64_t u64(std::string_view key);
  double f64(std::string_view key);
  bool boolean(std::string_view key);
  const std::string& str(std::string_view key);
  dsp::cplx cx(std::string_view key);
  const std::vector<double>& f64_vec(std::string_view key);
  dsp::Samples samples(std::string_view key);
  void soa(std::string_view key, dsp::SoaSamples& out);
  const std::vector<std::uint8_t>& bytes(std::string_view key);

  /// Asserts every entry was consumed (a restore that leaves fields
  /// behind restored a different shape than was saved).
  void expect_exhausted() const;

 private:
  const StateEntry& next(char tag, std::string_view key);

  const StateDoc& doc_;
  std::size_t pos_ = 0;
};

/// sha256 hex digest of `data` — the digest primitive behind both the
/// snapshot trailer and the SnapshotCache keys.
std::string sha256_hex(std::string_view data);

}  // namespace hs::snapshot

namespace hs::dsp {
class Rng;
}  // namespace hs::dsp

namespace hs::snapshot {

/// Rng stream-position round trip (four xoshiro256++ state words under
/// `<key>.s0` .. `<key>.s3`).
void write_rng(StateWriter& w, std::string_view key, const dsp::Rng& rng);
void read_rng(StateReader& r, std::string_view key, dsp::Rng& rng);

}  // namespace hs::snapshot
