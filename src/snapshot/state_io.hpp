/// @file
/// Deterministic state serialization for warm-state snapshots.
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
/// rounding, locale-proof.
///
/// StateWriter produces the text. Nothing reads a snapshot back: a
/// campaign reaches a warm deployment by building it or by resetting a
/// pooled one. The writer stays for Deployment::save_warm(), whose first
/// call perfbench's set-up probe still times.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "dsp/types.hpp"

namespace hs::snapshot {

class StateWriter {
 public:
  /// Section markers group the fields of one object.
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

/// sha256 hex digest of `data` — the digest primitive behind both the
/// snapshot trailer and the SnapshotCache keys.
std::string sha256_hex(std::string_view data);

}  // namespace hs::snapshot

namespace hs::dsp {
class Rng;
}  // namespace hs::dsp

namespace hs::snapshot {

/// Writes an Rng stream position (four xoshiro256++ state words under
/// `<key>.s0` .. `<key>.s3`).
void write_rng(StateWriter& w, std::string_view key, const dsp::Rng& rng);

}  // namespace hs::snapshot
