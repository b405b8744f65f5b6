// Deterministic, named random-number streams.
//
// Every stochastic element of the simulator (thermal noise, jamming noise,
// link phases, device jitter) draws from its own named stream derived from a
// single experiment seed, so that (a) experiments are reproducible and (b)
// changing how many draws one component makes does not perturb the others.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <string_view>

#include "dsp/types.hpp"

namespace hs::dsp {

/// xoshiro256++ PRNG seeded via SplitMix64. Small, fast, and good enough
/// statistical quality for signal simulation (not for cryptography; the
/// crypto module has its own primitives).
class Rng {
 public:
  /// Seeds the stream from a 64-bit seed.
  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL);

  /// Derives a stream from a parent seed and a stream name, so components
  /// can own independent reproducible streams: Rng(seed, "thermal-noise").
  Rng(std::uint64_t seed, std::string_view stream_name);

  /// Next raw 64 random bits.
  std::uint64_t next_u64();

  /// Uniform double in [0, 1).
  double uniform();

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi);

  /// Uniform integer in [0, n). `n` must be > 0.
  std::uint64_t uniform_u64(std::uint64_t n);

  /// Standard normal variate (Marsaglia-Tsang ziggurat).
  double gaussian();

  /// Normal variate with the given mean and standard deviation.
  double gaussian(double mean, double stddev);

  /// Circularly symmetric complex Gaussian with E[|z|^2] = variance.
  cplx cgaussian(double variance = 1.0);

  /// Uniform phase on the unit circle.
  cplx random_phase();

  /// Fills `out` with complex AWGN of the given per-sample power. Returns
  /// exactly the values, and leaves exactly the stream state, of
  /// `out[i] = {s * gaussian(), s * gaussian()}` with s = sqrt(power / 2).
  void fill_awgn(MutSampleView out, double power);

  /// Split-complex overload. Draw order is identical to the AoS overload
  /// (re then im, sample by sample), so both layouts produce bit-identical
  /// noise from the same stream state.
  void fill_awgn(MutSoaView out, double power);

  /// Fills `out` with complex Gaussians of per-sample variance:
  /// out[k] = {sigma[k] * g, sigma[k] * g'}, where sigma[k] is
  /// sqrt(variance_k / 2), the component scale cgaussian(variance_k)
  /// applies. Bit-identical to `out[k] = cgaussian(variance_k)` in a loop.
  /// Throws std::invalid_argument unless sigma.size() == out.size().
  void fill_cgaussian(MutSampleView out, std::span<const double> sigma);

  /// Raw xoshiro256++ state, four 64-bit words. Warm-state snapshots
  /// write stream positions with state(); the block fills keep the state
  /// in locals and write it back with set_state().
  std::array<std::uint64_t, 4> state() const {
    return {s_[0], s_[1], s_[2], s_[3]};
  }
  void set_state(const std::array<std::uint64_t, 4>& s) {
    for (std::size_t i = 0; i < 4; ++i) s_[i] = s[i];
  }

 private:
  std::uint64_t s_[4];
};

/// Hashes a stream name into a 64-bit value (FNV-1a), used to derive
/// independent named substreams from one experiment seed.
std::uint64_t hash_stream_name(std::string_view name);

/// Derives a fresh 64-bit seed from a parent seed and a substream name —
/// the Rng(seed, name) mechanism for callers that need a seed rather
/// than a stream (e.g. the campaign runner's per-trial seeds). Unlike
/// `seed ^ hash_stream_name(name)`, the result is passed through the
/// generator so related names do not yield correlated seeds.
std::uint64_t derive_seed(std::uint64_t seed, std::string_view stream_name);

}  // namespace hs::dsp
