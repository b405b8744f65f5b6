// Jamming-signal generation (paper section 6(a)).
//
// The shield jams with *random* noise (no modulation or coding) so the
// jamming acts as a one-time pad and keeps the eavesdropper's total
// information rate outside the multi-user capacity region. To spend its
// power budget where it matters, it shapes the noise spectrum to match the
// IMD's FSK power profile: white Gaussian noise is drawn per frequency
// bin, weighted by the IMD profile, and IFFT'd to the time domain (Fig. 5).
// An oblivious constant-profile mode is provided as the ablation baseline
// an adversary could band-pass filter around.
#pragma once

#include <cstdint>
#include <vector>

#include "dsp/rng.hpp"
#include "dsp/types.hpp"
#include "phy/fsk.hpp"

namespace hs::snapshot {
class StateWriter;
}  // namespace hs::snapshot

namespace hs::shield {

enum class JamProfile {
  kShaped,    ///< matched to the IMD's FSK spectrum (the paper's design)
  kConstant,  ///< flat across the 300 kHz channel (ablation baseline)
};

/// Empirical per-bin power profile of the given FSK modulation, estimated
/// from a long random-bit transmission; normalized to unit mean power.
std::vector<double> fsk_power_profile(const phy::FskParams& fsk,
                                      std::size_t fft_size,
                                      std::uint64_t seed = 7);

class JammingSignalGenerator {
 public:
  JammingSignalGenerator(const phy::FskParams& fsk, JamProfile profile,
                         std::uint64_t seed, std::size_t fft_size = 256);

  /// Sets the generator's start state under the given parameters; the
  /// constructor runs this: construction is a reset. The empirical FSK
  /// power profile — the expensive part (a long modulation plus a Welch
  /// PSD) — is computed only when there is none yet or `fsk` or
  /// `fft_size` differ from the current ones; it does not depend on the
  /// seed, so reusing it keeps the output stream bit-identical to a fresh
  /// generator's.
  void reset(const phy::FskParams& fsk, JamProfile profile,
             std::uint64_t seed, std::size_t fft_size);

  /// Sets the target mean transmit power (linear mW).
  void set_power(double power_mw);
  double power() const { return power_mw_; }

  void set_profile(JamProfile profile);
  JamProfile profile() const { return profile_; }

  /// Produces the next `n` samples of the jamming stream.
  dsp::Samples next(std::size_t n);

  /// Split-complex variant: overwrites `out` with the next `n` samples.
  /// Draws the same stream as next() (plane copies instead of
  /// interleaving), feeding Medium::set_tx(SoaView) and the antidote
  /// without a layout conversion.
  void next(std::size_t n, dsp::SoaSamples& out);

  /// Two-phase seeding, trial half: restarts the jamming stream on a
  /// fresh per-trial RNG stream and discards any buffered samples, so
  /// every trial's one-time pad is independent. Profile, weights and
  /// power — the calibration — are untouched.
  void reseed(std::uint64_t trial_seed);

  /// Writes the RNG position, buffered stream slice and cursor, power,
  /// profile mode and the cached empirical FSK profile (shaped_weights_)
  /// into a warm-state snapshot.
  void save_state(snapshot::StateWriter& w) const;

  /// The per-bin weights currently in use (FFT order, DC first).
  const std::vector<double>& bin_weights() const { return weights_; }

  std::size_t fft_size() const { return fft_size_; }

 private:
  void refill();
  void rebuild_weights();

  // Every member but the refill scratch is set by reset().
  phy::FskParams fsk_;
  JamProfile profile_;
  dsp::Rng rng_;
  std::size_t fft_size_;
  double power_mw_;
  std::vector<double> shaped_weights_;  // unit-mean FSK profile
  std::vector<double> weights_;         // active profile
  std::vector<double> bin_sigma_;       // sqrt(weights_[k] / 2)
  double scale_;                        // per-sample amplitude scale
  dsp::Samples bins_;                   // refill scratch: bins, then IFFT
  dsp::SoaSamples buffer_;  // split-complex IFFT output, consumed in slices
  std::size_t buffer_pos_;
};

}  // namespace hs::shield
