// 2-FSK modem modelling the MICS-band PHY of the Medtronic Virtuoso ICD
// and Concerto CRT: a '0' bit at tone f0 and a '1' bit at tone f1, with
// most energy near +-50 kHz of the 300 kHz channel (paper Fig. 4).
//
// The demodulator, NoncoherentFskDemod, is the "optimal FSK decoder [38]"
// the paper's eavesdropper uses: per-symbol tone matched filters, pick the
// larger envelope. It needs no carrier phase.
#pragma once

#include <cstddef>
#include <vector>

#include "dsp/types.hpp"
#include "phy/bits.hpp"

namespace hs::phy {

struct FskParams {
  double fs = 300e3;        ///< complex baseband sample rate (Hz)
  std::size_t sps = 12;     ///< samples per symbol (=> 25 kbaud default)
  double f0 = -50e3;        ///< tone for bit 0 (Hz)
  double f1 = +50e3;        ///< tone for bit 1 (Hz)

  double bit_rate() const { return fs / static_cast<double>(sps); }

  /// Tones are orthogonal over a symbol iff their separation is an integer
  /// multiple of the symbol rate; the defaults give |f1-f0| = 4 * 25 kHz.
  bool tones_orthogonal() const;

  bool operator==(const FskParams&) const = default;
};

/// Phase-continuous 2-FSK modulator. Amplitude 1 per sample (unit power).
class FskModulator {
 public:
  explicit FskModulator(const FskParams& params);

  /// Modulates a bit vector into sps*bits.size() samples. Phase is
  /// continuous across calls (hardware oscillators do not reset).
  dsp::Samples modulate(BitView bits);

  void reset_phase() { phase_ = 0.0; }
  const FskParams& params() const { return params_; }

  /// Oscillator phase (radians) — serialized by warm-state snapshots so a
  /// restored modulator stays phase-continuous with the saved one.
  double phase() const { return phase_; }
  void set_phase(double phase) { phase_ = phase; }

 private:
  FskParams params_;
  double phase_ = 0.0;
};

/// Convenience: one-shot modulation with fresh phase.
dsp::Samples fsk_modulate(const FskParams& params, BitView bits);

/// Optimal noncoherent 2-FSK demodulator (envelope detector per tone).
class NoncoherentFskDemod {
 public:
  explicit NoncoherentFskDemod(const FskParams& params);

  /// Demodulates `count` symbols starting at `offset` samples into `rx`.
  /// Stops early if the buffer runs out; returns the bits produced.
  BitVec demodulate(dsp::SampleView rx, std::size_t offset,
                    std::size_t count) const;

  /// Split-complex overload; bit-identical decisions and metrics.
  BitVec demodulate(dsp::SoaView rx, std::size_t offset,
                    std::size_t count) const;

  /// Demodulates one symbol; also reports the decision metric
  /// (|corr1| - |corr0|, positive => bit 1).
  std::uint8_t demod_symbol(dsp::SampleView rx, std::size_t offset,
                            double* metric = nullptr) const;

  /// Split-complex overload: the two tone correlations run over the
  /// buffer's re/im planes against pre-split tone planes (the streaming
  /// receiver's hot path). Bit-identical to the AoS overload.
  std::uint8_t demod_symbol(dsp::SoaView rx, std::size_t offset,
                            double* metric = nullptr) const;

  const FskParams& params() const { return params_; }

 private:
  FskParams params_;
  dsp::Samples tone0_;  // conjugated reference, one symbol long
  dsp::Samples tone1_;
  dsp::SoaSamples tone0_soa_;  // split copies of the references
  dsp::SoaSamples tone1_soa_;
  // Both tone references interleaved into the dsp::kernels::dual_tone_mac
  // layout (4 doubles per sample, imaginary parts pre-negated in tone_b_)
  // so the SoA demod hot path is a single packed MAC kernel call.
  std::vector<double> tone_a_;
  std::vector<double> tone_b_;
};

}  // namespace hs::phy
