// GMSK modem modelling the Vaisala RS92-AGP radiosonde cross-traffic of the
// coexistence experiment (paper section 11, Table 2). Meteorological aids
// are the primary users of the 402-405 MHz band; the shield must never jam
// them, and the table2-coexistence preset's claim checks it does not.
#pragma once

#include <cstddef>

#include "dsp/types.hpp"
#include "phy/bits.hpp"

namespace hs::phy {

struct GmskParams {
  double fs = 300e3;       ///< baseband sample rate (Hz)
  std::size_t sps = 12;    ///< samples per symbol
  double bt = 0.5;         ///< Gaussian bandwidth-time product
  std::size_t span = 3;    ///< pulse-shaping span in symbols
};

/// GMSK modulator: NRZ bits -> Gaussian-filtered frequency pulses ->
/// phase integration -> unit-amplitude complex exponential.
class GmskModulator {
 public:
  explicit GmskModulator(const GmskParams& params);

  dsp::Samples modulate(BitView bits);

  void reset();
  const GmskParams& params() const { return params_; }

 private:
  GmskParams params_;
  std::vector<double> pulse_;    // gaussian frequency pulse taps
  std::vector<double> history_;  // NRZ sample history for the pulse filter
  std::size_t pos_ = 0;
  double phase_ = 0.0;
};

/// Noncoherent GMSK demodulator via differential phase detection.
class GmskDemodulator {
 public:
  explicit GmskDemodulator(const GmskParams& params);

  /// Demodulates `count` symbols starting `offset` samples into `rx`.
  /// `group_delay_symbols` accounts for the modulator's pulse delay; the
  /// default matches GmskModulator's span.
  BitVec demodulate(dsp::SampleView rx, std::size_t offset,
                    std::size_t count) const;

  const GmskParams& params() const { return params_; }

 private:
  GmskParams params_;
};

}  // namespace hs::phy
