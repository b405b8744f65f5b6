// Power-spectral-density estimation (Welch) and band-power measurement.
//
// Regenerates the frequency profiles of Fig. 4 (captured FSK signal) and
// Fig. 5 (shaped vs constant jamming), and supplies the per-bin IMD power
// profile that the shield's shaped jammer matches.
#pragma once

#include <cstddef>
#include <vector>

#include "dsp/types.hpp"
#include "dsp/window.hpp"

namespace hs::dsp {

struct PsdEstimate {
  std::vector<double> power;  ///< per-bin power, DC-centered (fftshifted)
  std::vector<double> freq_hz;  ///< bin center frequencies, ascending
  double fs = 0.0;
};

struct WelchOptions {
  std::size_t segment_size = 256;  ///< must be a power of two
  double overlap = 0.5;            ///< fraction of segment, [0, 1)
  WindowType window = WindowType::kHann;
};

/// Welch-averaged periodogram of `signal` at sample rate `fs`.
PsdEstimate welch_psd(SampleView signal, double fs,
                      const WelchOptions& options = {});

/// Total power of `signal` restricted to [f_lo, f_hi] (Hz), via FFT binning.
double band_power(SampleView signal, double fs, double f_lo, double f_hi);

/// Mean power of a PSD estimate within [f_lo, f_hi].
double psd_band_power(const PsdEstimate& psd, double f_lo, double f_hi);

}  // namespace hs::dsp
