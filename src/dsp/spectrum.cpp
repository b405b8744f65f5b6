#include "dsp/spectrum.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "dsp/fft.hpp"

namespace hs::dsp {

PsdEstimate welch_psd(SampleView signal, double fs,
                      const WelchOptions& options) {
  const std::size_t seg = options.segment_size;
  if (!is_pow2(seg)) {
    throw std::invalid_argument("welch_psd: segment_size must be power of 2");
  }
  if (options.overlap < 0.0 || options.overlap >= 1.0) {
    throw std::invalid_argument("welch_psd: overlap must be in [0, 1)");
  }
  const auto w = make_window(options.window, seg);
  const double wp = window_power(w);
  const auto hop = std::max<std::size_t>(
      1, static_cast<std::size_t>(
             std::lround(static_cast<double>(seg) * (1.0 - options.overlap))));

  PsdEstimate psd;
  psd.fs = fs;
  psd.power.assign(seg, 0.0);
  std::size_t segments = 0;
  Samples buf(seg);
  for (std::size_t start = 0; start + seg <= signal.size(); start += hop) {
    for (std::size_t i = 0; i < seg; ++i) buf[i] = signal[start + i] * w[i];
    fft_inplace(buf);
    for (std::size_t i = 0; i < seg; ++i) psd.power[i] += std::norm(buf[i]);
    ++segments;
  }
  if (segments == 0) {
    // Signal shorter than one segment: zero-pad a single segment.
    buf.assign(seg, cplx{});
    for (std::size_t i = 0; i < std::min(seg, signal.size()); ++i) {
      buf[i] = signal[i] * w[i];
    }
    fft_inplace(buf);
    for (std::size_t i = 0; i < seg; ++i) psd.power[i] += std::norm(buf[i]);
    segments = 1;
  }
  const double norm = 1.0 / (static_cast<double>(segments) * wp);
  for (auto& p : psd.power) p *= norm;

  // DC-center the result.
  std::vector<double> shifted(seg);
  const std::size_t half = (seg + 1) / 2;
  for (std::size_t i = 0; i < seg; ++i) {
    shifted[i] = psd.power[(i + half) % seg];
  }
  psd.power = std::move(shifted);
  psd.freq_hz.resize(seg);
  for (std::size_t i = 0; i < seg; ++i) {
    psd.freq_hz[i] =
        (static_cast<double>(i) - static_cast<double>(seg / 2)) * fs /
        static_cast<double>(seg);
  }
  return psd;
}

double band_power(SampleView signal, double fs, double f_lo, double f_hi) {
  if (signal.empty()) return 0.0;
  Samples buf(signal.begin(), signal.end());
  buf.resize(next_pow2(buf.size()));
  const std::size_t n = buf.size();
  fft_inplace(buf);
  double total = 0.0;
  for (std::size_t k = 0; k < n; ++k) {
    const double f = bin_frequency(k, n, fs);
    if (f >= f_lo && f <= f_hi) total += std::norm(buf[k]);
  }
  // Parseval: sum |X_k|^2 / N^2 gives mean power * (N / signal length);
  // normalize to mean per-sample power over the original signal length.
  return total / (static_cast<double>(n) * static_cast<double>(signal.size()));
}

double psd_band_power(const PsdEstimate& psd, double f_lo, double f_hi) {
  double total = 0.0;
  std::size_t count = 0;
  for (std::size_t i = 0; i < psd.power.size(); ++i) {
    if (psd.freq_hz[i] >= f_lo && psd.freq_hz[i] <= f_hi) {
      total += psd.power[i];
      ++count;
    }
  }
  return count ? total : 0.0;
}

}  // namespace hs::dsp
