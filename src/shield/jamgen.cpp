#include "shield/jamgen.hpp"

#include <cmath>
#include <numeric>
#include <stdexcept>

#include "dsp/fft.hpp"
#include "dsp/spectrum.hpp"
#include "obs/metrics.hpp"
#include "snapshot/state_io.hpp"

namespace hs::shield {

using dsp::cplx;
using dsp::Samples;

std::vector<double> fsk_power_profile(const phy::FskParams& fsk,
                                      std::size_t fft_size,
                                      std::uint64_t seed) {
  // Modulate a long random bit sequence and measure its Welch PSD with the
  // generator's FFT size, so profile bins line up one-to-one.
  dsp::Rng rng(seed, "fsk-profile");
  phy::BitVec bits(4096);
  for (auto& b : bits) b = static_cast<std::uint8_t>(rng.next_u64() & 1);
  const Samples wave = phy::fsk_modulate(fsk, bits);

  dsp::WelchOptions opt;
  opt.segment_size = fft_size;
  const auto psd = dsp::welch_psd(wave, fsk.fs, opt);

  // welch_psd returns DC-centered bins; convert back to FFT order.
  std::vector<double> profile(fft_size);
  for (std::size_t i = 0; i < fft_size; ++i) {
    const std::size_t centered = (i + fft_size / 2) % fft_size;
    profile[i] = psd.power[centered];
  }
  // Normalize to unit mean.
  const double mean =
      std::accumulate(profile.begin(), profile.end(), 0.0) /
      static_cast<double>(fft_size);
  if (mean > 0.0) {
    for (auto& p : profile) p /= mean;
  }
  return profile;
}

JammingSignalGenerator::JammingSignalGenerator(const phy::FskParams& fsk,
                                               JamProfile profile,
                                               std::uint64_t seed,
                                               std::size_t fft_size) {
  reset(fsk, profile, seed, fft_size);
}

void JammingSignalGenerator::reset(const phy::FskParams& fsk,
                                   JamProfile profile, std::uint64_t seed,
                                   std::size_t fft_size) {
  if (!dsp::is_pow2(fft_size)) {
    throw std::invalid_argument("JammingSignalGenerator: fft_size not 2^k");
  }
  const bool profile_stale = shaped_weights_.empty() ||
                             fft_size != fft_size_ || fsk.fs != fsk_.fs ||
                             fsk.sps != fsk_.sps || fsk.f0 != fsk_.f0 ||
                             fsk.f1 != fsk_.f1;
  fsk_ = fsk;
  profile_ = profile;
  rng_ = dsp::Rng(seed, "jamming");
  fft_size_ = fft_size;
  power_mw_ = 1.0;
  if (profile_stale) shaped_weights_ = fsk_power_profile(fsk_, fft_size_);
  rebuild_weights();
  buffer_.clear();
  buffer_pos_ = 0;
}

void JammingSignalGenerator::reseed(std::uint64_t trial_seed) {
  rng_ = dsp::Rng(trial_seed, "jamming");
  buffer_.clear();
  buffer_pos_ = 0;
}

void JammingSignalGenerator::save_state(snapshot::StateWriter& w) const {
  w.begin("jamgen");
  w.f64("fs", fsk_.fs);
  w.u64("sps", fsk_.sps);
  w.f64("f0", fsk_.f0);
  w.f64("f1", fsk_.f1);
  w.u64("fft_size", fft_size_);
  w.u64("profile", static_cast<std::uint64_t>(profile_));
  snapshot::write_rng(w, "rng", rng_);
  w.f64("power_mw", power_mw_);
  w.f64_vec("shaped_weights", shaped_weights_);
  w.soa("buffer", buffer_.view());
  w.u64("buffer_pos", buffer_pos_);
  w.end("jamgen");
}

void JammingSignalGenerator::rebuild_weights() {
  if (profile_ == JamProfile::kShaped) {
    weights_ = shaped_weights_;
  } else {
    weights_.assign(fft_size_, 1.0);
  }
  // For bin variances p_k, the IFFT sample variance is sum(p_k) / N^2.
  // Scale so the time-domain mean power equals power_mw_.
  const double sum = std::accumulate(weights_.begin(), weights_.end(), 0.0);
  const double sample_var = sum / static_cast<double>(fft_size_ * fft_size_);
  scale_ = std::sqrt(power_mw_ / std::max(sample_var, 1e-30));
  // Bin k is cgaussian(weights_[k]); its component scale is computed here
  // once, by the same expression cgaussian() evaluates per call.
  bin_sigma_.resize(fft_size_);
  for (std::size_t k = 0; k < fft_size_; ++k) {
    bin_sigma_[k] = std::sqrt(weights_[k] / 2.0);
  }
}

void JammingSignalGenerator::set_power(double power_mw) {
  power_mw_ = power_mw;
  rebuild_weights();
}

void JammingSignalGenerator::set_profile(JamProfile profile) {
  profile_ = profile;
  rebuild_weights();
}

void JammingSignalGenerator::refill() {
  // Bins are drawn in AoS order, bin k bit-identical to
  // cgaussian(weights_[k]), so the RNG stream is unchanged; the IFFT
  // output is then deinterleaved once per fft_size_ samples into the
  // split buffer the slicing below (and SoA consumers) read plane-wise.
  bins_.resize(fft_size_);
  rng_.fill_cgaussian(bins_, bin_sigma_);
  dsp::ifft_inplace(bins_);
  buffer_.resize(fft_size_);
  double* re = buffer_.re();
  double* im = buffer_.im();
  for (std::size_t k = 0; k < fft_size_; ++k) {
    re[k] = bins_[k].real() * scale_;
    im[k] = bins_[k].imag() * scale_;
  }
  buffer_pos_ = 0;
}

Samples JammingSignalGenerator::next(std::size_t n) {
  obs::ScopedTimer obs_timer(obs::Phase::kJamgen);
  Samples out;
  out.reserve(n);
  while (out.size() < n) {
    if (buffer_pos_ >= buffer_.size()) refill();
    const std::size_t take =
        std::min(n - out.size(), buffer_.size() - buffer_pos_);
    const double* re = buffer_.re() + buffer_pos_;
    const double* im = buffer_.im() + buffer_pos_;
    for (std::size_t i = 0; i < take; ++i) out.emplace_back(re[i], im[i]);
    buffer_pos_ += take;
  }
  return out;
}

void JammingSignalGenerator::next(std::size_t n, dsp::SoaSamples& out) {
  obs::ScopedTimer obs_timer(obs::Phase::kJamgen);
  out.clear();
  out.reserve(n);
  while (out.size() < n) {
    if (buffer_pos_ >= buffer_.size()) refill();
    const std::size_t take =
        std::min(n - out.size(), buffer_.size() - buffer_pos_);
    out.append(buffer_.view().subview(buffer_pos_, take));
    buffer_pos_ += take;
  }
}

}  // namespace hs::shield
