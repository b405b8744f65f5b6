#include "phy/fsk.hpp"

#include <cmath>
#include <stdexcept>

#include "dsp/kernels.hpp"

namespace hs::phy {

using dsp::cplx;
using dsp::kTwoPi;
using dsp::Samples;

bool FskParams::tones_orthogonal() const {
  const double sep = std::abs(f1 - f0);
  const double sym_rate = bit_rate();
  const double k = sep / sym_rate;
  return std::abs(k - std::round(k)) < 1e-9 && k >= 1.0;
}

FskModulator::FskModulator(const FskParams& params) : params_(params) {
  if (params_.sps == 0 || params_.fs <= 0) {
    throw std::invalid_argument("FskModulator: invalid params");
  }
}

Samples FskModulator::modulate(BitView bits) {
  Samples out;
  out.reserve(bits.size() * params_.sps);
  for (std::uint8_t bit : bits) {
    const double f = bit ? params_.f1 : params_.f0;
    const double step = kTwoPi * f / params_.fs;
    for (std::size_t i = 0; i < params_.sps; ++i) {
      out.emplace_back(std::cos(phase_), std::sin(phase_));
      phase_ += step;
      if (phase_ > kTwoPi) phase_ -= kTwoPi;
      if (phase_ < -kTwoPi) phase_ += kTwoPi;
    }
  }
  return out;
}

Samples fsk_modulate(const FskParams& params, BitView bits) {
  FskModulator mod(params);
  return mod.modulate(bits);
}

namespace {

Samples make_tone_reference(double freq, const FskParams& p) {
  Samples tone(p.sps);
  for (std::size_t i = 0; i < p.sps; ++i) {
    const double phase = kTwoPi * freq / p.fs * static_cast<double>(i);
    // Stored conjugated so demod is a straight multiply-accumulate.
    tone[i] = cplx(std::cos(phase), -std::sin(phase));
  }
  return tone;
}

}  // namespace

NoncoherentFskDemod::NoncoherentFskDemod(const FskParams& params)
    : params_(params),
      tone0_(make_tone_reference(params.f0, params)),
      tone1_(make_tone_reference(params.f1, params)),
      tone0_soa_(dsp::to_soa(tone0_)),
      tone1_soa_(dsp::to_soa(tone1_)),
      tone_a_(4 * params.sps),
      tone_b_(4 * params.sps) {
  dsp::kernels::pack_dual_tones(tone0_soa_.re(), tone0_soa_.im(),
                                tone1_soa_.re(), tone1_soa_.im(), params.sps,
                                tone_a_.data(), tone_b_.data());
}

std::uint8_t NoncoherentFskDemod::demod_symbol(dsp::SampleView rx,
                                               std::size_t offset,
                                               double* metric) const {
  cplx c0{}, c1{};
  for (std::size_t i = 0; i < params_.sps; ++i) {
    const cplx x = rx[offset + i];
    c0 += x * tone0_[i];
    c1 += x * tone1_[i];
  }
  const double m = std::abs(c1) - std::abs(c0);
  if (metric != nullptr) *metric = m;
  return m > 0.0 ? 1 : 0;
}

std::uint8_t NoncoherentFskDemod::demod_symbol(dsp::SoaView rx,
                                               std::size_t offset,
                                               double* metric) const {
  // Both tone correlations in one packed MAC over the buffer planes and
  // the pre-interleaved tone planes (see dsp::kernels::pack_dual_tones);
  // bit-identical to the AoS overload's -fcx-limited-range expansion.
  const dsp::kernels::DualToneAccum acc = dsp::kernels::dual_tone_mac(
      rx.re + offset, rx.im + offset, tone_a_.data(), tone_b_.data(),
      params_.sps);
  const double m = std::abs(cplx(acc.c1_re, acc.c1_im)) -
                   std::abs(cplx(acc.c0_re, acc.c0_im));
  if (metric != nullptr) *metric = m;
  return m > 0.0 ? 1 : 0;
}

BitVec NoncoherentFskDemod::demodulate(dsp::SampleView rx, std::size_t offset,
                                       std::size_t count) const {
  BitVec bits;
  bits.reserve(count);
  for (std::size_t s = 0; s < count; ++s) {
    const std::size_t start = offset + s * params_.sps;
    if (start + params_.sps > rx.size()) break;
    bits.push_back(demod_symbol(rx, start));
  }
  return bits;
}

BitVec NoncoherentFskDemod::demodulate(dsp::SoaView rx, std::size_t offset,
                                       std::size_t count) const {
  BitVec bits;
  bits.reserve(count);
  for (std::size_t s = 0; s < count; ++s) {
    const std::size_t start = offset + s * params_.sps;
    if (start + params_.sps > rx.size()) break;
    bits.push_back(demod_symbol(rx, start));
  }
  return bits;
}

}  // namespace hs::phy
