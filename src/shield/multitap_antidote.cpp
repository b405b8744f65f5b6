#include "shield/multitap_antidote.hpp"

#include <stdexcept>

#include "dsp/fft.hpp"
#include "snapshot/state_io.hpp"

namespace hs::shield {

using dsp::cplx;
using dsp::Samples;

Samples estimate_fir_channel(dsp::SampleView received,
                             dsp::SampleView probe, std::size_t taps) {
  if (taps == 0) throw std::invalid_argument("estimate_fir_channel: taps=0");
  const std::size_t n = std::min(received.size(), probe.size());
  if (n < 2 * taps) {
    throw std::invalid_argument("estimate_fir_channel: probe too short");
  }
  // Normal equations A h = b with A = X^H X, b = X^H y, where row n of X
  // is [x[n], x[n-1], ..., x[n-taps+1]].
  std::vector<std::vector<cplx>> a(taps, std::vector<cplx>(taps, cplx{}));
  std::vector<cplx> b(taps, cplx{});
  for (std::size_t row = taps - 1; row < n; ++row) {
    for (std::size_t k = 0; k < taps; ++k) {
      const cplx xk = std::conj(probe[row - k]);
      b[k] += xk * received[row];
      for (std::size_t l = 0; l < taps; ++l) {
        a[k][l] += xk * probe[row - l];
      }
    }
  }
  // Gaussian elimination with partial pivoting (taps is tiny).
  for (std::size_t col = 0; col < taps; ++col) {
    std::size_t pivot = col;
    for (std::size_t r = col + 1; r < taps; ++r) {
      if (std::abs(a[r][col]) > std::abs(a[pivot][col])) pivot = r;
    }
    std::swap(a[col], a[pivot]);
    std::swap(b[col], b[pivot]);
    const cplx diag = a[col][col];
    if (std::abs(diag) < 1e-30) continue;  // degenerate direction
    for (std::size_t r = 0; r < taps; ++r) {
      if (r == col) continue;
      const cplx factor = a[r][col] / diag;
      for (std::size_t c = col; c < taps; ++c) a[r][c] -= factor * a[col][c];
      b[r] -= factor * b[col];
    }
  }
  Samples h(taps);
  for (std::size_t k = 0; k < taps; ++k) {
    h[k] = std::abs(a[k][k]) > 1e-30 ? b[k] / a[k][k] : cplx{};
  }
  return h;
}

MultitapAntidote::MultitapAntidote(std::size_t fir_taps,
                                   std::size_t equalizer_taps)
    : fir_taps_(fir_taps), eq_taps_(equalizer_taps) {
  if (!dsp::is_pow2(eq_taps_)) {
    throw std::invalid_argument("MultitapAntidote: equalizer_taps not 2^k");
  }
}

void MultitapAntidote::update_jam_channel(dsp::SampleView received,
                                          dsp::SampleView probe) {
  h_jam_ = estimate_fir_channel(received, probe, fir_taps_);
  have_jam_ = true;
  if (ready()) design_equalizer();
}

void MultitapAntidote::update_self_channel(dsp::SampleView received,
                                           dsp::SampleView probe) {
  h_self_ = estimate_fir_channel(received, probe, fir_taps_);
  have_self_ = true;
  if (ready()) design_equalizer();
}

void MultitapAntidote::design_equalizer() {
  // Frequency sampling: EQ(f) = -Hjr(f) / Hself(f) over eq_taps_ bins.
  Samples jam_f(eq_taps_, cplx{});
  Samples self_f(eq_taps_, cplx{});
  for (std::size_t k = 0; k < h_jam_.size(); ++k) jam_f[k] = h_jam_[k];
  for (std::size_t k = 0; k < h_self_.size(); ++k) self_f[k] = h_self_[k];
  dsp::fft_inplace(jam_f);
  dsp::fft_inplace(self_f);
  Samples eq_f(eq_taps_);
  // Tikhonov-style regularization keeps deep self-channel notches from
  // exploding the equalizer.
  double self_peak = 0.0;
  for (const auto& s : self_f) self_peak = std::max(self_peak, std::norm(s));
  const double reg = 1e-6 * self_peak;
  for (std::size_t k = 0; k < eq_taps_; ++k) {
    eq_f[k] = -jam_f[k] * std::conj(self_f[k]) /
              (std::norm(self_f[k]) + reg);
  }
  dsp::ifft_inplace(eq_f);
  eq_ = std::move(eq_f);
  filter_.emplace(eq_);
}

Samples MultitapAntidote::antidote_for(dsp::SampleView jamming) {
  if (!ready()) throw std::logic_error("MultitapAntidote: not estimated");
  return filter_->process(jamming);
}

void MultitapAntidote::save_state(snapshot::StateWriter& w) const {
  w.begin("multitap");
  w.u64("fir_taps", fir_taps_);
  w.u64("eq_taps", eq_taps_);
  w.boolean("have_jam", have_jam_);
  w.boolean("have_self", have_self_);
  w.samples("h_jam", h_jam_);
  w.samples("h_self", h_self_);
  w.samples("eq", eq_);
  w.boolean("have_filter", filter_.has_value());
  if (filter_) filter_->save_state(w);
  w.end("multitap");
}

void MultitapAntidote::load_state(snapshot::StateReader& r) {
  r.begin("multitap");
  if (r.u64("fir_taps") != fir_taps_ || r.u64("eq_taps") != eq_taps_) {
    throw snapshot::SnapshotError("snapshot: multitap geometry mismatch");
  }
  have_jam_ = r.boolean("have_jam");
  have_self_ = r.boolean("have_self");
  h_jam_ = r.samples("h_jam");
  h_self_ = r.samples("h_self");
  eq_ = r.samples("eq");
  if (r.boolean("have_filter")) {
    filter_.emplace(eq_);
    filter_->load_state(r);
  } else {
    filter_.reset();
  }
  r.end("multitap");
}

}  // namespace hs::shield
