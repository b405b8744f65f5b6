#include "dsp/fir.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <stdexcept>

#include "dsp/kernels.hpp"
#include "dsp/window.hpp"
#include "snapshot/state_io.hpp"

namespace hs::dsp {
namespace {

double sinc(double x) {
  if (std::abs(x) < 1e-12) return 1.0;
  return std::sin(kPi * x) / (kPi * x);
}

}  // namespace

std::vector<double> design_lowpass(double normalized_cutoff,
                                   std::size_t taps) {
  // NaN fails every ordered comparison, so test for the valid range and
  // negate — a NaN cutoff (e.g. 0.0/0.0 upstream) must not slip through.
  if (!(normalized_cutoff > 0.0 && normalized_cutoff < 0.5)) {
    throw std::invalid_argument("design_lowpass: cutoff must be in (0, 0.5)");
  }
  if (taps % 2 == 0) {
    throw std::invalid_argument("design_lowpass: tap count must be odd");
  }
  const auto w = make_window(WindowType::kHamming, taps);
  std::vector<double> h(taps);
  const double m = static_cast<double>(taps - 1) / 2.0;
  double sum = 0.0;
  for (std::size_t i = 0; i < taps; ++i) {
    const double t = static_cast<double>(i) - m;
    h[i] = 2.0 * normalized_cutoff * sinc(2.0 * normalized_cutoff * t) * w[i];
    sum += h[i];
  }
  // Normalize to unit DC gain.
  for (auto& v : h) v /= sum;
  return h;
}

Samples design_bandpass(double center_hz, double half_width_hz, double fs,
                        std::size_t taps) {
  // Validate here rather than relying on design_lowpass: fs <= 0 (or NaN)
  // would turn half_width_hz/fs into a nonsense cutoff with an error
  // message pointing at the wrong function.
  if (!(fs > 0.0)) {
    throw std::invalid_argument("design_bandpass: fs must be positive");
  }
  if (!(half_width_hz > 0.0)) {
    throw std::invalid_argument(
        "design_bandpass: half_width_hz must be positive");
  }
  const auto lp = design_lowpass(half_width_hz / fs, taps);
  Samples h(taps);
  const double m = static_cast<double>(taps - 1) / 2.0;
  for (std::size_t i = 0; i < taps; ++i) {
    const double phase =
        kTwoPi * center_hz / fs * (static_cast<double>(i) - m);
    h[i] = lp[i] * cplx(std::cos(phase), std::sin(phase));
  }
  return h;
}

std::vector<double> design_gaussian(double bt, std::size_t sps,
                                    std::size_t span_symbols) {
  if (bt <= 0.0 || sps == 0 || span_symbols == 0) {
    throw std::invalid_argument("design_gaussian: invalid parameters");
  }
  const std::size_t n = sps * span_symbols + 1;
  std::vector<double> h(n);
  // Standard GMSK Gaussian shaping: h(t) ~ exp(-2 pi^2 bt^2 t^2 / ln 2),
  // t in symbol units.
  const double alpha = 2.0 * kPi * kPi * bt * bt / std::log(2.0);
  const double m = static_cast<double>(n - 1) / 2.0;
  double sum = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const double t = (static_cast<double>(i) - m) / static_cast<double>(sps);
    h[i] = std::exp(-alpha * t * t);
    sum += h[i];
  }
  for (auto& v : h) v /= sum;
  return h;
}

FirFilter::FirFilter(std::vector<double> taps) : taps_(std::move(taps)) {
  if (taps_.empty()) throw std::invalid_argument("FirFilter: empty taps");
  history_.assign(taps_.size(), cplx{});
}

cplx FirFilter::process(cplx x) {
  history_[pos_] = x;
  cplx acc{};
  std::size_t idx = pos_;
  for (std::size_t k = 0; k < taps_.size(); ++k) {
    acc += taps_[k] * history_[idx];
    idx = (idx == 0) ? history_.size() - 1 : idx - 1;
  }
  pos_ = (pos_ + 1) % history_.size();
  return acc;
}

void FirFilter::process(SampleView in, Samples& out) {
  out.reserve(out.size() + in.size());
  for (cplx x : in) out.push_back(process(x));
}

Samples FirFilter::process(SampleView in) {
  Samples out;
  process(in, out);
  return out;
}

void FirFilter::process(SoaView in, SoaSamples& out) {
  // `in` must not view `out`: the resize below may reallocate the planes.
  assert(!soa_views_overlap(in, out.view()));
  const std::size_t t = taps_.size();
  const std::size_t m = in.size();
  if (m == 0) return;
  const std::size_t hist = t - 1;
  // Contiguous split-plane window: the last t-1 samples in chronological
  // order followed by the new block. out[i] is then the tap dot-product
  // against ext[hist + i - k], k ascending — the same newest-first order
  // (and therefore the same rounding) as the per-sample path, but over
  // plane loads the vectorizer can work with.
  ext_re_.resize(hist + m);
  ext_im_.resize(hist + m);
  for (std::size_t j = 0; j < hist; ++j) {
    const cplx& h = history_[(pos_ + t - 1 - j) % t];
    ext_re_[hist - 1 - j] = h.real();
    ext_im_[hist - 1 - j] = h.imag();
  }
  std::copy(in.re, in.re + m, ext_re_.begin() + static_cast<long>(hist));
  std::copy(in.im, in.im + m, ext_im_.begin() + static_cast<long>(hist));

  const std::size_t base = out.size();
  out.resize(base + m);
  double* ore = out.re() + base;
  double* oim = out.im() + base;
  const double* xr = ext_re_.data();
  const double* xi = ext_im_.data();
  kernels::fir_block_real(taps_.data(), t, xr, xi, ore, oim, m);
  // Streaming-state writeback, identical to what m scalar calls leave.
  // Values come from the ext_ scratch (which holds the whole block and
  // cannot dangle) rather than `in`, belt-and-braces against callers
  // that violate the no-aliasing contract.
  for (std::size_t i = m - std::min(t, m); i < m; ++i) {
    history_[(pos_ + i) % t] = {xr[hist + i], xi[hist + i]};
  }
  pos_ = (pos_ + m) % t;
}

void FirFilter::reset() {
  history_.assign(taps_.size(), cplx{});
  pos_ = 0;
}

namespace {

void save_fir_state(snapshot::StateWriter& w, std::size_t taps,
                    const Samples& history, std::size_t pos) {
  w.begin("fir");
  w.u64("taps", taps);
  w.u64("pos", pos);
  w.samples("history", history);
  w.end("fir");
}

void load_fir_state(snapshot::StateReader& r, std::size_t taps,
                    Samples& history, std::size_t& pos) {
  r.begin("fir");
  const std::uint64_t saved_taps = r.u64("taps");
  if (saved_taps != taps) {
    throw snapshot::SnapshotError(
        "snapshot: FIR tap count mismatch (saved " +
        std::to_string(saved_taps) + ", target " + std::to_string(taps) +
        ")");
  }
  pos = r.u64("pos");
  history = r.samples("history");
  if (history.size() != taps || pos >= taps) {
    throw snapshot::SnapshotError("snapshot: FIR history shape invalid");
  }
  r.end("fir");
}

}  // namespace

void FirFilter::save_state(snapshot::StateWriter& w) const {
  save_fir_state(w, taps_.size(), history_, pos_);
}

void FirFilter::load_state(snapshot::StateReader& r) {
  load_fir_state(r, taps_.size(), history_, pos_);
}

ComplexFirFilter::ComplexFirFilter(Samples taps) : taps_(std::move(taps)) {
  if (taps_.empty()) {
    throw std::invalid_argument("ComplexFirFilter: empty taps");
  }
  history_.assign(taps_.size(), cplx{});
  tap_re_.resize(taps_.size());
  tap_im_.resize(taps_.size());
  for (std::size_t k = 0; k < taps_.size(); ++k) {
    tap_re_[k] = taps_[k].real();
    tap_im_[k] = taps_[k].imag();
  }
}

cplx ComplexFirFilter::process(cplx x) {
  history_[pos_] = x;
  cplx acc{};
  std::size_t idx = pos_;
  for (std::size_t k = 0; k < taps_.size(); ++k) {
    acc += taps_[k] * history_[idx];
    idx = (idx == 0) ? history_.size() - 1 : idx - 1;
  }
  pos_ = (pos_ + 1) % history_.size();
  return acc;
}

void ComplexFirFilter::process(SampleView in, Samples& out) {
  out.reserve(out.size() + in.size());
  for (cplx x : in) out.push_back(process(x));
}

Samples ComplexFirFilter::process(SampleView in) {
  Samples out;
  process(in, out);
  return out;
}

void ComplexFirFilter::process(SoaView in, SoaSamples& out) {
  // `in` must not view `out`: the resize below may reallocate the planes.
  assert(!soa_views_overlap(in, out.view()));
  const std::size_t t = taps_.size();
  const std::size_t m = in.size();
  if (m == 0) return;
  const std::size_t hist = t - 1;
  ext_re_.resize(hist + m);
  ext_im_.resize(hist + m);
  for (std::size_t j = 0; j < hist; ++j) {
    const cplx& h = history_[(pos_ + t - 1 - j) % t];
    ext_re_[hist - 1 - j] = h.real();
    ext_im_[hist - 1 - j] = h.imag();
  }
  std::copy(in.re, in.re + m, ext_re_.begin() + static_cast<long>(hist));
  std::copy(in.im, in.im + m, ext_im_.begin() + static_cast<long>(hist));

  const std::size_t base = out.size();
  out.resize(base + m);
  double* ore = out.re() + base;
  double* oim = out.im() + base;
  const double* xr = ext_re_.data();
  const double* xi = ext_im_.data();
  kernels::fir_block_cplx(tap_re_.data(), tap_im_.data(), t, xr, xi, ore,
                          oim, m);
  for (std::size_t i = m - std::min(t, m); i < m; ++i) {
    history_[(pos_ + i) % t] = {xr[hist + i], xi[hist + i]};
  }
  pos_ = (pos_ + m) % t;
}

void ComplexFirFilter::save_state(snapshot::StateWriter& w) const {
  save_fir_state(w, taps_.size(), history_, pos_);
}

void ComplexFirFilter::load_state(snapshot::StateReader& r) {
  load_fir_state(r, taps_.size(), history_, pos_);
}

double fir_power_response(const std::vector<double>& taps, double freq_hz,
                          double fs) {
  cplx acc{};
  for (std::size_t i = 0; i < taps.size(); ++i) {
    const double phase = -kTwoPi * freq_hz / fs * static_cast<double>(i);
    acc += taps[i] * cplx(std::cos(phase), std::sin(phase));
  }
  return std::norm(acc);
}

}  // namespace hs::dsp
