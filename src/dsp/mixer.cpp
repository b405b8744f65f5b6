#include "dsp/mixer.hpp"

#include <cassert>
#include <cmath>

namespace hs::dsp {

Mixer::Mixer(double shift_hz, double fs)
    : shift_hz_(shift_hz), phase_step_(kTwoPi * shift_hz / fs) {}

cplx Mixer::process(cplx x) {
  const cplx osc(std::cos(phase_), std::sin(phase_));
  phase_ += phase_step_;
  // Keep phase bounded for numeric stability over long runs.
  if (phase_ > kTwoPi) phase_ -= kTwoPi;
  if (phase_ < -kTwoPi) phase_ += kTwoPi;
  return x * osc;
}

void Mixer::process(SampleView in, Samples& out) {
  out.reserve(out.size() + in.size());
  for (cplx x : in) out.push_back(process(x));
}

Samples Mixer::process(SampleView in) {
  Samples out;
  process(in, out);
  return out;
}

void Mixer::process(SoaView in, SoaSamples& out) {
  // `in` must not view `out`: the resize below may reallocate the planes.
  assert(!soa_views_overlap(in, out.view()));
  const std::size_t base = out.size();
  out.resize(base + in.size());
  double* ore = out.re() + base;
  double* oim = out.im() + base;
  for (std::size_t i = 0; i < in.size(); ++i) {
    const double c = std::cos(phase_);
    const double s = std::sin(phase_);
    phase_ += phase_step_;
    if (phase_ > kTwoPi) phase_ -= kTwoPi;
    if (phase_ < -kTwoPi) phase_ += kTwoPi;
    ore[i] = in.re[i] * c - in.im[i] * s;
    oim[i] = in.re[i] * s + in.im[i] * c;
  }
}

Samples apply_cfo(SampleView in, double offset_hz, double fs) {
  Mixer m(offset_hz, fs);
  return m.process(in);
}

}  // namespace hs::dsp
