#include "adversary/eavesdropper.hpp"

#include <algorithm>
#include <cmath>

#include "dsp/fir.hpp"

namespace hs::adversary {

using dsp::cplx;

namespace {

/// capture[from, to), both clipped to the capture.
dsp::SampleView clip(dsp::SampleView capture, std::size_t from,
                     std::size_t to) {
  from = std::min(from, capture.size());
  return capture.subspan(from, std::min(to, capture.size()) - from);
}

}  // namespace

EavesdropResult eavesdrop_decode(const phy::FskParams& fsk,
                                 dsp::SampleView capture, std::size_t start,
                                 phy::BitView truth) {
  EavesdropResult result;
  phy::NoncoherentFskDemod demod(fsk);
  // One deinterleave pass buys the split-plane symbol correlators. Only
  // the reply's own samples are converted: a symbol's decision does not
  // depend on where it lies in the capture.
  const dsp::SoaSamples soa = dsp::to_soa(
      clip(capture, start, start + truth.size() * fsk.sps));
  result.bits = demod.demodulate(soa.view(), 0, truth.size());
  result.ber = phy::bit_error_rate(truth, result.bits);
  return result;
}

EavesdropResult eavesdrop_decode_bandpass(const phy::FskParams& fsk,
                                          dsp::SampleView capture,
                                          std::size_t start,
                                          phy::BitView truth,
                                          double half_bw_hz) {
  EavesdropResult result;
  // Two narrow filters, one per tone; decode by comparing the energy of
  // the filtered outputs over each symbol.
  constexpr std::size_t kTaps = 65;
  dsp::ComplexFirFilter filter0(
      dsp::design_bandpass(fsk.f0, half_bw_hz, fsk.fs, kTaps));
  dsp::ComplexFirFilter filter1(
      dsp::design_bandpass(fsk.f1, half_bw_hz, fsk.fs, kTaps));
  const std::size_t delay = (kTaps - 1) / 2;  // linear-phase group delay
  // Filter only the samples the read outputs depend on: from kTaps - 1
  // before the first one read (every output read then sums the same taps
  // over the same samples as a filter run over the whole capture) to the
  // last one read. y[i] is the filtered capture's output lo + i.
  const std::size_t first = start + delay;
  const std::size_t lo = first > kTaps - 1 ? first - (kTaps - 1) : 0;
  const dsp::SoaSamples soa =
      dsp::to_soa(clip(capture, lo, first + truth.size() * fsk.sps));
  dsp::SoaSamples y0, y1;
  filter0.process(soa.view(), y0);
  filter1.process(soa.view(), y1);

  result.bits.reserve(truth.size());
  for (std::size_t s = 0; s < truth.size(); ++s) {
    const std::size_t a = first - lo + s * fsk.sps;
    const std::size_t b = a + fsk.sps;
    if (lo + b > capture.size()) break;
    double e0 = 0.0, e1 = 0.0;
    for (std::size_t i = a; i < b; ++i) {
      e0 += y0.re()[i] * y0.re()[i] + y0.im()[i] * y0.im()[i];
      e1 += y1.re()[i] * y1.re()[i] + y1.im()[i] * y1.im()[i];
    }
    result.bits.push_back(e1 > e0 ? 1 : 0);
  }
  result.ber = phy::bit_error_rate(truth, result.bits);
  return result;
}

}  // namespace hs::adversary
