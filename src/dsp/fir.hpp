// Windowed-sinc FIR design and streaming FIR filtering.
//
// Used by the MICS channelizer (per-channel selection filters), by the
// eavesdropper's band-pass-filtering attack on an obliviously jamming shield
// (paper section 6(a)), and by the GMSK pulse shaper.
#pragma once

#include <cstddef>
#include <vector>

#include "dsp/types.hpp"

namespace hs::snapshot {
class StateWriter;
class StateReader;
}  // namespace hs::snapshot

namespace hs::dsp {

/// Designs a linear-phase lowpass FIR with the given normalized cutoff
/// (cutoff_hz / fs in (0, 0.5)) and odd tap count, Hamming-windowed sinc.
std::vector<double> design_lowpass(double normalized_cutoff, std::size_t taps);

/// Designs a complex band-pass FIR centered at `center_hz` with one-sided
/// width `half_width_hz`, both relative to sample rate `fs`.
Samples design_bandpass(double center_hz, double half_width_hz, double fs,
                        std::size_t taps);

/// Gaussian pulse-shaping filter for GMSK with bandwidth-time product `bt`,
/// spanning `span_symbols` symbols at `sps` samples/symbol. Normalized to
/// unit DC gain.
std::vector<double> design_gaussian(double bt, std::size_t sps,
                                    std::size_t span_symbols);

/// Streaming FIR filter with real taps over complex samples. Keeps history
/// between calls so block-wise processing matches one-shot processing.
class FirFilter {
 public:
  explicit FirFilter(std::vector<double> taps);

  /// Filters one sample.
  cplx process(cplx x);

  /// Filters a block, appending to `out`.
  void process(SampleView in, Samples& out);

  /// Filters a whole buffer (stateful; continues from previous calls).
  Samples process(SampleView in);

  /// Split-complex block path, appending to `out`. Real taps over split
  /// planes reduce to two independent real convolutions over contiguous
  /// doubles, which autovectorize; the tap order and accumulation order
  /// match the scalar path, so results (and subsequent streaming state)
  /// are bit-identical to per-sample process() calls. `in` must not view
  /// `out` (growing `out` may reallocate its planes).
  void process(SoaView in, SoaSamples& out);

  /// Clears filter history.
  void reset();

  /// Warm-state snapshot round trip of the streaming state (history ring
  /// + cursor). The load target must have been built with the same tap
  /// count; taps themselves are configuration, not state.
  void save_state(snapshot::StateWriter& w) const;
  void load_state(snapshot::StateReader& r);

  /// Group delay in samples for the linear-phase designs above.
  double group_delay() const {
    return (static_cast<double>(taps_.size()) - 1.0) / 2.0;
  }

 private:
  std::vector<double> taps_;
  Samples history_;  // circular
  std::size_t pos_ = 0;
  std::vector<double> ext_re_, ext_im_;  // block-path scratch
};

/// Streaming FIR with complex taps (for band-pass filters).
class ComplexFirFilter {
 public:
  explicit ComplexFirFilter(Samples taps);

  cplx process(cplx x);
  void process(SampleView in, Samples& out);
  Samples process(SampleView in);

  /// Split-complex block path; bit-identical to per-sample process().
  /// `in` must not view `out` (growing `out` may reallocate its planes).
  void process(SoaView in, SoaSamples& out);

  /// Warm-state snapshot round trip (see FirFilter::save_state).
  void save_state(snapshot::StateWriter& w) const;
  void load_state(snapshot::StateReader& r);

 private:
  Samples taps_;
  Samples history_;
  std::size_t pos_ = 0;
  std::vector<double> tap_re_, tap_im_;  // split copy of taps_
  std::vector<double> ext_re_, ext_im_;  // block-path scratch
};

/// Evaluates the frequency response of a real-tap FIR at `freq_hz` given
/// sample rate `fs` (power gain, linear).
double fir_power_response(const std::vector<double>& taps, double freq_hz,
                          double fs);

}  // namespace hs::dsp
