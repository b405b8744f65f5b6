// Phase-continuous complex mixing (frequency shifting) and carrier
// frequency offset (CFO) modelling.
//
// The shield "compensates for any carrier frequency offset between its RF
// chain and that of the IMD" (paper section 6(a)); the Mixer provides that
// machinery, and the MICS channelizer uses it to move 300 kHz channels to
// and from the 3 MHz wideband view.
#pragma once

#include <cstddef>

#include "dsp/types.hpp"

namespace hs::dsp {

/// Streaming frequency shifter: multiplies by exp(j*2*pi*f/fs*n) with phase
/// continuity across blocks.
class Mixer {
 public:
  Mixer(double shift_hz, double fs);

  cplx process(cplx x);
  void process(SampleView in, Samples& out);
  Samples process(SampleView in);

  /// Split-complex block path, appending to `out`. The oscillator phase
  /// recurrence and the multiply expansion match the per-sample path, so
  /// output and phase state are bit-identical to scalar process() calls.
  /// `in` must not view `out` (growing `out` may reallocate its planes).
  void process(SoaView in, SoaSamples& out);

  double shift_hz() const { return shift_hz_; }

  void reset_phase() { phase_ = 0.0; }

 private:
  double shift_hz_;
  double phase_ = 0.0;  // radians
  double phase_step_;   // radians/sample
};

/// Applies a static CFO of `offset_hz` to a copy of the signal.
Samples apply_cfo(SampleView in, double offset_hz, double fs);

}  // namespace hs::dsp
