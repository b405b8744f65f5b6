// Multipath-capable antidote (paper footnote 2 of section 5):
//
//   "More generally, one could compute the multi-path channel and apply an
//    equalizer on the time-domain antidote signal that inverts the
//    multi-path of the jamming signal."
//
// The flat AntidoteController assumes H_jam->rec is a single complex gain.
// When the coupling between the shield's antennas is frequency-selective
// (multi-tap), a scalar antidote leaves a large residual. This module
// estimates the two channels as FIR filters from the probe exchange and
// designs a time-domain FIR antidote equalizer X(f) = -Hjr(f)/Hself(f),
// realized by frequency sampling and applied to the jamming stream.
#pragma once

#include <cstddef>
#include <optional>
#include <vector>

#include "dsp/fir.hpp"
#include "dsp/types.hpp"

namespace hs::snapshot {
class StateWriter;
}  // namespace hs::snapshot

namespace hs::shield {

/// Least-squares FIR channel estimate: finds taps h[0..taps) minimizing
/// ||y - h * x||^2 for a known probe x (block-Toeplitz normal equations,
/// solved by Gaussian elimination; `taps` is small).
dsp::Samples estimate_fir_channel(dsp::SampleView received,
                                  dsp::SampleView probe, std::size_t taps);

class MultitapAntidote {
 public:
  /// `fir_taps`: length of the estimated channel models;
  /// `equalizer_taps`: length of the designed antidote filter (power of
  /// two for the frequency-sampling design; longer = deeper cancellation).
  MultitapAntidote(std::size_t fir_taps = 4, std::size_t equalizer_taps = 64);

  /// Feeds the probe observations (same probes the flat controller uses).
  void update_jam_channel(dsp::SampleView received, dsp::SampleView probe);
  void update_self_channel(dsp::SampleView received, dsp::SampleView probe);

  bool ready() const { return have_jam_ && have_self_; }

  /// Produces the antidote stream for the given jamming samples
  /// (streaming; phase-continuous across calls).
  dsp::Samples antidote_for(dsp::SampleView jamming);

  /// Writes both estimated channel FIRs, the designed equalizer taps and
  /// the streaming filter's history into a warm-state snapshot.
  void save_state(snapshot::StateWriter& w) const;

 private:
  void design_equalizer();

  std::size_t fir_taps_;
  std::size_t eq_taps_;
  dsp::Samples h_jam_;
  dsp::Samples h_self_;
  bool have_jam_ = false;
  bool have_self_ = false;
  dsp::Samples eq_;  ///< antidote FIR taps
  /// Streaming application of eq_ (present once designed); owns the
  /// phase-continuity state the old hand-rolled circular buffer held.
  std::optional<dsp::ComplexFirFilter> filter_;
};

}  // namespace hs::shield
