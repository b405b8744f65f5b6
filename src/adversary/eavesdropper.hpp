// Offline eavesdropper analysis: the strongest-case passive adversary of
// section 10.2. Given a raw capture, ground-truth packet timing and the
// transmitted bits, it decodes with the optimal noncoherent FSK receiver
// [38] and reports its bit error rate. Granting the adversary genie timing
// and the true bits for comparison only *over*-estimates its ability, so a
// measured BER near 50% is a conservative confidentiality result.
//
// decode_with_bandpass_attack() models the countermeasure of section 6(a):
// an adversary that band-pass filters around the two FSK tones to shed
// jamming energy. It defeats an oblivious constant-profile jammer but not
// the shield's shaped jammer (the ablate-shaping-* presets).
#pragma once

#include <cstddef>

#include "dsp/types.hpp"
#include "phy/bits.hpp"
#include "phy/fsk.hpp"

namespace hs::adversary {

struct EavesdropResult {
  phy::BitVec bits;
  double ber = 0.5;  ///< against the supplied ground truth
};

/// Optimal noncoherent FSK decoding at a known start offset.
EavesdropResult eavesdrop_decode(const phy::FskParams& fsk,
                                 dsp::SampleView capture, std::size_t start,
                                 phy::BitView truth);

/// Same, but the adversary first applies two narrow band-pass filters
/// centered on the FSK tones (half-width `half_bw_hz`) and decodes from
/// the filtered streams.
EavesdropResult eavesdrop_decode_bandpass(const phy::FskParams& fsk,
                                          dsp::SampleView capture,
                                          std::size_t start,
                                          phy::BitView truth,
                                          double half_bw_hz = 30e3);

}  // namespace hs::adversary
