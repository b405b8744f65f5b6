// Flat-channel estimation by correlation, used for channel probing: the
// shield correlates its known probe against the receive-antenna signal to
// estimate H_self and H_jam->rec.
#pragma once

#include "dsp/types.hpp"

namespace hs::dsp {

/// Least-squares estimate of a flat channel h given y ~= h * x:
/// h = <y, x> / <x, x>. Returns 0 when x has no energy.
cplx estimate_flat_channel(SampleView received, SampleView reference);

}  // namespace hs::dsp
