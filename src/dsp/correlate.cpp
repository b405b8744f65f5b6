#include "dsp/correlate.hpp"

#include <algorithm>

namespace hs::dsp {

cplx estimate_flat_channel(SampleView received, SampleView reference) {
  cplx num{};
  double denom = 0.0;
  const std::size_t n = std::min(received.size(), reference.size());
  for (std::size_t i = 0; i < n; ++i) {
    num += received[i] * std::conj(reference[i]);
    denom += std::norm(reference[i]);
  }
  if (denom <= 0.0) return {};
  return num / denom;
}

}  // namespace hs::dsp
