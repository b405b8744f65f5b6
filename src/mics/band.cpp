#include "mics/band.hpp"

#include <stdexcept>

namespace hs::mics {

double channel_center_hz(std::size_t index) {
  if (index >= kChannelCount) {
    throw std::out_of_range("channel_center_hz: index out of range");
  }
  return kBandStartHz + (static_cast<double>(index) + 0.5) * kChannelWidthHz;
}

double channel_baseband_offset_hz(std::size_t index) {
  const double band_center = (kBandStartHz + kBandStopHz) / 2.0;
  return channel_center_hz(index) - band_center;
}

}  // namespace hs::mics
