// The 402-405 MHz Medical Implant Communication Services (MICS) band plan:
// ten 300 kHz channels, FCC listen-before-talk rules, and the band's
// sharing arrangement with meteorological aids (paper section 2).
#pragma once

#include <cstddef>

namespace hs::mics {

inline constexpr double kBandStartHz = 402.0e6;
inline constexpr double kBandStopHz = 405.0e6;
inline constexpr double kBandwidthHz = kBandStopHz - kBandStartHz;  // 3 MHz
inline constexpr double kChannelWidthHz = 300.0e3;
inline constexpr std::size_t kChannelCount = 10;

/// FCC-mandated clear-channel monitoring period before claiming a channel.
inline constexpr double kListenBeforeTalkS = 10.0e-3;

/// Center frequency (absolute Hz) of channel `index` in [0, 10).
double channel_center_hz(std::size_t index);

/// Offset of a channel's center from the band center, in Hz (what a 3 MHz
/// wideband front end centered on the band sees at complex baseband).
double channel_baseband_offset_hz(std::size_t index);

}  // namespace hs::mics
