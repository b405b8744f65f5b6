// Power measurement: block averages and streaming RSSI with a sliding
// window. The shield's clear-channel assessment, P_thresh alarm and
// calibration routines are all built on these meters.
#pragma once

#include <cstddef>
#include <vector>

#include "dsp/types.hpp"

namespace hs::dsp {

/// Mean per-sample power of a block (|x|^2 averaged).
double mean_power(SampleView x);

/// Split-complex overload; bit-identical to the AoS result.
double mean_power(SoaView x);

/// Streaming sliding-window RSSI meter.
class RssiMeter {
 public:
  /// `window` is the averaging length in samples.
  explicit RssiMeter(std::size_t window);

  /// Consumes one sample, returns current windowed mean power.
  double push(cplx x);

  /// Consumes a block, returns the final windowed mean power.
  double push(SampleView x);

  /// Split-complex overload; bit-identical to the AoS push.
  double push(SoaView x);

  /// Current windowed mean power (0 before any sample).
  double value() const;

  /// True once a full window has been observed.
  bool warmed_up() const { return count_ >= window_; }

  void reset();

 private:
  std::size_t window_;
  std::vector<double> ring_;  // the last min(count_, window_) powers
  std::size_t pos_ = 0;       // next write slot; the oldest once full
  double sum_ = 0.0;
  std::size_t count_ = 0;
};

}  // namespace hs::dsp
