#include "dsp/power.hpp"

#include <algorithm>
#include <stdexcept>

namespace hs::dsp {

double mean_power(SampleView x) {
  if (x.empty()) return 0.0;
  double s = 0.0;
  for (cplx v : x) s += std::norm(v);
  return s / static_cast<double>(x.size());
}

double mean_power(SoaView x) {
  if (x.empty()) return 0.0;
  double s = 0.0;
  for (std::size_t i = 0; i < x.n; ++i) {
    s += x.re[i] * x.re[i] + x.im[i] * x.im[i];
  }
  return s / static_cast<double>(x.n);
}

RssiMeter::RssiMeter(std::size_t window) : window_(window) {
  if (window_ == 0) throw std::invalid_argument("RssiMeter: window == 0");
  ring_.resize(window_);
}

double RssiMeter::push(cplx x) {
  const double p = std::norm(x);
  sum_ += p;
  // Once the window is full, ring_[pos_] holds the oldest sample.
  if (count_ >= window_) sum_ -= ring_[pos_];
  ring_[pos_] = p;
  if (++pos_ == window_) pos_ = 0;
  ++count_;
  return value();
}

double RssiMeter::push(SampleView x) {
  double v = value();
  for (cplx s : x) v = push(s);
  return v;
}

double RssiMeter::push(SoaView x) {
  double v = value();
  for (std::size_t i = 0; i < x.n; ++i) v = push(cplx{x.re[i], x.im[i]});
  return v;
}

double RssiMeter::value() const {
  if (count_ == 0) return 0.0;
  return sum_ / static_cast<double>(std::min(count_, window_));
}

void RssiMeter::reset() {
  sum_ = 0.0;
  count_ = 0;
  pos_ = 0;
}

}  // namespace hs::dsp
