#include "shield/sid_matcher.hpp"

#include <limits>
#include <stdexcept>

#include "snapshot/state_io.hpp"

namespace hs::shield {

SidMatcher::SidMatcher(phy::BitVec sid, std::size_t bthresh,
                       std::size_t exact_suffix_bits)
    : sid_(std::move(sid)),
      bthresh_(bthresh),
      exact_suffix_bits_(exact_suffix_bits) {
  if (sid_.empty()) throw std::invalid_argument("SidMatcher: empty S_id");
  if (exact_suffix_bits_ > sid_.size()) {
    throw std::invalid_argument("SidMatcher: suffix longer than S_id");
  }
  window_.assign(sid_.size(), 0);
}

bool SidMatcher::push(std::uint8_t bit) {
  window_[head_] = bit & 1;
  head_ = (head_ + 1) % window_.size();
  ++seen_;
  if (fired_ || seen_ < sid_.size()) return false;
  // Compare the ring (oldest bit is at head_) against S_id.
  const std::size_t exact_from = sid_.size() - exact_suffix_bits_;
  std::size_t distance = 0;
  std::size_t idx = head_;
  for (std::size_t i = 0; i < sid_.size(); ++i) {
    const std::size_t diff = (window_[idx] ^ sid_[i]) & 1;
    if (diff != 0 && i >= exact_from) return false;  // suffix must be exact
    distance += diff;
    if (distance > bthresh_) return false;
    idx = (idx + 1) % window_.size();
  }
  fired_ = true;
  return true;
}

bool SidMatcher::push(phy::BitView bits) {
  bool any = false;
  for (std::uint8_t b : bits) any = push(b) || any;
  return any;
}

bool SidMatcher::matches_anywhere(phy::BitView bits) const {
  return best_distance(bits) <= bthresh_;
}

std::size_t SidMatcher::best_distance(phy::BitView bits) const {
  if (bits.size() < sid_.size()) return std::numeric_limits<std::size_t>::max();
  std::size_t best = std::numeric_limits<std::size_t>::max();
  for (std::size_t off = 0; off + sid_.size() <= bits.size(); ++off) {
    std::size_t d = 0;
    for (std::size_t i = 0; i < sid_.size(); ++i) {
      d += (bits[off + i] ^ sid_[i]) & 1;
      if (d >= best) break;
    }
    best = std::min(best, d);
    if (best == 0) break;
  }
  return best;
}

void SidMatcher::reset() {
  fired_ = false;
  seen_ = 0;
  head_ = 0;
}

void SidMatcher::save_state(snapshot::StateWriter& w) const {
  w.begin("sid");
  w.u64("sid_bits", sid_.size());
  w.bytes("window", window_);
  w.u64("head", head_);
  w.u64("seen", seen_);
  w.boolean("fired", fired_);
  w.end("sid");
}

}  // namespace hs::shield
