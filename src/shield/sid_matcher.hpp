// Identifying-sequence matcher (paper section 7).
//
// S_id is the m-bit sequence that identifies packets destined for the
// protected IMD: the physical-layer preamble, sync word, and the device's
// 10-byte serial number (section 7(a)). For each newly decoded bit the
// shield checks the last m bits against S_id; if they differ by fewer than
// b_thresh bits, the packet is for the IMD and must be jammed.
#pragma once

#include <cstddef>
#include <cstdint>

#include "phy/bits.hpp"

namespace hs::snapshot {
class StateWriter;
}  // namespace hs::snapshot

namespace hs::shield {

class SidMatcher {
 public:
  /// `sid` is the identifying bit sequence; `bthresh` the tolerated bit
  /// difference (the paper calibrates b_thresh = 4 in section 10.1(c)).
  /// The last `exact_suffix_bits` bits must match exactly regardless of
  /// b_thresh — used for the direction bit that separates commands to the
  /// IMD from the IMD's own replies.
  SidMatcher(phy::BitVec sid, std::size_t bthresh,
             std::size_t exact_suffix_bits = 0);

  /// Feeds one newly decoded bit. Returns true when the last m bits match
  /// S_id within b_thresh (a match "fires" once; reset() re-arms it).
  bool push(std::uint8_t bit);

  /// Feeds a run of bits; true if any prefix fired.
  bool push(phy::BitView bits);

  /// Scans a whole bit vector for any matching window (stateless helper).
  bool matches_anywhere(phy::BitView bits) const;

  /// Hamming distance of the best window in `bits` (SIZE_MAX if shorter
  /// than m).
  std::size_t best_distance(phy::BitView bits) const;

  bool fired() const { return fired_; }
  void reset();

  std::size_t sid_bits() const { return sid_.size(); }
  std::size_t bthresh() const { return bthresh_; }

  /// Writes the matcher's ring window into a warm-state snapshot; S_id
  /// itself is configuration.
  void save_state(snapshot::StateWriter& w) const;

 private:
  phy::BitVec sid_;
  std::size_t bthresh_;
  std::size_t exact_suffix_bits_;
  phy::BitVec window_;   // ring buffer of the last m bits
  std::size_t head_ = 0;
  std::size_t seen_ = 0;
  bool fired_ = false;
};

}  // namespace hs::shield
