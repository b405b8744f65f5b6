// Helper used by every transmitting node: queue waveforms to start at
// absolute sample indices, then emit the right slice each block.
#pragma once

#include <cstddef>
#include <vector>

#include "dsp/types.hpp"

namespace hs::snapshot {
class StateWriter;
class StateReader;
}  // namespace hs::snapshot

namespace hs::sim {

class TransmitScheduler {
 public:
  /// Schedules `waveform` to start at absolute sample `start`.
  /// Overlapping waveforms superpose.
  void schedule(std::size_t start, dsp::Samples waveform);

  /// When a scheduled waveform overlaps the block, sets `out` to the
  /// block's `block_size` samples and returns true. Otherwise returns
  /// false and leaves `out` untouched (an idle node allocates nothing),
  /// so callers read `out` only when this returns true.
  bool fill(std::size_t block_start, std::size_t block_size,
            dsp::Samples& out);

  /// True if any scheduled waveform overlaps [at, at+1).
  bool busy_at(std::size_t sample) const;

  /// Absolute sample index after the last scheduled sample (0 if idle).
  std::size_t busy_until() const;

  /// Drops all scheduled waveforms (used when a node switches to jamming
  /// mid-transmission).
  void cancel_all();

  bool empty() const { return entries_.empty(); }

  /// Warm-state snapshot round trip of every scheduled waveform — the
  /// "timing state" a restored node resumes from (e.g. an IMD reply
  /// scheduled during warm-up must still go out at its exact sample).
  void save_state(snapshot::StateWriter& w) const;
  void load_state(snapshot::StateReader& r);

 private:
  struct Entry {
    std::size_t start;
    dsp::Samples waveform;
  };
  std::vector<Entry> entries_;
};

}  // namespace hs::sim
