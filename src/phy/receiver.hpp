// Streaming FSK frame receiver.
//
// All listening nodes (the IMD, the shield's monitor, eavesdroppers, the
// USRP "observer" of section 10.3) are built on this: it watches the sample
// stream for the modulated preamble+sync, locks symbol timing on the
// correlation peak, then demodulates bits until a frame completes or sync
// is abandoned.
//
// It is deliberately incremental — push() may be called with arbitrarily
// small blocks and behaves identically to one-shot processing — because the
// shield must make jam/no-jam decisions *mid-packet* (paper section 7).
#pragma once

#include <cstddef>
#include <deque>
#include <functional>
#include <optional>
#include <vector>

#include "dsp/kernels.hpp"
#include "dsp/types.hpp"
#include "phy/frame.hpp"
#include "phy/fsk.hpp"

namespace hs::snapshot {
class StateWriter;
}  // namespace hs::snapshot

namespace hs::phy {

struct ReceivedFrame {
  DecodeResult decode;
  std::size_t start_sample = 0;  ///< absolute index of first preamble sample
  double rssi = 0.0;             ///< mean power over the frame's samples
  BitVec raw_bits;               ///< everything demodulated for this frame
};

/// Writes a completed frame (decode result, frame contents, timing, RSSI,
/// raw bits) into a warm-state snapshot — used by the receiver's output
/// queue and by nodes that retain frames across blocks.
void save_received_frame(snapshot::StateWriter& w, const ReceivedFrame& f);

struct ReceiverOptions {
  /// Normalized correlation threshold for declaring preamble detection.
  /// Must exceed ~0.75: the alternating preamble correlates at ~0.72 with
  /// a copy of itself shifted by two symbols, and accepting such an alias
  /// mis-locks the receiver (a frame at usable SNR correlates >= 0.9).
  double detect_threshold = 0.82;
  /// Preamble+sync bit errors tolerated by the frame decoder.
  std::size_t sync_tolerance = 4;
  /// Give up on a locked frame if this many bits arrive without completing
  /// a decodable frame (bounds buffering; > max frame bits).
  std::size_t max_frame_bits = 1024;
  /// A window must exceed the adaptive noise floor by this power factor to
  /// trigger a correlation sweep (cheap CCA-style gate).
  double gate_factor = 4.0;
  /// Absolute minimum window power to consider (0 disables).
  double min_gate_power = 0.0;
};

class FskReceiver {
 public:
  FskReceiver(const FskParams& params, ReceiverOptions options = {});

  /// Feeds samples; any frames completed within them are appended to the
  /// internal output queue.
  void push(dsp::SampleView samples);

  /// Split-complex overload: appends the planes directly to the internal
  /// SoA scan buffer (no interleaving). Behaviour and every decision are
  /// bit-identical to the AoS overload; Medium::rx_soa() consumers use
  /// this to keep the whole rx path in SoA layout.
  void push(dsp::SoaView samples);

  /// Pops the next completed frame, if any.
  std::optional<ReceivedFrame> pop();

  /// True while the receiver is locked onto a partially received frame.
  bool locked() const { return locked_; }

  /// Bits demodulated so far for the currently locked frame (empty when
  /// unlocked). The shield's S_id matcher consumes these as they appear.
  const BitVec& partial_bits() const { return partial_bits_; }

  /// Absolute sample index of the current lock's first preamble sample.
  std::size_t lock_start_sample() const { return lock_start_; }

  /// Total samples consumed so far.
  std::size_t sample_position() const { return total_consumed_; }

  /// Returns the receiver to the state a fresh `FskReceiver(params,
  /// options)` would have: nothing buffered, no lock, no queued frames,
  /// sample position 0. When the FSK geometry is unchanged it keeps the
  /// sync reference, the demod tone tables and the buffers' capacity;
  /// otherwise it rebuilds them. Pooled nodes call this per trial.
  void reset(const FskParams& params, ReceiverOptions options = {});

  /// Writes the full streaming state into a warm-state snapshot: scan
  /// buffer planes, lock/partial-frame state, adaptive noise floor and
  /// the output queue. The correlation memo and the power plane are not
  /// written: both are pure functions of the sample stream.
  void save_state(snapshot::StateWriter& w) const;

  const FskParams& params() const { return params_; }

 private:
  /// Compact the scan buffer once the cursor is this far in. In a
  /// noise-only stretch this bounds the buffer, memo and power plane to
  /// ~1,760 samples each (this, a sweep's look-ahead and one block), ~55 KiB
  /// together.
  static constexpr std::size_t kCompactScanSamples = 1024;

  void build_sync_reference();
  void restart_stream();
  void try_detect();
  void demodulate_available();
  void finish_frame(const DecodeResult& decode);
  void drop_lock(std::size_t resume_offset);
  void compact_buffer(std::size_t keep_from);
  void scan_after_append();
  double correlation_at(std::size_t lag);

  // Configuration: the modem geometry and what is derived from it.
  FskParams params_;
  ReceiverOptions options_;
  NoncoherentFskDemod demod_;
  dsp::Samples sync_waveform_;  ///< modulated preamble+sync reference
  dsp::SoaSamples sync_soa_;    ///< split copy of the reference
  double ref_energy_ = 0.0;
  /// The reference's energy after each segment, for the early exit.
  dsp::kernels::SyncTailEnergy ref_tail_energy_{};

  // Streaming state. restart_stream() sets every member below; the
  // constructor and reset() both call it, so neither can miss one.
  double noise_floor_ = 0.0;  ///< adaptive per-sample power floor
  bool floor_ready_ = false;
  dsp::SoaSamples buffer_;       ///< samples not yet fully consumed (SoA)
  std::size_t buffer_base_ = 0;  ///< absolute index of buffer_[0]
  /// Memo of correlation_at results, parallel to buffer_: entry i is the
  /// value at buffer lag i, NaN until computed. That value is the exact
  /// correlation when it reaches options_.detect_threshold and otherwise
  /// may be an upper bound below it (dsp::kernels::sync_correlation_below);
  /// either way it is a pure function of the append-only sample stream
  /// and the threshold. Consecutive detection sweeps overlap roughly half
  /// their lags during noise-floor adaptation runs, so reusing the values
  /// halves the receiver's dominant cost without changing a single
  /// decision. A sweep grows it to the buffer's length (lags past its end
  /// are not computed yet), and compaction drops its front with buffer_'s.
  /// A window of NaN samples correlates to NaN and is simply recomputed,
  /// to the same bits.
  std::vector<double> corr_cache_;
  /// Power plane, parallel to buffer_: entry i is re*re + im*im of buffer
  /// sample i, the energy term the sync correlation sums. It is filled
  /// lazily, only up to the last sample the furthest lag read so far
  /// covers; nothing extends it while locked, and compaction drops its
  /// front with buffer_'s.
  std::vector<double> power_;
  std::size_t total_consumed_ = 0;
  std::size_t scan_pos_ = 0;  ///< buffer-relative scan cursor when unlocked

  bool locked_ = false;
  std::size_t lock_start_ = 0;  ///< absolute sample of preamble start
  BitVec partial_bits_;
  std::size_t next_symbol_ = 0;  ///< symbols demodulated so far in lock

  // Deque: pop() trims the front per received frame while run() appends;
  // vector::erase(begin()) made that O(frames in flight).
  std::deque<ReceivedFrame> output_;
};

}  // namespace hs::phy
