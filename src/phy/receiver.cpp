#include "phy/receiver.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "dsp/kernels.hpp"
#include "dsp/power.hpp"
#include "obs/metrics.hpp"
#include "snapshot/state_io.hpp"

namespace hs::phy {

using dsp::cplx;
using dsp::Samples;

namespace {

/// Bits of the preamble+sync prefix every frame starts with.
BitVec sync_prefix_bits() {
  ByteVec bytes;
  for (std::size_t i = 0; i < kPreambleBytes; ++i) {
    bytes.push_back(kPreambleByte);
  }
  bytes.insert(bytes.end(), kSyncWord.begin(), kSyncWord.end());
  return bytes_to_bits(bytes);
}

constexpr std::size_t kHeaderBitsThroughLen =
    (kPreambleBytes + kSyncBytes + kDeviceIdBytes + 3) * 8;

/// Correlation memo entry not computed yet.
constexpr double kNotComputed = std::numeric_limits<double>::quiet_NaN();

}  // namespace

FskReceiver::FskReceiver(const FskParams& params, ReceiverOptions options)
    : params_(params), options_(options), demod_(params) {
  build_sync_reference();
  restart_stream();
}

void FskReceiver::reset(const FskParams& params, ReceiverOptions options) {
  options_ = options;
  if (params != params_) {
    params_ = params;
    demod_ = NoncoherentFskDemod(params);
    build_sync_reference();
  }
  restart_stream();
}

void FskReceiver::build_sync_reference() {
  FskModulator mod(params_);
  sync_waveform_ = mod.modulate(sync_prefix_bits());
  sync_soa_.assign(sync_waveform_);
  ref_energy_ = 0.0;
  for (const cplx& r : sync_waveform_) ref_energy_ += std::norm(r);
}

void FskReceiver::restart_stream() {
  // clear() keeps each buffer's capacity for the next stream.
  noise_floor_ = 0.0;
  floor_ready_ = false;
  buffer_.clear();
  buffer_base_ = 0;
  corr_cache_.clear();
  total_consumed_ = 0;
  scan_pos_ = 0;
  locked_ = false;
  lock_start_ = 0;
  partial_bits_.clear();
  next_symbol_ = 0;
  output_.clear();
}

void FskReceiver::push(dsp::SampleView samples) {
  obs::ScopedTimer obs_timer(obs::Phase::kReceiverDemod);
  // While scanning unlocked, everything before the sweep's look-back
  // window (scan_pos_ - sps) is dead; trim it periodically so long idle
  // or noise-only stretches do not grow the buffer without bound. Purely
  // an eviction — every index the scan logic can touch is preserved, so
  // results are bit-identical.
  if (!locked_ && scan_pos_ > kCompactScanSamples + params_.sps) {
    compact_buffer(scan_pos_ - params_.sps);
  }
  buffer_.append(samples);
  total_consumed_ += samples.size();
  scan_after_append();
}

void FskReceiver::push(dsp::SoaView samples) {
  obs::ScopedTimer obs_timer(obs::Phase::kReceiverDemod);
  if (!locked_ && scan_pos_ > kCompactScanSamples + params_.sps) {
    compact_buffer(scan_pos_ - params_.sps);
  }
  buffer_.append(samples);
  total_consumed_ += samples.size();
  scan_after_append();
}

void FskReceiver::scan_after_append() {
  // Alternate detection and demodulation until no further progress: a
  // single push may contain the tail of one frame and the start of another.
  for (;;) {
    const bool was_locked = locked_;
    const std::size_t before_outputs = output_.size();
    const std::size_t before_scan = scan_pos_;
    const std::size_t before_bits = partial_bits_.size();
    if (locked_) {
      demodulate_available();
    } else {
      try_detect();
    }
    const bool progressed = locked_ != was_locked ||
                            output_.size() != before_outputs ||
                            scan_pos_ != before_scan ||
                            partial_bits_.size() != before_bits;
    if (!progressed) break;
  }
}

std::optional<ReceivedFrame> FskReceiver::pop() {
  if (output_.empty()) return std::nullopt;
  ReceivedFrame f = std::move(output_.front());
  output_.pop_front();  // O(1): output_ is a deque precisely for this
  return f;
}

double FskReceiver::correlation_at(std::size_t lag) {
  if (lag >= corr_cache_.size()) {
    corr_cache_.resize(buffer_.size(), kNotComputed);
  }
  double& memo = corr_cache_[lag];
  if (!std::isnan(memo)) return memo;
  // Segmented (noncoherent) correlation: the reference is split into 6
  // segments whose partial correlations are combined by magnitude. A
  // residual carrier-frequency offset rotates the phase across the
  // reference; fully coherent correlation would collapse beyond ~130 Hz,
  // while magnitude-combining 6 segments rides out crystal-grade offsets
  // (several hundred Hz) at a negligible noise penalty.
  //
  // This is the receiver's hot loop (every power step on the medium pays a
  // full sweep of these); the segment/lane arithmetic lives in
  // dsp::kernels so it can dispatch to real vector instructions while the
  // scalar reference stays pinned bit-for-bit.
  memo = dsp::kernels::segmented_sync_correlation(
      buffer_.re() + lag, buffer_.im() + lag, sync_soa_.re(), sync_soa_.im(),
      sync_waveform_.size(), ref_energy_);
  return memo;
}

void FskReceiver::try_detect() {
  const std::size_t ref = sync_waveform_.size();
  const std::size_t sps = params_.sps;
  // Stride over the buffer one symbol at a time. A cheap adaptive power
  // gate decides whether to pay for correlation: the medium is idle (or at
  // a steady level this receiver has adapted to) most of the time, and a
  // frame announces itself with a power step.
  while (scan_pos_ + sps <= buffer_.size()) {
    // Require enough lookahead for a full correlation sweep (including the
    // alias-escape extension below) before evaluating this window at all,
    // so each window is judged exactly once (re-evaluating would
    // double-count it in the noise-floor EWMA).
    if (scan_pos_ + 8 * sps + ref > buffer_.size()) return;
    const double* bre = buffer_.re() + scan_pos_;
    const double* bim = buffer_.im() + scan_pos_;
    double win_power = 0.0;
    for (std::size_t i = 0; i < sps; ++i) {
      win_power += bre[i] * bre[i] + bim[i] * bim[i];
    }
    win_power /= static_cast<double>(sps);

    const bool candidate =
        floor_ready_ && win_power > options_.gate_factor * noise_floor_ &&
        win_power > options_.min_gate_power;

    if (!floor_ready_) {
      noise_floor_ = win_power;
      floor_ready_ = true;
    } else if (win_power < noise_floor_) {
      // Quiet windows pull the floor down immediately (minimum tracking),
      // so one loud power-on window cannot deafen the gate for long.
      noise_floor_ = win_power;
    } else {
      // Slow EWMA upward; adapts under sustained occupancy (e.g., a
      // jamming residual) so the gate re-arms for the *next* power step.
      noise_floor_ = 0.95 * noise_floor_ + 0.05 * win_power;
    }

    if (!candidate) {
      scan_pos_ += sps;
      continue;
    }
    // The rise happened within the last two symbols; sweep those lags.
    const std::size_t sweep_lo = scan_pos_ >= sps ? scan_pos_ - sps : 0;
    const std::size_t sweep_hi = scan_pos_ + sps;

    std::size_t best = sweep_lo;
    double best_corr = -1.0;
    for (std::size_t lag = sweep_lo; lag <= sweep_hi; ++lag) {
      const double c = correlation_at(lag);
      if (c > best_corr) {
        best_corr = c;
        best = lag;
      }
    }
    if (best_corr < options_.detect_threshold) {
      scan_pos_ += sps;  // false alarm; floor keeps adapting
      continue;
    }
    // Escape preamble-periodicity aliases. The phase-continuous
    // alternating preamble is exactly periodic in 2 symbols, so a copy of
    // the reference shifted 2k symbols EARLY still correlates strongly
    // (~0.83 observed). If such an alias crossed the threshold while the
    // true start lies just beyond the sweep, climbing right finds the
    // genuine (higher) peak.
    for (std::size_t lag = best + 1;
         lag <= best + 6 * sps && lag + ref <= buffer_.size(); ++lag) {
      const double c = correlation_at(lag);
      if (c > best_corr) {
        best_corr = c;
        best = lag;
      }
    }
    locked_ = true;
    lock_start_ = buffer_base_ + best;
    partial_bits_.clear();
    next_symbol_ = 0;
    scan_pos_ = best;
    demodulate_available();
    return;
  }
}

void FskReceiver::demodulate_available() {
  const std::size_t sps = params_.sps;
  const std::size_t lock_rel = lock_start_ - buffer_base_;
  for (;;) {
    const std::size_t sym_start = lock_rel + next_symbol_ * sps;
    if (sym_start + sps > buffer_.size()) return;  // wait for more samples

    partial_bits_.push_back(demod_.demod_symbol(buffer_, sym_start));
    ++next_symbol_;

    if (partial_bits_.size() == kHeaderBitsThroughLen) {
      // Sanity-check sync before committing to a full frame length.
      static const BitVec prefix = sync_prefix_bits();
      const std::size_t errors =
          hamming_distance_at(partial_bits_, 0, BitView(prefix));
      if (errors > options_.sync_tolerance + 8) {
        drop_lock(2 * sps);
        return;
      }
    }
    if (partial_bits_.size() >= kHeaderBitsThroughLen) {
      const auto len = static_cast<std::size_t>(
          read_uint(partial_bits_, kHeaderBitsThroughLen - 8, 8));
      if (len > kMaxPayloadBytes) {
        // Bogus length: report what we have as a failed decode.
        finish_frame(decode_frame(partial_bits_, options_.sync_tolerance));
        return;
      }
      const std::size_t total_bits = frame_total_bits(len);
      if (partial_bits_.size() >= total_bits) {
        finish_frame(decode_frame(partial_bits_, options_.sync_tolerance));
        return;
      }
    }
    if (partial_bits_.size() > options_.max_frame_bits) {
      drop_lock(2 * sps);
      return;
    }
  }
}

void FskReceiver::finish_frame(const DecodeResult& decode) {
  ReceivedFrame out;
  out.decode = decode;
  out.start_sample = lock_start_;
  out.raw_bits = partial_bits_;
  const std::size_t lock_rel = lock_start_ - buffer_base_;
  const std::size_t frame_samples = partial_bits_.size() * params_.sps;
  out.rssi = dsp::mean_power(buffer_.view().subview(
      lock_rel, std::min(frame_samples, buffer_.size() - lock_rel)));
  output_.push_back(std::move(out));

  // Resume scanning after the decoded region.
  const std::size_t resume = lock_rel + frame_samples;
  locked_ = false;
  partial_bits_.clear();
  next_symbol_ = 0;
  scan_pos_ = resume;
  compact_buffer(resume);
}

void FskReceiver::drop_lock(std::size_t resume_offset) {
  const std::size_t lock_rel = lock_start_ - buffer_base_;
  locked_ = false;
  partial_bits_.clear();
  next_symbol_ = 0;
  scan_pos_ = lock_rel + resume_offset;
  compact_buffer(scan_pos_);
}

void FskReceiver::compact_buffer(std::size_t keep_from) {
  if (keep_from == 0) return;
  const std::size_t drop = std::min(keep_from, buffer_.size());
  buffer_.erase_front(drop);
  corr_cache_.erase(
      corr_cache_.begin(),
      corr_cache_.begin() +
          static_cast<long>(std::min(drop, corr_cache_.size())));
  buffer_base_ += drop;
  scan_pos_ = (scan_pos_ >= drop) ? scan_pos_ - drop : 0;
}

void save_received_frame(snapshot::StateWriter& w, const ReceivedFrame& f) {
  w.begin("frame");
  w.u64("status", static_cast<std::uint64_t>(f.decode.status));
  w.bytes("device_id", f.decode.frame.device_id.data(),
          f.decode.frame.device_id.size());
  w.u64("type", f.decode.frame.type);
  w.u64("seq", f.decode.frame.seq);
  w.bytes("payload", f.decode.frame.payload);
  w.u64("consumed_bits", f.decode.consumed_bits);
  w.u64("sync_errors", f.decode.sync_errors);
  w.u64("start_sample", f.start_sample);
  w.f64("rssi", f.rssi);
  w.bytes("raw_bits", f.raw_bits);
  w.end("frame");
}

void FskReceiver::save_state(snapshot::StateWriter& w) const {
  w.begin("fsk-receiver");
  // Modem geometry: the PHY this receiver was built for.
  w.f64("fs", params_.fs);
  w.u64("sps", params_.sps);
  w.f64("noise_floor", noise_floor_);
  w.boolean("floor_ready", floor_ready_);
  w.soa("buffer", buffer_.view());
  w.u64("buffer_base", buffer_base_);
  w.u64("total_consumed", total_consumed_);
  w.u64("scan_pos", scan_pos_);
  w.boolean("locked", locked_);
  w.u64("lock_start", lock_start_);
  w.bytes("partial_bits", partial_bits_);
  w.u64("next_symbol", next_symbol_);
  w.u64("output", output_.size());
  for (const ReceivedFrame& f : output_) save_received_frame(w, f);
  w.end("fsk-receiver");
}

}  // namespace hs::phy
