#include "shield/shield.hpp"

#include <algorithm>
#include <cmath>

#include "channel/geometry.hpp"
#include "dsp/correlate.hpp"
#include "dsp/units.hpp"
#include "phy/frame.hpp"
#include "snapshot/state_io.hpp"

namespace hs::shield {

using dsp::cplx;
using dsp::Samples;

namespace {

/// Initial noise-floor estimate (dBm) before minimum tracking adapts it;
/// reset() must seed the same value as the constructor or pooled trials
/// would diverge from fresh construction.
constexpr double kInitialNoiseFloorDbm = -112.0;

/// S_id: preamble + sync + device serial (section 7(a)), plus the
/// direction bit that distinguishes packets *destined to* the IMD
/// (commands, type MSB 0) from the IMD's own replies.
phy::BitVec make_shield_sid(const ShieldConfig& config) {
  phy::BitVec sid = phy::make_sid(config.protected_id);
  sid.push_back(0);
  return sid;
}

}  // namespace

ShieldNode::ShieldNode(const ShieldConfig& config, channel::Medium& medium,
                       sim::EventLog* log, std::uint64_t seed)
    : config_(config),
      log_(log),
      rng_(seed, "shield"),
      jamgen_(config.fsk, config.jam_profile, seed, config.jam_fft_size),
      antidote_(config.hardware_error_sigma, seed),
      sid_(make_shield_sid(config), config.bthresh, /*exact_suffix_bits=*/1),
      monitor_(config.fsk),
      modulator_(config.fsk),
      probe_waveform_(make_probe_waveform(
          std::min(config.probe_length, medium.block_size()), seed)),
      probe_amplitude_(std::sqrt(dsp::dbm_to_mw(config.probe_power_dbm))),
      noise_floor_mw_(dsp::dbm_to_mw(kInitialNoiseFloorDbm)) {
  register_with_medium(medium);
  jamgen_.set_power(dsp::dbm_to_mw(jam_power_dbm()));
}

void ShieldNode::register_with_medium(channel::Medium& medium) {
  channel::AntennaDesc jam_desc;
  jam_desc.name = "shield/jam-antenna";
  jam_desc.position = channel::kShieldPosition;
  jam_ant_ = medium.add_antenna(jam_desc);

  channel::AntennaDesc rx_desc;
  rx_desc.name = "shield/rx-antenna";
  rx_desc.position = channel::kShieldPosition;
  rx_ant_ = medium.add_antenna(rx_desc);

  // Hardware couplings: the self-loop wire between the rx antenna's
  // transmit and receive chains, and the over-the-air coupling between
  // the two adjacent antennas. |H_jam->rec / H_self| ~ -27 dB (section 5).
  const cplx h_self =
      dsp::db_to_amplitude(-config_.self_coupling_db) * rng_.random_phase();
  const cplx h_jam_rec =
      dsp::db_to_amplitude(-config_.jam_rec_coupling_db) * rng_.random_phase();
  medium.set_pair_gain(rx_ant_, rx_ant_, h_self);
  medium.set_pair_gain(jam_ant_, rx_ant_, h_jam_rec);
}

void ShieldNode::reset(const ShieldConfig& config, channel::Medium& medium,
                       sim::EventLog* log, std::uint64_t seed) {
  // Mirror of the constructor, member for member (the campaign trial-pool
  // determinism test asserts the equivalence). Only jamgen_ keeps state:
  // its cached spectral profile, which is seed-independent.
  config_ = config;
  log_ = log;
  rng_ = dsp::Rng(seed, "shield");
  jamgen_.reset(config.fsk, config.jam_profile, seed, config.jam_fft_size);
  antidote_ = AntidoteController(config.hardware_error_sigma, seed);
  sid_ = SidMatcher(make_shield_sid(config), config.bthresh,
                    /*exact_suffix_bits=*/1);
  monitor_.reset(config.fsk);
  modulator_ = phy::FskModulator(config.fsk);
  tx_ = sim::TransmitScheduler();
  probe_waveform_ = make_probe_waveform(
      std::min(config.probe_length, medium.block_size()), seed);
  probe_amplitude_ = std::sqrt(dsp::dbm_to_mw(config.probe_power_dbm));
  noise_floor_mw_ = dsp::dbm_to_mw(kInitialNoiseFloorDbm);

  probe_phase_ = ProbePhase::kNone;
  probe_due_ = true;
  last_probe_s_ = -1.0;
  active_jam_ = false;
  manual_jam_ = false;
  antidote_enabled_ = true;
  jammed_this_block_ = false;
  jam_block_.clear();
  active_jam_started_block_ = 0;
  quiet_blocks_ = 0;
  high_power_suspect_ = false;
  passive_windows_.clear();
  pending_.clear();
  own_tx_ranges_.clear();
  own_tx_block_.clear();
  transmitted_this_block_ = false;
  self_cancel_error_ = cplx{0.0, 0.0};
  last_block_power_ = 0.0;
  imd_rssi_mw_ = 0.0;
  jam_power_override_dbm_.reset();
  sid_checked_bits_ = 0;
  current_lock_start_ = 0;
  current_lock_peak_power_ = 0.0;
  decoded_replies_.clear();
  capture_frames_ = false;
  captured_frames_.clear();
  stats_ = ShieldStats{};

  register_with_medium(medium);
  jamgen_.set_power(dsp::dbm_to_mw(jam_power_dbm()));
}

void ShieldNode::reseed(std::uint64_t trial_seed) {
  rng_ = dsp::Rng(trial_seed, "shield");
  jamgen_.reseed(trial_seed);
  antidote_.reseed(trial_seed);
}

namespace {

void save_frame(snapshot::StateWriter& w, const phy::Frame& f) {
  w.bytes("device_id", f.device_id.data(), f.device_id.size());
  w.u64("type", f.type);
  w.u64("seq", f.seq);
  w.bytes("payload", f.payload);
}

}  // namespace

void ShieldNode::save_state(snapshot::StateWriter& w) const {
  w.begin("shield");
  w.u64("jam_ant", jam_ant_);
  w.u64("rx_ant", rx_ant_);
  snapshot::write_rng(w, "rng", rng_);
  jamgen_.save_state(w);
  antidote_.save_state(w);
  sid_.save_state(w);
  monitor_.save_state(w);
  w.f64("mod_phase", modulator_.phase());
  tx_.save_state(w);

  w.u64("probe_phase", static_cast<std::uint64_t>(probe_phase_));
  w.samples("probe_waveform", probe_waveform_);
  w.f64("probe_amplitude", probe_amplitude_);
  w.boolean("probe_due", probe_due_);
  w.f64("last_probe_s", last_probe_s_);

  w.boolean("active_jam", active_jam_);
  w.boolean("manual_jam", manual_jam_);
  w.boolean("antidote_enabled", antidote_enabled_);
  w.boolean("jammed_this_block", jammed_this_block_);
  w.u64("active_jam_started_block", active_jam_started_block_);
  w.u64("quiet_blocks", quiet_blocks_);
  w.boolean("high_power_suspect", high_power_suspect_);
  w.u64("passive_windows", passive_windows_.size());
  for (const auto& [from, to] : passive_windows_) {
    w.u64("from", from);
    w.u64("to", to);
  }

  w.u64("pending", pending_.size());
  for (const phy::Frame& f : pending_) save_frame(w, f);
  w.u64("own_tx_ranges", own_tx_ranges_.size());
  for (const auto& [from, to] : own_tx_ranges_) {
    w.u64("from", from);
    w.u64("to", to);
  }
  w.boolean("transmitted_this_block", transmitted_this_block_);
  w.cx("self_cancel_error", self_cancel_error_);

  w.f64("noise_floor_mw", noise_floor_mw_);
  w.f64("last_block_power", last_block_power_);
  w.f64("imd_rssi_mw", imd_rssi_mw_);
  w.boolean("have_jam_override", jam_power_override_dbm_.has_value());
  w.f64("jam_override_dbm", jam_power_override_dbm_.value_or(0.0));
  w.u64("sid_checked_bits", sid_checked_bits_);
  w.u64("current_lock_start", current_lock_start_);
  w.f64("current_lock_peak_power", current_lock_peak_power_);

  w.u64("decoded_replies", decoded_replies_.size());
  for (const auto& f : decoded_replies_) phy::save_received_frame(w, f);
  w.boolean("capture_frames", capture_frames_);
  w.u64("captured_frames", captured_frames_.size());
  for (const auto& f : captured_frames_) phy::save_received_frame(w, f);

  w.u64("stats.commands_relayed", stats_.commands_relayed);
  w.u64("stats.replies_decoded", stats_.replies_decoded);
  w.u64("stats.reply_crc_failures", stats_.reply_crc_failures);
  w.u64("stats.passive_jams", stats_.passive_jams);
  w.u64("stats.active_jams", stats_.active_jams);
  w.u64("stats.alarms", stats_.alarms);
  w.u64("stats.aborted_tx", stats_.aborted_tx);
  w.u64("stats.probes", stats_.probes);
  w.u64("stats.cross_traffic_ignored", stats_.cross_traffic_ignored);
  w.end("shield");
}

double ShieldNode::measured_imd_rssi_dbm() const {
  return imd_rssi_mw_ > 0.0 ? dsp::mw_to_dbm(imd_rssi_mw_)
                            : config_.initial_imd_rssi_dbm;
}

double ShieldNode::jam_power_dbm() const {
  if (jam_power_override_dbm_) return *jam_power_override_dbm_;
  return std::min(config_.max_tx_power_dbm,
                  measured_imd_rssi_dbm() + config_.jam_margin_db);
}

void ShieldNode::set_jam_power_override(std::optional<double> dbm) {
  jam_power_override_dbm_ = dbm;
  jamgen_.set_power(dsp::dbm_to_mw(jam_power_dbm()));
}

void ShieldNode::relay_command(const phy::Frame& frame) {
  // Queue; released by produce() at the next idle block.
  pending_.push_back(frame);
  ++stats_.commands_relayed;
}

std::vector<phy::ReceivedFrame> ShieldNode::take_decoded_replies() {
  std::vector<phy::ReceivedFrame> out;
  out.swap(decoded_replies_);
  return out;
}

double ShieldNode::idle_threshold() const {
  double floor = noise_floor_mw_;
  if (jammed_this_block_) {
    // Predicted residual of our own jamming after antidote cancellation,
    // using a conservative nominal cancellation figure.
    const double residual =
        dsp::dbm_to_mw(jam_power_dbm() - config_.jam_rec_coupling_db -
                       config_.nominal_cancellation_db);
    floor = std::max(floor, residual + noise_floor_mw_);
  }
  return config_.idle_factor * floor;
}

double ShieldNode::self_residual_threshold() const {
  // Expected self-interference after digital cancellation: the analog
  // error (1 + eps), eps ~ CN(0, sigma^2), leaves |eps|^2 of the self-loop
  // power. |eps|^2 is exponential, so 8x its mean keeps the false-abort
  // probability of our own transmissions near e^-8.
  const double self_rx =
      dsp::dbm_to_mw(config_.max_tx_power_dbm - config_.self_coupling_db);
  const double sigma2 =
      config_.hardware_error_sigma * config_.hardware_error_sigma;
  return 8.0 * self_rx * sigma2 + config_.idle_factor * noise_floor_mw_;
}

bool ShieldNode::in_passive_window(std::size_t block_start,
                                   std::size_t block_end) const {
  for (const auto& [from, to] : passive_windows_) {
    if (block_start < to && block_end > from) return true;
  }
  return false;
}

void ShieldNode::prune_windows(std::size_t before_sample) {
  std::erase_if(passive_windows_, [before_sample](const auto& w) {
    return w.second <= before_sample;
  });
}

void ShieldNode::schedule_reply_window(std::size_t signal_end_sample) {
  if (!config_.enable_passive_jamming) return;
  const double fs = config_.fsk.fs;
  // Start slightly before T1 to absorb our own end-of-signal estimate
  // error; run to T2 + P (section 6's jamming algorithm).
  const auto t1 = static_cast<std::size_t>(config_.t1_s * fs);
  const auto t2 = static_cast<std::size_t>(config_.t2_s * fs);
  const auto p = static_cast<std::size_t>(config_.max_packet_s * fs);
  const std::size_t guard = 4 * config_.fsk.sps;
  const std::size_t from =
      signal_end_sample + (t1 > guard ? t1 - guard : 0);
  passive_windows_.emplace_back(from, signal_end_sample + t2 + p);
  ++stats_.passive_jams;
}

void ShieldNode::emit_jam(const sim::StepContext& ctx,
                          channel::Medium& medium) {
  // Keep the jamming power tracking the measured IMD power.
  const double target = dsp::dbm_to_mw(jam_power_dbm());
  if (std::abs(target - jamgen_.power()) > 0.05 * target) {
    jamgen_.set_power(target);
  }
  jamgen_.next(ctx.block_size, jam_block_);
  medium.set_tx(jam_ant_, jam_block_.view());
  if (antidote_enabled_ && antidote_.ready()) {
    const cplx coeff = antidote_.antidote_coefficient();
    const double cr = coeff.real();
    const double ci = coeff.imag();
    antidote_block_.resize(jam_block_.size());
    const double* jr = jam_block_.re();
    const double* ji = jam_block_.im();
    double* ar = antidote_block_.re();
    double* ai = antidote_block_.im();
    for (std::size_t i = 0; i < jam_block_.size(); ++i) {
      ar[i] = cr * jr[i] - ci * ji[i];
      ai[i] = cr * ji[i] + ci * jr[i];
    }
    medium.set_tx(rx_ant_, antidote_block_.view());
  }
  jammed_this_block_ = true;
}

void ShieldNode::produce(const sim::StepContext& ctx,
                         channel::Medium& medium) {
  const std::size_t block_start = ctx.block_start_sample();
  const std::size_t block_end = block_start + ctx.block_size;
  const bool was_jamming = jammed_this_block_;
  jammed_this_block_ = false;
  transmitted_this_block_ = false;

  const bool passive = config_.enable_passive_jamming &&
                       in_passive_window(block_start, block_end);
  const bool want_jam = manual_jam_ || active_jam_ || passive;
  if (want_jam) {
    if (probe_phase_ != ProbePhase::kNone) {
      // Jamming preempts an in-flight probe pair: abandon it (a partial
      // estimate made from a jamming block would corrupt the antidote)
      // and re-probe at the next idle opportunity.
      probe_phase_ = ProbePhase::kNone;
      probe_due_ = true;
    }
    if (!was_jamming && log_ != nullptr) {
      log_->record(ctx.block_start_s(), name_, sim::EventKind::kJamStart,
                   active_jam_ ? "active" : (passive ? "passive" : "manual"));
    }
    emit_jam(ctx, medium);
    return;
  }
  if (was_jamming && log_ != nullptr) {
    log_->record(ctx.block_start_s(), name_, sim::EventKind::kJamEnd, "");
  }

  // Second half of an in-flight probe pair.
  if (probe_phase_ == ProbePhase::kSelfLoop) {
    Samples probe(probe_waveform_.size());
    for (std::size_t i = 0; i < probe.size(); ++i) {
      probe[i] = probe_waveform_[i] * probe_amplitude_;
    }
    medium.set_tx(rx_ant_, probe);
    return;
  }

  // Periodic (or forced) channel estimation when otherwise idle. The
  // medium must actually be quiet: a probe taken while someone else is
  // transmitting (e.g., radiosonde cross-traffic 20 dB above the probe)
  // would corrupt the estimates and with them the antidote.
  const bool probe_stale =
      last_probe_s_ < 0.0 ||
      ctx.block_start_s() - last_probe_s_ >= config_.probe_interval_s;
  const bool medium_quiet =
      !monitor_.locked() &&
      last_block_power_ <= config_.idle_factor * noise_floor_mw_;
  if (probe_phase_ == ProbePhase::kNone && (probe_due_ || probe_stale) &&
      tx_.empty() && (medium_quiet || last_probe_s_ < 0.0)) {
    probe_phase_ = ProbePhase::kJamAntenna;
    Samples probe(probe_waveform_.size());
    for (std::size_t i = 0; i < probe.size(); ++i) {
      probe[i] = probe_waveform_[i] * probe_amplitude_;
    }
    medium.set_tx(jam_ant_, probe);
    return;
  }

  // Release a queued relay command (measure channels first if stale —
  // the paper probes "immediately before it transmits to the IMD").
  if (!pending_.empty() && tx_.empty() && antidote_.ready() &&
      probe_phase_ == ProbePhase::kNone) {
    const phy::Frame frame = pending_.front();
    pending_.erase(pending_.begin());
    Samples wave = modulator_.modulate(phy::encode_frame(frame));
    const double amp = std::sqrt(dsp::dbm_to_mw(config_.max_tx_power_dbm));
    for (auto& x : wave) x *= amp;
    const std::size_t end = block_start + wave.size();
    own_tx_ranges_.emplace_back(block_start, end);
    if (own_tx_ranges_.size() > 16) own_tx_ranges_.pop_front();
    tx_.schedule(block_start, std::move(wave));
    schedule_reply_window(end);
    self_cancel_error_ = rng_.cgaussian(config_.hardware_error_sigma *
                                        config_.hardware_error_sigma);
    if (log_ != nullptr) {
      log_->record(ctx.block_start_s(), name_, sim::EventKind::kTxStart,
                   "relayed command");
    }
  }

  if (tx_.fill(block_start, ctx.block_size, own_tx_block_)) {
    medium.set_tx(rx_ant_, own_tx_block_);
    transmitted_this_block_ = true;
  }
}

void ShieldNode::consume(const sim::StepContext& ctx,
                         channel::Medium& medium) {
  // Probe blocks: estimate the channel, then cancel the (now-known) probe
  // contribution out of the received block and keep monitoring the
  // remainder — the shield must not be deaf while probing, or an
  // adversary packet starting during the probe would slip past S_id.
  // Probing is rare, so this path stays on the AoS view; the every-block
  // monitoring path below runs on the medium's split-complex planes.
  if (probe_phase_ == ProbePhase::kJamAntenna ||
      probe_phase_ == ProbePhase::kSelfLoop) {
    const auto rx = medium.rx(rx_ant_);
    Samples ref(probe_waveform_.size());
    for (std::size_t i = 0; i < ref.size(); ++i) {
      ref[i] = probe_waveform_[i] * probe_amplitude_;
    }
    const cplx h = dsp::estimate_flat_channel(
        dsp::SampleView(rx.data(), std::min(rx.size(), ref.size())), ref);
    Samples residual(rx.begin(), rx.end());
    for (std::size_t i = 0; i < ref.size() && i < residual.size(); ++i) {
      residual[i] -= h * ref[i];
    }
    // Sanity gates against probe/foreign-signal collisions, which would
    // poison the antidote: (a) the probed paths are the shield's own
    // hardware, whose couplings are known to within a few dB; (b) after
    // subtracting the estimated probe contribution, the block must be
    // quiet — anything else on the air shows up in that residual no
    // matter how the least-squares estimate came out. On failure the
    // estimate is discarded and the probe retried at the next quiet slot.
    const double nominal_db = probe_phase_ == ProbePhase::kJamAntenna
                                  ? -config_.jam_rec_coupling_db
                                  : -config_.self_coupling_db;
    const double est_db = dsp::amplitude_to_db(std::max(std::abs(h), 1e-12));
    const double residual_power = dsp::mean_power(
        dsp::SampleView(residual.data(), std::min(residual.size(),
                                                  ref.size())));
    const bool plausible = std::abs(est_db - nominal_db) <= 8.0 &&
                           residual_power <= 20.0 * noise_floor_mw_;
    if (!plausible) {
      probe_phase_ = ProbePhase::kNone;
      probe_due_ = true;  // retry at the next quiet opportunity
    } else if (probe_phase_ == ProbePhase::kJamAntenna) {
      antidote_.update_jam_channel(h);
      probe_phase_ = ProbePhase::kSelfLoop;
    } else {
      antidote_.update_self_channel(h);
      antidote_.begin_epoch();
      probe_phase_ = ProbePhase::kNone;
      probe_due_ = false;
      last_probe_s_ = ctx.block_start_s();
      ++stats_.probes;
      if (log_ != nullptr) {
        log_->record(ctx.block_start_s(), name_, sim::EventKind::kProbe,
                     "channel estimation");
      }
    }
    monitor_.push(residual);
    check_sid_mid_packet(ctx, dsp::mean_power(residual));
    handle_monitor_frames(ctx);
    return;
  }

  dsp::SoaView work = medium.rx_soa(rx_ant_);
  if (transmitted_this_block_ && antidote_.ready()) {
    // Digital self-cancellation of our own relayed command, imperfect by
    // the analog accuracy (1 + eps).
    const cplx h =
        antidote_.self_channel() * (cplx(1.0, 0.0) + self_cancel_error_);
    const double hr = h.real();
    const double hi = h.imag();
    work_.assign(work);
    double* wr = work_.re();
    double* wi = work_.im();
    for (std::size_t i = 0; i < work_.size(); ++i) {
      const double tr = own_tx_block_[i].real();
      const double ti = own_tx_block_[i].imag();
      wr[i] -= hr * tr - hi * ti;
      wi[i] -= hr * ti + hi * tr;
    }
    work = work_.view();
  }
  const double block_power = dsp::mean_power(work);

  // Track the quiet-medium noise floor with minimum tracking plus a
  // multiplicative (dB-linear) rise: ~0.09 dB per block upward. A linear
  // EWMA would ratchet to within a few dB of any sustained foreign
  // transmission within milliseconds, fooling the probe's quiet-medium
  // gate; the multiplicative rise keeps a 10 ms radiosonde frame dozens
  // of dB above the floor for its whole duration.
  if (!jammed_this_block_ && !transmitted_this_block_ && !monitor_.locked()) {
    if (block_power < noise_floor_mw_) {
      noise_floor_mw_ = block_power;
    } else {
      noise_floor_mw_ = std::min(noise_floor_mw_ * 1.02, block_power);
    }
    last_block_power_ = block_power;
  } else if (!jammed_this_block_ && !transmitted_this_block_) {
    last_block_power_ = block_power;
  }

  // Anti-capture: anything transmitting over our own command triggers an
  // unconditional switch from transmission to jamming (section 7).
  if (transmitted_this_block_ && config_.enable_active_protection &&
      block_power > self_residual_threshold()) {
    tx_.cancel_all();
    ++stats_.aborted_tx;
    start_active_jam(ctx, block_power, /*from_own_tx=*/true);
  }

  monitor_.push(work);
  check_sid_mid_packet(ctx, block_power);
  handle_monitor_frames(ctx);

  // Active jamming continues until the medium goes idle again.
  if (active_jam_) {
    if (block_power < idle_threshold()) {
      ++quiet_blocks_;
    } else {
      quiet_blocks_ = 0;
    }
    const bool min_elapsed =
        ctx.block_index - active_jam_started_block_ >=
        config_.min_active_jam_blocks;
    if (min_elapsed && quiet_blocks_ >= config_.idle_confirm_blocks) {
      stop_active_jam(ctx);
    }
  }
  prune_windows(ctx.block_start_sample());
}

void ShieldNode::start_active_jam(const sim::StepContext& ctx,
                                  double trigger_rssi, bool from_own_tx) {
  if (active_jam_) return;
  active_jam_ = true;
  active_jam_started_block_ = ctx.block_index;
  quiet_blocks_ = 0;
  ++stats_.active_jams;
  high_power_suspect_ =
      trigger_rssi > dsp::dbm_to_mw(config_.pthresh_dbm);
  if (log_ != nullptr) {
    log_->record(ctx.block_start_s(), name_, sim::EventKind::kJamStart,
                 from_own_tx ? "concurrent-with-own-tx" : "sid-match");
  }
  if (config_.alarm_enabled && high_power_suspect_) {
    ++stats_.alarms;
    if (log_ != nullptr) {
      log_->record(ctx.block_start_s(), name_, sim::EventKind::kAlarm,
                   "high-powered adversarial transmission");
    }
  }
}

void ShieldNode::stop_active_jam(const sim::StepContext& ctx) {
  active_jam_ = false;
  if (log_ != nullptr) {
    log_->record(ctx.block_start_s(), name_, sim::EventKind::kJamEnd,
                 "medium idle");
  }
  if (high_power_suspect_) {
    // The command may have reached the IMD despite jamming; jam the reply
    // window as if the message had been our own (section 7(d)).
    const std::size_t end_estimate =
        ctx.block_start_sample() -
        std::min(ctx.block_start_sample(),
                 quiet_blocks_ * ctx.block_size);
    schedule_reply_window(end_estimate);
  }
  high_power_suspect_ = false;
}

void ShieldNode::check_sid_mid_packet(const sim::StepContext& ctx,
                                      double block_power) {
  if (!config_.enable_active_protection) return;
  if (!monitor_.locked()) return;
  if (monitor_.lock_start_sample() != current_lock_start_) {
    current_lock_start_ = monitor_.lock_start_sample();
    sid_checked_bits_ = 0;
    current_lock_peak_power_ = 0.0;
    sid_.reset();
  }
  current_lock_peak_power_ = std::max(current_lock_peak_power_, block_power);

  // Our own relayed command also matches S_id; never jam ourselves.
  for (const auto& [from, to] : own_tx_ranges_) {
    if (current_lock_start_ >= from && current_lock_start_ < to) return;
  }

  const auto& bits = monitor_.partial_bits();
  bool matched = false;
  for (std::size_t i = sid_checked_bits_; i < bits.size(); ++i) {
    matched = sid_.push(bits[i]) || matched;
  }
  sid_checked_bits_ = bits.size();
  if (matched && !active_jam_ && !manual_jam_) {
    start_active_jam(ctx, current_lock_peak_power_, /*from_own_tx=*/false);
  }
}

void ShieldNode::handle_monitor_frames(const sim::StepContext& ctx) {
  while (auto frame = monitor_.pop()) {
    bool ours = false;
    for (const auto& [from, to] : own_tx_ranges_) {
      if (frame->start_sample >= from && frame->start_sample < to) {
        ours = true;
        break;
      }
    }
    if (ours) continue;
    if (capture_frames_) captured_frames_.push_back(*frame);

    const bool was_window =
        in_passive_window(frame->start_sample,
                          frame->start_sample +
                              frame->raw_bits.size() * config_.fsk.sps);
    if (frame->decode.status == phy::DecodeStatus::kOk) {
      const phy::Frame& f = frame->decode.frame;
      if (f.device_id == config_.protected_id && (f.type & 0x80) != 0) {
        // The protected IMD's reply, decoded through our own jamming.
        imd_rssi_mw_ = imd_rssi_mw_ > 0.0
                           ? 0.8 * imd_rssi_mw_ + 0.2 * frame->rssi
                           : frame->rssi;
        ++stats_.replies_decoded;
        if (log_ != nullptr) {
          log_->record(ctx.block_start_s(), name_,
                       sim::EventKind::kFrameReceived, "imd reply");
        }
        decoded_replies_.push_back(std::move(*frame));
        continue;
      }
      // Some other frame that completed without triggering S_id jamming:
      // legitimate co-band traffic we correctly ignored.
      if (!sid_.fired()) ++stats_.cross_traffic_ignored;
    } else if (was_window && f_is_reply_window_failure(*frame)) {
      ++stats_.reply_crc_failures;
    }
  }
}

std::vector<phy::ReceivedFrame> ShieldNode::take_monitor_frames() {
  std::vector<phy::ReceivedFrame> out;
  out.swap(captured_frames_);
  return out;
}

bool ShieldNode::f_is_reply_window_failure(const phy::ReceivedFrame& frame) {
  return frame.decode.status == phy::DecodeStatus::kBadCrc ||
         frame.decode.status == phy::DecodeStatus::kTruncated;
}

}  // namespace hs::shield
