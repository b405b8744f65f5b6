#include "imd/device.hpp"

#include <cmath>

#include "channel/geometry.hpp"
#include "dsp/units.hpp"
#include "snapshot/state_io.hpp"

namespace hs::imd {

using channel::AntennaDesc;

namespace {

phy::ReceiverOptions imd_receiver_options(const ImdProfile& profile) {
  return phy::ReceiverOptions{
      .detect_threshold = 0.82,
      .sync_tolerance = 4,
      .max_frame_bits = 1024,
      .gate_factor = 4.0,
      .min_gate_power = dsp::dbm_to_mw(profile.sensitivity_dbm),
  };
}

}  // namespace

ImdDevice::ImdDevice(const ImdProfile& profile, channel::Medium& medium,
                     sim::EventLog* log, std::uint64_t seed)
    : profile_(profile),
      name_("imd/" + profile.model_name),
      log_(log),
      rng_(seed, "imd-device"),
      receiver_(profile.fsk, imd_receiver_options(profile)),
      modulator_(profile.fsk),
      tx_amplitude_(std::sqrt(dsp::dbm_to_mw(profile.tx_power_dbm))) {
  register_with_medium(medium);
  fill_patient_data();
}

void ImdDevice::register_with_medium(channel::Medium& medium) {
  AntennaDesc desc;
  desc.name = name_ + "/antenna";
  desc.position = channel::kImdPosition;
  desc.body_loss_db = profile_.body_loss_db;
  antenna_ = medium.add_antenna(desc);
}

void ImdDevice::fill_patient_data() {
  // Synthetic "patient data" the device returns on interrogation.
  patient_data_.resize(1024);
  for (std::size_t i = 0; i < patient_data_.size(); ++i) {
    patient_data_[i] = static_cast<std::uint8_t>(rng_.next_u64());
  }
}

void ImdDevice::reset(const ImdProfile& profile, channel::Medium& medium,
                      sim::EventLog* log, std::uint64_t seed) {
  // Mirror of the constructor, member for member (the campaign trial-pool
  // determinism test asserts the equivalence).
  profile_ = profile;
  name_ = "imd/" + profile.model_name;
  log_ = log;
  rng_ = dsp::Rng(seed, "imd-device");
  receiver_.reset(profile.fsk, imd_receiver_options(profile));
  modulator_ = phy::FskModulator(profile.fsk);
  tx_ = sim::TransmitScheduler();
  tx_amplitude_ = std::sqrt(dsp::dbm_to_mw(profile.tx_power_dbm));
  therapy_ = TherapySettings{};
  battery_ = Battery();
  stats_ = ImdStats{};
  data_cursor_ = 0;
  last_tx_bits_.clear();
  last_tx_start_ = 0;
  register_with_medium(medium);
  fill_patient_data();
}

void ImdDevice::reseed(std::uint64_t trial_seed) {
  rng_ = dsp::Rng(trial_seed, "imd-device");
}

void ImdDevice::save_state(snapshot::StateWriter& w) const {
  w.begin("imd-device");
  w.str("model", profile_.model_name);
  w.u64("antenna", antenna_);
  snapshot::write_rng(w, "rng", rng_);
  receiver_.save_state(w);
  w.f64("mod_phase", modulator_.phase());
  tx_.save_state(w);
  w.u64("therapy.pacing_rate_bpm", therapy_.pacing_rate_bpm);
  w.u64("therapy.shock_energy", therapy_.shock_energy_half_joules);
  w.u64("therapy.mode", static_cast<std::uint64_t>(therapy_.mode));
  w.u64("therapy.tachy_threshold_bpm", therapy_.tachy_threshold_bpm);
  battery_.save_state(w);
  w.u64("stats.frames_detected", stats_.frames_detected);
  w.u64("stats.frames_accepted", stats_.frames_accepted);
  w.u64("stats.crc_failures", stats_.crc_failures);
  w.u64("stats.wrong_device", stats_.wrong_device);
  w.u64("stats.replies_sent", stats_.replies_sent);
  w.u64("stats.therapy_changes", stats_.therapy_changes);
  w.bytes("patient_data", patient_data_);
  w.u64("data_cursor", data_cursor_);
  w.bytes("last_tx_bits", last_tx_bits_);
  w.u64("last_tx_start", last_tx_start_);
  w.end("imd-device");
}

void ImdDevice::produce(const sim::StepContext& ctx, channel::Medium& medium) {
  dsp::Samples block;
  if (tx_.fill(ctx.block_start_sample(), ctx.block_size, block)) {
    std::size_t active = 0;
    for (auto& x : block) {
      if (std::norm(x) > 0.0) {
        x *= tx_amplitude_;
        ++active;
      }
    }
    medium.set_tx(antenna_, block);
    battery_.drain_tx(static_cast<double>(active) / ctx.fs);
  }
  battery_.drain_idle(static_cast<double>(ctx.block_size) / ctx.fs);
}

void ImdDevice::consume(const sim::StepContext& ctx, channel::Medium& medium) {
  receiver_.push(medium.rx_soa(antenna_));
  while (auto rx = receiver_.pop()) {
    ++stats_.frames_detected;
    handle_frame(*rx, ctx);
  }
}

void ImdDevice::handle_frame(const phy::ReceivedFrame& rx,
                             const sim::StepContext& ctx) {
  const double t = ctx.block_start_s();
  if (rx.decode.status != phy::DecodeStatus::kOk) {
    ++stats_.crc_failures;
    if (log_ != nullptr) {
      log_->record(t, name_, sim::EventKind::kFrameCorrupted,
                   "checksum/decode failure");
    }
    return;
  }
  const phy::Frame& frame = rx.decode.frame;
  if (frame.device_id != profile_.serial) {
    ++stats_.wrong_device;
    return;
  }
  const auto type = static_cast<MessageType>(frame.type);
  if (!is_command(type)) return;  // we only react to programmer commands
  ++stats_.frames_accepted;
  if (log_ != nullptr) {
    log_->record(t, name_, sim::EventKind::kFrameReceived,
                 message_type_name(type));
  }

  // The reply goes out a fixed interval after the command's last sample,
  // regardless of what is on the medium (no carrier sense; Fig. 3).
  const std::size_t frame_end =
      rx.start_sample + rx.raw_bits.size() * profile_.fsk.sps;
  const double delay_s =
      rng_.uniform(profile_.reply_delay_mean_s - profile_.reply_delay_jitter_s,
                   profile_.reply_delay_mean_s + profile_.reply_delay_jitter_s);
  const auto delay_samples =
      static_cast<std::size_t>(std::lround(delay_s * ctx.fs));
  const std::size_t reply_at = frame_end + delay_samples;

  switch (type) {
    case MessageType::kInterrogate: {
      // Return the next chunk of stored patient data.
      const std::size_t n = profile_.data_chunk_bytes;
      phy::ByteVec chunk(n);
      for (std::size_t i = 0; i < n; ++i) {
        chunk[i] = patient_data_[(data_cursor_ + i) % patient_data_.size()];
      }
      data_cursor_ = (data_cursor_ + n) % patient_data_.size();
      schedule_reply(make_data_response(profile_.serial, frame.seq,
                                        phy::ByteView(chunk.data(), n)),
                     reply_at);
      break;
    }
    case MessageType::kReadTherapy:
      schedule_reply(
          make_therapy_response(profile_.serial, frame.seq, therapy_),
          reply_at);
      break;
    case MessageType::kSetTherapy: {
      const auto settings = parse_therapy(frame);
      if (!settings || !settings->plausible()) return;
      therapy_ = *settings;
      ++stats_.therapy_changes;
      if (log_ != nullptr) {
        log_->record(t, name_, sim::EventKind::kCommandExecuted,
                     "therapy modified");
      }
      schedule_reply(make_ack(profile_.serial, frame.seq, type), reply_at);
      break;
    }
    default:
      break;
  }
}

void ImdDevice::schedule_reply(const phy::Frame& reply,
                               std::size_t at_sample) {
  const phy::BitVec bits = phy::encode_frame(reply);
  last_tx_bits_ = bits;
  last_tx_start_ = at_sample;
  tx_.schedule(at_sample, modulator_.modulate(bits));
  ++stats_.replies_sent;
  if (log_ != nullptr) {
    log_->record(static_cast<double>(at_sample) / profile_.fsk.fs, name_,
                 sim::EventKind::kTxStart,
                 message_type_name(static_cast<MessageType>(reply.type)));
  }
}

}  // namespace hs::imd
