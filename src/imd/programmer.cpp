#include "imd/programmer.hpp"

#include <cmath>

#include "dsp/units.hpp"

namespace hs::imd {

ProgrammerNode::ProgrammerNode(const ProgrammerConfig& config,
                               channel::Medium& medium, sim::EventLog* log)
    : config_(config),
      modulator_(config.fsk),
      receiver_(config.fsk),
      cca_(config.fsk.fs) {
  // modulator_ has no default constructor; reset() replaces it.
  reset(config, medium, log);
}

void ProgrammerNode::reset(const ProgrammerConfig& config,
                           channel::Medium& medium, sim::EventLog* log) {
  // The CCA's windows depend only on fs; keep its meter when fs holds.
  if (config.fsk.fs == config_.fsk.fs) {
    cca_.reset();
  } else {
    cca_ = mics::ClearChannelAssessment(config.fsk.fs);
  }
  config_ = config;
  log_ = log;
  modulator_ = phy::FskModulator(config.fsk);
  receiver_.reset(config.fsk);
  tx_ = sim::TransmitScheduler();
  tx_amplitude_ = std::sqrt(dsp::dbm_to_mw(config.tx_power_dbm));
  pending_.clear();
  responses_.clear();

  channel::AntennaDesc desc;
  desc.name = "programmer/antenna";
  desc.position = config.position;
  antenna_ = medium.add_antenna(desc);
}

void ProgrammerNode::send(const phy::Frame& frame) {
  pending_.push_back(frame);
}

void ProgrammerNode::send_at(const phy::Frame& frame,
                             std::size_t start_sample) {
  tx_.schedule(start_sample, modulator_.modulate(phy::encode_frame(frame)));
}

void ProgrammerNode::produce(const sim::StepContext& ctx,
                             channel::Medium& medium) {
  // Release pending commands: immediately, or once the channel is clear.
  if (!pending_.empty() && (!config_.lbt_enabled || cca_.channel_clear())) {
    std::size_t at = ctx.block_start_sample();
    for (const auto& frame : pending_) {
      dsp::Samples wave = modulator_.modulate(phy::encode_frame(frame));
      const std::size_t len = wave.size();
      tx_.schedule(at, std::move(wave));
      if (log_ != nullptr) {
        log_->record(static_cast<double>(at) / ctx.fs, name_,
                     sim::EventKind::kTxStart,
                     message_type_name(static_cast<MessageType>(frame.type)));
      }
      at += len + static_cast<std::size_t>(ctx.fs * 1e-3);  // 1 ms spacing
    }
    pending_.clear();
  }
  dsp::Samples block;
  if (tx_.fill(ctx.block_start_sample(), ctx.block_size, block)) {
    for (auto& x : block) x *= tx_amplitude_;
    medium.set_tx(antenna_, block);
  }
}

void ProgrammerNode::consume(const sim::StepContext& ctx,
                             channel::Medium& medium) {
  const auto rx = medium.rx_soa(antenna_);
  // Only LBT reads the CCA verdict; without it the meter would be dead
  // per-sample work.
  if (config_.lbt_enabled) cca_.push(rx);
  receiver_.push(rx);
  while (auto frame = receiver_.pop()) {
    if (frame->decode.status == phy::DecodeStatus::kOk) {
      if (log_ != nullptr) {
        log_->record(ctx.block_start_s(), name_,
                     sim::EventKind::kFrameReceived,
                     message_type_name(
                         static_cast<MessageType>(frame->decode.frame.type)));
      }
      responses_.push_back(std::move(*frame));
    }
  }
}

}  // namespace hs::imd
