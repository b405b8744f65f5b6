#include "adversary/cross_traffic.hpp"

#include <cmath>

#include "dsp/units.hpp"

namespace hs::adversary {

CrossTrafficNode::CrossTrafficNode(const CrossTrafficConfig& config,
                                   channel::Medium& medium,
                                   std::uint64_t seed)
    : modulator_(config.gmsk) {
  // modulator_ has no default constructor; reset() replaces it.
  reset(config, medium, seed);
}

void CrossTrafficNode::reset(const CrossTrafficConfig& config,
                             channel::Medium& medium, std::uint64_t seed) {
  config_ = config;
  rng_ = dsp::Rng(seed, "cross-traffic");
  modulator_ = phy::GmskModulator(config.gmsk);
  tx_ = sim::TransmitScheduler();
  tx_amplitude_ = std::sqrt(dsp::dbm_to_mw(config.tx_power_dbm));
  frames_sent_ = 0;

  channel::AntennaDesc desc;
  desc.name = config.name + "/antenna";
  desc.position = config.position;
  desc.walls = config.walls;
  antenna_ = medium.add_antenna(desc);
}

std::pair<std::size_t, std::size_t> CrossTrafficNode::send_frame(
    std::size_t at_sample) {
  phy::BitVec bits(config_.frame_bits);
  for (auto& b : bits) b = static_cast<std::uint8_t>(rng_.next_u64() & 1);
  dsp::Samples wave = modulator_.modulate(bits);
  const std::size_t len = wave.size();
  tx_.schedule(at_sample, std::move(wave));
  ++frames_sent_;
  return {at_sample, at_sample + len};
}

void CrossTrafficNode::produce(const sim::StepContext& ctx,
                               channel::Medium& medium) {
  dsp::Samples block;
  if (tx_.fill(ctx.block_start_sample(), ctx.block_size, block)) {
    for (auto& x : block) x *= tx_amplitude_;
    medium.set_tx(antenna_, block);
  }
}

void CrossTrafficNode::consume(const sim::StepContext&, channel::Medium&) {}

}  // namespace hs::adversary
