#include "shield/calibrate.hpp"

#include <algorithm>
#include <cmath>

#include "adversary/active.hpp"
#include "channel/geometry.hpp"
#include "dsp/units.hpp"
#include "imd/protocol.hpp"

namespace hs::shield {
namespace {

/// Mean received power at an antenna over `blocks` timeline blocks.
double mean_rx_power(Deployment& d, channel::AntennaId antenna,
                     std::size_t blocks) {
  double acc = 0.0;
  for (std::size_t i = 0; i < blocks; ++i) {
    d.timeline().step();
    acc += d.medium().rx_power(antenna);
  }
  return acc / static_cast<double>(blocks);
}

}  // namespace

double measure_cancellation_db(Deployment& d) {
  ShieldNode& shield = d.shield();
  // Fresh probe -> fresh channel estimates and a fresh hardware-error
  // epoch, exactly like re-running the experiment.
  shield.force_probe();
  d.run_for(2e-3);

  constexpr std::size_t kBlocks = 64;  // ~100 kb at 48 samples/block
  shield.set_antidote_enabled(false);
  shield.set_manual_jam(true);
  const double p_without = mean_rx_power(d, shield.rx_antenna(), kBlocks);
  shield.set_antidote_enabled(true);
  const double p_with = mean_rx_power(d, shield.rx_antenna(), kBlocks);
  shield.set_manual_jam(false);
  d.run_for(1e-3);
  return dsp::power_to_db(p_without / std::max(p_with, 1e-30));
}

std::vector<double> measure_cancellation_cdf(Deployment& d,
                                             std::size_t runs) {
  std::vector<double> out;
  out.reserve(runs);
  for (std::size_t i = 0; i < runs; ++i) {
    out.push_back(measure_cancellation_db(d));
  }
  std::sort(out.begin(), out.end());
  return out;
}

PthreshResult measure_pthresh(std::uint64_t seed, int location_index,
                              double power_lo_dbm, double power_hi_dbm,
                              double power_step_db,
                              std::size_t packets_per_power,
                              TrialContext* context) {
  TrialContext scratch;
  TrialContext& pool = context != nullptr ? *context : scratch;

  DeploymentOptions opt;
  opt.seed = seed;
  opt.with_observer = true;
  // Per section 10.3's methodology the shield jams only the adversary's
  // packets, not the IMD's replies, so the observer can hear them.
  opt.shield_config.enable_passive_jamming = false;
  Deployment& d = pool.deployment(opt);

  const auto& loc = channel::testbed_location(location_index);
  adversary::ActiveAdversaryConfig acfg;
  acfg.position = loc.position();
  acfg.walls = loc.walls;
  acfg.fsk = opt.imd_profile.fsk;
  adversary::ActiveAdversaryNode& adversary = pool.active_adversary(acfg);
  d.run_for(2e-3);

  // The adversary transmits an interrogation (elicits a reply).
  const auto command = imd::make_interrogate(opt.imd_profile.serial, 1);

  PthreshResult result;
  double sum = 0.0, sum_sq = 0.0;
  for (double p = power_lo_dbm; p <= power_hi_dbm + 1e-9;
       p += power_step_db) {
    adversary.set_tx_power_dbm(p);
    for (std::size_t i = 0; i < packets_per_power; ++i) {
      d.medium().rerandomize();
      const std::size_t before = d.observer()->frames().size();
      adversary.inject(command, d.timeline().sample_position() +
                                    d.options().block_size);
      d.run_for(45e-3);
      bool replied = false;
      const auto& frames = d.observer()->frames();
      for (std::size_t f = before; f < frames.size(); ++f) {
        if (frames[f].decode.status == phy::DecodeStatus::kOk &&
            (frames[f].decode.frame.type & 0x80) != 0) {
          replied = true;
        }
      }
      if (replied) {
        // RSSI of the adversary at the shield's receive antenna.
        const auto g = d.medium().gain(adversary.antenna(),
                                       d.shield().rx_antenna());
        const double rssi_dbm = p + dsp::power_to_db(std::norm(g));
        result.success_rssi_dbm.push_back(rssi_dbm);
        sum += rssi_dbm;
        sum_sq += rssi_dbm * rssi_dbm;
        ++result.successes;
      }
    }
  }
  if (result.successes > 0) {
    result.min_dbm = *std::min_element(result.success_rssi_dbm.begin(),
                                       result.success_rssi_dbm.end());
    result.mean_dbm = sum / static_cast<double>(result.successes);
    const double var =
        sum_sq / static_cast<double>(result.successes) -
        result.mean_dbm * result.mean_dbm;
    result.stddev_db = std::sqrt(std::max(var, 0.0));
  }
  return result;
}

BthreshResult estimate_bthresh(std::uint64_t seed, std::size_t packets) {
  BthreshResult result;
  const auto sid_bits = phy::kSidBits;

  DeploymentOptions opt;
  opt.seed = seed;
  opt.with_observer = true;
  // Logging-only shield: jamming off entirely (section 10.1(c)).
  opt.shield_config.enable_passive_jamming = false;
  opt.shield_config.enable_active_protection = false;

  const phy::BitVec sid = phy::make_sid(opt.imd_profile.serial);
  const std::size_t locations = channel::kTestbedLocationCount - 4;
  const std::size_t per_location = packets / locations + 1;

  for (std::size_t li = 0; li < locations && result.packets_sent < packets;
       ++li) {
    DeploymentOptions o = opt;
    o.seed = seed + li;
    Deployment d(o);
    d.shield().set_frame_capture(true);
    const auto& loc = channel::testbed_location(static_cast<int>(li + 1));
    adversary::ActiveAdversaryConfig acfg;
    acfg.position = loc.position();
    acfg.walls = loc.walls;
    acfg.fsk = o.imd_profile.fsk;
    adversary::ActiveAdversaryNode adversary(acfg, d.medium(), &d.log());
    d.add_node(&adversary);
    d.run_for(2e-3);
    const auto command = imd::make_interrogate(o.imd_profile.serial, 7);

    for (std::size_t i = 0;
         i < per_location && result.packets_sent < packets; ++i) {
      d.medium().rerandomize();
      const std::size_t imd_before = d.imd().stats().frames_accepted;
      adversary.inject(command, d.timeline().sample_position() +
                                    d.options().block_size);
      d.run_for(40e-3);
      ++result.packets_sent;
      const bool imd_accepted =
          d.imd().stats().frames_accepted > imd_before;
      // Shield-side decode of this packet, if it detected one.
      std::size_t header_flips = 0;
      bool shield_saw_errors = false;
      for (const auto& f : d.shield().take_monitor_frames()) {
        if (f.raw_bits.size() < sid_bits) continue;
        const std::size_t flips = phy::hamming_distance_at(
            f.raw_bits, 0, phy::BitView(sid.data(), sid_bits));
        if (flips > 0) {
          shield_saw_errors = true;
          header_flips = std::max(header_flips, flips);
        }
      }
      if (imd_accepted && shield_saw_errors) {
        ++result.shield_error_imd_ok;
        result.max_header_bit_flips =
            std::max(result.max_header_bit_flips, header_flips);
      }
    }
  }
  // Conservative doubling of the worst observed flip count, with the
  // paper's value as the floor.
  result.recommended_bthresh =
      std::max<std::size_t>(4, result.max_header_bit_flips * 2);
  return result;
}

}  // namespace hs::shield
