#include "shield/experiments.hpp"

#include <cmath>
#include <memory>

#include "adversary/active.hpp"
#include "adversary/cross_traffic.hpp"
#include "adversary/eavesdropper.hpp"
#include "channel/geometry.hpp"
#include "imd/programmer.hpp"
#include "imd/protocol.hpp"

namespace hs::shield {

namespace {

/// Runs one packet's or attempt's 45 ms window. What a trial scores is
/// final once the air is quiet (sim::RadioNode::quiet), so the last
/// window ends there. Earlier windows run in full, because where one ends
/// sets the next one's start sample and every RNG position after it.
void run_window(Deployment& d, bool last) {
  constexpr double kWindowS = 45e-3;
  sim::Timeline& timeline = d.timeline();
  if (last) {
    timeline.run_until([&timeline] { return timeline.quiet(); }, kWindowS);
  } else {
    timeline.run_for(kWindowS);
  }
}

}  // namespace

double EavesdropResult::mean_ber() const {
  if (eavesdropper_ber.empty()) return 0.0;
  double s = 0.0;
  for (double b : eavesdropper_ber) s += b;
  return s / static_cast<double>(eavesdropper_ber.size());
}

EavesdropResult run_eavesdrop_experiment(const EavesdropOptions& options,
                                         TrialContext* context) {
  TrialContext scratch;
  TrialContext& pool = context != nullptr ? *context : scratch;

  DeploymentOptions opt;
  opt.seed = options.seed;
  opt.shield_present = options.shield_present;
  if (options.use_margin_override) {
    opt.shield_config.jam_margin_db = options.jam_margin_db;
  }
  if (options.hardware_error_sigma > 0.0) {
    opt.shield_config.hardware_error_sigma = options.hardware_error_sigma;
  }
  opt.shield_config.jam_profile = options.jam_profile;
  Deployment& d = pool.deployment(opt);

  // The eavesdropper: a capturing monitor at the chosen Fig. 6 location.
  const auto& loc = channel::testbed_location(options.location_index);
  adversary::MonitorConfig ecfg;
  ecfg.name = "eavesdropper";
  ecfg.position = loc.position();
  ecfg.walls = loc.walls;
  ecfg.fsk = opt.imd_profile.fsk;
  ecfg.capture_samples = true;
  // The eavesdropper is decoded offline (eavesdrop_decode with genie
  // timing); its streaming receiver would only burn cycles fighting the
  // jamming it is capturing.
  ecfg.decode_enabled = false;
  adversary::MonitorNode& eavesdropper = pool.monitor(ecfg);

  // Without a shield, a plain programmer triggers the IMD instead.
  imd::ProgrammerNode* programmer = nullptr;
  if (!options.shield_present) {
    imd::ProgrammerConfig pcfg;
    pcfg.fsk = opt.imd_profile.fsk;
    programmer = &pool.programmer(pcfg);
  }
  d.run_for(2e-3);

  EavesdropResult result;
  const auto& serial = opt.imd_profile.serial;
  for (std::size_t p = 0; p < options.packets; ++p) {
    eavesdropper.clear_capture();
    const std::size_t replies_before = d.imd().stats().replies_sent;
    const auto command =
        imd::make_interrogate(serial, static_cast<std::uint8_t>(p));
    if (options.shield_present) {
      d.shield().relay_command(command);
    } else {
      programmer->send(command);
    }
    run_window(d, p + 1 == options.packets);
    if (d.imd().stats().replies_sent == replies_before) continue;
    ++result.imd_packets;

    // Ground truth from the device itself (genie knowledge granted to the
    // eavesdropper only strengthens the adversary).
    const phy::BitVec& truth = d.imd().last_tx_bits();
    const std::size_t tx_start = d.imd().last_tx_start_sample();
    const auto& capture = eavesdropper.capture();
    if (tx_start < eavesdropper.capture_start()) continue;
    const std::size_t offset = tx_start - eavesdropper.capture_start();
    if (offset + truth.size() * opt.imd_profile.fsk.sps > capture.size()) {
      continue;
    }
    const auto decoded =
        options.bandpass_attack
            ? adversary::eavesdrop_decode_bandpass(opt.imd_profile.fsk,
                                                   capture, offset, truth)
            : adversary::eavesdrop_decode(opt.imd_profile.fsk, capture,
                                          offset, truth);
    result.eavesdropper_ber.push_back(decoded.ber);
  }
  if (options.shield_present) {
    result.shield_decoded = d.shield().stats().replies_decoded;
  }
  return result;
}

AttackResult run_attack_experiment(const AttackOptions& options,
                                   TrialContext* context) {
  TrialContext scratch;
  TrialContext& pool = context != nullptr ? *context : scratch;

  DeploymentOptions opt;
  opt.seed = options.seed;
  opt.imd_profile = options.imd_profile;
  opt.shield_present = options.shield_present;
  // Section 10.3 methodology: the shield jams only the adversary's
  // packets (not the IMD's), so the observer can verify IMD responses.
  opt.shield_config.enable_passive_jamming = false;
  Deployment& d = pool.deployment(opt);

  const auto& loc = channel::testbed_location(options.location_index);
  adversary::ActiveAdversaryConfig acfg;
  acfg.position = loc.position();
  acfg.walls = loc.walls;
  acfg.fsk = opt.imd_profile.fsk;
  acfg.tx_power_dbm = -16.0 + options.extra_power_db;
  adversary::ActiveAdversaryNode& adversary = pool.active_adversary(acfg);
  d.run_for(2e-3);

  const auto& serial = opt.imd_profile.serial;
  AttackResult result;
  result.trials = options.trials;
  imd::TherapySettings tampered;  // alternated to always differ
  for (std::size_t t = 0; t < options.trials; ++t) {
    d.medium().rerandomize();
    const auto replies_before = d.imd().stats().replies_sent;
    const auto therapy_before = d.imd().stats().therapy_changes;
    const auto alarms_before =
        options.shield_present ? d.shield().stats().alarms : 0;

    phy::Frame command;
    if (options.kind == AttackKind::kTriggerTransmission) {
      command = imd::make_interrogate(serial, static_cast<std::uint8_t>(t));
    } else {
      tampered.pacing_rate_bpm =
          static_cast<std::uint8_t>(40 + (t % 2) * 100);  // 40 <-> 140 bpm
      command = imd::make_set_therapy(serial, static_cast<std::uint8_t>(t),
                                      tampered);
    }
    adversary.inject(command, d.timeline().sample_position() +
                                  d.options().block_size);
    run_window(d, t + 1 == options.trials);

    const bool success =
        options.kind == AttackKind::kTriggerTransmission
            ? d.imd().stats().replies_sent > replies_before
            : d.imd().stats().therapy_changes > therapy_before;
    if (success) ++result.successes;
    if (options.shield_present &&
        d.shield().stats().alarms > alarms_before) {
      ++result.alarms;
    }
  }
  result.battery_energy_spent_mj = d.imd().battery().tx_energy_spent_mj();
  return result;
}

CoexistenceResult run_coexistence_experiment(
    const CoexistenceOptions& options, TrialContext* context) {
  TrialContext scratch;
  TrialContext& pool = context != nullptr ? *context : scratch;

  CoexistenceResult result;
  for (int loc_index : options.location_indices) {
    DeploymentOptions opt;
    opt.seed = options.seed + static_cast<std::uint64_t>(loc_index);
    Deployment& d = pool.deployment(opt);

    const auto& loc = channel::testbed_location(loc_index);
    adversary::ActiveAdversaryConfig acfg;
    acfg.position = loc.position();
    acfg.walls = loc.walls;
    acfg.fsk = opt.imd_profile.fsk;
    adversary::ActiveAdversaryNode& adversary = pool.active_adversary(acfg);

    adversary::CrossTrafficConfig ccfg;
    ccfg.position = loc.position();
    ccfg.walls = loc.walls;
    adversary::CrossTrafficNode& radiosonde =
        pool.cross_traffic(ccfg, opt.seed);
    d.run_for(2e-3);

    const double fs = opt.imd_profile.fsk.fs;
    const auto command = imd::make_interrogate(opt.imd_profile.serial, 3);
    const std::size_t frame_samples =
        phy::frame_total_bits(0) * opt.imd_profile.fsk.sps;

    for (std::size_t round = 0; round < options.rounds_per_location;
         ++round) {
      // One unauthorized IMD command...
      const std::size_t jams_before = d.shield().stats().active_jams;
      const std::size_t tx_start =
          d.timeline().sample_position() + d.options().block_size;
      adversary.inject(command, tx_start);
      d.run_for(45e-3);
      ++result.imd_commands_sent;
      const bool jammed = d.shield().stats().active_jams > jams_before;
      if (jammed) {
        ++result.imd_commands_jammed;
        // Turn-around: how long after the adversary's last sample the
        // shield kept jamming (the final jam-end event of this round).
        const double tx_end_s =
            static_cast<double>(tx_start + frame_samples) / fs;
        const auto ends = d.log().filter(sim::EventKind::kJamEnd, "shield");
        for (auto it = ends.rbegin(); it != ends.rend(); ++it) {
          if (it->time_s >= tx_end_s) {
            result.turnaround_us.push_back((it->time_s - tx_end_s) * 1e6);
            break;
          }
        }
      }
      // ...then one radiosonde cross-traffic frame.
      const std::size_t jams_before_cross = d.shield().stats().active_jams;
      radiosonde.send_frame(d.timeline().sample_position() +
                            d.options().block_size);
      d.run_for(45e-3);
      ++result.cross_frames_sent;
      if (d.shield().stats().active_jams > jams_before_cross) {
        ++result.cross_frames_jammed;
      }
    }
  }
  return result;
}

}  // namespace hs::shield
