#include "shield/deployment.hpp"

#include "channel/geometry.hpp"
#include "obs/metrics.hpp"
#include "snapshot/state_io.hpp"

namespace hs::shield {

namespace {

/// Seed every construction/warm-up stream draws from. In two-phase mode
/// (warmup_seed != 0) this is the warm-up seed — shared by every trial of
/// a campaign point — and begin_trial() moves the per-trial streams onto
/// the trial seed afterwards.
std::uint64_t build_seed_for(const DeploymentOptions& options) {
  return options.warmup_seed != 0 ? options.warmup_seed : options.seed;
}

ShieldConfig shield_config_for(const DeploymentOptions& options) {
  ShieldConfig cfg = options.shield_config;
  cfg.protected_id = options.imd_profile.serial;
  cfg.fsk = options.imd_profile.fsk;
  return cfg;
}

adversary::MonitorConfig observer_config_for(const DeploymentOptions& options) {
  adversary::MonitorConfig mcfg;
  mcfg.name = "observer";
  mcfg.position = channel::kImdPosition;
  mcfg.body_loss_db = options.imd_profile.body_loss_db;
  mcfg.fsk = options.imd_profile.fsk;
  return mcfg;
}

}  // namespace

Deployment::Deployment(const DeploymentOptions& options) { reset(options); }

bool Deployment::can_reset_to(const DeploymentOptions& options) const {
  return options.shield_present == (shield_ != nullptr) &&
         options.with_observer == (observer_ != nullptr);
}

void Deployment::reset(const DeploymentOptions& options) {
  // Every step that draws randomness or registers an antenna runs in
  // this one order, whether it builds a node or resets it.
  options_ = options;
  const std::uint64_t seed = build_seed_for(options_);
  channel::Medium& medium =
      construct_or_reset(medium_, options_.imd_profile.fsk.fs,
                         options_.block_size, seed, options_.budget);
  if (timeline_ == nullptr) {
    timeline_ = std::make_unique<sim::Timeline>(medium);
  }
  timeline_->reset();
  sim::EventLog* log = &timeline_->log();

  imd::ImdDevice& imd =
      construct_or_reset(imd_, options_.imd_profile, medium, log, seed);
  timeline_->add_node(&imd);
  if (options_.shield_present) {
    ShieldNode& shield = construct_or_reset(
        shield_, shield_config_for(options_), medium, log, seed);
    timeline_->add_node(&shield);
    // The necklace's antennas face outward, away from the chest: extra
    // attenuation from the shield toward the IMD (calibrated vs Table 1).
    medium.add_pair_loss(shield.jam_antenna(), imd.antenna(),
                         channel::kShieldToImdDirectivityLossDb);
    medium.add_pair_loss(shield.rx_antenna(), imd.antenna(),
                         channel::kShieldToImdDirectivityLossDb);
  }
  if (options_.with_observer) {
    timeline_->add_node(
        &construct_or_reset(observer_, observer_config_for(options_), medium));
  }

  if (options_.warmup_s > 0.0) {
    obs::ScopedTimer timer(obs::Phase::kWarmup);
    obs::TraceSpan span("deploy", "warmup");
    timeline_->run_for(options_.warmup_s);
  }
  begin_trial(options_.seed);
}

void Deployment::begin_trial(std::uint64_t trial_seed) {
  if (options_.warmup_seed == 0) return;  // legacy single-phase seeding
  medium_->reseed_trial(trial_seed);
  imd_->reseed(trial_seed);
  if (shield_ != nullptr) shield_->reseed(trial_seed);
}

std::string Deployment::save_warm() const {
  snapshot::StateWriter w;
  w.begin("deployment");
  w.str("key", deployment_warm_key(options_));
  medium_->save_state(w);
  timeline_->save_state(w);
  imd_->save_state(w);
  w.boolean("shield", shield_ != nullptr);
  if (shield_ != nullptr) shield_->save_state(w);
  w.boolean("observer", observer_ != nullptr);
  if (observer_ != nullptr) observer_->save_state(w);
  w.end("deployment");
  return w.finish();
}

std::string deployment_warm_key(const DeploymentOptions& o) {
  // Serialize through the StateWriter so doubles digest by exact bits
  // (hex-float), never by rounded decimal text.
  snapshot::StateWriter w;
  w.begin("warm-key");
  // In two-phase mode the trial seed is excluded on purpose: the
  // post-warm-up state is a pure function of configuration + warmup_seed,
  // so one key covers every trial of a campaign point. In legacy
  // single-phase mode warm-up consumed the trial seed, so it keys.
  w.u64("seed", o.warmup_seed != 0 ? 0 : o.seed);
  w.u64("warmup_seed", o.warmup_seed);
  const imd::ImdProfile& p = o.imd_profile;
  w.str("imd.model", p.model_name);
  w.bytes("imd.serial", p.serial.data(), p.serial.size());
  w.f64("imd.fsk.fs", p.fsk.fs);
  w.u64("imd.fsk.sps", p.fsk.sps);
  w.f64("imd.fsk.f0", p.fsk.f0);
  w.f64("imd.fsk.f1", p.fsk.f1);
  w.f64("imd.reply_delay_mean_s", p.reply_delay_mean_s);
  w.f64("imd.reply_delay_jitter_s", p.reply_delay_jitter_s);
  w.f64("imd.max_packet_duration_s", p.max_packet_duration_s);
  w.f64("imd.tx_power_dbm", p.tx_power_dbm);
  w.f64("imd.body_loss_db", p.body_loss_db);
  w.f64("imd.sensitivity_dbm", p.sensitivity_dbm);
  w.u64("imd.data_chunk_bytes", p.data_chunk_bytes);
  w.boolean("shield_present", o.shield_present);
  w.boolean("with_observer", o.with_observer);
  w.u64("block_size", o.block_size);
  const channel::LinkBudgetConfig& b = o.budget;
  w.f64("budget.carrier_hz", b.pathloss.carrier_hz);
  w.f64("budget.exponent", b.pathloss.exponent);
  w.f64("budget.wall_loss_db", b.pathloss.wall_loss_db);
  w.f64("budget.reference_m", b.pathloss.reference_m);
  w.f64("budget.min_distance_m", b.pathloss.min_distance_m);
  w.f64("budget.noise_floor_dbm", b.noise_floor_dbm);
  w.f64("budget.fcc_limit_dbm", b.fcc_limit_dbm);
  w.f64("budget.shadowing_sigma_db", b.shadowing_sigma_db);
  w.f64("budget.shadowing_min_distance_m", b.shadowing_min_distance_m);
  const ShieldConfig& c = o.shield_config;
  w.bytes("cfg.protected_id", c.protected_id.data(), c.protected_id.size());
  w.f64("cfg.fsk.fs", c.fsk.fs);
  w.u64("cfg.fsk.sps", c.fsk.sps);
  w.f64("cfg.fsk.f0", c.fsk.f0);
  w.f64("cfg.fsk.f1", c.fsk.f1);
  w.f64("cfg.t1_s", c.t1_s);
  w.f64("cfg.t2_s", c.t2_s);
  w.f64("cfg.max_packet_s", c.max_packet_s);
  w.f64("cfg.max_tx_power_dbm", c.max_tx_power_dbm);
  w.f64("cfg.jam_margin_db", c.jam_margin_db);
  w.f64("cfg.initial_imd_rssi_dbm", c.initial_imd_rssi_dbm);
  w.boolean("cfg.enable_active_protection", c.enable_active_protection);
  w.u64("cfg.bthresh", c.bthresh);
  w.f64("cfg.pthresh_dbm", c.pthresh_dbm);
  w.boolean("cfg.alarm_enabled", c.alarm_enabled);
  w.u64("cfg.min_active_jam_blocks", c.min_active_jam_blocks);
  w.u64("cfg.idle_confirm_blocks", c.idle_confirm_blocks);
  w.f64("cfg.idle_factor", c.idle_factor);
  w.f64("cfg.nominal_cancellation_db", c.nominal_cancellation_db);
  w.boolean("cfg.enable_passive_jamming", c.enable_passive_jamming);
  w.f64("cfg.probe_interval_s", c.probe_interval_s);
  w.f64("cfg.probe_power_dbm", c.probe_power_dbm);
  w.u64("cfg.probe_length", c.probe_length);
  w.f64("cfg.hardware_error_sigma", c.hardware_error_sigma);
  w.f64("cfg.self_coupling_db", c.self_coupling_db);
  w.f64("cfg.jam_rec_coupling_db", c.jam_rec_coupling_db);
  w.u64("cfg.jam_profile", static_cast<std::uint64_t>(c.jam_profile));
  w.u64("cfg.jam_fft_size", c.jam_fft_size);
  w.f64("warmup_s", o.warmup_s);
  w.end("warm-key");
  return snapshot::sha256_hex(w.finish());
}

}  // namespace hs::shield
