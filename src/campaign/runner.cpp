#include "campaign/runner.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <optional>
#include <string>
#include <thread>

#include "dsp/correlate.hpp"
#include "dsp/rng.hpp"
#include "dsp/spectrum.hpp"
#include "dsp/units.hpp"
#include "imd/programmer.hpp"
#include "imd/protocol.hpp"
#include "mics/band.hpp"
#include "mics/channelizer.hpp"
#include "obs/metrics.hpp"
#include "phy/frame.hpp"
#include "phy/fsk.hpp"
#include "shield/antidote.hpp"
#include "shield/calibrate.hpp"
#include "shield/deployment.hpp"
#include "shield/experiments.hpp"
#include "shield/jamgen.hpp"
#include "shield/multitap_antidote.hpp"
#include "shield/trial_context.hpp"
#include "shield/wideband.hpp"

namespace hs::campaign {

namespace {

using dsp::Samples;

void emit(std::vector<TrialSample>& out, Metric metric, double value) {
  out.push_back(TrialSample{metric, value});
}

/// Emits `successes` ones and `total - successes` zeros so indicator
/// metrics aggregate to per-unit Bernoulli streams.
void emit_indicator(std::vector<TrialSample>& out, Metric metric,
                    std::size_t successes, std::size_t total) {
  for (std::size_t i = 0; i < total; ++i) {
    emit(out, metric, i < successes ? 1.0 : 0.0);
  }
}

int axis_location(const Scenario& s, double axis_value) {
  if (s.axis == SweepAxis::kLocation) return static_cast<int>(axis_value);
  return s.adversary_locations.empty() ? 1 : s.adversary_locations.front();
}

std::vector<TrialSample> run_eavesdrop_trial(const Scenario& s,
                                             double axis_value,
                                             std::uint64_t seed,
                                             shield::TrialContext& pool) {
  std::vector<TrialSample> out;
  std::vector<int> locations = s.adversary_locations;
  if (s.axis == SweepAxis::kLocation) {
    locations = {static_cast<int>(axis_value)};
  }

  // Simultaneous eavesdroppers observe the SAME transmissions (same trial
  // seed), each from its own vantage point; the privacy metric is the
  // per-packet best adversary (elementwise min BER).
  std::vector<double> best_ber;
  double packet_loss = 0.0;
  for (std::size_t a = 0; a < locations.size(); ++a) {
    shield::EavesdropOptions opt;
    opt.seed = seed;
    opt.location_index = locations[a];
    opt.packets = s.units_per_trial;
    opt.jam_profile = s.jam_profile;
    opt.bandpass_attack = s.bandpass_attack;
    opt.shield_present = s.shield_present;
    opt.use_margin_override = s.use_margin_override;
    opt.jam_margin_db = s.axis == SweepAxis::kJamMarginDb
                            ? axis_value
                            : s.jam_margin_db;
    opt.hardware_error_sigma = s.axis == SweepAxis::kHardwareErrorSigma
                                   ? axis_value
                                   : s.hardware_error_sigma;
    const auto result = shield::run_eavesdrop_experiment(opt, &pool);
    if (a == 0) {
      best_ber = result.eavesdropper_ber;
      packet_loss = result.shield_packet_loss();
    } else {
      const std::size_t n =
          std::min(best_ber.size(), result.eavesdropper_ber.size());
      for (std::size_t i = 0; i < n; ++i) {
        best_ber[i] = std::min(best_ber[i], result.eavesdropper_ber[i]);
      }
    }
  }
  for (double ber : best_ber) emit(out, Metric::kAdversaryBer, ber);
  emit(out, Metric::kShieldPacketLoss, packet_loss);
  return out;
}

std::vector<TrialSample> run_attack_trial(const Scenario& s,
                                          double axis_value,
                                          std::uint64_t seed,
                                          shield::TrialContext& pool) {
  std::vector<TrialSample> out;
  bool success = false;
  bool alarm = false;
  double battery_mj = 0.0;
  for (std::size_t i = 0; i < s.imd_profiles.size(); ++i) {
    shield::AttackOptions opt;
    // Per-device substream: a two-IMD patient is two physical downlinks.
    char sub[32];
    std::snprintf(sub, sizeof sub, "imd-%zu", i);
    opt.seed = dsp::derive_seed(seed, sub);
    opt.imd_profile = s.imd_profiles[i];
    opt.location_index = axis_location(s, axis_value);
    opt.trials = 1;
    opt.shield_present = s.shield_present;
    opt.extra_power_db = s.axis == SweepAxis::kExtraPowerDb
                             ? axis_value
                             : s.extra_power_db;
    opt.kind = s.attack_kind;
    const auto result = shield::run_attack_experiment(opt, &pool);
    success = success || result.successes > 0;
    alarm = alarm || result.alarms > 0;
    battery_mj += result.battery_energy_spent_mj;
  }
  emit(out, Metric::kAttackSuccess, success ? 1.0 : 0.0);
  emit(out, Metric::kAlarm, alarm ? 1.0 : 0.0);
  emit(out, Metric::kBatteryMj, battery_mj);
  return out;
}

std::vector<TrialSample> run_coexistence_trial(const Scenario& s,
                                               double axis_value,
                                               std::uint64_t seed,
                                               shield::TrialContext& pool) {
  std::vector<TrialSample> out;
  shield::CoexistenceOptions opt;
  opt.seed = seed;
  opt.location_indices = {axis_location(s, axis_value)};
  opt.rounds_per_location = s.units_per_trial;
  const auto result = shield::run_coexistence_experiment(opt, &pool);
  emit_indicator(out, Metric::kCrossTrafficJammed,
                 result.cross_frames_jammed, result.cross_frames_sent);
  emit_indicator(out, Metric::kImdCommandJammed,
                 result.imd_commands_jammed, result.imd_commands_sent);
  for (double us : result.turnaround_us) {
    emit(out, Metric::kTurnaroundUs, us);
  }
  return out;
}

std::vector<TrialSample> run_pthresh_trial(const Scenario& s,
                                           double axis_value,
                                           std::uint64_t seed,
                                           shield::TrialContext& pool) {
  std::vector<TrialSample> out;
  const double power_dbm = s.axis == SweepAxis::kAdversaryPowerDbm
                               ? axis_value
                               : s.adversary_power_dbm;
  const int location =
      s.adversary_locations.empty() ? 1 : s.adversary_locations.front();
  const auto result = shield::measure_pthresh(
      seed, location, power_dbm, power_dbm, 1.0, s.units_per_trial, &pool);
  emit_indicator(out, Metric::kPthreshSuccess, result.successes,
                 s.units_per_trial);
  for (double rssi : result.success_rssi_dbm) {
    emit(out, Metric::kPthreshRssiDbm, rssi);
  }
  return out;
}

/// Fig. 3 methodology: command the IMD and measure the reply delay, with
/// the medium idle and with a second frame keeping it busy through the
/// reply window. Returns seconds, or a negative value if the IMD stayed
/// silent.
double measure_reply_delay(const Scenario& s, std::uint64_t seed,
                           bool occupy_medium,
                           shield::TrialContext& pool) {
  shield::DeploymentOptions opt;
  opt.seed = seed;
  opt.imd_profile = s.imd_profiles.empty() ? imd::virtuoso_profile()
                                           : s.imd_profiles.front();
  opt.shield_present = false;  // raw IMD/programmer interaction
  shield::Deployment& d = pool.deployment(opt);

  imd::ProgrammerConfig pcfg;
  pcfg.fsk = opt.imd_profile.fsk;
  imd::ProgrammerNode& programmer = pool.programmer(pcfg);
  d.run_for(1e-3);

  const double fs = opt.imd_profile.fsk.fs;
  const std::size_t start =
      d.timeline().sample_position() + d.options().block_size;
  const auto command = imd::make_interrogate(opt.imd_profile.serial, 1);
  programmer.send_at(command, start);
  const std::size_t cmd_samples =
      phy::encode_frame(command).size() * opt.imd_profile.fsk.sps;
  const std::size_t cmd_end = start + cmd_samples;

  if (occupy_medium) {
    phy::Frame other;
    other.device_id = {9, 9, 9, 9, 9, 9, 9, 9, 9, 9};
    other.type = 0x7F;
    other.payload.assign(40, 0x55);
    programmer.send_at(other,
                       cmd_end + static_cast<std::size_t>(1e-3 * fs));
  }
  d.run_for(60e-3);

  if (d.imd().stats().replies_sent == 0) return -1.0;
  const double reply_start_s =
      static_cast<double>(d.imd().last_tx_start_sample()) / fs;
  return reply_start_s - static_cast<double>(cmd_end) / fs;
}

std::vector<TrialSample> run_timing_trial(const Scenario& s,
                                          std::uint64_t seed,
                                          shield::TrialContext& pool) {
  std::vector<TrialSample> out;
  const double idle = measure_reply_delay(s, seed, false, pool);
  const double busy = measure_reply_delay(s, seed, true, pool);
  if (idle > 0) emit(out, Metric::kReplyDelayIdleMs, idle * 1e3);
  if (busy > 0) emit(out, Metric::kReplyDelayBusyMs, busy * 1e3);
  return out;
}

std::vector<TrialSample> run_cancellation_trial(const Scenario& s,
                                                double axis_value,
                                                std::uint64_t seed,
                                                shield::TrialContext& pool) {
  std::vector<TrialSample> out;
  shield::DeploymentOptions opt;
  opt.seed = seed;
  if (s.axis == SweepAxis::kHardwareErrorSigma) {
    opt.shield_config.hardware_error_sigma = axis_value;
  } else if (s.hardware_error_sigma > 0.0) {
    opt.shield_config.hardware_error_sigma = s.hardware_error_sigma;
  }
  shield::Deployment& d = pool.deployment(opt);
  emit(out, Metric::kCancellationDb, shield::measure_cancellation_db(d));
  return out;
}

/// Section 5 footnote 2 extension: how the scalar antidote collapses, and
/// a 64-tap FIR equalizer holds, as the jam->rec coupling grows a second
/// multipath tap `axis_value` dB below the first.
Samples convolve(dsp::SampleView h, dsp::SampleView x) {
  Samples y(x.size(), dsp::cplx{});
  for (std::size_t n = 0; n < x.size(); ++n) {
    for (std::size_t k = 0; k < h.size() && k <= n; ++k) {
      y[n] += h[k] * x[n - k];
    }
  }
  return y;
}

double multipath_cancellation_db(dsp::SampleView hjr, dsp::SampleView hself,
                                 dsp::SampleView jam,
                                 dsp::SampleView antidote) {
  const auto air = convolve(hjr, jam);
  const auto wire = convolve(hself, antidote);
  double jam_power = 0, residual = 0;
  for (std::size_t n = 128; n < air.size(); ++n) {
    jam_power += std::norm(air[n]);
    residual += std::norm(air[n] + wire[n]);
  }
  return 10.0 * std::log10(jam_power / std::max(residual, 1e-30));
}

std::vector<TrialSample> run_multipath_trial(const Scenario& s,
                                             double axis_value,
                                             std::uint64_t seed,
                                             shield::TrialContext& pool) {
  std::vector<TrialSample> out;
  (void)s;
  dsp::Rng rng(seed);
  Samples probe(1024);
  for (auto& x : probe) x = rng.random_phase();
  const Samples hself = {dsp::cplx{0.7, 0.0}};

  phy::FskParams fsk;
  shield::JammingSignalGenerator& gen =
      pool.jamgen(fsk, shield::JamProfile::kShaped, seed);
  gen.set_power(1.0);
  const auto jam = gen.next(1 << 14);

  const double mag = 0.03 * std::pow(10.0, axis_value / 20.0);
  const Samples hjr = {dsp::cplx{0.03, 0.0}, dsp::cplx{0.0, mag}};

  shield::AntidoteController flat(0.0, seed);
  flat.update_jam_channel(
      dsp::estimate_flat_channel(convolve(hjr, probe), probe));
  flat.update_self_channel(
      dsp::estimate_flat_channel(convolve(hself, probe), probe));
  Samples flat_x(jam.size());
  const dsp::cplx coeff = flat.antidote_coefficient();
  for (std::size_t i = 0; i < jam.size(); ++i) flat_x[i] = coeff * jam[i];

  shield::MultitapAntidote multitap(4, 64);
  multitap.update_jam_channel(convolve(hjr, probe), probe);
  multitap.update_self_channel(convolve(hself, probe), probe);
  const auto fir_x = multitap.antidote_for(jam);

  emit(out, Metric::kScalarCancellationDb,
       multipath_cancellation_db(hjr, hself, jam, flat_x));
  emit(out, Metric::kMultitapCancellationDb,
       multipath_cancellation_db(hjr, hself, jam, fir_x));
  return out;
}

/// Section 7(c) extension: an adversary hops its command to the MICS
/// channel `axis_value`; the 3 MHz whole-band monitor must flag it, and
/// the reaction point (ms into the packet) bounds how much of the packet
/// remains jammable.
std::vector<TrialSample> run_wideband_trial(const Scenario& s,
                                            double axis_value,
                                            std::uint64_t seed) {
  std::vector<TrialSample> out;
  const auto profile = s.imd_profiles.empty() ? imd::virtuoso_profile()
                                              : s.imd_profiles.front();
  const std::size_t channel = static_cast<std::size_t>(axis_value);
  const auto cmd = imd::make_interrogate(profile.serial, 1);
  const auto wave = phy::fsk_modulate(profile.fsk, phy::encode_frame(cmd));

  shield::WidebandMonitor monitor(profile.serial, profile.fsk);
  dsp::Samples baseband(2400 + wave.size() + 1200, dsp::cplx{});
  const double amp = dsp::db_to_amplitude(-45.0);
  for (std::size_t i = 0; i < wave.size(); ++i) {
    baseband[2400 + i] = amp * wave[i];
  }
  mics::ChannelSynthesizer synth;
  dsp::Samples wideband(baseband.size() * mics::kDecimation, dsp::cplx{});
  synth.process(channel, baseband, wideband);
  dsp::Rng rng(seed, "wideband-noise");
  for (auto& x : wideband) x += rng.cgaussian(dsp::dbm_to_mw(-112.0));

  // Stream block-wise; note when the jam decision fires. The packet
  // starts at wideband sample 2400 * kDecimation.
  bool detected = false;
  for (std::size_t i = 0; i < wideband.size() && !detected; i += 480) {
    const std::size_t n = std::min<std::size_t>(480, wideband.size() - i);
    monitor.push(dsp::SampleView(wideband.data() + i, n));
    if (monitor.any_match()) {
      detected = true;
      const double reaction_s =
          (static_cast<double>(i + n) -
           static_cast<double>(2400 * mics::kDecimation)) /
          mics::kWidebandFs;
      emit(out, Metric::kWidebandReactionMs, reaction_s * 1e3);
    }
  }
  emit(out, Metric::kWidebandDetect, detected ? 1.0 : 0.0);
  return out;
}

std::vector<TrialSample> run_spectrum_trial(const Scenario& s,
                                            std::uint64_t seed) {
  std::vector<TrialSample> out;
  const auto profile = s.imd_profiles.empty() ? imd::virtuoso_profile()
                                              : s.imd_profiles.front();
  dsp::PsdEstimate psd;
  if (s.spectrum_of_jammer) {
    shield::JammingSignalGenerator gen(profile.fsk, s.jam_profile, seed);
    gen.set_power(1.0);
    const auto wave = gen.next(1 << 14);
    dsp::WelchOptions wopt;
    wopt.segment_size = 128;
    psd = dsp::welch_psd(wave, profile.fsk.fs, wopt);
  } else {
    dsp::Rng rng(seed, "spectrum-payload");
    phy::BitVec bits;
    for (int f = 0; f < 8; ++f) {
      phy::Frame frame;
      frame.device_id = profile.serial;
      frame.type = 0x81;
      frame.seq = static_cast<std::uint8_t>(f);
      frame.payload.resize(profile.data_chunk_bytes);
      for (auto& b : frame.payload) {
        b = static_cast<std::uint8_t>(rng.next_u64());
      }
      const auto fb = phy::encode_frame(frame);
      bits.insert(bits.end(), fb.begin(), fb.end());
    }
    const auto wave = phy::fsk_modulate(profile.fsk, bits);
    dsp::WelchOptions wopt;
    wopt.segment_size = 256;
    psd = dsp::welch_psd(wave, profile.fsk.fs, wopt);
  }
  const double in_band = dsp::psd_band_power(psd, -65e3, -35e3) +
                         dsp::psd_band_power(psd, 35e3, 65e3);
  const double total = dsp::psd_band_power(psd, -150e3, 150e3);
  emit(out, Metric::kToneBandFraction, total > 0.0 ? in_band / total : 0.0);
  return out;
}

}  // namespace

std::uint64_t trial_seed(std::uint64_t campaign_seed,
                         std::string_view scenario_name,
                         std::size_t point_index, std::size_t trial_index) {
  char sub[48];
  std::snprintf(sub, sizeof sub, "point-%zu/trial-%zu", point_index,
                trial_index);
  return dsp::derive_seed(dsp::derive_seed(campaign_seed, scenario_name),
                          sub);
}

std::uint64_t campaign_warmup_seed(std::uint64_t campaign_seed,
                                   std::string_view scenario_name) {
  const std::uint64_t seed = dsp::derive_seed(
      dsp::derive_seed(campaign_seed, scenario_name), "warm-up");
  // 0 means "legacy single-phase" to DeploymentOptions; dodge the one
  // colliding value rather than silently changing seeding semantics.
  return seed != 0 ? seed : 1;
}

std::vector<TrialSample> run_trial(const Scenario& scenario,
                                   std::size_t point_index,
                                   double axis_value, std::uint64_t seed,
                                   shield::TrialContext* context) {
  (void)point_index;
  shield::TrialContext scratch;
  shield::TrialContext& pool = context != nullptr ? *context : scratch;
  switch (scenario.kind) {
    case ExperimentKind::kEavesdrop:
      return run_eavesdrop_trial(scenario, axis_value, seed, pool);
    case ExperimentKind::kActiveAttack:
      return run_attack_trial(scenario, axis_value, seed, pool);
    case ExperimentKind::kCoexistence:
      return run_coexistence_trial(scenario, axis_value, seed, pool);
    case ExperimentKind::kPthresh:
      return run_pthresh_trial(scenario, axis_value, seed, pool);
    case ExperimentKind::kImdTiming:
      return run_timing_trial(scenario, seed, pool);
    case ExperimentKind::kCancellation:
      return run_cancellation_trial(scenario, axis_value, seed, pool);
    case ExperimentKind::kSpectrum:
      return run_spectrum_trial(scenario, seed);
    case ExperimentKind::kMultipathAntidote:
      return run_multipath_trial(scenario, axis_value, seed, pool);
    case ExperimentKind::kWideband:
      return run_wideband_trial(scenario, axis_value, seed);
  }
  return {};
}

ChunkMetrics run_chunk(const Scenario& scenario, std::uint64_t campaign_seed,
                       const ChunkRef& chunk, shield::TrialContext* context,
                       std::uint64_t warmup_seed,
                       snapshot::SnapshotCache* cache) {
  ChunkMetrics metrics{};
  // Re-applying the warm policy is idempotent for a dedicated worker
  // context and required for a shared one: a service worker runs chunks
  // of different campaigns back to back, each with its own warm seed.
  context->set_warm_policy(warmup_seed, cache);
  const double axis_value = scenario.axis_value_at(chunk.point_index);
  for (std::size_t t = chunk.trial_begin; t < chunk.trial_end; ++t) {
    const std::uint64_t seed =
        trial_seed(campaign_seed, scenario.name, chunk.point_index, t);
    std::vector<TrialSample> samples;
    {
      obs::ScopedTimer trial_timer(obs::Phase::kTrial);
      samples =
          run_trial(scenario, chunk.point_index, axis_value, seed, context);
    }
    obs::count(obs::Counter::kTrials);
    obs::ScopedTimer merge_timer(obs::Phase::kStatsMerge);
    for (const auto& sample : samples) {
      metrics[static_cast<std::size_t>(sample.metric)].add(sample.value);
    }
  }
  return metrics;
}

CampaignResult fold_chunks(const Scenario& scenario,
                           const CampaignOptions& options,
                           const ShardPlan& plan,
                           const std::vector<ChunkMetrics>& chunk_metrics) {
  CampaignResult result;
  result.scenario = scenario;
  result.options = options;
  result.points.resize(plan.point_count);
  for (std::size_t p = 0; p < plan.point_count; ++p) {
    result.points[p].point_index = p;
    result.points[p].axis_value = scenario.axis_value_at(p);
  }
  for (std::size_t c = 0; c < plan.chunks.size(); ++c) {
    auto& point = result.points[plan.chunks[c].point_index];
    for (std::size_t m = 0; m < kMetricCount; ++m) {
      point.metrics[m].merge(chunk_metrics[c][m]);
    }
  }
  result.total_trials = plan.point_count * plan.trials_per_point;
  return result;
}

ShardExecution run_campaign_chunks(const Scenario& scenario,
                                   const CampaignOptions& options,
                                   ShardPlan plan) {
  ShardExecution exec;
  exec.plan = std::move(plan);
  const std::vector<ChunkRef>& chunks = exec.plan.chunks;
  // Chunk-local accumulators: workers never share one, and the
  // deterministic chunk ids (not the thread schedule) define the final
  // merge order.
  exec.chunk_metrics.resize(chunks.size());

  unsigned thread_count = options.threads > 0
                              ? options.threads
                              : std::max(1u, std::thread::hardware_concurrency());
  thread_count = std::min<unsigned>(
      thread_count, static_cast<unsigned>(std::max<std::size_t>(
                        chunks.size(), 1)));
  exec.threads = thread_count;

  // Two-phase seeding is unconditional for campaign trials: warm-up
  // streams draw from the shared campaign warm-up seed, trial streams
  // from the per-trial seed.
  const std::uint64_t warm_seed =
      campaign_warmup_seed(options.seed, scenario.name);

  // Shared observability sink: workers accumulate counters (and, with
  // CampaignOptions::metrics_timers, phase timers) into thread-local
  // blocks and fold them in here only at chunk boundaries — the merge
  // never synchronizes inside a trial and never touches RNG streams.
  obs::MetricsRegistry registry(options.metrics_timers);
  const bool tracing = options.trace != nullptr;

  // The chunk cursor: each worker claims the next unclaimed index into
  // `chunks` until the list runs out.
  std::atomic<std::size_t> next_chunk{0};
  const auto worker = [&](unsigned self) {
    obs::WorkerScope oscope(&registry, options.trace,
                            "worker-" + std::to_string(self));
    // One trial-context pool per worker: deployments and experiment nodes
    // are reset-and-reseeded between this worker's trials instead of
    // reconstructed (bit-identical either way; see trial_context.hpp).
    // run_chunk applies the warm policy on every chunk.
    shield::TrialContext pool;
    for (;;) {
      std::size_t c = 0;
      {
        obs::ScopedTimer acquire(obs::Phase::kChunkAcquire);
        c = next_chunk.fetch_add(1);
      }
      if (c >= chunks.size()) break;
      const ChunkRef& chunk = chunks[c];
      {
        std::optional<obs::TraceSpan> chunk_span;
        if (tracing) {
          char args[96];
          std::snprintf(args, sizeof args,
                        "{\"chunk\":%zu,\"point\":%zu,\"trials\":%zu}",
                        chunk.chunk_index, chunk.point_index,
                        chunk.trial_end - chunk.trial_begin);
          chunk_span.emplace("chunk",
                             "chunk " + std::to_string(chunk.chunk_index),
                             std::string(args));
        }
        exec.chunk_metrics[c] = run_chunk(scenario, options.seed, chunk,
                                          &pool, warm_seed, nullptr);
      }
      obs::count(obs::Counter::kChunks);
      oscope.flush();  // chunk boundary: fold the thread block + spans
      if (options.chunks_completed != nullptr) {
        options.chunks_completed->fetch_add(1, std::memory_order_relaxed);
      }
    }
  };

  // steady_clock here is allowlisted in LINT.toml (steady-clock-scope):
  // it measures wall_seconds for the perf report only — never a trial,
  // and --canonical zeroes it out of byte-compared output.
  const auto t0 = std::chrono::steady_clock::now();
  if (thread_count <= 1) {
    worker(0);
  } else {
    std::vector<std::thread> pool;
    pool.reserve(thread_count);
    for (unsigned i = 0; i < thread_count; ++i) {
      pool.emplace_back(worker, i);
    }
    for (auto& th : pool) th.join();
  }
  const auto t1 = std::chrono::steady_clock::now();
  exec.wall_seconds = std::chrono::duration<double>(t1 - t0).count();
  exec.metrics = registry.report();
  return exec;
}

ShardExecution run_campaign_shard(const Scenario& scenario,
                                  const CampaignOptions& options,
                                  std::size_t shard_count,
                                  std::size_t shard_index) {
  return run_campaign_chunks(
      scenario, options, plan_shard(scenario, options, shard_count, shard_index));
}

CampaignResult run_campaign(const Scenario& scenario,
                            const CampaignOptions& options) {
  ShardExecution exec = run_campaign_shard(scenario, options, 1, 0);
  // The fold is timed through its own scope so --metrics-json attributes
  // it to stats_merge alongside the in-worker accumulation.
  obs::MetricsRegistry fold_registry(options.metrics_timers);
  CampaignResult result;
  {
    obs::WorkerScope fold_scope(&fold_registry, nullptr, "merge");
    {
      obs::ScopedTimer fold_timer(obs::Phase::kStatsMerge);
      result = fold_chunks(scenario, options, exec.plan, exec.chunk_metrics);
    }
    fold_scope.flush();
  }
  result.options.threads = exec.threads;
  result.wall_seconds = exec.wall_seconds;
  result.metrics = exec.metrics;
  result.metrics.merge(fold_registry.report());
  return result;
}

}  // namespace hs::campaign
