/// @file
/// Declarative Monte Carlo scenarios for the paper's evaluation grid.
///
/// A Scenario names one experiment family (passive eavesdropping, active
/// command injection, coexistence, calibration, timing, cancellation,
/// spectral profiling, or one of the extension studies), its geometry and
/// ablation toggles, and an optional sweep axis. The campaign runner
/// expands the sweep into points, fans repeated trials over a worker
/// pool, and aggregates per-point statistics. The presets cover every
/// figure and table of the paper's evaluation, its section-6 ablations
/// and section-7 extensions, plus multi-adversary and multi-IMD variants
/// the paper's testbed could not set up. Each preset carries the paper's
/// numbers as claims that campaign_runner prints a verdict for under its
/// summary and test_claims checks. docs/REPRODUCING.md maps presets back
/// to paper figures.
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <string>
#include <string_view>
#include <vector>

#include "imd/profiles.hpp"
#include "shield/experiments.hpp"

namespace hs::campaign {

/// Which experiment family a trial executes.
enum class ExperimentKind {
  kEavesdrop,         ///< passive adversary BER / shield PER (Figs. 8-10)
  kActiveAttack,      ///< unauthorized command injection (Figs. 11-13)
  kCoexistence,       ///< cross-traffic + turn-around (Table 2)
  kPthresh,           ///< alarm-threshold calibration (Table 1)
  kImdTiming,         ///< IMD reply-delay / no-carrier-sense (Fig. 3)
  kCancellation,      ///< antidote cancellation CDF (Fig. 7, ablations)
  kSpectrum,          ///< FSK / jamming power profile (Figs. 4-5)
  kMultipathAntidote, ///< scalar vs FIR antidote under multipath (sec. 5 fn 2)
  kWideband,          ///< 3 MHz whole-band monitor vs hopping (sec. 7(c))
};

/// The parameter a scenario sweeps; each value becomes one campaign point.
enum class SweepAxis {
  kNone,               ///< single point
  kLocation,           ///< testbed location index (1-based)
  kJamMarginDb,        ///< jamming power relative to received IMD power
  kExtraPowerDb,       ///< adversary power above the FCC limit
  kHardwareErrorSigma, ///< antidote analog accuracy
  kAdversaryPowerDbm,  ///< raw adversary TX power (P_thresh sweep)
  kMultipathTapDb,     ///< 2nd H_jam->rec tap strength rel. to the 1st
  kMicsChannel,        ///< MICS channel index the adversary hops to
};

/// The metrics a trial can emit. Indicator metrics (0/1 samples) support
/// Wilson intervals; continuous metrics report mean/stddev/min/max.
enum class Metric {
  kAdversaryBer,
  kShieldPacketLoss,
  kAttackSuccess,
  kAlarm,
  kBatteryMj,
  kCrossTrafficJammed,
  kImdCommandJammed,
  kTurnaroundUs,
  kPthreshSuccess,
  kPthreshRssiDbm,
  kReplyDelayIdleMs,
  kReplyDelayBusyMs,
  kCancellationDb,
  kToneBandFraction,
  kScalarCancellationDb,    ///< flat antidote under multipath
  kMultitapCancellationDb,  ///< FIR-equalizer antidote under multipath
  kWidebandDetect,          ///< hopping command flagged by the monitor
  kWidebandReactionMs,      ///< S_id decision latency into the packet
};

inline constexpr std::size_t kMetricCount = 18;

/// One of the paper's numbers, checked against a campaign result: the
/// mean of `metric` at every covered sweep point must lie in [lo, hi].
/// A covered point with no samples of the metric misses. The bounds come
/// from the paper's wording, never from a simulated run; a claim the
/// simulator misses keeps its bounds and records why in `deviation`.
/// The text fields are literals, so copying a Scenario stays cheap.
struct Claim {
  Metric metric = Metric::kAdversaryBer;
  /// Inclusive axis-value range of the covered points; the defaults
  /// cover every point.
  double axis_lo = -std::numeric_limits<double>::infinity();
  double axis_hi = std::numeric_limits<double>::infinity();
  /// Accepted range of each covered point's mean.
  double lo = 0.0;
  double hi = 0.0;
  /// The paper's value, as the paper states it.
  std::string_view paper;
  /// Why the simulator misses this claim; empty for a claim that holds.
  std::string_view deviation;

  /// True when the claim covers the point at `axis_value`.
  bool covers(double axis_value) const {
    return axis_value >= axis_lo && axis_value <= axis_hi;
  }
};

/// Everything a campaign trial needs, as data. Axis values override the
/// corresponding scalar field at each sweep point.
struct Scenario {
  std::string name;
  std::string paper_ref;
  /// One-line summary for `campaign_runner --list` and the reproduction
  /// manual (docs/REPRODUCING.md).
  std::string description;
  ExperimentKind kind = ExperimentKind::kEavesdrop;

  // -- geometry / devices ---------------------------------------------------
  /// Adversary (or eavesdropper) testbed locations. More than one entry
  /// means simultaneous adversaries: the eavesdrop metric becomes the
  /// per-packet BEST adversary (min BER), the conservative privacy bound.
  std::vector<int> adversary_locations{1};
  /// IMDs protected by the shield. More than one entry means the attack
  /// succeeds if ANY device accepts the command (multi-IMD patient).
  std::vector<imd::ImdProfile> imd_profiles{imd::virtuoso_profile()};
  bool shield_present = true;

  // -- passive-adversary / jamming toggles ----------------------------------
  shield::JamProfile jam_profile = shield::JamProfile::kShaped;
  bool bandpass_attack = false;        ///< shaping ablation decoder
  bool use_margin_override = false;
  double jam_margin_db = 20.0;
  double hardware_error_sigma = 0.0;   ///< <= 0 keeps the shield default

  // -- active-adversary toggles ---------------------------------------------
  shield::AttackKind attack_kind = shield::AttackKind::kTriggerTransmission;
  double extra_power_db = 0.0;

  // -- calibration / spectrum toggles ---------------------------------------
  double adversary_power_dbm = 0.0;    ///< P_thresh point power
  bool spectrum_of_jammer = false;     ///< Fig. 5 (true) vs Fig. 4 (false)

  // -- workload shape --------------------------------------------------------
  /// Packets decoded (eavesdrop) or rounds played (coexistence/P_thresh)
  /// inside one trial. Active-attack trials are always one attempt.
  std::size_t units_per_trial = 1;
  /// Trials per sweep point when the caller does not override.
  std::size_t default_trials = 40;

  // -- sweep -----------------------------------------------------------------
  SweepAxis axis = SweepAxis::kNone;
  std::vector<double> axis_values;     ///< ignored when axis == kNone

  /// The paper's numbers this preset reproduces (see Claim).
  std::vector<Claim> claims;

  /// Number of sweep points (>= 1).
  std::size_t point_count() const {
    return axis == SweepAxis::kNone ? 1 : axis_values.size();
  }

  /// The axis value at a sweep point (0 for single-point scenarios) —
  /// the one definition both the runner and the chunk-stream merge use.
  double axis_value_at(std::size_t point_index) const {
    return axis == SweepAxis::kNone ? 0.0 : axis_values[point_index];
  }
};

/// Stable short name used in CSV/JSON reports.
std::string_view metric_name(Metric metric);

/// Inverse of metric_name (the chunk-stream parser's lookup); returns
/// false when the name matches no metric.
bool metric_from_name(std::string_view name, Metric* out);

/// True for 0/1 indicator metrics (Wilson intervals are meaningful).
bool metric_is_indicator(Metric metric);

/// Metrics the given experiment family emits, in report order.
const std::vector<Metric>& metrics_for(ExperimentKind kind);

/// Stable short name of the experiment family ("eavesdrop",
/// "active_attack", ...) — used by `campaign_runner --list --json` so
/// tools consume the preset list without scraping the human listing.
std::string_view experiment_kind_name(ExperimentKind kind);

/// True when trials of this kind stand up shield::Deployments (and can
/// therefore benefit from — and be checked against — warm-state
/// snapshots). Spectrum/wideband/multipath trials run pure DSP instead.
bool experiment_uses_deployments(ExperimentKind kind);

/// Human-readable axis label for reports ("location", "jam margin (dB)"...).
std::string_view axis_name(SweepAxis axis);

/// All named scenario presets: one or more per paper figure and table,
/// the section-6 ablations, the section-7 extensions, and the
/// multi-adversary / multi-IMD variants.
const std::vector<Scenario>& scenario_presets();

/// Looks up a preset by name; nullptr when unknown.
const Scenario* find_scenario(std::string_view name);

}  // namespace hs::campaign
