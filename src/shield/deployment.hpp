/// @file
/// Standard experiment scenario builder: medium + timeline + IMD + shield
/// (+ optional observer), wired exactly like the paper's Fig. 6 testbed.
/// All presets, examples and integration tests build on this, either
/// directly or through the campaign engine's trial-context pool, which
/// reset-and-reseeds one Deployment across trials (see reset()).
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>

#include "adversary/monitor.hpp"
#include "channel/medium.hpp"
#include "imd/device.hpp"
#include "imd/profiles.hpp"
#include "shield/config.hpp"
#include "shield/shield.hpp"
#include "sim/timeline.hpp"

namespace hs::shield {

struct DeploymentOptions {
  std::uint64_t seed = 1;
  /// Two-phase seeding. When nonzero, construction and warm-up draw
  /// every stream from THIS seed, and the per-trial streams are reseeded
  /// from `seed` afterwards (see Deployment::begin_trial) — so the
  /// post-warmup state is a pure function of the configuration +
  /// warmup_seed, shared by every trial and worker of a campaign. Zero
  /// keeps the single-phase legacy behavior: everything draws from
  /// `seed`, no post-warmup reseed (existing tests and examples are
  /// bit-for-bit unchanged).
  std::uint64_t warmup_seed = 0;
  imd::ImdProfile imd_profile = imd::virtuoso_profile();
  bool shield_present = true;
  /// Place a zero-loss observer next to the IMD (the "USRP observer
  /// sandwiched between the two slabs of meat" of section 10.3) that
  /// records whether the IMD transmitted.
  bool with_observer = false;
  std::size_t block_size = 48;  ///< 160 us at 300 kHz
  channel::LinkBudgetConfig budget{};
  /// Overrides applied to the shield's config (protected_id and fsk are
  /// always taken from the IMD profile).
  ShieldConfig shield_config{};
  /// Seconds of warm-up simulated at construction so the shield has
  /// estimated its channels before the experiment starts.
  double warmup_s = 5e-3;
};

class Deployment {
 public:
  explicit Deployment(const DeploymentOptions& options);

  /// True when this deployment's node set can be re-seeded into the state
  /// a fresh `Deployment(options)` would have: the set of allocated nodes
  /// (shield, observer) must match; everything else — seed, profile,
  /// shield config, link budget — is replayed by reset().
  bool can_reset_to(const DeploymentOptions& options) const;

  /// Re-seeds the deployment in place: the medium forgets all antennas
  /// and draws, every node resets and re-registers in construction order,
  /// and the warm-up re-runs. The result is bit-identical to a freshly
  /// constructed `Deployment(options)` (asserted by the campaign trial-
  /// pool determinism test) while skipping the expensive construction
  /// work. Caller must have checked can_reset_to(). Extra caller-built
  /// nodes registered via add_node() are forgotten — re-add (reset) them
  /// after this returns, exactly as after fresh construction.
  void reset(const DeploymentOptions& options);

  channel::Medium& medium() { return *medium_; }
  sim::Timeline& timeline() { return *timeline_; }
  imd::ImdDevice& imd() { return *imd_; }
  ShieldNode& shield() { return *shield_; }
  adversary::MonitorNode* observer() { return observer_.get(); }
  const DeploymentOptions& options() const { return options_; }
  sim::EventLog& log() { return timeline_->log(); }

  /// Registers an extra node built by the caller against medium()
  /// (must be called before stepping further).
  void add_node(sim::RadioNode* node) { timeline_->add_node(node); }

  /// Runs the simulation for the given duration.
  void run_for(double seconds) { timeline_->run_for(seconds); }

  /// Serializes the deployment's complete state — medium, timeline/log,
  /// IMD, shield, observer — as a versioned snapshot document keyed by
  /// deployment_warm_key(options()). Nothing reads it back; tests compare
  /// two deployments by it, and perfbench's set-up probe times it.
  std::string save_warm() const;

  /// Two-phase seeding, trial half: reseeds the medium (and redraws its
  /// link realizations), the IMD and the shield from per-trial streams
  /// derived from `trial_seed`. No-op in legacy single-phase mode
  /// (warmup_seed == 0). The constructor and reset() both end with this.
  void begin_trial(std::uint64_t trial_seed);

 private:
  void wire_shield_directivity();

  DeploymentOptions options_;
  std::unique_ptr<channel::Medium> medium_;
  std::unique_ptr<sim::Timeline> timeline_;
  std::unique_ptr<imd::ImdDevice> imd_;
  std::unique_ptr<ShieldNode> shield_;
  std::unique_ptr<adversary::MonitorNode> observer_;
};

/// Content digest (sha256 hex) of everything that determines a
/// deployment's post-warm-up state: the full configuration (profile,
/// shield config, link budget, node set, warm-up duration) plus the
/// warm-up seed — and, in legacy single-phase mode, the trial seed
/// itself. The SnapshotCache key: equal keys ⇒ bit-identical post-warmup
/// state, different configuration ⇒ different key.
std::string deployment_warm_key(const DeploymentOptions& options);

}  // namespace hs::shield
