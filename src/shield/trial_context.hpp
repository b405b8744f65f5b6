/// @file
/// Trial-context pool: reusable deployments and experiment nodes for
/// repeated Monte Carlo trials.
///
/// Standing up a `Deployment` per trial — medium, IMD, shield, channel
/// estimation warm-up — dominates the campaign engine's trials/sec. A
/// `TrialContext` keeps one deployment and one of each auxiliary node
/// (eavesdropper monitor, programmer, active adversary, radiosonde) alive
/// across trials and *reset-and-reseeds* them instead of reconstructing:
/// every piece of state replays exactly as at construction, so a reused
/// context produces bit-identical results to fresh objects (the campaign
/// determinism test asserts this), while skipping the expensive
/// construction work — chiefly the jamming generator's spectral-profile
/// estimation, and each receiver's sync reference, tone tables and
/// buffer capacity (FskReceiver::reset keeps them).
///
/// Each campaign worker thread owns one TrialContext (contexts are not
/// thread-safe). Every campaign path pools; a test that needs the fresh
/// reference builds a new context per trial.
#pragma once

#include <cstdint>
#include <memory>

#include "adversary/active.hpp"
#include "adversary/cross_traffic.hpp"
#include "adversary/monitor.hpp"
#include "imd/programmer.hpp"
#include "shield/deployment.hpp"
#include "shield/jamgen.hpp"

namespace hs::snapshot {
class SnapshotCache;
}  // namespace hs::snapshot

namespace hs::shield {

class TrialContext {
 public:
  TrialContext() = default;
  TrialContext(const TrialContext&) = delete;
  TrialContext& operator=(const TrialContext&) = delete;

  /// Two-phase seeding. A nonzero `warmup_seed` is stamped into every
  /// DeploymentOptions this context builds from (see
  /// DeploymentOptions::warmup_seed), making the post-warm-up state
  /// trial-independent. With a cache, deployment() saves that state into
  /// it after every (re)build; nothing reads it back. The campaign
  /// engine and the service pass no cache; perfbench's set-up probe
  /// passes one to time the save. The cache may be shared across worker
  /// threads (it is internally locked).
  void set_warm_policy(std::uint64_t warmup_seed,
                       snapshot::SnapshotCache* cache);

  /// Returns a deployment in exactly the state `Deployment(options)`
  /// would produce. Reuses (reset + reseeds) the pooled instance when its
  /// node set matches; otherwise rebuilds it. Any auxiliary nodes from
  /// the previous trial are forgotten — re-acquire them after this call,
  /// in the same order a fresh experiment would construct them.
  Deployment& deployment(const DeploymentOptions& options);

  /// Acquire-or-reset the auxiliary node of the given kind, registered
  /// against the current deployment's medium and timeline. Call only
  /// after deployment() in a given trial.
  adversary::MonitorNode& monitor(const adversary::MonitorConfig& config);
  imd::ProgrammerNode& programmer(const imd::ProgrammerConfig& config);
  adversary::ActiveAdversaryNode& active_adversary(
      const adversary::ActiveAdversaryConfig& config);
  adversary::CrossTrafficNode& cross_traffic(
      const adversary::CrossTrafficConfig& config, std::uint64_t seed);

  /// Acquire-or-reset a standalone jamming generator (for trials that
  /// use one outside a deployment, e.g. the multipath-antidote study).
  /// Reuse keeps the generator's cached spectral profile — the
  /// expensive part of its construction — while reset() guarantees the
  /// output stream is bit-identical to a fresh generator's. Unlike the
  /// node accessors this does not touch the deployment.
  JammingSignalGenerator& jamgen(const phy::FskParams& fsk,
                                 JamProfile profile, std::uint64_t seed,
                                 std::size_t fft_size = 256);

  /// Pool effectiveness counters. The same events feed the obs counters
  /// (CampaignResult::metrics), which is where campaigns report them.
  std::size_t deployments_built() const { return deployments_built_; }
  std::size_t deployments_reused() const { return deployments_reused_; }
  /// Builds whose warm state this context saved to the cache.
  std::size_t snapshots_saved() const { return snapshots_saved_; }

 private:
  std::unique_ptr<Deployment> deployment_;
  std::unique_ptr<adversary::MonitorNode> monitor_;
  std::unique_ptr<imd::ProgrammerNode> programmer_;
  std::unique_ptr<adversary::ActiveAdversaryNode> adversary_;
  std::unique_ptr<adversary::CrossTrafficNode> cross_traffic_;
  std::unique_ptr<JammingSignalGenerator> jamgen_;
  std::uint64_t warmup_seed_ = 0;
  snapshot::SnapshotCache* cache_ = nullptr;
  std::size_t deployments_built_ = 0;
  std::size_t deployments_reused_ = 0;
  std::size_t snapshots_saved_ = 0;
};

}  // namespace hs::shield
