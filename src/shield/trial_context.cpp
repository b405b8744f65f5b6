#include "shield/trial_context.hpp"

#include "obs/metrics.hpp"
#include "snapshot/snapshot_cache.hpp"

namespace hs::shield {

void TrialContext::set_warm_policy(std::uint64_t warmup_seed,
                                   snapshot::SnapshotCache* cache) {
  warmup_seed_ = warmup_seed;
  cache_ = warmup_seed != 0 ? cache : nullptr;
}

Deployment& TrialContext::deployment(const DeploymentOptions& options) {
  DeploymentOptions opts = options;
  if (warmup_seed_ != 0) opts.warmup_seed = warmup_seed_;
  const bool reuse = deployment_ != nullptr && deployment_->can_reset_to(opts);
  if (!reuse) deployment_.reset();
  construct_or_reset(deployment_, opts);
  if (reuse) {
    ++deployments_reused_;
    obs::count(obs::Counter::kDeploymentsReused);
    return *deployment_;
  }
  ++deployments_built_;
  obs::count(obs::Counter::kDeploymentsBuilt);
  if (cache_ != nullptr) {
    {
      obs::ScopedTimer timer(obs::Phase::kSnapshotSave);
      obs::TraceSpan span("snapshot", "snapshot_save");
      cache_->store(deployment_warm_key(opts), deployment_->save_warm());
    }
    ++snapshots_saved_;
    obs::count(obs::Counter::kSnapshotsSaved);
  }
  return *deployment_;
}

adversary::MonitorNode& TrialContext::monitor(
    const adversary::MonitorConfig& config) {
  return attach(construct_or_reset(monitor_, config, deployment_->medium()));
}

imd::ProgrammerNode& TrialContext::programmer(
    const imd::ProgrammerConfig& config) {
  return attach(construct_or_reset(programmer_, config, deployment_->medium(),
                                   &deployment_->log()));
}

adversary::ActiveAdversaryNode& TrialContext::active_adversary(
    const adversary::ActiveAdversaryConfig& config) {
  return attach(construct_or_reset(adversary_, config, deployment_->medium(),
                                   &deployment_->log()));
}

JammingSignalGenerator& TrialContext::jamgen(const phy::FskParams& fsk,
                                             JamProfile profile,
                                             std::uint64_t seed,
                                             std::size_t fft_size) {
  return construct_or_reset(jamgen_, fsk, profile, seed, fft_size);
}

adversary::CrossTrafficNode& TrialContext::cross_traffic(
    const adversary::CrossTrafficConfig& config, std::uint64_t seed) {
  return attach(
      construct_or_reset(cross_traffic_, config, deployment_->medium(), seed));
}

}  // namespace hs::shield
