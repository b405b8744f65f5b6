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
  if (deployment_ != nullptr && deployment_->can_reset_to(opts)) {
    deployment_->reset(opts);
    ++deployments_reused_;
    obs::count(obs::Counter::kDeploymentsReused);
    return *deployment_;
  }
  deployment_ = std::make_unique<Deployment>(opts);
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
  if (monitor_ == nullptr) {
    monitor_ =
        std::make_unique<adversary::MonitorNode>(config, deployment_->medium());
  } else {
    monitor_->reset(config, deployment_->medium());
  }
  deployment_->add_node(monitor_.get());
  return *monitor_;
}

imd::ProgrammerNode& TrialContext::programmer(
    const imd::ProgrammerConfig& config) {
  if (programmer_ == nullptr) {
    programmer_ = std::make_unique<imd::ProgrammerNode>(
        config, deployment_->medium(), &deployment_->log());
  } else {
    programmer_->reset(config, deployment_->medium(), &deployment_->log());
  }
  deployment_->add_node(programmer_.get());
  return *programmer_;
}

adversary::ActiveAdversaryNode& TrialContext::active_adversary(
    const adversary::ActiveAdversaryConfig& config) {
  if (adversary_ == nullptr) {
    adversary_ = std::make_unique<adversary::ActiveAdversaryNode>(
        config, deployment_->medium(), &deployment_->log());
  } else {
    adversary_->reset(config, deployment_->medium(), &deployment_->log());
  }
  deployment_->add_node(adversary_.get());
  return *adversary_;
}

JammingSignalGenerator& TrialContext::jamgen(const phy::FskParams& fsk,
                                             JamProfile profile,
                                             std::uint64_t seed,
                                             std::size_t fft_size) {
  if (jamgen_ == nullptr) {
    jamgen_ =
        std::make_unique<JammingSignalGenerator>(fsk, profile, seed, fft_size);
  } else {
    jamgen_->reset(fsk, profile, seed, fft_size);
  }
  return *jamgen_;
}

adversary::CrossTrafficNode& TrialContext::cross_traffic(
    const adversary::CrossTrafficConfig& config, std::uint64_t seed) {
  if (cross_traffic_ == nullptr) {
    cross_traffic_ = std::make_unique<adversary::CrossTrafficNode>(
        config, deployment_->medium(), seed);
  } else {
    cross_traffic_->reset(config, deployment_->medium(), seed);
  }
  deployment_->add_node(cross_traffic_.get());
  return *cross_traffic_;
}

}  // namespace hs::shield
