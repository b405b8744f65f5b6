#include "shield/trial_context.hpp"

#include <cstdio>

#include "obs/metrics.hpp"
#include "snapshot/snapshot_cache.hpp"

namespace hs::shield {

void TrialContext::set_warm_policy(std::uint64_t warmup_seed,
                                   snapshot::SnapshotCache* cache) {
  warmup_seed_ = warmup_seed;
  cache_ = warmup_seed != 0 ? cache : nullptr;
}

Deployment& TrialContext::cold_deployment(const DeploymentOptions& options) {
  if (deployment_ != nullptr && deployment_->can_reset_to(options)) {
    deployment_->reset(options);
    ++deployments_reused_;
    obs::count(obs::Counter::kDeploymentsReused);
  } else {
    deployment_ = std::make_unique<Deployment>(options);
    ++deployments_built_;
    obs::count(obs::Counter::kDeploymentsBuilt);
  }
  return *deployment_;
}

Deployment& TrialContext::deployment(const DeploymentOptions& options) {
  DeploymentOptions opts = options;
  if (warmup_seed_ != 0) opts.warmup_seed = warmup_seed_;
  // Replaying the warm-up through reset is cheaper than deserializing a
  // snapshot (and bit-identical); the cache matters only when the
  // deployment must be (re)built.
  if (cache_ == nullptr ||
      (deployment_ != nullptr && deployment_->can_reset_to(opts))) {
    return cold_deployment(opts);
  }

  const std::string key = deployment_warm_key(opts);
  std::shared_ptr<const snapshot::StateDoc> doc = cache_->find(key);
  if (doc == nullptr) {
    // First trial for this configuration anywhere: warm up cold, then
    // publish so every later trial — this worker's, its siblings', other
    // shard processes' — restores instead of re-simulating the warm-up.
    Deployment& d = cold_deployment(opts);
    {
      obs::ScopedTimer timer(obs::Phase::kSnapshotSave);
      obs::TraceSpan span("snapshot", "snapshot_save");
      cache_->store(key, d.save_warm());
    }
    ++snapshots_saved_;
    obs::count(obs::Counter::kSnapshotsSaved);
    return d;
  }
  try {
    {
      obs::ScopedTimer timer(obs::Phase::kSnapshotRestore);
      obs::TraceSpan span("snapshot", "snapshot_restore");
      deployment_ = std::make_unique<Deployment>(*doc, opts);
    }
    ++deployments_built_;
    obs::count(obs::Counter::kDeploymentsBuilt);
    ++snapshots_restored_;
    obs::count(obs::Counter::kSnapshotsRestored);
    return *deployment_;
  } catch (const snapshot::SnapshotError& e) {
    // The constructor threw, so nothing was half-restored: fall back to a
    // cold warm-up (bit-identical, just slower).
    std::fprintf(stderr,
                 "snapshot: restore failed (%s); falling back to cold "
                 "warm-up\n",
                 e.what());
    return cold_deployment(opts);
  }
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
