#include "snapshot/snapshot_cache.hpp"

#include <utility>

namespace hs::snapshot {

bool SnapshotCache::store(const std::string& key, std::string payload) {
  std::lock_guard<std::mutex> lock(mutex_);
  return docs_.emplace(key, std::move(payload)).second;
}

}  // namespace hs::snapshot
