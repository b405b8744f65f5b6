#include "snapshot/snapshot_cache.hpp"

namespace hs::snapshot {

std::shared_ptr<const StateDoc> SnapshotCache::find(const std::string& key) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (const auto it = docs_.find(key); it != docs_.end()) {
    ++hits_;
    return it->second;
  }
  ++misses_;
  return nullptr;
}

std::shared_ptr<const StateDoc> SnapshotCache::store(
    const std::string& key, const std::string& payload) {
  // Parse before taking the map slot: a payload that cannot be read back
  // must never enter the cache.
  auto doc = std::make_shared<const StateDoc>(
      StateDoc::parse(payload, "store:" + key));
  std::lock_guard<std::mutex> lock(mutex_);
  return docs_.emplace(key, std::move(doc)).first->second;
}

std::size_t SnapshotCache::hits() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return hits_;
}

std::size_t SnapshotCache::misses() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return misses_;
}

}  // namespace hs::snapshot
