#include "snapshot/snapshot_cache.hpp"

#include <unistd.h>

#include <cstdio>

#include "wire/file.hpp"

namespace hs::snapshot {

namespace {

/// false => file absent; a mid-read I/O error throws.
bool read_file(const std::string& path, std::string& out) {
  switch (wire::read_whole_file(path, out)) {
    case wire::FileReadStatus::kOk: return true;
    case wire::FileReadStatus::kOpenFailed: return false;
    case wire::FileReadStatus::kReadError:
      throw SnapshotError("snapshot: error reading " + path);
  }
  return false;
}

}  // namespace

StateDoc load_snapshot_file(const std::string& path) {
  std::string text;
  if (!read_file(path, text)) {
    throw SnapshotError("snapshot: cannot open " + path);
  }
  return StateDoc::parse(text, path);
}

SnapshotCache::SnapshotCache(std::string dir) : dir_(std::move(dir)) {}

std::string SnapshotCache::file_path(const std::string& key) const {
  return dir_ + "/" + key + ".hsnap";
}

std::shared_ptr<const StateDoc> SnapshotCache::find(const std::string& key) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (const auto it = docs_.find(key); it != docs_.end()) {
      ++hits_;
      return it->second;
    }
  }
  if (!dir_.empty()) {
    const std::string path = file_path(key);
    std::string text;
    bool opened = false;
    try {
      opened = read_file(path, text);
      if (opened) {
        auto doc = std::make_shared<const StateDoc>(
            StateDoc::parse(text, path));
        std::lock_guard<std::mutex> lock(mutex_);
        ++disk_loads_;
        ++hits_;
        // Another thread may have loaded it concurrently; keep the first.
        const auto [it, inserted] = docs_.emplace(key, std::move(doc));
        return it->second;
      }
    } catch (const SnapshotError& e) {
      // An unusable file on disk must never half-apply: report it and
      // fall back to a cold warm-up (the caller will re-store a good
      // snapshot over it).
      std::fprintf(stderr,
                   "snapshot: ignoring unusable snapshot file (%s); "
                   "falling back to cold warm-up\n",
                   e.what());
    }
  }
  std::lock_guard<std::mutex> lock(mutex_);
  ++misses_;
  return nullptr;
}

std::shared_ptr<const StateDoc> SnapshotCache::store(
    const std::string& key, const std::string& payload) {
  // Parse before taking the map slot: a payload this process cannot read
  // back must never be published.
  auto doc = std::make_shared<const StateDoc>(
      StateDoc::parse(payload, "store:" + key));
  bool first = false;
  std::shared_ptr<const StateDoc> stored;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    const auto [it, inserted] = docs_.emplace(key, std::move(doc));
    first = inserted;
    stored = it->second;
  }
  if (first && !dir_.empty()) {
    // Atomic publish: a concurrent shard either sees the complete file or
    // none. pid + cache address make the temp name unique across racing
    // shard processes AND across caches within one process; rename()
    // replaces atomically.
    char suffix[48];
    std::snprintf(suffix, sizeof suffix, ".tmp.%ld.%p",
                  static_cast<long>(getpid()),
                  static_cast<const void*>(this));
    const std::string tmp = file_path(key) + suffix;
    if (!wire::write_file(tmp, payload) ||
        std::rename(tmp.c_str(), file_path(key).c_str()) != 0) {
      std::remove(tmp.c_str());
      std::fprintf(stderr,
                   "snapshot: could not persist %s (in-memory cache "
                   "still active)\n",
                   file_path(key).c_str());
    }
  }
  return stored;
}

std::size_t SnapshotCache::hits() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return hits_;
}

std::size_t SnapshotCache::misses() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return misses_;
}

std::size_t SnapshotCache::disk_loads() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return disk_loads_;
}

}  // namespace hs::snapshot
