/// @file
/// Keyed in-memory store of warm-state snapshot documents.
///
/// Keys are content digests (sha256 hex of the canonicalized deployment
/// configuration + warm-up seed; see shield::deployment_warm_key). A
/// TrialContext given a cache saves its deployment's warm state into it
/// after every build. Nothing reads the documents back: the campaign
/// engine and the service pass no cache, and the only caller that does
/// is perfbench's set-up probe, which times the first save. Nothing is
/// evicted, so a cache lives no longer than its caller's run.
#pragma once

#include <mutex>
#include <string>
#include <unordered_map>

namespace hs::snapshot {

class SnapshotCache {
 public:
  SnapshotCache() = default;

  SnapshotCache(const SnapshotCache&) = delete;
  SnapshotCache& operator=(const SnapshotCache&) = delete;

  /// Stores `payload` (a StateWriter::finish() document) under `key`.
  /// First store wins: returns false, storing nothing, when `key` is
  /// already present. Thread-safe.
  bool store(const std::string& key, std::string payload);

 private:
  std::mutex mutex_;
  // Ordering audit (determinism linter: unordered-in-serializer allow
  // entry in LINT.toml): docs_ is keyed by content digest and written
  // only through emplace() — it is never iterated, so its bucket order
  // can never reach a report, stream, or snapshot byte. If you add
  // iteration (e.g. an eviction sweep), switch to std::map or sort the
  // keys first, and update LINT.toml.
  std::unordered_map<std::string, std::string> docs_;
};

}  // namespace hs::snapshot
