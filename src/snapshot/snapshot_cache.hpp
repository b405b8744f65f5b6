/// @file
/// Keyed in-memory cache of parsed warm-state snapshots, shared by the
/// worker threads of one campaign execution.
///
/// Keys are content digests (sha256 hex of the canonicalized deployment
/// configuration + warm-up seed; see shield::deployment_warm_key), so a
/// snapshot can never be applied to a deployment it was not taken from.
///
/// Entries hold the parsed StateDoc behind a shared_ptr: parsing and
/// validation happen once per key, and concurrent workers restore from
/// the same immutable document. Nothing is evicted, so a cache lives no
/// longer than the campaign execution that owns it.
#pragma once

#include <cstddef>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>

#include "snapshot/state_io.hpp"

namespace hs::snapshot {

class SnapshotCache {
 public:
  SnapshotCache() = default;

  SnapshotCache(const SnapshotCache&) = delete;
  SnapshotCache& operator=(const SnapshotCache&) = delete;

  /// Looks up `key`; a missing key returns nullptr. Thread-safe.
  std::shared_ptr<const StateDoc> find(const std::string& key);

  /// Parses `payload` (a StateWriter::finish() document) and stores it
  /// under `key`. First store wins; a concurrent duplicate is dropped.
  /// Returns the stored (parsed) document. Throws SnapshotError, storing
  /// nothing, on a payload that does not parse. Thread-safe.
  std::shared_ptr<const StateDoc> store(const std::string& key,
                                        const std::string& payload);

  /// Lookup counters. Only tests read them; campaigns report the
  /// snapshots_saved/snapshots_restored obs counters instead.
  std::size_t hits() const;
  std::size_t misses() const;

 private:
  mutable std::mutex mutex_;
  // Ordering audit (determinism linter: unordered-in-serializer allow
  // entry in LINT.toml): docs_ is keyed by content digest and accessed
  // exclusively through find()/emplace() — it is never iterated, so its
  // bucket order can never reach a report, stream, or snapshot byte.
  // If you add iteration (e.g. an eviction sweep), switch to std::map
  // or sort the keys first, and update LINT.toml.
  std::unordered_map<std::string, std::shared_ptr<const StateDoc>> docs_;
  std::size_t hits_ = 0;
  std::size_t misses_ = 0;
};

}  // namespace hs::snapshot
