#pragma once

// Solution cache for the abtd service. Two kinds of key share it:
//
//   - CANONICAL keys (protocol.hpp::cache_key): the instance's
//     write_instance v2 serialization plus every parameter that shapes
//     the response payload, so two textually different spellings of the
//     same instance (comment lines, blank lines, directive spacing)
//     collapse onto one entry;
//   - raw ALIASES (built in server.cpp): a request frame's verb, header
//     flags and exact payload bytes, installed with a copy of the
//     canonical entry the request hit, so a byte-identical repeat is
//     answered before any parse.
//
// Values are the fully serialized response payload: a hit replays the
// original response BIT-IDENTICALLY; only the response header says it was
// cached.
//
// Sharded: each of the kShards shards owns a mutex, an LRU std::list and
// an unordered_map index mirroring the list (key view -> list iterator).
// Capacity is enforced per shard on both entry count and key + payload
// bytes, aliases included, evicting least recently used entries first.
// Under ABT_AUDIT, audit_invariants() walks every shard and cross-checks
// the list/index mirror and the byte accounting.

#include <cstddef>
#include <list>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>

namespace abt::service {

/// Point-in-time counters aggregated over every shard.
struct CacheStats {
  std::size_t entries = 0;
  std::size_t bytes = 0;  ///< Sum of key + payload bytes of live entries.
  std::size_t hits = 0;
  std::size_t misses = 0;
  std::size_t alias_hits = 0;  ///< Part of `hits` answered by an alias.
  std::size_t insertions = 0;  ///< Aliases included.
  std::size_t evictions = 0;
};

class SolutionCache {
 public:
  /// One cached response: the exact payload bytes the first run produced
  /// plus the exit code the response header carried.
  struct Entry {
    std::string payload;
    int exit_code = 0;
  };

  /// Capacities are totals across the cache; each of the kShards shards
  /// enforces its 1/kShards slice (rounded up, never below one entry).
  SolutionCache(std::size_t max_entries, std::size_t max_bytes);

  /// Copies the entry out under the shard lock and marks it most
  /// recently used. nullopt on miss.
  [[nodiscard]] std::optional<Entry> lookup(const std::string& key);

  /// lookup for a raw alias key: a hit counts in `hits` and `alias_hits`;
  /// a miss counts nothing, since the canonical lookup that follows it
  /// counts the request.
  [[nodiscard]] std::optional<Entry> lookup_alias(const std::string& key);

  /// Inserts (or refreshes) `key`, then evicts LRU entries until the
  /// shard is back under both caps. An entry too large to ever fit its
  /// shard's byte cap is refused, new key or refresh alike, and leaves
  /// the shard untouched.
  void insert(const std::string& key, Entry entry);

  [[nodiscard]] CacheStats stats() const;

  /// Walks every shard and ABT_DBG_ASSERTs the LRU-list/index mirror
  /// (equal sizes, every index iterator resolves to a node with that
  /// key) and the byte accounting. Compiled to a no-op without
  /// ABT_AUDIT, like every audit in this codebase.
  void audit_invariants() const;

 private:
  struct Node {
    std::string key;
    std::size_t hash = 0;  ///< std::hash of `key`.
    Entry entry;
  };
  /// Index key: a view of a node's own key plus that key's hash, so each
  /// key is stored once and hashed once per operation (keys run to
  /// kilobytes: they hold a whole instance).
  struct KeyRef {
    std::string_view text;
    std::size_t hash = 0;
    bool operator==(const KeyRef& other) const {
      return hash == other.hash && text == other.text;
    }
  };
  struct KeyRefHash {
    std::size_t operator()(const KeyRef& key) const { return key.hash; }
  };
  struct Shard {
    mutable std::mutex mutex;
    std::list<Node> lru;  ///< Front = most recently used.
    std::unordered_map<KeyRef, std::list<Node>::iterator, KeyRefHash> index;
    std::size_t bytes = 0;
    std::size_t hits = 0;
    std::size_t misses = 0;
    std::size_t alias_hits = 0;
    std::size_t insertions = 0;
    std::size_t evictions = 0;
  };

  static constexpr std::size_t kShards = 8;

  [[nodiscard]] static std::size_t entry_bytes(const Node& node) {
    return node.key.size() + node.entry.payload.size();
  }
  [[nodiscard]] Shard& shard_for(std::size_t hash) {
    return shards_[hash % kShards];
  }
  [[nodiscard]] std::optional<Entry> find(const std::string& key, bool alias);
  void evict_over_caps(Shard& shard);
  void audit_shard(const Shard& shard) const;

  std::size_t max_entries_per_shard_;
  std::size_t max_bytes_per_shard_;
  Shard shards_[kShards];
};

}  // namespace abt::service
