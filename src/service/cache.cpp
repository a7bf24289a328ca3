#include "service/cache.hpp"

#include <functional>
#include <utility>

#include "core/assert.hpp"

namespace abt::service {

SolutionCache::SolutionCache(std::size_t max_entries, std::size_t max_bytes)
    : max_entries_per_shard_((max_entries + kShards - 1) / kShards),
      max_bytes_per_shard_((max_bytes + kShards - 1) / kShards) {
  if (max_entries_per_shard_ == 0) max_entries_per_shard_ = 1;
  if (max_bytes_per_shard_ == 0) max_bytes_per_shard_ = 1;
}

std::optional<SolutionCache::Entry> SolutionCache::find(const std::string& key,
                                                        bool alias) {
  const std::size_t hash = std::hash<std::string>{}(key);
  Shard& shard = shard_for(hash);
  const std::lock_guard<std::mutex> lock(shard.mutex);
  const auto it = shard.index.find({key, hash});
  if (it == shard.index.end()) {
    if (!alias) ++shard.misses;
    return std::nullopt;
  }
  ++shard.hits;
  if (alias) ++shard.alias_hits;
  shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
  return it->second->entry;
}

std::optional<SolutionCache::Entry> SolutionCache::lookup(
    const std::string& key) {
  return find(key, false);
}

std::optional<SolutionCache::Entry> SolutionCache::lookup_alias(
    const std::string& key) {
  return find(key, true);
}

void SolutionCache::evict_over_caps(Shard& shard) {
  while (!shard.lru.empty() && (shard.lru.size() > max_entries_per_shard_ ||
                                shard.bytes > max_bytes_per_shard_)) {
    const Node& victim = shard.lru.back();
    shard.bytes -= entry_bytes(victim);
    shard.index.erase({victim.key, victim.hash});
    shard.lru.pop_back();
    ++shard.evictions;
  }
}

void SolutionCache::insert(const std::string& key, Entry entry) {
  if (key.size() + entry.payload.size() > max_bytes_per_shard_) {
    return;  // Could never fit; taking it would just evict everything.
  }
  const std::size_t hash = std::hash<std::string>{}(key);
  Shard& shard = shard_for(hash);
  const std::lock_guard<std::mutex> lock(shard.mutex);
  const auto it = shard.index.find({key, hash});
  if (it != shard.index.end()) {
    // Refresh in place: same key, (re)computed response.
    shard.bytes -= entry_bytes(*it->second);
    it->second->entry = std::move(entry);
    shard.bytes += entry_bytes(*it->second);
    shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
  } else {
    shard.lru.push_front({key, hash, std::move(entry)});
    const Node& node = shard.lru.front();
    shard.bytes += entry_bytes(node);
    shard.index.emplace(KeyRef{node.key, hash}, shard.lru.begin());
    ++shard.insertions;
  }
  evict_over_caps(shard);
  audit_shard(shard);
}

CacheStats SolutionCache::stats() const {
  CacheStats out;
  for (const Shard& shard : shards_) {
    const std::lock_guard<std::mutex> lock(shard.mutex);
    out.entries += shard.lru.size();
    out.bytes += shard.bytes;
    out.hits += shard.hits;
    out.misses += shard.misses;
    out.alias_hits += shard.alias_hits;
    out.insertions += shard.insertions;
    out.evictions += shard.evictions;
  }
  return out;
}

void SolutionCache::audit_shard(const Shard& shard) const {
  // Caller holds the shard lock.
  if constexpr (!core::kAuditEnabled) return;
  ABT_DBG_ASSERT(shard.index.size() == shard.lru.size(),
                 "cache index must mirror the LRU list one-to-one");
  ABT_DBG_ASSERT(shard.lru.size() <= max_entries_per_shard_,
                 "cache shard over its entry cap after eviction");
  std::size_t bytes = 0;
  for (auto it = shard.lru.begin(); it != shard.lru.end(); ++it) {
    bytes += entry_bytes(*it);
    ABT_DBG_ASSERT(it->hash == std::hash<std::string>{}(it->key),
                   "a node's stored hash must be its key's hash");
    const auto mirror = shard.index.find({it->key, it->hash});
    ABT_DBG_ASSERT(mirror != shard.index.end(),
                   "every LRU node must be indexed");
    ABT_DBG_ASSERT(mirror->second == it,
                   "index iterator must point at its own LRU node");
  }
  ABT_DBG_ASSERT(bytes == shard.bytes,
                 "cache byte accounting must match the live entries");
  ABT_DBG_ASSERT(shard.bytes <= max_bytes_per_shard_ || shard.lru.size() <= 1,
                 "cache shard over its byte cap with evictable entries");
}

void SolutionCache::audit_invariants() const {
  for (const Shard& shard : shards_) {
    const std::lock_guard<std::mutex> lock(shard.mutex);
    audit_shard(shard);
  }
}

}  // namespace abt::service
