#pragma once

/// \file plan_cache.hpp
/// Content-addressed, concurrency-safe cache of solved scheduling plans.
///
/// Keys are opaque bytes: the server uses serve::binary_query_key, which a
/// warm hit builds without formatting a number; any byte string that names
/// one problem works. The cache indexes keys by their 64-bit FNV-1a hash and
/// keeps the full key in every entry, so a hash collision is detected (and
/// counted) rather than served as a silent wrong answer — a collision
/// solves uncached.
///
/// Concurrency model: the fingerprint space is striped over S shards, each
/// guarded by its own mutex; a lookup locks exactly one shard and never
/// holds the lock across a solve. The first thread to miss a key installs a
/// pending entry (a promise) and solves OUTSIDE the lock; concurrent
/// lookups of the same key find the pending entry, count as hits, and block
/// on its shared_future — so every distinct key is solved exactly once no
/// matter how many threads race for it. A solver failure propagates to
/// every waiter and removes the entry, so a later lookup retries.
///
/// Bounding: per-shard LRU over *ready* entries (pending entries are pinned
/// — evicting a plan mid-solve would break exactly-once), limited by entry
/// count and resident bytes; both budgets are apportioned across shards.
/// A zero-capacity cache still dedups in-flight solves: the entry is
/// installed, completes, and is immediately evicted, so the accounting
/// identities (entries + evictions == insertions, ...) hold in pass-through
/// mode too.
///
/// Determinism: the cache stores the solved plan's exact serialized bytes
/// and hands out shared ownership of that one string, which is what makes
/// the server's cached-vs-cold byte-identity guarantee structural rather
/// than aspirational.

#include <cstddef>
#include <cstdint>
#include <functional>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "obs/metrics.hpp"

namespace rumr::serve {

struct PlanCacheOptions {
  std::size_t capacity = 4096;              ///< Max resident entries (0 = pass-through).
  std::size_t max_bytes = 64u << 20;        ///< Max resident key+plan bytes.
  std::size_t shards = 16;                  ///< Mutex stripes (>= 1).
};

class PlanCache {
 public:
  /// Solves one query into its serialized plan bytes. May throw; the
  /// exception reaches every thread waiting on that key.
  using Solver = std::function<std::string()>;

  explicit PlanCache(const PlanCacheOptions& options = {});

  PlanCache(const PlanCache&) = delete;
  PlanCache& operator=(const PlanCache&) = delete;

  /// Returns the plan for `key`, running `solve` at most once per resident
  /// key across all threads. Rethrows the solver's exception on failure
  /// (for this call and every concurrent waiter).
  [[nodiscard]] std::shared_ptr<const std::string> get_or_compute(const std::string& key,
                                                                  const Solver& solve);

  /// Aggregated counters over all shards (a consistent-enough snapshot:
  /// each shard is read under its own lock).
  [[nodiscard]] obs::CacheStats stats() const;

 private:
  using PlanPtr = std::shared_ptr<const std::string>;

  struct Entry {
    std::string key;                 ///< Full key bytes (collision check).
    std::shared_future<PlanPtr> plan;
    std::uint64_t tick = 0;          ///< LRU stamp; valid iff ready.
    std::size_t bytes = 0;           ///< key + plan bytes; 0 until ready.
    bool ready = false;              ///< Pinned (not evictable) while false.
  };

  struct Shard {
    mutable std::mutex mutex;
    std::map<std::uint64_t, Entry> entries;      ///< fingerprint -> entry.
    std::map<std::uint64_t, std::uint64_t> lru;  ///< tick -> fingerprint (ready only).
    std::uint64_t next_tick = 0;
    std::size_t capacity = 0;
    std::size_t max_bytes = 0;
    obs::CacheStats stats;  ///< Guarded by mutex; entries/bytes_cached live.
  };

  /// Evicts least-recently-used ready entries until this shard is within
  /// its budgets. Caller holds the shard lock.
  static void evict_to_budget(Shard& shard);

  std::vector<std::unique_ptr<Shard>> shards_;
};

}  // namespace rumr::serve
