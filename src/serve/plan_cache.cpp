#include "serve/plan_cache.hpp"

#include <exception>
#include <optional>
#include <utility>

#include "serve/protocol.hpp"

namespace rumr::serve {

PlanCache::PlanCache(const PlanCacheOptions& options) {
  const std::size_t count = options.shards == 0 ? 1 : options.shards;
  shards_.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    auto shard = std::make_unique<Shard>();
    // Apportion both budgets exactly: shard i gets the quotient plus one
    // unit of the remainder, so the shard budgets sum to the global ones.
    shard->capacity = options.capacity / count + (i < options.capacity % count ? 1 : 0);
    shard->max_bytes = options.max_bytes / count + (i < options.max_bytes % count ? 1 : 0);
    shards_.push_back(std::move(shard));
  }
}

void PlanCache::evict_to_budget(Shard& shard) {
  while (!shard.lru.empty() && (shard.stats.entries > shard.capacity ||
                                shard.stats.bytes_cached > shard.max_bytes)) {
    const auto oldest = shard.lru.begin();
    const std::uint64_t fingerprint = oldest->second;
    shard.lru.erase(oldest);
    const auto it = shard.entries.find(fingerprint);
    shard.stats.bytes_cached -= it->second.bytes;
    shard.entries.erase(it);
    shard.stats.entries -= 1;
    shard.stats.evictions += 1;
  }
}

std::shared_ptr<const std::string> PlanCache::get_or_compute(const std::string& key,
                                                             const Solver& solve) {
  const std::uint64_t fingerprint = fnv1a64(key);
  Shard& shard = *shards_[fingerprint % shards_.size()];

  enum class Path : unsigned char { kHit, kCollision, kSolve };
  Path path = Path::kSolve;
  std::shared_future<PlanPtr> waiting;
  // Built on a miss only: a promise allocates its shared state.
  std::optional<std::promise<PlanPtr>> promise;
  {
    std::lock_guard<std::mutex> lock(shard.mutex);
    shard.stats.lookups += 1;
    const auto it = shard.entries.find(fingerprint);
    if (it != shard.entries.end() && it->second.key == key) {
      // Hit — including a waiter that arrives while the first solver is
      // still running (the pending entry carries the future it will fill).
      shard.stats.hits += 1;
      Entry& entry = it->second;
      if (entry.ready) {
        // Restamp by moving the LRU node itself: no free and no allocation.
        auto stamp = shard.lru.extract(entry.tick);
        entry.tick = shard.next_tick++;
        stamp.key() = entry.tick;
        shard.lru.insert(std::move(stamp));
      }
      waiting = entry.plan;
      path = Path::kHit;
    } else if (it != shard.entries.end()) {
      // Same fingerprint, different key bytes: a genuine 64-bit
      // collision. Solve uncached — correctness over reuse — and count it.
      shard.stats.misses += 1;
      shard.stats.collisions += 1;
      path = Path::kCollision;
    } else {
      // First miss installs the pending (pinned) entry, then solves
      // outside the lock.
      shard.stats.misses += 1;
      Entry entry;
      entry.key = key;
      entry.plan = promise.emplace().get_future().share();
      shard.entries.emplace(fingerprint, std::move(entry));
    }
  }

  // Waiters block outside any lock; get() rethrows the solver's failure.
  if (path == Path::kHit) return waiting.get();
  if (path == Path::kCollision) return std::make_shared<const std::string>(solve());

  // Exactly-once owner of this key's solve.
  PlanPtr plan;
  try {
    plan = std::make_shared<const std::string>(solve());
  } catch (...) {
    promise->set_exception(std::current_exception());
    std::lock_guard<std::mutex> lock(shard.mutex);
    shard.stats.failed_solves += 1;
    // The pending entry was pinned, so it is still ours to remove; a later
    // lookup of this key retries the solve.
    shard.entries.erase(fingerprint);
    throw;
  }
  promise->set_value(plan);
  {
    std::lock_guard<std::mutex> lock(shard.mutex);
    Entry& entry = shard.entries.at(fingerprint);
    entry.ready = true;
    entry.bytes = key.size() + plan->size();
    entry.tick = shard.next_tick++;
    shard.lru.emplace(entry.tick, fingerprint);
    shard.stats.insertions += 1;
    shard.stats.entries += 1;
    shard.stats.bytes_cached += entry.bytes;
    evict_to_budget(shard);
  }
  return plan;
}

obs::CacheStats PlanCache::stats() const {
  obs::CacheStats total;
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mutex);
    total.merge(shard->stats);
  }
  return total;
}

}  // namespace rumr::serve
