// Sharded, thread-safe, byte-budgeted LRU cache — the core of the
// inference / decode memoization subsystem (paper §3.1 decode cost,
// §7.4 inference reuse: repeated visual queries should be lookup-bound,
// not compute-bound).
//
// The byte budget is split evenly across shards; each shard owns its own
// mutex, hash map, and recency list, so morsel workers hitting different
// shards never contend. A budget of 0 disables the cache entirely: Get
// always misses, Put is a no-op, and neither takes a lock.
//
// Eviction is LRU; *admission* is pluggable. Under CacheAdmission::
// kTinyLfu (the default for the Database-owned caches) each shard keeps a
// 4-bit count-min frequency sketch of every access, and an insert that
// would force an eviction is refused when the candidate's estimated
// frequency does not beat the eviction victim's — so a one-pass cold scan
// cannot flush a hot working set. CacheAdmission::kLru admits every
// insert (the classic behavior).
//
// Values are held as shared_ptr<const V>: readers keep entries alive even
// if a concurrent insert evicts them, so no lock is held while a caller
// uses a cached value.
#pragma once

#include <cstdint>
#include <functional>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "cache/admission.h"
#include "cache/frequency_sketch.h"
#include "common/checksum.h"

namespace deeplens {

/// Aggregate counters over all shards of a cache. Point-in-time snapshot;
/// counters from different shards are read under their own locks, so the
/// totals are consistent per shard but not globally atomic.
struct CacheStats {
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t insertions = 0;
  uint64_t evictions = 0;
  /// Inserts refused because one entry alone exceeded a shard's budget.
  uint64_t rejected = 0;
  /// Would-evict inserts refused by the TinyLFU admission filter because
  /// the candidate's estimated frequency did not beat the victim's.
  uint64_t admission_denied = 0;
  uint64_t entries = 0;
  uint64_t bytes = 0;
  uint64_t budget_bytes = 0;
  uint64_t shards = 0;

  // --- Persistence provenance (zero for purely in-memory caches) -------
  // `hits` above are memory hits; a lookup that misses memory but is
  // served from the spill log counts one `misses` AND one `disk_hits`,
  // so memory-vs-disk provenance is always reconstructible.
  uint64_t disk_hits = 0;    // in-memory misses answered by the spill log
  uint64_t disk_misses = 0;  // spill-log probes that found nothing usable
  uint64_t spilled = 0;      // entries written through to the spill log
  uint64_t warm_loaded = 0;  // entries preloaded from the log on open
  uint64_t disk_entries = 0;  // live records in the spill log
  uint64_t disk_bytes = 0;    // spill log size (incl. dead versions)
  uint64_t disk_live_bytes = 0;  // bytes of the newest version of live keys
  // Memory misses the resident-key filter answered "known absent" without
  // touching the store mutex (they are counted in `misses`, not in
  // `disk_misses` — no spill-log probe ever happened).
  uint64_t filter_skips = 0;

  uint64_t lookups() const { return hits + misses; }
  double HitRate() const {
    const uint64_t n = lookups();
    return n == 0 ? 0.0 : static_cast<double>(hits) / static_cast<double>(n);
  }
  /// Hit rate counting disk-served lookups as hits.
  double CombinedHitRate() const {
    const uint64_t n = lookups();
    return n == 0 ? 0.0
                  : static_cast<double>(hits + disk_hits) /
                        static_cast<double>(n);
  }
};

/// \brief Generic sharded LRU core. `V` is the cached value type; the
/// caller supplies an explicit byte charge per entry (the key's bytes are
/// added on top so budget accounting tracks real footprint).
template <typename V>
class ShardedLruCache {
 public:
  /// `budget_bytes` = 0 disables the cache. `num_shards` is clamped to
  /// [1, 256]; size it to the thread pool (see DefaultCacheShards()).
  /// `admission` defaults to TinyLFU — callers that need the classic
  /// admit-everything behavior (tests of LRU semantics, workloads known
  /// to be scan-free) pass CacheAdmission::kLru explicitly.
  ShardedLruCache(size_t budget_bytes, size_t num_shards,
                  CacheAdmission admission = CacheAdmission::kTinyLfu)
      : budget_bytes_(budget_bytes), admission_(admission) {
    if (num_shards < 1) num_shards = 1;
    if (num_shards > 256) num_shards = 256;
    if (budget_bytes == 0) return;  // disabled: no shards allocated
    shards_.reserve(num_shards);
    const size_t per_shard = (budget_bytes + num_shards - 1) / num_shards;
    for (size_t i = 0; i < num_shards; ++i) {
      shards_.push_back(std::make_unique<Shard>());
      shards_.back()->budget = per_shard;
      if (admission_ == CacheAdmission::kTinyLfu) {
        // Size the sketch for the entry count this shard can plausibly
        // hold: assume small entries (the sketch only needs enough
        // counters that distinct keys rarely collide).
        shards_.back()->sketch = std::make_unique<FrequencySketch>(
            per_shard / kSketchBytesPerEntry + 1);
      }
    }
  }

  bool enabled() const { return !shards_.empty(); }
  size_t budget_bytes() const { return budget_bytes_; }
  size_t num_shards() const { return shards_.size(); }
  CacheAdmission admission() const { return admission_; }

  /// Called once per evicted entry, after the shard lock has been
  /// released (so the callback may take its own locks, e.g. around a
  /// spill log). Entries dropped by Clear() are invalidations, not
  /// evictions, and do not fire the callback. Not thread-safe against
  /// concurrent cache operations: install before the cache is shared.
  using EvictionCallback = std::function<void(
      const std::string& key, std::shared_ptr<const V> value, size_t charge)>;
  void SetEvictionCallback(EvictionCallback cb) {
    eviction_cb_ = std::move(cb);
  }

  /// Returns the cached value or nullptr on miss. `record_miss` = false
  /// makes a miss leave no trace (no miss count, no admission access):
  /// for re-probing a key whose miss the caller has already recorded.
  std::shared_ptr<const V> Get(const std::string& key,
                               bool record_miss = true) {
    if (!enabled()) return nullptr;
    const uint64_t hash = HashKey(key);
    Shard& shard = ShardAt(hash);
    std::lock_guard<std::mutex> lock(shard.mu);
    auto it = shard.map.find(key);
    if (it == shard.map.end() && !record_miss) return nullptr;
    // Every lookup — hit or miss — is an access the admission filter
    // should know about: repeated misses are how a genuinely re-read key
    // earns its way past a resident victim.
    if (shard.sketch) shard.sketch->Increment(hash);
    if (it == shard.map.end()) {
      ++shard.misses;
      return nullptr;
    }
    ++shard.hits;
    // Move to the front of the recency list.
    shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
    return it->second->value;
  }

  /// Inserts (or replaces) `key`, charging `charge` + key bytes against
  /// the shard budget and evicting least-recently-used entries as needed.
  /// An entry larger than a whole shard's budget is rejected outright so
  /// one oversized value cannot flush the shard. Returns true iff the
  /// entry is resident afterwards (false: disabled or rejected), so
  /// write-through layers can persist what memory refused to hold.
  bool Put(const std::string& key, std::shared_ptr<const V> value,
           size_t charge) {
    if (!enabled()) return false;
    const uint64_t hash = HashKey(key);
    Shard& shard = ShardAt(hash);
    const size_t total = charge + key.size() + kEntryOverhead;
    std::vector<Entry> victims;
    {
      std::lock_guard<std::mutex> lock(shard.mu);
      if (total > shard.budget) {
        ++shard.rejected;
        return false;
      }
      auto it = shard.map.find(key);
      if (it != shard.map.end()) {
        // Replacing a resident key is a value refresh, never subject to
        // admission: the key already proved its worth by being resident.
        shard.bytes -= it->second->charge;
        shard.lru.erase(it->second);
        shard.map.erase(it);
      } else if (shard.sketch && shard.bytes + total > shard.budget &&
                 !shard.lru.empty()) {
        // Would-evict insert under TinyLFU: the candidate must be hotter
        // than the LRU victim it wants to displace, or it is refused and
        // the resident working set survives the scan. The comparison
        // uses the candidate's *pre-insert* frequency (its misses, via
        // Get) — counting this write as an access first would hand every
        // one-shot scan key a head start over decayed resident victims.
        const Entry& victim = shard.lru.back();
        if (shard.sketch->Estimate(hash) <=
            shard.sketch->Estimate(victim.hash)) {
          ++shard.admission_denied;
          return false;
        }
      }
      // An admitted write is an access: without this, a key seen only
      // through the miss→compute→Put path would keep frequency 0.
      if (shard.sketch) shard.sketch->Increment(hash);
      shard.lru.push_front(Entry{key, hash, std::move(value), total});
      shard.map[key] = shard.lru.begin();
      shard.bytes += total;
      ++shard.insertions;
      while (shard.bytes > shard.budget && shard.lru.size() > 1) {
        Entry& victim = shard.lru.back();
        shard.bytes -= victim.charge;
        shard.map.erase(victim.key);
        if (eviction_cb_) victims.push_back(std::move(victim));
        shard.lru.pop_back();
        ++shard.evictions;
      }
    }
    // Outside the shard lock: the callback may do I/O or take other
    // locks without blocking concurrent hits on this shard.
    for (Entry& v : victims) {
      eviction_cb_(v.key, std::move(v.value), v.charge);
    }
    return true;
  }

  /// True if `key` is resident. Touches neither the recency order nor
  /// the hit/miss counters — a pure residency probe for callers deciding
  /// whether a (re-)insert is worthwhile.
  bool Contains(const std::string& key) const {
    if (!enabled()) return false;
    const Shard& shard = ShardFor(key);
    std::lock_guard<std::mutex> lock(shard.mu);
    return shard.map.find(key) != shard.map.end();
  }

  /// Visits a snapshot of every resident entry (most-recent first within
  /// each shard). Entries are copied out under the shard lock and the
  /// visitor runs after it is released, so the visitor may take locks of
  /// its own (e.g. a spill log's) without ordering hazards.
  void ForEach(const std::function<void(const std::string& key,
                                        const std::shared_ptr<const V>& value,
                                        size_t charge)>& fn) const {
    for (const auto& shard : shards_) {
      std::vector<Entry> snapshot;
      {
        std::lock_guard<std::mutex> lock(shard->mu);
        snapshot.reserve(shard->lru.size());
        for (const Entry& e : shard->lru) snapshot.push_back(e);
      }
      for (const Entry& e : snapshot) fn(e.key, e.value, e.charge);
    }
  }

  /// Drops every entry (stats counters are preserved).
  void Clear() {
    for (auto& shard : shards_) {
      std::lock_guard<std::mutex> lock(shard->mu);
      shard->lru.clear();
      shard->map.clear();
      shard->bytes = 0;
    }
  }

  CacheStats Stats() const {
    CacheStats stats;
    stats.budget_bytes = budget_bytes_;
    stats.shards = shards_.size();
    for (const auto& shard : shards_) {
      std::lock_guard<std::mutex> lock(shard->mu);
      stats.hits += shard->hits;
      stats.misses += shard->misses;
      stats.insertions += shard->insertions;
      stats.evictions += shard->evictions;
      stats.rejected += shard->rejected;
      stats.admission_denied += shard->admission_denied;
      stats.entries += shard->lru.size();
      stats.bytes += shard->bytes;
    }
    return stats;
  }

 private:
  // Fixed bookkeeping charge per entry (list/map node overhead), so even
  // zero-byte payloads cannot grow the cache unboundedly.
  static constexpr size_t kEntryOverhead = 64;

  // Rough per-entry footprint used only to size the admission sketch
  // (counter count, not correctness): assuming entries this small gives
  // the sketch headroom when real entries are bigger.
  static constexpr size_t kSketchBytesPerEntry = 256;

  struct Entry {
    std::string key;
    uint64_t hash = 0;  // HashKey(key), kept so victims aren't rehashed
    std::shared_ptr<const V> value;
    size_t charge = 0;
  };

  struct Shard {
    mutable std::mutex mu;
    std::list<Entry> lru;  // front = most recently used
    std::unordered_map<std::string,
                       typename std::list<Entry>::iterator>
        map;
    std::unique_ptr<FrequencySketch> sketch;  // null under kLru
    size_t budget = 0;
    size_t bytes = 0;
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t insertions = 0;
    uint64_t evictions = 0;
    uint64_t rejected = 0;
    uint64_t admission_denied = 0;
  };

  static uint64_t HashKey(const std::string& key) {
    return Fnv1a64(key.data(), key.size());
  }
  Shard& ShardAt(uint64_t hash) { return *shards_[hash % shards_.size()]; }
  const Shard& ShardFor(const std::string& key) const {
    return *shards_[HashKey(key) % shards_.size()];
  }

  size_t budget_bytes_ = 0;
  CacheAdmission admission_ = CacheAdmission::kTinyLfu;
  std::vector<std::unique_ptr<Shard>> shards_;
  EvictionCallback eviction_cb_;
};

}  // namespace deeplens
