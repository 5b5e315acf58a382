// PersistentInferenceCache: the paper's materialized-UDF-view idea made
// durable. NN UDF results are expensive materialized views; a purely
// in-memory cache re-runs every inference after a restart. This layer
// keeps the sharded in-memory LRU as the hot tier and writes entries
// through to a crash-safe, CRC-framed RecordStore log (the same
// chunked-log machinery that backs the storage layer):
//
//   - inserts land in memory; entries the LRU evicts — and values memory
//     refuses to hold (oversized for a shard, or denied by the TinyLFU
//     admission filter) — are spilled to the log,
//   - an in-memory miss consults the log before giving up (a disk hit
//     is promoted back into memory, admission permitting; a denied
//     promotion still serves the caller from disk),
//   - a resident-key Bloom filter built during replay answers "known
//     absent" memory misses without touching the store mutex,
//   - Retire()/destruction spill every resident entry and flush, so a
//     clean shutdown persists the whole working set,
//   - open compacts the log when dead versions outweigh live bytes
//     (rewrite to a temp log + atomic rename; see RecordStore::Compact),
//     then warm-loads entries until the memory budget is full, so the
//     first post-restart query is lookup-bound.
//
// Invalidation is structural: keys embed the device-qualified model
// identity, so results from another model/device/backend can never be
// served; values carry a format version, so a stale log degrades to
// misses, never to wrong answers. Torn log tails are dropped by the
// RecordStore's CRC framing on replay.
//
// Thread-safety: the memory tier keeps its per-shard mutexes; the
// single-writer RecordStore is guarded by one store mutex, taken only
// on the (rare, already I/O-bound) miss/spill paths and never while a
// shard lock is held.
#pragma once

#include <atomic>
#include <memory>
#include <mutex>
#include <string>

#include "cache/inference_cache.h"
#include "cache/key_filter.h"
#include "storage/record_store.h"

namespace deeplens {

class PersistentInferenceCache : public InferenceCache {
 public:
  /// Spill log file created under the cache directory.
  static constexpr const char* kLogFileName = "inference.dlog";
  /// Advisory lock file guarding the single-writer log.
  static constexpr const char* kLockFileName = "inference.lock";

  /// Opens (creating as needed) the spill log under directory `dir`,
  /// replays it — compacting first when dead bytes have outgrown live
  /// bytes — and warm-loads entries into memory until `budget_bytes` is
  /// reached. `budget_bytes` = 0 still persists nothing and serves
  /// nothing (a disabled cache stays disabled). The log is single-writer
  /// (RecordStore offsets are private to the writer): an exclusive flock
  /// on the lock file guards it, and a second opener — same or another
  /// process — gets AlreadyExists instead of silently corrupting the
  /// shared tail (Database then degrades that opener to volatile
  /// caching). `inflight` and `batch_former` are wired in as for
  /// InferenceCache.
  static Result<std::unique_ptr<PersistentInferenceCache>> Open(
      const std::string& dir, size_t budget_bytes, size_t num_shards,
      CacheAdmission admission = CacheAdmission::kTinyLfu,
      InflightTable* inflight = nullptr, BatchFormer* batch_former = nullptr);

  /// Auto-compaction trigger, checked at Open(): rewrite when the log
  /// holds at least as many dead bytes as live ones (so the log never
  /// stays above 2x its live payload across restarts) and the dead
  /// weight is worth an I/O pass at all.
  static constexpr uint64_t kCompactMinDeadBytes = 4096;
  static bool ShouldCompact(const RecordStoreStats& stats) {
    return stats.dead_bytes() >= kCompactMinDeadBytes &&
           stats.dead_bytes() >= stats.live_bytes;
  }

  /// Rewrites the spill log to hold only the newest version of each live
  /// key (temp log + atomic rename; crash-safe — an interrupted run
  /// leaves the old log intact and its temp file is discarded on the
  /// next Open). Runs automatically at Open() when ShouldCompact(); this
  /// entry point exists for tests and operational tooling. No-op after
  /// Retire().
  Status Compact();

  ~PersistentInferenceCache() override;

  bool persistent() const override { return true; }

  /// Memory first; on miss, the resident-key filter and then the spill
  /// log (promoting a disk hit back into the memory tier when admission
  /// allows — a denied promotion still serves the caller from disk).
  /// Keys the filter knows are absent never touch the store mutex.
  std::shared_ptr<const InferenceValue> Get(const std::string& key) override;

  /// Inserts into memory. Values memory refuses — oversized for a shard,
  /// or colder than their would-be eviction victim under TinyLFU — go
  /// straight to the log instead of being dropped: an admission-denied
  /// inference result is still an expensive materialized view, and the
  /// next miss on it must find it on disk.
  void Put(const std::string& key, InferenceValue value) override;

  /// Spills every memory-resident entry to the log and flushes it.
  Status Persist();

  /// Persist(), then close the log (so a successor instance can reopen
  /// it) and drop the memory tier. Lookups miss from here on.
  void Retire() override;

  /// Memory-tier stats plus disk provenance (disk_hits/disk_misses/
  /// spilled/warm_loaded and the spill log's record/byte counts).
  CacheStats Stats() const override;

  const std::string& log_path() const { return log_path_; }

 private:
  PersistentInferenceCache(size_t budget_bytes, size_t num_shards,
                           CacheAdmission admission, InflightTable* inflight,
                           BatchFormer* batch_former, std::string log_path)
      : InferenceCache(budget_bytes, num_shards, admission, inflight,
                       batch_former),
        log_path_(std::move(log_path)) {}

  /// Serializes and appends one entry. Caller holds store_mu_.
  void SpillLocked(const std::string& key, const InferenceValue& value);

  /// Loads the log's live records (the store's index already keeps only
  /// the latest version per key; ScanAll visits them in key order) into
  /// the memory tier until the budget is full — when the log outgrows
  /// the budget, the remainder stays disk-only and is served via the
  /// miss path. Called once from Open, before the eviction hook is
  /// installed, so warm-loading can never churn the log it is reading.
  void WarmLoad();

  std::string log_path_;

  // Resident-key filter over everything the log holds (seeded from the
  // replay index, extended on every spill): a memory miss whose key is
  // "definitely absent" returns without touching store_mu_, so the
  // (morsel-parallel) miss path of a never-cached workload can't
  // serialize on guaranteed-miss probes. Subsumes the old empty-log
  // boolean hint — an empty log is just an empty filter.
  KeyFilter resident_keys_;
  std::atomic<uint64_t> filter_skips_{0};

  mutable std::mutex store_mu_;
  std::unique_ptr<RecordStore> store_;  // null after Retire()
  int lock_fd_ = -1;                    // held while store_ is open
  uint64_t disk_hits_ = 0;
  uint64_t disk_misses_ = 0;
  uint64_t spilled_ = 0;
  uint64_t warm_loaded_ = 0;
};

}  // namespace deeplens
