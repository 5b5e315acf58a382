#include "cache/persistent_cache.h"

#include <fcntl.h>
#include <sys/file.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <utility>

#include "common/checksum.h"
#include "common/logging.h"
#include "storage/file_io.h"

namespace deeplens {

namespace {

// The filter hashes with the same FNV the cache shards use; the filter
// remixes internally, so sharing the input hash is harmless. Takes a
// Slice so log-index keys hash in place, without a std::string copy.
uint64_t KeyHash(const Slice& key) {
  return Fnv1a64(key.data(), key.size());
}

// Acquires an exclusive, non-blocking advisory lock. flock locks follow
// the open file description, so this also refuses a second opener inside
// the same process. Returns the held fd, or -1 (errno set) on failure.
int AcquireLockFile(const std::string& path) {
  const int fd = ::open(path.c_str(), O_CREAT | O_RDWR | O_CLOEXEC, 0644);
  if (fd < 0) return -1;
  if (::flock(fd, LOCK_EX | LOCK_NB) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

}  // namespace

Result<std::unique_ptr<PersistentInferenceCache>>
PersistentInferenceCache::Open(const std::string& dir, size_t budget_bytes,
                               size_t num_shards, CacheAdmission admission,
                               InflightTable* inflight,
                               BatchFormer* batch_former) {
  DL_RETURN_NOT_OK(CreateDirs(dir));
  auto cache = std::unique_ptr<PersistentInferenceCache>(
      new PersistentInferenceCache(budget_bytes, num_shards, admission,
                                   inflight, batch_former,
                                   dir + "/" + kLogFileName));
  cache->lock_fd_ = AcquireLockFile(dir + "/" + kLockFileName);
  if (cache->lock_fd_ < 0) {
    return Status::AlreadyExists(
        "inference spill log in '" + dir +
        "' is held by another writer (" + std::strerror(errno) +
        "); the log is single-writer");
  }
  DL_ASSIGN_OR_RETURN(cache->store_, RecordStore::Open(cache->log_path()));
  // Compact before warm-loading: churny predecessors (eviction/overwrite
  // traffic, divergent respills) leave dead versions behind, and folding
  // them out now means the warm load scans — and the resident-key filter
  // indexes — a minimal log. A failed compaction is survivable (the old
  // log is intact), so it only warns.
  if (ShouldCompact(cache->store_->Stats())) {
    const RecordStoreStats before = cache->store_->Stats();
    const Status status = cache->store_->Compact();
    if (status.ok()) {
      DL_LOG(kInfo) << "inference spill log " << cache->log_path()
                    << ": compacted " << before.log_bytes << " -> "
                    << cache->store_->Stats().log_bytes << " bytes ("
                    << before.dead_bytes() << " dead)";
    } else {
      DL_LOG(kWarn) << "inference spill log " << cache->log_path()
                    << ": compaction failed: " << status.ToString();
    }
  }
  cache->store_->ForEachKey([&](const Slice& key) {
    cache->resident_keys_.Add(KeyHash(key));
  });
  if (cache->enabled()) cache->WarmLoad();
  // Installed after the warm load: replaying the log must never evict
  // back into the log it is reading.
  cache->cache_.SetEvictionCallback(
      [raw = cache.get()](const std::string& key,
                          std::shared_ptr<const InferenceValue> value,
                          size_t /*charge*/) {
        std::lock_guard<std::mutex> lock(raw->store_mu_);
        if (raw->store_ != nullptr) raw->SpillLocked(key, *value);
      });
  return cache;
}

PersistentInferenceCache::~PersistentInferenceCache() { Retire(); }

void PersistentInferenceCache::WarmLoad() {
  const size_t budget = cache_.budget_bytes();
  size_t attempted_bytes = 0;
  uint64_t loaded = 0;
  uint64_t dropped = 0;
  (void)store_->ScanAll([&](const Slice& key, const Slice& value) {
    auto parsed = InferenceValue::Parse(value);
    if (!parsed.ok()) {
      // Stale format or torn record: a persistent cache degrades to a
      // miss, never to a wrong answer.
      ++dropped;
      return true;
    }
    const size_t charge = parsed->ByteSize();
    attempted_bytes += charge;
    if (cache_.Put(key.ToString(),
                   std::make_shared<const InferenceValue>(std::move(*parsed)),
                   charge)) {
      ++loaded;
    }
    // Stop once a budget's worth of entries has been *offered*, whether
    // or not memory kept each one: under TinyLFU admission a full shard
    // refuses further loads (every estimate is 0 right after open), and
    // counting only accepted bytes would keep this scan parsing an
    // arbitrarily large log long after the hot tier stopped filling.
    return attempted_bytes < budget;
  });
  warm_loaded_ = loaded;
  if (dropped > 0) {
    DL_LOG(kWarn) << "inference spill log " << log_path() << ": skipped "
                  << dropped << " unreadable entries during warm load";
  }
}

std::shared_ptr<const InferenceValue> PersistentInferenceCache::Get(
    const std::string& key) {
  if (auto hit = cache_.Get(key)) return hit;
  if (!enabled()) return nullptr;
  // Known absent from the log (no false negatives): don't serialize
  // concurrent workers on the store mutex for a guaranteed miss. Covers
  // both the empty-log cold first run and, via the replay-built filter,
  // never-spilled keys against an arbitrarily large warm log.
  if (!resident_keys_.MightContain(KeyHash(key))) {
    filter_skips_.fetch_add(1, std::memory_order_relaxed);
    return nullptr;
  }
  InferenceValue value;
  {
    std::lock_guard<std::mutex> lock(store_mu_);
    if (store_ == nullptr) return nullptr;
    auto bytes = store_->Get(Slice(key));
    if (!bytes.ok()) {
      ++disk_misses_;
      return nullptr;
    }
    auto parsed = InferenceValue::Parse(Slice(*bytes));
    if (!parsed.ok()) {
      ++disk_misses_;
      // Unreadable records can never become hits; tombstone them so
      // repeated lookups stop paying the parse attempt.
      (void)store_->Delete(Slice(key));
      return nullptr;
    }
    ++disk_hits_;
    value = std::move(*parsed);
  }
  // Promote outside the store lock: the memory Put may evict, and the
  // eviction write-through takes the store lock itself.
  auto shared = std::make_shared<const InferenceValue>(std::move(value));
  cache_.Put(key, shared, shared->ByteSize());
  return shared;
}

void PersistentInferenceCache::Put(const std::string& key,
                                   InferenceValue value) {
  const size_t charge = value.ByteSize();
  auto shared = std::make_shared<const InferenceValue>(std::move(value));
  if (cache_.Put(key, shared, charge)) return;
  if (!enabled()) return;
  // Memory rejected the entry (oversized for a shard slice). It is still
  // an expensive materialized view — keep it on disk, where the next
  // lookup finds it.
  std::lock_guard<std::mutex> lock(store_mu_);
  if (store_ != nullptr) SpillLocked(key, *shared);
}

void PersistentInferenceCache::SpillLocked(const std::string& key,
                                           const InferenceValue& value) {
  ByteBuffer buf;
  value.SerializeInto(&buf);
  // Keys are content-addressed, so a live record normally already holds
  // these exact bytes: re-appending would only grow the append-only
  // log — unboundedly so under eviction/promote churn, and on every
  // shutdown for entries warm-loaded unchanged from this log. Skip on
  // *byte equality*, not mere presence: a divergent live record (e.g. a
  // wrong-typed value from a build that changed a payload type without
  // bumping the format version) must be overwritten so the log
  // self-heals instead of re-triggering recompute on every restart.
  if (auto live = store_->Get(Slice(key));
      live.ok() && Slice(*live) == buf.AsSlice()) {
    return;
  }
  const Status status = store_->Put(Slice(key), buf.AsSlice());
  if (!status.ok()) {
    DL_LOG(kWarn) << "inference spill log " << log_path()
                  << ": write failed: " << status.ToString();
    return;
  }
  ++spilled_;
  resident_keys_.Add(KeyHash(key));
}

Status PersistentInferenceCache::Compact() {
  std::lock_guard<std::mutex> lock(store_mu_);
  if (store_ == nullptr) return Status::OK();
  const RecordStoreStats before = store_->Stats();
  DL_RETURN_NOT_OK(store_->Compact());
  DL_LOG(kInfo) << "inference spill log " << log_path() << ": compacted "
                << before.log_bytes << " -> " << store_->Stats().log_bytes
                << " bytes";
  return Status::OK();
}

Status PersistentInferenceCache::Persist() {
  std::lock_guard<std::mutex> lock(store_mu_);
  if (store_ == nullptr) return Status::OK();
  cache_.ForEach([this](const std::string& key,
                        const std::shared_ptr<const InferenceValue>& value,
                        size_t /*charge*/) { SpillLocked(key, *value); });
  return store_->Flush();
}

void PersistentInferenceCache::Retire() {
  const Status status = Persist();
  if (!status.ok()) {
    DL_LOG(kWarn) << "inference spill log " << log_path()
                  << ": final persist failed: " << status.ToString();
  }
  {
    std::lock_guard<std::mutex> lock(store_mu_);
    store_.reset();
    if (lock_fd_ >= 0) {
      ::close(lock_fd_);  // releases the flock; a successor can open now
      lock_fd_ = -1;
    }
  }
  Clear();
}

CacheStats PersistentInferenceCache::Stats() const {
  CacheStats stats = cache_.Stats();
  std::lock_guard<std::mutex> lock(store_mu_);
  stats.disk_hits = disk_hits_;
  stats.disk_misses = disk_misses_;
  stats.spilled = spilled_;
  stats.warm_loaded = warm_loaded_;
  stats.filter_skips = filter_skips_.load(std::memory_order_relaxed);
  if (store_ != nullptr) {
    const RecordStoreStats rs = store_->Stats();
    stats.disk_entries = rs.num_records;
    stats.disk_bytes = rs.log_bytes;
    stats.disk_live_bytes = rs.live_bytes;
  }
  return stats;
}

}  // namespace deeplens
