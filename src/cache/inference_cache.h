// InferenceCache: sharded, byte-budgeted memoization of NN UDF outputs,
// keyed by (model name, patch/frame fingerprint). The paper's §7.4
// observation is that inference dominates visual query time; repeated
// queries over the same view should therefore pay one inference per
// distinct patch, not one per query. Morsel workers consult the shared
// shards concurrently (per-shard mutexes; values returned by shared_ptr
// so no lock is held during use).
//
// Get/Put/Stats are virtual so the persistence layer
// (cache/persistent_cache.h) can layer a RecordStore-backed spill log
// under the same pointer every call site already holds — the paper's
// materialized-UDF-view idea: inference results are expensive views that
// should survive the process.
//
// The typed Cached* wrappers are the integration points: call sites hand
// them a model, the pixels, and an optional cache; a null or disabled
// cache degrades to a plain inference call, which is what the
// differential tests exploit to prove cache-on == cache-off. Their miss
// path is one pipeline: a keyed miss runs through the cache's
// singleflight table (cache/inflight.h, the only dedup), whose leader
// evaluates inline or stages the patch in the cross-query batch former
// (exec/batch_former.h, which only batches) and Puts the result before
// the flight resolves.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <variant>
#include <vector>

#include "cache/sharded_lru.h"
#include "common/bytes.h"
#include "core/patch.h"
#include "nn/models.h"
#include "tensor/tensor.h"

namespace deeplens {

class InflightTable;  // cache/inflight.h — includes this header back
class BatchFormer;    // exec/batch_former.h — includes this header back

/// Canonical model names used in cache keys and plan explanations.
namespace model_names {
inline constexpr const char* kDetector = "tiny-ssd";
inline constexpr const char* kOcr = "tiny-ocr";
inline constexpr const char* kDepth = "tiny-depth";
}  // namespace model_names

/// One memoized inference output. Which alternative is active is
/// determined by the model that produced it.
struct InferenceValue {
  std::variant<std::string, double, Tensor, std::vector<nn::Detection>>
      payload;

  /// Approximate total footprint (object + heap), charged against the
  /// cache budget. Heap-bearing payloads are charged by *capacity*, not
  /// size, so budget accounting tracks what the allocator really holds.
  size_t ByteSize() const;

  /// Appends the versioned wire encoding (used by the persistent spill
  /// log): u8 format version, u8 payload tag, then the payload. All four
  /// variant alternatives round-trip exactly.
  void SerializeInto(ByteBuffer* buf) const;

  /// Decodes a value produced by SerializeInto. Unknown versions or
  /// tags, truncated input, and implausible tensor shapes return
  /// Corruption — a persistent cache treats that as a miss, never as a
  /// wrong answer.
  static Result<InferenceValue> Parse(const Slice& data);

  /// Bumped whenever the wire encoding changes shape; Parse rejects
  /// anything else, so stale spill logs invalidate themselves.
  static constexpr uint8_t kFormatVersion = 1;
};

class InferenceCache {
 public:
  /// `budget_bytes` = 0 disables the cache (all lookups miss, inserts
  /// are dropped, no locks taken). Admission defaults to TinyLFU so a
  /// cold scan cannot flush hot inference results; pass
  /// CacheAdmission::kLru for the classic admit-everything behavior.
  /// `inflight` and `batch_former` are not owned; a null `inflight`
  /// gives the cache a private singleflight table, a null
  /// `batch_former` makes every miss evaluate inline.
  InferenceCache(size_t budget_bytes, size_t num_shards,
                 CacheAdmission admission = CacheAdmission::kTinyLfu,
                 InflightTable* inflight = nullptr,
                 BatchFormer* batch_former = nullptr);
  virtual ~InferenceCache();

  bool enabled() const { return cache_.enabled(); }

  /// True when lookups can be served from (and survive to) disk.
  virtual bool persistent() const { return false; }

  /// Cache key for `model` applied to content with `fingerprint`.
  /// `variant` distinguishes runs of the same model under different
  /// parameters (e.g. the frame height fed to the depth head) and is
  /// always encoded — including 0 — so a parameter that happens to be
  /// zero can never alias a differently-parameterized call. The model
  /// component is length-prefixed: keys are durable on disk, so a model
  /// string containing '#'/'@' must not be able to collide with another
  /// key. Fold the device into `model` (ModelOnDevice) — backends are
  /// only tolerance-equal, so their outputs must not share entries.
  static std::string KeyFor(const std::string& model, uint64_t fingerprint,
                            uint64_t variant = 0);

  /// Device-qualified model identity for device-dependent outputs. Both
  /// components are length-prefixed, so no (model, device) pair can
  /// alias another.
  static std::string ModelOnDevice(const char* model, nn::Device* device);

  virtual std::shared_ptr<const InferenceValue> Get(const std::string& key) {
    return cache_.Get(key);
  }

  /// A flight leader's re-check of a key its caller just missed: reads
  /// the memory tier, where a value published by the previous flight
  /// lives unless admission turned it away. A hit counts as usual; a miss
  /// leaves no trace, since the caller's Get already counted it.
  std::shared_ptr<const InferenceValue> Recheck(const std::string& key) {
    return cache_.Get(key, /*record_miss=*/false);
  }
  virtual void Put(const std::string& key, InferenceValue value);

  virtual void Clear() { cache_.Clear(); }

  /// Called by the Database when this instance is replaced: releases
  /// entries (and, for persistent caches, spills them and closes the
  /// log so a successor can reopen it). Raw-pointer holders keep using
  /// the retired object safely; lookups just miss.
  virtual void Retire() { Clear(); }

  virtual CacheStats Stats() const { return cache_.Stats(); }

  /// The singleflight table every keyed miss runs through; never null.
  /// The Database passes its one table to every cache it builds (shared,
  /// per-tenant and persistent), so identical in-flight inferences dedup
  /// *across* tenants even when their caches are partitioned.
  InflightTable* inflight() const { return inflight_; }

  /// The cross-query batch former keyed misses stage into, or null. Like
  /// the inflight table, the Database shares one former across all its
  /// caches so batches form across tenants.
  BatchFormer* batch_former() const { return batch_former_; }

  /// Patches per device invocation this cache's keyed misses stage into;
  /// 0 when they evaluate inline (cache disabled, no former, or the
  /// former configured off).
  uint64_t device_batch_size() const;

 protected:
  ShardedLruCache<InferenceValue> cache_;

 private:
  std::unique_ptr<InflightTable> own_inflight_;  // standalone caches only
  InflightTable* inflight_;
  BatchFormer* batch_former_;
};

// --- Memoized inference entry points ------------------------------------
// Each consults `cache` first (when non-null and enabled) and stores the
// result on a miss. Results are bit-identical to the direct model call:
// the cache stores outputs, it never approximates them. The execution
// device is part of the key — kernels on different backends are only
// tolerance-equal, so a scalar-device result must never answer a
// vector-device query. Pass `fingerprint` = 0 when no cache is attached
// to skip hashing entirely (callers: compute it only for an enabled
// cache).

/// OCR over patch pixels. `fingerprint` is Patch::Fingerprint() (or
/// ImageFingerprint for bare crops). `computed`, when non-null, reports
/// whether this call ran the model itself (miss path) as opposed to
/// being served by the cache or a concurrent in-flight computation — the
/// cost model's hit/miss discriminator for its runtime EWMAs.
Result<std::string> CachedOcrText(const nn::TinyOcr& ocr,
                                  const Image& pixels, uint64_t fingerprint,
                                  nn::Device* device, InferenceCache* cache,
                                  bool* computed = nullptr);

/// Monocular depth over patch pixels + box geometry. `computed` as in
/// CachedOcrText.
Result<double> CachedDepth(const nn::TinyDepth& model, const Image& pixels,
                           const nn::BBox& bbox, int frame_h,
                           uint64_t fingerprint, nn::Device* device,
                           InferenceCache* cache, bool* computed = nullptr);

/// The keyed-miss path of the Cached* wrappers, exposed so tests can
/// drive it without a preceding cache probe: one flight per `key` in
/// cache->inflight(). The leader re-checks `cache` (Recheck), and only on
/// a second miss runs `eval` and Puts its result before the flight
/// resolves.
/// `computed`, when non-null, is set to true if this call ran `eval`
/// (and left as is otherwise).
/// Instantiated for std::string (OCR) and double (depth).
template <typename T>
Result<T> CachedMiss(InferenceCache* cache, const std::string& key,
                     const std::function<Result<T>()>& eval,
                     bool* computed = nullptr);

/// Fingerprint for cache use: 0 (no hashing at all) when no enabled
/// cache is attached, so the cache-disabled configuration pays nothing.
inline uint64_t CacheFingerprint(const Patch& p, InferenceCache* cache) {
  return cache != nullptr && cache->enabled() ? p.Fingerprint() : 0;
}

}  // namespace deeplens
