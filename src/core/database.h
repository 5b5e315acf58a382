// The DeepLens database facade: one object owning the catalog, the model
// zoo, tuple-level lineage, materialized views, and the index registry.
// This is the public entry point a downstream application uses.
#pragma once

#include <atomic>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "cache/cache_config.h"
#include "cache/inference_cache.h"
#include "cache/inflight.h"
#include "cache/segment_cache.h"
#include "core/serving.h"
#include "exec/batch_former.h"
#include "etl/generators.h"
#include "etl/materialize.h"
#include "etl/transformers.h"
#include "exec/aggregates.h"
#include "exec/joins.h"
#include "index/balltree.h"
#include "index/btree.h"
#include "index/hash_index.h"
#include "index/rtree.h"
#include "lineage/lineage.h"
#include "storage/catalog.h"
#include "storage/storage_advisor.h"
#include "storage/video_store.h"

namespace deeplens {

class Session;  // core/session.h

/// \brief A queryable view: a patch collection plus the indexes built
/// over it. RowIds in the indexes are positions in `patches`.
///
/// Resident views hold their rows in `patches`. A view attached from a
/// columnar file (AttachPersistedView) instead holds a footer snapshot in
/// `columnar` with `patches` empty: the planner scans it chunk-at-a-time
/// with zone-map pruning and async decode-ahead rather than from memory.
/// In-memory indexes only ever cover `patches`, so attached views rely on
/// zone maps instead of BuildIndex.
struct ViewCache {
  PatchCollection patches;
  std::shared_ptr<columnar::ColumnarReader> columnar;  // disk-backed scan
  std::map<std::string, HashIndex> hash_indexes;     // by meta key
  std::map<std::string, BPlusTree> btree_indexes;    // by meta key
  std::unique_ptr<BallTree> feature_index;           // over features
  std::unique_ptr<RTree> bbox_index;                 // over bboxes

  /// Monotone cache-invalidation token for memoized plans (core/planner.h):
  /// bumped (process-globally, so re-registering a view never reuses a
  /// version) whenever the Database swaps this view's contents or mutates
  /// its index set. Hand-built ViewCaches keep version 0, which the plan
  /// cache treats as "never memoize".
  uint64_t version = 0;

  /// True when queries stream from the columnar file instead of RAM.
  bool disk_backed() const { return columnar != nullptr && patches.empty(); }
};

/// \brief DeepLens instance rooted at a directory.
class Database {
 public:
  /// Opens (creating directories as needed) a database at `root`.
  static Result<std::unique_ptr<Database>> Open(const std::string& root);

  const std::string& root() const { return root_; }
  Catalog* catalog() { return catalog_.get(); }
  LineageStore* lineage() { return &lineage_; }
  std::atomic<uint64_t>* id_counter() { return &id_counter_; }

  // --- Caches (inference memoization + decoded segments) ---------------
  // Sized by DEEPLENS_CACHE_MB (total budget split between the two;
  // 0 disables caching). With DEEPLENS_CACHE_DIR set, the inference
  // cache is persistent: NN UDF results spill to a crash-safe RecordStore
  // log in that directory, survive restarts, and warm-load on open (the
  // paper's materialized-UDF-view idea). Both caches are shared by every
  // query/ETL run against this database; morsel workers hit the shards
  // concurrently.
  InferenceCache* inference_cache() { return inference_cache_.get(); }
  SegmentCache* segment_cache() { return segment_cache_.get(); }
  const CacheConfig& cache_config() const { return cache_config_; }

  /// Re-sizes both caches (drops all cached entries; stats counters on
  /// the new instances start from zero). A retiring persistent inference
  /// cache spills its working set and closes its log first, so the new
  /// instance reopens the same spill file and warm-loads from it. Readers
  /// obtained from LoadVideo() before this call keep using the retired
  /// segment cache they co-own; reopen them to pick up the new one.
  /// Per-tenant partition caches are retired too (and lazily rebuilt
  /// against the new budget); recreate sessions to pick them up.
  void ConfigureCaches(const CacheConfig& config);

  // --- Multi-tenant serving (admission + fair share + dedup) ------------

  /// A tenant-scoped handle: queries run through Session::Run are
  /// admission-controlled, scheduled under the tenant's fair-share
  /// weight, and cached in the tenant's partition. An empty tenant name
  /// gives the anonymous session (weight 1, shared cache).
  Session CreateSession(const std::string& tenant = "");

  /// Replaces the serving policy (admission bound/wait + tenant
  /// weights). Existing per-tenant caches are retired so budgets
  /// re-partition under the new weights; sessions created before this
  /// call keep their old weight and retired cache — recreate them.
  void ConfigureServing(const ServingConfig& config);
  const ServingConfig& serving_config() const { return serving_config_; }

  AdmissionGate* admission_gate() { return &admission_gate_; }

  /// The database-wide singleflight table: every inference cache the
  /// database builds (shared, per-tenant, persistent) runs its misses
  /// through it, so identical in-flight inferences dedup across tenants
  /// even when their caches are partitioned.
  InflightTable* inflight_table() { return &inflight_; }

  /// The database-wide cross-query batch former: like the inflight
  /// table, shared by every inference cache so concurrent sessions'
  /// distinct cache-miss patches amortize one device invocation.
  /// Configured from ServingConfig (DEEPLENS_DEVICE_BATCH_SIZE /
  /// DEEPLENS_BATCH_WAIT_US); disabled by default.
  BatchFormer* batch_former() { return &batch_former_; }

  /// `tenant`'s partitioned inference cache, created on first use with
  /// its weight-proportional slice of the configured inference budget
  /// (the shared cache for the empty tenant). Tenant partitions are
  /// in-memory: the persistent spill log stays with the shared cache.
  InferenceCache* TenantInferenceCache(const std::string& tenant);

  // --- Model zoo -------------------------------------------------------
  const nn::TinySsdDetector* detector() const { return &detector_; }
  const nn::TinyOcr* ocr() const { return &ocr_; }
  const nn::TinyDepth* depth_model() const { return &depth_; }

  /// EtlOptions wired to this database's lineage and id allocator.
  EtlOptions MakeEtlOptions(const std::string& dataset_name,
                            nn::Device* device = nullptr);

  // --- Video ingest / load (paper §3.1 Load API) -----------------------

  /// Stores a video under `name` with the chosen layout and registers it.
  Status IngestVideo(const std::string& name, FrameIterator frames,
                     const VideoStoreOptions& options,
                     const std::string& description = "");

  /// Opens a stored video by name (format-agnostic).
  Result<std::shared_ptr<VideoReader>> LoadVideo(const std::string& name);

  // --- Views (in-memory queryable patch collections) -------------------

  /// Registers an in-memory collection as view `name` (replacing any
  /// previous content and its indexes).
  Status RegisterView(const std::string& name, PatchCollection patches);

  /// Drains a batch iterator into view `name` (the native path).
  Status RegisterView(const std::string& name, BatchIterator* it);

  /// Drains a tuple iterator into view `name` by batching it through the
  /// vectorized engine.
  Status RegisterView(const std::string& name, PatchIterator* it);

  /// Fetches a view; NotFound if absent.
  Result<ViewCache*> GetView(const std::string& name);
  bool HasView(const std::string& name) const {
    return views_.find(name) != views_.end();
  }

  /// Persists a view to disk under `<root>/views/<name>` so later opens
  /// can LoadPersistedView() instead of re-running ETL.
  Status PersistView(const std::string& name);
  Status LoadPersistedView(const std::string& name);
  bool HasPersistedView(const std::string& name) const;

  /// Registers persisted view `name` as a disk-backed view: a columnar
  /// footer snapshot is attached and queries stream chunks (zone-map
  /// pruned, decode-ahead) instead of materializing the rows in RAM.
  /// Legacy-format files cannot stream, so they fall back to
  /// LoadPersistedView's full load.
  Status AttachPersistedView(const std::string& name);

  // --- Index management (paper §3.2) ------------------------------------

  /// Builds (or rebuilds) an index over `view`. For kHash/kBPlusTree pass
  /// the meta key; kBallTree uses patch features; kRTree uses bboxes.
  /// Returns build statistics.
  Result<IndexStats> BuildIndex(const std::string& view, IndexKind kind,
                                const std::string& meta_key = "");

  /// Drops all indexes on a view.
  Status DropIndexes(const std::string& view);

 private:
  explicit Database(std::string root);

  std::string VideoPath(const std::string& name) const;
  std::string ViewPath(const std::string& name) const;

  std::string root_;
  std::unique_ptr<Catalog> catalog_;
  LineageStore lineage_;
  std::atomic<uint64_t> id_counter_{1};

  CacheConfig cache_config_;
  // shared_ptr: readers returned by LoadVideo() co-own the segment cache
  // (captured in their deleter), so they stay safe past ConfigureCaches()
  // and even past the Database itself.
  std::shared_ptr<SegmentCache> segment_cache_;
  std::unique_ptr<InferenceCache> inference_cache_;
  // Inference caches replaced by ConfigureCaches(); kept alive because
  // expressions and EtlOptions hold raw pointers into them.
  std::vector<std::unique_ptr<InferenceCache>> retired_inference_caches_;

  ServingConfig serving_config_;
  AdmissionGate admission_gate_;
  InflightTable inflight_;
  BatchFormer batch_former_;
  // Per-tenant cache partitions, lazily built; guarded by tenant_mu_
  // (sessions may be created from concurrent serving threads).
  std::mutex tenant_mu_;
  std::map<std::string, std::unique_ptr<InferenceCache>> tenant_caches_;

  nn::TinySsdDetector detector_;
  nn::TinyOcr ocr_;
  nn::TinyDepth depth_;

  std::map<std::string, ViewCache> views_;
};

}  // namespace deeplens
