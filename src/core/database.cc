#include "core/database.h"

#include "cache/persistent_cache.h"
#include "common/clock.h"
#include "common/logging.h"
#include "core/session.h"

namespace deeplens {

namespace {

// Process-global view-version source. Monotone and never reused, so a
// memoized plan keyed by (version, shape) can never match a view that was
// re-registered — even under the same name with identical contents but a
// different index set.
uint64_t NextViewVersion() {
  static std::atomic<uint64_t> counter{0};
  return counter.fetch_add(1, std::memory_order_relaxed) + 1;
}

}  // namespace

Database::Database(std::string root)
    : root_(std::move(root)), depth_(nn::kFocalTimesHeight) {
  ConfigureCaches(CacheConfig::FromEnv());
  ConfigureServing(ServingConfig::FromEnv());
}

void Database::ConfigureCaches(const CacheConfig& config) {
  // Flush staged patches before retiring the caches their flight
  // leaders will publish to (holders stay safe either way via the
  // retired list, but teardown should not leave batches half-formed).
  batch_former_.Drain();
  if (inference_cache_) {
    // Raw-pointer holders (expressions, EtlOptions) keep the object
    // alive via the retired list, but Retire() drops its entries now so
    // a shrink actually releases memory — stragglers just miss. A
    // persistent instance also spills its working set and closes its
    // log here, so the successor can reopen the same spill file.
    inference_cache_->Retire();
    retired_inference_caches_.push_back(std::move(inference_cache_));
  }
  if (segment_cache_) segment_cache_->Clear();
  cache_config_ = config;
  const size_t shards = config.ResolvedShards();
  if (!config.cache_dir.empty()) {
    auto persistent = PersistentInferenceCache::Open(
        config.cache_dir, config.inference_budget(), shards,
        config.admission, &inflight_, &batch_former_);
    if (persistent.ok()) {
      inference_cache_ = std::move(*persistent);
    } else {
      DL_LOG(kWarn) << "persistent inference cache at '" << config.cache_dir
                    << "' unavailable (" << persistent.status().ToString()
                    << "); falling back to in-memory caching";
    }
  }
  if (!inference_cache_) {
    inference_cache_ = std::make_unique<InferenceCache>(
        config.inference_budget(), shards, config.admission, &inflight_,
        &batch_former_);
  }
  {
    // Tenant partitions were sized against the old budget; retire them
    // (raw-pointer holders stay safe) and let sessions rebuild lazily.
    std::lock_guard<std::mutex> lock(tenant_mu_);
    for (auto& entry : tenant_caches_) {
      entry.second->Retire();
      retired_inference_caches_.push_back(std::move(entry.second));
    }
    tenant_caches_.clear();
  }
  // Readers from LoadVideo() co-own the old instance; dropping our
  // reference here retires it once the last reader goes away.
  segment_cache_ = std::make_shared<SegmentCache>(config.segment_budget(),
                                                  shards, config.admission);
}

void Database::ConfigureServing(const ServingConfig& config) {
  serving_config_ = config;
  admission_gate_.Configure(config.max_concurrent_queries,
                            config.admission_wait_ms);
  // Configure drains staged patches under the old policy first, so no
  // session is left waiting on a batch sized for a config that no longer
  // exists.
  batch_former_.Configure(
      BatchFormerConfig{config.device_batch_size, config.batch_wait_us});
  // Budgets re-partition under the new weights: retire existing tenant
  // partitions so the next CreateSession rebuilds them.
  std::lock_guard<std::mutex> lock(tenant_mu_);
  for (auto& entry : tenant_caches_) {
    entry.second->Retire();
    retired_inference_caches_.push_back(std::move(entry.second));
  }
  tenant_caches_.clear();
}

InferenceCache* Database::TenantInferenceCache(const std::string& tenant) {
  if (tenant.empty()) return inference_cache_.get();
  std::lock_guard<std::mutex> lock(tenant_mu_);
  auto it = tenant_caches_.find(tenant);
  if (it == tenant_caches_.end()) {
    auto cache = std::make_unique<InferenceCache>(
        serving_config_.TenantCacheBudget(tenant,
                                          cache_config_.inference_budget()),
        cache_config_.ResolvedShards(), cache_config_.admission, &inflight_,
        &batch_former_);
    it = tenant_caches_.emplace(tenant, std::move(cache)).first;
  }
  return it->second.get();
}

Session Database::CreateSession(const std::string& tenant) {
  return Session(this, tenant, serving_config_.WeightFor(tenant),
                 TenantInferenceCache(tenant));
}

Result<std::unique_ptr<Database>> Database::Open(const std::string& root) {
  auto db = std::unique_ptr<Database>(new Database(root));
  DL_RETURN_NOT_OK(CreateDirs(root));
  DL_RETURN_NOT_OK(CreateDirs(root + "/videos"));
  DL_RETURN_NOT_OK(CreateDirs(root + "/views"));
  DL_ASSIGN_OR_RETURN(db->catalog_, Catalog::Open(root));
  return db;
}

std::string Database::VideoPath(const std::string& name) const {
  return root_ + "/videos/" + name;
}

std::string Database::ViewPath(const std::string& name) const {
  return root_ + "/views/" + name;
}

EtlOptions Database::MakeEtlOptions(const std::string& dataset_name,
                                    nn::Device* device) {
  EtlOptions options;
  options.device = device;
  options.dataset_name = dataset_name;
  options.lineage = &lineage_;
  options.id_counter = &id_counter_;
  options.inference_cache = inference_cache_.get();
  return options;
}

Status Database::IngestVideo(const std::string& name, FrameIterator frames,
                             const VideoStoreOptions& options,
                             const std::string& description) {
  DL_ASSIGN_OR_RETURN(auto writer,
                      CreateVideoWriter(VideoPath(name), options));
  int count = 0;
  while (true) {
    DL_ASSIGN_OR_RETURN(auto frame, frames());
    if (!frame.has_value()) break;
    DL_RETURN_NOT_OK(writer->AddFrame(frame->second));
    ++count;
  }
  DL_RETURN_NOT_OK(writer->Finish());
  DatasetInfo info;
  info.name = name;
  info.path = VideoPath(name);
  info.format = options.format;
  info.num_items = count;
  info.description = description;
  return catalog_->Register(info);
}

Result<std::shared_ptr<VideoReader>> Database::LoadVideo(
    const std::string& name) {
  DL_ASSIGN_OR_RETURN(DatasetInfo info, catalog_->Lookup(name));
  DL_ASSIGN_OR_RETURN(auto reader,
                      OpenVideo(info.path, segment_cache_.get()));
  // The deleter co-owns the segment cache so the reader's raw pointer
  // stays valid however long the caller keeps the reader.
  std::shared_ptr<SegmentCache> cache = segment_cache_;
  return std::shared_ptr<VideoReader>(
      reader.release(), [cache](VideoReader* r) { delete r; });
}

Status Database::RegisterView(const std::string& name,
                              PatchCollection patches) {
  ViewCache& view = views_[name];
  view.patches = std::move(patches);
  view.columnar.reset();
  view.hash_indexes.clear();
  view.btree_indexes.clear();
  view.feature_index.reset();
  view.bbox_index.reset();
  view.version = NextViewVersion();
  return Status::OK();
}

Status Database::RegisterView(const std::string& name, BatchIterator* it) {
  DL_ASSIGN_OR_RETURN(PatchCollection patches, CollectBatchPatches(it));
  return RegisterView(name, std::move(patches));
}

Status Database::RegisterView(const std::string& name, PatchIterator* it) {
  auto batched = TupleToBatch(it);
  return RegisterView(name, batched.get());
}

Result<ViewCache*> Database::GetView(const std::string& name) {
  auto it = views_.find(name);
  if (it == views_.end()) {
    return Status::NotFound("no view named '" + name + "'");
  }
  return &it->second;
}

Status Database::PersistView(const std::string& name) {
  DL_ASSIGN_OR_RETURN(ViewCache * view, GetView(name));
  // An attached view's rows already live in the file it streams from;
  // re-persisting from its (empty) resident collection would truncate it.
  if (view->disk_backed()) return Status::OK();
  DL_RETURN_NOT_OK(RemoveFileIfExists(ViewPath(name)));
  DL_ASSIGN_OR_RETURN(auto mat, MaterializedView::Open(ViewPath(name)));
  for (const Patch& p : view->patches) {
    DL_RETURN_NOT_OK(mat->Append(p));
  }
  return mat->Flush();
}

Status Database::LoadPersistedView(const std::string& name) {
  DL_ASSIGN_OR_RETURN(auto mat, MaterializedView::Open(ViewPath(name)));
  DL_ASSIGN_OR_RETURN(PatchCollection patches, mat->LoadAll());
  // Re-register lineage for loaded patches so backtraces work across
  // process restarts.
  for (const Patch& p : patches) lineage_.Record(p);
  return RegisterView(name, std::move(patches));
}

bool Database::HasPersistedView(const std::string& name) const {
  return FileExists(ViewPath(name));
}

Status Database::AttachPersistedView(const std::string& name) {
  DL_ASSIGN_OR_RETURN(auto mat, MaterializedView::Open(ViewPath(name)));
  if (mat->format() == MaterializedView::Format::kLegacy) {
    // Legacy log files have no chunk catalog to stream from; loading
    // them resident keeps the attach call working on old databases.
    return LoadPersistedView(name);
  }
  DL_ASSIGN_OR_RETURN(auto reader, mat->OpenReader());
  ViewCache& view = views_[name];
  view.patches.clear();
  view.columnar = std::move(reader);
  view.hash_indexes.clear();
  view.btree_indexes.clear();
  view.feature_index.reset();
  view.bbox_index.reset();
  view.version = NextViewVersion();
  return Status::OK();
}

Result<IndexStats> Database::BuildIndex(const std::string& view_name,
                                        IndexKind kind,
                                        const std::string& meta_key) {
  DL_ASSIGN_OR_RETURN(ViewCache * view, GetView(view_name));
  Stopwatch timer;
  IndexStats stats;
  switch (kind) {
    case IndexKind::kHash: {
      if (meta_key.empty()) {
        return Status::InvalidArgument("hash index needs a meta key");
      }
      HashIndex index;
      for (size_t i = 0; i < view->patches.size(); ++i) {
        index.Insert(
            Slice(view->patches[i].meta().Get(meta_key).ToIndexKey()),
            static_cast<RowId>(i));
      }
      stats = index.Stats();
      view->hash_indexes[meta_key] = std::move(index);
      break;
    }
    case IndexKind::kBPlusTree: {
      if (meta_key.empty()) {
        return Status::InvalidArgument("b+tree index needs a meta key");
      }
      BPlusTree index;
      for (size_t i = 0; i < view->patches.size(); ++i) {
        index.Insert(
            Slice(view->patches[i].meta().Get(meta_key).ToIndexKey()),
            static_cast<RowId>(i));
      }
      stats = index.Stats();
      view->btree_indexes[meta_key] = std::move(index);
      break;
    }
    case IndexKind::kBallTree: {
      size_t dim = 0;
      for (const Patch& p : view->patches) {
        if (!p.has_features()) {
          return Status::InvalidArgument(
              "ball-tree index needs featurized patches");
        }
        if (dim == 0) dim = static_cast<size_t>(p.features().size());
      }
      if (dim == 0) {
        return Status::InvalidArgument("view is empty or feature-less");
      }
      std::vector<float> points(view->patches.size() * dim);
      for (size_t i = 0; i < view->patches.size(); ++i) {
        const float* f = view->patches[i].features().data();
        std::copy(f, f + dim,
                  points.begin() + static_cast<ptrdiff_t>(i * dim));
      }
      auto tree = std::make_unique<BallTree>();
      DL_RETURN_NOT_OK(tree->Build(std::move(points), dim, {}));
      stats = tree->Stats();
      view->feature_index = std::move(tree);
      break;
    }
    case IndexKind::kRTree: {
      auto tree = std::make_unique<RTree>();
      for (size_t i = 0; i < view->patches.size(); ++i) {
        const nn::BBox& b = view->patches[i].bbox();
        tree->Insert(
            Rect{static_cast<float>(b.x0), static_cast<float>(b.y0),
                 static_cast<float>(b.x1), static_cast<float>(b.y1)},
            static_cast<RowId>(i));
      }
      stats = tree->Stats();
      view->bbox_index = std::move(tree);
      break;
    }
    default:
      return Status::NotImplemented(
          std::string("index kind not buildable via Database: ") +
          IndexKindName(kind));
  }
  stats.build_millis = timer.ElapsedMillis();
  // A new index changes which access paths exist, so memoized plans for
  // the previous version must re-plan.
  view->version = NextViewVersion();
  DL_LOG(kInfo) << "built " << IndexKindName(kind) << " index on '"
                << view_name << "." << meta_key << "' ("
                << stats.num_entries << " entries, "
                << stats.build_millis << " ms)";
  return stats;
}

Status Database::DropIndexes(const std::string& view_name) {
  DL_ASSIGN_OR_RETURN(ViewCache * view, GetView(view_name));
  view->hash_indexes.clear();
  view->btree_indexes.clear();
  view->feature_index.reset();
  view->bbox_index.reset();
  // Index availability shapes plans, so a memoized plan for the old
  // index set must not be replayed against the stripped view.
  view->version = NextViewVersion();
  return Status::OK();
}

}  // namespace deeplens
