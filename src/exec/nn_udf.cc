#include "exec/nn_udf.h"

#include <utility>

#include "common/checksum.h"
#include "common/clock.h"
#include "core/cost_model.h"

namespace deeplens {

namespace {

Status CheckUdfSlot(size_t slot, const PatchTuple& tuple) {
  if (slot >= tuple.size()) {
    return Status::OutOfRange("NN UDF references tuple slot " +
                              std::to_string(slot) + " of " +
                              std::to_string(tuple.size()));
  }
  return Status::OK();
}

nn::Device* ResolveDevice(nn::Device* device) {
  // Per-tuple inference is a small kernel: default to the vectorized CPU
  // path (a simulated-GPU launch per row would dominate — paper §7.4.2).
  return device != nullptr ? device
                           : nn::GetDevice(nn::DeviceKind::kCpuVector);
}

// Live hit rate of `cache` for UdfUse, 0 when absent/disabled.
double LiveHitRate(InferenceCache* cache) {
  if (cache == nullptr || !cache->enabled()) return 0.0;
  return cache->Stats().HitRate();
}

class OcrTextUdfExpr : public Expr {
 public:
  OcrTextUdfExpr(size_t slot, const nn::TinyOcr* ocr, InferenceCache* cache,
                 nn::Device* device)
      : slot_(slot), ocr_(ocr), cache_(cache), device_(ResolveDevice(device)) {}

  Result<MetaValue> Eval(const PatchTuple& tuple) const override {
    DL_RETURN_NOT_OK(CheckUdfSlot(slot_, tuple));
    const Patch& p = tuple[slot_];
    if (!p.has_pixels()) return MetaValue();
    bool computed = false;
    Stopwatch sw;
    DL_ASSIGN_OR_RETURN(std::string text,
                        CachedOcrText(*ocr_, p.pixels(),
                                      CacheFingerprint(p, cache_), device_,
                                      cache_, &computed));
    CostModel::Global()->RecordUdfEval(model_names::kOcr, !computed,
                                       sw.ElapsedMillis());
    return MetaValue(std::move(text));
  }

  std::string ToString() const override {
    return "ocr($" + std::to_string(slot_) + ")";
  }

  void CollectUdfUse(std::vector<UdfUse>* out) const override {
    const bool cached = cache_ != nullptr && cache_->enabled();
    out->push_back(UdfUse{model_names::kOcr, cached,
                          cached && cache_->persistent(),
                          LiveHitRate(cache_)});
    out->back().device_batch_size = cached ? cache_->device_batch_size() : 0;
  }

  bool has_proxy_value() const override { return true; }

  bool EvalProxyValue(const PatchTuple& tuple, ProxyValue* out) const override {
    if (slot_ >= tuple.size()) return false;
    const Patch& p = tuple[slot_];
    if (!p.has_pixels()) {
      // The full UDF returns null for pixel-less patches, exactly.
      out->estimate = MetaValue();
      out->rel_error = 0.0;
      out->confidence = 1.0;
      return true;
    }
    // Inkless patch → the recognizer would find no glyph columns. Not
    // quite certain (the ink scan is subsampled), hence 0.95.
    if (!ocr_->ProxyHasInk(p.pixels())) {
      out->estimate = MetaValue(std::string());
      out->rel_error = 0.0;
      out->confidence = 0.95;
      return true;
    }
    return false;  // ink present: no cheap estimate of the actual text
  }

 private:
  size_t slot_;
  const nn::TinyOcr* ocr_;
  InferenceCache* cache_;
  nn::Device* device_;
};

class DepthUdfExpr : public Expr {
 public:
  DepthUdfExpr(size_t slot, const nn::TinyDepth* model, int frame_height,
               InferenceCache* cache, nn::Device* device)
      : slot_(slot),
        model_(model),
        frame_height_(frame_height),
        cache_(cache),
        device_(ResolveDevice(device)) {}

  Result<MetaValue> Eval(const PatchTuple& tuple) const override {
    DL_RETURN_NOT_OK(CheckUdfSlot(slot_, tuple));
    const Patch& p = tuple[slot_];
    if (!p.has_pixels()) return MetaValue();
    bool computed = false;
    Stopwatch sw;
    DL_ASSIGN_OR_RETURN(double depth,
                        CachedDepth(*model_, p.pixels(), p.bbox(),
                                    frame_height_,
                                    CacheFingerprint(p, cache_), device_,
                                    cache_, &computed));
    CostModel::Global()->RecordUdfEval(model_names::kDepth, !computed,
                                       sw.ElapsedMillis());
    return MetaValue(depth);
  }

  std::string ToString() const override {
    return "depth($" + std::to_string(slot_) +
           ", h=" + std::to_string(frame_height_) + ")";
  }

  void CollectUdfUse(std::vector<UdfUse>* out) const override {
    const bool cached = cache_ != nullptr && cache_->enabled();
    out->push_back(UdfUse{model_names::kDepth, cached,
                          cached && cache_->persistent(),
                          LiveHitRate(cache_)});
    out->back().device_batch_size = cached ? cache_->device_batch_size() : 0;
  }

  bool has_proxy_value() const override { return true; }

  bool EvalProxyValue(const PatchTuple& tuple, ProxyValue* out) const override {
    if (slot_ >= tuple.size()) return false;
    const Patch& p = tuple[slot_];
    if (!p.has_pixels()) {
      out->estimate = MetaValue();
      out->rel_error = 0.0;
      out->confidence = 1.0;
      return true;
    }
    // Geometry cue alone; the conv features perturb it by a few percent,
    // so a 10% relative error bound comfortably covers the full model.
    out->estimate =
        MetaValue(static_cast<double>(model_->ProxyDepth(p.bbox())));
    out->rel_error = 0.10;
    out->confidence = 1.0;
    return true;
  }

 private:
  size_t slot_;
  const nn::TinyDepth* model_;
  int frame_height_;
  InferenceCache* cache_;
  nn::Device* device_;
};

// Reject-only cascade around one proxy-capable conjunct; see MakeCascade.
class CascadeExpr : public Expr {
 public:
  CascadeExpr(ExprPtr inner, double threshold,
              std::shared_ptr<CascadeTelemetry> telemetry)
      : inner_(std::move(inner)),
        threshold_(threshold),
        telemetry_(std::move(telemetry)) {}

  Result<MetaValue> Eval(const PatchTuple& tuple) const override {
    DL_ASSIGN_OR_RETURN(ProxyVerdict verdict, inner_->EvalProxy(tuple));
    CascadeTelemetry* tel = telemetry_.get();
    if (tel != nullptr && verdict.confidence > 0.0) {
      tel->proxy_evals.fetch_add(1, std::memory_order_relaxed);
    }
    if (!verdict.pass && verdict.confidence >= threshold_) {
      // Confident reject. A deterministic 1-in-16 slice (by row-id hash:
      // stable across runs and thread schedules, and — unlike the pixel
      // fingerprint — free on the path whose whole point is not touching
      // the pixels) runs the full conjunct anyway as an accuracy audit;
      // its answer is used, so audited rows are always exact.
      const uint64_t id = tuple.empty() ? 0 : tuple[0].id();
      if (Fnv1a64(&id, sizeof(id)) % 16 != 0) {
        if (tel != nullptr) {
          tel->proxy_skips.fetch_add(1, std::memory_order_relaxed);
        }
        return MetaValue(false);
      }
      DL_ASSIGN_OR_RETURN(bool full, inner_->EvalBool(tuple));
      if (tel != nullptr) {
        tel->audits.fetch_add(1, std::memory_order_relaxed);
        tel->full_evals.fetch_add(1, std::memory_order_relaxed);
        if (full) {
          tel->audit_overturns.fetch_add(1, std::memory_order_relaxed);
          tel->passes.fetch_add(1, std::memory_order_relaxed);
        }
      }
      return MetaValue(full);
    }
    // Proxy passed or was unsure: the full conjunct decides.
    DL_ASSIGN_OR_RETURN(bool full, inner_->EvalBool(tuple));
    if (tel != nullptr) {
      tel->full_evals.fetch_add(1, std::memory_order_relaxed);
      if (full) tel->passes.fetch_add(1, std::memory_order_relaxed);
    }
    return MetaValue(full);
  }

  std::string ToString() const override {
    return "cascade(" + inner_->ToString() + ")";
  }

  Status Validate(const std::vector<PatchSchema>& schemas) const override {
    return inner_->Validate(schemas);
  }

  void CollectUdfUse(std::vector<UdfUse>* out) const override {
    const size_t first = out->size();
    inner_->CollectUdfUse(out);
    for (size_t i = first; i < out->size(); ++i) (*out)[i].cascaded = true;
  }

 private:
  ExprPtr inner_;
  double threshold_;
  std::shared_ptr<CascadeTelemetry> telemetry_;
};

}  // namespace

ExprPtr OcrTextUdf(size_t slot, const nn::TinyOcr* ocr,
                   InferenceCache* cache, nn::Device* device) {
  return std::make_shared<OcrTextUdfExpr>(slot, ocr, cache, device);
}

ExprPtr DepthUdf(size_t slot, const nn::TinyDepth* model, int frame_height,
                 InferenceCache* cache, nn::Device* device) {
  return std::make_shared<DepthUdfExpr>(slot, model, frame_height, cache,
                                        device);
}

ExprPtr MakeCascade(ExprPtr conjunct, double threshold,
                    std::shared_ptr<CascadeTelemetry> telemetry) {
  return std::make_shared<CascadeExpr>(std::move(conjunct), threshold,
                                       std::move(telemetry));
}

}  // namespace deeplens
