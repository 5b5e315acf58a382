// Transformers (paper §4.1): patch in, transformed patch out. The two the
// paper evaluates — color-histogram featurization (image matching) and a
// depth-prediction network — plus resize and OCR-annotation transformers.
#pragma once

#include <functional>

#include "etl/generators.h"
#include "exec/operators.h"
#include "nn/models.h"

namespace deeplens {

class InferenceCache;

/// Color-histogram featurization.
struct ColorHistogramOptions {
  /// Histogram bins per channel → 3*bins feature dims.
  int bins = 8;
  /// Spatial grid: when > 1, appends per-cell channel means
  /// (3*grid*grid dims) — the high-dimensional variant of Figure 7.
  int grid = 1;

  int FeatureDim() const { return 3 * bins + (grid > 1 ? 3 * grid * grid : 0); }
};

/// Computes the feature vector directly (exposed for tests/benchmarks).
Tensor ColorHistogramFeature(const Image& patch,
                             const ColorHistogramOptions& options);

/// Per-tuple body of the color-histogram transformer: sets `features` on
/// every patch from its pixels (L1-normalized). Thread-safe, so it can run
/// as a morsel-parallel BatchPipeline::Map stage.
std::function<Result<PatchTuple>(PatchTuple)> ColorHistogramMap(
    ColorHistogramOptions options);

/// MakeMap of ColorHistogramMap over `child`.
PatchIteratorPtr MakeColorHistogramTransformer(
    PatchIteratorPtr child, ColorHistogramOptions options);

/// Runs TinyDepth and stores the prediction under meta key "depth".
/// `frame_height` is the source-frame height used by the geometry cue.
/// With `cache`, predictions are memoized by patch fingerprint.
PatchIteratorPtr MakeDepthTransformer(PatchIteratorPtr child,
                                      const nn::TinyDepth* model,
                                      int frame_height,
                                      nn::Device* device = nullptr,
                                      InferenceCache* cache = nullptr);

/// Runs TinyOCR on the patch pixels and stores the string under "text"
/// (empty results set no key). With `cache`, recognitions are memoized
/// by patch fingerprint.
PatchIteratorPtr MakeOcrTransformer(PatchIteratorPtr child,
                                    const nn::TinyOcr* ocr,
                                    nn::Device* device = nullptr,
                                    InferenceCache* cache = nullptr);

/// Resamples patch pixels to a fixed resolution (most networks require
/// fixed inputs — §4.2).
PatchIteratorPtr MakeResizeTransformer(PatchIteratorPtr child, int width,
                                       int height);

}  // namespace deeplens
