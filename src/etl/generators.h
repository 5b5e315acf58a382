// Patch generators (paper §4.1): turn raw frames into patch collections.
// Three instantiations mirror the paper's: object detection (TinySSD),
// OCR (TinySSD text regions + TinyOCR), and whole-image patches; a tiling
// generator is included for classical segmentation-style workloads.
// Generators batch frames through the device so GPU launches amortize and
// the frames of a window run in parallel on the host pool.
#pragma once

#include <atomic>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <utility>

#include "core/types.h"
#include "exec/operators.h"
#include "lineage/lineage.h"
#include "nn/models.h"
#include "storage/video_store.h"

namespace deeplens {

class InferenceCache;

/// Pull-based frame source: yields (frameno, frame) until nullopt.
using FrameIterator =
    std::function<Result<std::optional<std::pair<int, Image>>>()>;

/// Shared ETL context: device placement, provenance, id allocation.
struct EtlOptions {
  nn::Device* device = nullptr;  // null = vectorized CPU
  std::string dataset_name;
  /// When set, every generated patch's lineage is recorded.
  LineageStore* lineage = nullptr;
  /// Monotonic patch-id allocator (shared across a Database).
  std::atomic<uint64_t>* id_counter = nullptr;
  /// Frames per generator window: one DetectBatch per window. The window
  /// amortizes the GPU's launch overhead and gives every pool worker
  /// several frames of the batch; ids, lineage and emit order are assigned
  /// serially after the batch returns.
  int batch_size = 32;
  /// When set, generator-side detector/OCR runs are memoized by frame
  /// fingerprint, so re-running ETL over unchanged frames is
  /// lookup-bound (Database::MakeEtlOptions wires the database's cache).
  InferenceCache* inference_cache = nullptr;
  /// Keep the cropped pixels on detection patches (needed by downstream
  /// transformers; drop to save memory when only metadata is queried).
  bool crop_pixels = true;
};

/// Builds a FrameIterator over a stored video (all frames).
FrameIterator FramesFromVideo(std::shared_ptr<VideoReader> reader);
/// Builds a FrameIterator over a materialized frame vector.
FrameIterator FramesFromVector(std::vector<Image> frames, int first_frameno = 0);

/// Whole-image generator: one patch per frame, full frame as pixels.
/// Meta: frameno, dataset.
PatchIteratorPtr MakeWholeImageGenerator(FrameIterator frames,
                                         EtlOptions options);

/// Object-detection generator: runs the detector on every frame and emits
/// one patch per detection. Meta: label, score, frameno, dataset, and the
/// box coordinates (x0, y0, x1, y1).
PatchIteratorPtr MakeObjectDetectorGenerator(
    FrameIterator frames, const nn::TinySsdDetector* detector,
    EtlOptions options);

/// OCR generator: detects text regions, recognizes their digit strings,
/// and emits one patch per legible region. Meta: text, frameno, dataset.
PatchIteratorPtr MakeOcrGenerator(FrameIterator frames,
                                  const nn::TinySsdDetector* detector,
                                  const nn::TinyOcr* ocr,
                                  EtlOptions options);

/// Tiling generator: fixed-grid tiles of each frame (classical
/// segmentation stand-in). Meta: frameno, dataset, tile_x, tile_y.
PatchIteratorPtr MakeTileGenerator(FrameIterator frames, int tile_width,
                                   int tile_height, EtlOptions options);

/// Declared output schemas for pipeline validation (paper §4.2).
PatchSchema WholeImageSchema();
PatchSchema DetectorSchema();
PatchSchema OcrSchema();

}  // namespace deeplens
