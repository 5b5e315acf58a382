#include "etl/transformers.h"

#include <cmath>

#include "cache/inference_cache.h"

namespace deeplens {

Tensor ColorHistogramFeature(const Image& patch,
                             const ColorHistogramOptions& options) {
  const int bins = std::max(1, options.bins);
  const int grid = std::max(1, options.grid);
  const int dim = 3 * bins + (grid > 1 ? 3 * grid * grid : 0);
  Tensor feature({dim});
  if (patch.empty()) return feature;

  const int w = patch.width();
  const int h = patch.height();
  const int channels = std::min(3, patch.channels());
  float* hist = feature.data();

  // Soft (linear) binning: each pixel splits its mass between the two
  // nearest bin centers. Hard binning makes near-boundary colors flip
  // bins under pixel noise, which destroys identity matching; soft
  // binning keeps the feature Lipschitz in the underlying color.
  const float bin_width = 256.0f / static_cast<float>(bins);
  for (int y = 0; y < h; ++y) {
    for (int x = 0; x < w; ++x) {
      for (int c = 0; c < channels; ++c) {
        const float pos =
            (static_cast<float>(patch.At(x, y, c)) + 0.5f) / bin_width -
            0.5f;
        int lo_bin = static_cast<int>(std::floor(pos));
        const float frac = pos - static_cast<float>(lo_bin);
        if (lo_bin < 0) {
          hist[c * bins] += 1.0f;
        } else if (lo_bin >= bins - 1) {
          hist[c * bins + bins - 1] += 1.0f;
        } else {
          hist[c * bins + lo_bin] += 1.0f - frac;
          hist[c * bins + lo_bin + 1] += frac;
        }
      }
    }
  }
  // L1 normalization makes histograms comparable across patch sizes.
  const float inv = 1.0f / static_cast<float>(w * h);
  for (int i = 0; i < 3 * bins; ++i) hist[i] *= inv;

  if (grid > 1) {
    float* cells = hist + 3 * bins;
    for (int gy = 0; gy < grid; ++gy) {
      for (int gx = 0; gx < grid; ++gx) {
        const int x0 = gx * w / grid;
        const int x1 = std::max(x0 + 1, (gx + 1) * w / grid);
        const int y0 = gy * h / grid;
        const int y1 = std::max(y0 + 1, (gy + 1) * h / grid);
        float sum[3] = {0, 0, 0};
        int count = 0;
        for (int y = y0; y < y1 && y < h; ++y) {
          for (int x = x0; x < x1 && x < w; ++x) {
            for (int c = 0; c < channels; ++c) {
              sum[c] += static_cast<float>(patch.At(x, y, c)) / 255.0f;
            }
            ++count;
          }
        }
        for (int c = 0; c < 3; ++c) {
          cells[(gy * grid + gx) * 3 + c] =
              count > 0 ? sum[c] / static_cast<float>(count) : 0.0f;
        }
      }
    }
  }
  return feature;
}

std::function<Result<PatchTuple>(PatchTuple)> ColorHistogramMap(
    ColorHistogramOptions options) {
  return [options](PatchTuple tuple) -> Result<PatchTuple> {
    for (Patch& p : tuple) {
      if (!p.has_pixels()) {
        return Status::InvalidArgument(
            "ColorHistogramTransformer needs pixel data");
      }
      p.set_features(ColorHistogramFeature(p.pixels(), options));
    }
    return tuple;
  };
}

PatchIteratorPtr MakeColorHistogramTransformer(
    PatchIteratorPtr child, ColorHistogramOptions options) {
  return MakeMap(std::move(child), ColorHistogramMap(options));
}

PatchIteratorPtr MakeDepthTransformer(PatchIteratorPtr child,
                                      const nn::TinyDepth* model,
                                      int frame_height, nn::Device* device,
                                      InferenceCache* cache) {
  nn::Device* dev = device != nullptr
                        ? device
                        : nn::GetDevice(nn::DeviceKind::kCpuVector);
  return MakeMap(
      std::move(child),
      [model, frame_height, dev,
       cache](PatchTuple tuple) -> Result<PatchTuple> {
        for (Patch& p : tuple) {
          if (!p.has_pixels()) {
            return Status::InvalidArgument(
                "DepthTransformer needs pixel data");
          }
          DL_ASSIGN_OR_RETURN(
              double depth,
              CachedDepth(*model, p.pixels(), p.bbox(), frame_height,
                          CacheFingerprint(p, cache), dev, cache));
          p.mutable_meta().Set(meta_keys::kDepth, depth);
        }
        return tuple;
      });
}

PatchIteratorPtr MakeOcrTransformer(PatchIteratorPtr child,
                                    const nn::TinyOcr* ocr,
                                    nn::Device* device,
                                    InferenceCache* cache) {
  nn::Device* dev = device != nullptr
                        ? device
                        : nn::GetDevice(nn::DeviceKind::kCpuVector);
  return MakeMap(std::move(child),
                 [ocr, dev, cache](PatchTuple tuple) -> Result<PatchTuple> {
                   for (Patch& p : tuple) {
                     if (!p.has_pixels()) continue;
                     DL_ASSIGN_OR_RETURN(
                         std::string text,
                         CachedOcrText(*ocr, p.pixels(),
                                       CacheFingerprint(p, cache), dev,
                                       cache));
                     if (!text.empty()) {
                       p.mutable_meta().Set(meta_keys::kText, text);
                     }
                   }
                   return tuple;
                 });
}

PatchIteratorPtr MakeResizeTransformer(PatchIteratorPtr child, int width,
                                       int height) {
  return MakeMap(std::move(child),
                 [width, height](PatchTuple tuple) -> Result<PatchTuple> {
                   for (Patch& p : tuple) {
                     if (p.has_pixels()) {
                       p.set_pixels(p.pixels().Resize(width, height));
                     }
                   }
                   return tuple;
                 });
}

}  // namespace deeplens
