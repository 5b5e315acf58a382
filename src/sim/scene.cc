#include "sim/scene.h"

#include <algorithm>

namespace deeplens {
namespace sim {

namespace {

void BackgroundColor(Background bg, uint8_t rgb[3]) {
  switch (bg) {
    case Background::kAsphalt:
      rgb[0] = 120;
      rgb[1] = 120;
      rgb[2] = 124;
      return;
    case Background::kField:
      rgb[0] = 72;
      rgb[1] = 86;
      rgb[2] = 72;
      return;
    case Background::kDocument:
      rgb[0] = 186;
      rgb[1] = 186;
      rgb[2] = 186;
      return;
  }
}

uint8_t ClampByte(int v) {
  return static_cast<uint8_t>(std::clamp(v, 0, 255));
}

}  // namespace

void ObjectColor(const SceneObject& obj, uint8_t rgb[3]) {
  const uint8_t* base = nn::kClassColor[static_cast<int>(obj.cls)];
  for (int c = 0; c < 3; ++c) {
    rgb[c] = ClampByte(static_cast<int>(base[c]) + obj.color_jitter[c]);
  }
}

void DrawDigits(Image* img, const nn::BBox& box,
                const std::string& digits) {
  if (digits.empty()) return;
  const int n = static_cast<int>(digits.size());
  // Scale glyphs to fit the box with one glyph-column spacing between.
  const int total_cols = n * (nn::kGlyphWidth + 1) - 1;
  const int sx = std::max(1, box.Width() / std::max(1, total_cols));
  const int sy = std::max(1, box.Height() / (nn::kGlyphHeight + 2));
  const int scale = std::max(1, std::min(sx, sy));
  const int text_w = total_cols * scale;
  const int text_h = nn::kGlyphHeight * scale;
  const int ox = box.x0 + std::max(0, (box.Width() - text_w) / 2);
  const int oy = box.y0 + std::max(0, (box.Height() - text_h) / 2);

  for (int i = 0; i < n; ++i) {
    const char ch = digits[static_cast<size_t>(i)];
    if (ch < '0' || ch > '9') continue;
    const int digit = ch - '0';
    const int gx0 = ox + i * (nn::kGlyphWidth + 1) * scale;
    for (int gy = 0; gy < nn::kGlyphHeight; ++gy) {
      for (int gx = 0; gx < nn::kGlyphWidth; ++gx) {
        if (!nn::GlyphPixel(digit, gx, gy)) continue;
        for (int dy = 0; dy < scale; ++dy) {
          for (int dx = 0; dx < scale; ++dx) {
            const int px = gx0 + gx * scale + dx;
            const int py = oy + gy * scale + dy;
            if (px < 0 || px >= img->width() || py < 0 ||
                py >= img->height()) {
              continue;
            }
            for (int c = 0; c < img->channels(); ++c) {
              img->At(px, py, c) = nn::kGlyphBrightness;
            }
          }
        }
      }
    }
  }
}

Image RenderScene(int width, int height, Background background,
                  const std::vector<SceneObject>& objects,
                  uint64_t noise_seed, int noise_amplitude,
                  uint64_t texture_seed) {
  Image img(width, height, 3);
  uint8_t bg[3] = {0, 0, 0};
  BackgroundColor(background, bg);
  Rng rng(noise_seed);
  Rng texture(texture_seed != 0 ? texture_seed : noise_seed);

  // Background with per-pixel texture (keeps codecs honest: a perfectly
  // flat background would compress unrealistically well). The texture is
  // a function of texture_seed only, so consecutive frames of a video
  // share it and P-frames stay cheap — like a real static camera.
  for (int y = 0; y < height; ++y) {
    for (int x = 0; x < width; ++x) {
      const int n = static_cast<int>(texture.NextInt(-noise_amplitude,
                                                     noise_amplitude));
      for (int c = 0; c < 3; ++c) {
        img.At(x, y, c) = ClampByte(static_cast<int>(bg[c]) + n);
      }
    }
  }

  // Objects are painted back-to-front by depth (far first) so occlusion
  // is physically plausible.
  std::vector<const SceneObject*> order;
  order.reserve(objects.size());
  for (const SceneObject& o : objects) order.push_back(&o);
  std::stable_sort(order.begin(), order.end(),
                   [](const SceneObject* a, const SceneObject* b) {
                     return a->depth > b->depth;
                   });

  for (const SceneObject* obj : order) {
    uint8_t rgb[3];
    ObjectColor(*obj, rgb);
    const nn::BBox& b = obj->bbox;
    for (int y = std::max(0, b.y0); y < std::min(height, b.y1); ++y) {
      for (int x = std::max(0, b.x0); x < std::min(width, b.x1); ++x) {
        const int n =
            static_cast<int>(rng.NextInt(-noise_amplitude / 2,
                                         noise_amplitude / 2));
        for (int c = 0; c < 3; ++c) {
          img.At(x, y, c) = ClampByte(static_cast<int>(rgb[c]) + n);
        }
      }
    }
    if (!obj->text.empty()) {
      DrawDigits(&img, b, obj->text);
    }
  }
  return img;
}

}  // namespace sim
}  // namespace deeplens
