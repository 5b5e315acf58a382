#include "sim/datasets.h"

#include <algorithm>
#include <cmath>

namespace deeplens {
namespace sim {

namespace {

// Deterministic per-identity color jitter so the same object identity
// renders identically everywhere (appearance-based re-identification).
void IdentityJitter(uint64_t domain_seed, int id, int jitter[3]) {
  Rng rng(domain_seed ^ (static_cast<uint64_t>(id) * 0x9E3779B97F4A7C15ull));
  // Jitter is large enough that different identities are separable in
  // color-histogram space but small enough to stay class-dominant.
  jitter[0] = static_cast<int>(rng.NextInt(-28, 28));
  jitter[1] = static_cast<int>(rng.NextInt(-28, 28));
  jitter[2] = static_cast<int>(rng.NextInt(-28, 28));
}

}  // namespace

// ---------------------------------------------------------------------
// TrafficCam
// ---------------------------------------------------------------------

TrafficCamSim::TrafficCamSim(TrafficCamConfig config)
    : config_(std::move(config)) {
  Rng rng(config_.seed);
  const int w = config_.width;

  cars_.reserve(static_cast<size_t>(config_.num_cars));
  for (int i = 0; i < config_.num_cars; ++i) {
    CarTrack car;
    // Shared identities (cross-camera) take globally-stable ids; private
    // cars take camera-local ids derived from the seed.
    if (i < static_cast<int>(config_.shared_car_ids.size())) {
      car.id = config_.shared_car_ids[static_cast<size_t>(i)];
    } else {
      car.id = static_cast<int>((config_.seed % 97) * 100) + i;  // < 10000
    }
    // Lanes are 17 px apart with cars <= 8 px tall: the 9+ px gap always
    // contains one full detector-grid row, so same-class detections in
    // adjacent lanes never merge. Three lanes fit a 72 px frame.
    car.lane_y = 30 + (i % 3) * 17;
    car.speed = static_cast<int>(rng.NextInt(1, 3));
    car.length = static_cast<int>(rng.NextInt(12, 18));
    car.height = static_cast<int>(rng.NextInt(6, 8));
    car.phase = static_cast<int>(rng.NextInt(0, w + car.length - 1));
    IdentityJitter(0xCA5ull, car.id, car.color_jitter);
    cars_.push_back(car);
  }

  peds_.reserve(static_cast<size_t>(config_.num_pedestrians));
  const int spacing =
      std::max(1, config_.num_frames / std::max(1, config_.num_pedestrians));
  for (int i = 0; i < config_.num_pedestrians; ++i) {
    PedTrack ped;
    ped.id = kPedestrianIdBase + i;
    ped.depth = static_cast<float>(rng.NextUniform(12.5, 30.0));
    ped.start_frame = i * spacing;
    ped.duration = static_cast<int>(spacing * 1.8);
    ped.start_x = static_cast<int>(rng.NextInt(0, std::max(1, w / 2)));
    ped.speed = static_cast<float>(rng.NextUniform(0.2, 0.7));
    IdentityJitter(0x9EDull, ped.id, ped.color_jitter);
    peds_.push_back(ped);
  }
  cycle_frames_ = std::max(60, config_.num_frames / 6);
}

FrameTruth TrafficCamSim::TruthAt(int frameno) const {
  FrameTruth truth;
  truth.frameno = frameno;
  const int w = config_.width;
  const int h = config_.height;

  // Global traffic-light gating creates genuinely car-free frames so q2's
  // count is non-trivial.
  const int red_window =
      static_cast<int>(cycle_frames_ * config_.empty_fraction);
  const bool red_light = (frameno % cycle_frames_) < red_window;

  if (!red_light) {
    for (const CarTrack& car : cars_) {
      const int cycle = w + car.length;
      const int pos = (car.phase + frameno * car.speed) % cycle;
      const int x0 = pos - car.length;
      const int x1 = pos;
      // Require a meaningful visible extent.
      const int vis_x0 = std::max(0, x0);
      const int vis_x1 = std::min(w, x1);
      if (vis_x1 - vis_x0 < 6) continue;
      SceneObject obj;
      obj.cls = nn::ObjectClass::kCar;
      obj.object_id = car.id;
      obj.bbox = nn::BBox{vis_x0, car.lane_y, vis_x1,
                          std::min(h, car.lane_y + car.height)};
      obj.depth = 50.0f;  // cars sit on the far road plane
      std::copy(car.color_jitter, car.color_jitter + 3, obj.color_jitter);
      truth.objects.push_back(obj);
    }
  }

  for (const PedTrack& ped : peds_) {
    if (frameno < ped.start_frame ||
        frameno >= ped.start_frame + ped.duration) {
      continue;
    }
    const int age = frameno - ped.start_frame;
    const int height_px =
        static_cast<int>(kDepthConstant / ped.depth);  // 10..25 px
    const int width_px = std::max(3, height_px / 3 + 1);
    const int x0 =
        ped.start_x + static_cast<int>(ped.speed * static_cast<float>(age));
    // Pedestrians walk the sidewalk band above the car lanes.
    const int y0 = 2;
    const nn::BBox box{x0, y0, x0 + width_px, y0 + height_px};
    if (box.x0 < 0 || box.x1 > w || box.y1 > h) continue;
    SceneObject obj;
    obj.cls = nn::ObjectClass::kPerson;
    obj.object_id = ped.id;
    obj.bbox = box;
    obj.depth = ped.depth;
    std::copy(ped.color_jitter, ped.color_jitter + 3, obj.color_jitter);
    truth.objects.push_back(obj);
  }
  return truth;
}

Image TrafficCamSim::FrameAt(int frameno) const {
  const FrameTruth truth = TruthAt(frameno);
  return RenderScene(config_.width, config_.height, Background::kAsphalt,
                     truth.objects,
                     config_.seed ^ static_cast<uint64_t>(frameno) * 31ull,
                     /*noise_amplitude=*/6, /*texture_seed=*/config_.seed);
}

int TrafficCamSim::FramesWithVehicles() const {
  int count = 0;
  for (int f = 0; f < config_.num_frames; ++f) {
    const FrameTruth truth = TruthAt(f);
    for (const SceneObject& o : truth.objects) {
      if (o.cls == nn::ObjectClass::kCar) {
        ++count;
        break;
      }
    }
  }
  return count;
}

int TrafficCamSim::DistinctPedestrians() const {
  // Identities whose track window intersects the video and whose walk
  // keeps them on-screen for at least one frame.
  int count = 0;
  for (const PedTrack& ped : peds_) {
    bool seen = false;
    for (int f = ped.start_frame;
         f < std::min(config_.num_frames, ped.start_frame + ped.duration) &&
         !seen;
         ++f) {
      for (const SceneObject& o : TruthAt(f).objects) {
        if (o.object_id == ped.id) {
          seen = true;
          break;
        }
      }
    }
    if (seen) ++count;
  }
  return count;
}

std::vector<std::pair<int, int>> TrafficCamSim::BehindPairsAt(
    int frameno) const {
  std::vector<std::pair<int, int>> pairs;
  const FrameTruth truth = TruthAt(frameno);
  for (const SceneObject& a : truth.objects) {
    if (a.cls != nn::ObjectClass::kPerson) continue;
    for (const SceneObject& b : truth.objects) {
      if (b.cls != nn::ObjectClass::kPerson) continue;
      if (a.object_id == b.object_id) continue;
      if (a.depth > b.depth + 2.0f) {
        pairs.emplace_back(a.object_id, b.object_id);
      }
    }
  }
  return pairs;
}

// ---------------------------------------------------------------------
// Football
// ---------------------------------------------------------------------

FootballSim::FootballSim(FootballConfig config) : config_(std::move(config)) {
  Rng rng(config_.seed);
  players_.resize(static_cast<size_t>(config_.num_videos));
  for (int v = 0; v < config_.num_videos; ++v) {
    auto& roster = players_[static_cast<size_t>(v)];
    roster.reserve(static_cast<size_t>(config_.players_per_video));
    for (int s = 0; s < config_.players_per_video; ++s) {
      PlayerTrack p;
      if (s == 0) {
        p.jersey = config_.tracked_jersey;
      } else {
        // Distinct non-tracked jerseys from the pool {1..9} \ {tracked},
        // rotated per video so rosters differ across videos.
        int pool[8];
        int count = 0;
        for (int j = 1; j <= 9; ++j) {
          if (j != config_.tracked_jersey) pool[count++] = j;
        }
        p.jersey = pool[(s - 1 + v) % 8];
      }
      p.w = 14;
      p.h = 20;
      p.x0 = static_cast<float>(
          rng.NextUniform(0, std::max(1, config_.width - p.w)));
      p.y0 = static_cast<float>(
          rng.NextUniform(0, std::max(1, config_.height - p.h)));
      p.vx = static_cast<float>(rng.NextUniform(-1.2, 1.2));
      p.vy = static_cast<float>(rng.NextUniform(-0.8, 0.8));
      IdentityJitter(0xF00ull, v * 100 + p.jersey, p.color_jitter);
      roster.push_back(p);
    }
  }
}

const FootballSim::PlayerTrack& FootballSim::PlayerAt(int video,
                                                      int slot) const {
  return players_[static_cast<size_t>(video)][static_cast<size_t>(slot)];
}

namespace {
// Reflective fold of `pos` into [0, limit] (bouncing motion).
float Fold(float pos, float limit) {
  if (limit <= 0) return 0;
  const float period = 2.0f * limit;
  float p = std::fmod(pos, period);
  if (p < 0) p += period;
  return p <= limit ? p : period - p;
}
}  // namespace

FrameTruth FootballSim::TruthAt(int video, int frameno) const {
  FrameTruth truth;
  truth.frameno = frameno;
  const auto& roster = players_[static_cast<size_t>(video)];
  for (const PlayerTrack& p : roster) {
    const float fx =
        Fold(p.x0 + p.vx * static_cast<float>(frameno),
             static_cast<float>(config_.width - p.w));
    const float fy =
        Fold(p.y0 + p.vy * static_cast<float>(frameno),
             static_cast<float>(config_.height - p.h));
    SceneObject obj;
    obj.cls = nn::ObjectClass::kPlayer;
    obj.object_id = video * 100 + p.jersey;
    obj.bbox = nn::BBox{static_cast<int>(fx), static_cast<int>(fy),
                        static_cast<int>(fx) + p.w,
                        static_cast<int>(fy) + p.h};
    obj.depth = 20.0f;
    obj.text = std::to_string(p.jersey);
    std::copy(p.color_jitter, p.color_jitter + 3, obj.color_jitter);
    truth.objects.push_back(obj);
  }
  return truth;
}

Image FootballSim::FrameAt(int video, int frameno) const {
  const FrameTruth truth = TruthAt(video, frameno);
  return RenderScene(
      config_.width, config_.height, Background::kField, truth.objects,
      config_.seed ^ (static_cast<uint64_t>(video) * 7919ull +
                      static_cast<uint64_t>(frameno) * 31ull),
      /*noise_amplitude=*/6,
      /*texture_seed=*/config_.seed ^
          (static_cast<uint64_t>(video) * 7919ull));
}

std::vector<nn::BBox> FootballSim::TrackedTrajectory(int video) const {
  std::vector<nn::BBox> out;
  out.reserve(static_cast<size_t>(config_.frames_per_video));
  for (int f = 0; f < config_.frames_per_video; ++f) {
    const FrameTruth truth = TruthAt(video, f);
    for (const SceneObject& o : truth.objects) {
      if (o.text == std::to_string(config_.tracked_jersey)) {
        out.push_back(o.bbox);
        break;
      }
    }
  }
  return out;
}

// ---------------------------------------------------------------------
// PC
// ---------------------------------------------------------------------

PcSim::PcSim(PcConfig config) : config_(std::move(config)) {
  target_image_ =
      std::max(config_.num_duplicates, config_.num_text_images / 2);
  if (target_image_ >= config_.num_text_images) {
    // Degenerate configs: keep the target inside the text range.
    target_image_ = std::max(0, config_.num_text_images - 1);
  }
}

int PcSim::DuplicateOf(int index) const {
  const int first_dup = config_.num_images - config_.num_duplicates;
  if (index >= first_dup && index < config_.num_images) {
    return index - first_dup;
  }
  return -1;
}

std::vector<std::pair<int, int>> PcSim::DuplicatePairs() const {
  std::vector<std::pair<int, int>> pairs;
  const int first_dup = config_.num_images - config_.num_duplicates;
  for (int i = first_dup; i < config_.num_images; ++i) {
    pairs.emplace_back(DuplicateOf(i), i);
  }
  return pairs;
}

std::string PcSim::TextAt(int index) const {
  const int dup = DuplicateOf(index);
  const int base = dup >= 0 ? dup : index;
  return ContentFor(base).text;
}

PcSim::Content PcSim::ContentFor(int base_index) const {
  Rng rng(config_.seed ^
          (static_cast<uint64_t>(base_index) * 0x2545F4914F6CDD1Dull));
  Content c;
  c.width = static_cast<int>(
      rng.NextInt(config_.min_width, config_.max_width));
  c.height = static_cast<int>(
      rng.NextInt(config_.min_height, config_.max_height));
  const int num_blocks = static_cast<int>(rng.NextInt(3, 8));
  for (int b = 0; b < num_blocks; ++b) {
    Content::Block block;
    block.x0 = static_cast<int>(rng.NextInt(0, c.width - 8));
    block.y0 = static_cast<int>(rng.NextInt(0, c.height - 8));
    block.x1 = block.x0 + static_cast<int>(
                              rng.NextInt(6, std::max(7, c.width / 2)));
    block.y1 = block.y0 + static_cast<int>(
                              rng.NextInt(6, std::max(7, c.height / 2)));
    block.x1 = std::min(block.x1, c.width);
    block.y1 = std::min(block.y1, c.height);
    for (int ch = 0; ch < 3; ++ch) {
      // Capped below the detector's whiteness threshold so content blocks
      // never masquerade as text regions (only glyphs render near-white).
      block.rgb[ch] = static_cast<uint8_t>(rng.NextInt(30, 180));
    }
    c.blocks.push_back(block);
  }
  if (base_index < config_.num_text_images) {
    if (base_index == target_image_) {
      c.text = config_.target_string;
    } else {
      c.text.clear();
      const int len = static_cast<int>(rng.NextInt(4, 6));
      for (int i = 0; i < len; ++i) {
        c.text += static_cast<char>('0' + rng.NextInt(0, 9));
      }
      // Regenerate on accidental collision with the target string.
      if (c.text == config_.target_string) c.text[0] = '9';
    }
    const int box_h = std::max(12, c.height / 4);
    c.text_box = nn::BBox{2, c.height - box_h - 2, c.width - 2,
                          c.height - 2};
  }
  return c;
}

Image PcSim::ImageAt(int index) const {
  const int dup = DuplicateOf(index);
  const int base = dup >= 0 ? dup : index;
  const Content c = ContentFor(base);

  Rng noise(config_.seed ^
            (static_cast<uint64_t>(index) * 0xDA3E39CB94B95BDBull));
  Image img(c.width, c.height, 3);
  for (int y = 0; y < c.height; ++y) {
    for (int x = 0; x < c.width; ++x) {
      const int n = static_cast<int>(noise.NextInt(-5, 5));
      for (int ch = 0; ch < 3; ++ch) {
        img.At(x, y, ch) =
            static_cast<uint8_t>(std::clamp(186 + n, 0, 255));
      }
    }
  }
  for (const Content::Block& block : c.blocks) {
    for (int y = block.y0; y < block.y1; ++y) {
      for (int x = block.x0; x < block.x1; ++x) {
        const int n = static_cast<int>(noise.NextInt(-4, 4));
        for (int ch = 0; ch < 3; ++ch) {
          img.At(x, y, ch) = static_cast<uint8_t>(
              std::clamp(static_cast<int>(block.rgb[ch]) + n, 0, 255));
        }
      }
    }
  }
  if (!c.text.empty()) {
    // Dark text panel with bright digits.
    for (int y = std::max(0, c.text_box.y0);
         y < std::min(c.height, c.text_box.y1); ++y) {
      for (int x = std::max(0, c.text_box.x0);
           x < std::min(c.width, c.text_box.x1); ++x) {
        for (int ch = 0; ch < 3; ++ch) {
          img.At(x, y, ch) = 25;
        }
      }
    }
    DrawDigits(&img, c.text_box, c.text);
  }
  return img;
}

}  // namespace sim
}  // namespace deeplens
