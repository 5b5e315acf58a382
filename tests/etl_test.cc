// Unit tests for etl/: patch generators (metadata, lineage, batching),
// transformers (featurization properties, resize, OCR/depth annotation),
// parallel-vs-serial ETL equivalence, and materialized views (round-trip,
// reopen).
#include <gtest/gtest.h>

#include <chrono>
#include <filesystem>
#include <future>
#include <mutex>
#include <set>
#include <thread>

#include "common/bytes.h"
#include "common/thread_pool.h"
#include "etl/generators.h"
#include "etl/materialize.h"
#include "etl/transformers.h"
#include "exec/pipeline.h"
#include "sim/datasets.h"
#include "tensor/ops.h"

namespace deeplens {
namespace {

std::vector<Image> TrafficFrames(int n) {
  sim::TrafficCamConfig config;
  config.num_frames = n;
  sim::TrafficCamSim traffic(config);
  std::vector<Image> frames;
  for (int f = 0; f < n; ++f) frames.push_back(traffic.FrameAt(f));
  return frames;
}

TEST(FrameIteratorTest, VectorSourceNumbersFrames) {
  auto frames = FramesFromVector(TrafficFrames(3), 10);
  for (int expected = 10; expected < 13; ++expected) {
    auto f = frames();
    ASSERT_TRUE(f.ok());
    ASSERT_TRUE(f->has_value());
    EXPECT_EQ((*f)->first, expected);
  }
  auto end = frames();
  ASSERT_TRUE(end.ok());
  EXPECT_FALSE(end->has_value());
}

TEST(WholeImageGeneratorTest, OnePatchPerFrameWithMeta) {
  EtlOptions options;
  options.dataset_name = "ds";
  auto gen =
      MakeWholeImageGenerator(FramesFromVector(TrafficFrames(4)), options);
  auto patches = CollectPatches(gen.get());
  ASSERT_TRUE(patches.ok());
  ASSERT_EQ(patches->size(), 4u);
  for (size_t i = 0; i < 4; ++i) {
    const Patch& p = (*patches)[i];
    EXPECT_NE(p.id(), kInvalidPatchId);
    EXPECT_TRUE(p.has_pixels());
    EXPECT_EQ(p.meta().Get(meta_keys::kFrameNo).AsInt().value(),
              static_cast<int64_t>(i));
    EXPECT_EQ(*p.meta().Get(meta_keys::kDataset).AsString().value(), "ds");
    EXPECT_EQ(p.ref().dataset, "ds");
    EXPECT_EQ(p.bbox().Width(), p.pixels().width());
  }
}

TEST(WholeImageGeneratorTest, IdsAreUniqueAcrossGenerators) {
  std::atomic<uint64_t> counter{1};
  EtlOptions options;
  options.id_counter = &counter;
  auto g1 =
      MakeWholeImageGenerator(FramesFromVector(TrafficFrames(3)), options);
  auto g2 =
      MakeWholeImageGenerator(FramesFromVector(TrafficFrames(3)), options);
  auto p1 = CollectPatches(g1.get());
  auto p2 = CollectPatches(g2.get());
  ASSERT_TRUE(p1.ok());
  ASSERT_TRUE(p2.ok());
  std::set<PatchId> ids;
  for (const Patch& p : *p1) ids.insert(p.id());
  for (const Patch& p : *p2) ids.insert(p.id());
  EXPECT_EQ(ids.size(), 6u);
}

TEST(ObjectDetectorGeneratorTest, MatchesDirectDetection) {
  nn::TinySsdDetector detector;
  auto frames = TrafficFrames(6);
  EtlOptions options;
  options.dataset_name = "traffic";
  options.batch_size = 4;  // forces a partial second batch
  auto gen = MakeObjectDetectorGenerator(FramesFromVector(frames),
                                         &detector, options);
  auto patches = CollectPatches(gen.get());
  ASSERT_TRUE(patches.ok());

  size_t direct_count = 0;
  nn::Device* device = nn::GetDevice(nn::DeviceKind::kCpuVector);
  for (const Image& frame : frames) {
    auto dets = detector.Detect(frame, device);
    ASSERT_TRUE(dets.ok());
    direct_count += dets->size();
  }
  EXPECT_EQ(patches->size(), direct_count);
  for (const Patch& p : *patches) {
    EXPECT_TRUE(p.has_pixels());
    EXPECT_FALSE(p.meta().Get(meta_keys::kLabel).is_null());
    EXPECT_GT(p.meta().Get(meta_keys::kScore).AsNumeric().value(), 0.0);
    // Box metadata mirrors the bbox.
    EXPECT_EQ(p.meta().Get(meta_keys::kBoxX0).AsInt().value(),
              p.bbox().x0);
  }
}

TEST(ObjectDetectorGeneratorTest, CropPixelsCanBeDisabled) {
  nn::TinySsdDetector detector;
  EtlOptions options;
  options.crop_pixels = false;
  auto gen = MakeObjectDetectorGenerator(FramesFromVector(TrafficFrames(3)),
                                         &detector, options);
  auto patches = CollectPatches(gen.get());
  ASSERT_TRUE(patches.ok());
  ASSERT_FALSE(patches->empty());
  for (const Patch& p : *patches) EXPECT_FALSE(p.has_pixels());
}

TEST(GeneratorLineageTest, GeneratorsRecordLineage) {
  LineageStore lineage;
  std::atomic<uint64_t> counter{1};
  nn::TinySsdDetector detector;
  EtlOptions options;
  options.dataset_name = "traffic";
  options.lineage = &lineage;
  options.id_counter = &counter;
  auto gen = MakeObjectDetectorGenerator(FramesFromVector(TrafficFrames(4)),
                                         &detector, options);
  auto patches = CollectPatches(gen.get());
  ASSERT_TRUE(patches.ok());
  ASSERT_FALSE(patches->empty());
  EXPECT_EQ(lineage.size(), patches->size());
  for (const Patch& p : *patches) {
    auto root = lineage.Backtrace(p.id());
    ASSERT_TRUE(root.ok());
    EXPECT_EQ(root->dataset, "traffic");
  }
  // Frame index finds the patches of frame 0.
  std::vector<PatchId> frame0;
  lineage.PatchesForFrame("traffic", 0, &frame0);
  size_t expected = 0;
  for (const Patch& p : *patches) {
    if (p.ref().frameno == 0) ++expected;
  }
  EXPECT_EQ(frame0.size(), expected);
}

TEST(TileGeneratorTest, CoversFrameExactly) {
  EtlOptions options;
  Image frame(30, 20, 3);
  auto gen = MakeTileGenerator(FramesFromVector({frame}), 16, 16, options);
  auto tiles = CollectPatches(gen.get());
  ASSERT_TRUE(tiles.ok());
  ASSERT_EQ(tiles->size(), 4u);  // 2x2 grid with ragged edges
  int covered = 0;
  for (const Patch& p : *tiles) covered += p.bbox().Area();
  EXPECT_EQ(covered, 30 * 20);
}

TEST(OcrGeneratorTest, FindsEmbeddedText) {
  sim::PcConfig config;
  config.num_images = 12;
  config.num_text_images = 12;
  config.num_duplicates = 0;
  sim::PcSim pc(config);
  std::vector<Image> images;
  for (int i = 0; i < pc.num_images(); ++i) images.push_back(pc.ImageAt(i));

  nn::TinySsdDetector detector;
  nn::TinyOcr ocr;
  EtlOptions options;
  options.dataset_name = "pc";
  auto gen = MakeOcrGenerator(FramesFromVector(std::move(images)),
                              &detector, &ocr, options);
  auto patches = CollectPatches(gen.get());
  ASSERT_TRUE(patches.ok());
  // Most of the 12 embedded strings should be recognized verbatim.
  int correct = 0;
  for (const Patch& p : *patches) {
    const int64_t image =
        p.meta().Get(meta_keys::kFrameNo).AsInt().ValueOr(-1);
    auto text = p.meta().Get(meta_keys::kText).AsString();
    if (text.ok() && **text == pc.TextAt(static_cast<int>(image))) {
      ++correct;
    }
  }
  EXPECT_GE(correct, 8);
}

TEST(SchemaDeclarationsTest, DetectorSchemaHasClosedLabelDomain) {
  PatchSchema schema = DetectorSchema();
  const AttributeSpec* label = schema.FindAttribute(meta_keys::kLabel);
  ASSERT_NE(label, nullptr);
  EXPECT_EQ(label->domain.size(), static_cast<size_t>(nn::kNumClasses));
  EXPECT_TRUE(label->domain.count("car"));
  EXPECT_TRUE(
      schema.ValidatePredicate(meta_keys::kLabel, MetaValue("unicorn"))
          .IsTypeError());
  EXPECT_TRUE(OcrSchema().HasAttribute(meta_keys::kText));
  EXPECT_TRUE(WholeImageSchema().HasAttribute(meta_keys::kFrameNo));
}

// --- Transformers ------------------------------------------------------

TEST(ColorHistogramTest, FeatureIsL1NormalizedPerChannel) {
  Image img(10, 10, 3);
  for (auto& b : img.bytes()) b = 100;
  ColorHistogramOptions options;
  options.bins = 8;
  options.grid = 1;
  Tensor f = ColorHistogramFeature(img, options);
  ASSERT_EQ(f.size(), options.FeatureDim());
  // Each channel's histogram sums to ~1.
  for (int c = 0; c < 3; ++c) {
    float sum = 0;
    for (int b = 0; b < 8; ++b) sum += f[c * 8 + b];
    EXPECT_NEAR(sum, 1.0f, 1e-4f);
  }
}

TEST(ColorHistogramTest, SizeInvariance) {
  // The same solid color at different patch sizes → identical features.
  Image small(6, 6, 3), large(40, 30, 3);
  for (auto& b : small.bytes()) b = 150;
  for (auto& b : large.bytes()) b = 150;
  ColorHistogramOptions options;
  Tensor fs = ColorHistogramFeature(small, options);
  Tensor fl = ColorHistogramFeature(large, options);
  EXPECT_LT(ops::L2Distance(fs, fl), 1e-4f);
}

TEST(ColorHistogramTest, SoftBinningIsLipschitzInColor) {
  // A one-step color change must move the feature by a bounded amount —
  // the property hard binning violates at bin boundaries.
  ColorHistogramOptions options;
  options.bins = 16;
  Image a(8, 8, 3), b(8, 8, 3);
  for (auto& v : a.bytes()) v = 119;  // straddles the 16-wide bin edge
  for (auto& v : b.bytes()) v = 120;
  Tensor fa = ColorHistogramFeature(a, options);
  Tensor fb = ColorHistogramFeature(b, options);
  EXPECT_LT(ops::L2Distance(fa, fb), 0.25f);
}

TEST(ColorHistogramTest, GridAppendsSpatialMeans) {
  ColorHistogramOptions options;
  options.bins = 4;
  options.grid = 2;
  EXPECT_EQ(options.FeatureDim(), 3 * 4 + 3 * 4);
  // Left half dark, right half bright: grid cells must differ.
  Image img(8, 8, 3);
  for (int y = 0; y < 8; ++y) {
    for (int x = 0; x < 8; ++x) {
      for (int c = 0; c < 3; ++c) img.At(x, y, c) = x < 4 ? 20 : 220;
    }
  }
  Tensor f = ColorHistogramFeature(img, options);
  const float* cells = f.data() + 12;
  EXPECT_LT(cells[0], 0.2f);   // top-left mean (dark)
  EXPECT_GT(cells[3 + 0], 0.7f);  // top-right mean (bright)
}

TEST(ColorHistogramTransformerTest, SetsFeaturesOnPatches) {
  EtlOptions options;
  auto gen =
      MakeWholeImageGenerator(FramesFromVector(TrafficFrames(2)), options);
  auto transformer =
      MakeColorHistogramTransformer(std::move(gen), ColorHistogramOptions{});
  auto patches = CollectPatches(transformer.get());
  ASSERT_TRUE(patches.ok());
  for (const Patch& p : *patches) {
    EXPECT_TRUE(p.has_features());
  }
}

TEST(ColorHistogramTransformerTest, FailsWithoutPixels) {
  Patch p;
  p.set_id(1);
  auto transformer = MakeColorHistogramTransformer(
      MakeVectorSource({p}), ColorHistogramOptions{});
  EXPECT_TRUE(CollectPatches(transformer.get())
                  .status()
                  .IsInvalidArgument());
}

TEST(ResizeTransformerTest, NormalizesResolution) {
  EtlOptions options;
  auto gen =
      MakeWholeImageGenerator(FramesFromVector(TrafficFrames(2)), options);
  auto resize = MakeResizeTransformer(std::move(gen), 32, 32);
  auto patches = CollectPatches(resize.get());
  ASSERT_TRUE(patches.ok());
  for (const Patch& p : *patches) {
    EXPECT_EQ(p.pixels().width(), 32);
    EXPECT_EQ(p.pixels().height(), 32);
  }
}

TEST(DepthTransformerTest, AnnotatesDepthMeta) {
  sim::TrafficCamConfig config;
  config.num_frames = 30;
  sim::TrafficCamSim traffic(config);
  // Build patches from ground-truth pedestrian crops.
  PatchCollection persons;
  PatchId next = 1;
  for (int f = 0; f < 30; ++f) {
    Image frame = traffic.FrameAt(f);
    for (const auto& o : traffic.TruthAt(f).objects) {
      if (o.cls != nn::ObjectClass::kPerson) continue;
      Patch p;
      p.set_id(next++);
      p.set_bbox(o.bbox);
      p.set_pixels(frame.Crop(o.bbox.x0, o.bbox.y0, o.bbox.x1, o.bbox.y1));
      p.mutable_meta().Set("truth_depth", static_cast<double>(o.depth));
      persons.push_back(std::move(p));
    }
  }
  ASSERT_FALSE(persons.empty());
  nn::TinyDepth model(nn::kFocalTimesHeight);
  auto transformer = MakeDepthTransformer(MakeVectorSource(persons), &model,
                                          config.height);
  auto annotated = CollectPatches(transformer.get());
  ASSERT_TRUE(annotated.ok());
  for (const Patch& p : *annotated) {
    const double predicted =
        p.meta().Get(meta_keys::kDepth).AsNumeric().value();
    const double truth =
        p.meta().Get("truth_depth").AsNumeric().value();
    EXPECT_NEAR(predicted, truth, truth * 0.25) << "patch " << p.id();
  }
}

TEST(OcrTransformerTest, AnnotatesLegibleText) {
  // A patch whose pixels carry a digit panel gets a "text" key.
  Image panel(40, 24, 3);
  for (auto& b : panel.bytes()) b = 25;
  sim::DrawDigits(&panel, nn::BBox{2, 2, 38, 22}, "37");
  Patch p;
  p.set_id(1);
  p.set_pixels(panel);
  nn::TinyOcr ocr;
  auto transformer = MakeOcrTransformer(MakeVectorSource({p}), &ocr);
  auto out = CollectPatches(transformer.get());
  ASSERT_TRUE(out.ok());
  ASSERT_EQ(out->size(), 1u);
  EXPECT_EQ(*(*out)[0].meta().Get(meta_keys::kText).AsString().value(),
            "37");
}

// --- Frame-parallel ETL ----------------------------------------------------

// Forwards every kernel to the vectorized CPU device and records the
// threads the kernels ran on. ParallelMap is the base class's pool map.
class ThreadRecordingDevice : public nn::Device {
 public:
  nn::DeviceKind kind() const override { return nn::DeviceKind::kCpuVector; }
  void Matmul(const float* a, const float* b, float* c, size_t m, size_t k,
              size_t n) override {
    Note();
    inner_->Matmul(a, b, c, m, k, n);
  }
  void Relu(float* x, size_t n) override {
    Note();
    inner_->Relu(x, n);
  }
  void Add(const float* a, const float* b, float* out, size_t n) override {
    Note();
    inner_->Add(a, b, out, n);
  }
  void ScaleBias(const float* a, float scale, float bias, float* out,
                 size_t n) override {
    Note();
    inner_->ScaleBias(a, scale, bias, out, n);
  }
  void PairwiseL2Squared(const float* a, size_t na, const float* b,
                         size_t nb, size_t dim, float* out) override {
    Note();
    inner_->PairwiseL2Squared(a, na, b, nb, dim, out);
  }

  size_t num_threads() const {
    std::lock_guard<std::mutex> lock(mu_);
    return threads_.size();
  }

 private:
  void Note() {
    std::lock_guard<std::mutex> lock(mu_);
    threads_.insert(std::this_thread::get_id());
  }

  nn::Device* inner_ = nn::GetDevice(nn::DeviceKind::kCpuVector);
  mutable std::mutex mu_;
  std::set<std::thread::id> threads_;
};

struct TrafficEtl {
  PatchCollection patches;
  LineageStore lineage;
};

// The traffic ETL chain: detector generator → color histogram → depth on
// persons. The per-patch stages run as morsel-parallel Map stages over the
// drained generator, or, with `streaming`, lazily bound over it (the
// serial oracle, which has no morsel merge).
Status RunTrafficChain(const std::vector<Image>& frames, nn::Device* device,
                       bool streaming, TrafficEtl* out) {
  const nn::TinySsdDetector detector;
  const nn::TinyDepth depth(nn::kFocalTimesHeight);
  std::atomic<uint64_t> counter{1};
  EtlOptions options;
  options.device = device;
  options.dataset_name = "traffic";
  options.lineage = &out->lineage;
  options.id_counter = &counter;
  auto gen = MakeObjectDetectorGenerator(FramesFromVector(frames), &detector,
                                         options);
  const int frame_h = frames.front().height();
  BatchPipeline stages;
  stages.Map(ColorHistogramMap(ColorHistogramOptions()))
      .Map([&](PatchTuple tuple) -> Result<PatchTuple> {
        for (Patch& p : tuple) {
          if (*p.meta().Get(meta_keys::kLabel).AsString().value() !=
              "person") {
            continue;
          }
          DL_ASSIGN_OR_RETURN(
              float d, depth.PredictDepth(p.pixels(), p.bbox(), frame_h,
                                          device));
          p.mutable_meta().Set(meta_keys::kDepth, static_cast<double>(d));
        }
        return tuple;
      });
  if (streaming) {
    auto bound = stages.Bind(TupleToBatch(std::move(gen)));
    DL_ASSIGN_OR_RETURN(out->patches, CollectBatchPatches(bound.get()));
    return Status::OK();
  }
  DL_ASSIGN_OR_RETURN(PatchCollection detections, CollectPatches(gen.get()));
  MorselOptions morsels;
  morsels.batch_size = 4;
  DL_ASSIGN_OR_RETURN(out->patches,
                      stages.RunOnPatches(std::move(detections), morsels));
  return Status::OK();
}

std::vector<uint8_t> PatchBytes(const Patch& p) {
  ByteBuffer buf;
  p.SerializeInto(&buf);
  return buf.data();
}

// Parallel ETL (detector windows over the pool, morsel-parallel stages)
// against the same chain inside a pool worker, where every
// parallel construct runs inline, and against the streaming chain: ids,
// refs, bboxes, metadata, features, pixels and lineage must match byte
// for byte.
TEST(ParallelEtlTest, ByteIdenticalToSerialInsideAWorker) {
  const std::vector<Image> frames = TrafficFrames(48);

  ThreadRecordingDevice parallel_device;
  TrafficEtl parallel;
  ASSERT_TRUE(
      RunTrafficChain(frames, &parallel_device, false, &parallel).ok());

  ThreadRecordingDevice serial_device;
  TrafficEtl serial;
  Status serial_status;
  auto done = ThreadPool::Global().Submit([&] {
    serial_status = RunTrafficChain(frames, &serial_device, false, &serial);
  });
  ASSERT_EQ(done.wait_for(std::chrono::seconds(120)),
            std::future_status::ready);
  ASSERT_TRUE(serial_status.ok()) << serial_status.ToString();

  if (ThreadPool::Global().num_threads() > 1) {
    EXPECT_GT(parallel_device.num_threads(), 1u);
  }
  EXPECT_EQ(serial_device.num_threads(), 1u);

  TrafficEtl streaming;
  ASSERT_TRUE(RunTrafficChain(frames, nn::GetDevice(nn::DeviceKind::kCpuVector),
                              true, &streaming)
                  .ok());

  ASSERT_GT(parallel.patches.size(), 0u);
  size_t with_depth = 0;
  for (const TrafficEtl* other : {&serial, &streaming}) {
    ASSERT_EQ(parallel.patches.size(), other->patches.size());
    EXPECT_EQ(parallel.lineage.size(), other->lineage.size());
    for (size_t i = 0; i < parallel.patches.size(); ++i) {
      const Patch& p = parallel.patches[i];
      const Patch& q = other->patches[i];
      EXPECT_EQ(PatchBytes(p), PatchBytes(q)) << "row " << i;
      auto p_chain = parallel.lineage.Chain(p.id());
      auto q_chain = other->lineage.Chain(q.id());
      ASSERT_TRUE(p_chain.ok());
      ASSERT_TRUE(q_chain.ok());
      EXPECT_EQ(*p_chain, *q_chain) << "row " << i;
    }
  }
  for (const Patch& p : parallel.patches) {
    EXPECT_TRUE(p.has_features());
    if (!p.meta().Get(meta_keys::kDepth).is_null()) ++with_depth;
  }
  EXPECT_GT(with_depth, 0u);
}

// A bad frame in the middle of a generator window fails the batch with
// the detector's own typed error on every device.
TEST(ParallelEtlTest, NonRgbFrameMidWindowIsInvalidArgument) {
  std::vector<Image> frames = TrafficFrames(12);
  frames[5] = Image(frames[5].width(), frames[5].height(), 1);
  const nn::TinySsdDetector detector;
  for (nn::DeviceKind kind :
       {nn::DeviceKind::kCpuScalar, nn::DeviceKind::kCpuVector,
        nn::DeviceKind::kGpuSim}) {
    EtlOptions options;
    options.device = nn::GetDevice(kind);
    auto gen = MakeObjectDetectorGenerator(FramesFromVector(frames),
                                           &detector, options);
    auto patches = CollectPatches(gen.get());
    ASSERT_FALSE(patches.ok()) << nn::DeviceKindName(kind);
    EXPECT_TRUE(patches.status().IsInvalidArgument())
        << nn::DeviceKindName(kind) << ": " << patches.status().ToString();
  }
}

// --- Materialized views --------------------------------------------------

class MaterializeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = (std::filesystem::temp_directory_path() /
             ("dl_etl_mat_" + std::to_string(::getpid())))
                .string();
    std::filesystem::remove(path_);
  }
  void TearDown() override { std::filesystem::remove(path_); }
  std::string path_;
};

TEST_F(MaterializeTest, WriteThenLoadRoundTrip) {
  EtlOptions options;
  options.dataset_name = "ds";
  auto gen =
      MakeWholeImageGenerator(FramesFromVector(TrafficFrames(5)), options);
  auto featurized =
      MakeColorHistogramTransformer(std::move(gen), ColorHistogramOptions{});
  auto view = MaterializedView::Open(path_);
  ASSERT_TRUE(view.ok());
  auto written = (*view)->Write(featurized.get());
  ASSERT_TRUE(written.ok());
  EXPECT_EQ(*written, 5u);
  EXPECT_EQ((*view)->size(), 5u);
  EXPECT_GT((*view)->storage_bytes(), 0u);

  auto loaded = (*view)->LoadAll();
  ASSERT_TRUE(loaded.ok());
  ASSERT_EQ(loaded->size(), 5u);
  for (const Patch& p : *loaded) {
    EXPECT_TRUE(p.has_pixels());
    EXPECT_TRUE(p.has_features());
    EXPECT_EQ(*p.meta().Get(meta_keys::kDataset).AsString().value(), "ds");
  }
}

TEST_F(MaterializeTest, SurvivesReopen) {
  {
    auto view = MaterializedView::Open(path_);
    ASSERT_TRUE(view.ok());
    Patch p;
    p.set_id(42);
    p.mutable_meta().Set("k", "v");
    ASSERT_TRUE((*view)->Append(p).ok());
    ASSERT_TRUE((*view)->Flush().ok());
  }
  auto view = MaterializedView::Open(path_);
  ASSERT_TRUE(view.ok());
  auto loaded = (*view)->LoadAll();
  ASSERT_TRUE(loaded.ok());
  ASSERT_EQ(loaded->size(), 1u);
  EXPECT_EQ((*loaded)[0].id(), 42u);
}

TEST_F(MaterializeTest, ScanStreamsAllPatches) {
  auto view = MaterializedView::Open(path_);
  ASSERT_TRUE(view.ok());
  for (PatchId id = 1; id <= 7; ++id) {
    Patch p;
    p.set_id(id);
    ASSERT_TRUE((*view)->Append(p).ok());
  }
  auto scan = (*view)->Scan();
  EXPECT_EQ(Drain(scan.get()).value(), 7u);
}

TEST_F(MaterializeTest, ScanSnapshotsAtCallTimeAndOutlivesView) {
  auto view = MaterializedView::Open(path_);
  ASSERT_TRUE(view.ok());
  for (PatchId id = 1; id <= 3; ++id) {
    Patch p;
    p.set_id(id);
    ASSERT_TRUE((*view)->Append(p).ok());
  }
  auto scan = (*view)->Scan();
  // Writes after Scan() must not leak into the snapshot, and the iterator
  // must stay valid after the view is destroyed.
  Patch late;
  late.set_id(4);
  ASSERT_TRUE((*view)->Append(late).ok());
  view->reset();
  EXPECT_EQ(Drain(scan.get()).value(), 3u);
}

}  // namespace
}  // namespace deeplens
