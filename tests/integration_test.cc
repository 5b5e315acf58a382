// End-to-end integration tests: the full benchmark workload (ETL → all six
// queries, baseline vs optimized equivalence), encoding accuracy effects,
// and cross-layer consistency.
#include <gtest/gtest.h>

#include <chrono>
#include <filesystem>
#include <future>

#include "common/bytes.h"
#include "common/thread_pool.h"
#include "core/benchmark_queries.h"
#include "tensor/ops.h"

namespace deeplens {
namespace bench {
namespace {

// One shared workload for the whole suite: ETL is the expensive part and
// every test reads but does not mutate the views.
class WorkloadTest : public ::testing::Test {
 protected:
  static WorkloadConfig SmallConfig() {
    WorkloadConfig config;
    config.traffic.num_frames = 220;
    config.football.num_videos = 4;
    config.football.frames_per_video = 10;
    config.pc.num_images = 80;
    config.pc.num_duplicates = 8;
    config.pc.num_text_images = 20;
    return config;
  }

  static void SetUpTestSuite() {
    root_ = (std::filesystem::temp_directory_path() /
             ("dl_integration_" + std::to_string(::getpid())))
                .string();
    std::filesystem::remove_all(root_);
    auto workload = BenchmarkWorkload::Create(root_, SmallConfig());
    ASSERT_TRUE(workload.ok()) << workload.status().ToString();
    workload_ = std::move(workload).value().release();
    ASSERT_TRUE(workload_->RunEtl(nullptr, &etl_).ok());
  }
  static void TearDownTestSuite() {
    delete workload_;
    workload_ = nullptr;
    std::filesystem::remove_all(root_);
  }

  static std::string root_;
  static BenchmarkWorkload* workload_;
  static EtlTimings etl_;
};

std::string WorkloadTest::root_;
BenchmarkWorkload* WorkloadTest::workload_ = nullptr;
EtlTimings WorkloadTest::etl_;

TEST_F(WorkloadTest, EtlProducedAllViews) {
  EXPECT_GT(etl_.traffic_ms, 0);
  EXPECT_GT(etl_.total(), 0);
  for (const char* view :
       {"traffic_dets", "pc_images", "pc_text", "football_players",
        "football_jerseys"}) {
    auto v = workload_->db()->GetView(view);
    ASSERT_TRUE(v.ok()) << view;
    EXPECT_GT((*v)->patches.size(), 0u) << view;
  }
}

// RunEtl inside a pool worker runs every parallel construct inline (the
// detector windows, the morsel-parallel stages and the jersey OCR). Its
// five views and their lineage must equal the parallel run's byte for
// byte.
TEST_F(WorkloadTest, EtlInsideAWorkerIsByteIdentical) {
  const std::string root = root_ + "_serial";
  std::filesystem::remove_all(root);
  auto serial = BenchmarkWorkload::Create(root, SmallConfig());
  ASSERT_TRUE(serial.ok()) << serial.status().ToString();
  Status status;
  auto done = ThreadPool::Global().Submit(
      [&] { status = (*serial)->RunEtl(nullptr, nullptr); });
  ASSERT_EQ(done.wait_for(std::chrono::seconds(300)),
            std::future_status::ready);
  ASSERT_TRUE(status.ok()) << status.ToString();
  const auto bytes = [](const Patch& p) {
    ByteBuffer buf;
    p.SerializeInto(&buf);
    return buf.data();
  };
  for (const char* name :
       {"traffic_dets", "pc_images", "pc_text", "football_players",
        "football_jerseys"}) {
    auto parallel_view = workload_->db()->GetView(name);
    auto serial_view = (*serial)->db()->GetView(name);
    ASSERT_TRUE(parallel_view.ok() && serial_view.ok()) << name;
    const PatchCollection& p = (*parallel_view)->patches;
    const PatchCollection& q = (*serial_view)->patches;
    ASSERT_EQ(p.size(), q.size()) << name;
    for (size_t i = 0; i < p.size(); ++i) {
      ASSERT_EQ(bytes(p[i]), bytes(q[i])) << name << " row " << i;
      auto p_chain = workload_->db()->lineage()->Chain(p[i].id());
      auto q_chain = (*serial)->db()->lineage()->Chain(q[i].id());
      ASSERT_TRUE(p_chain.ok() && q_chain.ok()) << name << " row " << i;
      EXPECT_EQ(*p_chain, *q_chain) << name << " row " << i;
    }
  }
  serial->reset();
  std::filesystem::remove_all(root);
}

TEST_F(WorkloadTest, EveryPatchHasLineage) {
  auto view = workload_->db()->GetView("traffic_dets");
  ASSERT_TRUE(view.ok());
  for (const Patch& p : (*view)->patches) {
    auto root = workload_->db()->lineage()->Backtrace(p.id());
    ASSERT_TRUE(root.ok());
    EXPECT_EQ(root->dataset, "traffic");
    EXPECT_GE(root->frameno, 0);
  }
}

TEST_F(WorkloadTest, JerseyLineageWalksToPlayerAndFrame) {
  auto jerseys = workload_->db()->GetView("football_jerseys");
  ASSERT_TRUE(jerseys.ok());
  ASSERT_GT((*jerseys)->patches.size(), 0u);
  const Patch& jersey = (*jerseys)->patches[0];
  // The jersey derives from a player patch.
  EXPECT_NE(jersey.ref().parent, kInvalidPatchId);
  auto chain = workload_->db()->lineage()->Chain(jersey.id());
  ASSERT_TRUE(chain.ok());
  EXPECT_GE(chain->size(), 2u);
  auto root = workload_->db()->lineage()->Backtrace(jersey.id());
  ASSERT_TRUE(root.ok());
  EXPECT_EQ(root->dataset, "football");
}

TEST_F(WorkloadTest, BaselineAndOptimizedAgreeOnEveryQuery) {
  ASSERT_TRUE(workload_->DropAllIndexes().ok());
  std::vector<QueryRun> baseline;
  for (int q = 1; q <= 6; ++q) {
    auto run = workload_->RunQuery(q, false);
    ASSERT_TRUE(run.ok()) << "q" << q << ": " << run.status().ToString();
    baseline.push_back(*run);
  }
  auto build_ms = workload_->BuildOptimizedIndexes();
  ASSERT_TRUE(build_ms.ok());
  EXPECT_GT(*build_ms, 0.0);
  for (int q = 1; q <= 6; ++q) {
    auto run = workload_->RunQuery(q, true);
    ASSERT_TRUE(run.ok()) << "q" << q;
    // The physical design must never change the answer (paper: logical-
    // physical separation).
    EXPECT_EQ(run->result_count, baseline[static_cast<size_t>(q - 1)].result_count)
        << "q" << q;
  }
}

TEST_F(WorkloadTest, QueryAccuracySanity) {
  ASSERT_TRUE(workload_->BuildOptimizedIndexes().ok());
  auto q1 = workload_->RunQ1(true);
  ASSERT_TRUE(q1.ok());
  EXPECT_GE(q1->recall, 0.9);
  EXPECT_GE(q1->precision, 0.9);

  auto q2 = workload_->RunQ2(true);
  ASSERT_TRUE(q2.ok());
  EXPECT_GE(q2->recall, 0.95);
  EXPECT_GE(q2->precision, 0.95);

  auto q5 = workload_->RunQ5(true);
  ASSERT_TRUE(q5.ok());
  EXPECT_EQ(q5->result_count, 1u);
  EXPECT_EQ(q5->recall, 1.0);

  auto q6 = workload_->RunQ6(true);
  ASSERT_TRUE(q6.ok());
  EXPECT_GE(q6->precision, 0.7);
  EXPECT_GE(q6->recall, 0.3);
}

TEST_F(WorkloadTest, Q4CountIsNearTruth) {
  ASSERT_TRUE(workload_->BuildOptimizedIndexes().ok());
  auto q4 = workload_->RunQ4(true);
  ASSERT_TRUE(q4.ok());
  const int truth = workload_->traffic().DistinctPedestrians();
  EXPECT_GT(q4->result_count, 0u);
  // Dedup is approximate; demand the count is within 2× of truth.
  EXPECT_LE(q4->result_count, static_cast<uint64_t>(2 * truth));
  EXPECT_GE(static_cast<int>(q4->result_count), truth / 2);
}

TEST_F(WorkloadTest, Table1PlanOrderTradeoff) {
  ASSERT_TRUE(workload_->BuildOptimizedIndexes().ok());
  auto filter_first = workload_->RunQ4PlanOrder(true);
  ASSERT_TRUE(filter_first.ok());
  auto match_first = workload_->RunQ4PlanOrder(false);
  ASSERT_TRUE(match_first.ok());
  // The paper's Table 1 shape: matching before filtering recovers at
  // least as many true pairs, and costs more time.
  EXPECT_GE(match_first->recall, filter_first->recall);
  EXPECT_GT(match_first->runtime_ms, filter_first->runtime_ms);
  EXPECT_GT(filter_first->recall, 0.2);
  EXPECT_GT(filter_first->precision, 0.5);
}

TEST_F(WorkloadTest, OptimizedQ6MuchFasterThanBaseline) {
  ASSERT_TRUE(workload_->BuildOptimizedIndexes().ok());
  auto baseline = workload_->RunQ6(false);
  ASSERT_TRUE(baseline.ok());
  auto optimized = workload_->RunQ6(true);
  ASSERT_TRUE(optimized.ok());
  EXPECT_EQ(baseline->result_count, optimized->result_count);
  EXPECT_LT(optimized->millis, baseline->millis);
}

TEST_F(WorkloadTest, Q2AccuracyFromViewIsHigh) {
  auto acc = workload_->Q2AccuracyFromView("traffic_dets");
  ASSERT_TRUE(acc.ok());
  EXPECT_GE(*acc, 0.95);
}

// --- Encoding accuracy pipeline (Figure 2 mechanism) ----------------------

TEST(EncodingAccuracyTest, LossyEncodingDegradesDetection) {
  // Render traffic frames, push them through each quality level, and
  // verify detection accuracy is ordered High >= Medium >= Low (with a
  // meaningful drop at Low).
  sim::TrafficCamConfig config;
  config.num_frames = 40;
  sim::TrafficCamSim sim(config);
  nn::TinySsdDetector detector;
  nn::Device* device = nn::GetDevice(nn::DeviceKind::kCpuVector);

  auto f1_for = [&](std::optional<codec::Quality> quality) -> double {
    sim::PrecisionRecall total;
    for (int f = 0; f < config.num_frames; f += 2) {
      Image frame = sim.FrameAt(f);
      if (quality.has_value()) {
        auto encoded = codec::EncodeImage(frame, *quality);
        auto decoded = codec::DecodeImage(Slice(encoded));
        EXPECT_TRUE(decoded.ok());
        frame = std::move(decoded).value();
      }
      auto dets = detector.Detect(frame, device);
      EXPECT_TRUE(dets.ok());
      // IoU 0.5: strict enough that block artifacts at low quality are
      // penalized (boxes snap to 8x8 DCT block boundaries).
      total.Merge(sim::MatchDetections(*dets, sim.TruthAt(f).objects,
                                       nn::ObjectClass::kCar, 0.5f));
      total.Merge(sim::MatchDetections(*dets, sim.TruthAt(f).objects,
                                       nn::ObjectClass::kPerson, 0.5f));
    }
    return total.f1();
  };

  const double raw = f1_for(std::nullopt);
  const double high = f1_for(codec::Quality::kHigh);
  const double low = f1_for(codec::Quality::kLow);
  EXPECT_GE(raw, 0.9);
  // High-quality encoding is near-lossless for the pipeline.
  EXPECT_GE(high, raw - 0.03);
  // Low quality visibly degrades accuracy.
  EXPECT_LT(low, high - 0.03);
}

TEST(CrossCameraTest, SharedCarsMatchAcrossVideos) {
  // The paper's motivating join: find the same car in two feeds. Shared
  // identities render with identical body colors, so histogram features
  // of their crops match across cameras.
  sim::TrafficCamConfig cam1, cam2;
  cam1.num_frames = cam2.num_frames = 60;
  cam1.seed = 901;
  cam2.seed = 902;
  cam1.shared_car_ids = {7500};
  cam2.shared_car_ids = {7500};
  sim::TrafficCamSim a(cam1), b(cam2);
  ColorHistogramOptions features;
  features.bins = 16;
  features.grid = 2;

  auto crop_feature = [&](const sim::TrafficCamSim& sim,
                          int car_id) -> Tensor {
    for (int f = 0; f < 60; ++f) {
      for (const auto& o : sim.TruthAt(f).objects) {
        if (o.object_id == car_id) {
          Image frame = sim.FrameAt(f);
          return ColorHistogramFeature(
              frame.Crop(o.bbox.x0, o.bbox.y0, o.bbox.x1, o.bbox.y1),
              features);
        }
      }
    }
    return Tensor();
  };
  Tensor shared_a = crop_feature(a, 7500);
  Tensor shared_b = crop_feature(b, 7500);
  ASSERT_FALSE(shared_a.empty());
  ASSERT_FALSE(shared_b.empty());
  EXPECT_LT(ops::L2Distance(shared_a, shared_b), 0.3f);

  // A private car from camera 2 must NOT match the shared car.
  int private_id = -1;
  for (const auto& o : b.TruthAt(30).objects) {
    if (o.cls == nn::ObjectClass::kCar && o.object_id != 7500) {
      private_id = o.object_id;
    }
  }
  if (private_id >= 0) {
    Tensor private_feat = crop_feature(b, private_id);
    ASSERT_FALSE(private_feat.empty());
    EXPECT_GT(ops::L2Distance(shared_a, private_feat), 0.3f);
  }
}

}  // namespace
}  // namespace bench
}  // namespace deeplens
