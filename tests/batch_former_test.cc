// Cross-query device batch formation (exec/batch_former.h).
//
// Two layers of coverage. Direct BatchFormer tests pin the queueing
// mechanics deterministically: K concurrent sessions' distinct patches
// produce exactly ceil(distinct/B) invocations, a lone submitter
// deadline-flushes within its own DEEPLENS_BATCH_WAIT_US (the no-stall
// guarantee), Drain() resolves staged patches at teardown, an oversized
// backlog splits into threshold-sized chunks, and a per-item error fails
// only its own caller. Database-level tests prove the integrated path —
// Cached* wrappers + singleflight + cascades + batched model entry
// points — byte-identical to unbatched execution under a randomized
// concurrent differential suite.
//
// Runs under the TSan CI stage (label: parallel) — the former's queues
// are hit from many threads here by construction.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "cache/inference_cache.h"
#include "common/bytes.h"
#include "common/rng.h"
#include "core/cost_model.h"
#include "core/database.h"
#include "core/query.h"
#include "core/session.h"
#include "exec/batch_former.h"
#include "exec/nn_udf.h"
#include "sim/scene.h"

namespace deeplens {
namespace {

using std::chrono::steady_clock;

double ElapsedMs(steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(steady_clock::now() -
                                                   start)
      .count();
}

// Batch function that echoes each item's frame_h as a double payload —
// enough to verify per-item routing without any model in the loop.
BatchFormer::BatchFn EchoFrameH() {
  return [](const std::vector<const BatchFormer::Item*>& items) {
    std::vector<BatchFormer::ItemOutcome> out;
    out.reserve(items.size());
    for (const BatchFormer::Item* item : items) {
      out.emplace_back(InferenceValue{static_cast<double>(item->frame_h)});
    }
    return out;
  };
}

double PayloadOf(const BatchFormer::ItemOutcome& outcome) {
  EXPECT_TRUE(outcome.ok()) << outcome.status().ToString();
  if (!outcome.ok()) return -1.0;
  const double* d = std::get_if<double>(&outcome->payload);
  EXPECT_NE(d, nullptr);
  return d != nullptr ? *d : -1.0;
}

// --- Direct former mechanics --------------------------------------------

// 4 sessions x 4 distinct patches with batch size 4: exactly 16/4 = 4
// device invocations, each carrying exactly 4 patches. Deterministic
// because the total is a multiple of the threshold and flushes claim
// threshold-sized chunks while any remain.
TEST(BatchFormerTest, ConcurrentDistinctPatchesBoundInvocations) {
  BatchFormer former;
  former.Configure(BatchFormerConfig{4, /*wait_us=*/10000000});
  constexpr int kThreads = 4;
  constexpr int kItemsPerThread = 4;
  std::atomic<int> wrong{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kItemsPerThread; ++i) {
        const int id = t * kItemsPerThread + i;
        BatchFormer::Item item;
        item.frame_h = id;
        auto outcome = former.Run("ocr@cpu", item, EchoFrameH());
        if (PayloadOf(outcome) != static_cast<double>(id)) wrong.fetch_add(1);
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(wrong.load(), 0);
  const BatchFormerStats stats = former.Stats();
  EXPECT_EQ(stats.staged, 16u);
  EXPECT_EQ(stats.invocations, 4u);  // == ceil(16 distinct / batch 4)
  EXPECT_EQ(stats.batched_items, 16u);
  EXPECT_EQ(stats.max_batch, 4u);
  EXPECT_EQ(stats.deadline_flushes, 0u);
  EXPECT_EQ(stats.pending, 0u);
}

// A single session staging one patch must not wait for a batch that
// never fills: its own deadline fires and it flushes itself.
TEST(BatchFormerTest, DeadlineFlushWithSingleSession) {
  BatchFormer former;
  former.Configure(BatchFormerConfig{64, /*wait_us=*/30000});
  BatchFormer::Item item;
  item.frame_h = 7;
  const auto start = steady_clock::now();
  auto outcome = former.Run("ocr@cpu", item, EchoFrameH());
  const double ms = ElapsedMs(start);
  EXPECT_EQ(PayloadOf(outcome), 7.0);
  // Waited for batch-mates (~30ms) but nowhere near a stall; the bound
  // is generous for loaded CI machines.
  EXPECT_LT(ms, 5000.0);
  const BatchFormerStats stats = former.Stats();
  EXPECT_EQ(stats.invocations, 1u);
  EXPECT_EQ(stats.deadline_flushes, 1u);
  EXPECT_EQ(stats.size_flushes, 0u);
  EXPECT_EQ(stats.max_batch, 1u);
}

// Drain() (teardown / reconfiguration) flushes staged patches instead of
// leaving their submitters to their (here: far-future) deadlines.
TEST(BatchFormerTest, DrainResolvesStagedPatches) {
  BatchFormer former;
  former.Configure(BatchFormerConfig{64, /*wait_us=*/10000000});
  std::atomic<int> wrong{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 3; ++t) {
    threads.emplace_back([&, t] {
      BatchFormer::Item item;
      item.frame_h = t;
      auto outcome = former.Run("depth@cpu", item, EchoFrameH());
      if (PayloadOf(outcome) != static_cast<double>(t)) wrong.fetch_add(1);
    });
  }
  const auto start = steady_clock::now();
  while (former.Stats().pending < 3 && ElapsedMs(start) < 5000.0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_EQ(former.Stats().pending, 3u);
  former.Drain();
  for (auto& th : threads) th.join();
  EXPECT_EQ(wrong.load(), 0);
  const BatchFormerStats stats = former.Stats();
  EXPECT_EQ(stats.pending, 0u);
  EXPECT_GE(stats.drain_flushes, 1u);
  EXPECT_EQ(stats.invocations, 1u);
  EXPECT_EQ(stats.max_batch, 3u);
}

// While one flush is running the model, more patches pile up past the
// threshold; the continuing flusher splits the oversized backlog into
// threshold-sized chunks, and the sub-threshold tail deadline-flushes.
TEST(BatchFormerTest, OversizedBacklogSplitsIntoChunks) {
  BatchFormer former;
  former.Configure(BatchFormerConfig{2, /*wait_us=*/300000});
  std::atomic<bool> first_started{false};
  std::atomic<bool> release{false};
  const BatchFormer::BatchFn blocking_fn =
      [&](const std::vector<const BatchFormer::Item*>& items) {
        if (!first_started.exchange(true)) {
          while (!release.load()) {
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
          }
        }
        std::vector<BatchFormer::ItemOutcome> out;
        out.reserve(items.size());
        for (const BatchFormer::Item* item : items) {
          out.emplace_back(InferenceValue{static_cast<double>(item->frame_h)});
        }
        return out;
      };
  std::atomic<int> wrong{0};
  auto submit = [&](int id) {
    BatchFormer::Item item;
    item.frame_h = id;
    auto outcome = former.Run("ocr@cpu", item, blocking_fn);
    if (PayloadOf(outcome) != static_cast<double>(id)) wrong.fetch_add(1);
  };
  std::vector<std::thread> threads;
  threads.emplace_back(submit, 0);
  threads.emplace_back(submit, 1);
  auto start = steady_clock::now();
  while (!first_started.load() && ElapsedMs(start) < 5000.0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_TRUE(first_started.load());
  // The first chunk (2 patches) is blocked inside the model; 5 more
  // patches stage behind it.
  for (int id = 2; id < 7; ++id) threads.emplace_back(submit, id);
  start = steady_clock::now();
  while (former.Stats().pending < 5 && ElapsedMs(start) < 5000.0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_EQ(former.Stats().pending, 5u);
  release.store(true);
  for (auto& th : threads) th.join();
  EXPECT_EQ(wrong.load(), 0);
  const BatchFormerStats stats = former.Stats();
  // 7 patches at threshold 2: chunks of 2+2+2, then the lone tail
  // deadline-flushes — never one oversized invocation.
  EXPECT_EQ(stats.invocations, 4u);
  EXPECT_EQ(stats.batched_items, 7u);
  EXPECT_EQ(stats.max_batch, 2u);
  EXPECT_EQ(stats.size_flushes, 3u);
  EXPECT_EQ(stats.deadline_flushes, 1u);
}

// One degenerate patch in a formed batch fails only its own caller.
TEST(BatchFormerTest, PerItemErrorFailsOnlyItsCaller) {
  BatchFormer former;
  former.Configure(BatchFormerConfig{2, /*wait_us=*/10000000});
  const BatchFormer::BatchFn fn =
      [](const std::vector<const BatchFormer::Item*>& items) {
        std::vector<BatchFormer::ItemOutcome> out;
        out.reserve(items.size());
        for (const BatchFormer::Item* item : items) {
          if (item->frame_h == 13) {
            out.emplace_back(
                Status::InvalidArgument("degenerate patch"));
          } else {
            out.emplace_back(
                InferenceValue{static_cast<double>(item->frame_h)});
          }
        }
        return out;
      };
  BatchFormer::ItemOutcome good = Status::Internal("unset");
  BatchFormer::ItemOutcome bad = Status::Internal("unset");
  std::thread t1([&] {
    BatchFormer::Item item;
    item.frame_h = 4;
    good = former.Run("depth@cpu", item, fn);
  });
  std::thread t2([&] {
    BatchFormer::Item item;
    item.frame_h = 13;
    bad = former.Run("depth@cpu", item, fn);
  });
  t1.join();
  t2.join();
  EXPECT_EQ(PayloadOf(good), 4.0);
  EXPECT_FALSE(bad.ok());
  EXPECT_TRUE(bad.status().IsInvalidArgument()) << bad.status().ToString();
}

// --- Integrated differential suite --------------------------------------

PatchCollection MakePanelView(uint64_t seed, int n) {
  Rng rng(seed);
  PatchCollection out;
  out.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    Image panel(64, 64, 3);
    for (auto& b : panel.bytes()) {
      b = static_cast<uint8_t>(10 + rng.NextU64Below(20));
    }
    if (rng.NextU64Below(100) < 60) {
      sim::DrawDigits(&panel, nn::BBox{4, 20, 60, 44},
                      std::to_string(100 + rng.NextU64Below(900)));
    }
    Patch p;
    p.set_id(static_cast<PatchId>(i + 1));
    p.set_ref(ImgRef{"panels", i, kInvalidPatchId});
    p.set_pixels(std::move(panel));
    p.set_bbox(nn::BBox{2, 2, 40, 30 + static_cast<int>(i % 17)});
    p.mutable_meta().Set(meta_keys::kFrameNo, int64_t{i});
    out.push_back(std::move(p));
  }
  return out;
}

std::vector<uint8_t> SerializePatches(const PatchCollection& patches) {
  ByteBuffer buf;
  buf.PutU64(patches.size());
  for (const Patch& p : patches) p.SerializeInto(&buf);
  return buf.data();
}

class BatchFormerDbTest : public ::testing::Test {
 protected:
  void SetUp() override {
    root_ = (std::filesystem::temp_directory_path() /
             ("dl_bformer_" + std::to_string(::getpid()) + "_" +
              ::testing::UnitTest::GetInstance()->current_test_info()->name()))
                .string();
    std::filesystem::remove_all(root_);
    auto db = Database::Open(root_);
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    db_ = std::move(*db);
    CacheConfig cache_config;
    cache_config.budget_bytes = 32 << 20;
    // LRU admission: TinyLFU's timing-dependent cold-miss denials would
    // make which patches re-stage nondeterministic.
    cache_config.admission = CacheAdmission::kLru;
    db_->ConfigureCaches(cache_config);
  }
  void TearDown() override {
    db_.reset();
    std::filesystem::remove_all(root_);
  }

  void EnableBatching(uint64_t batch_size, uint64_t wait_us) {
    ServingConfig config = db_->serving_config();
    config.device_batch_size = batch_size;
    config.batch_wait_us = wait_us;
    db_->ConfigureServing(config);
  }

  // One query of the randomized mix, built against `cache`.
  std::vector<uint8_t> RunOp(int op, InferenceCache* cache) {
    if (op % 2 == 0) {
      Query q(db_.get(), "panels");
      q.Where(Ne(OcrTextUdf(0, db_->ocr(), cache), Lit("")));
      auto r = q.Execute();
      EXPECT_TRUE(r.ok()) << r.status().ToString();
      return r.ok() ? SerializePatches(*r) : std::vector<uint8_t>{0xff};
    }
    Query q(db_.get(), "panels");
    q.Where(Lt(DepthUdf(0, db_->depth_model(), 480, cache), Lit(25.0)));
    auto r = q.Execute();
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    return r.ok() ? SerializePatches(*r) : std::vector<uint8_t>{0xff};
  }

  std::string root_;
  std::unique_ptr<Database> db_;
};

// Randomized differential suite: K concurrent sessions with the former
// enabled must produce byte-identical results to unbatched solo
// execution, and the former must actually have formed batches.
TEST_F(BatchFormerDbTest, ConcurrentBatchedByteIdenticalToUnbatched) {
  ASSERT_TRUE(db_->RegisterView("panels", MakePanelView(0xba7c4, 48)).ok());

  constexpr int kOps = 2;
  // Unbatched solo reference (the former is disabled by default).
  ASSERT_FALSE(db_->batch_former()->enabled());
  std::vector<std::vector<uint8_t>> reference(kOps);
  for (int op = 0; op < kOps; ++op) {
    reference[op] = RunOp(op, db_->TenantInferenceCache("ref"));
  }

  // Batching on. ConfigureServing retires tenant cache partitions, so
  // every session below starts cold and its misses stage into batches.
  constexpr int kWaitUs = 20000;
  EnableBatching(/*batch_size=*/4, kWaitUs);
  constexpr int kThreads = 4;
  for (int rep = 0; rep < 2; ++rep) {
    std::atomic<int> mismatches{0};
    std::atomic<int> failures{0};
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t, rep] {
        // Sessions scan rows in the same order, so two that start the
        // same op together ask for the same key at every step and share
        // one flight: nothing distinct is staged for a batch to form
        // from. Starting each session a few deadlines after the last
        // puts sessions on the same op at different rows, whose distinct
        // misses then stage side by side. With 4 sessions and 2 ops, two
        // of them always share their first op.
        std::this_thread::sleep_for(std::chrono::microseconds(3 * kWaitUs) *
                                    t);
        Session session = db_->CreateSession("tenant" + std::to_string(t));
        Rng rng(0xf04e5 + static_cast<uint64_t>(t) * 131 +
                static_cast<uint64_t>(rep));
        for (int i = 0; i < 3; ++i) {
          const int op = static_cast<int>(rng.NextU64Below(kOps));
          Status st = session.Run([&]() -> Status {
            if (RunOp(op, session.inference_cache()) != reference[op]) {
              mismatches.fetch_add(1);
            }
            return Status::OK();
          });
          if (!st.ok()) failures.fetch_add(1);
        }
      });
    }
    for (auto& th : threads) th.join();
    EXPECT_EQ(mismatches.load(), 0) << "rep " << rep;
    EXPECT_EQ(failures.load(), 0) << "rep " << rep;
  }
  const BatchFormerStats stats = db_->batch_former()->Stats();
  EXPECT_GT(stats.staged, 0u);
  EXPECT_GT(stats.invocations, 0u);
  EXPECT_EQ(stats.pending, 0u);
  // Amortization actually happened: fewer invocations than patches.
  EXPECT_LT(stats.invocations, stats.batched_items);
}

// Cascade audit rows (the deterministic 1-in-16 slice that runs the full
// model on would-be proxy skips) flow through Cached* into the former
// like any other row, and results stay byte-identical.
TEST_F(BatchFormerDbTest, CascadeAuditRowsJoinFormedBatches) {
  ASSERT_TRUE(db_->RegisterView("panels", MakePanelView(0xcA5c, 64)).ok());
  ASSERT_EQ(::setenv("DEEPLENS_CASCADE_THRESHOLD", "0.25", 1), 0);

  // Reference: cascade on, batching off.
  std::vector<uint8_t> reference = RunOp(0, db_->TenantInferenceCache("ref"));

  EnableBatching(/*batch_size=*/4, /*wait_us=*/20000);
  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 2; ++t) {
    threads.emplace_back([&, t] {
      Session session = db_->CreateSession("casc" + std::to_string(t));
      Status st = session.Run([&]() -> Status {
        if (RunOp(0, session.inference_cache()) != reference) {
          mismatches.fetch_add(1);
        }
        return Status::OK();
      });
      EXPECT_TRUE(st.ok()) << st.ToString();
    });
  }
  for (auto& th : threads) th.join();
  ::unsetenv("DEEPLENS_CASCADE_THRESHOLD");
  EXPECT_EQ(mismatches.load(), 0);
  const BatchFormerStats stats = db_->batch_former()->Stats();
  EXPECT_GT(stats.staged, 0u);
  EXPECT_GT(stats.invocations, 0u);
}

// Explain() surfaces the configured batch shape, the former's running
// totals, and (once profiled) the overhead/marginal decomposition.
TEST_F(BatchFormerDbTest, ExplainReportsDeviceBatching) {
  ASSERT_TRUE(db_->RegisterView("panels", MakePanelView(0xe4b1a, 24)).ok());
  EnableBatching(/*batch_size=*/4, /*wait_us=*/20000);
  CostModel::Global()->Clear();

  Session session = db_->CreateSession("explainer");
  Status st = session.Run([&]() -> Status {
    Query q(db_.get(), "panels");
    q.Where(Ne(OcrTextUdf(0, db_->ocr(), session.inference_cache()),
               Lit("")));
    auto r = q.Execute();
    return r.ok() ? Status::OK() : r.status();
  });
  ASSERT_TRUE(st.ok()) << st.ToString();

  Query q(db_.get(), "panels");
  q.Where(Ne(OcrTextUdf(0, db_->ocr(), session.inference_cache()), Lit("")));
  auto plan = session.Explain(q);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  EXPECT_TRUE(plan->device_batching.enabled);
  EXPECT_EQ(plan->device_batching.batch_size, 4u);
  EXPECT_GT(plan->device_batches_formed, 0u);
  EXPECT_GT(plan->device_batched_patches, 0u);
  EXPECT_NE(plan->description.find("device batching"), std::string::npos)
      << plan->description;
  // The execution above recorded real flushes, so the cost model has a
  // profile and the plan carries a non-trivial occupancy estimate.
  EXPECT_GT(plan->device_batching.mean_items, 0.0);
  auto est = CostModel::Global()->EstimateBatchCost(model_names::kOcr);
  ASSERT_TRUE(est.has_value());
  EXPECT_GE(est->amortized_speedup, 0.0);
}

}  // namespace
}  // namespace deeplens
