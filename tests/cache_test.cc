// Tests for the cache subsystem: the sharded byte-budgeted LRU core,
// patch fingerprints, the validated env knobs, the inference and segment
// caches, cache-on vs cache-off differential correctness over randomized
// query workloads, and eviction under thread contention (the latter runs
// under ThreadSanitizer in CI).
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <filesystem>
#include <set>
#include <thread>
#include <vector>

#include "cache/cache_config.h"
#include "cache/frequency_sketch.h"
#include "cache/inference_cache.h"
#include "cache/inflight.h"
#include "cache/segment_cache.h"
#include "cache/sharded_lru.h"
#include "common/env.h"
#include "common/rng.h"
#include "core/database.h"
#include "core/query.h"
#include "exec/nn_udf.h"
#include "sim/scene.h"
#include "storage/video_store.h"

namespace deeplens {
namespace {

// --- ShardedLruCache core ------------------------------------------------

using StringCache = ShardedLruCache<std::string>;

void PutStr(StringCache* cache, const std::string& key,
            const std::string& value, size_t charge) {
  cache->Put(key, std::make_shared<const std::string>(value), charge);
}

TEST(ShardedLruCacheTest, PutGetRoundTrip) {
  StringCache cache(1 << 20, 4);
  EXPECT_TRUE(cache.enabled());
  EXPECT_EQ(cache.Get("k"), nullptr);
  PutStr(&cache, "k", "v", 10);
  auto hit = cache.Get("k");
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(*hit, "v");
  const CacheStats stats = cache.Stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.insertions, 1u);
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_GT(stats.bytes, 0u);
}

TEST(ShardedLruCacheTest, ReplaceSameKeyKeepsOneEntry) {
  StringCache cache(1 << 20, 1);
  PutStr(&cache, "k", "old", 10);
  PutStr(&cache, "k", "new", 10);
  EXPECT_EQ(cache.Stats().entries, 1u);
  EXPECT_EQ(*cache.Get("k"), "new");
}

TEST(ShardedLruCacheTest, EvictsLeastRecentlyUsed) {
  // One shard; each entry charges 36 + 1 (key) + 64 (overhead) = 101
  // bytes, so a 210-byte budget holds exactly two entries. Strict LRU
  // admission: under TinyLFU the one-shot candidate "c" would be denied.
  StringCache cache(210, 1, CacheAdmission::kLru);
  PutStr(&cache, "a", "va", 36);
  PutStr(&cache, "b", "vb", 36);
  ASSERT_NE(cache.Get("a"), nullptr);  // a becomes most-recent
  PutStr(&cache, "c", "vc", 36);       // evicts b, the LRU entry
  EXPECT_NE(cache.Get("a"), nullptr);
  EXPECT_EQ(cache.Get("b"), nullptr);
  EXPECT_NE(cache.Get("c"), nullptr);
  EXPECT_EQ(cache.Stats().evictions, 1u);
}

// --- TinyLFU admission ---------------------------------------------------

TEST(TinyLfuAdmissionTest, ColdCandidateCannotDisplaceHotVictim) {
  // Same two-entry geometry as EvictsLeastRecentlyUsed, TinyLFU policy.
  StringCache cache(210, 1);
  EXPECT_EQ(cache.admission(), CacheAdmission::kTinyLfu);
  PutStr(&cache, "a", "va", 36);
  PutStr(&cache, "b", "vb", 36);
  for (int i = 0; i < 4; ++i) {
    ASSERT_NE(cache.Get("a"), nullptr);  // both keys are demonstrably hot
    ASSERT_NE(cache.Get("b"), nullptr);
  }
  PutStr(&cache, "c", "vc", 36);  // one-shot candidate: frequency 1
  EXPECT_EQ(cache.Get("c"), nullptr);
  EXPECT_NE(cache.Get("a"), nullptr);
  EXPECT_NE(cache.Get("b"), nullptr);
  const CacheStats stats = cache.Stats();
  EXPECT_EQ(stats.evictions, 0u);
  EXPECT_GE(stats.admission_denied, 1u);
}

TEST(TinyLfuAdmissionTest, RepeatedlyRequestedCandidateEarnsAdmission) {
  StringCache cache(210, 1);
  PutStr(&cache, "a", "va", 36);
  PutStr(&cache, "b", "vb", 36);
  ASSERT_NE(cache.Get("a"), nullptr);  // "a" is hot; "b" stays cold
  ASSERT_NE(cache.Get("a"), nullptr);
  // A genuinely re-requested key accrues frequency through its misses
  // and eventually beats the cold victim at the LRU tail.
  for (int attempt = 0; attempt < 8 && cache.Get("c") == nullptr;
       ++attempt) {
    PutStr(&cache, "c", "vc", 36);
  }
  EXPECT_NE(cache.Get("c"), nullptr);
  EXPECT_NE(cache.Get("a"), nullptr);   // the hot key survived
  EXPECT_EQ(cache.Get("b"), nullptr);   // the cold one was displaced
  EXPECT_GT(cache.Stats().evictions, 0u);
}

TEST(TinyLfuAdmissionTest, ReplacingResidentKeyIsNeverDenied) {
  StringCache cache(210, 1);
  PutStr(&cache, "a", "va", 36);
  PutStr(&cache, "b", "vb", 36);
  PutStr(&cache, "a", "new", 36);  // refresh, not admission
  auto hit = cache.Get("a");
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(*hit, "new");
  EXPECT_EQ(cache.Stats().admission_denied, 0u);
}

TEST(TinyLfuAdmissionTest, ScanResistanceDifferential) {
  // The ISSUE-5 workload: a hot working set re-read every round,
  // interleaved with one-shot cold scan keys that would collectively
  // flush the cache. TinyLFU must keep the hot hit rate >= ~0.8; plain
  // LRU must show the flush.
  auto run = [](CacheAdmission admission) {
    StringCache cache(4 << 10, 1, admission);
    const int kHot = 24;            // ~24 * (64+5+64) > half the budget
    const int kColdPerRound = 96;   // each round's scan exceeds budget
    const int kRounds = 10;
    // Warm the hot set (two passes so frequencies accrue).
    for (int pass = 0; pass < 2; ++pass) {
      for (int k = 0; k < kHot; ++k) {
        const std::string key = "hot" + std::to_string(k);
        if (cache.Get(key) == nullptr) PutStr(&cache, key, "v", 64);
      }
    }
    uint64_t hot_lookups = 0, hot_hits = 0;
    int cold_seq = 0;
    for (int round = 0; round < kRounds; ++round) {
      for (int i = 0; i < kColdPerRound; ++i) {
        const std::string key = "cold" + std::to_string(cold_seq++);
        if (cache.Get(key) == nullptr) PutStr(&cache, key, "v", 64);
      }
      for (int k = 0; k < kHot; ++k) {
        const std::string key = "hot" + std::to_string(k);
        ++hot_lookups;
        if (cache.Get(key) != nullptr) {
          ++hot_hits;
        } else {
          PutStr(&cache, key, "v", 64);
        }
      }
    }
    return static_cast<double>(hot_hits) / static_cast<double>(hot_lookups);
  };
  const double tinylfu_rate = run(CacheAdmission::kTinyLfu);
  const double lru_rate = run(CacheAdmission::kLru);
  EXPECT_GE(tinylfu_rate, 0.8) << "scan traffic flushed the hot set";
  EXPECT_LT(lru_rate, 0.5) << "LRU unexpectedly scan-resistant";
  EXPECT_GT(tinylfu_rate, lru_rate);
}

TEST(FrequencySketchTest, EstimateTracksIncrementsAndSaturates) {
  FrequencySketch sketch(64);
  EXPECT_EQ(sketch.Estimate(0x1234), 0u);
  for (int i = 0; i < 3; ++i) sketch.Increment(0x1234);
  EXPECT_GE(sketch.Estimate(0x1234), 3u);  // count-min never undercounts
  for (int i = 0; i < 100; ++i) sketch.Increment(0x1234);
  EXPECT_EQ(sketch.Estimate(0x1234), 15u);  // 4-bit saturation
}

TEST(FrequencySketchTest, PeriodicHalvingAgesOutFormerlyHotKeys) {
  FrequencySketch sketch(16);  // clamped to 64 counters, period 640
  for (int i = 0; i < 20; ++i) sketch.Increment(0xfeed);
  const uint32_t before = sketch.Estimate(0xfeed);
  ASSERT_EQ(before, 15u);
  // A long run of other traffic crosses the sample period (repeatedly)
  // and halves the saturated counter toward zero.
  for (uint64_t h = 0; h < 2000; ++h) sketch.Increment(h * 2654435761u);
  EXPECT_GT(sketch.halvings(), 0u);
  EXPECT_LT(sketch.Estimate(0xfeed), before);
}

TEST(ShardedLruCacheTest, ByteBudgetHonored) {
  const size_t budget = 4096;
  const size_t shards = 4;
  // LRU: a one-shot insert storm must churn through (under TinyLFU it
  // would be admission-denied once the shards fill — covered below).
  StringCache cache(budget, shards, CacheAdmission::kLru);
  Rng rng(7);
  for (int i = 0; i < 500; ++i) {
    PutStr(&cache, "key" + std::to_string(i), std::string(100, 'x'), 100);
  }
  const CacheStats stats = cache.Stats();
  // Each shard stays within its slice; ceil-splitting adds at most one
  // byte of slack per shard.
  EXPECT_LE(stats.bytes, budget + shards);
  EXPECT_GT(stats.evictions, 0u);
  EXPECT_GT(stats.entries, 0u);
}

TEST(ShardedLruCacheTest, ByteBudgetHonoredUnderTinyLfu) {
  // The budget invariant holds under TinyLFU too, whatever mix of
  // admissions and denials the sketch produces.
  const size_t budget = 4096;
  const size_t shards = 4;
  StringCache cache(budget, shards);
  Rng rng(7);
  for (int i = 0; i < 500; ++i) {
    const std::string key = "key" + std::to_string(rng.NextU64Below(150));
    if (cache.Get(key) == nullptr) {
      PutStr(&cache, key, std::string(100, 'x'), 100);
    }
  }
  const CacheStats stats = cache.Stats();
  EXPECT_LE(stats.bytes, budget + shards);
  EXPECT_GT(stats.entries, 0u);
  EXPECT_GT(stats.insertions, 0u);
}

TEST(ShardedLruCacheTest, OversizedEntryRejected) {
  StringCache cache(256, 1);
  PutStr(&cache, "big", std::string(1000, 'x'), 1000);
  EXPECT_EQ(cache.Get("big"), nullptr);
  EXPECT_EQ(cache.Stats().rejected, 1u);
  EXPECT_EQ(cache.Stats().entries, 0u);
}

TEST(ShardedLruCacheTest, ZeroBudgetDisablesEverything) {
  StringCache cache(0, 8);
  EXPECT_FALSE(cache.enabled());
  PutStr(&cache, "k", "v", 10);
  EXPECT_EQ(cache.Get("k"), nullptr);
  const CacheStats stats = cache.Stats();
  EXPECT_EQ(stats.lookups(), 0u);
  EXPECT_EQ(stats.entries, 0u);
}

TEST(ShardedLruCacheTest, ClearDropsEntriesKeepsCounters) {
  StringCache cache(1 << 20, 2);
  PutStr(&cache, "k", "v", 10);
  ASSERT_NE(cache.Get("k"), nullptr);
  cache.Clear();
  EXPECT_EQ(cache.Get("k"), nullptr);
  const CacheStats stats = cache.Stats();
  EXPECT_EQ(stats.entries, 0u);
  EXPECT_EQ(stats.bytes, 0u);
  EXPECT_EQ(stats.hits, 1u);  // pre-clear counters survive
}

// --- Patch fingerprints --------------------------------------------------

Image SolidImage(int w, int h, uint8_t value) {
  Image img(w, h, 3);
  for (auto& b : img.bytes()) b = value;
  return img;
}

TEST(FingerprintTest, StableAcrossCopies) {
  Patch p;
  p.set_pixels(SolidImage(8, 6, 42));
  p.set_bbox(nn::BBox{1, 2, 9, 8});
  p.set_id(7);
  p.mutable_meta().Set("label", "car");
  const Patch copy = p;
  EXPECT_EQ(p.Fingerprint(), copy.Fingerprint());
}

TEST(FingerprintTest, IndependentOfIdAndMeta) {
  Patch a;
  a.set_pixels(SolidImage(8, 6, 42));
  a.set_bbox(nn::BBox{1, 2, 9, 8});
  Patch b = a;
  b.set_id(999);
  b.mutable_meta().Set("score", 0.5);
  b.set_features(Tensor::FromVector({1.0f, 2.0f}));
  // Annotations don't change what a model would see.
  EXPECT_EQ(a.Fingerprint(), b.Fingerprint());
}

TEST(FingerprintTest, SensitiveToPixelsGeometryAndBox) {
  Patch base;
  base.set_pixels(SolidImage(8, 6, 42));
  base.set_bbox(nn::BBox{1, 2, 9, 8});

  Patch pixel_change = base;
  Image img = SolidImage(8, 6, 42);
  img.At(3, 3, 1) = 43;
  pixel_change.set_pixels(std::move(img));
  EXPECT_NE(base.Fingerprint(), pixel_change.Fingerprint());

  Patch box_change = base;
  box_change.set_bbox(nn::BBox{1, 2, 9, 9});
  EXPECT_NE(base.Fingerprint(), box_change.Fingerprint());

  // Same byte content, different geometry (8x6 vs 6x8).
  Patch transposed = base;
  transposed.set_pixels(SolidImage(6, 8, 42));
  EXPECT_NE(base.Fingerprint(), transposed.Fingerprint());
}

TEST(FingerprintTest, CollisionSanityOverRandomPatches) {
  Rng rng(0xf1f2f3f4);
  std::set<uint64_t> seen;
  const int kPatches = 2000;
  for (int i = 0; i < kPatches; ++i) {
    Image img(8, 8, 3);
    for (auto& b : img.bytes()) {
      b = static_cast<uint8_t>(rng.NextU64Below(256));
    }
    Patch p;
    p.set_pixels(std::move(img));
    p.set_bbox(nn::BBox{0, 0, 8, 8});
    seen.insert(p.Fingerprint());
  }
  EXPECT_EQ(seen.size(), static_cast<size_t>(kPatches));
}

// --- Env knob validation -------------------------------------------------

class EnvGuard {
 public:
  explicit EnvGuard(const char* name) : name_(name) {
    const char* old = std::getenv(name);
    if (old != nullptr) saved_ = old;
    had_value_ = old != nullptr;
  }
  ~EnvGuard() {
    if (had_value_) {
      ::setenv(name_, saved_.c_str(), 1);
    } else {
      ::unsetenv(name_);
    }
  }
  void Set(const char* value) { ::setenv(name_, value, 1); }
  void Unset() { ::unsetenv(name_); }

 private:
  const char* name_;
  std::string saved_;
  bool had_value_ = false;
};

TEST(EnvKnobTest, ValidValueParses) {
  EnvGuard guard("DEEPLENS_TEST_KNOB");
  guard.Set("12");
  EXPECT_EQ(PositiveIntFromEnv("DEEPLENS_TEST_KNOB", 5), 12u);
}

TEST(EnvKnobTest, UnsetFallsBack) {
  EnvGuard guard("DEEPLENS_TEST_KNOB");
  guard.Unset();
  EXPECT_EQ(PositiveIntFromEnv("DEEPLENS_TEST_KNOB", 5), 5u);
}

TEST(EnvKnobTest, GarbageZeroNegativeAndOverflowRejected) {
  EnvGuard guard("DEEPLENS_TEST_KNOB");
  for (const char* bad :
       {"0", "-3", "abc", "12abc", "", " 4", "99999999999999999999999"}) {
    guard.Set(bad);
    EXPECT_EQ(PositiveIntFromEnv("DEEPLENS_TEST_KNOB", 5), 5u)
        << "value: '" << bad << "'";
  }
  guard.Set("10");
  EXPECT_EQ(PositiveIntFromEnv("DEEPLENS_TEST_KNOB", 5, /*max_value=*/8), 5u);
}

TEST(EnvKnobTest, PowerOfTwoKnobClampsAndRejectsLikeNumThreads) {
  // Same rejection matrix as the DEEPLENS_NUM_THREADS knob above: every
  // garbage spelling falls back, so a typo in DEEPLENS_JOIN_PARTITIONS
  // degrades to the partition-count heuristic instead of crashing or
  // silently doing something surprising.
  EnvGuard guard("DEEPLENS_TEST_KNOB");
  for (const char* bad :
       {"0", "-3", "abc", "12abc", "", " 4", "99999999999999999999999"}) {
    guard.Set(bad);
    EXPECT_EQ(PowerOfTwoFromEnv("DEEPLENS_TEST_KNOB", 5), 5u)
        << "value: '" << bad << "'";
  }

  // Exact powers of two pass through untouched.
  for (const char* good : {"1", "2", "64", "1024"}) {
    guard.Set(good);
    EXPECT_EQ(PowerOfTwoFromEnv("DEEPLENS_TEST_KNOB", 5),
              std::strtoull(good, nullptr, 10))
        << "value: '" << good << "'";
  }

  // Non-powers clamp DOWN to the nearest power of two (with a warning)
  // rather than being rejected — the operator asked for roughly that
  // much parallelism and should get it.
  guard.Set("6");
  EXPECT_EQ(PowerOfTwoFromEnv("DEEPLENS_TEST_KNOB", 5), 4u);
  guard.Set("1000");
  EXPECT_EQ(PowerOfTwoFromEnv("DEEPLENS_TEST_KNOB", 5), 512u);

  // Values above max_value are rejected by the underlying positive-int
  // parse before any clamping happens.
  guard.Set("4096");
  EXPECT_EQ(PowerOfTwoFromEnv("DEEPLENS_TEST_KNOB", 5, /*max_value=*/256),
            5u);

  // Unset → fallback verbatim, even when the fallback itself is not a
  // power of two (0-as-auto callers rely on this).
  guard.Unset();
  EXPECT_EQ(PowerOfTwoFromEnv("DEEPLENS_TEST_KNOB", 0), 0u);
  EXPECT_EQ(PowerOfTwoFromEnv("DEEPLENS_TEST_KNOB", 5), 5u);
}

TEST(EnvKnobTest, ZeroAllowedWhenOptedIn) {
  EnvGuard guard("DEEPLENS_TEST_KNOB");
  guard.Set("0");
  EXPECT_EQ(PositiveIntFromEnv("DEEPLENS_TEST_KNOB", 5, UINT64_MAX,
                               /*allow_zero=*/true),
            0u);
}

TEST(EnvKnobTest, CacheMbKnob) {
  EnvGuard guard("DEEPLENS_CACHE_MB");
  guard.Set("8");
  EXPECT_EQ(CacheConfig::FromEnv().budget_bytes, 8u << 20);
  guard.Set("0");  // explicit disable
  EXPECT_EQ(CacheConfig::FromEnv().budget_bytes, 0u);
  guard.Set("not-a-number");
  EXPECT_EQ(CacheConfig::FromEnv().budget_bytes,
            CacheConfig::kDefaultBudgetBytes);
  guard.Set("-4");
  EXPECT_EQ(CacheConfig::FromEnv().budget_bytes,
            CacheConfig::kDefaultBudgetBytes);
}

TEST(EnvKnobTest, ChoiceKnobMatchesCaseInsensitivelyAndRejectsGarbage) {
  EnvGuard guard("DEEPLENS_TEST_KNOB");
  guard.Unset();
  EXPECT_EQ(ChoiceFromEnv("DEEPLENS_TEST_KNOB", {"aa", "bb"}, "aa"), "aa");
  guard.Set("bb");
  EXPECT_EQ(ChoiceFromEnv("DEEPLENS_TEST_KNOB", {"aa", "bb"}, "aa"), "bb");
  guard.Set("BB");  // canonical lowercase spelling comes back
  EXPECT_EQ(ChoiceFromEnv("DEEPLENS_TEST_KNOB", {"aa", "bb"}, "aa"), "bb");
  for (const char* bad : {"", " ", "cc", "bb ", " bb", "b", "aabb"}) {
    guard.Set(bad);
    EXPECT_EQ(ChoiceFromEnv("DEEPLENS_TEST_KNOB", {"aa", "bb"}, "aa"), "aa")
        << "value: '" << bad << "'";
  }
}

TEST(EnvKnobTest, CacheAdmissionKnobMatrix) {
  EnvGuard guard("DEEPLENS_CACHE_ADMISSION");
  // Unset: scan-resistant admission is the default.
  guard.Unset();
  EXPECT_EQ(CacheConfig::FromEnv().admission, CacheAdmission::kTinyLfu);
  // The two valid spellings, case-insensitively.
  for (const char* v : {"lru", "LRU", "Lru"}) {
    guard.Set(v);
    EXPECT_EQ(CacheConfig::FromEnv().admission, CacheAdmission::kLru)
        << "value: '" << v << "'";
  }
  for (const char* v : {"tinylfu", "TinyLFU", "TINYLFU"}) {
    guard.Set(v);
    EXPECT_EQ(CacheConfig::FromEnv().admission, CacheAdmission::kTinyLfu)
        << "value: '" << v << "'";
  }
  // Garbage falls back to the default rather than silently picking LRU.
  for (const char* bad : {"", "  ", "fifo", "lru,tinylfu", "tiny-lfu", "1"}) {
    guard.Set(bad);
    EXPECT_EQ(CacheConfig::FromEnv().admission, CacheAdmission::kTinyLfu)
        << "value: '" << bad << "'";
  }
  // The parsed policy is what a cache built from the config runs.
  guard.Set("lru");
  StringCache from_env(1 << 10, 1, CacheConfig::FromEnv().admission);
  EXPECT_EQ(from_env.admission(), CacheAdmission::kLru);
}

// --- InferenceCache ------------------------------------------------------

TEST(InferenceCacheTest, TypedPayloadsRoundTrip) {
  InferenceCache cache(1 << 20, 2);
  cache.Put(InferenceCache::KeyFor("m1", 1), InferenceValue{std::string("7")});
  cache.Put(InferenceCache::KeyFor("m2", 1), InferenceValue{3.5});
  cache.Put(InferenceCache::KeyFor("m3", 1),
            InferenceValue{Tensor::FromVector({1.0f, 2.0f})});
  cache.Put(InferenceCache::KeyFor("m4", 1),
            InferenceValue{std::vector<nn::Detection>(2)});

  auto text = cache.Get(InferenceCache::KeyFor("m1", 1));
  ASSERT_NE(text, nullptr);
  EXPECT_EQ(std::get<std::string>(text->payload), "7");
  auto depth = cache.Get(InferenceCache::KeyFor("m2", 1));
  ASSERT_NE(depth, nullptr);
  EXPECT_EQ(std::get<double>(depth->payload), 3.5);
  auto tensor = cache.Get(InferenceCache::KeyFor("m3", 1));
  ASSERT_NE(tensor, nullptr);
  EXPECT_EQ(std::get<Tensor>(tensor->payload).size(), 2);
  auto dets = cache.Get(InferenceCache::KeyFor("m4", 1));
  ASSERT_NE(dets, nullptr);
  EXPECT_EQ(std::get<std::vector<nn::Detection>>(dets->payload).size(), 2u);
}

TEST(InferenceCacheTest, KeysSeparateModelsFingerprintsAndVariants) {
  std::set<std::string> keys = {
      InferenceCache::KeyFor("ocr", 1), InferenceCache::KeyFor("ocr", 2),
      InferenceCache::KeyFor("depth", 1),
      InferenceCache::KeyFor("depth", 1, 240),
      InferenceCache::KeyFor("depth", 1, 480)};
  EXPECT_EQ(keys.size(), 5u);
}

// The singleflight race: a caller misses the cache, the previous flight's
// leader Puts and erases its flight, and only then does the caller reach
// the table and lead a new flight. Its re-check must find the published
// value, so the model does not run again and no leader is counted.
TEST(InferenceCacheTest, NewFlightLeaderServesValuePublishedSinceItsMiss) {
  InferenceCache cache(1 << 20, 2, CacheAdmission::kLru);
  const std::string key = InferenceCache::KeyFor("tiny-ocr@cpu", 42);
  cache.Put(key, InferenceValue{std::string("published")});
  const uint64_t leaders = cache.inflight()->Stats().leaders;
  const uint64_t hits = cache.Stats().hits;

  bool ran = false;
  bool computed = false;
  auto text = CachedMiss<std::string>(
      &cache, key,
      [&]() -> Result<std::string> {
        ran = true;
        return std::string("recomputed");
      },
      &computed);
  ASSERT_TRUE(text.ok()) << text.status().ToString();
  EXPECT_EQ(*text, "published");
  EXPECT_FALSE(ran);
  EXPECT_FALSE(computed);
  EXPECT_EQ(cache.inflight()->Stats().leaders, leaders);
  EXPECT_EQ(cache.Stats().hits, hits + 1);

  // A published value of the wrong type is a miss: the leader evaluates,
  // counts as a leader, and overwrites it.
  const std::string depth_key = InferenceCache::KeyFor("tiny-depth@cpu", 42);
  cache.Put(depth_key, InferenceValue{std::string("not a depth")});
  auto depth = CachedMiss<double>(
      &cache, depth_key, [&]() -> Result<double> { return 12.5; }, &computed);
  ASSERT_TRUE(depth.ok()) << depth.status().ToString();
  EXPECT_EQ(*depth, 12.5);
  EXPECT_TRUE(computed);
  EXPECT_EQ(cache.inflight()->Stats().leaders, leaders + 1);
  auto stored = cache.Get(depth_key);
  ASSERT_NE(stored, nullptr);
  EXPECT_EQ(std::get<double>(stored->payload), 12.5);

  // A true miss: the re-check finds nothing and records no second miss
  // (the caller's own lookup already counted it), so hit rates and the
  // admission sketch see one access per evaluation.
  const uint64_t misses = cache.Stats().misses;
  auto fresh = CachedMiss<std::string>(
      &cache, InferenceCache::KeyFor("tiny-ocr@cpu", 43),
      [&]() -> Result<std::string> { return std::string("fresh"); });
  ASSERT_TRUE(fresh.ok()) << fresh.status().ToString();
  EXPECT_EQ(*fresh, "fresh");
  EXPECT_EQ(cache.Stats().misses, misses);
  EXPECT_EQ(cache.inflight()->Stats().leaders, leaders + 2);
}

// --- Video decode caching ------------------------------------------------

std::vector<Image> SyntheticFrames(int n, int w, int h) {
  Rng rng(0x5e6e7e8e);
  std::vector<Image> frames;
  frames.reserve(n);
  int x = 2, y = 2;
  for (int f = 0; f < n; ++f) {
    Image img(w, h, 3);
    for (int yy = 0; yy < h; ++yy) {
      for (int xx = 0; xx < w; ++xx) {
        img.At(xx, yy, 0) = static_cast<uint8_t>((xx * 5 + f) & 0xff);
        img.At(xx, yy, 1) = static_cast<uint8_t>((yy * 7) & 0xff);
        img.At(xx, yy, 2) = 30;
      }
    }
    // A small moving block gives P-frames real residuals.
    x = (x + 1 + static_cast<int>(rng.NextU64Below(2))) % (w - 4);
    y = (y + 1) % (h - 4);
    for (int dy = 0; dy < 4; ++dy) {
      for (int dx = 0; dx < 4; ++dx) {
        img.At(x + dx, y + dy, 0) = 255;
        img.At(x + dx, y + dy, 1) = 255;
      }
    }
    frames.push_back(std::move(img));
  }
  return frames;
}

class VideoCacheTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("dl_cache_test_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::string Path(const std::string& name) const {
    return (dir_ / name).string();
  }

  void WriteVideo(const std::string& path, const std::vector<Image>& frames,
                  VideoFormat format, int gop, int clip) {
    VideoStoreOptions options;
    options.format = format;
    options.gop_size = gop;
    options.clip_frames = clip;
    auto writer = CreateVideoWriter(path, options);
    ASSERT_TRUE(writer.ok()) << writer.status().ToString();
    for (const Image& f : frames) {
      ASSERT_TRUE((*writer)->AddFrame(f).ok());
    }
    ASSERT_TRUE((*writer)->Finish().ok());
  }

  std::filesystem::path dir_;
};

TEST_F(VideoCacheTest, EncodedReadsIdenticalWithAndWithoutCache) {
  const std::vector<Image> frames = SyntheticFrames(41, 32, 24);
  WriteVideo(Path("v"), frames, VideoFormat::kEncoded, /*gop=*/8,
             /*clip=*/8);

  SegmentCache cache(8 << 20, 2);
  auto cached = OpenVideo(Path("v"), &cache);
  auto plain = OpenVideo(Path("v"));
  ASSERT_TRUE(cached.ok() && plain.ok());

  Rng rng(17);
  for (int i = 0; i < 60; ++i) {
    const int f = static_cast<int>(rng.NextU64Below(frames.size()));
    auto a = (*cached)->ReadFrame(f);
    auto b = (*plain)->ReadFrame(f);
    ASSERT_TRUE(a.ok() && b.ok());
    ASSERT_TRUE(a->SameShape(*b));
    EXPECT_EQ(a->bytes(), b->bytes()) << "frame " << f;
  }
  EXPECT_GT(cache.Stats().hits, 0u);
  // One full pass warms every GOP (the random reads may have skipped
  // some); after that, reads are lookup-bound: no additional decodes.
  for (int f = 0; f < static_cast<int>(frames.size()); ++f) {
    ASSERT_TRUE((*cached)->ReadFrame(f).ok());
  }
  const uint64_t decoded_before = (*cached)->frames_decoded();
  for (int f = 0; f < static_cast<int>(frames.size()); ++f) {
    ASSERT_TRUE((*cached)->ReadFrame(f).ok());
  }
  EXPECT_EQ((*cached)->frames_decoded(), decoded_before);
}

TEST_F(VideoCacheTest, EncodedReadRangeIdenticalWithCache) {
  const std::vector<Image> frames = SyntheticFrames(30, 24, 16);
  WriteVideo(Path("v"), frames, VideoFormat::kEncoded, /*gop=*/7,
             /*clip=*/8);
  SegmentCache cache(8 << 20, 2);
  auto cached = OpenVideo(Path("v"), &cache);
  auto plain = OpenVideo(Path("v"));
  ASSERT_TRUE(cached.ok() && plain.ok());
  for (const auto [lo, hi] : {std::pair<int, int>{5, 17},
                              {0, 29},
                              {28, 29},
                              {12, 12}}) {
    std::vector<std::pair<int, std::vector<uint8_t>>> a, b;
    ASSERT_TRUE((*cached)
                    ->ReadRange(lo, hi,
                                [&](int f, const Image& img) {
                                  a.emplace_back(f, img.bytes());
                                  return true;
                                })
                    .ok());
    ASSERT_TRUE((*plain)
                    ->ReadRange(lo, hi,
                                [&](int f, const Image& img) {
                                  b.emplace_back(f, img.bytes());
                                  return true;
                                })
                    .ok());
    EXPECT_EQ(a, b);
  }
}

TEST_F(VideoCacheTest, SegmentedReadsIdenticalWithAndWithoutCache) {
  const std::vector<Image> frames = SyntheticFrames(37, 24, 16);
  WriteVideo(Path("v"), frames, VideoFormat::kSegmented, /*gop=*/8,
             /*clip=*/8);
  SegmentCache cache(8 << 20, 2);
  auto cached = OpenVideo(Path("v"), &cache);
  auto plain = OpenVideo(Path("v"));
  ASSERT_TRUE(cached.ok() && plain.ok());
  Rng rng(23);
  for (int i = 0; i < 50; ++i) {
    const int f = static_cast<int>(rng.NextU64Below(frames.size()));
    auto a = (*cached)->ReadFrame(f);
    auto b = (*plain)->ReadFrame(f);
    ASSERT_TRUE(a.ok() && b.ok());
    EXPECT_EQ(a->bytes(), b->bytes()) << "frame " << f;
  }
  const uint64_t decoded_before = (*cached)->frames_decoded();
  std::vector<int> seen;
  ASSERT_TRUE((*cached)
                  ->ReadRange(0, 36,
                              [&](int f, const Image&) {
                                seen.push_back(f);
                                return true;
                              })
                  .ok());
  EXPECT_EQ(seen.size(), 37u);
  EXPECT_EQ((*cached)->frames_decoded(), decoded_before);
}

TEST_F(VideoCacheTest, RewrittenFileDoesNotServeStaleFrames) {
  const std::vector<Image> frames_a = SyntheticFrames(16, 24, 16);
  WriteVideo(Path("v"), frames_a, VideoFormat::kEncoded, /*gop=*/4,
             /*clip=*/4);
  SegmentCache cache(8 << 20, 2);
  {
    auto reader = OpenVideo(Path("v"), &cache);
    ASSERT_TRUE(reader.ok());
    ASSERT_TRUE((*reader)->ReadFrame(9).ok());  // warms GOPs 0..2
  }
  // Same frame count, different content.
  std::vector<Image> frames_b = SyntheticFrames(16, 24, 16);
  for (Image& f : frames_b) {
    for (auto& b : f.bytes()) b = static_cast<uint8_t>(b ^ 0x55);
  }
  WriteVideo(Path("v"), frames_b, VideoFormat::kEncoded, /*gop=*/4,
             /*clip=*/4);
  auto reader = OpenVideo(Path("v"), &cache);
  auto plain = OpenVideo(Path("v"));
  ASSERT_TRUE(reader.ok() && plain.ok());
  auto a = (*reader)->ReadFrame(9);
  auto b = (*plain)->ReadFrame(9);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(a->bytes(), b->bytes());
}

// --- Differential: NN UDF queries, cache on vs off -----------------------

Image DigitPanel(int digit) {
  Image panel(30, 30, 3);
  for (auto& b : panel.bytes()) b = 25;
  sim::DrawDigits(&panel, nn::BBox{0, 0, 30, 30}, std::to_string(digit));
  return panel;
}

Image NoisePanel(Rng* rng) {
  Image panel(30, 30, 3);
  for (auto& b : panel.bytes()) {
    b = static_cast<uint8_t>(rng->NextU64Below(40));
  }
  return panel;
}

PatchCollection RandomPanelView(Rng* rng, int n) {
  PatchCollection patches;
  patches.reserve(n);
  for (int i = 0; i < n; ++i) {
    Patch p;
    p.set_id(static_cast<PatchId>(i + 1));
    p.set_ref(ImgRef{"panels", i, kInvalidPatchId});
    const bool digit = rng->NextU64Below(100) < 70;
    if (rng->NextU64Below(100) < 10) {
      // A few pixel-less patches: UDFs must treat them as null.
      p.set_bbox(nn::BBox{0, 0, 30, 30});
    } else if (digit) {
      p.set_pixels(DigitPanel(static_cast<int>(rng->NextU64Below(10))));
      p.set_bbox(nn::BBox{0, 0, 30, 30});
    } else {
      p.set_pixels(NoisePanel(rng));
      p.set_bbox(nn::BBox{0, 0, 30, 30});
    }
    p.mutable_meta().Set(meta_keys::kFrameNo, int64_t{i});
    p.mutable_meta().Set(meta_keys::kPatchId, static_cast<int64_t>(i + 1));
    patches.push_back(std::move(p));
  }
  return patches;
}

std::vector<uint8_t> SerializeAll(const PatchCollection& patches) {
  ByteBuffer buf;
  buf.PutU64(patches.size());
  for (const Patch& p : patches) p.SerializeInto(&buf);
  return buf.data();
}

class UdfDifferentialTest : public ::testing::Test {
 protected:
  void SetUp() override {
    root_ = (std::filesystem::temp_directory_path() /
             ("dl_cache_udf_" + std::to_string(::getpid()) + "_" +
              ::testing::UnitTest::GetInstance()->current_test_info()->name()))
                .string();
    std::filesystem::remove_all(root_);
    auto db = Database::Open(root_);
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    db_ = std::move(*db);
    CacheConfig config;
    config.budget_bytes = 16 << 20;
    db_->ConfigureCaches(config);
  }
  void TearDown() override {
    db_.reset();
    std::filesystem::remove_all(root_);
  }

  std::string root_;
  std::unique_ptr<Database> db_;
};

TEST_F(UdfDifferentialTest, OcrQueryByteIdenticalCacheOnVsOff) {
  Rng rng(0xd1f0);
  for (uint64_t seed : {1u, 2u, 3u}) {
    Rng view_rng(seed);
    ASSERT_TRUE(
        db_->RegisterView("panels", RandomPanelView(&view_rng, 40)).ok());
    const std::string target =
        std::to_string(rng.NextU64Below(10));

    Query cached_q(db_.get(), "panels");
    cached_q.Where(Eq(OcrTextUdf(0, db_->ocr(), db_->inference_cache()),
                      Lit(target)));
    auto cached_cold = cached_q.Execute();
    auto cached_warm = cached_q.Execute();

    Query plain_q(db_.get(), "panels");
    plain_q.Where(Eq(OcrTextUdf(0, db_->ocr()), Lit(target)));
    auto plain = plain_q.Execute();

    ASSERT_TRUE(cached_cold.ok() && cached_warm.ok() && plain.ok());
    EXPECT_EQ(SerializeAll(*cached_cold), SerializeAll(*plain));
    EXPECT_EQ(SerializeAll(*cached_warm), SerializeAll(*plain));
    // The warm run must actually have been served by the cache.
    EXPECT_GT(db_->inference_cache()->Stats().hits, 0u);
  }
}

TEST_F(UdfDifferentialTest, DepthAndCountAgreeCacheOnVsOff) {
  Rng view_rng(99);
  ASSERT_TRUE(
      db_->RegisterView("panels", RandomPanelView(&view_rng, 40)).ok());
  for (double threshold : {5.0, 20.0, 60.0}) {
    Query cached_q(db_.get(), "panels");
    cached_q.Where(Gt(DepthUdf(0, db_->depth_model(), 240,
                               db_->inference_cache()),
                      Lit(threshold)));
    Query plain_q(db_.get(), "panels");
    plain_q.Where(
        Gt(DepthUdf(0, db_->depth_model(), 240), Lit(threshold)));
    auto a = cached_q.Count();
    auto b = plain_q.Count();
    auto c = cached_q.Count();  // warm
    ASSERT_TRUE(a.ok() && b.ok() && c.ok());
    EXPECT_EQ(*a, *b);
    EXPECT_EQ(*c, *b);
  }
}

TEST_F(UdfDifferentialTest, ExplainReportsCacheInteraction) {
  Rng view_rng(5);
  ASSERT_TRUE(
      db_->RegisterView("panels", RandomPanelView(&view_rng, 8)).ok());

  Query cached_q(db_.get(), "panels");
  cached_q.Where(Eq(OcrTextUdf(0, db_->ocr(), db_->inference_cache()),
                    Lit("7")));
  auto plan = cached_q.Explain();
  ASSERT_TRUE(plan.ok());
  ASSERT_EQ(plan->udfs.size(), 1u);
  EXPECT_EQ(plan->udfs[0].model, model_names::kOcr);
  EXPECT_TRUE(plan->udfs[0].cached);
  EXPECT_TRUE(plan->uses_inference_cache);
  EXPECT_NE(plan->description.find("inference cache"), std::string::npos);

  Query plain_q(db_.get(), "panels");
  plain_q.Where(Eq(OcrTextUdf(0, db_->ocr()), Lit("7")));
  auto plain_plan = plain_q.Explain();
  ASSERT_TRUE(plain_plan.ok());
  EXPECT_FALSE(plain_plan->uses_inference_cache);
  EXPECT_NE(plain_plan->description.find("uncached"), std::string::npos);

  Query no_udf(db_.get(), "panels");
  no_udf.Where(Eq(Attr(meta_keys::kFrameNo), Lit(int64_t{3})));
  auto no_udf_plan = no_udf.Explain();
  ASSERT_TRUE(no_udf_plan.ok());
  EXPECT_TRUE(no_udf_plan->udfs.empty());
  EXPECT_FALSE(no_udf_plan->uses_inference_cache);
}

TEST_F(UdfDifferentialTest, EtlRerunIsServedByCacheAndIdentical) {
  // Two identical OCR transformer runs over the same pixels: the second
  // must be cache-served and produce identical annotations.
  Rng view_rng(1234);
  const PatchCollection panels = RandomPanelView(&view_rng, 30);

  auto run = [&]() -> PatchCollection {
    auto source = MakeVectorSource(panels);
    auto ocr = MakeOcrTransformer(std::move(source), db_->ocr(), nullptr,
                                  db_->inference_cache());
    auto out = CollectPatches(ocr.get());
    DL_CHECK_OK(out.status());
    return std::move(out).value();
  };
  const PatchCollection first = run();
  const CacheStats after_first = db_->inference_cache()->Stats();
  const PatchCollection second = run();
  const CacheStats after_second = db_->inference_cache()->Stats();

  EXPECT_EQ(SerializeAll(first), SerializeAll(second));
  EXPECT_GT(after_second.hits, after_first.hits);
  // No new inference happened on the second run.
  EXPECT_EQ(after_second.insertions, after_first.insertions);
}

// --- Eviction under contention (runs under TSan in CI) -------------------

TEST(CacheContentionTest, ConcurrentMixedWorkloadStaysConsistent) {
  // Budget small enough that the workload constantly evicts.
  const size_t budget = 16 << 10;
  StringCache cache(budget, 4);
  const int kThreads = 8;
  const int kOpsPerThread = 3000;

  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&cache, t] {
      Rng rng(static_cast<uint64_t>(t) * 7919 + 1);
      for (int i = 0; i < kOpsPerThread; ++i) {
        const int k = static_cast<int>(rng.NextU64Below(200));
        const std::string key = "key" + std::to_string(k);
        if (rng.NextU64Below(2) == 0) {
          PutStr(&cache, key, "value-of-" + std::to_string(k), 64);
        } else {
          auto hit = cache.Get(key);
          if (hit != nullptr) {
            // A hit must always round-trip the value for its key.
            EXPECT_EQ(*hit, "value-of-" + std::to_string(k));
          }
        }
      }
    });
  }
  for (auto& th : threads) th.join();

  const CacheStats stats = cache.Stats();
  EXPECT_LE(stats.bytes, budget + stats.shards);
  EXPECT_GT(stats.evictions, 0u);
  EXPECT_EQ(stats.lookups(), stats.hits + stats.misses);
  // Every resident entry still round-trips.
  for (int k = 0; k < 200; ++k) {
    auto hit = cache.Get("key" + std::to_string(k));
    if (hit != nullptr) {
      EXPECT_EQ(*hit, "value-of-" + std::to_string(k));
    }
  }
}

TEST(CacheContentionTest, ConcurrentInferenceCacheSharedByWorkers) {
  // Morsel-worker shape: many threads memoizing the same small key space
  // concurrently; every hit must carry the payload its key implies.
  InferenceCache cache(1 << 20, 8);
  const int kThreads = 8;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&cache, t] {
      Rng rng(static_cast<uint64_t>(t) + 42);
      for (int i = 0; i < 2000; ++i) {
        const uint64_t fp = rng.NextU64Below(64);
        const std::string key = InferenceCache::KeyFor("ocr", fp);
        if (auto hit = cache.Get(key)) {
          EXPECT_EQ(std::get<std::string>(hit->payload),
                    std::to_string(fp));
        } else {
          cache.Put(key, InferenceValue{std::to_string(fp)});
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  const CacheStats stats = cache.Stats();
  EXPECT_GT(stats.hits, 0u);
  EXPECT_LE(stats.entries, 64u);
}

// A standalone cache (no Database) dedups identical concurrent misses on
// its own: K threads racing the same panels run exactly one inference per
// panel, and every other evaluation joined a flight or hit the cache.
TEST(CacheContentionTest, StandaloneCacheRunsEachInferenceOnce) {
  constexpr int kPanels = 6;
  constexpr int kThreads = 8;
  InferenceCache cache(8 << 20, 2, CacheAdmission::kLru);
  nn::TinyOcr ocr;
  nn::Device* device = nn::GetDevice(nn::DeviceKind::kCpuVector);
  std::vector<Patch> panels;
  Rng rng(0x51f1);
  for (int i = 0; i < kPanels; ++i) {
    Image panel(64, 64, 3);
    for (auto& b : panel.bytes()) {
      b = static_cast<uint8_t>(10 + rng.NextU64Below(20));
    }
    sim::DrawDigits(&panel, nn::BBox{4, 20, 60, 44},
                    std::to_string(100 + i));
    Patch p;
    p.set_pixels(std::move(panel));
    p.set_bbox(nn::BBox{0, 0, 64, 64});
    panels.push_back(std::move(p));
  }

  std::atomic<int> ready{0};
  std::atomic<bool> go{false};
  std::atomic<int> failures{0};
  std::vector<std::atomic<int>> runs(kPanels);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      ready.fetch_add(1);
      while (!go.load()) std::this_thread::yield();
      for (int i = 0; i < kPanels; ++i) {
        const Patch& p = panels[static_cast<size_t>(i)];
        bool computed = false;
        auto text = CachedOcrText(ocr, p.pixels(), p.Fingerprint(), device,
                                  &cache, &computed);
        if (!text.ok()) failures.fetch_add(1);
        if (computed) runs[static_cast<size_t>(i)].fetch_add(1);
      }
    });
  }
  while (ready.load() < kThreads) std::this_thread::yield();
  go.store(true);
  for (auto& th : threads) th.join();
  ASSERT_EQ(failures.load(), 0);
  for (int i = 0; i < kPanels; ++i) {
    EXPECT_EQ(runs[static_cast<size_t>(i)].load(), 1) << "panel " << i;
  }
  const InflightStats inflight = cache.inflight()->Stats();
  EXPECT_EQ(inflight.leaders, static_cast<uint64_t>(kPanels));
  EXPECT_EQ(inflight.leaders + inflight.joined + cache.Stats().hits,
            static_cast<uint64_t>(kThreads) * kPanels);
}

}  // namespace
}  // namespace deeplens
