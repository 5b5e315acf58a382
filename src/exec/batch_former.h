// Cross-query device batch formation: continuous batching for NN UDFs.
//
// The cascade optimizer makes full-model invocations sparse and bursty,
// and the serving layer runs many sessions concurrently — exactly the
// shape where per-invocation device overhead dominates. The BatchFormer
// sits behind the `Cached*` UDF wrappers: distinct cache-miss patches
// from all concurrent sessions stage into a per-(model, device) queue and
// are flushed as ONE batched model invocation when either the size
// threshold (DEEPLENS_DEVICE_BATCH_SIZE) or the deadline
// (DEEPLENS_BATCH_WAIT_US) fires.
//
// There is no background flusher thread: the *submitters themselves*
// drive flushes. A staged patch's submitter sleeps at most until its own
// deadline and then flushes whatever is pending, so no query can stall
// past DEEPLENS_BATCH_WAIT_US waiting on a batch that never fills, and a
// draining database (`Drain()`) hands off nothing — it just flushes.
//
// The former only batches. Dedup is the singleflight table's job
// (cache/inflight.h): only a flight leader submits, so every staged patch
// has a key no other staged patch shares, and identical misses wait on
// the leader's flight rather than here. Publishing to the inference cache
// is the leader's job too, once `Run()` hands its outcome back.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "cache/inference_cache.h"

namespace deeplens {

struct BatchFormerConfig {
  /// Target patches per device invocation; 0 disables the former (every
  /// miss evaluates inline, the pre-batching behavior).
  uint64_t batch_size = 0;
  /// Longest a staged patch may wait for batch-mates before its
  /// submitter flushes the queue itself, in microseconds.
  uint64_t wait_us = 2000;
};

struct BatchFormerStats {
  uint64_t staged = 0;            // patches that entered a queue
  uint64_t invocations = 0;       // batched model invocations flushed
  uint64_t batched_items = 0;     // patches covered by those invocations
  uint64_t size_flushes = 0;      // flush chunks triggered by the threshold
  uint64_t deadline_flushes = 0;  // flush chunks triggered by a deadline
  uint64_t drain_flushes = 0;     // flush chunks triggered by Drain()
  uint64_t max_batch = 0;         // largest single invocation
  uint64_t pending = 0;           // snapshot of currently staged patches
};

class BatchFormer {
 public:
  /// One staged inference request. `pixels` must outlive the `Run()`
  /// call that submitted it — guaranteed because the submitting thread
  /// blocks inside `Run()` until its flight resolves.
  struct Item {
    const Image* pixels = nullptr;
    nn::BBox bbox;
    int frame_h = 0;
  };

  using ItemOutcome = Result<InferenceValue>;
  /// Evaluates a claimed chunk in one device invocation. Must return
  /// exactly one outcome per item, in item order; a per-item error fails
  /// only that item's caller (required for byte-identity of the other
  /// sessions' results).
  using BatchFn =
      std::function<std::vector<ItemOutcome>(const std::vector<const Item*>&)>;

  /// Cheap enough for the per-miss hot path.
  bool enabled() const { return batch_size() > 0; }
  uint64_t batch_size() const {
    return batch_size_.load(std::memory_order_relaxed);
  }

  BatchFormerConfig config() const;

  /// Drains staged patches under the old policy, then applies `config`.
  void Configure(const BatchFormerConfig& config);

  /// Stages `item` on the `queue_key` queue (one queue per model+device)
  /// and blocks until a flush resolves it.
  ItemOutcome Run(const std::string& queue_key, const Item& item,
                  const BatchFn& batch_fn);

  /// Flushes every staged patch (used at reconfiguration and teardown so
  /// no submitter is left waiting on a batch that will never fill).
  void Drain();

  BatchFormerStats Stats() const;

 private:
  using Clock = std::chrono::steady_clock;

  struct Staged {
    Item item;
    Clock::time_point deadline;
    bool claimed = false;  // a flusher owns it; fulfillment is guaranteed
    std::promise<ItemOutcome> promise;
  };

  // Queues live behind unique_ptr so their addresses survive map rehash
  // while the lock is dropped, and because condition_variable is not
  // movable.
  struct Queue {
    BatchFn batch_fn;  // taken from the first submitter
    std::deque<std::shared_ptr<Staged>> pending;
    bool flush_active = false;  // at most one flusher per queue
    std::condition_variable cv;
  };

  // Claims and runs front chunks of `q` until neither the size threshold
  // nor a front-of-queue deadline (nor `drain`) holds. Entered with `lk`
  // held and `q->flush_active` false; releases the lock around model
  // invocations and restores it before returning.
  void FlushLoop(Queue* q, std::unique_lock<std::mutex>& lk, bool drain);

  mutable std::mutex mu_;
  std::unordered_map<std::string, std::unique_ptr<Queue>> queues_;
  BatchFormerConfig config_;
  std::atomic<uint64_t> batch_size_{0};
  uint64_t staged_total_ = 0;
  uint64_t invocations_ = 0;
  uint64_t batched_items_ = 0;
  uint64_t size_flushes_ = 0;
  uint64_t deadline_flushes_ = 0;
  uint64_t drain_flushes_ = 0;
  uint64_t max_batch_ = 0;
};

}  // namespace deeplens
