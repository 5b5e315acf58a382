#include "exec/batch_former.h"

#include <algorithm>
#include <utility>

namespace deeplens {

BatchFormerConfig BatchFormer::config() const {
  std::lock_guard<std::mutex> lk(mu_);
  return config_;
}

void BatchFormer::Configure(const BatchFormerConfig& config) {
  Drain();
  std::lock_guard<std::mutex> lk(mu_);
  config_ = config;
  batch_size_.store(config.batch_size, std::memory_order_relaxed);
}

BatchFormerStats BatchFormer::Stats() const {
  std::lock_guard<std::mutex> lk(mu_);
  BatchFormerStats stats;
  stats.staged = staged_total_;
  stats.invocations = invocations_;
  stats.batched_items = batched_items_;
  stats.size_flushes = size_flushes_;
  stats.deadline_flushes = deadline_flushes_;
  stats.drain_flushes = drain_flushes_;
  stats.max_batch = max_batch_;
  for (const auto& entry : queues_) {
    stats.pending += entry.second->pending.size();
  }
  return stats;
}

BatchFormer::ItemOutcome BatchFormer::Run(const std::string& queue_key,
                                          const Item& item,
                                          const BatchFn& batch_fn) {
  std::unique_lock<std::mutex> lk(mu_);
  std::unique_ptr<Queue>& slot = queues_[queue_key];
  if (slot == nullptr) slot = std::make_unique<Queue>();
  Queue* q = slot.get();
  if (!q->batch_fn) q->batch_fn = batch_fn;

  ++staged_total_;
  auto entry = std::make_shared<Staged>();
  entry->item = item;
  entry->deadline = Clock::now() + std::chrono::microseconds(config_.wait_us);
  std::future<ItemOutcome> future = entry->promise.get_future();
  q->pending.push_back(entry);
  const uint64_t batch = std::max<uint64_t>(1, config_.batch_size);

  while (!entry->claimed) {
    const bool due = !q->pending.empty() &&
                     q->pending.front()->deadline <= Clock::now();
    if (!q->flush_active && (q->pending.size() >= batch || due)) {
      FlushLoop(q, lk, /*drain=*/false);
      continue;
    }
    if (q->flush_active) {
      // Another submitter is flushing; it will either claim our entry or
      // finish and let us re-evaluate.
      q->cv.wait(lk, [&] { return entry->claimed || !q->flush_active; });
      continue;
    }
    // Quiet queue with spare capacity: sleep until our own deadline,
    // then self-flush. This is the no-stall guarantee — a staged patch
    // never outwaits its submitter's DEEPLENS_BATCH_WAIT_US.
    lk.unlock();
    if (future.wait_until(entry->deadline) == std::future_status::ready) {
      return future.get();
    }
    lk.lock();
  }
  // Claimed by a flusher: fulfillment is guaranteed, wait unbounded.
  lk.unlock();
  return future.get();
}

void BatchFormer::FlushLoop(Queue* q, std::unique_lock<std::mutex>& lk,
                            bool drain) {
  q->flush_active = true;
  const uint64_t batch = std::max<uint64_t>(1, config_.batch_size);
  while (!q->pending.empty()) {
    const bool size_due = q->pending.size() >= batch;
    const bool deadline_due = q->pending.front()->deadline <= Clock::now();
    if (!drain && !size_due && !deadline_due) break;
    // Oversized backlogs (e.g. staged while a previous flush held the
    // queue) split into threshold-sized chunks, one invocation each.
    const size_t n =
        std::min<size_t>(static_cast<size_t>(batch), q->pending.size());
    std::vector<std::shared_ptr<Staged>> chunk;
    chunk.reserve(n);
    for (size_t i = 0; i < n; ++i) {
      chunk.push_back(q->pending.front());
      chunk.back()->claimed = true;
      q->pending.pop_front();
    }
    if (drain) {
      ++drain_flushes_;
    } else if (size_due) {
      ++size_flushes_;
    } else {
      ++deadline_flushes_;
    }
    lk.unlock();

    std::vector<const Item*> items;
    items.reserve(chunk.size());
    for (const auto& e : chunk) items.push_back(&e->item);
    std::vector<ItemOutcome> outcomes = q->batch_fn(items);
    if (outcomes.size() != chunk.size()) {
      const Status bad = Status::Internal(
          "batch function returned " + std::to_string(outcomes.size()) +
          " outcomes for " + std::to_string(chunk.size()) + " items");
      outcomes.assign(chunk.size(), ItemOutcome(bad));
    }

    lk.lock();
    ++invocations_;
    batched_items_ += chunk.size();
    max_batch_ = std::max<uint64_t>(max_batch_, chunk.size());
    q->cv.notify_all();
    lk.unlock();
    for (size_t i = 0; i < chunk.size(); ++i) {
      chunk[i]->promise.set_value(std::move(outcomes[i]));
    }
    lk.lock();
  }
  q->flush_active = false;
  q->cv.notify_all();
}

void BatchFormer::Drain() {
  std::unique_lock<std::mutex> lk(mu_);
  // Snapshot queue pointers: queues_ may gain entries (and rehash) while
  // FlushLoop drops the lock, but the pointed-to Queues are stable and
  // never erased. A queue created after this snapshot has a live
  // submitter inside Run() driving its own flush.
  std::vector<Queue*> queues;
  queues.reserve(queues_.size());
  for (const auto& entry : queues_) queues.push_back(entry.second.get());
  for (Queue* q : queues) {
    for (;;) {
      if (q->flush_active) {
        q->cv.wait(lk, [&] { return !q->flush_active; });
        continue;  // re-check: new patches may have staged meanwhile
      }
      if (q->pending.empty()) break;
      FlushLoop(q, lk, /*drain=*/true);
    }
  }
}

}  // namespace deeplens
