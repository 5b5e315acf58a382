// Singleflight table for in-flight NN inference: the inference cache
// dedups *completed* work, this dedups work that is still running. It is
// the only dedup on the inference miss path — every keyed miss of every
// InferenceCache goes through one (see InferenceCache::inflight()).
// Under multi-tenant serving, K concurrent queries touching the same
// (model, device, Patch::Fingerprint) used to all miss the cache (the
// first Put lands only after the first inference finishes) and run K
// inferences; now the first caller becomes the *leader* and runs the
// model, every concurrent duplicate *joins* the in-flight computation
// and blocks on its result, and late arrivals hit the cache (or, if they
// missed it just before the leader published, its re-check) —
// so a distinct piece of content costs exactly one inference no matter
// how many tenants ask at once.
//
// Keys are the inference-cache keys (model@device#fingerprint@variant,
// see InferenceCache::KeyFor), so what joins here is exactly what would
// have collided in the cache. Results are shared as
// shared_ptr<const InferenceValue>; a leader's error Status propagates
// to every joiner (all K queries fail identically, just as if each had
// run the failing inference itself).
//
// Deadlock-safety: joiners block on a shared_future while holding no
// locks, and the leader computes on its own thread without touching the
// pool, so a joined worker always unblocks once the leader's model call
// returns. Morsel workers may join; they never lead *and* wait on the
// same key.
#pragma once

#include <cstdint>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>

#include "cache/inference_cache.h"
#include "common/status.h"

namespace deeplens {

/// Counters for Explain() / the serving bench. `leaders` counts model
/// runs; `joined` is the dedup hit count: inferences that did NOT run
/// because an identical one was already in flight.
struct InflightStats {
  uint64_t leaders = 0;
  uint64_t joined = 0;
  uint64_t failures = 0;  // leader computations that returned an error
};

class InflightTable {
 public:
  using Outcome = Result<std::shared_ptr<const InferenceValue>>;
  using Lookup = std::function<std::shared_ptr<const InferenceValue>()>;
  using Compute = std::function<Result<InferenceValue>()>;

  /// Returns the value for `key`, running `compute` at most once across
  /// all concurrent callers. The first caller leads the flight: it
  /// re-checks the backing cache through `lookup` and runs `compute` on
  /// its own thread only if that misses too. Concurrent duplicates block
  /// until the leader finishes and share its value (or error).
  ///
  /// The re-check closes the window between a caller's own cache miss
  /// and its arrival here: a flight that resolved in between has already
  /// published, because `compute` must Put into the backing cache before
  /// it returns and the flight is erased only after that. Such a caller
  /// is a cache hit, not a leader, so `leaders` counts model runs only.
  Outcome Do(const std::string& key, const Lookup& lookup,
             const Compute& compute) {
    std::promise<Outcome> promise;
    std::shared_future<Outcome> joined_flight;
    {
      std::lock_guard<std::mutex> lock(mu_);
      auto it = inflight_.find(key);
      if (it != inflight_.end()) {
        ++joined_;
        joined_flight = it->second;
      } else {
        inflight_.emplace(key, promise.get_future().share());
      }
    }
    // Joiners wait outside the lock: the leader needs it to retire the
    // key before fulfilling the promise.
    if (joined_flight.valid()) return joined_flight.get();
    bool ran = false;
    Outcome outcome = [&]() -> Outcome {
      if (auto published = lookup()) return published;
      ran = true;
      auto computed = compute();
      if (!computed.ok()) return computed.status();
      return std::make_shared<const InferenceValue>(
          std::move(computed).value());
    }();
    {
      std::lock_guard<std::mutex> lock(mu_);
      inflight_.erase(key);
      if (ran) ++leaders_;
      if (!outcome.ok()) ++failures_;
    }
    // After the erase, new callers start a fresh flight (and find the
    // published value on re-check); everyone who joined this one wakes
    // here.
    promise.set_value(outcome);
    return outcome;
  }

  InflightStats Stats() const {
    std::lock_guard<std::mutex> lock(mu_);
    return InflightStats{leaders_, joined_, failures_};
  }

 private:
  mutable std::mutex mu_;
  std::unordered_map<std::string, std::shared_future<Outcome>> inflight_;
  uint64_t leaders_ = 0;
  uint64_t joined_ = 0;
  uint64_t failures_ = 0;
};

}  // namespace deeplens
