// Benchmark-side tracing: spans around calls into each DeepLens module's
// public functions, recorded from the harness only (the library itself
// carries no spans yet). Spans live in per-thread buffers in memory and
// are summarized (and optionally dumped) when the benchmark ends.
//
// A span records its layer, start, end, the span that was open on the
// same thread when it began (its parent) and the request id the thread
// was working on. A layer's self time is its duration minus the time its
// same-thread child spans cover. Work a call hands to pool workers (for
// example NN kernels inside a morsel-parallel UDF scan) is recorded on
// the worker thread as a root span, because the harness cannot carry the
// parent across the library's thread hand-off.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>

#include "nn/device.h"

namespace perfbench {

/// Named layers, after the library's modules. (The sim layer is timed
/// by re-rendering outside the traced work, so it has no span.)
enum class Layer : int {
  kNnKernel = 0,
  kEtl,
  kStoragePersist,
  kIndexBuild,
  kIndexLookup,
  kLineage,
  kCorePlan,
  kExecScan,
  kExecJoin,
  kExecDedup,
  kCoreAdmission,
  kNumLayers
};

constexpr int kNumLayers = static_cast<int>(Layer::kNumLayers);

/// Metric stem of a layer ("exec.join" → "exec.join_ms").
const char* LayerName(Layer layer);

/// Process-wide span recorder. Disabled by default: spans then cost one
/// relaxed atomic load.
class Tracer {
 public:
  static void SetEnabled(bool on);
  static bool enabled();

  /// Request id stamped on spans the calling thread opens from now on.
  static void SetRequest(uint64_t request);

  /// Records an already-finished interval as a child of the calling
  /// thread's open span (used for admission wait, whose start precedes
  /// the point where the harness regains control).
  static void RecordInterval(Layer layer, uint64_t start_ns,
                             uint64_t end_ns);

  struct Summary {
    double self_ms[kNumLayers] = {};
    double total_ms[kNumLayers] = {};
    /// Time covered by root spans on the threads that called
    /// MarkClientThread() — the client-side share of wall time that some
    /// named layer accounts for.
    double client_covered_ms = 0;
    uint64_t span_count = 0;
  };

  /// Marks the calling thread as a client thread (see Summary).
  static void MarkClientThread();

  /// Summarizes every span recorded so far. Call only while no traced
  /// work is in flight.
  static Summary Summarize();

  /// Writes every span as CSV (layer,thread,request,parent,start_ns,
  /// end_ns). Call only while no traced work is in flight.
  static bool Dump(const std::string& path);
};

/// RAII span; a no-op while tracing is disabled.
class Span {
 public:
  explicit Span(Layer layer);
  ~Span();

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  int64_t index_ = -1;
};

/// Forwards every kernel to the shared vectorized CPU device and times
/// it as an nn.kernel span. Reports kCpuVector, so device names, cache
/// keys and results are exactly those of the default device.
class TimingDevice : public deeplens::nn::Device {
 public:
  TimingDevice();

  deeplens::nn::DeviceKind kind() const override { return inner_->kind(); }

  void Matmul(const float* a, const float* b, float* c, size_t m, size_t k,
              size_t n) override;
  void Relu(float* x, size_t n) override;
  void Add(const float* a, const float* b, float* out, size_t n) override;
  void ScaleBias(const float* a, float scale, float bias, float* out,
                 size_t n) override;
  void PairwiseL2Squared(const float* a, size_t na, const float* b,
                         size_t nb, size_t dim, float* out) override;
  void ParallelMap(size_t n, const std::function<void(size_t)>& fn,
                   size_t transfer_bytes) override;

  uint64_t calls() const { return calls_.load(std::memory_order_relaxed); }
  /// Exact multiply-add FLOP count of every Matmul (2·m·k·n).
  uint64_t matmul_flops() const {
    return matmul_flops_.load(std::memory_order_relaxed);
  }
  uint64_t kernel_nanos() const {
    return kernel_nanos_.load(std::memory_order_relaxed);
  }

 private:
  class Timed;

  deeplens::nn::Device* inner_;
  std::atomic<uint64_t> calls_{0};
  std::atomic<uint64_t> matmul_flops_{0};
  std::atomic<uint64_t> kernel_nanos_{0};
};

}  // namespace perfbench
