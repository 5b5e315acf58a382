#include "trace.h"

#include <cstdio>
#include <memory>
#include <mutex>
#include <vector>

#include "common/clock.h"

namespace perfbench {

using deeplens::NowNanos;

namespace {

struct SpanRecord {
  int layer = 0;
  int64_t parent = -1;  // index in the same thread's buffer
  uint64_t request = 0;
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;  // 0 while open
};

// Written only by its owning thread; read by Summarize/Dump after the
// traced work has been joined.
struct ThreadBuffer {
  uint32_t thread = 0;
  bool client = false;
  uint64_t request = 0;
  std::vector<SpanRecord> spans;
  std::vector<int64_t> open;  // stack of open span indices
};

std::atomic<bool> g_enabled{false};

std::mutex g_registry_mu;
// Guarded by g_registry_mu. shared_ptr: a buffer outlives its thread so
// pool workers' spans survive until the summary.
std::vector<std::shared_ptr<ThreadBuffer>> g_buffers;

ThreadBuffer* LocalBuffer() {
  thread_local std::shared_ptr<ThreadBuffer> local;
  if (!local) {
    local = std::make_shared<ThreadBuffer>();
    std::lock_guard<std::mutex> lock(g_registry_mu);
    local->thread = static_cast<uint32_t>(g_buffers.size());
    g_buffers.push_back(local);
  }
  return local.get();
}

int64_t OpenSpan(ThreadBuffer* buf, Layer layer, uint64_t start_ns) {
  SpanRecord rec;
  rec.layer = static_cast<int>(layer);
  rec.parent = buf->open.empty() ? -1 : buf->open.back();
  rec.request = buf->request;
  rec.start_ns = start_ns;
  buf->spans.push_back(rec);
  const int64_t index = static_cast<int64_t>(buf->spans.size()) - 1;
  buf->open.push_back(index);
  return index;
}

void CloseSpan(ThreadBuffer* buf, int64_t index, uint64_t end_ns) {
  buf->spans[static_cast<size_t>(index)].end_ns = end_ns;
  if (!buf->open.empty() && buf->open.back() == index) buf->open.pop_back();
}

}  // namespace

const char* LayerName(Layer layer) {
  switch (layer) {
    case Layer::kNnKernel: return "nn.kernel";
    case Layer::kEtl: return "etl";
    case Layer::kStoragePersist: return "storage.persist";
    case Layer::kIndexBuild: return "index.build";
    case Layer::kIndexLookup: return "index.lookup";
    case Layer::kLineage: return "lineage.backtrace";
    case Layer::kCorePlan: return "core.plan";
    case Layer::kExecScan: return "exec.scan";
    case Layer::kExecJoin: return "exec.join";
    case Layer::kExecDedup: return "exec.dedup";
    case Layer::kCoreAdmission: return "core.admission_wait";
    case Layer::kNumLayers: break;
  }
  return "?";
}

void Tracer::SetEnabled(bool on) {
  g_enabled.store(on, std::memory_order_relaxed);
}

bool Tracer::enabled() { return g_enabled.load(std::memory_order_relaxed); }

void Tracer::SetRequest(uint64_t request) { LocalBuffer()->request = request; }

void Tracer::MarkClientThread() { LocalBuffer()->client = true; }

void Tracer::RecordInterval(Layer layer, uint64_t start_ns, uint64_t end_ns) {
  if (!enabled()) return;
  ThreadBuffer* buf = LocalBuffer();
  CloseSpan(buf, OpenSpan(buf, layer, start_ns), end_ns);
}

Tracer::Summary Tracer::Summarize() {
  Summary out;
  std::lock_guard<std::mutex> lock(g_registry_mu);
  for (const auto& buf : g_buffers) {
    std::vector<uint64_t> child_ns(buf->spans.size(), 0);
    for (const SpanRecord& s : buf->spans) {
      if (s.parent >= 0 && s.end_ns != 0) {
        child_ns[static_cast<size_t>(s.parent)] += s.end_ns - s.start_ns;
      }
    }
    for (size_t i = 0; i < buf->spans.size(); ++i) {
      const SpanRecord& s = buf->spans[i];
      if (s.end_ns == 0) continue;
      const uint64_t dur = s.end_ns - s.start_ns;
      const uint64_t self = dur > child_ns[i] ? dur - child_ns[i] : 0;
      out.self_ms[s.layer] += static_cast<double>(self) / 1e6;
      out.total_ms[s.layer] += static_cast<double>(dur) / 1e6;
      ++out.span_count;
      if (buf->client && s.parent < 0) {
        out.client_covered_ms += static_cast<double>(dur) / 1e6;
      }
    }
  }
  return out;
}

bool Tracer::Dump(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "layer,thread,request,parent,start_ns,end_ns\n");
  std::lock_guard<std::mutex> lock(g_registry_mu);
  for (const auto& buf : g_buffers) {
    for (const SpanRecord& s : buf->spans) {
      std::fprintf(f, "%s,%u,%llu,%lld,%llu,%llu\n",
                   LayerName(static_cast<Layer>(s.layer)), buf->thread,
                   static_cast<unsigned long long>(s.request),
                   static_cast<long long>(s.parent),
                   static_cast<unsigned long long>(s.start_ns),
                   static_cast<unsigned long long>(s.end_ns));
    }
  }
  return std::fclose(f) == 0;
}

Span::Span(Layer layer) {
  if (!Tracer::enabled()) return;
  index_ = OpenSpan(LocalBuffer(), layer, NowNanos());
}

Span::~Span() {
  if (index_ >= 0) CloseSpan(LocalBuffer(), index_, NowNanos());
}

// --- TimingDevice -----------------------------------------------------------

// Times one forwarded kernel: a span plus the device's own counters.
class TimingDevice::Timed {
 public:
  explicit Timed(TimingDevice* dev)
      : dev_(dev), span_(Layer::kNnKernel), start_(NowNanos()) {}
  ~Timed() {
    dev_->kernel_nanos_.fetch_add(NowNanos() - start_,
                                  std::memory_order_relaxed);
    dev_->calls_.fetch_add(1, std::memory_order_relaxed);
  }

  Timed(const Timed&) = delete;
  Timed& operator=(const Timed&) = delete;

 private:
  TimingDevice* dev_;
  Span span_;
  uint64_t start_;
};

TimingDevice::TimingDevice()
    : inner_(deeplens::nn::GetDevice(deeplens::nn::DeviceKind::kCpuVector)) {}

void TimingDevice::Matmul(const float* a, const float* b, float* c, size_t m,
                          size_t k, size_t n) {
  matmul_flops_.fetch_add(2ull * m * k * n, std::memory_order_relaxed);
  Timed t(this);
  inner_->Matmul(a, b, c, m, k, n);
}

void TimingDevice::Relu(float* x, size_t n) {
  Timed t(this);
  inner_->Relu(x, n);
}

void TimingDevice::Add(const float* a, const float* b, float* out, size_t n) {
  Timed t(this);
  inner_->Add(a, b, out, n);
}

void TimingDevice::ScaleBias(const float* a, float scale, float bias,
                             float* out, size_t n) {
  Timed t(this);
  inner_->ScaleBias(a, scale, bias, out, n);
}

void TimingDevice::PairwiseL2Squared(const float* a, size_t na,
                                     const float* b, size_t nb, size_t dim,
                                     float* out) {
  Timed t(this);
  inner_->PairwiseL2Squared(a, na, b, nb, dim, out);
}

// CPU backends run the map serially on the caller; the kernels inside it
// are timed individually, so the map itself is not.
void TimingDevice::ParallelMap(size_t n, const std::function<void(size_t)>& fn,
                               size_t transfer_bytes) {
  inner_->ParallelMap(n, fn, transfer_bytes);
}

}  // namespace perfbench
