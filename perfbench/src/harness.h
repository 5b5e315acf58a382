// Shared pieces of the three workloads: options, the result report, the
// seeded corpus, the ingest pipeline, the reference query pass and the
// traced (module-by-module) form of the q1–q6 round.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/clock.h"
#include "core/benchmark_queries.h"
#include "core/database.h"
#include "core/session.h"
#include "trace.h"

namespace perfbench {

using deeplens::Database;
using deeplens::Result;
using deeplens::Status;
using deeplens::bench::BenchmarkWorkload;
using deeplens::bench::EtlTimings;
using deeplens::bench::QueryRun;
using deeplens::bench::WorkloadConfig;

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Corpus size relative to the default WorkloadConfig (1 = 1080 frames).
  double scale = 1.0;
  /// Directory for database roots and the span dump.
  std::string work_dir = ".bench_build/work";
};

/// What a workload run reports: correctness, attempts/failures, metrics.
class Report {
 public:
  void Attempt() { ++attempted_; }
  /// Records one failed operation (a non-OK Status or an output
  /// mismatch); the run is then incorrect.
  void Fail(const std::string& what);
  /// Checks a Status; a non-OK one counts as a failed operation.
  bool Check(const Status& st, const char* what);

  void Add(const std::string& name, double value, const std::string& unit);
  /// An informational line printed before the result (not one of
  /// BENCHMARK.json's metrics).
  void Note(const std::string& key, const std::string& value);

  bool correct() const { return failed_ == 0; }

  /// Prints the notes, one "metric" line per metric, then the one-line
  /// JSON result as the last line of stdout.
  void Print() const;

 private:
  struct Metric {
    std::string name;
    double value = 0;
    std::string unit;
  };

  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  std::vector<std::string> failures_;  // first few, for the log
  std::vector<Metric> metrics_;
  std::vector<std::pair<std::string, std::string>> notes_;
};

// --- Statistics --------------------------------------------------------------

/// Notes `name` = the tail of the latencies `v`: p95 from 200 samples on,
/// the highest whole percentile with ten samples above it below that, the
/// maximum below 11 samples; with its percentile, the sample count
/// (`samples` names them) and the strict tail, the highest percentile
/// with ten samples above it. Tails are notes, not gated metrics: their
/// run-to-run spread on a shared VM exceeds the largest bound BENCHMARK.json
/// allows (0.25).
void NoteTail(const std::string& name, const std::vector<double>& v,
              const std::string& samples, Report* report);

/// Median; 0 for an empty vector.
double Median(std::vector<double> v);

/// Peak resident set size of this process, in MB.
double PeakRssMb();

// --- Corpus and pipeline -----------------------------------------------------

/// The default WorkloadConfig scaled by `scale`, with the three simulators'
/// seeds derived from `seed`.
WorkloadConfig MakeConfig(uint64_t seed, double scale);

/// Frames the ETL ingests for `config`.
uint64_t CorpusFrames(const WorkloadConfig& config);

/// Renders every frame the ETL reads (the sim layer measured from
/// outside: RunEtl renders the same frames internally).
double RenderCorpusMillis(const BenchmarkWorkload& w);

/// Per-layer quantities one pipeline build reports in a traced run.
struct PipelineTrace {
  EtlTimings etl;
  double etl_kernel_ms = 0;  // nn.kernel time inside RunEtl
  double persist_ms = 0;
  double index_build_ms = 0;  // summed IndexStats.build_millis
  uint64_t patches_out = 0;
  uint64_t view_bytes = 0;
};

/// A fresh database brought from empty to queryable: RunEtl (cold
/// inference cache), PersistView of the five views, then
/// BuildOptimizedIndexes. `device` is null on untraced runs.
Status RunPipeline(BenchmarkWorkload* w, TimingDevice* device,
                   PipelineTrace* trace);

/// Order-sensitive digest of every row of the five views (ids, lineage,
/// bbox, metadata, features, pixels).
uint64_t ViewDigest(Database* db);

/// A second Database on the same root with the five views attached as
/// disk-backed columnar views.
Result<std::unique_ptr<Database>> OpenColumnar(const std::string& root);

// --- Queries -------------------------------------------------------------

/// Result of one q1–q6 call, as compared against the reference pass.
struct QueryAnswer {
  uint64_t count = 0;
  double precision = -1;
  double recall = -1;
  bool operator==(const QueryAnswer& o) const {
    return count == o.count && precision == o.precision &&
           recall == o.recall;
  }
};

inline QueryAnswer AnswerOf(const QueryRun& run) {
  return QueryAnswer{run.result_count, run.precision, run.recall};
}

/// The selective range scan over the columnar traffic view:
/// frameno in [lo, lo + width).
struct ScanWindow {
  int64_t lo = 0;
  int64_t width = 0;
};

/// Seeded scan windows (about 5% of the traffic frames each).
std::vector<ScanWindow> MakeScanWindows(const WorkloadConfig& config,
                                        uint64_t seed, size_t n);

/// Row count of a scan window on `db`'s traffic_dets view. On a traced
/// run also reads the columnar counters into `stats`.
struct ScanStats {
  uint64_t chunks_read = 0;
  uint64_t chunks_pruned = 0;
  uint64_t consumer_waits = 0;
};
Result<uint64_t> RunScan(Database* db, const ScanWindow& window,
                         ScanStats* stats);

/// Counters the traced q1–q6 round accumulates.
struct RoundStats {
  uint64_t join_pairs_examined = 0;
  uint64_t rows_examined = 0;  // scan candidates (before residual)
  uint64_t scan_results = 0;
};

/// q1–q6 decomposed into the module calls benchmark_queries.cc makes
/// (same views, predicates, options), each wrapped in its layer's span.
/// Returns result counts only: precision/recall need simulation truth the
/// library keeps private, so the traced round is checked on counts.
Result<uint64_t> TracedQuery(BenchmarkWorkload* w, int q,
                             TimingDevice* device, RoundStats* stats);

/// Runs `fn` through `session` and, when tracing, records the time from
/// the Run call to the lambda's start as core.admission_wait.
template <typename Fn>
auto RunAdmitted(deeplens::Session& session, Fn&& fn) -> decltype(fn()) {
  const uint64_t called = deeplens::NowNanos();
  return session.Run([&]() {
    Tracer::RecordInterval(Layer::kCoreAdmission, called,
                           deeplens::NowNanos());
    return fn();
  });
}

/// Reference answers of one pipeline: q1–q6 via RunQuery(q, true) and
/// each scan window's row count on the resident (in-memory) view. The DL
/// answers of q3 and q4 must equal their BL plans', and q1's count the
/// all-pairs similarity join's (an error otherwise).
struct Reference {
  QueryAnswer queries[7];  // index 1..6
  std::vector<ScanWindow> windows;
  std::vector<uint64_t> scans;
};
Result<Reference> ComputeReference(BenchmarkWorkload* w,
                                   std::vector<ScanWindow> windows);

/// "q1=24/1/1 q2=..." — the reference answers as a note, so runs at one
/// seed (traced or not) can be compared.
std::string DescribeReference(const Reference& ref);

/// Snapshot of library-wide counters read around traced work.
struct GlobalCounters {
  uint64_t plan_hits = 0;
  uint64_t plan_misses = 0;
  uint64_t morsel_tasks = 0;
  static GlobalCounters Read();
  GlobalCounters operator-(const GlobalCounters& o) const;
  GlobalCounters& operator+=(const GlobalCounters& o);
};

/// What the per-layer metrics are computed from, summed over a run's
/// traced work.
struct LayerInputs {
  Tracer::Summary spans;
  PipelineTrace pipeline;       // summed over traced pipeline builds
  double render_ms = 0;         // summed corpus renders
  uint64_t pipelines = 0;
  TimingDevice* device = nullptr;
  RoundStats rounds;            // summed over traced q1–q6 rounds
  ScanStats scans;              // summed over traced columnar scans
  GlobalCounters globals;       // deltas over traced work
  double client_wall_ms = 0;    // client-thread wall time of traced work
  uint64_t admission_rejected = 0;
  deeplens::CacheStats tenant_cache;  // summed over traced tenants
  uint64_t inflight_joins = 0;
  uint64_t inflight_leaders = 0;
  double traced_op_ms = 0;      // traced ops, summed
  double untraced_op_ms = 0;    // the same ops untraced, summed

  /// Adds one traced pipeline build.
  void AddPipeline(const PipelineTrace& trace);
};

/// Ends a traced run: summarizes the spans into `layers`, adds every
/// per-layer metric and the trace coverage notes, and writes the spans to
/// `<work_dir>/spans-<workload>.csv`.
void ReportLayers(const Options& options, LayerInputs* layers,
                  Report* report);

/// Runs `fn` with tracing on when `traced` and returns its wall time in
/// ms. A traced call also adds that time to `layers->client_wall_ms` and
/// the library counters' deltas to `layers->globals`.
template <typename Fn>
double TimeOp(bool traced, LayerInputs* layers, Fn&& fn) {
  const GlobalCounters before = GlobalCounters::Read();
  Tracer::SetEnabled(traced);
  deeplens::Stopwatch timer;
  fn();
  const double ms = timer.ElapsedMillis();
  Tracer::SetEnabled(false);
  if (traced) {
    layers->client_wall_ms += ms;
    layers->globals += GlobalCounters::Read() - before;
  }
  return ms;
}

/// Latencies of one analyst round.
struct RoundTimes {
  double q_ms[7] = {};  // index 1..6
  double round_ms = 0;  // q1–q6
  double scan_ms = 0;
};

/// One analyst round through the two sessions: q1–q6 on the resident
/// database, then scan window `window` on the columnar one. Untraced
/// (layers == null): RunQuery, checked on count, precision and recall.
/// Traced: TracedQuery and the traced scan, checked on counts. Every
/// query is one attempted operation; errors and mismatches are failures.
RoundTimes RunRound(BenchmarkWorkload* w, Database* columnar,
                    deeplens::Session* resident_session,
                    deeplens::Session* columnar_session,
                    const Reference& ref, size_t window,
                    TimingDevice* device, LayerInputs* layers,
                    Report* report);


/// The set-up `analyst` and `serving` share: Open plus sim construction,
/// the ingest pipeline, and a second Database with the views attached as
/// columnar. Untraced, it runs three times from an empty root and appends
/// each time to `setup_ms`; traced, it runs once with
/// the timing device and adds its layers to `layers`.
struct Deployment {
  std::unique_ptr<BenchmarkWorkload> workload;
  std::unique_ptr<Database> columnar;
};
Result<Deployment> SetUp(const Options& options, const WorkloadConfig& config,
                         const std::string& root, TimingDevice* device,
                         LayerInputs* layers, std::vector<double>* setup_ms);

/// Records the environment stamp (nproc, build, compiler, corpus, cache
/// budget, seed) as notes.
void StampEnvironment(const Options& options, const WorkloadConfig& config,
                      Report* report);

/// Removes and recreates `dir`.
Status ResetDir(const std::string& dir);

// --- Workloads --------------------------------------------------------------

int RunIngest(const Options& options, Report* report);
int RunAnalyst(const Options& options, Report* report);
int RunServing(const Options& options, Report* report);

}  // namespace perfbench
