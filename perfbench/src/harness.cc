#include "harness.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <set>
#include <thread>

#include "common/bytes.h"
#include "common/clock.h"
#include "common/rng.h"
#include "core/planner.h"
#include "exec/aggregates.h"
#include "exec/joins.h"
#include "exec/operators.h"
#include "exec/scheduler.h"

namespace perfbench {

namespace fs = std::filesystem;
using namespace deeplens;  // NOLINT: the harness drives the whole API

namespace {

// The five views RunEtl registers.
constexpr const char* kViews[] = {"traffic_dets", "pc_images", "pc_text",
                                  "football_players", "football_jerseys"};

// Linear-interpolated percentile p in [0, 100] of `v`.
double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double rank = p / 100.0 * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(rank));
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (rank - static_cast<double>(lo));
}

// Bytes of the persisted view files under `root`.
uint64_t PersistedViewBytes(const std::string& root) {
  uint64_t bytes = 0;
  std::error_code ec;
  for (const auto& entry :
       fs::recursive_directory_iterator(root + "/views", ec)) {
    if (entry.is_regular_file(ec)) bytes += entry.file_size(ec);
  }
  return bytes;
}

}  // namespace

// --- Report -----------------------------------------------------------------

void Report::Fail(const std::string& what) {
  ++failed_;
  if (failures_.size() < 8) failures_.push_back(what);
}

bool Report::Check(const Status& st, const char* what) {
  if (st.ok()) return true;
  Fail(std::string(what) + ": " + st.ToString());
  return false;
}

void Report::Add(const std::string& name, double value,
                 const std::string& unit) {
  if (!std::isfinite(value)) {
    Fail("metric " + name + " is not finite");
    value = 0;
  }
  metrics_.push_back(Metric{name, value, unit});
}

void Report::Note(const std::string& key, const std::string& value) {
  notes_.emplace_back(key, value);
}

void Report::Print() const {
  for (const auto& [key, value] : notes_) {
    std::printf("note %s %s\n", key.c_str(), value.c_str());
  }
  for (const std::string& f : failures_) {
    std::printf("failure %s\n", f.c_str());
  }
  for (const Metric& m : metrics_) {
    std::printf("metric %s %.17g %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct() ? "true" : "false",
              static_cast<unsigned long long>(attempted_),
              static_cast<unsigned long long>(failed_));
  for (size_t i = 0; i < metrics_.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics_[i].name.c_str(),
                metrics_[i].value, metrics_[i].unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

// --- Statistics -------------------------------------------------------------

namespace {

double TailPercentile(size_t n) {
  if (n < 11) return 100;
  // Samples strictly above percentile p: about n·(1 − p/100).
  return std::min(95.0,
                  std::floor(100.0 * (1.0 - 10.0 / static_cast<double>(n))));
}

}  // namespace

void NoteTail(const std::string& name, const std::vector<double>& v,
              const std::string& samples, Report* report) {
  const double p = TailPercentile(v.size());
  std::string note = std::to_string(Percentile(v, p)) + " ms (p" +
                     std::to_string(static_cast<int>(p)) + " of " +
                     std::to_string(v.size()) + " " + samples;
  if (v.size() >= 11) {
    const double strict = 100.0 * (1.0 - 10.0 / static_cast<double>(v.size()));
    note += "; strict tail p" + std::to_string(strict) + " = " +
            std::to_string(Percentile(v, strict)) + " ms";
  }
  report->Note(name, note + ")");
}

double Median(std::vector<double> v) { return Percentile(std::move(v), 50); }

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB → MiB
}

// --- Corpus and pipeline ----------------------------------------------------

WorkloadConfig MakeConfig(uint64_t seed, double scale) {
  WorkloadConfig c;
  auto scaled = [scale](int base, int floor) {
    return std::max(floor, static_cast<int>(std::lround(base * scale)));
  };
  c.traffic.num_frames = scaled(c.traffic.num_frames, 24);
  c.football.frames_per_video = scaled(c.football.frames_per_video, 4);
  c.pc.num_images = scaled(c.pc.num_images, 40);
  c.pc.num_duplicates = scaled(c.pc.num_duplicates, 4);
  c.pc.num_text_images = scaled(c.pc.num_text_images, 8);
  Rng rng(seed);
  c.traffic.seed = rng.NextU64();
  c.football.seed = rng.NextU64();
  c.pc.seed = rng.NextU64();
  return c;
}

uint64_t CorpusFrames(const WorkloadConfig& c) {
  return static_cast<uint64_t>(c.traffic.num_frames) +
         static_cast<uint64_t>(c.football.num_videos) *
             static_cast<uint64_t>(c.football.frames_per_video) +
         static_cast<uint64_t>(c.pc.num_images);
}

// Keeps the renders observable so they are not optimized away.
volatile uint64_t g_render_sink = 0;

double RenderCorpusMillis(const BenchmarkWorkload& w) {
  Stopwatch timer;
  uint64_t sink = 0;
  for (int f = 0; f < w.traffic().num_frames(); ++f) {
    sink += w.traffic().FrameAt(f).width();
  }
  for (int v = 0; v < w.football().num_videos(); ++v) {
    for (int f = 0; f < w.football().frames_per_video(); ++f) {
      sink += w.football().FrameAt(v, f).width();
    }
  }
  // RunEtl reads the PC images twice: whole-image and OCR generators.
  for (int pass = 0; pass < 2; ++pass) {
    for (int i = 0; i < w.pc().num_images(); ++i) {
      sink += w.pc().ImageAt(i).width();
    }
  }
  g_render_sink = sink;
  return timer.ElapsedMillis();
}

Status RunPipeline(BenchmarkWorkload* w, TimingDevice* device,
                   PipelineTrace* trace) {
  Database* db = w->db();
  {
    const uint64_t kernel0 = device != nullptr ? device->kernel_nanos() : 0;
    Span span(Layer::kEtl);
    DL_RETURN_NOT_OK(w->RunEtl(device, &trace->etl));
    if (device != nullptr) {
      trace->etl_kernel_ms =
          static_cast<double>(device->kernel_nanos() - kernel0) / 1e6;
    }
  }
  {
    Span span(Layer::kStoragePersist);
    Stopwatch timer;
    for (const char* view : kViews) DL_RETURN_NOT_OK(db->PersistView(view));
    trace->persist_ms = timer.ElapsedMillis();
  }
  {
    Span span(Layer::kIndexBuild);
    DL_ASSIGN_OR_RETURN(trace->index_build_ms, w->BuildOptimizedIndexes());
  }
  trace->patches_out = 0;
  for (const char* view : kViews) {
    DL_ASSIGN_OR_RETURN(ViewCache * v, db->GetView(view));
    trace->patches_out += v->patches.size();
  }
  trace->view_bytes = PersistedViewBytes(db->root());
  return Status::OK();
}

uint64_t ViewDigest(Database* db) {
  uint64_t h = 1469598103934665603ull;  // FNV-1a
  ByteBuffer buf;
  for (const char* name : kViews) {
    auto view = db->GetView(name);
    if (!view.ok()) return 0;
    for (const Patch& p : (*view)->patches) {
      buf.Clear();
      p.SerializeInto(&buf);
      for (uint8_t byte : buf.data()) {
        h = (h ^ byte) * 1099511628211ull;
      }
    }
  }
  return h;
}

Result<std::unique_ptr<Database>> OpenColumnar(const std::string& root) {
  DL_ASSIGN_OR_RETURN(auto db, Database::Open(root));
  for (const char* view : kViews) {
    DL_RETURN_NOT_OK(db->AttachPersistedView(view));
  }
  return db;
}

// --- Queries ----------------------------------------------------------------

std::vector<ScanWindow> MakeScanWindows(const WorkloadConfig& config,
                                        uint64_t seed, size_t n) {
  const int64_t frames = config.traffic.num_frames;
  const int64_t width = std::max<int64_t>(1, frames / 20);
  Rng rng(seed ^ 0x5ca7ull);
  std::vector<ScanWindow> out;
  for (size_t i = 0; i < n; ++i) {
    out.push_back(ScanWindow{
        static_cast<int64_t>(rng.NextU64Below(
            static_cast<uint64_t>(frames - width + 1))),
        width});
  }
  return out;
}

namespace {

ExprPtr WindowPredicate(const ScanWindow& w) {
  return And(Ge(Attr(meta_keys::kFrameNo), Lit(w.lo)),
             Lt(Attr(meta_keys::kFrameNo), Lit(w.lo + w.width)));
}

}  // namespace

Result<uint64_t> RunScan(Database* db, const ScanWindow& window,
                         ScanStats* stats) {
  if (stats == nullptr) {
    Query query(db, "traffic_dets");
    query.Where(WindowPredicate(window));
    DL_ASSIGN_OR_RETURN(PatchCollection rows, query.Execute());
    return static_cast<uint64_t>(rows.size());
  }
  // Traced: the same scan through Planner::ExecuteScan, which is what
  // Query::Execute runs, so the post-execution columnar counters are
  // readable.
  DL_ASSIGN_OR_RETURN(ViewCache * view, db->GetView("traffic_dets"));
  PlanExplanation plan;
  PatchCollection rows;
  {
    Span span(Layer::kExecScan);
    DL_ASSIGN_OR_RETURN(rows, Planner::ExecuteScan(
                                  *view, WindowPredicate(window), &plan));
  }
  stats->chunks_read += plan.columnar.chunks_read;
  stats->chunks_pruned += plan.columnar.chunks_pruned;
  stats->consumer_waits += plan.columnar.consumer_waits;
  return static_cast<uint64_t>(rows.size());
}

namespace {

Result<PlanExplanation> TracedExplain(Query* query) {
  Span span(Layer::kCorePlan);
  return query->Explain();
}

Result<uint64_t> TracedQ1(BenchmarkWorkload* w, RoundStats* stats) {
  DL_ASSIGN_OR_RETURN(ViewCache * view, w->db()->GetView("pc_images"));
  ExprPtr order =
      Lt(Attr(0, meta_keys::kFrameNo), Attr(1, meta_keys::kFrameNo));
  auto left = MakeVectorSource(view->patches);
  auto right = MakeVectorSource(view->patches);
  SimilarityJoinOptions options;
  options.max_distance = w->config().q1_max_distance;
  JoinStats join;
  std::vector<PatchTuple> pairs;
  {
    Span span(Layer::kExecJoin);
    DL_ASSIGN_OR_RETURN(pairs, BallTreeSimilarityJoin(left.get(), right.get(),
                                                      options, order, &join));
  }
  stats->join_pairs_examined += join.pairs_examined;
  return static_cast<uint64_t>(pairs.size());
}

// q2, q4 and q5 plan through Query::Explain and execute through the
// Planner entry point their Query terminal calls, with the same predicate,
// so the post-execution candidate count is readable.
Result<uint64_t> TracedQ2(BenchmarkWorkload* w, RoundStats* stats) {
  ExprPtr predicate = Eq(Attr(meta_keys::kLabel), Lit("car"));
  Query query(w->db(), "traffic_dets");
  query.Where(predicate);
  DL_RETURN_NOT_OK(TracedExplain(&query).status());
  DL_ASSIGN_OR_RETURN(ViewCache * view, w->db()->GetView("traffic_dets"));
  PlanExplanation plan;
  uint64_t frames = 0;
  {
    Span span(Layer::kExecScan);
    DL_ASSIGN_OR_RETURN(frames, Planner::ExecuteScanCountDistinct(
                                    *view, meta_keys::kFrameNo, predicate,
                                    &plan));
  }
  stats->rows_examined += plan.candidates;
  stats->scan_results += frames;
  return frames;
}

Result<uint64_t> TracedQ3(BenchmarkWorkload* w) {
  Database* db = w->db();
  DL_ASSIGN_OR_RETURN(ViewCache * jerseys, db->GetView("football_jerseys"));
  DL_ASSIGN_OR_RETURN(ViewCache * players, db->GetView("football_players"));
  const std::string tracked =
      std::to_string(w->football().config().tracked_jersey);
  PatchCollection hits;
  for (const Patch& p : jerseys->patches) {
    auto text = p.meta().Get(meta_keys::kText).AsString();
    if (text.ok() && **text == tracked) hits.push_back(p);
  }
  auto it = players->hash_indexes.find(meta_keys::kPatchId);
  if (it == players->hash_indexes.end()) {
    return Status::InvalidArgument("q3 needs the pid hash index");
  }
  const HashIndex& by_pid = it->second;
  uint64_t trajectory = 0;
  for (const Patch& jersey : hits) {
    ImgRef root;
    std::vector<PatchId> frame_patches;
    {
      Span span(Layer::kLineage);
      DL_ASSIGN_OR_RETURN(root, db->lineage()->Backtrace(jersey.id()));
      db->lineage()->PatchesForFrame(root.dataset, root.frameno,
                                     &frame_patches);
    }
    for (PatchId pid : frame_patches) {
      std::vector<RowId> rows;
      {
        Span span(Layer::kIndexLookup);
        by_pid.Lookup(
            Slice(MetaValue(static_cast<int64_t>(pid)).ToIndexKey()), &rows);
      }
      for (RowId r : rows) {
        const Patch& player = players->patches[static_cast<size_t>(r)];
        auto label = player.meta().Get(meta_keys::kLabel).AsString();
        if (!label.ok() || **label != "player") continue;
        if (player.bbox().Iou(jersey.bbox()) > 0.0f ||
            player.bbox().ContainsPoint(jersey.bbox().CenterX(),
                                        jersey.bbox().CenterY())) {
          ++trajectory;
        }
      }
    }
  }
  return trajectory;
}

Result<uint64_t> TracedQ4(BenchmarkWorkload* w, TimingDevice* device,
                          RoundStats* stats) {
  ExprPtr predicate =
      And(Eq(Attr(meta_keys::kLabel), Lit("person")),
          Ge(Attr(meta_keys::kScore), Lit(w->config().q4_min_score)));
  Query query(w->db(), "traffic_dets");
  query.Where(predicate);
  DL_RETURN_NOT_OK(TracedExplain(&query).status());
  DL_ASSIGN_OR_RETURN(ViewCache * view, w->db()->GetView("traffic_dets"));
  PlanExplanation plan;
  PatchCollection persons;
  {
    Span span(Layer::kExecScan);
    DL_ASSIGN_OR_RETURN(persons,
                        Planner::ExecuteScan(*view, predicate, &plan));
  }
  stats->rows_examined += plan.candidates;
  stats->scan_results += persons.size();
  DedupOptions options;
  options.max_distance = w->config().q4_max_distance;
  options.strategy = DedupOptions::Strategy::kBallTree;
  options.device = device;
  auto source = MakeVectorSource(std::move(persons));
  Span span(Layer::kExecDedup);
  DL_ASSIGN_OR_RETURN(DedupResult dedup,
                      SimilarityDedup(source.get(), options));
  return dedup.num_clusters;
}

Result<uint64_t> TracedQ5(BenchmarkWorkload* w, RoundStats* stats) {
  ExprPtr predicate =
      Eq(Attr(meta_keys::kText), Lit(w->pc().config().target_string));
  Query query(w->db(), "pc_text");
  query.Where(predicate);
  DL_RETURN_NOT_OK(TracedExplain(&query).status());
  DL_ASSIGN_OR_RETURN(ViewCache * view, w->db()->GetView("pc_text"));
  PlanExplanation plan;
  std::optional<Patch> first;
  {
    Span span(Layer::kExecScan);
    DL_ASSIGN_OR_RETURN(first, Planner::ExecuteScanMinBy(
                                   *view, meta_keys::kFrameNo, predicate,
                                   &plan));
  }
  const uint64_t found = first.has_value() ? 1 : 0;
  stats->rows_examined += plan.candidates;
  stats->scan_results += found;
  return found;
}

Result<uint64_t> TracedQ6(BenchmarkWorkload* w, RoundStats* stats) {
  DL_ASSIGN_OR_RETURN(ViewCache * view, w->db()->GetView("traffic_dets"));
  ExprPtr persons =
      And(Eq(Attr(0, meta_keys::kLabel), Lit("person")),
          Eq(Attr(1, meta_keys::kLabel), Lit("person")));
  ExprPtr behind = Gt(Attr(0, meta_keys::kDepth),
                      Add(Attr(1, meta_keys::kDepth),
                          Lit(w->config().q6_depth_margin)));
  ExprPtr distinct =
      Ne(Attr(0, meta_keys::kPatchId), Attr(1, meta_keys::kPatchId));
  ExprPtr residual = And(And(persons, behind), distinct);
  auto left = MakeVectorSource(view->patches);
  auto right = MakeVectorSource(view->patches);
  JoinStats join;
  std::vector<PatchTuple> pairs;
  {
    Span span(Layer::kExecJoin);
    DL_ASSIGN_OR_RETURN(pairs,
                        HashEqualityJoin(left.get(), right.get(),
                                         meta_keys::kFrameNo, residual,
                                         &join));
  }
  stats->join_pairs_examined += join.pairs_examined;
  return static_cast<uint64_t>(pairs.size());
}

}  // namespace

Result<uint64_t> TracedQuery(BenchmarkWorkload* w, int q,
                             TimingDevice* device, RoundStats* stats) {
  switch (q) {
    case 1: return TracedQ1(w, stats);
    case 2: return TracedQ2(w, stats);
    case 3: return TracedQ3(w);
    case 4: return TracedQ4(w, device, stats);
    case 5: return TracedQ5(w, stats);
    case 6: return TracedQ6(w, stats);
    default: return Status::InvalidArgument("query number must be 1..6");
  }
}

// --- Counters and per-layer metrics ------------------------------------------

GlobalCounters GlobalCounters::Read() {
  GlobalCounters c;
  const Planner::PlanCacheStats plans = Planner::GetPlanCacheStats();
  c.plan_hits = plans.hits;
  c.plan_misses = plans.misses;
  c.morsel_tasks = MorselScheduler::Global().Stats().tasks;
  return c;
}

GlobalCounters GlobalCounters::operator-(const GlobalCounters& o) const {
  GlobalCounters c;
  c.plan_hits = plan_hits - o.plan_hits;
  c.plan_misses = plan_misses - o.plan_misses;
  c.morsel_tasks = morsel_tasks - o.morsel_tasks;
  return c;
}

GlobalCounters& GlobalCounters::operator+=(const GlobalCounters& o) {
  plan_hits += o.plan_hits;
  plan_misses += o.plan_misses;
  morsel_tasks += o.morsel_tasks;
  return *this;
}

namespace {

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

}  // namespace

void ReportLayers(const Options& o, LayerInputs* layers, Report* report) {
  layers->spans = Tracer::Summarize();
  const std::string dump = o.work_dir + "/spans-" + o.workload + ".csv";
  if (!Tracer::Dump(dump)) report->Note("trace.dump", "failed: " + dump);
  const LayerInputs& in = *layers;
  const Tracer::Summary& s = in.spans;
  auto self_ms = [&s](Layer l) { return s.self_ms[static_cast<int>(l)]; };
  const PipelineTrace& p = in.pipeline;
  const double kernel_ms = s.total_ms[static_cast<int>(Layer::kNnKernel)];

  report->Add("sim.render_ms", in.render_ms, "ms");
  report->Add("nn.kernel_ms", kernel_ms, "ms");
  report->Add("nn.kernel_calls",
              static_cast<double>(in.device->calls()), "count");
  report->Add("nn.matmul_gflop",
              static_cast<double>(in.device->matmul_flops()) / 1e9, "GFLOP");
  report->Add("nn.invocations", static_cast<double>(in.inflight_leaders),
              "count");
  report->Add("etl.traffic_ms", p.etl.traffic_ms, "ms");
  report->Add("etl.football_ms", p.etl.football_ms, "ms");
  report->Add("etl.pc_ms", p.etl.pc_ms, "ms");
  report->Add("etl.other_ms",
              std::max(0.0, p.etl.total() - in.render_ms - p.etl_kernel_ms),
              "ms");
  report->Add("etl.patches_out",
              Ratio(static_cast<double>(p.patches_out),
                    static_cast<double>(in.pipelines)),
              "count");
  report->Add("storage.persist_ms", p.persist_ms, "ms");
  report->Add("storage.bytes_per_patch",
              Ratio(static_cast<double>(p.view_bytes),
                    static_cast<double>(p.patches_out)),
              "B/patch");
  report->Add("storage.chunks_read",
              static_cast<double>(in.scans.chunks_read), "count");
  report->Add("storage.chunks_pruned",
              static_cast<double>(in.scans.chunks_pruned), "count");
  report->Add("storage.consumer_waits",
              static_cast<double>(in.scans.consumer_waits), "count");
  report->Add("index.build_ms", p.index_build_ms, "ms");
  report->Add("index.lookup_ms", self_ms(Layer::kIndexLookup), "ms");
  report->Add("lineage.backtrace_ms", self_ms(Layer::kLineage), "ms");
  report->Add("core.plan_ms", self_ms(Layer::kCorePlan), "ms");
  report->Add("core.plan_cache_hit_ratio",
              Ratio(static_cast<double>(in.globals.plan_hits),
                    static_cast<double>(in.globals.plan_hits +
                                        in.globals.plan_misses)),
              "ratio");
  report->Add("exec.scan_ms", self_ms(Layer::kExecScan), "ms");
  report->Add("exec.rows_examined_per_result",
              Ratio(static_cast<double>(in.rounds.rows_examined),
                    static_cast<double>(in.rounds.scan_results)),
              "ratio");
  report->Add("exec.join_ms", self_ms(Layer::kExecJoin), "ms");
  report->Add("exec.join_pairs_examined",
              static_cast<double>(in.rounds.join_pairs_examined), "count");
  report->Add("exec.dedup_ms", self_ms(Layer::kExecDedup), "ms");
  report->Add("core.admission_wait_ms", self_ms(Layer::kCoreAdmission), "ms");
  report->Add("core.rejected", static_cast<double>(in.admission_rejected),
              "count");
  report->Add("exec.scheduler_morsels",
              static_cast<double>(in.globals.morsel_tasks), "count");
  report->Add("cache.hit_ratio",
              Ratio(static_cast<double>(in.tenant_cache.hits),
                    static_cast<double>(in.tenant_cache.hits +
                                        in.tenant_cache.misses)),
              "ratio");
  report->Add("cache.inflight_joins", static_cast<double>(in.inflight_joins),
              "count");
  report->Add("cache.evictions",
              static_cast<double>(in.tenant_cache.evictions), "count");
  const double other_ms = in.client_wall_ms - s.client_covered_ms;
  report->Add("other_ms", std::max(0.0, other_ms), "ms");
  report->Add("trace.overhead_pct",
              100.0 * Ratio(in.traced_op_ms - in.untraced_op_ms,
                            in.untraced_op_ms),
              "%");
  report->Note("trace.client_wall_ms", std::to_string(in.client_wall_ms));
  report->Note("trace.coverage_pct",
               std::to_string(100.0 * Ratio(s.client_covered_ms,
                                            in.client_wall_ms)));
  report->Note("trace.spans", std::to_string(s.span_count));
  report->Note("trace.traced_op_ms", std::to_string(in.traced_op_ms));
  report->Note("trace.untraced_op_ms", std::to_string(in.untraced_op_ms));
}

// --- Environment ------------------------------------------------------------

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

void StampEnvironment(const Options& o, const WorkloadConfig& c,
                      Report* report) {
  report->Note("env.workload", o.workload);
  report->Note("env.seed", std::to_string(o.seed));
  report->Note("env.trace", o.trace ? "1" : "0");
  report->Note("env.seconds", std::to_string(o.seconds));
  report->Note("env.nproc",
               std::to_string(std::thread::hardware_concurrency()));
  report->Note("env.build_type", PERFBENCH_BUILD_TYPE);
#if defined(__clang__)
  report->Note("env.compiler", std::string("clang ") + __VERSION__);
#elif defined(__GNUC__)
  report->Note("env.compiler", std::string("gcc ") + __VERSION__);
#else
  report->Note("env.compiler", __VERSION__);
#endif
  report->Note("env.corpus_scale", std::to_string(o.scale));
  report->Note("env.corpus",
               "traffic=" + std::to_string(c.traffic.num_frames) +
                   " football=" + std::to_string(c.football.num_videos) +
                   "x" + std::to_string(c.football.frames_per_video) +
                   " pc=" + std::to_string(c.pc.num_images) +
                   " frames=" + std::to_string(CorpusFrames(c)));
  report->Note("env.cache_budget_mb",
               std::to_string(CacheConfig::FromEnv().budget_bytes >> 20));
  for (const char* knob :
       {"DEEPLENS_NUM_THREADS", "DEEPLENS_COLUMNAR_CHUNK_ROWS",
        "DEEPLENS_CACHE_MB", "DEEPLENS_CACHE_DIR"}) {
    const char* v = std::getenv(knob);
    report->Note(std::string("env.") + knob, v == nullptr ? "(default)" : v);
  }
}

Status ResetDir(const std::string& dir) {
  std::error_code ec;
  fs::remove_all(dir, ec);
  if (ec) return Status::IOError("cannot remove " + dir + ": " + ec.message());
  fs::create_directories(dir, ec);
  if (ec) return Status::IOError("cannot create " + dir + ": " + ec.message());
  return Status::OK();
}

// --- Rounds ------------------------------------------------------------------

Result<Reference> ComputeReference(BenchmarkWorkload* w,
                                   std::vector<ScanWindow> windows) {
  Reference ref;
  for (int q = 1; q <= 6; ++q) {
    DL_ASSIGN_OR_RETURN(QueryRun run, w->RunQuery(q, true));
    ref.queries[q] = AnswerOf(run);
  }
  // Independent plans are the oracle for the DL plans where they are
  // cheap: BL q3 and q4, and for q1 the all-pairs similarity join (BL
  // q1's nested loop materializes every pair, which would set the peak
  // memory; BL q6 alone costs seconds; q2 and q5 have one plan).
  for (int q : {3, 4}) {
    DL_ASSIGN_OR_RETURN(QueryRun baseline, w->RunQuery(q, false));
    if (!(AnswerOf(baseline) == ref.queries[q])) {
      return Status::Corruption("q" + std::to_string(q) +
                                ": DL plan answer differs from the BL plan");
    }
  }
  DL_ASSIGN_OR_RETURN(ViewCache * pc, w->db()->GetView("pc_images"));
  DL_ASSIGN_OR_RETURN(
      std::vector<PatchTuple> q1_pairs,
      AllPairsSimilarityJoin(
          pc->patches, pc->patches, w->config().q1_max_distance,
          nn::GetDevice(nn::DeviceKind::kCpuVector),
          Lt(Attr(0, meta_keys::kFrameNo), Attr(1, meta_keys::kFrameNo))));
  if (q1_pairs.size() != ref.queries[1].count) {
    return Status::Corruption("q1: DL plan answer differs from the "
                              "all-pairs similarity join");
  }
  for (const ScanWindow& window : windows) {
    DL_ASSIGN_OR_RETURN(uint64_t rows, RunScan(w->db(), window, nullptr));
    ref.scans.push_back(rows);
  }
  ref.windows = std::move(windows);
  return ref;
}

std::string DescribeReference(const Reference& ref) {
  std::string out;
  for (int q = 1; q <= 6; ++q) {
    const QueryAnswer& a = ref.queries[q];
    out += "q" + std::to_string(q) + "=" + std::to_string(a.count) + "/" +
           std::to_string(a.precision) + "/" + std::to_string(a.recall) + " ";
  }
  out += "scans=";
  for (uint64_t rows : ref.scans) out += std::to_string(rows) + ",";
  return out;
}

RoundTimes RunRound(BenchmarkWorkload* w, Database* columnar,
                    Session* resident_session, Session* columnar_session,
                    const Reference& ref, size_t window,
                    TimingDevice* device, LayerInputs* layers,
                    Report* report) {
  RoundTimes times;
  const bool traced = layers != nullptr;
  Stopwatch round;
  for (int q = 1; q <= 6; ++q) {
    report->Attempt();
    Stopwatch timer;
    if (traced) {
      auto count = RunAdmitted(*resident_session, [&]() {
        return TracedQuery(w, q, device, &layers->rounds);
      });
      times.q_ms[q] = timer.ElapsedMillis();
      if (!report->Check(count.status(), "traced query")) continue;
      if (*count != ref.queries[q].count) {
        report->Fail("q" + std::to_string(q) + " traced count " +
                     std::to_string(*count) + " != reference " +
                     std::to_string(ref.queries[q].count));
      }
    } else {
      auto run = RunAdmitted(*resident_session,
                             [&]() { return w->RunQuery(q, true); });
      times.q_ms[q] = timer.ElapsedMillis();
      if (!report->Check(run.status(), "query")) continue;
      if (!(AnswerOf(*run) == ref.queries[q])) {
        report->Fail("q" + std::to_string(q) +
                     " answer differs from the reference pass");
      }
    }
  }
  times.round_ms = round.ElapsedMillis();

  report->Attempt();
  const size_t k = window % ref.windows.size();
  Stopwatch timer;
  auto rows = RunAdmitted(*columnar_session, [&]() {
    return RunScan(columnar, ref.windows[k],
                   traced ? &layers->scans : nullptr);
  });
  times.scan_ms = timer.ElapsedMillis();
  if (report->Check(rows.status(), "columnar scan") && *rows != ref.scans[k]) {
    report->Fail("columnar scan returned " + std::to_string(*rows) +
                 " rows, resident view " + std::to_string(ref.scans[k]));
  }
  return times;
}

// --- Set-up -----------------------------------------------------------------

void LayerInputs::AddPipeline(const PipelineTrace& trace) {
  pipeline.etl.traffic_ms += trace.etl.traffic_ms;
  pipeline.etl.football_ms += trace.etl.football_ms;
  pipeline.etl.pc_ms += trace.etl.pc_ms;
  pipeline.etl_kernel_ms += trace.etl_kernel_ms;
  pipeline.persist_ms += trace.persist_ms;
  pipeline.index_build_ms += trace.index_build_ms;
  pipeline.patches_out += trace.patches_out;
  pipeline.view_bytes += trace.view_bytes;
  ++pipelines;
}

Result<Deployment> SetUp(const Options& o, const WorkloadConfig& config,
                         const std::string& root, TimingDevice* device,
                         LayerInputs* layers, std::vector<double>* setup_ms) {
  // Set-up takes seconds (it includes the ETL); three repetitions give
  // setup_s a median.
  constexpr int kSetupReps = 3;
  Deployment d;
  const int reps = o.trace ? 1 : kSetupReps;
  for (int rep = 0; rep < reps; ++rep) {
    d = Deployment();  // close the previous copy before wiping its root
    DL_RETURN_NOT_OK(ResetDir(root));
    PipelineTrace trace;
    Status st;
    const double ms = TimeOp(o.trace, layers, [&]() {
      st = [&]() -> Status {
        DL_ASSIGN_OR_RETURN(d.workload,
                            BenchmarkWorkload::Create(root, config));
        DL_RETURN_NOT_OK(RunPipeline(d.workload.get(),
                                     o.trace ? device : nullptr, &trace));
        DL_ASSIGN_OR_RETURN(d.columnar, OpenColumnar(root));
        return Status::OK();
      }();
    });
    DL_RETURN_NOT_OK(st);
    if (o.trace) {
      layers->AddPipeline(trace);
      const InflightStats inflight =
          d.workload->db()->inflight_table()->Stats();
      layers->inflight_leaders += inflight.leaders;
      layers->inflight_joins += inflight.joined;
      layers->render_ms += RenderCorpusMillis(*d.workload);
    } else {
      setup_ms->push_back(ms);
    }
  }
  return d;
}

}  // namespace perfbench
