// `ingest`: a fresh Database goes from empty to queryable — RunEtl with a
// cold inference cache, PersistView of the five views, then
// BuildOptimizedIndexes — in a closed loop on one client thread. This is
// the write path and the paper's dominant cost: NN inference and ETL do
// almost all the work, the query engine almost none.
#include "harness.h"

namespace perfbench {

using namespace deeplens;  // NOLINT

namespace {

// Opening a database and building the simulators takes a fraction of a
// millisecond, mostly file-system calls, so set-up is sampled many times
// for a steady median.
constexpr int kSetupReps = 201;
// Traced runs alternate untraced and traced passes, this many of each.
constexpr int kTracedPasses = 2;

}  // namespace

int RunIngest(const Options& o, Report* report) {
  const WorkloadConfig config = MakeConfig(o.seed, o.scale);
  StampEnvironment(o, config, report);
  const std::string root = o.work_dir + "/ingest";

  std::vector<double> setup_ms;
  auto create = [&]() -> Result<std::unique_ptr<BenchmarkWorkload>> {
    DL_RETURN_NOT_OK(ResetDir(root));
    Stopwatch timer;
    auto w = BenchmarkWorkload::Create(root, config);
    setup_ms.push_back(timer.ElapsedMillis());
    return w;
  };
  for (int i = 0; i < kSetupReps; ++i) {
    report->Attempt();
    if (!report->Check(create().status(), "open")) return 1;
  }

  Tracer::MarkClientThread();
  TimingDevice device;
  LayerInputs layers;
  layers.device = &device;
  std::vector<double> pass_ms;
  std::unique_ptr<BenchmarkWorkload> last;
  uint64_t first_digest = 0, first_rows = 0;
  double loop_ms = 0;
  Stopwatch run;
  for (int pass = 0;; ++pass) {
    if (o.trace ? pass >= 2 * kTracedPasses
                : pass > 0 && run.ElapsedSeconds() >= o.seconds) {
      break;
    }
    const bool traced = o.trace && pass % 2 == 1;
    report->Attempt();
    last.reset();  // its root is about to be wiped
    auto w = create();
    if (!report->Check(w.status(), "open")) continue;
    Database* db = (*w)->db();
    PipelineTrace trace;
    Tracer::SetRequest(static_cast<uint64_t>(pass));
    Status st;
    const double ms = TimeOp(traced, &layers, [&]() {
      st = RunPipeline(w->get(), traced ? &device : nullptr, &trace);
    });
    loop_ms += ms;
    if (!report->Check(st, "ingest pipeline")) continue;
    if (traced) {
      layers.AddPipeline(trace);
      const InflightStats inflight = db->inflight_table()->Stats();
      layers.inflight_leaders += inflight.leaders;
      layers.inflight_joins += inflight.joined;
      layers.traced_op_ms += ms;
      // Outside the pass: re-render the frames the ETL just read.
      layers.render_ms += RenderCorpusMillis(**w);
    } else {
      pass_ms.push_back(ms);
      layers.untraced_op_ms += ms;
    }
    // Every pass must build the same database.
    const uint64_t digest = ViewDigest(db);
    if (pass == 0) {
      first_digest = digest;
      first_rows = trace.patches_out;
    } else if (digest != first_digest || trace.patches_out != first_rows) {
      report->Fail("pass " + std::to_string(pass) +
                   " built different views than pass 0");
    }
    last = std::move(*w);
  }
  if (last == nullptr) return 1;

  // The last database must answer: q1–q6 against their reference pass and
  // a scan over the attached columnar views (traced on a traced run).
  report->Attempt();
  auto ref = ComputeReference(last.get(), MakeScanWindows(config, o.seed, 1));
  auto columnar = OpenColumnar(root);
  if (!report->Check(ref.status(), "reference pass") ||
      !report->Check(columnar.status(), "attach columnar views")) {
    return 1;
  }
  report->Note("reference", DescribeReference(*ref));
  Session resident_session = last->db()->CreateSession("ingest");
  Session columnar_session = (*columnar)->CreateSession("ingest");
  TimeOp(o.trace, &layers, [&]() {
    RunRound(last.get(), columnar->get(), &resident_session,
             &columnar_session, *ref, 0, &device,
             o.trace ? &layers : nullptr, report);
  });

  report->Note("ingest.view_digest", std::to_string(first_digest));
  report->Note("ingest.view_rows", std::to_string(first_rows));
  if (o.trace) {
    ReportLayers(o, &layers, report);
    return 0;
  }
  const double frames = static_cast<double>(CorpusFrames(config));
  report->Add("setup_s", Median(setup_ms) / 1e3, "s");
  report->Add("peak_rss_mb", PeakRssMb(), "MB");
  report->Add("throughput_per_s",
              frames * static_cast<double>(pass_ms.size()) / (loop_ms / 1e3),
              "1/s");
  report->Add("p50_ms", Median(pass_ms), "ms");
  report->Note("ingest_frames_per_s",
               std::to_string(frames * static_cast<double>(pass_ms.size()) /
                              (loop_ms / 1e3)) + " frames/s");
  NoteTail("pass_tail_ms", pass_ms, "passes", report);
  return 0;
}

}  // namespace perfbench
