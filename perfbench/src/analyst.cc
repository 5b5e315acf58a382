// `analyst`: after the shared set-up, one client thread repeats rounds of
// q1–q6 (DL plans, RunQuery(q, true)) through a named tenant Session,
// each round followed by a selective frame-range scan on a second
// Database that has the views attached as disk-backed columnar. This is
// the read path: planner, exec (joins, dedup, scans), index, lineage and
// columnar reads do the work; NN and ETL do none. BL plans stay out of
// the loop (BL q6 alone costs seconds per call; Fig. 5's bench covers the
// DL-vs-BL shape).
#include "harness.h"

namespace perfbench {

using namespace deeplens;  // NOLINT

namespace {

// Scan windows cycled through by the rounds.
constexpr size_t kScanWindows = 16;
// Traced runs alternate untraced and traced rounds, this many of each.
constexpr int kTracedRounds = 30;

}  // namespace

int RunAnalyst(const Options& o, Report* report) {
  const WorkloadConfig config = MakeConfig(o.seed, o.scale);
  StampEnvironment(o, config, report);
  const std::string root = o.work_dir + "/analyst";

  Tracer::MarkClientThread();
  TimingDevice device;
  LayerInputs layers;
  layers.device = &device;
  std::vector<double> setup_ms;
  report->Attempt();
  auto deployment = SetUp(o, config, root, &device, &layers, &setup_ms);
  if (!report->Check(deployment.status(), "set-up")) return 1;
  BenchmarkWorkload* w = deployment->workload.get();
  Database* columnar = deployment->columnar.get();

  // Untimed reference pass: every timed answer must equal it.
  report->Attempt();
  auto ref = ComputeReference(w, MakeScanWindows(config, o.seed, kScanWindows));
  if (!report->Check(ref.status(), "reference pass")) return 1;

  report->Note("reference", DescribeReference(*ref));
  Session resident_session = w->db()->CreateSession("analyst");
  Session columnar_session = columnar->CreateSession("analyst");
  std::vector<double> round_ms, scan_ms, q_ms[7];
  double loop_ms = 0;
  uint64_t queries = 0;
  Stopwatch run;
  for (size_t round = 0;; ++round) {
    if (o.trace ? round >= 2 * kTracedRounds
                : round > 0 && run.ElapsedSeconds() >= o.seconds) {
      break;
    }
    const bool traced = o.trace && round % 2 == 1;
    Tracer::SetRequest(round);
    RoundTimes t;
    const double ms = TimeOp(traced, &layers, [&]() {
      t = RunRound(w, columnar, &resident_session, &columnar_session, *ref,
                   round, &device, traced ? &layers : nullptr, report);
    });
    loop_ms += ms;
    queries += 7;
    if (traced) {
      layers.traced_op_ms += ms;
      continue;
    }
    layers.untraced_op_ms += ms;
    round_ms.push_back(t.round_ms);
    scan_ms.push_back(t.scan_ms);
    for (int q = 1; q <= 6; ++q) q_ms[q].push_back(t.q_ms[q]);
  }

  if (o.trace) {
    ReportLayers(o, &layers, report);
    return 0;
  }
  report->Add("setup_s", Median(setup_ms) / 1e3, "s");
  report->Add("peak_rss_mb", PeakRssMb(), "MB");
  report->Add("throughput_per_s",
              static_cast<double>(queries) / (loop_ms / 1e3), "1/s");
  report->Add("p50_ms", Median(round_ms), "ms");
  report->Note("query_round_p50_ms", std::to_string(Median(round_ms)) + " ms");
  NoteTail("query_round_tail_ms", round_ms, "rounds", report);
  for (int q : {1, 4, 6}) {
    report->Note("q" + std::to_string(q) + "_p50_ms",
                 std::to_string(Median(q_ms[q])) + " ms");
  }
  report->Note("scan_p50_ms", std::to_string(Median(scan_ms)) + " ms");
  return 0;
}

}  // namespace perfbench
