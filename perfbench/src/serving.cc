// `serving`: after the shared set-up, up to nproc client threads (at most
// 4) each use a named tenant Session. UDF tenants issue Session::Run
// queries whose predicate runs OcrTextUdf over football players or
// DepthUdf over traffic persons, each over a frame window; a stated share
// of a tenant's windows repeat (cache hits in its partition) and the rest
// are first-seen. One lookup tenant issues short indexed metadata queries
// with no UDF while the UDF tenants load the pool. Admission, the
// fair-share scheduler, the inference cache, inflight dedup and per-patch
// NN run under contention here, and nowhere else.
//
// Work is done in passes. Each pass serves from a Database freshly opened
// on the set-up's root (the two views loaded from their persisted files,
// their indexes rebuilt), so every tenant starts from a cold partition —
// never the cache ETL warmed — and every pass does the same seeded work.
#include <algorithm>
#include <atomic>
#include <mutex>
#include <thread>

#include "common/rng.h"
#include "exec/nn_udf.h"
#include "harness.h"

namespace perfbench {

using namespace deeplens;  // NOLINT

namespace {

// Per UDF tenant and pass: 32 requests, exactly 8 of them (a quarter)
// repeats of the tenant's earlier windows, the rest first-seen. With
// most requests missing the cache, the median query is a miss rather than
// a coin flip between the hit and miss latencies.
constexpr int kRequestsPerTenant = 32;
constexpr int kRepeatsPerTenant = 8;
constexpr int kLookups = 64;
constexpr int kOcrWindowFrames = 8;  // a third of a football video
constexpr int kDepthWindowFrames = 15;
constexpr double kDepthLimitMeters = 20.0;
constexpr int kTracedPasses = 3;
constexpr uint64_t kLookupWeight = 4;

enum class Udf { kOcr, kDepth };

struct Window {
  int64_t lo = 0;
  int64_t hi = 0;
};

struct Request {
  Udf udf = Udf::kOcr;
  size_t window = 0;
};

struct Lookup {
  const char* label = "car";
  Window frames;
};

// A query's answer: row count and a digest of the sorted patch ids.
struct Answer {
  uint64_t rows = 0;
  uint64_t digest = 0;
  bool operator==(const Answer& o) const {
    return rows == o.rows && digest == o.digest;
  }
};

Answer AnswerOf(const PatchCollection& rows) {
  std::vector<PatchId> ids;
  for (const Patch& p : rows) ids.push_back(p.id());
  std::sort(ids.begin(), ids.end());
  uint64_t h = 1469598103934665603ull;
  for (PatchId id : ids) h = (h ^ id) * 1099511628211ull;
  return Answer{ids.size(), h};
}

// The frame windows UDF queries cover, per UDF, and the lookups.
struct Workset {
  std::vector<Window> windows[2];  // indexed by Udf
  std::vector<Lookup> lookups;
};

Workset MakeWorkset(const BenchmarkWorkload& w, uint64_t seed) {
  Workset ws;
  const int fpv = w.football().frames_per_video();
  for (int v = 0; v < w.football().num_videos(); ++v) {
    for (int f = 0; f < fpv; f += kOcrWindowFrames) {
      ws.windows[0].push_back(
          Window{BenchmarkWorkload::FootballFrameNo(v, f),
                 BenchmarkWorkload::FootballFrameNo(
                     v, std::min(fpv, f + kOcrWindowFrames))});
    }
  }
  const int frames = w.traffic().num_frames();
  for (int f = 0; f < frames; f += kDepthWindowFrames) {
    ws.windows[1].push_back(
        Window{f, std::min(frames, f + kDepthWindowFrames)});
  }
  Rng rng(seed * 104729 + 17);
  const char* labels[] = {"car", "person", "bicycle"};
  for (int j = 0; j < kLookups; ++j) {
    const int64_t lo =
        static_cast<int64_t>(rng.NextU64Below(static_cast<uint64_t>(frames)));
    ws.lookups.push_back(Lookup{labels[rng.NextU64Below(3)],
                                Window{lo, lo + 8}});
  }
  return ws;
}

// One pass's request list per UDF tenant, seeded by (seed, pass). Tenant 0
// runs OCR, tenant 1 depth, tenant 2 alternates. kRepeatsPerTenant seeded
// positions repeat one of the tenant's earlier windows of the same UDF;
// the others take first-seen windows (or repeat once a small corpus runs
// out of them). Adds the number of repeats to `repeats`.
std::vector<std::vector<Request>> MakeRequests(const Workset& ws,
                                               uint64_t seed, int pass,
                                               int udf_tenants,
                                               size_t* repeats) {
  std::vector<std::vector<Request>> tenants;
  for (int t = 0; t < udf_tenants; ++t) {
    Rng rng(seed * 7919 + static_cast<uint64_t>(pass) * 131 +
            static_cast<uint64_t>(t));
    auto shuffle = [&rng](std::vector<size_t>* v) {
      for (size_t i = v->size(); i > 1; --i) {
        std::swap((*v)[i - 1], (*v)[rng.NextU64Below(i)]);
      }
    };
    std::vector<size_t> fresh[2];
    for (int k = 0; k < 2; ++k) {
      for (size_t i = 0; i < ws.windows[k].size(); ++i) fresh[k].push_back(i);
      shuffle(&fresh[k]);
    }
    // Repeat positions: any but the first two (one per UDF must be seen).
    std::vector<size_t> positions;
    for (size_t j = 2; j < kRequestsPerTenant; ++j) positions.push_back(j);
    shuffle(&positions);
    std::vector<bool> is_repeat(kRequestsPerTenant, false);
    for (int r = 0; r < kRepeatsPerTenant; ++r) is_repeat[positions[r]] = true;

    std::vector<Request> seen[2], list;
    for (size_t j = 0; j < kRequestsPerTenant; ++j) {
      const Udf udf = t == 0   ? Udf::kOcr
                      : t == 1 ? Udf::kDepth
                               : static_cast<Udf>(j % 2);
      const int k = static_cast<int>(udf);
      if (!seen[k].empty() && (is_repeat[j] || fresh[k].empty())) {
        list.push_back(seen[k][rng.NextU64Below(seen[k].size())]);
        ++*repeats;
      } else {
        list.push_back(Request{udf, fresh[k].back()});
        fresh[k].pop_back();
        seen[k].push_back(list.back());
      }
    }
    tenants.push_back(std::move(list));
  }
  return tenants;
}

Result<Answer> RunUdfQuery(Database* db, int frame_height, const Workset& ws,
                           const Request& r, InferenceCache* cache,
                           nn::Device* device, bool traced) {
  const Window& win = ws.windows[static_cast<int>(r.udf)][r.window];
  ExprPtr frames = And(Ge(Attr(meta_keys::kFrameNo), Lit(win.lo)),
                       Lt(Attr(meta_keys::kFrameNo), Lit(win.hi)));
  std::unique_ptr<Query> query;
  if (r.udf == Udf::kOcr) {
    query = std::make_unique<Query>(db, "football_players");
    query->Where(frames);
    query->Where(Ne(OcrTextUdf(0, db->ocr(), cache, device), Lit("")));
  } else {
    query = std::make_unique<Query>(db, "traffic_dets");
    query->Where(Eq(Attr(meta_keys::kLabel), Lit("person")));
    query->Where(frames);
    query->Where(Lt(
        DepthUdf(0, db->depth_model(), frame_height, cache, device),
        Lit(kDepthLimitMeters)));
  }
  if (traced) {
    Span span(Layer::kCorePlan);
    DL_RETURN_NOT_OK(query->Explain().status());
  }
  Span span(Layer::kExecScan);
  DL_ASSIGN_OR_RETURN(PatchCollection rows, query->Execute());
  return AnswerOf(rows);
}

Result<uint64_t> RunLookup(Database* db, const Lookup& l, bool traced) {
  Query query(db, "traffic_dets");
  query.Where(Eq(Attr(meta_keys::kLabel), Lit(l.label)));
  query.Where(And(Ge(Attr(meta_keys::kFrameNo), Lit(l.frames.lo)),
                  Lt(Attr(meta_keys::kFrameNo), Lit(l.frames.hi))));
  if (traced) {
    Span span(Layer::kCorePlan);
    DL_RETURN_NOT_OK(query.Explain().status());
  }
  Span span(Layer::kExecScan);
  return query.Count();
}

std::string UdfTenant(int t) { return "udf" + std::to_string(t); }

// A serving instance on the set-up's root: the two views the tenants
// query, loaded resident from their persisted files, with the indexes
// the lookups and frame windows use.
Result<std::unique_ptr<Database>> OpenServing(const std::string& root,
                                              const ServingConfig& config) {
  DL_ASSIGN_OR_RETURN(auto db, Database::Open(root));
  for (const char* view : {"traffic_dets", "football_players"}) {
    DL_RETURN_NOT_OK(db->LoadPersistedView(view));
    DL_RETURN_NOT_OK(
        db->BuildIndex(view, IndexKind::kBPlusTree, meta_keys::kFrameNo)
            .status());
  }
  DL_RETURN_NOT_OK(
      db->BuildIndex("traffic_dets", IndexKind::kHash, meta_keys::kLabel)
          .status());
  db->ConfigureServing(config);
  return db;
}

// Per-thread results of one pass.
struct ThreadLog {
  std::vector<double> latency_ms;
  uint64_t attempted = 0;
  std::vector<std::string> failures;
  double wall_ms = 0;
};

// What the client threads of one pass share.
struct Pass {
  Database* db = nullptr;
  const Workset* ws = nullptr;
  std::vector<std::vector<Request>> requests;  // per UDF tenant
  const std::vector<Answer>* udf_ref = nullptr;  // [2], per window
  const std::vector<uint64_t>* lookup_ref = nullptr;
  int frame_h = 0;
  int udf_tenants = 0;
  nn::Device* udf_device = nullptr;  // the timing device when traced
  bool traced = false;
  std::atomic<int> udf_running{0};
  std::atomic<bool> go{false};
};

// Client thread `t` of a pass: UDF tenant t, or the lookup tenant when
// t == udf_tenants, which loops over its lookups until every UDF tenant
// has finished.
void RunClient(Pass* pass, int t, ThreadLog* log) {
  Database* db = pass->db;
  const bool lookup = t == pass->udf_tenants;
  Session session = db->CreateSession(lookup ? "lookup" : UdfTenant(t));
  while (!pass->go.load()) std::this_thread::yield();
  Stopwatch wall;
  if (lookup) {
    const std::vector<Lookup>& lookups = pass->ws->lookups;
    for (size_t j = 0; pass->udf_running.load() > 0; ++j) {
      const size_t k = j % lookups.size();
      ++log->attempted;
      Stopwatch timer;
      auto n = RunAdmitted(session, [&]() {
        return RunLookup(db, lookups[k], pass->traced);
      });
      log->latency_ms.push_back(timer.ElapsedMillis());
      if (!n.ok()) {
        log->failures.push_back("lookup: " + n.status().ToString());
      } else if (*n != (*pass->lookup_ref)[k]) {
        log->failures.push_back("lookup answer differs from reference");
      }
    }
  } else {
    for (const Request& r : pass->requests[static_cast<size_t>(t)]) {
      ++log->attempted;
      Stopwatch timer;
      auto a = RunAdmitted(session, [&]() {
        return RunUdfQuery(db, pass->frame_h, *pass->ws, r,
                           session.inference_cache(), pass->udf_device,
                           pass->traced);
      });
      log->latency_ms.push_back(timer.ElapsedMillis());
      if (!a.ok()) {
        log->failures.push_back("UDF query: " + a.status().ToString());
      } else if (!(*a == pass->udf_ref[static_cast<int>(r.udf)][r.window])) {
        log->failures.push_back("UDF answer differs from reference");
      }
    }
    pass->udf_running.fetch_sub(1);
  }
  log->wall_ms = wall.ElapsedMillis();
}

}  // namespace

int RunServing(const Options& o, Report* report) {
  const WorkloadConfig config = MakeConfig(o.seed, o.scale);
  StampEnvironment(o, config, report);
  const std::string root = o.work_dir + "/serving";
  const int clients = static_cast<int>(std::clamp(
      std::thread::hardware_concurrency(), 2u, 4u));
  const int udf_tenants = clients - 1;

  Tracer::MarkClientThread();
  TimingDevice device;
  LayerInputs layers;
  layers.device = &device;
  std::vector<double> setup_ms;
  report->Attempt();
  auto deployment = SetUp(o, config, root, &device, &layers, &setup_ms);
  if (!report->Check(deployment.status(), "set-up")) return 1;
  BenchmarkWorkload* w = deployment->workload.get();
  Database* setup_db = w->db();

  // The query layers as every workload sees them once: one q1–q6 round
  // and a columnar scan, checked against the reference pass.
  report->Attempt();
  auto ref = ComputeReference(w, MakeScanWindows(config, o.seed, 1));
  if (!report->Check(ref.status(), "reference pass")) return 1;
  report->Note("reference", DescribeReference(*ref));
  {
    Session a = setup_db->CreateSession("setup");
    Session b = deployment->columnar->CreateSession("setup");
    TimeOp(o.trace, &layers, [&]() {
      RunRound(w, deployment->columnar.get(), &a, &b, *ref, 0, &device,
               o.trace ? &layers : nullptr, report);
    });
  }

  ServingConfig serving;
  serving.max_concurrent_queries = static_cast<uint64_t>(clients - 1);
  serving.tenant_weights["lookup"] = kLookupWeight;
  const Workset ws = MakeWorkset(*w, o.seed);

  // Single-session reference answers for every window and lookup, on the
  // set-up's own database (views as ETL registered them), from a
  // partition of their own.
  setup_db->ConfigureServing(serving);
  std::vector<Answer> udf_ref[2];
  std::vector<uint64_t> lookup_ref;
  uint64_t ref_digest = 1469598103934665603ull;
  auto mix = [&ref_digest](uint64_t v) {
    ref_digest = (ref_digest ^ v) * 1099511628211ull;
  };
  {
    Session reference = setup_db->CreateSession("reference");
    for (int k = 0; k < 2; ++k) {
      for (size_t i = 0; i < ws.windows[k].size(); ++i) {
        report->Attempt();
        auto a = reference.Run([&]() {
          return RunUdfQuery(setup_db, config.traffic.height, ws,
                             Request{static_cast<Udf>(k), i},
                             reference.inference_cache(), nullptr, false);
        });
        if (!report->Check(a.status(), "reference UDF query")) return 1;
        udf_ref[k].push_back(*a);
        mix(a->digest);
      }
    }
    for (const Lookup& l : ws.lookups) {
      report->Attempt();
      auto n = RunLookup(setup_db, l, false);
      if (!report->Check(n.status(), "reference lookup")) return 1;
      lookup_ref.push_back(*n);
      mix(*n);
    }
  }
  report->Note("serving.reference_digest", std::to_string(ref_digest));

  std::vector<double> udf_ms, lookup_ms;
  double loop_ms = 0;
  uint64_t udf_queries = 0;
  size_t repeats = 0;
  int passes = 0;
  Stopwatch run;
  for (int pass = 0;; ++pass) {
    if (o.trace ? pass >= 2 * kTracedPasses
                : pass > 0 && run.ElapsedSeconds() >= o.seconds) {
      break;
    }
    const bool traced = o.trace && pass % 2 == 1;
    Pass p;
    p.requests = MakeRequests(ws, o.seed, pass, udf_tenants, &repeats);
    report->Attempt();
    auto opened = OpenServing(root, serving);
    if (!report->Check(opened.status(), "open serving database")) continue;
    Database* db = opened->get();
    p.db = db;
    p.ws = &ws;
    p.udf_ref = udf_ref;
    p.lookup_ref = &lookup_ref;
    p.frame_h = config.traffic.height;
    p.udf_tenants = udf_tenants;
    p.udf_device = traced ? &device : nullptr;
    p.traced = traced;
    p.udf_running.store(udf_tenants);
    const GlobalCounters before = GlobalCounters::Read();
    const InflightStats inflight_before = db->inflight_table()->Stats();
    const ServingStats gate_before = db->admission_gate()->Stats();

    std::vector<ThreadLog> logs(static_cast<size_t>(clients));
    Tracer::SetEnabled(traced);
    std::vector<std::thread> threads;
    try {
      for (int t = 0; t < clients; ++t) {
        threads.emplace_back([&p, &logs, t, pass]() {
          Tracer::MarkClientThread();
          Tracer::SetRequest(static_cast<uint64_t>(pass));
          RunClient(&p, t, &logs[static_cast<size_t>(t)]);
        });
      }
    } catch (...) {
      // A thread failed to start: release and join the ones that did.
      p.udf_running.store(0);
      p.go.store(true);
      for (std::thread& th : threads) th.join();
      throw;
    }
    ++passes;
    Stopwatch pass_timer;
    p.go.store(true);
    for (std::thread& th : threads) th.join();
    const double ms = pass_timer.ElapsedMillis();
    Tracer::SetEnabled(false);

    for (int t = 0; t < clients; ++t) {
      const ThreadLog& log = logs[static_cast<size_t>(t)];
      for (uint64_t i = 0; i < log.attempted; ++i) report->Attempt();
      for (const std::string& f : log.failures) report->Fail(f);
      if (traced) {
        layers.client_wall_ms += log.wall_ms;
        continue;
      }
      auto& sink = t == udf_tenants ? lookup_ms : udf_ms;
      sink.insert(sink.end(), log.latency_ms.begin(), log.latency_ms.end());
      if (t != udf_tenants) udf_queries += log.latency_ms.size();
    }
    if (!traced) {
      loop_ms += ms;
      layers.untraced_op_ms += ms;
      continue;
    }
    layers.traced_op_ms += ms;
    layers.globals += GlobalCounters::Read() - before;
    const InflightStats inflight = db->inflight_table()->Stats();
    layers.inflight_leaders += inflight.leaders - inflight_before.leaders;
    layers.inflight_joins += inflight.joined - inflight_before.joined;
    layers.admission_rejected +=
        db->admission_gate()->Stats().rejected_saturated -
        gate_before.rejected_saturated;
    for (int t = 0; t < clients; ++t) {
      const CacheStats c =
          db->TenantInferenceCache(t == udf_tenants ? "lookup" : UdfTenant(t))
              ->Stats();
      layers.tenant_cache.hits += c.hits;
      layers.tenant_cache.misses += c.misses;
      layers.tenant_cache.evictions += c.evictions;
    }
  }

  report->Note("serving.clients", std::to_string(clients));
  report->Note("serving.repeat_share",
               std::to_string(static_cast<double>(repeats) /
                              static_cast<double>(passes * udf_tenants *
                                                  kRequestsPerTenant)));
  if (o.trace) {
    ReportLayers(o, &layers, report);
    return 0;
  }
  report->Add("setup_s", Median(setup_ms) / 1e3, "s");
  report->Add("peak_rss_mb", PeakRssMb(), "MB");
  report->Add("throughput_per_s",
              static_cast<double>(udf_queries) / (loop_ms / 1e3), "1/s");
  report->Add("p50_ms", Median(udf_ms), "ms");
  NoteTail("serving_tail_ms", udf_ms, "UDF queries", report);
  NoteTail("lookup_tail_ms", lookup_ms, "lookups", report);
  return 0;
}

}  // namespace perfbench
