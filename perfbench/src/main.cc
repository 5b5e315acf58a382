// End-to-end DeepLens benchmark: one process runs one workload.
//
//   deeplens_perfbench --workload ingest|analyst|serving --seed N
//                      --seconds S --trace 0|1 [--scale F] [--work-dir D]
//
// With --trace 0 it measures the end-to-end metrics for S seconds; with
// --trace 1 it runs a fixed amount of traced work and reports the
// per-layer metrics. The last line of stdout is the JSON result; the exit
// code is non-zero when any operation failed or any output was wrong.
#include <cstdio>
#include <cstdlib>
#include <string>

#include "harness.h"

namespace {

bool ParseArgs(int argc, char** argv, perfbench::Options* o) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      o->workload = value;
    } else if (flag == "--seed") {
      o->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      o->seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      o->trace = value == "1";
    } else if (flag == "--scale") {
      o->scale = std::atof(value.c_str());
    } else if (flag == "--work-dir") {
      o->work_dir = value;
    } else {
      std::fprintf(stderr, "unknown flag %s\n", flag.c_str());
      return false;
    }
  }
  return argc % 2 == 1 && o->seconds > 0 && o->scale > 0;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options options;
  if (!ParseArgs(argc, argv, &options)) {
    std::fprintf(stderr,
                 "usage: %s --workload ingest|analyst|serving --seed N "
                 "--seconds S --trace 0|1 [--scale F] [--work-dir D]\n",
                 argv[0]);
    return 2;
  }
  perfbench::Report report;
  int rc = 0;
  if (options.workload == "ingest") {
    rc = perfbench::RunIngest(options, &report);
  } else if (options.workload == "analyst") {
    rc = perfbench::RunAnalyst(options, &report);
  } else if (options.workload == "serving") {
    rc = perfbench::RunServing(options, &report);
  } else {
    std::fprintf(stderr, "unknown workload '%s'\n", options.workload.c_str());
    return 2;
  }
  report.Print();
  return rc != 0 || !report.correct() ? 1 : 0;
}
