// perfbench: the repository benchmark runner. Runs one workload against
// the real `sjsel serve` daemon (or, for offline_pipeline, the library
// in-process) and prints one JSON result as its last line. Normally started
// through perfbench/run.py, which builds it first:
//
//   python3 perfbench/run.py --workload hot_estimate --seed 1 --seconds 30
//       --trace 0

#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>

#include "bench.h"

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload <name> --seed <n> --seconds <s> "
               "--trace <0|1> --sjsel <path> --work-dir <dir>\n"
               "       [--scale <share>] [--inject-wrong] "
               "[--trace-path <file>]\n"
               "       [--git-commit <id>] [--source-digest <hex>]\n"
               "workloads: cold_pairs hot_estimate stream_churn "
               "offline_pipeline\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--inject-wrong") {
      opt.inject_wrong = true;
      continue;
    }
    if (i + 1 >= argc) return Usage();
    const std::string value = argv[++i];
    if (flag == "--workload") {
      opt.workload = value;
    } else if (flag == "--seed") {
      opt.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      opt.seconds = std::atoi(value.c_str());
    } else if (flag == "--trace") {
      opt.trace = value == "1";
    } else if (flag == "--scale") {
      opt.scale = std::atof(value.c_str());
    } else if (flag == "--sjsel") {
      opt.sjsel_path = value;
    } else if (flag == "--work-dir") {
      opt.work_dir = value;
    } else if (flag == "--trace-path") {
      opt.trace_path = value;
    } else if (flag == "--git-commit") {
      opt.git_commit = value;
    } else if (flag == "--source-digest") {
      opt.source_digest = value;
    } else {
      return Usage();
    }
  }
  if (opt.workload.empty() || opt.sjsel_path.empty() || opt.work_dir.empty() ||
      opt.seconds < 1 || !(opt.scale > 0.0 && opt.scale <= 1.0)) {
    return Usage();
  }
  namespace fs = std::filesystem;
  const fs::path home = fs::current_path();
  if (opt.trace_path.empty()) opt.trace_path = "spans.jsonl";
  opt.trace_path = fs::absolute(opt.trace_path).string();
  opt.sjsel_path = fs::absolute(opt.sjsel_path).string();
  const fs::path work = fs::absolute(opt.work_dir);
  std::error_code ec;
  fs::remove_all(work, ec);
  fs::create_directories(work);
  // Inputs, the daemon's socket and stream directories all live here, so
  // every path handed to the daemon is short and relative.
  fs::current_path(work);
  const int code = perfbench::RunBenchmark(opt);
  fs::current_path(home);
  fs::remove_all(work, ec);
  return code;
}
