#ifndef PERFBENCH_BENCH_H_
#define PERFBENCH_BENCH_H_

// The four workloads and the traced layer sweep. See
// perfbench/INTERACTIONS.md for why each exists and which numbers each
// layer metric should move.

#include <cstdint>
#include <string>

namespace perfbench {

/// Share of the paper cardinalities generated (TS, TCB, CAS, SP, SPG,
/// SCRC, SURA; CAR is left out for size). Only the self-test runs smaller.
inline constexpr double kDefaultScale = 0.4;

struct Options {
  std::string workload;
  uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  double scale = kDefaultScale;
  /// Corrupts the first checked answer, to prove the correctness gate.
  bool inject_wrong = false;
  std::string sjsel_path;
  /// Directory (inside the checkout) for inputs, sockets and stream dirs.
  std::string work_dir;
  /// Where the traced run writes its spans.
  std::string trace_path;
  std::string git_commit = "unknown";
  std::string source_digest = "unknown";
};

/// Runs one workload and prints its report; returns the process exit code
/// (0 only when every answer was correct).
int RunBenchmark(const Options& options);

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_H_
