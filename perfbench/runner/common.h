#ifndef PERFBENCH_COMMON_H_
#define PERFBENCH_COMMON_H_

// Shared pieces of the benchmark runner: clocks, latency samples with the
// "ten samples beyond" percentile rule, the result accumulator, the
// in-memory span tracer, and small /proc readers.

#include <sys/types.h>

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace perfbench {

int64_t NowNs();
inline double UsBetween(int64_t start_ns, int64_t end_ns) {
  return static_cast<double>(end_ns - start_ns) / 1e3;
}

/// Latency samples of ONE op kind (percentiles never mix kinds).
struct Samples {
  std::vector<double> values;

  void Add(double v) { values.push_back(v); }
  void Append(const Samples& other);
  size_t n() const { return values.size(); }
  /// Nearest-rank percentile `q` in (0, 1), or nullopt when fewer than ten
  /// samples lie strictly beyond its rank.
  std::optional<double> Percentile(double q) const;
  /// Median with no sample-count floor (0 when empty).
  double Median() const;
};

double MedianOf(std::vector<double> values);

/// What a run reports: gated metrics (the last-line JSON), informational
/// lines printed before it, and the correctness tally.
class Report {
 public:
  /// A metric that goes into the final JSON object.
  void Gate(const std::string& name, double value, const std::string& unit);
  /// A line printed for humans (and the self-test), never gated.
  void Info(const std::string& name, double value, const std::string& unit,
            const std::string& note = "");
  void Text(const std::string& key, const std::string& value);

  void Attempt() { ++attempted_; }
  /// Records one failed/wrong operation; keeps the first few messages.
  void Fail(const std::string& why);

  uint64_t attempted() const { return attempted_; }
  uint64_t failed() const { return failed_; }

  /// Prints info lines, then the final one-line JSON result.
  void Print(bool correct) const;

 private:
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Metric> gated_;
  std::vector<std::string> lines_;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  std::vector<std::string> errors_;
};

/// One traced interval. Spans of one request share `request`; a root span
/// has parent 0.
struct Span {
  uint64_t id = 0;
  uint64_t parent = 0;
  uint64_t request = 0;
  const char* name = "";
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  /// Root spans only: the request's latency on a clock read outside the
  /// tracer (before the root opens, after it closes); 0 when not measured.
  int64_t wall_ns = 0;
};

/// Per-thread span recorder, kept in memory until the run ends. Disabled
/// tracers record nothing and cost one branch per span.
class Tracer {
 public:
  Tracer(bool enabled, uint64_t id_base) : enabled_(enabled), next_(id_base) {}

  bool enabled() const { return enabled_; }
  /// Room for `spans` more spans, so no Begin reallocates or takes a
  /// first-touch page fault between a request's outside clock reads.
  void Reserve(size_t spans);
  size_t Begin(const char* name, uint64_t request);
  void End(size_t index);
  /// Records the outside-clock latency of the request rooted at `index`.
  void SetWall(size_t index, int64_t wall_ns) {
    if (enabled_) spans_[index].wall_ns = wall_ns;
  }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  bool enabled_;
  uint64_t next_;
  std::vector<Span> spans_;
  std::vector<size_t> open_;
};

class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name, uint64_t request)
      : tracer_(tracer->enabled() ? tracer : nullptr),
        index_(tracer_ ? tracer_->Begin(name, request) : 0) {}
  ~ScopedSpan() {
    if (tracer_) tracer_->End(index_);
  }
  size_t index() const { return index_; }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
  size_t index_;
};

/// Self-time analysis of a span set.
struct SelfTimes {
  /// Self time (duration minus the union of its children) by span name.
  std::map<std::string, Samples> by_name;
  /// Requests whose root carries an outside-clock latency.
  uint64_t requests = 0;
  /// Requests whose summed self times differ from that latency by more
  /// than the tolerance below.
  uint64_t sum_violations = 0;
  /// Median and largest |wall - sum of self times| / wall over requests.
  double median_sum_error = 0.0;
  double max_sum_error = 0.0;
};

/// Per request: |wall - sum(self)| <= max(kSelfSumTolerance * wall,
/// kSelfSumSlackUs), where wall is the latency on a clock read outside the
/// tracer. Work outside the root span and the root's own Begin/End widen
/// the gap; the slack covers the latter (median 0.16 us, p99 1 us on the
/// reference VM, where it reaches 1 % of a 47 us cached estimate).
inline constexpr double kSelfSumTolerance = 0.01;
inline constexpr double kSelfSumSlackUs = 2.0;
/// A run fails when more than this share of its traced requests break the
/// per-request tolerance (an interrupt landing between the outside clock
/// read and the root span breaks one request).
inline constexpr double kMaxSumViolationShare = 0.01;

SelfTimes AnalyzeSpans(const std::vector<Span>& spans);

/// Writes spans as JSON lines (name, id, parent, request, start/end ns).
bool WriteSpans(const std::string& path, const std::vector<Span>& spans);

/// Peak resident set (VmHWM) of `pid` in MiB, 0 if unreadable.
double PeakRssMiB(pid_t pid);
std::string CpuModel();

/// Deterministic 64-bit mix for deriving sub-seeds.
uint64_t MixSeed(uint64_t seed, uint64_t salt);

/// %.17g rendering.
std::string Num(double v);

}  // namespace perfbench

#endif  // PERFBENCH_COMMON_H_
