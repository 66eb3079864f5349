#include "bench.h"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <utility>
#include <vector>

#include "common.h"
#include "core/gh_histogram.h"
#include "core/guarded_estimator.h"
#include "core/kernels.h"
#include "core/ph_histogram.h"
#include "daemon.h"
#include "datagen/workloads.h"
#include "geom/dataset.h"
#include "geom/validate.h"
#include "join/pbsm.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "planner/join_planner.h"
#include "server/protocol.h"
#include "server/server.h"
#include "stream/ingest.h"
#include "util/build_info.h"
#include "util/random.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

using sjsel::Dataset;
using sjsel::JsonValue;
using sjsel::Rect;
using sjsel::Result;
using sjsel::Status;
using sjsel::gen::PaperDataset;
namespace fs = std::filesystem;

// ---------------------------------------------------------------------------
// Fixed shape of the workloads. Op counts derive from --seconds and these
// nominal costs (measured on a 4-core Xeon), never from the clock, so each
// run's per-kind op counts are fixed by its arguments.

constexpr int kRounds = 3;              // set-ups per run (setup_s = median)
constexpr int kServerWorkers = 2;
constexpr double kColdPassSeconds = 2.4;  // one cold_pairs pass
constexpr double kHotRatePerConn = 18000;  // hot hits per second, per conn
constexpr double kIngestRate = 300;       // ingest batches per second
constexpr double kPipelinePassSeconds = 1.2;
constexpr int kAddsPerBatch = 48;
constexpr int kRemovesPerBatch = 16;
constexpr int kStreamEstimatesPerBatch = 2;
constexpr size_t kStreamMaxLag = 8;  // batches the writer may run ahead
constexpr int kSealEvery = 8;
constexpr int kCheckpointsPerRound = 4;
constexpr int kStreamLevel = 7;
constexpr int kOfflineLevel = 10;
constexpr int kCombinesPerPass = 4;
constexpr double kZipfExponent = 1.0;
constexpr size_t kHotWindow = 32;      // requests per connection per window
constexpr size_t kStreamWindow = 64;   // ingest batches per window
// A traced round traces every kTraceEvery-th timed request (hot_estimate:
// 1 in kHotTraceEvery, to bound its span set); the tracing overhead compares
// them with the same round's untraced requests.
constexpr uint64_t kTraceEvery = 2;
constexpr uint64_t kHotTraceEvery = 16;
/// Exact-weighted GH error above which a run fails (see gh_rel_error in
/// perfbench/INTERACTIONS.md); the seeds' values are about 1e-3.
constexpr double kGhRelErrorCeiling = 0.05;
constexpr char kSocket[] = "d.sock";
constexpr char kStreamDir[] = "stream";

const Rect kUnit(0.0, 0.0, 1.0, 1.0);

/// Index of SCRC in ServingSet(): the dataset stream_estimate asks about.
constexpr size_t kStreamB = 5;

const std::vector<PaperDataset>& ServingSet() {
  static const std::vector<PaperDataset> set = {
      PaperDataset::kTS,  PaperDataset::kTCB,  PaperDataset::kCAS,
      PaperDataset::kSP,  PaperDataset::kSPG,  PaperDataset::kSCRC,
      PaperDataset::kSURA};
  return set;
}

struct Input {
  std::string name;
  std::string path;
  Dataset data;
};

using Pair = std::pair<size_t, size_t>;
using Batch = std::vector<sjsel::stream::StreamOp>;

// ---------------------------------------------------------------------------
// Run-wide state: options, the report and the correctness tally.

class Ctx {
 public:
  explicit Ctx(const Options& options) : opt(options) {}

  const Options& opt;
  Report report;
  int threads = std::max(1u, std::thread::hardware_concurrency());
  std::string backend = "unknown";
  std::map<std::string, uint64_t> rows;  // dataset name -> rows

  void Fail(const std::string& why) {
    std::lock_guard<std::mutex> lock(mu_);
    report.Fail(why);
  }
  void Attempt() {
    std::lock_guard<std::mutex> lock(mu_);
    report.Attempt();
  }
  /// The answer as the checks see it; --inject-wrong turns the first one
  /// into a negative pair count, which every check must reject.
  double Observe(double v) {
    if (opt.inject_wrong && !injected_.exchange(true)) return -(v + 1.0);
    return v;
  }

 private:
  std::mutex mu_;
  std::atomic<bool> injected_{false};
};

/// Exact-weighted GH error: sum(|served - exact|) / sum(exact).
struct ErrorSum {
  double abs = 0.0;
  double exact = 0.0;

  void Add(double served, double truth) {
    abs += std::abs(served - truth);
    exact += truth;
  }
  void Merge(const ErrorSum& o) {
    abs += o.abs;
    exact += o.exact;
  }
  double Ratio() const { return exact > 0.0 ? abs / exact : 0.0; }
};

/// What one set-up + timed phase produced.
struct RoundOut {
  double setup_s = 0.0;
  uint64_t ops = 0;  // operations completed in the timed phase
  /// Throughput of each fixed-size window of the timed phase, per second
  /// (requests, or rectangles for the pipeline). The run reports their
  /// median, so a burst of machine noise moves a few windows, not the run.
  std::vector<double> rates;
  /// cold_pairs: seconds of each fixed chunk of the timed phase, in order.
  std::vector<double> chunk_s;
  double rss_mib = 0.0;
  std::map<std::string, Samples> latency;  // by op kind
  /// Client-side time of each timed-phase request (its outside-clock
  /// latency minus the call itself), [0] untraced and [1] traced requests.
  Samples client_us[2];
  std::map<std::string, double> counts;    // scraped from the daemon
  uint64_t requests_sent = 0;              // whole daemon lifetime
  ErrorSum error;
};

double Seconds(int64_t start_ns) {
  return static_cast<double>(NowNs() - start_ns) / 1e9;
}

std::vector<Input> MakeInputs(Ctx& ctx,
                              const std::vector<PaperDataset>& which) {
  std::vector<Input> inputs;
  for (const PaperDataset w : which) {
    Input in;
    in.name = sjsel::gen::PaperDatasetName(w);
    in.path = in.name + ".ds";
    in.data = sjsel::gen::MakePaperDataset(w, ctx.opt.scale, ctx.opt.seed);
    const Status st = in.data.Save(in.path);
    if (!st.ok()) ctx.Fail("save " + in.path + ": " + st.ToString());
    ctx.rows[in.name] = in.data.size();
    inputs.push_back(std::move(in));
  }
  return inputs;
}

// ---------------------------------------------------------------------------
// Request lines.

std::string Quote(const std::string& s) { return "\"" + s + "\""; }

std::string EstimateLine(const std::string& a, const std::string& b) {
  return "{\"op\":\"estimate\",\"a\":" + Quote(a) + ",\"b\":" + Quote(b) +
         "}";
}

std::string PlanLine(const std::vector<std::string>& paths) {
  std::string line = "{\"op\":\"plan\",\"paths\":[";
  for (size_t i = 0; i < paths.size(); ++i) {
    if (i > 0) line += ",";
    line += Quote(paths[i]);
  }
  return line + "]}";
}

void AppendRects(std::string* line, const Batch& batch,
                 sjsel::stream::OpKind kind) {
  bool first = true;
  for (const auto& op : batch) {
    if (op.kind != kind) continue;
    char rect[128];
    std::snprintf(rect, sizeof(rect), "%s[%.17g,%.17g,%.17g,%.17g]",
                  first ? "" : ",", op.rect.min_x, op.rect.min_y,
                  op.rect.max_x, op.rect.max_y);
    *line += rect;
    first = false;
  }
}

std::string IngestLine(const Batch& batch) {
  std::string line = "{\"op\":\"ingest\",\"stream\":\"" +
                     std::string(kStreamDir) + "\",\"adds\":[";
  AppendRects(&line, batch, sjsel::stream::OpKind::kAdd);
  line += "],\"removes\":[";
  AppendRects(&line, batch, sjsel::stream::OpKind::kRemove);
  return line + "]}";
}

std::string StreamEstimateLine(const std::string& b) {
  return "{\"op\":\"stream_estimate\",\"stream\":\"" + std::string(kStreamDir) +
         "\",\"b\":" + Quote(b) + "}";
}

// ---------------------------------------------------------------------------
// Client side of one request: the round trip is the latency sample; with a
// live tracer the encode / call / check phases become spans of one request,
// whose root also carries the latency on a clock read outside the tracer.

class Conn {
 public:
  Conn(Ctx* ctx, Tracer* tracer, uint64_t id_base)
      : ctx_(ctx), tracer_(tracer), next_request_(id_base) {}

  Status Connect() { return client_.Connect(kSocket); }
  /// Traces only every `every`-th request (head sampling), so a long
  /// traced run keeps a bounded span set.
  void SampleTraces(uint64_t every) { trace_every_ = every; }
  sjsel::server::Client& client() { return client_; }
  void ReserveSpans(size_t spans) { tracer_->Reserve(spans); }

  /// Sends `encode()`, records the round trip in `latency`, and runs
  /// `check` on the result object; a failed or non-ok answer is counted.
  void Request(const std::function<std::string()>& encode, Samples* latency,
               const std::function<void(const JsonValue&)>& check) {
    RawRequest(encode, latency,
               [&](const std::string& line,
                   const Result<std::string>& response) {
                 const auto result = ParseOk(response);
                 if (!result.ok()) {
                   ctx_->Fail(line.substr(0, 120) + ": " +
                              result.status().ToString());
                   return;
                 }
                 check(*result);
               });
  }

  /// As Request, but `check` gets the raw response line (no JSON parse).
  void RawRequest(
      const std::function<std::string()>& encode, Samples* latency,
      const std::function<void(const std::string&,
                               const Result<std::string>&)>& check) {
    ctx_->Attempt();
    const uint64_t id = ++next_request_;
    const bool traced = tracer_->enabled() && id % trace_every_ == 0;
    Tracer* tracer = traced ? tracer_ : &untraced_;
    int64_t call_ns = 0;
    size_t root_index = 0;
    const int64_t w0 = NowNs();
    {
      ScopedSpan root(tracer, "request", id);
      root_index = root.index();
      std::string line;
      {
        ScopedSpan span(tracer, "client.encode", id);
        line = encode();
      }
      Result<std::string> response = Status::Internal("not sent");
      {
        ScopedSpan span(tracer, "client.call", id);
        const int64_t t0 = NowNs();
        response = client_.Call(line);
        call_ns = NowNs() - t0;
        latency->Add(UsBetween(0, call_ns));
      }
      {
        ScopedSpan span(tracer, "client.check", id);
        check(line, response);
      }
    }
    const int64_t w1 = NowNs();
    tracer->SetWall(root_index, w1 - w0);
    client_us[traced ? 1 : 0].Add(UsBetween(0, w1 - w0 - call_ns));
    done_ns.push_back(w1);
  }

  /// Completion time of every request sent on this connection.
  std::vector<int64_t> done_ns;
  /// Client-side time per request, [0] untraced, [1] traced; cleared when
  /// the timed phase starts.
  Samples client_us[2];

 private:
  Ctx* ctx_;
  Tracer* tracer_;
  Tracer untraced_{false, 0};
  uint64_t trace_every_ = 1;
  uint64_t next_request_;
  sjsel::server::Client client_;
};

/// Rates of consecutive `window`-request chunks of `done` (completion
/// times) from index `begin`, whose first request started at `start_ns`;
/// each request counts `ops_per_request` operations.
std::vector<double> WindowRates(const std::vector<int64_t>& done, size_t begin,
                                int64_t start_ns, size_t window,
                                double ops_per_request) {
  std::vector<double> rates;
  int64_t from = start_ns;
  for (size_t end = begin + window; end <= done.size(); end += window) {
    const int64_t to = done[end - 1];
    if (to > from) {
      rates.push_back(static_cast<double>(window) * ops_per_request * 1e9 /
                      static_cast<double>(to - from));
    }
    from = to;
  }
  return rates;
}

/// `"ok":true` and the estimated_pairs of an estimate response, read
/// without a full JSON parse (the hot path's client-side check).
bool FastPairs(const Result<std::string>& response, double* value) {
  if (!response.ok() || response->find("\"ok\":true") == std::string::npos) {
    return false;
  }
  const char kKey[] = "\"estimated_pairs\":";
  const size_t at = response->find(kKey);
  if (at == std::string::npos) return false;
  const char* begin = response->c_str() + at + sizeof(kKey) - 1;
  char* end = nullptr;
  *value = std::strtod(begin, &end);
  return end != begin;
}

/// Reads `estimated_pairs` and applies the range check [0, n1*n2].
std::optional<double> CheckedPairs(Ctx& ctx, const JsonValue& result,
                                   double n1, double n2,
                                   const std::string& what) {
  const JsonValue* v = result.Find("estimated_pairs");
  if (v == nullptr || !v->is_number()) {
    ctx.Fail(what + ": no estimated_pairs");
    return std::nullopt;
  }
  const double x = ctx.Observe(v->number_value());
  if (!std::isfinite(x) || x < 0.0 || x > n1 * n2) {
    ctx.Fail(what + ": estimate " + Num(x) + " outside [0, N1*N2]");
    return std::nullopt;
  }
  return x;
}

/// A daemon plus the set-up every serving workload shares: start, one
/// ping, and a `stats` per dataset so the catalog holds every input.
struct Session {
  Daemon daemon;
  std::vector<std::unique_ptr<Conn>> conns;
  uint64_t sent = 0;
};

bool OpenSession(Ctx& ctx, Session* s, int connections,
                 const std::vector<Tracer*>& tracers,
                 const std::vector<Input>& preload) {
  const Status st = s->daemon.Start(ctx.opt.sjsel_path, kSocket,
                                    kServerWorkers);
  if (!st.ok()) {
    ctx.Fail("daemon: " + st.ToString());
    return false;
  }
  for (int i = 0; i < connections; ++i) {
    s->conns.push_back(std::make_unique<Conn>(
        &ctx, tracers[static_cast<size_t>(i)],
        static_cast<uint64_t>(i + 1) << 40));
    // Set-up requests: ping, one stats per input, warm-up estimates.
    s->conns.back()->ReserveSpans(4 * 256);
    const Status c = s->conns.back()->Connect();
    if (!c.ok()) {
      ctx.Fail("connect: " + c.ToString());
      return false;
    }
  }
  Samples ignored;
  s->conns[0]->Request([] { return std::string("{\"op\":\"ping\"}"); },
                       &ignored, [](const JsonValue&) {});
  for (const Input& in : preload) {
    s->conns[0]->Request(
        [&] { return "{\"op\":\"stats\",\"path\":" + Quote(in.path) + "}"; },
        &ignored, [&](const JsonValue& r) {
          const JsonValue* n = r.Find("n");
          if (n == nullptr || n->number_value() !=
                                  static_cast<double>(in.data.size())) {
            ctx.Fail("stats " + in.path + ": wrong row count");
          }
        });
  }
  s->sent += 1 + preload.size();
  return true;
}

/// Starts a timed phase: client-side times from here on are the round's.
void StartTimed(Session* s) {
  for (const auto& conn : s->conns) {
    conn->client_us[0].values.clear();
    conn->client_us[1].values.clear();
  }
}

/// Ends a timed phase: moves its client-side times into *out.
void EndTimed(Session* s, RoundOut* out) {
  for (const auto& conn : s->conns) {
    out->client_us[0].Append(conn->client_us[0]);
    out->client_us[1].Append(conn->client_us[1]);
  }
}

/// Scrapes the daemon's counters and peak RSS, then kills it.
void CloseSession(Ctx& ctx, Session* s, RoundOut* out) {
  if (!s->conns.empty()) {
    std::string backend;
    auto scraped = Scrape(s->conns[0]->client(), &backend);
    if (scraped.ok()) {
      out->counts = std::move(scraped).value();
      if (!backend.empty()) ctx.backend = backend;
    } else {
      ctx.Fail("scrape: " + scraped.status().ToString());
    }
  }
  out->rss_mib = PeakRssMiB(s->daemon.pid());
  out->requests_sent = s->sent;
  s->conns.clear();
  s->daemon.Kill();
}

std::vector<Pair> OrderedPairs(size_t n) {
  std::vector<Pair> pairs;
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < n; ++j) {
      if (i != j) pairs.emplace_back(i, j);
    }
  }
  return pairs;
}

template <typename T>
void Shuffle(std::vector<T>* v, sjsel::Rng* rng) {
  for (size_t i = v->size(); i > 1; --i) {
    std::swap((*v)[i - 1], (*v)[rng->NextU64(i)]);
  }
}

/// The rounds of one run, pooled.
struct Pooled {
  std::vector<double> setup, rss, rates;
  std::vector<std::vector<double>> chunk_s;  // per round
  ErrorSum error;
  std::map<std::string, Samples> latency;
  Samples client_us[2];

  void Add(const RoundOut& r) {
    setup.push_back(r.setup_s);
    rss.push_back(r.rss_mib);
    rates.insert(rates.end(), r.rates.begin(), r.rates.end());
    if (!r.chunk_s.empty()) chunk_s.push_back(r.chunk_s);
    error.Merge(r.error);
    for (const auto& [kind, s] : r.latency) latency[kind].Append(s);
    client_us[0].Append(r.client_us[0]);
    client_us[1].Append(r.client_us[1]);
  }
};

/// Throughput of a typical round built from its chunks: each chunk's median
/// time over the rounds, summed. A burst of machine noise lengthens one
/// chunk of one round and so moves no median. Rounds must be the same
/// sequence of chunks, `ops` operations in all.
double ChunkMedianRate(const std::vector<std::vector<double>>& rounds,
                       double ops) {
  if (rounds.empty()) return 0.0;
  double seconds = 0.0;
  for (size_t k = 0; k < rounds[0].size(); ++k) {
    std::vector<double> times;
    for (const auto& r : rounds) {
      if (k < r.size()) times.push_back(r[k]);
    }
    seconds += MedianOf(std::move(times));
  }
  return seconds > 0.0 ? ops / seconds : 0.0;
}

/// Exact join counts for every unordered pair of `inputs`.
std::map<Pair, double> ExactCounts(const Ctx& ctx,
                                   const std::vector<Input>& inputs) {
  std::map<Pair, double> exact;
  sjsel::PbsmOptions options;
  options.threads = ctx.threads;
  for (size_t i = 0; i < inputs.size(); ++i) {
    for (size_t j = i + 1; j < inputs.size(); ++j) {
      const double n = static_cast<double>(
          sjsel::PbsmJoinCount(inputs[i].data, inputs[j].data, options));
      exact[{i, j}] = n;
      exact[{j, i}] = n;
    }
  }
  return exact;
}

/// Served answers must equal the library's own guarded estimate bit for
/// bit; with `exact`, their error against the exact join is accumulated
/// into *out for gh_rel_error.
void CheckServedPairs(Ctx& ctx, const std::vector<Input>& inputs,
                      const std::map<Pair, double>& served, bool exact,
                      Pooled* out) {
  const sjsel::GuardedEstimator estimator;
  const std::map<Pair, double> counts =
      exact ? ExactCounts(ctx, inputs) : std::map<Pair, double>();
  for (const auto& [pair, value] : served) {
    const auto ref = estimator.Estimate(inputs[pair.first].data,
                                        inputs[pair.second].data);
    if (!ref.ok() || ref->outcome.estimated_pairs != value) {
      ctx.Fail("estimate " + inputs[pair.first].name + "," +
               inputs[pair.second].name + " = " + Num(value) +
               " differs from the in-process estimator");
    }
    if (exact) out->error.Add(value, counts.at(pair));
  }
}

/// A plan answer has 6 pairs and a tree, and its pair numbers are the
/// standalone estimates served for the same (a, b).
void CheckPlan(Ctx& ctx, const JsonValue& r, const std::vector<Input>& inputs,
               const std::map<Pair, double>& served) {
  const JsonValue* plan = r.Find("plan");
  const JsonValue* pairs = plan != nullptr ? plan->Find("pairs") : nullptr;
  const JsonValue* tree = plan != nullptr ? plan->Find("tree") : nullptr;
  if (pairs == nullptr || pairs->size() != 6 || tree == nullptr ||
      tree->string_value().empty()) {
    ctx.Fail("plan: malformed answer");
    return;
  }
  const auto index = [&](const JsonValue* path) {
    for (size_t k = 0; k < inputs.size(); ++k) {
      if (path != nullptr && path->is_string() &&
          path->string_value() == inputs[k].path) {
        return k;
      }
    }
    return inputs.size();
  };
  for (const JsonValue& pr : pairs->items()) {
    const JsonValue* v = pr.Find("estimated_pairs");
    const auto it = served.find({index(pr.Find("a")), index(pr.Find("b"))});
    if (v == nullptr || it == served.end() ||
        ctx.Observe(v->number_value()) != it->second) {
      ctx.Fail("plan pair estimate differs from the served estimate");
    }
  }
}

// ---------------------------------------------------------------------------
// cold_pairs: every ordered pair once (each followed by its reverse), then
// each 4-dataset window planned twice, on a fresh daemon per round. Every
// round of a run sends the same seeded order, so its chunks (a pair and its
// reverse; a window's two plans) line up across rounds.

RoundOut ColdRound(Ctx& ctx, Tracer* tracer,
                   const std::vector<Pair>& unordered,
                   std::vector<Input>* inputs_out,
                   std::map<Pair, double>* served) {
  RoundOut out;
  const int64_t s0 = NowNs();
  std::vector<Input> inputs = MakeInputs(ctx, ServingSet());
  Session session;
  const bool up = OpenSession(ctx, &session, 1, {tracer}, inputs);
  out.setup_s = Seconds(s0);
  if (!up) return out;
  Conn& conn = *session.conns[0];
  conn.ReserveSpans(4 * (2 * unordered.size() + 2 * inputs.size()));
  // Alternate requests: one of each pair and its reverse, and one of each
  // window's two plans, is traced.
  conn.SampleTraces(kTraceEvery);

  StartTimed(&session);
  int64_t chunk0 = NowNs();
  const auto end_chunk = [&] {
    const int64_t now = conn.done_ns.back();
    out.chunk_s.push_back(static_cast<double>(now - chunk0) / 1e9);
    chunk0 = now;
  };
  for (const Pair& up_pair : unordered) {
    for (const Pair& p : {up_pair, Pair(up_pair.second, up_pair.first)}) {
      const Input& a = inputs[p.first];
      const Input& b = inputs[p.second];
      conn.Request([&] { return EstimateLine(a.path, b.path); },
                   &out.latency["estimate"], [&](const JsonValue& r) {
                     const auto v = CheckedPairs(
                         ctx, r, a.data.size(), b.data.size(),
                         "estimate " + a.name + "," + b.name);
                     if (!v) return;
                     const auto [it, inserted] = served->emplace(p, *v);
                     if (!inserted && it->second != *v) {
                       ctx.Fail("estimate " + a.name + "," + b.name +
                                " changed between rounds");
                     }
                   });
    }
    end_chunk();
  }
  for (size_t w = 0; w + 4 <= inputs.size(); ++w) {
    std::vector<std::string> paths;
    for (size_t k = w; k < w + 4; ++k) paths.push_back(inputs[k].path);
    for (int rep = 0; rep < 2; ++rep) {
      conn.Request([&] { return PlanLine(paths); }, &out.latency["plan"],
                   [&](const JsonValue& r) { CheckPlan(ctx, r, inputs, *served); });
    }
    end_chunk();
  }
  out.ops = out.latency["estimate"].n() + out.latency["plan"].n();
  EndTimed(&session, &out);
  session.sent += out.ops;
  CloseSession(ctx, &session, &out);
  *inputs_out = std::move(inputs);
  return out;
}

// ---------------------------------------------------------------------------
// hot_estimate: two connections of Zipf-skewed estimates, all cache hits.

RoundOut HotRound(Ctx& ctx, const std::vector<Tracer*>& tracers,
                  std::vector<Input>* inputs_out,
                  std::map<Pair, double>* served) {
  RoundOut out;
  const int64_t s0 = NowNs();
  std::vector<Input> inputs = MakeInputs(ctx, ServingSet());
  Session session;
  const bool up = OpenSession(ctx, &session, 2, tracers, inputs);
  const std::vector<Pair> pairs = OrderedPairs(inputs.size());
  std::vector<std::string> lines;
  std::vector<double> warm(pairs.size(), -1.0);
  if (up) {
    Samples ignored;
    for (size_t k = 0; k < pairs.size(); ++k) {
      const Input& a = inputs[pairs[k].first];
      const Input& b = inputs[pairs[k].second];
      lines.push_back(EstimateLine(a.path, b.path));
      session.conns[0]->Request(
          [&] { return lines[k]; }, &ignored, [&](const JsonValue& r) {
            const auto v = CheckedPairs(ctx, r, a.data.size(), b.data.size(),
                                        "warm " + a.name + "," + b.name);
            if (v) warm[k] = *v;
          });
    }
    session.sent += pairs.size();
  }
  out.setup_s = Seconds(s0);
  if (!up) return out;

  // Zipf over pair ranks; which pair holds which rank is seeded too.
  std::vector<size_t> rank_to_pair(pairs.size());
  for (size_t k = 0; k < pairs.size(); ++k) rank_to_pair[k] = k;
  sjsel::Rng rng(MixSeed(ctx.opt.seed, 11));
  Shuffle(&rank_to_pair, &rng);
  std::vector<double> cdf(pairs.size());
  double total = 0.0;
  for (size_t k = 0; k < pairs.size(); ++k) {
    total += 1.0 / std::pow(static_cast<double>(k + 1), kZipfExponent);
    cdf[k] = total;
  }
  const size_t per_conn = static_cast<size_t>(std::llround(
      ctx.opt.seconds * kHotRatePerConn / kRounds));
  std::vector<std::vector<size_t>> sequence(2);
  for (auto& seq : sequence) {
    for (size_t n = 0; n < per_conn; ++n) {
      const double u = rng.NextDouble() * total;
      const size_t rank = static_cast<size_t>(
          std::lower_bound(cdf.begin(), cdf.end(), u) - cdf.begin());
      seq.push_back(rank_to_pair[std::min(rank, pairs.size() - 1)]);
    }
  }
  for (const auto& conn : session.conns) {
    conn->SampleTraces(kHotTraceEvery);
    conn->ReserveSpans(4 * (per_conn / kHotTraceEvery + 1));
  }
  StartTimed(&session);
  std::vector<Samples> lat(2);
  const size_t begin0 = session.conns[0]->done_ns.size();
  const size_t begin1 = session.conns[1]->done_ns.size();
  const int64_t t0 = NowNs();
  std::vector<std::thread> workers;
  for (size_t c = 0; c < 2; ++c) {
    workers.emplace_back([&, c] {
      Conn& conn = *session.conns[c];
      for (const size_t k : sequence[c]) {
        conn.RawRequest(
            [&] { return lines[k]; }, &lat[c],
            [&](const std::string& line, const Result<std::string>& r) {
              double v = 0.0;
              if (!FastPairs(r, &v) || ctx.Observe(v) != warm[k]) {
                ctx.Fail(line + ": differs from its first answer: " +
                         (r.ok() ? r->substr(0, 200) : r.status().ToString()));
              }
            });
      }
    });
  }
  for (std::thread& t : workers) t.join();
  EndTimed(&session, &out);
  out.ops = 2 * per_conn;
  // Both connections run the same count side by side, so one connection's
  // window rate times two is the total rate.
  for (const auto& [c, begin] : {Pair(0, begin0), Pair(1, begin1)}) {
    const std::vector<double> r = WindowRates(session.conns[c]->done_ns, begin,
                                              t0, kHotWindow, 2.0);
    out.rates.insert(out.rates.end(), r.begin(), r.end());
  }
  session.sent += out.ops;
  for (const Samples& s : lat) out.latency["estimate"].Append(s);
  CloseSession(ctx, &session, &out);
  for (size_t k = 0; k < pairs.size(); ++k) (*served)[pairs[k]] = warm[k];
  *inputs_out = std::move(inputs);
  return out;
}

// ---------------------------------------------------------------------------
// stream_churn: a writer of seeded ingest batches beside a reader of
// stream_estimate, kStreamEstimatesPerBatch estimates per batch, in lock
// step: each read needs its batch acknowledged, and the writer runs at most
// kStreamMaxLag batches ahead of the reader.

struct StreamPlan {
  std::vector<Batch> batches;
  std::vector<Rect> live;  // what the stream holds after every batch
};

StreamPlan MakeStreamPlan(uint64_t seed, size_t batches) {
  StreamPlan plan;
  sjsel::Rng rng(seed);
  for (size_t i = 0; i < batches; ++i) {
    // Adds first, then removes of earlier adds: the order the server
    // applies a batch's `adds` and `removes` arrays in.
    Batch batch;
    std::vector<Rect> added;
    for (int k = 0; k < kAddsPerBatch; ++k) {
      const double w = rng.NextDouble(0.0005, 0.01);
      const double h = rng.NextDouble(0.0005, 0.01);
      const double x = rng.NextDouble(0.0, 1.0 - w);
      const double y = rng.NextDouble(0.0, 1.0 - h);
      added.emplace_back(x, y, x + w, y + h);
      batch.push_back({sjsel::stream::OpKind::kAdd, added.back()});
    }
    for (int k = 0; k < kRemovesPerBatch && !plan.live.empty(); ++k) {
      const size_t victim = rng.NextU64(plan.live.size());
      batch.push_back({sjsel::stream::OpKind::kRemove, plan.live[victim]});
      plan.live[victim] = plan.live.back();
      plan.live.pop_back();
    }
    plan.live.insert(plan.live.end(), added.begin(), added.end());
    plan.batches.push_back(std::move(batch));
  }
  return plan;
}

sjsel::stream::StreamOptions StreamOpts(size_t batches) {
  sjsel::stream::StreamOptions o;
  o.extent = kUnit;
  o.gh_level = kStreamLevel;
  o.ph_level = 5;
  o.seal_every = kSealEvery;
  // A multiple of the seal cadence, as the stream requires.
  o.checkpoint_every = static_cast<uint32_t>(std::max<size_t>(
      kSealEvery, batches / kCheckpointsPerRound / kSealEvery * kSealEvery));
  return o;
}

size_t StreamBatchesPerRound(const Options& opt) {
  // A multiple of the seal cadence, so the last snapshot covers every batch.
  const size_t unit = kSealEvery;
  const double want = opt.seconds * kIngestRate / kRounds;
  return std::max<size_t>(unit, static_cast<size_t>(want / unit) * unit);
}

/// Digest equality between the killed daemon's stream directory, reopened
/// with crash recovery, and a fresh in-process ingest of the same batches.
void CheckDurability(Ctx& ctx, const std::vector<Batch>& batches,
                     const sjsel::stream::StreamOptions& options) {
  auto reopened = sjsel::stream::StreamIngest::Open(kStreamDir);
  if (!reopened.ok()) {
    ctx.Fail("reopen stream: " + reopened.status().ToString());
    return;
  }
  const std::string fresh_dir = "stream-fresh";
  fs::remove_all(fresh_dir);
  sjsel::stream::StreamOptions fresh_options = options;
  fresh_options.fsync_always = false;  // durability is not under test here
  Status st = sjsel::stream::StreamIngest::Init(fresh_dir, fresh_options);
  auto fresh = st.ok() ? sjsel::stream::StreamIngest::Open(fresh_dir)
                       : Result<std::unique_ptr<sjsel::stream::StreamIngest>>(st);
  if (!fresh.ok()) {
    ctx.Fail("fresh stream: " + fresh.status().ToString());
    return;
  }
  for (const Batch& b : batches) {
    const auto applied = (*fresh)->Apply(b);
    if (!applied.ok()) {
      ctx.Fail("fresh apply: " + applied.status().ToString());
      return;
    }
  }
  const auto want = (*fresh)->StateDigest();
  const auto got = (*reopened)->StateDigest();
  if (!want.ok() || !got.ok() || *want != *got ||
      (*reopened)->seq() != batches.size()) {
    ctx.Fail("durability: recovered stream digest differs from a fresh "
             "ingest of the acknowledged batches");
  }
  fs::remove_all(fresh_dir);
}

RoundOut StreamRound(Ctx& ctx, const std::vector<Tracer*>& tracers,
                     int round, std::vector<Input>* inputs_out,
                     StreamPlan* plan_out) {
  RoundOut out;
  const size_t total = StreamBatchesPerRound(ctx.opt);
  const StreamPlan plan =
      MakeStreamPlan(MixSeed(ctx.opt.seed, 100 + round), total);
  const sjsel::stream::StreamOptions options = StreamOpts(total);
  const int64_t s0 = NowNs();
  fs::remove_all(kStreamDir);
  // The serving datasets are all in the catalog; the reader asks about SCRC.
  std::vector<Input> inputs = MakeInputs(ctx, ServingSet());
  const Input& b = inputs[kStreamB];
  Session session;
  const bool up = OpenSession(ctx, &session, 2, tracers, inputs);
  if (up) {
    Samples ignored;
    session.conns[0]->Request(
        [&] {
          return "{\"op\":\"ingest\",\"stream\":\"" + std::string(kStreamDir) +
                 "\",\"extent\":[0,0,1,1],\"level\":" +
                 std::to_string(options.gh_level) +
                 ",\"ph_level\":" + std::to_string(options.ph_level) +
                 ",\"seal_every\":" + std::to_string(options.seal_every) +
                 ",\"checkpoint_every\":" +
                 std::to_string(options.checkpoint_every) + "}";
        },
        &ignored, [](const JsonValue&) {});
    session.sent += 1;
  }
  out.setup_s = Seconds(s0);
  if (!up) return out;

  std::mutex mu;
  std::condition_variable cv;
  size_t acked = 0;
  size_t read = 0;
  const size_t reads = total * kStreamEstimatesPerBatch;
  const size_t begin = session.conns[0]->done_ns.size();
  // Both sample sets exist before the threads start: neither thread may
  // insert into the shared map.
  Samples* ingest_latency = &out.latency["ingest"];
  Samples* read_latency = &out.latency["stream_estimate"];
  session.conns[0]->ReserveSpans(4 * (total + 1));
  session.conns[1]->ReserveSpans(4 * (reads + 2));
  for (const auto& conn : session.conns) conn->SampleTraces(kTraceEvery);
  StartTimed(&session);
  const int64_t t0 = NowNs();
  std::thread writer([&] {
    Conn& conn = *session.conns[0];
    for (size_t i = 0; i < total; ++i) {
      {
        std::unique_lock<std::mutex> lock(mu);
        cv.wait(lock, [&] {
          return i < kStreamMaxLag ||
                 read >= (i - kStreamMaxLag) * kStreamEstimatesPerBatch;
        });
      }
      conn.Request([&] { return IngestLine(plan.batches[i]); },
                   ingest_latency, [&](const JsonValue& r) {
                     const JsonValue* seq = r.Find("seq");
                     if (seq == nullptr ||
                         seq->number_value() != static_cast<double>(i + 1)) {
                       ctx.Fail("ingest: wrong acknowledged seq");
                     }
                   });
      {
        std::lock_guard<std::mutex> lock(mu);
        acked = i + 1;
      }
      cv.notify_all();
    }
  });
  std::thread reader([&] {
    Conn& conn = *session.conns[1];
    for (size_t j = 0; j < reads; ++j) {
      {
        std::unique_lock<std::mutex> lock(mu);
        cv.wait(lock, [&] {
          return acked >= j / kStreamEstimatesPerBatch + 1;
        });
      }
      conn.Request([&] { return StreamEstimateLine(b.path); },
                   read_latency, [&](const JsonValue& r) {
                     const JsonValue* n = r.Find("stream_n");
                     const double sn = n != nullptr ? n->number_value() : 0.0;
                     CheckedPairs(ctx, r, sn, b.data.size(), "stream_estimate");
                   });
      {
        std::lock_guard<std::mutex> lock(mu);
        read = j + 1;
      }
      cv.notify_all();
    }
  });
  writer.join();
  reader.join();
  EndTimed(&session, &out);
  out.ops = total + reads;
  // The writer and reader move in lock step, so the writer's clock paces
  // both: each window of batches carries its reads too.
  out.rates = WindowRates(session.conns[0]->done_ns, begin, t0, kStreamWindow,
                          1 + kStreamEstimatesPerBatch);
  session.sent += out.ops;

  // The last seal covers every batch: its answer is judged against the
  // exact join of what the stream holds.
  Samples ignored;
  Dataset live("live", plan.live);
  session.conns[1]->Request(
      [&] { return StreamEstimateLine(b.path); }, &ignored,
      [&](const JsonValue& r) {
        const JsonValue* seq = r.Find("snapshot_seq");
        if (seq == nullptr || seq->number_value() != static_cast<double>(total)) {
          ctx.Fail("stream_estimate: last snapshot does not cover every batch");
        }
        const auto v = CheckedPairs(ctx, r, plan.live.size(), b.data.size(),
                                    "final stream_estimate");
        if (!v) return;
        sjsel::PbsmOptions po;
        po.threads = ctx.threads;
        out.error.Add(*v, static_cast<double>(
                              sjsel::PbsmJoinCount(live, b.data, po)));
      });
  session.sent += 1;
  CloseSession(ctx, &session, &out);  // SIGKILL: the durability drill
  CheckDurability(ctx, plan.batches, options);
  *inputs_out = std::move(inputs);
  *plan_out = plan;
  return out;
}

// ---------------------------------------------------------------------------
// offline_pipeline: load -> validate -> GH L10 + PH builds (threads = nproc)
// -> GH combine -> exact PBSM, in this process, like the CLI path.

RoundOut OfflineRound(Ctx& ctx, Tracer* tracer_in,
                      std::vector<Input>* inputs_out,
                      double* exact_out) {
  RoundOut out;
  const int64_t s0 = NowNs();
  std::vector<Input> inputs =
      MakeInputs(ctx, {PaperDataset::kTCB, PaperDataset::kTS});
  out.setup_s = Seconds(s0);
  const size_t passes = std::max<size_t>(
      2, static_cast<size_t>(std::llround(ctx.opt.seconds /
                                          kPipelinePassSeconds / kRounds)));
  sjsel::PbsmOptions pbsm;
  pbsm.threads = ctx.threads;
  tracer_in->Reserve(passes * (6 + kCombinesPerPass));
  Tracer off(false, 0);
  for (size_t p = 0; p < passes; ++p) {
    ctx.Attempt();
    const uint64_t id = p + 1;
    // Alternate passes are traced, as the serving workloads' requests are.
    Tracer* const tracer = id % kTraceEvery == 0 ? tracer_in : &off;
    // Each step runs inside its span and is timed inside it too; the pass
    // is timed outside the root span, so the difference is the runner's
    // glue plus the spans' own cost.
    int64_t inner_ns = 0;
    const auto step = [&](const char* name, const auto& f) {
      ScopedSpan span(tracer, name, id);
      const int64_t a = NowNs();
      const bool ok = f();
      inner_ns += NowNs() - a;
      return ok;
    };
    std::vector<Dataset> ds;
    std::vector<sjsel::GhHistogram> gh;
    double estimate = -1.0;
    double exact = 0.0;
    size_t root_index = 0;
    bool ok = true;
    const int64_t w0 = NowNs();
    {
      ScopedSpan root(tracer, "pass", id);
      root_index = root.index();
      ok = step("geom.load", [&] {
        for (const Input& in : inputs) {
          auto loaded = Dataset::Load(in.path);
          if (!loaded.ok()) {
            ctx.Fail("load: " + loaded.status().ToString());
            return false;
          }
          ds.push_back(std::move(loaded).value());
        }
        return true;
      });
      ok = ok && step("geom.validate", [&] {
        Rect extent = ds[0].ComputeExtent();
        extent.Extend(ds[1].ComputeExtent());
        for (Dataset& d : ds) {
          sjsel::RobustnessCounters counters;
          auto valid = sjsel::ValidateDataset(
              d, extent, sjsel::ValidationPolicy::kQuarantine, &counters);
          if (!valid.ok()) {
            ctx.Fail("validate: " + valid.status().ToString());
            return false;
          }
          d = std::move(valid).value();
        }
        return true;
      });
      ok = ok && step("core.gh_build", [&] {
        for (const Dataset& d : ds) {
          auto h = sjsel::GhHistogram::Build(d, kUnit, kOfflineLevel,
                                             sjsel::GhVariant::kRevised,
                                             ctx.threads);
          if (!h.ok()) {
            ctx.Fail("gh build: " + h.status().ToString());
            return false;
          }
          gh.push_back(std::move(h).value());
        }
        return true;
      });
      ok = ok && step("core.ph_build", [&] {
        for (const Dataset& d : ds) {
          auto h = sjsel::PhHistogram::Build(d, kUnit, kOfflineLevel,
                                             sjsel::PhVariant::kSplitCrossing,
                                             ctx.threads);
          if (!h.ok()) ctx.Fail("ph build: " + h.status().ToString());
        }
        return true;
      });
      for (int k = 0; ok && k < kCombinesPerPass; ++k) {
        ok = step("core.gh_combine", [&] {
          const int64_t c0 = NowNs();
          const auto e = sjsel::EstimateGhJoinPairs(gh[0], gh[1]);
          out.latency["estimate"].Add(UsBetween(c0, NowNs()));
          if (!e.ok()) {
            ctx.Fail("combine: " + e.status().ToString());
            return false;
          }
          estimate = *e;
          return true;
        });
      }
      ok = ok && step("join.exact", [&] {
        exact = static_cast<double>(sjsel::PbsmJoinCount(ds[0], ds[1], pbsm));
        return true;
      });
    }
    const int64_t w1 = NowNs();
    if (!ok) return out;
    tracer->SetWall(root_index, w1 - w0);
    out.client_us[tracer->enabled() ? 1 : 0].Add(
        UsBetween(0, w1 - w0 - inner_ns));
    const double seen = ctx.Observe(estimate);
    const double n1 = static_cast<double>(ds[0].size());
    const double n2 = static_cast<double>(ds[1].size());
    if (!std::isfinite(seen) || seen < 0.0 || seen > n1 * n2) {
      ctx.Fail("offline estimate " + Num(seen) + " outside [0, N1*N2]");
    }
    if (*exact_out >= 0.0 && exact != *exact_out) {
      ctx.Fail("offline exact count changed between passes");
    }
    *exact_out = exact;
    out.error.Add(seen, exact);
    out.rates.push_back((n1 + n2) / UsBetween(w0, w1) * 1e6);
    ++out.ops;
  }
  out.rss_mib = PeakRssMiB(::getpid());
  *inputs_out = std::move(inputs);
  return out;
}

// ---------------------------------------------------------------------------
// Reporting helpers.

/// Per op kind: the median and the highest of p90/p99/p999 that has ten
/// samples beyond it, each with its sample count.
void ReportLatencies(Ctx& ctx, const std::map<std::string, Samples>& latency) {
  for (const auto& [kind, s] : latency) {
    const std::string n = "n=" + std::to_string(s.n());
    if (const auto p50 = s.Percentile(0.5)) {
      ctx.report.Info(kind + "_p50_us", *p50, "us", n);
    }
    for (const auto& [q, label] :
         {std::pair<double, const char*>{0.999, "p999"}, {0.99, "p99"},
          {0.9, "p90"}}) {
      if (const auto v = s.Percentile(q)) {
        ctx.report.Info(kind + "_" + label + "_us", *v, "us", n);
        break;
      }
    }
  }
}

void ReportCounts(Ctx& ctx, const RoundOut& r, bool gate) {
  const auto count = [&](const std::string& key) {
    const auto it = r.counts.find(key);
    return it == r.counts.end() ? 0.0 : it->second;
  };
  const auto emit = [&](const std::string& name, double v,
                        const std::string& unit) {
    if (gate) {
      ctx.report.Gate(name, v, unit);
    } else {
      ctx.report.Info(name, v, unit, "last round");
    }
  };
  for (const char* key :
       {"hist.gh.builds", "hist.ph.builds", "server.catalog.estimate_hits",
        "server.catalog.estimate_misses", "server.catalog.dataset_hits",
        "server.catalog.dataset_misses", "server.queue_depth.max"}) {
    emit(key, count(key), "count");
  }
  emit("server.catalog.datasets_cached", count("health.datasets_cached"),
       "count");
  emit("server.catalog.estimates_cached", count("health.estimates_cached"),
       "count");
  const double eh = count("server.catalog.estimate_hits");
  const double em = count("server.catalog.estimate_misses");
  const double dh = count("server.catalog.dataset_hits");
  const double dm = count("server.catalog.dataset_misses");
  emit("server.catalog.estimate_hit_ratio", eh + em > 0 ? eh / (eh + em) : 0.0,
       "ratio");
  emit("server.catalog.dataset_hit_ratio", dh + dm > 0 ? dh / (dh + dm) : 0.0,
       "ratio");
  emit("core.gh_builds_per_request",
       r.requests_sent > 0
           ? count("hist.gh.builds") / static_cast<double>(r.requests_sent)
           : 0.0,
       "count");
}

/// `throughput` is the run's rate; the others derive theirs from `p`.
void ReportEndToEnd(Ctx& ctx, const Pooled& p, const char* estimate_kind,
                    double throughput) {
  ctx.report.Gate("setup_s", MedianOf(p.setup), "s");
  ctx.report.Gate("throughput_per_s", throughput, "1/s");
  const auto it = p.latency.find(estimate_kind);
  const std::optional<double> p50 =
      it == p.latency.end() ? std::nullopt : it->second.Percentile(0.5);
  if (!p50) ctx.Fail(std::string("too few ") + estimate_kind + " samples");
  ctx.report.Gate("estimate_p50_us", p50.value_or(0.0), "us");
  ctx.report.Gate("peak_rss_mb", MedianOf(p.rss), "MiB");
  ReportLatencies(ctx, p.latency);
}

/// Median window rate (hot_estimate, stream_churn, offline_pipeline).
double WindowRate(Ctx& ctx, const Pooled& p) {
  ctx.report.Text("throughput_windows", std::to_string(p.rates.size()));
  return MedianOf(p.rates);
}

/// The gh_rel_error gate, in traced and untraced runs alike. Workloads
/// with no exact counts (hot_estimate) have nothing to judge.
void GateError(Ctx& ctx, const ErrorSum& error) {
  if (error.exact <= 0.0) return;
  const double err = error.Ratio();
  ctx.report.Info("gh_rel_error", err, "ratio",
                  "ceiling " + Num(kGhRelErrorCeiling));
  if (!(err <= kGhRelErrorCeiling)) {
    ctx.Fail("gh_rel_error " + Num(err) + " above ceiling " +
             Num(kGhRelErrorCeiling));
  }
}

// ---------------------------------------------------------------------------
// Traced run: the layer sweep. Each call is timed from outside around the
// module's public function, replayed here on the workload's own inputs.

struct SweepSpec {
  std::vector<const Input*> files;
  std::vector<Pair> pairs;  // ordered pairs the workload estimates
  int level = 7;            // GH build regime of the workload
  int ph_level = 5;
  int threads = 1;
  std::vector<Batch> batches;  // stream batches to replay
  size_t b_index = 0;          // dataset the stream reader estimates against
};

/// Times layer calls from outside: each timing is one traced request whose
/// root span, named after the layer, wraps the calls, and whose latency is
/// read on the clock outside it.
class LayerTimer {
 public:
  explicit LayerTimer(Tracer* tracer) : tracer_(tracer) {}

  /// Microseconds per call of `inner` back-to-back calls of `f`.
  template <typename F>
  double Us(const char* name, F&& f, int inner = 1) {
    const uint64_t id = ++next_request_;
    size_t index = 0;
    const int64_t w0 = NowNs();
    {
      ScopedSpan span(tracer_, name, id);
      index = span.index();
      for (int i = 0; i < inner; ++i) f();
    }
    const int64_t w1 = NowNs();
    tracer_->SetWall(index, w1 - w0);
    return UsBetween(w0, w1) / inner;
  }

  /// Median of `reps` timings, each over `inner` calls.
  template <typename F>
  double MedianUs(const char* name, int reps, int inner, F&& f) {
    std::vector<double> v;
    for (int r = 0; r < reps; ++r) v.push_back(Us(name, f, inner));
    return MedianOf(std::move(v));
  }

 private:
  Tracer* tracer_;
  uint64_t next_request_ = 1ULL << 56;
};

/// Span ids of the sweep's tracer start here, apart from the rounds'.
constexpr uint64_t kSweepSpanBase = 1ULL << 52;

void Sweep(Ctx& ctx, const SweepSpec& spec, Tracer* tracer) {
  Report& rep = ctx.report;
  tracer->Reserve(4096);
  LayerTimer timer(tracer);
  const auto& files = spec.files;
  std::vector<double> load, validate, gh_build, ph_build;
  std::vector<sjsel::GhHistogram> gh;
  for (const Input* in : files) {
    for (int r = 0; r < 3; ++r) {
      load.push_back(timer.Us("geom.load", [&] {
        if (!Dataset::Load(in->path).ok()) ctx.Fail("load " + in->path);
      }));
      validate.push_back(timer.Us("geom.validate", [&] {
        sjsel::RobustnessCounters c;
        sjsel::ValidateDataset(in->data, kUnit,
                               sjsel::ValidationPolicy::kQuarantine, &c);
      }));
    }
    std::optional<sjsel::GhHistogram> built;
    for (int r = 0; r < 3; ++r) {
      gh_build.push_back(timer.Us("core.gh_build", [&] {
        auto h = sjsel::GhHistogram::Build(in->data, kUnit, spec.level,
                                           sjsel::GhVariant::kRevised,
                                           spec.threads);
        if (h.ok()) built = std::move(h).value();
      }));
      ph_build.push_back(timer.Us("core.ph_build", [&] {
        sjsel::PhHistogram::Build(in->data, kUnit, spec.ph_level,
                                  sjsel::PhVariant::kSplitCrossing,
                                  spec.threads);
      }));
    }
    gh.push_back(std::move(*built));
  }
  rep.Gate("geom.load_us", MedianOf(load), "us");
  rep.Gate("geom.validate_us", MedianOf(validate), "us");
  rep.Gate("core.gh_build_us", MedianOf(gh_build), "us");
  rep.Text("core.gh_build", "level=" + std::to_string(spec.level) +
                                " threads=" + std::to_string(spec.threads));
  rep.Gate("core.ph_build_us", MedianOf(ph_build), "us");

  std::vector<double> combine, guarded;
  const sjsel::GuardedEstimator estimator;
  for (const Pair& p : spec.pairs) {
    combine.push_back(timer.Us("core.gh_combine", [&] {
      sjsel::EstimateGhJoinPairs(gh[p.first], gh[p.second]);
    }));
    guarded.push_back(timer.Us("core.guarded_estimate", [&] {
      estimator.Estimate(files[p.first]->data, files[p.second]->data);
    }));
  }
  rep.Gate("core.gh_combine_us", MedianOf(combine), "us");
  rep.Gate("core.guarded_estimate_us", MedianOf(guarded), "us");

  std::vector<double> plan;
  const size_t width = std::min<size_t>(4, files.size());
  for (size_t w = 0; w + width <= files.size(); ++w) {
    std::vector<sjsel::PlannerInput> in;
    for (size_t k = w; k < w + width; ++k) {
      in.push_back({files[k]->path, &files[k]->data});
    }
    plan.push_back(timer.Us("planner.plan", [&] { sjsel::PlanMultiJoin(in); }));
  }
  rep.Gate("planner.plan_us", MedianOf(plan), "us");

  // Exact join per distinct unordered pair, and the pool's speed-up on the
  // first pair: (GH builds + PBSM at 1 thread) / (the same at nproc).
  std::vector<double> exact;
  std::map<Pair, bool> seen;
  sjsel::PbsmOptions po;
  po.threads = spec.threads;
  for (const Pair& p : spec.pairs) {
    const Pair key(std::min(p.first, p.second), std::max(p.first, p.second));
    if (!seen.emplace(key, true).second) continue;
    exact.push_back(timer.Us("join.exact", [&] {
      sjsel::PbsmJoinCount(files[key.first]->data, files[key.second]->data,
                           po);
    }));
  }
  rep.Gate("join.exact_us", MedianOf(exact), "us");
  const auto pipeline_us = [&](int threads) {
    const Dataset& a = files[spec.pairs[0].first]->data;
    const Dataset& b = files[spec.pairs[0].second]->data;
    sjsel::PbsmOptions o;
    o.threads = threads;
    const char* name = threads == 1 ? "util.pipeline_t1" : "util.pipeline_tn";
    return timer.Us(name, [&] {
      sjsel::GhHistogram::Build(a, kUnit, spec.level,
                                sjsel::GhVariant::kRevised, threads);
      sjsel::GhHistogram::Build(b, kUnit, spec.level,
                                sjsel::GhVariant::kRevised, threads);
      sjsel::PbsmJoinCount(a, b, o);
    });
  };
  const double t1 = MedianOf({pipeline_us(1), pipeline_us(1), pipeline_us(1)});
  const double tn = MedianOf({pipeline_us(ctx.threads), pipeline_us(ctx.threads),
                              pipeline_us(ctx.threads)});
  rep.Gate("util.pool_speedup", tn > 0 ? t1 / tn : 0.0, "ratio");
  rep.Text("util.pool_speedup", "threads=" + std::to_string(ctx.threads));

  // Stream layer: the batches replayed into a fresh in-process stream with
  // the server's flush policy (fdatasync per batch).
  {
    const std::string dir = "stream-sweep";
    fs::remove_all(dir);
    std::vector<double> apply;
    double wal_bytes = 0.0;
    double rects = 0.0;
    if (sjsel::stream::StreamIngest::Init(dir, StreamOpts(spec.batches.size()))
            .ok()) {
      auto ingest = sjsel::stream::StreamIngest::Open(dir);
      if (ingest.ok()) {
        for (const Batch& b : spec.batches) {
          const uint64_t before = (*ingest)->wal_bytes();
          apply.push_back(timer.Us("stream.apply", [&] {
            if (!(*ingest)->Apply(b).ok()) ctx.Fail("sweep apply");
          }));
          const uint64_t after = (*ingest)->wal_bytes();
          if (after > before) wal_bytes += static_cast<double>(after - before);
          rects += static_cast<double>(b.size());
        }
      }
    }
    fs::remove_all(dir);
    rep.Gate("stream.apply_us", MedianOf(apply), "us");
    rep.Gate("stream.wal_bytes_per_rect", rects > 0 ? wal_bytes / rects : 0.0,
             "B");
    const Dataset& b = files[spec.b_index]->data;
    std::vector<double> b_build;
    for (int r = 0; r < 5; ++r) {
      b_build.push_back(timer.Us("stream.b_build", [&] {
        sjsel::GhHistogram::Build(b, kUnit, kStreamLevel);
      }));
    }
    rep.Gate("stream.b_build_us", MedianOf(b_build), "us");
  }

  // Request path without the socket: parse, the per-request obs arm pair,
  // and an in-process HandleLine of a cached estimate; the socket round trip
  // of the same line on a real daemon minus HandleLine is the transport.
  const Input& a = *files[spec.pairs[0].first];
  const Input& b = *files[spec.pairs[0].second];
  const std::string line = EstimateLine(a.path, b.path);
  rep.Gate("server.parse_us",
           timer.MedianUs("server.parse", 25, 200,
                          [&] { sjsel::server::ParseRequest(line); }),
           "us");
  rep.Gate("obs.arm_us", timer.MedianUs("obs.arm", 25, 1000, [] {
             sjsel::obs::ScopedMetricsArm metrics_arm;
             sjsel::obs::ScopedTraceArm trace_arm;
           }),
           "us");
  sjsel::server::ServerOptions so;
  so.workers = kServerWorkers;
  sjsel::server::Server inproc(so);
  inproc.HandleLine(line);  // warm the in-process catalog
  const double handle_us = timer.MedianUs(
      "server.handle_line", 100, 20, [&] { inproc.HandleLine(line); });
  rep.Gate("server.handle_line_us", handle_us, "us");
  {
    Session session;
    Tracer off(false, 0);
    Samples miss;
    Samples call;
    if (OpenSession(ctx, &session, 1, {&off}, {})) {
      Conn& conn = *session.conns[0];
      conn.Request([&] { return line; }, &miss, [](const JsonValue&) {});
      for (int r = 0; r < 2000; ++r) {
        conn.Request([&] { return line; }, &call, [](const JsonValue&) {});
      }
    }
    RoundOut ignored;
    CloseSession(ctx, &session, &ignored);
    rep.Gate("server.transport_us", call.Median() - handle_us, "us");
  }

  // Cost of recording one span, on a tracer of its own.
  {
    Tracer probe(true, 0);
    probe.Reserve(5 * 10000);
    Tracer off(false, 0);
    LayerTimer probe_timer(&off);
    const double span_ns = 1e3 * probe_timer.MedianUs("probe", 5, 10000, [&] {
      ScopedSpan s(&probe, "probe", 1);
    });
    rep.Gate("trace.span_cost_ns", span_ns, "ns");
  }
}

/// Trace health over the traced run's spans, and the tracing overhead over
/// the traced round's requests (`all`).
void ReportTrace(Ctx& ctx, const std::vector<Span>& spans, const Pooled& all) {
  const SelfTimes st = AnalyzeSpans(spans);
  Report& rep = ctx.report;
  rep.Gate("trace.requests", static_cast<double>(st.requests), "count");
  rep.Gate("trace.sum_violations", static_cast<double>(st.sum_violations),
           "count");
  rep.Gate("trace.max_sum_error", st.max_sum_error, "ratio");
  rep.Info("trace.median_sum_error", st.median_sum_error, "ratio");
  rep.Text("trace.sum_tolerance",
           "max(" + Num(kSelfSumTolerance) + " of the outside-clock latency, " +
               Num(kSelfSumSlackUs) + " us) per request; the run fails when " +
               "more than " + Num(kMaxSumViolationShare) +
               " of requests are outside it");
  if (st.requests == 0 ||
      static_cast<double>(st.sum_violations) >
          kMaxSumViolationShare * static_cast<double>(st.requests)) {
    ctx.Fail("traced self times do not add up to the outside-clock latency "
             "for " + std::to_string(st.sum_violations) + " of " +
             std::to_string(st.requests) + " requests");
  }
  for (const auto& [name, s] : st.by_name) {
    rep.Info("self." + name + "_us", s.Median(), "us",
             "n=" + std::to_string(s.n()));
  }
  // The client's own share of a request: everything but the round trip.
  double client_self = 0.0;
  for (const char* name : {"request", "client.encode", "client.check",
                           "pass"}) {
    const auto it = st.by_name.find(name);
    if (it != st.by_name.end()) client_self += it->second.Median();
  }
  rep.Gate("trace.client_self_us", client_self, "us");
  // Overhead: client-side time (outside-clock latency minus the call or
  // the pass's steps, each timed inside its span) of the traced requests
  // minus that of the untraced ones, interleaved in the same round. It
  // holds every span's Begin/End cost and none of the server's time.
  const Samples& off = all.client_us[0];
  const Samples& on = all.client_us[1];
  if (off.n() == 0 || on.n() == 0) {
    ctx.Fail("tracing overhead: no traced or no untraced requests");
  }
  rep.Info("trace.client_us_untraced", off.Median(), "us",
           "n=" + std::to_string(off.n()));
  rep.Info("trace.client_us_traced", on.Median(), "us",
           "n=" + std::to_string(on.n()));
  rep.Gate("trace.overhead_us", on.Median() - off.Median(), "us");
}

void PrintMeta(Ctx& ctx, const char* load_shape) {
  std::string datasets;
  for (const auto& [name, rows] : ctx.rows) {
    if (!datasets.empty()) datasets += ",";
    datasets += "\"" + name + "\":" + std::to_string(rows);
  }
  std::printf(
      "meta {\"workload\":\"%s\",\"seed\":%llu,\"seconds\":%d,\"trace\":%d,"
      "\"scale\":%s,\"datasets\":{%s},\"cpu_model\":\"%s\","
      "\"hardware_threads\":%d,\"kernel_backend\":\"%s\","
      "\"compiler\":\"%s %s\",\"build_type\":\"%s\","
      "\"fsync_policy\":\"fdatasync per ingest batch (server default)\","
      "\"audit_rate\":0,\"server_workers\":%d,\"load\":\"%s\","
      "\"git_commit\":\"%s\",\"source_digest\":\"%s\"}\n",
      ctx.opt.workload.c_str(), static_cast<unsigned long long>(ctx.opt.seed),
      ctx.opt.seconds, ctx.opt.trace ? 1 : 0, Num(ctx.opt.scale).c_str(),
      datasets.c_str(), CpuModel().c_str(), ctx.threads, ctx.backend.c_str(),
      sjsel::BuildCompiler(), __VERSION__, PERFBENCH_BUILD_TYPE,
      kServerWorkers, load_shape, ctx.opt.git_commit.c_str(),
      ctx.opt.source_digest.c_str());
}

// ---------------------------------------------------------------------------
// Workloads.

/// The traced round's counts, the trace report over the round's and the
/// sweep's spans, and the span file. `all` gets the traced round too.
void ReportTraced(Ctx& ctx, const RoundOut& traced_round,
                  std::vector<Span> spans, const Tracer& sweep, Pooled* all) {
  all->Add(traced_round);
  ReportCounts(ctx, traced_round, true);
  spans.insert(spans.end(), sweep.spans().begin(), sweep.spans().end());
  ReportTrace(ctx, spans, *all);
  if (!WriteSpans(ctx.opt.trace_path, spans)) {
    ctx.Fail("cannot write " + ctx.opt.trace_path);
  }
}

std::vector<Span> Merged(const Tracer& a, const Tracer& b) {
  std::vector<Span> spans = a.spans();
  spans.insert(spans.end(), b.spans().begin(), b.spans().end());
  return spans;
}

SweepSpec ServingSpec(const std::vector<Input>& inputs) {
  SweepSpec spec;
  for (const Input& in : inputs) spec.files.push_back(&in);
  spec.pairs = OrderedPairs(inputs.size());
  spec.level = 7;
  spec.ph_level = 5;
  spec.threads = 1;
  spec.batches = MakeStreamPlan(1, 64).batches;
  spec.b_index = kStreamB;
  return spec;
}

// Each workload: untraced, kRounds rounds (cold_pairs: one per pass) give
// the end-to-end metrics; traced, one traced round, then the layer sweep.
// Both run every correctness check.

void RunColdPairs(Ctx& ctx) {
  const size_t n = ServingSet().size();
  std::vector<Pair> unordered;
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = i + 1; j < n; ++j) unordered.emplace_back(i, j);
  }
  sjsel::Rng rng(MixSeed(ctx.opt.seed, 7));
  Shuffle(&unordered, &rng);
  std::map<Pair, double> served;
  std::vector<Input> inputs;
  Pooled pooled;
  Tracer off(false, 0);
  const int rounds = ctx.opt.trace
                         ? 0
                         : std::max(kRounds, static_cast<int>(std::llround(
                                                 ctx.opt.seconds /
                                                 kColdPassSeconds)));
  RoundOut last;
  for (int r = 0; r < rounds; ++r) {
    last = ColdRound(ctx, &off, unordered, &inputs, &served);
    pooled.Add(last);
  }
  if (!ctx.opt.trace) {
    const double ops = static_cast<double>(last.ops);
    ctx.report.Text("throughput_chunks",
                    std::to_string(last.chunk_s.size()) + " per pass x " +
                        std::to_string(pooled.chunk_s.size()) + " passes");
    ReportEndToEnd(ctx, pooled, "estimate",
                   ChunkMedianRate(pooled.chunk_s, ops));
    ReportCounts(ctx, last, false);
  } else {
    Tracer on(true, 0);
    Tracer sweep(true, kSweepSpanBase);
    const RoundOut t = ColdRound(ctx, &on, unordered, &inputs, &served);
    Sweep(ctx, ServingSpec(inputs), &sweep);
    ReportTraced(ctx, t, on.spans(), sweep, &pooled);
  }
  CheckServedPairs(ctx, inputs, served, true, &pooled);
  GateError(ctx, pooled.error);
  PrintMeta(ctx, "closed loop, 1 connection");
}

void RunHotEstimate(Ctx& ctx) {
  std::map<Pair, double> served;
  std::vector<Input> inputs;
  Pooled pooled;
  Tracer off0(false, 0), off1(false, 0);
  const int rounds = ctx.opt.trace ? 0 : kRounds;
  RoundOut last;
  for (int r = 0; r < rounds; ++r) {
    last = HotRound(ctx, {&off0, &off1}, &inputs, &served);
    pooled.Add(last);
  }
  if (!ctx.opt.trace) {
    ReportEndToEnd(ctx, pooled, "estimate", WindowRate(ctx, pooled));
    ReportCounts(ctx, last, false);
  } else {
    Tracer on0(true, 0), on1(true, 1ULL << 48);
    Tracer sweep(true, kSweepSpanBase);
    const RoundOut t = HotRound(ctx, {&on0, &on1}, &inputs, &served);
    Sweep(ctx, ServingSpec(inputs), &sweep);
    ReportTraced(ctx, t, Merged(on0, on1), sweep, &pooled);
  }
  CheckServedPairs(ctx, inputs, served, false, &pooled);
  GateError(ctx, pooled.error);
  PrintMeta(ctx, "closed loop, 2 connections");
}

void RunStreamChurn(Ctx& ctx) {
  std::vector<Input> inputs;
  StreamPlan plan;
  Pooled pooled;
  Tracer off0(false, 0), off1(false, 0);
  const int rounds = ctx.opt.trace ? 0 : kRounds;
  RoundOut last;
  for (int r = 0; r < rounds; ++r) {
    last = StreamRound(ctx, {&off0, &off1}, r, &inputs, &plan);
    pooled.Add(last);
  }
  if (!ctx.opt.trace) {
    ReportEndToEnd(ctx, pooled, "stream_estimate", WindowRate(ctx, pooled));
    ReportCounts(ctx, last, false);
  } else {
    Tracer on0(true, 0), on1(true, 1ULL << 48);
    Tracer sweep(true, kSweepSpanBase);
    const RoundOut t = StreamRound(ctx, {&on0, &on1}, 0, &inputs, &plan);
    // The stream's live set is the second input of the sweep.
    Input live;
    live.name = "live";
    live.path = "live.ds";
    live.data = Dataset("live", plan.live);
    if (!live.data.Save(live.path).ok()) ctx.Fail("save live.ds");
    SweepSpec spec;
    spec.files = {&inputs[kStreamB], &live};
    spec.pairs = {{1, 0}, {0, 1}};
    spec.level = kStreamLevel;
    spec.ph_level = 5;
    spec.threads = 1;
    spec.batches.assign(plan.batches.begin(),
                        plan.batches.begin() +
                            std::min<size_t>(plan.batches.size(), 256));
    spec.b_index = 0;
    Sweep(ctx, spec, &sweep);
    ReportTraced(ctx, t, Merged(on0, on1), sweep, &pooled);
  }
  GateError(ctx, pooled.error);
  PrintMeta(ctx, "closed loop, 1 writer + 1 reader connection");
}

void RunOfflinePipeline(Ctx& ctx) {
  std::vector<Input> inputs;
  double exact = -1.0;
  Pooled pooled;
  Tracer off(false, 0);
  const int rounds = ctx.opt.trace ? 0 : kRounds;
  for (int r = 0; r < rounds; ++r) {
    pooled.Add(OfflineRound(ctx, &off, &inputs, &exact));
  }
  ctx.backend = sjsel::KernelBackendName(
      sjsel::GetKernelDispatchInfo().active);
  if (!ctx.opt.trace) {
    ReportEndToEnd(ctx, pooled, "estimate", WindowRate(ctx, pooled));
  } else {
    Tracer on(true, 0);
    Tracer sweep(true, kSweepSpanBase);
    RoundOut t;
    {
      // In-process counters for the traced round (no daemon here).
      sjsel::obs::ScopedMetricsArm arm;
      sjsel::obs::MetricsRegistry::Global().Reset();
      t = OfflineRound(ctx, &on, &inputs, &exact);
      auto& reg = sjsel::obs::MetricsRegistry::Global();
      t.counts["hist.gh.builds"] =
          static_cast<double>(reg.GetCounter("hist.gh.builds")->value());
      t.counts["hist.ph.builds"] =
          static_cast<double>(reg.GetCounter("hist.ph.builds")->value());
      t.requests_sent = t.ops;
    }
    SweepSpec spec;
    spec.files = {&inputs[0], &inputs[1]};
    spec.pairs = {{0, 1}, {1, 0}};
    spec.level = kOfflineLevel;
    spec.ph_level = kOfflineLevel;
    spec.threads = ctx.threads;
    spec.batches = MakeStreamPlan(1, 64).batches;
    spec.b_index = 1;
    Sweep(ctx, spec, &sweep);
    ReportTraced(ctx, t, on.spans(), sweep, &pooled);
  }
  GateError(ctx, pooled.error);
  PrintMeta(ctx, "one process, sequential passes");
}

}  // namespace

int RunBenchmark(const Options& options) {
  Ctx ctx(options);
  const std::map<std::string, void (*)(Ctx&)> workloads = {
      {"cold_pairs", RunColdPairs},
      {"hot_estimate", RunHotEstimate},
      {"stream_churn", RunStreamChurn},
      {"offline_pipeline", RunOfflinePipeline}};
  const auto it = workloads.find(options.workload);
  if (it == workloads.end()) {
    std::fprintf(stderr, "unknown workload '%s'\n", options.workload.c_str());
    return 2;
  }
  it->second(ctx);
  const double attempted = static_cast<double>(ctx.report.attempted());
  ctx.report.Info("failed_ratio",
                  attempted > 0
                      ? static_cast<double>(ctx.report.failed()) / attempted
                      : 0.0,
                  "ratio");
  const bool correct = ctx.report.failed() == 0;
  ctx.report.Print(correct);
  return correct ? 0 : 1;
}

}  // namespace perfbench
