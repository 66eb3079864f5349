#include "server/server.h"

#include <poll.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstring>
#include <utility>

#include "core/gh_histogram.h"
#include "core/kernels.h"
#include "core/sampling.h"
#include "join/plane_sweep.h"
#include "obs/explain.h"
#include "obs/log.h"
#include "stream/ingest.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "planner/join_planner.h"
#include "server/protocol.h"
#include "stats/dataset_stats.h"
#include "util/build_info.h"
#include "util/table.h"

namespace sjsel {
namespace server {
namespace {

int64_t SteadyNowMs() {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Writes the whole buffer, retrying on EINTR / partial writes. Returns
// false on any hard error (the peer hung up — nothing left to do).
// MSG_NOSIGNAL: a vanished client must surface as EPIPE, not kill the
// daemon with SIGPIPE.
bool WriteAll(int fd, const std::string& data) {
  size_t off = 0;
  while (off < data.size()) {
    const ssize_t n =
        ::send(fd, data.data() + off, data.size() - off, MSG_NOSIGNAL);
    if (n > 0) {
      off += static_cast<size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    return false;
  }
  return true;
}

bool SendResponseLine(int fd, const std::string& response) {
  return WriteAll(fd, response + "\n");
}

// Tracks the request's dispatch deadline (docs/SERVER.md: the budget
// covers queueing and parsing; compute is not preempted).
struct Deadline {
  int64_t start_ms = 0;
  double limit_ms = 0.0;
  bool armed = false;

  bool Expired() const {
    return armed &&
           static_cast<double>(SteadyNowMs() - start_ms) >= limit_ms;
  }
};

void CountFailure(const std::string& code) {
  SJSEL_METRIC_INC(std::string("server.requests.failed.") + code);
}

}  // namespace

Server::Server(ServerOptions options)
    : options_(std::move(options)),
      catalog_(options_.estimator),
      slowlog_(options_.slowlog_capacity),
      start_time_(std::chrono::steady_clock::now()) {
  if (options_.workers < 1) options_.workers = 1;
  if (options_.max_queue < 0) options_.max_queue = 0;
  if (options_.audit_rate > 0.0) {
    // Deterministic 1-in-N selection, N = round(1 / rate) — the first
    // candidate is always audited, so rate=1 audits everything.
    const double rate = std::min(1.0, options_.audit_rate);
    audit_every_ = static_cast<uint64_t>(std::llround(1.0 / rate));
    if (audit_every_ < 1) audit_every_ = 1;
  }
}

Server::~Server() { Stop(); }

Status Server::Start() {
  if (started_) return Status::FailedPrecondition("server already started");
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (options_.socket_path.empty() ||
      options_.socket_path.size() >= sizeof(addr.sun_path)) {
    return Status::InvalidArgument("bad socket path (empty or longer than " +
                                   std::to_string(sizeof(addr.sun_path) - 1) +
                                   " bytes)");
  }
  std::memcpy(addr.sun_path, options_.socket_path.c_str(),
              options_.socket_path.size() + 1);

  // A stale socket left by a crashed daemon is safe to replace; refuse to
  // clobber anything that is not a socket.
  struct stat st;
  if (::lstat(options_.socket_path.c_str(), &st) == 0) {
    if (!S_ISSOCK(st.st_mode)) {
      return Status::AlreadyExists(options_.socket_path +
                                   " exists and is not a socket");
    }
    ::unlink(options_.socket_path.c_str());
  }

  listen_fd_ = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (listen_fd_ < 0) {
    return Status::IoError(std::string("socket: ") + std::strerror(errno));
  }
  if (::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&addr),
             sizeof(addr)) != 0) {
    const std::string msg = std::strerror(errno);
    ::close(listen_fd_);
    listen_fd_ = -1;
    return Status::IoError("bind " + options_.socket_path + ": " + msg);
  }
  if (::listen(listen_fd_, 128) != 0) {
    const std::string msg = std::strerror(errno);
    ::close(listen_fd_);
    listen_fd_ = -1;
    ::unlink(options_.socket_path.c_str());
    return Status::IoError("listen: " + msg);
  }

  started_ = true;
  joined_ = false;
  start_time_ = std::chrono::steady_clock::now();
  stop_requested_.store(false, std::memory_order_release);
  accept_thread_ = std::thread([this] { AcceptLoop(); });
  workers_.reserve(static_cast<size_t>(options_.workers));
  for (int i = 0; i < options_.workers; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
  return Status::OK();
}

void Server::RequestStop() {
  stop_requested_.store(true, std::memory_order_release);
  queue_cv_.notify_all();
}

void Server::Stop() {
  if (!started_ || joined_) return;
  RequestStop();
  if (accept_thread_.joinable()) accept_thread_.join();
  for (std::thread& worker : workers_) {
    if (worker.joinable()) worker.join();
  }
  workers_.clear();
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  ::unlink(options_.socket_path.c_str());
  joined_ = true;
}

void Server::WaitForStopRequest() {
  std::unique_lock<std::mutex> lock(queue_mu_);
  queue_cv_.wait(lock, [this] { return stop_requested(); });
}

void Server::AcceptLoop() {
  while (!stop_requested()) {
    pollfd pfd{listen_fd_, POLLIN, 0};
    const int ready = ::poll(&pfd, 1, 100);
    if (ready <= 0) continue;  // timeout, EINTR — re-check the stop flag
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) continue;
    obs::ScopedMetricsArm metrics_arm;
    SJSEL_METRIC_INC("server.connections.accepted");
    std::unique_lock<std::mutex> lock(queue_mu_);
    const size_t queue_depth = pending_fds_.size();
    if (queue_depth >= static_cast<size_t>(options_.max_queue)) {
      lock.unlock();
      // Admission control: reject now rather than queue without bound.
      SJSEL_METRIC_INC("server.requests.rejected.overloaded");
      SJSEL_LOG_WARN("server.overloaded",
                     obs::LogFields()
                         .Uint("queue_depth", queue_depth)
                         .Int("queue_cap", options_.max_queue));
      SendResponseLine(fd, ErrorResponse(JsonValue::Null(), kErrOverloaded,
                                         "admission queue full"));
      ::close(fd);
      continue;
    }
    SJSEL_METRIC_GAUGE_MAX("server.queue_depth.max",
                           pending_fds_.size() + 1);
    pending_fds_.push_back(fd);
    lock.unlock();
    queue_cv_.notify_one();
  }
}

void Server::WorkerLoop() {
  while (true) {
    int fd = -1;
    {
      std::unique_lock<std::mutex> lock(queue_mu_);
      queue_cv_.wait(lock, [this] {
        return stop_requested() || !pending_fds_.empty();
      });
      // Graceful drain: queued connections are still served after a stop
      // request; the worker exits only once the queue is empty.
      if (pending_fds_.empty()) return;
      fd = pending_fds_.front();
      pending_fds_.pop_front();
    }
    ServeConnection(fd);
  }
}

void Server::ServeConnection(int fd) {
  SJSEL_TRACE_SPAN("server.connection");
  std::string buffer;
  bool open = true;
  while (open) {
    // Serve every complete line already buffered.
    size_t newline;
    while (open && (newline = buffer.find('\n')) != std::string::npos) {
      const std::string line = buffer.substr(0, newline);
      buffer.erase(0, newline + 1);
      if (line.empty()) continue;
      open = SendResponseLine(fd, HandleLine(line));
    }
    if (!open || stop_requested()) break;
    if (buffer.size() > options_.max_line_bytes) {
      obs::ScopedMetricsArm metrics_arm;
      CountFailure(kErrBadRequest);
      SendResponseLine(fd, ErrorResponse(JsonValue::Null(), kErrBadRequest,
                                         "request line too long"));
      break;
    }
    pollfd pfd{fd, POLLIN, 0};
    const int ready = ::poll(&pfd, 1, 100);
    if (ready < 0 && errno != EINTR) break;
    if (ready <= 0) continue;  // timeout — re-check the stop flag
    char chunk[4096];
    const ssize_t n = ::read(fd, chunk, sizeof(chunk));
    if (n == 0) break;  // EOF
    if (n < 0) {
      if (errno == EINTR) continue;
      break;
    }
    buffer.append(chunk, static_cast<size_t>(n));
  }
  ::close(fd);
  obs::ScopedMetricsArm metrics_arm;
  SJSEL_METRIC_INC("server.connections.closed");
}

std::string Server::GenerateRequestId() {
  return "srv-" + std::to_string(static_cast<long long>(::getpid())) + "-" +
         std::to_string(
             next_request_seq_.fetch_add(1, std::memory_order_relaxed));
}

uint64_t Server::uptime_seconds() const {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::seconds>(
          std::chrono::steady_clock::now() - start_time_)
          .count());
}

bool Server::ShouldAudit() {
  if (audit_every_ == 0) return false;
  return audit_seq_.fetch_add(1, std::memory_order_relaxed) % audit_every_ ==
         0;
}

std::string Server::HandleLine(const std::string& line) {
  // Observability is armed for the duration of this request only; values
  // aggregate across requests in the global registry.
  obs::ScopedMetricsArm metrics_arm;
  obs::ScopedTraceArm trace_arm;
  SJSEL_METRIC_INC("server.requests.received");
  const auto start = std::chrono::steady_clock::now();

  Deadline deadline;
  deadline.start_ms = SteadyNowMs();
  requests_served_.fetch_add(1, std::memory_order_relaxed);

  std::string request_id;
  std::string op;
  std::string note;
  std::string response;
  {
    auto parsed = ParseRequest(line);
    if (!parsed.ok()) {
      CountFailure(kErrBadRequest);
      request_id = GenerateRequestId();
      note = std::string("error:") + kErrBadRequest;
      response = ErrorResponse(JsonValue::Null(), kErrBadRequest,
                               parsed.status().message(), request_id);
    } else {
      Request& req = *parsed;
      if (req.request_id.empty()) req.request_id = GenerateRequestId();
      request_id = req.request_id;
      op = req.op;
      // The span detail carries the correlation id, so one grep joins the
      // trace file with the response and the log (docs/OBSERVABILITY.md
      // "Request correlation"). The span closes before the latency is
      // recorded below, keeping trace and histogram consistent.
      SJSEL_TRACE_SPAN("server.request", "request_id=%s op=%s",
                       req.request_id.c_str(), req.op.c_str());
      deadline.limit_ms = req.deadline_ms;
      deadline.armed = req.has_deadline;
      // Pure-observability ops stay answerable while draining: a stopping
      // server is precisely when scraping health/metrics/slowlog matters.
      const bool drain_ok = req.op == "shutdown" || req.op == "ping" ||
                            req.op == "health" || req.op == "metrics" ||
                            req.op == "slowlog";
      if (stop_requested() && !drain_ok) {
        CountFailure(kErrShuttingDown);
        note = std::string("error:") + kErrShuttingDown;
        response = ErrorResponse(req.id, kErrShuttingDown,
                                 "server is shutting down", req.request_id);
      } else if (deadline.Expired()) {
        CountFailure(kErrDeadline);
        note = std::string("error:") + kErrDeadline;
        response = ErrorResponse(req.id, kErrDeadline,
                                 "deadline exceeded before dispatch",
                                 req.request_id);
      } else {
        response = Dispatch(req, &note);
      }
    }
  }

  const uint64_t latency_us = static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - start)
          .count());
  obs::RecordLatencyMicros(
      obs::MetricsRegistry::Global().GetHistogram("server.request_us"),
      latency_us);
  const bool ok = note.rfind("error:", 0) != 0;
  obs::SlowRequestEntry entry;
  entry.request_id = request_id;
  entry.op = op;
  entry.latency_us = latency_us;
  entry.ok = ok;
  entry.note = note;
  slowlog_.Record(std::move(entry));
  SJSEL_METRIC_INC("server.slowlog.recorded");
  SJSEL_LOG_DEBUG("server.request", obs::LogFields()
                                        .Str("request_id", request_id)
                                        .Str("op", op)
                                        .Uint("latency_us", latency_us)
                                        .Bool("ok", ok)
                                        .Str("note", note));
  return response;
}

std::string Server::Dispatch(const Request& req, std::string* note) {
  const auto fail = [&](const char* code,
                        const std::string& message) -> std::string {
    CountFailure(code);
    *note = std::string("error:") + code;
    return ErrorResponse(req.id, code, message, req.request_id);
  };
  const auto fail_status = [&](const Status& status) -> std::string {
    return fail(ErrorCodeForStatus(status), status.message());
  };
  const auto answered = [&](JsonValue result) -> std::string {
    SJSEL_METRIC_INC("server.requests.answered");
    return OkResponse(req.id, std::move(result), req.request_id);
  };

  if (req.op == "ping") {
    return answered(JsonValue::Object().Set("pong", JsonValue::Bool(true)));
  }

  if (req.op == "shutdown") {
    RequestStop();
    return answered(
        JsonValue::Object().Set("stopping", JsonValue::Bool(true)));
  }

  if (req.op == "estimate") {
    SJSEL_TRACE_SPAN("server.op.estimate");
    if (req.a.empty() || req.b.empty()) {
      return fail(kErrBadRequest, "estimate needs 'a' and 'b' paths");
    }
    const auto result = catalog_.Estimate(req.a, req.b);
    if (!result.ok()) return fail_status(result.status());
    const EstimateResult& est = *result;
    *note = std::string("rung=") + EstimatorRungName(est.rung);
    if (!est.degradation_reason.empty()) {
      *note += " degraded";
      SJSEL_LOG_WARN("estimator.degraded",
                     obs::LogFields()
                         .Str("request_id", req.request_id)
                         .Str("a", req.a)
                         .Str("b", req.b)
                         .Str("rung", EstimatorRungName(est.rung))
                         .Str("reason", est.degradation_reason));
    }
    if (ShouldAudit()) {
      // The datasets are already cached by the estimate above, so these
      // lookups cannot re-do the load.
      const auto da = catalog_.GetDataset(req.a);
      const auto db = catalog_.GetDataset(req.b);
      if (da.ok() && db.ok()) {
        AuditEstimate(req, **da, **db, est.outcome.estimated_pairs);
      }
    }
    JsonValue out = JsonValue::Object();
    out.Set("estimated_pairs", JsonValue::Number(est.outcome.estimated_pairs));
    out.Set("estimated_pairs_text",
            JsonValue::String(FormatDouble(est.outcome.estimated_pairs, 1)));
    out.Set("selectivity", JsonValue::Number(est.outcome.selectivity));
    out.Set("selectivity_text",
            JsonValue::String(FormatDouble(est.outcome.selectivity, 6)));
    out.Set("rung", JsonValue::String(EstimatorRungName(est.rung)));
    out.Set("rung_label", JsonValue::String(est.rung_label));
    out.Set("degradation_reason", JsonValue::String(est.degradation_reason));
    out.Set("clamped", JsonValue::Bool(est.clamped));
    out.Set("validation_a", JsonValue::String(est.validation_a.ToString()));
    out.Set("validation_b", JsonValue::String(est.validation_b.ToString()));
    return answered(std::move(out));
  }

  if (req.op == "explain") {
    SJSEL_TRACE_SPAN("server.op.explain");
    if (req.a.empty() || req.b.empty()) {
      return fail(kErrBadRequest, "explain needs 'a' and 'b' paths");
    }
    obs::ExplainOptions options;
    if (req.scheme == "gh") {
      options.scheme = obs::ExplainScheme::kGh;
    } else if (req.scheme == "ph") {
      options.scheme = obs::ExplainScheme::kPh;
    } else {
      return fail(kErrBadRequest, "unknown scheme '" + req.scheme + "'");
    }
    options.level = req.level;
    options.top_k = req.top;
    options.with_exact = req.exact;
    options.guarded = options_.estimator;
    const auto a = catalog_.GetDataset(req.a);
    if (!a.ok()) return fail_status(a.status());
    const auto b = catalog_.GetDataset(req.b);
    if (!b.ok()) return fail_status(b.status());
    const auto report = obs::BuildEstimateExplain(**a, **b, options);
    if (!report.ok()) return fail_status(report.status());
    // The explain renderer already emits deterministic JSON; parse it so
    // the report nests as an object instead of an escaped string.
    auto report_json = JsonValue::Parse(obs::RenderExplainJson(*report));
    if (!report_json.ok()) return fail_status(report_json.status());
    return answered(JsonValue::Object().Set("report",
                                            std::move(report_json).value()));
  }

  if (req.op == "stats") {
    SJSEL_TRACE_SPAN("server.op.stats");
    if (!req.path.empty()) {
      const auto ds = catalog_.GetDataset(req.path);
      if (!ds.ok()) return fail_status(ds.status());
      const Rect extent = (*ds)->ComputeExtent();
      const DatasetStats stats = DatasetStats::Compute(**ds, extent);
      JsonValue out = JsonValue::Object();
      out.Set("name", JsonValue::String((*ds)->name()));
      out.Set("n", JsonValue::Int(static_cast<long long>(stats.n)));
      out.Set("coverage", JsonValue::Number(stats.coverage));
      out.Set("avg_width", JsonValue::Number(stats.avg_width));
      out.Set("avg_height", JsonValue::Number(stats.avg_height));
      out.Set("extent_area", JsonValue::Number(stats.extent_area));
      return answered(std::move(out));
    }
    // Without a path: the server's own lifetime statistics — the metrics
    // snapshot aggregated over every request served so far, plus the
    // kernel dispatch decision every estimate this daemon computes runs
    // with (docs/ARCHITECTURE.md, "Data-level parallelism").
    auto metrics = JsonValue::Parse(
        obs::MetricsRegistry::Global().SnapshotJson());
    if (!metrics.ok()) return fail_status(metrics.status());
    JsonValue out = JsonValue::Object();
    out.Set("requests_served",
            JsonValue::Int(static_cast<long long>(requests_served())));
    out.Set("uptime_s",
            JsonValue::Int(static_cast<long long>(uptime_seconds())));
    out.Set("version", JsonValue::String(kSjselVersion));
    out.Set("compiler", JsonValue::String(BuildCompiler()));
    const KernelDispatchInfo dispatch = GetKernelDispatchInfo();
    out.Set("kernel_backend",
            JsonValue::String(KernelBackendName(dispatch.active)));
    out.Set("kernel_dispatch", JsonValue::String(dispatch.source));
    out.Set("kernel_detected",
            JsonValue::String(KernelBackendName(dispatch.detected)));
    out.Set("metrics", std::move(metrics).value());
    return answered(std::move(out));
  }

  if (req.op == "metrics") {
    SJSEL_TRACE_SPAN("server.op.metrics");
    // Both renderings of the same registry state: `openmetrics` is the
    // scrape-ready exposition text, `snapshot` the structured view.
    auto& registry = obs::MetricsRegistry::Global();
    auto snapshot = JsonValue::Parse(registry.SnapshotJson());
    if (!snapshot.ok()) return fail_status(snapshot.status());
    JsonValue out = JsonValue::Object();
    out.Set("openmetrics", JsonValue::String(registry.SnapshotOpenMetrics()));
    out.Set("snapshot", std::move(snapshot).value());
    return answered(std::move(out));
  }

  if (req.op == "health") {
    SJSEL_TRACE_SPAN("server.op.health");
    const ServerCatalog::CacheStats cache = catalog_.Stats();
    size_t queue_depth = 0;
    {
      std::lock_guard<std::mutex> lock(queue_mu_);
      queue_depth = pending_fds_.size();
    }
    const bool draining = stop_requested();
    const KernelDispatchInfo dispatch = GetKernelDispatchInfo();
    JsonValue out = JsonValue::Object();
    out.Set("status", JsonValue::String(draining ? "draining" : "ok"));
    out.Set("ready", JsonValue::Bool(!draining));
    out.Set("uptime_s",
            JsonValue::Int(static_cast<long long>(uptime_seconds())));
    out.Set("version", JsonValue::String(kSjselVersion));
    out.Set("compiler", JsonValue::String(BuildCompiler()));
    out.Set("kernel_backend",
            JsonValue::String(KernelBackendName(dispatch.active)));
    out.Set("workers", JsonValue::Int(options_.workers));
    out.Set("queue_depth", JsonValue::Int(static_cast<long long>(queue_depth)));
    out.Set("queue_cap", JsonValue::Int(options_.max_queue));
    out.Set("datasets_cached",
            JsonValue::Int(static_cast<long long>(cache.datasets)));
    out.Set("estimates_cached",
            JsonValue::Int(static_cast<long long>(cache.estimates)));
    out.Set("histograms_cached",
            JsonValue::Int(static_cast<long long>(cache.histograms)));
    out.Set("histogram_bytes",
            JsonValue::Int(static_cast<long long>(cache.histogram_bytes)));
    out.Set("streams_open",
            JsonValue::Int(static_cast<long long>(cache.streams)));
    out.Set("streams_poisoned",
            JsonValue::Int(static_cast<long long>(cache.poisoned_streams)));
    out.Set("requests_served",
            JsonValue::Int(static_cast<long long>(requests_served())));
    out.Set("audit_rate", JsonValue::Number(options_.audit_rate));
    return answered(std::move(out));
  }

  if (req.op == "slowlog") {
    SJSEL_TRACE_SPAN("server.op.slowlog");
    const std::vector<obs::SlowRequestEntry> entries = slowlog_.Snapshot();
    const size_t limit =
        req.top > 0 ? std::min(entries.size(), static_cast<size_t>(req.top))
                    : entries.size();
    JsonValue arr = JsonValue::Array();
    for (size_t i = 0; i < limit; ++i) {
      const obs::SlowRequestEntry& e = entries[i];
      arr.Append(
          JsonValue::Object()
              .Set("request_id", JsonValue::String(e.request_id))
              .Set("op", JsonValue::String(e.op))
              .Set("latency_us",
                   JsonValue::Int(static_cast<long long>(e.latency_us)))
              .Set("ok", JsonValue::Bool(e.ok))
              .Set("note", JsonValue::String(e.note)));
    }
    JsonValue out = JsonValue::Object();
    out.Set("entries", std::move(arr));
    out.Set("capacity",
            JsonValue::Int(static_cast<long long>(slowlog_.capacity())));
    out.Set("recorded",
            JsonValue::Int(static_cast<long long>(slowlog_.recorded())));
    return answered(std::move(out));
  }

  if (req.op == "plan") {
    SJSEL_TRACE_SPAN("server.op.plan");
    if (req.paths.size() < 2) {
      return fail(kErrBadRequest, "plan needs a 'paths' array of >= 2");
    }
    std::vector<std::shared_ptr<const Dataset>> keep_alive;
    std::vector<PlannerInput> inputs;
    for (const std::string& path : req.paths) {
      const auto ds = catalog_.GetDataset(path);
      if (!ds.ok()) return fail_status(ds.status());
      keep_alive.push_back(*ds);
      inputs.push_back(PlannerInput{path, keep_alive.back().get()});
    }
    const Status valid = ValidatePlannerInputs(inputs);
    if (!valid.ok()) return fail_status(valid);
    // Pair estimates come from the catalog's estimate cache, the one
    // `estimate` reads and fills, so a pair is built at most once per
    // server whichever op asks for it first.
    std::vector<EstimateResult> estimates;
    for (size_t i = 0; i < inputs.size(); ++i) {
      for (size_t j = i + 1; j < inputs.size(); ++j) {
        auto est = catalog_.Estimate(req.paths[i], req.paths[j]);
        if (!est.ok()) {
          return fail_status(Status(est.status().code(),
                                    "pair " + req.paths[i] + " * " +
                                        req.paths[j] + ": " +
                                        est.status().message()));
        }
        estimates.push_back(std::move(est).value());
      }
    }
    const auto plan = PlanFromPairEstimates(inputs, estimates);
    if (!plan.ok()) return fail_status(plan.status());
    auto plan_json = JsonValue::Parse(RenderPlanJson(*plan));
    if (!plan_json.ok()) return fail_status(plan_json.status());
    return answered(
        JsonValue::Object().Set("plan", std::move(plan_json).value()));
  }

  if (req.op == "ingest") {
    SJSEL_TRACE_SPAN("server.op.ingest");
    if (req.stream.empty()) {
      return fail(kErrBadRequest, "ingest needs a 'stream' directory");
    }
    Result<std::shared_ptr<stream::StreamIngest>> ingest =
        Status::Internal("unreachable");
    if (req.has_extent) {
      stream::StreamOptions options;
      options.extent = req.extent;
      options.gh_level = req.level;
      options.ph_level = req.ph_level;
      options.seal_every = static_cast<uint32_t>(req.seal_every);
      options.checkpoint_every = static_cast<uint32_t>(req.checkpoint_every);
      ingest = catalog_.InitStream(req.stream, options);
    } else {
      ingest = catalog_.GetStream(req.stream);
    }
    if (!ingest.ok()) return fail_status(ingest.status());
    std::vector<stream::StreamOp> batch;
    batch.reserve(req.adds.size() + req.removes.size());
    for (const Rect& r : req.adds) {
      batch.push_back({stream::OpKind::kAdd, r});
    }
    for (const Rect& r : req.removes) {
      batch.push_back({stream::OpKind::kRemove, r});
    }
    uint64_t seq = (*ingest)->seq();
    if (!batch.empty()) {
      const auto applied = (*ingest)->Apply(batch);
      if (!applied.ok()) return fail_status(applied.status());
      seq = *applied;
    } else if (!req.has_extent) {
      return fail(kErrBadRequest,
                  "ingest needs 'adds'/'removes' ops or 'extent' to init");
    }
    JsonValue out = JsonValue::Object();
    out.Set("seq", JsonValue::Int(static_cast<long long>(seq)));
    out.Set("snapshot_seq",
            JsonValue::Int(
                static_cast<long long>((*ingest)->snapshot()->seq)));
    out.Set("wal_bytes",
            JsonValue::Int(static_cast<long long>((*ingest)->wal_bytes())));
    return answered(std::move(out));
  }

  if (req.op == "checkpoint") {
    SJSEL_TRACE_SPAN("server.op.checkpoint");
    if (req.stream.empty()) {
      return fail(kErrBadRequest, "checkpoint needs a 'stream' directory");
    }
    const auto ingest = catalog_.GetStream(req.stream);
    if (!ingest.ok()) return fail_status(ingest.status());
    const Status st = (*ingest)->Checkpoint();
    if (!st.ok()) return fail_status(st);
    JsonValue out = JsonValue::Object();
    out.Set("checkpoint_seq",
            JsonValue::Int(
                static_cast<long long>((*ingest)->checkpoint_seq())));
    out.Set("wal_bytes",
            JsonValue::Int(static_cast<long long>((*ingest)->wal_bytes())));
    return answered(std::move(out));
  }

  if (req.op == "stream_estimate") {
    SJSEL_TRACE_SPAN("server.op.stream_estimate");
    if (req.stream.empty() || req.b.empty()) {
      return fail(kErrBadRequest,
                  "stream_estimate needs 'stream' and a 'b' dataset path");
    }
    const auto ingest = catalog_.GetStream(req.stream);
    if (!ingest.ok()) return fail_status(ingest.status());
    // Estimates are served from the immutable snapshot — a consistent
    // (base + sealed deltas) view that concurrent Applies never mutate —
    // combined with `b`'s histogram on the stream's grid, which the
    // catalog builds once per (b, grid).
    const auto snap = (*ingest)->snapshot();
    const auto bh = catalog_.GetGhHistogram(
        req.b, snap->gh.grid().extent(), snap->gh.grid().level());
    if (!bh.ok()) return fail_status(bh.status());
    const auto pairs = EstimateGhJoinPairs(snap->gh, **bh);
    if (!pairs.ok()) return fail_status(pairs.status());
    if (ShouldAudit()) {
      // The reference folds the not-yet-sealed active delta in, so the
      // audit measures how far the served snapshot lags the acknowledged
      // stream — GH accuracy drift under churn.
      SJSEL_TRACE_SPAN("server.audit");
      const auto full = (*ingest)->MaterializeState();
      if (full.ok()) {
        const auto ref = EstimateGhJoinPairs((*full).gh, **bh);
        if (ref.ok()) {
          PublishAuditResult(req, "materialized", *pairs, *ref);
        } else {
          SJSEL_METRIC_INC("accuracy.audit_failures");
        }
      } else {
        SJSEL_METRIC_INC("accuracy.audit_failures");
      }
    }
    const double n1 = static_cast<double>(snap->gh.dataset_size());
    const double n2 = static_cast<double>((*bh)->dataset_size());
    JsonValue out = JsonValue::Object();
    out.Set("estimated_pairs", JsonValue::Number(*pairs));
    out.Set("selectivity",
            JsonValue::Number(n1 > 0.0 && n2 > 0.0 ? *pairs / (n1 * n2)
                                                   : 0.0));
    out.Set("snapshot_seq",
            JsonValue::Int(static_cast<long long>(snap->seq)));
    out.Set("stream_n", JsonValue::Int(static_cast<long long>(
                            snap->gh.dataset_size())));
    return answered(std::move(out));
  }

  if (req.op == "stream_stats") {
    SJSEL_TRACE_SPAN("server.op.stream_stats");
    if (req.stream.empty()) {
      return fail(kErrBadRequest, "stream_stats needs a 'stream' directory");
    }
    const auto ingest = catalog_.GetStream(req.stream);
    if (!ingest.ok()) return fail_status(ingest.status());
    const stream::RecoveryInfo& rec = (*ingest)->recovery();
    JsonValue out = JsonValue::Object();
    out.Set("seq", JsonValue::Int(static_cast<long long>((*ingest)->seq())));
    out.Set("snapshot_seq",
            JsonValue::Int(
                static_cast<long long>((*ingest)->snapshot()->seq)));
    out.Set("checkpoint_seq",
            JsonValue::Int(
                static_cast<long long>((*ingest)->checkpoint_seq())));
    out.Set("active_batches",
            JsonValue::Int(
                static_cast<long long>((*ingest)->active_batches())));
    out.Set("wal_bytes",
            JsonValue::Int(static_cast<long long>((*ingest)->wal_bytes())));
    out.Set("recovery",
            JsonValue::Object()
                .Set("checkpoint_seq",
                     JsonValue::Int(static_cast<long long>(rec.checkpoint_seq)))
                .Set("replayed_records",
                     JsonValue::Int(
                         static_cast<long long>(rec.replayed_records)))
                .Set("skipped_records",
                     JsonValue::Int(
                         static_cast<long long>(rec.skipped_records)))
                .Set("dropped_bytes",
                     JsonValue::Int(static_cast<long long>(rec.dropped_bytes)))
                .Set("tail_error", JsonValue::String(rec.tail_error)));
    return answered(std::move(out));
  }

  return fail(kErrUnknownOp, "unknown op '" + req.op + "'");
}

void Server::AuditEstimate(const Request& req, const Dataset& a,
                           const Dataset& b, double served_pairs) {
  SJSEL_TRACE_SPAN("server.audit");
  const uint64_t cap = options_.audit_exact_cap;
  if (cap > 0 && a.size() <= cap && b.size() <= cap) {
    const uint64_t exact = PlaneSweepJoinCount(a, b);
    PublishAuditResult(req, "exact", served_pairs,
                       static_cast<double>(exact));
    return;
  }
  const auto sampled = EstimateBySampling(a, b, options_.estimator.sampling);
  if (!sampled.ok()) {
    SJSEL_METRIC_INC("accuracy.audit_failures");
    return;
  }
  PublishAuditResult(req, "sampling", served_pairs,
                     (*sampled).estimated_pairs);
}

void Server::PublishAuditResult(const Request& req, const char* reference,
                                double served_pairs, double reference_pairs) {
  SJSEL_METRIC_INC("accuracy.audits");
  // Relative error against the reference, floored at one pair so an
  // empty-join reference cannot divide by zero. The histogram stores
  // non-negative integers, so the error is recorded in parts-per-million
  // (1e6 ppm == 100% off), capped at a 1e6x relative error.
  const double denom = std::max(reference_pairs, 1.0);
  const double rel = std::fabs(served_pairs - reference_pairs) / denom;
  const uint64_t ppm =
      static_cast<uint64_t>(std::llround(std::min(rel, 1e6) * 1e6));
  if (obs::MetricsRegistry::Armed()) {
    obs::MetricsRegistry::Global()
        .GetHistogram("accuracy.rel_error")
        ->Record(ppm);
  }
  SJSEL_LOG_DEBUG("accuracy.audit", obs::LogFields()
                                        .Str("request_id", req.request_id)
                                        .Str("op", req.op)
                                        .Str("reference", reference)
                                        .Num("served_pairs", served_pairs)
                                        .Num("reference_pairs",
                                             reference_pairs)
                                        .Num("rel_error", rel));
  if (rel > options_.audit_alarm) {
    SJSEL_METRIC_INC("accuracy.drift_alarm");
    SJSEL_TRACE_INSTANT("accuracy.drift_alarm");
    SJSEL_LOG_WARN("accuracy.drift", obs::LogFields()
                                         .Str("request_id", req.request_id)
                                         .Str("op", req.op)
                                         .Str("reference", reference)
                                         .Num("served_pairs", served_pairs)
                                         .Num("reference_pairs",
                                              reference_pairs)
                                         .Num("rel_error", rel)
                                         .Num("threshold",
                                              options_.audit_alarm));
  }
}

}  // namespace server
}  // namespace sjsel
