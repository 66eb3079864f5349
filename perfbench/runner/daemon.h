#ifndef PERFBENCH_DAEMON_H_
#define PERFBENCH_DAEMON_H_

// The real `sjsel serve` daemon as a child process, and the request
// helpers the workloads use to talk to it.

#include <sys/types.h>

#include <map>
#include <string>

#include "server/client.h"
#include "util/json.h"
#include "util/result.h"

namespace perfbench {

class Daemon {
 public:
  Daemon() = default;
  ~Daemon() { Kill(); }
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  /// Spawns `sjsel serve <socket> --workers=<workers> --audit-rate=0` and
  /// blocks until it prints its "listening on" line (no sleep polling).
  sjsel::Status Start(const std::string& sjsel_path, const std::string& socket,
                      int workers);
  /// SIGKILL, then waits for the process to end. Idempotent.
  void Kill();
  pid_t pid() const { return pid_; }

 private:
  pid_t pid_ = -1;
  int stdout_fd_ = -1;
};

/// The `result` object of an `ok` response line, or an error naming what
/// was wrong with the response (transport error, unparsable, not ok).
sjsel::Result<sjsel::JsonValue> ParseOk(
    const sjsel::Result<std::string>& response);

/// Sends one request line and applies ParseOk to the answer.
sjsel::Result<sjsel::JsonValue> CallOk(sjsel::server::Client& client,
                                       const std::string& line);

/// Lifetime counters, gauges and catalog sizes from the `metrics` and
/// `health` ops, flattened to name -> value (e.g. "hist.gh.builds",
/// "server.queue_depth.max", "health.datasets_cached"), plus
/// "health.kernel_backend" in `*backend`.
sjsel::Result<std::map<std::string, double>> Scrape(
    sjsel::server::Client& client, std::string* backend);

}  // namespace perfbench

#endif  // PERFBENCH_DAEMON_H_
