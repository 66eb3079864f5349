#include "daemon.h"

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "common.h"

namespace perfbench {

using sjsel::JsonValue;
using sjsel::Result;
using sjsel::Status;

Status Daemon::Start(const std::string& sjsel_path, const std::string& socket,
                     int workers) {
  Kill();
  int fds[2];
  if (::pipe2(fds, O_CLOEXEC) != 0) {
    return Status::IoError(std::string("pipe: ") + std::strerror(errno));
  }
  const std::string workers_flag = "--workers=" + std::to_string(workers);
  const pid_t parent = ::getpid();
  const pid_t pid = ::fork();
  if (pid < 0) {
    ::close(fds[0]);
    ::close(fds[1]);
    return Status::IoError(std::string("fork: ") + std::strerror(errno));
  }
  if (pid == 0) {
    // Never outlive the runner, even if it crashes.
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (::getppid() != parent) ::_exit(127);
    ::dup2(fds[1], STDOUT_FILENO);
    const int log = ::open("daemon.log", O_WRONLY | O_CREAT | O_APPEND, 0644);
    if (log >= 0) ::dup2(log, STDERR_FILENO);
    ::execl(sjsel_path.c_str(), "sjsel", "serve", socket.c_str(),
            workers_flag.c_str(), "--audit-rate=0",
            static_cast<char*>(nullptr));
    ::_exit(127);
  }
  ::close(fds[1]);
  pid_ = pid;
  stdout_fd_ = fds[0];
  // Readiness is the daemon's own "listening on" line, printed after the
  // socket is bound and listening.
  std::string seen;
  const int64_t deadline = NowNs() + 30'000'000'000LL;
  while (seen.find('\n') == std::string::npos) {
    const int64_t left_ms = (deadline - NowNs()) / 1'000'000;
    if (left_ms <= 0) break;
    pollfd pfd{stdout_fd_, POLLIN, 0};
    const int ready = ::poll(&pfd, 1, static_cast<int>(left_ms));
    if (ready < 0 && errno == EINTR) continue;
    if (ready <= 0) break;
    char buf[256];
    const ssize_t n = ::read(stdout_fd_, buf, sizeof(buf));
    if (n <= 0) break;
    seen.append(buf, static_cast<size_t>(n));
  }
  if (seen.rfind("listening on", 0) != 0) {
    Kill();
    return Status::Internal("daemon did not start: '" + seen + "'");
  }
  return Status::OK();
}

void Daemon::Kill() {
  if (pid_ > 0) {
    ::kill(pid_, SIGKILL);
    int status = 0;
    while (::waitpid(pid_, &status, 0) < 0 && errno == EINTR) {
    }
    pid_ = -1;
  }
  if (stdout_fd_ >= 0) {
    ::close(stdout_fd_);
    stdout_fd_ = -1;
  }
}

Result<JsonValue> CallOk(sjsel::server::Client& client,
                         const std::string& line) {
  return ParseOk(client.Call(line));
}

Result<JsonValue> ParseOk(const Result<std::string>& response) {
  if (!response.ok()) return response.status();
  auto parsed = JsonValue::Parse(*response);
  if (!parsed.ok()) {
    return Status::Internal("unparsable response: " + *response);
  }
  const JsonValue* ok = parsed->Find("ok");
  const JsonValue* result = parsed->Find("result");
  if (ok == nullptr || !ok->is_bool() || !ok->bool_value() ||
      result == nullptr || !result->is_object()) {
    return Status::Internal("error response: " + response->substr(0, 300));
  }
  return *result;
}

Result<std::map<std::string, double>> Scrape(sjsel::server::Client& client,
                                             std::string* backend) {
  std::map<std::string, double> out;
  auto metrics = CallOk(client, "{\"op\":\"metrics\"}");
  if (!metrics.ok()) return metrics.status();
  const JsonValue* snapshot = metrics->Find("snapshot");
  if (snapshot != nullptr) {
    for (const char* section : {"counters", "gauges"}) {
      const JsonValue* group = snapshot->Find(section);
      if (group == nullptr || !group->is_object()) continue;
      for (const auto& [name, value] : group->members()) {
        if (value.is_number()) out[name] = value.number_value();
      }
    }
  }
  auto health = CallOk(client, "{\"op\":\"health\"}");
  if (!health.ok()) return health.status();
  for (const auto& [name, value] : health->members()) {
    if (value.is_number()) out["health." + name] = value.number_value();
    if (name == "kernel_backend" && value.is_string() && backend != nullptr) {
      *backend = value.string_value();
    }
  }
  return out;
}

}  // namespace perfbench
