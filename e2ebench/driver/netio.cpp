#include "netio.hpp"

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <thread>

extern char** environ;

namespace e2e {

using gdelt::Result;
namespace status = gdelt::status;

Result<ServerProcess> ServerProcess::Spawn(
    const std::vector<std::string>& argv,
    const std::vector<std::string>& env_extra, const std::string& log_path) {
  int out_pipe[2];
  if (::pipe2(out_pipe, O_CLOEXEC) != 0) {
    return status::Internal(std::string("pipe2: ") + std::strerror(errno));
  }
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_adddup2(&actions, out_pipe[1], STDOUT_FILENO);
  posix_spawn_file_actions_addopen(&actions, STDERR_FILENO, log_path.c_str(),
                                   O_WRONLY | O_CREAT | O_APPEND, 0644);
  posix_spawn_file_actions_addopen(&actions, STDIN_FILENO, "/dev/null",
                                   O_RDONLY, 0);

  std::vector<char*> args;
  for (const std::string& a : argv) args.push_back(const_cast<char*>(a.c_str()));
  args.push_back(nullptr);
  std::vector<char*> env;
  for (char** e = environ; *e != nullptr; ++e) env.push_back(*e);
  for (const std::string& e : env_extra) env.push_back(const_cast<char*>(e.c_str()));
  env.push_back(nullptr);

  pid_t pid = -1;
  const int rc = ::posix_spawn(&pid, argv[0].c_str(), &actions, nullptr,
                               args.data(), env.data());
  posix_spawn_file_actions_destroy(&actions);
  ::close(out_pipe[1]);
  if (rc != 0) {
    ::close(out_pipe[0]);
    return status::Internal("spawn " + argv[0] + ": " + std::strerror(rc));
  }
  return ServerProcess(pid, out_pipe[0]);
}

ServerProcess::ServerProcess(ServerProcess&& other) noexcept
    : pid_(other.pid_), stdout_fd_(other.stdout_fd_) {
  other.pid_ = -1;
  other.stdout_fd_ = -1;
}

ServerProcess& ServerProcess::operator=(ServerProcess&& other) noexcept {
  if (this != &other) {
    Stop();
    pid_ = other.pid_;
    stdout_fd_ = other.stdout_fd_;
    other.pid_ = -1;
    other.stdout_fd_ = -1;
  }
  return *this;
}

ServerProcess::~ServerProcess() { Stop(); }

Result<int> ServerProcess::WaitReady(int timeout_ms) {
  const auto until = std::chrono::steady_clock::now() +
                     std::chrono::milliseconds(timeout_ms);
  std::string seen;
  while (true) {
    const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
                          until - std::chrono::steady_clock::now())
                          .count();
    if (left <= 0) return status::Internal("server did not become READY");
    pollfd pfd{stdout_fd_, POLLIN, 0};
    if (::poll(&pfd, 1, static_cast<int>(left)) <= 0) continue;
    char buf[256];
    const ssize_t n = ::read(stdout_fd_, buf, sizeof(buf));
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return status::Internal("server exited before READY");
    seen.append(buf, static_cast<std::size_t>(n));
    const auto at = seen.find("READY port=");
    if (at != std::string::npos && seen.find('\n', at) != std::string::npos) {
      return std::atoi(seen.c_str() + at + 11);
    }
  }
}

void ServerProcess::Stop(int grace_ms) {
  if (pid_ > 0) {
    ::kill(pid_, SIGTERM);
    const auto until = std::chrono::steady_clock::now() +
                       std::chrono::milliseconds(grace_ms);
    bool reaped = false;
    while (std::chrono::steady_clock::now() < until) {
      const pid_t r = ::waitpid(pid_, nullptr, WNOHANG);
      if (r == pid_ || (r < 0 && errno != EINTR)) {
        reaped = true;
        break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    if (!reaped) {
      ::kill(pid_, SIGKILL);
      while (::waitpid(pid_, nullptr, 0) < 0 && errno == EINTR) {
      }
    }
    pid_ = -1;
  }
  if (stdout_fd_ >= 0) {
    ::close(stdout_fd_);
    stdout_fd_ = -1;
  }
}

long PssKiB(pid_t pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/smaps_rollup");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("Pss:", 0) == 0) return std::atol(line.c_str() + 4);
  }
  return -1;
}

std::string_view RawTextOf(std::string_view line) {
  constexpr std::string_view kKey = "\"text\":\"";
  const auto at = line.find(kKey);
  if (at == std::string_view::npos || line.size() < at + kKey.size() + 2 ||
      line.substr(line.size() - 2) != "\"}") {
    return {};
  }
  const std::size_t begin = at + kKey.size();
  return line.substr(begin, line.size() - 2 - begin);
}

double NumberField(std::string_view line, std::string_view name,
                   double fallback) {
  std::string key = "\"";
  key.append(name);
  key += "\":";
  const auto at = line.find(key);
  if (at == std::string_view::npos) return fallback;
  // Response lines are NUL-free JSON, so strtod stops at the delimiter.
  return std::strtod(line.data() + at + key.size(), nullptr);
}

bool TrueField(std::string_view line, std::string_view name) {
  std::string key = "\"";
  key.append(name);
  key += "\":true";
  return line.find(key) != std::string_view::npos;
}

}  // namespace e2e
