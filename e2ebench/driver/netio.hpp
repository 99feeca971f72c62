// Process and socket plumbing for the end-to-end driver: spawning the real
// gdelt_serve / gdelt_router binaries, reading their READY line, stopping
// them, and measuring their memory from /proc.
#pragma once

#include <sys/types.h>

#include <string>
#include <string_view>
#include <vector>

#include "util/status.hpp"

namespace e2e {

/// A spawned server process. The destructor stops it (SIGTERM, then
/// SIGKILL after a grace period) and reaps it, so no process outlives the
/// driver on any exit path.
class ServerProcess {
 public:
  /// Starts `argv` (argv[0] is the binary path) with `env_extra`
  /// ("NAME=value") appended to the inherited environment, stderr appended
  /// to `log_path`, and stdout captured for the READY line.
  static gdelt::Result<ServerProcess> Spawn(
      const std::vector<std::string>& argv,
      const std::vector<std::string>& env_extra, const std::string& log_path);

  ServerProcess(ServerProcess&& other) noexcept;
  ServerProcess& operator=(ServerProcess&& other) noexcept;
  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;
  ~ServerProcess();

  /// Blocks until the process prints "READY port=<n>" (or exits, or
  /// `timeout_ms` passes) and returns the port.
  gdelt::Result<int> WaitReady(int timeout_ms);

  /// SIGTERM, wait up to `grace_ms`, then SIGKILL; always reaps.
  void Stop(int grace_ms = 10'000);

  pid_t pid() const noexcept { return pid_; }

 private:
  ServerProcess(pid_t pid, int stdout_fd) : pid_(pid), stdout_fd_(stdout_fd) {}
  pid_t pid_ = -1;
  int stdout_fd_ = -1;
};

/// Proportional set size of `pid` in KiB (/proc/<pid>/smaps_rollup), or
/// -1 if it cannot be read.
long PssKiB(pid_t pid);

// Field scrapers for the load generator's per-response path: a full JSON
// parse of every reply would add client CPU comparable to a cache hit's
// server cost. Everything off that path uses serve::JsonValue.

/// Byte range of the raw (still JSON-escaped) `"text"` member of a
/// response line, or an empty view when the line has none.
std::string_view RawTextOf(std::string_view line);

/// Numeric member `"name":<number>` of a flat response line (first match),
/// or `fallback`.
double NumberField(std::string_view line, std::string_view name,
                   double fallback);

/// True if the line carries `"name":true`.
bool TrueField(std::string_view line, std::string_view name);

}  // namespace e2e
