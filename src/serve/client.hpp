// Minimal blocking client for the gdelt_serve protocol.
//
// One TCP connection, one request line out, one response line back —
// enough for the gdelt_client tool, the protocol tests, the throughput
// bench and the router's shard fan-out. Every dial sets TCP_NODELAY, so
// each Send of a pipelined batch leaves at once instead of waiting on
// Nagle for the reply to an earlier line. Not thread-safe; open one
// LineClient per thread.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>

#include "util/status.hpp"

namespace gdelt::serve {

/// Connection policy for LineClient::Connect: a bounded connect timeout
/// and retry-with-backoff, the same shape as convert::ChunkFetcher's
/// fetch policy (deterministic per-endpoint jitter, injectable sleep).
struct ConnectOptions {
  /// Per-attempt connect timeout; 0 blocks on the kernel default.
  std::int64_t connect_timeout_ms = 5'000;
  std::uint32_t max_attempts = 1;  ///< total connect attempts
  std::uint64_t backoff_initial_ms = 100;
  double backoff_multiplier = 2.0;
  std::uint64_t backoff_max_ms = 2'000;
  /// Seed for the deterministic jitter (xor'd with the endpoint hash and
  /// attempt number, as in ChunkFetcher::BackoffMs).
  std::uint64_t jitter_seed = 0;
  /// Test hook: replaces the real sleep between attempts.
  std::function<void(std::uint64_t /*ms*/)> sleep_fn;
};

class LineClient {
 public:
  /// Connects to host:port (IPv4 dotted quad or "localhost").
  static Result<LineClient> Connect(const std::string& host, int port);

  /// Connects under `options`: each attempt bounded by the connect
  /// timeout, failures retried with deterministic jittered backoff.
  static Result<LineClient> Connect(const std::string& host, int port,
                                    const ConnectOptions& options);

  LineClient(LineClient&& other) noexcept;
  LineClient& operator=(LineClient&& other) noexcept;
  LineClient(const LineClient&) = delete;
  LineClient& operator=(const LineClient&) = delete;
  ~LineClient();

  /// Sends one request line (newline appended if missing) and blocks for
  /// the matching response line, returned without its trailing newline.
  Result<std::string> RoundTrip(std::string_view request_line);

  /// Sends without waiting (for pipelined batches; pair with ReadLine).
  Status Send(std::string_view request_line);

  /// Blocks for the next response line (without trailing newline).
  Result<std::string> ReadLine();

  /// Bounds every subsequent recv by `ms` (SO_RCVTIMEO; 0 = no bound).
  /// An expired read comes back as a DeadlineExceeded-flavored IoError so
  /// the router can distinguish a slow shard from a dead one.
  Status SetRecvTimeoutMs(std::int64_t ms);

  void Close();

 private:
  explicit LineClient(int fd) : fd_(fd) {}

  int fd_ = -1;
  std::string buffer_;  ///< bytes received past the last returned line
};

}  // namespace gdelt::serve
