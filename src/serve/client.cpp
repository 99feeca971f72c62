#include "serve/client.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstring>
#include <thread>
#include <utility>

#include "serve/line_server.hpp"
#include "util/hash.hpp"
#include "util/rng.hpp"

namespace gdelt::serve {
namespace {

/// Backoff before attempt `attempt` (2-based), ChunkFetcher-shaped:
/// exponential, capped, with deterministic jitter in [capped/2, capped]
/// seeded per endpoint and attempt.
std::uint64_t BackoffMs(const ConnectOptions& opt, const std::string& endpoint,
                        std::uint32_t attempt) {
  double base = static_cast<double>(opt.backoff_initial_ms);
  for (std::uint32_t i = 2; i < attempt; ++i) {
    base *= opt.backoff_multiplier;
  }
  const auto capped = static_cast<std::uint64_t>(
      std::min(base, static_cast<double>(opt.backoff_max_ms)));
  if (capped == 0) return 0;
  Xoshiro256 rng(opt.jitter_seed ^ Fnv1a64(endpoint) ^
                 (static_cast<std::uint64_t>(attempt) << 32));
  const std::uint64_t half = capped / 2;
  return half + UniformBelow(rng, capped - half + 1);
}

/// One bounded connect attempt: non-blocking connect, poll for
/// writability, then read back SO_ERROR. Returns the connected fd.
Result<int> ConnectOnce(const sockaddr_in& addr, const std::string& endpoint,
                        std::int64_t timeout_ms) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return status::Internal(std::string("socket: ") + std::strerror(errno));
  }
  if (timeout_ms <= 0) {
    if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                  sizeof(addr)) < 0) {
      const std::string err = std::strerror(errno);
      ::close(fd);
      return status::IoError("connect " + endpoint + ": " + err);
    }
    SetTcpNoDelay(fd);
    return fd;
  }
  const int flags = ::fcntl(fd, F_GETFL, 0);
  ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) <
      0) {
    if (errno != EINPROGRESS) {
      const std::string err = std::strerror(errno);
      ::close(fd);
      return status::IoError("connect " + endpoint + ": " + err);
    }
    pollfd pfd{fd, POLLOUT, 0};
    const int ready = ::poll(&pfd, 1, static_cast<int>(timeout_ms));
    if (ready <= 0) {
      ::close(fd);
      return status::IoError("connect " + endpoint + ": timed out after " +
                             std::to_string(timeout_ms) + " ms");
    }
    int so_error = 0;
    socklen_t len = sizeof(so_error);
    ::getsockopt(fd, SOL_SOCKET, SO_ERROR, &so_error, &len);
    if (so_error != 0) {
      const std::string err = std::strerror(so_error);
      ::close(fd);
      return status::IoError("connect " + endpoint + ": " + err);
    }
  }
  ::fcntl(fd, F_SETFL, flags);
  SetTcpNoDelay(fd);
  return fd;
}

}  // namespace

Result<LineClient> LineClient::Connect(const std::string& host, int port) {
  ConnectOptions options;
  options.connect_timeout_ms = 0;  // historical behavior: blocking connect
  return Connect(host, port, options);
}

Result<LineClient> LineClient::Connect(const std::string& host, int port,
                                       const ConnectOptions& options) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  const std::string numeric = host == "localhost" ? "127.0.0.1" : host;
  if (::inet_pton(AF_INET, numeric.c_str(), &addr.sin_addr) != 1) {
    return status::InvalidArgument("bad host '" + host + "'");
  }
  const std::string endpoint = numeric + ":" + std::to_string(port);
  const std::uint32_t attempts = std::max<std::uint32_t>(1, options.max_attempts);
  Status last_error = status::Internal("connect never attempted");
  for (std::uint32_t attempt = 1; attempt <= attempts; ++attempt) {
    if (attempt > 1) {
      const std::uint64_t delay = BackoffMs(options, endpoint, attempt);
      if (delay > 0) {
        if (options.sleep_fn) {
          options.sleep_fn(delay);
        } else {
          std::this_thread::sleep_for(std::chrono::milliseconds(delay));
        }
      }
    }
    auto fd = ConnectOnce(addr, endpoint, options.connect_timeout_ms);
    if (fd.ok()) return LineClient(*fd);
    last_error = fd.status();
  }
  return last_error;
}

LineClient::LineClient(LineClient&& other) noexcept
    : fd_(std::exchange(other.fd_, -1)), buffer_(std::move(other.buffer_)) {}

LineClient& LineClient::operator=(LineClient&& other) noexcept {
  if (this != &other) {
    Close();
    fd_ = std::exchange(other.fd_, -1);
    buffer_ = std::move(other.buffer_);
  }
  return *this;
}

LineClient::~LineClient() { Close(); }

void LineClient::Close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

Status LineClient::SetRecvTimeoutMs(std::int64_t ms) {
  if (fd_ < 0) return status::Internal("client is closed");
  timeval tv{};
  tv.tv_sec = ms / 1000;
  tv.tv_usec = static_cast<suseconds_t>((ms % 1000) * 1000);
  if (::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv)) < 0) {
    return status::Internal(std::string("setsockopt(SO_RCVTIMEO): ") +
                            std::strerror(errno));
  }
  return Status::Ok();
}

Status LineClient::Send(std::string_view request_line) {
  if (fd_ < 0) return status::Internal("client is closed");
  std::string framed(request_line);
  if (framed.empty() || framed.back() != '\n') framed.push_back('\n');
  if (!WriteAll(fd_, framed)) {
    return status::Internal(std::string("write: ") + std::strerror(errno));
  }
  return Status::Ok();
}

Result<std::string> LineClient::ReadLine() {
  if (fd_ < 0) return status::Internal("client is closed");
  while (true) {
    if (const auto nl = buffer_.find('\n'); nl != std::string::npos) {
      std::string line = buffer_.substr(0, nl);
      buffer_.erase(0, nl + 1);
      return line;
    }
    char chunk[4096];
    const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      // SO_RCVTIMEO expired (SetRecvTimeoutMs).
      return status::IoError("recv: deadline expired");
    }
    if (n < 0) {
      return status::Internal(std::string("recv: ") + std::strerror(errno));
    }
    if (n == 0) {
      return status::Internal("connection closed by server");
    }
    buffer_.append(chunk, static_cast<std::size_t>(n));
  }
}

Result<std::string> LineClient::RoundTrip(std::string_view request_line) {
  GDELT_RETURN_IF_ERROR(Send(request_line));
  return ReadLine();
}

}  // namespace gdelt::serve
