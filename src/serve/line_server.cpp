#include "serve/line_server.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>

#include "serve/protocol.hpp"

namespace gdelt::serve {

void SetTcpNoDelay(int fd) {
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

bool WriteAll(int fd, std::string_view data) {
  while (!data.empty()) {
    const ssize_t n = ::write(fd, data.data(), data.size());
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    data.remove_prefix(static_cast<std::size_t>(n));
  }
  return true;
}

LineServer::~LineServer() { Stop(); }

Status LineServer::Start(const std::string& host, int port,
                         std::size_t max_line_bytes, LineHandler handler,
                         std::atomic<std::uint64_t>& connections_opened,
                         std::atomic<std::uint64_t>& bad_requests) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return status::Internal(std::string("socket: ") + std::strerror(errno));
  }
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    ::close(fd);
    return status::InvalidArgument("bad listen host '" + host + "'");
  }
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    const std::string err = std::strerror(errno);
    ::close(fd);
    return status::Internal("bind " + host + ":" + std::to_string(port) +
                            ": " + err);
  }
  if (::listen(fd, 64) < 0) {
    const std::string err = std::strerror(errno);
    ::close(fd);
    return status::Internal("listen: " + err);
  }
  socklen_t len = sizeof(addr);
  ::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len);
  port_ = ntohs(addr.sin_port);

  handler_ = std::move(handler);
  connections_opened_ = &connections_opened;
  bad_requests_ = &bad_requests;
  max_line_bytes_ = max_line_bytes;
  listen_fd_ = fd;
  accept_thread_ = std::thread([this, fd] { AcceptLoop(fd); });
  return Status::Ok();
}

void LineServer::Stop(const std::function<void()>& drain) {
  if (listen_fd_ < 0 || stopping_.exchange(true)) return;

  // 1. Stop taking new connections.
  ::shutdown(listen_fd_, SHUT_RDWR);
  accept_thread_.join();
  ::close(listen_fd_);
  listen_fd_ = -1;

  // 2. The owner finishes what it admitted.
  if (drain) drain();

  // 3. Let connection threads flush their in-flight responses before the
  //    sockets go away.
  using Clock = std::chrono::steady_clock;
  const auto grace_end = Clock::now() + std::chrono::seconds(2);
  while (active_requests_.load() > 0 && Clock::now() < grace_end) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }

  // 4. Unblock readers and join connection threads.
  std::vector<std::thread> threads;
  {
    sync::MutexLock lock(conn_mu_);
    for (const int fd : conn_fds_) ::shutdown(fd, SHUT_RDWR);
    threads.swap(conn_threads_);
  }
  for (auto& t : threads) t.join();
}

void LineServer::AcceptLoop(int listen_fd) {
  while (!stopping_.load()) {
    ReapFinishedConnections();
    pollfd pfd{listen_fd, POLLIN, 0};
    const int ready = ::poll(&pfd, 1, /*timeout_ms=*/100);
    if (ready <= 0) continue;
    const int fd = ::accept(listen_fd, nullptr, nullptr);
    if (fd < 0) continue;
    SetTcpNoDelay(fd);
    connections_opened_->fetch_add(1);
    sync::MutexLock lock(conn_mu_);
    conn_fds_.push_back(fd);
    conn_threads_.emplace_back([this, fd] { ServeConnection(fd); });
  }
}

void LineServer::ReapFinishedConnections() {
  std::vector<std::thread> done;
  {
    sync::MutexLock lock(conn_mu_);
    for (const std::thread::id id : finished_) {
      const auto it = std::find_if(
          conn_threads_.begin(), conn_threads_.end(),
          [id](const std::thread& t) { return t.get_id() == id; });
      if (it == conn_threads_.end()) continue;
      done.push_back(std::move(*it));
      conn_threads_.erase(it);
    }
    finished_.clear();
  }
  // Join outside the lock, so closing connections never wait on a join.
  for (auto& t : done) t.join();
}

void LineServer::ServeConnection(int fd) {
  std::string buffer;
  char chunk[4096];
  bool open = true;
  while (open) {
    const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;
    buffer.append(chunk, static_cast<std::size_t>(n));
    std::size_t start = 0;
    for (std::size_t nl = buffer.find('\n', start);
         nl != std::string::npos && open;
         start = nl + 1, nl = buffer.find('\n', start)) {
      std::string line = buffer.substr(start, nl - start);
      if (!line.empty() && line.back() == '\r') line.pop_back();
      if (line.empty()) continue;
      active_requests_.fetch_add(1);
      open = WriteAll(fd, handler_(line, fd));
      active_requests_.fetch_sub(1);
    }
    buffer.erase(0, start);
    if (buffer.size() > max_line_bytes_) {
      active_requests_.fetch_add(1);
      bad_requests_->fetch_add(1);
      WriteAll(fd, ErrorResponse("", ErrorCode::kBadRequest,
                                 "request line too long"));
      active_requests_.fetch_sub(1);
      break;
    }
  }
  {
    sync::MutexLock lock(conn_mu_);
    std::erase(conn_fds_, fd);
    // The accept loop added this thread under conn_mu_ before it could
    // get here, so the reaper always finds it.
    finished_.push_back(std::this_thread::get_id());
  }
  ::close(fd);
}

}  // namespace gdelt::serve
