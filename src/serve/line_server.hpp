// The TCP front shared by gdelt_serve and gdelt_router.
//
// One listening socket, a thread per connection, and the line loop of
// the newline-delimited protocol (docs/PROTOCOL.md): request lines are
// answered one at a time, in order, each reply written as soon as it is
// ready. Every accepted socket (and every LineClient dial) sets
// TCP_NODELAY, so the second and later replies of a pipelined burst do
// not sit in the kernel waiting for the peer's delayed ACK of the first.
// The owner supplies the per-line handler; the stop ordering lives here.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "util/status.hpp"
#include "util/sync.hpp"

namespace gdelt::serve {

/// Disables Nagle's algorithm on a connected TCP socket.
void SetTcpNoDelay(int fd);

/// Writes the whole buffer, retrying on short writes and EINTR. False on
/// a write error (errno tells which).
bool WriteAll(int fd, std::string_view data);

class LineServer {
 public:
  /// Answers one request line (newline and any '\r' stripped) received
  /// on socket `fd`; returns the full response line, newline included.
  using LineHandler =
      std::function<std::string(const std::string& line, int fd)>;

  LineServer() = default;
  ~LineServer();

  LineServer(const LineServer&) = delete;
  LineServer& operator=(const LineServer&) = delete;

  /// Binds host:port (port 0 = ephemeral), listens and starts the accept
  /// thread. Counts every accepted connection in `connections_opened`. A
  /// line that outgrows `max_line_bytes` unterminated gets a bad_request
  /// reply, counts in `bad_requests`, and closes its connection.
  Status Start(const std::string& host, int port, std::size_t max_line_bytes,
               LineHandler handler,
               std::atomic<std::uint64_t>& connections_opened,
               std::atomic<std::uint64_t>& bad_requests);

  /// The bound port (valid after Start).
  int port() const noexcept { return port_; }

  /// Stops in this order: stop accepting (the accept thread joins before
  /// the listening socket closes, since it reads that socket), run
  /// `drain` so the owner finishes the work it admitted, wait up to 2 s
  /// for replies being written, then shut down every connection and join
  /// its thread. Idempotent; a no-op if Start never succeeded.
  void Stop(const std::function<void()>& drain = {});

 private:
  void AcceptLoop(int listen_fd);
  void ServeConnection(int fd);
  /// Joins the threads of connections that have closed. Runs on every
  /// accept-loop pass: an unjoined thread keeps its stack mapped, and a
  /// router's health probe opens a connection every 2 s.
  void ReapFinishedConnections();

  LineHandler handler_;
  std::atomic<std::uint64_t>* connections_opened_ = nullptr;
  std::atomic<std::uint64_t>* bad_requests_ = nullptr;
  std::size_t max_line_bytes_ = 0;
  int listen_fd_ = -1;
  int port_ = 0;
  std::atomic<bool> stopping_{false};
  /// Lines being answered right now (handler running or reply in write).
  std::atomic<std::uint64_t> active_requests_{0};
  std::thread accept_thread_;

  sync::Mutex conn_mu_;
  /// Open connection sockets; a connection removes its own fd before
  /// closing it, so Stop never shuts down a reused descriptor.
  std::vector<int> conn_fds_ GDELT_GUARDED_BY(conn_mu_);
  std::vector<std::thread> conn_threads_ GDELT_GUARDED_BY(conn_mu_);
  /// Connection threads that are done serving and wait to be joined.
  std::vector<std::thread::id> finished_ GDELT_GUARDED_BY(conn_mu_);
};

}  // namespace gdelt::serve
