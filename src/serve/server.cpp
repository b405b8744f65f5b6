#include "serve/server.hpp"

#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <exception>
#include <mutex>
#include <set>
#include <stdexcept>

#include "campaign/report.hpp"
#include "campaign/scenario.hpp"

namespace hs::serve {

namespace {

static_assert(std::atomic<bool>::is_always_lock_free,
              "shutdown() stores the flag from a signal handler");

[[noreturn]] void throw_errno(const char* what) {
  throw std::runtime_error(std::string(what) + ": " +
                           std::strerror(errno));
}

/// The longest poll() after accept() ran out of fds or memory.
constexpr int kAcceptRetryMs = 100;

/// Once drained, how long run() waits for any connection to take a byte
/// of what is left before it closes every remaining one.
constexpr int kFlushTimeoutMs = 30'000;

/// Wakes the poll loop. Async-signal-safe; a full pipe already holds a
/// pending wake-up.
void wake(int fd) {
  const char byte = 0;
  [[maybe_unused]] const ssize_t n = ::write(fd, &byte, 1);
}

}  // namespace

/// One client. `in` belongs to the poll loop; the output side is shared
/// between the loop and scheduler workers and guarded by `mutex`.
struct Server::Connection {
  Connection(int fd_in, int wake_fd_in) : fd(fd_in), wake_fd(wake_fd_in) {}
  ~Connection() { ::close(fd); }

  /// Sends `line` and a newline without blocking, queueing what the
  /// socket cannot take at once behind earlier output. A queue past
  /// kMaxUnsentBytes closes the connection.
  void write_line(std::string line) {
    line += '\n';
    std::lock_guard<std::mutex> lock(mutex);
    if (closed) return;
    const bool idle = out.empty();
    const std::size_t sent = idle ? send_some(line.data(), line.size()) : 0;
    if (!closed && sent < line.size()) {
      out.append(line, sent);
      if (out.size() > kMaxUnsentBytes) over_cap = closed = true;
    }
    // The loop polls for POLLOUT only on a non-empty queue and reaps a
    // closed connection, so it must look again.
    if (closed || (idle && !out.empty())) wake(wake_fd);
  }

  /// Sends queued output until the socket is full (the loop, on POLLOUT).
  void flush() {
    std::lock_guard<std::mutex> lock(mutex);
    if (!closed) out.erase(0, send_some(out.data(), out.size()));
  }

  void close() {
    std::lock_guard<std::mutex> lock(mutex);
    closed = true;
  }

  void add_owned(std::uint64_t id) {
    std::lock_guard<std::mutex> lock(mutex);
    owned.insert(id);
  }

  void remove_owned(std::uint64_t id) {
    std::lock_guard<std::mutex> lock(mutex);
    owned.erase(id);
  }

  bool owns(std::uint64_t id) {
    std::lock_guard<std::mutex> lock(mutex);
    return owned.count(id) != 0;
  }

  const int fd;
  const int wake_fd;
  std::string in;  ///< unterminated request bytes; the loop's alone

  std::mutex mutex;
  std::string out;                ///< unsent output; guarded by mutex
  bool closed = false;            ///< output stopped; guarded by mutex
  bool over_cap = false;          ///< closed by the cap; guarded by mutex
  std::set<std::uint64_t> owned;  ///< live request ids; guarded by mutex

 private:
  /// Sends what the socket takes now; a hard error closes the connection.
  std::size_t send_some(const char* data, std::size_t size) {
    std::size_t off = 0;
    while (off < size) {
      const ssize_t n = ::send(fd, data + off, size - off,
                               MSG_NOSIGNAL | MSG_DONTWAIT);
      if (n < 0 && errno == EINTR) continue;
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
      if (n <= 0) {
        closed = true;
        break;
      }
      off += static_cast<std::size_t>(n);
    }
    return off;
  }
};

Server::Server(ServerOptions options, obs::ServiceStats* stats)
    : options_(std::move(options)),
      stats_(stats),
      scheduler_(options_.scheduler, stats) {}

Server::~Server() {
  scheduler_.stop();
  if (listen_fd_ >= 0) ::close(listen_fd_);
  if (wake_rd_ >= 0) ::close(wake_rd_);
  if (wake_wr_ >= 0) ::close(wake_wr_);
  if (!bound_unix_path_.empty()) ::unlink(bound_unix_path_.c_str());
}

void Server::start() {
  int pipefd[2];
  if (::pipe2(pipefd, O_NONBLOCK) != 0) throw_errno("pipe");
  wake_rd_ = pipefd[0];
  wake_wr_ = pipefd[1];

  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (options_.unix_path.empty() ||
      options_.unix_path.size() >= sizeof(addr.sun_path)) {
    throw std::runtime_error("unix socket path empty or too long: '" +
                             options_.unix_path + "'");
  }
  std::strncpy(addr.sun_path, options_.unix_path.c_str(),
               sizeof(addr.sun_path) - 1);
  // Non-blocking, so an accept() that poll() woke for cannot stall the
  // loop when the connection has already gone.
  listen_fd_ = ::socket(AF_UNIX, SOCK_STREAM | SOCK_NONBLOCK, 0);
  if (listen_fd_ < 0) throw_errno("socket");
  ::unlink(options_.unix_path.c_str());
  if (::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&addr),
             sizeof(addr)) != 0) {
    throw_errno("bind");
  }
  bound_unix_path_ = options_.unix_path;
  if (::listen(listen_fd_, 16) != 0) throw_errno("listen");
}

void Server::shutdown() {
  stop_requested_.store(true);
  wake(wake_wr_);
}

void Server::run() {
  std::exception_ptr failure;
  try {
    serve();
  } catch (...) {
    failure = std::current_exception();
  }
  // However the loop ended, the drain has finished and its thread is
  // joined before run() returns or rethrows.
  if (drainer_.joinable()) {
    drainer_.join();
  } else {
    scheduler_.drain();
  }
  for (const auto& conn : conns_) drop(*conn);
  conns_.clear();
  scheduler_.stop();
  if (failure) std::rethrow_exception(failure);
}

void Server::serve() {
  std::vector<pollfd> fds;
  bool backoff = false;
  for (;;) {
    const bool stopping = stop_requested_.load();
    if (stopping && !drainer_.joinable()) {
      drainer_ = std::thread([this] {
        scheduler_.drain();
        drained_.store(true);
        wake(wake_wr_);
      });
    }
    // Drained: no request is left to answer, so only send what is left.
    const bool flushing = drained_.load();

    fds.clear();
    fds.push_back({wake_rd_, POLLIN, 0});
    fds.push_back({stopping || backoff ? -1 : listen_fd_, POLLIN, 0});
    std::size_t kept = 0;
    for (auto& conn : conns_) {
      std::unique_lock<std::mutex> lock(conn->mutex);
      const bool queued = !conn->out.empty();
      const bool done = conn->closed || (flushing && !queued);
      lock.unlock();
      if (done) {
        drop(*conn);
        continue;
      }
      const short events = static_cast<short>(
          (flushing ? 0 : POLLIN) | (queued ? POLLOUT : 0));
      fds.push_back({conn->fd, events, 0});
      conns_[kept++] = std::move(conn);
    }
    conns_.resize(kept);
    if (flushing && conns_.empty()) return;

    const int timeout =
        flushing ? kFlushTimeoutMs : backoff ? kAcceptRetryMs : -1;
    const int rc = ::poll(fds.data(), fds.size(), timeout);
    if (rc < 0) {
      if (errno == EINTR) continue;
      throw_errno("poll");
    }
    if (rc == 0 && flushing) return;  // nobody took a byte for 30 s
    backoff = false;

    char sink[64];
    while (fds[0].revents != 0 && ::read(wake_rd_, sink, sizeof sink) > 0) {
    }
    for (std::size_t i = 2; i < fds.size(); ++i) {
      const auto& conn = conns_[i - 2];
      if ((fds[i].revents & POLLOUT) != 0) conn->flush();
      if ((fds[i].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
      if (flushing) {
        conn->close();  // a flushing client that hangs up is done
      } else {
        read_from(conn);
      }
    }
    if ((fds[1].revents & POLLIN) != 0) backoff = accept_pending();
  }
}

/// Accepts every pending connection. Returns true when accept() ran out
/// of fds or memory, so the listening socket sits out the next poll().
bool Server::accept_pending() {
  for (;;) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd >= 0) {
      conns_.push_back(std::make_shared<Connection>(fd, wake_wr_));
      continue;
    }
    if (errno == EINTR || errno == ECONNABORTED) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) return false;
    // Short of fds or memory for now: the connection stays in the backlog
    // until a closing one frees what the next accept() needs.
    if (errno != EMFILE && errno != ENFILE && errno != ENOBUFS &&
        errno != ENOMEM) {
      throw_errno("accept");
    }
    stats_->on_accept_backoff();
    return true;
  }
}

void Server::read_from(const std::shared_ptr<Connection>& conn) {
  char chunk[4096];
  const ssize_t n = ::recv(conn->fd, chunk, sizeof chunk, MSG_DONTWAIT);
  if (n < 0 && (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK)) {
    return;
  }
  if (n <= 0) {  // EOF or error: the client is gone
    conn->close();
    return;
  }
  std::string& buffer = conn->in;
  buffer.append(chunk, static_cast<std::size_t>(n));
  std::size_t start = 0;
  for (std::size_t nl; (nl = buffer.find('\n', start)) != std::string::npos;
       start = nl + 1) {
    std::string_view line(buffer.data() + start, nl - start);
    if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
    if (!line.empty()) handle_line(conn, line);
  }
  buffer.erase(0, start);
  if (buffer.size() > kMaxRequestBytes) {
    // An unterminated line past the request cap is a protocol
    // violation; answer once and drop the connection before the buffer
    // grows unbounded.
    conn->write_line(error_line("request line exceeds " +
                                std::to_string(kMaxRequestBytes) +
                                " bytes"));
    conn->close();
  }
}

/// Ends a connection for good: its output stops, its client sees the
/// socket close, and whatever it still had running is cancelled. The fd
/// itself closes once no scheduler callback holds the connection.
void Server::drop(Connection& conn) {
  std::set<std::uint64_t> owned;
  {
    std::lock_guard<std::mutex> lock(conn.mutex);
    conn.closed = true;
    if (conn.over_cap) stats_->on_client_dropped();
    conn.owned.swap(owned);
    ::shutdown(conn.fd, SHUT_RDWR);
  }
  for (const std::uint64_t id : owned) scheduler_.cancel(id);
}

void Server::handle_line(const std::shared_ptr<Connection>& conn,
                         std::string_view line) try {
  const Request req = parse_request(line);
  switch (req.kind) {
    case RequestKind::kPing:
      conn->write_line(pong_line());
      return;
    case RequestKind::kStats:
      conn->write_line(stats_line(stats_->snapshot()));
      return;
    case RequestKind::kCancel:
      // A client cancels only its own runs. Ids count up from 1, so
      // another connection's id is easy to guess; it gets the same
      // error as an unknown one.
      if (!conn->owns(req.cancel_id) || !scheduler_.cancel(req.cancel_id)) {
        conn->write_line(error_line("cancel: unknown or finished id " +
                                    std::to_string(req.cancel_id)));
      }
      // The cancelled_line arrives via on_cancelled.
      return;
    case RequestKind::kRun:
      handle_run(conn, req.run);
      return;
  }
} catch (const ProtocolError& e) {
  conn->write_line(error_line(e.what()));
}

void Server::handle_run(const std::shared_ptr<Connection>& conn,
                        const RunRequest& request) {
  const campaign::Scenario* scenario = campaign::find_scenario(request.preset);
  if (scenario == nullptr) {
    throw ProtocolError("unknown preset '" + request.preset + "'");
  }

  Scheduler::Callbacks callbacks;
  callbacks.on_record = [conn](std::uint64_t id, const std::string& record) {
    conn->write_line(framed_line("chunk", id, record));
  };
  callbacks.on_complete = [conn](std::uint64_t id, const std::string& trailer,
                                 const campaign::CampaignResult& result,
                                 double wall_ms, double queue_wait_ms,
                                 std::size_t chunks) {
    conn->write_line(framed_line("trailer", id, trailer));
    conn->write_line(
        report_line(id, campaign::to_csv(result), campaign::to_json(result)));
    conn->write_line(done_line(id, chunks, wall_ms, queue_wait_ms));
    conn->remove_owned(id);
  };
  callbacks.on_cancelled = [conn](std::uint64_t id,
                                  std::size_t chunks_completed) {
    conn->write_line(cancelled_line(id, chunks_completed));
    conn->remove_owned(id);
  };

  const Admission adm =
      scheduler_.submit(*scenario, request, std::move(callbacks));
  if (!adm.admitted) {
    conn->write_line(rejected_line(adm.retry_after_ms, adm.reason));
    return;
  }
  // Wire-order guarantee: admitted and header frames are sent or queued
  // before start() releases the request, so no chunk frame precedes them.
  conn->add_owned(adm.id);
  conn->write_line(
      admitted_line(adm.id, request.preset, adm.total_chunks, adm.queue_depth));
  conn->write_line(framed_line("header", adm.id, adm.header_line));
  scheduler_.start(adm.id);
}

}  // namespace hs::serve
