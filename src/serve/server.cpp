#include "serve/server.hpp"

#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <exception>
#include <set>
#include <stdexcept>

#include "campaign/report.hpp"
#include "campaign/scenario.hpp"

namespace hs::serve {

namespace {

[[noreturn]] void throw_errno(const char* what) {
  throw std::runtime_error(std::string(what) + ": " +
                           std::strerror(errno));
}

/// accept() errors that mean the process or the system is short of fds
/// or memory for now. The pending connection stays in the backlog until
/// a closing connection frees what the next accept needs.
bool accept_resource_error(int err) {
  return err == EMFILE || err == ENFILE || err == ENOBUFS || err == ENOMEM;
}

/// How long the accept loop listens to the wake pipe alone after a
/// resource error before it tries accept() again.
constexpr int kAcceptRetryMs = 100;

}  // namespace

/// Per-client state. The write side is shared between the reader thread
/// and scheduler workers: `mutex` serializes whole lines, `dead` latches
/// on the first short/failed write so every later frame is dropped
/// instead of blocking a worker on a gone client.
struct Server::Connection {
  explicit Connection(int fd_in) : fd(fd_in) {}
  ~Connection() {
    if (fd >= 0) ::close(fd);
  }

  /// Writes `line` + '\n'. Returns false (and latches dead) on failure.
  bool write_line(const std::string& line) {
    std::lock_guard<std::mutex> lock(mutex);
    if (dead) return false;
    std::string framed = line;
    framed += '\n';
    std::size_t off = 0;
    while (off < framed.size()) {
      const ssize_t n = ::send(fd, framed.data() + off, framed.size() - off,
                               MSG_NOSIGNAL);
      if (n <= 0) {
        if (n < 0 && errno == EINTR) continue;
        dead = true;
        return false;
      }
      off += static_cast<std::size_t>(n);
    }
    return true;
  }

  void add_owned(std::uint64_t id) {
    std::lock_guard<std::mutex> lock(mutex);
    owned.insert(id);
  }

  void remove_owned(std::uint64_t id) {
    std::lock_guard<std::mutex> lock(mutex);
    owned.erase(id);
  }

  std::vector<std::uint64_t> take_owned() {
    std::lock_guard<std::mutex> lock(mutex);
    std::vector<std::uint64_t> ids(owned.begin(), owned.end());
    owned.clear();
    return ids;
  }

  const int fd;
  std::mutex mutex;
  bool dead = false;              ///< guarded by mutex
  std::set<std::uint64_t> owned;  ///< live request ids; guarded by mutex
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
  if (::pipe(pipefd) != 0) throw_errno("pipe");
  wake_rd_ = pipefd[0];
  wake_wr_ = pipefd[1];

  if (!options_.unix_path.empty()) {
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (options_.unix_path.size() >= sizeof(addr.sun_path)) {
      throw std::runtime_error("unix socket path too long: " +
                               options_.unix_path);
    }
    std::strncpy(addr.sun_path, options_.unix_path.c_str(),
                 sizeof(addr.sun_path) - 1);
    listen_fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (listen_fd_ < 0) throw_errno("socket(AF_UNIX)");
    ::unlink(options_.unix_path.c_str());
    if (::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&addr),
               sizeof(addr)) != 0) {
      throw_errno("bind(unix)");
    }
    bound_unix_path_ = options_.unix_path;
  } else {
    listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (listen_fd_ < 0) throw_errno("socket(AF_INET)");
    const int one = 1;
    ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(options_.tcp_port);
    if (::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&addr),
               sizeof(addr)) != 0) {
      throw_errno("bind(tcp)");
    }
    sockaddr_in bound{};
    socklen_t len = sizeof(bound);
    if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound),
                      &len) != 0) {
      throw_errno("getsockname");
    }
    bound_port_ = ntohs(bound.sin_port);
  }
  if (::listen(listen_fd_, 16) != 0) throw_errno("listen");
}

void Server::shutdown() {
  if (wake_wr_ >= 0) {
    const char byte = 'q';
    // Best-effort, async-signal-safe: a full pipe already means a wake
    // byte is pending.
    [[maybe_unused]] const ssize_t n = ::write(wake_wr_, &byte, 1);
  }
}

void Server::run() {
  // Whatever ends the accept loop, shutdown() or an error, the readers
  // are joined before run() returns or rethrows: destroying a joinable
  // std::thread would terminate the process.
  std::exception_ptr failure;
  try {
    accept_loop();
  } catch (...) {
    failure = std::current_exception();
  }

  // Graceful drain: no new connections or admissions; every admitted
  // request runs to completion and streams its frames before we close.
  scheduler_.drain();

  std::vector<std::thread> readers;
  {
    std::lock_guard<std::mutex> lock(conns_mutex_);
    stopping_ = true;
    readers.swap(finished_readers_);
    for (auto& [id, reader] : readers_) {
      ::shutdown(reader.conn->fd, SHUT_RDWR);  // wakes it out of poll/read
      readers.push_back(std::move(reader.thread));
    }
  }
  for (auto& t : readers) {
    if (t.joinable()) t.join();
  }
  scheduler_.stop();
  if (failure) std::rethrow_exception(failure);
}

void Server::accept_loop() {
  for (;;) {
    pollfd fds[2] = {{listen_fd_, POLLIN, 0}, {wake_rd_, POLLIN, 0}};
    const int rc = ::poll(fds, 2, -1);
    if (rc < 0) {
      if (errno == EINTR) continue;
      throw_errno("poll(accept)");
    }
    if (fds[1].revents != 0) return;  // shutdown() woke us
    if ((fds[0].revents & POLLIN) == 0) continue;
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR || errno == ECONNABORTED) continue;
      if (!accept_resource_error(errno)) throw_errno("accept");
      // Out of fds or memory is load, not a fault: the listen fd stays
      // readable, so wait on the wake pipe alone for a while, then retry.
      pollfd wake{wake_rd_, POLLIN, 0};
      if (::poll(&wake, 1, kAcceptRetryMs) > 0) return;  // shutdown()
      continue;
    }
    // Bound writes so a client that stops reading mid-stream latches the
    // connection dead instead of wedging a scheduler worker (and drain).
    timeval send_timeout{30, 0};
    ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &send_timeout,
                 sizeof(send_timeout));
    auto conn = std::make_shared<Connection>(fd);
    std::vector<std::thread> finished;
    {
      std::lock_guard<std::mutex> lock(conns_mutex_);
      if (stopping_) continue;  // fd closes via conn's destructor
      const std::uint64_t id = next_reader_id_++;
      Reader& reader = readers_[id];
      reader.conn = conn;
      reader.thread = std::thread(
          [this, id, conn]() mutable { reader_loop(id, std::move(conn)); });
      finished.swap(finished_readers_);
    }
    for (auto& t : finished) t.join();
  }
}

void Server::reader_loop(std::uint64_t id, std::shared_ptr<Connection> conn) {
  std::string buffer;
  char chunk[4096];
  bool protocol_abort = false;
  for (;;) {
    // The 200 ms tick bounds how long a reader lingers after run()
    // calls ::shutdown() on the fd (poll then reports POLLHUP).
    pollfd pfd{conn->fd, POLLIN, 0};
    const int rc = ::poll(&pfd, 1, 200);
    if (rc < 0) {
      if (errno == EINTR) continue;
      break;
    }
    {
      std::lock_guard<std::mutex> lock(conns_mutex_);
      if (stopping_) break;
    }
    if (rc == 0) continue;
    const ssize_t n = ::recv(conn->fd, chunk, sizeof chunk, 0);
    if (n <= 0) break;  // EOF or error: client is gone
    buffer.append(chunk, static_cast<std::size_t>(n));

    std::size_t start = 0;
    for (;;) {
      const std::size_t nl = buffer.find('\n', start);
      if (nl == std::string::npos) break;
      std::string_view line(buffer.data() + start, nl - start);
      if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
      if (!line.empty()) handle_line(conn, line);
      start = nl + 1;
    }
    buffer.erase(0, start);
    if (buffer.size() > kMaxRequestBytes) {
      // An unterminated line past the request cap is a protocol
      // violation; answer once and drop the connection before the
      // buffer grows unbounded.
      conn->write_line(error_line("request line exceeds " +
                                  std::to_string(kMaxRequestBytes) +
                                  " bytes"));
      protocol_abort = true;
      break;
    }
  }

  // Whatever this client still had running is abandoned work.
  for (const std::uint64_t id : conn->take_owned()) {
    scheduler_.cancel(id);
  }
  {
    std::lock_guard<std::mutex> lock(conn->mutex);
    conn->dead = true;
  }
  if (protocol_abort) ::shutdown(conn->fd, SHUT_RDWR);

  // Leave the live set: the fd closes once this frame and any in-flight
  // callback release `conn`, and the next accept joins this thread.
  std::lock_guard<std::mutex> lock(conns_mutex_);
  const auto it = readers_.find(id);
  if (it != readers_.end()) {
    finished_readers_.push_back(std::move(it->second.thread));
    readers_.erase(it);
  }
}

void Server::handle_line(const std::shared_ptr<Connection>& conn,
                         std::string_view line) {
  Request req;
  try {
    req = parse_request(line);
  } catch (const ProtocolError& e) {
    conn->write_line(error_line(e.what()));
    return;
  }
  switch (req.kind) {
    case RequestKind::kPing:
      conn->write_line(pong_line());
      return;
    case RequestKind::kStats:
      conn->write_line(stats_line(stats_->snapshot()));
      return;
    case RequestKind::kCancel:
      if (!scheduler_.cancel(req.cancel_id)) {
        conn->write_line(error_line("cancel: unknown or finished id " +
                                    std::to_string(req.cancel_id)));
      }
      // The cancelled_line arrives via on_cancelled.
      return;
    case RequestKind::kRun:
      handle_run(conn, req.run);
      return;
  }
}

void Server::handle_run(const std::shared_ptr<Connection>& conn,
                        const RunRequest& request) {
  const campaign::Scenario* scenario = campaign::find_scenario(request.preset);
  if (scenario == nullptr) {
    conn->write_line(error_line("unknown preset '" + request.preset + "'"));
    return;
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
  // Wire-order guarantee: admitted and header frames go out before
  // start() releases the request — no worker can emit a chunk frame
  // first.
  conn->add_owned(adm.id);
  conn->write_line(
      admitted_line(adm.id, request.preset, adm.total_chunks, adm.queue_depth));
  conn->write_line(framed_line("header", adm.id, adm.header_line));
  scheduler_.start(adm.id);
}

}  // namespace hs::serve
