/// @file
/// campaign_serverd's connection layer: a line-delimited JSON protocol
/// (serve/protocol.hpp) over a Unix-domain socket in front of the
/// session-scoped Scheduler.
///
/// Request lifecycle (the data flow docs/ARCHITECTURE.md narrates):
///
///   poll loop              scheduler worker            client socket
///   ------------------     ------------------------    -------------
///   parse_request
///   find_scenario
///   Scheduler::submit  --> admitted? ------------- no: rejected_line
///        |                                         yes: admitted_line
///        |                                              header frame
///   Scheduler::start   --> run_chunk per chunk  ---->  chunk frames
///                          last chunk delivered ---->  trailer frame
///                          assemble_result       ---->  report_line
///                                                       done_line
///
/// run() is the only thread that accepts or reads: one poll() loop
/// accepts connections, reads request lines and sends output a socket
/// could not take at once. Every writer, the loop's replies and the
/// scheduler callbacks alike, sends without blocking while nothing is
/// queued and queues the rest on the connection, so a client that stops
/// reading never holds a worker; one whose unsent output passes
/// kMaxUnsentBytes is dropped and its requests cancelled, as is one that
/// hangs up. An idle client costs one fd and no thread.
///
/// Running out of fds or memory (EMFILE, ENFILE, ENOBUFS, ENOMEM from
/// accept) is load, not a fault: the listening socket sits out the next
/// poll(), which waits at most 100 ms, and new connections wait in the
/// backlog until earlier ones close. obs::ServiceStats counts both kinds
/// of shed load.
///
/// Shutdown: shutdown() sets an atomic flag and writes one byte to a
/// non-blocking self-pipe, so a SIGTERM handler may call it. run() then
/// stops accepting, keeps reading and sending while the scheduler drains
/// (new requests are answered "server is draining"), sends what is left
/// until no connection has taken a byte for 30 s, and closes them all.
#pragma once

#include <atomic>
#include <cstddef>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "obs/service_stats.hpp"
#include "serve/scheduler.hpp"

namespace hs::serve {

/// Unsent output a connection may hold before it is dropped. The largest
/// frame is a report of ~15 KB (fig13-high-power-noshield), so 1 MiB
/// holds over 60 of them behind a reader that falls behind for a moment. At
/// the default limit of 1,024 fds, all backlogs together stay under
/// 1 GiB.
inline constexpr std::size_t kMaxUnsentBytes = std::size_t{1} << 20;

struct ServerOptions {
  /// Path of the Unix-domain socket to bind; an existing socket file is
  /// replaced.
  std::string unix_path;
  SchedulerOptions scheduler;
};

class Server {
 public:
  Server(ServerOptions options, obs::ServiceStats* stats);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Binds and listens. Throws std::runtime_error on socket failures.
  void start();

  /// Serves until shutdown(), then drains: every admitted request
  /// completes and streams out before every connection closes. A socket
  /// error other than running out of fds or memory ends the loop and is
  /// rethrown once the scheduler has drained.
  void run();

  /// Requests graceful termination of run(). Async-signal-safe.
  void shutdown();

 private:
  struct Connection;

  void serve();
  bool accept_pending();
  void read_from(const std::shared_ptr<Connection>& conn);
  void drop(Connection& conn);
  void handle_line(const std::shared_ptr<Connection>& conn,
                   std::string_view line);
  void handle_run(const std::shared_ptr<Connection>& conn,
                  const RunRequest& request);

  ServerOptions options_;
  obs::ServiceStats* stats_;
  Scheduler scheduler_;

  int listen_fd_ = -1;
  int wake_rd_ = -1;  ///< self-pipe read end, always in the poll set
  int wake_wr_ = -1;  ///< self-pipe write end (shutdown() and writers)
  std::string bound_unix_path_;  ///< unlinked on close

  std::atomic<bool> stop_requested_{false};
  std::atomic<bool> drained_{false};
  std::thread drainer_;  ///< runs Scheduler::drain() once stopping
  /// Open connections in accept order; touched only by run().
  std::vector<std::shared_ptr<Connection>> conns_;
};

}  // namespace hs::serve
