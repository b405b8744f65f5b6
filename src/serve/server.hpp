/// @file
/// campaign_serverd's connection layer: a line-delimited JSON protocol
/// (serve/protocol.hpp) over a local stream socket — TCP on 127.0.0.1 or
/// a Unix-domain socket — in front of the session-scoped Scheduler.
///
/// Request lifecycle (the data flow docs/ARCHITECTURE.md narrates):
///
///   reader thread          scheduler worker            client socket
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
/// One reader thread per connection; a shared per-connection writer
/// (mutex-serialized, MSG_NOSIGNAL, dead-latch on EPIPE) is the only
/// thing scheduler callbacks touch, so a client that disconnects
/// mid-stream never takes a worker down — its remaining frames are
/// dropped and its in-flight requests cancelled.
///
/// A reader that sees its client go away removes its connection from the
/// live set, so the fd closes as soon as the last in-flight callback
/// releases the connection; the accept loop joins exited readers on its
/// next wakeup. A long-lived daemon therefore holds fds and threads only
/// for connected clients.
///
/// Running out of fds or memory (EMFILE, ENFILE, ENOBUFS, ENOMEM from
/// accept) is load, not a fault: the accept loop waits a bounded interval
/// on the self-pipe alone, then retries, so connections past the limit
/// wait in the listen backlog until earlier ones close.
///
/// Shutdown: shutdown() only write()s one byte to a self-pipe
/// (async-signal-safe — the SIGTERM handler may call it directly). run()
/// then stops accepting, drains the scheduler (admitted requests finish
/// streaming), and closes every connection.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "obs/service_stats.hpp"
#include "serve/scheduler.hpp"

namespace hs::serve {

struct ServerOptions {
  /// Non-empty binds a Unix-domain socket at this path (an existing
  /// socket file is replaced). Takes precedence over TCP.
  std::string unix_path;
  /// TCP port on 127.0.0.1 (0 = ephemeral; read bound_port() after
  /// start()). Used only when unix_path is empty.
  std::uint16_t tcp_port = 0;
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

  /// The TCP port actually bound (resolves tcp_port == 0). 0 for Unix.
  std::uint16_t bound_port() const { return bound_port_; }

  /// Serves until shutdown(): accepts connections, spawns one reader
  /// thread each. On shutdown it stops accepting, drains the scheduler
  /// (every admitted request completes and streams out), then closes
  /// all connections and joins the readers. A socket error other than
  /// running out of fds or memory ends the loop the same way, and is
  /// rethrown only after every reader has been joined.
  void run();

  /// Requests graceful termination of run(). Only write()s to the
  /// self-pipe — safe to call from a signal handler or any thread.
  void shutdown();

 private:
  struct Connection;

  void accept_loop();
  void reader_loop(std::uint64_t id, std::shared_ptr<Connection> conn);
  void handle_line(const std::shared_ptr<Connection>& conn,
                   std::string_view line);
  void handle_run(const std::shared_ptr<Connection>& conn,
                  const RunRequest& request);

  ServerOptions options_;
  obs::ServiceStats* stats_;
  Scheduler scheduler_;

  int listen_fd_ = -1;
  int wake_rd_ = -1;  ///< self-pipe read end (poll'd beside listen_fd_)
  int wake_wr_ = -1;  ///< self-pipe write end (shutdown() writes here)
  std::uint16_t bound_port_ = 0;
  std::string bound_unix_path_;  ///< unlinked on close

  struct Reader {
    std::shared_ptr<Connection> conn;
    std::thread thread;
  };

  std::mutex conns_mutex_;
  /// Connected clients by accept order; guarded by conns_mutex_.
  std::map<std::uint64_t, Reader> readers_;
  /// Threads of readers that have exited, awaiting a join; guarded by
  /// conns_mutex_.
  std::vector<std::thread> finished_readers_;
  std::uint64_t next_reader_id_ = 0;  ///< guarded by conns_mutex_
  bool stopping_ = false;             ///< guarded by conns_mutex_
};

}  // namespace hs::serve
