// serve-mixed: an in-process serve::Server on a Unix socket, driven by a
// closed loop of two clients that open one connection per request.
#include <dirent.h>
#include <sched.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <condition_variable>
#include <cstdlib>
#include <cstring>
#include <mutex>
#include <optional>
#include <random>
#include <stdexcept>
#include <thread>

#include "obs/service_stats.hpp"
#include "obs/trace.hpp"
#include "perfbench.hpp"
#include "serve/server.hpp"

namespace perfbench {

namespace {

namespace campaign = hs::campaign;

/// One scheduler worker: the throughput of two busy workers depends on
/// which host cores they land on together, which changes from run to run.
constexpr unsigned kWorkers = 1;
/// Two requests per worker: a worker always has a queued request to take
/// while a finished one's client reads its last frames and reconnects, so
/// the window measures the worker rather than the hand-off gaps between
/// requests.
constexpr unsigned kClients = 2 * kWorkers;
constexpr unsigned kShortPriority = 4;
constexpr unsigned kLongPriority = 1;
/// How long the whole process stays on one CPU (see ProcessRotation).
constexpr auto kRotatePeriod = std::chrono::milliseconds(250);

/// Keeps every thread of the process (server, worker, readers, clients)
/// on one CPU of the affinity mask, moving them all to the next CPU every
/// kRotatePeriod, and restores the mask on destruction. On a shared host
/// the cores' speeds differ by up to 1.8x for tens of seconds, and a
/// thread that blocks on every hand-off pays however long an idle vCPU
/// takes to wake; one CPU at a time turns each hand-off into a context
/// switch, and visiting every CPU in turn averages their speeds (as the
/// fig9-cli window does per campaign).
class ProcessRotation {
 public:
  ProcessRotation() {
    if (::sched_getaffinity(0, sizeof saved_, &saved_) != 0) return;
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &saved_)) cpus_.push_back(c);
    }
    if (cpus_.size() < 2) return;
    thread_ = std::thread([this] {
      std::unique_lock<std::mutex> lock(mutex_);
      for (std::size_t k = 0; !stop_; ++k) {
        cpu_set_t one;
        CPU_ZERO(&one);
        CPU_SET(cpus_[k % cpus_.size()], &one);
        set_all(one);
        stopped_.wait_for(lock, kRotatePeriod, [this] { return stop_; });
      }
    });
  }
  ~ProcessRotation() {
    if (!thread_.joinable()) return;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      stop_ = true;
    }
    stopped_.notify_one();
    thread_.join();
    set_all(saved_);
  }
  ProcessRotation(const ProcessRotation&) = delete;
  ProcessRotation& operator=(const ProcessRotation&) = delete;

 private:
  /// Sets the mask of every thread (a thread that exits meanwhile is
  /// skipped; one started meanwhile inherits its creator's mask).
  static void set_all(const cpu_set_t& mask) {
    DIR* dir = ::opendir("/proc/self/task");
    if (dir == nullptr) return;
    while (const dirent* e = ::readdir(dir)) {
      if (e->d_name[0] == '.') continue;
      ::sched_setaffinity(static_cast<pid_t>(std::atol(e->d_name)),
                          sizeof mask, &mask);
    }
    ::closedir(dir);
  }

  cpu_set_t saved_{};
  std::vector<int> cpus_;
  std::mutex mutex_;
  std::condition_variable stopped_;
  bool stop_ = false;
  std::thread thread_;
};

/// A server running on its own thread; shut down and joined on
/// destruction, so no exit path leaves the thread running.
class RunningServer {
 public:
  RunningServer(const std::string& path, const Args& args) {
    hs::serve::ServerOptions options;
    options.unix_path = path;
    options.scheduler.workers = kWorkers;
    options.scheduler.max_active = args.serve_max_active;
    options.scheduler.max_queue = args.serve_max_queue;
    server_.emplace(options, &stats_);
    server_->start();
    thread_ = std::thread([this] { server_->run(); });
  }
  ~RunningServer() {
    server_->shutdown();
    thread_.join();
  }
  RunningServer(const RunningServer&) = delete;
  RunningServer& operator=(const RunningServer&) = delete;

 private:
  hs::obs::ServiceStats stats_;
  std::optional<hs::serve::Server> server_;
  std::thread thread_;
};

/// A connected client socket, closed on destruction.
class Connection {
 public:
  explicit Connection(const std::string& path)
      : fd_(::socket(AF_UNIX, SOCK_STREAM, 0)) {
    if (fd_ < 0) return;
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
    if (::connect(fd_, reinterpret_cast<const sockaddr*>(&addr),
                  sizeof(addr)) != 0) {
      ::close(fd_);
      fd_ = -1;
    }
  }
  ~Connection() {
    if (fd_ >= 0) ::close(fd_);
  }
  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  bool ok() const { return fd_ >= 0; }

  bool send_line(const std::string& line) {
    const std::string framed = line + "\n";
    std::size_t off = 0;
    while (off < framed.size()) {
      const ssize_t n = ::send(fd_, framed.data() + off, framed.size() - off,
                               MSG_NOSIGNAL);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) return false;
      off += static_cast<std::size_t>(n);
    }
    return true;
  }

  /// Next response line (without '\n'); false on EOF or error.
  bool read_line(std::string* line) {
    for (;;) {
      const std::size_t nl = buffer_.find('\n');
      if (nl != std::string::npos) {
        *line = buffer_.substr(0, nl);
        buffer_.erase(0, nl + 1);
        return true;
      }
      char chunk[65536];
      const ssize_t n = ::recv(fd_, chunk, sizeof chunk, 0);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) return false;
      buffer_.append(chunk, static_cast<std::size_t>(n));
    }
  }

 private:
  int fd_;
  std::string buffer_;
};

/// The `type` of a response frame; every frame starts {"type":"...".
std::string frame_type(const std::string& line) {
  constexpr std::string_view prefix = "{\"type\":\"";
  if (line.compare(0, prefix.size(), prefix) != 0) return "";
  const std::size_t end = line.find('"', prefix.size());
  if (end == std::string::npos) return "";
  return line.substr(prefix.size(), end - prefix.size());
}

/// The `retry_after_ms` hint of a rejected frame (0 if absent).
std::uint64_t retry_after_ms(const std::string& line) {
  constexpr std::string_view key = "\"retry_after_ms\":";
  const std::size_t at = line.find(key);
  if (at == std::string::npos) return 0;
  return std::strtoull(line.c_str() + at + key.size(), nullptr, 10);
}

/// Requests this process may still send. The server keeps every
/// accepted connection's fd until shutdown (the per-connection leak that
/// serve.open_fds_delta shows), so each request costs one descriptor
/// until the window ends; the window stops short of the fd limit
/// rather than let accept() fail.
std::size_t request_budget() {
  rlimit lim{};
  if (::getrlimit(RLIMIT_NOFILE, &lim) != 0) return 0;
  const rlim_t limit = lim.rlim_cur;
  const std::size_t open = count_dir_entries("/proc/self/fd");
  constexpr std::size_t kMargin = 64;
  return limit > open + kMargin ? limit - open - kMargin : 0;
}

/// Raises the soft fd limit to the hard one.
void raise_fd_limit() {
  rlimit lim{};
  if (::getrlimit(RLIMIT_NOFILE, &lim) != 0) return;
  const rlim_t cap = 1 << 20;
  lim.rlim_cur = lim.rlim_max == RLIM_INFINITY ? cap : std::min(lim.rlim_max, cap);
  ::setrlimit(RLIMIT_NOFILE, &lim);
}

double ping(const std::string& path) {
  const auto t0 = Clock::now();
  for (int attempt = 0; attempt < 100; ++attempt) {
    Connection conn(path);
    std::string line;
    if (conn.ok() && conn.send_line("{\"cmd\":\"ping\"}") &&
        conn.read_line(&line) && frame_type(line) == "pong") {
      return ms_between(t0, Clock::now()) / 1e3;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  throw std::runtime_error("server at " + path + " never answered ping");
}

struct Request {
  const CampaignShape* shape;
  std::uint64_t seed;
  bool is_long;
};

/// The seeded request mix: blocks of four with the one long request at a
/// seeded position. Seeds are drawn without replacement from each pool
/// (the service's snapshot cache would otherwise turn a repeated seed
/// into a warm hit); a pool that runs out wraps and is counted.
class RequestMix {
 public:
  explicit RequestMix(std::uint64_t seed)
      : rng_(seed * 0x2545F4914F6CDD1DULL + 11),
        long_(seed_order(seed, 91, kFig9.pool)),
        short_(seed_order(seed, 11, kFig11.pool)) {}

  Request next(std::size_t* wraps) {
    if (slot_ % 4 == 0) long_slot_ = rng_() % 4;
    const bool is_long = slot_ % 4 == long_slot_;
    ++slot_;
    std::size_t& i = is_long ? next_long_ : next_short_;
    const std::vector<std::uint64_t>& order = is_long ? long_ : short_;
    if (i > 0 && i % order.size() == 0) ++*wraps;
    const std::uint64_t seed = order[i++ % order.size()];
    return {is_long ? &kFig9 : &kFig11, seed, is_long};
  }

 private:
  std::mt19937_64 rng_;
  std::vector<std::uint64_t> long_, short_;
  std::size_t slot_ = 0, long_slot_ = 0, next_long_ = 0, next_short_ = 0;
};

Op run_request(const std::string& path, const Request& q, bool traced) {
  Op op = new_op(*q.shape, q.seed, traced);
  op.cls = q.is_long ? "long" : "short";
  op.trial_count = q.shape->trials * scenario(*q.shape).point_count();
  Connection conn(path);
  const std::string request =
      "{\"cmd\":\"run\",\"preset\":\"" + op.preset +
      "\",\"seed\":" + std::to_string(q.seed) +
      ",\"trials\":" + std::to_string(op.trials) +
      ",\"chunk_size\":" + std::to_string(kChunkSize) + ",\"priority\":" +
      std::to_string(q.is_long ? kLongPriority : kShortPriority) + "}";
  if (!conn.ok() || !conn.send_line(request)) {
    op.outcome = "io";
    op.detail = "connect/send failed";
    return op;
  }
  std::string line;
  while (conn.read_line(&line)) {
    op.bytes += line.size() + 1;
    const std::string type = frame_type(line);
    if (type == "report") {
      op.report_frame = line;
    } else if (type == "done") {
      op.done_frame = line;
      return op;
    } else if (type == "rejected" || type == "error" ||
               type == "cancelled") {
      op.outcome = type;
      op.detail = line;
      return op;
    }
  }
  op.outcome = "io";
  op.detail = "connection closed before done";
  return op;
}

/// One closed-loop window: every client sends its next request as soon
/// as the previous one completes, until `seconds` pass (and, untraced,
/// until kMinOps requests completed).
void run_clients(const std::string& path, const Args& args, bool traced,
                 RequestMix& mix, hs::obs::TraceRecorder* recorder,
                 std::size_t* budget, OpLog& log, Result& r) {
  std::mutex mutex;  // guards mix, completed, window_end, *budget and r
  const auto t0 = Clock::now();
  const double window_ms = args.seconds * 1e3 / (args.trace ? 2.0 : 1.0);
  std::size_t completed = 0;
  double window_end = 0.0;
  const auto client = [&](unsigned index) {
    hs::obs::MetricsRegistry registry;
    std::optional<hs::obs::WorkerScope> scope;
    if (traced) {
      scope.emplace(&registry, recorder, "client-" + std::to_string(index));
    }
    for (;;) {
      Request q{};
      {
        std::lock_guard<std::mutex> lock(mutex);
        const double elapsed = ms_between(t0, Clock::now());
        const bool enough = args.trace || completed >= kMinOps;
        if ((elapsed >= window_ms && enough) || elapsed >= 3 * window_ms) {
          return;
        }
        if (*budget == 0) {
          r.fd_capped = true;
          return;
        }
        --*budget;
        q = mix.next(&r.pool_wraps);
      }
      const auto start = Clock::now();
      Op op;
      {
        std::optional<hs::obs::TraceSpan> span;
        if (traced) {
          span.emplace("perfbench", "request " + std::string(q.shape->preset),
                       "{\"seed\":" + std::to_string(q.seed) + "}");
        }
        op = run_request(path, q, traced);
      }
      if (scope) scope->flush();
      const auto end = Clock::now();
      op.wall_ms = ms_between(start, end);
      op.end_ms = ms_between(t0, end);
      // A refused client backs off as the service asks (as
      // tools/hs_client.py does, capped here at a second); the refusal
      // itself counts as failed.
      const std::uint64_t backoff =
          op.outcome == "rejected"
              ? std::min<std::uint64_t>(retry_after_ms(op.detail), 1000)
              : 0;
      log.add(op);
      {
        std::lock_guard<std::mutex> lock(mutex);
        if (op.outcome == "ok" && ++completed == kMinOps && !traced) {
          r.peak_rss_kb = peak_rss_kb();
        }
        window_end = std::max(window_end, op.end_ms);
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(backoff));
    }
  };
  std::vector<std::thread> clients;
  for (unsigned i = 0; i < kClients; ++i) clients.emplace_back(client, i);
  for (auto& t : clients) t.join();
  if (!traced) r.window_s = window_end / 1e3;
}

}  // namespace

Result run_serve_mixed(const Args& args, OpLog& log) {
  Result r;
  raise_fd_limit();
  const std::string path = "perfbench-" + std::to_string(::getpid()) + ".sock";
  // Set-up: the cold deployments of both request classes, then bind,
  // listen and worker spawn up to the first pong.
  const std::vector<double> cold9 = cold_starts(kFig9, args.seed, 92);
  const std::vector<double> cold11 = cold_starts(kFig11, args.seed, 93);
  for (std::size_t i = 0; i < kSetupReps; ++i) {
    const auto t0 = Clock::now();
    RunningServer server(path, args);
    ping(path);
    r.setup_s.push_back(cold9[i] + cold11[i] +
                        ms_between(t0, Clock::now()) / 1e3);
  }

  RequestMix mix(args.seed);
  hs::obs::TraceRecorder recorder;
  {
    RunningServer server(path, args);
    ping(path);
    std::size_t budget = request_budget();
    const std::size_t fds0 = count_dir_entries("/proc/self/fd");
    const std::size_t threads0 = count_dir_entries("/proc/self/task");
    {
      ProcessRotation rotation;
      run_clients(path, args, false, mix, nullptr, &budget, log, r);
      if (args.trace) {
        run_clients(path, args, true, mix, &recorder, &budget, log, r);
      }
    }
    // Let the server's per-connection readers see their clients' EOF.
    std::this_thread::sleep_for(std::chrono::milliseconds(300));
    r.layers["serve.open_fds_delta"] =
        static_cast<double>(count_dir_entries("/proc/self/fd")) -
        static_cast<double>(fds0);
    r.layers["serve.threads_delta"] =
        static_cast<double>(count_dir_entries("/proc/self/task")) -
        static_cast<double>(threads0);
  }
  if (!args.trace) return r;

  // Service workers run obs-detached, so the engine rows come from the
  // same mix run directly through run_campaign with phase timers on, each
  // request first untraced and then traced (their throughput ratio is
  // trace_overhead), and the stream rows from dispatching one long
  // request's campaign.
  hs::obs::MetricsRegistry bench_registry;
  hs::obs::WorkerScope scope(&bench_registry, &recorder, "perfbench");
  EngineAgg engine;
  RequestMix direct(args.seed);
  std::size_t wraps = 0;
  std::optional<Request> long_request;
  for (int i = 0; i < 8; ++i) {
    const Request q = direct.next(&wraps);
    if (q.is_long && !long_request) long_request = q;
    for (const bool traced : {false, true}) {
      Op op = new_op(*q.shape, q.seed, traced);
      op.cls = "direct";
      campaign::CampaignOptions o = campaign_options(*q.shape, q.seed);
      o.metrics_timers = traced;
      o.trace = traced ? &recorder : nullptr;
      const auto start = Clock::now();
      campaign::CampaignResult result;
      {
        std::optional<hs::obs::TraceSpan> span;
        if (traced) span.emplace("perfbench", "run_campaign");
        result = campaign::run_campaign(scenario(*q.shape), o);
      }
      const auto r0 = Clock::now();
      fill_report(result, op);
      const auto end = Clock::now();
      op.wall_ms = ms_between(start, end);
      if (traced) {
        engine.add(result.metrics, result.wall_seconds * 1e9,
                   ms_between(r0, end));
        scope.flush();
      }
      log.add(op);
    }
  }
  StreamAgg streams;
  log.add(dispatch_probe(*long_request->shape, long_request->seed, streams));
  scope.flush();
  finish_traced(args, engine, streams, recorder, log, r);
  return r;
}

}  // namespace perfbench
