// Service-layer tests: the campaign_serverd wire protocol (strict
// request parsing — truncated frames, oversized requests, type
// confusion — plus response framing), the session-scoped scheduler's
// determinism contract (any interleaving of concurrent requests yields
// final reports byte-identical to serial runs, and the streamed chunk
// records reassemble into a stream the v3 parser accepts and folds to
// the same bytes), admission control (bounded queue, 429-style reject
// with retry-after, recovery after drain-down), cancellation semantics,
// graceful drain, a worker's live heap staying flat across requests
// that rebuild its deployment, and the socket layer end to end over a
// Unix socket (unknown preset, a run too large to plan, mid-stream
// client disconnect, concurrent clients, a cancel of another client's
// run, a client that never reads, one whose unsent output passes the
// cap, an unterminated line past the request cap, fds and threads
// released when clients hang up, a daemon that runs out of fds).
//
// Also part of the TSan suite (see .github/workflows/ci.yml): the
// scheduler's worker pool, per-request callback serialization and the
// per-connection writers are exactly the shared-state hot spots
// ThreadSanitizer is pointed at.
#include <gtest/gtest.h>

#include <fcntl.h>
#include <malloc.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <condition_variable>
#include <cstring>
#include <deque>
#include <filesystem>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "campaign/chunk_stream.hpp"
#include "campaign/report.hpp"
#include "campaign/runner.hpp"
#include "campaign/scenario.hpp"
#include "campaign/shard.hpp"
#include "serve/protocol.hpp"
#include "serve/scheduler.hpp"
#include "serve/server.hpp"

namespace hs {
namespace {

using campaign::CampaignOptions;
using campaign::CampaignResult;
using campaign::Scenario;
using serve::RunRequest;

// ---- protocol: strict request parsing --------------------------------------

TEST(ServeProtocol, ParsesFullRunRequest) {
  const auto req = serve::parse_request(
      R"({"cmd":"run","preset":"fig9-eaves-ber","seed":42,"trials":8,)"
      R"("chunk_size":2,"priority":5})");
  EXPECT_EQ(req.kind, serve::RequestKind::kRun);
  EXPECT_EQ(req.run.preset, "fig9-eaves-ber");
  EXPECT_EQ(req.run.seed, 42u);
  EXPECT_EQ(req.run.trials, 8u);
  EXPECT_EQ(req.run.chunk_size, 2u);
  EXPECT_EQ(req.run.priority, 5u);
}

TEST(ServeProtocol, DefaultsAndKeyOrderTolerance) {
  const auto req = serve::parse_request(
      "  { \"seed\" : 3 , \"cmd\" : \"run\" , \"preset\" : \"x\" }  ");
  EXPECT_EQ(req.run.preset, "x");
  EXPECT_EQ(req.run.seed, 3u);
  EXPECT_EQ(req.run.trials, 0u);      // preset default
  EXPECT_EQ(req.run.chunk_size, 1u);
  EXPECT_EQ(req.run.priority, 1u);

  const auto cancel = serve::parse_request(R"({"id":7,"cmd":"cancel"})");
  EXPECT_EQ(cancel.kind, serve::RequestKind::kCancel);
  EXPECT_EQ(cancel.cancel_id, 7u);
  EXPECT_EQ(serve::parse_request(R"({"cmd":"stats"})").kind,
            serve::RequestKind::kStats);
  EXPECT_EQ(serve::parse_request(R"({"cmd":"ping"})").kind,
            serve::RequestKind::kPing);
}

TEST(ServeProtocol, EveryTruncationOfAValidRequestIsRejected) {
  // Fuzz by construction: a line-delimited protocol's only framing
  // failure mode is a cut-off line, so every proper prefix of a valid
  // request must throw — none may parse as a smaller valid request.
  const std::string valid =
      R"({"cmd":"run","preset":"fig9-eaves-ber","seed":42,"trials":8,)"
      R"("chunk_size":2,"priority":5})";
  EXPECT_NO_THROW(serve::parse_request(valid));
  for (std::size_t len = 0; len < valid.size(); ++len) {
    EXPECT_THROW(serve::parse_request(valid.substr(0, len)),
                 serve::ProtocolError)
        << "prefix of length " << len << " parsed";
  }
}

TEST(ServeProtocol, MalformedRequestsAreRejectedNotGuessed) {
  const char* bad[] = {
      "",
      "not json",
      "{}",                                         // no cmd
      R"({"cmd":"run"})",                           // no preset
      R"({"cmd":"run","preset":""})",               // empty preset
      R"({"cmd":"run","preset":"x","seed":-1})",    // negative integer
      R"({"cmd":"run","preset":"x","seed":1.5})",   // float
      R"({"cmd":"run","preset":"x","seed":99999999999999999999})",
      R"({"cmd":"run","preset":"x","chunk_size":0})",
      R"({"cmd":"run","preset":"x","trials":100000001})",
      R"({"cmd":"run","preset":"x","priority":0})",
      R"({"cmd":"run","preset":"x","priority":9})",
      R"({"cmd":"run","preset":"x","seed":1,"seed":2})",     // duplicate
      R"({"cmd":"run","preset":"x","bogus":1})",             // unknown key
      R"({"cmd":"run","preset":"x","id":3})",                // cancel-only key
      R"({"cmd":"run","preset":"x","overrides":{"seed":1}})",
      R"({"cmd":"run","preset":"x","overrides":{"snapshots":"yes"}})",
      R"({"cmd":"run","preset":"x","overrides":{"reuse":true}})",
      R"({"cmd":"run","preset":"x","overrides":{"reuse":false}})",
      R"({"cmd":"run","preset":"x"} trailing)",
      R"({"cmd":"cancel"})",                        // no id
      R"({"cmd":"cancel","id":1,"preset":"x"})",    // run-only key
      R"({"cmd":"stats","id":1})",
      R"({"cmd":"ping","seed":1})",
      R"({"cmd":"selfdestruct"})",
      R"(["cmd","run"])",                           // not an object
  };
  for (const char* line : bad) {
    EXPECT_THROW(serve::parse_request(line), serve::ProtocolError)
        << "accepted: " << line;
  }
  // The size cap is enforced before any parsing work.
  std::string oversized = R"({"cmd":"run","preset":")";
  oversized += std::string(serve::kMaxRequestBytes, 'a');
  oversized += "\"}";
  EXPECT_THROW(serve::parse_request(oversized), serve::ProtocolError);
}

TEST(ServeProtocol, ResponseBuildersEscapePayloads) {
  const std::string err = serve::error_line("bad \"quote\"\nline");
  EXPECT_EQ(err.find('\n'), std::string::npos);
  EXPECT_NE(err.find("\\\"quote\\\""), std::string::npos);
  const std::string framed =
      serve::framed_line("chunk", 3, "{\"chunk\":0,\"crc\":\"abcd\"}");
  EXPECT_NE(framed.find("\"type\":\"chunk\""), std::string::npos);
  EXPECT_NE(framed.find("\"id\":3"), std::string::npos);
  EXPECT_NE(framed.find("\\\"crc\\\""), std::string::npos);
}

// ---- scheduler: determinism + admission + cancellation ---------------------

/// A small, fast scenario: 2 sweep points, so a request is a handful of
/// chunks while still crossing a point boundary (deployment reconfig).
Scenario small_scenario() {
  const Scenario* preset = campaign::find_scenario("fig8-tradeoff");
  EXPECT_NE(preset, nullptr);
  Scenario s = *preset;
  s.axis_values = {10, 20};
  s.units_per_trial = 1;
  s.default_trials = 2;
  return s;
}

/// Captures one request's full callback stream and lets a test wait for
/// its terminal event.
struct Outcome {
  std::mutex mutex;
  std::condition_variable cv;
  bool done = false;
  bool cancelled = false;
  std::vector<std::string> records;
  std::string trailer;
  CampaignResult result;
  std::size_t chunks = 0;
  std::size_t cancel_chunks = 0;

  void wait() {
    std::unique_lock<std::mutex> lock(mutex);
    cv.wait(lock, [this] { return done || cancelled; });
  }
};

serve::Scheduler::Callbacks capture(const std::shared_ptr<Outcome>& out) {
  serve::Scheduler::Callbacks cb;
  cb.on_record = [out](std::uint64_t, const std::string& record) {
    std::lock_guard<std::mutex> lock(out->mutex);
    out->records.push_back(record);
  };
  cb.on_complete = [out](std::uint64_t, const std::string& trailer,
                         const CampaignResult& result, double, double,
                         std::size_t chunks) {
    {
      std::lock_guard<std::mutex> lock(out->mutex);
      out->trailer = trailer;
      out->result = result;
      out->chunks = chunks;
      out->done = true;
    }
    out->cv.notify_all();
  };
  cb.on_cancelled = [out](std::uint64_t, std::size_t completed) {
    {
      std::lock_guard<std::mutex> lock(out->mutex);
      out->cancel_chunks = completed;
      out->cancelled = true;
    }
    out->cv.notify_all();
  };
  return cb;
}

/// The serial ground truth for a request: the canonical reports a
/// 1-thread campaign_runner run of the same request would write.
std::pair<std::string, std::string> serial_reports(const Scenario& s,
                                                   const RunRequest& r) {
  CampaignOptions o;
  o.seed = r.seed;
  o.trials_per_point = r.trials;
  o.chunk_size = r.chunk_size;
  o.threads = 1;
  CampaignResult result = campaign::run_campaign(s, o);
  campaign::canonicalize(result);
  return {campaign::to_csv(result), campaign::to_json(result)};
}

TEST(ServeScheduler, ConcurrentRequestsByteMatchSerialRuns) {
  const Scenario s = small_scenario();
  obs::ServiceStats stats;
  serve::SchedulerOptions options;
  options.workers = 4;
  options.max_active = 8;
  serve::Scheduler scheduler(options, &stats);

  // 6 concurrent requests with distinct seeds and mixed priorities and
  // chunk sizes: their chunks interleave over 4 workers in whatever
  // order the stride scheduler picks.
  constexpr std::size_t kRequests = 6;
  std::vector<RunRequest> requests(kRequests);
  std::vector<std::shared_ptr<Outcome>> outcomes;
  std::vector<std::uint64_t> ids;
  for (std::size_t i = 0; i < kRequests; ++i) {
    requests[i].preset = s.name;
    requests[i].seed = 100 + i;
    requests[i].trials = 2;
    requests[i].chunk_size = 1 + i % 2;
    requests[i].priority = 1 + static_cast<unsigned>(i % 8);
    auto out = std::make_shared<Outcome>();
    const serve::Admission adm =
        scheduler.submit(s, requests[i], capture(out));
    ASSERT_TRUE(adm.admitted);
    EXPECT_FALSE(adm.header_line.empty());
    outcomes.push_back(out);
    ids.push_back(adm.id);
  }
  for (std::size_t i = 0; i < kRequests; ++i) {
    scheduler.start(ids[i]);
  }
  for (std::size_t i = 0; i < kRequests; ++i) {
    outcomes[i]->wait();
    ASSERT_TRUE(outcomes[i]->done);
  }

  for (std::size_t i = 0; i < kRequests; ++i) {
    SCOPED_TRACE("request " + std::to_string(i));
    const auto [want_csv, want_json] = serial_reports(s, requests[i]);
    CampaignResult got = outcomes[i]->result;  // already canonical
    EXPECT_EQ(campaign::to_csv(got), want_csv);
    EXPECT_EQ(campaign::to_json(got), want_json);

    // The streamed frames must ALSO reassemble into a stream the v3
    // parser accepts (CRC seals intact, every chunk exactly once) and
    // fold to the same bytes — the client-side reconstruction path.
    std::map<std::size_t, std::string> by_chunk;
    for (const std::string& record : outcomes[i]->records) {
      const auto pos = record.find("{\"chunk\":");
      ASSERT_EQ(pos, 0u) << record;
      by_chunk[std::strtoull(record.c_str() + 9, nullptr, 10)] = record;
    }
    EXPECT_EQ(by_chunk.size(), outcomes[i]->records.size()) << "dup chunk";
    EXPECT_EQ(by_chunk.size(), outcomes[i]->chunks);
    std::string text;
    CampaignOptions o;
    o.seed = requests[i].seed;
    o.trials_per_point = requests[i].trials;
    o.chunk_size = requests[i].chunk_size;
    text += campaign::serialize_stream_header(
        s, o, campaign::plan_shard(s, o, 1, 0));
    text += '\n';
    for (const auto& [id, record] : by_chunk) {
      text += record;
      text += '\n';
    }
    text += outcomes[i]->trailer;
    text += '\n';
    const campaign::ChunkStream stream =
        campaign::parse_chunk_stream(text, "served");
    CampaignResult merged = campaign::merge_chunk_streams(s, {stream});
    campaign::canonicalize(merged);
    EXPECT_EQ(campaign::to_csv(merged), want_csv);
    EXPECT_EQ(campaign::to_json(merged), want_json);
  }
  const auto snap = stats.snapshot();
  EXPECT_EQ(snap.requests_admitted, kRequests);
  EXPECT_EQ(snap.requests_completed, kRequests);
  EXPECT_EQ(snap.requests_rejected, 0u);
}

TEST(ServeScheduler, SaturationRejectsWithRetryAfterAndRecovers) {
  const Scenario s = small_scenario();
  obs::ServiceStats stats;
  serve::SchedulerOptions options;
  options.workers = 1;
  options.max_active = 1;
  options.max_queue = 1;
  serve::Scheduler scheduler(options, &stats);

  RunRequest r;
  r.preset = s.name;
  r.seed = 1;
  r.trials = 2;

  // Fill the active slot and the queue without releasing either —
  // admission state is fully deterministic because nothing runs yet.
  auto active = std::make_shared<Outcome>();
  auto queued = std::make_shared<Outcome>();
  const auto adm_active = scheduler.submit(s, r, capture(active));
  ASSERT_TRUE(adm_active.admitted);
  r.seed = 2;
  const auto adm_queued = scheduler.submit(s, r, capture(queued));
  ASSERT_TRUE(adm_queued.admitted);
  EXPECT_EQ(adm_queued.queue_depth, 1u);

  r.seed = 3;
  auto rejected = std::make_shared<Outcome>();
  const auto adm_rejected = scheduler.submit(s, r, capture(rejected));
  EXPECT_FALSE(adm_rejected.admitted);
  EXPECT_GE(adm_rejected.retry_after_ms, 10u);  // clamp floor
  EXPECT_LE(adm_rejected.retry_after_ms, 60000u);
  EXPECT_FALSE(adm_rejected.reason.empty());

  // Drain the backlog; afterwards the same request is admitted — the
  // rejection was load, not a latch.
  scheduler.start(adm_active.id);
  scheduler.start(adm_queued.id);
  active->wait();
  queued->wait();
  const auto adm_retry = scheduler.submit(s, r, capture(rejected));
  EXPECT_TRUE(adm_retry.admitted);
  scheduler.start(adm_retry.id);
  rejected->wait();

  const auto snap = stats.snapshot();
  EXPECT_EQ(snap.requests_admitted, 3u);
  EXPECT_EQ(snap.requests_rejected, 1u);
  EXPECT_EQ(snap.requests_completed, 3u);
}

TEST(ServeScheduler, CancelIsTerminalAndDropsUnstartedWork) {
  const Scenario s = small_scenario();
  obs::ServiceStats stats;
  serve::SchedulerOptions options;
  options.workers = 1;
  options.max_active = 1;
  options.max_queue = 2;
  serve::Scheduler scheduler(options, &stats);

  RunRequest r;
  r.preset = s.name;
  r.seed = 11;
  r.trials = 2;
  auto running = std::make_shared<Outcome>();
  const auto adm_running = scheduler.submit(s, r, capture(running));
  ASSERT_TRUE(adm_running.admitted);

  // A queued request cancelled before it ever ran: terminal cancelled
  // callback with zero completed chunks, synchronously.
  r.seed = 12;
  auto never_ran = std::make_shared<Outcome>();
  const auto adm_never = scheduler.submit(s, r, capture(never_ran));
  ASSERT_TRUE(adm_never.admitted);
  EXPECT_TRUE(scheduler.cancel(adm_never.id));
  never_ran->wait();
  EXPECT_TRUE(never_ran->cancelled);
  EXPECT_FALSE(never_ran->done);
  EXPECT_EQ(never_ran->cancel_chunks, 0u);
  // Terminal means terminal: a second cancel finds nothing.
  EXPECT_FALSE(scheduler.cancel(adm_never.id));
  EXPECT_FALSE(scheduler.cancel(9999));

  scheduler.start(adm_running.id);
  running->wait();
  EXPECT_TRUE(running->done);
  EXPECT_EQ(stats.snapshot().requests_cancelled, 1u);
}

TEST(ServeScheduler, DrainCompletesEverythingAdmitted) {
  const Scenario s = small_scenario();
  obs::ServiceStats stats;
  serve::SchedulerOptions options;
  options.workers = 2;
  options.max_active = 2;
  options.max_queue = 4;
  serve::Scheduler scheduler(options, &stats);

  RunRequest r;
  r.preset = s.name;
  r.trials = 2;
  std::vector<std::shared_ptr<Outcome>> outcomes;
  for (std::uint64_t seed = 21; seed < 25; ++seed) {
    r.seed = seed;
    auto out = std::make_shared<Outcome>();
    const auto adm = scheduler.submit(s, r, capture(out));
    ASSERT_TRUE(adm.admitted);
    scheduler.start(adm.id);
    outcomes.push_back(out);
  }
  scheduler.drain();
  for (const auto& out : outcomes) {
    std::lock_guard<std::mutex> lock(out->mutex);
    EXPECT_TRUE(out->done);  // drain returned -> every callback already ran
  }
  // Draining stops admission with a non-retryable rejection.
  auto late = std::make_shared<Outcome>();
  const auto adm_late = scheduler.submit(s, r, capture(late));
  EXPECT_FALSE(adm_late.admitted);
  EXPECT_EQ(stats.snapshot().requests_completed, 4u);
}

TEST(ServeScheduler, HeapStaysFlatAcrossRebuildingRequests) {
  // One worker alternates a preset without a shield (fig3-imd-timing)
  // and one with a shield (fig7-cancellation), each request with a fresh
  // seed, so every request rebuilds the worker's deployment. Nothing a
  // request leaves behind may pile up: live heap after 100 pairs stays
  // within 4 MiB of its level after the first 10. Live heap, not RSS:
  // memory that earlier tests freed can hide RSS growth.
  const Scenario* fig3 = campaign::find_scenario("fig3-imd-timing");
  const Scenario* fig7 = campaign::find_scenario("fig7-cancellation");
  ASSERT_NE(fig3, nullptr);
  ASSERT_NE(fig7, nullptr);
  obs::ServiceStats stats;
  serve::SchedulerOptions options;
  options.workers = 1;
  serve::Scheduler scheduler(options, &stats);

  const auto run = [&scheduler](const Scenario& s, std::uint64_t seed) {
    RunRequest r;
    r.preset = s.name;
    r.seed = seed;
    r.trials = 1;
    auto out = std::make_shared<Outcome>();
    const serve::Admission adm = scheduler.submit(s, r, capture(out));
    if (!adm.admitted) return false;
    scheduler.start(adm.id);
    out->wait();
    return out->done;
  };
  std::size_t after_ten = 0;
  for (std::uint64_t pair = 1; pair <= 100; ++pair) {
    ASSERT_TRUE(run(*fig3, 2 * pair)) << "pair " << pair;
    ASSERT_TRUE(run(*fig7, 2 * pair + 1)) << "pair " << pair;
    if (pair == 10) after_ten = mallinfo2().uordblks;
  }
  const std::size_t after_hundred = mallinfo2().uordblks;
  if (after_ten == 0) {
    // ASan's and TSan's allocators bypass glibc's arena counters.
    GTEST_SKIP() << "mallinfo2 reports no live heap in this build";
  }
  EXPECT_LT(after_hundred, after_ten + (std::size_t{4} << 20))
      << "live heap grew from " << after_ten << " to " << after_hundred
      << " bytes over 90 request pairs";
}

// ---- server: the socket layer end to end -----------------------------------

/// A fresh socket path for each server this process starts.
std::string socket_path() {
  static int next = 0;
  return (std::filesystem::temp_directory_path() /
          ("hs-test-serve-" + std::to_string(::getpid()) + "-" +
           std::to_string(next++) + ".sock"))
      .string();
}

/// connect() of `fd` to the server at `path`: 0, or -1 with errno set.
int connect_to(int fd, const std::string& path) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
  return ::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                   sizeof(addr));
}

/// Bounds a socket's blocking connect, sends and reads.
void set_timeouts(int fd, long seconds) {
  const timeval timeout{seconds, 0};
  ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &timeout, sizeof timeout);
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof timeout);
}

/// Minimal blocking line client.
class LineClient {
 public:
  static constexpr long kDefaultReadTimeoutS = 60;

  /// Connects to the server at `path`. Reads time out after
  /// kDefaultReadTimeoutS unless the test sets its own, so a reply that
  /// never comes fails the test instead of hanging it.
  explicit LineClient(const std::string& path)
      : LineClient(::socket(AF_UNIX, SOCK_STREAM, 0), path) {
    const timeval timeout{kDefaultReadTimeoutS, 0};
    ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof timeout);
  }

  /// Connects the caller's unconnected Unix socket `fd` and owns it,
  /// keeping the timeouts the caller set on it.
  LineClient(int fd, const std::string& path) : fd_(fd) {
    EXPECT_GE(fd_, 0);
    EXPECT_EQ(connect_to(fd_, path), 0) << std::strerror(errno);
  }
  ~LineClient() { close(); }

  int fd() const { return fd_; }

  void close() {
    if (fd_ >= 0) ::close(fd_);
    fd_ = -1;
  }

  void send_line(const std::string& line) {
    const std::string framed = line + "\n";
    ASSERT_EQ(::send(fd_, framed.data(), framed.size(), MSG_NOSIGNAL),
              static_cast<ssize_t>(framed.size()));
  }

  /// Blocking read of the next '\n'-terminated line. Empty on EOF; a
  /// receive timeout fails the test and also returns empty.
  std::string read_line() {
    for (;;) {
      const auto nl = buffer_.find('\n');
      if (nl != std::string::npos) {
        const std::string line = buffer_.substr(0, nl);
        buffer_.erase(0, nl + 1);
        return line;
      }
      char chunk[4096];
      const ssize_t n = ::recv(fd_, chunk, sizeof chunk, 0);
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
        timeval t{};
        socklen_t size = sizeof t;
        ::getsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &t, &size);
        ADD_FAILURE() << "read_line: no complete line within the "
                      << t.tv_sec + t.tv_usec / 1e6 << " s receive timeout";
        return "";
      }
      if (n <= 0) return "";
      buffer_.append(chunk, static_cast<std::size_t>(n));
    }
  }

  /// Reads up to and including the done frame; returns it (empty if the
  /// stream ended first).
  std::string read_until_done() {
    std::string line;
    do {
      line = read_line();
    } while (!line.empty() &&
             line.find("\"type\":\"done\"") == std::string::npos);
    return line;
  }

 private:
  int fd_ = -1;
  std::string buffer_;
};

struct ServerFixture {
  explicit ServerFixture(unsigned workers = 2) {
    serve::ServerOptions options;
    options.unix_path = path;
    options.scheduler.workers = workers;
    options.scheduler.max_active = 4;
    options.scheduler.max_queue = 4;
    server = std::make_unique<serve::Server>(options, &stats);
    server->start();
    thread = std::thread([this] { server->run(); });
  }
  ~ServerFixture() {
    server->shutdown();
    thread.join();
  }

  const std::string path = socket_path();
  obs::ServiceStats stats;
  std::unique_ptr<serve::Server> server;
  std::thread thread;
};

TEST(ServeServer, ErrorsUnknownPresetAndSurvivesMidStreamDisconnect) {
  ServerFixture fx;

  {
    LineClient c(fx.path);
    c.send_line(R"({"cmd":"run","preset":"no-such-preset"})");
    const std::string reply = c.read_line();
    EXPECT_NE(reply.find("\"type\":\"error\""), std::string::npos) << reply;
    EXPECT_NE(reply.find("unknown preset"), std::string::npos) << reply;
    // Malformed JSON answers with error but keeps the connection.
    c.send_line("{\"cmd\":");
    EXPECT_NE(c.read_line().find("\"type\":\"error\""), std::string::npos);
    // A run of 36 M chunks is refused before anything is planned, with
    // an error rather than a 429: no retry could admit it.
    c.send_line(
        R"({"cmd":"run","preset":"fig9-eaves-ber","trials":2000000})");
    const std::string huge = c.read_line();
    EXPECT_NE(huge.find("\"type\":\"error\""), std::string::npos) << huge;
    EXPECT_NE(huge.find(std::to_string(serve::kMaxRequestChunks)),
              std::string::npos)
        << huge;
    EXPECT_NE(huge.find("chunk_size"), std::string::npos) << huge;
    c.send_line(R"({"cmd":"ping"})");
    EXPECT_EQ(c.read_line(), R"({"type":"pong"})");
  }

  // A client that walks away mid-stream: read the admission and a couple
  // of frames, then slam the socket. The server must cancel the orphaned
  // request and keep serving others.
  {
    LineClient rude(fx.path);
    rude.send_line(
        R"({"cmd":"run","preset":"fig9-eaves-ber","seed":5,"trials":2})");
    EXPECT_NE(rude.read_line().find("\"type\":\"admitted\""),
              std::string::npos);
    EXPECT_NE(rude.read_line().find("\"type\":\"header\""),
              std::string::npos);
    rude.close();
  }
  {
    LineClient polite(fx.path);
    polite.send_line(
        R"({"cmd":"run","preset":"fig9-eaves-ber","seed":6,"trials":1})");
    const std::string line = polite.read_line();
    EXPECT_NE(line.find("\"type\":\"admitted\""), std::string::npos) << line;
    EXPECT_FALSE(polite.read_until_done().empty())
        << "stream ended before done";
  }
}

TEST(ServeServer, ConcurrentWireClientsGetSerialIdenticalReports) {
  ServerFixture fx;
  const Scenario* preset = campaign::find_scenario("fig9-eaves-ber");
  ASSERT_NE(preset, nullptr);

  constexpr std::size_t kClients = 4;
  std::vector<std::string> reports(kClients);
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (std::size_t i = 0; i < kClients; ++i) {
    clients.emplace_back([&fx, i, &reports] {
      LineClient c(fx.path);
      c.send_line(R"({"cmd":"run","preset":"fig9-eaves-ber","seed":)" +
                  std::to_string(50 + i) + R"(,"trials":1})");
      for (;;) {
        const std::string line = c.read_line();
        if (line.empty()) break;
        if (line.find("\"type\":\"report\"") != std::string::npos) {
          reports[i] = line;
        }
        if (line.find("\"type\":\"done\"") != std::string::npos) break;
        if (line.find("\"type\":\"rejected\"") != std::string::npos) break;
        if (line.find("\"type\":\"error\"") != std::string::npos) break;
      }
    });
  }
  for (auto& t : clients) t.join();

  for (std::size_t i = 0; i < kClients; ++i) {
    SCOPED_TRACE("client " + std::to_string(i));
    ASSERT_FALSE(reports[i].empty()) << "no report frame";
    RunRequest r;
    r.seed = 50 + i;
    r.trials = 1;
    const auto [want_csv, want_json] = serial_reports(*preset, r);
    // The report frame carries both documents JSON-escaped; the exact
    // escaped bytes must appear — byte identity survives the framing.
    EXPECT_NE(reports[i].find(campaign::json_escape(want_csv)),
              std::string::npos);
    EXPECT_NE(reports[i].find(campaign::json_escape(want_json)),
              std::string::npos);
  }
  EXPECT_EQ(fx.stats.snapshot().requests_completed, kClients);
}

/// The id of an `admitted` frame.
std::uint64_t admitted_id(const std::string& frame) {
  const auto pos = frame.find("\"id\":");
  EXPECT_NE(pos, std::string::npos) << frame;
  return pos == std::string::npos
             ? 0
             : std::strtoull(frame.c_str() + pos + 5, nullptr, 10);
}

TEST(ServeServer, CancelReachesOnlyTheClientsOwnRuns) {
  // Ids count up from 1, so one client can guess another's. A cancel of
  // a run submitted on another connection gets the error an unknown id
  // gets and leaves the run alone; a client still cancels its own runs.
  ServerFixture fx(1);
  const Scenario* preset = campaign::find_scenario("fig9-eaves-ber");
  ASSERT_NE(preset, nullptr);
  LineClient a(fx.path);
  LineClient b(fx.path);
  set_timeouts(a.fd(), 60);
  set_timeouts(b.fd(), 60);

  a.send_line(R"({"cmd":"run","preset":"fig9-eaves-ber","seed":71,)"
              R"("trials":1})");
  const std::string admitted = a.read_line();
  ASSERT_NE(admitted.find("\"type\":\"admitted\""), std::string::npos)
      << admitted;
  const std::string id = std::to_string(admitted_id(admitted));
  // The ping bounds the wait: a cancel that answers nothing lets the
  // pong through first.
  b.send_line(R"({"cmd":"cancel","id":)" + id + "}");
  b.send_line(R"({"cmd":"ping"})");
  const std::string reply = b.read_line();
  EXPECT_EQ(reply, serve::error_line("cancel: unknown or finished id " + id));
  if (reply != R"({"type":"pong"})") {
    EXPECT_EQ(b.read_line(), R"({"type":"pong"})");
  }

  // A's frames up to its next done, cancelled or error frame, which is
  // returned; the report frame is kept.
  std::string report;
  const auto terminal_frame = [&a, &report] {
    for (;;) {
      const std::string line = a.read_line();
      const auto is = [&line](const std::string& type) {
        return line.find("\"type\":\"" + type + '"') != std::string::npos;
      };
      if (is("report")) report = line;
      if (line.empty() || is("done") || is("cancelled") || is("error")) {
        return line;
      }
    }
  };
  const std::string end = terminal_frame();
  ASSERT_NE(end.find("\"type\":\"done\""), std::string::npos) << end;
  RunRequest r;
  r.seed = 71;
  r.trials = 1;
  const auto [want_csv, want_json] = serial_reports(*preset, r);
  EXPECT_NE(report.find(campaign::json_escape(want_csv)), std::string::npos);
  EXPECT_NE(report.find(campaign::json_escape(want_json)), std::string::npos);

  a.send_line(R"({"cmd":"run","preset":"fig9-eaves-ber","seed":72,)"
              R"("trials":2})");
  const std::string second = a.read_line();
  ASSERT_NE(second.find("\"type\":\"admitted\""), std::string::npos)
      << second;
  const std::string own = std::to_string(admitted_id(second));
  a.send_line(R"({"cmd":"cancel","id":)" + own + "}");
  const std::string cancelled = terminal_frame();
  EXPECT_NE(cancelled.find("\"type\":\"cancelled\",\"id\":" + own + ","),
            std::string::npos)
      << cancelled;
}

TEST(ServeServer, ClientThatNeverReadsStallsNoOne) {
  // One worker. Client A's 2,000-chunk run streams to a socket nobody
  // reads, so its frames back up on the connection; the worker must run
  // on, and client B's small run must finish meanwhile.
  ServerFixture fx(1);
  LineClient a(fx.path);
  a.send_line(
      R"({"cmd":"run","preset":"fig3-imd-timing","seed":1,"trials":2000})");
  // A's frames fill the socket buffers well before 300 chunks, so a
  // worker that waited on A would stop short of them.
  std::uint64_t chunks = 0;
  auto progressed = std::chrono::steady_clock::now();
  while (chunks < 300) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    const auto now = std::chrono::steady_clock::now();
    const std::uint64_t executed = fx.stats.snapshot().chunks_executed;
    if (executed > chunks) {
      chunks = executed;
      progressed = now;
    }
    ASSERT_LT(now - progressed, std::chrono::seconds(5))
        << "the worker stalled after " << chunks << " chunks";
  }

  LineClient b(fx.path);
  set_timeouts(b.fd(), 20);
  const auto t0 = std::chrono::steady_clock::now();
  b.send_line(
      R"({"cmd":"run","preset":"fig3-imd-timing","seed":2,"trials":2})");
  EXPECT_FALSE(b.read_until_done().empty()) << "B never got done";
  EXPECT_LT(std::chrono::steady_clock::now() - t0, std::chrono::seconds(10));
}

TEST(ServeServer, ClientPastTheOutputCapIsDroppedOnce) {
  // A client that pipelines requests and never reads has its replies
  // queue up on the connection. Past kMaxUnsentBytes the server closes
  // it, counts it once, and goes on serving everyone else.
  ServerFixture fx;
  LineClient hog(fx.path);
  const std::size_t reply =
      serve::stats_line(obs::ServiceStatsSnapshot{}).size();
  const std::size_t requests = 4 * serve::kMaxUnsentBytes / reply;
  std::string batch;
  for (std::size_t i = 0; i < requests; ++i) batch += "{\"cmd\":\"stats\"}\n";
  // The server may close the hog before it has read every request.
  for (std::size_t off = 0; off < batch.size();) {
    const ssize_t n = ::send(hog.fd(), batch.data() + off,
                             batch.size() - off, MSG_NOSIGNAL);
    if (n <= 0) break;
    off += static_cast<std::size_t>(n);
  }
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(20);
  while (fx.stats.snapshot().clients_dropped == 0) {
    ASSERT_LT(std::chrono::steady_clock::now(), deadline)
        << "the hog was never cut off";
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  // The hog reads what the socket held when it was closed, then EOF.
  set_timeouts(hog.fd(), 20);
  std::size_t replies = 0;
  while (!hog.read_line().empty()) ++replies;
  EXPECT_LT(replies, requests);

  LineClient other(fx.path);
  other.send_line(R"({"cmd":"ping"})");
  EXPECT_EQ(other.read_line(), R"({"type":"pong"})");
  EXPECT_EQ(fx.stats.snapshot().clients_dropped, 1u);
}

TEST(ServeServer, UnterminatedLineOverTheCapIsAnsweredThenDropped) {
  // 17 KiB with no newline passes kMaxRequestBytes before any parse: the
  // poll loop answers once, naming the cap, and closes the connection
  // instead of buffering on. Other clients are served on.
  ServerFixture fx;
  LineClient flood(fx.path);
  set_timeouts(flood.fd(), 20);
  const std::string bytes(17 * 1024, 'a');
  ASSERT_EQ(::send(flood.fd(), bytes.data(), bytes.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(bytes.size()));
  const std::string reply = flood.read_line();
  EXPECT_NE(reply.find("\"type\":\"error\""), std::string::npos) << reply;
  EXPECT_NE(reply.find(std::to_string(serve::kMaxRequestBytes)),
            std::string::npos)
      << reply;
  char byte = 0;
  EXPECT_EQ(::recv(flood.fd(), &byte, 1, 0), 0) << "no EOF after the error";

  LineClient other(fx.path);
  other.send_line(R"({"cmd":"ping"})");
  EXPECT_EQ(other.read_line(), R"({"type":"pong"})");
}

/// Entries in a /proc directory, the listing's own handle included.
std::size_t entries(const char* dir) {
  std::size_t n = 0;
  for (auto it = std::filesystem::directory_iterator(dir);
       it != std::filesystem::directory_iterator(); ++it) {
    ++n;
  }
  return n;
}

TEST(ServeServer, FinishedConnectionsReleaseTheirFds) {
  // A daemon holds an fd, and no thread, per connected client: 200 idle
  // clients leave the thread count flat, and they and 300 clients that
  // ping and hang up leave the fd count where it started.
  ServerFixture fx;
  const std::size_t fds_before = entries("/proc/self/fd");
  const std::size_t threads_before = entries("/proc/self/task");
  {
    std::deque<LineClient> idle;
    for (int i = 0; i < 200; ++i) {
      LineClient& c = idle.emplace_back(fx.path);
      c.send_line(R"({"cmd":"ping"})");
      ASSERT_EQ(c.read_line(), R"({"type":"pong"})");
    }
    EXPECT_LE(entries("/proc/self/task"), threads_before + 2);
  }
  for (int i = 0; i < 300; ++i) {
    LineClient c(fx.path);
    c.send_line(R"({"cmd":"ping"})");
    ASSERT_EQ(c.read_line(), R"({"type":"pong"})");
  }
  // The server notices each hang-up on its own thread; poll until the
  // last connection is gone.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(20);
  std::size_t after = entries("/proc/self/fd");
  while (after > fds_before + 4 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::yield();
    after = entries("/proc/self/fd");
  }
  EXPECT_LE(after, fds_before + 4);
}

TEST(ServeServer, ClientThatHangsUpMidRequestLineIsDropped) {
  // A client that sends part of a request line and hangs up: the partial
  // line is never run, the connection's fd is released, and the server
  // goes on serving.
  ServerFixture fx;
  const std::size_t fds_before = entries("/proc/self/fd");
  const std::uint64_t admitted_before = fx.stats.snapshot().requests_admitted;
  {
    // The pong shows the server holds A's connection before A hangs up.
    LineClient a(fx.path);
    a.send_line(R"({"cmd":"ping"})");
    ASSERT_EQ(a.read_line(), R"({"type":"pong"})");
    const std::string partial = R"({"cmd":"run","preset":"fig3-imd)";
    ASSERT_EQ(::send(a.fd(), partial.data(), partial.size(), MSG_NOSIGNAL),
              static_cast<ssize_t>(partial.size()));
  }
  // The server notices the hang-up on its own thread; poll until the
  // connection is gone.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(20);
  std::size_t after = entries("/proc/self/fd");
  while (after > fds_before && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::yield();
    after = entries("/proc/self/fd");
  }
  EXPECT_LE(after, fds_before);
  EXPECT_EQ(fx.stats.snapshot().requests_admitted, admitted_before);

  LineClient b(fx.path);
  b.send_line(R"({"cmd":"ping"})");
  EXPECT_EQ(b.read_line(), R"({"type":"pong"})");
}

/// The fd numbers open in this process, the listing's own handle
/// included.
std::vector<int> open_fd_numbers() {
  std::vector<int> fds;
  for (const auto& entry :
       std::filesystem::directory_iterator("/proc/self/fd")) {
    fds.push_back(std::stoi(entry.path().filename().string()));
  }
  return fds;
}

/// Puts RLIMIT_NOFILE back when the test ends, however it ends.
struct FdLimitGuard {
  rlimit saved{};
  FdLimitGuard() { EXPECT_EQ(::getrlimit(RLIMIT_NOFILE, &saved), 0); }
  ~FdLimitGuard() { ::setrlimit(RLIMIT_NOFILE, &saved); }
};

TEST(ServeServer, SurvivesFdExhaustion) {
  // A daemon out of fds waits for connections to close instead of
  // dying. Under a lowered RLIMIT_NOFILE, idle clients past the limit
  // leave accept() failing with EMFILE, which the server counts; once
  // they hang up, a fresh client gets its pong, and shutdown() still
  // drains.
  constexpr int kMargin = 8;    // fds the lowered limit leaves free
  constexpr int kClients = 64;  // idle clients, far past the margin
  FdLimitGuard guard;
  auto fx = std::make_unique<ServerFixture>();

  // Every client socket sits at or above the lowered limit, so only the
  // server's accepted fds compete for the slots below it.
  const std::vector<int> fds = open_fd_numbers();
  const int limit = *std::max_element(fds.begin(), fds.end()) + 1 + kMargin;
  std::vector<int> clients;
  for (int i = 0; i <= kClients; ++i) {
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    ASSERT_GE(fd, 0);
    clients.push_back(::fcntl(fd, F_DUPFD_CLOEXEC, limit));
    ::close(fd);
    ASSERT_GE(clients.back(), limit);
  }
  const int fresh = clients.back();
  clients.pop_back();

  rlimit lowered = guard.saved;
  lowered.rlim_cur = static_cast<rlim_t>(limit);
  ASSERT_EQ(::setrlimit(RLIMIT_NOFILE, &lowered), 0);

  // Connect without blocking until accept() has met EMFILE. A connect
  // that finds the listen backlog full fails with EAGAIN; it is retried
  // once the server has taken what it can.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(20);
  std::size_t connected = 0;
  while (fx->stats.snapshot().accept_backoffs == 0) {
    ASSERT_LT(std::chrono::steady_clock::now(), deadline)
        << "accept() never ran out of fds; " << connected << " connected";
    if (connected < clients.size()) {
      const int fd = clients[connected];
      ::fcntl(fd, F_SETFL, O_NONBLOCK);
      if (connect_to(fd, fx->path) == 0) {
        ++connected;
        continue;
      }
      ASSERT_EQ(errno, EAGAIN) << std::strerror(errno);
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  // Hold the clients a little longer, so accept() keeps meeting EMFILE.
  std::this_thread::sleep_for(std::chrono::milliseconds(500));
  for (const int fd : clients) ::close(fd);

  // The fresh client waits for room in the backlog until closed
  // connections give the server an fd back. Bound its connect and read.
  set_timeouts(fresh, 20);
  {
    LineClient c(fresh, fx->path);
    c.send_line(R"({"cmd":"ping"})");
    EXPECT_EQ(c.read_line(), R"({"type":"pong"})");
  }
  fx.reset();  // shutdown() and a joined run(), still under the limit
}

}  // namespace
}  // namespace hs
