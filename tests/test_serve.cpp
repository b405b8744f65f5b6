// Service-layer tests: the campaign_serverd wire protocol (strict
// request parsing — truncated frames, oversized requests, type
// confusion — plus response framing), the session-scoped scheduler's
// determinism contract (any interleaving of concurrent requests yields
// final reports byte-identical to serial runs, and the streamed chunk
// records reassemble into a stream the v3 parser accepts and folds to
// the same bytes), admission control (bounded queue, 429-style reject
// with retry-after, recovery after drain-down), cancellation semantics,
// graceful drain, and the socket layer end to end (unknown preset,
// mid-stream client disconnect, concurrent clients over real TCP, fds
// released when clients hang up, a daemon that runs out of fds).
//
// Also part of the TSan suite (see .github/workflows/ci.yml): the
// scheduler's worker pool, per-request callback serialization and the
// shared snapshot cache are exactly the shared-state hot spots
// ThreadSanitizer is pointed at.
#include <gtest/gtest.h>

#include <fcntl.h>
#include <netinet/in.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <condition_variable>
#include <cstring>
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
      R"("chunk_size":2,"priority":5,)"
      R"("overrides":{"snapshots":false}})");
  EXPECT_EQ(req.kind, serve::RequestKind::kRun);
  EXPECT_EQ(req.run.preset, "fig9-eaves-ber");
  EXPECT_EQ(req.run.seed, 42u);
  EXPECT_EQ(req.run.trials, 8u);
  EXPECT_EQ(req.run.chunk_size, 2u);
  EXPECT_EQ(req.run.priority, 5u);
  EXPECT_FALSE(req.run.snapshots);
}

TEST(ServeProtocol, DefaultsAndKeyOrderTolerance) {
  const auto req = serve::parse_request(
      "  { \"seed\" : 3 , \"cmd\" : \"run\" , \"preset\" : \"x\" }  ");
  EXPECT_EQ(req.run.preset, "x");
  EXPECT_EQ(req.run.seed, 3u);
  EXPECT_EQ(req.run.trials, 0u);      // preset default
  EXPECT_EQ(req.run.chunk_size, 1u);
  EXPECT_EQ(req.run.priority, 1u);
  EXPECT_TRUE(req.run.snapshots);

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
      R"("chunk_size":2,"priority":5,"overrides":{"snapshots":true}})";
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

// ---- server: the socket layer end to end -----------------------------------

sockaddr_in loopback(std::uint16_t port) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  return addr;
}

/// Minimal blocking line client against 127.0.0.1:<port>.
class LineClient {
 public:
  explicit LineClient(std::uint16_t port)
      : LineClient(::socket(AF_INET, SOCK_STREAM, 0), port) {}

  /// Connects the caller's unconnected TCP socket `fd` and owns it.
  LineClient(int fd, std::uint16_t port) : fd_(fd) {
    EXPECT_GE(fd_, 0);
    const sockaddr_in addr = loopback(port);
    EXPECT_EQ(::connect(fd_, reinterpret_cast<const sockaddr*>(&addr),
                        sizeof(addr)),
              0);
  }
  ~LineClient() { close(); }

  void close() {
    if (fd_ >= 0) ::close(fd_);
    fd_ = -1;
  }

  void send_line(const std::string& line) {
    const std::string framed = line + "\n";
    ASSERT_EQ(::send(fd_, framed.data(), framed.size(), 0),
              static_cast<ssize_t>(framed.size()));
  }

  /// Blocking read of the next '\n'-terminated line (empty on EOF).
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
      if (n <= 0) return "";
      buffer_.append(chunk, static_cast<std::size_t>(n));
    }
  }

 private:
  int fd_ = -1;
  std::string buffer_;
};

struct ServerFixture {
  ServerFixture() {
    serve::ServerOptions options;
    options.tcp_port = 0;
    options.scheduler.workers = 2;
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

  obs::ServiceStats stats;
  std::unique_ptr<serve::Server> server;
  std::thread thread;
};

TEST(ServeServer, ErrorsUnknownPresetAndSurvivesMidStreamDisconnect) {
  ServerFixture fx;
  const std::uint16_t port = fx.server->bound_port();

  {
    LineClient c(port);
    c.send_line(R"({"cmd":"run","preset":"no-such-preset"})");
    const std::string reply = c.read_line();
    EXPECT_NE(reply.find("\"type\":\"error\""), std::string::npos) << reply;
    EXPECT_NE(reply.find("unknown preset"), std::string::npos) << reply;
    // Malformed JSON answers with error but keeps the connection.
    c.send_line("{\"cmd\":");
    EXPECT_NE(c.read_line().find("\"type\":\"error\""), std::string::npos);
    c.send_line(R"({"cmd":"ping"})");
    EXPECT_EQ(c.read_line(), R"({"type":"pong"})");
  }

  // A client that walks away mid-stream: read the admission and a couple
  // of frames, then slam the socket. The server must cancel the orphaned
  // request and keep serving others.
  {
    LineClient rude(port);
    rude.send_line(
        R"({"cmd":"run","preset":"fig9-eaves-ber","seed":5,"trials":2})");
    EXPECT_NE(rude.read_line().find("\"type\":\"admitted\""),
              std::string::npos);
    EXPECT_NE(rude.read_line().find("\"type\":\"header\""),
              std::string::npos);
    rude.close();
  }
  {
    LineClient polite(port);
    polite.send_line(
        R"({"cmd":"run","preset":"fig9-eaves-ber","seed":6,"trials":1})");
    std::string line = polite.read_line();
    EXPECT_NE(line.find("\"type\":\"admitted\""), std::string::npos) << line;
    while (!line.empty() &&
           line.find("\"type\":\"done\"") == std::string::npos) {
      line = polite.read_line();
    }
    EXPECT_NE(line.find("\"type\":\"done\""), std::string::npos)
        << "stream ended before done";
  }
}

TEST(ServeServer, ConcurrentWireClientsGetSerialIdenticalReports) {
  ServerFixture fx;
  const std::uint16_t port = fx.server->bound_port();
  const Scenario* preset = campaign::find_scenario("fig9-eaves-ber");
  ASSERT_NE(preset, nullptr);

  constexpr std::size_t kClients = 4;
  std::vector<std::string> reports(kClients);
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (std::size_t i = 0; i < kClients; ++i) {
    clients.emplace_back([port, i, &reports] {
      LineClient c(port);
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

/// Entries in /proc/self/fd, the listing's own handle included.
std::size_t open_fds() {
  std::size_t n = 0;
  for (auto it = std::filesystem::directory_iterator("/proc/self/fd");
       it != std::filesystem::directory_iterator(); ++it) {
    ++n;
  }
  return n;
}

TEST(ServeServer, FinishedConnectionsReleaseTheirFds) {
  // A daemon holds fds only for connected clients: 300 clients that ping
  // and hang up leave its fd count where it started.
  ServerFixture fx;
  const std::uint16_t port = fx.server->bound_port();
  const std::size_t before = open_fds();
  for (int i = 0; i < 300; ++i) {
    LineClient c(port);
    c.send_line(R"({"cmd":"ping"})");
    ASSERT_EQ(c.read_line(), R"({"type":"pong"})");
  }
  // Each reader notices its hang-up on its own thread; poll until the
  // last one has let go of its connection.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(20);
  std::size_t after = open_fds();
  while (after > before + 4 && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::yield();
    after = open_fds();
  }
  EXPECT_LE(after, before + 4);
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
  // leave accept() failing with EMFILE; once they hang up, a fresh client
  // gets its pong, and shutdown() still drains.
  constexpr int kMargin = 8;    // fds the lowered limit leaves free
  constexpr int kClients = 64;  // idle clients, far past the margin
  FdLimitGuard guard;
  auto fx = std::make_unique<ServerFixture>();
  const std::uint16_t port = fx->server->bound_port();

  // Every client socket sits at or above the lowered limit, so only the
  // server's accepted fds compete for the slots below it.
  const std::vector<int> fds = open_fd_numbers();
  const int limit = *std::max_element(fds.begin(), fds.end()) + 1 + kMargin;
  std::vector<int> clients;
  for (int i = 0; i <= kClients; ++i) {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
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

  // Connect without blocking: past the listen backlog a SYN goes
  // unanswered, and that client just stays pending.
  const sockaddr_in addr = loopback(port);
  for (const int fd : clients) {
    ::fcntl(fd, F_SETFL, O_NONBLOCK);
    const int rc = ::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                             sizeof(addr));
    ASSERT_TRUE(rc == 0 || errno == EINPROGRESS) << std::strerror(errno);
  }
  // Wait until the server has taken every free slot: then a dup() here
  // fails with EMFILE too. Hold the clients a little longer, so accept()
  // keeps meeting EMFILE.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(20);
  for (;;) {
    const int probe = ::dup(STDIN_FILENO);
    if (probe < 0) {
      ASSERT_EQ(errno, EMFILE);
      break;
    }
    ::close(probe);
    ASSERT_LT(std::chrono::steady_clock::now(), deadline)
        << "the server never used up the fd margin";
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(500));
  for (const int fd : clients) ::close(fd);

  // The fresh client waits in the backlog until closed connections give
  // the server an fd back. Bound its connect and its read.
  const timeval timeout{20, 0};
  ::setsockopt(fresh, SOL_SOCKET, SO_SNDTIMEO, &timeout, sizeof timeout);
  ::setsockopt(fresh, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof timeout);
  {
    LineClient c(fresh, port);
    c.send_line(R"({"cmd":"ping"})");
    EXPECT_EQ(c.read_line(), R"({"type":"pong"})");
  }
  fx.reset();  // shutdown() and a joined run(), still under the limit
}

}  // namespace
}  // namespace hs
