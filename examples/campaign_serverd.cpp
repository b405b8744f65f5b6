// campaign_serverd: resident campaign-as-a-service daemon. Keeps one
// pooled trial context per worker across requests (no other state
// outlives a request), admits campaigns through a bounded queue
// (429-style rejection with a retry-after hint when saturated),
// interleaves the chunks of concurrent campaigns weighted-fair over one
// work pool, and streams each campaign's v3 chunk records back
// incrementally. The final report of every request is byte-identical to
// a serial `campaign_runner` run of the same (preset, seed, trials,
// chunk) — see serve/scheduler.hpp for the determinism argument and
// serve/protocol.hpp for the wire format.
//
// SIGTERM/SIGINT drain gracefully: no new connections or admissions,
// every already-admitted campaign finishes streaming, then the process
// exits 0.
#include <csignal>
#include <cstdio>
#include <cstring>
#include <string>

#include "serve/server.hpp"
#include "wire/cli.hpp"

using namespace hs;
using wire::flag_u32;
using wire::flag_u64;
using wire::flag_value;

namespace {

serve::Server* g_server = nullptr;

extern "C" void handle_signal(int) {
  if (g_server != nullptr) g_server->shutdown();  // write() only — safe
}

int usage(const char* argv0, bool is_error) {
  std::fprintf(
      is_error ? stderr : stdout,
      "usage: %s --unix=PATH [--workers=N] [--max-active=N]\n"
      "          [--max-queue=N]\n"
      "  Serves the line-delimited JSON campaign protocol (see\n"
      "  docs/REPRODUCING.md) on a Unix-domain socket at PATH; a client\n"
      "  needs write permission on the socket file to connect.\n"
      "  --workers=0 uses all hardware threads. --max-active bounds the\n"
      "  campaigns scheduled concurrently, --max-queue the admitted\n"
      "  backlog beyond that; a request past both is rejected with\n"
      "  {\"type\":\"rejected\",\"code\":429,...}. A client may cancel\n"
      "  only the runs it submitted on the same connection.\n"
      "  SIGTERM drains gracefully: admitted campaigns finish streaming\n"
      "  before exit.\n",
      argv0);
  return is_error ? 1 : 0;
}

}  // namespace

int main(int argc, char** argv) {
  serve::ServerOptions options;
  options.scheduler.workers = 0;  // hardware concurrency

  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    const char* value = nullptr;
    if ((value = flag_value(arg, "--unix", argc, argv, &i))) {
      options.unix_path = value;
    } else if ((value = flag_value(arg, "--workers", argc, argv, &i))) {
      options.scheduler.workers = flag_u32(value, "--workers");
    } else if ((value = flag_value(arg, "--max-active", argc, argv, &i))) {
      options.scheduler.max_active = flag_u64(value, "--max-active");
      if (options.scheduler.max_active == 0) {
        std::fprintf(stderr, "--max-active must be >= 1\n");
        return 1;
      }
    } else if ((value = flag_value(arg, "--max-queue", argc, argv, &i))) {
      options.scheduler.max_queue = flag_u64(value, "--max-queue");
    } else {
      return usage(argv[0], std::strcmp(arg, "--help") != 0);
    }
  }
  if (options.unix_path.empty()) return usage(argv[0], true);

  obs::ServiceStats stats;
  serve::Server server(options, &stats);
  try {
    server.start();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "campaign_serverd: %s\n", e.what());
    return 1;
  }

  g_server = &server;
  std::signal(SIGTERM, handle_signal);
  std::signal(SIGINT, handle_signal);
  std::signal(SIGPIPE, SIG_IGN);  // writers handle EPIPE per connection

  std::fprintf(stderr, "campaign_serverd: listening on %s\n",
               options.unix_path.c_str());

  try {
    server.run();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "campaign_serverd: %s\n", e.what());
    return 1;
  }
  std::fprintf(stderr, "campaign_serverd: drained, exiting\n");
  return 0;
}
