// perfbench_driver: runs one benchmark workload against the campaign
// engine, the sharded dispatcher or the campaign service, and writes the
// measured operations to a JSON document for perfbench/run.py.
//
//   perfbench_driver --stamp
//   perfbench_driver --workload NAME --seed N --seconds S --trace 0|1
//                    --out PATH [--trace-out PATH]
//   perfbench_driver --record-golden --out PATH
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <stdexcept>
#include <string>
#include <thread>

#include "campaign/report.hpp"
#include "dsp/kernels.hpp"
#include "perfbench.hpp"

namespace {

using hs::campaign::json_escape;
using perfbench::Args;
using perfbench::Op;
using perfbench::OpLog;
using perfbench::Result;

std::string quoted(std::string_view s) {
  std::string out = "\"";
  out += json_escape(s);
  out += '"';
  return out;
}

std::string number(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

/// The build and host this driver measures. run.py refuses to report
/// from a sanitizer, HS_NATIVE or non-Release build.
std::string stamp_json() {
#ifdef NDEBUG
  const bool ndebug = true;
#else
  const bool ndebug = false;
#endif
  std::string s = "{";
  s += "\"build_type\":" + quoted(PERFBENCH_BUILD_TYPE);
  s += ",\"sanitize\":" + quoted(PERFBENCH_SANITIZE);
  s += ",\"native\":" + quoted(PERFBENCH_NATIVE);
  s += ",\"compiler\":" + quoted(PERFBENCH_COMPILER);
  s += std::string(",\"ndebug\":") + (ndebug ? "true" : "false");
  s += ",\"nproc\":" + std::to_string(std::thread::hardware_concurrency());
  s += ",\"kernel_backend\":" +
       quoted(hs::dsp::kernels::backend_name(
           hs::dsp::kernels::active_backend()));
  const char* forced = std::getenv("HS_KERNELS");
  s += ",\"hs_kernels_env\":" + quoted(forced != nullptr ? forced : "");
  s += "}";
  return s;
}

std::string op_json(const Op& op) {
  std::string s = "{\"cls\":" + quoted(op.cls);
  s += ",\"preset\":" + quoted(op.preset);
  s += ",\"seed\":" + std::to_string(op.seed);
  s += ",\"trials\":" + std::to_string(op.trials);
  s += ",\"chunk_size\":" + std::to_string(perfbench::kChunkSize);
  s += ",\"trial_count\":" + std::to_string(op.trial_count);
  s += ",\"wall_ms\":" + number(op.wall_ms);
  s += ",\"end_ms\":" + number(op.end_ms);
  s += std::string(",\"traced\":") + (op.traced ? "true" : "false");
  s += ",\"outcome\":" + quoted(op.outcome);
  s += ",\"detail\":" + quoted(op.detail);
  s += ",\"bytes\":" + std::to_string(op.bytes);
  if (!op.report_frame.empty()) {
    // The frames travel as strings so run.py parses and checks exactly
    // the bytes the service sent.
    s += ",\"report_frame\":" + quoted(op.report_frame);
    s += ",\"done_frame\":" + quoted(op.done_frame);
  } else {
    s += ",\"csv\":" + quoted(op.csv);
    s += ",\"json\":" + quoted(op.json);
  }
  s += "}";
  return s;
}

std::string summary_json(const Args& args, const Result& r) {
  std::string s = "{\"stamp\":" + stamp_json();
  s += ",\"workload\":" + quoted(args.workload);
  s += ",\"seed\":" + std::to_string(args.seed);
  s += std::string(",\"trace\":") + (args.trace ? "1" : "0");
  s += ",\"window_s\":" + number(r.window_s);
  s += ",\"pool_wraps\":" + std::to_string(r.pool_wraps);
  s += std::string(",\"fd_capped\":") + (r.fd_capped ? "true" : "false");
  s += ",\"peak_rss_kb\":" + std::to_string(r.peak_rss_kb > 0
                                                ? r.peak_rss_kb
                                                : perfbench::peak_rss_kb());
  s += ",\"setup_s\":[";
  for (std::size_t i = 0; i < r.setup_s.size(); ++i) {
    if (i > 0) s += ",";
    s += number(r.setup_s[i]);
  }
  s += "],\"layers\":{";
  bool first = true;
  for (const auto& [name, value] : r.layers) {
    if (!first) s += ",";
    first = false;
    s += quoted(name) + ":" + number(value);
  }
  s += "}}";
  return s;
}

}  // namespace

namespace perfbench {

OpLog::OpLog(const std::string& path) : file_(std::fopen(path.c_str(), "w")) {
  if (file_ == nullptr) throw std::runtime_error("cannot open " + path);
}

OpLog::~OpLog() { std::fclose(file_); }

void OpLog::add(const Op& op) {
  const std::string line = op_json(op) + "\n";
  std::lock_guard<std::mutex> lock(mutex_);
  ok_ = ok_ && std::fwrite(line.data(), 1, line.size(), file_) == line.size();
}

bool OpLog::finish(const std::string& summary) {
  std::lock_guard<std::mutex> lock(mutex_);
  const std::string line = summary + "\n";
  ok_ = ok_ && std::fwrite(line.data(), 1, line.size(), file_) == line.size();
  return std::fflush(file_) == 0 && ok_;
}

}  // namespace perfbench

namespace {

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench_driver: %s\n"
               "usage: perfbench_driver --stamp\n"
               "       perfbench_driver --workload NAME --seed N --seconds S "
               "--trace 0|1 --out PATH [--trace-out PATH]\n"
               "       perfbench_driver --record-golden --out PATH\n",
               why);
  std::exit(2);
}

std::uint64_t parse_u64(const char* text, const char* flag) {
  char* end = nullptr;
  const unsigned long long v = std::strtoull(text, &end, 10);
  if (end == text || *end != '\0') usage(flag);
  return v;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  bool stamp = false;
  bool record = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    const auto value = [&]() -> const char* {
      if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
      return argv[++i];
    };
    if (flag == "--stamp") {
      stamp = true;
    } else if (flag == "--record-golden") {
      record = true;
    } else if (flag == "--workload") {
      args.workload = value();
    } else if (flag == "--seed") {
      args.seed = parse_u64(value(), "--seed");
    } else if (flag == "--seconds") {
      args.seconds = static_cast<double>(parse_u64(value(), "--seconds"));
    } else if (flag == "--trace") {
      args.trace = parse_u64(value(), "--trace") != 0;
    } else if (flag == "--out") {
      args.out = value();
    } else if (flag == "--trace-out") {
      args.trace_out = value();
    } else if (flag == "--serve-max-active") {
      args.serve_max_active = parse_u64(value(), "--serve-max-active");
    } else if (flag == "--serve-max-queue") {
      args.serve_max_queue = parse_u64(value(), "--serve-max-queue");
    } else {
      usage(("unknown flag " + flag).c_str());
    }
  }
  if (stamp) {
    std::printf("%s\n", stamp_json().c_str());
    return 0;
  }
  if (args.out.empty()) usage("--out is required");

  if (record) args.workload = "record-golden";
  try {
    OpLog log(args.out);
    Result result;
    if (record) {
      result = perfbench::record_golden(log);
    } else if (args.workload == "fig9-cli") {
      result = perfbench::run_fig9_cli(args, log);
    } else if (args.workload == "fig3-sharded") {
      result = perfbench::run_fig3_sharded(args, log);
    } else if (args.workload == "serve-mixed") {
      result = perfbench::run_serve_mixed(args, log);
    } else {
      usage(("unknown workload '" + args.workload + "'").c_str());
    }
    if (result.pool_wraps > 0) {
      // A reused seed may be served warm from the service's snapshot
      // cache, so the window measured a different load.
      Op check;
      check.cls = "check";
      check.outcome = "pool_wrap";
      check.detail = std::to_string(result.pool_wraps) +
                     " seed pool(s) ran out; enlarge them and re-record "
                     "golden.json";
      log.add(check);
    }
    if (!log.finish(summary_json(args, result))) {
      throw std::runtime_error("cannot write " + args.out);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_driver: %s\n", e.what());
    return 1;
  }
  return 0;
}
