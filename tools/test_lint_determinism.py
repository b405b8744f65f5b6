#!/usr/bin/env python3
"""Self-test for tools/lint_determinism.py.

Every rule is exercised twice: once against a seeded violation that MUST
be reported (proving the rule can actually fire) and once against clean
code that MUST pass (proving the rule does not cry wolf). The config
machinery — file-scoped allowlists, stale-entry detection, comment and
string-literal immunity — is covered the same way.

Run: python3 tools/test_lint_determinism.py
"""

from __future__ import annotations

import pathlib
import subprocess
import sys
import tempfile
import textwrap
import unittest

LINTER = pathlib.Path(__file__).parent / "lint_determinism.py"

BASE_CONFIG = textwrap.dedent("""\
    [linter]
    root = "src"
    serializer_files = ["src/ser/*"]
    """)


def run_lint(repo: pathlib.Path, config_text: str = BASE_CONFIG):
    (repo / "LINT.toml").write_text(config_text)
    proc = subprocess.run(
        [sys.executable, str(LINTER), "--repo", str(repo)],
        capture_output=True, text=True)
    return proc.returncode, proc.stdout + proc.stderr


class LintCase(unittest.TestCase):
    def setUp(self):
        self._tmp = tempfile.TemporaryDirectory()
        self.repo = pathlib.Path(self._tmp.name)
        (self.repo / "src").mkdir()
        (self.repo / "src" / "ser").mkdir()

    def tearDown(self):
        self._tmp.cleanup()

    def write(self, rel: str, text: str) -> None:
        path = self.repo / rel
        path.write_text(textwrap.dedent(text))

    def assert_flags(self, rule_id: str, needle: str = ""):
        code, out = run_lint(self.repo)
        self.assertEqual(code, 1, out)
        self.assertIn(f"[{rule_id}]", out)
        if needle:
            self.assertIn(needle, out)
        return out

    def assert_clean(self):
        code, out = run_lint(self.repo)
        self.assertEqual(code, 0, out)
        return out


class TestRawRandom(LintCase):
    def test_violation(self):
        self.write("src/a.cpp", """
            int draw() { return rand() % 6; }
            """)
        self.assert_flags("raw-random", "rand()")

    def test_random_device(self):
        self.write("src/a.cpp", """
            #include <random>
            unsigned seed() { return std::random_device{}(); }
            """)
        self.assert_flags("raw-random", "random_device")

    def test_clean(self):
        self.write("src/a.cpp", """
            #include "dsp/rng.hpp"
            double draw(hs::dsp::Rng& rng) { return rng.uniform(); }
            int operand(int x) { return x % 6; }  // modulo is fine
            """)
        self.assert_clean()


class TestStdRngEngine(LintCase):
    def test_violation(self):
        self.write("src/a.cpp", """
            #include <random>
            double g(unsigned s) {
              std::mt19937 gen(s);
              std::uniform_real_distribution<double> d(0, 1);
              return d(gen);
            }
            """)
        self.assert_flags("std-rng-engine", "mt19937")

    def test_clean(self):
        self.write("src/a.cpp", """
            #include "dsp/rng.hpp"
            // dsp::Rng wraps a fixed, documented generator; streams are
            // derived by dsp::derive_seed, never reseeded ad hoc.
            double g(hs::dsp::Rng& rng) { return rng.gaussian(); }
            """)
        self.assert_clean()


class TestWallClock(LintCase):
    def test_violation(self):
        self.write("src/a.cpp", """
            #include <chrono>
            auto now() { return std::chrono::system_clock::now(); }
            """)
        self.assert_flags("wall-clock", "system_clock")

    def test_time_null(self):
        self.write("src/a.cpp", """
            #include <ctime>
            long stamp() { return time(nullptr); }
            """)
        self.assert_flags("wall-clock", "time")

    def test_clean(self):
        self.write("src/a.cpp", """
            // Simulation time comes from the sample clock, not the host.
            double sim_seconds(std::size_t samples, double fs) {
              return static_cast<double>(samples) / fs;
            }
            """)
        self.assert_clean()


class TestSteadyClockScope(LintCase):
    def test_violation(self):
        self.write("src/a.cpp", """
            #include <chrono>
            auto t0() { return std::chrono::steady_clock::now(); }
            """)
        self.assert_flags("steady-clock-scope", "steady_clock")

    def test_allowlisted(self):
        self.write("src/a.cpp", """
            #include <chrono>
            auto t0() { return std::chrono::steady_clock::now(); }
            """)
        config = BASE_CONFIG + textwrap.dedent("""\
            [rules.steady-clock-scope]
            allow = [
              { file = "src/a.cpp", reason = "wall-time measurement only" },
            ]
            """)
        code, out = run_lint(self.repo, config)
        self.assertEqual(code, 0, out)

    def test_clean(self):
        self.write("src/a.cpp", """
            std::uint64_t ticks(std::uint64_t n) { return n + 1; }
            """)
        self.assert_clean()


class TestUnorderedInSerializer(LintCase):
    def test_violation(self):
        self.write("src/ser/writer.cpp", """
            #include <unordered_map>
            std::unordered_map<int, double> cache;
            """)
        self.assert_flags("unordered-in-serializer", "unordered_map")

    def test_outside_serializer_scope_is_fine(self):
        self.write("src/a.cpp", """
            #include <unordered_map>
            std::unordered_map<int, double> cache;
            double look(int k) { return cache.find(k)->second; }
            """)
        self.assert_clean()

    def test_clean_serializer(self):
        self.write("src/ser/writer.cpp", """
            #include <map>
            std::map<int, double> ordered;  // deterministic iteration
            """)
        self.assert_clean()


class TestUnorderedIteration(LintCase):
    def test_range_for(self):
        self.write("src/a.hpp", """
            #include <unordered_map>
            struct C { std::unordered_map<int, double> memo_; };
            """)
        # Declaration in the header, iteration in the .cpp — the name set
        # is collected tree-wide, so this must still be caught.
        self.write("src/a.cpp", """
            #include "a.hpp"
            double sum(const C& c) {
              double s = 0;
              for (const auto& [k, v] : c.memo_) s += v;
              return s;
            }
            """)
        self.assert_flags("unordered-iteration", "memo_")

    def test_erase_if(self):
        self.write("src/a.cpp", """
            #include <unordered_map>
            std::unordered_map<int, double> memo_;
            void prune(int floor) {
              std::erase_if(memo_, [&](auto& e) { return e.first < floor; });
            }
            """)
        self.assert_flags("unordered-iteration", "memo_")

    def test_keyed_access_is_fine(self):
        self.write("src/a.cpp", """
            #include <unordered_map>
            std::unordered_map<int, double> memo_;
            double look(int k) {
              if (const auto it = memo_.find(k); it != memo_.end()) {
                return it->second;  // find/end sentinel, not iteration
              }
              memo_.emplace(k, 1.0);
              return 1.0;
            }
            """)
        self.assert_clean()


class TestFloatFormat(LintCase):
    def test_printf_g(self):
        self.write("src/ser/writer.cpp", """
            #include <cstdio>
            void put(char* buf, std::size_t n, double v) {
              std::snprintf(buf, n, "%.9g", v);
            }
            """)
        self.assert_flags("float-format", "%.9g")

    def test_iostream_precision(self):
        self.write("src/ser/writer.cpp", """
            #include <iomanip>
            #include <sstream>
            std::string put(double v) {
              std::ostringstream os;
              os << std::setprecision(17) << v;
              return os.str();
            }
            """)
        self.assert_flags("float-format", "setprecision")

    def test_hexfloat_is_fine(self):
        self.write("src/ser/writer.cpp", """
            #include <cstdio>
            void put(char* buf, std::size_t n, double v) {
              std::snprintf(buf, n, "%a", v);  // exact bits, round-trips
            }
            void count(char* buf, std::size_t n, std::size_t c) {
              std::snprintf(buf, n, "%zu", c);
            }
            """)
        self.assert_clean()

    def test_comment_mentioning_g_is_fine(self):
        self.write("src/ser/writer.cpp", """
            // Decimal "%g" would be lossy here; that is why we use "%a".
            void nothing() {}
            """)
        self.assert_clean()


class TestToStringSerializer(LintCase):
    def test_violation(self):
        self.write("src/ser/writer.cpp", """
            #include <string>
            std::string put(double v) { return std::to_string(v); }
            """)
        self.assert_flags("to-string-serializer", "to_string")

    def test_outside_scope_is_fine(self):
        self.write("src/a.cpp", """
            #include <string>
            std::string label(int id) { return std::to_string(id); }
            """)
        self.assert_clean()

    def test_member_named_to_string_is_fine(self):
        self.write("src/ser/writer.cpp", """
            #include <string>
            struct Plan { std::string to_string() const { return {}; } };
            """)
        self.assert_clean()


class TestRawIntrinsics(LintCase):
    def test_intrinsic_call(self):
        self.write("src/a.cpp", """
            #include <immintrin.h>
            double sum4(const double* x) {
              __m256d v = _mm256_loadu_pd(x);
              double out[4];
              _mm256_storeu_pd(out, v);
              return out[0] + out[1] + out[2] + out[3];
            }
            """)
        self.assert_flags("raw-intrinsics", "_mm256_loadu_pd")

    def test_vector_type_alone(self):
        self.write("src/a.hpp", """
            struct Holder { __m128d lanes; };
            """)
        self.assert_flags("raw-intrinsics", "__m128d")

    def test_allowlisted_kernel_backend(self):
        self.write("src/kernels_avx2.cpp", """
            #include <immintrin.h>
            __m256d load(const double* x) { return _mm256_loadu_pd(x); }
            """)
        config = BASE_CONFIG + textwrap.dedent("""\
            [rules.raw-intrinsics]
            allow = [
              { file = "src/kernels_avx2.cpp", reason = "the kernel backend" },
            ]
            """)
        code, out = run_lint(self.repo, config)
        self.assertEqual(code, 0, out)

    def test_gcc_vector_type(self):
        self.write("src/a.hpp", """
            typedef double V2 __attribute__((vector_size(16)));
            V2 twice(V2 v) { return v + v; }
            """)
        self.assert_flags("raw-intrinsics", "vector_size")

    def test_allowlisted_vector_header(self):
        self.write("src/kernels_vector.hpp", """
            typedef double V4 __attribute__((vector_size(32)));
            """)
        config = BASE_CONFIG + textwrap.dedent("""\
            [rules.raw-intrinsics]
            allow = [
              { file = "src/kernels_vector.hpp", reason = "the lane type" },
            ]
            """)
        code, out = run_lint(self.repo, config)
        self.assertEqual(code, 0, out)

    def test_dispatch_callers_are_clean(self):
        self.write("src/a.cpp", """
            #include "dsp/kernels.hpp"
            // Callers go through the dispatch table; mm / m256 appearing
            // in comments or identifiers like comm_mm() must not trip.
            double f(const double* re, const double* im, double e) {
              return hs::dsp::kernels::segmented_sync_correlation(
                  re, im, re, im, 8, e);
            }
            """)
        self.assert_clean()


class TestRawSockets(LintCase):
    def test_socket_header(self):
        self.write("src/a.cpp", """
            #include <sys/socket.h>
            int open_channel();
            """)
        self.assert_flags("raw-sockets", "sys/socket.h")

    def test_global_qualified_syscall(self):
        self.write("src/a.cpp", """
            int push(int fd, const char* p, unsigned long n) {
              return ::send(fd, p, n, 0);
            }
            """)
        self.assert_flags("raw-sockets", "::send")

    def test_member_functions_named_like_syscalls_are_fine(self):
        self.write("src/a.cpp", """
            #include "channel.hpp"
            // Qualified member definitions and object calls must not trip:
            void Channel::send(const Frame& f) { queue_.push_back(f); }
            void Relay::poll() { drain(); }
            void pump(Channel& c, Relay& r, const Frame& f) {
              c.send(f);
              r.poll();
            }
            """)
        self.assert_clean()

    def test_allowlisted_server_tu(self):
        self.write("src/server.cpp", """
            #include <sys/socket.h>
            int open_listener() { return ::socket(2, 1, 0); }
            """)
        config = BASE_CONFIG + textwrap.dedent("""\
            [rules.raw-sockets]
            allow = [
              { file = "src/server.cpp", reason = "the daemon socket TU" },
            ]
            """)
        code, out = run_lint(self.repo, config)
        self.assertEqual(code, 0, out)


class TestThreadSleep(LintCase):
    def test_violation(self):
        self.write("src/a.cpp", """
            #include <chrono>
            #include <thread>
            void wait() {
              std::this_thread::sleep_for(std::chrono::milliseconds(10));
            }
            """)
        self.assert_flags("thread-sleep", "sleep_for")

    def test_clean(self):
        self.write("src/a.cpp", """
            // Stragglers are modeled as wave-counted delivery delays
            // (FaultKind::kDelay), never as wall-clock sleeps.
            int advance(int waves_left) { return waves_left - 1; }
            """)
        self.assert_clean()


class TestConfigMachinery(LintCase):
    def test_string_literal_does_not_trigger_code_rules(self):
        self.write("src/a.cpp", """
            const char* kUsage = "seeds come from rand() upstream";
            """)
        self.assert_clean()

    def test_stale_allowlist_entry_is_an_error(self):
        self.write("src/a.cpp", """
            int f() { return 1; }
            """)
        config = BASE_CONFIG + textwrap.dedent("""\
            [rules.thread-sleep]
            allow = [
              { file = "src/a.cpp", reason = "was needed once" },
            ]
            """)
        code, out = run_lint(self.repo, config)
        self.assertEqual(code, 1, out)
        self.assertIn("no longer suppresses", out)

    def test_allow_entry_requires_reason(self):
        self.write("src/a.cpp", "int f();\n")
        config = BASE_CONFIG + textwrap.dedent("""\
            [rules.thread-sleep]
            allow = [ { file = "src/a.cpp" } ]
            """)
        code, out = run_lint(self.repo, config)
        self.assertEqual(code, 2, out)
        self.assertIn("reason", out)

    def test_unknown_rule_rejected(self):
        self.write("src/a.cpp", "int f();\n")
        config = BASE_CONFIG + "[rules.not-a-rule]\nallow = []\n"
        code, out = run_lint(self.repo, config)
        self.assertEqual(code, 2, out)
        self.assertIn("unknown rule", out)

    def test_every_rule_has_a_fixture(self):
        # Meta-check: the classes above must seed a violation for every
        # rule the linter implements, so a new rule cannot land untested.
        proc = subprocess.run(
            [sys.executable, str(LINTER), "--list-rules"],
            capture_output=True, text=True)
        self.assertEqual(proc.returncode, 0, proc.stderr)
        rules = {line.split()[0] for line in
                 proc.stdout.strip().splitlines()[1:]}
        covered = {
            "raw-random", "std-rng-engine", "wall-clock",
            "steady-clock-scope", "unordered-in-serializer",
            "unordered-iteration", "float-format", "to-string-serializer",
            "raw-intrinsics", "raw-sockets", "thread-sleep",
        }
        self.assertEqual(rules, covered,
                         "rule list and self-test fixtures diverged")


if __name__ == "__main__":
    unittest.main(verbosity=2)
