#!/usr/bin/env python3
"""Determinism linter: mechanically enforces the invariants that keep
parallel / sharded / warm-restored / fault-recovered campaigns
byte-identical to serial (docs/ARCHITECTURE.md, "Correctness tooling").

The byte-identity contract is enforced dynamically by the bit-identity
tests; this linter is the static layer that stops the classic ways of
breaking it from ever compiling into the tree:

  * nondeterministic entropy sources (rand(), std::random_device, ...),
  * wall-clock reads feeding computation (time(), system_clock, ...),
  * iteration over unordered containers anywhere near serialized output,
  * lossy decimal float formatting in round-tripping serializers
    (chunk streams and snapshots must use C99 hex-floats, "%a"),
  * naked standard-library RNG engines outside the dsp::Rng/derive_seed
    plumbing,
  * real-time sleeps (scheduling-dependent behaviour) outside the
    deterministic fault machinery.

Every exception is file-scoped and lives in LINT.toml at the repo root —
never in an inline pragma — so exceptions are visible in review and each
carries a written justification. A stale allowlist entry (one that no
longer suppresses anything) is an error, so LINT.toml cannot rot.

Usage:
  tools/lint_determinism.py                 # lint src/ using ./LINT.toml
  tools/lint_determinism.py --root DIR --config FILE   # self-test harness
  tools/lint_determinism.py --list-rules    # rule table (docs source)

Exit status: 0 clean, 1 violations (or stale allowlist entries),
2 configuration/usage error.
"""

from __future__ import annotations

import argparse
import dataclasses
import fnmatch
import pathlib
import re
import sys
import tomllib

# --------------------------------------------------------------------------
# Source model: split each file into a comment-stripped "code" view and the
# contents of its string literals, preserving line numbers in both.
# --------------------------------------------------------------------------


@dataclasses.dataclass
class SourceViews:
    """Per-line views of one translation unit.

    code[i]    = line i with comments removed and string/char literal
                 bodies blanked (so `"rand"` in usage text never matches a
                 code pattern).
    strings[i] = only the bodies of string literals on line i (so format
                 conversions are matched where they actually live).
    """

    code: list[str]
    strings: list[str]


def split_views(text: str) -> SourceViews:
    code: list[str] = []
    strings: list[str] = []
    code_line: list[str] = []
    str_line: list[str] = []
    state = "code"  # code | line_comment | block_comment | string | char
    i = 0
    n = len(text)
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if c == "\n":
            code.append("".join(code_line))
            strings.append("".join(str_line))
            code_line, str_line = [], []
            if state == "line_comment":
                state = "code"
            i += 1
            continue
        if state == "code":
            if c == "/" and nxt == "/":
                state = "line_comment"
                i += 2
                continue
            if c == "/" and nxt == "*":
                state = "block_comment"
                i += 2
                continue
            if c == '"':
                state = "string"
                code_line.append('"')
                i += 1
                continue
            if c == "'":
                state = "char"
                code_line.append("'")
                i += 1
                continue
            code_line.append(c)
            i += 1
            continue
        if state in ("line_comment", "block_comment"):
            if state == "block_comment" and c == "*" and nxt == "/":
                state = "code"
                i += 2
                continue
            i += 1
            continue
        # string / char literal body
        quote = '"' if state == "string" else "'"
        if c == "\\" and nxt:
            if state == "string":
                str_line.append(c + nxt)
            i += 2
            continue
        if c == quote:
            state = "code"
            code_line.append(quote)
            i += 1
            continue
        if state == "string":
            str_line.append(c)
        i += 1
    code.append("".join(code_line))
    strings.append("".join(str_line))
    return SourceViews(code=code, strings=strings)


# --------------------------------------------------------------------------
# Rules
# --------------------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class Pattern:
    regex: re.Pattern
    why: str
    domain: str = "code"  # code | strings


@dataclasses.dataclass(frozen=True)
class Rule:
    rule_id: str
    summary: str
    scope: str  # "all" | "serializer"
    patterns: tuple[Pattern, ...]


def _p(regex: str, why: str, domain: str = "code") -> Pattern:
    return Pattern(regex=re.compile(regex), why=why, domain=domain)


RULES: tuple[Rule, ...] = (
    Rule(
        rule_id="raw-random",
        summary="nondeterministic or non-portable entropy source",
        scope="all",
        patterns=(
            _p(r"\brand\s*\(", "rand() draws from hidden global state"),
            _p(r"\bsrand\s*\(", "srand() mutates hidden global state"),
            _p(r"\bdrand48\b", "drand48 family uses hidden global state"),
            _p(r"std::random_device", "random_device is true entropy"),
        ),
    ),
    Rule(
        rule_id="std-rng-engine",
        summary="standard-library RNG engine/distribution outside dsp::Rng",
        scope="all",
        patterns=(
            _p(r"std::mt19937", "seed/derive via dsp::Rng, not raw engines"),
            _p(r"std::minstd_rand", "raw std engine outside dsp::Rng"),
            _p(r"std::default_random_engine",
               "implementation-defined engine"),
            _p(r"std::(uniform_(int|real)|normal|bernoulli)_distribution",
               "libstdc++ distributions are implementation-dependent"),
        ),
    ),
    Rule(
        rule_id="wall-clock",
        summary="wall-clock time reaching computation",
        scope="all",
        patterns=(
            _p(r"std::chrono::system_clock", "wall clock is not monotonic"),
            _p(r"high_resolution_clock",
               "alias of system_clock on some platforms; use steady_clock"),
            _p(r"\btime\s*\(\s*(NULL|nullptr|0)?\s*\)", "time() wall clock"),
            _p(r"\bgettimeofday\s*\(", "wall clock"),
            _p(r"clock_gettime\s*\(\s*CLOCK_REALTIME", "wall clock"),
            _p(r"\b(localtime|gmtime|strftime)\s*\(", "calendar time"),
        ),
    ),
    Rule(
        rule_id="steady-clock-scope",
        summary="steady_clock outside the timing-measurement allowlist",
        scope="all",
        patterns=(
            _p(r"steady_clock",
               "clock reads are observability, never trial input; each "
               "timing site must be allowlisted in LINT.toml"),
        ),
    ),
    Rule(
        rule_id="unordered-in-serializer",
        summary="unordered container in a file that writes serialized output",
        scope="serializer",
        patterns=(
            _p(r"\bunordered_(map|set)\b",
               "hash iteration order is seed/pointer-dependent; a "
               "serializer file must prove (allowlist) it never iterates"),
        ),
    ),
    Rule(
        rule_id="unordered-iteration",
        summary="iteration over an unordered container",
        scope="all",
        # Patterns are completed per-file against the set of identifiers
        # declared as std::unordered_{map,set} anywhere in the tree; see
        # unordered_names(). The tuple here is empty on purpose.
        patterns=(),
    ),
    Rule(
        rule_id="float-format",
        summary="decimal float formatting in a round-trip serializer",
        scope="serializer",
        patterns=(
            _p(r"%[-+ #0-9.*]*[efgEFG]",
               "decimal float text is lossy; use the hex-float codec "
               "(wire::append_hex_double / wire::parse_hex_double)",
               domain="strings"),
            _p(r"std::(fixed|scientific|setprecision)",
               "iostream float formatting in a serializer", domain="code"),
        ),
    ),
    Rule(
        rule_id="to-string-serializer",
        summary="std::to_string in a serializer file",
        scope="serializer",
        patterns=(
            _p(r"std::to_string\s*\(",
               "to_string(double) is lossy decimal; integer-only users "
               "must be allowlisted with an audit note"),
        ),
    ),
    Rule(
        rule_id="raw-intrinsics",
        summary="raw SIMD intrinsics or GCC vector types outside "
                "src/dsp/kernels*",
        scope="all",
        patterns=(
            _p(r"\bimmintrin\.h|\bemmintrin\.h|\bxmmintrin\.h|"
               r"\bsmmintrin\.h|\btmmintrin\.h|\bpmmintrin\.h|"
               r"\bnmmintrin\.h|\barm_neon\.h",
               "vector intrinsics bypass the pinned scalar reference; add "
               "kernels to src/dsp/kernels.* behind the dispatch table"),
            _p(r"\b_mm\d*_\w+\s*\(",
               "raw x86 intrinsic call outside the kernel layer"),
            _p(r"\b__m(128|256|512)[di]?\b",
               "raw x86 vector type outside the kernel layer"),
            _p(r"\bvector_size\b",
               "GCC vector type outside the kernel layer; write vector "
               "kernels over V4 in src/dsp/kernels_vector.hpp"),
        ),
    ),
    Rule(
        rule_id="raw-sockets",
        summary="raw network / poll I/O outside the service daemon TU",
        scope="all",
        patterns=(
            _p(r"#\s*include\s*<(sys/socket\.h|sys/un\.h|arpa/inet\.h|"
               r"netinet/[\w./]+|poll\.h)>",
               "socket and poll headers are host I/O; only the serve "
               "layer's socket TU may talk to the network — trial and "
               "campaign code must stay host-independent"),
            _p(r"(?<![\w)])::(socket|bind|listen|accept|connect|recv|send|"
               r"poll|getsockname|setsockopt|shutdown)\s*\(",
               "direct socket syscall outside the allowlisted server TU "
               "(qualified member functions like Foo::send are exempt)"),
        ),
    ),
    Rule(
        rule_id="thread-sleep",
        summary="real-time sleep (scheduling-dependent behaviour)",
        scope="all",
        patterns=(
            _p(r"\bsleep_for\b|\bsleep_until\b",
               "delays must be deterministic (wave-counted, like "
               "FaultKind::kDelay), not wall-clock sleeps"),
            _p(r"\b(usleep|nanosleep)\s*\(", "real-time sleep"),
        ),
    ),
)

UNORDERED_DECL = re.compile(
    r"unordered_(?:map|set)\s*<[^;{}()]*>\s+(\w+)\s*[;{=]")


def unordered_names(views_by_file: dict[str, SourceViews]) -> set[str]:
    """Identifiers declared as std::unordered_{map,set} anywhere in the
    tree (headers declare, .cpp files iterate — so the set is global)."""
    names: set[str] = set()
    for views in views_by_file.values():
        for line in views.code:
            for m in UNORDERED_DECL.finditer(line):
                names.add(m.group(1))
    return names


def iteration_patterns(names: set[str]) -> tuple[Pattern, ...]:
    pats = []
    for name in sorted(names):
        n = re.escape(name)
        pats.append(_p(
            rf"for\s*\([^;)]*:[^;){{]*\b{n}\b"
            rf"|\b{n}\s*\.\s*(begin|cbegin|rbegin)\s*\("
            rf"|erase_if\s*\(\s*{n}\b",
            f"iterates '{name}', declared as an unordered container; "
            "hash order must never reach serialized output"))
    return tuple(pats)


# --------------------------------------------------------------------------
# Configuration (LINT.toml)
# --------------------------------------------------------------------------


@dataclasses.dataclass
class Config:
    root: str
    serializer_files: list[str]
    # rule_id -> {relative path -> reason}
    allow: dict[str, dict[str, str]]


def config_error(message: str) -> None:
    print(message, file=sys.stderr)
    sys.exit(2)


def load_config(path: pathlib.Path) -> Config:
    try:
        with open(path, "rb") as f:
            doc = tomllib.load(f)
    except (OSError, tomllib.TOMLDecodeError) as e:
        config_error(f"lint: cannot read {path}: {e}")
    linter = doc.get("linter", {})
    root = linter.get("root", "src")
    serializer_files = linter.get("serializer_files", [])
    allow: dict[str, dict[str, str]] = {}
    known = {r.rule_id for r in RULES}
    for rule_id, body in doc.get("rules", {}).items():
        if rule_id not in known:
            config_error(f"lint: {path}: unknown rule '{rule_id}' "
                         f"(known: {', '.join(sorted(known))})")
        entries = body.get("allow", [])
        allow[rule_id] = {}
        for entry in entries:
            file = entry.get("file")
            reason = entry.get("reason", "")
            if not file or not reason:
                config_error(f"lint: {path}: rules.{rule_id}.allow entries "
                             "need both 'file' and a written 'reason'")
            allow[rule_id][file] = reason
    return Config(root=root, serializer_files=serializer_files, allow=allow)


def is_serializer(rel: str, cfg: Config) -> bool:
    return any(fnmatch.fnmatch(rel, pat) for pat in cfg.serializer_files)


# --------------------------------------------------------------------------
# Driver
# --------------------------------------------------------------------------

SOURCE_SUFFIXES = (".cpp", ".hpp", ".h", ".cc", ".cxx")


def lint(repo: pathlib.Path, cfg: Config) -> int:
    root = repo / cfg.root
    if not root.is_dir():
        config_error(f"lint: root '{root}' is not a directory")
    files = sorted(p for p in root.rglob("*")
                   if p.suffix in SOURCE_SUFFIXES and p.is_file())
    views_by_file = {
        str(p.relative_to(repo)): split_views(p.read_text(errors="replace"))
        for p in files
    }
    iter_pats = iteration_patterns(unordered_names(views_by_file))

    violations: list[str] = []
    used_allow: dict[str, set[str]] = {r.rule_id: set() for r in RULES}

    for rel, views in sorted(views_by_file.items()):
        for rule in RULES:
            if rule.scope == "serializer" and not is_serializer(rel, cfg):
                continue
            allowed = cfg.allow.get(rule.rule_id, {})
            patterns = (iter_pats if rule.rule_id == "unordered-iteration"
                        else rule.patterns)
            for pat in patterns:
                lines = (views.strings if pat.domain == "strings"
                         else views.code)
                for lineno, line in enumerate(lines, start=1):
                    m = pat.regex.search(line)
                    if not m:
                        continue
                    if rel in allowed:
                        used_allow[rule.rule_id].add(rel)
                        continue
                    violations.append(
                        f"{rel}:{lineno}: [{rule.rule_id}] "
                        f"'{m.group(0).strip()}' — {pat.why}")

    stale: list[str] = []
    for rule_id, entries in cfg.allow.items():
        for rel in entries:
            if rel not in used_allow.get(rule_id, set()):
                stale.append(
                    f"LINT.toml: [rules.{rule_id}] allowlist entry "
                    f"'{rel}' no longer suppresses anything — remove it")

    for v in violations:
        print(v)
    for s in stale:
        print(s)
    total = len(violations) + len(stale)
    if total:
        print(f"lint: {len(violations)} violation(s), "
              f"{len(stale)} stale allowlist entr(ies)")
        return 1
    print(f"lint: {len(files)} file(s) clean under "
          f"{len(RULES)} determinism rules")
    return 0


def list_rules() -> None:
    print(f"{'rule':<24} {'scope':<11} summary")
    for rule in RULES:
        print(f"{rule.rule_id:<24} {rule.scope:<11} {rule.summary}")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--repo", default=str(pathlib.Path(__file__).parent.parent),
                    help="repository root (default: this script's parent)")
    ap.add_argument("--config", default=None,
                    help="LINT.toml path (default: <repo>/LINT.toml)")
    ap.add_argument("--root", default=None,
                    help="override the [linter].root directory")
    ap.add_argument("--list-rules", action="store_true")
    args = ap.parse_args()
    if args.list_rules:
        list_rules()
        return 0
    repo = pathlib.Path(args.repo).resolve()
    cfg = load_config(pathlib.Path(args.config) if args.config
                      else repo / "LINT.toml")
    if args.root:
        cfg.root = args.root
    return lint(repo, cfg)


if __name__ == "__main__":
    sys.exit(main())
