#!/usr/bin/env python3
"""Repo-specific invariant linter for sqlnf.

Machine-checks conventions the compiler cannot see. Each rule guards an
invariant that has a semantic story in this codebase, not a style
preference:

  ordered-code-compare  Dictionary codes are allocation-order integers;
                        comparing them with < / <= / > / >= is only
                        meaningful where the order-preserving dictionary
                        contract is in force (engine/predicate.cc,
                        core/encoded_table.cc). Anywhere else an ordered
                        comparison on codes is a latent wrong-answer bug.
                        Bounds checks against sizes/counts are exempt.

  nondeterminism        src/ must be bit-reproducible: differential and
                        metamorphic suites rely on identical reruns. No
                        wall clocks, PRNG seeding from the environment,
                        process ids, or env vars in library code (the
                        seeded util/rng.h is the sanctioned source of
                        randomness; benches and tests may time things).
                        No exemptions.

  simd-confinement      Intrinsics headers (immintrin.h, arm_neon.h,
                        ...) and SQLNF_SIMD_* feature macros live ONLY
                        in util/simd.h + core/simd_kernels.cc. Every
                        other translation unit goes through the
                        ISA-agnostic dispatch API of
                        core/simd_kernels.h, so one stray _mm256_*
                        call can never fork engine semantics by ISA or
                        break the scalar-forced CI leg.

  mutable-codes         EncodedTable::mutable_codes() bypasses the
                        dictionary/null-count bookkeeping. Only the
                        encoded-table core and the equality join's fill
                        loop in encoded_ops.cc may use it.

  unregistered-test     Every tests/*_test.cc must be listed in
                        SQLNF_TESTS in tests/CMakeLists.txt (and every
                        listed test must exist) so ctest labels cover
                        the whole suite — an unregistered test never
                        runs in CI and rots silently.

  raw-mutex             All locking goes through util/mutex.h's
                        annotated Mutex/MutexLock/CondVar so Clang
                        Thread Safety Analysis sees every acquisition.
                        A raw std::mutex is invisible to the analysis.

  raw-socket            All socket syscalls and socket headers live in
                        src/sqlnf/net/ — the one place the transport
                        reader limits, EINTR loops, and shutdown-based
                        cancellation are enforced. A stray socket() in
                        engine code would bypass all three and punch an
                        unaudited I/O path through the library.

  reference-confinement The oracles and paper reproductions
                        (src/sqlnf/reference/, src/sqlnf/related/) make
                        up the sqlnf_reference library, which tests and
                        benches link and no serving binary does. A
                        serving source, tool, example or frontbench file
                        that includes one of their headers would pull a
                        row-major transcription back onto the serving
                        path (and fail to link).

  throwing-parse        No std::stoi/stol/stoll/stoul/stoull/stof/stod
                        in src/: they throw on malformed or out-of-range
                        text, and an exception from wire text kills the
                        server. Text boundaries answer with a Status
                        (std::from_chars reports the error in-band).

Usage: sqlnf_lint.py [--root DIR]
Exits 0 when clean, 1 with findings on stdout, 2 on usage errors.
"""

from __future__ import annotations

import argparse
import re
import sys
from pathlib import Path

CXX_SUFFIXES = {".cc", ".h", ".cpp", ".hpp"}


class Finding:
    def __init__(self, path: str, line: int, rule: str, message: str):
        self.path = path
        self.line = line
        self.rule = rule
        self.message = message

    def __str__(self) -> str:
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


def _strip_comments_and_strings(line: str) -> str:
    """Blanks out string/char literals and // comments (keeps length)."""
    out = []
    i = 0
    n = len(line)
    while i < n:
        c = line[i]
        if c == "/" and i + 1 < n and line[i + 1] == "/":
            out.append(" " * (n - i))
            break
        if c in "\"'":
            quote = c
            out.append(" ")
            i += 1
            while i < n:
                if line[i] == "\\":
                    out.append("  ")
                    i += 2
                    continue
                if line[i] == quote:
                    out.append(" ")
                    i += 1
                    break
                out.append(" ")
                i += 1
            continue
        out.append(c)
        i += 1
    return "".join(out)


def iter_cxx_files(root: Path, subdir: str):
    base = root / subdir
    if not base.is_dir():
        return
    for path in sorted(base.rglob("*")):
        if path.suffix in CXX_SUFFIXES and path.is_file():
            yield path


# --- Rule: ordered-code-compare -------------------------------------------

# Files where ordered comparisons on codes are sanctioned: the
# order-preserving dictionary itself and the range kernels built on its
# contract (the compiled-predicate compiler and the SIMD kernel layer
# its scan loops dispatch into).
ORDERED_CODE_ALLOWLIST = {
    "src/sqlnf/engine/predicate.cc",
    "src/sqlnf/core/encoded_table.cc",
    "src/sqlnf/core/simd_kernels.cc",
}

# An operand: identifier path (a.b->c[i]) with optional casts stripped
# by the caller. "Code-ish" means the trailing identifier component
# names a dictionary code and is a value (lowercase), not a type like
# EncodedTable.
_OPERAND = r"[A-Za-z_][\w.\->]*(?:\[[^\]]*\])?(?:\(\))?"
_CMP_RE = re.compile(
    rf"(?P<lhs>{_OPERAND})\s*(?<![<>=!&|+\-])(?P<op><=|>=|<|>)(?![<>=])\s*"
    rf"(?P<rhs>{_OPERAND}|\d+)"
)
_CODEISH_RE = re.compile(r"(?:^|_)codes?(?:\[[^\]]*\])?$")
_SIZEISH_RE = re.compile(
    r"(size|count|num|capacity|length|\bn\b|\bd\b|\bend\b|\d+)", re.IGNORECASE
)


def _last_component(operand: str) -> str:
    # a.b->codes[i] -> "codes[i]"; DecodeCode(...) etc. keep call parens.
    part = re.split(r"\.|->", operand)[-1]
    return part


def _is_codeish(operand: str) -> bool:
    part = _last_component(operand)
    if part != part.lower():
        return False  # type names (EncodedTable) are not values
    return bool(_CODEISH_RE.search(part.split("(")[0].split("[")[0] or part))


def _is_sizeish(operand: str) -> bool:
    return bool(_SIZEISH_RE.search(operand))


def check_ordered_code_compare(root: Path) -> list[Finding]:
    findings = []
    for path in iter_cxx_files(root, "src"):
        rel = path.relative_to(root).as_posix()
        if rel in ORDERED_CODE_ALLOWLIST:
            continue
        for lineno, raw in enumerate(path.read_text().splitlines(), 1):
            line = _strip_comments_and_strings(raw)
            if "template" in line or "#include" in line:
                continue
            for m in _CMP_RE.finditer(line):
                lhs, rhs = m.group("lhs"), m.group("rhs")
                code_side = None
                other = None
                if _is_codeish(lhs):
                    code_side, other = lhs, rhs
                elif _is_codeish(rhs):
                    code_side, other = rhs, lhs
                if code_side is None:
                    continue
                # Bounds checks and loop limits compare a code against a
                # size/count; those carry no value-order meaning.
                if _is_sizeish(other):
                    continue
                findings.append(Finding(
                    rel, lineno, "ordered-code-compare",
                    f"ordered comparison on dictionary code '{code_side}' "
                    f"outside the order-preserving contract "
                    f"(sanctioned: {', '.join(sorted(ORDERED_CODE_ALLOWLIST))})"))
    return findings


# --- Rule: nondeterminism -------------------------------------------------

_NONDET_PATTERNS = [
    (re.compile(r"\b(?:std::)?s?rand\s*\("), "rand()/srand()"),
    (re.compile(r"\bstd::time\b|\btime\s*\(\s*(?:NULL|nullptr|0)\s*\)"),
     "wall-clock time()"),
    (re.compile(r"\brandom_device\b"), "std::random_device"),
    (re.compile(r"\b(?:system|steady|high_resolution)_clock\b"),
     "chrono clock"),
    (re.compile(r"\bgetenv\s*\("), "getenv()"),
    (re.compile(r"\bgetpid\s*\("), "getpid()"),
    (re.compile(r"\bgettimeofday\s*\("), "gettimeofday()"),
]


def check_nondeterminism(root: Path) -> list[Finding]:
    findings = []
    for path in iter_cxx_files(root, "src"):
        rel = path.relative_to(root).as_posix()
        for lineno, raw in enumerate(path.read_text().splitlines(), 1):
            line = _strip_comments_and_strings(raw)
            for pattern, what in _NONDET_PATTERNS:
                if pattern.search(line):
                    findings.append(Finding(
                        rel, lineno, "nondeterminism",
                        f"{what} in library code — src/ must be "
                        f"bit-reproducible (use the seeded util/rng.h)"))
    return findings


# --- Rule: mutable-codes --------------------------------------------------

MUTABLE_CODES_ALLOWLIST = {
    "src/sqlnf/core/encoded_table.h",
    "src/sqlnf/core/encoded_table.cc",
    "src/sqlnf/decomposition/encoded_ops.cc",
}


def check_mutable_codes(root: Path) -> list[Finding]:
    findings = []
    for path in iter_cxx_files(root, "src"):
        rel = path.relative_to(root).as_posix()
        if rel in MUTABLE_CODES_ALLOWLIST:
            continue
        for lineno, raw in enumerate(path.read_text().splitlines(), 1):
            line = _strip_comments_and_strings(raw)
            if re.search(r"\bmutable_codes\s*\(", line):
                findings.append(Finding(
                    rel, lineno, "mutable-codes",
                    "mutable_codes() bypasses dictionary/null bookkeeping "
                    f"(sanctioned: {', '.join(sorted(MUTABLE_CODES_ALLOWLIST))})"))
    return findings


# --- Rule: unregistered-test ----------------------------------------------

_TESTS_LIST_RE = re.compile(r"set\(SQLNF_TESTS\s*(.*?)\)", re.DOTALL)


def check_test_registration(root: Path) -> list[Finding]:
    findings = []
    cmake = root / "tests" / "CMakeLists.txt"
    if not cmake.is_file():
        return [Finding("tests/CMakeLists.txt", 1, "unregistered-test",
                        "tests/CMakeLists.txt not found")]
    text = cmake.read_text()
    m = _TESTS_LIST_RE.search(text)
    if not m:
        return [Finding("tests/CMakeLists.txt", 1, "unregistered-test",
                        "no set(SQLNF_TESTS ...) block found")]
    registered = set(m.group(1).split())

    tests_dir = root / "tests"
    on_disk = {p.stem for p in sorted(tests_dir.glob("*_test.cc"))}

    for stem in sorted(on_disk - registered):
        findings.append(Finding(
            f"tests/{stem}.cc", 1, "unregistered-test",
            f"test binary '{stem}' is not listed in SQLNF_TESTS — it will "
            f"never run under ctest"))
    for stem in sorted(registered - on_disk):
        findings.append(Finding(
            "tests/CMakeLists.txt", 1, "unregistered-test",
            f"SQLNF_TESTS lists '{stem}' but tests/{stem}.cc does not exist"))
    # The registration loop must attach a ctest label to every binary.
    if registered and 'LABELS "tier1"' not in text:
        findings.append(Finding(
            "tests/CMakeLists.txt", 1, "unregistered-test",
            "registered tests must carry a ctest LABELS property"))
    return findings


# --- Rule: raw-mutex ------------------------------------------------------

RAW_MUTEX_ALLOWLIST = {
    "src/sqlnf/util/mutex.h",
}

_RAW_MUTEX_RE = re.compile(
    r"std::(?:mutex|shared_mutex|recursive_mutex|timed_mutex|lock_guard|"
    r"unique_lock|shared_lock|scoped_lock|condition_variable(?:_any)?)\b"
    r"|#\s*include\s*<(?:mutex|shared_mutex|condition_variable)>")


def check_raw_mutex(root: Path) -> list[Finding]:
    findings = []
    for path in iter_cxx_files(root, "src"):
        rel = path.relative_to(root).as_posix()
        if rel in RAW_MUTEX_ALLOWLIST:
            continue
        for lineno, raw in enumerate(path.read_text().splitlines(), 1):
            line = _strip_comments_and_strings(raw)
            if _RAW_MUTEX_RE.search(line):
                findings.append(Finding(
                    rel, lineno, "raw-mutex",
                    "raw standard-library locking is invisible to Thread "
                    "Safety Analysis — use util/mutex.h"))
    return findings


# --- Rule: raw-socket -----------------------------------------------------

# The transport layer: the only subtree that may touch BSD sockets.
RAW_SOCKET_ALLOWED_PREFIX = "src/sqlnf/net/"

# Socket syscalls as free/global calls. The negative lookbehind skips
# member calls (queue.send(x), listener.accept()) — only `send(` and
# `::send(` style calls are the C API.
_RAW_SOCKET_CALL_RE = re.compile(
    r"(?<![\w.>])(?:::)?"
    r"(?:socket|bind|listen|accept4?|connect|recv|recvfrom|send|sendto|"
    r"setsockopt|getsockopt|getsockname|getpeername|shutdown)\s*\(")
_RAW_SOCKET_INCLUDE_RE = re.compile(
    r"#\s*include\s*<(?:sys/socket\.h|netinet/[\w.]+|arpa/inet\.h|"
    r"netdb\.h|sys/un\.h)>")


def check_raw_socket(root: Path) -> list[Finding]:
    findings = []
    for path in iter_cxx_files(root, "src"):
        rel = path.relative_to(root).as_posix()
        if rel.startswith(RAW_SOCKET_ALLOWED_PREFIX):
            continue
        for lineno, raw in enumerate(path.read_text().splitlines(), 1):
            line = _strip_comments_and_strings(raw)
            if (_RAW_SOCKET_INCLUDE_RE.search(raw)
                    or _RAW_SOCKET_CALL_RE.search(line)):
                findings.append(Finding(
                    rel, lineno, "raw-socket",
                    "socket syscalls outside the transport layer bypass "
                    "its framing limits and cancellation (sanctioned: "
                    f"{RAW_SOCKET_ALLOWED_PREFIX})"))
    return findings


# --- Rule: simd-confinement -----------------------------------------------

# The kernel layer: the only files that may see intrinsics headers or
# the SQLNF_SIMD_* feature-detection macros. Everything else calls the
# ISA-agnostic dispatchers in core/simd_kernels.h, which are
# bit-identical across levels — so no caller can fork behavior by ISA.
SIMD_ALLOWLIST = {
    "src/sqlnf/util/simd.h",
    "src/sqlnf/core/simd_kernels.cc",
}

_SIMD_INCLUDE_RE = re.compile(
    r"#\s*include\s*<(?:immintrin\.h|x86intrin\.h|arm_neon\.h|arm_sve\.h|"
    r"[a-z]+mmintrin\.h)>")
_SIMD_MACRO_RE = re.compile(r"\bSQLNF_SIMD_\w+")


def check_simd_confinement(root: Path) -> list[Finding]:
    findings = []
    for subdir in ("src", "tests", "bench", "tools"):
        for path in iter_cxx_files(root, subdir):
            rel = path.relative_to(root).as_posix()
            if rel in SIMD_ALLOWLIST or "/testdata/" in rel:
                continue
            for lineno, raw in enumerate(path.read_text().splitlines(), 1):
                line = _strip_comments_and_strings(raw)
                if _SIMD_INCLUDE_RE.search(line) or _SIMD_MACRO_RE.search(line):
                    findings.append(Finding(
                        rel, lineno, "simd-confinement",
                        "intrinsics and SQLNF_SIMD_* macros are confined to "
                        "the kernel layer — dispatch through "
                        "core/simd_kernels.h (sanctioned: "
                        f"{', '.join(sorted(SIMD_ALLOWLIST))})"))
    return findings


# --- Rule: reference-confinement -----------------------------------------

# The sources of the sqlnf_reference library (src/CMakeLists.txt).
REFERENCE_PREFIXES = ("src/sqlnf/reference/", "src/sqlnf/related/")
# Trees that build without sqlnf_reference.
SERVING_TREES = ("src", "tools", "examples", "frontbench")

_INCLUDE_RE = re.compile(r"\s*#\s*include\b")
_REFERENCE_HEADER_RE = re.compile(r'"sqlnf/(?:reference|related)/[^"]*"')


def check_reference_confinement(root: Path) -> list[Finding]:
    findings = []
    for subdir in SERVING_TREES:
        for path in iter_cxx_files(root, subdir):
            rel = path.relative_to(root).as_posix()
            if rel.startswith(REFERENCE_PREFIXES) or "/testdata/" in rel:
                continue
            for lineno, raw in enumerate(path.read_text().splitlines(), 1):
                # The header name is a string literal, so match it on the
                # raw line, but only where the stripped line is a live
                # #include (not a comment).
                if (_INCLUDE_RE.match(_strip_comments_and_strings(raw))
                        and _REFERENCE_HEADER_RE.search(raw)):
                    findings.append(Finding(
                        rel, lineno, "reference-confinement",
                        "oracle header included outside the reference "
                        "library — only tests/ and bench/ link "
                        "sqlnf_reference (sanctioned: "
                        f"{', '.join(REFERENCE_PREFIXES)})"))
    return findings


# --- Rule: throwing-parse -------------------------------------------------

# Free calls only: `x.stod(` or `p->stol(` are someone else's members.
_THROWING_PARSE_RE = re.compile(
    r"(?<![\w.>])(?:std::)?sto(?:i|l|ll|ul|ull|f|d|ld)\s*\(")


def check_throwing_parse(root: Path) -> list[Finding]:
    findings = []
    for path in iter_cxx_files(root, "src"):
        rel = path.relative_to(root).as_posix()
        for lineno, raw in enumerate(path.read_text().splitlines(), 1):
            line = _strip_comments_and_strings(raw)
            if _THROWING_PARSE_RE.search(line):
                findings.append(Finding(
                    rel, lineno, "throwing-parse",
                    "std::sto* throws on malformed or out-of-range text — "
                    "answer with a Status instead (std::from_chars)"))
    return findings


ALL_CHECKS = [
    check_ordered_code_compare,
    check_nondeterminism,
    check_simd_confinement,
    check_mutable_codes,
    check_test_registration,
    check_raw_mutex,
    check_raw_socket,
    check_reference_confinement,
    check_throwing_parse,
]


def run(root: Path) -> list[Finding]:
    findings = []
    for check in ALL_CHECKS:
        findings.extend(check(root))
    return findings


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", default=".",
                        help="repository root (default: cwd)")
    args = parser.parse_args(argv)
    root = Path(args.root).resolve()
    if not (root / "src").is_dir():
        print(f"error: {root} does not look like the repo root "
              f"(no src/ directory)", file=sys.stderr)
        return 2
    findings = run(root)
    for f in findings:
        print(f)
    if findings:
        print(f"\n{len(findings)} finding(s).")
        return 1
    print("sqlnf_lint: clean.")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
