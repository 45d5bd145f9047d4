#!/usr/bin/env python3
"""felis-lint: repo-contract checks that compilers cannot express.

Rules
-----
  raw-abort           Library code (src/) must not call assert()/abort()/exit();
                      contract failures go through FELIS_CHECK / FELIS_ASSERT,
                      which throw felis::Error and never kill the process.
  stray-stdout        No std::cout / std::cerr / printf-family outside the
                      logger (src/common/logger.cpp). Rank-aware, levelled
                      output must flow through felis::Logger.
  pragma-once         Every header carries `#pragma once`.
  file-doc            Every header opens with a `/// \\file` doc block.
  using-namespace     No `using namespace` at header scope.
  include-order       In src/ .cpp files: the translation unit's own header is
                      included first; no duplicate includes; project headers
                      use quotes and system headers use angle brackets; each
                      contiguous run of same-style includes is sorted.
  build-artifacts     No build trees or compiler outputs tracked by git
                      (build*/ , *.o, CMakeCache.txt, bench JSON dumps, ...).
  raw-element-loop    Hot-path code (src/operators/, src/precon/, src/gs/)
                      must not iterate elements with a raw
                      `for (lidx_t e = 0; e < nelem; ...)` loop; dispatch
                      through device::Backend::parallel_for_blocked so every
                      backend (serial, OpenMP, future accelerators) executes
                      it. Chunk-callback loops (`for (lidx_t e = e0; ...)`)
                      are the sanctioned form and do not match.
  raw-ofstream        Output-producing code (src/io/, src/fluid/) must not
                      open std::ofstream directly: a crash mid-write leaves a
                      torn file at the final path. All durable output goes
                      through io::atomic_write_file / io::AtomicFileWriter
                      (tmp + fsync + rename), which is the single exempt
                      implementation site (src/io/atomic_file.*).
  raw-rename-fsync    Library code (src/) must not call rename()/fsync()
                      (POSIX, std::rename or std::filesystem::rename)
                      directly: the tmp + fsync + rename + directory-fsync
                      dance is easy to get subtly wrong (data hits disk after
                      the rename, torn tails glue onto resumed appends), and
                      the model checker only covers the sanctioned
                      implementations. All durable-write plumbing lives in
                      io::atomic_file.* and io::durable_append.*, the two
                      exempt sites.
  raw-clock           Library code (src/) must not read the clock directly
                      (steady_clock::now() and friends). Ad-hoc timing drifts
                      off the run's trace clock and never reaches the
                      merged trace; time regions with Profiler, intervals
                      with the run's TraceRecorder and other durations with
                      felis::Stopwatch (common/trace.hpp). Exempt: the clock
                      owners themselves (common/profiler and common/trace).
  case-registry       Scenario plugins are private to src/case/: outside it
                      (src/ and examples/), no file may include a plugin
                      header (case/rbc.hpp, case/ihc.hpp, ...) or name a
                      concrete case class (RbcSimulation,
                      InternallyHeatedSimulation). Hosts resolve `case.type`
                      through case/registry.hpp (cases::resolve_case) so new
                      scenarios need no host changes. tests/ and bench/ are
                      exempt by design: they exercise plugins directly.
  raw-thread          Library code (src/) must not spawn std::thread /
                      std::jthread directly: untracked threads bypass the
                      campaign scheduler's GCD-style thread budget and the
                      device backend's worker accounting, so concurrent cases
                      oversubscribe the host invisibly. Exempt: the sanctioned
                      concurrency owners (src/device/, src/comm/, src/insitu/,
                      src/sched/).
  raw-ndjson-read     Library code must not parse manifest/telemetry NDJSON
                      by hand: calls to sched::apply_manifest_line or the
                      parse_json_record parser (felis's JSON codec,
                      src/common/json.*, which defines it and is exempt for
                      that alone) are confined to the protocol owner
                      (src/sched/manifest.*), the campaign status fold
                      (src/obs/) and the model checker (src/verify/, which
                      drives the production fold by design). Ad-hoc folds
                      elsewhere drift from the torn-tail and
                      duplicate-terminal semantics the checker verifies.
  raw-tensor-call     Library code outside src/field/ must not call the
                      tensor-product kernels (apply_axis0/1/2, grad_ref,
                      interp3) directly: direct calls pin the scalar reference
                      and silently bypass the per-order kernel table.
                      Dispatch through the operators::Context kernel table
                      (ctx.kern().axis0(...) etc.) or a field::TensorKernels
                      member. tests/ and bench/ are exempt by design: they
                      exercise and time the raw variants.
  raw-param-read      Host and library code (src/, examples/) must not read a
                      parameter by a literal key (get_string/get_real/get_int/
                      get_bool/has("case.Ra")): every key is declared once, as
                      a felis::Param beside its reader, and read through it
                      (kRa.get(params, def)), so its type, range and doc live
                      in one place and check_params can name an undeclared
                      key. tests/ and felis_bench/ are exempt: they build maps
                      with any key.

Usage
-----
  felis_lint.py --root <repo>      lint the tree (exit 1 on violations)
  felis_lint.py --self-test        seed one violation per rule into a scratch
                                   tree and verify each is caught (exit 1 if
                                   any rule fails to fire)
"""

import argparse
import os
import re
import subprocess
import sys
import tempfile

HEADER_DIRS = ("src", "tests", "bench", "examples")
LIBRARY_DIR = "src"
STDOUT_EXEMPT = {os.path.join("src", "common", "logger.cpp")}
HOT_PATH_DIRS = (
    os.path.join("src", "operators"),
    os.path.join("src", "precon"),
    os.path.join("src", "gs"),
)
DURABLE_OUTPUT_DIRS = (
    os.path.join("src", "io"),
    os.path.join("src", "fluid"),
)
OFSTREAM_EXEMPT = {
    os.path.join("src", "io", "atomic_file.hpp"),
    os.path.join("src", "io", "atomic_file.cpp"),
    os.path.join("src", "io", "durable_append.hpp"),
    os.path.join("src", "io", "durable_append.cpp"),
}
# The only files allowed to touch rename()/fsync() directly: the atomic-write
# helper (tmp + fsync + rename) and the durable append journal (fsync'd
# in-place growth). Everything else goes through their APIs.
RENAME_FSYNC_EXEMPT = {
    os.path.join("src", "io", "atomic_file.hpp"),
    os.path.join("src", "io", "atomic_file.cpp"),
    os.path.join("src", "io", "durable_append.hpp"),
    os.path.join("src", "io", "durable_append.cpp"),
}
# Sanctioned clock owners: the profiler (region timing) and the run's trace
# recorder (the clock every interval lands on, and the Stopwatch beside it).
CLOCK_EXEMPT = {
    os.path.join("src", "common", "profiler.hpp"),
    os.path.join("src", "common", "profiler.cpp"),
    os.path.join("src", "common", "trace.hpp"),
    os.path.join("src", "common", "trace.cpp"),
}
# Sanctioned thread owners: the device backends (worker pools), the
# threads-as-ranks communicator, the in-situ consumer, and the campaign
# scheduler (whose whole job is budgeted thread accounting).
THREAD_EXEMPT_DIRS = (
    os.path.join("src", "device"),
    os.path.join("src", "comm"),
    os.path.join("src", "insitu"),
    os.path.join("src", "sched"),
)
# The case-registry rule's scope: library and host code. tests/ and bench/
# deliberately excluded — they white-box the plugins.
CASE_PLUGIN_DIRS = ("src", "examples")
CASE_PLUGIN_EXEMPT_PREFIX = "src/case/"
# NDJSON protocol readers: the manifest owner defines the fold and the record
# parser, the campaign status fold consumes them, and the model checker
# exercises the fold by design. Everyone else gets read_manifest() /
# obs::read_campaign().
NDJSON_READ_EXEMPT_PREFIXES = ("src/obs/", "src/verify/")
NDJSON_READ_EXEMPT = {
    os.path.join("src", "sched", "manifest.hpp"),
    os.path.join("src", "sched", "manifest.cpp"),
    # The codec defines the parser; it calls no fold.
    os.path.join("src", "common", "json.hpp"),
    os.path.join("src", "common", "json.cpp"),
}
# The tensor kernels' home: the only library directory allowed to call
# apply_axis* / grad_ref / interp3 directly (definitions, variants, and the
# TensorKernels defaults live there).
TENSOR_CALL_EXEMPT_PREFIX = "src/field/"
# Where a parameter is read by its declaration only.
PARAM_READ_DIRS = ("src", "examples")

RAW_ABORT_RE = re.compile(r"(?<![\w.])(assert|abort|exit)\s*\(")
STDOUT_RE = re.compile(r"std::cout|std::cerr|(?<![\w.])(printf|fprintf|puts)\s*\(")
USING_NAMESPACE_RE = re.compile(r"^\s*using\s+namespace\b")
# A from-zero element loop: `for (lidx_t e = 0; e < nelem ...)` (any loop
# variable, bound spelled nelem / num_elements() / *.num_elements()). The
# blocked-dispatch chunk form starts at the chunk begin (e0), so it never
# starts at literal 0 and does not match.
RAW_ELEMENT_LOOP_RE = re.compile(
    r"for\s*\(\s*lidx_t\s+\w+\s*=\s*0\s*;\s*\w+\s*<\s*"
    r"[\w.\->]*(?:nelem\b|num_elements\s*\(\s*\))")
INCLUDE_RE = re.compile(r'^\s*#\s*include\s+([<"])([^>"]+)[>"]')
RAW_OFSTREAM_RE = re.compile(r"std::ofstream\b")
# Direct clock reads: std::chrono::steady_clock::now() and the other chrono
# clocks, plus the common `using Clock = ...; Clock::now()` alias idiom.
RAW_CLOCK_RE = re.compile(
    r"(?:steady_clock|system_clock|high_resolution_clock|\bClock)\s*::\s*now\s*\(")
RAW_THREAD_RE = re.compile(r"std::j?thread\b")
# Raw rename/fsync calls in any spelling: qualified (std::filesystem::rename,
# fs::rename, std::rename, ::fsync) or bare. Wrapper names (io::rename_file,
# fsync_path) do not match: the call paren must follow the function name
# immediately, and a bare name must not be preceded by an identifier
# character, `.` or `:` (so `rename_file(` and `x.rename(` stay clean while
# the qualified alternatives above catch the namespaced forms).
# Plugin-private case headers: anything under case/ except the public
# interface (case.hpp) and the registry itself.
CASE_PLUGIN_INCLUDE_RE = re.compile(
    r'^\s*#\s*include\s+"case/(?!case\.hpp|registry\.hpp)')
CASE_PLUGIN_TYPE_RE = re.compile(r"\b(RbcSimulation|InternallyHeatedSimulation)\b")
RAW_RENAME_FSYNC_RE = re.compile(
    r"(?:std\s*::\s*)?filesystem\s*::\s*rename\s*\(|"
    r"\b(?:std|fs)\s*::\s*rename\s*\(|"
    r"(?<![\w.:])(?:rename|fsync)\s*\(|"
    r"(?<![\w.])::\s*(?:rename|fsync)\s*\(")
# A raw NDJSON-protocol read: the fold entry point or the record parser,
# qualified or not. read_manifest() (the sanctioned whole-file fold) does not
# match.
RAW_NDJSON_READ_RE = re.compile(
    r"\b(?:sched\s*::\s*)?(apply_manifest_line|parse_json_record)\s*\(")
# A direct tensor-kernel call: the kernel name immediately followed by an
# argument list. Shaped-kernel names (apply_axis_order<0, 8>, grad_order<8>)
# do not match — the suffix sits between the name and `(` — and neither do
# table dispatches (kern.axis0(...)) or address-of uses (&apply_axis0).
RAW_TENSOR_CALL_RE = re.compile(
    r"(?<!&)\b(?:field\s*::\s*)?(apply_axis[012]|grad_ref|interp3)\s*\(")

# A ParamMap read whose key is a string literal (matched on code with the
# comments stripped and the string literals kept).
RAW_PARAM_READ_RE = re.compile(
    r"\b(get_string|get_real|get_int|get_bool|has)\s*\(\s*\"")

TRACKED_ARTIFACT_RES = [
    re.compile(r"(^|/)build[^/]*/"),
    re.compile(r"\.(o|obj|a|so|dylib|gch|pch|exe|bin|out)$"),
    re.compile(r"(^|/)(CMakeCache\.txt|CMakeFiles/|CTestTestfile\.cmake|Testing/)"),
    re.compile(r"^bench/.*\.json$"),
    re.compile(r"(^|/)(\.DS_Store|.*\.swp|.*~)$"),
]


class Violation:
    def __init__(self, path, line, rule, message):
        self.path = path
        self.line = line
        self.rule = rule
        self.message = message

    def __str__(self):
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


def strip_comments_and_strings(text, keep_strings=False):
    """Blank out comments and string/char literals (only comments with
    `keep_strings`), preserving line structure so reported line numbers stay
    correct. A lexer-grade pass is overkill for lint purposes; this handles
    //, /* */, "..." and '...' including escapes.
    """
    out = []
    i, n = 0, len(text)
    state = "code"
    while i < n:
        ch = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if state == "code":
            if ch == "/" and nxt == "/":
                state = "line_comment"
                out.append("  ")
                i += 2
                continue
            if ch == "/" and nxt == "*":
                state = "block_comment"
                out.append("  ")
                i += 2
                continue
            if ch in "\"'":
                state = "string" if ch == '"' else "char"
                out.append(ch if keep_strings else " ")
                i += 1
                continue
            out.append(ch)
        elif state == "line_comment":
            if ch == "\n":
                state = "code"
                out.append("\n")
            else:
                out.append(" ")
        elif state == "block_comment":
            if ch == "*" and nxt == "/":
                state = "code"
                out.append("  ")
                i += 2
                continue
            out.append("\n" if ch == "\n" else " ")
        elif state in ("string", "char"):
            quote = '"' if state == "string" else "'"
            if ch == "\\":
                out.append(text[i:i + 2] if keep_strings else "  ")
                i += 2
                continue
            if ch == quote:
                state = "code"
            out.append(ch if keep_strings or ch == "\n" else " ")
        i += 1
    return "".join(out)


def iter_files(root, dirs, exts):
    for d in dirs:
        base = os.path.join(root, d)
        for dirpath, dirnames, filenames in os.walk(base):
            dirnames[:] = sorted(x for x in dirnames if not x.startswith("."))
            for fn in sorted(filenames):
                if os.path.splitext(fn)[1] in exts:
                    yield os.path.join(dirpath, fn)


def rel(root, path):
    return os.path.relpath(path, root).replace(os.sep, "/")


# ---- rule implementations ---------------------------------------------------


def check_raw_abort(root):
    out = []
    for path in iter_files(root, (LIBRARY_DIR,), {".hpp", ".cpp"}):
        code = strip_comments_and_strings(open(path, encoding="utf-8").read())
        for lineno, line in enumerate(code.splitlines(), 1):
            m = RAW_ABORT_RE.search(line)
            if m:
                out.append(Violation(
                    rel(root, path), lineno, "raw-abort",
                    f"raw {m.group(1)}() in library code; use FELIS_CHECK / "
                    f"FELIS_ASSERT (they throw felis::Error, never abort)"))
    return out


def check_stray_stdout(root):
    out = []
    for path in iter_files(root, (LIBRARY_DIR,), {".hpp", ".cpp"}):
        if rel(root, path) in {p.replace(os.sep, "/") for p in STDOUT_EXEMPT}:
            continue
        code = strip_comments_and_strings(open(path, encoding="utf-8").read())
        for lineno, line in enumerate(code.splitlines(), 1):
            if STDOUT_RE.search(line):
                out.append(Violation(
                    rel(root, path), lineno, "stray-stdout",
                    "direct stdout/stderr write in library code; route "
                    "through felis::Logger"))
    return out


def check_headers(root):
    out = []
    for path in iter_files(root, HEADER_DIRS, {".hpp"}):
        text = open(path, encoding="utf-8").read()
        lines = text.splitlines()
        if "#pragma once" not in text:
            out.append(Violation(rel(root, path), 1, "pragma-once",
                                 "header lacks #pragma once"))
        if not any(l.lstrip().startswith("/// \\file") for l in lines[:5]):
            out.append(Violation(rel(root, path), 1, "file-doc",
                                 "header must open with a `/// \\file` doc block"))
        code = strip_comments_and_strings(text)
        for lineno, line in enumerate(code.splitlines(), 1):
            if USING_NAMESPACE_RE.search(line):
                out.append(Violation(rel(root, path), lineno, "using-namespace",
                                     "`using namespace` leaks into every includer"))
    return out


def check_include_order(root):
    out = []
    src = os.path.join(root, LIBRARY_DIR)
    for path in iter_files(root, (LIBRARY_DIR,), {".cpp"}):
        relpath = rel(root, path)
        includes = []  # (lineno, style, target)
        for lineno, line in enumerate(open(path, encoding="utf-8").read().splitlines(), 1):
            m = INCLUDE_RE.match(line)
            if m:
                includes.append((lineno, m.group(1), m.group(2)))
        if not includes:
            continue
        own = os.path.splitext(os.path.relpath(path, src))[0].replace(os.sep, "/") + ".hpp"
        if os.path.exists(os.path.join(src, own)):
            first = includes[0]
            if not (first[1] == '"' and first[2] == own):
                out.append(Violation(relpath, first[0], "include-order",
                                     f'own header "{own}" must be the first include'))
        seen = {}
        for lineno, style, target in includes:
            if target in seen:
                out.append(Violation(relpath, lineno, "include-order",
                                     f"duplicate include of {target} "
                                     f"(first at line {seen[target]})"))
            else:
                seen[target] = lineno
        for lineno, style, target in includes:
            exists_in_src = os.path.exists(os.path.join(src, target))
            if style == "<" and exists_in_src:
                out.append(Violation(relpath, lineno, "include-order",
                                     f"project header <{target}> must use quotes"))
            if style == '"' and not exists_in_src:
                out.append(Violation(relpath, lineno, "include-order",
                                     f'"{target}" is not a project header; use <...>'))
        # Each contiguous run of same-style includes must be sorted (the own
        # header, always first, is excluded from the ordering requirement).
        run = []
        prev_lineno = None
        prev_style = None
        body = includes[1:] if includes and includes[0][2] == own else includes
        for lineno, style, target in body + [(None, None, None)]:
            contiguous = prev_lineno is not None and lineno == prev_lineno + 1
            if style == prev_style and contiguous:
                run.append((lineno, target))
            else:
                if len(run) > 1 and [t for _, t in run] != sorted(t for _, t in run):
                    out.append(Violation(relpath, run[0][0], "include-order",
                                         "include block is not alphabetically sorted"))
                run = [(lineno, target)] if style else []
            prev_lineno, prev_style = lineno, style
    return out


def check_build_artifacts(root):
    try:
        tracked = subprocess.run(
            ["git", "-C", root, "ls-files", "--cached"],
            capture_output=True, text=True, check=True).stdout.splitlines()
    except (subprocess.CalledProcessError, FileNotFoundError):
        return []  # not a git checkout (e.g. exported tarball): nothing to check
    out = []
    for path in tracked:
        for pat in TRACKED_ARTIFACT_RES:
            if pat.search(path):
                out.append(Violation(path, 1, "build-artifacts",
                                     "build artifact is tracked by git; "
                                     "remove it and rely on .gitignore"))
                break
    return out


def check_raw_element_loop(root):
    out = []
    for d in HOT_PATH_DIRS:
        base = os.path.join(root, d)
        if not os.path.isdir(base):
            continue
        for path in iter_files(root, (d,), {".hpp", ".cpp"}):
            code = strip_comments_and_strings(open(path, encoding="utf-8").read())
            for lineno, line in enumerate(code.splitlines(), 1):
                if RAW_ELEMENT_LOOP_RE.search(line):
                    out.append(Violation(
                        rel(root, path), lineno, "raw-element-loop",
                        "raw from-zero element loop in hot-path code; "
                        "dispatch it through "
                        "device::Backend::parallel_for_blocked"))
    return out


def check_raw_ofstream(root):
    out = []
    exempt = {p.replace(os.sep, "/") for p in OFSTREAM_EXEMPT}
    for d in DURABLE_OUTPUT_DIRS:
        if not os.path.isdir(os.path.join(root, d)):
            continue
        for path in iter_files(root, (d,), {".hpp", ".cpp"}):
            if rel(root, path) in exempt:
                continue
            code = strip_comments_and_strings(open(path, encoding="utf-8").read())
            for lineno, line in enumerate(code.splitlines(), 1):
                if RAW_OFSTREAM_RE.search(line):
                    out.append(Violation(
                        rel(root, path), lineno, "raw-ofstream",
                        "direct std::ofstream in durable-output code; a crash "
                        "mid-write leaves a torn file — use "
                        "io::atomic_write_file / io::AtomicFileWriter"))
    return out


def check_raw_rename_fsync(root):
    out = []
    exempt = {p.replace(os.sep, "/") for p in RENAME_FSYNC_EXEMPT}
    for path in iter_files(root, (LIBRARY_DIR,), {".hpp", ".cpp"}):
        relpath = rel(root, path)
        if relpath in exempt:
            continue
        code = strip_comments_and_strings(open(path, encoding="utf-8").read())
        for lineno, line in enumerate(code.splitlines(), 1):
            if RAW_RENAME_FSYNC_RE.search(line):
                out.append(Violation(
                    relpath, lineno, "raw-rename-fsync",
                    "raw rename()/fsync() outside the sanctioned durable-"
                    "write sites; use io::atomic_write_file / "
                    "io::AtomicFileWriter or io::DurableAppendWriter"))
    return out


def check_raw_clock(root):
    out = []
    exempt = {p.replace(os.sep, "/") for p in CLOCK_EXEMPT}
    for path in iter_files(root, (LIBRARY_DIR,), {".hpp", ".cpp"}):
        relpath = rel(root, path)
        if relpath in exempt:
            continue
        code = strip_comments_and_strings(open(path, encoding="utf-8").read())
        for lineno, line in enumerate(code.splitlines(), 1):
            if RAW_CLOCK_RE.search(line):
                out.append(Violation(
                    relpath, lineno, "raw-clock",
                    "direct clock read in library code; time regions with "
                    "Profiler (records into the run's trace) or other "
                    "durations with felis::Stopwatch (common/trace.hpp)"))
    return out


def check_raw_thread(root):
    out = []
    exempt_dirs = tuple(d.replace(os.sep, "/") + "/" for d in THREAD_EXEMPT_DIRS)
    for path in iter_files(root, (LIBRARY_DIR,), {".hpp", ".cpp"}):
        relpath = rel(root, path)
        if relpath.startswith(exempt_dirs):
            continue
        code = strip_comments_and_strings(open(path, encoding="utf-8").read())
        for lineno, line in enumerate(code.splitlines(), 1):
            if RAW_THREAD_RE.search(line):
                out.append(Violation(
                    relpath, lineno, "raw-thread",
                    "raw std::thread in library code bypasses the thread "
                    "budget; use device::Backend workers, comm::run_parallel "
                    "ranks, or the sched:: worker pool"))
    return out


def check_case_registry(root):
    out = []
    for path in iter_files(root, CASE_PLUGIN_DIRS, {".hpp", ".cpp"}):
        relpath = rel(root, path)
        if relpath.startswith(CASE_PLUGIN_EXEMPT_PREFIX):
            continue
        text = open(path, encoding="utf-8").read()
        # Include directives live inside string-literal quotes, which the
        # stripper blanks — match them on the raw lines. Type names are
        # matched on stripped code so comments mentioning them stay legal.
        for lineno, line in enumerate(text.splitlines(), 1):
            if CASE_PLUGIN_INCLUDE_RE.match(line):
                out.append(Violation(
                    relpath, lineno, "case-registry",
                    "plugin-private case header included outside src/case/; "
                    "resolve scenarios through case/registry.hpp "
                    "(cases::resolve_case) instead"))
        code = strip_comments_and_strings(text)
        for lineno, line in enumerate(code.splitlines(), 1):
            m = CASE_PLUGIN_TYPE_RE.search(line)
            if m:
                out.append(Violation(
                    relpath, lineno, "case-registry",
                    f"direct use of {m.group(1)} outside src/case/; build "
                    "cases through the registry (cases::resolve_case + "
                    "make_case)"))
    return out


def check_raw_ndjson_read(root):
    out = []
    exempt = {p.replace(os.sep, "/") for p in NDJSON_READ_EXEMPT}
    for path in iter_files(root, (LIBRARY_DIR,), {".hpp", ".cpp"}):
        relpath = rel(root, path)
        if relpath in exempt or relpath.startswith(NDJSON_READ_EXEMPT_PREFIXES):
            continue
        code = strip_comments_and_strings(open(path, encoding="utf-8").read())
        for lineno, line in enumerate(code.splitlines(), 1):
            m = RAW_NDJSON_READ_RE.search(line)
            if m:
                out.append(Violation(
                    relpath, lineno, "raw-ndjson-read",
                    f"raw NDJSON protocol read ({m.group(1)}) outside the "
                    "sanctioned fold sites; use sched::read_manifest or "
                    "obs::read_campaign"))
    return out


def check_raw_tensor_call(root):
    out = []
    for path in iter_files(root, (LIBRARY_DIR,), {".hpp", ".cpp"}):
        relpath = rel(root, path)
        if relpath.startswith(TENSOR_CALL_EXEMPT_PREFIX):
            continue
        code = strip_comments_and_strings(open(path, encoding="utf-8").read())
        for lineno, line in enumerate(code.splitlines(), 1):
            m = RAW_TENSOR_CALL_RE.search(line)
            if m:
                out.append(Violation(
                    relpath, lineno, "raw-tensor-call",
                    f"direct {m.group(1)}() call outside src/field/ bypasses "
                    "the per-order kernel table; dispatch through "
                    "ctx.kern() (operators::Context) or a "
                    "field::TensorKernels table"))
    return out


def check_raw_param_read(root):
    out = []
    for path in iter_files(root, PARAM_READ_DIRS, {".hpp", ".cpp"}):
        text = open(path, encoding="utf-8").read()
        code = strip_comments_and_strings(text, keep_strings=True)
        # The key may sit on the line after the call's parenthesis.
        for m in RAW_PARAM_READ_RE.finditer(code):
            lineno = code.count("\n", 0, m.start()) + 1
            out.append(Violation(
                rel(root, path), lineno, "raw-param-read",
                f"{m.group(1)}() with a literal key; declare the key once "
                "as a felis::Param beside its reader and read it through "
                "that declaration"))
    return out


ALL_CHECKS = [
    check_raw_abort,
    check_stray_stdout,
    check_headers,
    check_include_order,
    check_build_artifacts,
    check_raw_element_loop,
    check_raw_ofstream,
    check_raw_rename_fsync,
    check_raw_clock,
    check_raw_thread,
    check_case_registry,
    check_raw_ndjson_read,
    check_raw_tensor_call,
    check_raw_param_read,
]


def lint(root):
    violations = []
    for check in ALL_CHECKS:
        violations.extend(check(root))
    return violations


# ---- self-test --------------------------------------------------------------

SEEDED = {
    "src/bad/raw_abort.cpp": (
        "raw-abort",
        '#include <cstdlib>\nvoid f(int x) { if (x) abort(); }\n'),
    "src/bad/raw_assert.cpp": (
        "raw-abort",
        '#include <cassert>\nvoid g(int x) { assert(x > 0); }\n'),
    "src/bad/stray_stdout.cpp": (
        "stray-stdout",
        '#include <iostream>\nvoid h() { std::cout << "hi"; }\n'),
    "src/bad/no_pragma.hpp": (
        "pragma-once",
        "/// \\file no_pragma.hpp\nint i();\n"),
    "src/bad/no_doc.hpp": (
        "file-doc",
        "#pragma once\nint j();\n"),
    "src/bad/using_ns.hpp": (
        "using-namespace",
        "/// \\file using_ns.hpp\n#pragma once\nusing namespace std;\n"),
    "src/bad/order.cpp": (
        "include-order",
        '#include <vector>\n#include "bad/order.hpp"\n'),
    "src/bad/order.hpp": (
        None,
        "/// \\file order.hpp\n#pragma once\nint k();\n"),
    "src/bad/unsorted.cpp": (
        "include-order",
        '#include "bad/unsorted.hpp"\n\n#include <vector>\n#include <atomic>\n'),
    "src/bad/unsorted.hpp": (
        None,
        "/// \\file unsorted.hpp\n#pragma once\nint m();\n"),
    "src/good/clean.cpp": (
        None,
        '#include "good/clean.hpp"\n\n#include <atomic>\n#include <vector>\n\n'
        'int n() { return 0; }\n'),
    "src/good/clean.hpp": (
        None,
        "/// \\file clean.hpp\n#pragma once\nint n();\n"),
    "src/operators/raw_loop.cpp": (
        "raw-element-loop",
        "void f(int nelem) {\n"
        "  for (lidx_t e = 0; e < nelem; ++e) {}\n"
        "}\n"),
    "src/operators/dispatched_loop.cpp": (
        None,
        "void g(int e0, int e1) {\n"
        "  for (lidx_t e = e0; e < e1; ++e) {}\n"
        "  for (lidx_t q = 0; q < npe; ++q) {}\n"
        "}\n"),
    "src/fluid/raw_write.cpp": (
        "raw-ofstream",
        '#include <fstream>\nvoid w() { std::ofstream out("x.ckpt"); }\n'),
    "src/io/atomic_file.cpp": (
        None,  # the one sanctioned std::ofstream site
        '#include <fstream>\nvoid a() { std::ofstream out("x.tmp"); }\n'),
    "src/bad/raw_rename.cpp": (
        "raw-rename-fsync",
        '#include <filesystem>\nvoid f() {\n'
        '  std::filesystem::rename("a.tmp", "a");\n}\n'),
    "src/bad/raw_fsync.cpp": (
        "raw-rename-fsync",
        "#include <unistd.h>\nvoid g(int fd) { fsync(fd); }\n"),
    "src/bad/raw_posix_rename.cpp": (
        "raw-rename-fsync",
        '#include <cstdio>\nvoid h() { ::rename("a.tmp", "a"); }\n'),
    "src/good/wrapped_rename.cpp": (
        None,  # wrapper names must not match the raw-rename-fsync rule
        "void rename_file(const char*, const char*);\n"
        "void fsync_path(const char*);\nvoid w() {\n"
        '  rename_file("a.tmp", "a");\n  fsync_path("a");\n}\n'),
    "src/io/durable_append.cpp": (
        None,  # sanctioned fsync/ofstream site (append journal)
        '#include <fstream>\n#include <unistd.h>\n'
        'void d(int fd) {\n  std::ofstream out("j.ndjson");\n'
        '  ::fsync(fd);\n}\n'),
    "src/bad/raw_clock.cpp": (
        "raw-clock",
        "#include <chrono>\nvoid t() {\n"
        "  auto t0 = std::chrono::steady_clock::now();\n"
        "  (void)t0;\n}\n"),
    "src/telemetry/clock_owner.cpp": (
        "raw-clock",  # the telemetry layer times on its recorder's clock
        "#include <chrono>\nvoid e() {\n"
        "  auto t0 = std::chrono::steady_clock::now();\n"
        "  (void)t0;\n}\n"),
    "src/fluid/raw_thread.cpp": (
        "raw-thread",
        "#include <thread>\nvoid r() {\n"
        "  std::thread t([] {});\n  t.join();\n}\n"),
    "src/sched/pool_owner.cpp": (
        None,  # the scheduler owns budgeted worker threads
        "#include <thread>\nvoid p() {\n"
        "  std::thread t([] {});\n  t.join();\n}\n"),
    "src/case/rbc.hpp": (
        None,  # seeded so the bad include below targets a real project header
        "/// \\file rbc.hpp\n#pragma once\n"
        "namespace felis::rbc { class RbcSimulation; }\n"),
    "src/bad/direct_case_include.cpp": (
        "case-registry",
        '#include "case/rbc.hpp"\nvoid f() {}\n'),
    "src/bad/direct_case_ctor.cpp": (
        "case-registry",
        "namespace felis::rbc { class RbcSimulation; }\n"
        "void g(felis::rbc::RbcSimulation* sim);\n"),
    "examples/direct_case_example.cpp": (
        "case-registry",
        '#include "case/ihc.hpp"\nint main() { return 0; }\n'),
    "src/case/plugin_site.cpp": (
        None,  # src/case/ is the sanctioned home of plugin internals
        '#include "case/rbc.hpp"\n'
        "void reg(felis::rbc::RbcSimulation*) {}\n"),
    "src/good/registry_host.cpp": (
        None,  # resolving through the registry is the sanctioned host path
        '#include "case/registry.hpp"\nvoid h() {}\n'),
    "src/case/registry.hpp": (
        None,
        "/// \\file registry.hpp\n#pragma once\n"
        "namespace felis::cases { struct CaseInfo; }\n"),
    "src/bad/raw_ndjson.cpp": (
        "raw-ndjson-read",
        "#include <string>\nvoid f(const std::string& line) {\n"
        "  auto rec = felis::parse_json_record(line);\n"
        "  (void)rec;\n}\n"),
    "src/common/raw_ndjson.cpp": (
        "raw-ndjson-read",  # only the codec's own files define the parser
        "#include <string>\nvoid f(const std::string& line) {\n"
        "  auto rec = parse_json_record(line);\n  (void)rec;\n}\n"),
    "src/obs/status_site.cpp": (
        None,  # the campaign status fold is a sanctioned fold site
        "#include <string>\nvoid g(const std::string& line) {\n"
        "  sched::apply_manifest_line(state, line);\n"
        "  auto rec = parse_json_record(line);\n  (void)rec;\n}\n"),
    "src/sched/manifest.cpp": (
        None,  # the protocol owner folds through the parser
        "#include <string>\nvoid h(const std::string& line) {\n"
        "  auto rec = parse_json_record(line);\n  (void)rec;\n}\n"),
    "src/common/json.cpp": (
        None,  # the codec defines the parser
        "#include <string_view>\n"
        "std::optional<JsonRecord> parse_json_record(std::string_view line) {\n"
        "  return LineParser(line).record();\n}\n"),
    "src/good/manifest_consumer.cpp": (
        None,  # whole-file folds go through read_manifest
        "#include <string>\nvoid r(const std::string& path) {\n"
        "  auto state = sched::read_manifest(path);\n  (void)state;\n}\n"),
    "src/precon/raw_tensor.cpp": (
        "raw-tensor-call",
        "void f(const double* u, double* o, int n) {\n"
        "  field::apply_axis0(op, u, o, n, n);\n}\n"),
    "src/operators/table_dispatch.cpp": (
        None,  # table dispatch and shaped-kernel names are sanctioned forms
        "void g(const double* u, double* o, int n) {\n"
        "  kern.axis0(op, u, o, n, n);\n"
        "  field::apply_axis_order<0, 8>(op, u, o, n, n);\n"
        "  auto* fn = &field::apply_axis0;\n  (void)fn;\n}\n"),
    "src/bad/raw_param.cpp": (
        "raw-param-read",
        "double f(const ParamMap& p) {\n"
        '  return p.get_real("case.Ra", 1e4) + p.get_int(\n      "mesh.nx", 3);\n}\n'),
    "examples/raw_param_host.cpp": (
        "raw-param-read",
        'bool g(const ParamMap& p) { return p.has ("case.dt"); }\n'),
    "src/good/declared_param.cpp": (
        None,  # reads through a declaration; literals in comments are inert
        'constexpr Param<real_t> kRa{"case.Ra", 0, 1, "Ra"};\n'
        "// p.get_real(\"case.Ra\", 1e4) was the old spelling\n"
        "double h(const ParamMap& p) {\n"
        "  return p.has(kRa.name) ? kRa.get(p, 1e4) : 0;\n}\n"),
    "tests/raw_param_test.cpp": (
        None,  # tests build maps with any key
        'double t(const ParamMap& p) { return p.get_real("x", 1); }\n'),
    "src/field/tensor_site.cpp": (
        None,  # src/field/ owns the kernels and may call them raw
        "void h(const double* u, double* o, int n) {\n"
        "  apply_axis0(op, u, o, n, n);\n  grad_ref(op, u, o, o, o, n);\n}\n"),
}


def self_test():
    failures = []
    with tempfile.TemporaryDirectory() as tmp:
        for relp, (_, content) in SEEDED.items():
            path = os.path.join(tmp, relp)
            os.makedirs(os.path.dirname(path), exist_ok=True)
            with open(path, "w", encoding="utf-8") as f:
                f.write(content)
        subprocess.run(["git", "init", "-q", tmp], check=True,
                       capture_output=True)
        os.makedirs(os.path.join(tmp, "build"), exist_ok=True)
        with open(os.path.join(tmp, "build", "CMakeCache.txt"), "w") as f:
            f.write("// seeded artifact\n")
        subprocess.run(["git", "-C", tmp, "add", "-f", "."], check=True,
                       capture_output=True)

        violations = lint(tmp)
        by_rule = {}
        for v in violations:
            by_rule.setdefault(v.rule, []).append(v)

        for relp, (rule, _) in SEEDED.items():
            if rule is None:
                continue
            hits = [v for v in by_rule.get(rule, []) if v.path == relp]
            if not hits:
                failures.append(f"rule '{rule}' did not fire on seeded {relp}")
        if not by_rule.get("build-artifacts"):
            failures.append("rule 'build-artifacts' did not fire on seeded "
                            "build/CMakeCache.txt")
        clean_paths = {relp for relp, (rule, _) in SEEDED.items() if rule is None}
        clean_hits = [v for v in violations
                      if v.path.startswith("src/good/") or v.path in clean_paths]
        for v in clean_hits:
            failures.append(f"false positive on clean file: {v}")

    if failures:
        for f in failures:
            print(f"felis-lint self-test FAILED: {f}")
        return 1
    print(f"felis-lint self-test passed ({len(SEEDED)} seeded files, "
          f"all rules fired, no false positives).")
    return 0


def main(argv):
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--root", help="repository root to lint")
    ap.add_argument("--self-test", action="store_true",
                    help="verify every rule fires on seeded violations")
    args = ap.parse_args(argv)

    if args.self_test:
        return self_test()
    if not args.root:
        ap.error("--root is required unless --self-test is given")
    root = os.path.abspath(args.root)
    if not os.path.isdir(os.path.join(root, "src")):
        print(f"felis-lint: '{root}' is not a felis tree (no src/ directory).",
              file=sys.stderr)
        return 2
    violations = lint(root)
    for v in violations:
        print(v)
    if violations:
        print(f"felis-lint: {len(violations)} violation(s).")
        return 1
    print("felis-lint: clean.")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
