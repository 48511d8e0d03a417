#!/usr/bin/env python3
"""wmlint — Watchmen-specific lint for invariants generic tools can't express.

Checks
------
raw-random      No rand()/srand()/std::random_device/std::mt19937/time()/
                gettimeofday()/clock() in src/: every source of randomness or
                time must go through util/rng.hpp or net/clock.hpp, or whole
                sessions stop being reproducible from a single seed (and the
                verifiable proxy assignment of PAPER.md §III-B breaks).
wire-order      No range-for over a std::unordered_{map,set} whose result can
                feed protocol or wire-order decisions: hash iteration order is
                not part of the protocol. A loop is exempt when a std::sort
                follows within a few lines (canonicalizing the output) or when
                annotated.
decoder-abort   Functions on the decode path (decode_*/read_*/parse*/
                deserialize/open*) in src/ must reject malformed input with
                DecodeError — never assert(), abort(), exit(), or throw a
                generic logic error a remote peer could turn into a crash.
include-hygiene Headers start with #pragma once; no ".." in quoted includes;
                a module .cpp includes its own header first.
whitespace      No tabs or trailing whitespace in C++ sources; files end with
                a newline.
msgtype-corpus  Every member of the MsgType wire enum must have a seed in the
                fuzz corpus generator (fuzz/gen_corpus.cpp): a wire type the
                fuzzers never start from is a decode surface the smoke run
                exercises only by accident.
record-corpus   Same rule for the flight-recorder enums (RosterCheat and
                RecEventKind in src/obs/recorder.hpp): every member must
                appear qualified in fuzz/gen_corpus.cpp so each .wmrec
                variant has a well-formed fuzz seed.
penalty-reason  Every PenaltyReason member (src/reputation/
                misbehavior_engine.hpp) must be cased in the reason-string
                table of misbehavior_engine.cpp and named in at least one
                test under tests/: a penalty the metrics can't label or the
                suite never exercises is a scoring path that can silently
                rot.
mutex-guarded   Every mutex declared in src/ (std::mutex or util::Mutex)
                must be named by at least one GUARDED_BY/PT_GUARDED_BY in
                the same file: an unreferenced mutex is invisible to the
                Clang thread-safety analysis (util/thread_annotations.hpp),
                so -Wthread-safety proves nothing about the data it is
                supposed to protect.
transport-factory
                No direct SimNetwork construction outside tests/ and
                src/net/: production and bench code must go through
                net::make_transport (net/transport.hpp) so the
                WATCHMEN_TRANSPORT selector, the control-class shed
                protection and the UDP carrier wiring apply everywhere.
config-knob     Every field of WatchmenConfig (src/core/peer.hpp) and
                SessionOptions (src/core/session.hpp) must be set by some
                file outside tests/, examples/ and src/obs/recorder.cpp
                (matched by member name; sub-field writes and mutating
                calls count): a value only tests, examples or the .wmrec
                codec ever set is a knob nothing runs with, so it should be
                a constexpr. An exempt field carries
                `// wmlint: allow(config-knob) <reason>`; the reason is
                required.
link-switch     WatchmenConfig::hardened is read in src/ only by
                core/peer_link.cpp (and the .wmrec codec, which copies every
                field), plus the one annotated read in the peer constructor
                that picks the loss tolerances: a role branching on it
                forks the control plane PeerLink keeps in one place.
authority-rule  kChurnRemovalDelayRounds, kRejoinRestoreDelayRounds,
                kHandoffStaleRounds, kPoolTransitionGraceRounds and
                kMinPoolMembers (core/protocol_params.hpp) are read in src/
                only by core/authority.hpp: a caller doing its own
                arithmetic on them is a second copy of a rule the peer and
                the wmcheck model must share.
format          (--format only) clang-format --dry-run over src/; skipped
                with a notice when clang-format is not installed.

Suppressing: append `// wmlint: allow(<check>)` to the offending line or the
line directly above it.

Exit status: 0 clean, 1 findings, 2 usage/internal error.
"""

from __future__ import annotations

import argparse
import re
import shutil
import subprocess
import sys
from pathlib import Path

CPP_EXTS = {".hpp", ".cpp", ".h", ".cc"}

# Directories scanned for C++ sources, relative to the repo root.
CPP_DIRS = ("src", "tests", "bench", "examples", "fuzz")

ALLOW_RE = re.compile(r"wmlint:\s*allow\(([\w-]+)\)")

RAW_RANDOM_PATTERNS = [
    (re.compile(r"\brand\s*\("), "rand()"),
    (re.compile(r"\bsrand\s*\("), "srand()"),
    (re.compile(r"\brandom_device\b"), "std::random_device"),
    (re.compile(r"\bmt19937(_64)?\b"), "std::mt19937"),
    (re.compile(r"\btime\s*\(\s*(NULL|nullptr|0)?\s*\)"), "time()"),
    (re.compile(r"\bgettimeofday\s*\("), "gettimeofday()"),
    # libc clock() used as a value — not member calls (x.clock()), qualified
    # names, or accessor declarations (`SimClock& clock() {`).
    (re.compile(r"(?:^|[=(,?+\-*/%]|\breturn\b)\s*clock\s*\(\s*\)"), "clock()"),
    (re.compile(r"steady_clock::now|system_clock::now|high_resolution_clock"),
     "wall-clock time"),
]
# Files allowed to own randomness / time primitives.
RAW_RANDOM_EXEMPT = ("util/rng.hpp", "net/clock.hpp")

UNORDERED_DECL_RE = re.compile(
    r"unordered_(?:map|set)\s*<[^;{}]*>\s+(\w+)\s*(?:;|\{|=)")
RANGE_FOR_RE = re.compile(r"\bfor\s*\(.*:\s*(?:this->)?(\w+)\s*\)")
SORT_NEARBY_RE = re.compile(r"(?:std::)?(?:stable_)?sort\s*\(")

DECODE_FN_RE = re.compile(
    r"^[\w:&<>,\*\s]*\b(decode_\w*|read_\w*|parse\w*|deserialize|open\w*)\s*\([^;]*$")
DECODER_BANNED = [
    (re.compile(r"(?<!static_)\bassert\s*\("), "assert()"),
    (re.compile(r"\babort\s*\("), "abort()"),
    (re.compile(r"\bexit\s*\("), "exit()"),
    (re.compile(r"throw\s+std::(logic_error|out_of_range|invalid_argument)\b"),
     "generic logic exception"),
]

QUOTED_INCLUDE_RE = re.compile(r'#\s*include\s+"([^"]+)"')

# SimNetwork *construction*: `SimNetwork name(...)`, `SimNetwork(...)`,
# `new SimNetwork`, `make_unique<SimNetwork>`. Mentions in comments, types
# of references/pointers, and include lines don't match.
TRANSPORT_CTOR_RE = re.compile(
    r"(?:new\s+(?:net::)?SimNetwork\b"
    r"|make_unique\s*<\s*(?:net::)?SimNetwork\b"
    r"|\bSimNetwork\s+\w+\s*[({]"
    r"|(?<![\w:])(?:net::)?SimNetwork\s*\()")
# Directories whose files may build a SimNetwork directly: the transport
# layer itself and the tests that probe it.
TRANSPORT_EXEMPT_PREFIXES = ("src/net/", "tests/")

# A mutex *object* declaration (member or local): type directly followed by
# a name and `;`/`=`/`{`. References (`Mutex& mu_`), pointers, parameters and
# base-class mentions (`: public std::mutex {`) deliberately don't match.
MUTEX_DECL_RE = re.compile(
    r"\b(?:std::(?:recursive_|shared_|timed_|recursive_timed_)?mutex"
    r"|(?:util::)?Mutex)\s+(\w+)\s*(?:;|=|\{)")
GUARD_TARGET_RE = re.compile(r"\b(?:PT_)?GUARDED_BY\(\s*(?:this->)?(\w+)")

# A member read of the profile switch: `.hardened` / `->hardened` not
# followed by a plain assignment (`==` is a read).
LINK_SWITCH_READ_RE = re.compile(r"(?:\.|->)\s*(hardened)\b(?!\s*=(?!=))")
# The link itself, and the .wmrec codec that copies every config field.
LINK_SWITCH_OWNERS = ("src/core/peer_link.cpp", "src/obs/recorder.cpp")

# A use of an authority timing constant that is not its definition
# (`name = value`).
AUTHORITY_CONST_READ_RE = re.compile(
    r"\b(kChurnRemovalDelayRounds|kRejoinRestoreDelayRounds"
    r"|kHandoffStaleRounds|kPoolTransitionGraceRounds|kMinPoolMembers)\b"
    r"(?!\s*=(?!=))")
AUTHORITY_OWNER = "src/core/authority.hpp"


class Finding:
    def __init__(self, path: Path, line: int, check: str, msg: str):
        self.path = path
        self.line = line
        self.check = check
        self.msg = msg

    def __str__(self) -> str:
        return f"{self.path}:{self.line}: [{self.check}] {self.msg}"


def allowed(lines: list[str], idx: int, check: str) -> bool:
    """True if line idx (0-based) or the line above carries an allow."""
    for probe in (idx, idx - 1):
        if 0 <= probe < len(lines):
            m = ALLOW_RE.search(lines[probe])
            if m and m.group(1) == check:
                return True
    return False


def check_raw_random(path: Path, rel: str, lines: list[str]) -> list[Finding]:
    if not rel.startswith("src/"):
        return []
    if any(rel.endswith(e) for e in RAW_RANDOM_EXEMPT):
        return []
    out = []
    for i, line in enumerate(lines):
        for pat, what in RAW_RANDOM_PATTERNS:
            if pat.search(line) and not allowed(lines, i, "raw-random"):
                out.append(Finding(path, i + 1, "raw-random",
                                   f"{what} outside util/rng.hpp — derive a "
                                   "seeded stream via watchmen::Rng instead"))
    return out


def check_wire_order(path: Path, rel: str, lines: list[str]) -> list[Finding]:
    if not rel.startswith("src/"):
        return []
    # Members are usually declared in the companion header, so scan it too.
    decl_sources = [lines]
    own_header = path.with_suffix(".hpp")
    if path.suffix == ".cpp" and own_header.exists():
        decl_sources.append(own_header.read_text(encoding="utf-8").split("\n"))
    unordered_names = set()
    for src in decl_sources:
        for line in src:
            m = UNORDERED_DECL_RE.search(line)
            if m:
                unordered_names.add(m.group(1))
    if not unordered_names:
        return []
    out = []
    for i, line in enumerate(lines):
        m = RANGE_FOR_RE.search(line)
        if not m or m.group(1) not in unordered_names:
            continue
        if allowed(lines, i, "wire-order"):
            continue
        # Exempt when the iteration output is canonicalized right after.
        window = lines[i + 1:i + 9]
        if any(SORT_NEARBY_RE.search(w) for w in window):
            continue
        out.append(Finding(
            path, i + 1, "wire-order",
            f"iteration over unordered container '{m.group(1)}' — hash order "
            "must not feed protocol/wire decisions; sort the output or "
            "annotate `// wmlint: allow(wire-order)` with a rationale"))
    return out


def decode_fn_spans(lines: list[str]) -> list[tuple[int, int, str]]:
    """(start, end, name) line spans (0-based, end exclusive) of decode fns."""
    spans = []
    i = 0
    while i < len(lines):
        m = DECODE_FN_RE.match(lines[i].rstrip())
        if not m or lines[i].lstrip().startswith("//"):
            i += 1
            continue
        name = m.group(1)
        # Find the opening brace, then brace-match to the function end.
        depth = 0
        opened = False
        j = i
        while j < len(lines):
            code = re.sub(r"//.*$", "", lines[j])
            for ch in code:
                if ch == "{":
                    depth += 1
                    opened = True
                elif ch == "}":
                    depth -= 1
            if lines[j].rstrip().endswith(";") and not opened:
                break  # declaration only
            if opened and depth <= 0:
                spans.append((i, j + 1, name))
                break
            j += 1
        i = j + 1 if j > i else i + 1
    return spans


def check_decoder_abort(path: Path, rel: str, lines: list[str]) -> list[Finding]:
    if not rel.startswith("src/"):
        return []
    out = []
    for start, end, name in decode_fn_spans(lines):
        for i in range(start, end):
            for pat, what in DECODER_BANNED:
                if pat.search(lines[i]) and not allowed(lines, i, "decoder-abort"):
                    out.append(Finding(
                        path, i + 1, "decoder-abort",
                        f"{what} in decode-path function '{name}' — malformed "
                        "input must throw watchmen::DecodeError"))
    return out


def check_mutex_guarded(path: Path, rel: str, lines: list[str]) -> list[Finding]:
    if not rel.startswith("src/"):
        return []
    guarded = set()
    for line in lines:
        for m in GUARD_TARGET_RE.finditer(line):
            guarded.add(m.group(1))
    out = []
    for i, line in enumerate(lines):
        m = MUTEX_DECL_RE.search(line)
        if not m or m.group(1) in guarded:
            continue
        if allowed(lines, i, "mutex-guarded"):
            continue
        out.append(Finding(
            path, i + 1, "mutex-guarded",
            f"mutex '{m.group(1)}' protects nothing the analysis can see — "
            f"annotate the data it guards with GUARDED_BY({m.group(1)}) "
            "(util/thread_annotations.hpp) or add "
            "`// wmlint: allow(mutex-guarded)` with a rationale"))
    return out


def code_matches(path: Path, lines: list[str], check: str,
                 pattern: re.Pattern, message) -> list[Finding]:
    """A finding, worded by `message(match)`, on every line whose code
    (comments stripped) matches `pattern` and carries no allow."""
    out = []
    for i, line in enumerate(lines):
        m = pattern.search(re.sub(r"//.*$", "", line))
        if m and not allowed(lines, i, check):
            out.append(Finding(path, i + 1, check, message(m)))
    return out


def check_transport_factory(path: Path, rel: str,
                            lines: list[str]) -> list[Finding]:
    if rel.startswith(TRANSPORT_EXEMPT_PREFIXES):
        return []
    return code_matches(
        path, lines, "transport-factory", TRANSPORT_CTOR_RE, lambda m:
        "direct SimNetwork construction bypasses net::make_transport — "
        "build a TransportConfig instead (net/transport.hpp) so the "
        "backend selector and UDP carrier wiring apply, or annotate "
        "`// wmlint: allow(transport-factory)` with a rationale")


def check_link_switch(path: Path, rel: str, lines: list[str]) -> list[Finding]:
    if not rel.startswith("src/") or rel in LINK_SWITCH_OWNERS:
        return []
    return code_matches(
        path, lines, "link-switch", LINK_SWITCH_READ_RE, lambda m:
        f"read of WatchmenConfig::{m.group(1)} outside "
        "src/core/peer_link.cpp — call the PeerLink that owns it, or "
        "annotate `// wmlint: allow(link-switch)` with a rationale")


def check_authority_rule(path: Path, rel: str,
                         lines: list[str]) -> list[Finding]:
    if not rel.startswith("src/") or rel == AUTHORITY_OWNER:
        return []
    return code_matches(
        path, lines, "authority-rule", AUTHORITY_CONST_READ_RE, lambda m:
        f"read of protocol::{m.group(1)} outside {AUTHORITY_OWNER} — call "
        "the authority rule that owns it, or annotate "
        "`// wmlint: allow(authority-rule)` with a rationale")


def check_include_hygiene(path: Path, rel: str, lines: list[str]) -> list[Finding]:
    out = []
    if path.suffix in (".hpp", ".h"):
        for i, line in enumerate(lines):
            stripped = line.strip()
            if not stripped or stripped.startswith("//"):
                continue
            if stripped != "#pragma once" and not allowed(lines, i, "include-hygiene"):
                out.append(Finding(path, i + 1, "include-hygiene",
                                   "header must start with #pragma once"))
            break
    first_include = None
    for i, line in enumerate(lines):
        m = QUOTED_INCLUDE_RE.search(line)
        if not m:
            continue
        if first_include is None:
            first_include = (i, m.group(1))
        if ".." in m.group(1) and not allowed(lines, i, "include-hygiene"):
            out.append(Finding(path, i + 1, "include-hygiene",
                               "relative '..' include — use a src/-rooted path"))
    # A module .cpp should include its own header first.
    if rel.startswith("src/") and path.suffix == ".cpp" and first_include:
        own = path.with_suffix(".hpp")
        if own.exists():
            expected = str(Path(rel).relative_to("src").with_suffix(".hpp"))
            i, got = first_include
            if got != expected and not allowed(lines, i, "include-hygiene"):
                out.append(Finding(path, i + 1, "include-hygiene",
                                   f"first include should be own header "
                                   f'"{expected}", found "{got}"'))
    return out


def check_whitespace(path: Path, rel: str, lines: list[str],
                     raw: str) -> list[Finding]:
    out = []
    for i, line in enumerate(lines):
        if "\t" in line and not allowed(lines, i, "whitespace"):
            out.append(Finding(path, i + 1, "whitespace", "tab character"))
        if line != line.rstrip() and not allowed(lines, i, "whitespace"):
            out.append(Finding(path, i + 1, "whitespace", "trailing whitespace"))
    if raw and not raw.endswith("\n"):
        out.append(Finding(path, len(lines), "whitespace",
                           "missing newline at end of file"))
    return out


ENUM_MEMBER_RE = re.compile(r"^\s*(k[A-Z]\w*)\s*(?:=\s*[^,]+)?,?\s*(?://.*)?$")


def enum_members(lines: list[str], *enums: str) -> list[tuple[int, str]]:
    """(line idx, `Enum::kMember`) for each member of the named `enum class`es,
    declared one per line."""
    enum_re = re.compile(rf"enum\s+class\s+({'|'.join(enums)})\b")
    out = []
    enum = None
    for i, line in enumerate(lines):
        if enum is None:
            m = enum_re.search(line)
            enum = m.group(1) if m else None
        elif "}" in line:
            enum = None
        elif m := ENUM_MEMBER_RE.match(line):
            out.append((i, f"{enum}::{m.group(1)}"))
    return out


def check_corpus_seeds(root: Path, header: str, enums: tuple[str, ...],
                       check: str, hint: str) -> list[Finding]:
    """Every member of `enums` (declared in `header`) must appear qualified in
    the fuzz corpus generator, so each variant has a well-formed seed."""
    path = root / header
    gen = root / "fuzz" / "gen_corpus.cpp"
    if not path.exists() or not gen.exists():
        return []  # layout not present (e.g. partial checkout): nothing to do
    lines = path.read_text(encoding="utf-8").split("\n")
    gen_text = gen.read_text(encoding="utf-8")
    return [Finding(path, i + 1, check,
                    f"{qualified} has no seed in fuzz/gen_corpus.cpp — {hint} "
                    f"(and regenerate the corpus) or annotate "
                    f"`// wmlint: allow({check})`")
            for i, qualified in enum_members(lines, *enums)
            if not qualified.endswith("::kNumMsgTypes")
            and qualified not in gen_text and not allowed(lines, i, check)]


def check_msgtype_corpus(root: Path) -> list[Finding]:
    return check_corpus_seeds(
        root, "src/core/messages.hpp", ("MsgType",), "msgtype-corpus",
        "add a well-formed sealed envelope for it")


def check_record_corpus(root: Path) -> list[Finding]:
    return check_corpus_seeds(
        root, "src/obs/recorder.hpp", ("RosterCheat", "RecEventKind"),
        "record-corpus", "extend the fuzz_record recording to cover it")


def check_penalty_reason(root: Path) -> list[Finding]:
    """Every PenaltyReason member must be cased in the engine's reason-string
    table and named in at least one test, so each typed penalty keeps a
    metric label and regression coverage."""
    hpp = root / "src" / "reputation" / "misbehavior_engine.hpp"
    cpp = root / "src" / "reputation" / "misbehavior_engine.cpp"
    tests_dir = root / "tests"
    if not hpp.exists() or not cpp.exists() or not tests_dir.is_dir():
        return []  # layout not present (e.g. partial checkout): nothing to do
    lines = hpp.read_text(encoding="utf-8").split("\n")
    cpp_text = cpp.read_text(encoding="utf-8")
    tests_text = "\n".join(p.read_text(encoding="utf-8")
                           for p in sorted(tests_dir.glob("*.cpp")))
    out = []
    for i, name in enum_members(lines, "PenaltyReason"):
        if allowed(lines, i, "penalty-reason"):
            continue
        if f"case {name}:" not in cpp_text:
            out.append(Finding(
                hpp, i + 1, "penalty-reason",
                f"{name} missing from the to_string() table in "
                "misbehavior_engine.cpp — every reason needs a stable metric "
                "label (rep.penalty{reason=...})"))
        if name not in tests_text:
            out.append(Finding(
                hpp, i + 1, "penalty-reason",
                f"{name} never named in tests/ — add a "
                "regression test or annotate "
                "`// wmlint: allow(penalty-reason)` with a rationale"))
    return out


# Structs whose fields are protocol/session options, and the places whose
# assignments do not count as a real caller: tests and examples exercise
# options, and the .wmrec codec copies every field by construction.
KNOB_STRUCTS = (("src/core/peer.hpp", "WatchmenConfig"),
                ("src/core/session.hpp", "SessionOptions"))
KNOB_EXEMPT_PREFIXES = ("tests/", "examples/")
KNOB_EXEMPT_FILES = ("src/obs/recorder.cpp",)
# Assignment callers are searched here (every C++ tree that builds a session).
KNOB_CALLER_DIRS = CPP_DIRS + ("tools", "perfbench")
KNOB_FIELD_RE = re.compile(
    r"^\s*[A-Za-z_][\w:<>,\s*&()]*?[\w>*&]\s+([a-z_]\w*)"
    r"\s*(?:=[^;]*|\{[^;]*\})?;\s*(?://.*)?$")
KNOB_ALLOW_RE = re.compile(r"wmlint:\s*allow\(config-knob\)(.*)$")


def knob_assign_re(field: str) -> re.Pattern:
    """`x.field = v`, `x->field.sub += v`, `x.field.push_back(v)`, ..."""
    return re.compile(
        rf"(?:\.|->)\s*{field}\b\s*(?:(?:\.\w+|\[[^\]]*\])\s*)*"
        r"(?:[-+*/|&]?=(?!=)|\.(?:push_back|emplace_back|insert|emplace|"
        r"assign|resize)\s*\()")


def struct_fields(lines: list[str], name: str) -> list[tuple[int, str]]:
    """(line idx, field name) of the data members declared directly in
    `struct name { ... };` (nested braces are skipped)."""
    start = next((i for i, line in enumerate(lines)
                  if re.match(rf"\s*struct\s+{name}\s*\{{", line)), None)
    if start is None:
        return []
    fields = []
    depth = 0
    for i in range(start, len(lines)):
        code = re.sub(r"//.*$", "", lines[i])
        if depth == 1 and "operator" not in code:
            m = KNOB_FIELD_RE.match(code)
            if m:
                fields.append((i, m.group(1)))
        depth += code.count("{") - code.count("}")
        if depth <= 0 and i > start:
            break
    return fields


def check_config_knob(root: Path) -> list[Finding]:
    """Every option field must have a caller outside tests/, examples/ and
    the recorder codec, or an allow annotation that says why not."""
    structs = [(root / rel, name) for rel, name in KNOB_STRUCTS
               if (root / rel).exists()]
    if not structs:
        return []  # layout not present (e.g. partial checkout): nothing to do
    callers = []
    for d in KNOB_CALLER_DIRS:
        base = root / d
        for f in sorted(base.rglob("*")) if base.is_dir() else []:
            rel = f.relative_to(root).as_posix()
            if (f.suffix in CPP_EXTS and not rel.startswith(KNOB_EXEMPT_PREFIXES)
                    and rel not in KNOB_EXEMPT_FILES):
                callers.append(re.sub(r"//[^\n]*", "", f.read_text(encoding="utf-8")))
    caller_text = "\n".join(callers)
    out = []
    for path, name in structs:
        lines = path.read_text(encoding="utf-8").split("\n")
        for i, field in struct_fields(lines, name):
            # On the field's line, or on a comment line directly above it.
            above = lines[i - 1] if lines[i - 1].lstrip().startswith("//") else ""
            allow = (KNOB_ALLOW_RE.search(lines[i]) or
                     KNOB_ALLOW_RE.search(above))
            if allow and allow.group(1).strip():
                continue
            if allow:
                out.append(Finding(
                    path, i + 1, "config-knob",
                    f"allow(config-knob) on {name}::{field} needs a reason "
                    "after the annotation"))
                continue
            if knob_assign_re(field).search(caller_text):
                continue
            out.append(Finding(
                path, i + 1, "config-knob",
                f"{name}::{field} is set only by tests/, examples/ or the "
                ".wmrec codec — make it a constexpr, or annotate "
                "`// wmlint: allow(config-knob) <reason>`"))
    return out


def run_clang_format(root: Path) -> tuple[list[Finding], bool]:
    """Returns (findings, ran). Skips when clang-format is unavailable."""
    binary = shutil.which("clang-format")
    if binary is None:
        return [], False
    targets = sorted(p for p in (root / "src").rglob("*")
                     if p.suffix in CPP_EXTS)
    findings = []
    for chunk_start in range(0, len(targets), 50):
        chunk = targets[chunk_start:chunk_start + 50]
        proc = subprocess.run(
            [binary, "--dry-run", "-Werror", "--style=file"] +
            [str(p) for p in chunk],
            capture_output=True, text=True, cwd=root)
        if proc.returncode != 0:
            for line in proc.stderr.splitlines():
                m = re.match(r"(.+?):(\d+):\d+: (?:error|warning): (.*)", line)
                if m:
                    findings.append(Finding(Path(m.group(1)), int(m.group(2)),
                                            "format", m.group(3)))
    return findings, True


def lint_file(path: Path, root: Path) -> list[Finding]:
    rel = path.relative_to(root).as_posix()
    try:
        raw = path.read_text(encoding="utf-8")
    except (UnicodeDecodeError, OSError) as e:
        return [Finding(path, 0, "io", f"unreadable: {e}")]
    lines = raw.split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    findings = []
    findings += check_raw_random(path, rel, lines)
    findings += check_wire_order(path, rel, lines)
    findings += check_decoder_abort(path, rel, lines)
    findings += check_mutex_guarded(path, rel, lines)
    findings += check_transport_factory(path, rel, lines)
    findings += check_link_switch(path, rel, lines)
    findings += check_authority_rule(path, rel, lines)
    findings += check_include_hygiene(path, rel, lines)
    findings += check_whitespace(path, rel, lines, raw)
    return findings


def collect_files(root: Path, explicit: list[str]) -> list[Path]:
    if explicit:
        files = []
        for arg in explicit:
            p = Path(arg)
            if not p.is_absolute():
                p = root / p
            if p.is_dir():
                files += [f for f in sorted(p.rglob("*")) if f.suffix in CPP_EXTS]
            else:
                files.append(p)
        return files
    files = []
    for d in CPP_DIRS:
        base = root / d
        if base.is_dir():
            files += [f for f in sorted(base.rglob("*")) if f.suffix in CPP_EXTS]
    return files


def main(argv: list[str]) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--root", default=".", help="repository root")
    ap.add_argument("--format", action="store_true",
                    help="also run clang-format --dry-run over src/")
    ap.add_argument("paths", nargs="*", help="files or directories (default: repo)")
    args = ap.parse_args(argv)

    root = Path(args.root).resolve()
    if not root.is_dir():
        print(f"wmlint: no such root: {root}", file=sys.stderr)
        return 2

    findings = []
    for f in collect_files(root, args.paths):
        findings += lint_file(f, root)
    findings += check_msgtype_corpus(root)
    findings += check_record_corpus(root)
    findings += check_penalty_reason(root)
    findings += check_config_knob(root)

    if args.format:
        fmt_findings, ran = run_clang_format(root)
        findings += fmt_findings
        if not ran:
            print("wmlint: clang-format not found — format check skipped",
                  file=sys.stderr)

    for f in findings:
        print(f)
    n = len(findings)
    print(f"wmlint: {n} finding{'s' if n != 1 else ''}"
          f" in {root}" if n else f"wmlint: clean ({root})")
    return 1 if findings else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
