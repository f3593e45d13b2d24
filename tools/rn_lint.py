#!/usr/bin/env python3
"""rn_lint — determinism & dist-safety contract checker for this repository.

Every guarantee the repo makes (results JSON byte-identical across thread
counts, team sizes, rank counts, and every fault-recovery path) is enforced
at runtime by `cmp` in CI.  This tool enforces the *source-level* contracts
behind those guarantees, so a violation is caught when the code is written
rather than when a byte-identity lane flakes:

  R1 no-wallclock-entropy   No non-deterministic entropy or wall-clock source
                            (`rand`, `std::random_device`, `time`,
                            `std::chrono::*_clock::now`, ...) outside the
                            allowlisted RNG/deadline/backoff implementations.
                            Timing *measurement* that feeds the sidecar (never
                            results JSON) is suppressed inline with a reason.
  R2 no-unordered-iteration No iteration over `std::unordered_{map,set}` in a
                            translation unit that feeds results JSON or
                            hit-word/touch-list state.  Iteration order of
                            those containers is implementation-defined, so an
                            output path through one silently breaks the
                            byte-identity contract.  Keyed lookup is fine.
  R3 wire-only-dist-io      All blocking I/O in `src/dist/` goes through the
                            `dist::channel` deadline API (`src/dist/wire.*`).
                            A raw `read`/`write`/`recv`/`send`/`poll` on a
                            channel fd bypasses the PR 9 deadline discipline
                            and can reintroduce hangs the supervisor cannot
                            see.
  R4 contract-error-throws  Exceptions thrown in `src/dist/` and `src/svc/`
                            derive from `contract_error` (e.g. `wire_error`)
                            so failures stay machine-checkable at the
                            supervision and service boundaries.
  R5 suppression-needs-reason
                            Every suppression comment (`rn-lint: allow(...)`
                            or clang-tidy `NOLINT*`) carries a non-empty
                            reason string.  A reasonless suppression still
                            suppresses its target rule, but is itself a
                            finding.

Suppression syntax (applies to its own line, or to the next line when the
comment stands alone):

    foo();  // rn-lint: allow(R1) timing sidecar only, never results JSON
    // rn-lint: allow(R2,R4) <reason>
    bar();

The checks run on a built-in C++ lexer with no dependencies; the fixture
suite in `tests/lint_fixtures/` pins each rule's exact findings.
`compile_commands.json` only names the translation units to lint.

Usage:
    rn_lint.py [--root DIR] [--build-dir DIR | --compile-commands FILE]
               [--files F ...] [--rules R1,R3] [--list-rules] [--json]
               [--quiet]

Exit codes: 0 clean, 1 findings, 2 usage/environment error.
"""

from __future__ import annotations

import argparse
import fnmatch
import json
import re
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator, Sequence

# --------------------------------------------------------------------------
# Rule table
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class Rule:
    rule_id: str
    slug: str
    contract: str
    # fnmatch globs, repo-root-relative with forward slashes.
    scope: tuple[str, ...]
    allow: tuple[str, ...]


RULES: dict[str, Rule] = {
    r.rule_id: r
    for r in (
        Rule(
            "R1",
            "no-wallclock-entropy",
            "trial RNG draw order is a versioned contract; wall clocks and "
            "OS entropy must not reach result paths",
            scope=("src/*", "bench/*", "tools/*.cpp", "tests/*", "examples/*"),
            allow=(
                # The deterministic counter-RNG implementation itself.
                "src/common/rng.*",
                # The deadline engine: poll() budgets are wall-clock by design.
                "src/dist/wire.*",
                # Respawn backoff delays: wall-clock by design, round results
                # are validated before apply so timing never reaches output.
                "src/dist/supervisor.*",
            ),
        ),
        Rule(
            "R2",
            "no-unordered-iteration",
            "results JSON and hit-word/touch-list state are byte-compared "
            "across runs; unordered-container iteration order is not stable",
            scope=(
                "src/core/*",
                "src/radio/*",
                "src/sim/*",
                "src/svc/*",
                "src/dist/*",
                "bench/*",
            ),
            allow=(),
        ),
        Rule(
            "R3",
            "wire-only-dist-io",
            "dist-channel I/O goes through the deadline-driven wire API; raw "
            "fd I/O can hang past the supervisor's detection",
            scope=("src/dist/*",),
            allow=("src/dist/wire.cpp", "src/dist/wire.h"),
        ),
        Rule(
            "R4",
            "contract-error-throws",
            "dist/svc failures must stay machine-checkable: every thrown "
            "exception derives from contract_error",
            scope=("src/dist/*", "src/svc/*"),
            allow=(),
        ),
        Rule(
            "R5",
            "suppression-needs-reason",
            "suppressions are part of the audit trail; each one records why "
            "the contract does not apply at that site",
            scope=("src/*", "bench/*", "tools/*", "tests/*", "examples/*"),
            allow=(),
        ),
    )
}

# R1: names that are findings when used as a call (identifier followed by
# `(`, not a member access, unqualified or qualified by `std`/global `::`).
ENTROPY_CALLS = frozenset(
    {
        "rand",
        "srand",
        "rand_r",
        "random",
        "srandom",
        "drand48",
        "lrand48",
        "mrand48",
        "erand48",
        "getrandom",
        "getentropy",
        "time",
        "clock",
        "timespec_get",
        "gettimeofday",
        "clock_gettime",
    }
)
# R1: names that are findings on any use (types / objects).
ENTROPY_TYPES = frozenset({"random_device"})
# R1: `<qualifier>::now(` — any qualified now() call is a clock read; clock
# type aliases (`using clock = std::chrono::steady_clock`) make qualifier
# whitelisting unsound, so the rule is conservative and relies on inline
# suppressions for the (unlikely) non-clock `X::now()`.
CLOCK_NOW = "now"

# R3: blocking-I/O entry points that bypass dist::channel deadlines.
RAW_IO_CALLS = frozenset(
    {
        "read",
        "write",
        "recv",
        "send",
        "pread",
        "pwrite",
        "readv",
        "writev",
        "recvmsg",
        "sendmsg",
        "recvfrom",
        "sendto",
        "poll",
        "ppoll",
        "select",
        "pselect",
        "epoll_wait",
        "epoll_pwait",
    }
)

# R4: exception types legal to throw in src/dist and src/svc.
ALLOWED_THROW_TYPES = frozenset({"contract_error", "wire_error"})

UNORDERED_CONTAINERS = frozenset(
    {
        "unordered_map",
        "unordered_set",
        "unordered_multimap",
        "unordered_multiset",
    }
)

ITERATION_MEMBERS = frozenset(
    {"begin", "cbegin", "rbegin", "crbegin", "end", "cend", "rend", "crend"}
)


@dataclass(frozen=True)
class Finding:
    path: str  # repo-root-relative
    line: int
    rule_id: str
    message: str

    def render(self) -> str:
        slug = RULES[self.rule_id].slug
        return f"{self.path}:{self.line}: {self.rule_id} [{slug}] {self.message}"


# --------------------------------------------------------------------------
# Lexer (the suppression scan and the rule checks both run on its tokens)
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class Token:
    kind: str  # "id" | "punct" | "num" | "str" | "char"
    text: str
    line: int


_PUNCT3 = ("<<=", ">>=", "...", "->*")
_PUNCT2 = (
    "::",
    "->",
    "<<",
    ">>",
    "<=",
    ">=",
    "==",
    "!=",
    "&&",
    "||",
    "++",
    "--",
    "+=",
    "-=",
    "*=",
    "/=",
    "%=",
    "&=",
    "|=",
    "^=",
)

_ID_START = frozenset("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ_$")
_ID_CONT = _ID_START | frozenset("0123456789")


@dataclass
class LexedFile:
    tokens: list[Token] = field(default_factory=list)
    # line -> list of comment texts on that line (joined body, no delimiters)
    comments: dict[int, list[str]] = field(default_factory=dict)
    # lines that contain at least one non-comment, non-whitespace character
    code_lines: set[int] = field(default_factory=set)


def lex(source: str) -> LexedFile:  # noqa: C901 - a lexer is one big switch
    out = LexedFile()
    i, n, line = 0, len(source), 1
    while i < n:
        c = source[i]
        if c == "\n":
            line += 1
            i += 1
            continue
        if c in " \t\r\f\v":
            i += 1
            continue
        if c == "/" and i + 1 < n and source[i + 1] == "/":
            j = source.find("\n", i)
            j = n if j < 0 else j
            out.comments.setdefault(line, []).append(source[i + 2 : j].strip())
            i = j
            continue
        if c == "/" and i + 1 < n and source[i + 1] == "*":
            j = source.find("*/", i + 2)
            j = n - 2 if j < 0 else j
            body = source[i + 2 : j]
            out.comments.setdefault(line, []).append(body.strip())
            line += body.count("\n")
            i = j + 2
            continue
        if c == "#" and not out.code_lines.__contains__(line):
            # Preprocessor directive: skip to end of line (honouring \-splices)
            # so `#include <random>` and macro bodies never produce tokens.
            j = i
            while j < n:
                k = source.find("\n", j)
                if k < 0:
                    j = n
                    break
                if source[k - 1] == "\\" if k > 0 else False:
                    line += 1
                    j = k + 1
                    continue
                j = k
                break
            i = j
            continue
        out.code_lines.add(line)
        if c in _ID_START:
            j = i + 1
            while j < n and source[j] in _ID_CONT:
                j += 1
            text = source[i:j]
            # Raw string literal prefix: R"delim( ... )delim"
            if j < n and source[j] == '"' and text.endswith("R"):
                k = source.find("(", j)
                if k > 0:
                    delim = source[j + 1 : k]
                    close = source.find(")" + delim + '"', k)
                    close = n if close < 0 else close + len(delim) + 2
                    line += source.count("\n", i, close)
                    out.tokens.append(Token("str", "<rawstr>", line))
                    i = close
                    continue
            out.tokens.append(Token("id", text, line))
            i = j
            continue
        if c.isdigit() or (c == "." and i + 1 < n and source[i + 1].isdigit()):
            j = i + 1
            while j < n and (source[j] in _ID_CONT or source[j] in ".'+-"):
                if source[j] in "+-" and source[j - 1] not in "eEpP":
                    break
                j += 1
            out.tokens.append(Token("num", source[i:j], line))
            i = j
            continue
        if c == '"' or c == "'":
            j = i + 1
            while j < n and source[j] != c:
                if source[j] == "\\":
                    j += 1
                elif source[j] == "\n":
                    break  # unterminated; bail at EOL
                j += 1
            out.tokens.append(
                Token("str" if c == '"' else "char", "<lit>", line)
            )
            i = j + 1
            continue
        for p in _PUNCT3:
            if source.startswith(p, i):
                out.tokens.append(Token("punct", p, line))
                i += 3
                break
        else:
            for p in _PUNCT2:
                if source.startswith(p, i):
                    out.tokens.append(Token("punct", p, line))
                    i += 2
                    break
            else:
                out.tokens.append(Token("punct", c, line))
                i += 1
    return out


# --------------------------------------------------------------------------
# Suppressions
# --------------------------------------------------------------------------

_ALLOW_RE = re.compile(r"rn-lint:\s*allow\(\s*([A-Z0-9,\s]+?)\s*\)[:\s-]*(.*)")
_NOLINT_RE = re.compile(r"NOLINT(?:NEXTLINE|BEGIN|END)?\b(?:\(([^)]*)\))?[:\s-]*(.*)")


@dataclass
class Suppressions:
    # line -> rule ids suppressed on that line ("*" = all, for NOLINT)
    by_line: dict[int, set[str]] = field(default_factory=dict)
    reasonless: list[tuple[int, str]] = field(default_factory=list)

    def active(self, rule_id: str, line: int) -> bool:
        rules = self.by_line.get(line)
        return rules is not None and (rule_id in rules or "*" in rules)


def scan_suppressions(lexed: LexedFile) -> Suppressions:
    sup = Suppressions()
    for line, comments in sorted(lexed.comments.items()):
        # A comment with no code on its line covers the next code line.
        target = line if line in lexed.code_lines else line + 1
        for comment in comments:
            m = _ALLOW_RE.search(comment)
            if m:
                rules = {r.strip() for r in m.group(1).split(",") if r.strip()}
                sup.by_line.setdefault(target, set()).update(rules)
                if not m.group(2).strip():
                    sup.reasonless.append((line, "rn-lint: allow() without a reason"))
                continue
            # NOLINT is audited only when it leads the comment; prose that
            # merely mentions NOLINT is not a suppression.
            m = _NOLINT_RE.match(comment)
            if m:
                # clang-tidy handles the actual suppression; rn_lint only
                # audits that a check list and reason are present.
                if not m.group(1) or not m.group(1).strip():
                    sup.reasonless.append(
                        (line, "NOLINT without an explicit check list")
                    )
                elif not m.group(2).strip():
                    sup.reasonless.append((line, "NOLINT without a reason"))
    return sup


# --------------------------------------------------------------------------
# Rule checks
# --------------------------------------------------------------------------


def _prev(tokens: Sequence[Token], i: int) -> Token | None:
    return tokens[i - 1] if i > 0 else None


def _next(tokens: Sequence[Token], i: int) -> Token | None:
    return tokens[i + 1] if i + 1 < len(tokens) else None


def _is_member_access(tokens: Sequence[Token], i: int) -> bool:
    p = _prev(tokens, i)
    return p is not None and p.kind == "punct" and p.text in (".", "->")


# Statement keywords that can directly precede a call expression; any other
# identifier (or a type-closing `>`/`&`/`*`) before `name(` means `name` is
# being *declared* (`gf2_vector random(...)`), not called.
_STMT_KEYWORDS = frozenset(
    {"return", "co_return", "co_yield", "co_await", "throw", "case", "else", "do"}
)


def _looks_like_declaration(tokens: Sequence[Token], i: int) -> bool:
    p = _prev(tokens, i)
    if p is None:
        return False
    if p.kind == "id":
        return p.text not in _STMT_KEYWORDS
    return p.text in (">", "&", "*", "~")


def _qualifier(tokens: Sequence[Token], i: int) -> str | None:
    """For tokens[i] preceded by `::`, the qualifying identifier ("" = global)."""
    p = _prev(tokens, i)
    if p is None or p.text != "::":
        return None
    q = _prev(tokens, i - 1)
    if q is not None and q.kind == "id":
        return q.text
    return ""


def _skip_template_args(tokens: Sequence[Token], i: int) -> int:
    """tokens[i] just after a container name; skip a balanced <...> if present."""
    if i < len(tokens) and tokens[i].text == "<":
        depth = 0
        while i < len(tokens):
            t = tokens[i].text
            if t == "<":
                depth += 1
            elif t == ">":
                depth -= 1
                if depth == 0:
                    return i + 1
            elif t == ">>":
                depth -= 2
                if depth <= 0:
                    return i + 1
            elif t in (";", "{"):
                return i  # malformed / not template args after all
            i += 1
    return i


def _check_r1(path: str, tokens: Sequence[Token]) -> Iterator[Finding]:
    for i, tok in enumerate(tokens):
        if tok.kind != "id" or _is_member_access(tokens, i):
            continue
        nxt = _next(tokens, i)
        called = nxt is not None and nxt.text == "("
        qual = _qualifier(tokens, i)
        if tok.text in ENTROPY_TYPES and qual in (None, "", "std"):
            yield Finding(
                path, tok.line, "R1", f"`{tok.text}` is a non-deterministic source"
            )
        elif (
            tok.text in ENTROPY_CALLS
            and called
            and qual in (None, "", "std")
            and not _looks_like_declaration(tokens, i)
        ):
            yield Finding(
                path,
                tok.line,
                "R1",
                f"call to `{tok.text}` reads wall clock / OS entropy",
            )
        elif tok.text == CLOCK_NOW and called and qual not in (None, ""):
            yield Finding(
                path, tok.line, "R1", f"clock read `{qual}::now()`"
            )


def _check_r2(path: str, tokens: Sequence[Token]) -> Iterator[Finding]:
    # Pass 1: names declared with an unordered container type in this file.
    unordered_vars: set[str] = set()
    for i, tok in enumerate(tokens):
        if tok.kind == "id" and tok.text in UNORDERED_CONTAINERS:
            j = _skip_template_args(tokens, i + 1)
            while j < len(tokens) and tokens[j].text in ("&", "&&", "*", "const"):
                j += 1
            if j < len(tokens) and tokens[j].kind == "id":
                unordered_vars.add(tokens[j].text)

    def is_unordered_expr(expr: Sequence[Token]) -> bool:
        return any(
            t.kind == "id"
            and (t.text in UNORDERED_CONTAINERS or t.text in unordered_vars)
            for t in expr
        )

    # Pass 2a: range-for whose range expression mentions an unordered name.
    for i, tok in enumerate(tokens):
        if tok.kind == "id" and tok.text == "for":
            nxt = _next(tokens, i)
            if nxt is None or nxt.text != "(":
                continue
            depth, j, colon = 0, i + 1, -1
            while j < len(tokens):
                t = tokens[j].text
                if t in ("(", "[", "{"):
                    depth += 1
                elif t in (")", "]", "}"):
                    depth -= 1
                    if depth == 0:
                        break
                elif t == ":" and depth == 1 and colon < 0:
                    colon = j
                elif t == ";" and depth == 1:
                    colon = -1  # classic for loop
                    break
                j += 1
            if colon > 0 and is_unordered_expr(tokens[colon + 1 : j]):
                yield Finding(
                    path,
                    tok.line,
                    "R2",
                    "range-for over an unordered container (iteration order "
                    "is not stable across implementations)",
                )
    # Pass 2b: explicit iterator walks: var.begin() / std::begin(var).
    for i, tok in enumerate(tokens):
        if (
            tok.kind == "id"
            and tok.text in ITERATION_MEMBERS
            and _is_member_access(tokens, i)
        ):
            nxt = _next(tokens, i)
            obj = _prev(tokens, i - 1)
            if (
                nxt is not None
                and nxt.text == "("
                and obj is not None
                and obj.kind == "id"
                and obj.text in unordered_vars
            ):
                yield Finding(
                    path,
                    tok.line,
                    "R2",
                    f"iterator walk over unordered container `{obj.text}`",
                )


def _check_r3(path: str, tokens: Sequence[Token]) -> Iterator[Finding]:
    for i, tok in enumerate(tokens):
        if tok.kind != "id" or tok.text not in RAW_IO_CALLS:
            continue
        if _is_member_access(tokens, i):
            continue  # channel.send(...) etc. — the wire API itself
        nxt = _next(tokens, i)
        if nxt is None or nxt.text != "(":
            continue
        qual = _qualifier(tokens, i)
        if qual not in (None, ""):
            continue  # ns-qualified: some other API, not a libc symbol
        if _looks_like_declaration(tokens, i):
            continue
        yield Finding(
            path,
            tok.line,
            "R3",
            f"raw `{tok.text}()` bypasses the dist::channel deadline API "
            "(src/dist/wire.h)",
        )


def _check_r4(path: str, tokens: Sequence[Token]) -> Iterator[Finding]:
    for i, tok in enumerate(tokens):
        if tok.kind != "id" or tok.text != "throw":
            continue
        j = i + 1
        if j >= len(tokens):
            continue
        if tokens[j].text == ";":
            continue  # rethrow
        last_id: str | None = None
        while j < len(tokens) and (
            tokens[j].kind == "id" or tokens[j].text == "::"
        ):
            if tokens[j].kind == "id":
                last_id = tokens[j].text
            j += 1
        if last_id is None or last_id not in ALLOWED_THROW_TYPES:
            shown = last_id if last_id is not None else "<expression>"
            yield Finding(
                path,
                tok.line,
                "R4",
                f"throws `{shown}`, which does not derive from "
                "`contract_error` (src/common/check.h)",
            )


LEX_CHECKS = {
    "R1": _check_r1,
    "R2": _check_r2,
    "R3": _check_r3,
    "R4": _check_r4,
    # R5 is produced by the suppression scanner, not a token check.
}


# --------------------------------------------------------------------------
# Driver
# --------------------------------------------------------------------------

DEFAULT_GLOBS = (
    "src/**/*.cpp",
    "src/**/*.h",
    "bench/**/*.cpp",
    "bench/**/*.h",
    "tools/*.cpp",
    "tests/*.cpp",
    "examples/*.cpp",
)


def rule_applies(rule: Rule, rel: str) -> bool:
    rel = rel.replace("\\", "/")
    in_scope = any(fnmatch.fnmatch(rel, g) for g in rule.scope)
    allowed = any(fnmatch.fnmatch(rel, g) for g in rule.allow)
    return in_scope and not allowed


def load_compile_commands(cc_path: Path) -> set[Path]:
    """Absolute paths of the translation units in a compile database."""
    return {
        Path(entry["directory"], entry["file"]).resolve()
        for entry in json.loads(cc_path.read_text())
    }


def collect_files(
    root: Path,
    explicit: Sequence[str],
    compile_commands: set[Path] | None,
) -> list[Path]:
    if explicit:
        return [Path(f).resolve() for f in explicit]
    files: set[Path] = set()
    if compile_commands:
        # The build dir defines the TU set; headers are globbed on top since
        # they are not TUs but still carry contract-relevant code.
        for tu in compile_commands:
            try:
                tu.relative_to(root)
            except ValueError:
                continue
            files.add(tu)
        for pattern in DEFAULT_GLOBS:
            if pattern.endswith(".h"):
                files.update(p.resolve() for p in root.glob(pattern))
    else:
        for pattern in DEFAULT_GLOBS:
            files.update(p.resolve() for p in root.glob(pattern))
    return sorted(files)


def lint_file(path: Path, root: Path, rules: set[str]) -> list[Finding]:
    try:
        rel = path.resolve().relative_to(root).as_posix()
    except ValueError:
        rel = path.name
    source = path.read_text(errors="replace")
    lexed = lex(source)
    sup = scan_suppressions(lexed)

    raw: list[Finding] = []
    for rule_id in ("R1", "R2", "R3", "R4"):
        if rule_id in rules and rule_applies(RULES[rule_id], rel):
            raw.extend(LEX_CHECKS[rule_id](rel, lexed.tokens))

    # set(): `stats.begin()`/`stats.end()` on one line is one finding.
    findings = [
        f
        for f in set(raw)
        if f.rule_id in rules
        and rule_applies(RULES[f.rule_id], rel)
        and not sup.active(f.rule_id, f.line)
    ]
    if "R5" in rules and rule_applies(RULES["R5"], rel):
        findings.extend(
            Finding(rel, line, "R5", msg) for line, msg in sup.reasonless
        )
    findings.sort(key=lambda f: (f.line, f.rule_id))
    return findings


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="rn_lint.py", description=__doc__.split("\n\n")[0]
    )
    parser.add_argument(
        "--root",
        type=Path,
        default=Path(__file__).resolve().parent.parent,
        help="repository root (rule scopes are relative to it)",
    )
    parser.add_argument("--build-dir", type=Path, help="build dir holding compile_commands.json")
    parser.add_argument("--compile-commands", type=Path, help="explicit compile_commands.json")
    parser.add_argument("--files", nargs="*", default=[], help="lint only these files")
    parser.add_argument("--rules", default=",".join(RULES), help="comma-separated rule subset")
    parser.add_argument("--list-rules", action="store_true")
    parser.add_argument("--json", action="store_true", help="machine-readable findings")
    parser.add_argument("--quiet", action="store_true")
    opts = parser.parse_args(argv)

    if opts.list_rules:
        for rule in RULES.values():
            print(f"{rule.rule_id} {rule.slug}")
            print(f"    contract:  {rule.contract}")
            print(f"    scope:     {', '.join(rule.scope)}")
            print(f"    allowlist: {', '.join(rule.allow) or '(none)'}")
        return 0

    rules = {r.strip() for r in opts.rules.split(",") if r.strip()}
    unknown = rules - set(RULES)
    if unknown:
        print(f"rn_lint: unknown rule(s): {', '.join(sorted(unknown))}", file=sys.stderr)
        return 2

    root = opts.root.resolve()
    cc_path: Path | None = None
    if opts.compile_commands:
        cc_path = opts.compile_commands
    elif opts.build_dir:
        cc_path = opts.build_dir / "compile_commands.json"
    compile_commands: set[Path] | None = None
    if cc_path is not None:
        if not cc_path.exists():
            print(f"rn_lint: {cc_path} not found (configure with "
                  "-DCMAKE_EXPORT_COMPILE_COMMANDS=ON)", file=sys.stderr)
            return 2
        compile_commands = load_compile_commands(cc_path)

    files = collect_files(root, opts.files, compile_commands)
    if not files:
        print("rn_lint: no input files", file=sys.stderr)
        return 2

    all_findings: list[Finding] = []
    for path in files:
        all_findings.extend(lint_file(path, root, rules))

    if opts.json:
        print(
            json.dumps(
                [
                    {"file": f.path, "line": f.line, "rule": f.rule_id,
                     "slug": RULES[f.rule_id].slug, "message": f.message}
                    for f in all_findings
                ],
                indent=2,
            )
        )
    else:
        for f in all_findings:
            print(f.render())
        if not opts.quiet:
            print(
                f"rn_lint: {len(all_findings)} finding(s) in {len(files)} file(s)",
                file=sys.stderr,
            )
    return 1 if all_findings else 0


if __name__ == "__main__":
    sys.exit(main())
