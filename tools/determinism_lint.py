#!/usr/bin/env python3
"""Source lint: nondeterminism before it reaches a digest, and source hygiene.

The simulator's correctness story is byte-identical determinism digests and
bit-for-bit replay; the classic ways that story silently rots are all
statically visible. This linter, the repository's one source linter, scans
the source directories (``src``, ``tools``, ``tests``, ``bench``,
``examples``) for them; each rule has a directory scope (see DESIGN.md §11
for the rule catalogue and rationale). The determinism rules hold in
``src/``:

  unordered-iter   iteration over a std::unordered_map/unordered_set
                   (range-for, ``.begin()``/``.cbegin()``, iterator-pair
                   construction). Hash-table order depends on hasher seed,
                   insertion history, and — for pointer keys — addresses, so
                   it must never feed digests, telemetry output, trace
                   frames, or any other observable ordering. Sites where the
                   order provably cannot escape are suppressed with a
                   justification.
  pointer-key      containers keyed on pointer values, std::hash over a
                   pointer type, or reinterpret_cast<std::uintptr_t> used to
                   build a key/hash — addresses differ run to run (ASLR).
  wall-clock       rand()/srand(), time(), clock_gettime()/gettimeofday(),
                   std::chrono clocks — anywhere outside the exempt dirs
                   (obs::wall_now_ns is the single sanctioned wall-clock
                   read; model and diagnosis code must only see sim time).
                   ``src/obs`` is exempt (it implements that read) and so is
                   ``src/serve``: the daemon is host-side plumbing that
                   legitimately measures wall latency and paces polls — it
                   feeds metrics, never digests or the simulation.
  rng-seed         entropy sources (std::random_device, getrandom(),
                   arc4random(), std::default_random_engine) anywhere in
                   ``src/``. Sketch rows, hash tables and samplers must seed
                   from fixed compile-time constants (the kSketchRowSeeds
                   pattern in src/telemetry/sketch_store.h) or from case ids
                   via sim::Rng — an entropy-derived seed makes sketch
                   contents, and therefore reports and digests, differ run
                   to run. No exemption dirs: even host-side code has no
                   business drawing entropy in this repo.
  uninit-pod       scalar fields without a default member initializer in
                   event/trace payload structs (names matching Event /
                   Payload / Record / Header / Footer / Envelope / Frame /
                   Meta). Uninitialized fields read as garbage that can leak
                   into digests and trace frames.
  bare-suppression an ``allow()`` comment without a justification — every
                   suppression must say *why* the order/value cannot escape.
  unknown-rule     an ``allow()`` naming a rule this linter does not have
                   (typo, or a stale suppression after a rule rename).

The hygiene rules hold in every source directory:

  rand             rand()/srand(): every random draw comes from a seeded
                   generator (sim::Rng, std::mt19937_64). Where the
                   wall-clock rule applies it reports these calls, so a line
                   gets one finding.
  float-eq         ==/!= against a floating-point literal: exact FP
                   comparison is order-sensitive; compare integral units
                   (Ticks, bytes) or use an epsilon.
  header-guard     a header (.h/.hpp) without ``#pragma once``; reported on
                   line 1 and not suppressible.

Suppress a deliberate use with an inline comment carrying a reason:

    // vedr-lint: allow(unordered-iter): drained into a sorted vector below

Exit status: 0 clean, 1 findings, 2 usage error.
"""

import argparse
import re
import sys
from pathlib import Path

SOURCE_EXTS = {".h", ".hpp", ".cc", ".cpp"}

RULE_NAMES = (
    "unordered-iter",
    "pointer-key",
    "wall-clock",
    "rng-seed",
    "uninit-pod",
    "bare-suppression",
    "unknown-rule",
    "rand",
    "float-eq",
    "header-guard",
)

# Directories scanned when no paths are given. The determinism rules apply
# inside src/ only (tests and benches legitimately time themselves and
# iterate hash tables); the hygiene rules apply in all of them.
SOURCE_DIRS = ("src", "tools", "tests", "bench", "examples")
DETERMINISM_DIRS = ("src",)

SUPPRESS_RE = re.compile(r"vedr-lint:\s*allow\(([\w-]+)\)(:\s*\S.*)?")

UNORDERED_DECL_RE = re.compile(r"\b(?:std\s*::\s*)?unordered_(?:multi)?(?:map|set)\s*<")

POINTER_KEY_RES = (
    # First template argument of a map/set is a pointer type.
    re.compile(
        r"\b(?:std\s*::\s*)?(?:unordered_)?(?:multi)?(?:map|set)\s*<\s*"
        r"(?:const\s+)?[A-Za-z_][\w:]*\s*\*"
    ),
    re.compile(r"\bstd\s*::\s*hash\s*<\s*(?:const\s+)?[A-Za-z_][\w:]*\s*\*\s*>"),
    re.compile(r"\breinterpret_cast\s*<\s*(?:std\s*::\s*)?uintptr_t\s*>"),
)

RAND_RE = re.compile(r"\b(?:std\s*::\s*)?s?rand\s*\(")
WALL_CLOCK_RES = (
    RAND_RE,
    re.compile(r"\b(?:system_clock|steady_clock|high_resolution_clock)\b"),
    re.compile(r"\bgettimeofday\s*\(|\bclock_gettime\s*\("),
    re.compile(r"\btime\s*\(\s*(?:NULL|nullptr|0)\s*\)"),
)
# Directories allowed to read the host clock. Every entry needs a reason:
#   src/obs    implements obs::wall_now_ns, the one sanctioned host-clock
#              read, plus trace timestamps that are wall time by definition.
#   src/serve  the streaming daemon: diagnose-latency metrics and tail-poll
#              pacing are wall-time by nature; nothing in src/serve feeds a
#              determinism digest or the simulation clock.
WALL_CLOCK_EXEMPT_DIRS = ("src/obs", "src/serve")

# Entropy sources: unlike wall-clock there are no exempt dirs — every random
# draw in this repo must come from sim::Rng under a caller-supplied seed, and
# every hash-seed must be a fixed constant (kSketchRowSeeds).
RNG_SEED_RES = (
    re.compile(r"\bstd\s*::\s*random_device\b"),
    re.compile(r"\bstd\s*::\s*default_random_engine\b"),
    re.compile(r"\barc4random(?:_uniform|_buf)?\s*\("),
    re.compile(r"\bgetentropy\s*\(|\bgetrandom\s*\("),
)

PAYLOAD_STRUCT_RE = re.compile(
    r"\bstruct\s+([A-Za-z_]\w*(?:Event|Payload|Record|Header|Footer|Envelope|Frame|Meta))\b"
)
# Scalar types whose default-construction leaves garbage. Class types
# (std::string, vectors, FlowKey with initialized members...) are fine.
SCALAR_TYPE = (
    r"(?:unsigned\s+|signed\s+)?"
    r"(?:bool|char|short|int|long|long\s+long|float|double|size_t|"
    r"std\s*::\s*size_t|(?:std\s*::\s*)?u?int(?:8|16|32|64)_t|"
    r"Tick|NodeId|PortId|EventId|PacketRef)"
    r"(?:\s+(?:int|long))*"
)
UNINIT_FIELD_RE = re.compile(
    r"^\s*(?:const\s+)?" + SCALAR_TYPE + r"(?:\s*const)?"
    r"(?P<ptr>\s*[*&]+\s*|\s+)"
    r"(?P<names>[A-Za-z_]\w*(?:\s*\[[^\]]*\])?(?:\s*,\s*[A-Za-z_]\w*(?:\s*\[[^\]]*\])?)*)"
    r"\s*;"
)
# Raw pointer fields are flagged too: a garbage pointer is worse than a
# garbage integer.
UNINIT_PTR_FIELD_RE = re.compile(
    r"^\s*(?:const\s+)?[A-Za-z_][\w:]*\s*\*\s*(?:const\s*)?[A-Za-z_]\w*\s*;"
)

FLOAT_EQ_RE = re.compile(r"[=!]=\s*[-+]?[0-9]*\.[0-9]+f?\b|[0-9]*\.[0-9]+f?\s*[=!]=")
PRAGMA_ONCE_RE = re.compile(r"^\s*#\s*pragma\s+once\b", re.MULTILINE)

ITER_METHODS = ("begin", "cbegin", "rbegin", "crbegin")


def in_dirs(rel: str, dirs: tuple[str, ...]) -> bool:
    """Whether repo-relative `rel` lies under one of `dirs` (per path
    segment: src/served is not src/serve)."""
    return any(rel.startswith(d + "/") or rel == d for d in dirs)


def strip_comments_and_strings(line: str) -> str:
    """Best-effort removal of string/char literals and // comments so banned
    tokens inside documentation or log messages don't trip the rules."""
    line = re.sub(r'"(?:[^"\\]|\\.)*"', '""', line)
    line = re.sub(r"'(?:[^'\\]|\\.)*'", "''", line)
    return line.split("//", 1)[0]


def _identifier_after_template(text: str, start: int) -> list[str]:
    """Given the index of a '<' opening a template argument list, skips the
    balanced <...> and returns the declared identifier(s) that follow, if the
    construct is a declaration (``unordered_map<K, V> name;``). Returns []
    for non-declarations (casts, nested template args, return types...)."""
    depth = 0
    i = start
    while i < len(text):
        c = text[i]
        if c == "<":
            depth += 1
        elif c == ">":
            depth -= 1
            if depth == 0:
                break
        elif c in ";{}" and depth == 0:
            return []
        i += 1
    if depth != 0:
        return []
    rest = text[i + 1 :]
    m = re.match(
        r"\s*[&*]?\s*(?:const\s+)?([A-Za-z_]\w*)\s*(?:[;={,)\[]|$)", rest
    )
    if m is None:
        return []
    name = m.group(1)
    # `unordered_map<K,V> foo, bar;` — pick up the extra declarators.
    names = [name]
    tail = re.match(r"\s*[&*]?\s*(?:const\s+)?[A-Za-z_]\w*\s*,((?:\s*[A-Za-z_]\w*\s*,?)+);", rest)
    if tail is not None:
        names += re.findall(r"[A-Za-z_]\w*", tail.group(1))
    return names


def collect_unordered_names(text: str) -> set[str]:
    """Names declared (vars, members, params) with an unordered container
    type in this text. The stripped text is scanned as a whole so multi-line
    declarations work."""
    stripped = "\n".join(strip_comments_and_strings(l) for l in text.splitlines())
    names: set[str] = set()
    for m in UNORDERED_DECL_RE.finditer(stripped):
        lt = stripped.find("<", m.start())
        if lt < 0:
            continue
        names.update(_identifier_after_template(stripped, lt))
    return names


class Finding:
    __slots__ = ("path", "line", "rule", "message")

    def __init__(self, path: str, line: int, rule: str, message: str):
        self.path = path
        self.line = line
        self.rule = rule
        self.message = message

    def __str__(self) -> str:
        return f"{self.path}:{self.line}: {self.message} [{self.rule}]"


def _iter_patterns(names: set[str]) -> list[re.Pattern]:
    if not names:
        return []
    alt = "|".join(re.escape(n) for n in sorted(names))
    return [
        # range-for over an unordered container (possibly dereferenced).
        re.compile(r"for\s*\([^;]*:\s*\*?\s*(?:this\s*->\s*)?(?:" + alt + r")\s*\)"),
        # explicit iterators / iterator-pair construction.
        re.compile(
            r"\b(?:" + alt + r")\s*(?:->|\.)\s*(?:" + "|".join(ITER_METHODS) + r")\s*\("
        ),
    ]


def lint_text(text: str, rel: str, extra_unordered: set[str] | None = None) -> list[Finding]:
    """Lints one file's text. `rel` is the repo-relative posix path, which
    selects the rules in scope. `extra_unordered` adds names known to be
    unordered from other files (headers of the same library)."""
    findings: list[Finding] = []
    determinism = in_dirs(rel, DETERMINISM_DIRS)
    hygiene = in_dirs(rel, SOURCE_DIRS)
    names = collect_unordered_names(text) if determinism else set()
    if extra_unordered and determinism:
        names |= extra_unordered
    iter_res = _iter_patterns(names)

    wall_clock = determinism and not in_dirs(rel, WALL_CLOCK_EXEMPT_DIRS)

    if (hygiene and rel.endswith((".h", ".hpp"))
            and not PRAGMA_ONCE_RE.search(text)):
        findings.append(Finding(rel, 1, "header-guard", "header is missing '#pragma once'"))

    payload_struct: str | None = None  # name, once inside the struct body
    payload_pending: str | None = None  # declared, waiting for the opening '{'
    payload_depth = 0

    for lineno, raw in enumerate(text.splitlines(), start=1):
        matches = [(sm.group(1), sm.group(2)) for sm in SUPPRESS_RE.finditer(raw)]
        suppressed = {rule for rule, _ in matches}
        for rule, reason in matches:
            if rule not in RULE_NAMES:
                findings.append(
                    Finding(rel, lineno, "unknown-rule",
                            f"allow({rule}) names no linter rule")
                )
            if reason is None:
                findings.append(
                    Finding(rel, lineno, "bare-suppression",
                            f"allow({rule}) needs a justification: "
                            f"'vedr-lint: allow({rule}): <why this cannot escape>'")
                )
        code = strip_comments_and_strings(raw)

        def emit(rule: str, message: str) -> None:
            if rule not in suppressed:
                findings.append(Finding(rel, lineno, rule, message))

        for pat in iter_res:
            if pat.search(code):
                emit("unordered-iter",
                     "iteration over an unordered container: hash order must not "
                     "reach digests/telemetry/trace output (sort at emission, or "
                     "justify why the order cannot escape)")
                break

        if hygiene:
            if not wall_clock and RAND_RE.search(code):
                emit("rand", "rand()/srand() is banned: use a seeded std::mt19937_64")
            if FLOAT_EQ_RE.search(code):
                emit("float-eq",
                     "raw floating-point ==/!= is banned: compare integral units or "
                     "use an epsilon")

        if not determinism:
            continue

        for pat in POINTER_KEY_RES:
            if pat.search(code):
                emit("pointer-key",
                     "pointer-valued key / address-based hashing: addresses change "
                     "run to run; key on a stable id instead")
                break

        if wall_clock:
            for pat in WALL_CLOCK_RES:
                if pat.search(code):
                    emit("wall-clock",
                         "wall-clock/randomness outside src/obs and src/serve: "
                         "model code must only observe sim time (obs::wall_now_ns "
                         "is the one sanctioned host-clock read)")
                    break

        for pat in RNG_SEED_RES:
            if pat.search(code):
                emit("rng-seed",
                     "entropy source: sketch/hash seeds must be fixed "
                     "compile-time constants (kSketchRowSeeds) or flow from a "
                     "caller-supplied sim::Rng seed — entropy-derived state "
                     "diverges run to run")
                break

        # --- uninit-pod: track payload struct bodies by brace depth --------
        if payload_struct is None and payload_pending is None:
            sm = PAYLOAD_STRUCT_RE.search(code)
            if sm is not None:
                after = code[sm.end():]
                # `struct FooEvent;` is a forward declaration, not a body.
                brace = after.find("{")
                semi = after.find(";")
                if brace >= 0 and (semi < 0 or brace < semi):
                    payload_struct = sm.group(1)
                    payload_depth = 0  # braces of this line counted below
                elif semi < 0:
                    payload_pending = sm.group(1)  # '{' on a later line
        elif payload_pending is not None:
            if "{" in code:
                payload_struct, payload_pending = payload_pending, None
            elif ";" in code:
                payload_pending = None  # was a declaration after all

        if payload_struct is not None:
            depth_before = payload_depth
            payload_depth += code.count("{") - code.count("}")
            # A field line sits at depth 1 (struct top level) and is not a
            # method declaration/definition (no parens) or a using/typedef.
            if (depth_before == 1 and payload_depth == 1 and "(" not in code
                    and not re.match(r"\s*(?:using|typedef|static)\b", code)):
                if UNINIT_FIELD_RE.search(code) or UNINIT_PTR_FIELD_RE.search(code):
                    emit("uninit-pod",
                         f"field of payload struct {payload_struct} lacks a default "
                         "member initializer: garbage can leak into digests/trace "
                         "frames")
            if payload_depth <= 0:
                payload_struct = None

    return findings


def lint_file(path: Path, repo: Path, header_names: dict[str, set[str]]) -> list[Finding]:
    rel = path.relative_to(repo).as_posix()
    text = path.read_text(encoding="utf-8", errors="replace")
    # foo.cpp iterates members declared in foo.h; hand its primary header's
    # names in. Propagating *every* header's names would false-positive on
    # collisions (recorder.h's unordered drops_ vs. provenance_graph.h's
    # vector drops_); members of other classes are reached via accessors whose
    # local declarations the in-file scan already sees.
    extra = header_names.get(path.stem, set()) if path.suffix in {".cc", ".cpp"} else set()
    return lint_text(text, rel, extra)


def gather_files(repo: Path, args_paths: list[str]) -> list[Path]:
    roots = ([Path(p) for p in args_paths] if args_paths
             else [repo / d for d in SOURCE_DIRS if (repo / d).is_dir()])
    files: list[Path] = []
    for root in roots:
        root = root if root.is_absolute() else Path.cwd() / root
        if root.is_file():
            if root.suffix in SOURCE_EXTS:
                files.append(root.resolve())
        else:
            files.extend(
                f.resolve() for f in sorted(root.rglob("*")) if f.suffix in SOURCE_EXTS
            )
    return files


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("paths", nargs="*",
                        help="files or directories to lint (default: every source "
                             "directory of <repo>)")
    parser.add_argument("--repo", default=None,
                        help="repository root (default: parent of tools/)")
    parser.add_argument("--list-rules", action="store_true", help="print rule names and exit")
    args = parser.parse_args()

    if args.list_rules:
        for r in RULE_NAMES:
            print(r)
        return 0

    repo = Path(args.repo).resolve() if args.repo else Path(__file__).resolve().parent.parent
    files = [f for f in gather_files(repo, args.paths) if f.is_relative_to(repo)]
    if not files:
        print("determinism-lint: no source files found", file=sys.stderr)
        return 2

    # Member names declared unordered in a header are treated as unordered in
    # the matching .cpp (host.cpp iterates send_flows_ declared in host.h).
    # Keyed by stem so unrelated classes reusing a member name elsewhere don't
    # cross-contaminate.
    header_names: dict[str, set[str]] = {}
    for f in files:
        # Only src/ carries the unordered-iter rule that reads these names.
        if (f.suffix in {".h", ".hpp"}
                and in_dirs(f.relative_to(repo).as_posix(), DETERMINISM_DIRS)):
            names = collect_unordered_names(
                f.read_text(encoding="utf-8", errors="replace")
            )
            if names:
                header_names.setdefault(f.stem, set()).update(names)

    findings: list[Finding] = []
    for f in files:
        findings.extend(lint_file(f, repo, header_names))

    for fd in findings:
        print(fd)
    if findings:
        print(
            f"determinism-lint: {len(findings)} finding(s) in {len(files)} file(s)",
            file=sys.stderr,
        )
        return 1
    print(f"determinism-lint: clean ({len(files)} files)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
