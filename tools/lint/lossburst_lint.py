#!/usr/bin/env python3
"""lossburst determinism & discipline lint.

Walks ``src/``, ``bench/``, and ``tests/`` and enforces the project rules
that keep identically seeded runs bit-reproducible and the zero-allocation
datapath honest (DESIGN.md §9):

  wall-clock       No rand()/srand()/std::random_device/system_clock/
                   steady_clock/high_resolution_clock anywhere the simulation
                   can see them. Wall time must never influence simulated
                   time or results. Legitimate wall-clock uses (progress
                   reporting, the loop profiler, bench timing) carry an
                   explicit annotation with a justification.
  hash-iteration   No iteration over std::unordered_map/unordered_set in
                   src/sim, src/net, src/tcp, src/analysis: hash-order
                   iteration feeds results, and libstdc++ gives no ordering
                   guarantee across reserve sizes or versions.
  datapath-alloc   No heap allocation (new / malloc / make_unique /
                   make_shared) and no std::function construction in the
                   zero-alloc datapath files guarded by the bench-smoke
                   gate. Growth paths that allocate only until the pool
                   high-water mark are annotated.
  untagged-event   Every EventQueue::schedule / Simulator::at / Simulator::in
                   call site in src/ passes an obs::EventTag so the loop
                   profiler can attribute every dispatched event.
  raw-stream       Library code (src/) logs through LOSSBURST_LOG* /
                   util::Logger, never raw std::cerr / std::cout / printf.
                   Exporters that write *files* are unaffected.
  raw-sync         No raw std::atomic / std::thread / std::barrier /
                   std::mutex / std::atomic_thread_fence in shim-converted
                   files (SHIM_FILES): those components are templated over
                   the check:: sync policy (check/sync.hpp, DESIGN.md §14)
                   so the model checker can instantiate them; a raw std::
                   primitive silently escapes every model-check suite.
                   std::memory_order and std::lock_guard are fine — they are
                   vocabulary, not primitives.
  raw-file         Library code (src/) creates files only through
                   obs::write_artifact in the export writer
                   (ARTIFACT_WRITER): no std::ofstream / std::fstream /
                   fopen anywhere else. That one function replaces a file
                   with a fresh one (DESIGN.md §8) and throws on a failed
                   create or write instead of losing the artifact silently.
  seq-cst          load()/store() with a defaulted (seq_cst) memory order in
                   datapath files needs an explicit order or an
                   allow(seq-cst) justification: accidental seq_cst is a
                   fence on every access on ARM, and the deliberate cases
                   are rare enough to document.

Allowlist annotation (same line or the line directly above the finding):

    // lossburst-lint: allow(<rule>): <justification>

The justification is mandatory; an empty one is itself an error. A committed
baseline (tools/lint/lint_baseline.txt) grandfathers findings that predate
the lint; regressions against the baseline fail. The baseline ships empty —
every current finding is either fixed or annotated.

Usage:
  tools/lint/lossburst_lint.py [--root DIR] [--baseline FILE] [--list]
  tools/lint/lossburst_lint.py --lint-file FILE...   # fixture/self tests

Exit status: 0 clean, 1 findings, 2 usage/internal error.

Stdlib only — no pip dependencies.
"""

from __future__ import annotations

import argparse
import os
import re
import sys
from typing import Iterable, List, NamedTuple, Optional, Sequence

ANNOTATION_RE = re.compile(
    r"//\s*lossburst-lint:\s*allow\(([a-z-]+(?:\s*,\s*[a-z-]+)*)\)\s*(?::\s*(.*\S))?"
)

LINT_DIRS = ("src", "bench", "tests")

# Directories whose iteration order feeds simulation results.
HASH_ITER_DIRS = ("src/sim", "src/net", "src/tcp", "src/analysis", "src/fault")

# The zero-allocation datapath guarded by the bench-smoke gate
# (BM_ScheduleRun / BM_LinkForward / BM_ObsSteadyStateAllocs): steady-state
# operation must not touch the heap, and growth-path allocations must be
# explicitly annotated.
DATAPATH_FILES = (
    "src/sim/event_queue.hpp",
    "src/sim/event_queue.cpp",
    "src/sim/ladder_queue.hpp",
    "src/sim/ladder_queue.cpp",
    "src/net/packet_pool.hpp",
    "src/net/queue.hpp",
    "src/net/queue.cpp",
    "src/net/link.hpp",
    "src/net/link.cpp",
    "src/util/ring_buffer.hpp",
    # The fault layer's steady state (BM_FaultLinkForward) is gated too:
    # all fault state is allocated at injector construction, never per packet.
    "src/fault/channel.hpp",
    # The sharded engine's per-epoch machinery (BM_ShardedCampaign): mailbox
    # pushes, staged-arrival slots, and coordinator barriers are all on the
    # cross-shard datapath and must reach a fixed-capacity steady state.
    "src/sim/shard_mailbox.hpp",
    "src/sim/shard_coordinator.hpp",
    "src/sim/shard_coordinator.cpp",
    # The live telemetry publish path (BM_LivePublish): everything is
    # allocated at freeze(); per-interval publish() and client-side poll()
    # must stay allocation-free on the sim thread.
    "src/obs/live/spsc_ring.hpp",
    "src/obs/live/publisher.cpp",
    # The streaming-FEC codec and endpoints (BM_FecEncodeWindow /
    # BM_FecDecodeBurst): GF(256) kernels, the pooled coded-packet
    # side-table, and the per-packet encode/decode paths are all sized at
    # construction — steady-state coding must never touch the heap.
    "src/fec/gf256.hpp",
    "src/fec/codec.hpp",
    "src/fec/codec.cpp",
    "src/fec/endpoint.cpp",
    # The sink's online Gilbert fit (BM_FecFitRefresh): push() runs per
    # received symbol and refresh() per feedback report, both over counts
    # kept in a ring sized at construction.
    "src/fec/adapt.cpp",
)

# Files templated over the check:: sync policy (check/sync.hpp): raw std::
# synchronization primitives here would bypass the model checker. The shim
# layer itself (src/check/) is exempt — it *defines* the aliases.
SHIM_FILES = (
    "src/obs/live/spsc_ring.hpp",
    "src/obs/live/freeze_latch.hpp",
    "src/obs/live/publisher.hpp",
    "src/obs/live/decimator.hpp",
    "src/sim/shard_mailbox.hpp",
    "src/sim/epoch_handshake.hpp",
    "src/serve/control.hpp",
)

# The one file in src/ that may open a file for writing (raw-file).
ARTIFACT_WRITER = "src/obs/export.cpp"

RULES = (
    "wall-clock",
    "hash-iteration",
    "datapath-alloc",
    "untagged-event",
    "raw-stream",
    "raw-file",
    "raw-sync",
    "seq-cst",
)

WALL_CLOCK_RE = re.compile(
    r"(?<![\w:])(?:std\s*::\s*)?(?:"
    r"rand\s*\(|srand\s*\(|random_device\b"
    r"|(?:chrono\s*::\s*)?(?:steady_clock|system_clock|high_resolution_clock)\b"
    r")"
)

ALLOC_RE = re.compile(
    r"(?<![\w.])(?:"
    r"new\b(?!\s*\()"          # placement new `new (addr)` does not allocate
    r"|malloc\s*\(|calloc\s*\(|realloc\s*\("
    r"|(?:std\s*::\s*)?make_unique\s*<"
    r"|(?:std\s*::\s*)?make_shared\s*<"
    r"|std\s*::\s*function\b"
    r")"
)

RAW_STREAM_RE = re.compile(
    r"std\s*::\s*(?:cerr|cout)\b|(?<![\w.])(?:std\s*::\s*)?(?:printf|fprintf|puts)\s*\("
)

# ifstream and friends only read, so the o?fstream stem must not follow an
# identifier character: "ifstream" never matches.
RAW_FILE_RE = re.compile(
    r"(?<![\w:])(?:std\s*::\s*)?(?:basic_)?o?fstream\b"
    r"|(?<![\w.])(?:std\s*::\s*)?fopen\s*\("
)

UNORDERED_DECL_RE = re.compile(
    r"(?:std\s*::\s*)?unordered_(?:map|set|multimap|multiset)\s*<[^;{]*?>\s*&?\s*"
    r"(\w+)\s*[;({=,)]"
)

SCHEDULE_CALL_RE = re.compile(
    r"(?<![\w.])(?:(\w+)(?:\.|->)(?:schedule|at|in)|sim_?\.(?:at|in))\s*\($"
)

# std::memory_order / std::lock_guard / std::unique_lock are deliberately NOT
# matched: they are vocabulary types that the shim-converted code still
# spells out (the policy only swaps the primitives).
RAW_SYNC_RE = re.compile(
    r"std\s*::\s*(?:"
    r"atomic\b|atomic_thread_fence\b|atomic_signal_fence\b|atomic_flag\b"
    r"|thread\b|jthread\b|barrier\b|latch\b"
    r"|mutex\b|shared_mutex\b|recursive_mutex\b|timed_mutex\b"
    r"|condition_variable\b|condition_variable_any\b"
    r")"
)

# A load() with no arguments, or a store() with a single argument, defaults
# to seq_cst. The order itself may be a named constexpr (kPublishOrder), so
# presence of an argument in the order position — a top-level comma for
# store, any argument for load — is what counts, not the literal token
# "memory_order". Single-line matching is deliberate: the datapath files
# keep atomic accesses on one line.
SEQ_CST_RE = re.compile(r"\.\s*(load|store)\s*\(((?:[^()]|\([^()]*\))*)\)")


def _seq_cst_defaulted(method: str, args: str) -> bool:
    if method == "load":
        return not args.strip()
    depth = 0
    for ch in args:
        if ch in "([{":
            depth += 1
        elif ch in ")]}":
            depth -= 1
        elif ch == "," and depth == 0:
            return False
    return True


class Finding(NamedTuple):
    path: str       # repo-relative, forward slashes
    line: int       # 1-based
    rule: str
    message: str

    def key(self) -> str:
        """Baseline key: stable across unrelated line-number churn is not
        attempted — the baseline ships empty, so precision wins."""
        return f"{self.path}:{self.line}:{self.rule}"

    def render(self) -> str:
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


def strip_comments_and_strings(line: str) -> str:
    """Blank out string/char literals and // comments so rule regexes do not
    fire on prose. Block comments are handled by the caller (line-level
    in/out state); this keeps the scanner single-pass and dependency-free."""
    out = []
    i, n = 0, len(line)
    while i < n:
        c = line[i]
        if c == "/" and i + 1 < n and line[i + 1] == "/":
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


class FileScanner:
    """Scans one file, producing findings. One instance per file."""

    def __init__(self, rel_path: str, text: str):
        self.path = rel_path
        self.raw_lines = text.splitlines()
        self.code_lines = self._strip(self.raw_lines)
        self.allows = self._collect_allows(self.raw_lines)
        self.findings: List[Finding] = []

    @staticmethod
    def _strip(lines: Sequence[str]) -> List[str]:
        stripped = []
        in_block = False
        for line in lines:
            buf = []
            i, n = 0, len(line)
            while i < n:
                if in_block:
                    end = line.find("*/", i)
                    if end == -1:
                        i = n
                    else:
                        in_block = False
                        i = end + 2
                    continue
                if line.startswith("/*", i):
                    in_block = True
                    i += 2
                    continue
                if line.startswith("//", i):
                    break
                buf.append(line[i])
                i += 1
            stripped.append(strip_comments_and_strings("".join(buf)))
        return stripped

    @staticmethod
    def _collect_allows(lines: Sequence[str]) -> dict:
        """Map line number (1-based) -> set of allowed rules effective there.
        An annotation covers its own line and the line below it."""
        allows: dict = {}
        for idx, line in enumerate(lines, start=1):
            m = ANNOTATION_RE.search(line)
            if m is None:
                continue
            rules = {r.strip() for r in m.group(1).split(",")}
            justification = (m.group(2) or "").strip()
            entry = (rules, justification, idx)
            allows.setdefault(idx, []).append(entry)
            allows.setdefault(idx + 1, []).append(entry)
        return allows

    def allowed(self, line_no: int, rule: str) -> Optional[str]:
        """Returns the justification if `rule` is allowlisted at `line_no`
        (empty string when the annotation lacks one), else None."""
        for rules, justification, _ in self.allows.get(line_no, []):
            if rule in rules:
                return justification
        return None

    def report(self, line_no: int, rule: str, message: str) -> None:
        justification = self.allowed(line_no, rule)
        if justification is None:
            self.findings.append(Finding(self.path, line_no, rule, message))
        elif not justification:
            self.findings.append(
                Finding(
                    self.path,
                    line_no,
                    rule,
                    "allow(%s) annotation requires a justification "
                    "('// lossburst-lint: allow(%s): <why>')" % (rule, rule),
                )
            )

    # ----------------------------------------------------------- rules

    def check_annotations(self) -> None:
        """Unknown rule names in annotations are errors (typos silently
        disable nothing)."""
        seen = set()
        for entries in self.allows.values():
            for rules, _, anno_line in entries:
                if anno_line in seen:
                    continue
                seen.add(anno_line)
                for rule in rules:
                    if rule not in RULES:
                        self.findings.append(
                            Finding(
                                self.path,
                                anno_line,
                                "bad-annotation",
                                f"unknown lint rule '{rule}' in allow() "
                                f"(known: {', '.join(RULES)})",
                            )
                        )

    def check_wall_clock(self) -> None:
        for idx, code in enumerate(self.code_lines, start=1):
            if WALL_CLOCK_RE.search(code):
                self.report(
                    idx,
                    "wall-clock",
                    "wall-clock/global-entropy source; simulated results "
                    "must derive only from util::Rng and simulated time "
                    "(annotate intentional wall-clock uses)",
                )

    def check_hash_iteration(self) -> None:
        if not self.path.startswith(HASH_ITER_DIRS):
            return
        unordered_vars = set()
        for code in self.code_lines:
            for m in UNORDERED_DECL_RE.finditer(code):
                unordered_vars.add(m.group(1))
        if not unordered_vars:
            return
        var_alt = "|".join(re.escape(v) for v in sorted(unordered_vars))
        range_for = re.compile(r"for\s*\([^;)]*:\s*(?:\w+\.)?(%s)\s*\)" % var_alt)
        # Only begin()/cbegin(): every traversal needs one, while `it ==
        # m.end()` after a find() is an order-free lookup, not iteration.
        iterators = re.compile(r"\b(%s)\s*\.\s*(?:begin|cbegin|rbegin|crbegin)\s*\(" % var_alt)
        for idx, code in enumerate(self.code_lines, start=1):
            m = range_for.search(code) or iterators.search(code)
            if m:
                self.report(
                    idx,
                    "hash-iteration",
                    f"iteration over unordered container '{m.group(1)}': "
                    "hash order is unspecified and feeds results; use a "
                    "sorted copy, std::map, or a vector keyed by id",
                )

    def check_datapath_alloc(self) -> None:
        if self.path not in DATAPATH_FILES:
            return
        for idx, code in enumerate(self.code_lines, start=1):
            if code.lstrip().startswith("#"):  # #include <new> et al.
                continue
            if ALLOC_RE.search(code):
                self.report(
                    idx,
                    "datapath-alloc",
                    "heap allocation or std::function in a zero-alloc "
                    "datapath file; steady-state operation must stay "
                    "allocation-free (annotate growth-path allocations)",
                )

    def check_untagged_event(self) -> None:
        if not self.path.startswith("src/"):
            return
        # Ignore the definitions themselves.
        if self.path in ("src/sim/event_queue.hpp", "src/sim/simulator.hpp"):
            return
        call_re = re.compile(
            r"(?<![\w.])(?:\w+(?:\.|->))?(?:sim_?|queue_?|q)(?:\.|->)(?:at|in|schedule)\s*\("
        )
        n = len(self.code_lines)
        for idx in range(n):
            code = self.code_lines[idx]
            m = call_re.search(code)
            if m is None:
                continue
            # Collect the full argument list across lines (paren balance).
            start = m.end() - 1  # position of '('
            depth = 0
            stmt_parts: List[str] = []
            row, col = idx, start
            done = False
            while row < n and not done:
                segment = self.code_lines[row]
                j = col if row == idx else 0
                while j < len(segment):
                    ch = segment[j]
                    if ch == "(":
                        depth += 1
                    elif ch == ")":
                        depth -= 1
                        if depth == 0:
                            done = True
                            break
                    j += 1
                stmt_parts.append(segment[col if row == idx else 0 : j + 1])
                row += 1
            stmt = " ".join(stmt_parts)
            if "EventTag" not in stmt and "tag" not in stmt:
                self.report(
                    idx + 1,
                    "untagged-event",
                    "event scheduled without an obs::EventTag; tag the "
                    "callback so the loop profiler can attribute it "
                    "(use obs::EventTag::kGeneric deliberately if needed)",
                )

    def check_raw_sync(self) -> None:
        if self.path not in SHIM_FILES:
            return
        for idx, code in enumerate(self.code_lines, start=1):
            if RAW_SYNC_RE.search(code):
                self.report(
                    idx,
                    "raw-sync",
                    "raw std:: synchronization primitive in a shim-converted "
                    "file; use the check:: aliases or the Sync policy "
                    "(check/sync.hpp) so the model-check suites cover this "
                    "code path",
                )

    def check_seq_cst(self) -> None:
        if self.path not in DATAPATH_FILES:
            return
        for idx, code in enumerate(self.code_lines, start=1):
            for m in SEQ_CST_RE.finditer(code):
                if _seq_cst_defaulted(m.group(1), m.group(2)):
                    self.report(
                        idx,
                        "seq-cst",
                        "atomic load()/store() with a defaulted (seq_cst) "
                        "memory order on the datapath; spell the order "
                        "explicitly, or annotate why sequential consistency "
                        "is required here",
                    )

    def check_raw_stream(self) -> None:
        if not self.path.startswith("src/"):
            return
        for idx, code in enumerate(self.code_lines, start=1):
            if RAW_STREAM_RE.search(code):
                self.report(
                    idx,
                    "raw-stream",
                    "raw console I/O in library code; route diagnostics "
                    "through LOSSBURST_LOG*/util::Logger so verbosity and "
                    "destination stay controllable",
                )

    def check_raw_file(self) -> None:
        if not self.path.startswith("src/") or self.path == ARTIFACT_WRITER:
            return
        for idx, code in enumerate(self.code_lines, start=1):
            if code.lstrip().startswith("#"):  # #include <fstream>
                continue
            if RAW_FILE_RE.search(code):
                self.report(
                    idx,
                    "raw-file",
                    "file opened for writing outside the export writer; "
                    "write artifacts through obs::write_artifact so they "
                    "land in a fresh file and a failed write throws",
                )

    def run(self) -> List[Finding]:
        self.check_annotations()
        self.check_wall_clock()
        self.check_hash_iteration()
        self.check_datapath_alloc()
        self.check_untagged_event()
        self.check_raw_sync()
        self.check_seq_cst()
        self.check_raw_stream()
        self.check_raw_file()
        return self.findings


def iter_source_files(root: str) -> Iterable[str]:
    exts = (".cpp", ".cc", ".hpp", ".h", ".ipp")
    for top in LINT_DIRS:
        base = os.path.join(root, top)
        for dirpath, dirnames, filenames in os.walk(base):
            dirnames.sort()
            for name in sorted(filenames):
                if name.endswith(exts):
                    yield os.path.join(dirpath, name)


def load_baseline(path: str) -> set:
    keys = set()
    if not os.path.exists(path):
        return keys
    with open(path, encoding="utf-8") as f:
        for line in f:
            line = line.strip()
            if line and not line.startswith("#"):
                keys.add(line)
    return keys


def scan_paths(root: str, paths: Iterable[str]) -> List[Finding]:
    findings: List[Finding] = []
    for path in paths:
        rel = os.path.relpath(path, root).replace(os.sep, "/")
        try:
            with open(path, encoding="utf-8", errors="replace") as f:
                text = f.read()
        except OSError as e:
            print(f"lossburst-lint: cannot read {rel}: {e}", file=sys.stderr)
            sys.exit(2)
        findings.extend(FileScanner(rel, text).run())
    return findings


def main(argv: Sequence[str]) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--root", default=None, help="repository root (default: auto)")
    ap.add_argument("--baseline", default=None, help="suppression baseline file")
    ap.add_argument("--list", action="store_true", help="list files that would be scanned")
    ap.add_argument(
        "--lint-file",
        nargs="+",
        default=None,
        metavar="FILE",
        help="lint specific files (paths taken relative to --root; used by "
        "the fixture self-tests)",
    )
    args = ap.parse_args(argv)

    root = args.root or os.path.normpath(
        os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "..")
    )
    baseline_path = args.baseline or os.path.join(root, "tools", "lint", "lint_baseline.txt")

    if args.list:
        for path in iter_source_files(root):
            print(os.path.relpath(path, root))
        return 0

    if args.lint_file:
        findings = scan_paths(root, args.lint_file)
    else:
        findings = scan_paths(root, iter_source_files(root))

    baseline = load_baseline(baseline_path)
    new = [f for f in findings if f.key() not in baseline]
    stale = baseline - {f.key() for f in findings}

    for f in new:
        print(f.render())
    if stale and not args.lint_file:
        for key in sorted(stale):
            print(f"lossburst-lint: stale baseline entry (fixed? remove it): {key}")
    if new:
        print(f"lossburst-lint: {len(new)} finding(s)", file=sys.stderr)
        return 1
    if stale and not args.lint_file:
        print(f"lossburst-lint: {len(stale)} stale baseline entr(ies)", file=sys.stderr)
        return 1
    print(f"lossburst-lint: clean ({len(findings)} baselined)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
