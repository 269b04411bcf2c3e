#!/usr/bin/env python3
"""Fixture self-tests for lossburst_lint.py (registered as ctest
``lint.fixtures``).

Each rule class gets a deliberately-bad fixture that must FAIL the lint and
a clean/annotated variant that must PASS — proving the lint both lands
clean on the real tree and actually catches regressions. Fixtures are
written to a throwaway root so the rule's path predicates (datapath files,
hash-iteration directories, src/-only rules) apply exactly as they do in
the repository.

Stdlib only — no pip dependencies.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
import tempfile

LINT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "lossburst_lint.py")

PASSED = 0
FAILED = []


def run_lint(root: str, *extra: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, LINT, "--root", root, *extra],
        capture_output=True,
        text=True,
    )


def check(name: str, ok: bool, detail: str = "") -> None:
    global PASSED
    if ok:
        PASSED += 1
        print(f"  ok: {name}")
    else:
        FAILED.append(name)
        print(f"FAIL: {name}\n{detail}")


def lint_fixture(tmp: str, rel_path: str, source: str) -> subprocess.CompletedProcess:
    path = os.path.join(tmp, rel_path)
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", encoding="utf-8") as f:
        f.write(source)
    return run_lint(tmp, "--lint-file", path)


def expect_finding(name: str, tmp: str, rel_path: str, source: str, rule: str) -> None:
    r = lint_fixture(tmp, rel_path, source)
    check(
        name,
        r.returncode == 1 and f"[{rule}]" in r.stdout,
        f"  exit={r.returncode}\n  stdout: {r.stdout!r}\n  stderr: {r.stderr!r}",
    )


def expect_clean(name: str, tmp: str, rel_path: str, source: str) -> None:
    r = lint_fixture(tmp, rel_path, source)
    check(
        name,
        r.returncode == 0,
        f"  exit={r.returncode}\n  stdout: {r.stdout!r}\n  stderr: {r.stderr!r}",
    )


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--root", default=None, help="real repository root; when set, "
                    "also asserts the actual tree lints clean")
    args = ap.parse_args()

    with tempfile.TemporaryDirectory(prefix="lossburst_lint_fixtures_") as tmp:
        # ------------------------------------------------ wall-clock
        expect_finding(
            "wall-clock: steady_clock trips",
            tmp, "src/util/fix_wall.cpp",
            "#include <chrono>\n"
            "long long host_now() {\n"
            "  return std::chrono::steady_clock::now().time_since_epoch().count();\n"
            "}\n",
            "wall-clock",
        )
        expect_finding(
            "wall-clock: rand() trips",
            tmp, "tests/fix_rand.cpp",
            "#include <cstdlib>\n"
            "int noise() { return rand(); }\n",
            "wall-clock",
        )
        expect_clean(
            "wall-clock: annotated with justification passes",
            tmp, "src/util/fix_wall_ok.cpp",
            "#include <chrono>\n"
            "long long host_now() {\n"
            "  // lossburst-lint: allow(wall-clock): progress report only; never "
            "feeds simulated time\n"
            "  return std::chrono::steady_clock::now().time_since_epoch().count();\n"
            "}\n",
        )
        expect_clean(
            "wall-clock: mention in a comment does not trip",
            tmp, "src/util/fix_wall_comment.cpp",
            "// steady_clock is banned here; see DESIGN.md §9.\n"
            "int x = 0;\n",
        )

        # ------------------------------------------------ hash-iteration
        hash_iter_src = (
            "#include <unordered_map>\n"
            "int sum_values() {\n"
            "  std::unordered_map<int, int> counts;\n"
            "  int s = 0;\n"
            "  for (const auto& kv : counts) s += kv.second;\n"
            "  return s;\n"
            "}\n"
        )
        expect_finding(
            "hash-iteration: range-for over unordered_map in src/analysis trips",
            tmp, "src/analysis/fix_hash.cpp", hash_iter_src, "hash-iteration",
        )
        expect_finding(
            "hash-iteration: explicit begin() in src/sim trips",
            tmp, "src/sim/fix_hash_begin.cpp",
            "#include <unordered_set>\n"
            "#include <vector>\n"
            "std::vector<int> dump() {\n"
            "  std::unordered_set<int> ids;\n"
            "  return std::vector<int>(ids.begin(), ids.end());\n"
            "}\n",
            "hash-iteration",
        )
        expect_clean(
            "hash-iteration: lookups without iteration pass",
            tmp, "src/net/fix_hash_lookup.cpp",
            "#include <unordered_map>\n"
            "int lookup(int k) {\n"
            "  std::unordered_map<int, int> m;\n"
            "  auto it = m.find(k);\n"
            "  return it == m.end() ? 0 : it->second;\n"
            "}\n",
        )
        expect_clean(
            "hash-iteration: same code outside guarded dirs passes",
            tmp, "src/util/fix_hash_util.cpp", hash_iter_src,
        )
        expect_finding(
            "hash-iteration: src/fault is a guarded dir",
            tmp, "src/fault/fix_hash_fault.cpp", hash_iter_src, "hash-iteration",
        )

        # ------------------------------------------------ datapath-alloc
        expect_finding(
            "datapath-alloc: bare new in src/net/queue.cpp trips",
            tmp, "src/net/queue.cpp",
            "int* grow() { return new int[64]; }\n",
            "datapath-alloc",
        )
        expect_finding(
            "datapath-alloc: std::function in src/sim/event_queue.cpp trips",
            tmp, "src/sim/event_queue.cpp",
            "#include <functional>\n"
            "void hold(std::function<void()> f) { f(); }\n",
            "datapath-alloc",
        )
        expect_clean(
            "datapath-alloc: annotated growth-path allocation passes",
            tmp, "src/net/link.cpp",
            "#include <memory>\n"
            "std::unique_ptr<int[]> grow() {\n"
            "  // lossburst-lint: allow(datapath-alloc): growth path only; "
            "stops at the high-water mark\n"
            "  return std::make_unique<int[]>(64);\n"
            "}\n",
        )
        expect_clean(
            "datapath-alloc: same alloc outside datapath files passes",
            tmp, "src/obs/fix_alloc_ok.cpp",
            "int* grow() { return new int[64]; }\n",
        )
        expect_finding(
            "datapath-alloc: fault channel header is a datapath file",
            tmp, "src/fault/channel.hpp",
            "int* per_packet() { return new int; }\n",
            "datapath-alloc",
        )
        expect_finding(
            "datapath-alloc: link header is a datapath file",
            tmp, "src/net/link.hpp",
            "#include <functional>\n"
            "void hold(std::function<void()> f) { f(); }\n",
            "datapath-alloc",
        )
        expect_finding(
            "datapath-alloc: ladder queue header is a datapath file",
            tmp, "src/sim/ladder_queue.hpp",
            "int* per_entry() { return new int; }\n",
            "datapath-alloc",
        )
        expect_finding(
            "datapath-alloc: ladder queue impl is a datapath file",
            tmp, "src/sim/ladder_queue.cpp",
            "#include <memory>\n"
            "std::shared_ptr<int> rung() { return std::make_shared<int>(1); }\n",
            "datapath-alloc",
        )
        expect_finding(
            "datapath-alloc: shard mailbox header is a datapath file",
            tmp, "src/sim/shard_mailbox.hpp",
            "int* per_handoff() { return new int; }\n",
            "datapath-alloc",
        )
        expect_finding(
            "datapath-alloc: shard coordinator impl is a datapath file",
            tmp, "src/sim/shard_coordinator.cpp",
            "#include <functional>\n"
            "void park(std::function<void()> f) { f(); }\n",
            "datapath-alloc",
        )
        expect_finding(
            "datapath-alloc: live snapshot ring header is a datapath file",
            tmp, "src/obs/live/spsc_ring.hpp",
            "int* per_publish() { return new int; }\n",
            "datapath-alloc",
        )
        expect_finding(
            "datapath-alloc: live publisher impl is a datapath file",
            tmp, "src/obs/live/publisher.cpp",
            "#include <functional>\n"
            "void defer(std::function<void()> f) { f(); }\n",
            "datapath-alloc",
        )
        expect_finding(
            "datapath-alloc: fec codec impl is a datapath file",
            tmp, "src/fec/codec.cpp",
            "int* per_row() { return new int; }\n",
            "datapath-alloc",
        )
        expect_finding(
            "datapath-alloc: fec gf256 header is a datapath file",
            tmp, "src/fec/gf256.hpp",
            "int* per_symbol() { return new int[4]; }\n",
            "datapath-alloc",
        )
        expect_finding(
            "datapath-alloc: fec endpoint impl is a datapath file",
            tmp, "src/fec/endpoint.cpp",
            "#include <functional>\n"
            "void feedback(std::function<void()> f) { f(); }\n",
            "datapath-alloc",
        )
        expect_finding(
            "datapath-alloc: fec fitter impl is a datapath file",
            tmp, "src/fec/adapt.cpp",
            "bool* per_report_copy(int n) { return new bool[n]; }\n",
            "datapath-alloc",
        )

        # ------------------------------------------------ untagged-event
        expect_finding(
            "untagged-event: schedule without EventTag trips",
            tmp, "src/net/fix_untagged.cpp",
            "struct S { template <class F> void at(long t, F f); };\n"
            "void arm(S& sim_) {\n"
            "  sim_.at(42, [] {});\n"
            "}\n",
            "untagged-event",
        )
        expect_clean(
            "untagged-event: tagged multi-line schedule passes",
            tmp, "src/net/fix_tagged.cpp",
            "struct S { template <class F, class T> void at(long t, F f, T tag); };\n"
            "void arm(S& sim_) {\n"
            "  sim_.at(42, [] {},\n"
            "          obs::EventTag::kGeneric);\n"
            "}\n",
        )
        expect_clean(
            "untagged-event: bench code is exempt",
            tmp, "bench/fix_untagged_bench.cpp",
            "struct S { template <class F> void at(long t, F f); };\n"
            "void arm(S& sim_) { sim_.at(42, [] {}); }\n",
        )

        # ------------------------------------------------ raw-stream
        expect_finding(
            "raw-stream: std::cerr in library code trips",
            tmp, "src/tcp/fix_stream.cpp",
            "#include <iostream>\n"
            "void moan() { std::cerr << \"bad\\n\"; }\n",
            "raw-stream",
        )
        expect_finding(
            "raw-stream: fprintf in library code trips",
            tmp, "src/util/fix_fprintf.cpp",
            "#include <cstdio>\n"
            "void moan() { std::fprintf(stderr, \"bad\\n\"); }\n",
            "raw-stream",
        )
        expect_clean(
            "raw-stream: tests may print",
            tmp, "tests/fix_stream_test.cpp",
            "#include <iostream>\n"
            "void report() { std::cout << \"ok\\n\"; }\n",
        )

        # ------------------------------------------------ raw-file
        expect_finding(
            "raw-file: std::ofstream outside the export writer trips",
            tmp, "src/inet/fix_file.cpp",
            "#include <fstream>\n"
            "void dump() { std::ofstream f(\"out.csv\"); f << 1; }\n",
            "raw-file",
        )
        expect_finding(
            "raw-file: fopen outside the export writer trips",
            tmp, "src/core/fix_fopen.cpp",
            "#include <cstdio>\n"
            "void dump() { std::FILE* f = std::fopen(\"out.csv\", \"w\"); (void)f; }\n",
            "raw-file",
        )
        expect_clean(
            "raw-file: the export writer and ifstream readers pass",
            tmp, "src/obs/export.cpp",
            "#include <fstream>\n"
            "void save() { std::ofstream f(\"a.csv\"); }\n"
            "void load() { std::ifstream f(\"a.csv\"); std::basic_ifstream<char> g; }\n",
        )
        expect_clean(
            "raw-file: reading elsewhere in src/ passes",
            tmp, "src/fault/fix_reader.cpp",
            "#include <fstream>\n"
            "void load() { std::ifstream f(\"plan.txt\"); }\n",
        )
        expect_clean(
            "raw-file: annotated escape hatch passes",
            tmp, "src/util/fix_csv_file.hpp",
            "#include <fstream>\n"
            "struct F {\n"
            "  // lossburst-lint: allow(raw-file): util sits below obs\n"
            "  std::ofstream file_;\n"
            "};\n",
        )
        expect_clean(
            "raw-file: tests may write files",
            tmp, "tests/fix_file_test.cpp",
            "#include <fstream>\n"
            "void fixture() { std::ofstream f(\"in.plan\"); }\n",
        )

        # ------------------------------------------------ raw-sync
        expect_finding(
            "raw-sync: std::atomic in a shim-converted file trips",
            tmp, "src/obs/live/freeze_latch.hpp",
            "#include <atomic>\n"
            "struct L { std::atomic<bool> frozen{false}; };\n",
            "raw-sync",
        )
        expect_finding(
            "raw-sync: std::mutex in a shim-converted file trips",
            tmp, "src/serve/control.hpp",
            "#include <mutex>\n"
            "struct Q { std::mutex mu; };\n",
            "raw-sync",
        )
        expect_finding(
            "raw-sync: std::atomic_thread_fence in a shim-converted file trips",
            tmp, "src/sim/epoch_handshake.hpp",
            "#include <atomic>\n"
            "void pub() { std::atomic_thread_fence(std::memory_order_release); }\n",
            "raw-sync",
        )
        expect_clean(
            "raw-sync: Sync policy aliases and memory_order vocabulary pass",
            tmp, "src/sim/shard_mailbox.hpp",
            "#include <atomic>\n"
            "#include <mutex>\n"
            "template <class Sync> struct M {\n"
            "  typename Sync::template atomic<int> n{0};\n"
            "  typename Sync::mutex mu;\n"
            "  int peek() {\n"
            "    const std::lock_guard<typename Sync::mutex> lk(mu);\n"
            "    return n.load(std::memory_order_acquire);\n"
            "  }\n"
            "};\n",
        )
        expect_clean(
            "raw-sync: same primitives outside shim files pass",
            tmp, "src/sim/shard_coordinator.hpp",
            "#include <atomic>\n"
            "#include <thread>\n"
            "struct C { std::atomic<bool> abort{false}; std::thread t; };\n",
        )
        expect_clean(
            "raw-sync: annotated escape hatch passes",
            tmp, "src/obs/live/decimator.hpp",
            "#include <thread>\n"
            "// lossburst-lint: allow(raw-sync): hardware_concurrency is a "
            "query, not a primitive\n"
            "unsigned cores() { return std::thread::hardware_concurrency(); }\n",
        )

        # ------------------------------------------------ seq-cst
        expect_finding(
            "seq-cst: defaulted load() in a datapath file trips",
            tmp, "src/util/ring_buffer.hpp",
            "#include <atomic>\n"
            "struct R { std::atomic<long> head{0}; };\n"
            "long peek(const R& r) { return r.head.load(); }\n",
            "seq-cst",
        )
        expect_finding(
            "seq-cst: single-argument store() in a datapath file trips",
            tmp, "src/sim/event_queue.hpp",
            "#include <atomic>\n"
            "struct Q { std::atomic<long> n{0}; };\n"
            "void reset(Q& q) { q.n.store(0); }\n",
            "seq-cst",
        )
        expect_clean(
            "seq-cst: explicit order passes",
            tmp, "src/net/queue.hpp",
            "#include <atomic>\n"
            "struct Q { std::atomic<long> n{0}; };\n"
            "long depth(const Q& q) { return q.n.load(std::memory_order_relaxed); }\n"
            "void reset(Q& q) { q.n.store(0, std::memory_order_release); }\n",
        )
        expect_clean(
            "seq-cst: named constexpr order counts as explicit",
            tmp, "src/net/link.hpp",
            "#include <atomic>\n"
            "constexpr auto kOrder = std::memory_order_release;\n"
            "struct L { std::atomic<long> busy{0}; };\n"
            "void publish(L& l, long v) { l.busy.store(v + f(1, 2), kOrder); }\n",
        )
        expect_clean(
            "seq-cst: defaulted order outside datapath files passes",
            tmp, "src/obs/fix_seqcst_ok.cpp",
            "#include <atomic>\n"
            "struct G { std::atomic<long> n{0}; };\n"
            "long peek(const G& g) { return g.n.load(); }\n",
        )
        expect_clean(
            "seq-cst: annotated deliberate seq_cst passes",
            tmp, "src/net/channel.hpp",
            "#include <atomic>\n"
            "struct C { std::atomic<long> gate{0}; };\n"
            "long fence_read(const C& c) {\n"
            "  // lossburst-lint: allow(seq-cst): total order against the "
            "writer's flag anchors the Dekker handshake\n"
            "  return c.gate.load();\n"
            "}\n",
        )

        # ------------------------------------------------ annotation hygiene
        expect_finding(
            "annotation: missing justification is itself a finding",
            tmp, "src/util/fix_no_why.cpp",
            "#include <chrono>\n"
            "// lossburst-lint: allow(wall-clock)\n"
            "auto t0 = std::chrono::steady_clock::now();\n",
            "wall-clock",
        )
        r = lint_fixture(
            tmp, "src/util/fix_typo.cpp",
            "// lossburst-lint: allow(wallclock): typo in the rule name\n"
            "int x = 0;\n",
        )
        check(
            "annotation: unknown rule name is an error",
            r.returncode == 1 and "[bad-annotation]" in r.stdout,
            f"  exit={r.returncode}\n  stdout: {r.stdout!r}",
        )

        # ------------------------------------------------ baseline handling
        bad = os.path.join(tmp, "src", "util", "fix_baselined.cpp")
        os.makedirs(os.path.dirname(bad), exist_ok=True)
        with open(bad, "w", encoding="utf-8") as f:
            f.write("#include <cstdlib>\nint noise() { return rand(); }\n")
        baseline = os.path.join(tmp, "baseline.txt")
        with open(baseline, "w", encoding="utf-8") as f:
            f.write("# grandfathered\nsrc/util/fix_baselined.cpp:2:wall-clock\n")
        r = run_lint(tmp, "--baseline", baseline, "--lint-file", bad)
        check(
            "baseline: grandfathered finding passes",
            r.returncode == 0,
            f"  exit={r.returncode}\n  stdout: {r.stdout!r}",
        )

        tree = tempfile.mkdtemp(prefix="lossburst_lint_tree_", dir=tmp)
        os.makedirs(os.path.join(tree, "src"))
        with open(os.path.join(tree, "src", "clean.cpp"), "w", encoding="utf-8") as f:
            f.write("int x = 0;\n")
        stale = os.path.join(tree, "baseline.txt")
        with open(stale, "w", encoding="utf-8") as f:
            f.write("src/gone.cpp:1:wall-clock\n")
        r = run_lint(tree, "--baseline", stale)
        check(
            "baseline: stale entry fails a full-tree scan",
            r.returncode == 1 and "stale baseline" in r.stdout,
            f"  exit={r.returncode}\n  stdout: {r.stdout!r}",
        )

    # ------------------------------------------------ the real tree is clean
    if args.root:
        r = run_lint(args.root)
        check(
            "real tree lints clean",
            r.returncode == 0,
            f"  exit={r.returncode}\n  stdout: {r.stdout!r}\n  stderr: {r.stderr!r}",
        )

    print(f"\n{PASSED} passed, {len(FAILED)} failed")
    if FAILED:
        for name in FAILED:
            print(f"  failed: {name}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
