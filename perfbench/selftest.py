#!/usr/bin/env python3
"""Self-test of the benchmark's output check and contract (README.md).

    python3 perfbench/selftest.py

1. The recorded golden digests pass: fec_stream at its recorded seed
   reports every operation attempted and none failed, and exits 0.
2. A wrong golden digest fails every operation it covers: the same run with
   every fec_stream digest altered reports failed == attempted, "correct":
   false, and exits non-zero.
3. A directory holding only BENCHMARK.json and perfbench/ (no library
   sources) exits non-zero without printing a result.
"""

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SCRATCH = os.path.join(ROOT, ".bench_build", "selftest")


def bench(golden, seed, cwd=ROOT, script=None):
    cmd = [sys.executable, script or os.path.join(HERE, "run.py"), "--workload", "fec_stream",
           "--seed", str(seed), "--seconds", "1", "--trace", "0", "--golden", golden]
    proc = subprocess.run(cmd, cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                          text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    return proc.returncode, result


def main():
    failures = []

    def expect(cond, what):
        print(("ok    " if cond else "FAIL  ") + what)
        if not cond:
            failures.append(what)

    with open(os.path.join(HERE, "golden.json")) as f:
        golden = json.load(f)
    seed = golden["fec_stream"]["seed"]

    shutil.rmtree(SCRATCH, ignore_errors=True)
    os.makedirs(SCRATCH)
    code, result = bench(os.path.join(HERE, "golden.json"), seed)
    expect(code == 0 and result is not None and result["correct"] and result["failed"] == 0
           and result["attempted"] > 0, f"recorded digests pass (exit {code}, {result and {k: result[k] for k in ('attempted', 'failed')}})")

    wrong = json.loads(json.dumps(golden))
    digests = wrong["fec_stream"]["digests"]
    for label, digest in digests.items():
        digests[label] = format(int(digest, 16) ^ 1, "016x")
    wrong_path = os.path.join(SCRATCH, "wrong-golden.json")
    with open(wrong_path, "w") as f:
        json.dump(wrong, f)
    code, result = bench(wrong_path, seed)
    expect(code != 0 and result is not None and not result["correct"]
           and result["attempted"] > 0 and result["failed"] == result["attempted"],
           f"a wrong digest fails every operation (exit {code}, {result and {k: result[k] for k in ('attempted', 'failed')}})")

    bare = os.path.join(SCRATCH, "bare")
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    code, result = bench(os.path.join(bare, "perfbench", "golden.json"), seed, cwd=bare,
                         script=os.path.join(bare, "perfbench", "run.py"))
    expect(code != 0 and result is None, f"without library sources: exit {code}, no result")

    shutil.rmtree(SCRATCH, ignore_errors=True)
    print("selftest: " + ("FAILED" if failures else "passed"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
