"""Self-test of the benchmark's checking, run by ``run.py --self-test``.

1. The reference oracles agree with brute force on small random graphs.
2. For every workload, a short run in which one answer row of one
   operation is dropped reports exactly that operation as failed.
"""

from __future__ import annotations

import json
import random
import subprocess
import sys
from pathlib import Path

import workloads as W

HERE = Path(__file__).resolve().parent


def brute_walks(n, edges, length):
    pairs = {(a, b) for a, b in edges}
    for _ in range(length - 1):
        pairs = {(x, y) for x, z in pairs for z2, y in edges if z == z2}
    return sorted(pairs)


def brute_closure(n, edges):
    reach = [[False] * n for _ in range(n)]
    for a, b in edges:
        reach[a][b] = True
    for k in range(n):
        for i in range(n):
            if reach[i][k]:
                for j in range(n):
                    reach[i][j] = reach[i][j] or reach[k][j]
    return [(i, j) for i in range(n) for j in range(n) if reach[i][j]]


def check_oracles() -> None:
    rng = random.Random(7)
    for trial in range(30):
        n = rng.randrange(2, 12)
        edges = W.random_digraph(rng, n, rng.randrange(1, 3))
        assert W.walks(n, edges, 4) == brute_walks(n, edges, 4), trial
        assert W.closure(n, edges) == brute_closure(n, edges), trial
        sources = sorted(rng.sample(range(n), 1))
        closure = brute_closure(n, edges)
        want = sorted({(s,) for s in sources} | {(y,) for x, y in closure if x in sources})
        assert W.reachable(n, edges, sources) == want, trial
    path = W.chorded_path(rng, 40)
    assert W.closure(40, path) == [(i, j) for i in range(40) for j in range(i + 1, 40)]
    rows = W.walks(20, W.random_digraph(rng, 20, 3), 4)
    assert W.digest(rows) != W.digest(rows[1:])


def check_drop_detected(workload: str) -> None:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", "1", "--seconds", "2", "--trace", "0", "--drop-row-op", "1"],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["attempted"] >= 2, result
    assert result["failed"] == 1 and result["correct"] is False, result
    print(f"selftest: {workload}: dropped row detected "
          f"({result['failed']}/{result['attempted']} failed)")


def main() -> int:
    check_oracles()
    print("selftest: reference oracles agree with brute force")
    for workload in ("eval-fo3", "eval-fp3", "serve-read", "serve-mutate"):
        check_drop_detected(workload)
    print("selftest: OK")
    return 0
