"""Inputs, query texts and reference answers for the four workloads.

Everything here is plain Python and imports nothing from ``repro``: the
graphs are generated from the run's ``--seed``, handed to the program
only as standard encodings (Section 2.1) or HTTP bodies, and every
answer the program returns is checked against a reference computed here
by a different algorithm (bitset walks, breadth-first search).
"""

from __future__ import annotations

import hashlib
import random
from collections import deque
from typing import Dict, List, Sequence, Tuple

Edge = Tuple[int, int]
Row = Tuple[int, ...]

#: x ->^4 y with three variables, reusing x and z as in Prop 3.1:
#: phi_1 = E(x, y), phi_{m+1} = exists z. (E(x, z) & exists x. (x = z & phi_m)).
FO3_QUERY = (
    "exists z. (E(x, z) & exists x. (x = z & "
    "exists z. (E(x, z) & exists x. (x = z & "
    "exists z. (E(x, z) & exists x. (x = z & E(x, y)))))))"
)
FO3_OUT = ("x", "y")

#: Transitive closure, the FP^3 query of the Table 2 FP sweeps.
TC_QUERY = "[lfp S(x, y). E(x, y) | exists z. (E(x, z) & S(z, y))](u, v)"
TC_OUT = ("u", "v")

#: Reachability from the labelled sources P, an FP^2 query.
REACH_QUERY = "[lfp S(x). P(x) | exists y. (E(y, x) & S(y))](u)"
REACH_OUT = ("u",)

#: Graph sizes.  Each is large enough that the n^k work of the layer the
#: workload targets dominates one operation (see perfbench/README.md).
#: Eval operations cycle through a seeded order of every size in the
#: range, so each run sees the same mix of sizes and the spread of
#: operation costs is wide and smooth rather than one narrow peak.
FO3_SIZES, FO3_DEGREE = range(96, 129, 4), 3
FP3_SIZES = range(56, 89, 4)
READ_N, READ_DEGREE = 1500, 8
MUTATE_N, MUTATE_DEGREE = 500, 8
SERVE_DBS = 4


def op_rng(seed: int, stream: str, index: int) -> random.Random:
    """An independent generator per (seed, stream, index): inputs do not
    depend on how many other inputs were drawn before them."""
    return random.Random(f"{seed}:{stream}:{index}")


def random_digraph(rng: random.Random, n: int, degree: int) -> List[Edge]:
    """``n * degree`` distinct uniform random edges, sorted."""
    edges = set()
    while len(edges) < n * degree:
        edges.add((rng.randrange(n), rng.randrange(n)))
    return sorted(edges)


def chorded_path(rng: random.Random, n: int) -> List[Edge]:
    """A path 0 -> 1 -> ... -> n-1 plus n/8 forward chords a -> a+2.

    Each chord shortens the diameter by at most one step, so transitive
    closure still needs about n rounds of small deltas.
    """
    edges = {(i, i + 1) for i in range(n - 1)}
    starts = rng.sample(range(n - 2), n // 8)
    edges.update((a, a + 2) for a in starts)
    return sorted(edges)


def labelled_sources(rng: random.Random, n: int) -> List[int]:
    """The 1% of vertices labelled ``P`` (at least one)."""
    return sorted(rng.sample(range(n), max(1, n // 100)))


def encode(n: int, relations: Dict[str, Sequence[Row]]) -> str:
    """The standard encoding: values as fixed-width binary indices."""
    width = max(1, (n - 1).bit_length())
    bits = [format(i, f"0{width}b") for i in range(n)]
    parts = ["{" + ",".join(bits) + "}"]
    for name, rows in relations.items():
        arity = len(rows[0]) if rows else 0
        body = ",".join(
            "<" + ",".join(bits[v] for v in row) + ">" for row in rows
        )
        parts.append(f"{name}:{arity}:{{{body}}}")
    return "(" + ";".join(parts) + ")"


# -- eval workloads ---------------------------------------------------------


def eval_graph(
    workload: str, seed: int, stream: str, index: int
) -> Tuple[int, List[Edge]]:
    """The domain size and edges of one eval operation's graph.

    Warm-up graphs all have the middle size, so set-up does the same
    work whatever the seed.
    """
    sizes = list(FO3_SIZES if workload == "eval-fo3" else FP3_SIZES)
    if stream == "warmup":
        n = sizes[len(sizes) // 2]
    else:
        op_rng(seed, f"{workload}:sizes", 0).shuffle(sizes)
        n = sizes[index % len(sizes)]
    rng = op_rng(seed, f"{workload}:{stream}", index)
    if workload == "eval-fo3":
        return n, random_digraph(rng, n, FO3_DEGREE)
    return n, chorded_path(rng, n)


def eval_input(workload: str, seed: int, stream: str, index: int) -> str:
    """The encoded database of one eval operation."""
    n, edges = eval_graph(workload, seed, stream, index)
    return encode(n, {"E": edges})


def eval_reference(workload: str, seed: int, index: int) -> List[Row]:
    """The expected sorted rows of timed eval operation ``index``."""
    n, edges = eval_graph(workload, seed, "timed", index)
    if workload == "eval-fo3":
        return walks(n, edges, 4)
    return closure(n, edges)


def successors(n: int, edges: Sequence[Edge]) -> List[List[int]]:
    out: List[List[int]] = [[] for _ in range(n)]
    for a, b in edges:
        out[a].append(b)
    return out


def walks(n: int, edges: Sequence[Edge], length: int) -> List[Row]:
    """Pairs joined by a walk of exactly ``length`` edges, via bitsets:
    ``reach_{m+1}[x] = OR of reach_m[z] over the successors z of x``."""
    succ = successors(n, edges)
    reach = [0] * n
    for a, b in edges:
        reach[a] |= 1 << b
    for _ in range(length - 1):
        step = [0] * n
        for x in range(n):
            acc = 0
            for z in succ[x]:
                acc |= reach[z]
            step[x] = acc
        reach = step
    return [
        (x, y) for x in range(n) for y in range(n) if reach[x] >> y & 1
    ]


def bfs(succ: Sequence[Sequence[int]], starts: Sequence[int]) -> List[int]:
    """Vertices reachable from ``starts`` (the starts included), sorted."""
    seen = set(starts)
    queue = deque(starts)
    while queue:
        v = queue.popleft()
        for w in succ[v]:
            if w not in seen:
                seen.add(w)
                queue.append(w)
    return sorted(seen)


def closure(n: int, edges: Sequence[Edge]) -> List[Row]:
    """Transitive closure: pairs joined by a path of one or more edges."""
    succ = successors(n, edges)
    return [
        (x, y) for x in range(n) for y in bfs(succ, succ[x])
    ]


def reachable(n: int, edges: Sequence[Edge], sources: Sequence[int]) -> List[Row]:
    """Unary reachability from the labelled sources."""
    return [(v,) for v in bfs(successors(n, edges), sources)]


def digest(rows: Sequence[Row]) -> str:
    """A short fingerprint of a sorted answer, compared across processes."""
    return hashlib.blake2b(repr(list(rows)).encode(), digest_size=16).hexdigest()


# -- serve workloads --------------------------------------------------------


class ServeDb:
    """One served graph: its encoding, its edges and its sources."""

    def __init__(self, name: str, n: int, edges: List[Edge], sources: List[int]):
        self.name = name
        self.n = n
        self.edges = edges
        self.sources = sources

    def encoding(self) -> str:
        return encode(
            self.n, {"E": self.edges, "P": [(v,) for v in self.sources]}
        )

    def answer(self) -> List[Row]:
        return reachable(self.n, self.edges, self.sources)


def serve_dbs(workload: str, seed: int) -> List[ServeDb]:
    n, degree = (
        (READ_N, READ_DEGREE) if workload == "serve-read"
        else (MUTATE_N, MUTATE_DEGREE)
    )
    dbs = []
    for i in range(SERVE_DBS):
        rng = op_rng(seed, f"{workload}:db", i)
        edges = random_digraph(rng, n, degree)
        dbs.append(ServeDb(f"g{i}", n, edges, labelled_sources(rng, n)))
    return dbs


class MutationLog:
    """The pre-drawn mutations of one database, in the order applied.

    Mutation ``j`` adds a fresh random edge when ``j`` is even and removes
    a random existing edge when ``j`` is odd, so the edge count stays
    within one of its start.  :meth:`answers` replays the log.
    """

    def __init__(self, db: ServeDb, seed: int, count: int):
        rng = op_rng(seed, f"mutate:{db.name}", 0)
        current = list(db.edges)
        present = set(current)
        self.ops: List[Tuple[str, Edge]] = []
        for j in range(count):
            if j % 2 == 0:
                while True:
                    edge = (rng.randrange(db.n), rng.randrange(db.n))
                    if edge not in present:
                        break
                present.add(edge)
                current.append(edge)
                self.ops.append(("add", edge))
            else:
                k = rng.randrange(len(current))
                edge = current[k]
                current[k] = current[-1]
                current.pop()
                present.discard(edge)
                self.ops.append(("remove", edge))
        self.db = db

    def answers(self, count: int) -> List[List[Row]]:
        """The expected answer after each of the first ``count`` mutations."""
        present = set(self.db.edges)
        out = []
        for op, edge in self.ops[:count]:
            if op == "add":
                present.add(edge)
            else:
                present.discard(edge)
            out.append(reachable(self.db.n, present, self.db.sources))
        return out
