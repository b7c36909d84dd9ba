"""Graph families, the four workloads, and the answers each case must give.

Every graph is built in a canonical form: vertices are numbered so that
names sorted by number follow the edges wherever the graph allows it (as a
hand-written ``v1 -> v2`` file does), and each family knows its structure:
which vertices are forked, how many weak components it has, whether it is
unilaterally or strongly connected, and which vertex sets carry cycles.
Expected answers are worked out here from that structure and from the
definitions of the paper, never by calling gislat.  Only the cover counts
of lattices have no closed form here; they were recorded from the seed
commit and are listed in ``SEED_COVERS``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass


@dataclass(frozen=True)
class Shape:
    """A canonical graph and the structural facts its answers follow from."""

    name: str
    n: int
    edges: tuple[tuple[int, int], ...]
    cycles: tuple[frozenset[int], ...] = ()  # source sets of the simple cycles
    acyclic: bool = True
    forked: frozenset[int] = frozenset()
    weak_components: int = 1
    unilateral: bool = False
    strong: bool = False
    triples: int | None = None  # closed-form triple count, where known

    def summary(self) -> dict:
        """The ``graph`` block of ``classify --json``."""
        degree = [0] * self.n
        for s, _ in self.edges:
            degree[s] += 1
        return {
            "vertices": self.n,
            "edges": len(self.edges),
            "acyclic": self.acyclic,
            "weak_components": self.weak_components,
            "weakly_connected": self.weak_components <= 1,
            "unilaterally_connected": self.unilateral,
            "strongly_connected": self.strong,
            "max_out_degree": max(degree, default=0),
        }


def chain(k: int) -> Shape:
    return Shape(
        f"chain{k}", k, tuple((i, i + 1) for i in range(k - 1)),
        unilateral=True, strong=k == 1,
    )


def fan(k: int) -> Shape:
    """One centre with ``k`` out-edges to ``k`` sinks; ``fan2`` is the
    paper's gamma1."""
    return Shape(
        f"fan{k}", k + 1, tuple((0, i) for i in range(1, k + 1)),
        forked=frozenset({0}) if k >= 2 else frozenset(), unilateral=k <= 1,
    )


def gamma2() -> Shape:
    """The paper's gamma2: v -> u and two parallel edges v -> w."""
    return Shape("gamma2", 3, ((0, 1), (0, 2), (0, 2)))


def binary_tree() -> Shape:
    """Depth-2 binary tree: every inner vertex is forked."""
    return Shape(
        "tree2", 7, ((0, 1), (0, 2), (1, 3), (1, 4), (2, 5), (2, 6)),
        forked=frozenset({0, 1, 2}),
    )


def union3() -> Shape:
    """gamma1 + chain3 + chain3: the lattice is the product 7 * 8 * 8."""
    return Shape(
        "union3", 9, ((0, 1), (0, 2), (3, 4), (4, 5), (6, 7), (7, 8)),
        forked=frozenset({0}), weak_components=3,
    )


def tournament(n: int) -> Shape:
    """Transitive tournament: i -> j for every i < j.  Only its n + 1
    suffixes are hereditary, so the lattice has 2n elements while the
    hereditary search examines 2^n vertex masks."""
    return Shape(
        f"tournament{n}", n, tuple((a, b) for a in range(n) for b in range(a + 1, n)),
        unilateral=True, strong=n == 1, triples=2 * n,
    )


def loops(k: int) -> Shape:
    return Shape(
        f"loops{k}", k, tuple((i, i) for i in range(k)),
        cycles=tuple(frozenset({i}) for i in range(k)), acyclic=False,
        weak_components=k, unilateral=k == 1, strong=k == 1,
    )


def fork_over_loops() -> Shape:
    """A forked vertex whose two sinks carry loops."""
    return Shape(
        "forkloops", 3, ((0, 1), (0, 2), (1, 1), (2, 2)),
        cycles=(frozenset({1}), frozenset({2})), acyclic=False, forked=frozenset({0}),
    )


def looped_chain(k: int) -> Shape:
    edges = tuple((i, i + 1) for i in range(k - 1)) + tuple((i, i) for i in range(k))
    return Shape(
        f"loopchain{k}", k, edges,
        cycles=tuple(frozenset({i}) for i in range(k)), acyclic=False,
        unilateral=True, strong=k == 1,
    )


def linked_rings() -> Shape:
    """Two 3-rings joined by one edge from the first to the second."""
    return Shape(
        "rings2x3", 6, ((0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 5), (5, 3)),
        cycles=(frozenset({0, 1, 2}), frozenset({3, 4, 5})), acyclic=False,
        unilateral=True,
    )


def complete(n: int) -> Shape:
    return Shape(
        f"complete{n}", n, tuple((a, b) for a in range(n) for b in range(n) if a != b),
        acyclic=n < 2, unilateral=True, strong=True,
    )


def grid(rows: int, cols: int) -> Shape:
    """Grid DAG with right and down edges; every vertex with both is forked."""
    edges = []
    for i in range(rows):
        for j in range(cols):
            if i + 1 < rows:
                edges.append((i * cols + j, (i + 1) * cols + j))
            if j + 1 < cols:
                edges.append((i * cols + j, i * cols + j + 1))
    forked = frozenset(i * cols + j for i in range(rows - 1) for j in range(cols - 1))
    return Shape(
        f"grid{rows}x{cols}", rows * cols, tuple(edges), forked=forked,
        unilateral=rows == 1 or cols == 1, strong=rows * cols == 1,
    )


def ring(n: int) -> Shape:
    return Shape(
        f"ring{n}", n, tuple((i, (i + 1) % n) for i in range(n)),
        acyclic=False, unilateral=True, strong=True,
    )


# ---------------------------------------------------------------- answers


def divisor_count(n: int) -> int:
    """Number of divisors, from the prime factorisation."""
    count, p = 1, 2
    while p * p <= n:
        e = 0
        while n % p == 0:
            n //= p
            e += 1
        count *= e + 1
        p += 1
    return count * (2 if n > 1 else 1)


def count_triples(shape: Shape, bound: int | None) -> int:
    """Number of congruence triples straight from the definition: sum over
    hereditary H of sum over W within the index-1 vertices outside H of
    (values)^(cycles whose sources lie in W), where a free cycle takes one
    of the divisors of the bound or inf.  Exponential in the vertex count,
    so used for small shapes only."""
    values = divisor_count(bound) + 1 if bound else 1
    out: list[list[int]] = [[] for _ in range(shape.n)]
    for s, d in shape.edges:
        out[s].append(d)
    total = 0
    for h in range(1 << shape.n):
        if any(h >> s & 1 and not h >> d & 1 for s, d in shape.edges):
            continue
        ones = [
            v for v in range(shape.n)
            if not h >> v & 1 and sum(1 for d in out[v] if not h >> d & 1) == 1
        ]
        for pick in range(1 << len(ones)):
            w = {v for i, v in enumerate(ones) if pick >> i & 1}
            total += values ** sum(1 for c in shape.cycles if c <= w)
    return total


def lattice_size(shape: Shape, bound: int | None) -> int:
    return shape.triples or count_triples(shape, bound)


def semigroup_size(shape: Shape) -> int:
    """|S| = 1 + sum over v of (number of paths ending at v)^2, for an
    acyclic shape whose edges run from lower to higher numbers."""
    ending = [1] * shape.n
    for s, d in sorted(shape.edges, key=lambda e: e[1]):
        ending[d] += ending[s]
    return 1 + sum(x * x for x in ending)


def predicted(shape: Shape) -> dict:
    calm = not shape.forked
    return {
        "distributive": calm,
        "modular": calm,
        "lower_semimodular": calm,
        "upper_semimodular": True,
    }


# Cover counts of the lattices the workloads dump, recorded from the seed
# commit's ``lattice --json`` output (key: shape name and bound).  Several
# agree with closed forms: k * 2^(k-1) for chain k (a Boolean lattice),
# 3n - 2 for tournament n, and the product rule for disjoint loops.
SEED_COVERS: dict[tuple[str, int | None], int] = {
    ("fan5", None): 91,
    ("fan6", None): 205,
    ("fan7", None): 463,
    ("tree2", None): 157,
    ("chain7", None): 448,
    ("chain8", None): 1024,
    ("tournament14", None): 40,
    ("tournament15", None): 43,
    ("tournament16", None): 46,
    ("loopchain3", 12): 30,
    ("loopchain4", 6): 28,
    ("rings2x3", 60): 250,
    ("loops2", 12): 180,
    ("loops2", 60): 690,
    ("forkloops", 60): 765,
    ("loops1", 10_000_000): 115,
}


# ------------------------------------------------------------ cases


@dataclass(frozen=True)
class Case:
    """One CLI invocation: ``gislat <command> FILE --json [flags]``."""

    shape: Shape
    command: str
    enumerate: bool = False
    bound: int | None = None
    dot: bool = False

    @property
    def label(self) -> str:
        return " ".join(self._flags(self.command, self.shape.name, "<dot>"))

    def argv(self, path: str, dot_path: str) -> list[str]:
        return self._flags(self.command, path, dot_path) + ["--json"]

    def _flags(self, command: str, path: str, dot_path: str) -> list[str]:
        out = [command, path]
        if self.enumerate:
            out.append("--enumerate")
        if self.bound:
            out += ["--bound", str(self.bound)]
        if self.dot:
            out += ["--dot", dot_path]
        return out

    def expected(self) -> dict:
        """Label-independent answers; vertex names are mapped per run."""
        s = self.shape
        exp: dict = {"exit": 0, "forked": s.forked}
        if self.command == "classify":
            exp["graph"] = s.summary()
            exp["predicted"] = predicted(s)
            if self.enumerate:
                exp["size"] = lattice_size(s, self.bound)
                exp["verdicts"] = predicted(s)
                exp["bounded"] = not s.acyclic
        elif self.command == "lattice":
            exp["size"] = lattice_size(s, self.bound)
            exp["verdicts"] = predicted(s)
            exp["bounded"] = not s.acyclic
            exp["covers"] = SEED_COVERS[s.name, self.bound]
        elif self.command == "semigroup":
            exp["semigroup_size"] = semigroup_size(s)
        elif self.command == "oracle":
            exp["semigroup_size"] = semigroup_size(s)
            exp["triples"] = lattice_size(s, None)
        return exp


def _both(shape: Shape, bound: int | None = None, dot: bool = False) -> list[Case]:
    return [Case(shape, "classify", True, bound), Case(shape, "lattice", False, bound, dot)]


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    nominal_pass_s: float  # one pass at the seed on a 2-core x86 box
    cases: tuple[Case, ...]

    @property
    def smoke(self) -> Case:
        """The smallest case; cases are listed cheapest first."""
        return self.cases[0]

    def smoke_only(self) -> "Workload":
        return Workload(self.name, self.why, float("inf"), (self.smoke,))

    def passes(self, seconds: float) -> int:
        """A fixed amount of work per run: both commits of a comparison
        measure the same passes, so percentiles rest on equal sample counts
        and the output digest covers the same inputs."""
        return max(1, round(seconds / self.nominal_pass_s))


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "lattice_core",
            "triple lattices built and classified: exact ones of acyclic graphs and bounded probes of cyclic ones",
            9.6,
            (
                # Exact lattices of acyclic graphs: order, tables, verdicts,
                # witnesses.  The tournaments make hereditary_subsets
                # examine 2^n masks while the lattice has 2n elements.
                *_both(fan(5)), *_both(fan(6)), *_both(fan(7), dot=True),
                *_both(binary_tree(), dot=True),
                *_both(chain(7), dot=True), *_both(chain(8)),
                # Two more rounds of classify chain7 put the median latency
                # inside one cluster of samples, not between two cases; two
                # more cheap commands keep that cluster centred on it.
                *(Case(chain(7), "classify", True) for _ in range(2)),
                *(Case(fan(5), "classify", True) for _ in range(2)),
                Case(union3(), "classify", True),
                *_both(tournament(14)), *_both(tournament(15)), *_both(tournament(16), dot=True),
                # Bounded probes: leq compares cycle values by divisibility
                # and divisors does trial division.
                *_both(looped_chain(3), 12), *_both(looped_chain(4), 6),
                *_both(linked_rings(), 60, dot=True),
                *_both(loops(2), 12), *_both(loops(2), 60),
                *_both(fork_over_loops(), 60),
                Case(loops(3), "classify", True, 6),
                *_both(loops(1), 10_000_000),
                # A second round of the command just below the largest puts
                # the tail (11th largest latency) inside its cluster.
                Case(loops(1), "classify", True, 10_000_000),
            ),
        ),
        Workload(
            "lattice_bypass",
            "commands that build no large triple lattice: structural scans of large graphs and the brute-force oracle",
            6.3,
            (
                # The cheap paths that must stay polynomial.
                *(
                    Case(s, "forked")
                    for s in (complete(8), complete(9), grid(10, 10), grid(11, 11), ring(900),
                              ring(1200), grid(20, 20))
                ),
                *(Case(grid(30, 30), "forked") for _ in range(4)),
                *(Case(complete(8), "classify") for _ in range(4)),
                *(
                    Case(s, "classify")
                    for s in (complete(9), grid(10, 10), grid(11, 11), ring(900), ring(1200))
                ),
                # Brute-force congruences against triples.  Three rounds
                # of oracle fan3 put the median inside one cluster.
                *(Case(s, "oracle") for s in (fan(2), gamma2(), fan(4), chain(4))),
                *(Case(fan(3), "oracle") for _ in range(3)),
                *(Case(s, "semigroup") for s in (fan(4), chain(4), chain(5), binary_tree())),
            ),
        ),
    )
}


# ------------------------------------------------------------ inputs


def render(shape: Shape, rng: random.Random) -> tuple[str, list[str]]:
    """Graph file text under a fresh relabeling and declaration order.

    Names are drawn at random but assigned in canonical order, so they stay
    sorted along the edges; only the declaration order is shuffled."""
    vnames = [f"v{x:06d}" for x in sorted(rng.sample(range(10**6), shape.n))]
    enames = [f"e{x:06d}" for x in sorted(rng.sample(range(10**6), len(shape.edges)))]
    vlines = [f"vertex {v}" for v in vnames]
    elines = [
        f"edge {name} {vnames[s]} {vnames[d]}"
        for name, (s, d) in zip(enames, shape.edges)
    ]
    rng.shuffle(vlines)
    rng.shuffle(elines)
    return "\n".join(vlines + elines) + "\n", vnames
