"""Congruence triples (H, W, f) over a directed graph.

A triple consists of a hereditary vertex set H, a set W of vertices of
index 1 relative to H, and an assignment f of values in Z+ ∪ {inf} to
cycles.  Values are forced on most cycles (1 inside H, inf outside H and
W), so only the free cycles (those whose sources all lie in W) are
stored; this makes triple equality a plain component comparison.

Triples are ordered by H-containment, W-containment outside the larger H,
and reverse divisibility of cycle values.  The closed-form meet and join
computed here are cross-checked elsewhere against the poset-theoretic
bounds of the enumerated order, which is the central correctness test of
the whole package.

H, W and f split by weak component, so the triple lattice of a graph of
several components is the direct product of theirs:
:func:`component_lattices` builds one small lattice per component, and
:func:`product_coordinates` places each of the graph's triples in them.
A graph's refusals, hereditary sets and free-cycle values are decided
once, by :func:`_refusals`; :func:`_triples` only lists, from vertex bitmasks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from itertools import combinations, islice, product

import numpy as np

from .graph import (
    Cycle,
    DirectedGraph,
    LimitError,
    enumerate_cycles,
    hereditary_subsets,
    index_relative,
    is_acyclic,
    weak_component_subgraphs,
)

TRIPLE_CAP = 4096  # chain12 (2^12 triples) still fits
BOUND_CAP = 10**12  # trial division up to √BOUND_CAP takes well under a second


class UnboundedLatticeError(LimitError):
    """Triple enumeration over a cyclic graph needs an explicit bound."""


class LatticeTooLargeError(LimitError):
    """More triples than :data:`TRIPLE_CAP` to build a lattice from, or a
    cycle-value bound past :data:`BOUND_CAP`."""


class _Infinity:
    """The distinguished value divisible by everything."""

    __slots__ = ()

    def __repr__(self) -> str:
        return "inf"


INF = _Infinity()

ExtNat = int | _Infinity


def ext_divides(a: ExtNat, b: ExtNat) -> bool:
    """a divides b; every value divides inf, inf divides only inf."""
    if b is INF:
        return True
    if a is INF:
        return False
    return b % a == 0


def ext_gcd(a: ExtNat, b: ExtNat) -> ExtNat:
    if a is INF:
        return b
    if b is INF:
        return a
    return math.gcd(a, b)


def ext_lcm(a: ExtNat, b: ExtNat) -> ExtNat:
    if a is INF or b is INF:
        return INF
    return math.lcm(a, b)


def render_ext(v: ExtNat) -> str:
    return "inf" if v is INF else str(v)


@dataclass(frozen=True)
class CycleFunction:
    """Explicit cycle values, keyed by canonical cycles (free cycles only)."""

    entries: tuple[tuple[Cycle, ExtNat], ...] = ()

    @staticmethod
    def of(items) -> "CycleFunction":
        return CycleFunction(tuple(sorted(dict(items).items(), key=lambda cv: cv[0].sort_key())))

    @cached_property
    def _table(self) -> dict[Cycle, ExtNat]:
        return dict(self.entries)

    def get(self, c: Cycle) -> ExtNat | None:
        return self._table.get(c)


EMPTY_CYCLE_FUNCTION = CycleFunction()


@dataclass(frozen=True)
class CongruenceTriple:
    """(H, W, f): hereditary set, index-1 selection, free-cycle values."""

    H: frozenset[str]
    W: frozenset[str]
    f: CycleFunction = field(default=EMPTY_CYCLE_FUNCTION)

    def cycle_value(self, c: Cycle) -> ExtNat:
        """The full cycle function: 1 inside H, the stored value on free
        cycles, inf everywhere else."""
        if c.source_set <= self.H:
            return 1
        if c.source_set <= self.W:
            v = self.f.get(c)
            if v is None:
                raise LookupError(f"no value stored for free cycle {'.'.join(c.edges)}")
            return v
        return INF


def leq(g: DirectedGraph, t1: CongruenceTriple, t2: CongruenceTriple) -> bool:
    """t1 <= t2 iff H1 ⊆ H2, W1 \\ H2 ⊆ W2, and f2(c) divides f1(c) on
    every cycle.

    Only t1's stored free cycles need the divisibility check: on a cycle
    inside neither H1 nor W1, f1 is inf, which everything divides, and on
    a cycle inside H1 ⊆ H2 both f1 and f2 are 1."""
    if not t1.H <= t2.H:
        return False
    if not t1.W - t2.H <= t2.W:
        return False
    return all(ext_divides(t2.cycle_value(c), v) for c, v in t1.f.entries)


def leq_matrix(g: DirectedGraph, ts: tuple[CongruenceTriple, ...]) -> np.ndarray:
    """``m[i, j] = leq(g, ts[i], ts[j])``, broadcast over H and W as vertex
    bitmasks (one per distinct set) in row blocks and gathered, per cycle stored
    in some triple, from one int64 ``%`` table of its distinct full values.  A
    cycle stored in no triple is 1 inside H and inf elsewhere: one inside H1
    but not H2 fails the H test anyway, and inf is divisible by everything."""
    bit = {v: 1 << i for v, i in g.vertex_index.items()}
    mask = {s: sum(map(bit.__getitem__, s)) for s in {s for t in ts for s in (t.H, t.W)}}
    h = np.array([mask[t.H] for t in ts], dtype=np.int32)  # at most 20 vertices
    w = np.array([mask[t.W] for t in ts], dtype=np.int32)
    m, outside = np.empty((len(ts), len(ts)), dtype=bool), ~(h | w)
    step = max(1, (1 << 16) // max(1, len(ts)))
    for s in range(0, len(ts), step):
        hs, ws = h[s : s + step, None], w[s : s + step, None]
        m[s : s + step] = ((hs & ~h) == 0) & ((ws & outside) == 0)
    for c in dict.fromkeys(c for t in ts for c, _ in t.f.entries):
        full = np.array([0 if (v := t.cycle_value(c)) is INF else v for t in ts], dtype=np.int64)
        a, k = np.unique(full, return_inverse=True)  # inf coded 0; values at most BOUND_CAP
        # multiple[x, y]: a[y] divides a[x]; inf is a multiple of all and divides only inf
        multiple = (a[:, None] == 0) | ((a != 0) & (a[:, None] % np.maximum(a, 1) == 0))
        m &= multiple[k].take(k, axis=1)  # f_j divides f_i
    return m


@dataclass(frozen=True)
class SetTrace:
    """Auxiliary vertex sets for a pair of triples.

    V0: vertices of (W1 ∪ W2) \\ (H1 ∪ H2) whose every out-edge lands in
    H1 ∪ H2.  X: the part of W1 ∩ W2 outside V0.  J: vertices that reach
    V0 by a path whose edge sources all stay in W1 ∪ W2 (trivial paths
    included, so V0 ⊆ J).
    """

    V0: frozenset[str]
    X: frozenset[str]
    J: frozenset[str]


def set_trace(g: DirectedGraph, t1: CongruenceTriple, t2: CongruenceTriple) -> SetTrace:
    union_w = t1.W | t2.W
    union_h = t1.H | t2.H
    candidates = union_w - union_h
    v0 = frozenset(v for v in candidates if index_relative(g, v, union_h) == 0)
    x = (t1.W & t2.W) - v0

    reach = set(v0)
    changed = True
    while changed:
        changed = False
        for e in g.edges:
            if e.src in union_w and e.dst in reach and e.src not in reach:
                reach.add(e.src)
                changed = True
    j = frozenset(reach & candidates)
    return SetTrace(V0=v0, X=x, J=j)


def _cycles_within(g: DirectedGraph, vs) -> tuple[Cycle, ...]:
    """:func:`enumerate_cycles` of the subgraph that the vertices ``vs``
    induce, in the order given; none, and no subgraph, if g is acyclic."""
    if is_acyclic(g):
        return ()
    inside = frozenset(vs)
    edges = tuple(e for v in vs for e in g.out_edges[v] if e.dst in inside)
    return enumerate_cycles(DirectedGraph(tuple(vs), edges))


def _combined_values(g, t1, t2, w, combine) -> CycleFunction:
    """The free cycles' values of a meet or join whose W is ``w``: both keep
    W outside H, so every cycle inside W is free."""
    return CycleFunction.of(
        (c, combine(t1.cycle_value(c), t2.cycle_value(c))) for c in _cycles_within(g, sorted(w))
    )


def meet(g: DirectedGraph, t1: CongruenceTriple, t2: CongruenceTriple) -> CongruenceTriple:
    """Greatest lower bound: H1 ∩ H2, (W1 ∩ H2) ∪ (W2 ∩ H1) ∪ X, lcm of
    cycle values."""
    h = t1.H & t2.H
    trace = set_trace(g, t1, t2)
    w = (t1.W & t2.H) | (t2.W & t1.H) | trace.X
    return CongruenceTriple(h, w, _combined_values(g, t1, t2, w, ext_lcm))


def join(g: DirectedGraph, t1: CongruenceTriple, t2: CongruenceTriple) -> CongruenceTriple:
    """Least upper bound: H1 ∪ H2 ∪ J, the rest of W1 ∪ W2, gcd of cycle
    values."""
    trace = set_trace(g, t1, t2)
    h = t1.H | t2.H | trace.J
    w = (t1.W | t2.W) - h
    return CongruenceTriple(h, w, _combined_values(g, t1, t2, w, ext_gcd))


def divisors(n: int) -> tuple[int, ...]:
    """The positive divisors of n, ascending; trial division up to √n,
    each small divisor d pairing with n // d."""
    small = [d for d in range(1, math.isqrt(n) + 1) if n % d == 0]
    large = [n // d for d in reversed(small) if d * d != n]
    return tuple(small + large)


def enumerate_triples(
    g: DirectedGraph, bound: int | None = None
) -> tuple[CongruenceTriple, ...]:
    """All congruence triples of an acyclic graph; for a cyclic graph, all
    triples whose free-cycle values lie in divisors(bound) ∪ {inf}.

    The bounded value set is closed under gcd and lcm, so the result is a
    genuine sublattice of the full triple lattice: any pentagon or diamond
    found inside it certifies non-modularity / non-distributivity of the
    whole lattice, while absence is evidence only.
    """
    return tuple(_triples(g, *_refusals(g, bound, None)))


def _refusals(g: DirectedGraph, bound: int | None, cap: int | None):
    """g's hereditary sets (past ``cap``, ``cap + 1`` of them) and its
    free-cycle values, divisors(bound) ∪ {inf} if g is cyclic, once g passes
    its refusals in this order: a cyclic graph without a bound, the
    20-vertex cap, the bound cap and then more than ``cap`` hereditary sets,
    each the H of a triple with W = ∅.  The one place they are decided; an
    acyclic g ignores ``bound``."""
    cyclic = not is_acyclic(g)
    if bound is None and cyclic:
        raise UnboundedLatticeError(
            "graph has cycles: triple enumeration needs a bound (--bound N)"
        )
    if bound is not None and bound < 1:
        raise ValueError("bound must be a positive integer")
    hereditary = hereditary_subsets(g, cap)  # its size cap comes before the bound cap
    if cyclic and bound > BOUND_CAP:
        raise LatticeTooLargeError(f"cycle-value bound capped at {BOUND_CAP}")
    if cap is not None and len(hereditary) > cap:
        raise LatticeTooLargeError(f"triple lattice capped at {cap} elements")
    return hereditary, divisors(bound) + (INF,) if cyclic else ()


def _triples(g: DirectedGraph, hereditary, values):
    """The triples over the hereditary sets ``hereditary``, in order, with
    free-cycle values from ``values`` (none if g is acyclic), as :func:`_refusals` gives them;
    a vertex's index relative to H is read off vertex bitmasks."""
    bit = {v: 1 << i for i, v in enumerate(sorted(g.vertices))}
    exits = [(v, b, [bit[e.dst] for e in g.out_edges[v]]) for v, b in bit.items()]
    for h in hereditary:
        inside = sum(map(bit.__getitem__, h))
        index_one = [
            v for v, b, ends in exits if not inside & b and [inside & d for d in ends].count(0) == 1
        ]
        # A free cycle leaves H at each source, by that source's one exit
        # edge, so the free cycles are the cycles among the index-1 vertices,
        # already in Cycle.sort_key order.
        cycles = _cycles_within(g, index_one) if values else ()  # no values: g is acyclic
        for size in range(len(index_one) + 1):
            for chosen in combinations(index_one, size):
                w = frozenset(chosen)
                free = [c for c in cycles if c.source_set <= w]
                for combo in product(values, repeat=len(free)):
                    f = CycleFunction(tuple(zip(free, combo))) if free else EMPTY_CYCLE_FUNCTION
                    yield CongruenceTriple(h, w, f)


def _listed(g: DirectedGraph, hereditary, values, size: int = 1):
    """g's triples, as :func:`_triples` gives them, for a factor of a product
    of ``size`` elements so far: past :data:`TRIPLE_CAP` elements in all the
    listing stops and :class:`LatticeTooLargeError` is raised."""
    ts = tuple(islice(_triples(g, hereditary, values), TRIPLE_CAP // size + 1))
    if size * len(ts) > TRIPLE_CAP:
        raise LatticeTooLargeError(f"triple lattice capped at {TRIPLE_CAP} elements")
    return ts


def triple_lattice(g: DirectedGraph, bound: int | None = None):
    """The enumerated triples as a finite lattice: ``from_poset`` derives
    meets and joins from :func:`leq_matrix` alone, not from the closed-form
    formulas.  Past :data:`TRIPLE_CAP` hereditary sets or triples the
    enumeration stops and :class:`LatticeTooLargeError` is raised."""
    from .lattice import from_poset

    ts = _listed(g, *_refusals(g, bound, TRIPLE_CAP))
    return from_poset(ts, leq_matrix(g, ts))


def component_lattices(g: DirectedGraph, bound: int | None = None):
    """One triple lattice per weak component (:func:`weak_component_subgraphs`
    order), whose direct product is ``triple_lattice(g, bound)``: H, W and
    f split by component; one component is its own factor.  Refused exactly
    when that is, with the same line: first g's own refusals, then a product
    of triple counts (g's count) past :data:`TRIPLE_CAP`, before any lattice
    is built.  No edge leaves a weak component, so its hereditary sets are
    g's that lie inside it, in g's order."""
    from .lattice import from_poset

    hereditary, values = _refusals(g, bound, TRIPLE_CAP)
    parts, size = [], 1
    for c in weak_component_subgraphs(g) or (g,):
        own = [h for h in hereditary if h <= c.vertex_set]
        ts = _listed(c, own, () if is_acyclic(c) else values, size)  # no cycle search if acyclic
        size *= len(ts)
        parts.append((c, ts))
    return tuple(from_poset(ts, leq_matrix(c, ts)) for c, ts in parts)


def product_coordinates(g: DirectedGraph, factors):
    """g's triples, past its refusals, in ``triple_lattice(g)`` order, and
    each one's index in the factor of :func:`component_lattices` for each
    component C, keyed by (H ∩ C, W ∩ C, the f entries on cycles in C)."""
    if len(factors) == 1:  # g's own lattice
        return factors[0].labels, np.arange(len(factors[0]))[:, None]
    # A factor storing any cycle value stores them all, in every combination;
    # with none stored, g's triples have no free cycle.  So the divisors of
    # the bound need not be listed again.
    stored = {v for lat in factors for t in lat.labels for _, v in t.f.entries}
    values = (*sorted(v for v in stored if v is not INF), INF) if stored else ()
    ts = tuple(_triples(g, hereditary_subsets(g), values))
    coords = np.empty((len(ts), len(factors)), dtype=np.intp)
    for k, (part, lat) in enumerate(zip(map(frozenset, g.weak_components), factors)):
        index = {(t.H, t.W, t.f.entries): i for i, t in enumerate(lat.labels)}
        coords[:, k] = [
            index[t.H & part, t.W & part, tuple(e for e in t.f.entries if e[0].sources[0] in part)]
            for t in ts
        ]
    return ts, coords


def render_triple(t: CongruenceTriple) -> str:
    hs = ",".join(sorted(t.H))
    ws = ",".join(sorted(t.W))
    fs = ",".join(
        f"{'.'.join(c.edges)}:{render_ext(v)}" for c, v in t.f.entries
    )
    return "({%s},{%s},{%s})" % (hs, ws, fs)


def triple_to_json(t: CongruenceTriple) -> dict:
    return {
        "H": sorted(t.H),
        "W": sorted(t.W),
        "f": {".".join(c.edges): render_ext(v) for c, v in t.f.entries},
    }
