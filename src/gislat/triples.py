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
once, by :func:`_refusals`, the hereditary sets as int masks;
:func:`_triples` only lists, as integer rows (:class:`TripleRows`), from
which the order is computed and the ``lattice`` command's text and JSON
rendered, and triple objects are built only where one is read.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain, combinations, compress, islice, product
from json.encoder import encode_basestring_ascii as _quote

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
    """``m[i, j] = leq(g, ts[i], ts[j])``: the triples as :class:`TripleRows`
    (codes over their distinct stored values) and :meth:`TripleRows.order`."""
    names, bit = tuple(sorted(g.vertices)), _bits(g.vertices)
    cycles = tuple(dict.fromkeys(c for t in ts for c, _ in t.f.entries))
    values = tuple(dict.fromkeys(v for t in ts for _, v in t.f.entries))
    codes = [[-1 if (v := t.f.get(c)) is None else values.index(v) for c in cycles] for t in ts]
    h = np.array([sum(map(bit.__getitem__, t.H)) for t in ts], dtype=np.int64)
    w = np.array([sum(map(bit.__getitem__, t.W)) for t in ts], dtype=np.int64)
    codes = np.array(codes, dtype=np.int32).reshape(len(ts), len(cycles))
    return TripleRows(names, values, cycles, h, w, codes).order()


def _bits(names) -> dict[str, int]:
    """Each vertex's bit in a mask over ``names`` sorted: the first on top."""
    names = sorted(names)
    return dict(zip(names, (1 << i for i in reversed(range(len(names))))))


class TripleRows:
    """Triples as integer rows, read one at a time or as a whole order.

    Row i holds H and W as masks ``h[i]`` and ``w[i]`` over the bits of
    ``names`` (a graph's sorted vertex names, the first on the top bit, so
    sets of one size sort as ints in name order, descending) and, for each
    cycle of ``cycles`` (in :meth:`Cycle.sort_key` order), the index in
    ``values`` of its stored value, or -1 if the triple stores none.
    Indexing or iterating builds :class:`CongruenceTriple` values;
    :meth:`render` gives their text or JSON with none built."""

    __slots__ = ("names", "values", "cycles", "h", "w", "codes")

    def __init__(self, names, values, cycles, h, w, codes) -> None:
        self.names, self.values, self.cycles = names, values, cycles
        self.h, self.w, self.codes = h, w, codes

    def __len__(self) -> int:
        return len(self.h)

    def __getitem__(self, i) -> CongruenceTriple:
        h, w = int(self.h[i]), int(self.w[i])
        sets = self._sets([h, w])
        return CongruenceTriple(sets[h], sets[w], self._function(self.codes[i].tolist()))

    def __iter__(self):
        h, w = self.h.tolist(), self.w.tolist()
        sets = self._sets(list({*h, *w}))
        if self.cycles:  # each distinct function built once
            keys = list(map(tuple, self.codes.tolist()))
            made = {k: self._function(k) for k in dict.fromkeys(keys)}
            fs = map(made.__getitem__, keys)
        else:
            fs = [EMPTY_CYCLE_FUNCTION] * len(h)
        return map(CongruenceTriple, map(sets.__getitem__, h), map(sets.__getitem__, w), fs)

    def _sets(self, masks: list[int], names=None, make=frozenset) -> dict:
        """Each mask's vertex set, or ``make`` of its members' entries in
        ``names`` (one per vertex name)."""
        top = np.arange(len(self.names) - 1, -1, -1)
        member = np.array(masks, dtype=np.int64)[:, None] >> top & 1  # [k, i]: names[i] in it
        names = self.names if names is None else names
        return {m: make(compress(names, row)) for m, row in zip(masks, member.tolist())}

    def render(self, pad: str | None = None) -> list[str]:
        """Each row as :func:`render_triple` gives it or, at indent ``pad``, as
        ``json.dumps(indent=2, sort_keys=True)`` renders it as an item of a
        list: H and W as lists of sorted names, f as an object keyed by cycle
        name.  Each distinct mask and code row is rendered once, and each row
        then fills one ``%`` template."""
        h, w, names = self.h.tolist(), self.w.tolist(), self.names
        cycles, values = [".".join(c.edges) for c in self.cycles], [*map(render_ext, self.values)]
        by, sep = range(len(cycles)), ","
        if pad is None:  # f in cycle order
            row, entry = "({%s},{%s},{%s})", "%s:%s"
        else:  # f by cycle name, as sort_keys orders it; each name quoted once
            key, sep = pad + "    ", ",\n" + pad + "      "
            names, cycles, values = ([*map(_quote, x)] for x in (names, cycles, values))
            row = f'{{\n{key}"H": %s,\n{key}"W": %s,\n{key}"f": %s\n{pad}  }}'
            entry, by = "%s: %s", sorted(by, key=cycles.__getitem__)
        sets = self._sets(list({*h, *w}), names, sep.join)
        # each cycle's entry per value code, in ``by`` order; code -1 is None
        table = [[entry % (cycles[i], v) for v in values] + [None] for i in by]
        keys = list(map(tuple, self.codes[:, list(by)].tolist()))
        fs = {k: sep.join(filter(None, map(list.__getitem__, table, k))) for k in set(keys)}
        if pad is not None:  # the JSON list or object around the items, at indent key
            sets = {m: f"[{sep[1:]}{s}\n{key}]" if s else "[]" for m, s in sets.items()}
            fs = {k: f"{{{sep[1:]}{s}\n{key}}}" if s else "{}" for k, s in fs.items()}
        return list(map(row.__mod__, zip(map(sets.__getitem__, h), map(sets.__getitem__, w),
                                          map(fs.__getitem__, keys))))

    def _function(self, codes) -> CycleFunction:
        entries = tuple((c, self.values[k]) for c, k in zip(self.cycles, codes) if k >= 0)
        return CycleFunction(entries) if entries else EMPTY_CYCLE_FUNCTION

    def order(self) -> np.ndarray:
        """``m[i, j]``: triple i <= triple j (:func:`leq`), broadcast over the
        masks in row blocks and gathered, per cycle, from one int64 ``%``
        table of its distinct full values.  A cycle no row stores is 1 inside
        H and inf elsewhere: one inside H1 but not H2 fails the H test anyway,
        and inf is divisible by everything."""
        h, w, n = self.h.astype(np.int32), self.w.astype(np.int32), len(self.h)  # 20 bits at most
        m, outside = np.empty((n, n), dtype=bool), ~(h | w)
        step = max(1, (1 << 16) // max(1, n))
        for s in range(0, n, step):
            hs, ws = h[s : s + step, None], w[s : s + step, None]
            m[s : s + step] = ((hs & ~h) == 0) & ((ws & outside) == 0)
        # a stored value by its code; inf, and code -1 (none stored), as 0
        stored = np.array([0 if v is INF else v for v in self.values] + [0], dtype=np.int64)
        bit = _bits(self.names)
        for c, col in zip(self.cycles, self.codes.T):
            full, sources = stored[col], sum(map(bit.__getitem__, c.sources))
            full[(h & sources) == sources] = 1  # inside H
            a, k = np.unique(full, return_inverse=True)  # values at most BOUND_CAP
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
    return tuple(_listed(g, *_refusals(g, bound, None), tuple(sorted(g.vertices))))


def _refusals(g: DirectedGraph, bound: int | None, cap: int | None):
    """g's hereditary set masks (past ``cap``, ``cap + 1`` of them) and its
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


def _triples(g: DirectedGraph, hereditary, values, names):
    """The rows of the triples over the hereditary set masks ``hereditary``, in
    order, with free-cycle values from ``values`` (none if g is acyclic),
    as :func:`_refusals` gives them: (H mask, W mask, free cycles, value
    codes), masks over the bits of ``names`` (:class:`TripleRows`).  A
    vertex's index relative to H is read off the masks."""
    bit = _bits(names)
    # Each vertex's out-edge ends, and those ends that two or more of its edges share.
    exits = []
    for v in sorted(g.vertices):
        ends = [bit[e.dst] for e in g.out_edges[v]]
        exits.append((v, bit[v], sum(set(ends)), sum({d for d in ends if ends.count(d) > 1})))
    codes = range(len(values))
    for inside in hereditary:
        # index 1: one end outside H, reached by one edge
        index_one = [(v, b) for v, b, ends, twice in exits
                     if not (inside & b or twice & ~inside) and (ends & ~inside).bit_count() == 1]
        bits = [b for _, b in index_one]
        # A free cycle leaves H at each source, by that source's one exit
        # edge, so the free cycles are the cycles among the index-1 vertices,
        # already in Cycle.sort_key order.
        cycles = _cycles_within(g, [v for v, _ in index_one]) if values else ()  # none if acyclic
        if not cycles:
            for size in range(len(bits) + 1):
                yield from ((inside, sum(chosen), (), ()) for chosen in combinations(bits, size))
            continue
        sources = [(c, sum(map(bit.__getitem__, c.sources))) for c in cycles]
        for size in range(len(bits) + 1):
            for chosen in combinations(bits, size):
                w = sum(chosen)
                free = tuple(c for c, s in sources if s & w == s)
                for combo in product(codes, repeat=len(free)):
                    yield inside, w, free, combo


def _listed(g: DirectedGraph, hereditary, values, names, limit: int | None = None) -> TripleRows:
    """g's triples, as :func:`_triples` gives them, as :class:`TripleRows`:
    past ``limit`` rows the listing stops and :class:`LatticeTooLargeError`
    is raised."""
    rows = list(islice(_triples(g, hereditary, values, names), None if limit is None else limit + 1))
    if limit is not None and len(rows) > limit:
        raise LatticeTooLargeError(f"triple lattice capped at {TRIPLE_CAP} elements")
    h, w, free, combos = zip(*rows)
    shared = {id(cs): cs for cs in free}  # the rows of one H and W share their free cycles
    cycles = sorted({c for cs in shared.values() for c in cs}, key=Cycle.sort_key)
    codes = np.full((len(rows), len(cycles)), -1, dtype=np.int32)
    if cycles:
        col = {c: k for k, c in enumerate(cycles)}
        cols = {i: [col[c] for c in cs] for i, cs in shared.items()}
        at = [i * len(cycles) + k for i, cs in enumerate(free) for k in cols[id(cs)]]
        codes.flat[at] = list(chain.from_iterable(combos))
    return TripleRows(names, values, tuple(cycles), np.array(h, dtype=np.int64),
                      np.array(w, dtype=np.int64), codes)


def triple_lattice(g: DirectedGraph, bound: int | None = None):
    """The enumerated triples as a finite lattice: ``from_poset`` derives
    meets and joins from their order (:meth:`TripleRows.order`) alone, not
    from the closed-form formulas; its labels are built on first read.
    Past :data:`TRIPLE_CAP` hereditary sets or triples the enumeration
    stops and :class:`LatticeTooLargeError` is raised."""
    from .lattice import from_poset

    rows = _listed(g, *_refusals(g, bound, TRIPLE_CAP), tuple(sorted(g.vertices)), TRIPLE_CAP)
    return from_poset(rows, rows.order())


def component_lattices(g: DirectedGraph, bound: int | None = None):
    """One triple lattice per weak component (:func:`weak_component_subgraphs`
    order), whose direct product is ``triple_lattice(g, bound)``: H, W and
    f split by component; one component is its own factor.  Refused exactly
    when that is, with the same line: first g's own refusals, then a product
    of triple counts (g's count) past :data:`TRIPLE_CAP`, before any lattice
    is built.  No edge leaves a weak component, so its hereditary sets are
    g's that lie inside it, in g's order.  Each factor's ``listing`` is its
    :class:`TripleRows`, masks over g's names."""
    from .lattice import from_poset

    hereditary, values = _refusals(g, bound, TRIPLE_CAP)
    names, parts, size = tuple(sorted(g.vertices)), [], 1
    bit = _bits(names)
    for c in weak_component_subgraphs(g) or (g,):
        outside = ~sum(map(bit.__getitem__, c.vertices))
        own = [h for h in hereditary if not h & outside]
        # no cycle search if acyclic
        rows = _listed(c, own, () if is_acyclic(c) else values, names, TRIPLE_CAP // size)
        size *= len(rows)
        parts.append(rows)
    return tuple(from_poset(rows, rows.order()) for rows in parts)


def product_coordinates(factors):
    """The triples of the graph whose :func:`component_lattices` are
    ``factors``, as :class:`TripleRows` in ``triple_lattice`` order, and
    each one's index in each factor.  Every tuple of factor rows is one
    triple: the union of their sets and free cycles.  They are sorted on
    the listing's own key: (|H|, H mask descending, |W|, W mask descending,
    the value codes of the free cycles in cycle order), as
    :func:`graph.hereditary_subsets` orders H and :func:`_triples` the rest."""
    parts = [f.listing for f in factors]
    if len(parts) == 1:  # g's own lattice
        return parts[0], np.arange(len(parts[0]))[:, None]
    coords = np.indices([len(p) for p in parts]).reshape(len(parts), -1).T
    h = sum(p.h[c] for p, c in zip(parts, coords.T))
    w = sum(p.w[c] for p, c in zip(parts, coords.T))
    cycles = [c for p in parts for c in p.cycles]
    by = sorted(range(len(cycles)), key=lambda k: cycles[k].sort_key())
    codes = np.concatenate([p.codes[c] for p, c in zip(parts, coords.T)], axis=1)[:, by]
    # Rows of equal H and W store the same cycles, so a -1 code ties.
    order = np.lexsort((*codes.T[::-1], -w, np.bitwise_count(w), -h, np.bitwise_count(h)))
    values = max((p.values for p in parts), key=len)  # an acyclic part has none
    rows = TripleRows(parts[0].names, values, tuple(cycles[k] for k in by),
                      h[order], w[order], codes[order])
    return rows, coords[order]


def render_triple(t: CongruenceTriple) -> str:
    hs = ",".join(sorted(t.H))
    ws = ",".join(sorted(t.W))
    fs = ",".join(
        f"{'.'.join(c.edges)}:{render_ext(v)}" for c, v in t.f.entries
    )
    return "({%s},{%s},{%s})" % (hs, ws, fs)
