"""Shared test machinery: definition-level brute-force oracles (kept
independent of the library code paths they check) and seeded random graph
corpora."""

from __future__ import annotations

import random
import weakref
from functools import lru_cache
from itertools import combinations, combinations_with_replacement, permutations, product

import numpy as np
from hypothesis import assume
from hypothesis import strategies as st

from gislat.graph import (
    Cycle,
    DirectedGraph,
    GraphError,
    enumerate_cycles,
    forked_vertices,
    hereditary_subsets,
    index_relative,
    is_acyclic,
    reaches,
)
from gislat.lattice import (
    FiniteLattice,
    SublatticeWitness,
    _row_blocks,
    from_poset,
    product_verdicts,
    product_witness,
)
from gislat.oracle import Congruence, _closure
from gislat.semigroup import (
    ZERO,
    Element,
    FiniteSemigroup,
    NormalForm,
    Zero,
    enumerate_paths,
    finite_semigroup,
    inverse_of,
    multiply,
    path_key,
    render_element,
)
from gislat.triples import (
    INF,
    CongruenceTriple,
    CycleFunction,
    component_lattices,
    divisors,
    enumerate_triples,
    ext_divides,
    render_ext,
)

POOL = "abcdef"


# ---------------------------------------------------------------- oracles


def all_vertex_subsets(g: DirectedGraph):
    n = len(g.vertices)
    for mask in range(1 << n):
        yield frozenset(v for i, v in enumerate(g.vertices) if mask >> i & 1)


def brute_hereditary(g: DirectedGraph) -> set[frozenset[str]]:
    """Filter every subset by the raw definition."""
    out = set()
    for subset in all_vertex_subsets(g):
        if all(e.dst in subset for e in g.edges if e.src in subset):
            out.add(subset)
    return out


def hereditary_sets(g: DirectedGraph, cap: int | None = None) -> tuple[frozenset[str], ...]:
    """``hereditary_subsets(g, cap)`` read as vertex sets, in its order: each
    mask over the sorted vertex names, the first name on the top bit."""
    names = sorted(g.vertices)
    top = len(names) - 1
    return tuple(frozenset(v for k, v in enumerate(names) if h >> top - k & 1)
                 for h in hereditary_subsets(g, cap))


def triple_to_json(t: CongruenceTriple) -> dict:
    """The JSON reference for one triple: ``lattice --json`` writes
    ``json.dumps(indent=2, sort_keys=True)`` of these for its elements."""
    return {
        "H": sorted(t.H),
        "W": sorted(t.W),
        "f": {".".join(c.edges): render_ext(v) for c, v in t.f.entries},
    }


def brute_reach_pairs(g: DirectedGraph) -> set[tuple[str, str]]:
    """Reflexive-transitive closure by iterated squaring over edge pairs."""
    pairs = {(v, v) for v in g.vertices}
    pairs |= {(e.src, e.dst) for e in g.edges}
    changed = True
    while changed:
        changed = False
        for a, b in list(pairs):
            for c, d in list(pairs):
                if b == c and (a, d) not in pairs:
                    pairs.add((a, d))
                    changed = True
    return pairs


def definition_weak_components(g: DirectedGraph) -> tuple[tuple[str, ...], ...]:
    """The classes of the undirected closure: reachability in the graph
    with every edge also present reversed, found by a flood fill from each
    vertex not yet reached, each class sorted, classes in sorted order."""
    neighbours: dict[str, list[str]] = {v: [] for v in g.vertices}
    for e in g.edges:
        neighbours[e.src].append(e.dst)
        neighbours[e.dst].append(e.src)
    seen: set[str] = set()
    classes = []
    for v in g.vertices:
        if v in seen:
            continue
        seen.add(v)
        reached = [v]
        for u in reached:  # the list grows as it is read
            for w in neighbours[u]:
                if w not in seen:
                    seen.add(w)
                    reached.append(w)
        classes.append(tuple(sorted(reached)))
    return tuple(sorted(classes))


def definition_forked(g: DirectedGraph) -> frozenset[str]:
    """Forked vertices by the definition, one ``reaches`` test per pair of
    out-edges: two distinct out-edges e, f such that no other out-edge's
    range reaches r(e), and likewise for r(f)."""
    forked: set[str] = set()
    for v in g.vertices:
        out = g.out_edges[v]
        free = [
            e
            for e in out
            if not any(reaches(g, x.dst, e.dst) for x in out if x.name != e.name)
        ]
        if len(free) >= 2:
            forked.add(v)
    return frozenset(forked)


def definition_connectivity(g: DirectedGraph) -> tuple[bool, bool]:
    """(unilateral, strong) from the pairwise definition: every two
    vertices are joined by a path in at least one (both) directions."""
    pairs = brute_reach_pairs(g)
    vs = g.vertices
    unilateral = all((a, b) in pairs or (b, a) in pairs for a in vs for b in vs)
    strong = all((a, b) in pairs for a in vs for b in vs)
    return unilateral, strong


def rotation_class(names: tuple[str, ...]) -> tuple[str, ...]:
    """Lexicographically least rotation; identifies cyclic permutations."""
    return min(names[i:] + names[:i] for i in range(len(names)))


def brute_cycle_classes(g: DirectedGraph) -> set[tuple[str, ...]]:
    """Every closed edge walk with pairwise distinct sources, collected up
    to rotation.  Deliberately naive: extends arbitrary edge sequences."""
    classes: set[tuple[str, ...]] = set()

    def visit(seq):
        sources = [e.src for e in seq]
        if len(set(sources)) != len(sources):
            return
        last = seq[-1]
        if last.dst == seq[0].src:
            classes.add(rotation_class(tuple(e.name for e in seq)))
            return
        if len(seq) >= len(g.vertices):
            return
        for e in g.edges:
            if e.src == last.dst:
                visit(seq + [e])

    for e0 in g.edges:
        visit([e0])
    return classes


def reference_cycles(g: DirectedGraph) -> tuple[Cycle, ...]:
    """:func:`enumerate_cycles` by one walk from every vertex name in order,
    through larger names only (quadratic on a long ring): each cycle is
    found from its smallest source, already canonically rotated."""
    found: list[Cycle] = []
    for base in sorted(g.vertices):
        path = []
        visited = {base}
        stack = [iter(g.out_edges[base])]
        while stack:
            e = next(stack[-1], None)
            if e is None:
                stack.pop()
                if path:
                    visited.remove(path.pop().dst)
            elif e.dst == base:
                found.append(
                    Cycle(tuple(x.name for x in path) + (e.name,), tuple(x.src for x in path) + (e.src,))
                )
            elif e.dst > base and e.dst not in visited:
                visited.add(e.dst)
                path.append(e)
                stack.append(iter(g.out_edges[e.dst]))
    return tuple(sorted(found, key=Cycle.sort_key))


def brute_glb_index(leq_rows, i: int, j: int):
    """Unique maximum of the common down-set, by direct scan; None if it
    does not exist."""
    n = len(leq_rows)
    lower = [x for x in range(n) if leq_rows[x][i] and leq_rows[x][j]]
    maxima = [m for m in lower if all(leq_rows[x][m] for x in lower)]
    return maxima[0] if len(maxima) == 1 else None


def brute_lub_index(leq_rows, i: int, j: int):
    n = len(leq_rows)
    upper = [x for x in range(n) if leq_rows[i][x] and leq_rows[j][x]]
    minima = [m for m in upper if all(leq_rows[m][x] for x in upper)]
    return minima[0] if len(minima) == 1 else None


def brute_between(lt: np.ndarray) -> np.ndarray:
    """``[i, j]``: some k has lt[i, k] and lt[k, j], one k at a time."""
    out = np.zeros(lt.shape, dtype=bool)
    for k in range(len(lt)):
        out |= np.outer(lt[:, k], lt[k])
    return out


def brute_first_non_lattice_pair(leq_rows):
    """The first pair i <= j, row-major, without a glb or lub, as
    (i, j, "meet" | "join") with the meet checked first; None for a
    lattice."""
    n = len(leq_rows)
    for i in range(n):
        for j in range(i, n):
            for which, bound in (("meet", brute_glb_index), ("join", brute_lub_index)):
                if bound(leq_rows, i, j) is None:
                    return i, j, which
    return None


def height_levels(lower: np.ndarray, upper: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Elements by height (the longest chain below) and where each level starts,
    by relaxation over the cover pairs (``upper[k]`` covers ``lower[k]``)."""
    height, new = np.full(n, -1, dtype=np.int32), np.zeros(n, dtype=np.int32)
    while (new != height).any():
        height, new = new, np.zeros_like(new)
        np.maximum.at(new, upper, height[lower] + 1)
    order = np.argsort(height, kind="stable").astype(np.int32)
    return order, np.flatnonzero(np.diff(height[order])) + 1


def transposed_in_tiles(m: np.ndarray, tile: int = 256) -> np.ndarray:
    """``m.T`` in row order, copied in square tiles: a plain copy of the
    transposed view reads ``m`` by columns, several times slower at n = 4096."""
    out = np.empty(m.shape[::-1], dtype=m.dtype)
    for i in range(0, len(m), tile):
        for j in range(0, len(m), tile):
            out[i : i + tile, j : j + tile] = m[j : j + tile, i : i + tile].T
    return out


def induction_meet_table(
    ok: np.ndarray, lower: np.ndarray, upper: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The reference meet table, by induction over the lower covers: the
    candidate glb of every pair, and whether induction confirms it
    (``ok[x, y]``: x <= y, a row-ordered copy overwritten by the result;
    ``upper[k]`` covers ``lower[k]``; for joins pass the transposed order
    and the cover pairs swapped).

    Rows go by height; any linear extension serves the largest-candidate
    step, and entries are positions in it.  If a <= b the glb is a; else
    the candidate g is the largest ``glb(c, b)`` over the lower covers c of
    a, confirmed when every ``glb(c, b)`` is and lies below g: a common
    lower bound of a and b lies below some c, hence below ``glb(c, b)`` and
    g.  A height level is an antichain whose lower covers come earlier, so
    it is done at once, in row blocks as wide as their largest cover count."""
    n = len(ok)
    order, cuts = height_levels(lower, upper, n)
    ranked = ok[np.ix_(order, order)].ravel()  # position p <= q at p * n + q
    flat = np.int32 if n * n < 2**31 else np.int64  # dtype that holds p * n + q
    table = np.empty(ok.shape, dtype=np.int32)
    lower = lower[np.argsort(upper, kind="stable")].astype(np.int32)  # grouped by upper
    degree = np.bincount(upper, minlength=n).astype(np.int32)
    first = (np.cumsum(degree, dtype=np.int32) - degree)[order, None]
    degree = degree[order]  # by position from here on
    # Row p: order[p]'s lower covers, padded by repeating the last; minimal rows go unread.
    pad = np.minimum(np.arange(degree.max(initial=0), dtype=np.int32), degree[:, None] - 1)
    covers = lower[first + pad]
    step = max(1, (1 << 14) // max(1, n))  # a block gathers n cells per lower cover a row
    starts = [s for lo, hi in zip([0, *cuts], [*cuts, n]) for s in range(lo, hi, step)]
    widths = np.maximum.reduceat(degree, starts) if n else ()
    for s, e, w in zip(starts, [*starts[1:], n], widths):
        a = order[s:e]
        pos = np.arange(s, e, dtype=np.int32)[:, None]
        if not w:  # minimal: a keeps itself, which fails wherever a ≰ b
            table[a] = pos
            continue
        c = covers[s:e, :w]
        found = table[c].astype(flat, copy=False)  # [row, k, b]: glb(c_k, b)
        g = found.max(axis=1)
        found *= n
        found += g[:, None]
        below = ok[a]  # still the order's rows
        ok[a] = below | (ok[c] & ranked.take(found)).all(axis=1)
        table[a] = np.where(below, pos, g)
    for s in range(0, n, step):  # back to indices, without an n × n intp copy
        table[s : s + step] = order[table[s : s + step]]
    return table, ok


_INDUCTION_TABLES: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def induction_tables(lat: FiniteLattice) -> tuple[np.ndarray, np.ndarray]:
    """The meet and join tables of ``lat`` by :func:`induction_meet_table`,
    on its order and on the dual order, computed once per lattice."""
    if lat not in _INDUCTION_TABLES:
        lower, upper = lat.cover_pairs
        meets = induction_meet_table(lat.leq.copy(), lower, upper)[0]
        joins = induction_meet_table(transposed_in_tiles(lat.leq), upper, lower)[0]
        _INDUCTION_TABLES[lat] = (meets, joins)
    return _INDUCTION_TABLES[lat]


def key_tables(lat: FiniteLattice) -> tuple[np.ndarray, np.ndarray]:
    """The meet and join tables of ``lat`` by ``from_poset``'s own rule:
    ``[a, b]`` is the element keyed K(a) & K(b), or dual-keyed M(a) & M(b),
    looked up one row block at a time (:func:`gislat.lattice._row_blocks`);
    in a lattice every pair finds one."""
    tables = np.empty((2, lat.n, lat.n), np.int32)
    for table, keys in zip(tables, (lat.keys, lat.dual_keys)):
        for s, at, found in _row_blocks(keys):
            assert found.all()
            table[s : s + len(at)] = at
    return tables[0], tables[1]


def table_semimodular(low: np.ndarray, up: np.ndarray, join_t: np.ndarray) -> bool:
    """The reference semimodularity test, reading joins: a, b both covering
    a ∧ b forces a ∨ b to cover both a and b (``up[k]`` covers ``low[k]``,
    sorted by (low, up)).  Two distinct upper covers a, b of one x meet at
    x, so only those pairs are checked, a < b, from one self-join of the
    cover pairs; whether y covers x is read off a transient boolean matrix
    of the cover pairs."""
    later = np.searchsorted(low, low, side="right") - np.arange(len(low)) - 1
    left = np.repeat(np.arange(len(low)), later)  # pair i with each later i' of its x
    start = np.repeat(np.cumsum(later) - later, later)
    right = left + 1 + np.arange(len(left)) - start
    a, b = up[left], up[right]
    cov = np.zeros(join_t.shape, dtype=bool)  # [x, y]: y covers x
    cov[low, up] = True
    j = join_t[a, b]
    return bool((cov[a, j] & cov[b, j]).all())


def table_semimodularity(lat: FiniteLattice) -> tuple[bool, bool]:
    """(upper, lower) semimodularity of ``lat`` by :func:`table_semimodular`
    over the induction reference tables."""
    meets, joins = induction_tables(lat)
    low, up = lat.cover_pairs
    by_up = np.argsort(up, kind="stable")
    return table_semimodular(low, up, joins), table_semimodular(up[by_up], low[by_up], meets)


def definition_leq(g: DirectedGraph, t1: CongruenceTriple, t2: CongruenceTriple) -> bool:
    """The triple order from its definition: H1 ⊆ H2, W1 \\ H2 ⊆ W2, and
    f2(c) divides f1(c) on every cycle of the graph."""
    return (
        t1.H <= t2.H
        and t1.W - t2.H <= t2.W
        and all(ext_divides(t2.cycle_value(c), t1.cycle_value(c)) for c in g.cycles)
    )


def brute_first_pentagon(lat: FiniteLattice) -> SublatticeWitness | None:
    """First pentagon in lexicographic (p, q, b) order by one n × n scan
    per p: p < q sharing both meet and join with b, over the induction
    reference tables."""
    (m, j), n = induction_tables(lat), lat.n
    lt = lat.leq & ~np.eye(n, dtype=bool)
    key = m.astype(np.int64) * n + j.astype(np.int64)
    for p in range(n):
        hits = np.argwhere((key == key[p][None, :]) & lt[p][:, None])
        if hits.size:
            q, b = (int(x) for x in hits[0])
            return SublatticeWitness("pentagon", (int(m[p, b]), p, q, b, int(j[p, b])))
    return None


def brute_first_diamond(lat: FiniteLattice) -> SublatticeWitness | None:
    """First diamond in lexicographic (x, y, z) order by direct scan: x,
    y, z with one common pairwise meet o and one common pairwise join i,
    all five elements distinct.  One numpy scan per x covers every pair
    x < y < z, rows y and columns z, meets and joins compared apart, over
    the induction reference tables."""
    (m, j), n = induction_tables(lat), lat.n
    for x in range(n):
        ys = np.arange(x + 1, n)  # the y and z above x, rows and columns alike
        o, i = m[x, x + 1:, None], j[x, x + 1:, None]  # x ∧ y and x ∨ y, one row per y
        hit = (m[x, x + 1:] == o) & (m[x + 1:, x + 1:] == o)  # x ∧ z and y ∧ z
        hit &= (j[x, x + 1:] == i) & (j[x + 1:, x + 1:] == i)  # x ∨ z and y ∨ z
        hit &= (o != x) & (o != ys[:, None]) & (o != ys) & (o != i)
        hit &= (i != x) & (i != ys[:, None]) & (i != ys)
        hit = np.triu(hit, 1)  # z > y
        if hit.any():  # the first hit in row-major order has the least y, then z
            y, z = divmod(int(hit.argmax()), n - x - 1)
            return SublatticeWitness("diamond", (int(o[y, 0]), x, x + 1 + y, x + 1 + z, int(i[y, 0])))
    return None


def brute_order_isomorphic(lat1: FiniteLattice, lat2: FiniteLattice) -> bool:
    """Some permutation p has lat1.leq[i, k] == lat2.leq[p[i], p[k]] for
    all i, k: every permutation is tried, all at once."""
    if lat1.n != lat2.n:
        return False
    perms = np.array(list(permutations(range(lat1.n))), dtype=np.intp).reshape(-1, lat1.n)
    return bool((lat2.leq[perms[:, :, None], perms[:, None, :]] == lat1.leq).all(axis=(1, 2)).any())


def witness_is_valid(lat: FiniteLattice, w: SublatticeWitness) -> bool:
    """Check the exact five-element configuration and sublattice closure,
    over the induction reference tables."""
    members = w.members
    if len(set(members)) != 5:
        return False
    o, a, b, c, i = members
    lt = lambda x, y: x != y and lat.leq[x, y]
    m, j = induction_tables(lat)
    if w.kind == "pentagon":
        config = (
            lt(o, a)
            and lt(a, b)
            and lt(b, i)
            and lt(o, c)
            and lt(c, i)
            and m[a, c] == o
            and m[b, c] == o
            and j[a, c] == i
            and j[b, c] == i
        )
    elif w.kind == "diamond":
        config = all(lt(o, x) and lt(x, i) for x in (a, b, c)) and all(
            m[x, y] == o and j[x, y] == i for x, y in ((a, b), (a, c), (b, c))
        )
    else:
        return False
    if not config:
        return False
    inside = set(members)
    return all(m[x, y] in inside and j[x, y] in inside for x in inside for y in inside)


def identity_distributive(lat: FiniteLattice) -> bool:
    """(a ∨ b) ∧ c == (a ∧ c) ∨ (b ∧ c) over all triples, by the induction
    reference tables."""
    (m, j), n = induction_tables(lat), lat.n
    idx = np.arange(n)
    for a in range(n):
        left = m[j[a][:, None], idx[None, :]]  # (b, c) -> (a∨b)∧c
        a_meet_c = np.broadcast_to(m[a][None, :], (n, n))
        right = j[a_meet_c, m]  # (b, c) -> (a∧c)∨(b∧c)
        if not np.array_equal(left, right):
            return False
    return True


def identity_modular(lat: FiniteLattice) -> bool:
    """a <= c implies a ∨ (b ∧ c) == (a ∨ b) ∧ c, over all triples, by the
    induction reference tables."""
    (m, j), n = induction_tables(lat), lat.n
    for a in range(n):
        ja = j[a]
        left = ja[m]  # (b, c) -> a∨(b∧c)
        right = m[ja]  # (b, c) -> (a∨b)∧c
        bad = (left != right) & lat.leq[a][None, :]
        if bad.any():
            return False
    return True


def pairwise_upper_semimodular(lat: FiniteLattice) -> bool:
    """a, b both covering a ∧ b forces a ∨ b to cover both a and b (the
    induction reference tables)."""
    cov, (meets, joins) = lat.cover_set, induction_tables(lat)
    for a in range(lat.n):
        for b in range(a + 1, lat.n):
            m = int(meets[a, b])
            if (a, m) in cov and (b, m) in cov:
                j = int(joins[a, b])
                if (j, a) not in cov or (j, b) not in cov:
                    return False
    return True


def pairwise_lower_semimodular(lat: FiniteLattice) -> bool:
    """a ∨ b covering both a and b forces a and b to cover a ∧ b (the
    induction reference tables)."""
    cov, (meets, joins) = lat.cover_set, induction_tables(lat)
    for a in range(lat.n):
        for b in range(a + 1, lat.n):
            j = int(joins[a, b])
            if (j, a) in cov and (j, b) in cov:
                m = int(meets[a, b])
                if (a, m) not in cov or (b, m) not in cov:
                    return False
    return True


def lattice_verdicts(lat: FiniteLattice) -> tuple[dict[str, bool], SublatticeWitness | None]:
    """The four verdicts of ``lat`` and its witness: the product of one factor."""
    verdicts = product_verdicts((lat,))
    return verdicts, product_witness((lat,), np.arange(lat.n)[:, None], verdicts)


def oracle_verdicts(lat: FiniteLattice) -> dict[str, bool]:
    """The four verdicts from their definitions, in the CLI's key order."""
    return {
        "distributive": identity_distributive(lat),
        "modular": identity_modular(lat),
        "lower_semimodular": pairwise_lower_semimodular(lat),
        "upper_semimodular": pairwise_upper_semimodular(lat),
    }


def reference_table(sem: FiniteSemigroup) -> list[list[int]]:
    """The Cayley table one cell at a time, as rows of ints: the index of
    ``multiply(x, y)``."""
    return [[sem.element_index(multiply(x, y)) for y in sem.elements] for x in sem.elements]


def verify_inverse_semigroup(g: DirectedGraph) -> bool:
    """Exhaustively check the inverse-semigroup axioms on the enumerated
    set: associativity, x x' x = x for the path-swap inverse, and pairwise
    commuting idempotents."""
    sem = finite_semigroup(g)
    t = sem.table.tolist()
    n = len(sem)
    for i in range(n):
        ti = t[i]
        for j in range(n):
            row_ij = t[ti[j]]
            tj = t[j]
            for k in range(n):
                if row_ij[k] != ti[tj[k]]:
                    return False
    inv = [sem.element_index(inverse_of(x)) for x in sem.elements]
    for i in range(n):
        if t[t[i][inv[i]]][i] != i:
            return False
    idem = [i for i in range(n) if t[i][i] == i]
    for a in idem:
        for b in idem:
            if t[a][b] != t[b][a]:
                return False
    return True


def is_compatible(sem: FiniteSemigroup, c: Congruence) -> bool:
    """Full compatibility check of a partition against the table."""
    t = sem.table.tolist()
    n = len(sem)
    if sorted(x for blk in c.blocks for x in blk) != list(range(n)):
        return False
    block = c.labels
    for blk in c.blocks:
        for x in blk:
            for y in blk:
                for s in range(n):
                    if block[t[s][x]] != block[t[s][y]]:
                        return False
                    if block[t[x][s]] != block[t[y][s]]:
                        return False
    return True


def table_closure(table, n: int, seeds) -> Congruence:
    """Least congruence containing the seed pairs, by the definition:
    union-find that propagates every merge through all left and right
    products, generators or not."""
    table = table.tolist()
    parent = list(range(n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    pending = list(seeds)
    while pending:
        x, y = pending.pop()
        rx, ry = find(x), find(y)
        if rx == ry:
            continue
        parent[ry] = rx
        for s in range(n):
            pending.append((table[s][rx], table[s][ry]))
            pending.append((table[rx][s], table[ry][s]))
    groups: dict[int, list[int]] = {}
    for x in range(n):
        groups.setdefault(find(x), []).append(x)
    return from_blocks(groups.values())


def from_blocks(blocks) -> Congruence:
    """The congruence with these blocks, in any order: each element
    labelled by the least element of its block."""
    labels = {x: min(blk) for blk in blocks for x in blk}
    return Congruence(tuple(labels[x] for x in range(len(labels))))


def identity_congruence(n: int) -> Congruence:
    return Congruence(tuple(range(n)))


def reference_congruences(sem: FiniteSemigroup) -> tuple[Congruence, ...]:
    """All congruences, sorted by partition fingerprint: one generator
    closure per element pair gives the principal congruences, and every
    congruence found is joined, by a closure of both partitions' pairs,
    with each distinct principal one until nothing new appears."""
    n = len(sem)
    table, gens = sem.table.tolist(), sem.generators
    principals = {_closure(table, n, [(i, j)], gens) for i in range(n) for j in range(i + 1, n)}
    found = {identity_congruence(n)} | principals
    queue = list(principals)
    while queue:
        c = queue.pop()
        for p in principals:
            seeds = [(blk[0], x) for d in (c, p) for blk in d.blocks for x in blk[1:]]
            joined = _closure(table, n, seeds, gens)
            if joined not in found:
                found.add(joined)
                queue.append(joined)
    return tuple(sorted(found, key=lambda c: c.blocks))


def meet_congruences(c1: Congruence, c2: Congruence) -> Congruence:
    """Common refinement (intersection of the relations)."""
    groups: dict[tuple[int, int], list[int]] = {}
    for x, pair in enumerate(zip(c1.labels, c2.labels)):
        groups.setdefault(pair, []).append(x)
    return from_blocks(groups.values())


def congruence_to_json(sem: FiniteSemigroup, c: Congruence) -> list[list[str]]:
    """Sorted list of sorted blocks of element renderings."""
    rendered = [sorted(render_element(sem.elements[x]) for x in blk) for blk in c.blocks]
    return sorted(rendered)


def bounded_triple_count(g: DirectedGraph, bound: int) -> int:
    """Size of the bounded triple enumeration, computed without
    materializing it."""
    cycles = enumerate_cycles(g)
    nvals = len(divisors(bound)) + 1
    total = 0
    for h in hereditary_sets(g):
        index_one = [
            v for v in g.vertices if v not in h and index_relative(g, v, h) == 1
        ]
        for size in range(len(index_one) + 1):
            for chosen in combinations(index_one, size):
                w = frozenset(chosen)
                free = sum(
                    1
                    for c in cycles
                    if c.source_set <= w and not c.source_set <= h
                )
                total += nvals**free
    return total


def reference_triples(g: DirectedGraph, bound: int | None = None) -> tuple[CongruenceTriple, ...]:
    """``enumerate_triples(g, bound)`` as the definition lists it, in the
    same order: for each hereditary set H, each set W of vertices of index
    1 relative to H (:func:`index_relative` per vertex; by size, then in
    sorted order) and each assignment of divisors(bound) ∪ {inf} to the
    graph's cycles inside W, stored through ``CycleFunction.of``."""
    cycles = enumerate_cycles(g)
    values = divisors(bound) + (INF,) if cycles else ()
    out = []
    for h in hereditary_sets(g):
        index_one = sorted(v for v in g.vertices if v not in h and index_relative(g, v, h) == 1)
        for size in range(len(index_one) + 1):
            for chosen in combinations(index_one, size):
                w = frozenset(chosen)
                free = [c for c in cycles if c.source_set <= w]
                for combo in product(values, repeat=len(free)):
                    out.append(CongruenceTriple(h, w, CycleFunction.of(zip(free, combo))))
    return tuple(out)


def reference_coordinates(g: DirectedGraph, factors, bound: int | None = None):
    """``product_coordinates(factors)`` for the ``component_lattices(g,
    bound)`` ``factors``, as the product route placed triples before it
    sorted rows: g's triples listed again (:func:`reference_triples`), each
    looked up in the factor of each weak component C by (H ∩ C, W ∩ C, the
    f entries on cycles in C)."""
    if len(factors) == 1:  # g's own lattice
        return factors[0].labels, np.arange(len(factors[0]))[:, None]
    ts = reference_triples(g, bound)
    coords = np.empty((len(ts), len(factors)), dtype=np.intp)
    for k, (part, lat) in enumerate(zip(map(frozenset, g.weak_components), factors)):
        index = {(t.H, t.W, t.f.entries): i for i, t in enumerate(lat.labels)}
        coords[:, k] = [
            index[t.H & part, t.W & part, tuple(e for e in t.f.entries if e[0].sources[0] in part)]
            for t in ts
        ]
    return ts, coords


# ------------------------------------------------ definition-level checks


class UnknownCycleError(GraphError):
    """A cycle that does not occur in the graph (or is not canonical)."""


def _is_ext_value(v) -> bool:
    return v is INF or (isinstance(v, int) and not isinstance(v, bool) and v >= 1)


def validate_triple(g: DirectedGraph, t: CongruenceTriple) -> tuple[str, ...]:
    """Empty tuple when the triple is valid, otherwise one message per
    violated clause.  Unknown vertex or cycle references raise instead."""
    for v in sorted(t.H | t.W):
        g.check_vertex(v)
    cycles = g.cycles
    known = set(cycles)
    for c, _ in t.f.entries:
        if c not in known:
            raise UnknownCycleError(f"unknown cycle {'.'.join(c.edges)}")

    violations: list[str] = []
    escaping = [e for e in g.edges if e.src in t.H and e.dst not in t.H]
    if escaping:
        names = ",".join(e.name for e in escaping)
        violations.append(f"H is not hereditary (escaping edges: {names})")
    overlap = t.H & t.W
    if overlap:
        violations.append(f"H and W intersect: {','.join(sorted(overlap))}")
    for v in sorted(t.W - t.H):
        k = index_relative(g, v, t.H)
        if k != 1:
            violations.append(f"vertex {v} has index {k} relative to H, expected 1")
    free = {c for c in cycles if c.source_set <= t.W} - {
        c for c in cycles if c.source_set <= t.H
    }
    domain = {c for c, _ in t.f.entries}
    for c in sorted(free - domain, key=Cycle.sort_key):
        violations.append(f"missing value for free cycle {'.'.join(c.edges)}")
    for c in sorted(domain - free, key=Cycle.sort_key):
        violations.append(f"value assigned to non-free cycle {'.'.join(c.edges)}")
    for c, v in t.f.entries:
        if not _is_ext_value(v):
            violations.append(f"value {v!r} for cycle {'.'.join(c.edges)} is invalid")
    return tuple(violations)


def is_hereditary(g: DirectedGraph, H) -> bool:
    """True iff no edge leads from inside ``H`` to outside ``H``."""
    members = frozenset(H)
    for u in members:
        g.check_vertex(u)
    return all(e.dst in members for e in g.edges if e.src in members)


def element_key(g: DirectedGraph, x: Element) -> tuple:
    """Zero first, then by total path length, then alpha and beta by
    ``path_key``."""
    if isinstance(x, Zero):
        return (0,)
    return (1, len(x.alpha.edges) + len(x.beta.edges), path_key(g, x.alpha), path_key(g, x.beta))


def idempotents(g: DirectedGraph) -> tuple[Element, ...]:
    """Zero plus one ``alpha . alpha*`` per path."""
    elems: list[Element] = [ZERO]
    elems.extend(NormalForm(p, p) for p in enumerate_paths(g))
    return tuple(sorted(elems, key=lambda x: element_key(g, x)))


def principal_congruence(sem: FiniteSemigroup, a: Element, b: Element) -> Congruence:
    """The least congruence identifying a and b."""
    i = sem.element_index(a)
    j = sem.element_index(b)
    return _closure(sem.table.tolist(), len(sem), [(i, j)], sem.generators)


# ----------------------------------------------------- random generators


def random_acyclic_graph(rng: random.Random, max_vertices=6, max_edges=8) -> DirectedGraph:
    k = rng.randint(1, max_vertices)
    names = list(POOL[:k])
    decl = names[:]
    rng.shuffle(decl)
    topo = names[:]
    rng.shuffle(topo)
    pos = {v: i for i, v in enumerate(topo)}
    edges = []
    if k >= 2:
        for i in range(rng.randint(0, max_edges)):
            a, b = rng.sample(names, 2)
            if pos[a] > pos[b]:
                a, b = b, a
            edges.append((f"e{i}", a, b))
    return DirectedGraph.of(decl, edges)


def random_general_graph(rng: random.Random, max_vertices=4, max_edges=6) -> DirectedGraph:
    k = rng.randint(1, max_vertices)
    names = list(POOL[:k])
    edges = [
        (f"e{i}", rng.choice(names), rng.choice(names))
        for i in range(rng.randint(0, max_edges))
    ]
    return DirectedGraph.of(names, edges)


def random_outdeg_le1_graph(rng: random.Random, max_vertices=6) -> DirectedGraph:
    k = rng.randint(1, max_vertices)
    names = list(POOL[:k])
    edges = []
    for n, v in enumerate(names):
        if rng.random() < 0.75:
            edges.append((f"e{n}", v, rng.choice(names)))
    return DirectedGraph.of(names, edges)


def random_unilateral_graph(rng: random.Random, max_vertices=5) -> DirectedGraph:
    """A spanning directed path guarantees unilateral connectivity; extra
    random edges (possibly making cycles) preserve it."""
    k = rng.randint(2, max_vertices)
    names = list(POOL[:k])
    spine = names[:]
    rng.shuffle(spine)
    edges = [(f"p{i}", spine[i], spine[i + 1]) for i in range(k - 1)]
    for i in range(rng.randint(0, min(3, 8 - len(edges)))):
        edges.append((f"x{i}", rng.choice(names), rng.choice(names)))
    return DirectedGraph.of(names, edges)


def random_multi_component_graph(rng: random.Random) -> DirectedGraph:
    """Two or three acyclic blobs over disjoint vertex sets."""
    blobs = rng.randint(2, 3)
    names: list[str] = []
    edges: list[tuple[str, str, str]] = []
    budget = 6
    for b in range(blobs):
        size = rng.randint(1, min(3, budget - (blobs - b - 1)))
        budget -= size
        members = [POOL[len(names) + i] for i in range(size)]
        names.extend(members)
        if size >= 2:
            for i in range(rng.randint(0, 2)):
                a, c = rng.sample(members, 2)
                if members.index(a) > members.index(c):
                    a, c = c, a
                edges.append((f"b{b}e{i}", a, c))
    return DirectedGraph.of(names, edges)


# --------------------------------------------------------------- corpora


def graph_text(g: DirectedGraph) -> str:
    """The graph file that parses back to ``g``."""
    return "".join(f"vertex {v}\n" for v in g.vertices) + "".join(
        f"edge {e.name} {e.src} {e.dst}\n" for e in g.edges
    )


@lru_cache(maxsize=None)
def acyclic_corpus(count: int = 200, seed: int = 20260809) -> tuple[DirectedGraph, ...]:
    rng = random.Random(seed)
    return tuple(random_acyclic_graph(rng) for _ in range(count))


@lru_cache(maxsize=None)
def cyclic_corpus(
    count: int = 15, seed: int = 977, bound: int = 12, cap: int = 300
) -> tuple[DirectedGraph, ...]:
    """Cyclic graphs whose bounded triple set stays desk-sized; at least
    ten of them carry genuinely free cycles (varying cycle values)."""
    from gislat.triples import enumerate_triples

    rng = random.Random(seed)
    rich: list[DirectedGraph] = []
    plain: list[DirectedGraph] = []
    want_rich = min(10, count)
    while len(rich) < want_rich:
        g = random_general_graph(rng)
        if not enumerate_cycles(g) or bounded_triple_count(g, bound) > cap:
            continue
        if any(t.f.entries for t in enumerate_triples(g, bound)):
            rich.append(g)
        else:
            plain.append(g)
    return tuple((rich + plain)[:count])


@lru_cache(maxsize=None)
def outdeg_le1_corpus(count: int = 50, seed: int = 431, cap: int = 400) -> tuple[DirectedGraph, ...]:
    rng = random.Random(seed)
    out: list[DirectedGraph] = []
    while len(out) < count:
        g = random_outdeg_le1_graph(rng)
        if enumerate_cycles(g) and bounded_triple_count(g, 12) > cap:
            continue
        out.append(g)
    return tuple(out)


@lru_cache(maxsize=None)
def unilateral_corpus(count: int = 50, seed: int = 6011, cap: int = 400) -> tuple[DirectedGraph, ...]:
    rng = random.Random(seed)
    out: list[DirectedGraph] = []
    while len(out) < count:
        g = random_unilateral_graph(rng)
        if enumerate_cycles(g) and bounded_triple_count(g, 12) > cap:
            continue
        out.append(g)
    return tuple(out)


@lru_cache(maxsize=None)
def multi_component_corpus(count: int = 50, seed: int = 74) -> tuple[DirectedGraph, ...]:
    rng = random.Random(seed)
    return tuple(random_multi_component_graph(rng) for _ in range(count))


# One weak component each, as (vertices, edges); fan2, fork3 and
# fork-over-loops are not modular, and the loops need a bound.
COMPONENT_SHAPES = {
    "fan2": ("uvw", [("e", "u", "v"), ("f", "u", "w")]),
    "fork3": ("uabc", [("e", "u", "a"), ("f", "u", "b"), ("g", "u", "c")]),
    "forkloops": ("uvw", [("e", "u", "v"), ("f", "u", "w"), ("x", "v", "v"), ("y", "w", "w")]),
    "chain3": ("abc", [("e", "a", "b"), ("f", "b", "c")]),
    "gamma2": ("vuw", [("e", "v", "u"), ("f", "v", "w"), ("g", "v", "w")]),
    "isolated": ("i", []),
    "loop": ("l", [("x", "l", "l")]),
    "loopout": ("ls", [("x", "l", "l"), ("e", "l", "s")]),
    "ring2": ("pq", [("x", "p", "q"), ("y", "q", "p")]),
}


@lru_cache(maxsize=None)
def product_corpus(
    count: int = 60, seed: int = 1515, cap: int = 800
) -> tuple[tuple[DirectedGraph, int | None], ...]:
    """Graphs of two to four weak components drawn from
    :data:`COMPONENT_SHAPES`, names prefixed per copy and vertices declared
    in shuffled order, each with a bound (None for acyclic graphs) under
    which the triple lattice has at most ``cap`` elements."""
    rng = random.Random(seed)
    out: list[tuple[DirectedGraph, int | None]] = []
    while len(out) < count:
        names: list[str] = []
        edges: list[tuple[str, str, str]] = []
        for k in range(rng.randint(2, 4)):
            vs, es = COMPONENT_SHAPES[rng.choice(sorted(COMPONENT_SHAPES))]
            names += [f"c{k}{v}" for v in vs]
            edges += [(f"c{k}{e}", f"c{k}{a}", f"c{k}{b}") for e, a, b in es]
        rng.shuffle(names)
        g = DirectedGraph.of(names, edges)
        bound = None if is_acyclic(g) else rng.choice((4, 6, 12, 60))
        if (bounded_triple_count(g, bound) if bound else len(enumerate_triples(g))) <= cap:
            out.append((g, bound))
    return tuple(out)


@lru_cache(maxsize=None)
def small_semigroup_corpus(count: int = 20, seed: int = 512, cap: int = 60) -> tuple[DirectedGraph, ...]:
    """Acyclic graphs whose full semigroup has at most ``cap`` elements
    (and at least 4, to skip degenerate near-empty graphs)."""
    from gislat.semigroup import enumerate_elements

    rng = random.Random(seed)
    out: list[DirectedGraph] = []
    while len(out) < count:
        g = random_acyclic_graph(rng)
        if 4 <= len(enumerate_elements(g)) <= cap:
            out.append(g)
    return tuple(out)


def dag_census(vertices: int, multiplicity: int):
    """Every graph on v0, v1, ... whose edges each go from a lower to a
    higher vertex number, at most ``multiplicity`` of them per pair.  Every
    DAG has a topological order, so these are all DAGs on ``vertices``
    vertices up to isomorphism, with repetitions."""
    names = [f"v{i}" for i in range(vertices)]
    pairs = list(combinations(range(vertices), 2))
    for counts in product(range(multiplicity + 1), repeat=len(pairs)):
        edges = [(f"e{i}{j}_{k}", names[i], names[j]) for (i, j), n in zip(pairs, counts) for k in range(n)]
        yield DirectedGraph.of(names, edges)


def census(vertices: int, multiplicity: int, cap: int = 200) -> int:
    """Check each graph of :func:`dag_census` with at most ``cap`` semigroup
    elements through its congruences, and return how many were checked:
    the closed-form meet and join agree with the triple lattice's key
    tables on every pair, the triple lattice is order isomorphic to the congruence
    lattice, and the paper's theorem holds on the congruence lattice alone
    (lower semimodular, modular and distributive exactly when no vertex is
    forked, upper semimodular always)."""
    from gislat.lattice import order_isomorphic
    from gislat.oracle import congruence_lattice
    from gislat.semigroup import semigroup_size
    from gislat.triples import join, meet, triple_lattice

    checked = 0
    for g in dag_census(vertices, multiplicity):
        if semigroup_size(g) > cap:
            continue
        lat = triple_lattice(g)
        ts, (meets, joins) = lat.labels, key_tables(lat)
        for i, j in combinations_with_replacement(range(lat.n), 2):
            assert meet(g, ts[i], ts[j]) == ts[meets[i, j]], graph_text(g)
            assert join(g, ts[i], ts[j]) == ts[joins[i, j]], graph_text(g)
        congruences = congruence_lattice(finite_semigroup(g), cap)
        assert order_isomorphic(lat, congruences), graph_text(g)
        unforked = not definition_forked(g)
        theorem = dict.fromkeys(("distributive", "modular", "lower_semimodular"), unforked)
        assert lattice_verdicts(congruences)[0] == {**theorem, "upper_semimodular": True}, graph_text(g)
        checked += 1
    return checked


def cyclic_multigraphs(vertices: int, max_edges: int):
    """Every graph on v0, v1, ... with at most ``max_edges`` edges, loops
    and parallel edges included, that has a cycle: each multiset of ordered
    vertex pairs once, so every such multigraph up to edge names."""
    names = [f"v{i}" for i in range(vertices)]
    pairs = list(product(names, repeat=2))
    for size in range(max_edges + 1):
        for chosen in combinations_with_replacement(pairs, size):
            g = DirectedGraph.of(names, [(f"e{i}", a, b) for i, (a, b) in enumerate(chosen)])
            if not is_acyclic(g):
                yield g


def cyclic_census(vertices: int, max_edges: int, unforked: bool = True) -> int:
    """Probe each graph of :func:`cyclic_multigraphs` under the bounds 1 and
    2, and return how many of them have a forked vertex.  A forked graph's
    probe must not be distributive, so ``classify --enumerate`` cannot
    answer "inconclusive" on it; an unforked graph's probe (skipped unless
    ``unforked``) must be distributive."""
    forked = 0
    for g in cyclic_multigraphs(vertices, max_edges):
        fork = bool(forked_vertices(g))
        forked += fork
        for bound in (1, 2) if fork or unforked else ():
            distributive = product_verdicts(component_lattices(g, bound))["distributive"]
            assert distributive != fork, (bound, graph_text(g))
    return forked


# ------------------------------------------------------------ hypothesis


def closure_lattice(points: int, generators) -> FiniteLattice:
    """The lattice of the smallest intersection-closed family of subsets
    of ``points`` points (bitmasks) holding the full set and the
    generators, ordered by inclusion.  Unlike triple lattices these reach
    every verdict combination, modular but not distributive included."""
    full = (1 << points) - 1
    family = {full}
    for gen in generators:
        family |= {gen & m for m in family}
    return from_poset(sorted(family), lambda a, b: a & b == a)


def product_lattice(factors, rng: random.Random | None) -> tuple[FiniteLattice, np.ndarray]:
    """The direct product of ``factors`` built whole by ``from_poset``, its
    elements (coordinate tuples) in shuffled order, or in reverse
    lexicographic order if ``rng`` is None, and those coordinates."""
    elements = list(product(*(range(len(f)) for f in factors)))
    if rng is None:
        elements.reverse()
    else:
        rng.shuffle(elements)
    coords = np.array(elements, dtype=np.intp).reshape(len(elements), len(factors))
    m = np.ones((len(elements), len(elements)), dtype=bool)
    for k, f in enumerate(factors):
        m &= f.leq[np.ix_(coords[:, k], coords[:, k])]
    return from_poset(elements, m), coords


@st.composite
def closure_lattice_strategy(draw, max_points: int = 5, max_generators: int = 7):
    points = draw(st.integers(1, max_points))
    gens = draw(st.lists(st.integers(0, (1 << points) - 1), max_size=max_generators))
    return closure_lattice(points, gens)


# One weak component each, on vertices 0, 1, ...: (vertex count, edges).
INTERLEAVED_SHAPES = {
    "isolated": (1, []),
    "edge": (2, [(0, 1)]),
    "fork": (3, [(0, 1), (0, 2)]),
    "loop": (1, [(0, 0)]),
    "loopout": (2, [(0, 0), (0, 1)]),
    "ring2": (2, [(0, 1), (1, 0)]),
    "ring3": (3, [(0, 1), (1, 2), (2, 0)]),
}


@st.composite
def interleaved_components(draw, max_triples: int = 1500):
    """A graph of two to four weak components from
    :data:`INTERLEAVED_SHAPES` whose vertex and edge names are drawn apart
    from the components, so that sorted names (and cycles sorted by edge
    names) interleave across them, and a bound among 1, 6 and 12 (None if
    the graph is acyclic), under which the triple lattice has at most
    ``max_triples`` elements."""
    shapes = draw(st.lists(st.sampled_from(sorted(INTERLEAVED_SHAPES)), min_size=2, max_size=4))
    sizes = [INTERLEAVED_SHAPES[k][0] for k in shapes]
    edges = sum(len(INTERLEAVED_SHAPES[k][1]) for k in shapes)
    vnames = draw(st.permutations([f"v{i:02d}" for i in range(sum(sizes))]))
    enames = iter(draw(st.permutations([f"e{i:02d}" for i in range(edges)])))
    es, start = [], 0
    for k, n in zip(shapes, sizes):
        es += [(next(enames), vnames[start + a], vnames[start + b]) for a, b in INTERLEAVED_SHAPES[k][1]]
        start += n
    g = DirectedGraph.of(vnames, es)
    bound = None if is_acyclic(g) else draw(st.sampled_from((1, 6, 12)))
    count = bounded_triple_count(g, bound) if bound else len(reference_triples(g))
    assume(count <= max_triples)
    return g, bound


@st.composite
def graph_strategy(draw, max_vertices: int = 5, max_edges: int = 6, acyclic: bool = False):
    k = draw(st.integers(1, max_vertices))
    names = [f"v{i}" for i in range(k)]
    if acyclic and k == 1:
        return DirectedGraph.of(names, [])
    m = draw(st.integers(0, max_edges))
    edges = []
    for i in range(m):
        if acyclic:
            a = draw(st.integers(0, k - 2))
            b = draw(st.integers(a + 1, k - 1))
        else:
            a = draw(st.integers(0, k - 1))
            b = draw(st.integers(0, k - 1))
        edges.append((f"e{i}", names[a], names[b]))
    return DirectedGraph.of(names, edges)
