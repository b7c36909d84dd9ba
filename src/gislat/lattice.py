"""Finite lattices from their order, keyed by their irreducibles.

A lattice is built from its elements and its order, as a predicate or a
boolean matrix, by one route from that matrix alone (:func:`from_poset`).
x ↦ J ∩ ↓x, the join-irreducibles below x, is an order embedding of a
finite lattice that sends a ∧ b to J(a) ∩ J(b), and dually M(a ∨ b) =
M(a) ∩ M(b) for the meet-irreducibles above (Davey and Priestley,
*Introduction to Lattices and Order*, ch. 2 and 5).  These keys, uint64
words laid out word-major, make the order a partial order when distinct
and ordered by inclusion; the joins of each x with each j whose lower
cover lies below x, by key or else by up-set, then prove a lattice and
give its covers.  Meets and joins are read off the keys, a ∧ b the
element keyed K(a) ∩ K(b) and a ∨ b the one dual-keyed M(a) ∩ M(b), so
no meet or join table is built.  No closed-form meet/join enters, so
these lattices are the poset-theoretic oracle for the formula-computed
meets and joins elsewhere in the package.

:func:`product_verdicts` decides the four verdicts of a direct product,
a lattice being the product of itself alone, from known characterisations
(Grätzer, *Lattice Theory: Foundation*, ch. IV), each read off the cover
pairs: upper semimodularity as every two distinct upper covers of one
element having a common upper cover, lower semimodularity dually,
modularity as both, and distributivity as every join-irreducible j being
join-prime, that is {x : j ≰ x} having a greatest element.
:func:`product_witness` gives a failure its pentagon or diamond from a
direct search, an independent route to the same verdict.

:func:`product_covers`, :func:`product_pentagon` and :func:`product_diamond`
read the cover pairs, first pentagon and first diamond of a direct product
off its factors alone; :func:`find_pentagon` and :func:`find_diamond` are the
product of one factor.  :func:`order_isomorphic` compares whole order rows,
pruned by signatures ranked jointly over both lattices.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Sequence

import numpy as np


class NotALatticeError(ValueError):
    """A pair of elements without a unique meet or join."""

    def __init__(self, pair, which: str) -> None:
        a, b = pair
        super().__init__(f"no unique {which} for {a!r} and {b!r}")
        self.pair = pair
        self.which = which


@dataclass(frozen=True)
class SublatticeWitness:
    """Five element indices forming a pentagon or diamond.

    Pentagon members are (bottom, low, high, side, top) with
    bottom < low < high < top a chain and the side element meeting both
    chain elements at the bottom and joining them at the top.  Diamond
    members are (bottom, atom, atom, atom, top).
    """

    kind: str  # "pentagon" | "diamond"
    members: tuple[int, int, int, int, int]


class FiniteLattice:
    """Immutable element list, order matrix, cover pairs and irreducible keys
    (``keys[w, x]``: word w of the bitset of join-irreducibles below x), from
    :func:`from_poset`.  The dual keys and the labels' tuple are built on
    first read; no meet or join table is built."""

    def __init__(self, labels, leq_matrix, cover_pairs, keys) -> None:
        self.listing: Sequence = labels
        self.n: int = len(labels)
        self.leq: np.ndarray = leq_matrix
        # (lower, upper) with upper[k] covering lower[k], sorted by (lower, upper)
        self.cover_pairs: tuple[np.ndarray, np.ndarray] = cover_pairs
        self.keys: np.ndarray = keys

    @cached_property
    def labels(self) -> tuple:
        """The elements: ``listing``, the sequence given, as a tuple made on
        first read."""
        return tuple(self.listing)

    @cached_property
    def dual_keys(self) -> np.ndarray:
        """``[w, x]``: word w of the bitset of meet-irreducibles above x."""
        irreducible = np.bincount(self.cover_pairs[0], minlength=self.n) == 1
        return _words(self.leq[:, irreducible].T)

    @cached_property
    def distributive(self) -> bool:
        """:func:`is_distributive`, decided once."""
        return is_distributive(self)

    @cached_property
    def cover_set(self) -> frozenset[tuple[int, int]]:
        """(upper, lower) for every cover pair."""
        return frozenset(zip(self.cover_pairs[1].tolist(), self.cover_pairs[0].tolist()))

    def __len__(self) -> int:
        return self.n


_BITS = np.left_shift(np.uint64(1), np.arange(64, dtype=np.uint64))  # [k]: bit k of a word


def _words(rows: np.ndarray) -> np.ndarray:
    """The columns of the bool ``rows`` (r × n) as bitsets, word-major:
    bit k % 64 of ``[k // 64, x]`` is ``rows[k, x]``; at least one word."""
    chunks = (rows[k : k + 64] for k in range(0, max(1, len(rows)), 64))
    return np.array([c.T.astype(np.uint64) @ _BITS[: len(c)] for c in chunks])


def _disjoint(keys: np.ndarray, masks: np.ndarray) -> np.ndarray:
    """``[k, b]``: ``masks[:, k]`` and ``keys[:, b]`` share no bit (both
    word-major)."""
    out = (masks[0][:, None] & keys[0]) == 0
    for w in range(1, len(keys)):
        out &= (masks[w][:, None] & keys[w]) == 0
    return out


def _flat(keys: np.ndarray) -> np.ndarray:
    """One comparable item per key: its word, or its words as raw bytes."""
    return keys[0] if len(keys) == 1 else np.ascontiguousarray(keys.T).view(f"V{8 * len(keys)}").ravel()


def _index(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The elements sorted by key, and their keys in that order."""
    order = np.argsort(flat := _flat(keys))
    return order, flat[order]


def _find(index, query: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """For each key of ``query`` (words × k): the element with that key in
    :func:`_index` ``index``, and whether there is one."""
    order, ranked = index
    query = _flat(query)
    at = np.minimum(np.searchsorted(ranked, query), len(ranked) - 1)
    return order[at], ranked[at] == query


def _row_blocks(keys: np.ndarray):
    """Each pair's lookup, in blocks of rows s, …: (s, at, found), ``at[a - s,
    b]`` the element keyed ``keys[:, a] & keys[:, b]``, ``found`` if any."""
    n = keys.shape[1]
    index, step = _index(keys), max(1, (1 << 16) // max(1, n * len(keys)))
    for s in range(0, n, step):
        at, ok = _find(index, (keys[:, s : s + step, None] & keys[:, None]).reshape(len(keys), -1))
        yield s, at.reshape(-1, n), ok.reshape(-1, n)


def _inclusion(keys: np.ndarray, m: np.ndarray) -> bool:
    """Whether ``m[x, y]`` iff ``keys[:, x]`` ⊆ ``keys[:, y]``, in row blocks."""
    off, step = ~keys, max(1, (1 << 14) // max(1, len(m)))
    blocks = range(0, len(m), step)
    return all((_disjoint(off, keys[:, s : s + step]) == m[s : s + step]).all() for s in blocks)


def _keyed(m: np.ndarray):
    """(J', c, keys, index) if the keys J' ∩ ↓x are distinct and ``m``
    (``m[x, y]``: x <= y) is key inclusion, which makes ``m`` a partial
    order; else None.  J' holds each j with some c < j and |↓c| = |↓j| − 1,
    that is whose strict down-set is ↓c, and ``c[t]`` is that c for j[t]."""
    n = len(m)
    size = m.sum(axis=0, dtype=np.int32)  # [x]: |↓x|
    step = max(1, (1 << 18) // max(1, n))
    irreducible = np.zeros(n, dtype=bool)
    for s in range(0, n, step):
        irreducible |= (m[s : s + step] & (size[s : s + step, None] == size - 1)).any(axis=0)
    j = np.flatnonzero(irreducible)
    c = (m[:, j] & (size[:, None] == size[j] - 1)).argmax(axis=0) if n else j
    index = _index(keys := _words(m[j]))
    if (index[1][1:] == index[1][:-1]).any() or not _inclusion(keys, m):
        return None
    return j, c, keys, index


def _covers(m: np.ndarray, j, c, keys: np.ndarray, index) -> tuple[np.ndarray, np.ndarray] | None:
    """The cover pairs of the partial order ``m`` keyed by :func:`_keyed`
    if it is a lattice, else None.  j[t] grows x if c[t] <= x but j[t] ≰ x.
    x ∨ j[t] is the element keyed K(x) ∪ {j[t]} if any (every upper bound's
    key holds that set), else the one whose up-set is ↑x ∩ ↑j[t] if any.
    If every growing pair has a join, so has every pair x, y: adding K(y)
    to x one least j at a time, each j grows the element reached so far;
    and the element keyed ∅ is a bottom.  Then y covers x iff y = x ∨ j
    for every j that grows x and lies below y.

    In a distributive lattice (Birkhoff: O(J')) each growing pair is a
    cover K(x) ⊂ K(x) ∪ {j}, an edge of the hypercube on J' among n keys,
    of which there are at most n·log2(n)/2; an order with more growing
    pairs is no such lattice, and its joins are all read off the up-sets,
    with no key looked up."""
    grows = m[c] & ~m[j]  # [t, x]: j[t] ∉ K(x) ⊇ K(c[t]) = K(j[t]) ∖ {j[t]}
    t, low = np.nonzero(grows)
    if len(t) > len(m) * math.log2(max(1, len(m))) / 2:
        up, found = np.zeros(len(t), np.intp), np.zeros(len(t), bool)
    else:
        up, found = _find(index, keys[:, low] | keys[:, j[t]])  # K(x) ∪ K(j[t]) = K(x) ∪ {j[t]}
    if not found.all():
        ups, (open_,) = _words(m.T), np.nonzero(~found)  # [w, x]: ↑x packed
        upper, step = _index(ups), max(1, (1 << 18) // len(ups))
        for k in np.split(open_, range(step, len(open_), step)):
            up[k], ok = _find(upper, ups[:, low[k]] & ups[:, j[t[k]]])
            if not ok.all():
                return None
    pairs, count = np.unique(low * len(m) + up, return_counts=True)
    low, up = np.divmod(pairs, len(m))
    below = _words(grows)[:, low] & keys[:, up]  # the j that grow x and lie below y
    keep = count == np.bitwise_count(below).sum(axis=0)
    return low[keep], up[keep]


def _no_lattice(labels: Sequence, m: np.ndarray, keyed: bool) -> ValueError:
    """The error for a matrix :func:`from_poset` declines: ValueError if
    ``m`` is not a partial order (reflexive, antisymmetric, and x <= y
    giving ↓x ⊆ ↓y; known if ``keyed``), else the :class:`NotALatticeError`
    of its first pair whose ↓a ∩ ↓b or ↑a ∩ ↑b is no ↓c or ↑c, looked up in
    row blocks up to the first block that holds one."""
    down = _words(m)
    if not keyed:
        if not m.diagonal().all():
            return ValueError("leq is not reflexive")
        if (m & m.T).sum() != len(m):
            return ValueError("leq is not antisymmetric")
        if not _inclusion(down, m):
            return ValueError("leq is not transitive")
    for (s, _, meet), (_, _, join) in zip(_row_blocks(down), _row_blocks(_words(m.T))):
        bad = np.argwhere(~(meet & join))  # failures are symmetric: the first has i <= j
        if len(bad):
            i, j = bad[0]
            return NotALatticeError((labels[s + i], labels[j]), "join" if meet[i, j] else "meet")
    raise AssertionError("a partial order with every meet and join")


def from_poset(labels: Sequence, leq: Callable | np.ndarray) -> FiniteLattice:
    """Build a lattice from elements and their order, as a predicate
    ``leq(a, b)`` or an n × n boolean matrix, by one route: the keys
    J' ∩ ↓x (:func:`_keyed`), then the joins of the growing pairs, which
    prove a lattice and give its covers (:func:`_covers`); a matrix either
    declines gets :func:`_no_lattice`'s error.  A bool ndarray is kept as
    the lattice's ``leq`` without a copy, and nothing writes to it;
    ``labels`` is kept as given, made a tuple on first read.

    Raises ValueError if ``leq`` is not a partial order and
    :class:`NotALatticeError` naming the first pair (i <= j, row-major)
    without a unique greatest lower bound or least upper bound, the meet
    reported before the join.
    """
    n = len(labels)
    if callable(leq):
        leq = [[bool(leq(a, b)) for b in labels] for a in labels]
    m = np.asarray(leq, dtype=bool).reshape(n, n)  # no labels give shape (0,)
    keyed = _keyed(m)
    covers = None if keyed is None else _covers(m, *keyed)
    if covers is None:
        raise _no_lattice(labels, m, keyed is not None)
    return FiniteLattice(labels, m, covers, keyed[2])


def is_distributive(lat: FiniteLattice) -> bool:
    """Every join-irreducible j (exactly one lower cover) is join-prime:
    j <= a ∨ b implies j <= a or j <= b.  That holds iff the down-set
    D_j = {x : j ≰ x}, which holds the bottom, has a greatest element,
    and that can only be its member w with the largest down-set; so j is
    join-prime iff D_j lies below w."""
    size = lat.leq.sum(axis=0, dtype=np.int32)
    irreducible = np.flatnonzero(np.bincount(lat.cover_pairs[1], minlength=lat.n) == 1)
    step = max(1, (1 << 16) // max(1, lat.n))
    for s in range(0, len(irreducible), step):
        outside = ~lat.leq[irreducible[s : s + step]]  # [j, x]: x in D_j
        w = np.where(outside, size, -1).argmax(axis=1)
        if (outside & ~lat.leq[:, w].T).any():
            return False
    return True


def is_modular(lat: FiniteLattice) -> bool:
    """Upper and lower semimodular, which for finite lattices is modularity."""
    return is_upper_semimodular(lat) and is_lower_semimodular(lat)


def _semimodular(low: np.ndarray, up: np.ndarray, n: int) -> bool:
    """Every two distinct upper covers a, b of one x = a ∧ b share an upper
    cover (``up[k]`` covers ``low[k]``, sorted by (low, up)): in a lattice,
    upper semimodularity, as a shared upper cover d is a ∨ b (a < a ∨ b <= d).
    The pairs a < b come from one self-join of the cover pairs, and each
    element's upper covers are one packed row; a pair's rows are ANDed."""
    later = np.searchsorted(low, low, side="right") - np.arange(len(low)) - 1
    left = np.repeat(np.arange(len(low)), later)  # pair i with each later i' of its x
    start = np.repeat(np.cumsum(later) - later, later)
    right = left + 1 + np.arange(len(left)) - start
    a, b = up[left], up[right]
    cov = np.zeros((n, n), dtype=bool)  # [x, y]: y covers x
    cov[low, up] = True
    rows = np.packbits(cov, axis=1)
    step = max(1, (1 << 18) // max(1, rows.shape[1]))
    pairs = range(0, len(a), step)
    return all((rows[a[s : s + step]] & rows[b[s : s + step]]).any(axis=1).all() for s in pairs)


def is_upper_semimodular(lat: FiniteLattice) -> bool:
    """a, b both covering a ∧ b forces a ∨ b to cover both a and b."""
    return _semimodular(*lat.cover_pairs, lat.n)


def is_lower_semimodular(lat: FiniteLattice) -> bool:
    """a ∨ b covering both a and b forces a and b to cover a ∧ b: upper
    semimodularity of the dual lattice."""
    low, up = lat.cover_pairs
    by_up = np.argsort(up, kind="stable")
    return _semimodular(up[by_up], low[by_up], lat.n)


def _witness(kind: str, factors: Sequence[FiniteLattice], coords, x, y, z) -> SublatticeWitness:
    """(x∧z, x, y, z, x∨z) in the product of ``factors`` (element i is row i
    of ``coords``): the bounds have the factors' meets and joins as
    coordinates, read off the keys with no table: a ∧ b is the element
    keyed K(a) & K(b), a ∨ b the one dual-keyed M(a) & M(b)."""
    meets, joins = [], []
    for f, a, b in zip(factors, coords[x], coords[z]):
        for keys, bounds in ((f.keys, meets), (f.dual_keys, joins)):
            bounds.append((keys == (keys[:, a] & keys[:, b])[:, None]).all(axis=0).argmax())
    lo, hi = (int((coords == c).all(axis=1).argmax()) for c in (meets, joins))
    return SublatticeWitness(kind, (lo, x, y, z, hi))


def find_pentagon(lat: FiniteLattice) -> SublatticeWitness | None:
    """First pentagon in lexicographic (low, high, side) index order: the
    lattice as the product of itself alone (:func:`product_pentagon`)."""
    return product_pentagon((lat,), np.arange(lat.n)[:, None])


def product_pentagon(factors: Sequence[FiniteLattice], coords) -> SublatticeWitness | None:
    """First pentagon, in lexicographic (low, high, side) index order, of
    the direct product of ``factors`` (element i is row i of the integer
    array ``coords``), without building it.

    (p∧b, p, q, b, p∨b) is a pentagon iff p < q and b meets and joins q
    as p.  Such q and b exist for p iff b meets and joins some upper cover
    u of p as p (take u <= q one way, q = u the other).  Meets and joins go
    by coordinates, so (p, q, b) is a pentagon's (low, high, side) iff p <
    q and (p_k, q_k, b_k) is one in every factor k with p_k ≠ q_k: p is the
    first element with a coordinate at a low end in its factor, q the first
    above p each of whose changed coordinates has some side, and b the
    first side of them all.  A distributive factor has no low end, and q
    keeps p's coordinate there.  In a factor with keys J and M, b meets and
    joins y as x iff J(b) misses J(x) ⊕ J(y) and M(b) misses M(x) ⊕ M(y)."""

    def side(f, x, y):  # [k, b]: b meets and joins y[k] as x[k]
        keys = np.vstack((f.keys, f.dual_keys))
        return _disjoint(keys, keys[:, x] ^ keys[:, y])

    p = len(coords)
    for f, c in zip(factors, coords.T):
        if f.distributive:
            continue
        first = np.unique(c, return_index=True)[1]  # [x]: the first element with c = x
        lows, ups = (x[np.argsort(first[f.cover_pairs[0]], kind="stable")] for x in f.cover_pairs)
        step = max(1, (1 << 16) // max(1, f.n))
        for s in range(0, len(lows), step):  # the first block with a low end holds the first
            x = lows[s : s + step]
            hit = side(f, x, ups[s : s + step]).any(axis=1)
            if hit.any():
                p = min(p, int(first[x[hit]].min()))
                break
    if p == len(coords):
        return None

    high = np.ones(len(coords), dtype=bool)
    for f, x, c in zip(factors, coords[p], coords.T):
        if f.distributive:
            high &= c == x
            continue
        above, some = f.leq[x], np.zeros(f.n, dtype=bool)
        some[above] = side(f, [x], above).any(axis=1)  # all of x's own row holds
        high &= some[c]
    high[p] = False
    q = int(high.argmax())
    ok = np.ones(len(coords), dtype=bool)
    for f, x, y, c in zip(factors, coords[p], coords[q], coords.T):
        if x != y:  # every b is a side of an unchanged coordinate
            ok &= side(f, [x], [y])[0, c]
    b = int(ok.argmax())

    return _witness("pentagon", factors, coords, p, q, b)


def product_covers(factors: Sequence[FiniteLattice], coords) -> tuple[np.ndarray, np.ndarray]:
    """The cover pairs of the direct product of ``factors`` (element i is row
    i of the integer array ``coords``, every tuple once), sorted as in ``cover_pairs``:
    an element's upper covers raise one coordinate k to an upper cover in
    factor k, found by the mixed-radix key of the coordinates."""
    shape = [f.n for f in factors]
    key = np.ravel_multi_index(tuple(coords.T), shape)
    index = np.argsort(key)  # key is a permutation: index[key[i]] = i
    lows, ups = [], []
    for k, (f, c) in enumerate(zip(factors, coords.T)):
        lo, up = f.cover_pairs
        i = np.argsort(c, kind="stable").reshape(f.n, -1)[lo]  # [k]: the elements with c = lo[k]
        lows.append(i.ravel())
        ups.append(index[key[i] + ((up - lo) * math.prod(shape[k + 1 :]))[:, None]].ravel())
    low, up = np.concatenate(lows), np.concatenate(ups)
    order = np.lexsort((up, low))
    return low[order], up[order]


def find_diamond(lat: FiniteLattice) -> SublatticeWitness | None:
    """First diamond in lexicographic (atom, atom, atom) index order: the
    lattice as the product of itself alone (:func:`product_diamond`)."""
    return product_diamond((lat,), np.arange(lat.n)[:, None])


def product_diamond(factors: Sequence[FiniteLattice], coords) -> SublatticeWitness | None:
    """First diamond, in lexicographic (atom, atom, atom) index order, of
    the direct product of ``factors`` (element i is row i of the integer
    array ``coords``), from the factors' keys alone.

    An element's key K stacks its factors' keys and dual keys by
    coordinate, so K(a) & K(b) is the key of (a ∧ b, a ∨ b).  Three
    distinct elements whose pairwise intersections are equal are pairwise
    incomparable, so with their common meet and join they form a diamond.
    For each x the pair keys P(y) = K(x) & K(y), y after x, are ranked,
    and only a y whose rank recurs can be an atom beside x.  The first
    (y, z) of one rank with K(y) & K(z) = P(y), in row-major order, has
    y < z, as that test is symmetric and no y passes it with itself.
    """
    keys = np.vstack([np.vstack((f.keys, f.dual_keys))[:, c] for f, c in zip(factors, coords.T)])
    for x in range(len(coords) - 2):
        pair = keys[:, x, None] & keys[:, x + 1 :]
        _, rank, count = np.unique(_flat(pair), return_inverse=True, return_counts=True)
        (ys,) = np.nonzero(count[rank] > 1)
        rank, pair, later = rank[ys], pair[:, ys], keys[:, x + 1 + ys]
        step = max(1, (1 << 16) // max(1, len(ys) * len(keys)))
        for s in range(0, len(ys), step):
            hit = rank[s : s + step, None] == rank  # [y, z]: of one rank
            hit &= ((later[:, s : s + step, None] & later[:, None]) == pair[:, s : s + step, None]).all(axis=0)
            if hit.any():
                y, z = divmod(int(hit.argmax()), len(ys))
                return _witness("diamond", factors, coords, x, x + 1 + int(ys[s + y]), x + 1 + int(ys[z]))
    return None


def product_verdicts(factors: Sequence[FiniteLattice]) -> dict[str, bool]:
    """The four verdicts of the direct product of ``factors``, each the
    conjunction of the factors' own: a product is distributive (modular)
    iff every factor is, and its covers change one coordinate, so the
    semimodularities carry over too.  A distributive factor is modular,
    hence semimodular both ways, so only the other factors are scanned."""
    rest = [f for f in factors if not f.distributive]
    upper = all(is_upper_semimodular(f) for f in rest)
    lower = all(is_lower_semimodular(f) for f in rest)
    return {
        "distributive": not rest,
        "modular": upper and lower,
        "lower_semimodular": lower,
        "upper_semimodular": upper,
    }


def product_witness(factors: Sequence[FiniteLattice], coords, verdicts) -> SublatticeWitness | None:
    """The witness of the direct product of ``factors`` (element i is row i of
    ``coords``) with :func:`product_verdicts` ``verdicts``: None if it is
    distributive (``coords`` unread), else its first diamond if it is
    modular, else its first pentagon (None if the search disagrees with the
    verdicts)."""
    if verdicts["distributive"]:
        return None
    return (product_diamond if verdicts["modular"] else product_pentagon)(factors, coords)


def _stable_signatures(lat1: FiniteLattice, lat2: FiniteLattice) -> tuple[np.ndarray, np.ndarray]:
    """Order-invariant element colors of both lattices, refined until the
    partition is stable.  Each round ranks the two lattices' signatures
    together, so equal colors mean equal invariants across them."""
    n = lat1.n + lat2.n
    covers, raw, sig = [([], []) for _ in range(n)], [], None  # lat2's elements follow lat1's
    for shift, lat in ((0, lat1), (lat1.n, lat2)):
        # down-set and up-set sizes; the first refinement adds the cover counts
        raw += zip(lat.leq.sum(axis=0).tolist(), lat.leq.sum(axis=1).tolist())
        for lo, u in zip(*(x.tolist() for x in lat.cover_pairs)):
            covers[u + shift][0].append(lo + shift)  # [i]: (lower covers, upper covers)
            covers[lo + shift][1].append(u + shift)
    while True:  # each round splits a class or ends
        ranks = {s: r for r, s in enumerate(sorted(set(raw)))}
        new = [ranks[s] for s in raw]
        if new == sig:
            return tuple(np.split(np.array(sig, dtype=np.intp), [lat1.n]))
        sig = new
        # a color and the sorted colors of the lower and of the upper covers
        raw = [(s, *(tuple(sorted(sig[j] for j in c)) for c in cs)) for s, cs in zip(sig, covers)]


def order_isomorphic(lat1: FiniteLattice, lat2: FiniteLattice) -> bool:
    """True iff an order-preserving bijection exists in both directions.

    Backtracking over candidate images, pruned by stable order-invariant
    signatures.  The search keeps an explicit stack of candidate
    iterators, one per assigned element, so large lattices cannot exhaust
    the interpreter's recursion limit; a candidate is tested against all
    the elements assigned before it by one row and one column comparison."""
    sig1, sig2 = _stable_signatures(lat1, lat2)
    if not np.array_equal(np.sort(sig1), np.sort(sig2)):  # False on a size mismatch too
        return False
    if lat1.n == 0:
        return True
    order = np.argsort(np.bincount(sig2)[sig1], kind="stable")  # fewest candidates first
    image = np.empty(lat1.n, dtype=np.intp)  # image[d]: where order[d] goes
    stack = [iter(np.flatnonzero(sig2 == sig1[order[0]]).tolist())]
    while stack:
        d = len(stack) - 1  # order[:d] is mapped to image[:d], fixed while d's iterator lives
        row, col = lat1.leq[order[d], order[:d]], lat1.leq[order[:d], order[d]]
        for j in stack[-1]:
            if (lat2.leq[j, image[:d]] == row).all() and (lat2.leq[image[:d], j] == col).all():
                break
        else:
            stack.pop()
            continue
        image[d] = j
        if d + 1 == lat1.n:
            return True
        fits = sig2 == sig1[order[d + 1]]  # the next candidates: equal signature, not used
        fits[image[: d + 1]] = False
        stack.append(iter(np.flatnonzero(fits).tolist()))
    return False


def hasse_dot(labels: Sequence, cover_pairs, render: Callable = str) -> str:
    """Byte-stable DOT Hasse diagram of ``labels`` and ``cover_pairs`` (lower,
    upper): one node per element, one undirected-style edge per cover pair, drawn bottom-up."""
    names = (render(lab).replace("\\", "\\\\").replace('"', '\\"') for lab in labels)
    lines = ["digraph hasse {", "  rankdir=BT;", "  node [shape=box];", "  edge [dir=none];"]
    lines += (f'  n{i} [label="{name}"];' for i, name in enumerate(names))
    lines += (f"  n{lo} -> n{up};" for lo, up in zip(*(x.tolist() for x in cover_pairs)))
    return "\n".join(lines) + "\n}\n"
