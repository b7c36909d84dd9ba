"""Finite lattices from their order, with meet/join tables built on first read.

A lattice is built from an element list and its order, as a predicate
or a boolean matrix, and from that matrix alone.  A distributive lattice
with at most 63 join-irreducibles is certified first, by Birkhoff's
theorem (it is the lattice of down-sets of its join-irreducibles J, x
going to J ∩ ↓x): its elements are keyed by the bitsets J ∩ ↓x, and the
keys give its cover pairs, with no table built.  Any other order takes
the table route.  The cover pairs and the transitivity check come from
one OR over the order's pairs: what lies strictly above some k > i is
the union of the packed strict up-sets of those k.  a ∧ b is the largest
c ∧ b over the lower covers c of a, confirmed by induction over those
lower covers (each c ∧ b confirmed and below it), one height level
(longest chain below) at a time; joins are the same on the dual order.
A finite poset with a top in which every pair has a meet is a lattice
(a ∨ b is the meet of the common upper bounds), so the meet table and a
top prove a lattice; only a poset that fails that check gets its join
table at once, to name the first pair without a meet or a join.  Every
other table waits for its first read.
Because no closed-form meet/join ever enters the construction, lattices
built here double as the poset-theoretic oracle for formula-computed
meets and joins elsewhere in the package.

:func:`product_verdicts` decides the four verdicts of a direct product,
a lattice being the product of itself alone, from known characterisations
(Grätzer, *Lattice Theory: Foundation*, ch. IV), each read off the cover
pairs: upper semimodularity as every two distinct upper covers of one
element having a join that covers both, lower semimodularity dually,
modularity as both, and distributivity as every join-irreducible j being
join-prime, that is {x : j ≰ x} having a greatest element.  A distributive
lattice is modular, so its two semimodularity scans are skipped, and with
them the only read of joins.  :func:`product_witness` gives a failure its
pentagon or diamond from a direct search, an independent route to the same
verdict.

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
    """Immutable element list, order matrix, cover pairs and meet/join tables.

    Both tables, and the tuple of labels, are built on first read: a
    distributive lattice's verdicts, its covers and DOT, and the order
    isomorphism need only the order and the cover pairs."""

    def __init__(self, labels, leq_matrix, cover_pairs) -> None:
        self.listing: Sequence = labels
        self.n: int = len(labels)
        self.leq: np.ndarray = leq_matrix
        # (lower, upper) with upper[k] covering lower[k], sorted by (lower, upper)
        self.cover_pairs: tuple[np.ndarray, np.ndarray] = cover_pairs

    @cached_property
    def labels(self) -> tuple:
        """The elements: ``listing``, the sequence given, as a tuple made on
        first read."""
        return tuple(self.listing)

    @cached_property
    def meet_t(self) -> np.ndarray:
        """The greatest lower bound of every pair (:func:`_meet_table`)."""
        return _meet_table(self.leq.copy(), *self.cover_pairs)[0]

    @cached_property
    def join_t(self) -> np.ndarray:
        """The meet table of the dual order."""
        lower, upper = self.cover_pairs
        return _meet_table(_transposed(self.leq), upper, lower)[0]

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


def _between(lt: np.ndarray) -> np.ndarray:
    """``between[i, j]``: some k has i < k < j (``lt[x, y]``: x < y).

    Row i is the OR of the strict up-sets of the elements above i, as rows
    packed into 64-bit words: one segment per i over the pairs of ``lt``,
    whose row-major flat indices come grouped by i.  The pairs go in blocks
    of about 2^18 gathered words; ``|=`` carries a row across a block edge."""
    n = len(lt)
    packed = np.packbits(lt, axis=1)
    packed = np.pad(packed, ((0, 0), (0, -packed.shape[1] % 8))).view(np.uint64)
    out = np.zeros_like(packed)
    pairs = np.flatnonzero(lt)  # half the memory of nonzero's two arrays
    step = max(1, (1 << 18) // max(1, packed.shape[1]))
    for s in range(0, len(pairs), step):
        low, high = np.divmod(pairs[s : s + step], n)
        starts = np.flatnonzero(np.diff(low, prepend=-1))
        out[low[starts]] |= np.bitwise_or.reduceat(packed[high], starts)
    return np.unpackbits(out.view(np.uint8), axis=1, count=n).view(bool)


def _levels(lower: np.ndarray, upper: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Elements by height (the longest chain below) and where each level starts,
    by relaxation over the cover pairs (``upper[k]`` covers ``lower[k]``)."""
    height, new = np.full(n, -1, dtype=np.int32), np.zeros(n, dtype=np.int32)
    while (new != height).any():
        height, new = new, np.zeros_like(new)
        np.maximum.at(new, upper, height[lower] + 1)
    order = np.argsort(height, kind="stable").astype(np.int32)
    return order, np.flatnonzero(np.diff(height[order])) + 1


def _transposed(m: np.ndarray, tile: int = 256) -> np.ndarray:
    """``m.T`` in row order, copied in square tiles: a plain copy of the
    transposed view reads ``m`` by columns, several times slower at n = 4096."""
    out = np.empty(m.shape[::-1], dtype=m.dtype)
    for i in range(0, len(m), tile):
        for j in range(0, len(m), tile):
            out[i : i + tile, j : j + tile] = m[j : j + tile, i : i + tile].T
    return out


def _meet_table(
    ok: np.ndarray, lower: np.ndarray, upper: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Candidate glb of every pair, and whether induction confirms it
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
    order, cuts = _levels(lower, upper, n)
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


def _birkhoff(m: np.ndarray) -> tuple[np.ndarray, np.ndarray] | None:
    """The cover pairs of ``m`` (``m[x, y]``: x <= y) if it is the order of
    a distributive lattice with at most 63 join-irreducibles, else None,
    read off ``m`` alone (Birkhoff: such a lattice is the lattice O(J) of
    the down-sets of its join-irreducibles J, x going to J ∩ ↓x).

    J' holds each j with some c < j and |↓c| = |↓j| − 1, that is whose
    strict down-set has a greatest element: in a lattice, J.  x is keyed
    by the bitset J' ∩ ↓x.  Distinct keys, ∅ among them, and ``m`` equal
    to key inclusion make ``m`` a partial order and the keys down-sets of
    J'; if K ∪ {j} is a key for every key K and every j ∉ K whose strict
    J'-down-set lies in K, every down-set is a key, added one element at a
    time, so ``m`` is O(J'), whose covers are those K ⊂ K ∪ {j}.  The
    checks go cheapest first, the n × n comparison in row blocks last."""
    n = len(m)
    size = m.sum(axis=0)  # [x]: |↓x|
    step = max(1, (1 << 18) // max(1, n))
    irreducible = np.zeros(n, dtype=bool)
    for s in range(0, n, step):
        irreducible |= (m[s : s + step] & (size[s : s + step, None] == size - 1)).any(axis=0)
    j = np.flatnonzero(irreducible)
    if not n or len(j) > 63:
        return None
    bit = np.left_shift(np.uint64(1), np.arange(len(j), dtype=np.uint64))
    key = m[j].T.astype(np.uint64) @ bit  # [x]: J' ∩ ↓x
    order = np.argsort(key)
    ranked = key[order]
    if ranked[0] or (ranked[1:] == ranked[:-1]).any():
        return None
    below = key[j] & ~bit  # [t]: the strict J'-down-set of j[t]
    low, t = np.nonzero(((key[:, None] & bit) == 0) & ((below & ~key[:, None]) == 0))
    grown = key[low] | bit[t]
    at = np.minimum(np.searchsorted(ranked, grown), n - 1)
    if (ranked[at] != grown).any():
        return None
    for s in range(0, n, step):
        if (((key[s : s + step, None] & ~key) == 0) != m[s : s + step]).any():
            return None
    up = order[at]
    by = np.lexsort((up, low))
    return low[by], up[by]


def from_poset(labels: Sequence, leq: Callable | np.ndarray) -> FiniteLattice:
    """Build a lattice from elements and their order, as a predicate
    ``leq(a, b)`` or an n × n boolean matrix: a distributive lattice with
    at most 63 join-irreducibles through :func:`_birkhoff`, any other
    order through :func:`_between` and :func:`_meet_table`.  A bool
    ndarray is kept as the lattice's ``leq`` without a copy, and nothing
    writes to it.  ``labels`` is kept as given, a sequence that the
    lattice's ``labels`` makes a tuple of on first read.

    Raises ValueError if ``leq`` is not a partial order and
    :class:`NotALatticeError` naming the first pair (i <= j, row-major)
    without a unique greatest lower bound or least upper bound, the meet
    reported before the join.
    """
    n = len(labels)
    if callable(leq):
        leq = [[bool(leq(a, b)) for b in labels] for a in labels]
    m = np.asarray(leq, dtype=bool).reshape(n, n)  # no labels give shape (0,)
    covers = _birkhoff(m)
    if covers is not None:
        return FiniteLattice(labels, m, covers)

    if not m.diagonal().all():
        raise ValueError("leq is not reflexive")
    lt = m & ~np.eye(n, dtype=bool)
    if (lt & lt.T).any():
        raise ValueError("leq is not antisymmetric")
    # Once m is reflexive and antisymmetric, m is transitive iff lt is.
    # Transitivity and covers come from one OR over the order's pairs.
    between = _between(lt)
    if (between & ~m).any():
        raise ValueError("leq is not transitive")
    lower, upper = np.nonzero(lt & ~between)
    del lt, between  # room for the tables at the cap

    meet_t, meet_ok = _meet_table(m.copy(), lower, upper)
    lat = FiniteLattice(labels, m, (lower, upper))
    lat.meet_t = meet_t  # built already: fills the cached_property
    # A finite poset with a top in which every pair has a meet is a lattice:
    # a ∨ b is the meet of the common upper bounds, the top among them.
    if meet_ok.all() and m.all(axis=0).any():
        return lat
    # Any other poset but the empty one is no lattice.  A candidate may come
    # from a pair without a glb, so a failed induction only flags a pair for
    # the exact rule (the common bound with the largest down-set holds them
    # all).  Failures are symmetric: the first has i <= j.
    _, join_ok = _meet_table(_transposed(m), upper, lower)
    exact = (("meet", meet_ok, m.T, m.sum(axis=0)), ("join", join_ok, m, m.sum(axis=1)))
    for i, j in np.argwhere(np.triu(~(meet_ok & join_ok))):
        for which, ok, bounds, size in exact:
            common = bounds[i] & bounds[j]
            if not ok[i, j] and size[common].max(initial=-1) != np.count_nonzero(common):
                raise NotALatticeError((labels[i], labels[j]), which)
    return lat


def is_distributive(lat: FiniteLattice) -> bool:
    """Every join-irreducible j (exactly one lower cover) is join-prime:
    j <= a ∨ b implies j <= a or j <= b.  That holds iff the down-set
    D_j = {x : j ≰ x}, which holds the bottom, has a greatest element,
    and that can only be its member w with the largest down-set; so j is
    join-prime iff D_j lies below w."""
    size = lat.leq.sum(axis=0)
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


def _semimodular(low: np.ndarray, up: np.ndarray, join_t: np.ndarray) -> bool:
    """a, b both covering a ∧ b forces a ∨ b to cover both a and b
    (``up[k]`` covers ``low[k]``, sorted by (low, up)).  Two distinct upper
    covers a, b of one x meet at x, so only those pairs are checked, a < b,
    from one self-join of the cover pairs; whether y covers x is read off
    a transient boolean matrix of the cover pairs."""
    later = np.searchsorted(low, low, side="right") - np.arange(len(low)) - 1
    left = np.repeat(np.arange(len(low)), later)  # pair i with each later i' of its x
    start = np.repeat(np.cumsum(later) - later, later)
    right = left + 1 + np.arange(len(left)) - start
    a, b = up[left], up[right]
    cov = np.zeros(join_t.shape, dtype=bool)  # [x, y]: y covers x
    cov[low, up] = True
    j = join_t[a, b]
    return bool((cov[a, j] & cov[b, j]).all())


def is_upper_semimodular(lat: FiniteLattice) -> bool:
    """a, b both covering a ∧ b forces a ∨ b to cover both a and b."""
    return _semimodular(*lat.cover_pairs, lat.join_t)


def is_lower_semimodular(lat: FiniteLattice) -> bool:
    """a ∨ b covering both a and b forces a and b to cover a ∧ b: upper
    semimodularity of the dual lattice."""
    low, up = lat.cover_pairs
    by_up = np.argsort(up, kind="stable")
    return _semimodular(up[by_up], low[by_up], lat.meet_t)


def _witness(kind: str, factors: Sequence[FiniteLattice], coords, x, y, z) -> SublatticeWitness:
    """(x∧z, x, y, z, x∨z) in the product of ``factors`` (element i is row i
    of ``coords``): the bounds have the factors' meets and joins as
    coordinates, read off order rows with no table: a ∧ b is the common
    lower bound with the smallest up-set, a ∨ b the common upper bound with
    the largest."""
    meets, joins = [], []
    for f, a, b in zip(factors, coords[x], coords[z]):
        below, above = np.flatnonzero(f.leq[:, a] & f.leq[:, b]), np.flatnonzero(f.leq[a] & f.leq[b])
        meets.append(below[f.leq[below].sum(axis=1).argmin()])
        joins.append(above[f.leq[above].sum(axis=1).argmax()])
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

    (p∧b, p, q, b, p∨b) is a pentagon iff p < q share meet and join with b.
    Such q and b exist for p iff some upper cover u of p and some b have
    u <= p∨b and u∧b = p∧b (take u <= q one way, q = u the other).  Meets
    and joins go by coordinates, so (p, q, b) is a pentagon's (low, high,
    side) iff p < q and (p_k, q_k, b_k) is one in every factor k with
    p_k ≠ q_k: p is the first element with a coordinate at a low end in
    its factor, q the first above p each of whose changed coordinates has
    some side, and b the first side of them all.  A distributive factor
    has no low end, and q keeps p's coordinate there: no table is read."""
    p = len(coords)
    for f, c in zip(factors, coords.T):
        if f.distributive:
            continue
        first = np.unique(c, return_index=True)[1]  # [x]: the first element with c = x
        lows, ups = (x[np.argsort(first[f.cover_pairs[0]], kind="stable")] for x in f.cover_pairs)
        step = max(1, (1 << 16) // max(1, f.n))
        for s in range(0, len(lows), step):  # the first block with a low end holds the first
            x, u = lows[s : s + step], ups[s : s + step]
            hit = (f.leq[u[:, None], f.join_t[x]] & (f.meet_t[u] == f.meet_t[x])).any(axis=1)
            if hit.any():
                p = min(p, int(first[x[hit]].min()))
                break
    if p == len(coords):
        return None

    def side(f, x, y):  # [.., b]: (x, y, b) is a pentagon's (low, high, side) if x < y
        return (f.meet_t[y] == f.meet_t[x]) & (f.join_t[y] == f.join_t[x])

    high = np.ones(len(coords), dtype=bool)
    for f, x, c in zip(factors, coords[p], coords.T):
        if f.distributive:
            high &= c == x
            continue
        above, some = f.leq[x], np.zeros(f.n, dtype=bool)
        some[above] = side(f, x, above).any(axis=1)  # all of x's own row holds
        high &= some[c]
    high[p] = False
    q = int(high.argmax())
    ok = np.ones(len(coords), dtype=bool)
    for f, x, y, c in zip(factors, coords[p], coords[q], coords.T):
        if x != y:  # every b is a side of an unchanged coordinate
            ok &= side(f, x, y)[c]
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
    array ``coords``), without building its tables.

    Three distinct elements whose pairwise (meet, join) keys are equal
    are pairwise incomparable, so with their common meet and join they
    form a diamond.  Meets and joins go by coordinates, so a pair's key is
    its factors' keys ``meet_t * n_k + join_t`` in mixed radix.  For each
    x, one boolean matrix over the indices y < z after x finds the first
    such (y, z) in row-major order.
    """
    key = np.zeros((), dtype=np.int32 if len(coords) ** 2 < 2**31 else np.int64)  # below n²
    for f, c in zip(factors, coords.T):
        key = (key * f.n + f.meet_t[np.ix_(c, c)]) * f.n + f.join_t[np.ix_(c, c)]
    for x in range(len(coords)):
        kx = key[x, x + 1 :]
        # [y, z]: key(x, y) == key(x, z) == key(y, z), indices x < y < z
        eq = np.triu((kx[:, None] == kx) & (key[x + 1 :, x + 1 :] == kx), k=1)
        hits = np.argwhere(eq)
        if hits.size:
            y, z = (x + 1 + int(v) for v in hits[0])
            return _witness("diamond", factors, coords, x, y, z)
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
