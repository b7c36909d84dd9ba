"""Brute-force congruences of a finite semigroup, from its table alone.

Every nonzero element is a product of the generators (vertices, edges,
ghost edges) and zero absorbs, so by Mal'cev the principal congruence
Cg(a, b) is the equivalence generated by the pairs that the translations
x -> sx and x -> xs by generators s reach from (a, b) (Burris and
Sankappanavar, A Course in Universal Algebra, II §4).  On this pair
graph, Cg is shared within a strong component and is the join of the
component's pairs with the Cg of the components it reaches.  Every
join-irreducible congruence is principal (R. Freese, "Computing
congruences efficiently", Algebra Universalis 59, 2008), so the
congruences are the identity and the closure of the principal ones under
joins with the join-irreducible ones.  No congruence triple is read: the
lattice is an independent check of the triple lattice.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .graph import LimitError, join_labels, strong_components
from .lattice import FiniteLattice, from_poset
from .semigroup import FiniteSemigroup


ORACLE_CAP = 200  # the default brute-force cap on |S|


class SemigroupTooLargeError(LimitError):
    """The semigroup exceeds the configured brute-force cap."""


@dataclass(frozen=True)
class Congruence:
    """A partition of element indices compatible with multiplication, as its
    canonical labelling: ``labels[x]`` is the least element of x's block."""

    labels: tuple[int, ...]

    @cached_property
    def blocks(self) -> tuple[tuple[int, ...], ...]:
        """The classes of equal label, each ascending, in the order of their
        least elements (so sorted by their element tuples)."""
        blocks: dict[int, list[int]] = {}
        for x, r in enumerate(self.labels):
            blocks.setdefault(r, []).append(x)
        return tuple(map(tuple, blocks.values()))

    def refines(self, other: "Congruence") -> bool:
        """True iff every block of self lies inside one block of other: each
        element has the same label under other as its label under self."""
        lab = other.labels
        return all(lab[x] == lab[r] for x, r in enumerate(self.labels))


def _closure(table, n: int, seeds, gens) -> Congruence:
    """Least congruence containing the seed pairs: union-find plus a
    worklist that propagates every merge through left and right products
    with the generators ``gens`` only, which is enough because every
    nonzero element is a product of generators and zero absorbs."""
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
        row_x, row_y = table[rx], table[ry]
        for s in gens:
            row_s = table[s]
            if row_s[rx] != row_s[ry]:
                pending.append((row_s[rx], row_s[ry]))
            if row_x[s] != row_y[s]:
                pending.append((row_x[s], row_y[s]))
    least: dict[int, int] = {}  # each root's least member, met first
    return Congruence(tuple(least.setdefault(find(x), x) for x in range(n)))


def _links(lab) -> list[tuple[int, int]]:
    return [(x, r) for x, r in enumerate(lab) if r != x]


def join_congruences(sem: FiniteSemigroup, c1: Congruence, c2: Congruence) -> Congruence:
    """Least congruence containing both, which is their join as
    equivalences."""
    return Congruence(join_labels(c1.labels, _links(c2.labels)))


def _refinement(labels: np.ndarray) -> np.ndarray:
    """m[i, j]: congruence i refines congruence j, i.e. labelling j is equal
    at each element and at that element's label under i."""
    m = np.empty((len(labels), len(labels)), dtype=bool)
    for j, lab in enumerate(labels):
        m[:, j] = (lab[labels] == lab).all(axis=1)
    return m


def check_semigroup_size(n: int, cap: int) -> None:
    """Raise :class:`SemigroupTooLargeError` when n elements exceed the cap."""
    if n > cap:
        raise SemigroupTooLargeError(
            f"brute-force congruence enumeration capped at {cap} elements, got {n}"
        )


def _principal_labels(sem: FiniteSemigroup) -> dict[tuple[int, ...], tuple[int, int]]:
    """Each distinct principal congruence as a labelling, with a pair that
    generates it: one pass over the pair graph's strong components, sinks
    first, where components reaching the same congruences share one join."""
    n, gens = len(sem), list(sem.generators)
    table = sem.table.astype(np.intp)  # an int32 index pays a conversion per use
    lo, hi = np.triu_indices(n, 1)
    key = np.full((n, n), -1, dtype=np.intp)
    key[lo, hi] = key[hi, lo] = np.arange(len(lo))
    left, right = table[gens], table[:, gens]
    succ = np.sort(np.hstack([key[left[:, lo], left[:, hi]].T, key[right[lo], right[hi]]]))
    keep = succ >= 0  # no diagonal pair, and each successor once
    keep[:, 1:] &= succ[:, 1:] != succ[:, :-1]
    flat, ends = succ[keep].tolist(), np.cumsum(keep.sum(axis=1)).tolist()
    out = [flat[a:b] for a, b in zip([0] + ends, ends)]
    comps = strong_components(out)
    comp_of = {v: c for c, members in enumerate(comps) for v in members}
    lo, hi, identity = lo.tolist(), hi.tolist(), tuple(range(n))
    result: list[tuple[int, ...]] = []  # per component
    memo: dict[frozenset, tuple[int, ...]] = {}
    principals: dict[tuple[int, ...], tuple[int, int]] = {}
    for c, members in enumerate(comps):
        below = frozenset(result[d] for d in {comp_of[w] for v in members for w in out[v]} - {c})
        if below not in memo:
            memo[below] = join_labels(identity, [p for lab in below for p in _links(lab)])
        lab, pairs = memo[below], [(lo[v], hi[v]) for v in members]
        result.append(lab if all(lab[x] == lab[y] for x, y in pairs) else join_labels(lab, pairs))
        principals.setdefault(result[-1], pairs[0])
    return principals


def enumerate_congruences(sem: FiniteSemigroup, cap: int = ORACLE_CAP) -> tuple[Congruence, ...]:
    """All congruences, sorted by partition fingerprint (see the module
    docstring).  A principal congruence is join-irreducible iff it is not
    the join of the principal ones strictly below it."""
    n = len(sem)
    check_semigroup_size(n, cap)
    principals = _principal_labels(sem)
    plabs = list(principals)
    below = _refinement(np.array(plabs, dtype=np.intp).reshape(-1, n))
    np.fill_diagonal(below, False)
    irreducible = [
        (*principals[lab], _links(lab)) for j, lab in enumerate(plabs)
        if join_labels(range(n), [p for i in np.flatnonzero(below[:, j]) for p in _links(plabs[i])]) != lab
    ]
    found = {tuple(range(n)), *plabs}
    queue = list(plabs)
    while queue:
        c = queue.pop()
        for a, b, links in irreducible:
            if c[a] != c[b] and (joined := join_labels(c, links)) not in found:
                found.add(joined)
                queue.append(joined)
    return tuple(sorted(map(Congruence, found), key=lambda c: c.blocks))


def congruence_lattice(sem: FiniteSemigroup, cap: int = ORACLE_CAP) -> FiniteLattice:
    """The enumerated congruences ordered by refinement.

    Congruence sets are always lattices; a NotALatticeError here signals an
    internal inconsistency and is allowed to propagate."""
    congs = enumerate_congruences(sem, cap)
    labels = np.array([c.labels for c in congs], dtype=np.intp).reshape(len(congs), len(sem))
    return from_poset(congs, _refinement(labels))
