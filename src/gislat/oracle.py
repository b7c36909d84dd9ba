"""Brute-force congruences of a finite semigroup.

Congruences are generated from below: every principal congruence (the
least congruence identifying one pair) is computed by a union-find
closure that propagates merges through left and right multiplication by
the semigroup's generators (vertices, edges and ghost edges), and the
full congruence set is the join closure of the principal ones plus the
identity.  The resulting lattice, ordered by refinement, is computed with
no reference to congruence triples and therefore serves as an independent
check of the triple lattice.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .graph import LimitError
from .lattice import FiniteLattice, from_poset
from .semigroup import FiniteSemigroup


class SemigroupTooLargeError(LimitError):
    """The semigroup exceeds the configured brute-force cap."""


@dataclass(frozen=True)
class Congruence:
    """A partition of element indices compatible with multiplication.

    ``blocks`` is canonical: each block sorted ascending, blocks sorted by
    their element tuples.
    """

    blocks: tuple[tuple[int, ...], ...]

    @cached_property
    def block_of(self) -> dict[int, int]:
        return {x: b for b, blk in enumerate(self.blocks) for x in blk}

    def refines(self, other: "Congruence") -> bool:
        """True iff every block of self lies inside one block of other."""
        bo = other.block_of
        return all(len({bo[x] for x in blk}) == 1 for blk in self.blocks)


def _canonical(blocks) -> Congruence:
    return Congruence(tuple(sorted(tuple(sorted(b)) for b in blocks)))


def identity_congruence(n: int) -> Congruence:
    return Congruence(tuple((i,) for i in range(n)))


def _closure(table, n: int, seeds, gens, start: Congruence | None = None) -> Congruence:
    """Least congruence containing the seed pairs (and ``start``, itself a
    congruence): union-find plus a worklist that propagates every merge
    through left and right products with the generators ``gens`` only.

    Every nonzero element is a product of generators and zero absorbs,
    so an equivalence compatible on both sides with each generator is a
    congruence (R. Freese, "Computing congruences efficiently", Algebra
    Universalis 59, 2008).  The blocks of ``start`` need no propagation."""
    parent = list(range(n))
    if start is not None:
        for blk in start.blocks:
            for x in blk:
                parent[x] = blk[0]

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
    groups: dict[int, list[int]] = {}
    for x in range(n):
        groups.setdefault(find(x), []).append(x)
    return _canonical(groups.values())


def join_congruences(sem: FiniteSemigroup, c1: Congruence, c2: Congruence) -> Congruence:
    """Least congruence containing both: the closure grows from c1's
    blocks, already a congruence, and propagates only c2's merges through
    the generators (see :func:`_closure`)."""
    seeds = [(blk[0], x) for blk in c2.blocks for x in blk[1:]]
    return _closure(sem.table, len(sem), seeds, sem.generators, c1)


def check_semigroup_size(n: int, cap: int) -> None:
    """Raise :class:`SemigroupTooLargeError` when n elements exceed the cap."""
    if n > cap:
        raise SemigroupTooLargeError(
            f"brute-force congruence enumeration capped at {cap} elements, got {n}"
        )


def enumerate_congruences(sem: FiniteSemigroup, cap: int = 200) -> tuple[Congruence, ...]:
    """All congruences: identity plus the join closure of the distinct
    principal congruences, sorted by partition fingerprint.

    Every congruence is a join of principal ones, so each congruence
    found is joined with the distinct principal congruences only, not
    with every congruence found so far (Freese, "Computing congruences
    efficiently", Algebra Universalis 59, 2008)."""
    n = len(sem)
    check_semigroup_size(n, cap)
    table, gens = sem.table, sem.generators
    principals = {_closure(table, n, [(i, j)], gens) for i in range(n) for j in range(i + 1, n)}
    found = {identity_congruence(n)} | principals
    queue = list(principals)
    while queue:
        c = queue.pop()
        for p in principals:
            joined = join_congruences(sem, c, p)
            if joined not in found:
                found.add(joined)
                queue.append(joined)
    return tuple(sorted(found, key=lambda c: c.blocks))


def congruence_lattice(sem: FiniteSemigroup, cap: int = 200) -> FiniteLattice:
    """The enumerated congruences ordered by refinement.

    Congruence sets are always lattices; a NotALatticeError here signals an
    internal inconsistency and is allowed to propagate."""
    congs = enumerate_congruences(sem, cap)
    return from_poset(congs, lambda a, b: a.refines(b))
