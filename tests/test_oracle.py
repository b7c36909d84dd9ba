from itertools import combinations

import numpy as np
import pytest

from gislat.graph import DirectedGraph, parse_graph
from gislat.lattice import (
    is_distributive,
    is_lower_semimodular,
    is_modular,
    is_upper_semimodular,
    order_isomorphic,
)
from gislat.oracle import (
    Congruence,
    SemigroupTooLargeError,
    _closure,
    _principal_labels,
    congruence_lattice,
    enumerate_congruences,
    join_congruences,
)
from gislat.semigroup import ZERO, NormalForm, finite_semigroup, path_from_edges, trivial_path, vertex_element
from gislat.triples import triple_lattice

from helpers import (
    census,
    congruence_to_json,
    identity_congruence,
    is_compatible,
    meet_congruences,
    principal_congruence,
    reference_congruences,
    small_semigroup_corpus,
    table_closure,
)


def test_principal_congruence_of_equal_pair_is_identity(gamma2):
    sem = finite_semigroup(gamma2)
    v2 = vertex_element("v2")
    assert principal_congruence(sem, v2, v2) == identity_congruence(len(sem))


def test_principal_congruence_edge_idempotent_with_zero(gamma2):
    sem = finite_semigroup(gamma2)
    e2path = path_from_edges(gamma2, ["e2"])
    c = principal_congruence(sem, NormalForm(e2path, e2path), ZERO)
    blocks = congruence_to_json(sem, c)
    assert ["0", "e2|e2", "e2|u2", "u2|e2", "u2|u2"] in blocks
    assert sum(len(b) for b in blocks) == 15
    assert len(blocks) == 11
    assert is_compatible(sem, c)


def test_principal_congruence_vertex_with_zero_is_universal(gamma2):
    sem = finite_semigroup(gamma2)
    c = principal_congruence(sem, vertex_element("v2"), ZERO)
    assert len(c.blocks) == 1


def test_enumerate_congruences_counts(gamma1, gamma2):
    assert len(enumerate_congruences(finite_semigroup(gamma2))) == 6
    assert len(enumerate_congruences(finite_semigroup(gamma1))) == 7
    trivial = finite_semigroup(parse_graph("vertex a"))
    congs = enumerate_congruences(trivial)
    assert len(congs) == 2


def test_generator_closure_matches_table_closure(gamma1, gamma2):
    for g in (gamma1, gamma2, *small_semigroup_corpus(count=6)):
        sem = finite_semigroup(g)
        n = len(sem)
        for i in range(n):
            for j in range(i + 1, n):
                c = principal_congruence(sem, sem.elements[i], sem.elements[j])
                assert c == table_closure(sem.table, n, [(i, j)])
        congs = enumerate_congruences(sem)
        for a in congs:
            for b in congs:
                seeds = [(blk[0], x) for c in (a, b) for blk in c.blocks for x in blk[1:]]
                assert join_congruences(sem, a, b) == table_closure(sem.table, n, seeds)


def test_congruences_are_compatible_and_closed(gamma1, gamma2):
    # count=10 keeps the brute-force enumeration and the compatibility
    # scans to a few seconds.
    for g in (gamma1, gamma2, *small_semigroup_corpus(count=10)):
        sem = finite_semigroup(g)
        congs = enumerate_congruences(sem)
        members = set(congs)
        for c in congs:
            assert is_compatible(sem, c)
        for a in congs:
            for b in congs:
                assert meet_congruences(a, b) in members
                assert join_congruences(sem, a, b) in members


def test_congruence_lattice_isomorphic_to_triples(gamma1, gamma2):
    for g in (gamma1, gamma2):
        sem = finite_semigroup(g)
        assert order_isomorphic(congruence_lattice(sem), triple_lattice(g))


def test_congruence_lattice_trivial_semigroup():
    sem = finite_semigroup(parse_graph("vertex a"))
    lat = congruence_lattice(sem)
    assert len(lat) == 2
    assert lat.cover_set == frozenset({(1, 0)})


def test_verdicts_transfer_between_lattices(gamma1, gamma2):
    graphs = [gamma1, gamma2] + [
        g for g in small_semigroup_corpus(count=8) if len(finite_semigroup(g)) <= 30
    ]
    for g in graphs:
        ct = triple_lattice(g)
        cl = congruence_lattice(finite_semigroup(g))
        assert len(ct) == len(cl)
        assert order_isomorphic(ct, cl)
        assert is_distributive(ct) == is_distributive(cl)
        assert is_modular(ct) == is_modular(cl)
        assert is_upper_semimodular(ct) == is_upper_semimodular(cl)
        assert is_lower_semimodular(ct) == is_lower_semimodular(cl)


def test_cap_is_enforced(gamma2):
    sem = finite_semigroup(gamma2)
    with pytest.raises(SemigroupTooLargeError):
        enumerate_congruences(sem, cap=10)


def test_refinement_order():
    sem = finite_semigroup(parse_graph("vertex a\nvertex b"))
    congs = enumerate_congruences(sem)
    ident = identity_congruence(len(sem))
    universal = min(congs, key=lambda c: len(c.blocks))
    assert len(universal.blocks) == 1
    for c in congs:
        assert ident.refines(c)
        assert c.refines(universal)


def path_graph(k: int) -> DirectedGraph:
    return DirectedGraph.of([f"v{i}" for i in range(k)], [(f"e{i}", f"v{i}", f"v{i + 1}") for i in range(k - 1)])


def fan_graph(k: int) -> DirectedGraph:
    return DirectedGraph.of(["c", *(f"s{i}" for i in range(k))], [(f"e{i}", "c", f"s{i}") for i in range(k)])


def test_enumeration_matches_reference(gamma1, gamma2):
    """The pair-graph enumeration against one closure per element pair
    and joins with every principal congruence: the same tuple, in order."""
    graphs = [gamma1, gamma2, *small_semigroup_corpus(), *map(fan_graph, range(4, 8)), path_graph(4), path_graph(5)]
    for g in graphs:
        sem = finite_semigroup(g)
        assert enumerate_congruences(sem) == reference_congruences(sem)


def test_principals_and_order_matrix_match_definitions(gamma1, gamma2):
    for g in (gamma1, gamma2, *small_semigroup_corpus(count=4), fan_graph(4)):
        sem = finite_semigroup(g)
        n = len(sem)
        principals = set(map(Congruence, _principal_labels(sem)))
        assert principals == {table_closure(sem.table, n, [p]) for p in combinations(range(n), 2)}
        lat = congruence_lattice(sem)
        refines = [[a.refines(b) for b in lat.labels] for a in lat.labels]
        assert np.array_equal(lat.leq, np.array(refines, dtype=bool))


def test_congruences_are_canonical_labellings(gamma1, gamma2):
    """enumerate_congruences, _closure and join_congruences label each
    element by the least element of its block; blocks and refines agree
    with their definitions on blocks on every pair of congruences."""
    for g in (gamma1, gamma2, *small_semigroup_corpus(count=4)):
        sem = finite_semigroup(g)
        n = len(sem)
        congs = enumerate_congruences(sem)
        closures = [_closure(sem.table, n, [p], sem.generators) for p in combinations(range(n), 2)]
        joins = [join_congruences(sem, a, b) for a in congs for b in congs]
        for c in (*congs, *closures, *joins):
            lab = c.labels
            classes = {tuple(y for y in range(n) if lab[y] == lab[x]) for x in range(n)}
            assert type(lab) is tuple and all(lab[x] == min(b) for b in classes for x in b)
            assert c.blocks == tuple(sorted(classes))
        related = {c: {(x, y) for b in c.blocks for x in b for y in b} for c in congs}
        for a in congs:
            for b in congs:
                assert a.refines(b) == (related[a] <= related[b])


@pytest.mark.parametrize("text, size, count", [("", 1, 1), ("vertex a", 2, 2), ("vertex a\nvertex b", 3, 4)])
def test_congruence_counts_of_tiny_semigroups(text, size, count):
    sem = finite_semigroup(parse_graph(text))
    assert len(sem) == size
    assert len(enumerate_congruences(sem)) == len(congruence_lattice(sem)) == count


def test_pair_graph_components_share_and_join():
    """One edge a -> b (|S| = 6): four pairs form one strong component of
    the pair graph.  Each component's congruence is the join of its own
    pairs with the congruences of the pairs it reaches.  For some
    components that join adds nothing to the congruences reached (the
    shared join is reused as is), and for others it does."""
    sem = finite_semigroup(parse_graph("vertex a\nvertex b\nedge e a b"))
    n, t, gens = len(sem), sem.table.tolist(), sem.generators
    pairs = list(combinations(range(n), 2))

    def moves(p):
        x, y = p
        images = [(t[s][x], t[s][y]) for s in gens] + [(t[x][s], t[y][s]) for s in gens]
        return {(min(q), max(q)) for q in images if q[0] != q[1]}

    reach = {}
    for p in pairs:
        seen, todo = {p}, [p]
        while todo:
            new = moves(todo.pop()) - seen
            seen |= new
            todo += new
        reach[p] = seen
    cg = {p: table_closure(sem.table, n, [p]) for p in pairs}
    reused = set()
    for p in pairs:
        comp = {q for q in reach[p] if p in reach[q]}
        seeds = [(blk[0], x) for q in set().union(*map(moves, comp)) - comp for blk in cg[q].blocks for x in blk[1:]]
        assert cg[p] == table_closure(sem.table, n, seeds + sorted(comp))
        reused.add(cg[p] == table_closure(sem.table, n, seeds))
    assert max(len({q for q in reach[p] if p in reach[q]}) for p in pairs) == 4
    assert reused == {True, False}
    assert enumerate_congruences(sem) == reference_congruences(sem)


@pytest.mark.parametrize("vertices, multiplicity, count", [(3, 2, 27), (4, 1, 64)])
def test_every_small_dag_through_its_congruences(vertices, multiplicity, count):
    """Every DAG on 3 vertices with at most two parallel edges, and every
    simple DAG on 4: the triples against the congruences, and the paper's
    theorem on the congruences alone.  Larger censuses run in CI."""
    assert census(vertices, multiplicity) == count
