import pytest

from gislat.graph import parse_graph
from gislat.lattice import (
    is_distributive,
    is_lower_semimodular,
    is_modular,
    is_upper_semimodular,
    order_isomorphic,
)
from gislat.oracle import (
    SemigroupTooLargeError,
    congruence_lattice,
    enumerate_congruences,
    identity_congruence,
    join_congruences,
)
from gislat.semigroup import ZERO, NormalForm, finite_semigroup, path_from_edges, trivial_path, vertex_element
from gislat.triples import triple_lattice

from helpers import (
    congruence_to_json,
    is_compatible,
    meet_congruences,
    principal_congruence,
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
