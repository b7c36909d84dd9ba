"""Acceptance suite.

One test per criterion; each prints a single ``criterion NN: PASS/FAIL``
line (visible with ``pytest -s`` or in captured output) and enforces its
wall-clock budget.
"""

import time
from contextlib import contextmanager

import pytest

from gislat.graph import (
    DirectedGraph,
    connectivity_report,
    enumerate_cycles,
    forked_vertices,
    index_relative,
    weak_component_subgraphs,
)
from gislat.lattice import (
    find_diamond,
    find_pentagon,
    is_distributive,
    is_lower_semimodular,
    is_modular,
    is_upper_semimodular,
    order_isomorphic,
)
from gislat.oracle import congruence_lattice, enumerate_congruences
from gislat.semigroup import enumerate_elements, finite_semigroup
from gislat.triples import (
    EMPTY_CYCLE_FUNCTION,
    INF,
    CongruenceTriple,
    CycleFunction,
    enumerate_triples,
    join,
    meet,
    triple_lattice,
)

from helpers import (
    acyclic_corpus,
    brute_glb_index,
    brute_lub_index,
    cyclic_corpus,
    hereditary_sets,
    key_tables,
    multi_component_corpus,
    outdeg_le1_corpus,
    small_semigroup_corpus,
    unilateral_corpus,
    verify_inverse_semigroup,
    witness_is_valid,
)


@contextmanager
def criterion(num: int, budget: float):
    t0 = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"criterion {num:2d}: FAIL ({time.perf_counter() - t0:.2f}s)")
        raise
    elapsed = time.perf_counter() - t0
    print(f"criterion {num:2d}: PASS ({elapsed:.2f}s, budget {budget:.0f}s)")
    assert elapsed < budget, f"criterion {num} took {elapsed:.2f}s, budget {budget}s"


def T(h=(), w=(), f=None):
    return CongruenceTriple(
        frozenset(h), frozenset(w), f if f is not None else EMPTY_CYCLE_FUNCTION
    )


@pytest.fixture(scope="module")
def corpus_lattices():
    """(graph, triples, lattice) over the 200-graph acyclic corpus."""
    return [(g, enumerate_triples(g), triple_lattice(g)) for g in acyclic_corpus()]


@pytest.fixture(scope="module")
def cyclic_lattices():
    return [
        (g, enumerate_triples(g, 12), triple_lattice(g, 12)) for g in cyclic_corpus()
    ]


def test_criterion_01_gamma2_triples_and_covers(gamma2):
    with criterion(1, 1.0):
        assert enumerate_triples(gamma2) == (
            T(),
            T({"u2"}),
            T({"w2"}),
            T({"w2"}, {"v2"}),
            T({"u2", "w2"}),
            T({"u2", "v2", "w2"}),
        )
        lat = triple_lattice(gamma2)
        assert sorted((lo, up) for up, lo in lat.cover_set) == [
            (0, 1),
            (0, 2),
            (1, 4),
            (2, 3),
            (2, 4),
            (3, 5),
            (4, 5),
        ]


def test_criterion_02_gamma2_verdicts(gamma2):
    with criterion(2, 1.0):
        lat = triple_lattice(gamma2)
        assert is_distributive(lat)
        assert is_modular(lat)
        assert is_upper_semimodular(lat)
        assert is_lower_semimodular(lat)


def test_criterion_03_gamma1(gamma1):
    with criterion(3, 1.0):
        assert forked_vertices(gamma1) == {"v1"}
        ts = enumerate_triples(gamma1)
        # independent count oracle: one triple per hereditary set and
        # subset of its index-1 vertices
        expected = sum(
            2
            ** sum(
                1
                for v in gamma1.vertices
                if v not in h and index_relative(gamma1, v, h) == 1
            )
            for h in hereditary_sets(gamma1)
        )
        assert len(ts) == 7 == expected
        lat = triple_lattice(gamma1)
        assert is_upper_semimodular(lat)
        assert not is_lower_semimodular(lat)
        assert not is_modular(lat)
        assert not is_distributive(lat)
        w = find_pentagon(lat)
        assert w is not None and w.kind == "pentagon"
        assert witness_is_valid(lat, w)


def test_criterion_04_oracle_cross_check(gamma1, gamma2):
    # The 15 vs 10 element-listing discrepancy: unique normal forms give
    # 15 elements for the three-edge graph; the congruence count of 6 is
    # unaffected either way and is asserted as stated.
    def chain(k):
        return DirectedGraph.of(
            [f"v{i}" for i in range(k)], [(f"e{i}", f"v{i}", f"v{i + 1}") for i in range(k - 1)]
        )

    fan4 = DirectedGraph.of(
        ["c", *(f"l{i}" for i in range(4))], [(f"e{i}", "c", f"l{i}") for i in range(4)]
    )
    cases = (
        (15, 6, gamma2),
        (10, 7, gamma1),
        (31, 16, chain(4)),
        (18, 21, fan4),
        (56, 32, chain(5)),
    )
    for num_elements, num_congs, g in cases:
        with criterion(4, 5.0):
            sem = finite_semigroup(g)
            assert len(sem) == num_elements
            congs = enumerate_congruences(sem)
            assert len(congs) == num_congs
            ct = triple_lattice(g)
            assert len(ct) == num_congs
            assert order_isomorphic(congruence_lattice(sem), ct)


def test_criterion_05_meet_join_formula_vs_poset_bounds(
    gamma1, gamma2, corpus_lattices, cyclic_lattices
):
    with criterion(5, 60.0):
        cases = [
            (gamma1, enumerate_triples(gamma1), triple_lattice(gamma1)),
            (gamma2, enumerate_triples(gamma2), triple_lattice(gamma2)),
        ]
        cases += corpus_lattices
        cases += cyclic_lattices
        assert len(corpus_lattices) >= 200
        for g, ts, lat in cases:
            n, (meets, joins) = len(ts), key_tables(lat)
            for i in range(n):
                ti = ts[i]
                for j in range(i, n):
                    tj = ts[j]
                    assert meet(g, ti, tj) == lat.labels[meets[i, j]]
                    assert join(g, ti, tj) == lat.labels[joins[i, j]]
        # guard the poset side itself with a raw scan on a subsample
        for g, ts, lat in cases[:20]:
            rows, (meets, joins) = lat.leq.tolist(), key_tables(lat)
            for i in range(len(ts)):
                for j in range(len(ts)):
                    assert meets[i, j] == brute_glb_index(rows, i, j)
                    assert joins[i, j] == brute_lub_index(rows, i, j)


def test_criterion_06_forked_vertex_equivalence(corpus_lattices):
    with criterion(6, 120.0):
        for g, _, lat in corpus_lattices:
            no_forks = not forked_vertices(g)
            assert is_upper_semimodular(lat)
            assert is_lower_semimodular(lat) == no_forks
            assert is_modular(lat) == no_forks
            assert is_distributive(lat) == no_forks
            if not no_forks:
                w = find_pentagon(lat)
                assert w is not None and witness_is_valid(lat, w)
            else:
                assert find_pentagon(lat) is None
                assert find_diamond(lat) is None


def test_criterion_07_equal_meets_and_joins_force_H_and_f(
    gamma1, gamma2, loop_graph, corpus_lattices, cyclic_lattices
):
    with criterion(7, 60.0):
        cases = [
            (gamma1, enumerate_triples(gamma1), triple_lattice(gamma1)),
            (gamma2, enumerate_triples(gamma2), triple_lattice(gamma2)),
            (loop_graph, enumerate_triples(loop_graph, 12), triple_lattice(loop_graph, 12)),
        ]
        cases += corpus_lattices
        cases += cyclic_lattices
        for _, ts, lat in cases:
            n, (meets, joins) = len(ts), key_tables(lat)
            for i in range(n):
                mi, ji = meets[i], joins[i]
                buckets: dict[tuple[int, int], tuple] = {}
                for j in range(n):
                    key = (int(mi[j]), int(ji[j]))
                    hf = (ts[j].H, ts[j].f)
                    if key in buckets:
                        assert buckets[key] == hf, (
                            f"equal meet/join with element {i} but different H or f"
                        )
                    else:
                        buckets[key] = hf


def test_criterion_08_corollaries():
    with criterion(8, 60.0):
        outdeg = outdeg_le1_corpus()
        assert len(outdeg) == 50
        for g in outdeg:
            assert max((len(g.out_edges[v]) for v in g.vertices), default=0) <= 1
            bound = 12 if enumerate_cycles(g) else None
            assert is_distributive(triple_lattice(g, bound))

        unilateral = unilateral_corpus()
        assert len(unilateral) == 50
        for g in unilateral:
            assert connectivity_report(g).is_unilaterally_connected
            bound = 12 if enumerate_cycles(g) else None
            assert is_distributive(triple_lattice(g, bound))

        multi = multi_component_corpus()
        assert len(multi) == 50
        for g in multi:
            parts = weak_component_subgraphs(g)
            assert len(parts) >= 2
            whole = triple_lattice(g)
            part_lats = [triple_lattice(p) for p in parts]
            assert is_distributive(whole) == all(map(is_distributive, part_lats))
            assert is_modular(whole) == all(map(is_modular, part_lats))
            assert is_lower_semimodular(whole) == all(
                map(is_lower_semimodular, part_lats)
            )


def test_criterion_09_semigroup_sanity(gamma1, gamma2):
    with criterion(9, 60.0):
        corpus = small_semigroup_corpus(count=20)
        assert len(corpus) == 20
        for g in (gamma1, gamma2, *corpus):
            assert len(enumerate_elements(g)) <= 60
            assert verify_inverse_semigroup(g)


def test_criterion_10_bounded_cyclic_smoke(loop_graph):
    with criterion(10, 1.0):
        (c,) = enumerate_cycles(loop_graph)
        expected = [T((), (), CycleFunction.of([]))]
        expected += [
            T((), {"v"}, CycleFunction.of([(c, m)])) for m in (1, 2, 3, 4, 6, 12, INF)
        ]
        expected += [T({"v"})]
        ts = enumerate_triples(loop_graph, 12)
        assert ts == tuple(expected)
        lat = triple_lattice(loop_graph, 12)
        assert len(lat) == 9
        assert is_distributive(lat)
        members = set(ts)
        for a in ts:
            for b in ts:
                assert meet(loop_graph, a, b) in members
                assert join(loop_graph, a, b) in members
