import numpy as np
import pytest
from hypothesis import given, settings

from gislat.graph import DirectedGraph, parse_graph
from gislat.semigroup import (
    ZERO,
    CyclicGraphError,
    NormalForm,
    Path,
    edge_element,
    enumerate_elements,
    enumerate_paths,
    finite_semigroup,
    inverse_of,
    multiply,
    path_from_edges,
    render_element,
    semigroup_size,
    trivial_path,
    vertex_element,
)

from helpers import (
    acyclic_corpus,
    element_key,
    graph_strategy,
    idempotents,
    multi_component_corpus,
    reference_table,
    small_semigroup_corpus,
    verify_inverse_semigroup,
)


def closure_of_generators(g):
    """Independent oracle: close {0} ∪ V ∪ E ∪ E* under multiplication."""
    gens = {ZERO} | {vertex_element(v) for v in g.vertices}
    for e in g.edges:
        el = edge_element(g, e.name)
        gens.add(el)
        gens.add(inverse_of(el))
    closed = set(gens)
    frontier = list(closed)
    while frontier:
        x = frontier.pop()
        for y in list(closed):
            for p in (multiply(x, y), multiply(y, x)):
                if p not in closed:
                    closed.add(p)
                    frontier.append(p)
    return closed


# ------------------------------------------------------------ paths


def test_paths_gamma2_exact(gamma2):
    paths = enumerate_paths(gamma2)
    assert [p.source if p.is_trivial else ".".join(p.edges) for p in paths] == [
        "v2",
        "u2",
        "w2",
        "e2",
        "f2",
        "g2",
    ]


def test_paths_single_vertex():
    g = parse_graph("vertex a")
    assert enumerate_paths(g) == (trivial_path("a"),)


def test_paths_cyclic_graph_rejected(loop_graph):
    with pytest.raises(CyclicGraphError):
        enumerate_paths(loop_graph)


def test_path_validation(gamma2):
    with pytest.raises(ValueError):
        Path("a", "b")  # trivial path with mismatched endpoints
    with pytest.raises(ValueError):
        path_from_edges(gamma2, ["e2", "f2"])  # u2 != v2
    with pytest.raises(ValueError):
        path_from_edges(gamma2, ["zz"])


# ------------------------------------------------------------ multiply


def test_multiply_annihilation(gamma2):
    f2_star = inverse_of(edge_element(gamma2, "f2"))
    e2 = edge_element(gamma2, "e2")
    assert multiply(f2_star, e2) == ZERO


def test_multiply_vertex_idempotent(gamma2):
    v2 = vertex_element("v2")
    assert multiply(v2, v2) == v2
    assert multiply(v2, vertex_element("u2")) == ZERO


def test_multiply_prefix_extension(gamma2):
    f2 = edge_element(gamma2, "f2")  # f2 . w2*
    w2_g2 = NormalForm(trivial_path("w2"), path_from_edges(gamma2, ["g2"]))
    product = multiply(f2, w2_g2)
    assert product == NormalForm(
        path_from_edges(gamma2, ["f2"]), path_from_edges(gamma2, ["g2"])
    )
    assert render_element(product) == "f2|g2"


def test_zero_absorbs(gamma2):
    for x in enumerate_elements(gamma2):
        assert multiply(ZERO, x) == ZERO
        assert multiply(x, ZERO) == ZERO


@settings(max_examples=40)
@given(graph_strategy(max_vertices=4, max_edges=5, acyclic=True))
def test_generator_relations(g):
    """u v = [u == v] u;  s(e) e = e r(e) = e;  r(e) e* = e* s(e) = e*;
    f* e = [f == e] r(e)."""
    for u in g.vertices:
        for v in g.vertices:
            expected = vertex_element(u) if u == v else ZERO
            assert multiply(vertex_element(u), vertex_element(v)) == expected
    for e in g.edges:
        el = edge_element(g, e.name)
        star = inverse_of(el)
        assert multiply(vertex_element(e.src), el) == el
        assert multiply(el, vertex_element(e.dst)) == el
        assert multiply(vertex_element(e.dst), star) == star
        assert multiply(star, vertex_element(e.src)) == star
        for f in g.edges:
            expected = vertex_element(e.dst) if f.name == e.name else ZERO
            assert multiply(inverse_of(edge_element(g, f.name)), el) == expected


# ------------------------------------------------------------ inverses


def test_inverse_examples(gamma2):
    e2 = edge_element(gamma2, "e2")
    assert render_element(inverse_of(e2)) == "u2|e2"
    v2 = vertex_element("v2")
    assert inverse_of(v2) == v2
    f2g2 = NormalForm(path_from_edges(gamma2, ["f2"]), path_from_edges(gamma2, ["g2"]))
    assert render_element(inverse_of(f2g2)) == "g2|f2"
    assert inverse_of(ZERO) == ZERO


def test_x_xinv_x_is_x(gamma1, gamma2):
    for g in (gamma1, gamma2):
        for x in enumerate_elements(g):
            assert multiply(multiply(x, inverse_of(x)), x) == x


# ------------------------------------------------------------ enumeration


def test_element_counts(gamma1, gamma2):
    assert len(enumerate_elements(gamma2)) == 15
    assert len(enumerate_elements(gamma1)) == 10
    single = parse_graph("vertex a")
    assert enumerate_elements(single) == (ZERO, vertex_element("a"))


def test_elements_cyclic_graph_rejected(loop_graph):
    with pytest.raises(CyclicGraphError):
        enumerate_elements(loop_graph)
    with pytest.raises(CyclicGraphError):
        idempotents(loop_graph)
    with pytest.raises(CyclicGraphError):
        semigroup_size(loop_graph)


def test_count_formula(gamma1, gamma2):
    for g in (gamma1, gamma2, *small_semigroup_corpus()):
        paths = enumerate_paths(g)
        per_range: dict[str, int] = {}
        for p in paths:
            per_range[p.range] = per_range.get(p.range, 0) + 1
        assert len(enumerate_elements(g)) == 1 + sum(k * k for k in per_range.values())
        assert semigroup_size(g) == len(enumerate_elements(g))


def test_elements_in_element_key_order(gamma1, gamma2):
    """The elements come sorted by element_key: zero, then by total path
    length, then alpha and beta in path order, each normal form once."""
    for g in (gamma1, gamma2, *small_semigroup_corpus()):
        paths = enumerate_paths(g)
        forms = [NormalForm(a, b) for a in paths for b in paths if a.range == b.range]
        want = tuple(sorted([ZERO, *forms], key=lambda x: element_key(g, x)))
        assert enumerate_elements(g) == finite_semigroup(g).elements == want


def test_paths_are_listed_once_per_semigroup(gamma2, monkeypatch):
    """finite_semigroup lists the paths once, for its elements and its
    table alike."""
    import gislat.semigroup

    calls = []
    listing = gislat.semigroup.enumerate_paths
    monkeypatch.setattr(gislat.semigroup, "enumerate_paths", lambda g: calls.append(g) or listing(g))
    for g in (gamma2, *small_semigroup_corpus()):
        calls.clear()
        sem = finite_semigroup(g)
        assert calls == [g] and sem.table.tolist() == reference_table(sem)


def check_generator_indices(g):
    """``generators`` indexes exactly V, E and E*, and closing those
    indices under the Cayley table reaches every nonzero element."""
    sem = finite_semigroup(g)
    expected = [vertex_element(v) for v in g.vertices]
    for e in g.edges:
        expected += (edge_element(g, e.name), inverse_of(edge_element(g, e.name)))
    assert [sem.elements[i] for i in sem.generators] == expected
    reached = set(sem.generators)
    frontier = list(reached)
    while frontier:
        x = frontier.pop()
        for s in sem.generators:
            p = sem.table[x, s]
            if p not in reached:
                reached.add(p)
                frontier.append(p)
    zero = sem.element_index(ZERO)
    assert reached - {zero} == set(range(len(sem))) - {zero}


def test_elements_match_generator_closure(gamma1, gamma2):
    for g in (gamma1, gamma2):
        assert set(enumerate_elements(g)) == closure_of_generators(g)
        check_generator_indices(g)


@settings(max_examples=25)
@given(graph_strategy(max_vertices=4, max_edges=4, acyclic=True))
def test_elements_match_generator_closure_random(g):
    assert set(enumerate_elements(g)) == closure_of_generators(g)
    check_generator_indices(g)


def test_normal_forms_unique_and_closed(gamma2):
    elements = enumerate_elements(gamma2)
    assert len(set(elements)) == len(elements)
    table_range = set(elements)
    for x in elements:
        for y in elements:
            assert multiply(x, y) in table_range


# ------------------------------------------------------------ idempotents


def test_idempotents_frozen(gamma1, gamma2):
    assert [render_element(x) for x in idempotents(gamma2)] == [
        "0",
        "v2|v2",
        "u2|u2",
        "w2|w2",
        "e2|e2",
        "f2|f2",
        "g2|g2",
    ]
    assert len(idempotents(gamma1)) == 6
    single = parse_graph("vertex a")
    assert len(idempotents(single)) == 2


def test_idempotents_are_exactly_the_table_idempotents(gamma2):
    sem = finite_semigroup(gamma2)
    from_table = {
        sem.elements[i] for i in range(len(sem)) if sem.table[i, i] == i
    }
    assert from_table == set(idempotents(gamma2))


def test_idempotents_commute(gamma1, gamma2):
    for g in (gamma1, gamma2):
        for p in idempotents(g):
            for q in idempotents(g):
                assert multiply(p, q) == multiply(q, p)


# ------------------------------------------------------------ axioms


def test_verify_inverse_semigroup(gamma1, gamma2):
    assert verify_inverse_semigroup(gamma2)
    assert verify_inverse_semigroup(gamma1)
    assert verify_inverse_semigroup(parse_graph("vertex a"))


def test_associativity_exhaustive(gamma2):
    elements = enumerate_elements(gamma2)
    for x in elements:
        for y in elements:
            xy = multiply(x, y)
            for z in elements:
                assert multiply(xy, z) == multiply(x, multiply(y, z))


def test_verify_on_random_corpus_sample():
    for g in small_semigroup_corpus(count=5):
        assert verify_inverse_semigroup(g)


def test_table_matches_multiply_cell_by_cell(gamma1, gamma2):
    parallel = parse_graph("vertex a\nvertex b\nvertex c\nedge e a b\nedge f a b\nedge g b c\n")
    corpus = acyclic_corpus() + multi_component_corpus() + small_semigroup_corpus(40)
    for g in corpus + (gamma1, gamma2, parallel):
        sem = finite_semigroup(g)
        assert sem.table.tolist() == reference_table(sem)


def test_table_of_a_13_vertex_path():
    names = [f"v{i}" for i in range(13)]
    g = DirectedGraph.of(names, [(f"e{i}", names[i], names[i + 1]) for i in range(12)])
    sem = finite_semigroup(g)
    assert len(sem) == 820
    assert sem.table.tolist() == reference_table(sem)


def test_table_is_a_read_only_int32_array(gamma2):
    """The table is the C-contiguous (|S|, |S|) int32 array that the index
    gathers build, not writable, and equal to multiply cell by cell."""
    for g in (gamma2, *small_semigroup_corpus()):
        sem = finite_semigroup(g)
        t = sem.table
        assert (type(t), t.dtype, t.shape) == (np.ndarray, np.int32, (len(sem), len(sem)))
        assert t.flags.c_contiguous and not t.flags.writeable
        with pytest.raises(ValueError):
            t[0, 0] = 1
        assert t.tolist() == reference_table(sem)


# ------------------------------------------------------------ rendering


def test_render_examples(gamma2):
    assert render_element(ZERO) == "0"
    assert render_element(edge_element(gamma2, "e2")) == "e2|u2"
    assert render_element(vertex_element("v2")) == "v2|v2"
