import math
import time
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gislat.lattice
from gislat.graph import (
    DirectedGraph,
    LimitError,
    UnknownVertexError,
    enumerate_cycles,
    hereditary_subsets,
    index_relative,
    parse_graph,
    weak_component_subgraphs,
)
from gislat.triples import (
    EMPTY_CYCLE_FUNCTION,
    BOUND_CAP,
    INF,
    TRIPLE_CAP,
    CongruenceTriple,
    CycleFunction,
    LatticeTooLargeError,
    UnboundedLatticeError,
    component_lattices,
    divisors,
    enumerate_triples,
    ext_divides,
    ext_gcd,
    ext_lcm,
    join,
    leq,
    leq_matrix,
    meet,
    product_coordinates,
    render_triple,
    set_trace,
    triple_lattice,
    triple_to_json,
)

from helpers import (
    UnknownCycleError,
    acyclic_corpus,
    bounded_triple_count,
    cyclic_census,
    cyclic_corpus,
    cyclic_multigraphs,
    dag_census,
    definition_leq,
    graph_text,
    interleaved_components,
    key_tables,
    multi_component_corpus,
    outdeg_le1_corpus,
    product_corpus,
    reference_coordinates,
    reference_triples,
    validate_triple,
)


def T(h=(), w=(), f=None):
    return CongruenceTriple(
        frozenset(h), frozenset(w), f if f is not None else EMPTY_CYCLE_FUNCTION
    )


# --------------------------------------------------------- ExtNat values


def test_ext_arithmetic_with_infinity():
    assert ext_gcd(6, INF) == 6
    assert ext_gcd(INF, 6) == 6
    assert ext_gcd(INF, INF) is INF
    assert ext_lcm(6, INF) is INF
    assert ext_lcm(INF, INF) is INF
    assert ext_divides(5, INF)
    assert ext_divides(INF, INF)
    assert not ext_divides(INF, 5)
    assert ext_divides(3, 12)
    assert not ext_divides(5, 12)


@given(st.integers(1, 400), st.integers(1, 400), st.integers(1, 400))
def test_ext_divisibility_is_distributive(a, b, c):
    # gcd/lcm distribute over each other on positive integers
    assert ext_gcd(a, ext_lcm(b, c)) == ext_lcm(ext_gcd(a, b), ext_gcd(a, c))
    assert ext_lcm(a, ext_gcd(b, c)) == ext_gcd(ext_lcm(a, b), ext_lcm(a, c))


def test_divisors():
    assert divisors(12) == (1, 2, 3, 4, 6, 12)
    assert divisors(1) == (1,)
    for n in range(1, 2001):
        assert divisors(n) == tuple(d for d in range(1, n + 1) if n % d == 0)
    assert len(divisors(9699690)) == 256  # 2·3·5·7·11·13·17·19


def test_triple_lattice_never_builds_graph_cycles():
    # The free cycles of each hereditary set come from its exit edges, and
    # the closed-form meet and join list only the cycles inside W: on K12
    # (about 1.2·10^8 simple cycles) beside a loop they agree with the
    # order's bounds, and the graph-wide cycle list is never built.
    k12 = "".join(f"vertex v{i}\n" for i in range(12)) + "vertex l\nedge z l l\n" + "".join(
        f"edge e{i}_{j} v{i} v{j}\n" for i in range(12) for j in range(12) if i != j
    )
    for text, bound in (("vertex a\nvertex b\nedge e a b\nedge f b a\nedge l a a", 6), (k12, 2)):
        g = parse_graph(text)
        ts, lat = enumerate_triples(g, bound), triple_lattice(g, bound)
        assert lat.labels == ts and len(ts) > 1
        meets, joins = key_tables(lat)
        for i, j in product(range(len(ts)), repeat=2):
            assert meet(g, ts[i], ts[j]) == ts[meets[i, j]]
            assert join(g, ts[i], ts[j]) == ts[joins[i, j]]
        assert "cycles" not in vars(g)


def test_exit_edge_cycles_match_graph_cycles():
    """Every bounded triple stores exactly the free cycles among all the
    graph's cycles, and the count matches the all-cycles count."""
    for g in cyclic_corpus() + outdeg_le1_corpus():
        ts = enumerate_triples(g, 6)
        assert len(ts) == bounded_triple_count(g, 6)
        assert all(validate_triple(g, t) == () for t in ts)


# --------------------------------------------------------- validation


def test_validate_ok_examples(gamma2):
    assert validate_triple(gamma2, T({"w2"}, {"v2"})) == ()
    assert validate_triple(gamma2, T()) == ()


def test_validate_index_violation(gamma2):
    violations = validate_triple(gamma2, T({"u2"}, {"v2"}))
    assert len(violations) == 1
    assert "index 2" in violations[0]


def test_validate_not_hereditary(gamma1):
    violations = validate_triple(gamma1, T({"v1"}))
    assert any("hereditary" in v for v in violations)


def test_validate_overlap(gamma2):
    violations = validate_triple(gamma2, T({"w2"}, {"w2"}))
    assert any("intersect" in v for v in violations)


def test_validate_unknown_vertex(gamma2):
    with pytest.raises(UnknownVertexError):
        validate_triple(gamma2, T({"zz"}))


def test_validate_cycle_function(loop_graph):
    (c,) = enumerate_cycles(loop_graph)
    # free cycle without a stored value
    violations = validate_triple(loop_graph, T((), {"v"}))
    assert any("missing value" in v for v in violations)
    # value on a non-free cycle
    violations = validate_triple(loop_graph, T((), (), CycleFunction.of([(c, 3)])))
    assert any("non-free" in v for v in violations)
    # bad value
    violations = validate_triple(loop_graph, T((), {"v"}, CycleFunction.of([(c, 0)])))
    assert any("invalid" in v for v in violations)
    # fine
    assert validate_triple(loop_graph, T((), {"v"}, CycleFunction.of([(c, 4)]))) == ()
    assert validate_triple(loop_graph, T((), {"v"}, CycleFunction.of([(c, INF)]))) == ()


def test_validate_unknown_cycle(gamma2, loop_graph):
    (c,) = enumerate_cycles(loop_graph)
    with pytest.raises(UnknownCycleError):
        validate_triple(gamma2, T((), (), CycleFunction.of([(c, 2)])))


# --------------------------------------------------------- order


def test_leq_examples(gamma2):
    t2 = T({"u2"})
    t4 = T({"w2"}, {"v2"})
    t5 = T({"u2", "w2"})
    assert leq(gamma2, t2, t5)
    assert leq(gamma2, t4, t4)
    assert not leq(gamma2, t4, t5)
    assert not leq(gamma2, t5, t4)


def test_leq_is_partial_order_on_enumerations(gamma1, gamma2, loop_graph):
    cases = [
        (gamma1, enumerate_triples(gamma1)),
        (gamma2, enumerate_triples(gamma2)),
        (loop_graph, enumerate_triples(loop_graph, 12)),
    ]
    for g, ts in cases:
        for a in ts:
            assert leq(g, a, a)
            for b in ts:
                if leq(g, a, b) and leq(g, b, a):
                    assert a == b
                for c in ts:
                    if leq(g, a, b) and leq(g, b, c):
                        assert leq(g, a, c)


def test_leq_matches_definition_on_corpus_lattices():
    """The stored-free-cycle check and the vectorised order matrix against
    the all-cycles definition, on every ordered pair of each bounded cyclic
    and acyclic corpus lattice (and on the triples in reverse order, which
    renumbers each cycle's distinct values)."""
    cases = [(g, triple_lattice(g, 12)) for g in cyclic_corpus()]
    cases += [(g, triple_lattice(g)) for g in acyclic_corpus()]
    for g, lat in cases:
        ts = lat.labels
        definition = [[definition_leq(g, a, b) for b in ts] for a in ts]
        assert [[leq(g, a, b) for b in ts] for a in ts] == definition
        assert leq_matrix(g, ts).tolist() == definition
        assert leq_matrix(g, ts[::-1]).tolist() == [row[::-1] for row in definition[::-1]]
        assert lat.leq.tolist() == definition


def test_leq_matrix_divides_as_leq_across_inf_and_the_bound_cap():
    """The divisibility tables of the order matrix against pairwise leq,
    with inf on either side of a test: one loop at bound 1 and at
    BOUND_CAP (169 divisors and inf, past the int32 range), and the
    3810-triple forkloops at bound 60 (every 20th row and column)."""
    loop = parse_graph("vertex v\nedge e v v\n")
    forkloops = DirectedGraph.of(
        ["v0", "v1", "v2", "v3"],
        [("e0", "v0", "v1"), ("e1", "v0", "v2"), ("e2", "v1", "v1"), ("e3", "v2", "v2"), ("e4", "v3", "v3")],
    )
    for g, bound, step in ((loop, 1, 1), (loop, BOUND_CAP, 1), (forkloops, 60, 20)):
        ts = enumerate_triples(g, bound)
        m = leq_matrix(g, ts)
        assert m[::step].tolist() == [[leq(g, a, b) for b in ts] for a in ts[::step]]
        assert m[:, ::step].T.tolist() == [[leq(g, a, b) for a in ts] for b in ts[::step]]
    assert len(enumerate_triples(loop, BOUND_CAP)) == 1 + 169 + 1 + 1


# --------------------------------------------------------- meet / join


def test_meet_hand_examples(gamma1):
    assert meet(gamma1, T({"u1"}, {"v1"}), T({"u1", "w1"})) == T({"u1"})
    assert meet(gamma1, T({"u1"}, {"v1"}), T({"w1"}, {"v1"})) == T()


def test_join_hand_examples(gamma1, gamma2):
    assert join(gamma2, T({"u2"}), T({"w2"})) == T({"u2", "w2"})
    assert join(gamma1, T({"u1"}, {"v1"}), T({"w1"}, {"v1"})) == T({"u1", "v1", "w1"})


def test_meet_join_idempotent(gamma2):
    for t in enumerate_triples(gamma2):
        assert meet(gamma2, t, t) == t
        assert join(gamma2, t, t) == t


def test_set_trace_example(gamma1):
    c = T({"u1"}, {"v1"})
    e = T({"w1"}, {"v1"})
    trace = set_trace(gamma1, c, e)
    assert trace.V0 == {"v1"}
    assert trace.X == frozenset()
    assert trace.J == {"v1"}


def test_meet_join_commutative_and_valid(gamma1, gamma2, loop_graph):
    cases = [
        (gamma1, enumerate_triples(gamma1)),
        (gamma2, enumerate_triples(gamma2)),
        (loop_graph, enumerate_triples(loop_graph, 12)),
    ]
    for g, ts in cases:
        for a in ts:
            for b in ts:
                lo = meet(g, a, b)
                hi = join(g, a, b)
                assert lo == meet(g, b, a)
                assert hi == join(g, b, a)
                assert validate_triple(g, lo) == ()
                assert validate_triple(g, hi) == ()


def test_join_union_property_and_disjointness(gamma1, gamma2):
    # H_u ∪ W_u = H1 ∪ H2 ∪ W1 ∪ W2, and the meet's W parts are disjoint
    for g in (gamma1, gamma2):
        ts = enumerate_triples(g)
        for a in ts:
            for b in ts:
                hi = join(g, a, b)
                assert hi.H | hi.W == a.H | a.W | b.H | b.W
                parts = [a.W & b.H, b.W & a.H, a.W & b.W]
                for i in range(3):
                    for j in range(i + 1, 3):
                        assert not parts[i] & parts[j]


def test_x_definition_equivalence():
    # X = (W1 ∩ W2) \ V0 coincides with the index-1 vertices of W1 ∩ W2
    # relative to H1 ∩ H2.
    for g in acyclic_corpus()[:40]:
        ts = enumerate_triples(g)
        for a in ts:
            for b in ts:
                trace = set_trace(g, a, b)
                h_meet = a.H & b.H
                alt = frozenset(
                    v for v in a.W & b.W if index_relative(g, v, h_meet) == 1
                )
                assert trace.X == alt


# --------------------------------------------------------- enumeration


def test_enumerate_gamma2_exact(gamma2):
    assert enumerate_triples(gamma2) == (
        T(),
        T({"u2"}),
        T({"w2"}),
        T({"w2"}, {"v2"}),
        T({"u2", "w2"}),
        T({"u2", "v2", "w2"}),
    )


def test_enumerate_gamma1_exact(gamma1):
    assert enumerate_triples(gamma1) == (
        T(),
        T({"u1"}),
        T({"u1"}, {"v1"}),
        T({"w1"}),
        T({"w1"}, {"v1"}),
        T({"u1", "w1"}),
        T({"u1", "v1", "w1"}),
    )


def test_enumerate_single_loop_bound_12(loop_graph):
    (c,) = enumerate_cycles(loop_graph)
    expected = [T((), (), CycleFunction.of([]))]
    expected += [
        T((), {"v"}, CycleFunction.of([(c, m)])) for m in (1, 2, 3, 4, 6, 12, INF)
    ]
    expected += [T({"v"})]
    assert enumerate_triples(loop_graph, 12) == tuple(expected)


def test_enumerate_counts_match_formula():
    for g in acyclic_corpus()[:60]:
        expected = 0
        for h in hereditary_subsets(g):
            k = sum(
                1 for v in g.vertices if v not in h and index_relative(g, v, h) == 1
            )
            expected += 2**k
        assert len(enumerate_triples(g)) == expected


def test_listing_matches_the_reference_listing():
    """The bitmask listing gives the definition's triples in the same order:
    every DAG on 4 vertices (whose fans have vertices of index 2), the
    acyclic corpus, and every cyclic multigraph on 3 vertices with at most
    4 edges under the bounds 1, 2 and 60."""
    for g in (*dag_census(4, 1), *acyclic_corpus()):
        assert enumerate_triples(g) == reference_triples(g), graph_text(g)
    for g in cyclic_multigraphs(3, 4):
        for bound in (1, 2, 60):
            assert enumerate_triples(g, bound) == reference_triples(g, bound), (bound, graph_text(g))


def test_enumerate_cyclic_needs_bound(loop_graph):
    with pytest.raises(UnboundedLatticeError):
        enumerate_triples(loop_graph)


def test_triple_lattice_cap(gamma2, monkeypatch):
    import gislat.triples

    monkeypatch.setattr(gislat.triples, "TRIPLE_CAP", 6)
    assert len(triple_lattice(gamma2)) == 6
    monkeypatch.setattr(gislat.triples, "TRIPLE_CAP", 5)
    with pytest.raises(LatticeTooLargeError, match="capped at 5 elements"):
        triple_lattice(gamma2)
    monkeypatch.undo()
    # 67^3 = 300,763 triples: the enumeration stops at the 4097th.
    g = parse_graph("vertex a\nvertex b\nvertex c\nedge x a a\nedge y b b\nedge z c c")
    t0 = time.perf_counter()
    with pytest.raises(LatticeTooLargeError, match=f"capped at {TRIPLE_CAP} elements"):
        triple_lattice(g, 10_000_000)
    assert time.perf_counter() - t0 < 1.0


def test_hereditary_cap_keeps_the_check_order(monkeypatch):
    import gislat.triples

    monkeypatch.setattr(gislat.triples, "TRIPLE_CAP", 100)
    # 256 hereditary sets, each giving one triple (no vertex has index 1).
    iso8 = parse_graph("".join(f"vertex v{i}\n" for i in range(8)))
    with pytest.raises(LatticeTooLargeError, match="triple lattice capped at 100 elements"):
        triple_lattice(iso8)
    assert len(hereditary_subsets(iso8)) == len(enumerate_triples(iso8)) == 256
    capped = hereditary_subsets(iso8, 100)
    assert len(capped) == 101 and set(capped) <= set(hereditary_subsets(iso8))
    # Past both the bound cap and the triple cap, the bound cap is named.
    looped = parse_graph("".join(f"vertex v{i}\n" for i in range(8)) + "edge x v0 v0\n")
    with pytest.raises(LatticeTooLargeError, match="cycle-value bound capped"):
        triple_lattice(looped, 10**18)
    with pytest.raises(LatticeTooLargeError, match="triple lattice capped at 100 elements"):
        triple_lattice(looped, 6)


def test_bounded_enumeration_closed_under_meet_join(loop_graph):
    graphs = [(loop_graph, 12)] + [(g, 12) for g in cyclic_corpus(count=5)]
    for g, bound in graphs:
        ts = enumerate_triples(g, bound)
        members = set(ts)
        for a in ts:
            for b in ts:
                assert meet(g, a, b) in members
                assert join(g, a, b) in members


def test_component_lattices_factor_the_triple_lattice():
    """One lattice per weak component, and every triple of the graph, in
    enumeration order, placed in them: each coordinate names the triple's
    part in that component, distinct triples have distinct coordinates,
    and the sizes multiply to the graph's triple count."""
    for g, bound in product_corpus(count=30):
        factors = component_lattices(g, bound)
        ts, coords = product_coordinates(factors)
        assert tuple(ts) == enumerate_triples(g, bound)
        assert len({tuple(c) for c in coords.tolist()}) == len(ts) == math.prod(map(len, factors))
        parts = weak_component_subgraphs(g)
        for k, (part, lat) in enumerate(zip(parts, factors)):
            assert lat.labels == enumerate_triples(part, bound)
            vs = frozenset(part.vertices)
            for t, i in zip(ts, coords[:, k].tolist()):
                f = lat.labels[i]
                assert (f.H, f.W) == (t.H & vs, t.W & vs)
                assert f.f.entries == tuple((c, v) for c, v in t.f.entries if c.source_set <= vs)


def check_coordinates(g, bound):
    factors = component_lattices(g, bound)
    rows, coords = product_coordinates(factors)
    ts, want = reference_coordinates(g, factors, bound)
    assert tuple(rows) == ts, (bound, graph_text(g))
    assert coords.tolist() == want.tolist(), (bound, graph_text(g))


def test_sort_key_coordinates_match_the_reference_on_the_corpora():
    """The factors' rows sorted on the listing key place g's triples where
    listing g again and looking each one up does, and give the same
    labels: the multi-component and product corpora and the empty graph."""
    for g in multi_component_corpus():
        check_coordinates(g, None)
    for g, bound in product_corpus():
        check_coordinates(g, bound)
    check_coordinates(parse_graph(""), None)


@settings(max_examples=80, deadline=None)
@given(interleaved_components())
def test_sort_key_coordinates_match_the_reference_on_interleaved_components(case):
    """As above, on two to four components (loops, rings, forks, edges)
    whose sorted vertex names and edge names interleave, so that the
    product's masks and cycle order mix bits and cycles of every factor."""
    check_coordinates(*case)


def test_product_route_lists_the_divisors_once(monkeypatch):
    """The components, and the graph's triples placed in them, share one
    list of divisors of a bound near the 10^12 cap, which takes a
    noticeable time to list: here a fork over two loops beside a loop."""
    import gislat.triples

    calls = []
    monkeypatch.setattr(gislat.triples, "divisors", lambda n: calls.append(n) or divisors(n))
    g = parse_graph(
        "vertex u\nvertex v\nvertex w\nedge e u v\nedge f u w\nedge x v v\nedge y w w\n"
        "vertex l\nedge z l l\n"
    )
    factors = component_lattices(g, 999999999989)
    ts, _ = product_coordinates(factors)
    assert calls == [999999999989]
    assert tuple(ts) == gislat.triples.enumerate_triples(g, 999999999989)


def test_an_acyclic_part_runs_no_cycle_search(monkeypatch):
    """Beside a loop, a 6-leaf fan's 65 hereditary sets are listed without
    looking for free cycles: the loop's part searches once per hereditary
    set (2), the fan's part not at all, and the factors are unchanged."""
    import gislat.triples

    searched = []
    cycles = gislat.triples.enumerate_cycles
    monkeypatch.setattr(
        gislat.triples, "enumerate_cycles", lambda g: searched.append(g.vertices) or cycles(g)
    )
    g = parse_graph(
        "vertex l\nedge x l l\nvertex r\n"
        + "".join(f"vertex s{i}\nedge f{i} r s{i}\n" for i in range(6))
    )
    factors = component_lattices(g, 12)
    assert len(searched) == 2 and all(vs in ((), ("l",)) for vs in searched)
    for part, lat in zip(weak_component_subgraphs(g), factors):
        assert lat.labels == enumerate_triples(part, 12 if part.vertices == ("l",) else None)


def test_component_lattices_refuse_before_building(monkeypatch):
    """A product of triple counts past the cap is refused before any
    lattice is built, with the whole route's line; so are the graph's own
    refusals, in their order."""
    monkeypatch.setattr(gislat.lattice, "from_poset", None)  # any build fails
    chain = "".join(f"vertex v{i}\n" for i in range(12)) + "".join(
        f"edge e{i} v{i} v{i + 1}\n" for i in range(11)
    )
    with pytest.raises(LatticeTooLargeError, match="triple lattice capped at 4096 elements"):
        component_lattices(parse_graph(chain + "vertex z\n"))
    loop_path = parse_graph("vertex l\nedge x l l\nvertex a\nvertex b\nedge e a b\n")
    with pytest.raises(UnboundedLatticeError):
        component_lattices(loop_path)
    with pytest.raises(LatticeTooLargeError, match="cycle-value bound capped"):
        component_lattices(loop_path, 10**13)
    with pytest.raises(LimitError, match="20 vertices"):
        component_lattices(parse_graph("".join(f"vertex v{i}\n" for i in range(21))))


def test_a_later_factor_stops_listing_at_its_share_of_the_cap(monkeypatch):
    """Past the cap, a factor listed after others of ``size`` triples in all
    draws at most TRIPLE_CAP // size + 1 triples before the refusal: here an
    isolated vertex (2 triples) and then a 12-vertex path (4096)."""
    import gislat.triples

    drawn = []
    triples = gislat.triples._triples

    def counted(c, *args):
        for t in triples(c, *args):
            drawn.append(c.vertices[0])
            yield t

    monkeypatch.setattr(gislat.triples, "_triples", counted)
    chain = "".join(f"vertex b{i}\n" for i in range(12)) + "".join(
        f"edge e{i} b{i} b{i + 1}\n" for i in range(11)
    )
    g = parse_graph("vertex a\n" + chain)
    assert [p.vertices[0] for p in weak_component_subgraphs(g)] == ["a", "b0"]
    with pytest.raises(LatticeTooLargeError, match="triple lattice capped at 4096 elements"):
        component_lattices(g)
    assert (drawn.count("a"), drawn.count("b0")) == (2, TRIPLE_CAP // 2 + 1)


@pytest.mark.parametrize("max_edges, unforked, forked", [(6, False, 42), (4, True, 15)])
def test_every_small_cyclic_multigraph_probe_decides(max_edges, unforked, forked):
    """On 3 vertices, every forked cyclic multigraph with at most 6 edges
    has a non-distributive probe under the bounds 1 and 2, so classify
    --enumerate never answers "inconclusive" there, and every unforked one
    with at most 4 edges a distributive probe.  Larger censuses run in CI."""
    assert cyclic_census(3, max_edges, unforked) == forked


# --------------------------------------------------------- rendering


def test_render_and_json(gamma2, loop_graph):
    assert render_triple(T({"u2", "w2"})) == "({u2,w2},{},{})"
    (c,) = enumerate_cycles(loop_graph)
    t = T((), {"v"}, CycleFunction.of([(c, INF)]))
    assert render_triple(t) == "({},{v},{e:inf})"
    assert triple_to_json(t) == {"H": [], "W": ["v"], "f": {"e": "inf"}}
    assert triple_to_json(T({"w2"}, {"v2"})) == {"H": ["w2"], "W": ["v2"], "f": {}}
