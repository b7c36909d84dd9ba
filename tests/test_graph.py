import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import gislat
from gislat.graph import (
    DirectedGraph,
    Edge,
    GraphError,
    GraphParseError,
    UnknownVertexError,
    connectivity_report,
    enumerate_cycles,
    forked_vertices,
    hereditary_subsets,
    index_relative,
    is_acyclic,
    _parse_lines,
    parse_graph,
    reaches,
    weak_component_subgraphs,
)

from helpers import (
    acyclic_corpus,
    brute_cycle_classes,
    brute_hereditary,
    brute_reach_pairs,
    cyclic_corpus,
    cyclic_multigraphs,
    definition_connectivity,
    definition_forked,
    definition_weak_components,
    graph_strategy,
    hereditary_sets,
    is_hereditary,
    multi_component_corpus,
    outdeg_le1_corpus,
    reference_cycles,
    rotation_class,
    unilateral_corpus,
)


# ------------------------------------------------------------ parsing


def test_parse_gamma1(gamma1):
    assert gamma1.vertices == ("v1", "u1", "w1")
    assert [(e.name, e.src, e.dst) for e in gamma1.edges] == [
        ("e1", "v1", "u1"),
        ("f1", "v1", "w1"),
    ]


def test_parse_single_vertex():
    g = parse_graph("vertex a")
    assert g.vertices == ("a",)
    assert g.edges == ()


def test_parse_comments_and_blank_lines():
    g = parse_graph("# a comment\n\nvertex a\n  \n# more\nvertex b\nedge e a b\n")
    assert g.vertices == ("a", "b")
    assert len(g.edges) == 1


@pytest.mark.parametrize(
    "text, line, fragment",
    [
        ("edge e a b", 1, "undeclared"),
        ("vertex a\nvertex a", 2, "duplicate vertex"),
        ("vertex a\nedge e a a\nedge e a a", 3, "duplicate edge"),
        ("vertex a\nfrob a", 2, "unknown directive"),
        ("vertex", 1, "expected"),
        ("vertex a\nedge e a", 2, "expected"),
        ("vertex a-b", 1, "bad vertex name"),
        ("vertex b\nedge e b c", 2, "undeclared"),
        # A first edge line is cut off at 0, not read as vertex lines: a
        # plain split after it would declare a and b.
        ("edge a b b\nedge f a b\n", 1, "undeclared vertex 'b'"),
        ("edge a b b\r\nvertex a\r\nvertex b", 1, "undeclared vertex 'b'"),
        # Two late vertex lines keep the edge words in step: a plain split
        # would read "vertex b" and "vertex c" as the edge (b, vertex, c).
        ("vertex a\nvertex vertex\nvertex b\nvertex c\nedge e a a\nvertex b\nvertex c\nedge f b c", 6, "duplicate vertex"),
    ],
)
def test_parse_errors_carry_line_numbers(text, line, fragment):
    with pytest.raises(GraphParseError, match=fragment) as err:
        parse_graph(text)
    assert err.value.line_no == line


# Each line is split once: a whitespace-only line is blank, a line whose
# first word starts with "#" is a comment, and tabs separate words.
@pytest.mark.parametrize(
    "text",
    [
        "vertex a\n   # note\nvertex b\nedge e a b\n",
        "vertex a\nvertex b\nedge\te\ta\tb\n",
        "vertex a\nvertex b\nedge e a b\n\n",
    ],
)
def test_parse_comment_tab_and_trailing_blank_lines(text):
    g = parse_graph(text)
    assert g.vertices == ("a", "b")
    assert [(e.name, e.src, e.dst) for e in g.edges] == [("e", "a", "b")]


@pytest.mark.parametrize(
    "text, line, message",
    [
        ("vertex a\n   # note\nfrob a\n", 3, "unknown directive 'frob'"),
        ("vertex a\nv# a\n", 2, "unknown directive 'v#'"),
        ("vertex a\nedge\te\ta\n", 2, "expected: edge NAME SRC DST"),
        ("vertex a\nvertex b\nedge e a c\n\n", 3, "edge 'e' references undeclared vertex 'c'"),
    ],
)
def test_parse_errors_after_comment_tab_and_blank_lines(text, line, message):
    with pytest.raises(GraphParseError) as err:
        parse_graph(text)
    assert (err.value.line_no, str(err.value)) == (line, f"line {line}: {message}")


SEPARATORS = (" ", "  ", "\t", "\x1f", "\xa0", "\u3000")  # none of them ends a line
LINE_ENDS = ("\n", "\r", "\r\n", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029")
FILLERS = ("", " ", "\t", "\xa0\u3000", "# note", "   # note with words", "#edge e a b", "\x1f#")
NAMES = st.text("ab0_Z", min_size=1, max_size=2)  # a vertex and an edge may share a name
PLAIN_NAMES = NAMES | st.sampled_from(("edge", "vertex"))  # directives are names too
BROKEN = (
    "bad vertex name", "bad edge name", "duplicate vertex", "duplicate edge",
    "undeclared end", "end declared later", "wrong arity", "unknown directive",
)


@st.composite
def graph_files(draw, errors: int = 0, plain: bool = False):
    """The text of a random graph file and the graph it declares, or None
    once ``errors`` groups of bad lines are put in.  Declarations are
    shuffled, each edge after its ends, with blank and comment lines in
    between; words and lines are split by every kind of whitespace
    :func:`parse_graph` accepts.

    A ``plain`` file has the layout :func:`parse_graph` reads whole: every
    vertex line, then every edge line, one space between words, each line
    ended by ``\n`` or ``\r\n`` (the last optionally).  Its bad groups go
    where their kind of line goes, so most broken plain files stay plain."""
    vertices = draw(st.lists(PLAIN_NAMES if plain else NAMES, max_size=5, unique=True))
    edges = []
    if vertices:
        ends = st.sampled_from(vertices)
        names = draw(st.lists(PLAIN_NAMES if plain else NAMES, max_size=6, unique=True))
        edges = [(name, draw(ends), draw(ends)) for name in names]
    lines = [["vertex", v] for v in draw(st.permutations(vertices))]
    for name, src, dst in edges:
        after = max(lines.index(["vertex", src]), lines.index(["vertex", dst])) + 1
        at = len(lines) if plain else draw(st.integers(after, len(lines)))
        lines.insert(at, ["edge", name, src, dst])
    graph = DirectedGraph.of(
        [w[1] for w in lines if w[0] == "vertex"], [w[1:] for w in lines if w[0] == "edge"]
    )
    for _ in range(errors):
        bad = _bad_lines(draw, vertices, edges)
        low, high = 0, len(lines)
        if plain:  # vertex groups among the vertex lines, edge groups after them
            head = sum(w[0] == "vertex" for w in lines)
            kinds = {w[0] for w in bad}
            if kinds == {"vertex"}:
                high = head
            elif kinds == {"edge"}:
                low = head
        at = draw(st.integers(low, high))
        lines[at:at] = bad
    separators, line_ends = ((" ",), ("\n", "\r\n")) if plain else (SEPARATORS, LINE_ENDS)
    for _ in range(0 if plain else draw(st.integers(0, 4))):
        lines.insert(draw(st.integers(0, len(lines))), draw(st.sampled_from(FILLERS)))
    text = ""
    for line in lines:
        if isinstance(line, list):
            sep = st.sampled_from(separators)
            line = draw(sep).join(line)
            if not plain and draw(st.booleans()):
                line = draw(sep) + line + draw(sep)
        text += line + draw(st.sampled_from(line_ends))
    if draw(st.booleans()):
        text = text.rstrip("".join(line_ends))
    return text, None if errors else graph


def _bad_lines(draw, vertices, edges) -> list[list[str]]:
    """Lines holding one error of a kind drawn from BROKEN.  "nowhere",
    "late" and "q" name no vertex or edge of :func:`graph_files`."""
    kind = draw(st.sampled_from(BROKEN))
    some = draw(st.sampled_from(vertices)) if vertices else "a"
    if kind == "bad vertex name":
        return [["vertex", draw(st.sampled_from(("a-b", "é", "vé", "-")))]]
    if kind == "bad edge name":
        return [["edge", draw(st.sampled_from(("e-f", "é", "eé"))), some, some]]
    if kind == "duplicate vertex":
        return [["vertex", some]] * 2
    if kind == "duplicate edge":
        return [["edge", edges[0][0] if edges else "q", some, some]] * 2
    if kind == "undeclared end":
        return [["edge", "q", *draw(st.sampled_from((["nowhere", some], [some, "nowhere"])))]]
    if kind == "end declared later":
        return [["edge", "q", some, "late"], ["vertex", "late"]]
    if kind == "wrong arity":
        return [draw(st.sampled_from(
            (["vertex"], ["vertex", "a", "b"], ["edge", "q", some], ["edge", "q", some, some, some])
        ))]
    return [[draw(st.sampled_from(("frob", "Vertex", "vertices", "edges", "v#"))), some]]


def _parsed(parse, text):
    try:
        return parse(text)
    except GraphParseError as err:
        return err.line_no, str(err)


@settings(max_examples=400)
@given(st.one_of(graph_files(), graph_files(plain=True)))
def test_whole_file_parse_agrees_with_the_line_pass_on_valid_files(file):
    text, graph = file
    assert parse_graph(text) == _parse_lines(text) == graph


@settings(max_examples=400)
@given(st.integers(1, 2).flatmap(lambda k: graph_files(errors=k) | graph_files(errors=k, plain=True)))
def test_whole_file_parse_names_the_first_error_of_the_line_pass(file):
    text, _ = file
    reference = _parsed(_parse_lines, text)
    assert isinstance(reference, tuple)
    assert _parsed(parse_graph, text) == reference


def _grid_and_ring():
    grid = [f"vertex v{r}_{c}" for r in range(30) for c in range(30)]
    grid += [f"edge r{r}_{c} v{r}_{c} v{r}_{c + 1}" for r in range(30) for c in range(29)]
    grid += [f"edge d{r}_{c} v{r}_{c} v{r + 1}_{c}" for r in range(29) for c in range(30)]
    ring = [f"vertex v{i}" for i in range(1200)]
    ring += [f"edge e{i} v{i} v{(i + 1) % 1200}" for i in range(1200)]
    return grid, ring


def test_plain_files_take_the_whole_file_pass(monkeypatch):
    def refused(text):
        raise AssertionError("the line-by-line pass ran on a plain file")

    grid, ring = _grid_and_ring()
    files = [
        (end.join(lines) + last, n, m)
        for lines, n, m in ((grid, 900, 1740), (ring, 1200, 1200))
        for end in ("\n", "\r\n")
        for last in ("", end)
    ]
    files += [
        ("", 0, 0),
        ("vertex a\r\nvertex b\r\n", 2, 0),
        ("vertex a\nvertex b", 2, 0),
        # The directives' words as names: on a vertex line no space follows
        # the name, so the first "edge " still starts the first edge line.
        ("vertex edge\nvertex vertex\nedge vertex edge vertex\r\nedge edge vertex edge", 2, 2),
    ]
    expected = [_parse_lines(text) for text, _, _ in files]
    monkeypatch.setattr(gislat.graph, "_parse_lines", refused)
    for (text, n, m), graph in zip(files, expected):
        g = parse_graph(text)
        assert g == graph and (len(g.vertices), len(g.edges)) == (n, m)


@pytest.mark.parametrize(
    "change",
    [
        lambda text: "# header\n" + text,
        lambda text: text.replace("\nedge ", "\n\nedge ", 1),
        lambda text: text.replace(" ", "\t", 1),
        lambda text: text.replace(" ", "  ", 1),
        lambda text: text + "\nvertex late",
    ],
    ids=["header comment", "blank line", "tab", "two spaces", "late vertex"],
)
def test_other_layouts_take_the_line_pass(monkeypatch, change):
    texts = ["\n".join(lines) for lines in _grid_and_ring()]
    plains = [parse_graph(text) for text in texts]
    calls = []

    def counted(text):
        calls.append(text)
        return _parse_lines(text)

    monkeypatch.setattr(gislat.graph, "_parse_lines", counted)
    for text, plain in zip(map(change, texts), plains):
        late = ("late",) if text.endswith("late") else ()
        assert parse_graph(text) == DirectedGraph(plain.vertices + late, plain.edges)
        assert calls == [text]
        calls.clear()


def test_edge_is_a_named_triple():
    e = Edge("e", "a", "b")
    assert Edge._fields == ("name", "src", "dst")
    assert repr(e) == "Edge(name='e', src='a', dst='b')"
    assert hash(e) == hash((e.name, e.src, e.dst))
    assert e == ("e", "a", "b") and tuple(e) == ("e", "a", "b")
    with pytest.raises(AttributeError):
        e.dst = "c"
    # The whole-file pass builds its edges without Edge.__new__, the line
    # pass (a vertex declared after an edge) with it: Edge values either way.
    for text in ("vertex a\nvertex b\nedge e a b", "vertex a\nvertex b\nedge e a b\nvertex c"):
        (parsed,) = parse_graph(text).edges
        assert type(parsed) is Edge and parsed == e and parsed.dst == "b"


def test_of_takes_triples_and_edges():
    triples = [("e", "a", "b"), ["f", "b", "a"]]
    edges = [Edge("e", "a", "b"), Edge("f", "b", "a")]
    for given in (triples, edges, [triples[0], edges[1]]):
        g = DirectedGraph.of(["a", "b"], given)
        assert g.edges == tuple(edges)
        assert all(type(e) is Edge for e in g.edges)


def test_of_rejects_bad_input():
    with pytest.raises(GraphError):
        DirectedGraph.of(["a", "a"], [])
    with pytest.raises(GraphError):
        DirectedGraph.of(["a"], [("e", "a", "b")])


# ------------------------------------------------------------ reachability


@settings(max_examples=200)
@given(graph_strategy())
@example(DirectedGraph.of([], []))
def test_condensation_matches_bruteforce_reachability(g):
    roots, reach = g.condensation
    pairs = brute_reach_pairs(g)
    index = g.vertex_index
    assert {
        (a, b) for a in g.vertices for b in g.vertices if reach[index[a]] >> index[b] & 1
    } == pairs
    # One component per class of mutual reachability, one root in each.
    mutual = {
        a: frozenset(b for b in g.vertices if {(a, b), (b, a)} <= pairs) for a in g.vertices
    }
    assert len(roots) == len(set(mutual.values())) == len({mutual[r] for r in roots})
    # Each component comes after every component it reaches.
    for i, r in enumerate(roots):
        assert not any((r, later) in pairs for later in roots[i + 1 :])


def test_reaches_examples(gamma1):
    assert reaches(gamma1, "v1", "u1")
    assert reaches(gamma1, "v1", "v1")
    assert not reaches(gamma1, "u1", "w1")
    with pytest.raises(UnknownVertexError):
        reaches(gamma1, "v1", "zz")


@settings(max_examples=60)
@given(graph_strategy())
def test_reaches_matches_bruteforce_closure(g):
    expected = brute_reach_pairs(g)
    for a in g.vertices:
        for b in g.vertices:
            assert reaches(g, a, b) == ((a, b) in expected)


@settings(max_examples=40)
@given(graph_strategy())
def test_reaches_is_a_preorder(g):
    vs = g.vertices
    for a in vs:
        assert reaches(g, a, a)
    for a in vs:
        for b in vs:
            for c in vs:
                if reaches(g, a, b) and reaches(g, b, c):
                    assert reaches(g, a, c)


# ------------------------------------------------------------ index


def test_index_relative_examples(gamma2):
    assert index_relative(gamma2, "v2", {"w2"}) == 1
    assert index_relative(gamma2, "v2", set()) == 3
    for v in gamma2.vertices:
        assert index_relative(gamma2, v, set(gamma2.vertices)) == 0
    with pytest.raises(UnknownVertexError):
        index_relative(gamma2, "nope", set())
    with pytest.raises(UnknownVertexError):
        index_relative(gamma2, "v2", {"nope"})


def test_index_relative_names_the_least_unknown_vertex():
    """Of several unknown members of H, the error names the least, under
    any hash seed: frozenset order varies with it (seeds 0 and 1 once
    named 'y' and 'x')."""
    code = (
        "from gislat.graph import UnknownVertexError, index_relative, parse_graph\n"
        "try:\n"
        "    index_relative(parse_graph('vertex a'), 'a', {'z', 'x', 'y', 'a'})\n"
        "except UnknownVertexError as err:\n"
        "    print(err)\n"
    )
    src = str(Path(gislat.__file__).resolve().parent.parent)
    for seed in ("0", "1"):
        proc = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            env=dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED=seed),
            timeout=60,
        )
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, "unknown vertex 'x'\n", "")


@settings(max_examples=40)
@given(graph_strategy())
def test_members_of_hereditary_sets_have_index_zero(g):
    for h in hereditary_sets(g):
        for v in h:
            assert index_relative(g, v, h) == 0


# ------------------------------------------------------------ hereditary


def test_is_hereditary_examples(gamma1, gamma2):
    assert is_hereditary(gamma1, {"u1"})
    assert not is_hereditary(gamma1, {"v1"})
    assert is_hereditary(gamma1, set())
    assert is_hereditary(gamma1, set(gamma1.vertices))
    assert is_hereditary(gamma2, {"u2", "w2"})


def test_hereditary_subsets_frozen(gamma1, gamma2):
    assert hereditary_sets(gamma1) == (
        frozenset(),
        frozenset({"u1"}),
        frozenset({"w1"}),
        frozenset({"u1", "w1"}),
        frozenset({"u1", "v1", "w1"}),
    )
    assert [sorted(s) for s in hereditary_sets(gamma2)] == [
        [],
        ["u2"],
        ["w2"],
        ["u2", "w2"],
        ["u2", "v2", "w2"],
    ]
    single = parse_graph("vertex a")
    assert hereditary_sets(single) == (frozenset(), frozenset({"a"}))
    # masks over the sorted names, the first on the top bit: u1, v1, w1
    assert hereditary_subsets(gamma1) == (0b000, 0b100, 0b001, 0b101, 0b111)


@settings(max_examples=60)
@given(graph_strategy())
def test_hereditary_subsets_match_bruteforce(g):
    assert set(hereditary_sets(g)) == brute_hereditary(g)


@settings(max_examples=60)
@given(graph_strategy(), st.integers(min_value=1, max_value=12))
def test_hereditary_masks_are_ordered_and_name_the_sets(g, cap):
    """The masks are strictly ordered by (size, mask descending), the order
    of (size, sorted names), and name exactly the hereditary sets; under a
    cap that some graph passes, ``cap + 1`` of them."""
    brute = brute_hereditary(g)
    for most in (None, cap):
        masks, sets = hereditary_subsets(g, most), hereditary_sets(g, most)
        keys = [(h.bit_count(), -h) for h in masks]
        assert all(a < b for a, b in zip(keys, keys[1:])), masks
        named = [(len(s), sorted(s)) for s in sets]
        assert named == sorted(named)
        if most is None or len(brute) <= most:
            assert set(sets) == brute
        else:
            assert len(sets) == most + 1 and set(sets) <= brute


@settings(max_examples=40)
@given(graph_strategy())
def test_hereditary_subsets_closed_under_union_and_intersection(g):
    subsets = set(hereditary_sets(g))
    for a in subsets:
        for b in subsets:
            assert a | b in subsets
            assert a & b in subsets


# ------------------------------------------------------------ cycles


def test_no_module_level_memo_tables():
    import importlib
    import pkgutil

    import gislat

    modules = [gislat] + [
        importlib.import_module(f"gislat.{info.name}")
        for info in pkgutil.iter_modules(gislat.__path__)
    ]
    for module in modules:
        for name, value in vars(module).items():
            assert not (callable(value) and hasattr(value, "cache_clear")), (
                f"{module.__name__}.{name}"
            )


def test_cycles_are_memoised_on_the_graph():
    g = parse_graph("vertex a\nvertex b\nedge e a b\nedge f b a")
    assert g.cycles is g.cycles
    assert g.cycles == enumerate_cycles(g)


def test_cycles_gamma1_empty(gamma1):
    assert enumerate_cycles(gamma1) == ()


def test_cycles_loop(loop_graph):
    (c,) = enumerate_cycles(loop_graph)
    assert c.edges == ("e",)
    assert c.sources == ("v",)


def test_cycles_two_cycle_canonical_rotation():
    g = parse_graph("vertex b\nvertex a\nedge f b a\nedge e a b")
    (c,) = enumerate_cycles(g)
    assert c.sources[0] == "a"
    assert c.edges == ("e", "f")


def test_cycles_parallel_edges_give_distinct_cycles():
    g = parse_graph("vertex a\nvertex b\nedge e1 a b\nedge e2 a b\nedge f b a")
    cycles = enumerate_cycles(g)
    assert sorted(c.edges for c in cycles) == [("e1", "f"), ("e2", "f")]


def test_cycles_invariant_under_edge_declaration_order():
    base = "vertex a\nvertex b\nvertex c\n"
    edges = ["edge e a b", "edge f b c", "edge g c a", "edge h b a"]
    reference = None
    for perm in ([0, 1, 2, 3], [3, 2, 1, 0], [1, 3, 0, 2]):
        g = parse_graph(base + "\n".join(edges[i] for i in perm))
        cycles = enumerate_cycles(g)
        if reference is None:
            reference = cycles
        assert cycles == reference


@settings(max_examples=60)
@given(graph_strategy(max_vertices=4, max_edges=6))
def test_cycles_match_bruteforce_rotation_classes(g):
    ours = {rotation_class(c.edges) for c in enumerate_cycles(g)}
    assert ours == brute_cycle_classes(g)
    assert is_acyclic(g) == (not ours)
    for c in enumerate_cycles(g):
        assert c.sources[0] == min(c.sources)
        assert len(set(c.sources)) == len(c.sources)


def test_is_acyclic_matches_cycle_enumeration_on_corpora():
    corpora = (
        acyclic_corpus(), cyclic_corpus(), outdeg_le1_corpus(), unilateral_corpus(),
        multi_component_corpus(),
    )
    for g in (g for corpus in corpora for g in corpus):
        assert is_acyclic(g) == (not enumerate_cycles(g)) == (not brute_cycle_classes(g))


def test_is_acyclic_loops_and_long_graphs(loop_graph):
    assert not is_acyclic(loop_graph)
    n = 5000
    names = [f"v{i}" for i in range(n)]
    path = DirectedGraph.of(names, [(f"e{i}", names[i], names[i + 1]) for i in range(n - 1)])
    assert is_acyclic(path)
    ring = DirectedGraph.of(names, list(path.edges) + [("back", names[-1], names[0])])
    assert not is_acyclic(ring)


def _redeclared(g: DirectedGraph) -> DirectedGraph:
    """``g`` with its vertices and edges declared in reverse order, so that
    vertex positions no longer follow name order."""
    return DirectedGraph(g.vertices[::-1], g.edges[::-1])


def test_cycles_match_the_reference_walk_on_the_corpora():
    graphs = (*cyclic_corpus(), *cyclic_multigraphs(3, 5))
    assert len(graphs) == 1806
    for g in graphs:
        for h in (g, _redeclared(g)):
            assert enumerate_cycles(h) == reference_cycles(h)


def test_cycles_of_a_long_ring():
    # Deeper than the default recursion limit: the walk must not recurse.
    # Linear time: the parent's one walk per vertex took 5.6 s here.
    n = 5000
    names = [f"v{i}" for i in range(n)]
    ring = DirectedGraph.of(names, [(f"e{i}", names[i], names[(i + 1) % n]) for i in range(n)])
    (c,) = enumerate_cycles(ring)
    assert len(c.edges) == n
    assert c.sources[0] == min(names)


# ------------------------------------------------------------ forked


def test_forked_examples(gamma1, gamma2):
    assert forked_vertices(gamma1) == {"v1"}
    assert forked_vertices(gamma2) == frozenset()


def test_forked_needs_two_out_edges():
    g = parse_graph("vertex a\nvertex b\nedge e a b")
    assert forked_vertices(g) == frozenset()


@settings(max_examples=40)
@given(graph_strategy())
def test_forked_subset_of_outdegree_two(g):
    for v in forked_vertices(g):
        assert index_relative(g, v, set()) >= 2


def ring(n: int) -> DirectedGraph:
    names = [f"v{i}" for i in range(n)]
    return DirectedGraph.of(names, [(f"e{i}", names[i], names[(i + 1) % n]) for i in range(n)])


def grid(rows: int, cols: int) -> DirectedGraph:
    """Edges right and down: each vertex off the last row and column is forked."""
    names = [f"v{r}_{c}" for r in range(rows) for c in range(cols)]
    edges = [(f"d{r}_{c}", f"v{r}_{c}", f"v{r + 1}_{c}") for r in range(rows - 1) for c in range(cols)]
    edges += [(f"r{r}_{c}", f"v{r}_{c}", f"v{r}_{c + 1}") for r in range(rows) for c in range(cols - 1)]
    return DirectedGraph.of(names, edges)


SHAPES = (
    DirectedGraph.of(["a", "b", "c"], []),  # isolated vertices
    DirectedGraph.of(["a", "b", "c"], [("e", "a", "b"), ("f", "a", "b"), ("g", "c", "b")]),
    DirectedGraph.of(["a", "b", "c"], [("x", "a", "a"), ("y", "b", "b"), ("e", "a", "c")]),
)


def structural_corpus():
    return (
        acyclic_corpus() + cyclic_corpus() + multi_component_corpus() + outdeg_le1_corpus()
        + unilateral_corpus() + SHAPES + (ring(1200), grid(30, 30))
    )


@settings(max_examples=200)
@given(graph_strategy())
def test_forked_matches_the_pairwise_definition(g):
    assert forked_vertices(g) == definition_forked(g)


def test_forked_matches_the_pairwise_definition_on_the_corpora():
    for g in structural_corpus():
        assert forked_vertices(g) == definition_forked(g)
        assert g.successors == tuple(
            tuple(g.vertex_index[e.dst] for e in g.out_edges[v]) for v in g.vertices
        )
    assert len(forked_vertices(grid(30, 30))) == 29 * 29


def test_unilateral_graphs_have_no_forks():
    for g in unilateral_corpus(count=20):
        assert connectivity_report(g).is_unilaterally_connected
        assert forked_vertices(g) == frozenset()


# ------------------------------------------------------------ connectivity


def test_connectivity_gamma1(gamma1):
    rep = connectivity_report(gamma1)
    assert rep.is_weakly_connected
    assert not rep.is_unilaterally_connected
    assert not rep.is_strongly_connected
    assert rep.weak_components == (("u1", "v1", "w1"),)


def test_connectivity_single_vertex():
    rep = connectivity_report(parse_graph("vertex a"))
    assert rep.is_weakly_connected
    assert rep.is_unilaterally_connected
    assert rep.is_strongly_connected


def test_connectivity_two_components():
    g = parse_graph("vertex a\nvertex b\nvertex c\nedge e a b\nedge f b a")
    rep = connectivity_report(g)
    assert rep.weak_components == (("a", "b"), ("c",))
    assert not rep.is_weakly_connected
    assert not rep.is_unilaterally_connected
    assert not rep.is_strongly_connected


@settings(max_examples=200)
@given(graph_strategy())
@example(DirectedGraph.of([], []))
def test_connectivity_flags_match_pairwise_definition(g):
    rep = connectivity_report(g)
    assert (rep.is_unilaterally_connected, rep.is_strongly_connected) == definition_connectivity(g)


@settings(max_examples=200)
@given(graph_strategy())
@example(DirectedGraph.of([], []))
def test_weak_components_match_undirected_closure(g):
    assert connectivity_report(g).weak_components == definition_weak_components(g)


def test_weak_components_match_undirected_closure_on_the_corpora():
    for g in structural_corpus():
        assert connectivity_report(g).weak_components == definition_weak_components(g)
    assert len(connectivity_report(SHAPES[0]).weak_components) == 3


def test_weak_component_subgraphs():
    g = parse_graph("vertex a\nvertex b\nvertex c\nedge e a b\nedge f b a")
    parts = weak_component_subgraphs(g)
    assert [p.vertices for p in parts] == [("a", "b"), ("c",)]
    assert [len(p.edges) for p in parts] == [2, 0]
    # A weakly connected graph is its own one part, memoised data and all;
    # the empty graph has no part.
    for g in (parts[0], parts[1], *acyclic_corpus()[:40]):
        if len(connectivity_report(g).weak_components) == 1:
            assert len(weak_component_subgraphs(g)) == 1 and weak_component_subgraphs(g)[0] is g
    assert weak_component_subgraphs(DirectedGraph.of([], [])) == ()
