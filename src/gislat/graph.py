"""Finite directed multigraphs and their vertex combinatorics.

Everything downstream (semigroup elements, congruence triples, the lattice
cross-checks) is driven by a handful of graph-level notions implemented
here: reachability, hereditary vertex sets (int masks over the sorted
vertex names), the index of a vertex relative to a vertex set, simple
cycles up to rotation, forked vertices, and the usual connectivity
predicates; :func:`parse_graph` reads graph files.

All values are immutable after construction and iteration follows
declaration order, so every operation is deterministic.  Derived data
(the integer adjacency ``successors`` and the ``Edge`` lists it sits
beside, one condensation from a single SCC pass over ``successors``, weak
components, cycles) is memoised on the graph itself as tuples and lives as
long as the graph; the module keeps no memo tables.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property
from itertools import islice, repeat
from typing import NamedTuple

_WORD = "A-Za-z0-9_"  # the characters of a vertex or edge name
_W, _END = f"[{_WORD}]+", "\\r?(?:\\n|\\Z)"  # a name; a line end, the last one optional
_NAME = re.compile(f"{_W}\\Z")
# A newline not followed by "vertex NAME" or "edge NAME SRC DST" and a line end.  A
# search holds no state across lines; a repeated match keeps ~15 bytes per char.
_ODD_LINE = re.compile(f"\\n(?!vertex {_W}{_END}|edge {_W} {_W} {_W}{_END}|\\Z)")


class GraphError(ValueError):
    """Invalid graph construction or lookup."""


class LimitError(GraphError):
    """A refused request: the structure asked for is infinite or past a
    size cap.  The command line reports every one with exit code 2."""


class GraphParseError(GraphError):
    """Malformed graph file; the message carries the 1-based line number."""

    def __init__(self, line_no: int, message: str) -> None:
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


class UnknownVertexError(GraphError):
    """A vertex name that is not declared in the graph."""


class Edge(NamedTuple):
    """A named edge.  A tuple, so it equals and unpacks like its
    ``(name, src, dst)`` triple and is built at tuple speed."""

    name: str
    src: str
    dst: str


@dataclass(frozen=True)
class Cycle:
    """A simple directed cycle in canonical rotation.

    ``edges`` holds edge names and ``sources`` the matching edge sources
    (``sources[i]`` is the source of ``edges[i]``).  The sources of a cycle
    are pairwise distinct, and the rotation is fixed so that the
    lexicographically smallest source comes first; cyclic permutations of
    the same cycle therefore share one canonical representative.
    """

    edges: tuple[str, ...]
    sources: tuple[str, ...]

    @cached_property
    def source_set(self) -> frozenset[str]:
        return frozenset(self.sources)

    def sort_key(self) -> tuple:
        return (len(self.edges), self.edges)


@dataclass(frozen=True)
class DirectedGraph:
    """Finite directed multigraph with named vertices and edges.

    Parallel edges and loops are allowed.  Vertex and edge iteration order
    is the declaration order.
    """

    vertices: tuple[str, ...]
    edges: tuple[Edge, ...]

    @staticmethod
    def of(vertices, edges) -> "DirectedGraph":
        """Build a validated graph from vertex names and (name, src, dst)
        triples (or ready-made :class:`Edge` values)."""
        builder = _Builder()
        for v in vertices:
            builder.vertex(v)
        for item in edges:
            builder.edge(Edge(*item))
        return builder.build()

    @cached_property
    def vertex_set(self) -> frozenset[str]:
        return frozenset(self.vertices)

    @cached_property
    def vertex_index(self) -> dict[str, int]:
        return {v: i for i, v in enumerate(self.vertices)}

    @cached_property
    def out_edges(self) -> dict[str, tuple[Edge, ...]]:
        out: dict[str, list[Edge]] = {v: [] for v in self.vertices}
        for e in self.edges:
            out[e.src].append(e)
        return {v: tuple(es) for v, es in out.items()}

    @cached_property
    def successors(self) -> tuple[tuple[int, ...], ...]:
        """Each vertex's out-edge ends as ``vertex_index`` positions, in the
        order of ``out_edges``."""
        index = self.vertex_index
        out: list[list[int]] = [[] for _ in self.vertices]
        for _, src, dst in self.edges:
            out[index[src]].append(index[dst])
        return tuple(map(tuple, out))

    @cached_property
    def condensation(self) -> tuple[tuple[str, ...], tuple[int, ...]]:
        """One representative vertex per strongly connected component, each
        component after every component it reaches, and each vertex's reach
        set as a bitmask over ``vertex_index`` (trivial paths count).

        A component's mask ORs its own bits with the masks of the components
        its edges enter, each listed before it by :func:`strong_components`."""
        succ = self.successors
        reach = [0] * len(succ)
        roots: list[str] = []
        for members in strong_components(succ):
            mask = 0
            for w in members:
                mask |= 1 << w
                for x in succ[w]:
                    mask |= reach[x]
            for w in members:
                reach[w] = mask
            roots.append(self.vertices[members[0]])
        return tuple(roots), tuple(reach)

    @cached_property
    def weak_components(self) -> tuple[tuple[str, ...], ...]:
        """Each weak component's vertex names, sorted, and the components
        in sorted order: :func:`join_labels` over the edges' ends."""
        links = [(v, w) for v, ends in enumerate(self.successors) for w in ends]
        groups: dict[int, list[str]] = {}
        for v, r in zip(self.vertices, join_labels(range(len(self.vertices)), links)):
            groups.setdefault(r, []).append(v)
        return tuple(sorted(tuple(sorted(members)) for members in groups.values()))

    @cached_property
    def cycles(self) -> tuple[Cycle, ...]:
        """:func:`enumerate_cycles` of this graph, computed once."""
        return enumerate_cycles(self)

    def check_vertex(self, v: str) -> None:
        if v not in self.vertex_set:
            raise UnknownVertexError(f"unknown vertex {v!r}")


def strong_components(succ) -> list[list[int]]:
    """The strong components of the graph on 0..n-1 with successor lists
    ``succ``, each after every component it reaches and starting with the
    vertex it was entered by.  One iterative Tarjan pass: a vertex is
    numbered by its stack position while on the stack, then by n, which
    lowers no low-link, once its component is listed."""
    n = len(succ)
    found, low = [-1] * n, [0] * n
    stack: list[int] = []
    comps: list[list[int]] = []
    for start in range(n):
        work = [(start, iter(succ[start]))] if found[start] < 0 else []
        while work:
            v, out = work[-1]
            if found[v] < 0:
                found[v] = low[v] = len(stack)
                stack.append(v)
            for w in out:
                if found[w] < 0:
                    work.append((w, iter(succ[w])))
                    break
                if found[w] < low[v]:
                    low[v] = found[w]
            else:
                work.pop()
                if work and low[v] < low[work[-1][0]]:
                    low[work[-1][0]] = low[v]
                if low[v] == found[v]:
                    comps.append(stack[found[v]:])
                    del stack[found[v]:]
                    for w in comps[-1]:
                        found[w] = n
    return comps


def join_labels(lab, links) -> tuple[int, ...]:
    """The equivalence join of the labelling ``lab`` (each label the least
    member of its class) with the pairs ``links``, as a labelling."""
    parent = list(lab)
    for rx, ry in links:
        while parent[rx] != rx:
            rx = parent[rx]
        while parent[ry] != ry:
            ry = parent[ry]
        if rx < ry:
            parent[ry] = rx
        elif ry < rx:
            parent[rx] = ry
    for x, p in enumerate(parent):  # p <= x, so p is settled already
        parent[x] = parent[p]
    return tuple(parent)


class _Builder:
    """Declarations checked one at a time, in order: names, duplicates, and
    edge ends that must already be declared."""

    def __init__(self) -> None:
        self.vertices: dict[str, None] = {}
        self.edges: dict[str, Edge] = {}

    def vertex(self, v: str) -> None:
        if not _NAME.match(v):
            raise GraphError(f"bad vertex name {v!r}")
        if v in self.vertices:
            raise GraphError(f"duplicate vertex {v!r}")
        self.vertices[v] = None

    def edge(self, e: Edge) -> None:
        if not _NAME.match(e.name):
            raise GraphError(f"bad edge name {e.name!r}")
        if e.name in self.edges:
            raise GraphError(f"duplicate edge {e.name!r}")
        for end in (e.src, e.dst):
            if end not in self.vertices:
                raise GraphError(f"edge {e.name!r} references undeclared vertex {end!r}")
        self.edges[e.name] = e

    def build(self) -> DirectedGraph:
        return DirectedGraph(tuple(self.vertices), tuple(self.edges.values()))


def parse_graph(text: str) -> DirectedGraph:
    r"""Parse the line-oriented graph format.

    Directives, one per line: ``vertex NAME`` and ``edge NAME SRC DST``;
    blank lines and lines whose first word starts with ``#`` are ignored.
    Vertices must be declared before any edge uses them.

    A plain file (every vertex line, then every edge line, single spaces,
    lines ended by ``\n`` or ``\r\n``, the last optionally) is read whole:
    one :data:`_ODD_LINE` search, then a split on each side of its first
    ``edge``.  Any other file, and a plain file that fails a check, goes to
    :func:`_parse_lines`, which gives the same graph or names its first bad line.
    """
    if _ODD_LINE.search("\n" + text):
        return _parse_lines(text)
    # No space follows a vertex name, so the first "edge " starts the edge lines.
    head, _, tail = text.partition("edge ")
    vertices = head.split()[1::2]
    words = tail.split()
    names, srcs, dsts = words[0::4], words[1::4], words[2::4]
    declared = set(vertices)
    valid = (
        "\nvertex " not in tail  # no vertex line after an edge line
        and len(declared) == len(vertices)
        and len(set(names)) == len(names)
        and declared.issuperset(srcs)
        and declared.issuperset(dsts)
    )
    if not valid:
        return _parse_lines(text)
    # tuple.__new__ skips Edge.__new__, a Python-level call per edge.
    edges = map(tuple.__new__, repeat(Edge), zip(names, srcs, dsts))
    return DirectedGraph(tuple(vertices), tuple(edges))


def _parse_lines(text: str) -> DirectedGraph:
    """:func:`parse_graph` one line at a time through :class:`_Builder`,
    raising :class:`GraphParseError` at the first bad line."""
    builder = _Builder()
    for line_no, raw in enumerate(text.splitlines(), start=1):
        parts = raw.split()
        if not parts or parts[0].startswith("#"):
            continue
        if parts[0] == "vertex":
            if len(parts) != 2:
                raise GraphParseError(line_no, "expected: vertex NAME")
            declare, item = builder.vertex, parts[1]
        elif parts[0] == "edge":
            if len(parts) != 4:
                raise GraphParseError(line_no, "expected: edge NAME SRC DST")
            declare, item = builder.edge, Edge(*parts[1:])
        else:
            raise GraphParseError(line_no, f"unknown directive {parts[0]!r}")
        try:
            declare(item)
        except GraphError as err:
            raise GraphParseError(line_no, str(err)) from None
    return builder.build()


def reaches(g: DirectedGraph, v1: str, v2: str) -> bool:
    """True iff there is a path from ``v1`` to ``v2`` (trivial paths count,
    so ``reaches(g, v, v)`` always holds)."""
    g.check_vertex(v1)
    g.check_vertex(v2)
    return bool(g.condensation[1][g.vertex_index[v1]] >> g.vertex_index[v2] & 1)


def index_relative(g: DirectedGraph, v: str, H) -> int:
    """Number of edges out of ``v`` whose range escapes the vertex set ``H``."""
    g.check_vertex(v)
    members = frozenset(H)
    if not members <= g.vertex_set:  # name the least unknown vertex, whatever the hash seed
        g.check_vertex(min(members - g.vertex_set))
    return sum(1 for e in g.out_edges[v] if e.dst not in members)


def hereditary_subsets(g: DirectedGraph, cap: int | None = None) -> tuple[int, ...]:
    """All hereditary vertex subsets as int masks over the sorted vertex
    names, the first name on the top bit, sorted by (size, mask descending):
    the order of (size, sorted names).  With a ``cap``, only ``cap + 1`` of
    them once more than ``cap`` exist.

    The hereditary sets are the unions of the condensation's reach masks,
    each distinct one moved to the name bits first and then grown one at a
    time: one union per set found and mask."""
    if len(g.vertices) > 20:
        raise LimitError("exhaustive hereditary enumeration capped at 20 vertices")
    rank = {v: k for k, v in enumerate(sorted(g.vertices))}
    bits = [1 << len(rank) - 1 - rank[v] for v in g.vertices]  # by vertex_index
    found = {0}
    for r in set(g.condensation[1]):
        r = sum(b for i, b in enumerate(bits) if r >> i & 1)
        found |= {h | r for h in found}
        if cap is not None and len(found) > cap:
            found = set(islice(found, cap + 1))
            break
    return tuple(sorted(found, key=lambda h: (h.bit_count(), -h)))


def is_acyclic(g: DirectedGraph) -> bool:
    """True iff the graph has no directed cycle (a loop is one): every
    strongly connected component is one vertex and no edge is a loop."""
    return len(g.condensation[0]) == len(g.vertices) and all(e.src != e.dst for e in g.edges)


def enumerate_cycles(g: DirectedGraph) -> tuple[Cycle, ...]:
    """All simple cycles (pairwise distinct edge sources), one canonical
    representative per rotation class, sorted by (length, edge names).

    Johnson's outer loop (D. B. Johnson, SIAM J. Comput. 4(1), 1975): each
    strong component that holds a cycle (two or more vertices, or a loop)
    is walked from its least vertex name, the base, through its own
    vertices only, so each cycle is found from its smallest source, already
    canonically rotated.  The component less its base is then split into
    strong components again, so a walk never runs along a path that cannot
    close: a long ring costs two passes, not one walk per vertex.  The walk
    keeps an explicit stack of out-edge iterators, one per vertex on the
    path, so long cycles cannot exhaust the interpreter's recursion limit.
    """
    if not g.edges:
        return ()
    succ, names = g.successors, g.vertices
    out = [g.out_edges[v] for v in names]
    found: list[Cycle] = []
    todo = strong_components(succ)
    while todo:
        members = todo.pop()
        base = min(members, key=names.__getitem__)
        if len(members) == 1 and base not in succ[base]:
            continue
        free = set(members)  # the component's vertices off the path
        free.remove(base)
        path: list[Edge] = []
        stack = [iter(zip(out[base], succ[base]))]
        while stack:
            for e, w in stack[-1]:
                if w == base:
                    edges, sources, _ = zip(*path, e)
                    found.append(Cycle(edges, sources))
                elif w in free:
                    free.remove(w)
                    path.append(e)
                    stack.append(iter(zip(out[w], succ[w])))
                    break
            else:
                stack.pop()
                if path:
                    free.add(g.vertex_index[path.pop().dst])
        rest = [v for v in members if v != base]
        if len(rest) > 1:
            local = {v: i for i, v in enumerate(rest)}
            sub = [[local[w] for w in succ[v] if w in local] for v in rest]
            todo += ([rest[i] for i in comp] for comp in strong_components(sub))
        elif rest:  # one vertex is its own component
            todo.append(rest)
    return tuple(sorted(found, key=Cycle.sort_key))


def forked_vertices(g: DirectedGraph) -> frozenset[str]:
    """Vertices with two distinct out-edges e, f such that no other
    out-edge's range reaches r(e), and likewise for r(f).

    Each range is in its own reach mask, so another out-edge's range
    reaches r(e) iff r(e)'s bit is in at least two of the masks (parallel
    edges put their common range there too)."""
    forked: set[str] = set()
    for v, out in zip(g.vertices, g.successors):
        if len(out) < 2:  # the condensation is built only past this test
            continue
        reach = g.condensation[1]
        ends = once = twice = 0
        for w in out:
            ends |= 1 << w
            twice |= once & reach[w]
            once |= reach[w]
        if (ends & ~twice).bit_count() > 1:
            forked.add(v)
    return frozenset(forked)


@dataclass(frozen=True)
class ConnectivityReport:
    weak_components: tuple[tuple[str, ...], ...]
    is_weakly_connected: bool
    is_unilaterally_connected: bool
    is_strongly_connected: bool


def connectivity_report(g: DirectedGraph) -> ConnectivityReport:
    """Weak components (:attr:`DirectedGraph.weak_components`) and the
    weak/unilateral/strong connectivity flags.

    b reaches a iff reach(a) ⊆ reach(b), so the graph is unilateral iff
    its reach masks form a chain under inclusion (each inside the next
    once sorted by size), and strong iff it has at most one strong component."""
    masks = sorted(g.condensation[1], key=int.bit_count)
    return ConnectivityReport(
        weak_components=g.weak_components,
        is_weakly_connected=len(g.weak_components) <= 1,
        is_unilaterally_connected=all(a & ~b == 0 for a, b in zip(masks, masks[1:])),
        is_strongly_connected=len(g.condensation[0]) <= 1,
    )


def weak_component_subgraphs(g: DirectedGraph) -> tuple[DirectedGraph, ...]:
    """One subgraph per weak component, preserving declaration order: a
    weakly connected graph is its own one part, and the empty graph has none."""
    if len(g.weak_components) == 1:  # g itself keeps its memoised data
        return (g,)
    out = []
    for members in map(set, g.weak_components):
        vs = tuple(v for v in g.vertices if v in members)
        out.append(DirectedGraph(vs, tuple(e for e in g.edges if e.src in members)))
    return tuple(out)
