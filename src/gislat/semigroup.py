"""Elements of the graph inverse semigroup and exact multiplication.

Every nonzero element has a unique normal form ``alpha . beta*`` where
``alpha`` and ``beta`` are paths with the same range vertex.  The product
of two normal forms either extends one side's path along the other's
(when one middle path is a prefix of the other) or annihilates to zero.
Enumeration of the full semigroup is only possible for acyclic graphs,
where the path set is finite.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .graph import DirectedGraph, LimitError, is_acyclic


class CyclicGraphError(LimitError):
    """The requested enumeration is infinite because the graph has cycles."""


@dataclass(frozen=True)
class Path:
    """A directed path: possibly empty edge-name sequence with endpoints.

    An empty edge sequence is the trivial path at a vertex, in which case
    source and range coincide.
    """

    source: str
    range: str
    edges: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if not self.edges and self.source != self.range:
            raise ValueError("trivial path must start and end at the same vertex")

    @property
    def is_trivial(self) -> bool:
        return not self.edges


def trivial_path(v: str) -> Path:
    return Path(v, v)


def path_from_edges(g: DirectedGraph, names) -> Path:
    """Build a validated nontrivial path from consecutive edge names."""
    names = tuple(names)
    if not names:
        raise ValueError("use trivial_path for empty paths")
    by_name = {e.name: e for e in g.edges}
    try:
        edges = [by_name[n] for n in names]
    except KeyError as err:
        raise ValueError(f"unknown edge {err.args[0]!r}") from None
    for a, b in zip(edges, edges[1:]):
        if a.dst != b.src:
            raise ValueError(f"edges {a.name!r} and {b.name!r} do not compose")
    return Path(edges[0].src, edges[-1].dst, names)


def concat(p: Path, q: Path) -> Path:
    if p.range != q.source:
        raise ValueError("paths do not compose")
    return Path(p.source, q.range, p.edges + q.edges)


def path_key(g: DirectedGraph, p: Path) -> tuple:
    """Deterministic sort key: (length, edge names, source declaration order)."""
    return (len(p.edges), p.edges, g.vertex_index[p.source])


@dataclass(frozen=True)
class Zero:
    """The absorbing zero element."""


@dataclass(frozen=True)
class NormalForm:
    """A nonzero element ``alpha . beta*``; both paths share their range."""

    alpha: Path
    beta: Path

    def __post_init__(self) -> None:
        if self.alpha.range != self.beta.range:
            raise ValueError("normal form requires matching path ranges")


Element = Zero | NormalForm

ZERO = Zero()


def vertex_element(v: str) -> NormalForm:
    return NormalForm(trivial_path(v), trivial_path(v))


def edge_element(g: DirectedGraph, name: str) -> NormalForm:
    p = path_from_edges(g, [name])
    return NormalForm(p, trivial_path(p.range))


def _split_off(prefix: Path, whole: Path) -> Path | None:
    """The path xi with ``whole == prefix . xi``, or None if ``prefix`` is
    not an initial segment of ``whole`` (trivial xi included)."""
    if prefix.source != whole.source:
        return None
    k = len(prefix.edges)
    if whole.edges[:k] != prefix.edges:
        return None
    return Path(prefix.range, whole.range, whole.edges[k:])


def multiply(x: Element, y: Element) -> Element:
    """The semigroup product; zero absorbs."""
    if isinstance(x, Zero) or isinstance(y, Zero):
        return ZERO
    alpha, beta = x.alpha, x.beta
    zeta, eta = y.alpha, y.beta
    xi = _split_off(beta, zeta)
    if xi is not None:
        return NormalForm(concat(alpha, xi), eta)
    xi = _split_off(zeta, beta)
    if xi is not None:
        return NormalForm(alpha, concat(eta, xi))
    return ZERO


def inverse_of(x: Element) -> Element:
    """Zero maps to zero; ``alpha . beta*`` to ``beta . alpha*``."""
    if isinstance(x, Zero):
        return ZERO
    return NormalForm(x.beta, x.alpha)


def enumerate_paths(g: DirectedGraph) -> tuple[Path, ...]:
    """All paths of an acyclic graph, one trivial path per vertex included,
    sorted by (length, edge names, source declaration order)."""
    if not is_acyclic(g):
        raise CyclicGraphError("path set is infinite: graph has cycles")
    acc = [trivial_path(v) for v in g.vertices]
    for p in acc:  # the list grows as it is read, so each path is extended once
        acc.extend(Path(p.source, e.dst, p.edges + (e.name,)) for e in g.out_edges[p.range])
    return tuple(sorted(acc, key=lambda p: path_key(g, p)))


def semigroup_size(g: DirectedGraph) -> int:
    """|S| without enumerating S: zero plus, for each vertex v, one element
    per pair of paths ending at v.  The path counts come from one pass in
    topological order: the condensation's components, in reverse."""
    if not is_acyclic(g):
        raise CyclicGraphError("path set is infinite: graph has cycles")
    ending = dict.fromkeys(g.vertices, 1)  # the trivial path
    for v in reversed(g.condensation[0]):
        for e in g.out_edges[v]:
            ending[e.dst] += ending[v]
    return 1 + sum(k * k for k in ending.values())


def _listing(g: DirectedGraph):
    """The elements, the paths (:func:`enumerate_paths`) and each nonzero
    element's (alpha, beta) path indices.  Zero comes first, then every pair
    of paths with a common range, by total length, then alpha, then beta:
    the paths come in :func:`path_key` order, so their indices do too."""
    paths = enumerate_paths(g)
    by_range: dict[str, list[int]] = {}
    for i, p in enumerate(paths):
        by_range.setdefault(p.range, []).append(i)
    length = [len(p.edges) for p in paths]
    pairs = sorted(
        ((a, b) for group in by_range.values() for a in group for b in group),
        key=lambda ab: (length[ab[0]] + length[ab[1]], ab),
    )
    return (ZERO, *(NormalForm(paths[a], paths[b]) for a, b in pairs)), paths, pairs


def enumerate_elements(g: DirectedGraph) -> tuple[Element, ...]:
    """Zero plus every normal-form pair of paths with a common range."""
    return _listing(g)[0]


class FiniteSemigroup:
    """Enumerated element list plus the full multiplication table.

    ``table[i, j]`` is the index of the product of elements i and j: a
    read-only, C-contiguous int32 array of shape (|S|, |S|).
    """

    def __init__(self, graph: DirectedGraph) -> None:
        self.graph = graph
        self.elements, paths, pairs = _listing(graph)
        self._index = {x: i for i, x in enumerate(self.elements)}
        self.table = self._table(paths, pairs)
        self.table.flags.writeable = False

    def _table(self, paths, pairs) -> np.ndarray:
        """:func:`multiply` on the indices of ``paths``, the nonzero elements
        being the path pairs ``pairs`` (as :func:`_listing` gives them).  With
        index P for "none", ``rest[b, c]`` is the xi with c = b.xi,
        ``cat[a, xi]`` the path a.xi and ``pair[a, b]`` the element a.b* (0
        for none).  So (a.b*)(c.d*) is ``pair[cat[a, rest[b, c]], d]`` when
        b is a prefix of c, ``pair[a, cat[d, rest[c, b]]]`` when c is a
        prefix of b, and 0 otherwise: the larger of the two, which agree when
        b == c."""
        p, n = len(paths), len(self.elements)
        index = {q: i for i, q in enumerate(paths)}
        by_source: dict[str, list[int]] = {}
        for i, q in enumerate(paths):
            by_source.setdefault(q.source, []).append(i)
        splits = [
            (b, c, index[xi])
            for group in by_source.values()
            for b in group
            for c in group
            if (xi := _split_off(paths[b], paths[c])) is not None
        ]
        rest, cat, pair = (np.full((p + 1, p + 1), fill, np.int32) for fill in (p, p, 0))
        b, c, xi = np.array(splits, np.int32).reshape(-1, 3).T
        rest[b, c] = xi
        cat[b, xi] = c
        alpha, beta = np.array(pairs, np.int32).reshape(-1, 2).T
        pair[alpha, beta] = np.arange(1, n)
        a, b = alpha[:, None], beta[:, None]  # the left factor, down the rows
        out = np.zeros((n, n), np.int32)
        out[1:, 1:] = pair[cat[a, rest[b, alpha]], beta]
        np.maximum(out[1:, 1:], pair[a, cat[beta, rest[alpha, b]]], out=out[1:, 1:])
        return out

    def __len__(self) -> int:
        return len(self.elements)

    @cached_property
    def generators(self) -> tuple[int, ...]:
        """Indices of the vertices, then of each edge and its ghost: every
        nonzero element is a product of these, and zero absorbs."""
        g = self.graph
        gens = [self._index[vertex_element(v)] for v in g.vertices]
        for e in g.edges:
            x = edge_element(g, e.name)
            gens += (self._index[x], self._index[inverse_of(x)])
        return tuple(gens)

    def element_index(self, x: Element) -> int:
        try:
            return self._index[x]
        except KeyError:
            raise ValueError(f"element {render_element(x)!r} not in semigroup") from None


def finite_semigroup(g: DirectedGraph) -> FiniteSemigroup:
    return FiniteSemigroup(g)


def render_path(p: Path) -> str:
    return p.source if p.is_trivial else ".".join(p.edges)


def render_element(x: Element) -> str:
    """``0`` for zero, otherwise ``alpha|beta`` with trivial paths shown
    by their vertex name and nontrivial ones by dot-joined edge names."""
    if isinstance(x, Zero):
        return "0"
    return f"{render_path(x.alpha)}|{render_path(x.beta)}"
