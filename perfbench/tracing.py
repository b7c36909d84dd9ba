"""Per-layer tracing of gislat from outside the program.

The tracer replaces the public functions at each layer boundary with
wrappers, in every gislat module that holds a reference to them (``cli``
imports names at import time, so patching the defining module alone would
miss its calls).  Three kinds of wrapper:

* span: one record per call (name, start, end, parent), kept in memory.
  Its self time is its duration minus the spans and callbacks inside it.
* callback: a function called once per element pair, such as
  ``triples.leq`` inside ``from_poset``.  Only a call count and summed
  time are kept, and that time is taken out of the enclosing span's self
  time.
* observe: no timing, only a look at the result (``oracle._closure``, to
  tell new congruences from principal ones).

Wrapped calls made inside a callback pass straight through, so the cost
of tracing stays bounded on the hot paths.
"""

from __future__ import annotations

import time
from collections import Counter, defaultdict

perf = time.perf_counter


class Tracer:
    """Spans, busy seconds per wrapped name, and counts, for one pass."""

    def __init__(self) -> None:
        self.spans: list[tuple[int, str, float, float, int | None]] = []
        self.busy: defaultdict[str, float] = defaultdict(float)
        self.counts: Counter[str] = Counter()
        self._stack: list[list] = []  # open spans: [id, start, inner seconds]
        self._next_id = 0
        self._in_callback = False
        self._principals: set = set()
        self._patches: list[tuple[object, str, object]] = []

    # ---------------------------------------------------------- wrappers

    def span(self, name: str, fn, after=None):
        stack = self._stack
        cached = hasattr(fn, "cache_info")

        def wrapper(*args, **kwargs):
            if self._in_callback:
                return fn(*args, **kwargs)
            sid = self._next_id
            self._next_id += 1
            parent = stack[-1][0] if stack else None
            misses = fn.cache_info().misses if cached else 0
            frame = [sid, perf(), 0.0]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf()
                stack.pop()
                duration = end - frame[1]
                self.busy[name] += duration - frame[2]
                if stack:
                    stack[-1][2] += duration
                self.spans.append((sid, name, frame[1], end, parent))
            # A cached function did work only when it missed its cache.
            if after is not None and (not cached or fn.cache_info().misses > misses):
                after(self, result, args)
            return result

        return wrapper

    def callback(self, name: str, fn):
        stack = self._stack

        def wrapper(*args, **kwargs):
            if self._in_callback:
                return fn(*args, **kwargs)
            self._in_callback = True
            start = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = perf() - start
                self._in_callback = False
                self.busy[name] += duration
                self.counts[name] += 1
                if stack:
                    stack[-1][2] += duration

        return wrapper

    def observe(self, fn, after):
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            if not self._in_callback:
                after(self, result, args)
            return result

        return wrapper

    # ---------------------------------------------------------- patching

    def install(self, modules: dict) -> None:
        """Patch every boundary listed in ``BOUNDARIES`` into ``modules``
        (name -> module object, all gislat modules)."""
        for layer, attr, kind, after in BOUNDARIES:
            owner_name, _, member = attr.partition(".")
            owner = modules[f"gislat.{layer}"]
            if member:  # a method: patch the class attribute
                cls = getattr(owner, owner_name)
                original = vars(cls)[member]
                self._patch(cls, member, self._wrap(f"{layer}.{member}", original, kind, after))
                continue
            original = getattr(owner, attr)
            wrapper = self._wrap(f"{layer}.{attr.lstrip('_')}", original, kind, after)
            for module in modules.values():
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, key, wrapper)

    def uninstall(self) -> None:
        for target, key, original in reversed(self._patches):
            setattr(target, key, original)
        self._patches.clear()

    def _patch(self, target, key, wrapper) -> None:
        self._patches.append((target, key, vars(target)[key]))
        setattr(target, key, wrapper)

    def _wrap(self, name, fn, kind, after):
        if kind == "span":
            return self.span(name, fn, after)
        if kind == "callback":
            return self.callback(name, fn)
        return self.observe(fn, after)


# ---------------------------------------------------------------- hooks


def _cycles(t: Tracer, result, args) -> None:
    t.counts["graph.cycles_n"] += len(result)


def _hereditary(t: Tracer, result, args) -> None:
    t.counts["graph.hereditary_n"] += len(result)
    t.counts["graph.hereditary_masks"] += 1 << len(args[0].vertices)


def _triples(t: Tracer, result, args) -> None:
    t.counts["triples.n"] += len(result)


def _from_poset(t: Tracer, result, args) -> None:
    t.counts["lattice.from_poset_n"] += len(result)
    t.counts["lattice.covers_n"] += len(result.cover_set)


def _semigroup(t: Tracer, result, args) -> None:
    t.counts["semigroup.size"] += len(result)
    t.counts["semigroup.table_cells"] += len(result) ** 2


def _principal(t: Tracer, result, args) -> None:
    t._principals.add(result)


def _congruences(t: Tracer, result, args) -> None:
    n = len(args[0])
    t.counts["oracle.enumerate_calls"] += 1
    t.counts["oracle.principal_pairs"] += n * (n - 1) // 2
    t.counts["oracle.congruences_n"] += len(result)
    # Every congruence is the identity, a principal one, or new from a join.
    t.counts["oracle.join_new"] += len(result) - 1 - len(t._principals)
    t._principals.clear()


# (layer, attribute, kind, hook).  These are the public functions the CLI
# reaches in each layer, plus the per-element callbacks; rendering helpers
# (render_triple, triple_to_json, render_element) stay unwrapped and count
# as CLI self time, as text and JSON rendering.
BOUNDARIES = (
    ("graph", "parse_graph", "span", None),
    ("graph", "enumerate_cycles", "span", _cycles),
    ("graph", "hereditary_subsets", "span", _hereditary),
    ("graph", "forked_vertices", "span", None),
    ("graph", "connectivity_report", "span", None),
    ("triples", "enumerate_triples", "span", _triples),
    ("triples", "divisors", "span", None),
    ("triples", "triple_lattice", "span", None),
    ("triples", "leq", "callback", None),
    ("lattice", "from_poset", "span", _from_poset),
    ("lattice", "is_distributive", "span", None),
    ("lattice", "is_modular", "span", None),
    ("lattice", "is_lower_semimodular", "span", None),
    ("lattice", "is_upper_semimodular", "span", None),
    ("lattice", "find_pentagon", "span", None),
    ("lattice", "find_diamond", "span", None),
    ("lattice", "order_isomorphic", "span", None),
    ("lattice", "hasse_dot", "span", None),
    ("semigroup", "finite_semigroup", "span", _semigroup),
    ("oracle", "enumerate_congruences", "span", _congruences),
    ("oracle", "congruence_lattice", "span", None),
    ("oracle", "join_congruences", "callback", None),
    ("oracle", "Congruence.refines", "callback", None),
    ("oracle", "_closure", "observe", _principal),
    ("cli", "main", "span", None),
)

LAYERS = ("graph", "triples", "lattice", "semigroup", "oracle", "cli")


def layer_metrics(t: Tracer) -> dict[str, float]:
    """The per-layer metrics of one traced pass."""
    b, c = t.busy, t.counts
    m: dict[str, float] = {
        "graph.parse_s": b["graph.parse_graph"],
        "graph.cycles_s": b["graph.enumerate_cycles"],
        "graph.cycles_n": c["graph.cycles_n"],
        "graph.hereditary_s": b["graph.hereditary_subsets"],
        "graph.hereditary_n": c["graph.hereditary_n"],
        "graph.hereditary_masks": c["graph.hereditary_masks"],
        "graph.hereditary_yield": _ratio(c["graph.hereditary_n"], c["graph.hereditary_masks"]),
        "graph.forked_s": b["graph.forked_vertices"],
        "graph.connectivity_s": b["graph.connectivity_report"],
        "triples.enumerate_s": b["triples.enumerate_triples"],
        "triples.n": c["triples.n"],
        "triples.leq_calls": c["triples.leq"],
        "triples.leq_s": b["triples.leq"],
        "triples.divisors_s": b["triples.divisors"],
        "triples.lattice_s": b["triples.triple_lattice"],
        "lattice.from_poset_s": b["lattice.from_poset"],
        "lattice.from_poset_n": c["lattice.from_poset_n"],
        "lattice.distributive_s": b["lattice.is_distributive"],
        "lattice.modular_s": b["lattice.is_modular"],
        "lattice.lower_semimodular_s": b["lattice.is_lower_semimodular"],
        "lattice.upper_semimodular_s": b["lattice.is_upper_semimodular"],
        "lattice.witness_s": b["lattice.find_pentagon"] + b["lattice.find_diamond"],
        "lattice.covers_n": c["lattice.covers_n"],
        "lattice.iso_s": b["lattice.order_isomorphic"],
        "lattice.dot_s": b["lattice.hasse_dot"],
        "semigroup.build_s": b["semigroup.finite_semigroup"],
        "semigroup.size": c["semigroup.size"],
        "semigroup.table_cells": c["semigroup.table_cells"],
        "oracle.enumerate_s": b["oracle.enumerate_congruences"],
        "oracle.enumerate_calls": c["oracle.enumerate_calls"],
        "oracle.principal_pairs": c["oracle.principal_pairs"],
        "oracle.join_calls": c["oracle.join_congruences"],
        "oracle.join_s": b["oracle.join_congruences"],
        "oracle.join_yield": _ratio(c["oracle.join_new"], c["oracle.join_congruences"]),
        "oracle.congruences_n": c["oracle.congruences_n"],
        "oracle.lattice_s": b["oracle.congruence_lattice"],
    }
    # Self time of each layer; for cli that is main minus its child spans.
    for layer in LAYERS:
        m[f"{layer}.self_s"] = sum(v for k, v in b.items() if k.startswith(layer + "."))
    return m


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0
