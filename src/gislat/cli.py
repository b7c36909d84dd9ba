"""Command line interface.

Subcommands: ``forked``, ``classify``, ``lattice``, ``semigroup``,
``oracle``.  Exit codes: 0 ok, 1 input error (or output that cannot be
written), 2 infinite-structure error (cyclic graph without a bound, or a
bound, semigroup or graph past a brute-force cap: every such refusal is a
:class:`~gislat.graph.LimitError`, caught in :func:`main` alone), 3
internal consistency violation (a predicted/computed, verdict/witness or
oracle mismatch, or an order that is no lattice, which would mean a bug).

A plain argv, a command and then one graph file and that command's exact
option strings with their values, is read off the command table; any
other, help and usage errors included, goes to the full argparse parser.

JSON output (``--json``: ``json.dumps``'s indented bytes, from one writer
that fills templates for int tables and triples) is the stable machine
interface; the plain-text output is for humans and carries no stability guarantee.

``classify --enumerate`` and ``lattice`` build one lattice per weak
component and answer for their product (the whole triple lattice) with
the same bytes: its size, verdicts, witness, triples and cover pairs are
read off the factors.  ``oracle`` builds the whole lattice, the
independent check on the brute-force congruences.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from json.encoder import encode_basestring_ascii as _quote
from pathlib import Path

import numpy as np

from .graph import (
    GraphError, LimitError, connectivity_report, forked_vertices, is_acyclic, parse_graph
)
from .lattice import (
    NotALatticeError, hasse_dot, order_isomorphic, product_covers, product_verdicts,
    product_witness,
)
from .oracle import ORACLE_CAP, check_semigroup_size, congruence_lattice
from .semigroup import finite_semigroup, render_element, semigroup_size
from .triples import component_lattices, product_coordinates, render_triple, triple_lattice

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_INFINITE = 2
EXIT_INTERNAL = 3

# `semigroup` prints an |S|² Cayley table: 2000 elements are 4M cells.
SEMIGROUP_CAP = 2000


class _CliError(Exception):
    def __init__(self, code: int, message: str) -> None:
        super().__init__(message)
        self.code = code


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on usage errors by default; keep 1 = input error.
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_INPUT, f"{self.prog}: error: {message}\n")


def _load(path: str):
    # Bytes decoded once, untranslated: parse_graph takes \r\n and \r as
    # line ends.  A leading byte order mark is dropped.
    try:
        with open(path, "rb") as f:
            text = f.read().decode("utf-8-sig")
    except (OSError, UnicodeDecodeError) as err:
        raise _CliError(EXIT_INPUT, f"cannot read {path}: {err}") from None
    try:
        return parse_graph(text)
    except GraphError as err:
        raise _CliError(EXIT_INPUT, f"{path}: {err}") from None


_LITERALS = {None: "null", True: "true", False: "false"}


def _json(x, pad: str = "") -> str:
    """``json.dumps(x, indent=2, sort_keys=True)`` at indent ``pad``: the
    same bytes, but lists of ints or strings are joined at C speed, where an
    indent sends ``json`` to its pure-Python encoder item by item, and a 2-D
    int array fills one ``%`` template.  A callable gives its own text at
    ``pad``."""
    t = type(x)
    if t is np.ndarray:  # rows of ints: one template over the flattened cells
        row = _listing(["%d"] * x.shape[1], pad + "  ")
        return _listing([row] * len(x), pad) % tuple(x.ravel().tolist()) if x.size else "[]"
    if t is list or t is tuple:
        if not x:
            return "[]"
        if all(type(v) is int for v in x):
            return _listing(map(int.__repr__, x), pad)
        if all(type(v) is str for v in x):
            return _listing(map(_quote, x), pad)
        return _listing([_json(v, pad + "  ") for v in x], pad)
    if t is dict and all(type(k) is str for k in x):
        if not x:
            return "{}"
        inner = pad + "  "
        items = [_quote(k) + ": " + _json(v, inner) for k, v in sorted(x.items())]
        return "{\n" + inner + (",\n" + inner).join(items) + "\n" + pad + "}"
    if t is str:
        return _quote(x)
    if t is int:
        return int.__repr__(x)
    if x is None or t is bool:
        return _LITERALS[x]
    if callable(x):
        return x(pad)
    # Floats and the rest: json itself, its newlines re-indented.
    return json.dumps(x, indent=2, sort_keys=True).replace("\n", "\n" + pad)


def _listing(items, pad: str) -> str:
    """A JSON list of the rendered ``items`` (at least one) at indent ``pad``."""
    inner = pad + "  "
    return "[\n" + inner + (",\n" + inner).join(items) + "\n" + pad + "]"


def _emit(args, payload, text) -> None:
    """Print ``payload()`` as JSON or the lines of ``text()`` (nothing for
    no lines), building only one, in one ``print``; a failed write (a closed
    pipe, a full disk) is an input error."""
    try:
        lines = [_json(payload())] if args.json else list(text())
        if lines:
            # print writes the last newline apart: with an unbuffered stdout
            # (python -u) a cut-short write of the text passes unreported,
            # but that newline then fails.
            print("\n".join(lines))
        sys.stdout.flush()
    except OSError as err:
        # Whatever stays buffered goes to devnull, so the interpreter's last
        # flush cannot fail again, whichever error this was.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        raise _CliError(EXIT_INPUT, f"cannot write output: {err}") from None


def _graph_summary(g) -> dict:
    rep = connectivity_report(g)
    return {
        "vertices": len(g.vertices),
        "edges": len(g.edges),
        "acyclic": is_acyclic(g),
        "weak_components": len(rep.weak_components),
        "weakly_connected": rep.is_weakly_connected,
        "unilaterally_connected": rep.is_unilaterally_connected,
        "strongly_connected": rep.is_strongly_connected,
        "max_out_degree": max(map(len, g.successors), default=0),
    }


def _enumerated(g, bound, listed: bool = False):
    """Size, probe flag, verdicts, witness, triples (``triple_lattice`` order,
    as :class:`~gislat.triples.TripleRows`, which build only the triples read
    from them) and cover pairs (when ``listed``) of the triple lattice of
    ``g``, or a bounded probe of a cyclic graph's, read off its weak
    components' factors (``bound`` is ignored if ``g`` is acyclic)."""
    factors = component_lattices(g, bound)
    verdicts, rows, coords, covers = product_verdicts(factors), (), None, None
    distributive = verdicts["distributive"]
    if listed or not distributive:
        rows, coords = product_coordinates(factors)
    if listed:
        covers = product_covers(factors, coords)
    witness = product_witness(factors, coords, verdicts)
    if (witness is None) != distributive:
        raise _CliError(EXIT_INTERNAL, "inconsistent verdicts or witness (bug)")
    return math.prod(len(f) for f in factors), not is_acyclic(g), verdicts, witness, rows, covers


def _flags(d: dict) -> str:
    return " ".join(f"{k}={'yes' if v else 'no'}" for k, v in d.items())


def cmd_forked(args) -> int:
    g = _load(args.graph_file)
    names = sorted(forked_vertices(g))
    _emit(args, lambda: {"forked_vertices": names}, lambda: names)
    return EXIT_OK


def _agreement(predicted: dict, computed: dict, bounded: bool):
    """Whether the computed verdicts agree with the prediction: `classify`
    reports None when it enumerates nothing.  Exact lattices must match
    the forked-vertex prediction outright.  A bounded probe only certifies
    failures: a pentagon or diamond in a sublattice is one in the full
    lattice, but their absence proves nothing, so a distributive probe
    under a non-distributive prediction is "inconclusive" rather than a
    violation."""
    if not bounded or predicted["distributive"]:
        return computed == predicted
    return True if not computed["distributive"] else "inconclusive"


def cmd_classify(args) -> int:
    g = _load(args.graph_file)
    forked = sorted(forked_vertices(g))
    predicted = dict.fromkeys(("distributive", "modular", "lower_semimodular"), not forked)
    predicted["upper_semimodular"] = True
    summary = _graph_summary(g)
    # The enumeration's answers, None unless --enumerate fills them in.
    size = computed = bounded = witness = agreement = None
    if args.enumerate:
        size, bounded, computed, w, labels, _ = _enumerated(g, args.bound)
        agreement = _agreement(predicted, computed, bounded)
        if w is not None:
            witness = {"kind": w.kind, "members": [render_triple(labels[i]) for i in w.members]}

    def text():
        yield (f"graph: {summary['vertices']} vertices, {summary['edges']} edges, "
               f"{'acyclic' if summary['acyclic'] else 'cyclic'}, "
               f"{summary['weak_components']} weak component(s)")
        yield f"forked vertices: {' '.join(forked) if forked else '(none)'}"
        yield f"predicted: {_flags(predicted)}"
        if args.enumerate:
            kind = f"bounded probe (bound {args.bound})" if bounded else "exact lattice"
            yield f"computed ({kind}, {size} elements): {_flags(computed)}"
            if witness is not None:
                yield f"witness: {witness['kind']} " + " ".join(witness["members"])
            yield "agreement: " + {True: "yes", False: "VIOLATION"}.get(agreement, agreement)

    _emit(args, lambda: dict(
        graph=summary, forked_vertices=forked, predicted=predicted, computed=computed,
        lattice_size=size, bounded=bounded, witness=witness, agreement=agreement), text)
    return EXIT_INTERNAL if agreement is False else EXIT_OK


def cmd_lattice(args) -> int:
    g = _load(args.graph_file)
    size, bounded, verdicts, _, rows, covers = _enumerated(g, args.bound, listed=True)
    labels = () if args.json and not args.dot else rows.render()  # render_triple's text
    if args.dot:
        try:
            Path(args.dot).write_text(hasse_dot(labels, covers), encoding="utf-8")
        except OSError as err:
            raise _CliError(EXIT_INPUT, f"cannot write {args.dot}: {err}") from None
    pairs = np.transpose(covers)  # [lower, upper], sorted

    def text():
        yield f"{size} elements:"
        yield from map("  [%d] %s".__mod__, enumerate(labels))
        # the count, then the pair lines from one template over the flattened pairs
        lines = "".join(["\n  [%d] < [%d]"] * len(pairs)) % tuple(pairs.ravel().tolist())
        yield f"{len(pairs)} cover pairs:" + lines
        yield f"verdicts: {_flags(verdicts)}" + (" (bounded probe)" if bounded else "")
        if args.dot:
            yield f"dot written to {args.dot}"

    _emit(args, lambda: {
        "elements": lambda pad: _listing(rows.render(pad), pad),
        "covers": pairs,
        "verdicts": verdicts, "bounded": bounded,
    }, text)
    return EXIT_OK


def cmd_semigroup(args) -> int:
    g = _load(args.graph_file)
    size = semigroup_size(g)  # O(V + E), so the cap holds before the table is built
    if size > SEMIGROUP_CAP:
        raise LimitError(f"semigroup table capped at {SEMIGROUP_CAP} elements, got {size}")
    sem = finite_semigroup(g)
    rendered = [render_element(x) for x in sem.elements]

    def text():
        yield f"{len(sem)} elements:"
        yield from (f"  [{i}] {name}" for i, name in enumerate(rendered))
        yield "cayley table (indices):"
        row = "  [%d]" + " %d" * len(sem)  # the row's index, then its cells
        yield from (row % (i, *cells.tolist()) for i, cells in enumerate(sem.table))

    _emit(args, lambda: {"elements": rendered, "table": sem.table}, text)
    return EXIT_OK


def cmd_oracle(args) -> int:
    g = _load(args.graph_file)
    # Counted in O(V + E), so the cap holds before the |S|² table is built.
    check_semigroup_size(semigroup_size(g), args.cap)
    # The triple side first: its hereditary-set cap must stop a graph
    # before the brute force, which is exponential in the vertex count.
    ct_lat = triple_lattice(g)
    sem = finite_semigroup(g)
    cong_lat = congruence_lattice(sem, cap=args.cap)
    iso = order_isomorphic(ct_lat, cong_lat)  # False on a size mismatch too
    _emit(args, lambda: {
        "semigroup_size": len(sem), "congruences": len(cong_lat),
        "triples": len(ct_lat), "order_isomorphic": iso,
    }, lambda: [
        f"semigroup: {len(sem)} elements",
        f"congruences: {len(cong_lat)}",
        f"triples: {len(ct_lat)}",
        f"order isomorphic: {'yes' if iso else 'NO (violation)'}",
    ])
    return EXIT_OK if iso else EXIT_INTERNAL


def positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {value}")
    return value


_JSON = {"--json": dict(action="store_true", help="machine-readable output")}
# Each command's function, help line and options past graph_file.
_COMMANDS = {
    "forked": (cmd_forked, "list forked vertices", _JSON),
    "classify": (cmd_classify, "predict and optionally verify lattice verdicts", {**_JSON,
        "--enumerate": dict(action="store_true", help="build the lattice and cross-check"),
        "--bound": dict(type=positive_int, help="free-cycle value bound for cyclic graphs")}),
    "lattice": (cmd_lattice, "dump the congruence-triple lattice", {**_JSON,
        "--bound": dict(type=positive_int, help="free-cycle value bound for cyclic graphs"),
        "--dot": dict(metavar="PATH", help="write the Hasse diagram as DOT")}),
    "semigroup": (cmd_semigroup, "list elements and the multiplication table", _JSON),
    "oracle": (cmd_oracle, "brute-force congruences and compare with triples", {**_JSON,
        "--cap": dict(type=positive_int, default=ORACLE_CAP,
                      help="semigroup size cap (default %(default)s)")}),
}


def _command_parser(p: argparse.ArgumentParser, name: str) -> None:
    func, _, options = _COMMANDS[name]
    p.add_argument("graph_file", help="graph description file")
    for flag, kwargs in options.items():
        p.add_argument(flag, **kwargs)
    p.set_defaults(func=func)


def build_parser() -> argparse.ArgumentParser:
    """The full parser: the one source of help, usage and error bytes."""
    parser = _Parser(prog="gislat", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text, _) in _COMMANDS.items():
        _command_parser(sub.add_parser(name, help=help_text), name)
    return parser


def _plain(name: str, tokens) -> argparse.Namespace | None:
    """The namespace of command ``name`` and its ``tokens`` if they are
    plain (see :func:`parse_args`), else None."""
    func, _, options = _COMMANDS[name]
    args = {f[2:]: kw.get("default", False if "action" in kw else None) for f, kw in options.items()}
    args.update(command=name, graph_file=None, func=func)
    tokens = iter(tokens)
    for token in tokens:
        kw = options.get(token)
        if kw is None:
            if token.startswith("-") or args["graph_file"] is not None:
                return None
            args["graph_file"] = token
        elif "action" in kw:  # store_true
            args[token[2:]] = True
        else:
            value = next(tokens, "-")  # no value left reads as "-"
            if value.startswith("-"):
                return None
            try:
                args[token[2:]] = kw.get("type", str)(value)
            except (argparse.ArgumentTypeError, TypeError, ValueError):
                return None
    return argparse.Namespace(**args) if args["graph_file"] is not None else None


def parse_args(argv=None) -> argparse.Namespace:
    """``build_parser().parse_args(argv)`` (``sys.argv[1:]`` for None).  A
    plain argv is read off ``_COMMANDS`` with no parser built: a command
    name, then one graph file and the command's exact option strings, each
    value the next token, converted by the option's ``type``; only option
    strings start with ``-``.  Any other argv goes to the full parser."""
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _plain(argv[0], argv[1:]) if argv and argv[0] in _COMMANDS else None
    return build_parser().parse_args(argv) if args is None else args


def main(argv=None) -> int:
    """Run the command that ``argv`` (``sys.argv[1:]`` for None) names, as
    :func:`parse_args` reads it."""
    args = parse_args(argv)
    try:
        return args.func(args)
    except NotALatticeError as err:  # triples or congruences that are no lattice
        print(f"error: {err} (bug)", file=sys.stderr)
        return EXIT_INTERNAL
    except (LimitError, _CliError) as err:
        print(f"error: {err}", file=sys.stderr)
        return err.code if isinstance(err, _CliError) else EXIT_INFINITE


def main_entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    main_entry()
