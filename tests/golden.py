"""The answer contract as a manifest: every listed ``gislat`` command run
in-process, one line each with its argv, exit code and the sha256 (first
16 hex digits) of its stdout, its stderr and the DOT file it wrote ("-"
for none).

Graph files are named by a digest of their text and, like the DOT files,
written to relative paths under a temporary working directory, because
``dot written to <path>`` is part of the output.  So the manifest does not
depend on where it runs, nor on the hash seed.  The manifest covers the
cap-sized graphs too (:func:`scale_cases`), and ``tests/test_golden.py``
checks their answers as well, so a rewritten manifest cannot hide a wrong one.

    PYTHONPATH=src:tests python tests/golden.py          # compare with the manifest
    PYTHONPATH=src:tests python tests/golden.py --write  # rewrite it

A change to the manifest is a change to an answer, a refusal or an exit
code, and must be declared as such.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import sys
import tempfile
from pathlib import Path

from gislat.cli import main
from helpers import (
    acyclic_corpus,
    cyclic_corpus,
    graph_text,
    multi_component_corpus,
    product_corpus,
    small_semigroup_corpus,
)

MANIFEST = Path(__file__).with_name("golden_manifest.txt")


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def cases() -> list[tuple[str, list[str]]]:
    """(graph text, argv after the graph file) for every command listed."""
    from test_cli import REFUSALS

    enumerating = [(g, None) for g in acyclic_corpus() + multi_component_corpus()]
    enumerating += [(g, b) for b in (12, 60) for g in cyclic_corpus()]
    enumerating += list(product_corpus())
    out = []
    for g, bound in enumerating:
        flags = ["--bound", str(bound)] if bound else []
        for json_flag in ([], ["--json"]):
            out.append((graph_text(g), ["classify", "--enumerate", *flags, *json_flag]))
            out.append((graph_text(g), ["lattice", *flags, "--dot", "DOT", *json_flag]))
    for g in small_semigroup_corpus():
        out += [(graph_text(g), ["oracle"]), (graph_text(g), ["semigroup", "--json"])]
    for text, argv, _ in REFUSALS:
        out += [(text, argv.split()), (text, [*argv.split(), "--json"])]
    return out + scale_cases() + interleaved_cases() + two_word_cases() + semigroup_text_cases()


def _shape(n: int, pairs) -> str:
    """The graph file on vertices v0 .. v(n-1) with edge ek from vi to vj
    for the k-th pair (i, j)."""
    return "".join(f"vertex v{i}\n" for i in range(n)) + "".join(
        f"edge e{k} v{i} v{j}\n" for k, (i, j) in enumerate(pairs)
    )


def scale_cases() -> list[tuple[str, list[str]]]:
    """Commands at the caps: 4096- and 3584-element lattices, 2048 and
    4096 congruences, a 1786-element semigroup and files of 10000 lines."""
    path = {k: _shape(k, [(i, i + 1) for i in range(k - 1)]) for k in (5, 7, 12, 13, 17)}
    fan = {k: _shape(k + 1, [(0, i) for i in range(1, k + 1)]) for k in (9, 11)}
    u3x4 = _shape(12, [(4 * c + i, 4 * c + i + 1) for c in range(3) for i in range(3)])
    fan2chain9 = _shape(12, [(0, 1), (0, 2), *((i, i + 1) for i in range(3, 11))])
    loops3 = _shape(3, [(i, i) for i in range(3)])
    k12 = _shape(12, [(i, j) for i in range(12) for j in range(12) if i != j])
    forkloops = _shape(4, [(0, 1), (0, 2), (1, 1), (2, 2), (3, 3)])
    ring = _shape(5000, [(i, (i + 1) % 5000) for i in range(5000)])
    grid = _shape(900, [(v, v + 1) for v in range(900) if v % 30 < 29] + [(v, v + 30) for v in range(870)])
    classify, lattice = ["classify", "--enumerate", "--json"], ["lattice", "--json"]
    out = [(g, argv) for g in (path[12], u3x4, fan2chain9) for argv in (classify, lattice)]
    out += [(fan[11], classify), (loops3, [*classify, "--bound", "60"])]
    out += [(k12, [*classify, "--bound", "6"])]
    out += [(forkloops, [*argv, "--bound", "60"]) for argv in (classify, lattice)]
    out += [(g, ["oracle", "--json"]) for g in (path[5], path[7], fan[9], _shape(10, []), _shape(11, []))]
    out += [(path[k], ["semigroup", "--json"]) for k in (13, 17)]
    out += [(ring, ["forked"]), (ring, ["classify", "--json"]), (grid, ["classify", "--json"])]
    out += [(ring + "edge bad v0 nowhere\n", ["forked"]), (_shape(12, []), ["oracle", "--json"])]
    lattices = ((path[12], []), (forkloops, ["--bound", "60"]))  # their text and DOT bytes too
    return out + [(g, ["lattice", *b, *dot]) for g, b in lattices for dot in ([], ["--dot", "DOT", "--json"])]


# A loop on b, a ring a -> d -> a and a fork c -> e, c -> f: three weak
# components whose sorted vertex names, and edge names, interleave.
INTERLEAVED = (
    "vertex a\nvertex b\nvertex c\nvertex d\nvertex e\nvertex f\n"
    "edge q b b\nedge p a d\nedge r d a\nedge o c e\nedge s c f\n"
)


def interleaved_cases() -> list[tuple[str, list[str]]]:
    """The product route on :data:`INTERLEAVED` under a bound, after the
    cap-sized commands."""
    return [
        (INTERLEAVED, [*argv, "--bound", "6", *json_flag])
        for json_flag in ([], ["--json"])
        for argv in (["classify", "--enumerate"], ["lattice", "--dot", "DOT"])
    ]


# The fork over two loops: u -> v, u -> w, a loop on v and on w.
FORK_LOOPS = _shape(3, [(0, 1), (0, 2), (1, 1), (2, 2)])


def two_word_cases() -> list[tuple[str, list[str]]]:
    """:data:`FORK_LOOPS` under the bound 2^39, after the product route: a
    non-distributive lattice of 1934 elements whose 86 join-irreducibles
    take two key words."""
    argvs = (["classify", "--enumerate"], ["lattice"])
    return [(FORK_LOOPS, [*argv, "--bound", str(2**39), "--json"]) for argv in argvs]


def semigroup_text_cases() -> list[tuple[str, list[str]]]:
    """``semigroup`` in text, the Cayley table's rows included, on the small
    semigroup corpus and the 13-vertex path, after the two-word lattices."""
    graphs = [graph_text(g) for g in small_semigroup_corpus()]
    graphs.append(_shape(13, [(i, i + 1) for i in range(12)]))
    return [(g, ["semigroup"]) for g in graphs]


def _run(argv: list[str]) -> tuple[int, bytes, bytes]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue().encode(), err.getvalue().encode()


def runs():
    """(argv, exit code, stdout, stderr, DOT digest) of each case, in order."""
    with tempfile.TemporaryDirectory() as tmp:
        cwd = os.getcwd()
        os.chdir(tmp)
        try:
            for text, args in cases():
                name = "g" + _digest(text.encode())[:10]
                Path(name + ".graph").write_text(text, encoding="utf-8")
                dot = Path(name + ".dot")
                dot.unlink(missing_ok=True)
                command, *flags = [name + ".dot" if a == "DOT" else a for a in args]
                argv = [command, name + ".graph", *flags]
                code, out, err = _run(argv)
                yield argv, code, out, err, _digest(dot.read_bytes()) if dot.exists() else "-"
        finally:
            os.chdir(cwd)


def manifest_line(argv, code, out, err, dot_digest) -> str:
    return f"{' '.join(argv)}\t{code}\t{_digest(out)}\t{_digest(err)}\t{dot_digest}"


def manifest_lines() -> list[str]:
    return [manifest_line(*run) for run in runs()]


def first_difference(got: list[str], want: list[str]) -> str | None:
    """The first command whose line differs, or None when all agree."""
    for k, (a, b) in enumerate(zip(got, want)):
        if a != b:
            return f"line {k + 1}: got {a!r}, manifest has {b!r}"
    if len(got) != len(want):
        return f"{len(got)} commands run, manifest has {len(want)}"
    return None


if __name__ == "__main__":
    got = manifest_lines()
    if sys.argv[1:] == ["--write"]:
        MANIFEST.write_text("\n".join(got) + "\n", encoding="utf-8")
        print(f"wrote {len(got)} lines to {MANIFEST}")
    else:
        diff = first_difference(got, MANIFEST.read_text(encoding="utf-8").splitlines())
        print(diff or f"{len(got)} commands: all as in the manifest")
        sys.exit(1 if diff else 0)
