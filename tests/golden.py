"""The answer contract as a manifest: every listed ``gislat`` command run
in-process, one line each with its argv, exit code and the sha256 (first
16 hex digits) of its stdout, its stderr and the DOT file it wrote ("-"
for none).

Graph files are named by a digest of their text and, like the DOT files,
written to relative paths under a temporary working directory, because
``dot written to <path>`` is part of the output.  So the manifest does not
depend on where it runs, nor on the hash seed.

    PYTHONPATH=src python tests/golden.py          # compare with the manifest
    PYTHONPATH=src python tests/golden.py --write  # rewrite it

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
    return out


def _run(argv: list[str]) -> tuple[int, bytes, bytes]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue().encode(), err.getvalue().encode()


def manifest_lines() -> list[str]:
    lines = []
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
                dot_digest = _digest(dot.read_bytes()) if dot.exists() else "-"
                lines.append(f"{' '.join(argv)}\t{code}\t{_digest(out)}\t{_digest(err)}\t{dot_digest}")
        finally:
            os.chdir(cwd)
    return lines


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
