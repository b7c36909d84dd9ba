import contextlib
import io
import json
import os
import random
import subprocess
import sys
import tempfile
import time
from itertools import chain
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gislat
from gislat.cli import build_parser, main, parse_args
from gislat.graph import parse_graph
from gislat.lattice import hasse_dot
from gislat.triples import render_triple, triple_lattice

from conftest import GAMMA1_TEXT, GAMMA2_TEXT, LOOP_TEXT
from helpers import acyclic_corpus, cyclic_corpus, graph_text, lattice_verdicts, triple_to_json


@pytest.fixture
def files(tmp_path):
    paths = {}
    for name, text in (
        ("g1", GAMMA1_TEXT),
        ("g2", GAMMA2_TEXT),
        ("loop", LOOP_TEXT),
        ("single", "vertex a\n"),
        ("bad", "edge e a b\n"),
    ):
        p = tmp_path / f"{name}.graph"
        p.write_text(text)
        paths[name] = str(p)
    return paths


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


# ------------------------------------------------------------ forked


def test_forked(files, capsys):
    code, out, _ = run(capsys, "forked", files["g1"])
    assert code == 0 and out.strip() == "v1"
    code, out, _ = run(capsys, "forked", files["g2"])
    assert code == 0 and out.strip() == ""
    code, out, _ = run(capsys, "forked", files["single"])
    assert code == 0 and out.strip() == ""


def test_forked_json(files, capsys):
    code, out, _ = run(capsys, "forked", files["g1"], "--json")
    assert code == 0
    assert json.loads(out) == {"forked_vertices": ["v1"]}


# ------------------------------------------------------------ classify


def test_classify_gamma2_enumerate(files, capsys):
    code, out, _ = run(capsys, "classify", files["g2"], "--enumerate", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["forked_vertices"] == []
    assert data["predicted"]["distributive"] is True
    assert data["computed"] == data["predicted"]
    assert data["agreement"] is True
    assert data["lattice_size"] == 6
    assert data["bounded"] is False
    assert data["witness"] is None


def test_classify_gamma1_enumerate(files, capsys):
    code, out, _ = run(capsys, "classify", files["g1"], "--enumerate", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["forked_vertices"] == ["v1"]
    assert data["predicted"] == {
        "distributive": False,
        "modular": False,
        "lower_semimodular": False,
        "upper_semimodular": True,
    }
    assert data["computed"] == data["predicted"]
    assert data["witness"]["kind"] == "pentagon"
    assert len(data["witness"]["members"]) == 5
    assert data["agreement"] is True


def test_classify_without_enumerate(files, capsys):
    code, out, _ = run(capsys, "classify", files["loop"], "--json")
    assert code == 0
    data = json.loads(out)
    assert data["computed"] is None
    assert data["agreement"] is None
    assert data["graph"]["acyclic"] is False


def test_classify_cyclic_needs_bound(files, capsys):
    code, _, err = run(capsys, "classify", files["loop"], "--enumerate")
    assert code == 2
    assert "bound" in err


def test_classify_loop_bounded(files, capsys):
    code, out, _ = run(
        capsys, "classify", files["loop"], "--enumerate", "--bound", "12", "--json"
    )
    assert code == 0
    data = json.loads(out)
    assert data["bounded"] is True
    assert data["lattice_size"] == 9
    assert data["computed"]["distributive"] is True
    assert data["agreement"] is True


def test_classify_parse_error(files, capsys):
    code, _, err = run(capsys, "classify", files["bad"])
    assert code == 1
    assert "line 1" in err


def test_classify_missing_file(capsys):
    code, _, err = run(capsys, "classify", "/nonexistent/x.graph")
    assert code == 1
    assert "cannot read" in err


def test_non_utf8_file_is_an_input_error(tmp_path, capsys):
    # Also a directory, which cannot be read, and a byte order mark, which
    # is read as part of the first word (U+FEFF is no whitespace): each is
    # exit 1 and one error line.
    latin1, folder, bom = tmp_path / "latin1.graph", tmp_path / "dir.graph", tmp_path / "bom.graph"
    latin1.write_bytes(b"vertex caf\xe9\n")
    folder.mkdir()
    bom.write_bytes(b"\xef\xbb\xbfvertex a\n")
    for path, prefix in (
        (latin1, f"error: cannot read {latin1}: "),
        (folder, f"error: cannot read {folder}: "),
        (bom, f"error: {bom}: line 1: unknown directive '\\ufeffvertex'"),
    ):
        code, out, err = run(capsys, "classify", str(path))
        assert (code, out) == (1, "")
        assert err.startswith(prefix) and err.count("\n") == 1


@pytest.mark.parametrize("end", ["\r\n", "\r"])
def test_crlf_and_cr_files_read_as_their_lf_copy(tmp_path, capsys, end):
    # The file is decoded with no newline translation: parse_graph takes
    # \r\n and \r as line ends itself.
    lines = GAMMA1_TEXT.splitlines()
    bad = [*lines[:3], "edge e9 nowhere", *lines[3:]]  # line 4 is wrong
    for text, argv in ((lines, ["classify", "--enumerate"]), (lines, ["forked"]), (bad, ["classify"])):
        outs = []
        for sep in ("\n", end):
            path = tmp_path / "g.graph"
            path.write_bytes((sep.join(text) + sep).encode())
            code, out, err = run(capsys, argv[0], str(path), *argv[1:], "--json")
            outs.append((code, out, err))
        assert outs[0] == outs[1]
        if text is bad:
            assert outs[0][:2] == (1, "") and f"{path}: line 4: expected: edge NAME SRC DST" in outs[0][2]


def test_classify_long_ring_without_enumerate(tmp_path, capsys):
    n = 1200
    lines = [f"vertex v{i}" for i in range(n)]
    lines += [f"edge e{i} v{i} v{(i + 1) % n}" for i in range(n)]
    p = tmp_path / "ring.graph"
    p.write_text("\n".join(lines) + "\n")
    code, out, _ = run(capsys, "classify", str(p), "--json")
    assert code == 0
    assert json.loads(out)["graph"]["acyclic"] is False


@pytest.mark.parametrize("ring", [False, True])
@pytest.mark.parametrize("command", ["classify", "forked"])
def test_cheap_commands_on_5000_vertex_graphs(tmp_path, capsys, command, ring):
    # The cheap path stays polynomial: one SCC pass, not a search per vertex.
    n = 5000
    lines = [f"vertex v{i}" for i in range(n)]
    lines += [f"edge e{i} v{i} v{i + 1}" for i in range(n - 1)]
    if ring:
        lines.append(f"edge back v{n - 1} v0")
    p = tmp_path / "long.graph"
    p.write_text("\n".join(lines) + "\n")
    t0 = time.perf_counter()
    code, out, _ = run(capsys, command, str(p), "--json")
    assert time.perf_counter() - t0 < 1.0
    assert code == 0
    assert json.loads(out)["forked_vertices"] == []
    if command == "classify":
        assert json.loads(out)["graph"]["acyclic"] is not ring


@pytest.mark.parametrize("bound", ["0", "-3"])
@pytest.mark.parametrize("command", ["classify", "lattice"])
def test_nonpositive_bound_is_a_usage_error(files, capsys, command, bound):
    argv = [command, files["loop"], f"--bound={bound}"]
    with pytest.raises(SystemExit) as err:
        main(argv + (["--enumerate"] if command == "classify" else []))
    assert err.value.code == 1
    assert "positive" in capsys.readouterr().err


@pytest.mark.parametrize(
    "n, ring, argv",
    [
        (21, False, ["classify", "--enumerate"]),
        (21, False, ["lattice"]),
        (1200, True, ["classify", "--enumerate", "--bound", "2"]),
        (1200, True, ["lattice", "--bound", "2"]),
    ],
)
def test_hereditary_cap_is_a_one_line_error(tmp_path, capsys, n, ring, argv):
    lines = [f"vertex v{i}" for i in range(n)]
    lines += [f"edge e{i} v{i} v{i + 1}" for i in range(n - 1)]
    if ring:
        lines.append(f"edge back v{n - 1} v0")
    p = tmp_path / "graph.txt"
    p.write_text("\n".join(lines) + "\n")
    code, _, err = run(capsys, argv[0], str(p), *argv[1:])
    assert code == 2
    assert err.count("\n") == 1 and "20 vertices" in err


def test_oracle_checks_hereditary_cap_before_brute_force(tmp_path, capsys):
    # |S| = 22 is under the default --cap, but 21 isolated vertices have
    # 2^21 congruences: the 20-vertex cap must end the run first.
    p = tmp_path / "isolated.graph"
    p.write_text("".join(f"vertex v{i}\n" for i in range(21)))
    t0 = time.perf_counter()
    code, out, err = run(capsys, "oracle", str(p))
    assert time.perf_counter() - t0 < 1.0
    assert (code, out) == (2, "")
    assert err.count("\n") == 1 and err.startswith("error: ") and "20 vertices" in err


def test_triple_cap_is_a_one_line_error(tmp_path, capsys):
    # Three disjoint loops under --bound 10^7 have 67^3 = 300,763 triples.
    p = tmp_path / "loops3.graph"
    p.write_text("vertex a\nvertex b\nvertex c\nedge x a a\nedge y b b\nedge z c c\n")
    for argv in (["classify", "--enumerate"], ["lattice"]):
        t0 = time.perf_counter()
        code, out, err = run(capsys, argv[0], str(p), *argv[1:], "--bound", "10000000")
        assert time.perf_counter() - t0 < 1.0
        assert (code, out) == (2, "")
        assert err.count("\n") == 1 and err.startswith("error: ") and "4096 elements" in err


@pytest.mark.parametrize("argv", [["classify", "--enumerate"], ["lattice"]])
def test_bound_cap_comes_before_the_divisors(files, capsys, argv):
    t0 = time.perf_counter()
    code, out, err = run(capsys, argv[0], files["loop"], *argv[1:], "--bound", str(10**18))
    assert time.perf_counter() - t0 < 1.0
    assert (code, out) == (2, "")
    assert err.count("\n") == 1 and err.startswith("error: ") and str(10**12) in err
    code, _, _ = run(capsys, argv[0], files["loop"], *argv[1:], "--bound", str(10**12))
    assert code == 0


@pytest.mark.parametrize("argv", [["classify", "--enumerate"], ["lattice"]])
def test_an_acyclic_graph_ignores_its_bound(tmp_path, capsys, argv):
    """An acyclic graph's lattice is exact whatever the bound, one past the
    bound cap included: the same bytes and exit code as without one, in text
    and --json, on one weak component and on several."""
    p = tmp_path / "g.graph"
    for graph in (GAMMA2_TEXT, GAMMA1_TEXT, GAMMA1_TEXT + "vertex a\nvertex b\nedge x a b\n"):
        p.write_text(graph)
        for form in ([], ["--json"]):
            plain = run(capsys, argv[0], str(p), *argv[1:], *form)
            assert plain[0] == 0 and plain[1]
            assert run(capsys, argv[0], str(p), *argv[1:], *form, "--bound", str(10**18)) == plain


def _complete_digraph(n: int) -> str:
    lines = [f"vertex v{i}" for i in range(n)]
    lines += [f"edge e{i}_{j} v{i} v{j}" for i in range(n) for j in range(n) if i != j]
    return "\n".join(lines) + "\n"


def test_complete_digraph_probe_needs_no_graph_wide_cycle_search(tmp_path, capsys):
    # K12 has billions of simple cycles; its hereditary sets are ∅ and V,
    # and no vertex has index 1 relative to either.
    p = tmp_path / "K12.graph"
    p.write_text(_complete_digraph(12))
    t0 = time.perf_counter()
    code, out, _ = run(capsys, "classify", str(p), "--enumerate", "--bound", "6", "--json")
    assert time.perf_counter() - t0 < 1.0
    assert code == 0 and json.loads(out)["lattice_size"] == 2


def test_bound_cap_refuses_a_complete_digraph_at_once(tmp_path, capsys):
    p = tmp_path / "K9.graph"
    p.write_text(_complete_digraph(9))
    t0 = time.perf_counter()
    code, out, err = run(capsys, "classify", str(p), "--enumerate", "--bound", str(10**18))
    assert time.perf_counter() - t0 < 1.0
    assert (code, out, err) == (2, "", "error: cycle-value bound capped at 1000000000000\n")


PATH8_TEXT = "".join(f"vertex v{i}\n" for i in range(8)) + "".join(
    f"edge e{i} v{i} v{i + 1}\n" for i in range(7)
)
PATH20_TEXT = "".join(f"vertex v{i}\n" for i in range(20)) + "".join(
    f"edge e{i} v{i} v{i + 1}\n" for i in range(19)
)
ISOLATED20_TEXT = "".join(f"vertex v{i}\n" for i in range(20))
ISOLATED21_TEXT = "".join(f"vertex v{i}\n" for i in range(21))
LOOPS3_TEXT = "vertex a\nvertex b\nvertex c\nedge x a a\nedge y b b\nedge z c c\n"
LOOP_PATH_TEXT = "vertex l\nedge x l l\nvertex a\nvertex b\nedge e a b\n"
PATH12_ISOLATED_TEXT = "".join(f"vertex v{i}\n" for i in range(13)) + "".join(
    f"edge e{i} v{i} v{i + 1}\n" for i in range(11)
)

# One input per refusal, with the exact line each one ends with.
REFUSALS = [
    (LOOP_TEXT, "classify --enumerate", "graph has cycles: triple enumeration needs a bound (--bound N)"),
    (LOOP_TEXT, f"classify --enumerate --bound {10**18}", "cycle-value bound capped at 1000000000000"),
    (ISOLATED21_TEXT, "classify --enumerate", "exhaustive hereditary enumeration capped at 20 vertices"),
    # Graphs of several weak components, which classify --enumerate takes
    # by the product of their lattices.
    (LOOP_PATH_TEXT, "classify --enumerate", "graph has cycles: triple enumeration needs a bound (--bound N)"),
    (LOOP_PATH_TEXT, f"classify --enumerate --bound {10**12 + 1}", "cycle-value bound capped at 1000000000000"),
    (PATH12_ISOLATED_TEXT, "classify --enumerate", "triple lattice capped at 4096 elements"),
    (LOOPS3_TEXT, f"lattice --bound {10**7}", "triple lattice capped at 4096 elements"),
    (ISOLATED20_TEXT, "classify --enumerate", "triple lattice capped at 4096 elements"),
    (ISOLATED20_TEXT, "oracle", "triple lattice capped at 4096 elements"),
    (LOOP_TEXT, "semigroup", "path set is infinite: graph has cycles"),
    (PATH20_TEXT, "semigroup", "semigroup table capped at 2000 elements, got 2871"),
    (GAMMA2_TEXT, "oracle --cap 5", "brute-force congruence enumeration capped at 5 elements, got 15"),
    (LOOP_TEXT, "oracle", "path set is infinite: graph has cycles"),
]


@pytest.mark.parametrize("text, argv, message", REFUSALS)
def test_every_refusal_is_exit_2_and_one_line(tmp_path, capsys, text, argv, message):
    p = tmp_path / "g.graph"
    p.write_text(text)
    command, *flags = argv.split()
    for extra in ([], ["--json"]):
        code, out, err = run(capsys, command, str(p), *flags, *extra)
        assert (code, out, err) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("argv", [["classify", "--enumerate"], ["oracle"]])
def test_triple_cap_comes_before_the_hereditary_sets(tmp_path, capsys, argv):
    # 2^20 hereditary sets, each the H of at least one triple: the union
    # growth stops past 4096 of them instead of listing them all.
    p = tmp_path / "iso20.graph"
    p.write_text(ISOLATED20_TEXT)
    t0 = time.perf_counter()
    code, out, err = run(capsys, argv[0], str(p), *argv[1:])
    assert time.perf_counter() - t0 < 1.0
    assert (code, out, err) == (2, "", "error: triple lattice capped at 4096 elements\n")


@pytest.mark.parametrize(
    "error",
    [
        gislat.UnboundedLatticeError,
        gislat.LatticeTooLargeError,
        gislat.CyclicGraphError,
        gislat.SemigroupTooLargeError,
        gislat.LimitError,
    ],
)
def test_refusals_share_one_base_class(error):
    assert issubclass(error, gislat.LimitError)
    assert issubclass(error, gislat.GraphError)


def _child(argv, stdout, entry=("-m", "gislat.cli")):
    """``python -m gislat.cli`` (or ``python *entry``) with stdout to
    ``stdout``; the package's own source directory is the child's path, so
    it imports this code."""
    src = str(Path(gislat.__file__).resolve().parent.parent)
    return subprocess.run(
        [sys.executable, *entry, *argv],
        stdout=stdout,
        stderr=subprocess.PIPE,
        text=True,
        env=dict(os.environ, PYTHONPATH=src),
        timeout=60,
    )


def test_python_dash_m_runs_the_cli(files):
    proc = _child(["forked", files["g1"], "--json"], subprocess.PIPE)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert json.loads(proc.stdout) == {"forked_vertices": ["v1"]}


def test_a_failed_write_is_exit_1_and_one_line(files):
    """A closed pipe and a full disk end each command with one error line
    and exit 1, not a traceback, and the interpreter's last flush adds
    nothing."""
    import errno

    read, write = os.pipe()
    os.close(read)
    try:
        procs = [(_child(["lattice", files["g1"]], write), errno.EPIPE)]
    finally:
        os.close(write)
    # The pure-Python io keeps the bytes a failed write left buffered, so
    # there the interpreter's last flush would fail a second time.
    pyio = (
        "-c",
        "import _pyio, sys; sys.stdout = _pyio.open(1, 'w', closefd=False); "
        "from gislat.cli import main; sys.exit(main(sys.argv[1:]))",
    )
    with open("/dev/full", "w") as full:
        for argv in (["semigroup", files["g1"]], ["forked", files["g1"]], ["forked", files["g1"], "--json"]):
            procs.append((_child(argv, full), errno.ENOSPC))
        procs.append((_child(["semigroup", files["g1"]], full, pyio), errno.ENOSPC))
    for proc, code in procs:
        assert proc.returncode == 1, proc.stderr
        assert proc.stderr.startswith(f"error: cannot write output: [Errno {code}] ")
        assert proc.stderr.count("\n") == 1 and "Traceback" not in proc.stderr


@pytest.mark.parametrize("unbuffered", ["", "1"])
def test_a_pipe_closed_mid_write_is_exit_1_and_one_line(tmp_path, unbuffered):
    """The text of lattice on a 10-vertex path (114 kB, more than a
    pipe holds) to a reader that closes the pipe after 100 bytes: one error
    line and exit 1, with stdout buffered or not (python -u)."""
    import errno

    path = tmp_path / "chain10.graph"
    path.write_text("".join(f"vertex v{i}\n" for i in range(10))
                    + "".join(f"edge e{i} v{i} v{i + 1}\n" for i in range(9)))
    src = str(Path(gislat.__file__).resolve().parent.parent)
    proc = subprocess.Popen(
        [sys.executable, "-m", "gislat.cli", "lattice", str(path)],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=dict(os.environ, PYTHONPATH=src, PYTHONUNBUFFERED=unbuffered),
    )
    assert proc.stdout.read(100).startswith(b"1024 elements:\n")
    proc.stdout.close()
    code = proc.wait(timeout=60)
    with proc.stderr:
        err = proc.stderr.read().decode()
    assert code == 1, err
    assert err.startswith(f"error: cannot write output: [Errno {errno.EPIPE}] ")
    assert err.count("\n") == 1 and "Traceback" not in err


@pytest.mark.parametrize("module", ["lattice", "oracle"])
def test_a_lattice_fault_is_exit_3_and_one_line(files, capsys, monkeypatch, module):
    """A NotALatticeError from from_poset, on the triples' side (every
    enumerating command) or on the congruences' (oracle), is the one-line
    exit 3 of an internal fault."""
    import gislat.lattice
    import gislat.oracle
    from gislat.lattice import NotALatticeError

    def broken(labels, leq):
        raise NotALatticeError((labels[0], labels[-1]), "meet")

    monkeypatch.setattr(getattr(gislat, module), "from_poset", broken)
    argvs = [["oracle"], ["oracle", "--json"]]
    if module == "lattice":
        argvs += [["classify", "--enumerate"], ["classify", "--enumerate", "--json"], ["lattice", "--json"]]
    for argv in argvs:
        code, out, err = run(capsys, argv[0], files["g1"], *argv[1:])
        assert (code, out) == (3, ""), argv
        assert err.startswith("error: no unique meet for ") and err.endswith(" (bug)\n")
        assert err.count("\n") == 1


# ------------------------------------------------------------ product route


def one_component_cases():
    """The one-component graphs of the acyclic corpus, the cyclic corpus
    under bound 12 and an 8-vertex path (256 triples), with their bounds."""
    from helpers import acyclic_corpus, cyclic_corpus

    chain8 = parse_graph(PATH8_TEXT)
    cases = [(g, None) for g in acyclic_corpus()] + [(g, 12) for g in cyclic_corpus()]
    return [(g, b) for g, b in cases + [(chain8, None)] if len(g.weak_components) == 1]


def test_classify_product_route_matches_the_whole_lattice(tmp_path, capsys, monkeypatch):
    """classify --enumerate answers from one lattice per weak component, a
    weakly connected graph being its own one, and never calls triple_lattice,
    with the size, verdicts and witness of the whole lattice (triple_lattice
    and lattice_verdicts), in --json and in text: on graphs of several weak
    components and on one_component_cases()."""
    import gislat.cli
    import gislat.triples
    from helpers import product_corpus

    def whole_lattice(*args):
        raise AssertionError("the product route built the whole lattice")

    cases = list(product_corpus()) + one_component_cases()
    pentagons = bounded = several = 0
    for k, (g, bound) in enumerate(cases):
        lat = triple_lattice(g, bound)
        verdicts, w = lattice_verdicts(lat)
        witness = w and {"kind": w.kind, "members": [render_triple(lat.labels[i]) for i in w.members]}
        p = tmp_path / f"p{k}.graph"
        p.write_text(graph_text(g))
        argv = ["classify", str(p), "--enumerate"] + (["--bound", str(bound)] if bound else [])
        with monkeypatch.context() as m:
            m.setattr(gislat.cli, "triple_lattice", whole_lattice)
            m.setattr(gislat.triples, "triple_lattice", whole_lattice)
            code, out, err = run(capsys, *argv, "--json")
            text = run(capsys, *argv)
        got = json.loads(out)
        assert (code, err, got["graph"]["weak_components"]) == (0, "", len(g.weak_components))
        assert (got["lattice_size"], got["computed"], got["witness"]) == (len(lat), verdicts, witness)
        assert got["bounded"] is (bound is not None) and got["agreement"] is True
        lines = text[1].splitlines()
        assert text[0] == 0 and f", {len(lat)} elements): " in lines[3]
        if witness:
            assert lines[4] == "witness: pentagon " + " ".join(witness["members"])
        pentagons += witness is not None
        bounded += bound is not None
        several += len(g.weak_components) > 1
    assert pentagons >= 20 and bounded >= 30 and several == 60, (pentagons, bounded, several)


def test_modular_nondistributive_product_takes_its_diamond_from_the_factors(monkeypatch):
    """No triple lattice seen so far is modular but not distributive; were
    a product so (only a bounded probe can be), its witness would be the
    first diamond read off the factors, that of the product built whole:
    M3 × 2 in shuffled coordinates, with the whole lattice never built."""
    import gislat.cli
    from helpers import brute_first_diamond, closure_lattice, product_lattice

    def whole_lattice(*args):
        raise AssertionError("the witness came from the whole lattice")

    factors = (closure_lattice(3, [1, 2, 4]), closure_lattice(1, [0]))  # M3 and a 2-chain
    rng = random.Random(19)
    for _ in range(6):
        whole, coords = product_lattice(factors, rng)
        monkeypatch.setattr(gislat.cli, "component_lattices", lambda g, bound: factors)
        monkeypatch.setattr(gislat.cli, "product_coordinates", lambda *args: (whole.labels, coords))
        monkeypatch.setattr(gislat.cli, "triple_lattice", whole_lattice)
        size, bounded, verdicts, witness, labels, covers = gislat.cli._enumerated(
            parse_graph(GAMMA1_TEXT), None
        )
        assert (size, bounded, labels, covers) == (10, False, whole.labels, None)
        assert (verdicts["modular"], verdicts["distributive"]) == (True, False)
        assert witness.kind == "diamond" and witness == brute_first_diamond(whole)


def test_inconsistent_product_verdicts_are_exit_3(tmp_path, capsys, monkeypatch):
    """Verdicts that call the non-modular fan2 + chain2 modular but not
    distributive find no diamond there: exit 3 with one line, on every
    route, instead of the whole lattice's verdicts replacing them."""
    import gislat.cli

    p = tmp_path / "fan2_chain2.graph"
    p.write_text(GAMMA1_TEXT + "vertex a\nvertex b\nedge x a b\n")
    assert json.loads(run(capsys, "classify", str(p), "--enumerate", "--json")[1])["witness"]
    fake = dict(distributive=False, modular=True, lower_semimodular=True, upper_semimodular=True)
    monkeypatch.setattr(gislat.cli, "product_verdicts", lambda factors: fake)
    for argv in (["classify", "--enumerate"], ["classify", "--enumerate", "--json"], ["lattice"]):
        code, out, err = run(capsys, argv[0], str(p), *argv[1:])
        assert (code, out, err) == (3, "", "error: inconsistent verdicts or witness (bug)\n")


def test_weak_components_are_found_once_per_command(tmp_path, capsys, monkeypatch):
    """One classify --enumerate or lattice on a graph of several weak
    components runs the union-find once: the summary, the factors and the
    coordinates all read the graph's memoised components."""
    import gislat.graph

    calls = []
    join_labels = gislat.graph.join_labels
    monkeypatch.setattr(gislat.graph, "join_labels", lambda *a: calls.append(1) or join_labels(*a))
    p = tmp_path / "fan2_chain2.graph"
    p.write_text(GAMMA1_TEXT + "vertex a\nvertex b\nedge x a b\n")
    for argv in (["classify", "--enumerate"], ["classify", "--enumerate", "--json"], ["lattice"]):
        calls.clear()
        assert run(capsys, argv[0], str(p), *argv[1:])[0] == 0
        assert len(calls) == 1, argv


@pytest.mark.parametrize(
    "text, bound, most",
    [
        (GAMMA1_TEXT, None, 1),
        (GAMMA2_TEXT, None, 1),
        ("vertex u\nvertex v\nvertex w\nedge e u v\nedge f u w\nedge x v v\nedge y w w\n", 60, 1),
        (GAMMA1_TEXT + "vertex a\nvertex b\nedge x a b\n", None, 2),
        ("vertex p\nedge x p p\nvertex q\nedge y q q\n", 60, 2),
    ],
)
def test_refusals_and_hereditary_sets_are_decided_once_per_command(
    tmp_path, capsys, monkeypatch, text, bound, most
):
    """One classify --enumerate, lattice or oracle passes the graph's
    refusals once.  The weak components read the graph's hereditary sets,
    so a weakly connected graph lists them once; a graph of several weak
    components lists them again at most once, for its product's triples."""
    import gislat.triples

    calls = []
    for name in ("_refusals", "hereditary_subsets"):
        f = getattr(gislat.triples, name)
        monkeypatch.setattr(gislat.triples, name, lambda *a, f=f, name=name: calls.append(name) or f(*a))
    p = tmp_path / "g.graph"
    p.write_text(text)
    flags = ["--bound", str(bound)] if bound else []
    argvs = [["classify", "--enumerate", *flags], ["lattice", *flags], ["lattice", *flags, "--json"]]
    argvs += [] if bound else [["oracle"]]
    for argv in argvs:
        calls.clear()
        assert run(capsys, argv[0], str(p), *argv[1:])[0] == 0
        assert calls.count("_refusals") == 1, argv
        assert 1 <= calls.count("hereditary_subsets") <= (1 if argv[0] == "oracle" else most), argv


def path_text(n: int, prefix: str = "v") -> str:
    return "".join(f"vertex {prefix}{i}\n" for i in range(n)) + "".join(
        f"edge e{prefix}{i} {prefix}{i} {prefix}{i + 1}\n" for i in range(n - 1)
    )


UNION3_TEXT = "vertex u\nvertex a\nvertex b\nedge e u a\nedge f u b\n" + path_text(3, "c") + path_text(3, "d")


@pytest.mark.parametrize(
    "text, bound, built",
    [
        (path_text(7), None, 0),  # distributive: no witness
        ("vertex u\n" + "".join(f"vertex s{i}\nedge f{i} u s{i}\n" for i in range(5)), None, 5),
        (UNION3_TEXT, None, 5),  # fan2 and two 3-paths: a pentagon of the product
        ("vertex p\nedge x p p\nvertex q\nedge y q q\n", 6, 0),  # two loops
    ],
    ids=["chain7", "fan5", "union3", "loops2"],
)
def test_triples_are_built_only_for_a_witness(tmp_path, capsys, monkeypatch, text, bound, built):
    """classify --enumerate reads the order and the product's coordinates
    off integer rows: it constructs a CongruenceTriple only for each member
    of its witness, none for a distributive lattice; lattice, which renders
    its text, JSON and DOT from the rows, and oracle none at all.  classify
    --enumerate and lattice list the graph's hereditary sets once, also on a
    graph of several weak components, whose product is sorted from its
    factors' rows and not listed again."""
    import gislat.triples

    built_now, listed = [], []
    init = gislat.triples.CongruenceTriple.__init__
    monkeypatch.setattr(
        gislat.triples.CongruenceTriple, "__init__", lambda t, *a: built_now.append(1) or init(t, *a)
    )
    hereditary = gislat.triples.hereditary_subsets
    monkeypatch.setattr(gislat.triples, "hereditary_subsets", lambda *a: listed.append(1) or hereditary(*a))
    p = tmp_path / "g.graph"
    p.write_text(text)
    flags = ["--bound", str(bound)] if bound else []
    dot = str(tmp_path / "hasse.dot")
    argvs = [["classify", "--enumerate"], ["classify", "--enumerate", "--json"], ["lattice"],
             ["lattice", "--json"], ["lattice", "--dot", dot], ["lattice", "--json", "--dot", dot]]
    for argv in argvs + ([] if bound else [["oracle"]]):
        built_now.clear()
        listed.clear()
        assert run(capsys, argv[0], str(p), *argv[1:], *flags)[0] == 0
        assert len(listed) == 1, argv
        assert len(built_now) == (built if argv[0] == "classify" else 0), argv


def test_product_route_refuses_before_building_a_lattice(tmp_path, capsys):
    # A 12-vertex path beside an isolated vertex: 4096 * 2 triples, refused
    # before the 4096-element lattice of the path is built.
    p = tmp_path / "chain12_isolated.graph"
    p.write_text(PATH12_ISOLATED_TEXT)
    t0 = time.perf_counter()
    code, out, err = run(capsys, "classify", str(p), "--enumerate")
    assert time.perf_counter() - t0 < 0.5
    assert (code, out, err) == (2, "", "error: triple lattice capped at 4096 elements\n")


def test_lattice_product_route_matches_the_whole_lattice(tmp_path, capsys, monkeypatch):
    """lattice lists the triples, cover pairs and verdicts of the whole
    lattice (triple_lattice, lattice_verdicts and hasse_dot) from one
    lattice per weak component, never calling triple_lattice, in text,
    --json and --dot: on graphs of several weak components, on
    one_component_cases() and at the 4096-element cap (three 4-vertex
    paths)."""
    import gislat.cli
    import gislat.triples
    from helpers import product_corpus

    def whole_lattice(*args):
        raise AssertionError("the product route built the whole lattice")

    paths = "".join(f"vertex {c}{i}\n" for c in "abc" for i in range(4))
    paths += "".join(f"edge e{c}{i} {c}{i} {c}{i + 1}\n" for c in "abc" for i in range(3))
    cases = [(graph_text(g), bound) for g, bound in product_corpus() + tuple(one_component_cases())]
    cases += [(paths, None)]
    dot = tmp_path / "hasse.dot"
    for k, (text, bound) in enumerate(cases):
        p = tmp_path / f"p{k}.graph"
        p.write_text(text)
        lat = triple_lattice(parse_graph(text), bound)
        verdicts = lattice_verdicts(lat)[0]
        pairs = list(zip(*(x.tolist() for x in lat.cover_pairs)))
        flags = " ".join(f"{key}={'yes' if v else 'no'}" for key, v in verdicts.items())
        want = [f"{len(lat)} elements:"]
        want += [f"  [{i}] {render_triple(t)}" for i, t in enumerate(lat.labels)]
        want += [f"{len(pairs)} cover pairs:", *(f"  [{lo}] < [{up}]" for lo, up in pairs)]
        want += [f"verdicts: {flags}" + (" (bounded probe)" if bound else ""), f"dot written to {dot}"]
        argv = ["lattice", str(p)] + (["--bound", str(bound)] if bound else [])
        with monkeypatch.context() as m:
            m.setattr(gislat.cli, "triple_lattice", whole_lattice)
            m.setattr(gislat.triples, "triple_lattice", whole_lattice)
            code, out, err = run(capsys, *argv, "--json")
            assert (code, err) == (0, "")
            assert json.loads(out) == {
                "elements": [triple_to_json(t) for t in lat.labels],
                "covers": [list(pair) for pair in pairs],
                "verdicts": verdicts,
                "bounded": bound is not None,
            }
            assert run(capsys, *argv, "--dot", str(dot)) == (0, "\n".join(want) + "\n", "")
        assert dot.read_text() == hasse_dot(lat.labels, lat.cover_pairs, render_triple)
    assert len(lat) == 4096


# ------------------------------------------------------------ lattice


def test_lattice_gamma2(files, capsys, tmp_path):
    dot_path = tmp_path / "out.dot"
    code, out, _ = run(
        capsys, "lattice", files["g2"], "--json", "--dot", str(dot_path)
    )
    assert code == 0
    data = json.loads(out)
    assert len(data["elements"]) == 6
    assert data["elements"][3] == {"H": ["w2"], "W": ["v2"], "f": {}}
    assert data["covers"] == [[0, 1], [0, 2], [1, 4], [2, 3], [2, 4], [3, 5], [4, 5]]
    assert data["verdicts"]["distributive"] is True
    dot = dot_path.read_text()
    assert dot.startswith("digraph hasse {")
    assert dot.count(" -> ") == 7


def test_lattice_dot_into_missing_directory(files, capsys, tmp_path):
    dot_path = tmp_path / "missing" / "out.dot"
    code, out, err = run(capsys, "lattice", files["g2"], "--dot", str(dot_path))
    assert (code, out) == (1, "")
    assert err.startswith(f"error: cannot write {dot_path}: ") and err.count("\n") == 1


def test_lattice_gamma1_cover_count(files, capsys):
    code, out, _ = run(capsys, "lattice", files["g1"], "--json")
    assert code == 0
    data = json.loads(out)
    assert len(data["elements"]) == 7
    assert len(data["covers"]) == 9
    assert data["verdicts"]["lower_semimodular"] is False
    assert data["verdicts"]["upper_semimodular"] is True


def test_lattice_single_vertex_two_chain(files, capsys):
    code, out, _ = run(capsys, "lattice", files["single"], "--json")
    assert code == 0
    data = json.loads(out)
    assert data["elements"] == [
        {"H": [], "W": [], "f": {}},
        {"H": ["a"], "W": [], "f": {}},
    ]
    assert data["covers"] == [[0, 1]]


def test_lattice_cover_count_past_256(files, capsys):
    # bound 2·3·5·7·11·13·17·19: the free loop values form the Boolean
    # lattice 2^8 (1024 covers) under inf, with (∅,∅) below and ({v},∅)
    # above (3 more covers).
    code, out, _ = run(capsys, "lattice", files["loop"], "--bound", "9699690", "--json")
    assert code == 0
    data = json.loads(out)
    assert len(data["elements"]) == 259
    assert len(data["covers"]) == 1027


def test_lattice_cyclic_needs_bound(files, capsys):
    code, _, err = run(capsys, "lattice", files["loop"])
    assert code == 2
    assert "bound" in err


# ------------------------------------------------------------ semigroup


def test_semigroup_gamma2(files, capsys):
    code, out, _ = run(capsys, "semigroup", files["g2"], "--json")
    assert code == 0
    data = json.loads(out)
    assert len(data["elements"]) == 15
    assert data["elements"][0] == "0"
    table = data["table"]
    assert len(table) == 15 and all(len(row) == 15 for row in table)
    assert all(table[0][j] == 0 and table[j][0] == 0 for j in range(15))


def test_semigroup_gamma1_count(files, capsys):
    code, out, _ = run(capsys, "semigroup", files["g1"], "--json")
    assert code == 0
    assert len(json.loads(out)["elements"]) == 10


def test_semigroup_cyclic_exits_2(files, capsys):
    code, _, err = run(capsys, "semigroup", files["loop"])
    assert code == 2
    assert "cycle" in err


def test_semigroup_cap_comes_before_the_table(tmp_path, capsys, monkeypatch):
    import gislat.cli

    def fail(g):
        raise AssertionError("semigroup built before the cap check")

    monkeypatch.setattr(gislat.cli, "finite_semigroup", fail)
    lines = [f"vertex v{i}" for i in range(1100)]
    lines += [f"edge e{i} v{i} v{i + 1}" for i in range(1099)]
    path = tmp_path / "path1100.graph"
    path.write_text("\n".join(lines))
    code, out, err = run(capsys, "semigroup", str(path))
    assert (code, out) == (2, "")
    # |S| = 1 + Σ_{k=1..1100} k²
    assert err == "error: semigroup table capped at 2000 elements, got 444271851\n"


# ------------------------------------------------------------ oracle


def test_oracle_gamma2(files, capsys):
    code, out, _ = run(capsys, "oracle", files["g2"], "--json")
    assert code == 0
    data = json.loads(out)
    assert data["congruences"] == 6
    assert data["triples"] == 6
    assert data["order_isomorphic"] is True


def test_oracle_gamma1(files, capsys):
    code, out, _ = run(capsys, "oracle", files["g1"], "--json")
    assert code == 0
    data = json.loads(out)
    assert data["congruences"] == 7 and data["triples"] == 7
    assert data["order_isomorphic"] is True


def test_oracle_on_ten_isolated_vertices(tmp_path, capsys):
    """1024 congruences against 1024 triples: the isomorphism search is
    1024 levels deep and must not hit the recursion limit."""
    path = tmp_path / "iso10.graph"
    path.write_text("".join(f"vertex v{i}\n" for i in range(10)))
    code, out, err = run(capsys, "oracle", str(path), "--json")
    assert (code, err) == (0, "")
    data = json.loads(out)
    assert data["congruences"] == data["triples"] == 1024
    assert data["order_isomorphic"] is True


def test_oracle_single_vertex(files, capsys):
    code, out, _ = run(capsys, "oracle", files["single"], "--json")
    assert code == 0
    data = json.loads(out)
    assert data["congruences"] == 2 and data["triples"] == 2


def test_oracle_cap(files, capsys):
    code, _, err = run(capsys, "oracle", files["g2"], "--cap", "5")
    assert code == 2
    assert "cap" in err


@pytest.mark.parametrize("cap", ["0", "-5"])
def test_nonpositive_cap_is_a_usage_error(files, capsys, cap):
    with pytest.raises(SystemExit) as err:
        main(["oracle", files["g2"], "--cap", cap])
    assert err.value.code == 1
    assert f"must be a positive integer, got {cap}" in capsys.readouterr().err


def test_oracle_cap_comes_before_the_semigroup_table(tmp_path, capsys, monkeypatch):
    import gislat.cli

    def fail(g):
        raise AssertionError("semigroup built before the cap check")

    monkeypatch.setattr(gislat.cli, "finite_semigroup", fail)
    lines = [f"vertex v{i}" for i in range(20)]
    lines += [f"edge e{i} v{i} v{i + 1}" for i in range(19)]
    path = tmp_path / "path20.graph"
    path.write_text("\n".join(lines))
    code, out, err = run(capsys, "oracle", str(path))
    assert (code, out) == (2, "")
    # |S| = 1 + Σ_{k=1..20} k², k paths ending at the k-th vertex
    assert err == "error: brute-force congruence enumeration capped at 200 elements, got 2871\n"


def test_oracle_enumerates_congruences_once(files, capsys, monkeypatch):
    import gislat.cli
    import gislat.oracle

    calls = []
    original = gislat.oracle.enumerate_congruences

    def counting(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    for module in (gislat.oracle, gislat.cli):
        monkeypatch.setattr(module, "enumerate_congruences", counting, raising=False)
    code, out, _ = run(capsys, "oracle", files["g1"], "--json")
    assert code == 0 and json.loads(out)["congruences"] == 7
    assert len(calls) == 1


def test_oracle_cyclic_exits_2(files, capsys):
    code, _, _ = run(capsys, "oracle", files["loop"])
    assert code == 2


# ------------------------------------------------------------ invariants


def test_classify_never_disagrees_on_acyclic_corpus(tmp_path, capsys):
    from helpers import acyclic_corpus

    for k, g in enumerate(acyclic_corpus()[:25]):
        p = tmp_path / f"c{k}.graph"
        p.write_text(graph_text(g))
        code, out, _ = run(capsys, "classify", str(p), "--enumerate", "--json")
        assert code == 0
        assert json.loads(out)["agreement"] is True


def test_json_rendering_matches_the_indenting_encoder():
    """The --json renderer gives json.dumps(indent=2, sort_keys=True)'s
    bytes on seeded nested payloads: bools, None, big and negative ints,
    floats with nan and inf, escapes and non-ASCII text, tuples, empty
    containers, dicts with int keys, and lists of int lists (the template
    path), equal in length or ragged, a bool among the ints, empty rows and
    tuples of lists."""
    from gislat.cli import _json

    for x in ([[1, True]], [[], []], [[0, 1], [2]], ([3, -4], [5, 6]), [(7,), [10**20]], [[1.0, 2]]):
        assert _json(x) == json.dumps(x, indent=2, sort_keys=True)

    rng = random.Random(2718)
    scalars = [0, -5, 10**20, True, False, None, 1.5, float("nan"), float("-inf"), "", "a", 'é\n"\\', "☃"]

    def payload(depth=0):
        r = rng.random()
        if depth > 3 or r < 0.3:
            return rng.choice(scalars)
        if r < 0.5:
            return [payload(depth + 1) for _ in range(rng.randint(0, 4))]
        if r < 0.6:
            return [rng.randint(-3, 9) for _ in range(rng.randint(0, 4))]
        if r < 0.65:
            return tuple(rng.choice(["x", "é", ""]) for _ in range(rng.randint(0, 3)))
        if r < 0.7:
            k = rng.randint(0, 3)  # usually equal lengths, now and then ragged or not all ints
            row = lambda: [rng.choice([-2, 0, 7, 10**20, True]) for _ in range(k + (rng.random() < 0.1))]
            return [row() if rng.random() < 0.5 else tuple(row()) for _ in range(rng.randint(1, 4))]
        if r < 0.75:
            return {rng.randint(1, 3): payload(depth + 1) for _ in range(rng.randint(0, 3))}
        return {rng.choice(["b", "a", "Z", "é", ""]): payload(depth + 1) for _ in range(rng.randint(0, 4))}

    for _ in range(3000):
        x = payload()
        assert _json(x) == json.dumps(x, indent=2, sort_keys=True)


def test_lattice_json_elements_are_the_triples_json(tmp_path):
    """The templated ``elements`` of ``lattice --json`` are json.dumps's
    bytes for triple_to_json of each triple, the whole output included: on
    seeded acyclic lattices and on bounded cyclic probes with f entries."""
    cases = [(g, None) for g in acyclic_corpus()[:40]]
    cases += [(g, b) for g in cyclic_corpus()[:15] for b in (1, 12)]
    stored = 0  # cases whose triples store cycle values
    for k, (g, bound) in enumerate(cases):
        p = tmp_path / f"g{k}.graph"
        p.write_text(graph_text(g))
        lat = triple_lattice(g, bound)
        argv = ["lattice", str(p), "--json"] + (["--bound", str(bound)] if bound else [])
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert main(argv) == 0
        doc = {**json.loads(out.getvalue()), "elements": [triple_to_json(t) for t in lat.labels]}
        assert out.getvalue() == json.dumps(doc, indent=2, sort_keys=True) + "\n", graph_text(g)
        stored += any(t.f.entries for t in lat.labels)
    assert stored == 20  # the ten rich cyclic graphs under both bounds


def test_lattice_f_entries_in_cycle_order_and_json_key_order(tmp_path, capsys):
    """A loop z beside a 2-cycle on edges a and b, two weak components: the
    cycles' sort_key order (z, a.b) is not their name order (a.b, z).  The
    text lists f in cycle order, as render_triple does, and the JSON by
    name, as json.dumps(sort_keys=True) does for triple_to_json."""
    text = "vertex p\nvertex q\nvertex z\nedge z z z\nedge a p q\nedge b q p\n"
    p = tmp_path / "zab.graph"
    p.write_text(text)
    lat = triple_lattice(parse_graph(text), 6)
    assert "({},{p,q,z},{z:1,a.b:1})" in map(render_triple, lat.labels)
    code, out, err = run(capsys, "lattice", str(p), "--bound", "6")
    lines = out.splitlines()[1 : len(lat) + 1]
    assert (code, err) == (0, "")
    assert lines == [f"  [{i}] {render_triple(t)}" for i, t in enumerate(lat.labels)]
    code, out, err = run(capsys, "lattice", str(p), "--bound", "6", "--json")
    doc = {**json.loads(out), "elements": [triple_to_json(t) for t in lat.labels]}
    assert (code, err) == (0, "")
    assert out == json.dumps(doc, indent=2, sort_keys=True) + "\n"
    assert '"a.b": "1",\n        "z": "1"' in out


# ------------------------------------------------------------ usage


def test_usage_error_exit_code(capsys):
    with pytest.raises(SystemExit) as err:
        main(["classify"])  # missing graph file
    assert err.value.code == 1


def test_unknown_subcommand_exit_code(capsys):
    with pytest.raises(SystemExit) as err:
        main(["frobnicate", "x"])
    assert err.value.code == 1


PARSER_ARGVS = [
    [], ["--help"], ["-h"], ["-h", "--bogus"], ["--bogus"], ["frobnicate", "g"],
    ["--", "forked", "g"], ["forked"], ["forked", "g"], ["forked", "g", "--json"],
    ["forked", "--help"], ["forked", "g", "h"], ["forked", "g", "-x", "h"], ["forked", "-"],
    ["classify", "-h", "--bogus"], ["classify", "g", "--he"],
    ["classify", "g", "--enumerate", "--bound", "3"], ["classify", "g", "--enum", "--bou", "6"],
    ["classify", "g", "--e"], ["classify", "g", "--bound", "0"], ["classify", "g", "--bound=-3"],
    ["classify", "g", "--bound", "x"], ["classify", "g", "--", "--enumerate"],
    ["lattice", "g", "--bound", "60", "--json"], ["lattice", "g", "--dot", "out.dot"],
    ["lattice", "g", "--bogus"], ["lattice", "g", "--bogus", "--bound", "0"],
    ["lattice", "g", "--", "--json"], ["lattice", "--", "g"], ["lattice", "g", "--bound"],
    ["lattice", "g", "--d"], ["lattice", "g", "--json=1"],
    ["semigroup", "g", "--json", "--json"], ["semigroup", "--json"],
    ["oracle", "g", "--cap", "x"], ["oracle", "g", "--cap", "5"], ["oracle", "g", "--ca=7", "--js"],
    ["oracle", "--cap", "3"],
    ["lattice", "g", "--bound", "3", "--bound", "6"], ["lattice", "g", "--dot", "--json"],
    ["lattice", "g", "--dot", "-"], ["classify", "g", "--bound", "-3"],
    ["classify", "g", "--bound", "\u0663"], ["classify", "g", "--bound", " 7"],
    ["classify", "forked"], ["lattice", "--json", "g"], ["forked", ""],
    ["oracle", "g", "--cap", "99999999999999999999"], ["oracle", "g"],
]


def _parsed(parse, argv):
    """The namespace ``parse(argv)`` returns, or its exit code and output,
    with help wrapped at a fixed width."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with mock.patch.dict(os.environ, COLUMNS="80"):
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                return vars(parse(argv))
    except SystemExit as stop:
        return stop.code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("argv", PARSER_ARGVS, ids=" ".join)
def test_main_parses_as_the_full_parser(argv):
    # parse_args reads a plain argv off the command table and hands any
    # other to the full parser; either way its help, errors and namespace
    # are the full parser's.
    assert _parsed(parse_args, argv) == _parsed(build_parser().parse_args, argv)


COMMANDS = ["forked", "classify", "lattice", "semigroup", "oracle"]
VALUES = ["0", "3", "-3", "x", "g", ""]
ARGV_TOKENS = st.sampled_from(
    COMMANDS + ["--json", "--enumerate", "--bound", "--dot", "--cap"]
    + ["--enum", "--bound=6", "--", "-", "-h"] + VALUES
)


@st.composite
def drawn_argvs(draw):
    """An argv over a fixed alphabet: at times any tokens, more often a
    command, a value and some of that command's options in any order, a
    value after each option that takes one, and at times one more token
    anywhere, so that many argvs are plain and many others one token off."""
    if draw(st.integers(0, 3)) == 0:
        return draw(st.lists(ARGV_TOKENS, max_size=5))
    name = draw(st.sampled_from(COMMANDS))
    chunks = [[draw(st.sampled_from(VALUES))]]
    for flag in draw(st.lists(st.sampled_from(COMMAND_FLAGS[name]), max_size=3)):
        valued = flag in ("--bound", "--dot", "--cap")
        chunks.append([flag, draw(st.sampled_from(VALUES))] if valued else [flag])
    argv = [name, *chain.from_iterable(draw(st.permutations(chunks)))]
    if draw(st.booleans()):
        argv.insert(draw(st.integers(1, len(argv))), draw(ARGV_TOKENS))
    return argv


@settings(max_examples=150, deadline=None)
@given(drawn_argvs())
def test_parse_args_matches_the_full_parser_on_drawn_argvs(argv):
    assert _parsed(parse_args, argv) == _parsed(build_parser().parse_args, argv)


def test_main_without_argv_reads_sys_argv(files, capsys, monkeypatch):
    monkeypatch.setattr(sys, "argv", ["gislat", "forked", files["g1"], "--json"])
    assert main() == 0
    assert json.loads(capsys.readouterr().out) == {"forked_vertices": ["v1"]}
    monkeypatch.setattr(sys, "argv", ["gislat", "forked", files["g1"], "--bogus"])
    with pytest.raises(SystemExit) as err:
        main()
    assert err.value.code == 1
    assert capsys.readouterr().err.endswith("gislat: error: unrecognized arguments: --bogus\n")


# ------------------------------------------------------------ fuzz

NAMES = st.sampled_from("abcde")  # at most five vertices
FLAG_VALUES = st.sampled_from(["-5", "0", "1", "2", "6", "x"])
EDGE_LINES = st.builds("edge e{} {} {}".format, st.integers(0, 3), NAMES, NAMES)
ODD_LINES = st.sampled_from(
    ["", "# note", "vertex", "vertex a", "vertex a b", "edge e a", "node a", "vertex a-b"]
)
COMMAND_FLAGS = {
    "forked": ["--json"],
    "classify": ["--json", "--enumerate", "--bound"],
    "lattice": ["--json", "--bound", "--dot"],
    "semigroup": ["--json"],
    "oracle": ["--json", "--cap"],
}


@st.composite
def cli_calls(draw):
    """Graph file bytes (at times not UTF-8) and an argv for them; edge
    names e0..e3 keep every graph small enough to answer at once."""
    lines = [f"vertex {v}" for v in draw(st.lists(NAMES, unique=True))]
    lines += draw(st.lists(EDGE_LINES, max_size=4))
    for odd in draw(st.lists(ODD_LINES, max_size=2)):
        lines.insert(draw(st.integers(0, len(lines))), odd)
    text = "\n".join(lines)
    data = text.encode() + draw(st.sampled_from([b"", b"\n", b"\xff\n"]))
    command = draw(st.sampled_from(sorted(COMMAND_FLAGS)))
    argv = [command]
    for flag in draw(st.lists(st.sampled_from(COMMAND_FLAGS[command]), unique=True)):
        argv.append(flag)
        if flag in ("--bound", "--cap"):
            argv.append(draw(FLAG_VALUES))
        elif flag == "--dot":
            argv.append(draw(st.sampled_from(["out.dot", "missing/out.dot"])))
    return data, argv


@settings(max_examples=300, deadline=10_000)
@given(cli_calls())
def test_cli_fuzz_ends_with_an_exit_code_and_one_error_line(call):
    data, argv = call
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        graph = Path(tmp, "g.graph")
        graph.write_bytes(data)
        argv = [argv[0], str(graph)] + [
            str(Path(tmp, a)) if a.endswith(".dot") else a for a in argv[1:]
        ]
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as usage:  # argparse: usage lines, then one error line
                assert usage.code == 1
                assert err.getvalue().count("error:") == 1
                return
    assert code in (0, 1, 2)
    if code:
        assert err.getvalue().count("\n") == 1 and err.getvalue().startswith("error: ")
    else:
        assert err.getvalue() == ""
