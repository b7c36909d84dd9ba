"""Every command of the golden manifest (``tests/golden.py``) gives the
recorded exit code and bytes, and the cap-sized commands give the answers
the paper predicts, so a rewritten manifest cannot record a wrong one."""

import json

import pytest
from golden import (
    MANIFEST, cases, first_difference, interleaved_cases, manifest_line, runs, scale_cases,
    semigroup_text_cases, two_word_cases,
)

READ = (0, 1, 2, 3, 4, 5, 11, 12, 13, 14, 15, 16, 18, 20, 21, 22)  # positions in scale_cases()
TWO_WORDS = len(scale_cases()) + len(interleaved_cases())  # the first of two_word_cases() after them


@pytest.fixture(scope="module")
def recorded():
    """Every manifest line, and (exit code, stdout, stderr) of the READ
    scale cases by position, from one run of the manifest."""
    first = len(cases()) - TWO_WORDS - len(two_word_cases()) - len(semigroup_text_cases())
    lines, kept = [], {}
    for k, run in enumerate(runs()):
        lines.append(manifest_line(*run))
        if k - first in (*READ, TWO_WORDS, TWO_WORDS + 1):
            kept[k - first] = run[1:4]
    return lines, kept


def test_every_command_matches_the_golden_manifest(recorded):
    diff = first_difference(recorded[0], MANIFEST.read_text(encoding="utf-8").splitlines())
    assert diff is None, diff


def test_the_cap_sized_commands_give_the_predicted_answers(recorded):
    kept = recorded[1]
    doc = {k: json.loads(out) for k, (code, out, _) in kept.items() if code == 0 and out}
    # path12, u3x4 and fan2 + chain9: the lattice size, predicted verdicts
    # equal to the computed ones, distributive, or a pentagon
    for k, size in ((0, 4096), (2, 4096), (4, 3584)):
        assert (doc[k]["lattice_size"], doc[k]["agreement"]) == (size, True)
        assert len(doc[k + 1]["elements"]) == size
    for k in (0, 2):
        assert doc[k]["computed"]["distributive"] and doc[k + 1]["verdicts"]["distributive"]
    assert doc[4]["witness"]["kind"] == "pentagon" and not doc[4]["computed"]["modular"]
    assert not doc[5]["verdicts"]["modular"]
    # oracle on path5, path7, fan9, iso10, iso11 and iso12: the congruence
    # count, order-isomorphic to the triple lattice
    for k, n in zip((*range(11, 16), 22), (32, 128, 522, 1024, 2048, 4096)):
        assert (doc[k]["congruences"], doc[k]["order_isomorphic"]) == (n, True)
    assert len(doc[16]["elements"]) == 820  # semigroup on path13
    assert kept[18] == (0, b"", b"")  # forked on ring5000: none
    assert (doc[20]["graph"]["vertices"], len(doc[20]["forked_vertices"])) == (900, 841)
    # the fork over two loops under 2^39: 1934 elements, keyed in two words,
    # neither distributive nor modular, with a pentagon
    classify, lattice = doc[TWO_WORDS], doc[TWO_WORDS + 1]
    assert (classify["lattice_size"], len(lattice["elements"])) == (1934, 1934)
    assert not classify["computed"]["distributive"] and not lattice["verdicts"]["modular"]
    assert classify["witness"]["kind"] == "pentagon" and classify["agreement"] is True
    code, _, err = kept[21]
    assert code == 1 and err.endswith(b": line 10001: edge 'bad' references undeclared vertex 'nowhere'\n")
