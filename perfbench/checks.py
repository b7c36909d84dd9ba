"""Answer checks: each CLI output against the answers its input must give.

Only label-independent facts are compared (sizes, verdicts, witness kind,
agreement, counts), plus the forked vertex names, which are mapped through
the run's relabeling.  A check returns a list of problems; an empty list
means the answer is right.
"""

from __future__ import annotations

import json
import re

_DOT_NODE = re.compile(r"^  n\d+ \[label=", re.M)
_DOT_EDGE = re.compile(r"^  n\d+ -> n\d+;$", re.M)


def check(case, expected: dict, code: int, stdout: str, dot: str | None) -> list[str]:
    if code != expected["exit"]:
        return [f"exit code {code}, expected {expected['exit']}"]
    try:
        data = json.loads(stdout)
    except ValueError:
        return ["stdout is not one JSON document"]
    return _BY_COMMAND[case.command](case, expected, data, dot)


def _differences(want: dict, data: dict, unchecked=()) -> list[str]:
    """Fields that differ from ``want``, and keys that are neither wanted
    nor listed in ``unchecked``."""
    out = [f"{k}: got {data.get(k)!r}, expected {v!r}" for k, v in want.items() if data.get(k) != v]
    extra = sorted(set(data) - set(want) - set(unchecked))
    if extra:
        out.append(f"unexpected keys {extra}")
    return out


def _forked(case, exp, data, dot) -> list[str]:
    return _differences({"forked_vertices": exp["forked"]}, data)


def _classify(case, exp, data, dot) -> list[str]:
    want = {
        "graph": exp["graph"],
        "forked_vertices": exp["forked"],
        "predicted": exp["predicted"],
        "computed": None,
        "lattice_size": None,
        "bounded": None,
        "witness": None,
        "agreement": None,
    }
    problems = []
    if "size" in exp:
        want.update(
            computed=exp["verdicts"], lattice_size=exp["size"], bounded=exp["bounded"],
            agreement=True,
        )
        witness = data.get("witness")
        if not exp["verdicts"]["distributive"]:
            # Non-modular, so a pentagon exists and is searched for first.
            if not (
                isinstance(witness, dict)
                and witness.get("kind") == "pentagon"
                and len(witness.get("members", ())) == 5
            ):
                problems.append(f"witness: got {witness!r}, expected a pentagon")
            want["witness"] = witness
    return problems + _differences(want, data)


def _lattice(case, exp, data, dot) -> list[str]:
    elements, covers = data.get("elements", []), data.get("covers", [])
    n = len(elements)
    problems = _differences(
        {"verdicts": exp["verdicts"], "bounded": exp["bounded"]}, data, ("elements", "covers")
    )
    if n != exp["size"]:
        problems.append(f"{n} elements, expected {exp['size']}")
    if len(covers) != exp["covers"]:
        problems.append(f"{len(covers)} cover pairs, expected {exp['covers']}")
    if not all(len(p) == 2 and 0 <= p[0] < n and 0 <= p[1] < n and p[0] != p[1] for p in covers):
        problems.append("cover pair out of range")
    if case.dot:
        nodes = len(_DOT_NODE.findall(dot or ""))
        edges = len(_DOT_EDGE.findall(dot or ""))
        if (nodes, edges) != (n, len(covers)):
            problems.append(f"DOT has {nodes} nodes and {edges} edges, expected {n} and {len(covers)}")
    return problems


def _semigroup(case, exp, data, dot) -> list[str]:
    size = exp["semigroup_size"]
    elements, table = data.get("elements", []), data.get("table", [])
    problems = _differences({}, data, ("elements", "table"))
    if len(elements) != size or "0" not in elements:
        problems.append(f"{len(elements)} elements, expected {size} including 0")
    if len(table) != size or not all(
        len(row) == size and all(isinstance(x, int) and 0 <= x < size for x in row)
        for row in table
    ):
        problems.append(f"table is not {size} x {size} over element indices")
    return problems


def _oracle(case, exp, data, dot) -> list[str]:
    return _differences(
        {
            "semigroup_size": exp["semigroup_size"],
            "congruences": exp["triples"],
            "triples": exp["triples"],
            "order_isomorphic": True,
        },
        data,
    )


_BY_COMMAND = {
    "forked": _forked,
    "classify": _classify,
    "lattice": _lattice,
    "semigroup": _semigroup,
    "oracle": _oracle,
}
