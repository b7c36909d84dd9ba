import itertools
import operator
import random

import numpy as np
import pytest
from hypothesis import given, settings

import gislat.lattice
from gislat.graph import DirectedGraph, parse_graph
from gislat.lattice import (
    NotALatticeError,
    _covers,
    _keyed,
    _stable_signatures,
    SublatticeWitness,
    find_diamond,
    find_pentagon,
    from_poset,
    hasse_dot,
    is_distributive,
    is_lower_semimodular,
    is_modular,
    is_upper_semimodular,
    order_isomorphic,
    product_covers,
    product_diamond,
    product_pentagon,
    product_verdicts,
    product_witness,
)
from gislat.triples import render_triple, triple_lattice

from helpers import (
    acyclic_corpus,
    brute_between,
    brute_first_diamond,
    brute_first_non_lattice_pair,
    brute_first_pentagon,
    brute_glb_index,
    brute_lub_index,
    brute_order_isomorphic,
    closure_lattice,
    closure_lattice_strategy,
    cyclic_corpus,
    height_levels,
    induction_tables,
    key_tables,
    lattice_verdicts,
    oracle_verdicts,
    product_lattice,
    table_semimodularity,
    transposed_in_tiles,
    witness_is_valid,
)


def cover_matrix(lat):
    """``cov[a, b]``: b covers a, rebuilt from the cover pairs."""
    cov = np.zeros((lat.n, lat.n), dtype=bool)
    cov[lat.cover_pairs] = True
    return cov


def lattice_from_covers(labels, cover_pairs):
    """Build a lattice from Hasse edges (lower, upper): reflexive-transitive
    closure gives the order."""
    above = {a: {a} for a in labels}
    changed = True
    while changed:
        changed = False
        for lo, up in cover_pairs:
            new = above[up] - above[lo]
            if new:
                above[lo] |= new
                changed = True
    return from_poset(labels, lambda a, b: b in above[a])


def pentagon():
    # o < a < b < i chain, side c
    return lattice_from_covers(
        "oabci", [("o", "a"), ("a", "b"), ("b", "i"), ("o", "c"), ("c", "i")]
    )


def diamond():
    return lattice_from_covers(
        "oabci", [("o", "a"), ("o", "b"), ("o", "c"), ("a", "i"), ("b", "i"), ("c", "i")]
    )


def chain(n):
    return lattice_from_covers(list(range(n)), [(i, i + 1) for i in range(n - 1)])


def seeded_closure_lattices():
    """600 closure lattices of up to five points, which between them reach
    all five verdict combinations."""
    rng = random.Random(2024)
    lattices = []
    for _ in range(600):
        points = rng.randint(1, 5)
        gens = [rng.randint(0, (1 << points) - 1) for _ in range(rng.randint(0, 7))]
        lattices.append(closure_lattice(points, gens))
    return lattices


# ------------------------------------------------------------ building


def test_from_poset_gamma2_matches_reference_diagram(gamma2):
    lat = triple_lattice(gamma2)
    assert len(lat) == 6
    names = [render_triple(t) for t in lat.labels]
    assert names == [
        "({},{},{})",
        "({u2},{},{})",
        "({w2},{},{})",
        "({w2},{v2},{})",
        "({u2,w2},{},{})",
        "({u2,v2,w2},{},{})",
    ]
    assert sorted((lo, up) for up, lo in lat.cover_set) == [
        (0, 1),
        (0, 2),
        (1, 4),
        (2, 3),
        (2, 4),
        (3, 5),
        (4, 5),
    ]


def test_from_poset_trivial():
    for labels in ([], ["x"]):
        lat = from_poset(labels, lambda a, b: True)
        meets, joins = key_tables(lat)
        assert len(lat) == len(labels)
        assert all(meets[i, i] == i and joins[i, i] == i for i in range(len(labels)))
        assert lat.cover_set == frozenset()


def test_from_poset_antichain_is_not_a_lattice():
    with pytest.raises(NotALatticeError) as err:
        from_poset(["x", "y"], lambda a, b: a == b)
    assert set(err.value.pair) == {"x", "y"}


@pytest.mark.parametrize(
    "labels, covers, pair, which",
    [
        ("oab", ["oa", "ob"], ("a", "b"), "join"),  # every meet, no top
        ("cdabi", ["ca", "cb", "da", "db", "ai", "bi"], ("c", "d"), "meet"),  # a top
        ("oabcdi", ["oa", "ob", "ac", "ad", "bc", "bd", "ci", "di"], ("a", "b"), "join"),
        (["o", "b", "j", "x1", "x2", "u1", "u2", "i"],
         [("o", "b"), ("o", "j"), ("o", "x1"), ("o", "x2"), ("b", "u1"), ("b", "u2"), ("j", "u1"), ("j", "u2"),
          ("x1", "u1"), ("x2", "u2"), ("u1", "i"), ("u2", "i")], ("b", "j"), "join"),
    ],
)
def test_from_poset_names_the_first_missing_bound(labels, covers, pair, which):
    """The first pair without a meet or join, the meet before the join,
    whether or not the poset has a top: a bottom under two maximal
    elements, a top over two elements with two maximal lower bounds, a
    bounded poset whose first failing pair lacks a join though a later one
    lacks a meet, and b and j under u1 and u2, each also over an atom of
    its own, under a top."""
    with pytest.raises(NotALatticeError) as err:
        lattice_from_covers(labels, covers)
    assert (err.value.pair, err.value.which) == (pair, which)


def test_first_missing_bound_stops_at_its_row_block(monkeypatch):
    """The 2^11 Boolean lattice less its top, plus one element above the
    bottom only: 2048 elements, whose packed down- and up-sets take 32
    words, so the pairs are looked up one row at a time.  1 and 2046 have
    no join, and the scan stops at row 1, after two blocks each of meets
    and joins, where the whole tables took 2048.  Its keys proved it a
    partial order, so key inclusion is compared once, not again on the
    32-word down-sets for transitivity."""
    b = np.arange(1 << 11)
    m = np.pad(boolean_order(11)[:-1, :-1], ((0, 1), (0, 1)))
    m[-1, -1] = m[0, -1] = True
    starts, row_blocks = [], gislat.lattice._row_blocks
    inclusions, inclusion = [], gislat.lattice._inclusion
    monkeypatch.setattr(gislat.lattice, "_inclusion", lambda k, m: inclusions.append(len(k)) or inclusion(k, m))

    def counted(keys):
        for block in row_blocks(keys):
            starts.append(block[0])
            yield block

    monkeypatch.setattr(gislat.lattice, "_row_blocks", counted)
    with pytest.raises(NotALatticeError) as err:
        from_poset(b.tolist(), m)
    assert str(err.value) == "no unique join for 1 and 2046" and err.value.pair == (1, 2046)
    assert starts == [0, 0, 1, 1] and inclusions == [1]


def test_join_table_is_built_on_first_read():
    """The meets and joins read off a lattice's keys, K(a) & K(b) and
    M(a) & M(b), are the greatest lower and least upper bounds by direct
    scan, and the tables of the induction reference on the order and its
    dual, on the seeded closure lattices."""
    for lat in seeded_closure_lattices():
        meets, joins = induction_tables(lat)
        rows = lat.leq.tolist()
        glb = [[brute_glb_index(rows, i, j) for j in range(lat.n)] for i in range(lat.n)]
        lub = [[brute_lub_index(rows, i, j) for j in range(lat.n)] for i in range(lat.n)]
        assert [t.tolist() for t in key_tables(lat)] == [meets.tolist(), joins.tolist()] == [glb, lub]


def brute_covers(m: np.ndarray) -> list[list[int]]:
    """(lower, upper) of every cover pair of the partial order ``m``,
    sorted, one k at a time."""
    lt = m & ~np.eye(len(m), dtype=bool)
    return [x.tolist() for x in np.nonzero(lt & ~brute_between(lt))]


def m_atoms(k):
    """The order of M_k: a bottom 0 under k atoms under a top k + 1."""
    i = np.arange(k + 2)
    return (i[:, None] == i) | (i[:, None] == 0) | (i == k + 1)


def boolean_order(k):
    """The order of the Boolean lattice 2^k on the bitmasks 0 .. 2^k - 1."""
    b = np.arange(1 << k)
    return (b[:, None] & b) == b[:, None]


def counting_words(monkeypatch):
    """Count the calls of lattice._words: from_poset packs the keys and the
    growing pairs, and a third call packs the up-sets."""
    calls = []
    words = gislat.lattice._words
    monkeypatch.setattr(gislat.lattice, "_words", lambda rows: calls.append(1) or words(rows))
    return calls


def test_birkhoff_certificate_accepts_exactly_the_distributive_lattices(monkeypatch):
    """The keys give every join of a growing pair, K(x) ∪ {j}, exactly when
    the order is a distributive lattice (then it is O(J'), Birkhoff), so
    only the other lattices pack their up-sets.  The cover pairs are the
    order's covers, one k at a time, and a poset is declined exactly when
    the brute-force bounds find no lattice: on the seeded closure lattices,
    random posets, lattices of two and three key words, the Boolean
    lattices 2^1, 2^4 and 2^10 (k·2^(k-1) covers) and M_300, whose atoms'
    joins are no key's."""
    rng = random.Random(27)
    orders = [lat.leq for lat in seeded_closure_lattices() + key_word_lattices()]
    for labels, leq in (random_poset(rng) for _ in range(1000)):
        orders.append(np.array([[leq(a, b) for b in labels] for a in labels], dtype=bool))
    orders += [boolean_order(k) for k in (1, 4, 10)] + [m_atoms(300)]
    calls = counting_words(monkeypatch)
    seen = {"distributive": 0, "up-sets": 0, "declined": 0}
    for m in orders:
        calls.clear()
        try:
            lat = from_poset(range(len(m)), m)
        except NotALatticeError:
            assert brute_first_non_lattice_pair(m.tolist()) is not None
            seen["declined"] += 1
            continue
        assert [c.tolist() for c in lat.cover_pairs] == brute_covers(m)
        assert (len(calls) == 2) == is_distributive(lat)
        seen["distributive" if len(calls) == 2 else "up-sets"] += 1
    assert len(calls) == 3 and min(seen.values()) >= 200, seen  # M_300 comes last
    assert [len(from_poset(range(1 << k), boolean_order(k)).cover_set) for k in (1, 4, 10)] == [1, 32, 5120]


def test_birkhoff_certificate_compares_the_whole_order():
    """The chain 0 < 1 < 2 < 3 without 1 <= 3 is not transitive, yet its
    keys over J' = {1, 2}, {} {1} {1, 2} {2}, are distinct and hold K ∪ {j}
    for every j that K may grow by: only the comparison of the order with
    key inclusion declines it, and the partial-order checks name the
    failure."""
    m = np.tri(4, dtype=bool).T
    m[1, 3] = False
    assert _keyed(m) is None
    with pytest.raises(ValueError, match="not transitive"):
        from_poset(range(4), m)


def test_birkhoff_certificate_holds_past_63_join_irreducibles(monkeypatch):
    """A chain of n elements has n - 1 join-irreducibles, keyed in
    ceil((n - 1) / 64) words: at 64, 65, 66 and 130 elements, in one, one,
    two and three words, the keys give every join of a growing pair, with
    no up-sets packed, and the chain's cover pairs, meets, joins and
    verdicts.  Only x = j - 1 grows by j, so n - 1 keys are looked up."""
    calls, looked_up, find = counting_words(monkeypatch), [], gislat.lattice._find
    monkeypatch.setattr(gislat.lattice, "_find", lambda i, q: looked_up.append(q.shape[1]) or find(i, q))
    for n, words in ((64, 1), (65, 1), (66, 2), (130, 3)):
        i = np.arange(n)
        m = i[:, None] <= i
        keyed = _keyed(m)
        assert keyed[2].shape == (words, n)
        covers = [i[:-1].tolist(), i[1:].tolist()]
        calls.clear()
        looked_up.clear()
        assert [c.tolist() for c in _covers(m, *keyed)] == covers
        assert len(calls) == 1 and looked_up == [n - 1]  # the growing pairs
        lat = from_poset(i.tolist(), m)
        assert [c.tolist() for c in lat.cover_pairs] == covers
        meets, joins = key_tables(lat)
        assert (meets == np.minimum(i[:, None], i)).all() and (joins == np.maximum(i[:, None], i)).all()
        assert all(lattice_verdicts(lat)[0].values())


def test_birkhoff_declines_wide_orders_before_any_lookup(monkeypatch):
    """The covers of a distributive lattice of n elements are hypercube
    edges among n keys, at most n·log2(n)/2 of them, so an order with more
    growing pairs looks up no key and takes every join from the up-sets:
    in M_300 each atom grows the bottom and the 299 other atoms, 90000
    pairs against about 1244.  The Boolean lattices meet the bound exactly
    and are certified by their keys, with no up-sets packed."""
    m = m_atoms(300)
    keyed, looked_up, find = _keyed(m), [], gislat.lattice._find

    def find_no_key(index, query):
        assert index is not keyed[3], "a key was looked up"
        looked_up.append(query.shape[1])
        return find(index, query)

    with monkeypatch.context() as patch:
        patch.setattr(gislat.lattice, "_find", find_no_key)
        assert [c.tolist() for c in _covers(m, *keyed)] == brute_covers(m)
    assert sum(looked_up) == 300 * 300
    calls = counting_words(monkeypatch)
    for k in (1, 4, 10):
        m = boolean_order(k)
        keyed = _keyed(m)
        calls.clear()
        low, up = _covers(m, *keyed)
        assert len(calls) == 1 and len(low) == k << (k - 1) == len(m) * k // 2  # the growing pairs
        assert [low.tolist(), up.tolist()] == brute_covers(m)


def definition_keyed_checks(rows) -> dict[str, bool]:
    """The checks of from_poset's route, from their definitions on sets:
    J' holds each j with some c < j and |↓c| = |↓j| - 1 (in a partial
    order, whose strict down-set has a greatest element), and x is keyed
    by the J' below it.  "distinct" keys, the order equal to key
    "inclusion", and "joins": every x and j ∉ K(x) whose strict J'-down-set
    lies in K(x) (j grows x) have a least upper bound.  "by_keys": each
    such join is keyed K(x) ∪ {j}."""
    n = len(rows)
    below = [{y for y in range(n) if rows[y][x]} for x in range(n)]
    strict = [below[x] - {x} for x in range(n)]
    irreducible = {x for x in range(n) if any(len(below[c]) == len(strict[x]) for c in strict[x])}
    key = [frozenset(irreducible & below[x]) for x in range(n)]
    growing = [(x, j) for j in irreducible for x in range(n) if j not in key[x] and key[j] - {j} <= key[x]]
    return {
        "distinct": len(set(key)) == n,
        "inclusion": all(rows[x][y] == (key[x] <= key[y]) for x in range(n) for y in range(n)),
        "joins": all(brute_lub_index(rows, x, j) is not None for x, j in growing),
        "by_keys": all(key[x] | {j} in key for x, j in growing),
    }


# For each check of the route, a poset that it alone declines: with the
# check dropped, from_poset would return a lattice.  The error is the one
# from_poset raised before the keyed route (the induction tables).
ONE_CHECK_POSETS = {
    # all-true on two elements: every key is ∅, so inclusion holds and
    # nothing grows; not antisymmetric
    "distinct": ([1, 2], [[True, True], [True, True]], {"distinct": False, "inclusion": True, "joins": True},
                 ValueError, "leq is not antisymmetric"),
    # the four-element Boolean lattice without 0 <= 3: distinct keys {} {1}
    # {2} {1, 2, 3}, whose growing pairs all have joins
    "inclusion": (range(4), [[a == b or (a, b) in {(0, 1), (0, 2), (1, 3), (2, 3)} for b in range(4)]
                             for a in range(4)],
                  {"distinct": True, "inclusion": False, "joins": True},
                  ValueError, "leq is not transitive"),
    # a bottom under two maximal elements: a grows b, and has no join with it
    "joins": ("oab", "oa ob", {"distinct": True, "inclusion": True, "joins": False},
              NotALatticeError, "no unique join for 'a' and 'b'"),
}


def one_check_poset(check):
    labels, order, expected, error, message = ONE_CHECK_POSETS[check]
    if isinstance(order, str):  # cover pairs, "lower-upper" or two letters
        pairs = [tuple(c.split("-")) if "-" in c else tuple(c) for c in order.split()]
        index = {x: k for k, x in enumerate(labels)}
        order = lattice_order(len(labels), [(index[a], index[b]) for a, b in pairs])
    return labels, np.array(order, dtype=bool), expected, error, message


def lattice_order(n, covers) -> list[list[bool]]:
    """The reflexive-transitive closure of cover pairs on range(n)."""
    m = np.eye(n, dtype=bool)
    for _ in range(n):
        for lo, up in covers:
            m[:, up] |= m[:, lo]
    return m.tolist()


@pytest.mark.parametrize("check", list(ONE_CHECK_POSETS))
def test_each_keyed_check_alone_declines_a_poset(check):
    """Distinct keys, the order equal to key inclusion and the joins of the
    growing pairs each decline a small poset that every other check of the
    route passes, and from_poset then raises the error class, message and
    pair it raised with the induction tables."""
    labels, m, expected, error, message = one_check_poset(check)
    got = definition_keyed_checks(m.tolist())
    assert {k: got[k] for k in expected} == expected
    with pytest.raises(error) as err:
        from_poset(labels, m)
    assert type(err.value) is error and str(err.value) == message
    if error is NotALatticeError:
        i, j, which = brute_first_non_lattice_pair(m.tolist())
        assert (err.value.pair, err.value.which) == ((labels[i], labels[j]), which)


def test_the_keyed_checks_decide_lattices(monkeypatch):
    """On random and closure posets: a poset is a lattice iff its keys are
    distinct, its order is key inclusion and every growing pair has a join.
    from_poset packs the up-sets exactly when some such join is no key's
    K(x) ∪ {j}; there are lattices of both kinds."""
    rng = random.Random(34)
    posets = [random_poset(rng) for _ in range(1500)] + [random_closure_poset(rng) for _ in range(60)]
    calls = counting_words(monkeypatch)
    seen = {"by_keys": 0, "up-sets": 0, "declined": 0}
    for labels, leq in posets:
        rows = [[leq(a, b) for b in labels] for a in labels]
        c = definition_keyed_checks(rows)
        lattice = c["distinct"] and c["inclusion"] and c["joins"]
        assert lattice == (brute_first_non_lattice_pair(rows) is None)
        if lattice:
            calls.clear()
            from_poset(labels, np.array(rows, dtype=bool))
            assert len(calls) == 3 - c["by_keys"]
        seen["declined" if not lattice else "by_keys" if c["by_keys"] else "up-sets"] += 1
    assert min(seen.values()) >= 100, seen


def under_chain(lattice, k):
    """``lattice`` with a chain of k elements on top, from its order alone."""
    n = lattice.n
    m = np.ones((n + k, n + k), dtype=bool)
    m[:n, :n] = lattice.leq
    m[n:, :n] = False
    m[n:, n:] = np.tri(k, dtype=bool).T
    return from_poset(range(n + k), m)


def key_word_lattices():
    """Lattices keyed in two and three words: M3 and N5 under a 70-chain
    (73 join-irreducibles, 2 words) and the 130-chain (129, 3 words)."""
    i = np.arange(130)
    return [under_chain(diamond(), 70), under_chain(pentagon(), 70), from_poset(i.tolist(), i[:, None] <= i)]


def test_keyed_tables_and_cover_verdicts_match_the_references():
    """The meet and join tables built by key lookup are the induction
    reference's, and the semimodularity read off the cover pairs alone is
    the table reference's, on the seeded closure lattices (one key word)
    and on lattices of two and three key words, where brute-force bounds
    check sampled rows and the witness is the brute-force scans' first.
    from_poset's random lattices are checked the same way by
    check_against_bruteforce."""
    rng = random.Random(340)
    multi = key_word_lattices()
    assert [lat.keys.shape[0] for lat in multi] == [2, 2, 3]
    assert [lat.dual_keys.shape[0] for lat in multi] == [2, 2, 3]
    verdicts = set()
    for lat in seeded_closure_lattices() + multi:
        assert [t.tolist() for t in key_tables(lat)] == [t.tolist() for t in induction_tables(lat)]
        assert (is_upper_semimodular(lat), is_lower_semimodular(lat)) == table_semimodularity(lat)
        verdicts.add((is_upper_semimodular(lat), is_lower_semimodular(lat)))
    assert len(verdicts) == 4
    for lat in multi:
        rows, (meets, joins) = lat.leq.tolist(), key_tables(lat)
        for a in [0, 4, *rng.sample(range(lat.n), 3)]:
            for b in range(lat.n):
                assert meets[a, b] == brute_glb_index(rows, a, b)
                assert joins[a, b] == brute_lub_index(rows, a, b)
    m3, n5, chain130 = multi
    assert lattice_verdicts(m3) == ({"distributive": False, "modular": True, "lower_semimodular": True,
                                     "upper_semimodular": True}, brute_first_diamond(m3))
    pentagon_witness = SublatticeWitness("pentagon", (0, 1, 2, 3, 4))
    assert lattice_verdicts(n5)[1] == brute_first_pentagon(n5) == pentagon_witness
    assert all(lattice_verdicts(chain130)[0].values())


def test_from_poset_rejects_non_partial_orders():
    with pytest.raises(ValueError, match="reflexive"):
        from_poset([1, 2], lambda a, b: a < b)
    with pytest.raises(ValueError, match="antisymmetric"):
        from_poset([1, 2], lambda a, b: True)
    order = {(1, 1), (2, 2), (3, 3), (1, 2), (2, 3)}
    with pytest.raises(ValueError, match="transitive"):
        from_poset([1, 2, 3], lambda a, b: (a, b) in order)


def test_from_poset_counts_paths_exactly_past_256():
    # 256 elements lie strictly between 0 and 257, a count that wraps to 0
    # in an 8-bit integer matrix product.
    lat = from_poset(range(258), operator.le)
    assert lat.cover_set == frozenset((i + 1, i) for i in range(257))

    def leq(a, b):  # 0 <= k <= 257 for every k in between, but not 0 <= 257
        return a == b or (a == 0 and b != 257) or (b == 257 and a != 0)

    with pytest.raises(ValueError, match="transitive"):
        from_poset(range(258), leq)


def test_transposed_copy_in_tiles():
    """The join table's order, m.T copied tile by tile, in row order, for
    sizes on both sides of a tile edge."""
    rng = np.random.default_rng(77)
    for n in (0, 1, 7, 255, 256, 257, 600):
        m = rng.random((n, n)) < 0.3
        t = transposed_in_tiles(m)
        assert t.flags.c_contiguous and t.dtype == bool and np.array_equal(t, m.T)


def test_transitivity_matches_bruteforce_between():
    """from_poset raises "leq is not transitive" exactly when some pair
    i < k < j has i ≰ j, one k at a time, on relations made reflexive and
    antisymmetric: empty, one element, seeded random of every density,
    and the 600-chain without (1, 599) or (597, 599).  Without (597, 599)
    the one row where x <= 599 yet ↓x ⊄ ↓599 is 598, in the last row block
    of 2^14 // 600 = 27 rows."""
    rng = np.random.default_rng(13)
    relations = [np.zeros((0, 0), dtype=bool), np.zeros((1, 1), dtype=bool)]
    for n in (2, 5, 63, 64, 65, 130, 600):
        for density in (0.02, 0.2, 0.6, 1.0):
            r = rng.random((n, n)) < density
            relations.append(r & ~r.T)
    i = np.arange(600)
    for pair in ((1, 599), (597, 599)):
        chain = i[:, None] < i
        chain[pair] = False
        relations.append(chain)
    assert (len(i) - 1) // ((1 << 14) // len(i)) == 598 // 27
    transitive = 0
    for lt in relations:
        np.fill_diagonal(lt, False)
        m = lt | np.eye(len(lt), dtype=bool)
        if (brute_between(lt) & ~m).any():
            with pytest.raises(ValueError, match="^leq is not transitive$"):
                from_poset(range(len(m)), m)
        else:
            transitive += 1
            try:
                from_poset(range(len(m)), m)
            except NotALatticeError:
                pass
    assert min(transitive, len(relations) - transitive) >= 10, transitive


def random_poset(rng, sizes=(1, 9)):
    """Shuffled labels and the order of a random DAG's transitive closure;
    half the time with a bottom and a top, so lattices come up often."""
    n = rng.randint(*sizes)
    p = rng.random()
    above = [{i} | {j for j in range(i + 1, n) if rng.random() < p} for i in range(n)]
    if rng.random() < 0.5:
        above[0] = set(range(n))
        for up in above:
            up.add(n - 1)
    for i in reversed(range(n)):  # every successor of i is larger, hence closed
        for j in list(above[i]):
            above[i] |= above[j]
    return rng.sample(range(n), n), lambda a, b: b in above[a]


def random_closure_poset(rng):
    """20 to 40 subsets of six points, closed under intersection and holding
    the full set: a lattice under inclusion whose elements have several
    lower covers.  Half the time one to three sets are dropped, which often
    leaves a non-lattice.  Shuffled, as bitmask labels."""
    family = {63}
    while not 20 <= len(family) <= 40:
        family = {63}
        for _ in range(rng.randint(3, 9)):
            s = rng.randrange(64)
            family |= {s & t for t in family} | {s}
    family = list(family)
    if rng.random() < 0.5:
        for _ in range(rng.randint(1, 3)):
            family.remove(rng.choice(family))
    return rng.sample(family, len(family)), lambda a, b: a & b == a


def check_against_bruteforce(labels, leq):
    """from_poset on the predicate and on the ready matrix: the brute-force
    meet and join tables and the cover relation for a lattice, else the
    first pair (i <= j, row-major, meet before join) without a bound.
    Returns "lattice", "meet" or "join"."""
    rows = [[leq(a, b) for b in labels] for a in labels]
    n = len(labels)
    first_failure = brute_first_non_lattice_pair(rows)
    if first_failure is None:
        meets = [[brute_glb_index(rows, i, j) for j in range(n)] for i in range(n)]
        joins = [[brute_lub_index(rows, i, j) for j in range(n)] for i in range(n)]
        covers = [
            [
                i != j and rows[i][j]
                and not any(rows[i][x] and rows[x][j] for x in range(n) if x not in (i, j))
                for j in range(n)
            ]
            for i in range(n)
        ]
    matrix = np.array(rows, dtype=bool).reshape(n, n)
    for order in (leq, matrix):
        if first_failure is None:
            lat = from_poset(labels, order)
            assert [t.tolist() for t in key_tables(lat)] == [meets, joins]
            assert cover_matrix(lat).tolist() == covers
            assert [t.tolist() for t in induction_tables(lat)] == [meets, joins]
            assert (is_upper_semimodular(lat), is_lower_semimodular(lat)) == table_semimodularity(lat)
        else:
            i, j, which = first_failure
            with pytest.raises(NotALatticeError) as err:
                from_poset(labels, order)
            assert (err.value.pair, err.value.which) == ((labels[i], labels[j]), which)
    # from_poset reads a bool matrix without a copy, and writes nothing to it.
    assert matrix.tolist() == [[bool(x) for x in row] for row in rows]
    return "lattice" if first_failure is None else first_failure[2]


def test_from_poset_matches_bruteforce_bounds_on_random_posets():
    # Many posets, because a pair that fails the induction only because a
    # lower cover's pair failed must still be rechecked exactly.
    rng = random.Random(4)
    seen = {"lattice": 0, "meet": 0, "join": 0}
    for _ in range(2000):
        seen[check_against_bruteforce(*random_poset(rng))] += 1
    assert min(seen.values()) >= 100, seen


def test_from_poset_matches_bruteforce_bounds_on_larger_posets():
    # Elements with several lower covers exercise the cover recursion, and
    # near-lattices the exact recheck of pairs whose candidate failed.
    rng = random.Random(11)
    seen = {"lattice": 0, "meet": 0, "join": 0}
    for k in range(100):
        poset = random_closure_poset(rng) if k % 2 else random_poset(rng, (20, 40))
        seen[check_against_bruteforce(*poset)] += 1
    assert min(seen.values()) >= 10, seen


def test_boolean_lattices_on_512_and_1024_elements():
    # 2^10 has 3^10 - 2^10 order pairs in 16-word rows: four blocks of the
    # covers pass.
    for k in (9, 10):
        i = np.arange(1 << k)
        lat = from_poset(i.tolist(), (i[:, None] & i) == i[:, None])
        meets, joins = key_tables(lat)
        assert (meets == (i[:, None] & i)).all() and (joins == (i[:, None] | i)).all()
        cov = cover_matrix(lat)
        assert len(lat.cover_set) == cov.sum() == k * 2 ** (k - 1)
        flip = i[:, None] ^ i  # b covers a iff b adds one bit to a
        assert (cov == (lat.leq & (flip != 0) & (flip & (flip - 1) == 0))).all()


def test_tables_on_wide_down_set_groups():
    """The key tables are looked up in row blocks of 2^16 // (n · words)
    rows, and the induction reference tables one height level at a time,
    in row blocks of 2^14 // n rows.  The 300 atoms of M_300 (bottom 0, top
    301), keyed in five words, span seven key blocks of 43 rows and six
    level blocks, the first ending at atom 54; 2^k puts up to 70 elements
    in one level.  Closed forms check every pair of both, the brute-force
    bounds every pair of 2^k for k <= 6 and a seeded sample of rows past."""
    rng = random.Random(12)
    i = np.arange(302)
    m300 = from_poset(i.tolist(), (i[:, None] == i) | (i[:, None] == 0) | (i == 301))
    assert (1 << 14) // 302 == 54 and m300.keys.shape[0] == m300.dual_keys.shape[0] == 5
    assert (1 << 16) // (302 * 5) == 43
    comparable = m300.leq | m300.leq.T
    meets = np.where(comparable, np.minimum(i[:, None], i), 0)
    joins = np.where(comparable, np.maximum(i[:, None], i), 301)
    for tables in (key_tables(m300), induction_tables(m300)):
        assert (tables[0] == meets).all() and (tables[1] == joins).all()
    lattices = [(m300, [0, 1, 54, 55, 300, 301])]
    for k in range(9):
        b = np.arange(1 << k)
        lat = from_poset(b.tolist(), (b[:, None] & b) == b[:, None])
        for meets, joins in (key_tables(lat), induction_tables(lat)):
            assert (meets == (b[:, None] & b)).all() and (joins == (b[:, None] | b)).all()
        lattices.append((lat, [0, len(b) - 1]))
    for lat, rows in lattices:
        n, leq, (meets, joins) = len(lat), lat.leq.tolist(), key_tables(lat)
        for a in range(n) if n <= 64 else rows + rng.sample(range(n), 6):
            for b in range(n):
                assert meets[a, b] == brute_glb_index(leq, a, b)
                assert joins[a, b] == brute_lub_index(leq, a, b)


def graph_text(edges, loops=()):
    """Vertices named by the endpoints of ``edges`` and ``loops``."""
    names = sorted({v for e in edges for v in e} | set(loops))
    return "".join(
        [f"vertex {v}\n" for v in names]
        + [f"edge e{k} {s} {d}\n" for k, (s, d) in enumerate(edges)]
        + [f"edge l{v} {v} {v}\n" for v in loops]
    )


def brute_heights(leq: np.ndarray) -> list[int]:
    """Length of the longest chain below each element, one element at a
    time in order of down-set size."""
    n = len(leq)
    heights = [0] * n
    for x in sorted(range(n), key=lambda x: leq[:, x].sum()):
        heights[x] = max((heights[y] + 1 for y in range(n) if y != x and leq[y, x]), default=0)
    return heights


def height_level_lattices():
    """Triple lattices whose height levels are fewer than their down-set
    size groups: tree2, tournament16, loops2 under bound 60 and the
    non-modular fan2 + chain3."""
    tree2 = [("r", "a"), ("r", "b"), ("a", "c"), ("a", "d"), ("b", "e"), ("b", "f")]
    tournament16 = [(f"t{i:02}", f"t{j:02}") for i in range(16) for j in range(i + 1, 16)]
    fan2_chain3 = [("u", "v"), ("u", "w"), ("a", "b"), ("b", "c")]
    return [
        triple_lattice(parse_graph(graph_text(tree2))),
        triple_lattice(parse_graph(graph_text(tournament16))),
        triple_lattice(parse_graph(graph_text([], loops=("p", "q"))), 60),
        triple_lattice(parse_graph(graph_text(fan2_chain3))),
    ]


def mixed_cover_counts():
    """Height level {x, y, z} has 1, 2 and 1 lower covers, and depth level
    {a1, a2, a3} 1, 1 and 2 upper covers; index 0, the top, is no row's
    cover."""
    order = {("bot", x) for x in ("a1", "a2", "a3")} | {("a1", "x"), ("a2", "y"), ("a3", "y")}
    order |= {("a3", "z")} | {(x, "top") for x in ("x", "y", "z")}
    return lattice_from_covers(["top", "bot", "a1", "a2", "a3", "x", "y", "z"], sorted(order))


def test_height_levels_match_longest_chains():
    """Rows go by height, stably, and one level starts wherever the height
    changes: exactly the brute-force longest chains, below for meets and
    above for joins.  The triple lattices have fewer levels than down-set
    sizes; in the pentagon the shortest chain to the top is shorter."""
    lattices = height_level_lattices()
    assert [len(lat) for lat in lattices] == [62, 32, 225, 56]
    assert not is_modular(lattices[3])
    for k, lat in enumerate([*lattices, pentagon(), mixed_cover_counts()]):
        lower, upper = lat.cover_pairs
        for leq, pairs in ((lat.leq, (lower, upper)), (lat.leq.T, (upper, lower))):
            order, cuts = height_levels(*pairs, len(lat))
            heights = brute_heights(leq)
            levels = [[x for x in range(len(lat)) if heights[x] == h] for h in range(max(heights) + 1)]
            assert [level.tolist() for level in np.split(order, cuts)] == levels
            assert k >= len(lattices) or len(levels) < len(np.unique(leq.sum(axis=0)))


def test_tables_match_bruteforce_bounds(gamma1, gamma2):
    """Every pair, of the key tables and of the induction reference, also of
    the height-level lattices and of one whose level blocks mix cover
    counts: a reference block's width is its largest count, not its first
    row's, and padding repeats a row's own cover."""
    mixed = mixed_cover_counts()
    meets, joins = key_tables(mixed)
    assert joins[2, 4] == 0 and meets[6, 7] == 4  # a1 ∨ a3 = top, y ∧ z = a3
    extra = [mixed, *height_level_lattices()]
    for lat in (triple_lattice(gamma1), triple_lattice(gamma2), pentagon(), diamond(), *extra):
        meets, joins = key_tables(lat)
        assert [t.tolist() for t in induction_tables(lat)] == [meets.tolist(), joins.tolist()]
        rows = lat.leq.tolist()
        for i in range(len(lat)):
            for j in range(len(lat)):
                assert meets[i, j] == brute_glb_index(rows, i, j)
                assert joins[i, j] == brute_lub_index(rows, i, j)


def test_cover_relation_definition(gamma1):
    lat = triple_lattice(gamma1)
    n = len(lat)
    for a in range(n):
        for b in range(n):
            strictly_between = any(
                lat.leq[b, x] and lat.leq[x, a] and x not in (a, b)
                for x in range(n)
            )
            expected = (
                lat.leq[b, a] and a != b and not strictly_between
            )
            assert ((a, b) in lat.cover_set) == expected


# ------------------------------------------------------------ predicates


def test_distributive_examples(gamma1, gamma2):
    assert is_distributive(triple_lattice(gamma2))
    assert not is_distributive(triple_lattice(gamma1))
    assert is_distributive(chain(5))
    assert not is_distributive(pentagon())
    assert not is_distributive(diamond())


def test_modular_examples(gamma1, gamma2):
    assert is_modular(diamond())  # modular but not distributive
    assert not is_modular(pentagon())
    assert not is_modular(triple_lattice(gamma1))
    assert is_modular(triple_lattice(gamma2))


def test_semimodularity_examples(gamma1, gamma2):
    lat1 = triple_lattice(gamma1)
    assert is_upper_semimodular(lat1)
    assert not is_lower_semimodular(lat1)
    lat2 = triple_lattice(gamma2)
    assert is_upper_semimodular(lat2)
    assert is_lower_semimodular(lat2)
    assert is_upper_semimodular(chain(4))
    assert is_lower_semimodular(chain(4))
    # the pentagon itself satisfies neither cover-transfer condition:
    # a and c jointly cover the bottom but their join fails to cover a
    assert not is_upper_semimodular(pentagon())
    assert not is_lower_semimodular(pentagon())
    assert is_upper_semimodular(diamond())
    assert is_lower_semimodular(diamond())


def test_gamma1_lower_semimodularity_failure_is_the_expected_one(gamma1):
    lat = triple_lattice(gamma1)
    names = {render_triple(t): i for i, t in enumerate(lat.labels)}
    top = names["({u1,v1,w1},{},{})"]
    c = names["({u1},{v1},{})"]
    e = names["({w1},{v1},{})"]
    bottom = names["({},{},{})"]
    assert (top, c) in lat.cover_set and (top, e) in lat.cover_set
    meets, joins = key_tables(lat)
    assert joins[c, e] == top
    assert meets[c, e] == bottom
    assert (c, bottom) not in lat.cover_set
    assert (e, bottom) not in lat.cover_set


# ------------------------------------------------------------ witnesses


def test_pentagon_witness_for_gamma1(gamma1):
    lat = triple_lattice(gamma1)
    w = find_pentagon(lat)
    assert w is not None and w.kind == "pentagon"
    assert witness_is_valid(lat, w)
    assert [render_triple(lat.labels[i]) for i in w.members] == [
        "({},{},{})",
        "({u1},{},{})",
        "({u1},{v1},{})",
        "({w1},{v1},{})",
        "({u1,v1,w1},{},{})",
    ]
    assert find_diamond(lat) is None


def test_diamond_witness():
    lat = diamond()
    assert find_pentagon(lat) is None
    w = find_diamond(lat)
    assert w is not None and w.kind == "diamond"
    assert witness_is_valid(lat, w)
    assert w == brute_first_diamond(lat) == SublatticeWitness("diamond", (0, 1, 2, 3, 4))


def test_pentagon_witness_in_pentagon():
    lat = pentagon()
    w = find_pentagon(lat)
    assert w is not None and witness_is_valid(lat, w)
    assert lattice_verdicts(lat)[1] == w


def test_product_witness_is_the_first_pentagon_else_the_first_diamond():
    """product_witness names none for a distributive product, else the
    first diamond of a modular one, else the first pentagon: whichever
    direct scans of the product built whole find first, pentagons before
    diamonds.  On N5, M3 and a chain alone, and on shuffled products."""
    rng = random.Random(2525)
    cases = [(pentagon(),), (diamond(),), (chain(4),), (chain(2), chain(3))]
    cases += [(pentagon(), chain(2)), (diamond(), chain(2)), (diamond(), pentagon()), (diamond(), diamond())]
    kinds = []
    for factors in cases:
        for _ in range(2):
            whole, coords = product_lattice(factors, rng)
            w = product_witness(factors, coords, product_verdicts(factors))
            assert w == (brute_first_pentagon(whole) or brute_first_diamond(whole))
            assert w is None or witness_is_valid(whole, w)
            kinds.append(w and w.kind)
    assert [kinds.count(k) for k in (None, "diamond", "pentagon")] == [4, 6, 6], kinds


def test_witness_is_valid_rejects_garbage(gamma2):
    lat = triple_lattice(gamma2)
    assert not witness_is_valid(lat, SublatticeWitness("pentagon", (0, 1, 2, 3, 4)))
    assert not witness_is_valid(lat, SublatticeWitness("diamond", (0, 1, 2, 3, 5)))
    assert not witness_is_valid(lat, SublatticeWitness("pentagon", (0, 0, 1, 2, 3)))


def check_verdict_pass(lat):
    """lattice_verdicts against the definition-level oracles and the
    forbidden-sublattice searches; returns the verdicts."""
    verdicts, witness = lattice_verdicts(lat)
    assert verdicts == oracle_verdicts(lat)
    assert list(verdicts) == ["distributive", "modular", "lower_semimodular", "upper_semimodular"]
    assert verdicts == {
        "distributive": is_distributive(lat),
        "modular": is_modular(lat),
        "lower_semimodular": is_lower_semimodular(lat),
        "upper_semimodular": is_upper_semimodular(lat),
    }
    pent, diam = find_pentagon(lat), find_diamond(lat)
    assert verdicts["modular"] == (pent is None)
    assert verdicts["distributive"] == (pent is None and diam is None)
    assert witness == (pent or diam)
    if witness is not None:
        assert witness_is_valid(lat, witness)
    return verdicts


def test_identity_checks_agree_with_forbidden_sublattice_search(gamma1, gamma2):
    lattices = [triple_lattice(gamma1), triple_lattice(gamma2), pentagon(), diamond(), chain(6)]
    lattices += [triple_lattice(g) for g in acyclic_corpus()[:60]]
    lattices += [triple_lattice(g, 12) for g in cyclic_corpus()]
    for lat in lattices:
        check_verdict_pass(lat)


def test_cover_verdicts_match_definitions():
    """The verdicts from the cover pairs (semimodularity from pairs of
    upper covers, join-primes from the largest down-set outside each
    join-irreducible's up-set) against the all-triples identities and the
    pairwise semimodularity checks.  M3's D_a ties its two other atoms,
    the closure lattice {0, 1, 2, 4, 3, 6, 7} ties 1 and 4 in D_2, and in
    2^3 (subsets of range(8)) the atoms' D_j tie below their greatest
    element."""
    lattices = [from_poset(labels, operator.le) for labels in ([], [0], [0, 1])]
    lattices += [diamond(), pentagon(), chain(5)]
    for family in ([0, 1, 2, 4, 3, 6, 7], range(8)):
        lattices.append(from_poset(family, lambda a, c: a & c == a))
    lattices += seeded_closure_lattices()
    lattices += [triple_lattice(g) for g in acyclic_corpus()]
    lattices += [triple_lattice(g, 12) for g in cyclic_corpus()]
    assert len({tuple(check_verdict_pass(lat).values()) for lat in lattices}) == 5


def test_distributive_factors_skip_the_semimodularity_scans(monkeypatch, gamma2):
    """A distributive factor is modular, so semimodular both ways:
    product_verdicts scans only the other factors."""
    import gislat.lattice

    scanned = []
    for name in ("is_upper_semimodular", "is_lower_semimodular"):
        f = getattr(gislat.lattice, name)
        monkeypatch.setattr(gislat.lattice, name, lambda lat, f=f: scanned.append(lat) or f(lat))
    distributive = [chain(1), chain(4), closure_lattice(3, range(8)), triple_lattice(gamma2)]
    assert product_verdicts(distributive) == dict.fromkeys(
        ("distributive", "modular", "lower_semimodular", "upper_semimodular"), True
    )
    assert scanned == []
    m3, n5 = diamond(), pentagon()
    assert product_verdicts([*distributive, m3]) == {
        "distributive": False, "modular": True, "lower_semimodular": True, "upper_semimodular": True
    }
    assert scanned == [m3, m3]
    scanned.clear()
    assert not product_verdicts([n5, *distributive])["upper_semimodular"]
    assert scanned == [n5, n5]


def test_implication_chain_on_corpus():
    for g in acyclic_corpus()[:40]:
        lat = triple_lattice(g)
        if is_distributive(lat):
            assert is_modular(lat)
        if is_modular(lat):
            assert is_upper_semimodular(lat)
            assert is_lower_semimodular(lat)


@settings(max_examples=300, deadline=None)
@given(closure_lattice_strategy())
def test_verdict_pass_matches_oracles_on_closure_lattices(lat):
    check_verdict_pass(lat)


def test_find_pentagon_matches_per_element_scan():
    """The cover-pair search names the same first pentagon as one scan per
    low element.  Under bound 60 the fork over loops (a forked vertex whose
    two sinks carry loops) has 254 elements and its first low element is
    196, past the first block of cover pairs."""
    lattices = seeded_closure_lattices()
    lattices += [triple_lattice(g) for g in acyclic_corpus()]
    lattices += [triple_lattice(g, 12) for g in cyclic_corpus()]
    fork = [("e", "u", "v"), ("f", "u", "w"), ("lv", "v", "v"), ("lw", "w", "w")]
    forkloops = triple_lattice(DirectedGraph.of(["u", "v", "w"], fork), 60)
    assert len(forkloops) == 254
    assert find_pentagon(forkloops).members[1] == 196
    pentagons = 0
    for lat in lattices + [forkloops]:
        w = find_pentagon(lat)
        assert w == brute_first_pentagon(lat)
        pentagons += w is not None
    assert pentagons >= 20, pentagons


def test_product_pentagon_matches_the_whole_product():
    """The pentagon and diamond searches over factors and coordinates name
    the same first pentagon and diamond as direct scans of the product
    built whole, the product cover pairs are its cover pairs and the
    conjoined verdicts are its verdicts, in shuffled index orders:
    N5 × 2, N5 × N5, M3 × 2, seeded pairs and triples of closure lattices,
    and 2 × M_70 (keys and dual keys of two words).  M3 × 2^6 in reverse
    lexicographic order has its first diamond far from the first element,
    among many recurring pair keys."""
    rng = random.Random(1515)
    small = [lat for lat in seeded_closure_lattices() if 2 <= len(lat) <= 12]
    cases = [(pentagon(), chain(2)), (chain(2), pentagon()), (pentagon(), pentagon())]
    cases += [(diamond(), chain(2)), (chain(3), chain(2), pentagon())]
    cases += [tuple(rng.sample(small, 2)) for _ in range(80)]
    cases += [tuple(rng.sample(small, 3)) for _ in range(40)]
    runs = [(factors, rng) for factors in cases if np.prod([len(f) for f in factors]) <= 500 for _ in range(2)]
    m70, cube6 = from_poset(range(72), m_atoms(70)), from_poset(range(64), boolean_order(6))
    runs += [((chain(2), m70), random.Random(70)), ((diamond(), cube6), None)]
    pentagons = diamonds = 0
    for factors, order in runs:
        whole, coords = product_lattice(factors, order)
        w = product_pentagon(factors, coords)
        assert w == brute_first_pentagon(whole)
        d = product_diamond(factors, coords)
        assert d == brute_first_diamond(whole)
        diamonds += d is not None
        covers = product_covers(factors, coords)
        assert all(np.array_equal(a, b) for a, b in zip(covers, whole.cover_pairs))
        assert product_verdicts(factors) == lattice_verdicts(whole)[0]
        pentagons += w is not None
    assert d == SublatticeWitness("diamond", (256, 64, 128, 192, 0))  # M3 × 2^6, last
    assert pentagons >= 40 and diamonds >= 10, (pentagons, diamonds)
    # fan2 + chain6 (448 elements, 1920 cover pairs) spans 14 blocks of the
    # low-end scan, which must take them in order of each coordinate's first element.
    fan2_chain6 = [("u", "v"), ("u", "w")] + [(f"c{i}", f"c{i + 1}") for i in range(5)]
    factors = (chain(2), triple_lattice(parse_graph(graph_text(fan2_chain6))))
    for _ in range(4):
        whole, coords = product_lattice(factors, rng)
        assert product_pentagon(factors, coords) == brute_first_pentagon(whole)


def test_closure_lattices_reach_every_verdict_combination():
    """The diamond branch needs modular, non-distributive lattices, which
    no triple lattice is; seeded closure lattices reach it.  find_diamond
    must also name the same first diamond as a direct scan, also on M_70,
    whose keys and dual keys take two words."""
    seen = set()
    diamonds = 0
    m70 = from_poset(range(72), m_atoms(70))
    for lat in seeded_closure_lattices() + [m70]:
        seen.add(tuple(check_verdict_pass(lat).values()))
        w = find_diamond(lat)
        assert w == brute_first_diamond(lat)
        diamonds += w is not None
    assert len(seen) == 5
    assert diamonds >= 10
    assert m70.keys.shape[0] == m70.dual_keys.shape[0] == 2
    assert w == SublatticeWitness("diamond", (0, 1, 2, 3, 71))


def test_table_algebra_laws(gamma1, gamma2):
    for lat in (triple_lattice(gamma1), triple_lattice(gamma2), pentagon(), diamond()):
        n = len(lat)
        m, j = induction_tables(lat)
        idx = np.arange(n)
        assert np.array_equal(m, m.T) and np.array_equal(j, j.T)
        assert np.array_equal(m[idx, idx], idx) and np.array_equal(j[idx, idx], idx)
        for a in range(n):
            # associativity and absorption, vectorized over (b, c)
            assert np.array_equal(m[m[a]][:, :], m[a][m])
            assert np.array_equal(j[j[a]][:, :], j[a][j])
            assert np.array_equal(m[a, j[a]], np.full(n, a))
            assert np.array_equal(j[a, m[a]], np.full(n, a))


# ------------------------------------------------------------ isomorphism


def test_order_isomorphic_basics(gamma2):
    lat = triple_lattice(gamma2)
    assert order_isomorphic(lat, lat)
    assert not order_isomorphic(pentagon(), diamond())
    assert not order_isomorphic(chain(5), pentagon())
    assert not order_isomorphic(chain(4), chain(5))


def test_order_isomorphic_under_relabeling(gamma1):
    lat = triple_lattice(gamma1)
    n = len(lat)
    perm = [3, 0, 6, 2, 5, 1, 4]
    relabeled = from_poset(list(range(n)), lambda a, b: lat.leq[perm[a], perm[b]])
    assert order_isomorphic(lat, relabeled)
    assert order_isomorphic(relabeled, lat)


def test_order_isomorphic_distinguishes_same_size(gamma2):
    assert not order_isomorphic(triple_lattice(gamma2), chain(6))


def test_order_isomorphic_matches_brute_force():
    """order_isomorphic agrees with a search over every permutation on
    each equal-size pair of the distinct seeded closure lattices of 3-7
    elements, and holds under shuffled relabelings.  Ranked one lattice at
    a time (a lattice ranked jointly with itself), 65 of those pairs share
    a signature pattern; ranked jointly, only the 16 isomorphic ones share
    their signatures, so the others never reach the backtracking search."""
    rng = random.Random(1919)
    distinct = {lat.leq.tobytes(): lat for lat in seeded_closure_lattices() if 3 <= len(lat) <= 7}
    lattices = list(distinct.values())
    pairs = [(a, b) for a, b in itertools.combinations(lattices, 2) if len(a) == len(b)]
    assert len(pairs) == 246
    same_pattern = isomorphic = 0
    for a, b in pairs:
        iso = order_isomorphic(a, b)
        assert iso == brute_order_isomorphic(a, b)
        if sorted(_stable_signatures(a, a)[0]) == sorted(_stable_signatures(b, b)[0]):
            same_pattern += 1
            isomorphic += iso
            sig_a, sig_b = _stable_signatures(a, b)
            assert iso == (sorted(sig_a) == sorted(sig_b))
    assert (same_pattern, isomorphic) == (65, 16)
    for lat in lattices:
        for _ in range(3):
            perm = rng.sample(range(len(lat)), len(lat))
            relabeled = from_poset(range(len(lat)), lat.leq[np.ix_(perm, perm)])
            assert order_isomorphic(lat, relabeled) and order_isomorphic(relabeled, lat)
            assert brute_order_isomorphic(lat, relabeled)


# ------------------------------------------------------------ DOT export


GAMMA2_DOT = """digraph hasse {
  rankdir=BT;
  node [shape=box];
  edge [dir=none];
  n0 [label="({},{},{})"];
  n1 [label="({u2},{},{})"];
  n2 [label="({w2},{},{})"];
  n3 [label="({w2},{v2},{})"];
  n4 [label="({u2,w2},{},{})"];
  n5 [label="({u2,v2,w2},{},{})"];
  n0 -> n1;
  n0 -> n2;
  n1 -> n4;
  n2 -> n3;
  n2 -> n4;
  n3 -> n5;
  n4 -> n5;
}
"""


def test_hasse_dot_golden(gamma2):
    lat = triple_lattice(gamma2)
    assert hasse_dot(lat.labels, lat.cover_pairs, render_triple) == GAMMA2_DOT
    # byte stability
    dot = hasse_dot(lat.labels, lat.cover_pairs, render_triple)
    assert dot == hasse_dot(lat.labels, lat.cover_pairs, render_triple)


def test_hasse_dot_escapes_labels():
    lat = from_poset(['say "hi"', "b\\c", "%", "%d", "%%"], lambda a, b: a == b or a < b)
    dot = hasse_dot(lat.labels, lat.cover_pairs)
    assert '\\"hi\\"' in dot
    assert "b\\\\c" in dot
    # a label is never read as a format, whichever template fills the lines
    assert dot.splitlines()[4:9] == ['  n0 [label="say \\"hi\\""];', '  n1 [label="b\\\\c"];',
                                     '  n2 [label="%"];', '  n3 [label="%d"];', '  n4 [label="%%"];']
    assert dot.splitlines()[9:] == ["  n1 -> n0;", "  n2 -> n4;", "  n3 -> n1;", "  n4 -> n3;", "}"]
