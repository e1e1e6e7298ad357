"""The library's own codes against the tuple-keyed constructions they replaced.

phi_{R,S}, the matrix pair of an elementary code, the star image, the delta
pair, codomain relabeling and the canonical representative are built on
packed words and, apart from the edge, without the checked constructor.
The oracles below are those constructions as they were written first: they
read tuple-keyed tables through ``table_at`` and send their tables through
``BlockCode(...)``, which copies and checks them.  Seeded random edges and
tuples in H and in H^{-1} run through both, on shifts of 2 to 5 symbols
(1 to 3 bits per symbol).
"""

import random
from dataclasses import dataclass

import pytest

from ssecalc.codes import (
    BlockCode,
    _fits,
    compose,
    identity_code,
    is_elementary,
    normalize,
    relabel_codomain,
    shift_code,
    verify_inverse,
)
from ssecalc.elementary import SSEEdge, code_from_edge, edge_from_code
from ssecalc.errors import InvalidCodeError, InvalidEdgeError, NotElementaryError
from ssecalc.matrices import NonnegMatrix
from ssecalc.refinement import (
    _delta_code,
    _markov_witness,
    canonical_representative,
    star,
    star_image,
)
from ssecalc.sampling import (
    random_bijection_code,
    random_conjugacy,
    random_edge,
    random_nondeg_matrix,
    random_tuple,
)
from ssecalc.shifts import VertexShift, higher_block

# -- the tuple oracles ------------------------------------------------------


def _two_block_rule_oracle(x, p, q, name):
    p_rows = p.support_rows()
    q_cols = q.transpose().support_rows()
    rule = {}
    for w in x.words(2):
        cands = p_rows[w[0]] & q_cols[w[1]]
        if cands == 0 or cands & (cands - 1):
            raise InvalidEdgeError(f"{name} not uniquely defined on {w}: candidate mask {cands:b}")
        rule[w] = cands.bit_length() - 1
    return rule


def _code_from_edge_oracle(e):
    x = VertexShift(e.a)
    y = VertexShift(e.b)
    fwd = _two_block_rule_oracle(x, e.r, e.s, "local rule")
    bwd = _two_block_rule_oracle(y, e.s, e.r, "inverse local rule")
    return BlockCode(x, y, 0, 1, fwd, inverse=(-1, 0, bwd))


def _rule_matrix_oracle(table, rows, cols):
    masks = [0] * rows
    for (a, _a1), v in table.items():
        masks[a] |= 1 << v
    return NonnegMatrix.from_bool_rows(cols, masks)


def _edge_from_code_oracle(f):
    fn = normalize(f)
    gn = fn.inverse
    if not _fits(fn, 0, 1):
        raise NotElementaryError(
            f"windows {fn.window} / inverse {gn.window} not inside (0,1) / (-1,0)"
        )
    m, n = f.domain.alphabet_size, f.codomain.alphabet_size
    r = _rule_matrix_oracle(fn.table_at(0, 1), m, n)
    s = _rule_matrix_oracle(gn.table_at(-1, 0), n, m)
    return SSEEdge(f.domain.matrix, f.codomain.matrix, r, s)


@dataclass
class _TupleStarImage:
    sources: tuple
    side: int
    image_alphabet: tuple
    ranks: dict
    tuple_of_word: dict
    transitions: frozenset


def _star_image_oracle(normal, side):
    x = normal[0].domain
    lo, hi = (0, 1) if side == 1 else (-1, 0)
    tabs = []
    for cn in normal:
        if not _fits(cn, lo, hi, inverse=False):
            raise NotElementaryError(f"window {cn.window} does not fit inside ({lo},{hi})")
        tabs.append(cn.table_at(lo, hi))
    tuple_of_word = {w: tuple(tab[w] for tab in tabs) for w in x.words(2)}
    alphabet = tuple(sorted(set(tuple_of_word.values())))
    ranks = {t: i for i, t in enumerate(alphabet)}
    transitions = frozenset(
        (ranks[tuple_of_word[w[:2]]], ranks[tuple_of_word[w[1:]]]) for w in x.words(3)
    )
    return _TupleStarImage(normal, side, alphabet, ranks, tuple_of_word, transitions)


def _delta_code_oracle(si):
    x = si.sources[0].domain
    n_img = len(si.image_alphabet)
    masks = [0] * n_img
    for u, v in si.transitions:
        masks[u] |= 1 << v
    target = VertexShift(NonnegMatrix.from_bool_rows(n_img, masks))
    fwd = {w: si.ranks[t] for w, t in si.tuple_of_word.items()}
    lo, hi = (-1, 0) if si.side == 1 else (0, 1)
    for comp, c in enumerate(si.sources):
        if _fits(c.inverse, lo, hi, inverse=False):
            comp_tab = c.inverse.table_at(lo, hi)
            break
    else:
        raise NotElementaryError("no component inverse fits the mirrored window")
    alphabet = si.image_alphabet
    bwd = {
        (u, v): comp_tab[(alphabet[u][comp], alphabet[v][comp])] for (u, v) in si.transitions
    }
    try:
        f = BlockCode(x, target, -hi, -lo, fwd, inverse=(lo, hi, bwd))
    except InvalidCodeError:
        return None
    return f if verify_inverse(f, f.inverse) else None


def _relabel_codomain_oracle(f, perm):
    n = f.codomain.alphabet_size
    if any(type(p) is not int for p in perm) or sorted(perm) != list(range(n)):
        raise InvalidCodeError("perm is not a bijection of the codomain alphabet")
    y = f.codomain
    succ = y.succ
    masks = [0] * n
    for i in range(n):
        masks[perm[i]] = sum(1 << perm[j] for j in succ[i])
    target = VertexShift(NonnegMatrix.from_bool_rows(n, masks))
    inverse = None
    if f._inverse is not None:
        g, b = f._inverse, y.symbol_bits
        width, tab = g.width, g._table
        relabeled = {}
        for w, p in zip(y.words(width), y.packed_words(width)):
            q = 0
            for a in w:
                q = q << b | perm[a]
            relabeled[q] = tab[p]
        inverse = (g.left, g.right, relabeled)
    return BlockCode._trusted(
        f.domain, target, f.left, f.right, {w: perm[v] for w, v in f._table.items()}, inverse
    )


def _canonical_representative_oracle(f):
    fn = normalize(f)
    perm = {}
    for w in sorted(fn.table):
        v = fn.table[w]
        if v not in perm:
            perm[v] = len(perm)
    return normalize(_relabel_codomain_oracle(fn, [perm[v] for v in range(len(perm))]))


# -- shared checks ----------------------------------------------------------


def _same_code(f, g):
    """Equal codes, forward and inverse, the inverse's presence included."""
    assert f == g
    assert (f._inverse is None) == (g._inverse is None)
    if f._inverse is not None:
        assert f.inverse == g.inverse


def _checked_copy(f):
    """f through the checked constructor, which must accept its tables."""
    inverse = None if f._inverse is None else (*f.inverse.window, f.inverse.table)
    copy = BlockCode(f.domain, f.codomain, *f.window, f.table, inverse=inverse)
    _same_code(copy, f)


# -- seeded random bases ----------------------------------------------------

GM = NonnegMatrix([[1, 1], [1, 0]])
FULL2 = NonnegMatrix([[1, 1], [1, 1]])
TRIANGLE = NonnegMatrix([[1, 1, 0], [0, 1, 1], [1, 0, 1]])


def _bases(rng):
    """Bases of 2 to 5 symbols: 1, 2, 2 and 3 bits per symbol."""
    return [GM, FULL2, TRIANGLE] + [random_nondeg_matrix(rng, n) for n in (3, 4, 5)]


BASE_IDS = ["golden-mean", "full-2", "triangle", "random-3", "random-4", "random-5"]


def _inverse_tuple(rng, base, n):
    """n random codes in H^{-1} out of base: inverses of reversed edges."""
    return [code_from_edge(random_edge(rng, base).reversed()).inverse for _ in range(n)]


@pytest.mark.parametrize("k", range(6), ids=BASE_IDS)
def test_code_from_edge_and_back_match_the_tuple_oracles(k):
    rng = random.Random(31 + k)
    base = _bases(rng)[k]
    for _ in range(12):
        e = random_edge(rng, base)
        f = code_from_edge(e)
        _same_code(f, _code_from_edge_oracle(e))
        _checked_copy(f)
        assert edge_from_code(f) == _edge_from_code_oracle(f) == e
        # an elementary code whose normal form is not phi's own table
        g = normalize(compose(random_bijection_code(rng, f.codomain), f))
        assert is_elementary(g)
        assert edge_from_code(g) == _edge_from_code_oracle(g)


def test_edge_from_code_refuses_what_the_oracle_refuses():
    x = VertexShift(GM)
    for f in (compose(shift_code(x, 1), shift_code(x, 1)), higher_block(x, 3)[1]):
        with pytest.raises(NotElementaryError) as new:
            edge_from_code(f)
        with pytest.raises(NotElementaryError) as old:
            _edge_from_code_oracle(f)
        assert str(new.value) == str(old.value)


def test_two_block_rule_refuses_a_rule_that_is_not_unique():
    # RS = I2 is not GM, so the golden-mean 2-word (0, 1) has no candidate;
    # a bare edge skips the checks that would refuse it
    bare = SSEEdge._trusted(GM, GM, NonnegMatrix.identity(2), NonnegMatrix.identity(2))
    with pytest.raises(InvalidEdgeError) as new:
        code_from_edge(bare)
    with pytest.raises(InvalidEdgeError) as old:
        _code_from_edge_oracle(bare)
    assert str(new.value) == str(old.value)
    assert str(new.value) == "local rule not uniquely defined on (0, 1): candidate mask 0"


def _assert_same_star_image(si, old):
    x = si.sources[0].domain
    assert si.sources == old.sources and si.side == old.side
    assert si.image_alphabet == old.image_alphabet
    assert list(si.labels) == list(x.packed_words(2))
    assert [si.image_alphabet[u] for u in si.labels.values()] == list(old.tuple_of_word.values())
    n = len(si.image_alphabet)
    closure = {(u, v) for u, row in enumerate(si.closure) for v in range(n) if row >> v & 1}
    assert len(si.closure) == n and closure == old.transitions


def _assert_same_delta(si, old):
    f = _delta_code(si)
    expected = _delta_code_oracle(old)
    assert (f is None) == (expected is None)
    if f is not None:
        _same_code(f, expected)
        _checked_copy(f)


@pytest.mark.parametrize("k", range(6), ids=BASE_IDS)
def test_star_image_and_delta_pair_match_the_tuple_oracles(k):
    rng = random.Random(47 + k)
    base = _bases(rng)[k]
    for n in (1, 2, 3):
        for tup in (random_tuple(rng, base, n), _inverse_tuple(rng, base, n)):
            si = star(tup)
            old = _star_image_oracle(si.sources, si.side)
            _assert_same_star_image(si, old)
            _assert_same_delta(si, old)


@pytest.mark.parametrize("k", range(6), ids=BASE_IDS)
def test_star_map_general_pairs_match_the_tuple_oracles(k):
    # refine_representative's pairs (id, h): h elementary, the identity
    # read on the window [0, 1]
    rng = random.Random(53 + k)
    base = _bases(rng)[k]
    for _ in range(3):
        h = normalize(random_tuple(rng, base, 1)[0])
        pair = [identity_code(h.domain), h]
        si = star_image(pair, 1)
        old = _star_image_oracle(si.sources, 1)
        _assert_same_star_image(si, old)
        _assert_same_delta(si, old)


# the golden-mean 2-blocks 00 -> 0, 01 -> 1, 10 -> 1 onto the full 2-shift,
# with a constant map stored as its inverse: the image is not Markov
TWO_BLOCK = BlockCode(
    VertexShift(GM),
    VertexShift(FULL2),
    0,
    1,
    {(0, 0): 0, (0, 1): 1, (1, 0): 1},
    inverse=(0, 0, {(0,): 0, (1,): 0}),
)
# the identity of the full 2-shift with the swap stored as its inverse
IDENTITY_WITH_SWAP = BlockCode(
    VertexShift(FULL2),
    VertexShift(FULL2),
    0,
    0,
    {(0,): 0, (1,): 1},
    inverse=(0, 0, {(0,): 1, (1,): 0}),
)


@pytest.mark.parametrize(
    "code", [TWO_BLOCK, IDENTITY_WITH_SWAP], ids=["two-block", "identity-with-swap"]
)
def test_uncertified_pairs_match_the_tuple_oracles(code):
    si = star([code])
    old = _star_image_oracle(si.sources, si.side)
    _assert_same_star_image(si, old)
    _assert_same_delta(si, old)
    assert _delta_code(si) is None


def test_the_golden_mean_witness_is_unchanged():
    assert _markov_witness(star([TWO_BLOCK])) == (0, 1, 0)


@pytest.mark.parametrize("k", range(6), ids=BASE_IDS)
def test_relabeling_and_canonical_representatives_match_the_tuple_oracles(k):
    rng = random.Random(61 + k)
    base = _bases(rng)[k]
    fs = [random_conjugacy(rng, base, 2, max_inner=base.rows + 1) for _ in range(3)]
    fs += random_tuple(rng, base, 2)
    fs.append(BlockCode(fs[0].domain, fs[0].codomain, *fs[0].window, fs[0].table))
    for f in fs:
        perm = list(range(f.codomain.alphabet_size))
        rng.shuffle(perm)
        g = relabel_codomain(f, perm)
        _same_code(g, _relabel_codomain_oracle(f, perm))
        _checked_copy(g)
        _same_code(canonical_representative(f), _canonical_representative_oracle(f))
