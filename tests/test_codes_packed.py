"""The packed-word code layer against the tuple-keyed algorithms it replaced.

The oracles below are the tuple implementations of composition, rewindowing,
normalization and inverse verification, kept as they were written first:
they read a code's tuple-keyed ``table`` and slice and hash tuple words.
Seeded random codes run through both, on shifts of 1 to 16 symbols (1 to 4
bits per symbol, alphabets that are and are not powers of two), with
windows left of, around and right of 0.
"""

import random

import pytest

from ssecalc.codes import (
    BlockCode,
    _compose_data,
    _normalize_data,
    bijection_code,
    code_from_json,
    code_to_json,
    compose,
    identity_code,
    normalize,
    relabel_codomain,
    shift_code,
    verify_inverse,
)
from ssecalc.errors import InvalidCodeError
from ssecalc.matrices import NonnegMatrix
from ssecalc.sampling import random_conjugacy
from ssecalc.shifts import VertexShift, higher_block

# -- the tuple oracles ------------------------------------------------------


def _compose_data_oracle(g, f):
    width = f.width + g.width - 1
    ftab = f.table.__getitem__
    gtab = g.table
    windows = [slice(i, i + f.width) for i in range(g.width)]
    table = {
        w: gtab[tuple(map(ftab, map(w.__getitem__, windows)))]
        for w in f.domain.words(width)
    }
    return f.left + g.left, f.right + g.right, table


def _try_rewindow_oracle(x, width, tab, slide, right):
    words = x.words(width if slide else width - 1)
    new = {}
    if right:
        for u in words:
            core = u[1:] if slide else u
            it = iter(x.succ[u[-1]])
            v0 = tab[core + (next(it),)]
            for a in it:
                if tab[core + (a,)] != v0:
                    return None
            new[u] = v0
    else:
        for u in words:
            core = u[:-1] if slide else u
            it = iter(x.pred[u[0]])
            v0 = tab[(next(it),) + core]
            for a in it:
                if tab[(a,) + core] != v0:
                    return None
            new[u] = v0
    return new


def _normalize_data_oracle(x, left, right, tab):
    while right > left:
        new = _try_rewindow_oracle(x, right - left + 1, tab, slide=False, right=True)
        if new is None:
            break
        right, tab = right - 1, new
    while right > left:
        new = _try_rewindow_oracle(x, right - left + 1, tab, slide=False, right=False)
        if new is None:
            break
        left, tab = left + 1, new
    while left > 0:
        new = _try_rewindow_oracle(x, right - left + 1, tab, slide=True, right=True)
        if new is None:
            break
        left, right, tab = left - 1, right - 1, new
    while right < 0:
        new = _try_rewindow_oracle(x, right - left + 1, tab, slide=True, right=False)
        if new is None:
            break
        left, right, tab = left + 1, right + 1, new
    return left, right, tab


def _is_identity_oracle(x, y, data):
    left, right, tab = _normalize_data_oracle(x, *data)
    return (
        x == y
        and (left, right) == (0, 0)
        and all(tab[(a,)] == a for a in range(x.alphabet_size))
    )


def _verify_inverse_oracle(f, g):
    if f.domain != g.codomain or f.codomain != g.domain:
        return False
    return _is_identity_oracle(f.domain, f.domain, _compose_data_oracle(g, f)) and (
        _is_identity_oracle(g.domain, g.domain, _compose_data_oracle(f, g))
    )


def _tuples(x, y, data):
    """A packed (left, right, table) as the tuple-keyed triple it stands for."""
    left, right, table = data
    return left, right, dict(BlockCode._trusted(x, y, left, right, table).table)


# -- seeded random codes ---------------------------------------------------

ONE = VertexShift(NonnegMatrix([[1]]))
GM = VertexShift(NonnegMatrix([[1, 1], [1, 0]]))
FULL2 = VertexShift(NonnegMatrix([[1, 1], [1, 1]]))
CYCLE2 = VertexShift(NonnegMatrix([[0, 1], [1, 0]]))
CYCLE3 = VertexShift(NonnegMatrix([[0, 1, 0], [0, 0, 1], [1, 0, 0]]))
TRIANGLE = VertexShift(NonnegMatrix([[1, 1, 0], [0, 1, 1], [1, 0, 1]]))
FIVE = VertexShift(
    NonnegMatrix(
        [
            [1, 1, 0, 0, 0],
            [0, 0, 1, 1, 0],
            [0, 0, 0, 1, 1],
            [1, 0, 0, 0, 1],
            [0, 1, 1, 0, 0],
        ]
    )
)
# 9, 13 and 16 symbols: 4 bits per symbol
NINE = higher_block(VertexShift(NonnegMatrix([[1, 1, 1]] * 3)), 2)[0]
THIRTEEN = higher_block(GM, 5)[0]
SIXTEEN = higher_block(FULL2, 4)[0]
SHIFTS = {
    "one": ONE,
    "golden-mean": GM,
    "full-2": FULL2,
    "cycle-2": CYCLE2,
    "cycle-3": CYCLE3,
    "triangle": TRIANGLE,
    "five": FIVE,
    "nine": NINE,
    "thirteen": THIRTEEN,
    "sixteen": SIXTEEN,
}


def _full(n):
    return VertexShift(NonnegMatrix([[1] * n] * n))


def _random_table_code(rng, x, n_out):
    """A code from x onto the full n_out-shift with random values on a
    random window of 1 to 3 coordinates: every table into a full shift is
    a code.  It has no inverse."""
    left = rng.randint(-2, 1)
    right = left + rng.randint(0, 2)
    words = x.words(right - left + 1)
    return BlockCode(x, _full(n_out), left, right, {w: rng.randrange(n_out) for w in words})


def _shifted(f, k):
    """tau^k ∘ f, whose window is f's moved by k."""
    tau = shift_code(f.codomain, 1 if k > 0 else -1)
    for _ in range(abs(k)):
        f = compose(tau, f)
    return f


def _random_conjugacies(rng, x):
    """Conjugacies out of x with their inverses, windows moved left of,
    around and right of 0."""
    perm = list(range(x.alphabet_size))
    rng.shuffle(perm)
    out = [identity_code(x), bijection_code(x, perm)]
    if x.alphabet_size <= 5:
        out += [higher_block(x, k)[1] for k in (2, 3)]
    if x in (GM, FULL2, TRIANGLE):
        out.append(random_conjugacy(rng, x.matrix, 2, max_inner=3))
    return [_shifted(f, rng.choice([-2, -1, 0, 1, 2])) for f in out]


def _pairs(rng, x, rounds=3):
    """Composable pairs (f, g), f out of x, with g of width 1 to 3."""
    pairs = []
    for f in [f for _ in range(rounds) for f in _random_conjugacies(rng, x)]:
        y = f.codomain
        pairs.append((f, f.inverse))
        pairs.append((f, _shifted(f.inverse, rng.choice([-1, 1]))))
        pairs.append((f, _random_table_code(rng, y, rng.choice([2, 3, 5, 9]))))
    f = _random_table_code(rng, x, rng.choice([1, 3, 5, 16]))
    pairs.append((f, _random_table_code(rng, f.codomain, 2)))
    return pairs


@pytest.mark.parametrize("x", SHIFTS.values(), ids=SHIFTS.keys())
def test_compose_and_normalize_match_the_tuple_oracles(x):
    rng = random.Random(x.alphabet_size * 7919 + len(x.words(2)))
    for f, g in _pairs(rng, x):
        data = _compose_data(g, f)
        assert _tuples(x, g.codomain, data) == _compose_data_oracle(g, f)
        h = BlockCode._trusted(x, g.codomain, *data)
        for code in (f, g, h):
            normal = _normalize_data(code)
            expected = _normalize_data_oracle(code.domain, code.left, code.right, dict(code.table))
            assert _tuples(code.domain, code.codomain, normal) == expected


@pytest.mark.parametrize("x", SHIFTS.values(), ids=SHIFTS.keys())
def test_verify_inverse_matches_the_tuple_oracle(x):
    rng = random.Random(x.alphabet_size * 104729 + len(x.words(2)))
    verdicts, windows = set(), set()
    for f, g in _pairs(rng, x):
        if g.codomain != x:
            continue
        expected = _verify_inverse_oracle(f, g)
        assert verify_inverse(f, g) == expected
        assert verify_inverse(g, f) == expected
        verdicts.add(expected)
        left, right = f.left + g.left, f.right + g.right
        windows.add("around" if left <= 0 <= right else "off")
    # every shift but the one-point shift, whose only code is the identity,
    # sees true inverses and wrong partners
    assert verdicts == ({True} if x is ONE else {True, False})
    assert "around" in windows


def test_true_inverses_whose_composite_window_misses_zero():
    # on a cycle a power of the shift is an alphabet permutation, so a true
    # inverse can compose on a window without 0
    tau = shift_code(CYCLE3, 1)
    tau2 = compose(tau, tau)
    assert verify_inverse(tau, tau2) and _verify_inverse_oracle(tau, tau2)
    assert not verify_inverse(tau, tau) and not _verify_inverse_oracle(tau, tau)


def test_shift_squared_is_the_identity_only_on_the_two_cycle():
    assert verify_inverse(shift_code(CYCLE2, 1), shift_code(CYCLE2, 1))
    assert not verify_inverse(shift_code(FULL2, 1), shift_code(FULL2, 1))


def test_packed_words_sort_like_the_tuples():
    for x in SHIFTS.values():
        b = x.symbol_bits
        assert b == max(1, (x.alphabet_size - 1).bit_length())
        for length in (1, 2, 3):
            packed = x.packed_words(length)
            assert list(packed) == sorted(packed)
            for w, p in zip(x.words(length), packed, strict=True):
                assert p == sum(a << b * (length - 1 - i) for i, a in enumerate(w))


def test_the_tuple_table_is_a_view_built_on_first_read():
    _, f = higher_block(GM, 3)
    assert f._view is None
    view = f.table
    assert f.table is view and dict(view) == {w: i for i, w in enumerate(GM.words(3))}
    assert list(view) == list(GM.words(3))


def _json_tables(obj):
    return [obj["table"], *([obj["inverse"]["table"]] if "inverse" in obj else [])]


@pytest.mark.parametrize("x", SHIFTS.values(), ids=SHIFTS.keys())
def test_the_json_table_is_listed_in_word_order(x):
    rng = random.Random(x.alphabet_size * 6151 + len(x.words(2)))
    for f, g in _pairs(rng, x, rounds=1):
        for code in (f, g):
            for table in _json_tables(code_to_json(code)):
                assert table == sorted(table)
        # read back from JSON with both tables listed out of order
        obj = code_to_json(f)
        for table in _json_tables(obj):
            rng.shuffle(table)
        assert code_to_json(code_from_json(obj)) == code_to_json(f)


# -- symbols are ints ------------------------------------------------------


@pytest.mark.parametrize(
    "table",
    [{(0,): 1.0, (1,): 0}, {(0,): True, (1,): False}, {(0,): 1, (1,): "0"}],
    ids=["float", "bool", "str"],
)
def test_table_values_must_be_ints(table):
    with pytest.raises(InvalidCodeError, match="table values must be integers"):
        BlockCode(FULL2, FULL2, 0, 0, table)
    with pytest.raises(InvalidCodeError, match="table values must be integers"):
        BlockCode(FULL2, FULL2, 0, 0, {(0,): 0, (1,): 1}, inverse=(0, 0, table))


@pytest.mark.parametrize(
    "perm", [[0, 1.0], [True, False], [1, "0"]], ids=["float", "bool", "str"]
)
def test_relabel_perm_entries_must_be_ints(perm):
    with pytest.raises(InvalidCodeError, match="perm is not a bijection of the codomain alphabet"):
        relabel_codomain(identity_code(FULL2), perm)


def test_an_int_relabeling_keeps_int_values():
    f = relabel_codomain(identity_code(FULL2), [1, 0])
    assert f.apply_word([0, 1]) == (1, 0)
    assert all(type(v) is int for v in (*f.table.values(), *f.inverse.table.values()))
    assert verify_inverse(f, f.inverse)
    assert normalize(f) is f
