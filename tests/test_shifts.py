import copy
import gc
import itertools
import pickle
import random
import weakref

import pytest

from ssecalc.codes import compose, equal_codes, identity_code, normalize, verify_inverse
from ssecalc.errors import InvalidMatrixError
from ssecalc.matrices import NonnegMatrix
from ssecalc import shifts
from ssecalc.shifts import (
    DeterministicPresentation,
    LabeledGraph,
    VertexShift,
    higher_block,
    language_difference_witness,
)

GM = NonnegMatrix([[1, 1], [1, 0]])
FULL2 = NonnegMatrix([[1, 1], [1, 1]])


def shift_presentation(x: VertexShift) -> DeterministicPresentation:
    """The canonical source-labeled presentation of a vertex shift."""
    edges = [(i, i, j) for i in range(x.alphabet_size) for j in x.succ[i]]
    return DeterministicPresentation.from_graph(LabeledGraph(x.alphabet_size, edges))


def language_equal(p, q) -> bool:
    return language_difference_witness(p, q) is None


def test_shift_validation():
    with pytest.raises(InvalidMatrixError):
        VertexShift(NonnegMatrix([[1, 0], [1, 0]]))
    with pytest.raises(InvalidMatrixError):
        VertexShift(NonnegMatrix([[2]]))


def test_equal_matrices_share_one_live_shift():
    x = VertexShift(NonnegMatrix([[1, 1], [1, 0]]))
    assert VertexShift(NonnegMatrix([[1, 1], [1, 0]])) is x
    assert VertexShift(GM) is x and shifts._LIVE[GM] is x


def test_a_shift_leaves_the_table_when_nothing_references_it():
    m = NonnegMatrix([[1, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1], [1, 0, 0, 1]])
    x = VertexShift(m)
    x.words(3)
    ref = weakref.ref(x)
    assert m in shifts._LIVE
    del x
    gc.collect()
    assert ref() is None and m not in shifts._LIVE
    assert not VertexShift(m)._packed


@pytest.mark.parametrize(
    "entries",
    [[[1, 1]], [[1, 1], [2, 0]], [[1, 0], [1, 0]], [[0]]],
    ids=["not square", "not boolean", "zero column", "zero"],
)
def test_a_refused_matrix_leaves_no_entry(entries):
    m = NonnegMatrix(entries)
    with pytest.raises(InvalidMatrixError):
        VertexShift(m)
    assert m not in shifts._LIVE


def test_shifts_are_immutable():
    x = VertexShift(GM)
    for name in ("matrix", "succ", "_packed", "other"):
        with pytest.raises(AttributeError, match="immutable"):
            setattr(x, name, None)
        with pytest.raises(AttributeError, match="immutable"):
            delattr(x, name)
    assert x.matrix == GM and x.succ[1] == (0,)


def test_copies_and_pickles_are_the_shared_shift():
    x = VertexShift(GM)
    assert copy.copy(x) is x and copy.deepcopy(x) is x
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        assert pickle.loads(pickle.dumps(x, protocol)) is x
        assert pickle.loads(pickle.dumps(GM, protocol)) == GM
    assert copy.deepcopy(GM) == GM


def test_allowed_words_full_shift():
    x = VertexShift(FULL2)
    assert len(x.words(2)) == 4


def test_allowed_words_golden_mean():
    x = VertexShift(GM)
    assert [tuple(a + 1 for a in w) for w in x.words(3)] == [
        (1, 1, 1), (1, 1, 2), (1, 2, 1), (2, 1, 1), (2, 1, 2)
    ]


def test_words_length_one_is_alphabet():
    for m in (GM, FULL2):
        x = VertexShift(m)
        assert len(x.words(1)) == x.alphabet_size


def test_word_counts_monotone():
    rng = random.Random(0)
    for _ in range(20):
        n = rng.randint(1, 4)
        while True:
            m = NonnegMatrix([[rng.randint(0, 1) for _ in range(n)] for _ in range(n)])
            try:
                x = VertexShift(m)
                break
            except InvalidMatrixError:
                continue
        for length in range(1, 5):
            assert len(x.words(length + 1)) >= len(x.words(length))


def test_words_do_not_depend_on_the_cache():
    fresh = [VertexShift(GM).words(n) for n in range(1, 8)]
    x = VertexShift(GM)
    for n in (5, 2, 7, 1, 3, 6, 4):
        assert x.words(n) == fresh[n - 1]


def test_long_words_of_a_permutation():
    x = VertexShift(NonnegMatrix([[0, 1, 0], [0, 0, 1], [1, 0, 0]]))
    for length in (2000, 4097, 20000):
        words = x.words(length)
        assert [w[0] for w in words] == [0, 1, 2]
        assert all(w == tuple((w[0] + i) % 3 for i in range(length)) for w in words)


def _brute_force_words(m: NonnegMatrix, length: int) -> list:
    """Every allowed word of the given length, by filtering all words."""
    n = m.rows
    return [
        w for w in itertools.product(range(n), repeat=length)
        if all(m.entry(a, b) for a, b in zip(w, w[1:]))
    ]


@pytest.mark.parametrize(
    "entries",
    [
        [[1, 1], [1, 0]],
        [[0, 1], [1, 0]],
        [[0, 1, 0], [0, 0, 1], [1, 0, 0]],
        [[0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1], [1, 0, 0, 0]],
    ],
    ids=["golden-mean", "2-cycle", "3-cycle", "4-cycle"],
)
def test_words_match_brute_force(entries):
    m = NonnegMatrix(entries)
    for length in range(1, 9):
        assert list(VertexShift(m).words(length)) == _brute_force_words(m, length)
    # once more on one shift, longest first, so that shorter lengths are
    # read from the words the longer ones cached
    x = VertexShift(m)
    for length in range(8, 0, -1):
        assert list(x.words(length)) == _brute_force_words(m, length)


def _halving_words(x: VertexShift, length: int, cache: dict) -> tuple:
    """The allowed words as tuples, sorted, as the shift once built them:
    a word is a head of half its length joined on the head's last symbol
    to a word of the other half.  Lengths built are kept in cache."""
    if length not in cache:
        n = x.alphabet_size
        if length == 1:
            out = tuple((a,) for a in range(n))
        elif length == 2:
            out = tuple((a, b) for a in range(n) for b in x.succ[a])
        else:
            head = (length + 1) // 2
            tails = [[] for _ in range(n)]
            for w in _halving_words(x, length - head + 1, cache):
                tails[w[0]].append(w[1:])
            out = tuple(u + v for u in _halving_words(x, head, cache) for v in tails[u[-1]])
        cache[length] = out
    return cache[length]


def _unpacked(x: VertexShift, length: int) -> tuple:
    b = x.symbol_bits
    return tuple(
        tuple(p >> b * (length - 1 - i) & (1 << b) - 1 for i in range(length))
        for p in x.packed_words(length)
    )


def _random_shift(rng: random.Random) -> VertexShift:
    n, density = rng.randint(1, 6), rng.choice([0.25, 0.5, 0.75])
    while True:
        m = NonnegMatrix([[int(rng.random() < density) for _ in range(n)] for _ in range(n)])
        try:
            return VertexShift(m)
        except InvalidMatrixError:
            continue


def test_words_match_the_tuple_halving_on_random_shifts():
    rng = random.Random(23)
    longest = set()
    for _ in range(60):
        x = _random_shift(rng)
        cache = {}
        ends = [1] * x.alphabet_size  # words of the current length, by last symbol
        length = 1
        # dense shifts stop where the words outgrow a quick test
        while length <= 12 and sum(ends) <= 20000:
            expected = _halving_words(x, length, cache)
            assert x.words(length) == expected
            assert _unpacked(x, length) == expected
            ends = [sum(ends[i] for i in x.pred[j]) for j in range(x.alphabet_size)]
            length += 1
        longest.add(length - 1)
    assert 12 in longest and min(longest) < 12


@pytest.mark.parametrize("n", [2, 3, 4], ids=["2-cycle", "3-cycle", "4-cycle"])
def test_long_words_of_cycles_match_the_tuple_halving(n):
    x = VertexShift(NonnegMatrix([[int(j == (i + 1) % n) for j in range(n)] for i in range(n)]))
    cache = {}
    for length in (2000, 4097, 20000):
        expected = _halving_words(x, length, cache)
        assert x.words(length) == expected
        assert _unpacked(x, length) == expected


def test_one_long_request_keeps_few_lengths():
    # the 3-cycle the other way round, which no other test keeps alive
    gc.collect()
    x = VertexShift(NonnegMatrix([[0, 0, 1], [1, 0, 0], [0, 1, 0]]))
    assert not x._packed
    assert len(x.packed_words(20000)) == 3
    assert len(x._packed) <= 40


def test_higher_block_window_one():
    x = VertexShift(GM)
    y, f = higher_block(x, 1)
    assert y == x
    assert equal_codes(f, identity_code(x))


def test_higher_block_golden_mean():
    x = VertexShift(GM)
    y, f = higher_block(x, 2)
    assert y.matrix == NonnegMatrix([[1, 1, 0], [0, 0, 1], [1, 1, 0]])
    assert f.window == (0, 1)
    assert verify_inverse(f, f.inverse)


def test_higher_block_alphabet_size():
    x = VertexShift(GM)
    for w in (1, 2, 3, 4):
        y, _ = higher_block(x, w)
        assert y.alphabet_size == len(x.words(w))


def test_higher_block_roundtrip_is_identity():
    x = VertexShift(FULL2)
    _, f = higher_block(x, 3)
    assert equal_codes(compose(f.inverse, f), identity_code(x))
    assert normalize(compose(f.inverse, f)).window == (0, 0)


def test_language_equal_reflexive():
    p = shift_presentation(VertexShift(GM))
    assert language_equal(p, p)


def test_language_equal_distinguishes():
    p = shift_presentation(VertexShift(GM))
    q = shift_presentation(VertexShift(FULL2))
    w = language_difference_witness(p, q)
    assert w is not None
    # the shortest separating word is 22 (internally (1, 1))
    assert w == (1, 1)


def test_language_equal_relabeled_presentation():
    # the higher-block graph labeled by first letters presents the same language
    x = VertexShift(GM)
    y, _ = higher_block(x, 2)
    words = x.words(2)
    edges = [
        (i, words[i][0], j)
        for i in range(y.alphabet_size)
        for j in y.succ[i]
    ]
    q = DeterministicPresentation.from_graph(LabeledGraph(y.alphabet_size, edges))
    assert language_equal(shift_presentation(x), q)


def brutal_words(pres: DeterministicPresentation, length: int) -> set:
    out = set()

    def rec(state, word):
        if len(word) == length:
            out.add(word)
            return
        for a in pres.alphabet:
            nxt = pres.delta.get((state, a))
            if nxt is not None:
                rec(nxt, word + (a,))

    rec(pres.initial, ())
    return out


def test_language_equal_vs_bruteforce():
    rng = random.Random(1)
    for _ in range(40):
        n = rng.randint(1, 3)
        edges1 = [
            (i, rng.randint(0, 1), j)
            for i in range(n)
            for j in range(n)
            if rng.random() < 0.6
        ]
        edges2 = [
            (i, rng.randint(0, 1), j)
            for i in range(n)
            for j in range(n)
            if rng.random() < 0.6
        ]
        p = DeterministicPresentation.from_graph(LabeledGraph(n, edges1))
        q = DeterministicPresentation.from_graph(LabeledGraph(n, edges2))
        verdict = language_equal(p, q)
        # product-automaton size bounds the length a discrepancy can hide at
        bound = p.n_states * q.n_states + 1
        brute = all(
            brutal_words(p, length) == brutal_words(q, length)
            for length in range(1, bound + 1)
        )
        assert verdict == brute


def test_language_equal_is_equivalence():
    ps = [
        shift_presentation(VertexShift(GM)),
        shift_presentation(VertexShift(FULL2)),
        shift_presentation(VertexShift(NonnegMatrix([[0, 1], [1, 0]]))),
    ]
    for p in ps:
        assert language_equal(p, p)
    for p in ps:
        for q in ps:
            assert language_equal(p, q) == language_equal(q, p)
    for p in ps:
        for q in ps:
            for r in ps:
                if language_equal(p, q) and language_equal(q, r):
                    assert language_equal(p, r)
