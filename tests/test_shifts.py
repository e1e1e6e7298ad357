import random

import pytest

from ssecalc.codes import compose, equal_codes, identity_code, normalize, verify_inverse
from ssecalc.errors import InvalidMatrixError
from ssecalc.matrices import NonnegMatrix
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
    edges = [(i, i, j) for i in range(x.alphabet_size) for j in x.succ(i)]
    return DeterministicPresentation.from_graph(LabeledGraph(x.alphabet_size, edges))


def language_equal(p, q) -> bool:
    return language_difference_witness(p, q) is None


def test_shift_validation():
    with pytest.raises(InvalidMatrixError):
        VertexShift(NonnegMatrix([[1, 0], [1, 0]]))
    with pytest.raises(InvalidMatrixError):
        VertexShift(NonnegMatrix([[2]]))


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
        for j in y.succ(i)
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
