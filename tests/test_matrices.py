import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ssecalc.errors import DimensionMismatchError, InvalidIndexSetError, InvalidMatrixError
from ssecalc.matrices import (
    IndexSet,
    NonnegMatrix,
    _boolean_mul,
    _product_is,
    core_indices,
    e_s_matrix,
    identity_submatrix,
    is_nondegenerate,
    matrix_from_json,
    matrix_to_json,
    mul,
    submatrix,
)


def naive_mul(a, b):
    """Independent triple-loop oracle."""
    al, bl = a.to_lists(), b.to_lists()
    return NonnegMatrix(
        [
            [sum(al[i][k] * bl[k][j] for k in range(a.cols)) for j in range(b.cols)]
            for i in range(a.rows)
        ]
    )


def rand_bool(rng, n, m):
    return NonnegMatrix([[rng.randint(0, 1) for _ in range(m)] for _ in range(n)])


def test_mul_identity():
    a = NonnegMatrix([[1, 1], [1, 0]])
    assert mul(NonnegMatrix.identity(2), a) == a
    assert mul(a, NonnegMatrix.identity(2)) == a


def test_mul_hand_example():
    a = NonnegMatrix([[1, 1], [1, 0]])
    assert mul(a, a) == NonnegMatrix([[2, 1], [1, 1]])


def test_mul_against_naive_oracle():
    rng = random.Random(0)
    for _ in range(200):
        a = rand_bool(rng, 4, 4)
        b = rand_bool(rng, 4, 4)
        assert mul(a, b) == naive_mul(a, b)


def test_mul_nonboolean_entries():
    rng = random.Random(1)
    for _ in range(50):
        a = NonnegMatrix([[rng.randint(0, 5) for _ in range(3)] for _ in range(3)])
        b = NonnegMatrix([[rng.randint(0, 5) for _ in range(3)] for _ in range(3)])
        assert mul(a, b) == naive_mul(a, b)


def test_mul_dimension_mismatch():
    with pytest.raises(DimensionMismatchError):
        mul(NonnegMatrix([[1]]), NonnegMatrix([[1, 0], [0, 1]]))


def test_entries_validated():
    with pytest.raises(InvalidMatrixError):
        NonnegMatrix([[1, -1]])
    with pytest.raises(InvalidMatrixError):
        NonnegMatrix([[1], [1, 2]])


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_mul_associative(data):
    dims = [data.draw(st.integers(1, 4), label=f"d{i}") for i in range(4)]
    rng = random.Random(data.draw(st.integers(0, 10**6)))
    a = NonnegMatrix([[rng.randint(0, 2) for _ in range(dims[1])] for _ in range(dims[0])])
    b = NonnegMatrix([[rng.randint(0, 2) for _ in range(dims[2])] for _ in range(dims[1])])
    c = NonnegMatrix([[rng.randint(0, 2) for _ in range(dims[3])] for _ in range(dims[2])])
    assert mul(mul(a, b), c) == mul(a, mul(b, c))


@st.composite
def bool_matrix(draw, rows, cols):
    """A {0,1} matrix whose density is drawn too, so sparse rows and
    products with entries >= 2 both occur."""
    p = draw(st.sampled_from([0.1, 0.3, 0.6, 0.9]))
    rng = random.Random(draw(st.integers(0, 2**32)))
    return NonnegMatrix([[int(rng.random() < p) for _ in range(cols)] for _ in range(rows)])


@st.composite
def bool_pair(draw):
    """{0,1} a, b with a.cols == b.rows; the inner dimension runs to 20,
    so rows of b cross the 8- and 16-bit boundaries of the byte table."""
    n, k, m = draw(st.integers(1, 5)), draw(st.integers(1, 20)), draw(st.integers(1, 5))
    return draw(bool_matrix(n, k)), draw(bool_matrix(k, m))


@settings(max_examples=300, deadline=None)
@given(bool_pair())
def test_boolean_mul_matches_the_counting_product(pair):
    a, b = pair
    want = naive_mul(a, b)
    got = _boolean_mul(a, b)
    if want.is_boolean:
        assert got == want
    else:
        assert got is None


def test_boolean_mul_reads_every_byte_of_a_wide_row():
    # a single row selecting columns 0, 7, 8, 15, 16 and 19 of a 20-row b
    sel = [0, 7, 8, 15, 16, 19]
    a = NonnegMatrix([[int(j in sel) for j in range(20)]])
    b = NonnegMatrix.from_bool_rows(20, [1 << j for j in range(20)])
    assert _boolean_mul(a, b) == a
    assert _boolean_mul(a, NonnegMatrix([[1]] * 20)) is None


@pytest.mark.parametrize("k", [8, 9], ids=["8-rows", "9-rows"])
def test_boolean_mul_at_the_one_byte_boundary(k):
    """A b of 8 rows is read one byte per row of a, a b of 9 rows byte by
    byte; the selectors read row 7, the last bit of the first byte, and
    row k - 1."""
    ident = NonnegMatrix.identity(k)
    ones = NonnegMatrix([[1, 1, 1]] * k)  # any two rows selected give a 2
    cycle = NonnegMatrix.from_bool_rows(3, [1 << (j % 3) for j in range(k)])
    selectors = NonnegMatrix(
        [
            [int(j == 7) for j in range(k)],
            [int(j == k - 1) for j in range(k)],
            [int(j in (0, 7)) for j in range(k)],
            [int(j in (7, k - 1)) for j in range(k)],
            [1] * k,
        ]
    )
    rng = random.Random(k)
    pairs = [(selectors, b) for b in (ident, ones, cycle)]
    pairs += [(rand_bool(rng, 3, k), rand_bool(rng, k, 4)) for _ in range(40)]
    products = [naive_mul(a, b) for a, b in pairs]
    assert any(p.is_boolean for p in products)
    assert any(not p.is_boolean for p in products)
    for (a, b), want in zip(pairs, products):
        got = _boolean_mul(a, b)
        assert got == (want if want.is_boolean else None)


@settings(max_examples=300, deadline=None)
@given(bool_pair(), st.data())
def test_product_is_agrees_with_mul(pair, data):
    a, b = pair
    product = mul(a, b)
    flipped = product.to_lists()
    i, j = data.draw(st.integers(0, a.rows - 1)), data.draw(st.integers(0, b.cols - 1))
    flipped[i][j] = 1 - flipped[i][j] if flipped[i][j] < 2 else 1
    two = product.to_lists()
    two[i][j] = 2
    candidates = [
        product,
        NonnegMatrix(flipped),
        NonnegMatrix(two),  # not {0,1}
        data.draw(bool_matrix(a.rows, b.cols)),
        data.draw(bool_matrix(a.rows, b.cols + 1)),  # another shape
        data.draw(bool_matrix(a.rows + 1, b.cols)),
    ]
    for c in candidates:
        assert _product_is(a, b, c) == (product == c)


def test_product_is_refuses_a_shape_mismatch_as_mul_does():
    a, b = NonnegMatrix([[1, 0]]), NonnegMatrix([[1, 1]])
    with pytest.raises(DimensionMismatchError) as want:
        mul(a, b)
    with pytest.raises(DimensionMismatchError) as got:
        _product_is(a, b, NonnegMatrix([[1]]))
    assert str(got.value) == str(want.value)
    two = NonnegMatrix([[2, 0]])
    with pytest.raises(DimensionMismatchError):
        _product_is(two, b, NonnegMatrix([[1]]))


def _nondegenerate_by_loop(a):
    """The row-by-row loop is_nondegenerate replaced, kept as the oracle."""
    colacc = 0
    for m in a.support_rows():
        if m == 0:
            return False
        colacc |= m
    return colacc == (1 << a.cols) - 1


@st.composite
def small_matrix(draw):
    """One column or more, and {0,1} entries or entries to 3, whose packed
    rows are wider than one bit per column."""
    rows, cols = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    top = draw(st.sampled_from([1, 3]))
    row = st.lists(st.integers(0, top), min_size=cols, max_size=cols)
    return NonnegMatrix(draw(st.lists(row, min_size=rows, max_size=rows)))


@settings(max_examples=300, deadline=None)
@given(small_matrix())
@example(NonnegMatrix([[0]]))
@example(NonnegMatrix([[1, 0, 1], [1, 0, 1]]))  # a zero column
@example(NonnegMatrix([[2, 0, 1], [1, 0, 3]]))
@example(NonnegMatrix([[1, 1, 1]]))
@example(NonnegMatrix([[1, 0, 1]]))
@example(NonnegMatrix([[1], [1], [1]]))
@example(NonnegMatrix([[1], [0], [1]]))
@example(NonnegMatrix([[2], [5]]))
def test_is_nondegenerate_matches_the_row_loop(a):
    assert is_nondegenerate(a) is _nondegenerate_by_loop(a)


def test_is_nondegenerate():
    assert is_nondegenerate(NonnegMatrix([[1, 1], [1, 0]]))
    assert not is_nondegenerate(NonnegMatrix([[1, 0], [1, 0]]))
    assert not is_nondegenerate(NonnegMatrix([[0]]))
    assert not is_nondegenerate(NonnegMatrix([[1, 1], [0, 0]]))
    # entries above 1: packed rows are wider than one bit per column
    assert is_nondegenerate(NonnegMatrix([[2, 0], [0, 5]]))
    assert not is_nondegenerate(NonnegMatrix([[3, 0], [4, 0]]))
    assert not is_nondegenerate(NonnegMatrix([[0, 0, 0], [7, 1, 2], [1, 0, 9]]))
    assert not is_nondegenerate(NonnegMatrix([[2, 0, 1], [1, 0, 3]]))


def test_submatrix_basics():
    a = NonnegMatrix([[1, 2], [3, 4]])
    full = IndexSet.full(2)
    assert submatrix(a, full, full) == a
    assert submatrix(a, IndexSet(2, (1,)), IndexSet(2, (2,))) == NonnegMatrix([[2]])
    with pytest.raises(InvalidIndexSetError):
        submatrix(a, IndexSet(2, ()), full)
    with pytest.raises(InvalidIndexSetError):
        submatrix(a, IndexSet(3, (1,)), full)


def test_submatrix_identity_product():
    # (A_{KxN})(I_{NxK}) = A_{KxK}, checked by direct multiplication
    rng = random.Random(2)
    for _ in range(50):
        n = rng.randint(2, 5)
        a = NonnegMatrix([[rng.randint(0, 2) for _ in range(n)] for _ in range(n)])
        members = tuple(sorted(rng.sample(range(1, n + 1), rng.randint(1, n))))
        k = IndexSet(n, members)
        full = IndexSet.full(n)
        akn = submatrix(a, k, full)
        ink = identity_submatrix(full, k)
        assert mul(akn, ink) == submatrix(a, k, k)


def test_submatrix_composes():
    rng = random.Random(3)
    a = NonnegMatrix([[rng.randint(0, 3) for _ in range(5)] for _ in range(5)])
    k = IndexSet(5, (1, 3, 4))
    l = IndexSet(5, (2, 3, 5))
    k2 = IndexSet(3, (1, 3))
    l2 = IndexSet(3, (2,))
    once = submatrix(submatrix(a, k, l), k2, l2)
    twice = submatrix(a, k.compose(k2), l.compose(l2))
    assert once == twice


def test_e_s_matrix():
    s = NonnegMatrix([[0, 0], [1, 0]])
    assert e_s_matrix(s) == NonnegMatrix([[0, 0], [0, 1]])
    s2 = NonnegMatrix([[1, 0], [1, 1]])
    assert e_s_matrix(s2) == NonnegMatrix.identity(2)


def test_e_s_fixes_s_and_is_idempotent():
    rng = random.Random(4)
    for _ in range(50):
        n, m = rng.randint(1, 5), rng.randint(1, 5)
        s = NonnegMatrix([[rng.randint(0, 2) if rng.random() < 0.5 else 0 for _ in range(m)] for _ in range(n)])
        es = e_s_matrix(s)
        assert mul(es, s) == s
        assert mul(es, es) == es


def power_oracle_core(a):
    """i is in the core iff row i and column i of A^k are nonzero for all
    k up to the size (paths that long must close cycles)."""
    n = a.rows
    alive = set(range(1, n + 1))
    for k in range(1, n + 1):
        p = a.power(k)
        pt = p.transpose()
        alive &= {i for i in alive if p.row_mask(i - 1) and pt.row_mask(i - 1)}
    return tuple(sorted(alive))


def test_core_indices_examples():
    assert core_indices(NonnegMatrix([[1, 1], [1, 0]])).members == (1, 2)
    assert core_indices(NonnegMatrix([[0, 1], [0, 1]])).members == (2,)
    assert core_indices(NonnegMatrix([[0]])).members == ()


def test_core_indices_against_power_oracle():
    rng = random.Random(5)
    for _ in range(300):
        n = rng.randint(1, 5)
        a = rand_bool(rng, n, n)
        assert core_indices(a).members == power_oracle_core(a)


def test_core_is_fixed_point():
    rng = random.Random(6)
    for _ in range(100):
        n = rng.randint(1, 5)
        a = rand_bool(rng, n, n)
        j = core_indices(a)
        if not j.members:
            continue
        restricted = submatrix(a, j, j)
        assert core_indices(restricted).is_full


def test_json_roundtrip():
    a = NonnegMatrix([[0, 2], [3, 1]])
    assert matrix_from_json(matrix_to_json(a)) == a
    with pytest.raises(InvalidMatrixError):
        matrix_from_json({"rows": 1, "cols": 2, "entries": [[1]]})


@pytest.mark.parametrize("obj", [[[1, 1], [1, 0]], "m", 3, None], ids=["rows", "str", "int", "null"])
def test_a_matrix_that_is_not_an_object_is_named_as_one(obj):
    with pytest.raises(InvalidMatrixError) as info:
        matrix_from_json(obj)
    assert str(info.value) == 'a matrix must be a JSON object with "rows", "cols" and "entries"'


def test_matrices_are_immutable():
    a = NonnegMatrix([[1]])
    b = NonnegMatrix.identity(2)  # built from packed rows
    for m in (a, b, mul(b, b)):
        hash(m)
        for name in NonnegMatrix.__slots__:
            with pytest.raises(AttributeError):
                setattr(m, name, 0)
            with pytest.raises(AttributeError):
                delattr(m, name)
        with pytest.raises(AttributeError):
            m.extra = 0
    assert (a.rows, a.cols) == (1, 1) and a.to_lists() == [[1]]
    assert b.to_lists() == [[1, 0], [0, 1]]
