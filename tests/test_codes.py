import random

import pytest

from ssecalc.codes import (
    BlockCode,
    bijection_code,
    code_from_json,
    code_to_json,
    compose,
    equal_codes,
    identity_code,
    is_alphabet_bijection,
    is_elementary,
    is_identity,
    is_inverse_elementary,
    normalize,
    relabel_codomain,
    shift_code,
    verify_inverse,
)
from ssecalc.elementary import SSEEdge, code_from_edge
from ssecalc.errors import InvalidCodeError, MissingInverseError, ShiftMismatchError
from ssecalc.matrices import NonnegMatrix
from ssecalc.refinement import delta
from ssecalc.shifts import VertexShift, higher_block

GM = VertexShift(NonnegMatrix([[1, 1], [1, 0]]))
FULL2 = VertexShift(NonnegMatrix([[1, 1], [1, 1]]))
CYCLE2 = VertexShift(NonnegMatrix([[0, 1], [1, 0]]))


def test_table_must_be_total():
    with pytest.raises(InvalidCodeError):
        BlockCode(GM, GM, 0, 0, {(0,): 0})


def test_image_words_must_be_allowed():
    # constant-1 map is not allowed on the golden mean (no 22)
    with pytest.raises(InvalidCodeError):
        BlockCode(GM, GM, 0, 0, {(0,): 1, (1,): 1})


def test_forbidden_word_queries_raise():
    f = identity_code(GM)
    with pytest.raises(InvalidCodeError):
        f.apply_word((1, 1))  # 22 is forbidden


def test_compose_identity():
    sigma = shift_code(GM, 1)
    assert equal_codes(compose(identity_code(GM), sigma), sigma)
    assert equal_codes(compose(sigma, identity_code(GM)), sigma)


def test_compose_shift_inverse():
    sigma = shift_code(GM, 1)
    assert is_identity(compose(sigma, sigma.inverse))
    assert is_identity(compose(sigma.inverse, sigma))


def test_compose_windows_add():
    sigma = shift_code(GM, 1)
    ss = compose(sigma, sigma)
    assert ss.window == (2, 2)
    assert normalize(ss).window == (2, 2)  # golden mean is not deterministic


def test_compose_mismatch():
    with pytest.raises(ShiftMismatchError):
        compose(shift_code(GM, 1), shift_code(FULL2, 1))


def test_normalize_drops_padded_coordinates():
    sigma = shift_code(GM, 1)
    wide = BlockCode(GM, GM, -1, 1, sigma.table_at(-1, 1))
    n = normalize(wide)
    assert n.window == (1, 1)
    assert equal_codes(wide, sigma)


def test_normalize_idempotent():
    f = compose(shift_code(GM, 1), shift_code(GM, 1).inverse)
    n = normalize(f)
    assert normalize(n) == n


def test_normalize_slides_on_deterministic_shifts():
    # on the 2-cycle, sigma is the alphabet swap; sigma^2 is the identity
    sigma = shift_code(CYCLE2, 1)
    n = normalize(sigma)
    assert n.window == (0, 0) and n.table == {(0,): 1, (1,): 0}
    assert is_identity(compose(sigma, sigma))


def test_shift_code_table():
    tau = shift_code(GM, 1)
    assert tau.window == (1, 1)
    assert tau.table == {(0,): 0, (1,): 1}
    # values are untouched, the indexing shifts: y_i = x_{i+1}, so the image
    # of a word at positions [p, p+3] sits at positions [p-1, p+2]
    assert tau.apply_word((0, 0, 1, 0)) == (0, 0, 1, 0)
    assert tau.inverse.window == (-1, -1)


def test_verify_inverse():
    sigma = shift_code(GM, 1)
    assert verify_inverse(sigma, sigma.inverse)
    assert not verify_inverse(identity_code(GM), sigma)


def test_higher_block_inverse_roundtrip():
    _, f = higher_block(GM, 3)
    assert verify_inverse(f, f.inverse)
    assert is_identity(compose(f.inverse, f))


def test_elementarity():
    sigma = shift_code(GM, 1)
    assert is_elementary(sigma)          # window {1} in {0,1}, inverse {-1}
    assert is_elementary(identity_code(GM))
    assert not is_elementary(sigma.inverse)
    assert is_elementary(compose(sigma, sigma)) is False
    with pytest.raises(MissingInverseError):
        is_elementary(BlockCode(GM, GM, 0, 0, {(0,): 0, (1,): 1}))


def test_elementarity_windows_mirror():
    # H and H^{-1} read the same window pairs mirrored: f is in H^{-1}
    # exactly when f^{-1} is in H, and both follow the normal windows
    from ssecalc.sampling import random_conjugacy

    rng = random.Random(9)
    codes = [identity_code(GM), shift_code(GM, 1), shift_code(GM, -1)]
    codes += [random_conjugacy(rng, GM.matrix, k, max_inner=3) for k in (1, 1, 2, 2, 3)]
    seen = set()
    for f in codes + [c.inverse for c in codes]:
        fn, gn = normalize(f), normalize(f.inverse)
        in_h = fn.left >= 0 and fn.right <= 1 and gn.left >= -1 and gn.right <= 0
        in_h_inv = fn.left >= -1 and fn.right <= 0 and gn.left >= 0 and gn.right <= 1
        assert is_elementary(f) == in_h
        assert is_inverse_elementary(f) == in_h_inv == is_elementary(f.inverse)
        seen.add((in_h, in_h_inv))
    assert {(True, False), (False, True), (False, False)} <= seen


def test_bijection_code():
    beta = bijection_code(FULL2, [1, 0])
    assert is_alphabet_bijection(beta)
    assert is_identity(compose(beta.inverse, beta))
    assert not is_alphabet_bijection(shift_code(FULL2, 1))


def test_stored_inverse_contract():
    rng = random.Random(0)
    for _ in range(20):
        _, f = higher_block(GM, rng.randint(1, 4))
        assert verify_inverse(f, f.inverse)


# -- frozen pairs ---------------------------------------------------------


def _widened_sigma():
    """sigma with its inverse, both written on the window [-1, 1]."""
    sigma = shift_code(GM, 1)
    return BlockCode(
        GM, GM, -1, 1, sigma.table_at(-1, 1),
        inverse=(-1, 1, sigma.inverse.table_at(-1, 1)),
    )


def test_every_constructor_path_links_a_pair():
    sigma = shift_code(GM, 1)
    wide = _widened_sigma()
    edge = SSEEdge(GM.matrix, GM.matrix, GM.matrix, NonnegMatrix.identity(2))
    built = {
        "constructor": wide,
        "identity_code": identity_code(GM),
        "shift_code": sigma,
        "compose": compose(sigma, sigma),
        "normalize": normalize(wide),
        "relabel_codomain": relabel_codomain(sigma, [1, 0]),
        "bijection_code": bijection_code(FULL2, [1, 0]),
        "code_from_json": code_from_json(code_to_json(sigma)),
        "code_from_edge": code_from_edge(edge),
        "delta": delta([identity_code(GM), sigma]).delta,
        "higher_block": higher_block(GM, 3)[1],
    }
    assert normalize(wide) is not wide
    for name, f in built.items():
        assert f.inverse.inverse is f, name
        assert f.inverse.domain == f.codomain and f.inverse.codomain == f.domain, name
        assert verify_inverse(f, f.inverse), name


def test_codes_are_immutable():
    f = _widened_sigma()
    for code in (f, f.inverse, normalize(f), identity_code(GM)):
        for name in BlockCode.__slots__:
            with pytest.raises(AttributeError):
                setattr(code, name, None)
            with pytest.raises(AttributeError):
                delattr(code, name)
        with pytest.raises(AttributeError):
            code.extra = 1
        with pytest.raises(TypeError):
            code.table[next(iter(code.table))] = 0
    assert f.window == (-1, 1) and f.inverse.window == (-1, 1)


def test_table_is_a_copy():
    table = {(0,): 1, (1,): 0}
    f = BlockCode(CYCLE2, CYCLE2, 0, 0, table, inverse=(0, 0, table))
    table[(0,)] = 0
    assert f.table == {(0,): 1, (1,): 0} == f.inverse.table


def test_operations_leave_their_inputs_linked():
    f = _widened_sigma()
    g = f.inverse
    sigma = shift_code(GM, 1)
    tau = sigma.inverse
    results = [
        normalize(f),
        normalize(g),
        compose(f, sigma),
        compose(tau, f),
        relabel_codomain(f, [1, 0]),
        relabel_codomain(g, [1, 0]),
    ]
    for out in results:
        assert out is not f and out is not g
        assert out.inverse.inverse is out
    assert f.inverse is g and g.inverse is f
    assert sigma.inverse is tau and tau.inverse is sigma
    assert f.window == (-1, 1) and g.window == (-1, 1)


def test_code_from_json_inverse_endpoints():
    obj = code_to_json(shift_code(GM, 1))
    obj["inverse"] = code_to_json(shift_code(FULL2, -1), include_inverse=False)
    with pytest.raises(ShiftMismatchError, match="inverse endpoints do not match"):
        code_from_json(obj)
    # the forward code's own validation comes first, as does the inverse's
    bad_forward = dict(obj, table=obj["table"][:-1])
    with pytest.raises(InvalidCodeError, match="table must be total"):
        code_from_json(bad_forward)
    bad_inverse = dict(obj, inverse=dict(obj["inverse"], table=obj["inverse"]["table"][:-1]))
    with pytest.raises(InvalidCodeError, match="table must be total"):
        code_from_json(bad_inverse)


def test_code_from_json_requires_integers():
    good = code_to_json(shift_code(GM, 1))
    assert code_from_json(good) == shift_code(GM, 1)
    table = good["table"]
    for bad in (
        dict(good, window=["a", 0]),
        dict(good, window=[1.0, 1]),
        dict(good, window=[True, 1]),
        dict(good, table=[[[1.0], 1]] + table[1:]),
        dict(good, table=[[[1], 1.0]] + table[1:]),
        dict(good, inverse=dict(good["inverse"], window=[-1, -1.0])),
    ):
        with pytest.raises(InvalidCodeError):
            code_from_json(bad)
