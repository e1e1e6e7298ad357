import gc
import random
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ssecalc import codes
from ssecalc.codes import (
    BlockCode,
    _compose_raw,
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
CYCLE3 = VertexShift(NonnegMatrix([[0, 1, 0], [0, 0, 1], [1, 0, 0]]))
THREE = VertexShift(NonnegMatrix([[1, 1, 0], [0, 0, 1], [1, 1, 1]]))


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


def _padded_identity(inverse: bool) -> BlockCode:
    """The identity of GM read on the window [0, 1], with the same rule as
    its inverse or with none: not a normal form."""
    table = identity_code(GM).table_at(0, 1)
    return BlockCode(GM, GM, 0, 1, table, (0, 1, table) if inverse else None)


def _count_normalize_data(monkeypatch) -> list:
    """A list that grows by one on each call of codes._normalize_data."""
    calls = []
    run = codes._normalize_data

    def counted(f):
        calls.append(f)
        return run(f)

    monkeypatch.setattr(codes, "_normalize_data", counted)
    return calls


@pytest.mark.parametrize("inverse", [True, False], ids=["with-inverse", "no-inverse"])
def test_a_code_keeps_its_normal_form(monkeypatch, inverse):
    calls = _count_normalize_data(monkeypatch)
    f = _padded_identity(inverse)
    n = normalize(f)
    assert n is not f and n.window == (0, 0) and is_identity(n)
    assert len(calls) == (2 if inverse else 1)
    calls.clear()
    # a second normalize, and a normalize of the normal form, read the slot
    assert normalize(f) is n and normalize(n) is n
    if inverse:
        assert normalize(n.inverse) is n.inverse and n.inverse.inverse is n
        assert normalize(f.inverse) is n.inverse
    assert calls == []
    # the normal form is marked, not referenced by itself, and holds
    # nothing of f: a code without an inverse is no cycle
    referents = gc.get_referents(n)
    assert not any(r is n or r is f for r in referents)


def test_a_normal_code_is_its_own_normal_form(monkeypatch):
    calls = _count_normalize_data(monkeypatch)
    for f in (shift_code(GM, 1), BlockCode(GM, GM, 0, 0, {(0,): 0, (1,): 1})):
        assert normalize(f) is f and normalize(f) is f
        if f._inverse is None:
            assert not any(r is f for r in gc.get_referents(f))
    # two of the shift code (with its inverse) and one of the other, once
    assert len(calls) == 3


def test_the_kept_normal_form_leaves_values_unchanged():
    import copy
    import pickle

    f = _padded_identity(True)
    before = (hash(f), code_to_json(f))
    n = normalize(f)
    assert (hash(f), code_to_json(f)) == before
    assert f != n and equal_codes(f, n) and f == _padded_identity(True)
    for c in (copy.copy(f), copy.deepcopy(f), pickle.loads(pickle.dumps(f))):
        # a copy is rebuilt through the constructor and carries no normal form
        assert c == f and hash(c) == hash(f) and c._normal is None
        assert c.inverse == f.inverse and c.inverse._normal is None
        assert normalize(c) == n and normalize(c).inverse == n.inverse


def test_normalize_slides_on_deterministic_shifts():
    # on the 2-cycle, sigma is the alphabet swap; sigma^2 is the identity
    sigma = shift_code(CYCLE2, 1)
    n = normalize(sigma)
    assert n.window == (0, 0) and n.table == {(0,): 1, (1,): 0}
    assert is_identity(compose(sigma, sigma))


def _rule(x, left, right, value):
    """The code on x, window [left, right], whose value on a word is value(word)."""
    return BlockCode(x, x, left, right, {w: value(w) for w in x.words(right - left + 1)})


@pytest.mark.parametrize(
    "make, window, table, asked",
    [
        # a rule on [0, 199] that reads its first symbol shrinks to it
        (lambda: _rule(CYCLE3, 0, 199, lambda w: w[0]), (0, 0), {(0,): 0, (1,): 1, (2,): 2}, []),
        # a one-symbol rule on a cycle slides to [0, 0], one step at a time
        (lambda: _rule(CYCLE3, -2, -2, lambda w: w[0]), (0, 0), {(0,): 1, (1,): 2, (2,): 0}, [2, 2]),
        # a one-symbol rule that cannot slide stays
        (lambda: _rule(GM, 1, 1, lambda w: w[0]), (1, 1), {(0,): 0, (1,): 1}, [2]),
        # a rule of width 2 off the origin never slides, so it is not tried
        (
            lambda: _rule(FULL2, 1, 2, lambda w: w[0] ^ w[1]),
            (1, 2),
            {(0, 0): 0, (0, 1): 1, (1, 0): 1, (1, 1): 0},
            [],
        ),
    ],
    ids=["cycle-3-long-window", "cycle-3-slide", "golden-mean-no-slide", "full-2-width-2"],
)
def test_normalize_reads_no_word_lists(monkeypatch, make, window, table, asked):
    f = make()
    lengths = []
    packed_words = VertexShift.packed_words

    def counted(x, length):
        lengths.append(length)
        return packed_words(x, length)

    monkeypatch.setattr(VertexShift, "packed_words", counted)
    n = normalize(f)
    assert lengths == asked
    monkeypatch.undo()
    assert n.window == window and n.table == table
    assert (n is f) == (window == f.window)


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
        g = f.inverse
        assert g.inverse is f, name
        assert g.domain == f.codomain and g.codomain == f.domain, name
        assert verify_inverse(f, g), name
        # the trusted builder holds only tables the checked constructor accepts
        checked = BlockCode(f.domain, f.codomain, *f.window, f.table, inverse=(*g.window, g.table))
        assert checked == f and checked.inverse == g, name
    raw = _compose_raw(sigma, wide)
    assert BlockCode(raw.domain, raw.codomain, *raw.window, raw.table) == raw


def test_the_constructor_has_no_unchecked_switch():
    # the constant-1 table, which the check refuses, cannot be let through
    with pytest.raises(TypeError):
        BlockCode(GM, GM, 0, 0, {(0,): 1, (1,): 1}, unchecked=True)


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


def test_code_from_json_without_an_inverse():
    obj = code_to_json(shift_code(GM, 1), include_inverse=False)
    f = code_from_json(obj)
    assert f == shift_code(GM, 1) and f._inverse is None
    with pytest.raises(MissingInverseError):
        f.inverse
    assert code_to_json(f) == obj


def test_code_from_json_refuses_a_nested_inverse():
    obj = code_to_json(shift_code(GM, 1))
    obj["inverse"]["inverse"] = code_to_json(shift_code(GM, 1), include_inverse=False)
    with pytest.raises(InvalidCodeError, match="an inverse carries no inverse of its own"):
        code_from_json(obj)


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
    # the checked constructor and shift_code refuse the same, so no code
    # is written with a window that code_from_json would refuse
    one = {(0,): 0, (1,): 1}
    for left, right in ((True, True), (False, False), (0.0, 0), (0, 0.0)):
        with pytest.raises(InvalidCodeError, match="window bounds must be integers"):
            BlockCode(GM, GM, left, right, one)
    with pytest.raises(InvalidCodeError, match="window bounds must be integers"):
        BlockCode(GM, GM, 0, 0, one, inverse=(True, True, one))
    for g in (True, 1.0, -1.0, 0, 2):
        with pytest.raises(InvalidCodeError, match="shift exponent"):
            shift_code(GM, g)


@pytest.mark.parametrize(
    "window, table, detail",
    [
        ((0, 1500), {(0,): 0, (1,): 1}, "a key has another length"),
        ((0, 39), {(0,) * 40: 0, (1,) + (0,) * 39: 1}, "table of 2, more words"),
        ((0, 2), {(0, 0, 0): 0}, "table of 1, more words"),
        ((0, 1), {(0, 0): 0, (0, 1): 1, (1, 0): 0, (1, 1): 1}, "table of 4, 3 words"),
    ],
    ids=[
        "window0-table0-a key has another length",
        "window1-table1-table of 2, more words",
        "window2-table2-table of 1, more words",
        "window3-table3-table of 4, 3 words",
    ],
)
def test_table_size_is_checked_before_the_words_are_built(window, table, detail):
    # the relabeled golden mean, which no other test keeps alive: equal
    # matrices share one shift, and only a fresh one shows no word was built
    gc.collect()
    x = VertexShift(NonnegMatrix([[0, 1], [1, 1]]))
    assert not x._packed
    with pytest.raises(InvalidCodeError) as exc:
        BlockCode(x, x, *window, table)
    width = window[1] - window[0] + 1
    assert str(exc.value) == f"table must be total on allowed {width}-words ({detail})"
    assert max(x._packed, default=0) < width


def _validate_oracle(f: BlockCode) -> None:
    """The table check of BlockCode as it was written first: set equality
    for totality and one transition check per (width+1)-word."""
    width, table, x = f.width, f.table, f.domain
    total = f"table must be total on allowed {width}-words"
    if any(len(w) != width for w in table):
        raise InvalidCodeError(f"{total} (a key has another length)")
    ends = [1] * x.alphabet_size
    for _ in range(width - 1):
        if sum(ends) > len(table):
            break
        ends = [sum(ends[i] for i in x.pred[j]) for j in range(x.alphabet_size)]
    count = sum(ends)
    if count != len(table):
        allowed = "more words" if count > len(table) else f"{count} words"
        raise InvalidCodeError(f"{total} (table of {len(table)}, {allowed})")
    words = x.words(width)
    if set(table) != set(words):
        missing = set(words) - set(table)
        extra = set(table) - set(words)
        raise InvalidCodeError(f"{total} (missing {len(missing)}, extra {len(extra)})")
    n_out = f.codomain.alphabet_size
    for w, v in f.table.items():
        if not (0 <= v < n_out):
            raise InvalidCodeError(f"table value {v} outside codomain alphabet")
    for w in f.domain.words(width + 1):
        if f.table[w[1:]] not in f.codomain.succ[f.table[w[:-1]]]:
            raise InvalidCodeError(f"image of word {w} leaves the codomain shift")


def _unchecked(x, y, window, table):
    """The fields the oracle reads, around a tuple-keyed table that no
    check has seen."""
    left, right = window
    return SimpleNamespace(
        domain=x, codomain=y, left=left, right=right, width=right - left + 1, table=table
    )


def _refusal(build):
    try:
        build()
    except InvalidCodeError as exc:
        return str(exc)
    return None


@settings(derandomize=True, max_examples=500, deadline=None)
@given(data=st.data())
def test_validate_refuses_exactly_as_the_oracle(data):
    """Tables on small shifts, valid or mutated, are refused by the
    constructor exactly when the oracle refuses them, with its message."""
    shifts = [GM, FULL2, CYCLE2, CYCLE3, THREE]
    x = data.draw(st.sampled_from(shifts))
    width = data.draw(st.integers(1, 3))
    left = data.draw(st.integers(-1, 1))
    words = x.words(width)
    if data.draw(st.booleans()):
        y, k = x, data.draw(st.integers(0, width - 1))
        table = {w: w[k] for w in words}
    else:
        y = data.draw(st.sampled_from(shifts))
        table = {w: data.draw(st.integers(0, y.alphabet_size - 1)) for w in words}
    symbols = st.integers(0, x.alphabet_size - 1)
    for _ in range(data.draw(st.integers(0, 2))):
        change = data.draw(st.sampled_from(["delete", "extra", "length", "value", "image"]))
        if change == "delete" and table:
            del table[data.draw(st.sampled_from(sorted(table)))]
        elif change in ("extra", "length"):
            n = width if change == "extra" else data.draw(st.sampled_from([1, 2, 3, 4]))
            key = tuple(data.draw(st.lists(symbols, min_size=n, max_size=n)))
            table[key] = data.draw(st.integers(0, y.alphabet_size - 1))
        elif table:
            key = data.draw(st.sampled_from(sorted(table)))
            bad = [-1, y.alphabet_size, y.alphabet_size + 3]
            if change == "image":
                bad = list(range(y.alphabet_size))
            table[key] = data.draw(st.sampled_from(bad))
    window = (left, left + width - 1)
    expected = _refusal(lambda: _validate_oracle(_unchecked(x, y, window, table)))
    assert _refusal(lambda: BlockCode(x, y, *window, table)) == expected
