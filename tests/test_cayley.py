import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ssecalc.cayley import (
    FGGroupWindow,
    InvalidWindowError,
    ScheduleStep,
    TableGroup,
    ZdGroup,
    is_connected,
    reduction_schedule,
    verify_schedule,
    window_from_json,
    window_to_json,
)
from ssecalc.groups import symmetric_group

Z1 = ZdGroup(1)
Z2 = ZdGroup(2)
S3 = TableGroup(symmetric_group(3))
GENS_Z1 = [(0,), (1,)]
GENS_Z2 = [(0, 0), (1, 0), (0, 1)]
GENS_S3 = [0, 1, 2]


def test_identity_window_connected():
    w = FGGroupWindow(Z1, GENS_Z1, [(0,)])
    assert is_connected(w)
    assert reduction_schedule(w) == []


def test_gap_disconnected():
    w = FGGroupWindow(Z1, GENS_Z1, [(0,), (2,)])
    assert not is_connected(w)
    with pytest.raises(InvalidWindowError):
        reduction_schedule(w)


def test_interval_schedule():
    w = FGGroupWindow(Z1, GENS_Z1, [(-1,), (0,), (1,)])
    steps = reduction_schedule(w)
    assert len(steps) == 2
    assert {s.removed for s in steps} == {(-1,), (1,)}
    assert verify_schedule(w, steps)


def test_tromino_connected_and_scheduled():
    w = FGGroupWindow(Z2, GENS_Z2, [(0, 0), (1, 0), (1, 1)])
    assert is_connected(w)
    steps = reduction_schedule(w)
    assert len(steps) == 2
    for s in steps:
        assert w.ops.op(s.parent, s.generator) == s.removed
    assert verify_schedule(w, steps)


def test_identity_must_be_in_window():
    with pytest.raises(InvalidWindowError):
        reduction_schedule(FGGroupWindow(Z1, GENS_Z1, [(1,), (2,)]))


def test_gens_must_contain_identity():
    with pytest.raises(InvalidWindowError):
        FGGroupWindow(Z1, [(1,)], [(0,)])


def test_s3_window():
    w = FGGroupWindow(S3, GENS_S3, [0, 1, 2, S3.op(1, 2)])
    assert is_connected(w)
    steps = reduction_schedule(w)
    assert len(steps) == 3
    assert verify_schedule(w, steps)


def _steps(*triples):
    return [ScheduleStep((h,), (g,), (p,)) for h, g, p in triples]


# on Z with window {-1, 0, 1, 2}: remove 2, 1 and -1, each from a
# neighbour; each of the first five broken schedules below would reach
# {e} if its one bad certificate were let through
_VALID = [(2, 1, 1), (1, 1, 0), (-1, -1, 0)]


@pytest.mark.parametrize(
    "broken",
    [
        _steps((3, 1, 2), *_VALID),
        _steps((2, 1, 1), (1, 1, 0), (-1, 1, -2)),
        _steps((2, -1, 1), *_VALID[1:]),
        _steps((2, 2, 0), *_VALID[1:]),
        _steps((2, 0, 2), *_VALID[1:]),
        _steps(*_VALID[:-1]),
        # a schedule that removes e, or leaves a part of the window
        # unreachable from e, cannot end at {e}
        _steps((0, 1, -1)),
        _steps((1, -1, 2), (-1, -1, 0)),
    ],
    ids=["removed-outside", "parent-outside", "not-parent-times-g", "g-outside-s-prime",
         "g-identity", "stops-early", "identity-removed", "disconnects"],
)
def test_verify_schedule_refuses_each_broken_certificate(broken):
    w = FGGroupWindow(Z1, GENS_Z1, [(-1,), (0,), (1,), (2,)])
    assert verify_schedule(w, _steps(*_VALID))
    assert not verify_schedule(w, broken)


def random_connected_window(rng, ops, gens, size):
    window = {ops.identity}
    sprime = list({ops.op(ops.identity, g) for g in gens} | {ops.inv(g) for g in gens})
    while len(window) < size:
        t = rng.choice(sorted(window))
        g = rng.choice(sprime)
        window.add(ops.op(t, g))
    return FGGroupWindow(ops, gens, window)


def test_random_schedules_all_groups():
    rng = random.Random(0)
    for ops, gens, maxsize in ((Z1, GENS_Z1, 8), (Z2, GENS_Z2, 8), (S3, GENS_S3, 6)):
        for _ in range(30):
            w = random_connected_window(rng, ops, gens, rng.randint(1, maxsize))
            steps = reduction_schedule(w)
            assert len(steps) == len(w.window) - 1
            assert verify_schedule(w, steps)


@settings(max_examples=40, deadline=None)
@given(st.sets(st.integers(-5, 5), min_size=0, max_size=6), st.integers(0, 10**6))
def test_interval_windows_hypothesis(extra, seed):
    # any set closed up to an interval containing 0 is connected in Z
    pts = sorted(extra | {0})
    lo, hi = pts[0], pts[-1]
    window = [(k,) for k in range(lo, hi + 1)]
    w = FGGroupWindow(Z1, GENS_Z1, window)
    assert is_connected(w)
    steps = reduction_schedule(w)
    assert len(steps) == len(window) - 1
    assert verify_schedule(w, steps)


def test_window_json_roundtrip():
    w = FGGroupWindow(Z2, GENS_Z2, [(0, 0), (1, 0)])
    w2 = window_from_json(window_to_json(w))
    assert w2.window == w.window and w2.gens == w.gens
    w3 = FGGroupWindow(S3, GENS_S3, [0, 3])
    w4 = window_from_json(window_to_json(w3))
    assert w4.window == w3.window
