"""Every immutable value type of the package, found by walking the
subclasses of ``Frozen``: assignment and deletion are refused, and copies
and pickles at every protocol are equal values.  A value type with no
sample below fails, so a new one cannot be left without a ``__reduce__``."""

import copy
import importlib
import pickle
import pkgutil

import pytest

import ssecalc
from ssecalc.cayley import FGGroupWindow, TableGroup, ZdGroup
from ssecalc.codes import BlockCode, normalize, shift_code
from ssecalc.freudenthal import OrderedComplex
from ssecalc.frozen import Frozen
from ssecalc.groups import FiniteGroup, symmetric_group
from ssecalc.gsft import GroupRingMatrix
from ssecalc.matrices import NonnegMatrix
from ssecalc.shifts import VertexShift, higher_block

GM = VertexShift(NonnegMatrix([[1, 1], [1, 0]]))
S3 = symmetric_group(3)

SAMPLES = {
    NonnegMatrix: [GM.matrix, NonnegMatrix([[3, 0, 12], [1, 1, 0]])],
    VertexShift: [GM],
    BlockCode: [
        shift_code(GM, 1),
        higher_block(GM, 3)[1],
        higher_block(GM, 3)[1].inverse,
        # the shift map read on the window [0, 1], given without an inverse
        BlockCode(GM, GM, 0, 1, {(0, 0): 0, (0, 1): 1, (1, 0): 0}),
    ],
    FiniteGroup: [S3],
    GroupRingMatrix: [GroupRingMatrix(S3, [[{0, 3}, {1}], [set(), {5}]])],
    FGGroupWindow: [
        FGGroupWindow(ZdGroup(2), [(0, 0), (1, 0), (0, 1)], [(0, 0), (1, 0), (1, 1)]),
        FGGroupWindow(TableGroup(S3), [0, 1, 2], [0, 1]),
    ],
    OrderedComplex: [
        OrderedComplex(
            ["a", "b", "c", "d"],
            [("a", "b"), ("b", "c"), ("a", "c"), ("c", "d")],
            [("a", "b", "c"), ("c", "d")],
        ),
    ],
}


# every module of the package is imported, so every subclass is defined
for _module in pkgutil.iter_modules(ssecalc.__path__):
    importlib.import_module(f"ssecalc.{_module.name}")


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


FROZEN_TYPES = sorted(set(_subclasses(Frozen)), key=lambda t: (t.__module__, t.__qualname__))


def _slots(cls):
    return [
        name
        for klass in cls.__mro__
        for name in klass.__dict__.get("__slots__", ())
        if name != "__weakref__"
    ]


def _copies(value):
    out = [copy.copy(value), copy.deepcopy(value)]
    return out + [pickle.loads(pickle.dumps(value, p)) for p in range(pickle.HIGHEST_PROTOCOL + 1)]


@pytest.mark.parametrize("cls", FROZEN_TYPES, ids=lambda t: t.__name__)
def test_every_frozen_type_refuses_assignment_and_copies_and_pickles(cls):
    samples = SAMPLES.get(cls)
    assert samples, f"no sample value of {cls.__name__}"
    assert len(set(samples)) == len(samples)  # distinct samples are unequal
    for value in samples:
        assert type(value) is cls and not hasattr(value, "__dict__")
        for name in _slots(cls):
            with pytest.raises(AttributeError, match="is immutable"):
                setattr(value, name, getattr(value, name))
            with pytest.raises(AttributeError, match="is immutable"):
                delattr(value, name)
        with pytest.raises(AttributeError, match="is immutable"):
            value.extra = 1
        if cls is BlockCode:
            normalize(value)  # the kept normal form is not copied
        for c in _copies(value):
            assert type(c) is cls and c == value and hash(c) == hash(value)
            if cls is VertexShift:
                assert c is value
            if cls is BlockCode:
                assert c._normal is None
                if value._inverse is None:
                    assert c._inverse is None
                else:
                    assert c.inverse == value.inverse and c.inverse.inverse is c


def test_the_kept_normal_form_is_a_slot():
    assert "_normal" in _slots(BlockCode)


def test_block_code_samples_cover_both_kinds():
    codes = SAMPLES[BlockCode]
    assert any(f._inverse is None for f in codes)
    assert any(f._inverse is not None and f.inverse.window != f.window for f in codes)
