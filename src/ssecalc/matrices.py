"""Exact arithmetic on nonnegative integer matrices.

Matrices are immutable.  Entries are arbitrary-precision Python integers,
so products are always exact and overflow cannot occur.  Internally each
row is packed into a single integer with a fixed field width per entry;
{0,1} matrices use width 1, i.e. plain row bitmasks, which keeps the large
boolean matrices produced by higher-block constructions cheap to store and
multiply.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from operator import attrgetter, or_
from typing import Iterable, Optional, Sequence

from .errors import (
    DimensionMismatchError,
    InvalidIndexSetError,
    InvalidMatrixError,
    json_fields,
)
from .frozen import Frozen, slot_setters

# Counting products above this many scalar multiplications are refused.
# Boolean products never hit this path; see mul().
_SCHOOLBOOK_LIMIT = 8_000_000


def _pack(values: Sequence[int], width: int) -> int:
    acc = 0
    for j, v in enumerate(values):
        acc |= v << (j * width)
    return acc


def unpack_row(packed: int, cols: int, width: int) -> list[int]:
    """The cols entries of a row packed at width bits per entry."""
    mask = (1 << width) - 1
    return [(packed >> (j * width)) & mask for j in range(cols)]


class NonnegMatrix(Frozen):
    """Immutable rectangular matrix with nonnegative integer entries."""

    __slots__ = ("rows", "cols", "_width", "_rows", "_hash")

    def __init__(self, entries: Iterable[Iterable[int]]):
        data = [list(row) for row in entries]
        if not data or not data[0]:
            raise InvalidMatrixError("matrix must have at least one row and column")
        cols = len(data[0])
        maxval = 0
        for row in data:
            if len(row) != cols:
                raise InvalidMatrixError("ragged rows")
            for v in row:
                if not isinstance(v, int) or isinstance(v, bool) or v < 0:
                    raise InvalidMatrixError(f"entry {v!r} is not a nonnegative integer")
                if v > maxval:
                    maxval = v
        width = max(1, maxval.bit_length())
        _set_rows(self, len(data))
        _set_cols(self, cols)
        _set_width(self, width)
        _set_packed(self, tuple(_pack(row, width) for row in data))
        _set_hash(self, None)

    def __reduce__(self):
        return (NonnegMatrix, (self.to_lists(),))

    @classmethod
    def _from_packed(cls, rows: int, cols: int, width: int, packed: tuple[int, ...]) -> "NonnegMatrix":
        m = object.__new__(cls)
        _set_rows(m, rows)
        _set_cols(m, cols)
        _set_width(m, width)
        _set_packed(m, packed)
        _set_hash(m, None)
        return m

    @classmethod
    def from_bool_rows(cls, cols: int, masks: Sequence[int]) -> "NonnegMatrix":
        """Build a {0,1} matrix from per-row bitmasks (bit j = entry j)."""
        if not masks or cols <= 0:
            raise InvalidMatrixError("matrix must have at least one row and column")
        full = (1 << cols) - 1
        for m in masks:
            if m < 0 or m & ~full:
                raise InvalidMatrixError("row mask out of range")
        return cls._from_packed(len(masks), cols, 1, tuple(masks))

    @classmethod
    def identity(cls, n: int) -> "NonnegMatrix":
        return cls.from_bool_rows(n, [1 << i for i in range(n)])

    # -- access -------------------------------------------------------

    @property
    def is_boolean(self) -> bool:
        return self._width == 1

    @property
    def is_square(self) -> bool:
        return self.rows == self.cols

    def entry(self, i: int, j: int) -> int:
        if not (0 <= i < self.rows and 0 <= j < self.cols):
            raise IndexError((i, j))
        w = self._width
        return (self._rows[i] >> (j * w)) & ((1 << w) - 1)

    def row_list(self, i: int) -> list[int]:
        return unpack_row(self._rows[i], self.cols, self._width)

    def to_lists(self) -> list[list[int]]:
        return [self.row_list(i) for i in range(self.rows)]

    def row_mask(self, i: int) -> int:
        """Bitmask of columns with a nonzero entry in row i."""
        if self._width == 1:
            return self._rows[i]
        w = self._width
        mask = (1 << w) - 1
        r = self._rows[i]
        out = 0
        j = 0
        while r:
            if r & mask:
                out |= 1 << j
            r >>= w
            j += 1
        return out

    def support_rows(self) -> list[int]:
        if self._width == 1:
            return list(self._rows)
        return [self.row_mask(i) for i in range(self.rows)]

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        if not isinstance(other, NonnegMatrix):
            return NotImplemented
        return (
            self.rows == other.rows
            and self.cols == other.cols
            and self._width == other._width
            and self._rows == other._rows
        )

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            h = hash((self.rows, self.cols, self._width, self._rows))
            _set_hash(self, h)
        return h

    def __repr__(self) -> str:
        if self.rows * self.cols <= 64:
            return f"NonnegMatrix({self.to_lists()!r})"
        return f"NonnegMatrix({self.rows}x{self.cols})"

    # -- algebra ------------------------------------------------------

    def transpose(self) -> "NonnegMatrix":
        if self._width == 1:
            out = [0] * self.cols
            for i, r in enumerate(self._rows):
                while r:
                    j = (r & -r).bit_length() - 1
                    r &= r - 1
                    out[j] |= 1 << i
            return NonnegMatrix.from_bool_rows(self.rows, out)
        return NonnegMatrix([[self.entry(i, j) for i in range(self.rows)] for j in range(self.cols)])

    def power(self, k: int) -> "NonnegMatrix":
        if not self.is_square:
            raise DimensionMismatchError("power of a non-square matrix")
        if k < 0:
            raise InvalidMatrixError("negative power")
        acc = NonnegMatrix.identity(self.rows)
        for _ in range(k):
            acc = mul(acc, self)
        return acc


_set_rows, _set_cols, _set_width, _set_packed, _set_hash = slot_setters(NonnegMatrix)

# matrix_value(m) is (cols, width, packed rows), the fields m is made of:
# its rows are unpack_row(row, cols, width), and the row masks themselves
# when width is 1.  Two matrices are equal exactly when their values are,
# and a value hashes in C, so a table keyed by values pays no Python-level
# __hash__ per lookup.
matrix_value = attrgetter("cols", "_width", "_rows")


def mul(a: NonnegMatrix, b: NonnegMatrix) -> NonnegMatrix:
    """Exact integer product a·b.

    Boolean × boolean products of any size run on bitmask rows; products
    with larger entries fall back to schoolbook multiplication, which is
    deliberately capped (they only occur on small matrices here).
    """
    if a.cols != b.rows:
        raise DimensionMismatchError(f"{a.rows}x{a.cols} times {b.rows}x{b.cols}")
    if a._width == 1 and b._width == 1:
        p = _boolean_mul(a, b)
        if p is not None:
            return p
        # some entry is >= 2: count with popcounts on column masks
        if a.rows * b.cols > _SCHOOLBOOK_LIMIT:
            raise InvalidMatrixError("non-boolean product of huge boolean matrices")
        bcols = b.transpose()._rows
        out = [
            [(arow & bcols[j]).bit_count() for j in range(b.cols)]
            for arow in a._rows
        ]
        return NonnegMatrix(out)
    if a.rows * b.cols * a.cols > _SCHOOLBOOK_LIMIT:
        raise InvalidMatrixError("product too large for counting path")
    brows = [b.row_list(k) for k in range(b.rows)]
    out = []
    for i in range(a.rows):
        arow = a.row_list(i)
        acc = [0] * b.cols
        for k, av in enumerate(arow):
            if av:
                brow = brows[k]
                for j in range(b.cols):
                    bv = brow[j]
                    if bv:
                        acc[j] += av * bv
        out.append(acc)
    return NonnegMatrix(out)


# _SET_BITS[v]: the positions of the set bits of the byte v, ascending
_SET_BITS = tuple(tuple(j for j in range(8) if v >> j & 1) for v in range(256))


def _boolean_rows(arows: Sequence[int], brows: Sequence[int]) -> Optional[tuple[int, ...]]:
    """The row masks of the product of the {0,1} matrices with row masks
    arows and brows, or None when some entry is >= 2.  When brows has at
    most 8 rows, each mask of arows is one byte and takes one table
    lookup; a wider one is read a byte at a time, one lookup per byte."""
    out = []
    if len(brows) <= 8:
        for sel in arows:
            acc = dup = 0
            for k in _SET_BITS[sel]:
                brow = brows[k]
                dup |= acc & brow
                acc |= brow
            if dup:
                return None
            out.append(acc)
        return tuple(out)
    for sel in arows:
        acc = dup = 0
        base = 0
        while sel:
            for k in _SET_BITS[sel & 255]:
                brow = brows[base + k]
                dup |= acc & brow
                acc |= brow
            sel >>= 8
            base += 8
        if dup:
            return None
        out.append(acc)
    return tuple(out)


def _boolean_mul(a: NonnegMatrix, b: NonnegMatrix) -> Optional[NonnegMatrix]:
    """a·b of {0,1} matrices of matching shape when it is a {0,1} matrix
    too, else None (some entry is >= 2).  Unchecked: the caller ensures
    both are {0,1} and a.cols == b.rows."""
    rows = _boolean_rows(a._rows, b._rows)
    if rows is None:
        return None
    return NonnegMatrix._from_packed(a.rows, b.cols, 1, rows)


def _product_is(a: NonnegMatrix, b: NonnegMatrix, c: NonnegMatrix) -> bool:
    """mul(a, b) == c, without building a·b when all three are {0,1} and
    a.cols == b.rows; a {0,1} a·b with an entry >= 2 equals no {0,1} c.
    Otherwise mul(a, b) == c, so a shape mismatch raises as mul does."""
    if a._width == 1 and b._width == 1 and c._width == 1 and a.cols == b.rows:
        return c.cols == b.cols and _boolean_rows(a._rows, b._rows) == c._rows
    return mul(a, b) == c


def is_nondegenerate(a: NonnegMatrix) -> bool:
    """True iff every row and every column has a positive entry: no row
    mask is 0 and their union is every column.  A {0,1} matrix's packed
    rows are its row masks and are read as they are."""
    rows = a._rows if a._width == 1 else a.support_rows()
    return 0 not in rows and reduce(or_, rows) == (1 << a.cols) - 1


@dataclass(frozen=True)
class IndexSet:
    """A subset of {1,...,parent_size}, kept strictly increasing."""

    parent_size: int
    members: tuple[int, ...]

    def __post_init__(self):
        if self.parent_size <= 0:
            raise InvalidIndexSetError("parent_size must be positive")
        prev = 0
        for m in self.members:
            if not (1 <= m <= self.parent_size):
                raise InvalidIndexSetError(f"index {m} out of range 1..{self.parent_size}")
            if m <= prev:
                raise InvalidIndexSetError("members must be strictly increasing")
            prev = m

    @classmethod
    def full(cls, n: int) -> "IndexSet":
        return cls(n, tuple(range(1, n + 1)))

    def __len__(self) -> int:
        return len(self.members)

    @property
    def is_full(self) -> bool:
        return len(self.members) == self.parent_size

    def compose(self, inner: "IndexSet") -> "IndexSet":
        """Index-set composition: (K ∘ K')_i = K[K'_i]."""
        if inner.parent_size != len(self.members):
            raise InvalidIndexSetError("composition size mismatch")
        return IndexSet(self.parent_size, tuple(self.members[i - 1] for i in inner.members))


def submatrix(a: NonnegMatrix, k: IndexSet, l: IndexSet) -> NonnegMatrix:
    """Restriction of a to the rows in k and columns in l (both 1-based)."""
    if k.parent_size != a.rows or l.parent_size != a.cols:
        raise InvalidIndexSetError("index set does not match matrix shape")
    if not k.members or not l.members:
        raise InvalidIndexSetError("empty index set")
    if a._width == 1:
        masks = []
        lm = l.members
        for i in k.members:
            r = a._rows[i - 1]
            m = 0
            for jj, j in enumerate(lm):
                if (r >> (j - 1)) & 1:
                    m |= 1 << jj
            masks.append(m)
        return NonnegMatrix.from_bool_rows(len(lm), masks)
    return NonnegMatrix(
        [[a.entry(i - 1, j - 1) for j in l.members] for i in k.members]
    )


def identity_submatrix(k: IndexSet, l: IndexSet) -> NonnegMatrix:
    """I_{K×L}: restriction of an identity large enough for both index sets."""
    n = max(k.parent_size, l.parent_size)
    kk = IndexSet(n, k.members)
    ll = IndexSet(n, l.members)
    return submatrix(NonnegMatrix.identity(n), kk, ll)


def e_s_matrix(s: NonnegMatrix) -> NonnegMatrix:
    """Diagonal {0,1} matrix marking the nonzero rows of s."""
    masks = [
        (1 << i) if s.row_mask(i) else 0
        for i in range(s.rows)
    ]
    return NonnegMatrix.from_bool_rows(s.rows, masks)


def core_indices(a: NonnegMatrix) -> IndexSet:
    """Indices that occur in bi-infinite paths of the graph of a.

    Computed by repeatedly deleting indices whose (restricted) row or
    column is zero until stable.  The result may be empty.
    """
    if not a.is_square:
        raise DimensionMismatchError("core_indices needs a square matrix")
    n = a.rows
    support = a.support_rows()
    alive = (1 << n) - 1
    changed = True
    while changed and alive:
        changed = False
        colacc = 0
        for i in range(n):
            if (alive >> i) & 1:
                if support[i] & alive:
                    colacc |= support[i] & alive
                else:
                    alive &= ~(1 << i)
                    changed = True
        for i in range(n):
            if (alive >> i) & 1 and not ((colacc >> i) & 1):
                alive &= ~(1 << i)
                changed = True
    members = tuple(i + 1 for i in range(n) if (alive >> i) & 1)
    return IndexSet(n, members)


# -- JSON format ------------------------------------------------------


def matrix_to_json(a: NonnegMatrix) -> dict:
    return {"rows": a.rows, "cols": a.cols, "entries": a.to_lists()}


def matrix_from_json(obj: dict) -> NonnegMatrix:
    keys = ("rows", "cols", "entries")
    rows, cols, entries = json_fields(obj, InvalidMatrixError, "a matrix", keys)
    try:
        m = NonnegMatrix(entries)
    except TypeError as exc:
        raise InvalidMatrixError(f"malformed matrix object: {exc}") from exc
    check_declared_shape(m, rows, cols)
    return m


def check_declared_shape(m, rows, cols) -> None:
    """Refuse a declared shape of a JSON matrix that is not exactly the
    ints m.rows and m.cols; True and 1.0 equal 1 but are refused."""
    if type(rows) is not int or type(cols) is not int:
        raise InvalidMatrixError(f"declared shape must be integers, not {rows!r} x {cols!r}")
    if m.rows != rows or m.cols != cols:
        raise InvalidMatrixError("declared shape does not match entries")
