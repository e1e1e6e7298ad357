"""Sliding block codes between vertex shifts.

A code is a local rule on an interval window [left, right]; the value at
coordinate i of the image depends on the coordinates i+left .. i+right of
the input.  Tables are stored only on allowed words; querying a forbidden
word raises.  Equality of codes as functions is decided on canonical
normal forms: shrink the window from both ends as far as possible, then
slide it toward the origin where the shift's structure permits (this is
what makes e.g. powers of the shift map on a cycle compare equal to the
alphabet permutation they are).
"""

from __future__ import annotations

from types import MappingProxyType
from typing import Mapping, Optional, Sequence

from .errors import (
    InvalidCodeError,
    MissingInverseError,
    ShiftMismatchError,
)
from .frozen import Frozen, slot_setters
from .matrices import NonnegMatrix, matrix_from_json, matrix_to_json
from .shifts import VertexShift


class BlockCode(Frozen):
    """A sliding block map given by a total table on allowed window words.

    Codes are immutable: the constructor checks a copy of the caller's
    table, and ``table`` is a read-only view of it.  An invertible code is
    built together with its inverse: ``inverse`` takes the inverse's
    ``(left, right, table)``, which is copied and checked the same way, and
    the two are linked, so ``f.inverse.inverse is f``.  Whether they really
    are mutually inverse is decided by ``verify_inverse``, not here.  The
    library's own codes, on tables it has built, come from ``_trusted``.
    Copies and pickles rebuild the code and its inverse through this
    constructor, linked again.
    """

    __slots__ = ("domain", "codomain", "left", "right", "table", "_inverse", "_hash")

    def __new__(
        cls,
        domain: VertexShift,
        codomain: VertexShift,
        left: int,
        right: int,
        table: Mapping[tuple[int, ...], int],
        inverse: Optional[tuple[int, int, Mapping[tuple[int, ...], int]]] = None,
    ):
        if inverse is not None:
            inverse = (*inverse[:2], dict(inverse[2]))
        f = cls._trusted(domain, codomain, left, right, dict(table), inverse)
        f._validate()
        if inverse is not None:
            f._inverse._validate()
        return f

    @classmethod
    def _trusted(cls, domain, codomain, left, right, table, inverse=None) -> "BlockCode":
        """The code, linked to its inverse if one is given, on the library's
        own fresh tables: neither checked nor copied, and a read-only view
        is kept as it is."""
        f = object.__new__(cls)
        _set_domain(f, domain)
        _set_codomain(f, codomain)
        _set_left(f, left)
        _set_right(f, right)
        _set_table(f, table if type(table) is MappingProxyType else MappingProxyType(table))
        _set_hash(f, None)
        partner = None
        if inverse is not None:
            partner = cls._trusted(codomain, domain, *inverse)
            _set_inverse(partner, f)
        _set_inverse(f, partner)
        return f

    def __reduce__(self):
        g = self._inverse
        inverse = None if g is None else (g.left, g.right, dict(g.table))
        fields = (self.domain, self.codomain, self.left, self.right, dict(self.table))
        return (BlockCode, (*fields, inverse))

    def _validate(self):
        if type(self.left) is not int or type(self.right) is not int:
            raise InvalidCodeError(f"window bounds must be integers, not {self.window!r}")
        if self.left > self.right:
            raise InvalidCodeError("window left must be <= right")
        width, table, x = self.width, self.table, self.domain
        # A wide window has exponentially many allowed words, so the table's
        # size is checked against their count before any word is built.
        # Every symbol has a successor, so the count never falls as words
        # grow and can stop once it exceeds the table; keys of the window's
        # length bound the number of steps by the input's size.
        total = f"table must be total on allowed {width}-words"
        if any(len(w) != width for w in table):
            raise InvalidCodeError(f"{total} (a key has another length)")
        ends = [1] * x.alphabet_size  # allowed words of the current length, by last symbol
        for _ in range(width - 1):
            if sum(ends) > len(table):
                break
            ends = [sum(ends[i] for i in x.pred(j)) for j in range(x.alphabet_size)]
        count = sum(ends)
        if count != len(table):
            allowed = "more words" if count > len(table) else f"{count} words"
            raise InvalidCodeError(f"{total} (table of {len(table)}, {allowed})")
        words = x.words(width)
        # the table has as many keys as there are words, so holding every
        # word makes it total; the sets are built only for the message
        if not all(map(table.__contains__, words)):
            missing = set(words) - set(table)
            extra = set(table) - set(words)
            raise InvalidCodeError(f"{total} (missing {len(missing)}, extra {len(extra)})")
        n_out = self.codomain.alphabet_size
        values = table.values()
        if min(values) < 0 or max(values) >= n_out:
            for v in values:
                if not (0 <= v < n_out):
                    raise InvalidCodeError(f"table value {v} outside codomain alphabet")
        # adjacent image symbols must be codomain-allowed; by induction this
        # makes image words of every length allowed.  The (width+1)-words
        # w + (a,) are visited in the order of x.words(width + 1).
        masks = self.codomain.matrix.support_rows()
        succ = x._succ
        for w in words:
            row = masks[table[w]]
            u = w[1:]
            for a in succ[w[-1]]:
                if not row >> table[u + (a,)] & 1:
                    raise InvalidCodeError(f"image of word {w + (a,)} leaves the codomain shift")

    # -- basic queries --------------------------------------------------

    @property
    def width(self) -> int:
        return self.right - self.left + 1

    @property
    def window(self) -> tuple[int, int]:
        return (self.left, self.right)

    @property
    def inverse(self) -> "BlockCode":
        if self._inverse is None:
            raise MissingInverseError("code has no stored inverse")
        return self._inverse

    def apply_word(self, word: Sequence[int]) -> tuple[int, ...]:
        """Image of a finite allowed word; shorter by width-1."""
        w = tuple(word)
        width = self.width
        if len(w) < width:
            raise InvalidCodeError("word shorter than the window")
        x = self.domain
        if not all(0 <= a < x.alphabet_size for a in w) or not all(map(x.has_edge, w, w[1:])):
            raise InvalidCodeError(f"forbidden word {w}")
        # the table is total on allowed words, so every window of w is a key
        return tuple(self.table[w[i : i + width]] for i in range(len(w) - width + 1))

    def table_at(self, left: int, right: int) -> dict[tuple[int, ...], int]:
        """The same local rule expressed on a larger window."""
        if left > self.left or right < self.right:
            raise InvalidCodeError("can only widen the window")
        off = self.left - left
        width = self.width
        return {
            w: self.table[w[off : off + width]]
            for w in self.domain.words(right - left + 1)
        }

    def __eq__(self, other) -> bool:
        if not isinstance(other, BlockCode):
            return NotImplemented
        return (
            self.domain == other.domain
            and self.codomain == other.codomain
            and self.left == other.left
            and self.right == other.right
            and self.table == other.table
        )

    def __hash__(self) -> int:
        if self._hash is None:
            items = tuple(sorted(self.table.items()))
            _set_hash(self, hash((self.domain, self.codomain, self.left, self.right, items)))
        return self._hash

    def __repr__(self) -> str:
        return (
            f"BlockCode({self.domain.alphabet_size}->{self.codomain.alphabet_size} "
            f"symbols, window [{self.left},{self.right}])"
        )


_set_domain, _set_codomain, _set_left, _set_right, _set_table, _set_inverse, _set_hash = (
    slot_setters(BlockCode)
)


def identity_code(x: VertexShift) -> BlockCode:
    table = {(a,): a for a in range(x.alphabet_size)}
    return BlockCode._trusted(x, x, 0, 0, table, (0, 0, table))


def shift_code(x: VertexShift, g: int) -> BlockCode:
    """The shift map tau_g (value at i reads coordinate i+g) as a code."""
    if type(g) is not int or g not in (1, -1):
        raise InvalidCodeError(f"shift exponent must be the integer 1 or -1, not {g!r}")
    table = {(a,): a for a in range(x.alphabet_size)}
    return BlockCode._trusted(x, x, g, g, table, (-g, -g, table))


def _compose_data(g: BlockCode, f: BlockCode) -> tuple[int, int, dict]:
    """The window and table of g∘f."""
    if f.codomain != g.domain:
        raise ShiftMismatchError("compose: f.codomain != g.domain")
    width = f.width + g.width - 1
    ftab = f.table.__getitem__
    gtab = g.table
    windows = [slice(i, i + f.width) for i in range(g.width)]
    table = {
        w: gtab[tuple(map(ftab, map(w.__getitem__, windows)))]
        for w in f.domain.words(width)
    }
    return f.left + g.left, f.right + g.right, table


def _compose_raw(g: BlockCode, f: BlockCode) -> BlockCode:
    """g∘f without an inverse."""
    return BlockCode._trusted(f.domain, g.codomain, *_compose_data(g, f))


def compose(g: BlockCode, f: BlockCode) -> BlockCode:
    """The sliding block code g∘f; windows add componentwise."""
    data = _compose_data(g, f)
    inverse = None
    if f._inverse is not None and g._inverse is not None:
        inverse = _compose_data(f._inverse, g._inverse)
    return BlockCode._trusted(f.domain, g.codomain, *data, inverse)


def _try_rewindow(x: VertexShift, width: int, tab: Mapping, slide: bool, right: bool):
    """The table of a rule of the given width on x, on a window without its
    rightmost (right) or its leftmost coordinate: one shorter, or (slide)
    as wide and moved one step away from that end.  None when the rule
    depends on the dropped coordinate."""
    words = x.words(width if slide else width - 1)
    new = {}
    if right:
        succ = x._succ
        for u in words:
            core = u[1:] if slide else u
            it = iter(succ[u[-1]])
            v0 = tab[core + (next(it),)]
            for a in it:
                if tab[core + (a,)] != v0:
                    return None
            new[u] = v0
    else:
        pred = x._pred
        for u in words:
            core = u[:-1] if slide else u
            it = iter(pred[u[0]])
            v0 = tab[(next(it),) + core]
            for a in it:
                if tab[(a,) + core] != v0:
                    return None
            new[u] = v0
    return new


def _normalize_data(f: BlockCode) -> tuple[int, int, Mapping]:
    """The window and table of f's normal form; the table is f.table
    itself when f is already normal."""
    x, left, right, tab = f.domain, f.left, f.right, f.table
    while right > left:
        new = _try_rewindow(x, right - left + 1, tab, slide=False, right=True)
        if new is None:
            break
        right, tab = right - 1, new
    while right > left:
        new = _try_rewindow(x, right - left + 1, tab, slide=False, right=False)
        if new is None:
            break
        left, tab = left + 1, new
    while left > 0:
        new = _try_rewindow(x, right - left + 1, tab, slide=True, right=True)
        if new is None:
            break
        left, right, tab = left - 1, right - 1, new
    while right < 0:
        new = _try_rewindow(x, right - left + 1, tab, slide=True, right=False)
        if new is None:
            break
        left, right, tab = left + 1, right + 1, new
    return left, right, tab


def normalize(f: BlockCode) -> BlockCode:
    """Canonical minimal-window form; equality of normal forms is equality
    of the codes as functions."""
    data = _normalize_data(f)
    g = f._inverse
    inverse = None if g is None else _normalize_data(g)
    if data[2] is f.table and (g is None or inverse[2] is g.table):
        return f
    return BlockCode._trusted(f.domain, f.codomain, *data, inverse)


def is_identity(f: BlockCode) -> bool:
    g = normalize(f)
    return (
        g.domain == g.codomain
        and g.window == (0, 0)
        and all(g.table[(a,)] == a for a in range(g.domain.alphabet_size))
    )


def verify_inverse(f: BlockCode, g: BlockCode) -> bool:
    """True iff both compositions normalize to identity codes."""
    if f.domain != g.codomain or f.codomain != g.domain:
        return False
    return is_identity(_compose_raw(g, f)) and is_identity(_compose_raw(f, g))


def equal_codes(f: BlockCode, g: BlockCode) -> bool:
    return normalize(f) == normalize(g)


def is_alphabet_bijection(f: BlockCode) -> bool:
    g = normalize(f)
    if g.window != (0, 0):
        return False
    vals = set(g.table.values())
    return len(vals) == g.domain.alphabet_size == g.codomain.alphabet_size


def _fits(fn: BlockCode, lo: int, hi: int, inverse: bool = True) -> bool:
    """Whether the window of the normal code fn lies inside (lo, hi) and,
    unless inverse is False, its inverse's inside the mirrored (-hi, -lo)."""
    if fn.left < lo or fn.right > hi:
        return False
    if not inverse:
        return True
    gn = fn.inverse
    return gn.left >= -hi and gn.right <= -lo


def is_elementary(f: BlockCode) -> bool:
    """Membership in H: window inside {0,1}, inverse window inside {-1,0}."""
    if f._inverse is None:
        raise MissingInverseError("elementarity needs a stored inverse")
    return _fits(normalize(f), 0, 1)


def is_inverse_elementary(f: BlockCode) -> bool:
    """Membership in H^{-1}: window inside {-1,0}, inverse inside {0,1}."""
    if f._inverse is None:
        raise MissingInverseError("elementarity needs a stored inverse")
    return _fits(normalize(f), -1, 0)


def relabel_codomain(f: BlockCode, perm: Sequence[int]) -> BlockCode:
    """Compose f with the alphabet bijection old -> perm[old] of its codomain.

    Returns beta∘f onto the relabeled codomain shift.
    """
    n = f.codomain.alphabet_size
    if sorted(perm) != list(range(n)):
        raise InvalidCodeError("perm is not a bijection of the codomain alphabet")
    succ = f.codomain._succ
    masks = [0] * n
    for i in range(n):
        masks[perm[i]] = sum(1 << perm[j] for j in succ[i])
    target = VertexShift(NonnegMatrix.from_bool_rows(n, masks))
    inverse = None
    if f._inverse is not None:
        g = f._inverse
        inverse = (g.left, g.right, {tuple(perm[a] for a in w): v for w, v in g.table.items()})
    return BlockCode._trusted(
        f.domain, target, f.left, f.right, {w: perm[v] for w, v in f.table.items()}, inverse
    )


def bijection_code(x: VertexShift, perm: Sequence[int]) -> BlockCode:
    """The alphabet bijection a -> perm[a] from x onto the relabeled shift."""
    return relabel_codomain(identity_code(x), perm)


# -- JSON format ------------------------------------------------------


def code_to_json(f: BlockCode, include_inverse: bool = True) -> dict:
    out = {
        "domain": matrix_to_json(f.domain.matrix),
        "codomain": matrix_to_json(f.codomain.matrix),
        "window": [f.left, f.right],
        "table": [
            [[a + 1 for a in w], v + 1] for w, v in sorted(f.table.items())
        ],
    }
    if include_inverse and f._inverse is not None:
        out["inverse"] = code_to_json(f._inverse, include_inverse=False)
    return out


def _code_fields(obj) -> tuple:
    """The shifts, window and 0-based table of one block code object."""
    try:
        domain = VertexShift(matrix_from_json(obj["domain"]))
        codomain = VertexShift(matrix_from_json(obj["codomain"]))
        left, right = obj["window"]
        entries = [tuple(e) for e in obj["table"]]
        table = {tuple(a - 1 for a in w): v - 1 for w, v in entries}
    except (TypeError, KeyError, ValueError) as exc:
        raise InvalidCodeError(f"malformed block code object: {exc}") from exc
    for n in (left, right, *(s for w, v in entries for s in (*w, v))):
        if type(n) is not int:
            raise InvalidCodeError(f"window and table symbols must be integers, not {n!r}")
    return domain, codomain, left, right, table


def code_from_json(obj: dict) -> BlockCode:
    """The code and its inverse, each built once and checked, then linked;
    a stored inverse that fails verify_inverse is refused."""
    f = BlockCode(*_code_fields(obj))
    if "inverse" not in obj:
        return f
    g = BlockCode(*_code_fields(obj["inverse"]))
    if "inverse" in obj["inverse"]:
        raise InvalidCodeError("an inverse carries no inverse of its own")
    if g.domain != f.codomain or g.codomain != f.domain:
        raise ShiftMismatchError("inverse endpoints do not match")
    if not verify_inverse(f, g):
        raise InvalidCodeError("stored inverse failed verification")
    _set_inverse(f, g)
    _set_inverse(g, f)
    return f
