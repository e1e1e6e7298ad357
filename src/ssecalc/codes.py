"""Sliding block codes between vertex shifts.

A code is a local rule on an interval window [left, right]; the value at
coordinate i of the image depends on the coordinates i+left .. i+right of
the input.  Tables are stored only on allowed words; querying a forbidden
word raises.  Equality of codes as functions is decided on canonical
normal forms: shrink the window from both ends as far as possible, then
slide it toward the origin where the shift's structure permits (this is
what makes e.g. powers of the shift map on a cycle compare equal to the
alphabet permutation they are).  A shrink regroups the table's own keys;
only a one-symbol rule can slide.

A code keeps its table keyed by packed words (``VertexShift.packed_words``:
a fixed number of bits per symbol, the first symbol most significant), so
composing, normalizing and checking a code read sub-windows by shifts and
masks, and a rule is read on a wider window by ``_packed_at``.  Words are
tuples only at the edges: the read-only ``table``, built on first read,
``table_at``, ``apply_word`` and the JSON format.  ``BlockCode(...)``
copies and checks tables from outside, which only ``code_from_json``
reads; every code the library makes, phi_{R,S} and the delta pair of
``refinement`` included, is built on packed tables by ``_trusted``.

A code keeps its normal form once ``normalize`` has found it, as it keeps
its ``table`` view and its hash, so a code is normalized at most once.
"""

from __future__ import annotations

from types import MappingProxyType
from typing import Mapping, Optional, Sequence

from .errors import (
    InvalidCodeError,
    MissingInverseError,
    ShiftMismatchError,
    json_fields,
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
    library's own codes, on packed tables it has built, come from
    ``_trusted``.  Copies and pickles rebuild the code and its inverse
    through this constructor, linked again.

    ``_normal`` is None until ``normalize`` has read the code, then the
    marker ``_NORMAL`` when the code is its own normal form, else that
    normal form.  Equality, hashing, copies and pickles do not read it.
    """

    __slots__ = (
        "domain", "codomain", "left", "right", "_table", "_view", "_inverse", "_hash",
        "_normal",
    )

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
        packed = _checked_table(domain, codomain, left, right, dict(table))
        if inverse is not None:
            inverse = (*inverse[:2], _checked_table(codomain, domain, *inverse))
        return cls._trusted(domain, codomain, left, right, packed, inverse)

    @classmethod
    def _trusted(cls, domain, codomain, left, right, table, inverse=None) -> "BlockCode":
        """The code, linked to its inverse if one is given, on the library's
        own fresh tables keyed by packed words: neither checked nor copied."""
        f = object.__new__(cls)
        _set_domain(f, domain)
        _set_codomain(f, codomain)
        _set_left(f, left)
        _set_right(f, right)
        _set_table(f, table)
        _set_view(f, None)
        _set_hash(f, None)
        _set_normal(f, None)
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

    @property
    def table(self) -> Mapping[tuple[int, ...], int]:
        """The table keyed by tuple words, read-only; built on first read."""
        view = self._view
        if view is None:
            x, width = self.domain, self.width
            values = map(self._table.__getitem__, x.packed_words(width))
            view = MappingProxyType(dict(zip(x.words(width), values)))
            _set_view(self, view)
        return view

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
        inside = all(0 <= a < x.alphabet_size for a in w)
        if not inside or any(c not in x.succ[a] for a, c in zip(w, w[1:])):
            raise InvalidCodeError(f"forbidden word {w}")
        # the table is total on allowed words, so every window of w is a key
        return tuple(self.table[w[i : i + width]] for i in range(len(w) - width + 1))

    def table_at(self, left: int, right: int) -> dict[tuple[int, ...], int]:
        """The same local rule expressed on a larger window."""
        values = _packed_at(self, left, right).values()
        return dict(zip(self.domain.words(right - left + 1), values))

    def __eq__(self, other) -> bool:
        if not isinstance(other, BlockCode):
            return NotImplemented
        return (
            self.domain == other.domain
            and self.codomain == other.codomain
            and self.left == other.left
            and self.right == other.right
            and self._table == other._table
        )

    def __hash__(self) -> int:
        if self._hash is None:
            items = tuple(sorted(self._table.items()))
            _set_hash(self, hash((self.domain, self.codomain, self.left, self.right, items)))
        return self._hash

    def __repr__(self) -> str:
        return (
            f"BlockCode({self.domain.alphabet_size}->{self.codomain.alphabet_size} "
            f"symbols, window [{self.left},{self.right}])"
        )


(
    _set_domain, _set_codomain, _set_left, _set_right,
    _set_table, _set_view, _set_inverse, _set_hash, _set_normal,
) = slot_setters(BlockCode)

# the _normal of a code that is its own normal form; a marker rather than
# the code itself, so that a code without an inverse holds no cycle
_NORMAL = object()


def _packed_at(f: BlockCode, left: int, right: int) -> dict[int, int]:
    """f's rule on the larger window [left, right], keyed by packed words
    in the order of ``packed_words``."""
    if left > f.left or right < f.right:
        raise InvalidCodeError("can only widen the window")
    x, tab = f.domain, f._table
    b = x.symbol_bits
    drop, mask = b * (right - f.right), (1 << b * f.width) - 1
    return {p: tab[p >> drop & mask] for p in x.packed_words(right - left + 1)}


def _checked_table(x: VertexShift, y: VertexShift, left, right, table: dict) -> dict:
    """The table of a code from x to y on the window [left, right], keyed by
    packed words, after checking the tuple-keyed table it is read from."""
    if type(left) is not int or type(right) is not int:
        raise InvalidCodeError(f"window bounds must be integers, not {(left, right)!r}")
    if left > right:
        raise InvalidCodeError("window left must be <= right")
    width = right - left + 1
    # A wide window has exponentially many allowed words, so the table's
    # size is checked against their count before any word is built.
    # Every symbol has a successor, so the count never falls as words
    # grow and can stop once it exceeds the table; keys of the window's
    # length bound the number of steps by the input's size.
    total = f"table must be total on allowed {width}-words"
    if not set(map(len, table)) <= {width}:
        raise InvalidCodeError(f"{total} (a key has another length)")
    ends = [1] * x.alphabet_size  # allowed words of the current length, by last symbol
    for _ in range(width - 1):
        if sum(ends) > len(table):
            break
        ends = [sum(ends[i] for i in x.pred[j]) for j in range(x.alphabet_size)]
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
    n_out = y.alphabet_size
    values = table.values()
    # packed words hold symbols as bit fields, so a symbol is an int
    if not set(map(type, values)) <= {int}:
        v = next(v for v in values if type(v) is not int)
        raise InvalidCodeError(f"table values must be integers, not {v!r}")
    if min(values) < 0 or max(values) >= n_out:
        for v in values:
            if not (0 <= v < n_out):
                raise InvalidCodeError(f"table value {v} outside codomain alphabet")
    packed = x.packed_words(width)
    ordered = list(map(table.__getitem__, words))
    out = dict(zip(packed, ordered))
    # adjacent image symbols must be codomain-allowed; by induction this
    # makes image words of every length allowed.  The (width+1)-words
    # w + (a,) are visited in the order of x.words(width + 1).
    masks = y.matrix.support_rows()
    succ, b = x.succ, x.symbol_bits
    last, tail = (1 << b) - 1, (1 << b * (width - 1)) - 1
    for w, p, v in zip(words, packed, ordered):
        row = masks[v]
        core = (p & tail) << b
        for a in succ[p & last]:
            if not row >> out[core | a] & 1:
                raise InvalidCodeError(f"image of word {w + (a,)} leaves the codomain shift")
    return out


def identity_code(x: VertexShift) -> BlockCode:
    table = {a: a for a in range(x.alphabet_size)}
    return BlockCode._trusted(x, x, 0, 0, table, (0, 0, table))


def shift_code(x: VertexShift, g: int) -> BlockCode:
    """The shift map tau_g (value at i reads coordinate i+g) as a code."""
    if type(g) is not int or g not in (1, -1):
        raise InvalidCodeError(f"shift exponent must be the integer 1 or -1, not {g!r}")
    table = {a: a for a in range(x.alphabet_size)}
    return BlockCode._trusted(x, x, g, g, table, (-g, -g, table))


def _images(f: BlockCode, width: int) -> tuple[tuple[int, ...], list[int]]:
    """The packed allowed words of f.width + width - 1 symbols, and the
    f-image of each: a packed codomain word of the given width.

    Built level by level: the image of a word one symbol longer is its
    prefix's image, shifted by one codomain symbol, OR'd with f's value on
    the word's last f.width symbols.  Only those last symbols (the tails)
    are stepped through the levels, in word order; the words themselves
    are asked of the shift once, for the final length, so a long width
    leaves no intermediate length in the shift's word cache."""
    x, tab, length = f.domain, f._table, f.width
    tails = x.packed_words(length)
    images = list(map(tab.__getitem__, tails))
    b, by, succ = x.symbol_bits, f.codomain.symbol_bits, x.succ
    last, window = (1 << b) - 1, (1 << b * length) - 1
    for level in range(width - 1, 0, -1):
        images = [
            i << by | tab[(s << b | a) & window]
            for s, i in zip(tails, images)
            for a in succ[s & last]
        ]
        if level > 1:
            tails = [(s << b | a) & window for s in tails for a in succ[s & last]]
    return x.packed_words(length + width - 1), images


def _compose_data(g: BlockCode, f: BlockCode) -> tuple[int, int, dict]:
    """The window and table of g∘f."""
    if f.codomain != g.domain:
        raise ShiftMismatchError("compose: f.codomain != g.domain")
    words, images = _images(f, g.width)
    table = dict(zip(words, map(g._table.__getitem__, images)))
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


def _regroup(tab: Mapping, shift: int, keep: int) -> Optional[dict]:
    """The table on the words ``w >> shift & keep`` of tab's packed keys w,
    or None when two keys that read as one word carry different values."""
    new = {}
    for w, v in tab.items():
        if new.setdefault(w >> shift & keep, v) != v:
            return None
    return new


def _normalize_data(f: BlockCode) -> tuple[int, int, Mapping]:
    """The window and table of f's normal form; the table is f's own
    when f is already normal.

    A shrink regroups the table's own keys, by their first width-1
    symbols (drop the last) or their last (drop the first).  Every symbol
    has a successor and a predecessor, so every shorter allowed word is a
    prefix and a suffix of a key, and the regrouped table is total.  Only
    a one-symbol rule slides toward the origin: a wider rule that also
    reads one step nearer the origin cannot read its far end, so the
    shrinks have already dropped it."""
    x, left, right, tab = f.domain, f.left, f.right, f._table
    b = x.symbol_bits
    last = (1 << b) - 1
    while right > left:
        new = _regroup(tab, b, -1)
        if new is None:
            break
        right, tab = right - 1, new
    while right > left:
        new = _regroup(tab, 0, (1 << b * (right - left)) - 1)
        if new is None:
            break
        left, tab = left + 1, new
    while left == right != 0:
        # the rule read on the two symbols from it toward the origin, then
        # regrouped by the nearer one
        if left > 0:
            new = _regroup({w: tab[w & last] for w in x.packed_words(2)}, b, -1)
        else:
            new = _regroup({w: tab[w >> b] for w in x.packed_words(2)}, 0, last)
        if new is None:
            break
        step = -1 if left > 0 else 1
        left, right, tab = left + step, right + step, new
    return left, right, tab


def normalize(f: BlockCode) -> BlockCode:
    """Canonical minimal-window form; equality of normal forms is equality
    of the codes as functions.  A code with an inverse is normal when both
    are, and its normal form is linked to its inverse's.  The normal form
    is kept on f and on f's inverse, so only the first call on a code
    normalizes; a normal form is its own, and so is its inverse."""
    n = f._normal
    if n is not None:
        return f if n is _NORMAL else n
    data = _normalize_data(f)
    g = f._inverse
    inverse = None if g is None else _normalize_data(g)
    if data[2] is f._table and (g is None or inverse[2] is g._table):
        n = f
    else:
        n = BlockCode._trusted(f.domain, f.codomain, *data, inverse)
        _set_normal(f, n)
        if g is not None:
            _set_normal(g, n._inverse)
    _set_normal(n, _NORMAL)
    if g is not None:
        _set_normal(n._inverse, _NORMAL)
    return n


def _normal_pair(f: BlockCode, g: BlockCode) -> BlockCode:
    """The normal code with f's rule and g's as its inverse, for the normal
    forms f and g of two mutually inverse codes; their own inverses, if
    any, are not read."""
    n = BlockCode._trusted(
        f.domain, f.codomain, f.left, f.right, f._table, (g.left, g.right, g._table)
    )
    _set_normal(n, _NORMAL)
    _set_normal(n._inverse, _NORMAL)
    return n


def is_identity(f: BlockCode) -> bool:
    g = normalize(f)
    return (
        g.domain == g.codomain
        and g.window == (0, 0)
        and all(g._table[a] == a for a in range(g.domain.alphabet_size))
    )


def _composes_to_identity(g: BlockCode, f: BlockCode) -> bool:
    """Whether g∘f is the identity of f.domain.  When its window contains
    0, no table is built: every allowed word extends to a point of the
    nondegenerate shift, so g∘f is the identity iff each word's image is
    the word's own symbol at coordinate 0."""
    right = f.right + g.right
    if not f.left + g.left <= 0 <= right:
        return is_identity(_compose_raw(g, f))
    words, images = _images(f, g.width)
    tab, b = g._table, f.domain.symbol_bits
    at_zero, last = b * right, (1 << b) - 1
    return all(tab[i] == w >> at_zero & last for w, i in zip(words, images))


def verify_inverse(f: BlockCode, g: BlockCode) -> bool:
    """True iff both compositions are identity codes."""
    if f.domain != g.codomain or f.codomain != g.domain:
        return False
    return _composes_to_identity(g, f) and _composes_to_identity(f, g)


def equal_codes(f: BlockCode, g: BlockCode) -> bool:
    return normalize(f) == normalize(g)


def is_alphabet_bijection(f: BlockCode) -> bool:
    g = normalize(f)
    if g.window != (0, 0):
        return False
    vals = set(g._table.values())
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
    return compose(bijection_code(f.codomain, perm), f)


def bijection_code(x: VertexShift, perm: Sequence[int]) -> BlockCode:
    """The alphabet bijection a -> perm[a] from x onto the relabeled shift."""
    n = x.alphabet_size
    if any(type(p) is not int for p in perm) or sorted(perm) != list(range(n)):
        raise InvalidCodeError("perm is not a bijection of the codomain alphabet")
    masks, back = [0] * n, [0] * n
    for i, succ in enumerate(x.succ):
        masks[perm[i]] = sum(1 << perm[j] for j in succ)
        back[perm[i]] = i
    target = VertexShift(NonnegMatrix.from_bool_rows(n, masks))
    fwd, bwd = dict(enumerate(perm)), dict(enumerate(back))
    return BlockCode._trusted(x, target, 0, 0, fwd, (0, 0, bwd))


# -- JSON format ------------------------------------------------------


def code_to_json(f: BlockCode, include_inverse: bool = True, *, encode=matrix_to_json) -> dict:
    """The code object, with its inverse when it has one and include_inverse.
    The two shift matrices are encode(matrix), JSON objects by default."""
    out = {
        "domain": encode(f.domain.matrix),
        "codomain": encode(f.codomain.matrix),
        "window": [f.left, f.right],
        "table": [[[a + 1 for a in w], v + 1] for w, v in f.table.items()],
    }
    if include_inverse and f._inverse is not None:
        out["inverse"] = code_to_json(f._inverse, include_inverse=False, encode=encode)
    return out


def _code_fields(obj) -> tuple:
    """The shifts, window and 0-based table of one block code object."""
    keys = ("domain", "codomain", "window", "table")
    domain, codomain, window, table = json_fields(obj, InvalidCodeError, "a block code", keys)
    domain, codomain = (VertexShift(matrix_from_json(m)) for m in (domain, codomain))
    try:
        left, right = window
        entries = [(tuple(w), v) for w, v in [tuple(e) for e in table]]
    except (TypeError, ValueError) as exc:
        raise InvalidCodeError(f"malformed block code object: {exc}") from exc
    for n in (left, right, *(s for w, v in entries for s in (*w, v))):
        if type(n) is not int:
            raise InvalidCodeError(f"window and table symbols must be integers, not {n!r}")
    return domain, codomain, left, right, {tuple(a - 1 for a in w): v - 1 for w, v in entries}


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
    # neither code has been normalized, so no kept normal form goes stale
    _set_inverse(f, g)
    _set_inverse(g, f)
    return f
