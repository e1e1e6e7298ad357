"""Constructive reduction of an arbitrary conjugacy between vertex shifts
to a word of elementary moves.

Phase one composes with inverses of the two-block refinements
delta(id, tau_g) until the map reads a single coordinate; phase two then
conjugates by refinement pairs until the inverse is also one-block, i.e.
the remaining map is an alphabet bijection.  Every emitted step is an
edge of the SSE complex together with a sign, and the signed composition
of the output recomposes exactly to the input.
"""

from __future__ import annotations

from dataclasses import dataclass

from .codes import (
    BlockCode,
    _compose_raw,
    compose,
    identity_code,
    is_elementary,
    is_identity,
    is_inverse_elementary,
    normalize,
    shift_code,
    verify_inverse,
)
from .elementary import SSEEdge, edge_from_code
from .errors import InvalidCodeError, MissingInverseError, VerificationError
from .refinement import star_map_general
from .shifts import VertexShift


@dataclass(frozen=True)
class DecompositionStep:
    """One elementary move: an SSE edge with a traversal sign."""

    edge: SSEEdge
    sign: int  # +1: A->B, -1: B->A
    side: str  # "pre" or "post"


def _step_for(code: BlockCode, side: str) -> DecompositionStep:
    """A path step composing exactly `code`, which must be in H or H^{-1}."""
    if is_elementary(code):
        return DecompositionStep(edge_from_code(code), 1, side)
    if is_inverse_elementary(code):
        return DecompositionStep(edge_from_code(code.inverse), -1, side)
    raise VerificationError("step code is not in H union H^{-1}")


def _two_block_refinement(x: VertexShift, g: int) -> BlockCode:
    """delta(id_X, tau_{g,X}): the canonical two-block presentation move."""
    return star_map_general([identity_code(x), shift_code(x, g)], side=g)


def _hull(window: tuple[int, int]) -> tuple[int, int]:
    return (min(window[0], 0), max(window[1], 0))


def reduce_window(f: BlockCode) -> tuple[BlockCode, list[DecompositionStep]]:
    """Shrink the (forward) neighborhood of f to {0} by pre-composition.

    Returns the one-block remainder g and steps with f = g ∘ (steps...);
    each step removes the outermost offset, rightmost first.
    """
    if f._inverse is None:
        raise MissingInverseError("reduce_window needs an invertible code")
    cur = normalize(f)
    steps: list[DecompositionStep] = []
    while _hull(cur.window) != (0, 0):
        lo, hi = _hull(cur.window)
        g = 1 if hi > 0 else -1
        psi = _two_block_refinement(cur.domain, g)
        nxt = normalize(compose(cur, psi.inverse))
        new_lo, new_hi = _hull(nxt.window)
        if (new_hi - new_lo) >= (hi - lo):
            raise VerificationError("window did not shrink")
        steps.append(_step_for(psi, "pre"))
        cur = nxt
    return cur, steps


def reduce_inverse_window(
    f: BlockCode,
) -> tuple[BlockCode, list[DecompositionStep], list[DecompositionStep]]:
    """One inverse-shrinking conjugation step psi2 ∘ f ∘ psi1^{-1}.

    f must be a one-block conjugacy.  Returns (new f, pre steps, post
    steps); both lists are empty iff the inverse is already one-block.
    """
    if f._inverse is None:
        raise MissingInverseError("reduce_inverse_window needs an invertible code")
    cur = normalize(f)
    if _hull(cur.window) != (0, 0):
        raise InvalidCodeError("reduce_inverse_window needs a one-block code")
    lo, hi = _hull(cur.inverse.window)
    if (lo, hi) == (0, 0):
        return cur, [], []
    g = 1 if hi > 0 else -1
    x, y = cur.domain, cur.codomain
    tau = shift_code(y, g)
    # the delta pair's inverse reads the identity component's inverse, so
    # the second component is composed without one
    psi1 = star_map_general([identity_code(x), _compose_raw(tau, cur)], side=g)
    psi2 = star_map_general([identity_code(y), tau], side=g)
    nxt = normalize(compose(psi2, compose(cur, psi1.inverse)))
    if _hull(nxt.window) != (0, 0):
        raise VerificationError("conjugated map is not one-block")
    n_lo, n_hi = _hull(nxt.inverse.window)
    if (n_hi - n_lo) >= (hi - lo):
        raise VerificationError("inverse window did not shrink")
    return nxt, [_step_for(psi1, "pre")], [_step_for(psi2, "post")]


def decompose(f: BlockCode) -> list[DecompositionStep]:
    """A word of signed SSE edges whose composition is f, exactly."""
    if f._inverse is None:
        raise MissingInverseError("decompose needs an invertible code")
    if not verify_inverse(f, f.inverse):
        raise InvalidCodeError("stored inverse failed verification")
    cur, pre = reduce_window(f)
    post_stack: list[DecompositionStep] = []
    while True:
        cur, sp, st = reduce_inverse_window(cur)
        if not sp and not st:
            break
        pre.extend(sp)
        post_stack.extend(st)
    mid: list[DecompositionStep] = []
    if not is_identity(cur):
        mid.append(DecompositionStep(edge_from_code(cur), 1, "pre"))
    post: list[DecompositionStep] = []
    for step in reversed(post_stack):
        post.append(DecompositionStep(step.edge, -step.sign, "post"))
    return pre + mid + post
