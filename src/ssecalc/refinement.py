"""Star products, Markov membership (the sets H_n), the canonical
refinement map delta, and the nine refinement-structure axioms as an
executable property suite.

A tuple of conjugacies out of a common shift X is sent to the diagonal
map into the product of their codomains.  Membership in H_n asks whether
the image of that map is again a 1-step vertex shift over its symbol
tuples; this is certified exactly by a mutually inverse pair onto the
image's 1-step closure, and only a failed certificate builds automata,
for a closure word the image misses.  When the image is Markov, delta
returns the conjugacy onto the canonically relabeled vertex shift, the
relabeling being the lexicographic rank of the symbol tuples.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from itertools import permutations
from typing import Optional, Sequence

from .codes import (
    BlockCode,
    _compose_raw,
    _fits,
    _packed_at,
    code_from_json,
    compose,
    identity_code,
    is_alphabet_bijection,
    is_elementary,
    normalize,
    relabel_codomain,
    verify_inverse,
)
from .errors import (
    InvalidCodeError,
    MissingInverseError,
    NotElementaryError,
    ShiftMismatchError,
    VerificationError,
    json_fields,
)
from .matrices import NonnegMatrix, matrix_from_json
from .shifts import (
    DeterministicPresentation,
    LabeledGraph,
    VertexShift,
    language_difference_witness,
)


@dataclass
class StarImage:
    """The image data of the diagonal map of a tuple of codes."""

    sources: tuple[BlockCode, ...]  # the components, in normal form
    side: int  # +1: windows in {0,1}; -1: windows in {-1,0}
    image_alphabet: tuple[tuple[int, ...], ...]  # lex-sorted symbol tuples
    labels: dict[int, int]  # packed 2-word of the domain -> its image symbol
    closure: tuple[int, ...]  # row masks of the image's 1-step closure


@dataclass
class RefinementVerdict:
    in_h_n: bool
    delta: Optional[BlockCode]
    witness: Optional[tuple]


def _detect_side(normal: Sequence[BlockCode]) -> int:
    """+1 for a tuple inside H, -1 for one inside H^{-1}, of codes in
    normal form."""
    if any(c._inverse is None for c in normal):
        raise MissingInverseError("elementarity needs a stored inverse")
    if all(_fits(c, 0, 1) for c in normal):
        return 1
    if all(_fits(c, -1, 0) for c in normal):
        return -1
    raise NotElementaryError("tuple is neither inside H nor inside H^{-1}")


def star_image(codes: Sequence[BlockCode], side: int) -> StarImage:
    """Image data of the star map; no elementarity assumption beyond the
    forward windows fitting the side's two-coordinate window.  side is
    the int 1 or -1; anything else is a ValueError."""
    if type(side) is not int or side not in (1, -1):
        raise ValueError(f"side must be the int 1 or -1, not {side!r}")
    return _star_image(tuple(normalize(c) for c in codes), side)


def _star_image(normal: tuple[BlockCode, ...], side: int) -> StarImage:
    """star_image of codes already in normal form."""
    if not normal:
        raise ValueError("star of an empty tuple")
    x = normal[0].domain
    for c in normal:
        if c.domain != x:
            raise ShiftMismatchError("star components must share their domain")
    lo, hi = (0, 1) if side == 1 else (-1, 0)
    columns = []
    for cn in normal:
        if not _fits(cn, lo, hi, inverse=False):
            raise NotElementaryError(f"window {cn.window} does not fit inside ({lo},{hi})")
        columns.append(_packed_at(cn, lo, hi).values())
    symbols = list(zip(*columns))  # the symbol tuple of each packed 2-word
    alphabet = tuple(sorted(set(symbols)))
    ranks = {t: i for i, t in enumerate(alphabet)}
    labels = dict(zip(x.packed_words(2), map(ranks.__getitem__, symbols)))
    b, succ = x.symbol_bits, x.succ
    last = (1 << b) - 1
    closure = [0] * len(alphabet)
    for w, u in labels.items():
        core = (w & last) << b
        for a in succ[w & last]:
            closure[u] |= 1 << labels[core | a]
    return StarImage(normal, side, alphabet, labels, tuple(closure))


def star(codes: Sequence[BlockCode]) -> StarImage:
    """The star product of a tuple of elementary codes (or of inverses).

    Each component is normalized once, here; side detection, the window
    tables and the inverse table of delta all read these normal forms."""
    normal = tuple(normalize(c) for c in codes)
    return _star_image(normal, _detect_side(normal))


def _markov_witness(si: StarImage):
    """None when the image is 1-step Markov, else a closure word missing
    from the image language."""
    x = si.sources[0].domain
    b = x.symbol_bits
    img_edges = [(w >> b, u, w & (1 << b) - 1) for w, u in si.labels.items()]
    img = DeterministicPresentation.from_graph(LabeledGraph(x.alphabet_size, img_edges))
    n = len(si.closure)
    clo_edges = [(u, u, v) for u, row in enumerate(si.closure) for v in range(n) if row >> v & 1]
    clo = DeterministicPresentation.from_graph(LabeledGraph(n, clo_edges))
    return language_difference_witness(clo, img)


def _delta_code(si: StarImage) -> Optional[BlockCode]:
    """The map onto the 1-step closure of the image with its inverse, or
    None unless the pair is certified mutually inverse (a certified map is
    onto the closure, so the image is Markov)."""
    x = si.sources[0].domain
    target = VertexShift(NonnegMatrix.from_bool_rows(len(si.closure), si.closure))
    # the inverse reads any single component whose inverse window fits the
    # mirrored side; for tuples in H (resp. H^{-1}) every component works
    lo, hi = (-1, 0) if si.side == 1 else (0, 1)
    for comp, c in enumerate(si.sources):
        if _fits(c.inverse, lo, hi, inverse=False):
            comp_tab = _packed_at(c.inverse, lo, hi)
            break
    else:
        raise NotElementaryError("no component inverse fits the mirrored window")
    ks = [t[comp] for t in si.image_alphabet]  # each image symbol's component
    b, bc = target.symbol_bits, c.codomain.symbol_bits
    last = (1 << b) - 1
    bwd = {v: comp_tab[ks[v >> b] << bc | ks[v & last]] for v in target.packed_words(2)}
    # Both tables are total and no check can fail.  Adjacent forward images
    # are closure transitions by construction.  The inverse sends a closure
    # 3-word (u, v, w) to the component inverse's image of (u_k, v_k, w_k),
    # k = comp, which is allowed in that component's vertex shift because
    # (u_k, v_k) and (v_k, w_k) are, so the image is an allowed 2-word of x.
    f = BlockCode._trusted(x, target, -hi, -lo, si.labels, (lo, hi, bwd))
    return f if verify_inverse(f, f.inverse) else None


def delta(codes: Sequence[BlockCode]) -> RefinementVerdict:
    """Decide membership of the tuple in H_n and return the refinement map;
    the automata run only after a failed certificate, for the witness."""
    si = star(codes)
    f = _delta_code(si)
    if f is not None:
        return RefinementVerdict(True, f, None)
    witness = _markov_witness(si)
    if witness is None:
        raise VerificationError("delta pair failed inverse verification on a Markov image")
    return RefinementVerdict(False, None, witness)


def star_map_general(codes: Sequence[BlockCode], side: int) -> BlockCode:
    """delta without the elementarity precondition on the components.

    The forward windows must fit the side's window and at least one
    component inverse must fit the mirror window; the delta pair must be
    certified (it is for the pairs this is used on, which is asserted).
    """
    f = _delta_code(star_image(codes, side))
    if f is None:
        raise VerificationError("star image failed inverse verification")
    return f


def equivalent(f: BlockCode, g: BlockCode) -> bool:
    """The relation ≅: g∘f^{-1} is an alphabet bijection."""
    if f.domain != g.domain:
        raise ShiftMismatchError("equivalent: domains differ")
    return is_alphabet_bijection(_compose_raw(g, f.inverse))


def arrow(f: BlockCode, g: BlockCode) -> bool:
    """The relation f -> g: g∘f^{-1} is elementary."""
    if f.domain != g.domain:
        raise ShiftMismatchError("arrow: domains differ")
    h = compose(g, f.inverse)
    return is_elementary(h)


def group_refine(psis: Sequence[BlockCode], phi: BlockCode) -> BlockCode:
    """delta(psi_1,...,psi_n,phi) for psi_i -> phi, with the certified
    arrow delta(...) -> phi."""
    for i, p in enumerate(psis):
        if not arrow(p, phi):
            raise NotElementaryError(f"psi_{i + 1} -> phi fails")
    verdict = delta(list(psis) + [phi])
    if not verdict.in_h_n:
        raise VerificationError("refinement grouping broke: tuple not in H_{n+1}")
    d = verdict.delta
    if not arrow(d, phi):
        raise VerificationError("refinement grouping broke: delta has no arrow to phi")
    return d


# -- the nine-axiom suite ---------------------------------------------


@dataclass
class AxiomResult:
    name: str
    checked: int = 0
    passed: int = 0
    vacuous: int = 0
    failures: list = field(default_factory=list)

    def record(self, ok: bool, note: str = ""):
        self.checked += 1
        if ok:
            self.passed += 1
        else:
            self.failures.append(note or "failed instance")

    @property
    def ok(self) -> bool:
        return not self.failures

    def to_json(self) -> dict:
        return {
            "axiom": self.name,
            "checked": self.checked,
            "passed": self.passed,
            "vacuous": self.vacuous,
            "failures": self.failures[:10],
        }


AXIOM_NAMES = (
    "exchangeability",
    "trivial-membership",
    "trivial-delta",
    "permutation-membership",
    "permutation-delta",
    "grouping",
    "drop-redundant",
    "arrow-left-pair",
    "arrow-right-pair",
    "arrow-delta",
)


def verify_refinement_axioms(
    codes: Sequence[BlockCode], trials: int = 5, seed: int = 0
) -> dict[str, AxiomResult]:
    """Exercise the refinement-structure axioms on one tuple of elementary
    codes with common domain, plus randomized auxiliary data.

    Statements conditioned on delta being defined count as vacuous when
    the membership hypothesis fails.  `trials` must be an integer >= 0.
    """
    from .sampling import random_bijection_code

    if type(trials) is not int or trials < 0:
        raise ValueError(f"trials must be an integer >= 0, not {trials!r}")
    codes = [normalize(c) for c in codes]
    for c in codes:
        if not is_elementary(c):
            raise NotElementaryError("axiom suite needs elementary codes")
    rng = random.Random(seed)
    res = {name: AxiomResult(name) for name in AXIOM_NAMES}

    def relabeled(x):
        """beta∘x for a random bijection beta of x's codomain alphabet."""
        return normalize(compose(random_bijection_code(rng, x.codomain), x))

    def refined_arrow_pair(psi):
        """An arrow d -> chi between genuinely different elementary codes:
        chi is a relabeling of psi and d = delta(psi, chi)."""
        chi = relabeled(psi)
        v = delta([psi, chi])
        if not v.in_h_n:
            return None
        return v.delta, chi

    # exchangeability: phi1 ~ phi2, phi3 ~ phi4, phi1 -> phi3 => phi2 -> phi4
    for _ in range(trials):
        pair = refined_arrow_pair(rng.choice(codes))
        if pair is None:
            res["exchangeability"].vacuous += 1
            continue
        phi1, phi3 = pair
        phi2 = relabeled(phi1)
        phi4 = relabeled(phi3)
        ok = arrow(phi1, phi3) and arrow(phi2, phi4)
        res["exchangeability"].record(ok, f"exchange failed on {phi1!r}")

    # each verdict on the input tuple and on each single code is reused below
    singles = [delta([c]) for c in codes]
    base_v = delta(codes)

    # H_1 = H and delta(phi) ~ phi
    for c, v in zip(codes, singles):
        res["trivial-membership"].record(v.in_h_n, "singleton not in H_1")
        if v.in_h_n:
            res["trivial-delta"].record(
                equivalent(v.delta, c), "delta(phi) not equivalent to phi"
            )

    # permutations
    perms = _some_permutations(len(codes), trials, rng)
    for kappa in perms:
        permuted = [codes[k] for k in kappa]
        v2 = delta(permuted)
        res["permutation-membership"].record(
            v2.in_h_n == base_v.in_h_n, f"membership changed under {kappa}"
        )
        if base_v.in_h_n and v2.in_h_n:
            res["permutation-delta"].record(
                equivalent(base_v.delta, v2.delta), f"delta changed under {kappa}"
            )
        elif base_v.in_h_n != v2.in_h_n:
            pass
        else:
            res["permutation-delta"].vacuous += 1

    # grouping with k groups of size 1, and 2 groups of size 2 when possible
    if all(v.in_h_n for v in singles):
        lhs = delta([v.delta for v in singles])
        res["grouping"].record(
            lhs.in_h_n == base_v.in_h_n, "grouping membership iff fails (k x 1)"
        )
        if lhs.in_h_n and base_v.in_h_n:
            res["grouping"].record(
                equivalent(lhs.delta, base_v.delta), "grouping delta fails (k x 1)"
            )
    if len(codes) >= 2:
        doubled = [codes[0], codes[0], codes[1], codes[1]]
        inner1 = delta([codes[0], codes[0]])
        inner2 = delta([codes[1], codes[1]])
        flat = delta(doubled)
        if inner1.in_h_n and inner2.in_h_n:
            nested = delta([inner1.delta, inner2.delta])
            res["grouping"].record(
                nested.in_h_n == flat.in_h_n, "grouping membership iff fails (2 x 2)"
            )
            if nested.in_h_n and flat.in_h_n:
                res["grouping"].record(
                    equivalent(nested.delta, flat.delta), "grouping delta fails (2 x 2)"
                )
        else:
            res["grouping"].vacuous += 1

    # dropping a redundant argument
    dup = [codes[0]] + codes
    v_dup = delta(dup)
    res["drop-redundant"].record(
        v_dup.in_h_n == base_v.in_h_n, "drop membership iff fails"
    )
    if v_dup.in_h_n and base_v.in_h_n:
        res["drop-redundant"].record(
            equivalent(v_dup.delta, base_v.delta), "drop delta fails"
        )

    # arrow axioms, on arrows d -> chi (a refinement mapping down to one
    # component) and chi -> beta∘chi (alphabet bijections)
    for _ in range(trials):
        psi = rng.choice(codes)
        pair = refined_arrow_pair(psi)
        if pair is None:
            res["arrow-left-pair"].vacuous += 1
            res["arrow-right-pair"].vacuous += 1
            res["arrow-delta"].vacuous += 1
            continue
        d, chi = pair
        # chi <- d -> beta∘d
        phi3 = relabeled(d)
        v = delta([chi, d, phi3])
        res["arrow-left-pair"].record(v.in_h_n, "arrow-2 membership fails")

        # d -> chi <- beta∘chi
        phi_r = relabeled(chi)
        v = delta([d, chi, phi_r])
        res["arrow-right-pair"].record(v.in_h_n, "arrow-3 membership fails")

        # arrow-delta: d -> chi and psi -> beta∘psi => delta pair arrow
        phi_b = relabeled(psi)
        v_ac = delta([d, psi])
        v_bd = delta([chi, phi_b])
        if v_ac.in_h_n and v_bd.in_h_n:
            res["arrow-delta"].record(
                arrow(v_ac.delta, v_bd.delta), "arrow-delta fails"
            )
        else:
            res["arrow-delta"].vacuous += 1

    return res


def canonical_representative(f: BlockCode) -> BlockCode:
    """A deterministic representative of the ≅-class of f.

    The codomain alphabet is renumbered by first appearance in the
    normalized table read in lexicographic word order; composing f with
    any alphabet bijection first yields the same output.
    """
    fn = normalize(f)
    perm = {}
    for w in fn.domain.packed_words(fn.width):
        perm.setdefault(fn._table[w], len(perm))
    if len(perm) != fn.codomain.alphabet_size:
        raise VerificationError("code is not surjective on codomain symbols")
    return normalize(relabel_codomain(fn, [perm[v] for v in range(len(perm))]))


def refine_representative(phi1: BlockCode, phi2: BlockCode) -> Optional[BlockCode]:
    """The map delta-tilde: the canonical representative of delta of the
    pair, or None when the pair is not in H_2.

    The components may be arbitrary conjugacies as long as the pair has
    an arrow (phi2∘phi1^{-1} elementary): then phi1 star phi2 equals
    (id star h)∘phi1 for h = phi2∘phi1^{-1} and the pair is in H_2.
    """
    if phi1.domain != phi2.domain:
        raise ShiftMismatchError("refinement pair must share its domain")
    h = compose(phi2, phi1.inverse)
    if is_elementary(h):
        inner = star_map_general([identity_code(phi1.codomain), normalize(h)], side=1)
        return canonical_representative(normalize(compose(inner, phi1)))
    try:
        v = delta([phi1, phi2])
    except NotElementaryError:
        return None
    if not v.in_h_n:
        return None
    return canonical_representative(v.delta)


def _some_permutations(n: int, trials: int, rng: random.Random):
    if math.factorial(n) <= trials + 1:
        return list(permutations(range(n)))
    out = [tuple(range(n))]
    for _ in range(trials):
        p = list(range(n))
        rng.shuffle(p)
        out.append(tuple(p))
    return out


def axiom_input_from_json(obj: dict, seed: int) -> tuple[list[BlockCode], dict]:
    """The code tuple of an axiom-suite input and the echo a report gives
    of it, whose base is the matrix itself (the report writer writes it).
    {"codes": [code, ...]} lists the codes; {"base": matrix, "tuple_size":
    n} draws n elementary codes out of base with random.Random(seed), n
    defaulting to 2.  Any other key, or keys of both forms, is an
    InvalidCodeError."""
    from .sampling import random_tuple

    if not isinstance(obj, dict):
        raise InvalidCodeError("axiom input must be a JSON object")
    allowed = ("codes",) if "codes" in obj else ("base", "tuple_size")
    for key in obj:
        if key not in allowed:
            raise InvalidCodeError(
                f"unexpected axiom input key {key!r}: give only \"codes\", "
                "or \"base\" with an optional \"tuple_size\""
            )
    if "codes" in obj:
        listed = obj["codes"]
        if not isinstance(listed, list) or not listed:
            raise InvalidCodeError("codes must be a nonempty list of block codes")
        codes = [code_from_json(c) for c in listed]
        return codes, {"codes": len(codes)}
    (base,) = json_fields(obj, InvalidCodeError, "an axiom input", ("base",))
    base = matrix_from_json(base)
    n = obj.get("tuple_size", 2)
    if type(n) is not int or n < 1:
        raise InvalidCodeError(f"tuple_size must be a positive integer, not {n!r}")
    codes = random_tuple(random.Random(seed), base, n, max_inner=base.rows + 1)
    return codes, {"base": base, "tuple_size": n}


def report_to_json(report: dict[str, AxiomResult]) -> dict:
    return {
        "axioms": [report[name].to_json() for name in AXIOM_NAMES],
        "all_passed": all(report[name].ok for name in AXIOM_NAMES),
    }
