"""Star products, Markov membership (the sets H_n), the canonical
refinement map delta, and the nine refinement-structure axioms as an
executable property suite.

A tuple of conjugacies out of a common shift X is sent to the diagonal
map into the product of their codomains.  Membership in H_n asks whether
the image of that map is again a 1-step vertex shift over its symbol
tuples; this is decided exactly, by language equality between the image
presentation and its 1-step closure.  When the image is Markov, delta
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
    code_from_json,
    compose,
    identity_code,
    is_alphabet_bijection,
    is_elementary,
    is_inverse_elementary,
    normalize,
    verify_inverse,
)
from .errors import (
    InvalidCodeError,
    NotElementaryError,
    ShiftMismatchError,
    VerificationError,
)
from .matrices import NonnegMatrix, matrix_from_json, matrix_to_json
from .shifts import (
    DeterministicPresentation,
    LabeledGraph,
    VertexShift,
    language_difference_witness,
)


@dataclass
class StarImage:
    """The image data of the diagonal map of a tuple of codes."""

    sources: tuple[BlockCode, ...]
    side: int  # +1: windows in {0,1}; -1: windows in {-1,0}
    image_alphabet: tuple[tuple[int, ...], ...]  # lex-sorted symbol tuples
    ranks: dict[tuple[int, ...], int]
    tuple_of_word: dict[tuple[int, int], tuple[int, ...]]
    transitions: frozenset[tuple[int, int]]


@dataclass
class RefinementVerdict:
    in_h_n: bool
    delta: Optional[BlockCode]
    witness: Optional[tuple]
    star: StarImage


def _detect_side(codes: Sequence[BlockCode]) -> int:
    if all(is_elementary(c) for c in codes):
        return 1
    if all(is_inverse_elementary(c) for c in codes):
        return -1
    raise NotElementaryError("tuple is neither inside H nor inside H^{-1}")


def _window_tables(codes: Sequence[BlockCode], side: int) -> list[dict]:
    lo, hi = (0, 1) if side == 1 else (-1, 0)
    tabs = []
    for c in codes:
        cn = normalize(c)
        if not _fits(cn, lo, hi, inverse=False):
            raise NotElementaryError(
                f"window {cn.window} does not fit inside ({lo},{hi})"
            )
        tabs.append(cn.table_at(lo, hi))
    return tabs


def star_image(codes: Sequence[BlockCode], side: int) -> StarImage:
    """Image data of the star map; no elementarity assumption beyond the
    forward windows fitting the side's two-coordinate window."""
    codes = tuple(codes)
    if not codes:
        raise ValueError("star of an empty tuple")
    x = codes[0].domain
    for c in codes:
        if c.domain != x:
            raise ShiftMismatchError("star components must share their domain")
    tabs = _window_tables(codes, side)
    tuple_of_word = {w: tuple(tab[w] for tab in tabs) for w in x.words(2)}
    alphabet = tuple(sorted(set(tuple_of_word.values())))
    ranks = {t: i for i, t in enumerate(alphabet)}
    transitions = frozenset(
        (ranks[tuple_of_word[w[:2]]], ranks[tuple_of_word[w[1:]]])
        for w in x.words(3)
    )
    return StarImage(codes, side, alphabet, ranks, tuple_of_word, transitions)


def star(codes: Sequence[BlockCode]) -> StarImage:
    """The star product of a tuple of elementary codes (or of inverses)."""
    return star_image(codes, _detect_side(codes))


def _markov_witness(si: StarImage):
    """None when the image is 1-step Markov, else a closure word missing
    from the image language."""
    x = si.sources[0].domain
    img_edges = [
        (w[0], si.ranks[si.tuple_of_word[w]], w[1]) for w in x.words(2)
    ]
    img = DeterministicPresentation.from_graph(
        LabeledGraph(x.alphabet_size, img_edges)
    )
    clo_edges = [(u, u, v) for (u, v) in si.transitions]
    clo = DeterministicPresentation.from_graph(
        LabeledGraph(len(si.image_alphabet), clo_edges)
    )
    return language_difference_witness(clo, img)


def _delta_code(si: StarImage, verify: bool) -> BlockCode:
    x = si.sources[0].domain
    n_img = len(si.image_alphabet)
    masks = [0] * n_img
    for (u, v) in si.transitions:
        masks[u] |= 1 << v
    target = VertexShift(NonnegMatrix.from_bool_rows(n_img, masks))
    fwd = {w: si.ranks[t] for w, t in si.tuple_of_word.items()}
    # the inverse reads any single component whose inverse window fits the
    # mirrored side; for tuples in H (resp. H^{-1}) every component works
    lo, hi = (-1, 0) if si.side == 1 else (0, 1)
    comp = None
    comp_tab = None
    for idx, c in enumerate(si.sources):
        gn = normalize(c.inverse)
        if _fits(gn, lo, hi, inverse=False):
            comp = idx
            comp_tab = gn.table_at(lo, hi)
            break
    if comp is None:
        raise NotElementaryError("no component inverse fits the mirrored window")
    bwd = {}
    for (u, v) in si.transitions:
        key = (u, v)
        bwd[key] = comp_tab[(si.image_alphabet[u][comp], si.image_alphabet[v][comp])]
    if si.side == 1:
        f = BlockCode(x, target, 0, 1, fwd, inverse=(-1, 0, bwd))
    else:
        f = BlockCode(x, target, -1, 0, fwd, inverse=(0, 1, bwd))
    if verify and not verify_inverse(f, f.inverse):
        raise VerificationError("delta code failed inverse verification")
    return f


def delta(codes: Sequence[BlockCode], verify: bool = True) -> RefinementVerdict:
    """Decide membership of the tuple in H_n and return the refinement map."""
    return _delta_verdict(star(codes), verify)


def _delta_verdict(si: StarImage, verify: bool) -> RefinementVerdict:
    witness = _markov_witness(si)
    if witness is not None:
        return RefinementVerdict(False, None, witness, si)
    return RefinementVerdict(True, _delta_code(si, verify), None, si)


def star_map_general(codes: Sequence[BlockCode], side: int, verify: bool = True) -> BlockCode:
    """delta without the elementarity precondition on the components.

    The forward windows must fit the side's window and at least one
    component inverse must fit the mirror window; the image must come out
    Markov (it does for the pairs this is used on, which is asserted).
    """
    si = star_image(codes, side)
    v = _delta_verdict(si, verify)
    if not v.in_h_n:
        raise VerificationError(
            f"star image unexpectedly not Markov; witness {v.witness}"
        )
    return v.delta


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
    the membership hypothesis fails.
    """
    from .sampling import random_bijection_code

    codes = [normalize(c) for c in codes]
    for c in codes:
        if not is_elementary(c):
            raise NotElementaryError("axiom suite needs elementary codes")
    rng = random.Random(seed)
    res = {name: AxiomResult(name) for name in AXIOM_NAMES}

    def maybe_delta(tup):
        return delta(tup, verify=False)

    def refined_arrow_pair(psi):
        """An arrow d -> chi between genuinely different elementary codes:
        chi is a relabeling of psi and d = delta(psi, chi)."""
        chi = normalize(compose(random_bijection_code(rng, psi.codomain), psi))
        v = delta([psi, chi], verify=False)
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
        phi2 = normalize(compose(random_bijection_code(rng, phi1.codomain), phi1))
        phi4 = normalize(compose(random_bijection_code(rng, phi3.codomain), phi3))
        ok = arrow(phi1, phi3) and arrow(phi2, phi4)
        res["exchangeability"].record(ok, f"exchange failed on {phi1!r}")

    # H_1 = H and delta(phi) ~ phi
    for c in codes:
        v = maybe_delta([c])
        res["trivial-membership"].record(v.in_h_n, "singleton not in H_1")
        if v.in_h_n:
            res["trivial-delta"].record(
                equivalent(v.delta, c), "delta(phi) not equivalent to phi"
            )

    # permutations
    base_v = maybe_delta(codes)
    perms = _some_permutations(len(codes), trials, rng)
    for kappa in perms:
        permuted = [codes[k] for k in kappa]
        v2 = maybe_delta(permuted)
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
    singles = [maybe_delta([c]) for c in codes]
    if all(v.in_h_n for v in singles):
        lhs = maybe_delta([v.delta for v in singles])
        rhs = maybe_delta(codes)
        res["grouping"].record(
            lhs.in_h_n == rhs.in_h_n, "grouping membership iff fails (k x 1)"
        )
        if lhs.in_h_n and rhs.in_h_n:
            res["grouping"].record(
                equivalent(lhs.delta, rhs.delta), "grouping delta fails (k x 1)"
            )
    if len(codes) >= 2:
        doubled = [codes[0], codes[0], codes[1], codes[1]]
        inner1 = maybe_delta([codes[0], codes[0]])
        inner2 = maybe_delta([codes[1], codes[1]])
        flat = maybe_delta(doubled)
        if inner1.in_h_n and inner2.in_h_n:
            nested = maybe_delta([inner1.delta, inner2.delta])
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
    v_dup = maybe_delta(dup)
    v_plain = maybe_delta(codes)
    res["drop-redundant"].record(
        v_dup.in_h_n == v_plain.in_h_n, "drop membership iff fails"
    )
    if v_dup.in_h_n and v_plain.in_h_n:
        res["drop-redundant"].record(
            equivalent(v_dup.delta, v_plain.delta), "drop delta fails"
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
        phi3 = normalize(compose(random_bijection_code(rng, d.codomain), d))
        v = maybe_delta([chi, d, phi3])
        res["arrow-left-pair"].record(v.in_h_n, "arrow-2 membership fails")

        # d -> chi <- beta∘chi
        phi_r = normalize(compose(random_bijection_code(rng, chi.codomain), chi))
        v = maybe_delta([d, chi, phi_r])
        res["arrow-right-pair"].record(v.in_h_n, "arrow-3 membership fails")

        # arrow-delta: d -> chi and psi -> beta∘psi => delta pair arrow
        phi_b = normalize(compose(random_bijection_code(rng, psi.codomain), psi))
        v_ac = maybe_delta([d, psi])
        v_bd = maybe_delta([chi, phi_b])
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
    for w in sorted(fn.table):
        v = fn.table[w]
        if v not in perm:
            perm[v] = len(perm)
    if len(perm) != fn.codomain.alphabet_size:
        raise VerificationError("code is not surjective on codomain symbols")
    from .codes import relabel_codomain

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
        inner = star_map_general(
            [identity_code(phi1.codomain), normalize(h)], side=1, verify=False
        )
        return canonical_representative(normalize(compose(inner, phi1)))
    try:
        v = delta([phi1, phi2], verify=False)
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
    of it.  {"codes": [code, ...]} lists the codes; {"base": matrix,
    "tuple_size": n} draws n elementary codes out of base with
    random.Random(seed), n defaulting to 2."""
    from .sampling import random_tuple

    if not isinstance(obj, dict):
        raise InvalidCodeError("axiom input must be a JSON object")
    if "codes" in obj:
        listed = obj["codes"]
        if not isinstance(listed, list) or not listed:
            raise InvalidCodeError("codes must be a nonempty list of block codes")
        codes = [code_from_json(c) for c in listed]
        return codes, {"codes": len(codes)}
    base = matrix_from_json(obj["base"])
    n = obj.get("tuple_size", 2)
    if type(n) is not int or n < 1:
        raise InvalidCodeError(f"tuple_size must be a positive integer, not {n!r}")
    codes = random_tuple(random.Random(seed), base, n, max_inner=base.rows + 1)
    return codes, {"base": matrix_to_json(base), "tuple_size": n}


def report_to_json(report: dict[str, AxiomResult]) -> dict:
    return {
        "axioms": [report[name].to_json() for name in AXIOM_NAMES],
        "all_passed": all(report[name].ok for name in AXIOM_NAMES),
    }
