import random
from itertools import permutations

import pytest

from ssecalc import codes, refinement
from ssecalc.codes import (
    compose,
    identity_code,
    is_elementary,
    normalize,
    shift_code,
)
from ssecalc.elementary import code_from_edge
from ssecalc.errors import (
    MAX_TRIALS,
    NotElementaryError,
    ResourceBoundError,
    ShiftMismatchError,
    VerificationError,
)
from ssecalc.matrices import NonnegMatrix
from ssecalc.refinement import (
    AXIOM_NAMES,
    _markov_witness,
    _some_permutations,
    arrow,
    canonical_representative,
    delta,
    equivalent,
    group_refine,
    refine_representative,
    star,
    star_image,
    star_map_general,
    verify_refinement_axioms,
)
from ssecalc.sampling import (
    random_bijection_code,
    random_conjugacy,
    random_edge,
    random_nondeg_matrix,
    random_tuple,
)
from ssecalc.shifts import DeterministicPresentation, VertexShift, higher_block
from ssecalc.williams import decompose

GM = NonnegMatrix([[1, 1], [1, 0]])
FULL2 = NonnegMatrix([[1, 1], [1, 1]])
X = VertexShift(GM)
Y = VertexShift(FULL2)


def test_star_of_identity():
    si = star([identity_code(X)])
    assert si.image_alphabet == ((0,), (1,))
    assert si.side == 1


def test_star_of_identity_pair_is_diagonal():
    si = star([identity_code(X), identity_code(X)])
    assert si.image_alphabet == ((0, 0), (1, 1))


def test_star_id_sigma_gives_two_blocks():
    si = star([identity_code(X), shift_code(X, 1)])
    # symbol tuples are the allowed 2-words 11, 12, 21
    assert si.image_alphabet == ((0, 0), (0, 1), (1, 0))


def test_star_needs_common_domain():
    with pytest.raises(ShiftMismatchError):
        star([identity_code(X), identity_code(Y)])


def test_star_rejects_wide():
    wide = compose(shift_code(X, 1), shift_code(X, 1))
    with pytest.raises(NotElementaryError):
        star([wide])


@pytest.mark.parametrize("side", [5, 0, True, 1.0, -1.0], ids=["5", "0", "True", "1.0", "-1.0"])
def test_a_side_other_than_one_or_minus_one_is_refused(side):
    with pytest.raises(ValueError, match="side must be the int 1 or -1"):
        star_image([shift_code(X, -1)], side)
    with pytest.raises(ValueError, match="side must be the int 1 or -1"):
        star_map_general([identity_code(X), shift_code(X, -1)], side)


def test_star_image_and_star_map_general_take_either_side():
    assert star_image([shift_code(X, -1)], -1).side == -1
    assert star_image([shift_code(X, 1)], 1).side == 1
    for g in (1, -1):
        f = star_map_general([identity_code(X), shift_code(X, g)], g)
        assert f.domain == X


def test_delta_single_is_equivalent_to_code():
    v = delta([identity_code(X)])
    assert v.in_h_n and v.witness is None
    assert equivalent(v.delta, identity_code(X))


def test_delta_id_sigma_is_higher_block():
    v = delta([identity_code(X), shift_code(X, 1)])
    assert v.in_h_n
    _, hb = higher_block(X, 2)
    assert equivalent(v.delta, hb)
    assert v.delta.codomain.matrix == NonnegMatrix([[1, 1, 0], [0, 0, 1], [1, 1, 0]])


def test_delta_on_inverses():
    v = delta([identity_code(X), shift_code(X, -1)])
    assert v.in_h_n
    assert v.delta.window == (-1, 0)


def test_arrow_configuration_lands_in_h3():
    # phi1 <- phi2 -> phi3 realized by post-composition
    rng = random.Random(0)
    phi2 = identity_code(X)
    phi1 = normalize(compose(shift_code(X, 1), phi2))
    phi3 = normalize(compose(random_bijection_code(rng, X), phi2))
    assert arrow(phi2, phi1) and arrow(phi2, phi3)
    v = delta([phi1, phi2, phi3])
    assert v.in_h_n


def test_equivalent_basics():
    f = shift_code(X, 1)
    assert equivalent(f, f)
    assert not equivalent(identity_code(Y), shift_code(Y, 1))
    v = delta([shift_code(X, 1)])
    assert equivalent(v.delta, shift_code(X, 1))


def test_equivalent_needs_common_domain():
    with pytest.raises(ShiftMismatchError):
        equivalent(identity_code(X), identity_code(Y))


def test_group_refine_base_case():
    d = group_refine([], shift_code(X, 1))
    assert equivalent(d, shift_code(X, 1))


def test_group_refine_higher_block():
    d = group_refine([identity_code(X)], shift_code(X, 1))
    assert d.codomain.alphabet_size == 3
    assert arrow(d, shift_code(X, 1))


def test_group_refine_random_arrow_elementary():
    rng = random.Random(1)
    for _ in range(5):
        phi = random_tuple(rng, GM, 1)[0]
        psis = [
            normalize(compose(random_bijection_code(rng, phi.codomain), phi))
            for _ in range(2)
        ]
        d = group_refine(psis, phi)
        assert is_elementary(compose(phi, d.inverse))


def test_axiom_suite_passes_on_both_bases():
    rng = random.Random(2)
    for base in (GM, FULL2):
        for n in (1, 2, 3):
            codes = random_tuple(rng, base, n)
            report = verify_refinement_axioms(codes, trials=3, seed=17)
            for name in AXIOM_NAMES:
                assert report[name].ok, (base.to_lists(), n, name, report[name].failures)


def test_canonical_representative_is_class_invariant():
    rng = random.Random(3)
    f = shift_code(X, 1)
    rep = canonical_representative(f)
    for _ in range(5):
        g = normalize(compose(random_bijection_code(rng, f.codomain), f))
        assert canonical_representative(g) == rep
        assert equivalent(rep, g)


def test_refine_representative_matches_delta():
    f = identity_code(X)
    g = shift_code(X, 1)
    r = refine_representative(f, g)
    assert r is not None
    v = delta([f, g])
    assert equivalent(r, v.delta)


def test_refine_representative_without_an_arrow_falls_back_to_delta():
    # two golden-mean codes whose difference phi2∘phi1^{-1} is not
    # elementary: the pair is still in H_2, and its delta gives the result
    rng = random.Random(8)
    pairs = (random_tuple(rng, GM, 2) for _ in range(50))
    phi1, phi2 = next(p for p in pairs if not is_elementary(compose(p[1], p[0].inverse)))
    v = delta([phi1, phi2])
    assert v.in_h_n
    assert refine_representative(phi1, phi2) == canonical_representative(v.delta)


def test_markov_witness_on_synthetic_non_markov_image():
    # a labeling of the golden-mean 2-blocks with an even-shift flavour:
    # single 'z' labels are impossible but the 1-step closure allows them,
    # so the membership check must fail and produce a word of the closure
    # that the image cannot realize
    from ssecalc.refinement import StarImage, _markov_witness
    from ssecalc.shifts import DeterministicPresentation, LabeledGraph

    # the golden-mean 2-words 00, 01, 10 pack (one bit a symbol) to 0, 1, 2
    # and are labeled y = 0, z = 1, z = 1; a packed 3-word w covers the
    # 2-words w >> 1 and w & 3
    labels = {0: 0, 1: 1, 2: 1}
    transitions = {(labels[w >> 1], labels[w & 3]) for w in X.packed_words(3)}
    closure = tuple(sum(1 << v for u2, v in transitions if u2 == u) for u in range(2))
    si = StarImage(
        sources=(identity_code(X),),
        side=1,
        image_alphabet=(("y",), ("z",)),
        labels=labels,
        closure=closure,
    )
    witness = _markov_witness(si)
    assert witness is not None
    # the witness is in the closure language
    clo = DeterministicPresentation.from_graph(
        LabeledGraph(2, [(u, u, v) for u, v in transitions])
    )
    img = DeterministicPresentation.from_graph(
        LabeledGraph(2, [(w >> 1, labels[w], w & 1) for w in X.packed_words(2)])
    )
    assert clo.accepts(witness) and not img.accepts(witness)


def test_equivalence_relation_properties():
    rng = random.Random(11)
    fs = [shift_code(X, 1), identity_code(X)]
    fs += [normalize(compose(random_bijection_code(rng, f.codomain), f)) for f in fs]
    for f in fs:
        assert equivalent(f, f)
    for f in fs:
        for g in fs:
            assert equivalent(f, g) == equivalent(g, f)
    for f in fs:
        for g in fs:
            for h in fs:
                if equivalent(f, g) and equivalent(g, h):
                    assert equivalent(f, h)


def test_axiom_suite_on_id_sigma_tuple():
    report = verify_refinement_axioms(
        [identity_code(X), shift_code(X, 1)], trials=3, seed=1
    )
    for name in AXIOM_NAMES:
        assert report[name].ok, (name, report[name].failures)


def test_some_permutations_never_lists_a_large_symmetric_group():
    perms = _some_permutations(20, 3, random.Random(4))
    rng = random.Random(4)
    expected = [tuple(range(20))]
    for _ in range(3):
        p = list(range(20))
        rng.shuffle(p)
        expected.append(tuple(p))
    assert perms == expected
    assert _some_permutations(3, 5, random.Random(4)) == list(permutations(range(3)))
    assert len(_some_permutations(3, 4, random.Random(4))) == 5


def test_delta_normalizes_each_component_once(monkeypatch):
    calls = []
    normal_data = codes._normalize_data

    def counted(f):
        calls.append(f)
        return normal_data(f)

    pair = [normalize(identity_code(X)), normalize(shift_code(X, 1))]
    monkeypatch.setattr(codes, "_normalize_data", counted)
    v = delta(pair)
    assert v.in_h_n
    # the normal form of each component and of its inverse, once each; the
    # certificate's normal forms are of the compositions, not counted here
    for f in (*pair, *(c.inverse for c in pair)):
        assert sum(g is f for g in calls) <= 1


@pytest.mark.parametrize("trials", [-1, 0.5, None])
def test_axiom_suite_rejects_bad_trials(trials):
    with pytest.raises(ValueError, match="trials"):
        verify_refinement_axioms([identity_code(X)], trials=trials)


def test_axiom_suite_refuses_trials_above_the_cap(monkeypatch):
    # refused before any work: no code is normalized, no permutation drawn
    monkeypatch.setattr(refinement, "normalize", None)
    with pytest.raises(ResourceBoundError, match=f"MAX_TRIALS = {MAX_TRIALS}"):
        verify_refinement_axioms([identity_code(X)], trials=MAX_TRIALS + 1)


def _inverse_tuple(rng, base, n):
    """n random codes in H^{-1} out of base: inverses of reversed edges."""
    return [
        code_from_edge(random_edge(rng, base).reversed()).inverse for _ in range(n)
    ]


def test_certificate_agrees_with_the_automata_on_random_tuples():
    rng = random.Random(5)
    bases = [GM, FULL2] + [random_nondeg_matrix(rng, 3) for _ in range(3)]
    for base in bases:
        for n in (1, 2, 3):
            for tup in (random_tuple(rng, base, n), _inverse_tuple(rng, base, n)):
                v = delta(tup)
                assert v.in_h_n == (_markov_witness(star(tup)) is None)
                assert (v.delta is None) == (not v.in_h_n)


# the golden-mean 2-blocks 00 -> 0, 01 -> 1, 10 -> 1 onto the full 2-shift,
# with a constant map stored as its inverse: the image is not Markov
TWO_BLOCK = codes.BlockCode(
    X, Y, 0, 1, {(0, 0): 0, (0, 1): 1, (1, 0): 1}, inverse=(0, 0, {(0,): 0, (1,): 0})
)
# the identity of the full 2-shift with the swap stored as its inverse
IDENTITY_WITH_SWAP = codes.BlockCode(
    Y, Y, 0, 0, {(0,): 0, (1,): 1}, inverse=(0, 0, {(0,): 1, (1,): 0})
)


def test_delta_of_a_non_markov_image_has_a_witness():
    v = delta([TWO_BLOCK])
    assert not v.in_h_n and v.delta is None
    assert v.witness == (0, 1, 0)


def test_delta_refuses_a_markov_image_whose_pair_fails_the_certificate():
    with pytest.raises(VerificationError):
        delta([IDENTITY_WITH_SWAP])


def test_decompose_builds_no_automaton(monkeypatch):
    calls = []
    from_graph = DeterministicPresentation.from_graph

    def counted(graph):
        calls.append(graph)
        return from_graph(graph)

    monkeypatch.setattr(DeterministicPresentation, "from_graph", counted)
    rng = random.Random(6)
    fs = [shift_code(X, 1), shift_code(Y, -1)]
    fs += [random_conjugacy(rng, base, 3, max_inner=3) for base in (GM, FULL2, GM)]
    assert sum(len(decompose(f)) for f in fs) > len(fs)
    assert calls == []
