import random
from itertools import permutations

import pytest

from ssecalc.codes import (
    compose,
    equal_codes,
    identity_code,
    is_elementary,
    normalize,
    shift_code,
)
from ssecalc.errors import NotElementaryError, ShiftMismatchError
from ssecalc.matrices import NonnegMatrix
from ssecalc.refinement import (
    AXIOM_NAMES,
    _some_permutations,
    arrow,
    canonical_representative,
    delta,
    equivalent,
    group_refine,
    refine_representative,
    star,
    verify_refinement_axioms,
)
from ssecalc.sampling import random_bijection_code, random_tuple
from ssecalc.shifts import VertexShift, higher_block

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


def test_markov_witness_on_synthetic_non_markov_image():
    # a labeling of the golden-mean 2-blocks with an even-shift flavour:
    # single 'z' labels are impossible but the 1-step closure allows them,
    # so the membership check must fail and produce a word of the closure
    # that the image cannot realize
    from ssecalc.refinement import StarImage, _markov_witness
    from ssecalc.shifts import DeterministicPresentation, LabeledGraph

    labels = {(0, 0): ("y",), (0, 1): ("z",), (1, 0): ("z",)}
    alphabet = tuple(sorted(set(labels.values())))
    ranks = {t: i for i, t in enumerate(alphabet)}
    transitions = frozenset(
        (ranks[labels[w[:2]]], ranks[labels[w[1:]]]) for w in X.words(3)
    )
    si = StarImage(
        sources=(identity_code(X),),
        side=1,
        image_alphabet=alphabet,
        ranks=ranks,
        tuple_of_word=labels,
        transitions=transitions,
    )
    witness = _markov_witness(si)
    assert witness is not None
    # the witness is in the closure language
    clo = DeterministicPresentation.from_graph(
        LabeledGraph(len(alphabet), [(u, u, v) for u, v in transitions])
    )
    img = DeterministicPresentation.from_graph(
        LabeledGraph(
            2, [(w[0], ranks[labels[w]], w[1]) for w in X.words(2)]
        )
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
